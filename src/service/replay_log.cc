#include "service/replay_log.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "util/fault_injector.h"
#include "util/logging.h"

namespace maps {

namespace {

/// One slot per key the event schema knows. Other keys are ignored, but
/// like every key they may appear only once per line.
enum Slot : int { kEvent, kId, kTask, kOx, kOy, kDx, kDy, kDistance,
                  kValuation, kX, kY, kRadius, kDuration, kAccepted,
                  kNumSlots };

constexpr std::array<std::string_view, kNumSlots> kSlotKey = {
    "event",    "id",        "task", "ox", "oy",     "dx",       "dy",
    "distance", "valuation", "x",    "y",  "radius", "duration", "accepted"};

/// The slot named `key`, or kNumSlots: the length (and a letter where
/// lengths collide) picks the one candidate, a compare confirms it.
Slot SlotOf(std::string_view key) {
  Slot slot = kNumSlots;
  switch (key.size()) {
    case 1:
      slot = key[0] == 'x' ? kX : kY;
      break;
    case 2:
      if (key[0] == 'i') slot = kId;
      if (key[0] == 'o') slot = key[1] == 'x' ? kOx : kOy;
      if (key[0] == 'd') slot = key[1] == 'x' ? kDx : kDy;
      break;
    case 4:
      slot = kTask;
      break;
    case 5:
      slot = kEvent;
      break;
    case 6:
      slot = kRadius;
      break;
    case 8:
      slot = key[1] == 'i' ? kDistance : key[1] == 'u' ? kDuration : kAccepted;
      break;
    case 9:
      slot = kValuation;
      break;
  }
  return slot != kNumSlots && kSlotKey[slot] == key ? slot : kNumSlots;
}

/// Scan-phase output: a view into the line per known key. A key written as
/// null or "" holds an empty view, which the decode phase reads as absent.
struct Slots {
  std::array<std::string_view, kNumSlots> value;
  uint32_t seen = 0;  ///< bit per slot: the key appeared, even as null
};

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)); }

/// True when a pair starting before column `end` has key `key`. The scanner
/// has already accepted that prefix, so this walk checks nothing. Only keys
/// without a slot come here; the exporter writes none.
bool KeyRepeats(std::string_view line, size_t end, std::string_view key) {
  for (size_t i = line.find('"'); i < end; i = line.find('"', i)) {
    const size_t key_end = line.find('"', i + 1);
    if (line.substr(i + 1, key_end - i - 1) == key) return true;
    i = line.find(':', key_end) + 1;
    while (IsSpace(line[i])) ++i;
    if (line[i] == '"') {
      i = line.find('"', i + 1) + 1;
    } else {
      while (line[i] != ',' && line[i] != '}' && !IsSpace(line[i])) ++i;
    }
  }
  return false;
}

/// Scan phase: one pass over a flat JSON object {"key": value, ...} where
/// value is a double-quoted string (no escapes needed by the schema), null,
/// or a bare token starting with t, f, '-' or a digit. Nested objects and
/// arrays are rejected — the event schema is flat by design. Errors give
/// the column the scan stopped at.
Status ScanLine(std::string_view line, Slots* slots) {
  size_t i = 0;
  const auto skip_ws = [&] {
    while (i < line.size() && IsSpace(line[i])) ++i;
  };
  const auto at = [&](char c) { return i < line.size() && line[i] == c; };
  const auto fail = [&](const std::string& what) {
    return Status::InvalidArgument(what + " at column " + std::to_string(i) +
                                   " of: " + std::string(line));
  };

  skip_ws();
  if (!at('{')) return fail("expected '{'");
  ++i;
  skip_ws();
  bool more = !at('}');
  if (!more) ++i;
  while (more) {
    skip_ws();
    if (!at('"')) return fail("expected key");
    const size_t key_begin = i;
    const size_t key_end = line.find('"', i + 1);
    if (key_end == std::string_view::npos) return fail("unterminated key");
    const std::string_view key = line.substr(i + 1, key_end - i - 1);
    i = key_end + 1;
    skip_ws();
    if (!at(':')) return fail("expected ':'");
    ++i;
    skip_ws();
    std::string_view value;
    if (at('"')) {
      const size_t val_end = line.find('"', i + 1);
      if (val_end == std::string_view::npos) {
        return fail("unterminated string");
      }
      value = line.substr(i + 1, val_end - i - 1);
      i = val_end + 1;
    } else {
      const size_t start = i;
      while (i < line.size() && line[i] != ',' && line[i] != '}' &&
             !IsSpace(line[i])) {
        ++i;
      }
      value = line.substr(start, i - start);
      if (value.empty()) return fail("expected value");
      if (value == "null") {
        value = {};
      } else if (value[0] != 't' && value[0] != 'f' && value[0] != '-' &&
                 !std::isdigit(static_cast<unsigned char>(value[0]))) {
        return fail("unsupported value '" + std::string(value) + "'");
      }
    }
    const Slot slot = SlotOf(key);
    if (slot == kNumSlots ? KeyRepeats(line, key_begin, key)
                          : ((slots->seen >> slot) & 1u) != 0) {
      return fail("duplicate key '" + std::string(key) + "'");
    }
    if (slot != kNumSlots) {
      slots->seen |= 1u << slot;
      slots->value[slot] = value;
    }
    skip_ws();
    if (!at(',') && !at('}')) return fail("expected ',' or '}'");
    more = at(',');
    ++i;
  }
  skip_ws();
  if (i != line.size()) return fail("trailing characters");
  return Status::OK();
}

/// True when `s`, a numeral from_chars matched in full but called out of
/// range, underflows rather than overflows: once the exponent is applied,
/// its leading nonzero digit lies below the units place.
bool Underflows(std::string_view s) {
  const size_t e = std::min(s.find_first_of("eE"), s.size());
  const size_t lead = s.find_first_not_of("-0.");
  const size_t dot = std::min(s.find('.'), e);
  // Decimal exponent of the leading nonzero digit, before the explicit one.
  const int64_t scale = lead < dot ? static_cast<int64_t>(dot - lead) - 1
                                   : -static_cast<int64_t>(lead - dot);
  if (e == s.size()) return scale < 0;
  // Past any line length only the exponent's sign matters. from_chars
  // leaves the clamped guess in place when the exponent overflows int64.
  constexpr int64_t kClamp = int64_t{1} << 48;
  const char* digits = s.data() + e + 1 + (s[e + 1] == '+' ? 1 : 0);
  int64_t exponent = *digits == '-' ? -kClamp : kClamp;
  std::from_chars(digits, s.data() + s.size(), exponent);
  return scale + std::clamp(exponent, -kClamp, kClamp) < 0;
}

/// Field decoders, overloaded on the field's type, in std::from_chars'
/// spelling: JSON numerals plus "1." and ".5", never a leading '+',
/// whitespace or hexadecimal. Expect names the type in error messages.
const char* Expect(const int64_t*) { return "a 64-bit integer"; }
const char* Expect(const int32_t*) { return "a 32-bit integer"; }
const char* Expect(const double*) { return "a finite number"; }
const char* Expect(const bool*) { return "a boolean"; }

/// A whole base-10 integer in T's range: no fraction, exponent or trailing
/// junk, and never routed through a double, so large ids keep every bit.
template <typename T>
bool Decode(std::string_view s, T* out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

/// A finite double. A magnitude that rounds below the smallest subnormal
/// reads as a signed zero, as strtod gave it; overflow, NaN and infinity
/// are rejected.
bool Decode(std::string_view s, double* out) {
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ptr != s.data() + s.size()) return false;
  if (ec == std::errc::result_out_of_range) {
    if (!Underflows(s)) return false;
    v = s[0] == '-' ? -0.0 : 0.0;
  }
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

bool Decode(std::string_view s, bool* out) {
  if (s != "true" && s != "1" && s != "false" && s != "0") return false;
  *out = s == "true" || s == "1";
  return true;
}

}  // namespace

Result<ReplayEvent> ParseReplayEventLine(std::string_view line) {
  Slots slots;
  MAPS_RETURN_NOT_OK(ScanLine(line, &slots));
  if ((slots.seen & (1u << kEvent)) == 0) {
    return Status::InvalidArgument("missing \"event\" field: " +
                                   std::string(line));
  }
  const std::string_view kind = slots.value[kEvent];
  // Decode phase: reads slot `k` into `*out`. An absent or null field fails
  // only when required; a malformed one always does — optional is not a
  // license for garbage. Errors name the event, field and rejected text.
  const auto read = [&](Slot k, auto* out, bool required = true) {
    const char* expect = Expect(out);
    const std::string_view text = slots.value[k];
    if (text.empty() && !required) return Status::OK();
    if (text.empty()) {
      return Status::InvalidArgument(
          std::string(kind) + " event is missing required field '" +
          std::string(kSlotKey[k]) + "' (" + expect + ")");
    }
    if (Decode(text, out)) return Status::OK();
    return Status::InvalidArgument(
        std::string(kind) + " event field '" + std::string(kSlotKey[k]) +
        "' must be " + expect + ", got '" + std::string(text) + "'");
  };
  ReplayEvent ev;

  if (kind == "submit_task") {
    ev.kind = ReplayEvent::Kind::kSubmitTask;
    MAPS_RETURN_NOT_OK(read(kId, &ev.task.id));
    MAPS_RETURN_NOT_OK(read(kOx, &ev.task.origin.x));
    MAPS_RETURN_NOT_OK(read(kOy, &ev.task.origin.y));
    MAPS_RETURN_NOT_OK(read(kDx, &ev.task.destination.x));
    MAPS_RETURN_NOT_OK(read(kDy, &ev.task.destination.y));
    MAPS_RETURN_NOT_OK(read(kDistance, &ev.task.distance, false));
    MAPS_RETURN_NOT_OK(read(kValuation, &ev.valuation, false));
    // A decoded valuation is finite, so the NaN default means "omitted".
    ev.has_valuation = !std::isnan(ev.valuation);
    return ev;
  }
  if (kind == "add_worker") {
    ev.kind = ReplayEvent::Kind::kAddWorker;
    MAPS_RETURN_NOT_OK(read(kId, &ev.worker.id));
    MAPS_RETURN_NOT_OK(read(kX, &ev.worker.location.x));
    MAPS_RETURN_NOT_OK(read(kY, &ev.worker.location.y));
    MAPS_RETURN_NOT_OK(read(kRadius, &ev.worker.radius));
    MAPS_RETURN_NOT_OK(read(kDuration, &ev.worker.duration, false));
    return ev;
  }
  if (kind == "remove_worker") {
    ev.kind = ReplayEvent::Kind::kRemoveWorker;
    MAPS_RETURN_NOT_OK(read(kId, &ev.id));
    return ev;
  }
  if (kind == "observe_acceptance") {
    ev.kind = ReplayEvent::Kind::kObserveAcceptance;
    MAPS_RETURN_NOT_OK(read(kTask, &ev.id));
    MAPS_RETURN_NOT_OK(read(kAccepted, &ev.accepted));
    return ev;
  }
  if (kind == "close_period") {
    ev.kind = ReplayEvent::Kind::kClosePeriod;
    return ev;
  }
  return Status::InvalidArgument("unknown event kind '" + std::string(kind) +
                                 "'");
}

ReplayEventStream::ReplayEventStream(std::istream& in,
                                     const ReplayLoadOptions& options)
    : in_(in), options_(options) {}

void ReplayEventStream::AttachMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  const auto det = obs::Determinism::kDeterministic;
  m_lines_ = registry->GetCounter("ingest.lines", det);
  m_bytes_ = registry->GetCounter("ingest.bytes", det);
  m_events_ = registry->GetCounter("ingest.events", det);
  m_skipped_ = registry->GetCounter("ingest.lines_skipped", det);
}

Result<bool> ReplayEventStream::Next(ReplayEvent* out) {
  if (done_) return false;
  while (std::getline(in_, line_)) {
    ++lineno_;
    if (m_lines_ != nullptr) m_lines_->Increment();
    // Payload bytes only (the stripped '\n' is not counted) — a pure
    // function of the log content, so the counter is deterministic.
    if (m_bytes_ != nullptr) {
      m_bytes_->Add(static_cast<int64_t>(line_.size()));
    }
    if (FaultInjector::Global().ShouldFire(FaultRule::Kind::kReplayReadError,
                                           -1,
                                           static_cast<int32_t>(lineno_))) {
      // An injected structural read failure: the stream is broken, not the
      // line — skip_bad_events does not paper over it.
      done_ = true;
      return Status::Internal("injected replay read error at line " +
                              std::to_string(lineno_));
    }
    const size_t first = line_.find_first_not_of(" \t\n\v\f\r");
    if (first == std::string::npos || line_[first] == '#') continue;
    auto ev = ParseReplayEventLine(line_);
    if (!ev.ok()) {
      if (options_.skip_bad_events) {
        ++stats_.lines_skipped;
        if (m_skipped_ != nullptr) m_skipped_->Increment();
        MAPS_LOG(Warning) << "replay log line " << lineno_
                          << " skipped: " << ev.status().message();
        continue;
      }
      done_ = true;
      return Status::InvalidArgument("line " + std::to_string(lineno_) + ": " +
                                     ev.status().message());
    }
    ++stats_.events_loaded;
    if (m_events_ != nullptr) m_events_->Increment();
    *out = std::move(ev).ValueOrDie();
    return true;
  }
  done_ = true;
  return false;
}

}  // namespace maps

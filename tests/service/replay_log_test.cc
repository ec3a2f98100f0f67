#include "service/replay_log.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <string>

#include "../test_util.h"
#include "sim/scenario_fuzzer.h"
#include "util/fault_injector.h"

namespace maps {
namespace {

using testing_util::DrainReplayStream;

TEST(ReplayLogTest, ParsesEveryEventKind) {
  auto submit = ParseReplayEventLine(
                    R"({"event":"submit_task","id":3,"ox":1.5,"oy":2,)"
                    R"("dx":4,"dy":6,"valuation":3.25})")
                    .ValueOrDie();
  EXPECT_EQ(submit.kind, ReplayEvent::Kind::kSubmitTask);
  EXPECT_EQ(submit.task.id, 3);
  EXPECT_DOUBLE_EQ(submit.task.origin.x, 1.5);
  EXPECT_DOUBLE_EQ(submit.task.destination.y, 6.0);
  EXPECT_TRUE(submit.has_valuation);
  EXPECT_DOUBLE_EQ(submit.valuation, 3.25);
  EXPECT_DOUBLE_EQ(submit.task.distance, 0.0);  // derive from geometry

  auto worker = ParseReplayEventLine(
                    R"({"event":"add_worker","id":7,"x":10,"y":20,)"
                    R"("radius":5,"duration":12})")
                    .ValueOrDie();
  EXPECT_EQ(worker.kind, ReplayEvent::Kind::kAddWorker);
  EXPECT_EQ(worker.worker.id, 7);
  EXPECT_DOUBLE_EQ(worker.worker.radius, 5.0);
  EXPECT_EQ(worker.worker.duration, 12);

  auto no_duration =
      ParseReplayEventLine(
          R"({"event":"add_worker","id":8,"x":1,"y":1,"radius":2})")
          .ValueOrDie();
  EXPECT_EQ(no_duration.worker.duration, Worker::kUnlimitedDuration);

  auto remove =
      ParseReplayEventLine(R"({"event":"remove_worker","id":7})").ValueOrDie();
  EXPECT_EQ(remove.kind, ReplayEvent::Kind::kRemoveWorker);
  EXPECT_EQ(remove.id, 7);

  auto observe = ParseReplayEventLine(
                     R"({"event":"observe_acceptance","task":3,)"
                     R"("accepted":true})")
                     .ValueOrDie();
  EXPECT_EQ(observe.kind, ReplayEvent::Kind::kObserveAcceptance);
  EXPECT_EQ(observe.id, 3);
  EXPECT_TRUE(observe.accepted);

  auto close = ParseReplayEventLine(R"({"event":"close_period"})");
  EXPECT_EQ(close.ValueOrDie().kind, ReplayEvent::Kind::kClosePeriod);
}

TEST(ReplayLogTest, OmittedValuationIsFlagged) {
  auto ev = ParseReplayEventLine(
                R"({"event":"submit_task","id":1,"ox":0,"oy":0,"dx":1,)"
                R"("dy":1})")
                .ValueOrDie();
  EXPECT_FALSE(ev.has_valuation);
  EXPECT_TRUE(std::isnan(ev.valuation));
}

TEST(ReplayLogTest, RejectsMalformedLines) {
  // Not an object / trailing garbage / bad values.
  EXPECT_FALSE(ParseReplayEventLine("close_period").ok());
  EXPECT_FALSE(ParseReplayEventLine(R"({"event":"close_period"} x)").ok());
  EXPECT_FALSE(ParseReplayEventLine(R"({"event":"warp_drive"})").ok());
  EXPECT_FALSE(ParseReplayEventLine(R"({"id":1})").ok());
  // Missing required fields.
  EXPECT_FALSE(ParseReplayEventLine(R"({"event":"submit_task","id":1})").ok());
  EXPECT_FALSE(ParseReplayEventLine(R"({"event":"remove_worker"})").ok());
  EXPECT_FALSE(
      ParseReplayEventLine(R"({"event":"observe_acceptance","task":1})").ok());
  EXPECT_FALSE(ParseReplayEventLine(
                   R"({"event":"observe_acceptance","task":1,"accepted":7})")
                   .ok());
  // Duplicate keys and nested values are schema violations.
  EXPECT_FALSE(
      ParseReplayEventLine(R"({"event":"close_period","event":"x"})").ok());
  EXPECT_TRUE(ParseReplayEventLine(R"({"event":"close_period","n":1,"m":1})")
                  .ok());
  EXPECT_FALSE(
      ParseReplayEventLine(R"({"event":"close_period","n":1,"m":"n","n":2})")
          .ok());
  EXPECT_FALSE(
      ParseReplayEventLine(R"({"event":"close_period","extra":{}})").ok());
}

TEST(ReplayLogTest, LoadSkipsBlanksAndCommentsAndNumbersErrors) {
  std::istringstream good(
      "# a comment\n"
      "\n"
      R"({"event":"add_worker","id":1,"x":0,"y":0,"radius":3})"
      "\n"
      "   # indented comment\n"
      R"({"event":"close_period"})"
      "\n");
  auto events = DrainReplayStream(good).ValueOrDie();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, ReplayEvent::Kind::kAddWorker);
  EXPECT_EQ(events[1].kind, ReplayEvent::Kind::kClosePeriod);

  std::istringstream bad(
      "# fine\n"
      R"({"event":"close_period"})"
      "\n"
      "{broken\n");
  auto err = DrainReplayStream(bad);
  ASSERT_FALSE(err.ok());
  EXPECT_NE(err.status().message().find("line 3"), std::string::npos);
}

TEST(ReplayLogTest, CrlfLogYieldsTheLfEvents) {
  const std::string lf =
      "# header\n"
      "\n"
      R"({"event":"add_worker","id":1,"x":0.5,"y":2,"radius":3,)"
      R"("duration":4})"
      "\n"
      R"({"event":"submit_task","id":2,"ox":1,"oy":1,"dx":2,"dy":3,)"
      R"("valuation":1.25})"
      "\n"
      R"({"event":"observe_acceptance","task":2,"accepted":false})"
      "\n"
      R"({"event":"remove_worker","id":1})"
      "\n"
      R"({"event":"close_period"})"
      "\n";
  // Every line, the blank one and the comment included, ends in "\r\n".
  std::string crlf;
  for (const char c : lf) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  std::istringstream lf_in(lf);
  std::istringstream crlf_in(crlf);
  ReplayLoadStats lf_stats;
  ReplayLoadStats crlf_stats;
  const auto lf_events = DrainReplayStream(lf_in, {}, &lf_stats).ValueOrDie();
  const auto crlf_events =
      DrainReplayStream(crlf_in, {}, &crlf_stats).ValueOrDie();
  ASSERT_EQ(lf_events.size(), 5u);
  ASSERT_EQ(crlf_events.size(), lf_events.size());
  for (size_t i = 0; i < lf_events.size(); ++i) {
    EXPECT_TRUE(testing_util::SameReplayEvent(crlf_events[i], lf_events[i]))
        << "event " << i;
  }
  EXPECT_EQ(crlf_stats.events_loaded, lf_stats.events_loaded);
  EXPECT_EQ(crlf_stats.lines_skipped, 0);
}

// ---------------------------------------------------------------------------
// Hardened numeric validation: malformed values are rejected with the
// offending field named, never cast through undefined behavior.
// ---------------------------------------------------------------------------

TEST(ReplayLogTest, RejectsNonFiniteAndNonIntegralNumbers) {
  // Literal "nan"/"inf" die in the scanner (not a JSON value at all);
  // signed spellings and overflow-to-infinity decimals reach the field
  // validator, which must reject them naming the field.
  for (const char* value : {"nan", "inf"}) {
    EXPECT_FALSE(ParseReplayEventLine(
                     std::string(R"({"event":"submit_task","id":1,"ox":)") +
                     value + R"(,"oy":0,"dx":1,"dy":1})")
                     .ok())
        << value;
  }
  for (const char* value : {"-nan", "-inf", "1e999", "-1e999"}) {
    const std::string line =
        std::string(R"({"event":"submit_task","id":1,"ox":)") + value +
        R"(,"oy":0,"dx":1,"dy":1})";
    auto st = ParseReplayEventLine(line).status();
    ASSERT_FALSE(st.ok()) << value;
    EXPECT_NE(st.message().find("'ox'"), std::string::npos) << st.message();
  }
  // Optional numeric fields validate too — optional is not a license for
  // garbage.
  EXPECT_FALSE(ParseReplayEventLine(
                   R"({"event":"submit_task","id":1,"ox":0,"oy":0,)"
                   R"("dx":1,"dy":1,"valuation":1e999})")
                   .ok());

  // Integer fields: non-integral, overflowing, or junk-suffixed values.
  for (const char* value : {"1.5", "2e3", "9223372036854775808",
                            "-9223372036854775809", "7x"}) {
    const std::string line =
        std::string(R"({"event":"remove_worker","id":)") + value + "}";
    auto st = ParseReplayEventLine(line).status();
    ASSERT_FALSE(st.ok()) << value;
    EXPECT_NE(st.message().find("'id'"), std::string::npos) << st.message();
  }
  // int64 boundaries themselves parse exactly (no double rounding).
  auto max_id = ParseReplayEventLine(
                    R"({"event":"remove_worker","id":9223372036854775807})")
                    .ValueOrDie();
  EXPECT_EQ(max_id.id, 9223372036854775807LL);

  // duration is 32-bit: out-of-range values are rejected with the field
  // named, not truncated.
  auto st = ParseReplayEventLine(
                R"({"event":"add_worker","id":1,"x":0,"y":0,"radius":2,)"
                R"("duration":4294967296})")
                .status();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("'duration'"), std::string::npos);

  // Missing-field errors also name the field.
  st = ParseReplayEventLine(R"({"event":"submit_task","id":1,"ox":0})")
           .status();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("'oy'"), std::string::npos);
}

TEST(ReplayLogTest, NumberSpellingsFollowFromChars) {
  const auto origin_x = [](const std::string& value) {
    return ParseReplayEventLine(R"({"event":"submit_task","id":1,"ox":)" +
                                value + R"(,"oy":0,"dx":1,"dy":1})");
  };
  // Too small for a double: a signed zero, as strtod rounded it, however
  // far out the exponent (from_chars calls these out of range).
  for (const char* value : {"1e-400", "1E-400", "0.0000000001e-320",
                            "1e-99999999999999999999999"}) {
    const double x = origin_x(value).ValueOrDie().task.origin.x;
    EXPECT_EQ(std::bit_cast<uint64_t>(x), 0u) << value;
  }
  const double negative_zero = origin_x("-1e-400").ValueOrDie().task.origin.x;
  EXPECT_EQ(std::bit_cast<uint64_t>(negative_zero),
            std::bit_cast<uint64_t>(-0.0));
  // The smallest subnormal reads bit-exact, and so does a round-trip
  // spelling with every digit.
  EXPECT_EQ(std::bit_cast<uint64_t>(
                origin_x("4.9e-324").ValueOrDie().task.origin.x),
            1u);
  EXPECT_EQ(origin_x("0.10000000000000001").ValueOrDie().task.origin.x, 0.1);
  // Too large, however the exponent is spelled, is still rejected.
  for (const char* value : {"1e309", "1e+400", "1e99999999999999999999999",
                            "10000000000000000000e300"}) {
    const auto st = origin_x(value).status();
    ASSERT_FALSE(st.ok()) << value;
    EXPECT_NE(st.message().find("field 'ox' must be a finite number"),
              std::string::npos)
        << st.message();
  }

  // The deliberate tightening: spellings strtod/strtoll took but JSON does
  // not allow are rejected with the field named.
  struct Case {
    const char* line;
    const char* message;
  };
  for (const Case& c : std::initializer_list<Case>{
           {R"({"event":"add_worker","id":1,"x":0x10,"y":0,"radius":1})",
            "add_worker event field 'x' must be a finite number, got '0x10'"},
           {R"({"event":"add_worker","id":1,"x":"-0X1p3","y":0,"radius":1})",
            "add_worker event field 'x' must be a finite number, got "
            "'-0X1p3'"},
           {R"({"event":"remove_worker","id":"+5"})",
            "remove_worker event field 'id' must be a 64-bit integer, got "
            "'+5'"},
           {R"({"event":"submit_task","id":1,"ox":"+1.5","oy":0,"dx":1,)"
            R"("dy":1})",
            "submit_task event field 'ox' must be a finite number, got "
            "'+1.5'"},
           {R"({"event":"submit_task","id":1,"ox":" 1","oy":0,"dx":1,)"
            R"("dy":1})",
            "submit_task event field 'ox' must be a finite number, got ' 1'"},
           {"{\"event\":\"observe_acceptance\",\"task\":\"\t7\","
            "\"accepted\":true}",
            "observe_acceptance event field 'task' must be a 64-bit integer, "
            "got '\t7'"},
       }) {
    const auto st = ParseReplayEventLine(c.line).status();
    ASSERT_FALSE(st.ok()) << c.line;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(st.message(), c.message);
  }
}

TEST(ReplayLogTest, SkipBadEventsDropsAndCountsMalformedLines) {
  const std::string corpus =
      "# broken-log corpus\n"
      R"({"event":"add_worker","id":1,"x":0,"y":0,"radius":3})"
      "\n"
      "{broken json\n"                                          // bad: syntax
      R"({"event":"submit_task","id":nan,"ox":0,"oy":0,"dx":1,"dy":1})"
      "\n"                                                      // bad: value
      R"({"event":"warp_drive"})"
      "\n"                                                      // bad: kind
      R"({"event":"close_period"})"
      "\n";

  // Strict load fails on the first bad line, with its number.
  std::istringstream strict(corpus);
  auto err = DrainReplayStream(strict);
  ASSERT_FALSE(err.ok());
  EXPECT_NE(err.status().message().find("line 3"), std::string::npos);

  // Opt-in skipping loads the good events and counts the bad lines.
  std::istringstream lax(corpus);
  ReplayLoadOptions options;
  options.skip_bad_events = true;
  ReplayLoadStats stats;
  auto events = DrainReplayStream(lax, options, &stats).ValueOrDie();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, ReplayEvent::Kind::kAddWorker);
  EXPECT_EQ(events[1].kind, ReplayEvent::Kind::kClosePeriod);
  EXPECT_EQ(stats.lines_skipped, 3);
  EXPECT_EQ(stats.events_loaded, 2);

  // skip_bad_events defaults off, and a clean log reports zero skips.
  std::istringstream clean(R"({"event":"close_period"})");
  ReplayLoadStats clean_stats;
  ASSERT_TRUE(
      DrainReplayStream(clean, ReplayLoadOptions{}, &clean_stats).ok());
  EXPECT_EQ(clean_stats.lines_skipped, 0);
  EXPECT_EQ(clean_stats.events_loaded, 1);
}

TEST(ReplayLogTest, StrictStreamFailsAtTheExactLineForEveryCorpusEntry) {
  // Every malformed-line class the scenario fuzzer's corruption mode can
  // emit must fail a strict streamed read with (a) the 1-based number of
  // the injected line, (b) the advertised message fragment, and (c) the
  // offending field's name when the damage is field-level. The corpus lives
  // with the fuzzer so the two cannot drift apart.
  const std::string good_worker =
      R"({"event":"add_worker","id":1,"x":0,"y":0,"radius":3})";
  for (const MalformedReplayLine& bad : MalformedReplayLineCorpus()) {
    SCOPED_TRACE(bad.label);
    // Comment, two good lines, the bad line at line 4, one good trailer.
    std::ostringstream log;
    log << "# corpus\n"
        << good_worker << "\n"
        << good_worker << "\n"
        << bad.line << "\n"
        << R"({"event":"close_period"})" << "\n";
    std::istringstream in(log.str());
    ReplayEventStream stream(in);
    ReplayEvent event;
    Status error = Status::OK();
    while (true) {
      auto next = stream.Next(&event);
      if (!next.ok()) {
        error = next.status();
        break;
      }
      if (!next.ValueOrDie()) break;
    }
    ASSERT_FALSE(error.ok()) << "corpus line parsed cleanly: " << bad.line;
    EXPECT_NE(error.message().find("line 4"), std::string::npos)
        << "error was: " << error.ToString();
    EXPECT_EQ(stream.line_number(), 4);
    EXPECT_NE(error.message().find(bad.expect), std::string::npos)
        << "error was: " << error.ToString();
    if (bad.field != nullptr) {
      std::string quoted_field = "'";
      quoted_field += bad.field;
      quoted_field += "'";
      EXPECT_NE(error.message().find(quoted_field), std::string::npos)
          << "error was: " << error.ToString();
    }
  }
}

TEST(ReplayLogTest, SkipBadEventsRecoversEveryCorpusEntry) {
  // The same corpus, all injected into one log: skipping mode must drop
  // each bad line exactly once and keep every good event.
  const auto& corpus = MalformedReplayLineCorpus();
  std::ostringstream log;
  for (const MalformedReplayLine& bad : corpus) {
    log << R"({"event":"close_period"})" << "\n" << bad.line << "\n";
  }
  std::istringstream in(log.str());
  ReplayLoadOptions options;
  options.skip_bad_events = true;
  ReplayLoadStats stats;
  const auto events = DrainReplayStream(in, options, &stats).ValueOrDie();
  EXPECT_EQ(events.size(), corpus.size());
  EXPECT_EQ(stats.lines_skipped, static_cast<int64_t>(corpus.size()));
  EXPECT_EQ(stats.events_loaded, static_cast<int64_t>(corpus.size()));
}

TEST(ReplayLogTest, InjectedReadErrorFailsAtTheArmedLine) {
  const std::string log =
      R"({"event":"close_period"})" "\n"
      R"({"event":"close_period"})" "\n"
      R"({"event":"close_period"})" "\n";

  ScopedFaultPlan plan("read_err@p2");
  std::istringstream in(log);
  auto err = DrainReplayStream(in);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInternal);
  EXPECT_NE(err.status().message().find("line 2"), std::string::npos);

  // A stream fault models the transport, not the payload: lenient mode
  // (skip_bad_events) must NOT swallow it.
  std::istringstream again(log);
  ReplayLoadOptions options;
  options.skip_bad_events = true;
  EXPECT_FALSE(DrainReplayStream(again, options).ok());
  EXPECT_EQ(FaultInjector::Global().fires(FaultRule::Kind::kReplayReadError),
            2);
}

}  // namespace
}  // namespace maps

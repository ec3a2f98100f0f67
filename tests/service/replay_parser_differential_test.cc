// Differential test of ParseReplayEventLine against the parser it replaced
// (reference_replay_parser.h): the two must agree on every line of the
// scenario fuzzer's corrupted logs, on the malformed-line corpus and on
// seeded mutations of both — same ok(), same status code, same message
// bytes, and every ReplayEvent field bit for bit. The one divergence
// allowed is the number-spelling tightening, which is asserted by name.

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "../test_util.h"
#include "reference_replay_parser.h"
#include "rng/random.h"
#include "service/replay_log.h"
#include "sim/scenario_fuzzer.h"

namespace maps {
namespace {

namespace reference = testing_util::reference_replay;
using testing_util::SameReplayEvent;

/// A numeral strtod/strtoll read but JSON and std::from_chars do not:
/// leading whitespace, a leading '+', or hexadecimal after an optional '-'.
bool IsTightenedSpelling(std::string_view v) {
  if (v.empty()) return false;
  if (v[0] == '+' || std::isspace(static_cast<unsigned char>(v[0]))) {
    return true;
  }
  if (v[0] == '-') v.remove_prefix(1);
  return v.size() >= 2 && v[0] == '0' && (v[1] == 'x' || v[1] == 'X');
}

/// True when `message` is the new parser rejecting a field's value for the
/// tightening alone: the value is a tightened spelling that the reference
/// parser's own number reader accepts.
bool IsTighteningRejection(const std::string& message) {
  const size_t field = message.find(" event field '");
  const size_t got = message.find(", got '");
  if (field == std::string::npos || got == std::string::npos ||
      message.back() != '\'') {
    return false;
  }
  const size_t text_begin = got + 7;
  const std::string text =
      message.substr(text_begin, message.size() - 1 - text_begin);
  if (!IsTightenedSpelling(text)) return false;
  double d = 0.0;
  int64_t i = 0;
  if (message.find("' must be a finite number", field) != std::string::npos) {
    return reference::ParseFiniteDouble(text, &d);
  }
  return reference::ParseInt64(text, &i);
}

/// Differential verdict on one line.
struct Tally {
  int64_t lines = 0;
  int64_t accepted = 0;
  int64_t tightened = 0;
};

::testing::AssertionResult ParsersAgree(const std::string& line,
                                        Tally* tally) {
  ++tally->lines;
  const Result<ReplayEvent> got = ParseReplayEventLine(line);
  const Result<ReplayEvent> want = reference::ParseReplayEventLine(line);
  if (got.ok() && want.ok()) {
    ++tally->accepted;
    if (SameReplayEvent(got.ValueOrDie(), want.ValueOrDie())) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure() << "events differ for: " << line;
  }
  if (!got.ok() && !want.ok() &&
      got.status().code() == want.status().code() &&
      got.status().message() == want.status().message()) {
    return ::testing::AssertionSuccess();
  }
  if (!got.ok() && IsTighteningRejection(got.status().message())) {
    ++tally->tightened;
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "parsers disagree on: " << line
         << "\n  new:       " << got.status().ToString()
         << "\n  reference: " << want.status().ToString();
}

/// Every line of every DefaultScenarioMatrix() log at seed 1, with a
/// corpus line spliced in after every fifth event.
std::vector<std::string> ScenarioLines() {
  std::vector<std::string> lines;
  for (const ScenarioSpec& spec : DefaultScenarioMatrix()) {
    std::ostringstream log;
    EXPECT_TRUE(
        WriteScenarioLog(spec, 1, log, /*inject_malformed_every=*/5).ok())
        << spec.name;
    std::istringstream in(log.str());
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  return lines;
}

std::vector<std::string> CorpusLines() {
  std::vector<std::string> lines;
  for (const MalformedReplayLine& bad : MalformedReplayLineCorpus()) {
    lines.push_back(bad.line);
  }
  return lines;
}

/// One seeded edit: truncation, a byte replaced from the grammar's
/// alphabet, a byte deleted, or a key/value pair repeated after itself.
std::string Mutate(std::string line, Rng& rng) {
  static constexpr std::string_view kAlphabet =
      "{}[]\":,.+-eE0123456789ntfx#\t\r ";
  if (line.empty()) return line;
  const size_t at = rng.NextBounded(line.size());
  switch (rng.NextBounded(4)) {
    case 0:
      line.resize(at);
      break;
    case 1:
      line[at] = kAlphabet[rng.NextBounded(kAlphabet.size())];
      break;
    case 2:
      line.erase(at, 1);
      break;
    default: {
      // The pair that starts after the '{' or ',' at or before `at`.
      const size_t open = line.find_last_of("{,", at);
      if (open == std::string::npos) break;
      const size_t close = line.find_first_of(",}", open + 1);
      if (close == std::string::npos) break;
      std::string pair = ",";
      pair.append(line, open + 1, close - open - 1);
      line.insert(close, pair);
      break;
    }
  }
  return line;
}

TEST(ReplayParserDifferentialTest, ScenarioLogsAgree) {
  Tally tally;
  for (const std::string& line : ScenarioLines()) {
    ASSERT_TRUE(ParsersAgree(line, &tally));
  }
  EXPECT_GT(tally.accepted, 1000);
  EXPECT_LT(tally.accepted, tally.lines);  // the spliced corpus lines
  EXPECT_EQ(tally.tightened, 0);
}

TEST(ReplayParserDifferentialTest, MalformedCorpusAgrees) {
  Tally tally;
  for (const std::string& line : CorpusLines()) {
    ASSERT_TRUE(ParsersAgree(line, &tally));
  }
  EXPECT_EQ(tally.accepted, 0);
  EXPECT_EQ(tally.tightened, 0);
}

TEST(ReplayParserDifferentialTest, SeededMutationsAgree) {
  std::vector<std::string> seeds = ScenarioLines();
  for (std::string& line : CorpusLines()) seeds.push_back(std::move(line));
  // Rarer paths: keys outside the schema (the other duplicate check), null
  // and "" values (read as absent), and a quoted number.
  for (const char* line : {
           R"({"event":"close_period","note":"a"})",
           R"({"note":1,"event":"remove_worker","id":3,"why":"x y","at":12})",
           R"({"event":"add_worker","id":1,"x":0,"y":0,"radius":1,"t":"1"})",
           R"({"event":"submit_task","id":1,"ox":0,"oy":0,"dx":1,"dy":1,)"
           R"("valuation":null,"distance":""})",
           R"({"event":"add_worker","id":"4","x":0,"y":0,"radius":1,)"
           R"("duration":null})",
       }) {
    seeds.insert(seeds.end(), 200, line);
  }
  Rng rng(20260417);
  Tally tally;
  constexpr int kMutants = 24000;
  for (int m = 0; m < kMutants; ++m) {
    std::string line = seeds[rng.NextBounded(seeds.size())];
    // One to three stacked edits.
    const int edits = 1 + static_cast<int>(rng.NextBounded(3));
    for (int e = 0; e < edits; ++e) line = Mutate(std::move(line), rng);
    ASSERT_TRUE(ParsersAgree(line, &tally)) << "mutant " << m;
  }
  EXPECT_EQ(tally.lines, kMutants);
  // Both outcomes are exercised, not just rejections.
  EXPECT_GT(tally.accepted, kMutants / 20);
  EXPECT_LT(tally.accepted, kMutants);
}

TEST(ReplayParserDifferentialTest, RandomNumeralsAgree) {
  // from_chars against strtod/strtoll on seeded numerals: up to 25 digits,
  // an optional point and sign, and exponents past both ends of the double
  // range, so subnormals, underflow to zero and overflow all occur.
  Rng rng(7);
  Tally tally;
  for (int n = 0; n < 20000; ++n) {
    std::string num = rng.NextBounded(2) == 0 ? "" : "-";
    const uint64_t digits = 1 + rng.NextBounded(25);
    const uint64_t point = rng.NextBounded(digits + 2);  // > digits: none
    for (uint64_t d = 0; d < digits; ++d) {
      if (d == point) num += '.';
      num += static_cast<char>('0' + rng.NextBounded(10));
    }
    if (rng.NextBounded(4) != 0) {
      num += rng.NextBounded(2) == 0 ? "e" : "E-";
      num += std::to_string(rng.NextBounded(420));
    }
    const std::string line =
        rng.NextBounded(2) == 0
            ? R"({"event":"submit_task","id":1,"ox":)" + num +
                  R"(,"oy":0,"dx":1,"dy":1})"
            : R"({"event":"remove_worker","id":)" + num + "}";
    ASSERT_TRUE(ParsersAgree(line, &tally)) << num;
  }
  EXPECT_GT(tally.accepted, 1000);
  EXPECT_EQ(tally.tightened, 0);
}

TEST(ReplayParserDifferentialTest, OnlyTheNumberTighteningDiverges) {
  // Each spelling the reference read through strtod/strtoll and the new
  // parser rejects: hexadecimal, a leading '+', leading whitespace.
  for (const char* line : {
           R"({"event":"add_worker","id":1,"x":0x10,"y":0,"radius":1})",
           R"({"event":"remove_worker","id":"+5"})",
           R"({"event":"submit_task","id":1,"ox":" 1","oy":0,"dx":1,"dy":1})",
       }) {
    SCOPED_TRACE(line);
    EXPECT_TRUE(reference::ParseReplayEventLine(line).ok());
    const auto got = ParseReplayEventLine(line);
    ASSERT_FALSE(got.ok());
    EXPECT_TRUE(IsTighteningRejection(got.status().message()))
        << got.status().ToString();
    Tally tally;
    EXPECT_TRUE(ParsersAgree(line, &tally));
    EXPECT_EQ(tally.tightened, 1);
  }
  // A spelling both reject is not a divergence, even when it looks alike.
  Tally tally;
  EXPECT_TRUE(ParsersAgree(R"({"event":"remove_worker","id":"-+5"})", &tally));
  EXPECT_EQ(tally.tightened, 0);
}

}  // namespace
}  // namespace maps

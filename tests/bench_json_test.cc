// The machine-readable bench harness: JSON round-trip bit-identity, the
// "olapidx-bench" v1 schema validator, and the checked-in golden for
// bench_fig2_example's scrubbed report (the bench's --json output is
// produced by the same FillFig2Report the golden test calls, so a drift
// in either the reporter or the selection algorithms fails here).
//
// Regenerate the golden after an intended change with
//     OLAPIDX_UPDATE_GOLDEN=1 ./build/tests/bench_json_test
// and review the diff like any other source edit.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_fig2_lib.h"
#include "bench_json.h"
#include "common/json.h"
#include "common/parse.h"

namespace olapidx {
namespace {

using bench::BenchJsonReporter;
using bench::ValidateBenchJson;

std::string GoldenPath() {
  return std::string(OLAPIDX_TEST_GOLDEN_DIR) +
         "/bench_fig2_example.golden.json";
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Internal("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// A document exercising every value type and number edge the writer
// guarantees byte-stability for.
Json AssortedDoc() {
  Json doc = Json::Object();
  doc.Set("string", Json::Str("with \"quotes\", \\ and \n control"));
  doc.Set("int", Json::Number(123456789.0));
  doc.Set("negative", Json::Number(-42.0));
  doc.Set("zero", Json::Number(0.0));
  doc.Set("fraction", Json::Number(0.005));
  doc.Set("ratio", Json::Number(1.0 / 3.0));
  doc.Set("big", Json::Number(9007199254740992.0));  // 2^53
  doc.Set("flag_true", Json::Bool(true));
  doc.Set("flag_false", Json::Bool(false));
  doc.Set("nothing", Json::Null());
  Json arr = Json::Array();
  arr.Push(Json::Number(1.0));
  arr.Push(Json::Str(""));
  Json nested = Json::Object();
  nested.Set("z_first", Json::Number(1.0));  // insertion order, not sorted
  nested.Set("a_second", Json::Number(2.0));
  arr.Push(std::move(nested));
  arr.Push(Json::Array());
  doc.Set("list", std::move(arr));
  doc.Set("empty_object", Json::Object());
  return doc;
}

TEST(JsonRoundTripTest, DumpParseDumpIsBitIdentical) {
  Json doc = AssortedDoc();
  for (int indent : {0, 2, 4}) {
    std::string text = doc.Dump(indent);
    StatusOr<Json> reparsed = Json::Parse(text);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_EQ(reparsed.value().Dump(indent), text) << "indent " << indent;
  }
  // Pretty and compact forms describe the same tree.
  StatusOr<Json> from_pretty = Json::Parse(doc.Dump(2));
  ASSERT_TRUE(from_pretty.ok());
  EXPECT_EQ(from_pretty.value().Dump(0), doc.Dump(0));
}

TEST(JsonRoundTripTest, ParserRejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "01", "1 2",
                          "{\"a\":1} trailing", "\"unterminated",
                          "\"bad \\q escape\"", "nul", "+1", "--1",
                          "{a:1}", "[1 2]", "Infinity", "NaN"}) {
    EXPECT_FALSE(Json::Parse(bad).ok()) << "input: " << bad;
  }
}

TEST(BenchJsonReporterTest, ProducesValidSchemaAndRoundTripsThroughDisk) {
  BenchJsonReporter rep("unit");
  SelectionResult fake;
  fake.initial_cost = 100.0;
  fake.final_cost = 40.0;
  fake.space_used = 7.0;
  fake.total_frequency = 10.0;
  fake.candidates_evaluated = 12;
  fake.stats.stages = 3;
  rep.AddSelectionRun("fake_run", fake);
  Json custom = Json::Object();
  custom.Set("label", Json::Str("custom_row"));
  custom.Set("value", Json::Number(1.5));
  rep.AddRun(std::move(custom));
  rep.AddScalar("headline", 0.74);

  Json doc = rep.Build();
  ASSERT_TRUE(ValidateBenchJson(doc).ok())
      << ValidateBenchJson(doc).ToString();
  EXPECT_EQ(doc.Find("bench")->AsString(), "unit");
  EXPECT_EQ(doc.Find("runs")->size(), 2u);
  EXPECT_DOUBLE_EQ(
      doc.Find("runs")->at(0).Find("benefit")->AsDouble(), 60.0);
  ASSERT_TRUE(ValidateBenchJson(rep.BuildScrubbed()).ok());

  std::string path = ::testing::TempDir() + "/bench_json_test_unit.json";
  ASSERT_TRUE(rep.WriteFile(path).ok());
  StatusOr<std::string> written = ReadFileToString(path);
  ASSERT_TRUE(written.ok());
  StatusOr<Json> reparsed = Json::Parse(written.value());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_TRUE(ValidateBenchJson(reparsed.value()).ok());
  // Emit → parse → re-emit is bit-identical, including the trailing
  // newline WriteFile's Dump(2) appends.
  EXPECT_EQ(reparsed.value().Dump(2), written.value());
}

TEST(BenchJsonValidatorTest, RejectsNonConformingDocuments) {
  auto expect_invalid = [](const Json& doc, const std::string& what) {
    EXPECT_FALSE(ValidateBenchJson(doc).ok()) << what;
  };
  expect_invalid(Json::Array(), "not an object");
  expect_invalid(Json::Object(), "missing everything");

  Json doc = Json::Object();
  doc.Set("schema", Json::Str("olapidx-bench"));
  doc.Set("version", Json::Number(99.0));
  doc.Set("bench", Json::Str("x"));
  doc.Set("runs", Json::Array());
  expect_invalid(doc, "unsupported version");

  doc.Set("version", Json::Number(1.0));
  ASSERT_TRUE(ValidateBenchJson(doc).ok());

  Json unlabeled = Json::Object();
  unlabeled.Set("tau", Json::Number(1.0));
  Json runs = Json::Array();
  runs.Push(std::move(unlabeled));
  doc.Set("runs", std::move(runs));
  expect_invalid(doc, "run without label");

  Json nonscalar = Json::Object();
  nonscalar.Set("label", Json::Str("r"));
  nonscalar.Set("nested", Json::Object());
  runs = Json::Array();
  runs.Push(std::move(nonscalar));
  doc.Set("runs", std::move(runs));
  expect_invalid(doc, "non-scalar run member");
}

TEST(BenchArgsTest, ParsesJsonAndRegisteredFlagsInBothSpellings) {
  bench::BenchArgs args;
  std::string error;
  ASSERT_TRUE(bench::TryParseBenchArgs(
      {"--json", "--max-dim=12", "--queries", "200"}, "demo",
      {"max-dim", "queries"}, &args, &error))
      << error;
  EXPECT_TRUE(args.json);
  EXPECT_EQ(args.json_path, "BENCH_demo.json");
  EXPECT_EQ(args.GetInt("max-dim", 0), 12);
  EXPECT_EQ(args.GetInt("queries", 0), 200);
  EXPECT_EQ(args.GetInt("absent", 7), 7);

  ASSERT_TRUE(bench::TryParseBenchArgs({"--json=out.json"}, "demo", {},
                                       &args, &error))
      << error;
  EXPECT_EQ(args.json_path, "out.json");
}

TEST(BenchArgsTest, RejectsMalformedCommandLines) {
  bench::BenchArgs args;
  std::string error;
  // A flag where the value should be is a missing value, not a value.
  EXPECT_FALSE(bench::TryParseBenchArgs({"--queries", "--json"}, "demo",
                                        {"queries"}, &args, &error));
  EXPECT_EQ(error, "missing value for --queries");
  // Trailing flag with no value at all.
  EXPECT_FALSE(bench::TryParseBenchArgs({"--queries"}, "demo", {"queries"},
                                        &args, &error));
  // Empty "--flag=" value.
  EXPECT_FALSE(bench::TryParseBenchArgs({"--queries="}, "demo",
                                        {"queries"}, &args, &error));
  // Repeats are errors, not silent first-one-wins.
  EXPECT_FALSE(bench::TryParseBenchArgs({"--queries=1", "--queries=2"},
                                        "demo", {"queries"}, &args,
                                        &error));
  EXPECT_EQ(error, "duplicate --queries");
  EXPECT_FALSE(bench::TryParseBenchArgs({"--json", "--json"}, "demo", {},
                                        &args, &error));
  EXPECT_EQ(error, "duplicate --json");
  // Unregistered flags are unknown.
  EXPECT_FALSE(bench::TryParseBenchArgs({"--bogus=7"}, "demo", {"queries"},
                                        &args, &error));
  EXPECT_EQ(error, "unknown flag --bogus=7");
}

TEST(BenchArgsTest, StrictNumericParsingRejectsGarbage) {
  long l = 0;
  EXPECT_TRUE(ParseLongStrict("42", &l));
  EXPECT_EQ(l, 42);
  EXPECT_TRUE(ParseLongStrict("-7", &l));
  EXPECT_EQ(l, -7);
  EXPECT_FALSE(ParseLongStrict("12x", &l));
  EXPECT_FALSE(ParseLongStrict("", &l));
  EXPECT_FALSE(ParseLongStrict("1e3", &l));
  EXPECT_FALSE(ParseLongStrict("99999999999999999999999", &l));

  double d = 0.0;
  EXPECT_TRUE(ParseDoubleStrict("1.5", &d));
  EXPECT_EQ(d, 1.5);
  EXPECT_TRUE(ParseDoubleStrict("1e3", &d));
  EXPECT_EQ(d, 1000.0);
  EXPECT_FALSE(ParseDoubleStrict("1.5skew", &d));
  EXPECT_FALSE(ParseDoubleStrict("", &d));
}

TEST(BenchGoldenTest, Fig2ScrubbedReportMatchesCheckedInGolden) {
  BenchJsonReporter rep("fig2_example");
  bench::FillFig2Report(rep);
  Json scrubbed = rep.BuildScrubbed();
  ASSERT_TRUE(ValidateBenchJson(scrubbed).ok());
  std::string produced = scrubbed.Dump(2);

  if (std::getenv("OLAPIDX_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    out << produced;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "golden regenerated at " << GoldenPath();
  }

  StatusOr<std::string> golden = ReadFileToString(GoldenPath());
  ASSERT_TRUE(golden.ok())
      << golden.status().ToString()
      << " — regenerate with OLAPIDX_UPDATE_GOLDEN=1";
  EXPECT_EQ(produced, golden.value())
      << "bench_fig2_example's deterministic output drifted; if intended, "
         "regenerate with OLAPIDX_UPDATE_GOLDEN=1 and review the diff";
}

}  // namespace
}  // namespace olapidx

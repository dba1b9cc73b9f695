#include "core/serialize.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "cost/calibrated_cost_model.h"
#include "data/tpcd.h"

namespace olapidx {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  CubeSchema schema_ = TpcdSchema();
};

TEST_F(SerializeTest, DesignRoundTrip) {
  CubeLattice lattice(schema_);
  CubeGraphOptions opts;
  opts.raw_scan_penalty = 2.0;
  StatusOr<Advisor> advisor = Advisor::Create(
      schema_, TpcdPaperSizes(), AllSliceQueries(lattice), opts);
  ASSERT_TRUE(advisor.ok()) << advisor.status().ToString();
  AdvisorConfig config;
  config.algorithm = Algorithm::kOneGreedy;
  config.space_budget = kTpcdExampleBudget;
  Recommendation rec = advisor->Recommend(config);
  ASSERT_FALSE(rec.structures.empty());

  std::string text = SerializeDesign(rec.structures, schema_);
  StatusOr<std::vector<RecommendedStructure>> parsed =
      ParseDesign(text, schema_);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), rec.structures.size());
  for (size_t i = 0; i < parsed->size(); ++i) {
    EXPECT_EQ((*parsed)[i].view, rec.structures[i].view);
    EXPECT_TRUE((*parsed)[i].index == rec.structures[i].index);
  }
}

TEST_F(SerializeTest, DesignParsesHandWrittenFile) {
  const char* text =
      "olapidx-design v1\n"
      "# production design, 2026-07\n"
      "view p,s\n"
      "index p,s : s,p\n"
      "view none\n";
  StatusOr<std::vector<RecommendedStructure>> parsed =
      ParseDesign(text, schema_);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 3u);
  EXPECT_EQ((*parsed)[0].view, AttributeSet::Of({0, 1}));
  EXPECT_TRUE((*parsed)[0].is_view());
  EXPECT_TRUE((*parsed)[1].index == IndexKey({1, 0}));  // s,p ordering
  EXPECT_TRUE((*parsed)[2].view.empty());
}

TEST_F(SerializeTest, DesignRejectsBadInput) {
  Status s = ParseDesign("view p\n", schema_).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("header"), std::string::npos);
  EXPECT_FALSE(ParseDesign("olapidx-design v1\nview q\n", schema_).ok());
  s = ParseDesign("olapidx-design v1\nview p\nindex p : s\n", schema_)
          .status();
  EXPECT_NE(s.message().find("outside its view"), std::string::npos);
  EXPECT_FALSE(ParseDesign("olapidx-design v1\nfrobnicate\n", schema_)
                   .ok());
}

TEST_F(SerializeTest, DesignRejectsDuplicateStructures) {
  Status s = ParseDesign("olapidx-design v1\nview p\nview p\n", schema_)
                 .status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("duplicate view"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find("line 3"), std::string::npos);
  s = ParseDesign(
          "olapidx-design v1\nview p,s\nindex p,s : s,p\n"
          "index p,s : s,p\n",
          schema_)
          .status();
  EXPECT_NE(s.message().find("duplicate index"), std::string::npos)
      << s.ToString();
}

TEST_F(SerializeTest, DesignRejectsIndexOnUnmaterializedView) {
  Status s =
      ParseDesign("olapidx-design v1\nindex p,s : s,p\n", schema_).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("unmaterialized view"), std::string::npos)
      << s.ToString();
  // The view line must *precede* the index line.
  s = ParseDesign("olapidx-design v1\nindex p,s : s,p\nview p,s\n",
                  schema_)
          .status();
  EXPECT_NE(s.message().find("unmaterialized view"), std::string::npos);
}

TEST_F(SerializeTest, SizesRoundTrip) {
  ViewSizes original = TpcdPaperSizes();
  std::string text = SerializeViewSizes(original, schema_);
  StatusOr<ViewSizes> parsed = ParseViewSizes(text, schema_);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  for (uint32_t v = 0; v < original.num_views(); ++v) {
    EXPECT_EQ((*parsed)[v], original[v]) << "view " << v;
  }
}

TEST_F(SerializeTest, SizesRejectIncomplete) {
  const char* text =
      "olapidx-sizes v1\n"
      "size p 200000\n";
  Status s = ParseViewSizes(text, schema_).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("missing sizes"), std::string::npos);
}

TEST_F(SerializeTest, SizesRejectGarbage) {
  EXPECT_FALSE(ParseViewSizes("olapidx-sizes v1\nsize p many\n", schema_)
                   .ok());
  EXPECT_FALSE(ParseViewSizes("nonsense\n", schema_).ok());
}

TEST_F(SerializeTest, SizesRejectDuplicateSubcube) {
  ViewSizes original = TpcdPaperSizes();
  std::string text = SerializeViewSizes(original, schema_);
  text += "size p 12345\n";  // second line for subcube {p}
  Status s = ParseViewSizes(text, schema_).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("duplicate size"), std::string::npos)
      << s.ToString();
}

TEST_F(SerializeTest, CheckpointRoundTrip) {
  SelectionCheckpoint checkpoint;
  checkpoint.algorithm = "inner-level greedy";
  checkpoint.space_budget = 123456.75;
  checkpoint.stages = 2;
  RecommendedStructure view;
  view.view = AttributeSet::Of({0, 1});
  RecommendedStructure index;
  index.view = AttributeSet::Of({0, 1});
  index.index = IndexKey({1, 0});
  checkpoint.picks = {view, index};
  checkpoint.pick_benefits = {5000.25, 1250.0625};

  std::string text = SerializeCheckpoint(checkpoint, schema_);
  StatusOr<SelectionCheckpoint> parsed = ParseCheckpoint(text, schema_);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->algorithm, checkpoint.algorithm);
  EXPECT_EQ(parsed->space_budget, checkpoint.space_budget);  // bit-exact
  EXPECT_EQ(parsed->stages, checkpoint.stages);
  ASSERT_EQ(parsed->picks.size(), 2u);
  EXPECT_EQ(parsed->picks[0].view, view.view);
  EXPECT_TRUE(parsed->picks[0].is_view());
  EXPECT_TRUE(parsed->picks[1].index == index.index);
  EXPECT_EQ(parsed->pick_benefits, checkpoint.pick_benefits);  // bit-exact
}

TEST_F(SerializeTest, CheckpointRejectsMalformedInput) {
  // Missing header.
  EXPECT_FALSE(ParseCheckpoint("algorithm x\n", schema_).ok());
  // Missing required fields.
  Status s = ParseCheckpoint("olapidx-checkpoint v1\nbudget 5\nstages 0\n",
                             schema_)
                 .status();
  EXPECT_NE(s.message().find("missing 'algorithm'"), std::string::npos)
      << s.ToString();
  // Bad pick benefit.
  EXPECT_FALSE(
      ParseCheckpoint("olapidx-checkpoint v1\nalgorithm a\nbudget 5\n"
                      "stages 1\npick nope view p\n",
                      schema_)
          .ok());
  // Index pick before its view pick.
  s = ParseCheckpoint("olapidx-checkpoint v1\nalgorithm a\nbudget 5\n"
                      "stages 1\npick 1 index p,s : s,p\n",
                      schema_)
          .status();
  EXPECT_NE(s.message().find("unmaterialized view"), std::string::npos)
      << s.ToString();
  // More stages than picks.
  EXPECT_FALSE(
      ParseCheckpoint("olapidx-checkpoint v1\nalgorithm a\nbudget 5\n"
                      "stages 3\npick 1 view p\n",
                      schema_)
          .ok());
}

TEST_F(SerializeTest, CheckpointFingerprintRoundTripsBitExactly) {
  SelectionCheckpoint checkpoint;
  checkpoint.algorithm = "1-greedy";
  checkpoint.space_budget = 42.0;
  checkpoint.stages = 1;
  checkpoint.graph_fingerprint = 0x6b6f2a9c01e4d357ull;
  RecommendedStructure view;
  view.view = AttributeSet::Of({0});
  checkpoint.picks = {view};
  checkpoint.pick_benefits = {7.5};

  std::string text = SerializeCheckpoint(checkpoint, schema_);
  EXPECT_NE(text.find("graph 6b6f2a9c01e4d357"), std::string::npos) << text;
  StatusOr<SelectionCheckpoint> parsed = ParseCheckpoint(text, schema_);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->graph_fingerprint, checkpoint.graph_fingerprint);
}

TEST_F(SerializeTest, CheckpointWithoutFingerprintStaysLegacy) {
  // A checkpoint that was never stamped serializes with no 'graph' line
  // and parses back with fingerprint 0 — the not-stamped sentinel.
  SelectionCheckpoint checkpoint;
  checkpoint.algorithm = "1-greedy";
  checkpoint.space_budget = 42.0;
  checkpoint.stages = 0;

  std::string text = SerializeCheckpoint(checkpoint, schema_);
  EXPECT_EQ(text.find("graph "), std::string::npos) << text;
  StatusOr<SelectionCheckpoint> parsed = ParseCheckpoint(text, schema_);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->graph_fingerprint, 0u);
}

TEST_F(SerializeTest, CheckpointRejectsBadFingerprintLines) {
  const char* prefix =
      "olapidx-checkpoint v1\nalgorithm a\nbudget 5\nstages 0\n";
  // Not 16 hex digits.
  Status s = ParseCheckpoint(std::string(prefix) + "graph xyz\n", schema_)
                 .status();
  EXPECT_NE(s.message().find("bad graph fingerprint"), std::string::npos)
      << s.ToString();
  // Zero is the "no fingerprint" sentinel; writing it out is malformed.
  EXPECT_FALSE(ParseCheckpoint(
                   std::string(prefix) + "graph 0000000000000000\n",
                   schema_)
                   .ok());
  // Duplicate line.
  EXPECT_FALSE(ParseCheckpoint(std::string(prefix) +
                                   "graph 00000000000000ff\n"
                                   "graph 00000000000000ff\n",
                               schema_)
                   .ok());
}

TEST_F(SerializeTest, AdvisorRejectsCheckpointFromDifferentGraph) {
  CubeLattice lattice(schema_);
  CubeGraphOptions opts;
  opts.raw_scan_penalty = 2.0;
  StatusOr<Advisor> advisor = Advisor::Create(
      schema_, TpcdPaperSizes(), AllSliceQueries(lattice), opts);
  ASSERT_TRUE(advisor.ok()) << advisor.status().ToString();
  AdvisorConfig config;
  config.algorithm = Algorithm::kOneGreedy;
  config.space_budget = kTpcdExampleBudget;
  config.control.max_steps = 1;
  Recommendation partial = advisor->Recommend(config);
  ASSERT_FALSE(partial.completed);
  SelectionCheckpoint checkpoint = partial.ToCheckpoint(config);
  ASSERT_EQ(checkpoint.graph_fingerprint, advisor->graph_fingerprint());
  ASSERT_NE(checkpoint.graph_fingerprint, 0u);

  // Same schema, different sizes -> different graph -> rejected resume.
  ViewSizes other_sizes = TpcdPaperSizes();
  other_sizes.Set(AttributeSet::Of({0}), 999);
  StatusOr<Advisor> other = Advisor::Create(
      schema_, other_sizes, AllSliceQueries(lattice), opts);
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  ASSERT_NE(other->graph_fingerprint(), advisor->graph_fingerprint());
  AdvisorConfig resume_config = config;
  resume_config.control = RunControl{};
  resume_config.resume = &checkpoint;
  Recommendation rejected = other->Recommend(resume_config);
  EXPECT_EQ(rejected.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(rejected.status.message().find("different query-view graph"),
            std::string::npos)
      << rejected.status.ToString();

  // Clearing the fingerprint opts into the cross-graph warm start.
  checkpoint.graph_fingerprint = 0;
  Recommendation accepted = other->Recommend(resume_config);
  EXPECT_TRUE(accepted.status.ok() || accepted.status.IsInterruption())
      << accepted.status.ToString();
}

TEST_F(SerializeTest, CheckpointFromEarlierCostTableLayoutRejected) {
  // What the advisor above wrote after one 1-greedy stage when dense graphs
  // still stored a full k × queries cost table and the fingerprint hashed
  // a storage-mode word. The costs are the same; their layout, and so the
  // fingerprint, is not — the resume must be refused, not trusted.
  constexpr char kEarlierLayoutCheckpoint[] =
      "olapidx-checkpoint v1\n"
      "algorithm 1-greedy\n"
      "budget 25000000\n"
      "graph 2d24fa145db52dfc\n"
      "stages 1\n"
      "pick 11999999 view none\n";
  CubeLattice lattice(schema_);
  CubeGraphOptions opts;
  opts.raw_scan_penalty = 2.0;
  StatusOr<Advisor> advisor = Advisor::Create(
      schema_, TpcdPaperSizes(), AllSliceQueries(lattice), opts);
  ASSERT_TRUE(advisor.ok()) << advisor.status().ToString();
  // Golden: a change to the cost-table layout must update this on purpose.
  EXPECT_EQ(advisor->graph_fingerprint(), 0x3decc85cf2de0139ull);

  StatusOr<SelectionCheckpoint> earlier =
      ParseCheckpoint(kEarlierLayoutCheckpoint, schema_);
  ASSERT_TRUE(earlier.ok()) << earlier.status().ToString();
  AdvisorConfig config;
  config.algorithm = Algorithm::kOneGreedy;
  config.space_budget = kTpcdExampleBudget;
  config.resume = &*earlier;
  Recommendation rejected = advisor->Recommend(config);
  EXPECT_EQ(rejected.status.code(), StatusCode::kFailedPrecondition)
      << rejected.status.ToString();
}

// ---------------------------------------------------------------------------
// "olapidx-costmodel v2" (cost/calibrated_cost_model.h).
// ---------------------------------------------------------------------------

TEST(CostModelSerializeTest, SerializeParseRoundTripIsBitIdentical) {
  // Coefficients with no short decimal representation: hexfloat output
  // must reproduce every bit.
  CalibrationCoefficients coefficients;
  coefficients.per_row = 1.0 / 3.0;
  coefficients.per_node = 0.1 + 0.2;
  coefficients.fixed = 12345.6789e-3;
  CalibratedCostModel model(coefficients);

  std::string text = model.Serialize();
  EXPECT_EQ(text.rfind("olapidx-costmodel v2\nper_row ", 0), 0u) << text;
  StatusOr<CalibratedCostModel> parsed = CalibratedCostModel::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->coefficients().per_row, coefficients.per_row);
  EXPECT_EQ(parsed->coefficients().per_node, coefficients.per_node);
  EXPECT_EQ(parsed->coefficients().fixed, coefficients.fixed);
  EXPECT_EQ(parsed->Serialize(), text);
}

TEST(CostModelSerializeTest, SaveLoadRoundTripIsBitIdentical) {
  CalibratedCostModel model({3.14159e-2, 271.828, 0.0});
  const std::string path =
      ::testing::TempDir() + "/serialize_test_costmodel.txt";
  ASSERT_TRUE(model.Save(path).ok());
  StatusOr<CalibratedCostModel> loaded = CalibratedCostModel::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->Serialize(), model.Serialize());
  std::remove(path.c_str());
}

TEST(CostModelSerializeTest, ParseRejectsMalformedInput) {
  auto code = [](const std::string& text) {
    return CalibratedCostModel::Parse(text).status().code();
  };
  const std::string header = "olapidx-costmodel v2\n";
  ASSERT_TRUE(
      CalibratedCostModel::Parse(header + "per_row 1\nper_node 0\nfixed 0\n")
          .ok());
  EXPECT_EQ(code(""), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("olapidx-design v1\n"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("olapidx-costmodel v3\nper_row 1\nper_node 0\nfixed 0\n"),
            StatusCode::kInvalidArgument);
  // Missing a line.
  EXPECT_EQ(code(header + "per_row 1\n"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code(header + "per_row 1\nper_node 0\n"),
            StatusCode::kInvalidArgument);
  // Wrong key order.
  EXPECT_EQ(code(header + "per_node 0\nper_row 1\nfixed 0\n"),
            StatusCode::kInvalidArgument);
  // v2 has no fanout line.
  EXPECT_EQ(code(header + "fanout 64\nper_row 1\nper_node 0\nfixed 0\n"),
            StatusCode::kInvalidArgument);
  // Non-finite or malformed coefficient.
  EXPECT_EQ(code(header + "per_row inf\nper_node 0\nfixed 0\n"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code(header + "per_row 1\nper_node nan\nfixed 0\n"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code(header + "per_row 1\nper_node 0\nfixed 2x\n"),
            StatusCode::kInvalidArgument);
  // Nothing may follow the fixed line.
  EXPECT_EQ(code(header + "per_row 1\nper_node 0\nfixed 0\ntrailing junk\n"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code(header + "per_row 1\nper_node 0\nfixed 0\nfixed 0\n"),
            StatusCode::kInvalidArgument);
}

TEST(CostModelSerializeTest, ParseRejectsVersionOneAsNeedingARefit) {
  // A v1 file's per_node was fitted to B-tree node touches. Its fanout
  // line is never read, however large.
  for (const char* fanout : {"64", "1e300"}) {
    const StatusOr<CalibratedCostModel> parsed = CalibratedCostModel::Parse(
        std::string("olapidx-costmodel v1\nfanout ") + fanout +
        "\nper_row 1\nper_node 0\nfixed 0\n");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("node touches"),
              std::string::npos)
        << parsed.status().ToString();
    EXPECT_NE(parsed.status().message().find("refit"), std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(CostModelSerializeTest, LoadMissingFileIsInvalidArgument) {
  StatusOr<CalibratedCostModel> loaded = CalibratedCostModel::Load(
      ::testing::TempDir() + "/serialize_test_no_such_model.txt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace olapidx

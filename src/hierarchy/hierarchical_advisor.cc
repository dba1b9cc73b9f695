#include "hierarchy/hierarchical_advisor.h"

#include <string>
#include <utility>

namespace olapidx {

namespace {

// Resolves a checkpoint's lattice-level picks (level vectors, dimension
// orders) to this graph's StructureRefs. Fails on any pick that does not
// exist in the graph — e.g. a checkpoint taken with a different schema or
// index family.
Status ResolveCheckpoint(const HSelectionCheckpoint& checkpoint,
                         const HierarchicalCubeGraph& cube_graph,
                         ResumePicks* out) {
  out->picks.clear();
  out->pick_benefits = checkpoint.pick_benefits;
  out->stages = checkpoint.stages;
  for (size_t i = 0; i < checkpoint.picks.size(); ++i) {
    const HRecommendedStructure& s = checkpoint.picks[i];
    auto fail = [&](const std::string& message) {
      return Status::InvalidArgument("checkpoint pick " +
                                     std::to_string(i + 1) + ": " + message);
    };
    uint32_t view = 0;
    bool view_found = false;
    for (uint32_t v = 0;
         v < static_cast<uint32_t>(cube_graph.view_levels.size()); ++v) {
      if (cube_graph.view_levels[v] == s.view) {
        view = v;
        view_found = true;
        break;
      }
    }
    if (!view_found) return fail("view not in the hierarchical lattice");
    if (s.is_view()) {
      out->picks.push_back(StructureRef{view, StructureRef::kNoIndex});
      continue;
    }
    const int32_t index = cube_graph.IndexPositionOf(view, s.index_order);
    if (index < 0) {
      return fail("index order not in the view's index family");
    }
    out->picks.push_back(StructureRef{view, index});
  }
  return Status::Ok();
}

}  // namespace

HierarchicalAdvisor::HierarchicalAdvisor(const HierarchicalSchema& schema,
                                         HierarchicalCubeGraph cube_graph)
    : schema_(schema),
      cube_graph_(std::move(cube_graph)),
      graph_fingerprint_(cube_graph_.graph.Fingerprint()) {}

StatusOr<HierarchicalAdvisor> HierarchicalAdvisor::Create(
    const HierarchicalSchema& schema, double raw_rows,
    const std::vector<WeightedHQuery>& workload,
    const HierarchicalGraphOptions& options) {
  StatusOr<HierarchicalCubeGraph> cube_graph =
      TryBuildHierarchicalCubeGraph(schema, raw_rows, workload, options);
  if (!cube_graph.ok()) {
    return cube_graph.status().WithContext("building the query-view graph");
  }
  return HierarchicalAdvisor(schema, *std::move(cube_graph));
}

HRecommendation HierarchicalAdvisor::TryRecommend(
    const AdvisorConfig& config, const HSelectionCheckpoint* resume) const {
  if (config.resume != nullptr) {
    return PackageRecommendation<HRecommendation>(
        SelectionResult::Rejected(Status::InvalidArgument(
            "flat-cube checkpoints (AdvisorConfig::resume) cannot be "
            "resolved against a hierarchical lattice; pass an "
            "HSelectionCheckpoint")),
        graph_fingerprint_);
  }
  CheckpointHeader header;
  if (resume != nullptr) {
    header = {resume->algorithm, resume->space_budget,
              resume->graph_fingerprint};
  }
  HRecommendation rec = PackageRecommendation<HRecommendation>(
      RunAdvisorSelection(cube_graph_.graph, graph_fingerprint_, config,
                          resume != nullptr ? &header : nullptr,
                          [&](ResumePicks* picks) {
                            return ResolveCheckpoint(*resume, cube_graph_,
                                                     picks);
                          }),
      graph_fingerprint_);
  if (!rec.status.ok() && !rec.status.IsInterruption()) return rec;
  const SelectionResult& result = rec.raw;
  for (const StructureRef& s : result.picks) {
    HRecommendedStructure r;
    r.view = cube_graph_.view_levels[s.view];
    if (!s.is_view()) {
      r.index_order = cube_graph_.IndexOrderOf(s.view, s.index);
    }
    r.name = cube_graph_.graph.StructureName(s);
    r.space = cube_graph_.graph.structure_space(s);
    rec.structures.push_back(std::move(r));
  }
  return rec;
}

HSelectionCheckpoint HRecommendation::ToCheckpoint(
    const AdvisorConfig& config) const {
  HSelectionCheckpoint checkpoint;
  checkpoint.algorithm = AlgorithmName(config.algorithm);
  checkpoint.space_budget = config.space_budget;
  checkpoint.stages = raw.stats.stages;
  checkpoint.graph_fingerprint = graph_fingerprint;
  checkpoint.picks = structures;
  checkpoint.pick_benefits = raw.pick_benefits;
  return checkpoint;
}

}  // namespace olapidx

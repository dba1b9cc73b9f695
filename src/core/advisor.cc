#include "core/advisor.h"

#include <algorithm>
#include <string>
#include <utility>

namespace olapidx {

namespace {

// Resolves a checkpoint's cube-level picks (attribute sets, keys) to this
// graph's StructureRefs. Fails on any pick that does not exist in the
// graph — e.g. a checkpoint taken with a different schema or index family.
Status ResolveCheckpoint(const SelectionCheckpoint& checkpoint,
                         const CubeGraph& cube_graph, ResumePicks* out) {
  out->picks.clear();
  out->pick_benefits = checkpoint.pick_benefits;
  out->stages = checkpoint.stages;
  for (size_t i = 0; i < checkpoint.picks.size(); ++i) {
    const RecommendedStructure& s = checkpoint.picks[i];
    auto fail = [&](const std::string& message) {
      return Status::InvalidArgument("checkpoint pick " +
                                     std::to_string(i + 1) + ": " + message);
    };
    uint32_t view = 0;
    bool view_found = false;
    for (uint32_t v = 0;
         v < static_cast<uint32_t>(cube_graph.view_attrs.size()); ++v) {
      if (cube_graph.view_attrs[v] == s.view) {
        view = v;
        view_found = true;
        break;
      }
    }
    if (!view_found) return fail("view not in the cube lattice");
    if (s.is_view()) {
      out->picks.push_back(StructureRef{view, StructureRef::kNoIndex});
      continue;
    }
    const QueryViewGraph& graph = cube_graph.graph;
    int32_t index = -1;
    for (int32_t k = 0; k < graph.num_indexes(view); ++k) {
      if (graph.index_key(view, k) == s.index) {
        index = k;
        break;
      }
    }
    if (index < 0) {
      return fail("index key not in the view's index family");
    }
    out->picks.push_back(StructureRef{view, index});
  }
  return Status::Ok();
}

}  // namespace

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kOneGreedy:
      return "1-greedy";
    case Algorithm::kRGreedy:
      return "r-greedy";
    case Algorithm::kInnerLevel:
      return "inner-level greedy";
    case Algorithm::kTwoStep:
      return "two-step";
    case Algorithm::kHruViewsOnly:
      return "HRU views-only greedy";
    case Algorithm::kOptimal:
      return "branch-and-bound optimal";
  }
  return "unknown";
}

Advisor::Advisor(const CubeSchema& schema, const ViewSizes& sizes,
                 const Workload& workload, CubeGraph cube_graph)
    : schema_(schema),
      sizes_(sizes),
      workload_(workload),
      cube_graph_(std::move(cube_graph)),
      graph_fingerprint_(cube_graph_.graph.Fingerprint()) {}

StatusOr<Advisor> Advisor::Create(const CubeSchema& schema,
                                  const ViewSizes& sizes,
                                  const Workload& workload,
                                  const CubeGraphOptions& options) {
  StatusOr<CubeGraph> cube_graph =
      TryBuildCubeGraph(schema, sizes, workload, options);
  if (!cube_graph.ok()) {
    return cube_graph.status().WithContext("building the query-view graph");
  }
  Advisor advisor(schema, sizes, workload, *std::move(cube_graph));
  advisor.cost_model_ = options.cost_model;
  return advisor;
}

StatusOr<Advisor> Advisor::CreateSparse(const CubeSchema& schema,
                                        const ViewSizes& sizes,
                                        const Workload& workload,
                                        const SparseCubeGraphOptions& options) {
  StatusOr<SparseCubeGraph> sparse =
      TryBuildSparseCubeGraph(schema, sizes, workload, options);
  if (!sparse.ok()) {
    return sparse.status().WithContext("building the sparse query-view graph");
  }
  Advisor advisor(schema, sizes, workload, std::move(sparse->cube));
  advisor.sparse_stats_ = std::move(sparse->stats);
  advisor.cost_model_ = options.cost_model;
  return advisor;
}

SelectionResult RunAdvisorSelection(
    const QueryViewGraph& graph, uint64_t graph_fingerprint,
    const AdvisorConfig& config, const CheckpointHeader* checkpoint,
    const std::function<Status(ResumePicks*)>& resolve) {
  const std::string name = AlgorithmName(config.algorithm);
  if (Status s = ValidateSelectionInput(graph, config.space_budget);
      !s.ok()) {
    return SelectionResult::Rejected(std::move(s));
  }
  const double fraction = config.two_step.index_fraction;
  if (!(fraction >= 0.0 && fraction <= 1.0)) {
    return SelectionResult::Rejected(Status::InvalidArgument(
        "two-step index fraction must be in [0, 1], got " +
        std::to_string(fraction)));
  }
  const bool greedy = config.algorithm == Algorithm::kOneGreedy ||
                      config.algorithm == Algorithm::kRGreedy ||
                      config.algorithm == Algorithm::kInnerLevel;
  if (!greedy && !config.control.unlimited()) {
    return SelectionResult::Rejected(Status::Unimplemented(
        name +
        " has no anytime contract; deadlines/cancellation require a greedy "
        "algorithm"));
  }
  if (!greedy && checkpoint != nullptr) {
    return SelectionResult::Rejected(
        Status::InvalidArgument(name + " cannot resume from a checkpoint"));
  }

  ResumePicks resume;
  if (checkpoint != nullptr) {
    if (checkpoint->algorithm != name) {
      return SelectionResult::Rejected(Status::InvalidArgument(
          "checkpoint was taken by '" + std::string(checkpoint->algorithm) +
          "', not '" + name +
          "'; resuming would not reproduce the original pick sequence"));
    }
    if (checkpoint->space_budget != config.space_budget) {
      return SelectionResult::Rejected(Status::InvalidArgument(
          "checkpoint budget " + std::to_string(checkpoint->space_budget) +
          " does not match configured budget " +
          std::to_string(config.space_budget)));
    }
    if (checkpoint->graph_fingerprint != 0 &&
        checkpoint->graph_fingerprint != graph_fingerprint) {
      return SelectionResult::Rejected(Status::FailedPrecondition(
          "checkpoint was taken against a different query-view graph "
          "(checkpoint graph fingerprint does not match this advisor's); "
          "rebuild from the same inputs and options, or start a fresh "
          "selection"));
    }
    Status resolved = resolve(&resume);
    if (!resolved.ok()) return SelectionResult::Rejected(std::move(resolved));
  }

  SelectionResult result;
  switch (config.algorithm) {
    case Algorithm::kOneGreedy:
    case Algorithm::kRGreedy: {
      // kOneGreedy keeps every kRGreedy knob (threads, memoization, lazy
      // CELF, subset cap) with r forced to 1.
      RGreedyOptions options = config.r_greedy;
      if (config.algorithm == Algorithm::kOneGreedy) options.r = 1;
      if (!config.control.unlimited()) options.control = config.control;
      if (checkpoint != nullptr) options.resume = &resume;
      result = RGreedy(graph, config.space_budget, options);
      break;
    }
    case Algorithm::kInnerLevel: {
      InnerGreedyOptions options = config.inner_greedy;
      if (!config.control.unlimited()) options.control = config.control;
      if (checkpoint != nullptr) options.resume = &resume;
      result = InnerLevelGreedy(graph, config.space_budget, options);
      break;
    }
    case Algorithm::kTwoStep:
      result = TwoStep(graph, config.space_budget, config.two_step);
      break;
    case Algorithm::kHruViewsOnly:
      result = HruViewGreedy(graph, config.space_budget);
      break;
    case Algorithm::kOptimal:
      result = BranchAndBoundOptimal(graph, config.space_budget,
                                     config.optimal);
      break;
  }
  if (!result.status.ok() && !result.status.IsInterruption()) {
    // Rejected input (bad checkpoint, non-finalized graph, injected
    // fault): nothing to report beyond the status.
    return SelectionResult::Rejected(std::move(result.status));
  }
  return result;
}

Recommendation Advisor::Recommend(const AdvisorConfig& config) const {
  const SelectionCheckpoint* cp = config.resume;
  CheckpointHeader header;
  if (cp != nullptr) {
    header = {cp->algorithm, cp->space_budget, cp->graph_fingerprint};
  }
  Recommendation rec = PackageRecommendation<Recommendation>(
      RunAdvisorSelection(cube_graph_.graph, graph_fingerprint_, config,
                          cp != nullptr ? &header : nullptr,
                          [&](ResumePicks* picks) {
                            return ResolveCheckpoint(*cp, cube_graph_, picks);
                          }),
      graph_fingerprint_);
  if (!rec.status.ok() && !rec.status.IsInterruption()) return rec;
  const SelectionResult& result = rec.raw;

  for (const StructureRef& s : result.picks) {
    RecommendedStructure r;
    r.view = cube_graph_.view_attrs[s.view];
    if (!s.is_view()) {
      r.index = cube_graph_.graph.index_key(s.view, s.index);
    }
    r.name = cube_graph_.graph.StructureName(s);
    r.space = cube_graph_.graph.structure_space(s);
    rec.structures.push_back(std::move(r));
  }

  // Best access path per query, over the selected structures, costed by
  // the same model the graph's edges were built with. A plain view scan
  // goes through ScanCost (for the paper model that equals the historical
  // |C| / |∅| division: the apex has one row); an index path charges
  // IndexCost through its longest selection-only prefix.
  const CostModel& model = cost_model();
  for (size_t qi = 0; qi < cube_graph_.queries.size(); ++qi) {
    const SliceQuery& query = cube_graph_.queries[qi];
    QueryPlan plan;
    plan.query = query;
    plan.use_raw = true;
    plan.estimated_cost =
        cube_graph_.graph.query_default_cost(static_cast<uint32_t>(qi));
    for (const StructureRef& s : result.picks) {
      AttributeSet view_attrs = cube_graph_.view_attrs[s.view];
      if (!query.AnswerableFrom(view_attrs)) continue;
      IndexKey key;
      if (!s.is_view()) {
        key = cube_graph_.graph.index_key(s.view, s.index);
      }
      const double view_rows = sizes_.SizeOf(view_attrs);
      const double c =
          key.empty()
              ? model.ScanCost(view_rows)
              : model.IndexCost(view_rows,
                                sizes_.SizeOf(key.LongestSelectionPrefix(
                                    query.selection())));
      if (c < plan.estimated_cost) {
        plan.estimated_cost = c;
        plan.use_raw = false;
        plan.view = view_attrs;
        plan.index = key;
      }
    }
    rec.plans.push_back(std::move(plan));
  }
  return rec;
}

SelectionCheckpoint Recommendation::ToCheckpoint(
    const AdvisorConfig& config) const {
  SelectionCheckpoint checkpoint;
  checkpoint.algorithm = AlgorithmName(config.algorithm);
  checkpoint.space_budget = config.space_budget;
  checkpoint.stages = raw.stats.stages;
  checkpoint.graph_fingerprint = graph_fingerprint;
  checkpoint.picks = structures;
  checkpoint.pick_benefits = raw.pick_benefits;
  return checkpoint;
}

}  // namespace olapidx

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

Recommendation RejectedRecommendation(Status status) {
  Recommendation rec;
  rec.raw = SelectionResult::Rejected(std::move(status));
  rec.status = rec.raw.status;
  rec.completed = false;
  return rec;
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
                 const Workload& workload, const CubeGraphOptions& options)
    : schema_(schema),
      sizes_(sizes),
      workload_(workload),
      cube_graph_(BuildCubeGraph(schema, sizes, workload, options)),
      graph_fingerprint_(cube_graph_.graph.Fingerprint()),
      cost_model_(options.cost_model) {}

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

Recommendation Advisor::Recommend(const AdvisorConfig& config) const {
  const bool greedy = config.algorithm == Algorithm::kOneGreedy ||
                      config.algorithm == Algorithm::kRGreedy ||
                      config.algorithm == Algorithm::kInnerLevel;
  if (!greedy && !config.control.unlimited()) {
    return RejectedRecommendation(Status::Unimplemented(
        std::string(AlgorithmName(config.algorithm)) +
        " has no anytime contract; deadlines/cancellation require a greedy "
        "algorithm"));
  }
  if (!greedy && config.resume != nullptr) {
    return RejectedRecommendation(Status::InvalidArgument(
        std::string(AlgorithmName(config.algorithm)) +
        " cannot resume from a checkpoint"));
  }

  ResumePicks resume;
  const ResumePicks* resume_ptr = nullptr;
  if (config.resume != nullptr) {
    const SelectionCheckpoint& cp = *config.resume;
    if (cp.algorithm != AlgorithmName(config.algorithm)) {
      return RejectedRecommendation(Status::InvalidArgument(
          "checkpoint was taken by '" + cp.algorithm + "', not '" +
          AlgorithmName(config.algorithm) +
          "'; resuming would not reproduce the original pick sequence"));
    }
    if (cp.space_budget != config.space_budget) {
      return RejectedRecommendation(Status::InvalidArgument(
          "checkpoint budget " + std::to_string(cp.space_budget) +
          " does not match configured budget " +
          std::to_string(config.space_budget)));
    }
    if (cp.graph_fingerprint != 0 &&
        cp.graph_fingerprint != graph_fingerprint_) {
      return RejectedRecommendation(Status::FailedPrecondition(
          "checkpoint was taken against a different query-view graph "
          "(checkpoint graph fingerprint does not match this advisor's); "
          "rebuild with the same schema, sizes, workload, and options, or "
          "start a fresh selection"));
    }
    Status resolved = ResolveCheckpoint(cp, cube_graph_, &resume);
    if (!resolved.ok()) return RejectedRecommendation(std::move(resolved));
    resume_ptr = &resume;
  }

  SelectionResult result;
  switch (config.algorithm) {
    case Algorithm::kOneGreedy: {
      // Same knobs as kRGreedy (threads, memoization, lazy CELF, subset
      // cap) with r forced to 1; a default-constructed options object
      // here used to silently drop config.r_greedy.num_threads & co.
      RGreedyOptions options = config.r_greedy;
      options.r = 1;
      if (!config.control.unlimited()) options.control = config.control;
      if (resume_ptr != nullptr) options.resume = resume_ptr;
      result = RGreedy(cube_graph_.graph, config.space_budget, options);
      break;
    }
    case Algorithm::kRGreedy: {
      RGreedyOptions options = config.r_greedy;
      if (!config.control.unlimited()) options.control = config.control;
      if (resume_ptr != nullptr) options.resume = resume_ptr;
      result = RGreedy(cube_graph_.graph, config.space_budget, options);
      break;
    }
    case Algorithm::kInnerLevel: {
      InnerGreedyOptions options = config.inner_greedy;
      if (!config.control.unlimited()) options.control = config.control;
      if (resume_ptr != nullptr) options.resume = resume_ptr;
      result = InnerLevelGreedy(cube_graph_.graph, config.space_budget,
                                options);
      break;
    }
    case Algorithm::kTwoStep:
      result = TwoStep(cube_graph_.graph, config.space_budget,
                       config.two_step);
      break;
    case Algorithm::kHruViewsOnly:
      result = HruViewGreedy(cube_graph_.graph, config.space_budget);
      break;
    case Algorithm::kOptimal:
      result = BranchAndBoundOptimal(cube_graph_.graph, config.space_budget,
                                     config.optimal);
      break;
  }
  if (!result.status.ok() && !result.status.IsInterruption()) {
    // Rejected input (bad checkpoint, non-finalized graph, injected
    // fault): nothing to report beyond the status.
    return RejectedRecommendation(std::move(result.status));
  }

  Recommendation rec;
  rec.raw = result;
  rec.status = result.status;
  rec.completed = result.completed;
  rec.space_used = result.space_used;
  rec.graph_fingerprint = graph_fingerprint_;
  rec.initial_average_cost =
      result.total_frequency > 0.0
          ? result.initial_cost / result.total_frequency
          : 0.0;
  rec.average_query_cost = result.AverageQueryCost();

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

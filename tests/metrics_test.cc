// The observability layer: metrics registry units (sharded counters,
// gauges, log-2 histograms, snapshots, deltas), the tracer, and the
// contract between the selection algorithms' EvaluationStats and the
// registry — counters are exact, identical across thread counts, and
// captured per run (never accumulated across runs sharing an Advisor).
//
// The registry is process-global, so every assertion here is phrased as
// a delta over a region of interest, never as an absolute value.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/advisor.h"
#include "core/cube_graph.h"
#include "core/inner_greedy.h"
#include "core/r_greedy.h"
#include "core/sparse_cube_graph.h"
#include "data/fact_generator.h"
#include "data/synthetic.h"
#include "common/thread_pool.h"
#include "engine/batch_executor.h"
#include "engine/group_accumulator.h"
#include "engine/view_index.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

uint64_t SumStageCandidates(const EvaluationStats& stats) {
  uint64_t sum = 0;
  for (uint64_t c : stats.stage_candidates) sum += c;
  return sum;
}

#if defined(OLAPIDX_METRICS_ENABLED)

TEST(CounterTest, SumsAcrossShardsAndThreads) {
  Counter counter;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 10'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Add(1);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
  counter.Add(7);
  EXPECT_EQ(counter.Value(), kThreads * kPerThread + 7);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0);
  gauge.Set(42);
  EXPECT_EQ(gauge.Value(), 42);
  gauge.Add(-50);
  EXPECT_EQ(gauge.Value(), -8);
}

TEST(HistogramTest, BucketsFollowBitWidth) {
  Histogram histogram;
  // bucket 0 <- 0; bucket 1 <- 1; bucket 2 <- {2, 3}; bucket 3 <- 4.
  for (uint64_t v = 0; v <= 4; ++v) histogram.Observe(v);
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 10u);
  ASSERT_EQ(snap.buckets.size(), 4u);  // trailing zeros trimmed
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 2u);
  EXPECT_EQ(snap.buckets[3], 1u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 2.0);
}

TEST(HistogramTest, LargeValuesLandInHighBuckets) {
  Histogram histogram;
  histogram.Observe(uint64_t{1} << 40);
  HistogramSnapshot snap = histogram.Snapshot();
  ASSERT_EQ(snap.buckets.size(), 42u);  // bit_width(2^40) == 41
  EXPECT_EQ(snap.buckets[41], 1u);
}

TEST(MetricsRegistryTest, ReturnsStableDistinctReferences) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& a = registry.GetCounter("metrics_test.stable_a");
  Counter& b = registry.GetCounter("metrics_test.stable_b");
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&a, &registry.GetCounter("metrics_test.stable_a"));
  EXPECT_EQ(&registry.GetHistogram("metrics_test.stable_h"),
            &registry.GetHistogram("metrics_test.stable_h"));
}

TEST(MetricsRegistryTest, SnapshotDeltaAttributesARegion) {
  MetricsRunScope scope;
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("metrics_test.delta_counter").Add(5);
  registry.GetGauge("metrics_test.delta_gauge").Set(-3);
  Histogram& h = registry.GetHistogram("metrics_test.delta_hist");
  h.Observe(1);
  h.Observe(6);
  MetricsSnapshot delta = scope.Delta();
  EXPECT_EQ(delta.CounterValue("metrics_test.delta_counter"), 5u);
  const HistogramSnapshot* hist =
      delta.FindHistogram("metrics_test.delta_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 2u);
  EXPECT_EQ(hist->sum, 7u);
  // Snapshots are sorted by name.
  MetricsSnapshot snap = registry.Snapshot();
  for (size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first);
  }
}

TEST(MetricsRegistryTest, QuiescentDeltaHasNoCountersOrHistograms) {
  // Gauges are instantaneous (the delta keeps `after`), so only the
  // monotone families must vanish over an idle region.
  MetricsRunScope scope;
  MetricsSnapshot delta = scope.Delta();
  EXPECT_TRUE(delta.counters.empty());
  EXPECT_TRUE(delta.histograms.empty());
}

TEST(TracerTest, RecordsSpansOnlyWhenEnabled) {
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  ASSERT_FALSE(Tracer::Enabled());  // default off
  { OLAPIDX_TRACE_SPAN("metrics_test.disabled"); }
  EXPECT_TRUE(tracer.Spans().empty());

  Tracer::SetEnabled(true);
  { OLAPIDX_TRACE_SPAN("metrics_test.enabled"); }
  Tracer::SetEnabled(false);
  std::vector<SpanRecord> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "metrics_test.enabled");

  StatusOr<Json> parsed = Json::Parse(tracer.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json& doc = parsed.value();
  EXPECT_EQ(doc.Find("schema")->AsString(), "olapidx-trace");
  EXPECT_EQ(doc.Find("spans")->size(), 1u);
  tracer.Clear();
  EXPECT_TRUE(tracer.Spans().empty());
}

TEST(TracerTest, SelectionStagesEmitSpans) {
  SyntheticCube cube = RandomSyntheticCube(3, 5, 500, 0.05, 11);
  CubeLattice lattice(cube.schema);
  CubeGraph cg = BuildCubeGraph(cube.schema, cube.sizes,
                                AllSliceQueries(lattice));
  double budget = 0.2 * cube.sizes.TotalViewSpace();
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  Tracer::SetEnabled(true);
  SelectionResult inner = InnerLevelGreedy(cg.graph, budget);
  Tracer::SetEnabled(false);
  ASSERT_TRUE(inner.status.ok());
  uint64_t run_spans = 0;
  uint64_t stage_spans = 0;
  for (const SpanRecord& span : tracer.Spans()) {
    if (std::string(span.name) == "inner_greedy.run") ++run_spans;
    if (std::string(span.name) == "inner_greedy.stage") ++stage_spans;
  }
  EXPECT_EQ(run_spans, 1u);
  // One span per loop iteration: the picking stages plus the terminating
  // no-winner probe.
  EXPECT_GE(stage_spans, inner.stats.stages);
  EXPECT_LE(stage_spans, inner.stats.stages + 1);
  tracer.Clear();
}

// The executors count which path each aggregation took: once per query
// serially, once per batch (summed over the members that executed) in a
// batch. Over a ~7,700-row view the group-bys of four or five attributes
// sort, a selective one too (a view scan's bound is the view's rows); one
// or two attributes hash.
TEST(ExecutorMetricsTest, AggregationPathCountsAreExact) {
  const CubeSchema schema({Dimension{"a", 16}, Dimension{"b", 12},
                           Dimension{"c", 10}, Dimension{"d", 8},
                           Dimension{"e", 6}});
  const FactTable fact = GenerateUniformFacts(schema, 8000, /*seed=*/73);
  const AttributeSet base = schema.AllAttributes();
  Catalog catalog(&fact);
  catalog.MaterializeView(base);
  const std::vector<SliceQuery> wide = {
      SliceQuery(base, AttributeSet()),
      SliceQuery(AttributeSet::Of({0, 1, 3, 4}), AttributeSet()),
      SliceQuery(AttributeSet::Of({0, 1, 2, 3}), AttributeSet::Of({4}))};
  const std::vector<SliceQuery> narrow = {
      SliceQuery(AttributeSet::Of({0}), AttributeSet()),
      SliceQuery(AttributeSet::Of({1, 4}), AttributeSet()),
      SliceQuery(AttributeSet::Of({1}), AttributeSet::Of({4}))};
  std::vector<SliceQuery> queries;
  std::vector<std::vector<uint32_t>> values;
  for (const std::vector<SliceQuery>* mix : {&wide, &narrow}) {
    for (const SliceQuery& q : *mix) {
      queries.push_back(q);
      values.push_back(q.selection().empty() ? std::vector<uint32_t>{}
                                             : std::vector<uint32_t>{1});
    }
  }

  const Executor serial(&catalog);
  {
    MetricsRunScope scope;
    for (size_t i = 0; i < queries.size(); ++i) {
      serial.Execute(queries[i], values[i]);
    }
    const MetricsSnapshot delta = scope.Delta();
    EXPECT_EQ(delta.CounterValue("executor.aggregations_sorted"),
              wide.size());
    EXPECT_EQ(delta.CounterValue("executor.aggregations_hashed"),
              narrow.size());
    EXPECT_EQ(delta.CounterValue("executor.batch.aggregations_sorted"), 0u);
  }
  // A coalesced copy of a wide query does not execute again.
  queries.push_back(wide.front());
  values.emplace_back();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    const BatchExecutor batch(&catalog, threads);
    MetricsRunScope scope;
    batch.ExecuteBatch(queries, values);
    const MetricsSnapshot delta = scope.Delta();
    EXPECT_EQ(delta.CounterValue("executor.batch.aggregations_sorted"),
              wide.size());
    EXPECT_EQ(delta.CounterValue("executor.batch.batches"), 1u);
    EXPECT_EQ(delta.CounterValue("executor.aggregations_sorted"), 0u);
  }
}

// A call that finds its pool running a job runs inline and counts one
// pool.jobs_inline; the outer job itself is not inline.
TEST(PoolMetricsTest, NestedParallelForCountsOneInlineJob) {
  ThreadPool pool(2);
  MetricsRunScope scope;
  pool.ParallelFor(2, [&](size_t, size_t, size_t chunk) {
    if (chunk == 0) pool.ParallelFor(10, [](size_t, size_t, size_t) {});
  });
  const MetricsSnapshot delta = scope.Delta();
  EXPECT_EQ(delta.CounterValue("pool.jobs"), 2u);
  EXPECT_EQ(delta.CounterValue("pool.jobs_inline"), 1u);
}

// A sort-path group-by over a full row-storage scan of at least
// kPooledSortMinRows rows counts in executor.aggregations_parallel when it
// runs on a pool of two or more threads, and not on a one-thread pool or
// below the minimum.
TEST(ExecutorMetricsTest, PooledSortCountsQueriesThatFanOut) {
  const CubeSchema schema({Dimension{"a", 40}, Dimension{"b", 30},
                           Dimension{"c", 24}, Dimension{"d", 20},
                           Dimension{"e", 16}});
  const FactTable fact =
      GenerateUniformFacts(schema, kPooledSortMinRows + 5000, /*seed=*/5);
  const AttributeSet base = schema.AllAttributes();
  Catalog catalog(&fact);
  catalog.MaterializeView(base);
  const MaterializedView& view = catalog.view(base);
  ASSERT_GE(view.num_rows(), kPooledSortMinRows);
  RowScan scan{view.num_rows(), {}, {}, RowStates(view.aggregate_data())};
  for (int a : base.ToVector()) scan.group_columns.push_back(view.column_data(a));
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    ThreadPool pool(threads);
    MetricsRunScope scope;
    SortGroupsOnPool(schema, base, scan, pool);
    EXPECT_EQ(scope.Delta().CounterValue("executor.aggregations_parallel"),
              threads > 1 ? 1u : 0u)
        << threads << " threads";
  }
  const SliceQuery wide(base, AttributeSet());
  {
    const Executor executor(&catalog);
    MetricsRunScope scope;
    executor.Execute(wide, {});
    const MetricsSnapshot delta = scope.Delta();
    EXPECT_EQ(delta.CounterValue("executor.aggregations_sorted"), 1u);
    EXPECT_EQ(delta.CounterValue("executor.aggregations_parallel"),
              ThreadPool::Shared().num_threads() > 1 ? 1u : 0u);
  }
  // The same query over a view below the minimum stays serial.
  const FactTable small = GenerateUniformFacts(schema, 8000, /*seed=*/5);
  Catalog small_catalog(&small);
  small_catalog.MaterializeView(base);
  const Executor executor(&small_catalog);
  MetricsRunScope scope;
  executor.Execute(wide, {});
  const MetricsSnapshot delta = scope.Delta();
  EXPECT_EQ(delta.CounterValue("executor.aggregations_sorted"), 1u);
  EXPECT_EQ(delta.CounterValue("executor.aggregations_parallel"), 0u);
}

// Every probe of an index adds its binary search's bit_width(entries)
// steps to index.search_steps in one add, whatever it then visits (an
// inverted range included); a probe of an empty index adds nothing. No
// counter of the B-tree the sorted entries replaced is recorded.
TEST(IndexMetricsTest, SearchStepsArePinnedPerProbe) {
  const CubeSchema schema(
      {Dimension{"a", 16}, Dimension{"b", 12}, Dimension{"c", 10}});
  const FactTable fact = GenerateUniformFacts(schema, 3000, /*seed=*/9);
  const MaterializedView view =
      MaterializedView::FromFactTable(fact, schema.AllAttributes());
  const ViewIndex index(view, IndexKey({1, 0, 2}));
  const uint64_t entries = index.num_entries();
  const auto none = [](uint32_t) {};

  MetricsRunScope scope;
  uint64_t probes = 0;
  for (uint32_t b = 0; b < 12; ++b) {
    index.ScanPrefix({b}, none);
    index.ScanPrefix({b, b % 16}, none);
    index.ScanPrefixRange({b}, 2, 9, none);
    probes += 3;
  }
  index.ScanPrefix({}, none);
  index.ScanPrefixRange({3}, 9, 2, none);
  probes += 2;
  FactTable no_rows(schema);
  const ViewIndex empty(
      MaterializedView::FromFactTable(no_rows, schema.AllAttributes()),
      IndexKey({0}));
  empty.ScanPrefix({1}, none);
  const MetricsSnapshot delta = scope.Delta();
  EXPECT_EQ(probes, 38u);
  EXPECT_EQ(delta.CounterValue("index.search_steps"),
            probes * static_cast<uint64_t>(std::bit_width(entries)));
  for (const auto& [name, value] : delta.counters) {
    EXPECT_NE(name.rfind("btree.", 0), 0u) << name << " = " << value;
  }
  for (const auto& [name, value] :
       MetricsRegistry::Global().Snapshot().counters) {
    EXPECT_NE(name.rfind("btree.", 0), 0u) << name << " = " << value;
  }
}

#else  // !OLAPIDX_METRICS_ENABLED

TEST(MetricsOffTest, EverythingCompilesToNothing) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("metrics_test.off").Add(100);
  EXPECT_EQ(registry.GetCounter("metrics_test.off").Value(), 0u);
  EXPECT_TRUE(registry.Snapshot().Empty());
  MetricsRunScope scope;
  EXPECT_TRUE(scope.Delta().Empty());

  Tracer::SetEnabled(true);  // ignored
  EXPECT_FALSE(Tracer::Enabled());
  { OLAPIDX_TRACE_SPAN("metrics_test.off"); }
  EXPECT_TRUE(Tracer::Global().Spans().empty());
  StatusOr<Json> parsed = Json::Parse(Tracer::Global().ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().Find("schema")->AsString(), "olapidx-trace");
}

#endif  // OLAPIDX_METRICS_ENABLED

TEST(MetricsSnapshotTest, ToJsonIsValidJson) {
  MetricsSnapshot snap;
  snap.counters.emplace_back("a.count", 3);
  snap.gauges.emplace_back("b.gauge", -2);
  HistogramSnapshot h;
  h.count = 2;
  h.sum = 5;
  h.buckets = {0, 1, 1};
  snap.histograms.emplace_back("c.hist", h);
  StatusOr<Json> parsed = Json::Parse(snap.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json& doc = parsed.value();
  EXPECT_DOUBLE_EQ(doc.Find("counters")->Find("a.count")->AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(doc.Find("gauges")->Find("b.gauge")->AsDouble(), -2.0);
  EXPECT_DOUBLE_EQ(
      doc.Find("histograms")->Find("c.hist")->Find("sum")->AsDouble(), 5.0);
}

// ---------------------------------------------------------------------------
// The selection algorithms' counter contract.
// ---------------------------------------------------------------------------

class SelectionMetricsTest : public ::testing::Test {
 protected:
  SelectionMetricsTest()
      : cube_data_(RandomSyntheticCube(3, 5, 500, 0.05, 7)),
        workload_(AllSliceQueries(CubeLattice(cube_data_.schema))) {
    CubeGraphOptions opts;
    opts.raw_scan_penalty = 2.0;
    cube_ = std::make_unique<CubeGraph>(
        BuildCubeGraph(cube_data_.schema, cube_data_.sizes, workload_,
                       opts));
    budget_ = 0.2 * (cube_data_.sizes.TotalViewSpace() +
                     cube_data_.sizes.TotalFatIndexSpace());
  }

  SyntheticCube cube_data_;
  Workload workload_;
  std::unique_ptr<CubeGraph> cube_;
  double budget_ = 0.0;
};

TEST_F(SelectionMetricsTest, CandidateCountersAreExact) {
  for (int r : {1, 2}) {
    SelectionResult res =
        RGreedy(cube_->graph, budget_, RGreedyOptions{.r = r});
    ASSERT_TRUE(res.status.ok());
    ASSERT_GT(res.stats.stages, 0u);
    // The eager algorithms' per-stage counts partition the total exactly.
    EXPECT_EQ(SumStageCandidates(res.stats), res.candidates_evaluated)
        << "r = " << r;
#if defined(OLAPIDX_METRICS_ENABLED)
    // The registry delta attributed to the run agrees with the result's
    // own counters — two independent accounting paths.
    EXPECT_EQ(res.metrics.CounterValue("selection.candidates_evaluated"),
              res.candidates_evaluated);
    EXPECT_EQ(res.metrics.CounterValue("selection.stages"),
              res.stats.stages);
    EXPECT_EQ(res.metrics.CounterValue("selection.cache_hits"),
              res.stats.cache_hits);
    EXPECT_EQ(res.metrics.CounterValue("selection.cache_misses"),
              res.stats.cache_misses);
    EXPECT_EQ(res.metrics.CounterValue("selection.runs"), 1u);
    const HistogramSnapshot* stage_hist =
        res.metrics.FindHistogram("selection.stage_candidates");
    ASSERT_NE(stage_hist, nullptr);
    // One observation per stage_candidates entry (picking stages plus the
    // terminating no-winner probe), summing to the exact total.
    EXPECT_EQ(stage_hist->count, res.stats.stage_candidates.size());
    EXPECT_EQ(stage_hist->sum, res.candidates_evaluated);
#else
    EXPECT_TRUE(res.metrics.Empty());
#endif
  }
}

TEST_F(SelectionMetricsTest, InnerLevelCountersAreExact) {
  SelectionResult res = InnerLevelGreedy(cube_->graph, budget_);
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(SumStageCandidates(res.stats), res.candidates_evaluated);
#if defined(OLAPIDX_METRICS_ENABLED)
  EXPECT_EQ(res.metrics.CounterValue("selection.candidates_evaluated"),
            res.candidates_evaluated);
#endif
}

// Inner-level greedy's cost-table work (core/column_pricer.h) on a fixed
// dim-5 graph: cells read and column prices re-checked are exact totals,
// pinned, and the same at every thread count.
TEST(SelectionWorkCountersTest, CostCellsAndRechecksArePinned) {
  SyntheticCube cube = UniformSyntheticCube(5, 100, 0.05);
  CubeGraphOptions opts;
  opts.raw_scan_penalty = 2.0;
  CubeGraph cg = BuildCubeGraph(cube.schema, cube.sizes,
                                AllSliceQueries(CubeLattice(cube.schema)),
                                opts);
  const double budget = 0.25 * (cube.sizes.TotalViewSpace() +
                                cube.sizes.TotalFatIndexSpace());
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    SelectionResult res = InnerLevelGreedy(
        cg.graph, budget, InnerGreedyOptions{.num_threads = threads});
    ASSERT_TRUE(res.status.ok());
    EXPECT_EQ(res.stats.cost_cells, 928769u) << "threads " << threads;
    EXPECT_EQ(res.stats.exact_rechecks, 3258u) << "threads " << threads;
#if defined(OLAPIDX_METRICS_ENABLED)
    EXPECT_EQ(res.metrics.CounterValue("selection.cost_cells"),
              res.stats.cost_cells);
    EXPECT_EQ(res.metrics.CounterValue("selection.exact_rechecks"),
              res.stats.exact_rechecks);
#endif
  }
}

// Per-chunk evaluation time and work: one entry per chunk, cells summing
// to cost_cells exactly, and an imbalance of exactly 1 for one chunk and
// at least 1 for several, published as selection.chunk_imbalance_permille.
TEST_F(SelectionMetricsTest, ChunkImbalanceIsPublished) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SelectionResult res = InnerLevelGreedy(
        cube_->graph, budget_, InnerGreedyOptions{.num_threads = threads});
    ASSERT_TRUE(res.status.ok());
    ASSERT_EQ(res.stats.chunk_busy_micros.size(), threads);
    ASSERT_EQ(res.stats.chunk_cells.size(), threads);
    uint64_t cells = 0;
    for (uint64_t c : res.stats.chunk_cells) cells += c;
    EXPECT_EQ(cells, res.stats.cost_cells);
    const double imbalance = res.stats.ChunkImbalance();
    if (threads == 1) {
      EXPECT_EQ(imbalance, 1.0);
    } else {
      EXPECT_GE(imbalance, 1.0);
      EXPECT_LE(imbalance, static_cast<double>(threads));
    }
#if defined(OLAPIDX_METRICS_ENABLED)
    int64_t permille = 0;
    for (const auto& [name, value] : res.metrics.gauges) {
      if (name == "selection.chunk_imbalance_permille") permille = value;
    }
    EXPECT_EQ(permille, std::llround(1000.0 * imbalance));
    if (threads == 1) {
      EXPECT_EQ(permille, 1000);
    }
#endif
  }
}

// The sparse build's candidate-class gather on a fixed dim-12 workload:
// the cone positions it enumerates are an exact total, pinned, the same
// at every thread count, and published as
// graph_build.sparse.family_cone_visits.
TEST(SparseBuildCountersTest, FamilyConeVisitsArePinned) {
  SyntheticCube cube = UniformSyntheticCube(12, 30, 1e-6);
  const Workload workload =
      SampledZipfSliceQueries(CubeLattice(cube.schema), 1.1, 200, 42);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    SparseCubeGraphOptions options;
    options.raw_scan_penalty = 2.0;
    options.num_threads = threads;
#if defined(OLAPIDX_METRICS_ENABLED)
    MetricsRunScope scope;
#endif
    StatusOr<SparseCubeGraph> sparse =
        TryBuildSparseCubeGraph(cube.schema, cube.sizes, workload, options);
    ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
    EXPECT_EQ(sparse->stats.family_cone_visits, 5738u) << "threads " << threads;
#if defined(OLAPIDX_METRICS_ENABLED)
    EXPECT_EQ(
        scope.Delta().CounterValue("graph_build.sparse.family_cone_visits"),
        sparse->stats.family_cone_visits);
#endif
  }
}

TEST_F(SelectionMetricsTest, CountersIdenticalAcrossThreadCounts) {
  SelectionResult serial = RGreedy(
      cube_->graph, budget_, RGreedyOptions{.r = 2, .num_threads = 1});
  SelectionResult parallel = RGreedy(
      cube_->graph, budget_, RGreedyOptions{.r = 2, .num_threads = 4});
  ASSERT_TRUE(serial.status.ok());
  ASSERT_TRUE(parallel.status.ok());
  // Bit-identical picks (the determinism contract)...
  ASSERT_EQ(serial.picks.size(), parallel.picks.size());
  for (size_t i = 0; i < serial.picks.size(); ++i) {
    EXPECT_TRUE(serial.picks[i] == parallel.picks[i]) << "pick " << i;
  }
  EXPECT_EQ(serial.final_cost, parallel.final_cost);
  // ...and bit-identical work accounting: the same candidates are
  // evaluated no matter how they are sharded over threads.
  EXPECT_EQ(serial.candidates_evaluated, parallel.candidates_evaluated);
  EXPECT_EQ(serial.stats.stage_candidates, parallel.stats.stage_candidates);
#if defined(OLAPIDX_METRICS_ENABLED)
  EXPECT_EQ(serial.metrics.CounterValue("selection.candidates_evaluated"),
            parallel.metrics.CounterValue("selection.candidates_evaluated"));
  EXPECT_EQ(serial.metrics.CounterValue("selection.stages"),
            parallel.metrics.CounterValue("selection.stages"));
#endif
}

// Regression: SelectionResult::metrics must be a fresh per-run delta.
// Repeated Recommend() calls on one Advisor share the process-global
// registry, so a before-snapshot taken at Advisor construction (or any
// other accumulation) would make the second run's delta roughly double
// the first.
TEST_F(SelectionMetricsTest, RepeatedAdvisorRunsYieldEqualDeltas) {
  Advisor advisor(cube_data_.schema, cube_data_.sizes, workload_);
  AdvisorConfig config;
  config.algorithm = Algorithm::kRGreedy;
  config.r_greedy.r = 2;
  config.space_budget = budget_;

  Recommendation first = advisor.Recommend(config);
  Recommendation second = advisor.Recommend(config);
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  ASSERT_EQ(first.structures.size(), second.structures.size());
  EXPECT_EQ(first.raw.candidates_evaluated, second.raw.candidates_evaluated);
  EXPECT_EQ(first.raw.stats.stage_candidates,
            second.raw.stats.stage_candidates);
  // Identical runs produce identical monotone deltas — not doubled ones.
  // (Histogram *timing* entries vary run to run, so the comparison is on
  // the counters and the deterministic stage_candidates histogram.)
  EXPECT_EQ(first.raw.metrics.counters, second.raw.metrics.counters);
#if defined(OLAPIDX_METRICS_ENABLED)
  const HistogramSnapshot* h1 =
      first.raw.metrics.FindHistogram("selection.stage_candidates");
  const HistogramSnapshot* h2 =
      second.raw.metrics.FindHistogram("selection.stage_candidates");
  ASSERT_NE(h1, nullptr);
  ASSERT_NE(h2, nullptr);
  EXPECT_EQ(*h1, *h2);
#endif
}

}  // namespace
}  // namespace olapidx

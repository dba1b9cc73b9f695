#include "engine/batch_executor.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "data/fact_generator.h"
#include "engine/group_table.h"

namespace olapidx {
namespace {

bool BitEq(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectBitIdentical(const GroupedResult& a, const GroupedResult& b) {
  ASSERT_EQ(a.group_attrs, b.group_attrs);
  ASSERT_EQ(a.keys, b.keys);
  ASSERT_EQ(a.sums.size(), b.sums.size());
  for (size_t i = 0; i < a.sums.size(); ++i) {
    EXPECT_TRUE(BitEq(a.sums[i], b.sums[i]));
    EXPECT_EQ(a.aggregates[i].count, b.aggregates[i].count);
    EXPECT_TRUE(BitEq(a.aggregates[i].min, b.aggregates[i].min));
    EXPECT_TRUE(BitEq(a.aggregates[i].max, b.aggregates[i].max));
  }
}

CubeSchema TestSchema() {
  return CubeSchema({Dimension{"a", 10}, Dimension{"b", 8},
                     Dimension{"c", 5}, Dimension{"d", 6}});
}

// A batch whose plans cover every access-path kind: raw scans (queries on
// attribute d, which no view covers), shared view scans, shared and
// distinct index probes.
class BatchExecutorTest : public ::testing::Test {
 protected:
  BatchExecutorTest()
      : fact_(GenerateZipfFacts(TestSchema(), 2500, 0.9, /*seed=*/41)),
        catalog_(&fact_),
        serial_(&catalog_) {
    catalog_.MaterializeView(AttributeSet::Of({0, 1, 2}));
    catalog_.MaterializeView(AttributeSet::Of({0, 1}));
    OLAPIDX_CHECK(
        catalog_.BuildIndex(AttributeSet::Of({0, 1, 2}), IndexKey({2, 0}))
            .ok());
    Pcg32 rng(43);
    for (int i = 0; i < 60; ++i) {
      int ga = static_cast<int>(rng.NextBounded(4));
      int sa = static_cast<int>(rng.NextBounded(4));
      if (ga == sa) sa = (sa + 1) % 4;
      queries_.emplace_back(AttributeSet::Of({ga}), AttributeSet::Of({sa}));
      values_.push_back({rng.NextBounded(static_cast<uint32_t>(
          TestSchema().dimensions()[static_cast<size_t>(sa)].cardinality))});
    }
  }

  FactTable fact_;
  Catalog catalog_;
  Executor serial_;
  std::vector<SliceQuery> queries_;
  std::vector<std::vector<uint32_t>> values_;
};

TEST_F(BatchExecutorTest, BatchMatchesSerialBitIdenticallyWithStats) {
  BatchExecutor batch(&catalog_, /*num_threads=*/1);
  std::vector<ExecutionStats> batch_stats;
  BatchStats bstats;
  std::vector<GroupedResult> results =
      batch.ExecuteBatch(queries_, values_, &batch_stats, &bstats);
  ASSERT_EQ(results.size(), queries_.size());
  ASSERT_EQ(batch_stats.size(), queries_.size());
  EXPECT_EQ(bstats.queries, queries_.size());
  EXPECT_GT(bstats.scan_groups, 0u);
  EXPECT_GT(bstats.probe_groups, 0u);
  // Sharing must actually amortize: the batch decodes fewer physical rows
  // than the serial path would.
  EXPECT_LT(bstats.rows_decoded, bstats.logical_rows);

  uint64_t serial_rows = 0;
  for (size_t i = 0; i < queries_.size(); ++i) {
    ExecutionStats sstats;
    GroupedResult expected = serial_.Execute(queries_[i], values_[i],
                                             &sstats);
    ExpectBitIdentical(results[i], expected);
    // The batch reports exactly what the serial executor would have:
    // same plan, same per-query row count.
    EXPECT_EQ(batch_stats[i].rows_processed, sstats.rows_processed);
    EXPECT_EQ(batch_stats[i].used_raw, sstats.used_raw);
    EXPECT_EQ(batch_stats[i].view, sstats.view);
    EXPECT_EQ(batch_stats[i].index, sstats.index);
    serial_rows += sstats.rows_processed;
  }
  EXPECT_EQ(bstats.logical_rows, serial_rows);
}

TEST_F(BatchExecutorTest, DeterministicAcrossThreadCounts) {
  BatchExecutor one(&catalog_, 1);
  BatchExecutor two(&catalog_, 2);
  BatchExecutor eight(&catalog_, 8);
  std::vector<GroupedResult> r1 = one.ExecuteBatch(queries_, values_);
  std::vector<GroupedResult> r2 = two.ExecuteBatch(queries_, values_);
  std::vector<GroupedResult> r8 = eight.ExecuteBatch(queries_, values_);
  ASSERT_EQ(r1.size(), r2.size());
  ASSERT_EQ(r1.size(), r8.size());
  for (size_t i = 0; i < r1.size(); ++i) {
    ExpectBitIdentical(r1[i], r2[i]);
    ExpectBitIdentical(r1[i], r8[i]);
  }
  // And re-running the same batch reproduces itself exactly.
  std::vector<GroupedResult> again = eight.ExecuteBatch(queries_, values_);
  for (size_t i = 0; i < r1.size(); ++i) {
    ExpectBitIdentical(r8[i], again[i]);
  }
}

TEST_F(BatchExecutorTest, CompressedBatchMatchesSerialRowStore) {
  // Integer measures, views the fixture's queries partly miss (raw scans
  // ride along).
  CubeSchema schema = TestSchema();
  FactTable fact(schema);
  Pcg32 rng(47);
  std::vector<uint32_t> dims(4);
  for (size_t r = 0; r < 2000; ++r) {
    for (int a = 0; a < 4; ++a) {
      dims[static_cast<size_t>(a)] = rng.NextBounded(static_cast<uint32_t>(
          schema.dimensions()[static_cast<size_t>(a)].cardinality));
    }
    fact.Append(dims, 1.0 + rng.NextBounded(50));
  }
  Catalog catalog(&fact);
  catalog.MaterializeView(AttributeSet::Of({0, 1, 2}));
  catalog.MaterializeView(AttributeSet::Of({1, 3}));
  catalog.CompressAllViews();

  Executor serial(&catalog);
  serial.set_use_column_store(false);  // serial row-store reference
  BatchExecutor compressed_batch(&catalog, 4);
  std::vector<ExecutionStats> stats;
  std::vector<GroupedResult> results =
      compressed_batch.ExecuteBatch(queries_, values_, &stats);
  bool any_columnar = false;
  for (size_t i = 0; i < queries_.size(); ++i) {
    GroupedResult expected = serial.Execute(queries_[i], values_[i]);
    ExpectBitIdentical(results[i], expected);
    any_columnar = any_columnar || stats[i].used_columnar;
  }
  EXPECT_TRUE(any_columnar);
}

TEST_F(BatchExecutorTest, ColumnarBatchMatchesSerialRowStoreBitForBit) {
  // Fractional measures: the store keeps the view's row order, so a
  // shared columnar scan folds every group in the row store's order. The
  // batch covers every group-by and selection of a 4-dim view, each
  // twice (coalesced), several members per shared scan, each member with
  // its own ordered group-by prefix.
  const AttributeSet view = AttributeSet::Of({0, 1, 2, 3});
  Catalog catalog(&fact_);
  catalog.MaterializeView(view);
  catalog.MaterializeView(AttributeSet::Of({0, 1, 2}));
  catalog.CompressAllViews();
  std::vector<SliceQuery> queries;
  std::vector<std::vector<uint32_t>> values;
  Pcg32 rng(53);
  for (AttributeSet selection : view.Subsets()) {
    for (AttributeSet group : view.Minus(selection).Subsets()) {
      const size_t row =
          rng.NextBounded(static_cast<uint32_t>(fact_.num_rows()));
      std::vector<uint32_t> sel;
      for (int a : selection.ToVector()) sel.push_back(fact_.dim(row, a));
      for (int copy = 0; copy < 2; ++copy) {
        queries.emplace_back(group, selection);
        values.push_back(sel);
      }
    }
  }

  Executor serial(&catalog);
  serial.set_use_column_store(false);
  BatchExecutor batch(&catalog, 2);
  std::vector<ExecutionStats> stats;
  BatchStats bstats;
  const std::vector<GroupedResult> results =
      batch.ExecuteBatch(queries, values, &stats, &bstats);
  ASSERT_EQ(results.size(), queries.size());
  EXPECT_LT(bstats.unique_queries, bstats.queries);
  EXPECT_GT(bstats.columnar_scans, 0u);
  size_t columnar = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE(queries[i].ToString(TestSchema().names()));
    ExpectBitIdentical(results[i], serial.Execute(queries[i], values[i]));
    if (stats[i].used_columnar) ++columnar;
  }
  EXPECT_GT(columnar, queries.size() / 2);
}

TEST_F(BatchExecutorTest, IdenticalRequestsCoalesce) {
  // A Zipf stream repeats popular (query, values) requests; the batch
  // executes each unique request once and copies its result to every
  // duplicate slot — bit-identical by construction.
  std::vector<SliceQuery> batch_q;
  std::vector<std::vector<uint32_t>> batch_v;
  for (int rep = 0; rep < 10; ++rep) {
    batch_q.push_back(queries_[0]);
    batch_v.push_back(values_[0]);
  }
  batch_q.push_back(queries_[1]);
  batch_v.push_back(values_[1]);
  BatchExecutor batch(&catalog_, 2);
  std::vector<ExecutionStats> stats;
  BatchStats bstats;
  std::vector<GroupedResult> results =
      batch.ExecuteBatch(batch_q, batch_v, &stats, &bstats);
  EXPECT_EQ(bstats.queries, 11u);
  EXPECT_EQ(bstats.unique_queries, 2u);

  ExecutionStats s0, s1;
  GroupedResult e0 = serial_.Execute(queries_[0], values_[0], &s0);
  GroupedResult e1 = serial_.Execute(queries_[1], values_[1], &s1);
  for (int rep = 0; rep < 10; ++rep) {
    ExpectBitIdentical(results[static_cast<size_t>(rep)], e0);
    EXPECT_EQ(stats[static_cast<size_t>(rep)].rows_processed,
              s0.rows_processed);
  }
  ExpectBitIdentical(results[10], e1);
  // Physical work is two unique requests' worth, not eleven; the logical
  // (serial-equivalent) row count still charges every duplicate.
  EXPECT_LE(bstats.rows_decoded, s0.rows_processed + s1.rows_processed);
  EXPECT_EQ(bstats.logical_rows,
            10 * s0.rows_processed + s1.rows_processed);
}

TEST_F(BatchExecutorTest, TryExecuteBatchValidatesUpFront) {
  BatchExecutor batch(&catalog_, 2);
  std::vector<GroupedResult> out;

  // Empty batch is fine.
  EXPECT_TRUE(batch.TryExecuteBatch({}, {}, &out).ok());
  EXPECT_TRUE(out.empty());

  // Mismatched vector lengths.
  Status s = batch.TryExecuteBatch(queries_, {}, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);

  // One query with the wrong selection-value count poisons the batch
  // before any work happens.
  std::vector<std::vector<uint32_t>> bad = values_;
  bad[5] = {1, 2, 3};
  s = batch.TryExecuteBatch(queries_, bad, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("query 5"), std::string::npos);

  // So does a value at its dimension's cardinality, a member that does
  // not exist.
  bad = values_;
  const int sel = queries_[7].selection().ToVector()[0];
  bad[7] = {static_cast<uint32_t>(
      TestSchema().dimensions()[static_cast<size_t>(sel)].cardinality)};
  s = batch.TryExecuteBatch(queries_, bad, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("query 7"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("out of range"), std::string::npos)
      << s.message();
}

TEST_F(BatchExecutorTest, ObserverSeesEveryQueryInBatchOrder) {
  BatchExecutor batch(&catalog_, 4);
  std::vector<SliceQuery> seen;
  std::vector<uint64_t> seen_rows;
  batch.SetQueryObserver(
      [&](const SliceQuery& q, const ExecutionStats& stats) {
        seen.push_back(q);
        seen_rows.push_back(stats.rows_processed);
      });
  std::vector<GroupedResult> out;
  ASSERT_TRUE(batch.TryExecuteBatch(queries_, values_, &out).ok());
  ASSERT_EQ(seen.size(), queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    EXPECT_EQ(seen[i].group_by(), queries_[i].group_by());
    EXPECT_EQ(seen[i].selection(), queries_[i].selection());
    EXPECT_GT(seen_rows[i], 0u);
  }
}

TEST_F(BatchExecutorTest, SerialExecuteNotifiesObserverToo) {
  // The observer asymmetry fix: Execute() (the aborting variant) now
  // notifies through the same path as TryExecute.
  int notified = 0;
  serial_.SetQueryObserver(
      [&](const SliceQuery&, const ExecutionStats&) { ++notified; });
  serial_.Execute(queries_[0], values_[0]);
  EXPECT_EQ(notified, 1);
  GroupedResult out;
  ASSERT_TRUE(serial_.TryExecute(queries_[1], values_[1], &out).ok());
  EXPECT_EQ(notified, 2);
}

TEST(BatchExecutorSortPathTest, WideGroupBysMatchSerialAtAnyThreadCount) {
  // A ~7,700-row base view: its no-selection group-bys of four or five
  // attributes take the sort path, narrower and selective ones the hash
  // path, in the same shared scans. Fractional measures, over the row
  // store and over the column store.
  const CubeSchema schema({Dimension{"a", 16}, Dimension{"b", 12},
                           Dimension{"c", 10}, Dimension{"d", 8},
                           Dimension{"e", 6}});
  const FactTable uniform = GenerateUniformFacts(schema, 8000, /*seed=*/67);
  FactTable fact(schema);
  Pcg32 rng(71);
  for (size_t r = 0; r < uniform.num_rows(); ++r) {
    fact.Append(uniform.RowDims(r),
                static_cast<double>(rng.NextBounded(100000)) / 7.0);
  }
  const AttributeSet base = schema.AllAttributes();
  Catalog catalog(&fact);
  catalog.MaterializeView(base);
  catalog.CompressAllViews();
  const double rows = static_cast<double>(catalog.view(base).num_rows());
  std::vector<SliceQuery> queries;
  std::vector<std::vector<uint32_t>> values;
  size_t sorted = 0;
  for (AttributeSet group_by : base.Subsets()) {
    if (group_by.ToVector().size() < 3) continue;
    if (SortsGroups(schema.DomainSize(group_by), rows)) ++sorted;
    queries.emplace_back(group_by, AttributeSet());
    values.emplace_back();
  }
  queries.emplace_back(AttributeSet::Of({0, 1, 2, 3}), AttributeSet::Of({4}));
  values.push_back({fact.dim(0, 4)});
  queries.push_back(queries.front());  // coalesced
  values.push_back(values.front());
  ASSERT_GT(sorted, 0u);
  ASSERT_LT(sorted, queries.size());

  for (bool columnar : {false, true}) {
    SCOPED_TRACE(columnar ? "column store" : "row store");
    Executor serial(&catalog);
    serial.set_use_column_store(columnar);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SCOPED_TRACE(::testing::Message() << threads << " threads");
      BatchExecutor batch(&catalog, threads);
      batch.set_use_column_store(columnar);
      const std::vector<GroupedResult> results =
          batch.ExecuteBatch(queries, values);
      ASSERT_EQ(results.size(), queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        SCOPED_TRACE(queries[i].ToString(schema.names()));
        ExpectBitIdentical(results[i],
                           serial.Execute(queries[i], values[i]));
      }
    }
  }
}

}  // namespace
}  // namespace olapidx

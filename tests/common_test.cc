#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/deadline.h"
#include "common/format.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/backoff.h"
#include "common/journal.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"

namespace olapidx {
namespace {

TEST(Pcg32Test, Deterministic) {
  Pcg32 a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  Pcg32 c(124);
  bool any_different = false;
  Pcg32 a2(123);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c.Next()) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(Pcg32Test, BoundedStaysInRange) {
  Pcg32 rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.NextBounded(13), 13u);
  }
}

TEST(Pcg32Test, BoundedRoughlyUniform) {
  Pcg32 rng(99);
  constexpr int kBuckets = 8;
  int counts[kBuckets] = {0};
  constexpr int kDraws = 80'000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Pcg32Test, DoubleInUnitInterval) {
  Pcg32 rng(5);
  for (int i = 0; i < 10'000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ZipfSamplerTest, ZeroSkewIsUniform) {
  ZipfSampler zipf(4, 0.0);
  for (uint32_t k = 0; k < 4; ++k) {
    EXPECT_NEAR(zipf.Probability(k), 0.25, 1e-12);
  }
}

TEST(ZipfSamplerTest, ProbabilitiesDecreaseAndSumToOne) {
  ZipfSampler zipf(100, 1.0);
  double total = 0.0;
  double prev = 2.0;
  for (uint32_t k = 0; k < 100; ++k) {
    double p = zipf.Probability(k);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfSamplerTest, SampleMatchesProbability) {
  ZipfSampler zipf(10, 1.2);
  Pcg32 rng(11);
  std::vector<int> counts(10, 0);
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) ++counts[zipf.Sample(rng)];
  for (uint32_t k = 0; k < 10; ++k) {
    double expected = zipf.Probability(k) * kDraws;
    EXPECT_NEAR(counts[k], expected, 5 * std::sqrt(expected) + 10);
  }
}

TEST(SplitMix64Test, Deterministic) {
  SplitMix64 a(1), b(1);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_EQ(a.Next(), b.Next());
}

TEST(FormatTest, RowCounts) {
  EXPECT_EQ(FormatRowCount(6e6), "6M");
  EXPECT_EQ(FormatRowCount(0.8e6), "0.8M");
  EXPECT_EQ(FormatRowCount(1.18e6), "1.18M");
  EXPECT_EQ(FormatRowCount(10'000), "10K");
  EXPECT_EQ(FormatRowCount(1), "1");
  EXPECT_EQ(FormatRowCount(2.5e9), "2.5G");
}

TEST(FormatTest, FixedAndPercent) {
  EXPECT_EQ(FormatFixed(0.7351, 2), "0.74");
  EXPECT_EQ(FormatPercent(0.395), "39.5%");
  EXPECT_EQ(FormatPercent(0.5, 0), "50%");
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer", "22"});
  // Just exercise the code path; rendering is eyeballed in benches.
  t.Print(stderr);
}

TEST(TablePrinterDeathTest, RowArityMismatch) {
  TablePrinter t({"a", "b"});
  EXPECT_DEATH(t.AddRow({"only-one"}), "CHECK");
}

TEST(StatusTest, OkAndErrorBasics) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");
  Status bad = Status::InvalidArgument("bad field");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.ToString(), "INVALID_ARGUMENT: bad field");
}

TEST(StatusTest, WithContextChainsOutward) {
  Status inner = Status::NotFound("dimension 'q'");
  Status outer = inner.WithContext("line 3").WithContext("parsing design");
  EXPECT_EQ(outer.message(), "parsing design: line 3: dimension 'q'");
  EXPECT_EQ(outer.code(), StatusCode::kNotFound);
  EXPECT_TRUE(Status::Ok().WithContext("ignored").ok());
}

TEST(StatusTest, InterruptionCodes) {
  EXPECT_TRUE(Status::DeadlineExceeded("d").IsInterruption());
  EXPECT_TRUE(Status::Cancelled("c").IsInterruption());
  EXPECT_TRUE(Status::ResourceExhausted("r").IsInterruption());
  EXPECT_FALSE(Status::InvalidArgument("i").IsInterruption());
  EXPECT_FALSE(Status::Unavailable("u").IsInterruption());
  EXPECT_FALSE(Status::Ok().IsInterruption());
}

TEST(StatusOrTest, ValueAndStatusAccess) {
  StatusOr<int> good = 42;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  EXPECT_TRUE(good.status().ok());
  StatusOr<int> bad = Status::DataLoss("corrupt");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kDataLoss);
}

TEST(StatusOrDeathTest, ValueOfErrorAborts) {
  StatusOr<int> bad = Status::Internal("boom");
  EXPECT_DEATH((void)bad.value(), "CHECK");
}

TEST(DeadlineTest, InfiniteNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining_micros(), INT64_MAX);
}

TEST(DeadlineTest, PastDeadlineIsExpired) {
  Deadline d = Deadline::AfterMillis(0);
  EXPECT_FALSE(d.infinite());
  EXPECT_TRUE(d.expired());
  EXPECT_LE(Deadline::AfterMicros(1).remaining_micros(), 1);
  EXPECT_GT(Deadline::AfterMillis(60'000).remaining_micros(), 0);
}

TEST(RunControlTest, DefaultIsUnlimited) {
  RunControl control;
  EXPECT_TRUE(control.unlimited());
  EXPECT_FALSE(control.StopRequested());
}

TEST(RunControlTest, StopSourcesAndPrecedence) {
  CancelToken token;
  RunControl control;
  control.cancel = &token;
  EXPECT_FALSE(control.unlimited());  // a token alone ends "unlimited"
  EXPECT_FALSE(control.StopRequested());
  token.Cancel();
  EXPECT_TRUE(control.StopRequested());
  EXPECT_EQ(control.StopStatus().code(), StatusCode::kCancelled);
  // With both the token fired and the deadline expired, cancellation wins.
  control.deadline = Deadline::AfterMillis(0);
  EXPECT_EQ(control.StopStatus().code(), StatusCode::kCancelled);
  // Deadline alone reports DeadlineExceeded.
  RunControl timed;
  timed.deadline = Deadline::AfterMillis(0);
  EXPECT_TRUE(timed.StopRequested());
  EXPECT_EQ(timed.StopStatus().code(), StatusCode::kDeadlineExceeded);
  // max_steps is the algorithm's business, not StopRequested()'s.
  RunControl stepped;
  stepped.max_steps = 3;
  EXPECT_FALSE(stepped.unlimited());
  EXPECT_FALSE(stepped.StopRequested());
}

TEST(ThreadPoolTest, TryParallelForPropagatesTheFailingChunk) {
  ThreadPool pool(4);
  // Exactly one chunk fails: its Status must come back verbatim (chunks
  // skipped after the failure stay OK and must not mask it).
  Status s = pool.TryParallelFor(100, [](size_t, size_t, size_t chunk) {
    if (chunk == 2) return Status::Unavailable("chunk 2");
    return Status::Ok();
  });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(s.message(), "chunk 2");
}

TEST(ThreadPoolTest, TryParallelForReportsLowestChunkThatRan) {
  ThreadPool pool(4);
  // Every chunk fails with its own tag; whichever subset actually ran, the
  // reported Status is the lowest-numbered chunk among them.
  Status s = pool.TryParallelFor(100, [](size_t, size_t, size_t chunk) {
    return Status::Unavailable("chunk " + std::to_string(chunk));
  });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.message().rfind("chunk ", 0), 0u) << s.ToString();
}

TEST(ThreadPoolTest, TryParallelForOkWhenAllChunksSucceed) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  Status s = pool.TryParallelFor(
      1000, [&](size_t begin, size_t end, size_t) {
        total += static_cast<int>(end - begin);
        return Status::Ok();
      });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(total.load(), 1000);
}

TEST(ThreadPoolTest, PoolSurvivesRepeatedFailures) {
  // A failing job must not poison the pool or wedge its destructor.
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    Status s = pool.TryParallelFor(64, [&](size_t, size_t, size_t chunk) {
      if (chunk % 2 == static_cast<size_t>(round % 2)) {
        return Status::Internal("injected");
      }
      return Status::Ok();
    });
    EXPECT_FALSE(s.ok());
  }
  std::atomic<int> total{0};
  EXPECT_TRUE(pool.TryParallelFor(10, [&](size_t begin, size_t end,
                                          size_t) {
                    total += static_cast<int>(end - begin);
                    return Status::Ok();
                  })
                  .ok());
  EXPECT_EQ(total.load(), 10);
  // Destructor joins cleanly at scope exit (deadlock would hang the test).
}

TEST(ThreadPoolTest, TwoFailingChunksLowestWinsEveryRun) {
  // The deterministic-failure contract: with chunks 2 and 5 both failing,
  // the reported Status is chunk 2's on every run, regardless of which
  // worker thread reaches which chunk first.
  ThreadPool pool(8);
  for (int round = 0; round < 100; ++round) {
    Status s = pool.TryParallelFor(64, [](size_t, size_t, size_t chunk) {
      if (chunk == 2 || chunk == 5) {
        return Status::Unavailable("chunk " + std::to_string(chunk));
      }
      return Status::Ok();
    });
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.message(), "chunk 2") << "round " << round;
  }
}

// Chunk c of an n-element job on `pool` covers ChunkBounds(n, threads, c):
// per-chunk sums of the indexes (plus a caller tag) checked against that.
void ExpectChunkSums(const std::vector<uint64_t>& sums, size_t n,
                     size_t threads, uint64_t tag) {
  ASSERT_EQ(sums.size(), threads);
  for (size_t c = 0; c < threads; ++c) {
    const auto [begin, end] = ThreadPool::ChunkBounds(n, threads, c);
    uint64_t expected = 0;
    for (size_t i = begin; i < end; ++i) expected += i * 1000 + tag;
    EXPECT_EQ(sums[c], expected) << "chunk " << c;
  }
}

TEST(ThreadPoolTest, ConcurrentCallersEachGetTheirOwnChunks) {
  // Eight threads share one pool: whichever call finds it busy runs its
  // chunks inline, and every call still sees exactly its own chunks.
  ThreadPool pool(4);
  std::vector<std::thread> callers;
  for (uint64_t t = 0; t < 8; ++t) {
    callers.emplace_back([&pool, t] {
      for (size_t round = 0; round < 200; ++round) {
        const size_t n = 50 + 7 * t + round % 13;
        std::vector<uint64_t> sums(pool.num_threads(), 0);
        pool.ParallelFor(n, [&](size_t begin, size_t end, size_t chunk) {
          for (size_t i = begin; i < end; ++i) sums[chunk] += i * 1000 + t;
        });
        ExpectChunkSums(sums, n, pool.num_threads(), t);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  // Every chunk of the outer job calls ParallelFor on its own pool; the
  // inner calls run inline on the chunk's thread and still split their
  // range into the pool's chunks.
  ThreadPool pool(4);
  const size_t outer_n = 40, inner_n = 23;
  std::vector<std::vector<uint64_t>> inner_sums(
      pool.num_threads(), std::vector<uint64_t>(pool.num_threads(), 0));
  std::vector<uint64_t> outer_sums(pool.num_threads(), 0);
  pool.ParallelFor(outer_n, [&](size_t begin, size_t end, size_t chunk) {
    for (size_t i = begin; i < end; ++i) outer_sums[chunk] += i * 1000;
    pool.ParallelFor(inner_n, [&](size_t b, size_t e, size_t inner_chunk) {
      for (size_t i = b; i < e; ++i) {
        inner_sums[chunk][inner_chunk] += i * 1000 + chunk;
      }
    });
  });
  ExpectChunkSums(outer_sums, outer_n, pool.num_threads(), 0);
  for (size_t c = 0; c < pool.num_threads(); ++c) {
    ExpectChunkSums(inner_sums[c], inner_n, pool.num_threads(), c);
  }
  // A nested fallible call reports its lowest failing chunk, and the
  // chunks after it are skipped.
  std::vector<Status> nested(pool.num_threads());
  std::vector<std::vector<int>> ran(pool.num_threads());
  pool.ParallelFor(pool.num_threads(), [&](size_t, size_t, size_t chunk) {
    nested[chunk] = pool.TryParallelFor(
        100, [&](size_t, size_t, size_t inner_chunk) {
          ran[chunk].push_back(static_cast<int>(inner_chunk));
          if (inner_chunk >= 1) {
            return Status::Unavailable("chunk " +
                                       std::to_string(inner_chunk));
          }
          return Status::Ok();
        });
  });
  for (size_t c = 0; c < pool.num_threads(); ++c) {
    EXPECT_EQ(nested[c].message(), "chunk 1");
    EXPECT_EQ(ran[c], (std::vector<int>{0, 1}));
  }
}

TEST(BackoffTest, RetriesTransientFailuresThenSucceeds) {
  int calls = 0;
  size_t retries = 0;
  std::vector<int64_t> delays;
  Status s = RetryWithBackoff(
      RetryPolicy{}, Deadline::Infinite(),
      [&]() {
        ++calls;
        return calls < 3 ? Status::Unavailable("flaky") : Status::Ok();
      },
      &retries, [&](int64_t micros) { delays.push_back(micros); });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2u);
  // The schedule is deterministic: base, then base * multiplier.
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_EQ(delays[0], 200);
  EXPECT_EQ(delays[1], 400);
}

TEST(BackoffTest, NonTransientFailuresAreNotRetried) {
  int calls = 0;
  size_t retries = 0;
  Status s = RetryWithBackoff(
      RetryPolicy{}, Deadline::Infinite(),
      [&]() {
        ++calls;
        return Status::InvalidArgument("caller bug");
      },
      &retries, [](int64_t) {});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(retries, 0u);
}

TEST(BackoffTest, AttemptBudgetReturnsLastTransientStatus) {
  int calls = 0;
  Status s = RetryWithBackoff(
      RetryPolicy{}, Deadline::Infinite(),
      [&]() {
        ++calls;
        return Status::Unavailable("still down");
      },
      nullptr, [](int64_t) {});
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 3);  // max_attempts
}

TEST(BackoffTest, ExpiredDeadlineShortCircuits) {
  int calls = 0;
  Status s = RetryWithBackoff(
      RetryPolicy{}, Deadline::AfterMillis(0),
      [&]() {
        ++calls;
        return Status::Ok();
      },
      nullptr, [](int64_t) {});
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(calls, 0);
}

TEST(JournalTest, HashHexRoundTrip) {
  for (uint64_t h : {0ull, 1ull, 0xdeadbeefcafef00dull, ~0ull}) {
    std::string hex = HashToHex(h);
    EXPECT_EQ(hex.size(), 16u);
    uint64_t parsed = 0;
    ASSERT_TRUE(ParseHexHash(hex, &parsed)) << hex;
    EXPECT_EQ(parsed, h);
  }
  uint64_t out = 0;
  EXPECT_FALSE(ParseHexHash("", &out));
  EXPECT_FALSE(ParseHexHash("abc", &out));                  // too short
  EXPECT_FALSE(ParseHexHash("00000000000000zz", &out));     // not hex
  EXPECT_FALSE(ParseHexHash("00000000000000000", &out));    // too long
}

TEST(JournalTest, AtomicWriteThenReadRoundTrips) {
  std::string path = ::testing::TempDir() + "olapidx_journal_rt.txt";
  std::remove(path.c_str());
  EXPECT_EQ(ReadFileToString(path).status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(AtomicWriteFile(path, "first\ncontents\n").ok());
  StatusOr<std::string> read = ReadFileToString(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, "first\ncontents\n");

  // Overwrite is atomic too: the new content fully replaces the old.
  ASSERT_TRUE(AtomicWriteFile(path, "second").ok());
  read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "second");
  EXPECT_TRUE(FileExists(path));
  std::remove(path.c_str());
}

TEST(StatusTest, ExitCodesAreDistinctAndLeaveUsageCodesFree) {
  EXPECT_EQ(StatusExitCode(Status::Ok()), 0);
  std::vector<Status> failures = {
      Status::InvalidArgument("x"), Status::NotFound("x"),
      Status::AlreadyExists("x"),   Status::FailedPrecondition("x"),
      Status::ResourceExhausted("x"), Status::DeadlineExceeded("x"),
      Status::Cancelled("x"),       Status::Unavailable("x"),
      Status::DataLoss("x"),        Status::Internal("x"),
      Status::Unimplemented("x")};
  std::vector<int> seen;
  for (const Status& s : failures) {
    int code = StatusExitCode(s);
    // 1 (generic shell failure) and 2 (usage errors) stay reserved.
    EXPECT_GE(code, 3) << StatusCodeName(s.code());
    EXPECT_LE(code, 13) << StatusCodeName(s.code());
    for (int prior : seen) EXPECT_NE(code, prior);
    seen.push_back(code);
  }
}

}  // namespace
}  // namespace olapidx

// Deterministic soak: concurrent what-if requests, a live observation
// stream with a mid-run workload shift, periodic epoch closes, and —
// when the build has fault injection — seeded random faults at every
// service-adjacent site. Invariants checked:
//
//   * no lost request: every WhatIf returns a terminal status, and the
//     outcome counters add up to exactly the number submitted;
//   * epochs are monotone (never decrease, advance only on success);
//   * the drift shift halfway through triggers at least one re-selection;
//   * no deadlock: the whole run finishes (gtest's timeout is the guard);
//   * the service ends in a consistent, journal-round-trippable state.
//
// OLAPIDX_SOAK_ITERS scales the request count (default 600 ≥ the ISSUE's
// N = 500 floor); the fault seed is fixed so failures replay exactly.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "data/synthetic.h"
#include "service/advisor_service.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

SliceQuery Q(uint32_t group_mask, uint32_t selection_mask = 0) {
  return SliceQuery(AttributeSet::FromMask(group_mask),
                    AttributeSet::FromMask(selection_mask));
}

size_t SoakIters() {
  const char* env = std::getenv("OLAPIDX_SOAK_ITERS");
  if (env != nullptr) {
    long parsed = std::atol(env);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return 600;
}

TEST(ServiceSoakTest, ConcurrentRequestsObservationsAndEpochs) {
  const size_t kRequests = SoakIters();
  SyntheticCube cube = UniformSyntheticCube(4, 8, 0.3);
  CubeLattice lattice(cube.schema);

  ServiceOptions options;
  options.base.algorithm = Algorithm::kInnerLevel;
  options.base.space_budget = 0.25 * cube.sizes.TotalViewSpace();
  options.graph.raw_scan_penalty = 2.0;
  options.drift_threshold = 0.05;
  options.max_concurrent_requests = 3;
  options.retry.base_micros = 1;
  options.default_deadline_ms = 5'000;
  options.journal_path =
      ::testing::TempDir() + "olapidx_soak.journal";
  std::remove(options.journal_path.c_str());

  StatusOr<std::unique_ptr<AdvisorService>> service_or =
      AdvisorService::Create(cube.schema, cube.sizes,
                             AllSliceQueries(lattice), options);
  ASSERT_TRUE(service_or.ok()) << service_or.status().ToString();
  AdvisorService& service = **service_or;

#ifdef OLAPIDX_FAULT_INJECTION
  // Seeded random faults at every service-layer site. Rates are low
  // enough that retries usually absorb them but high enough that every
  // degraded path runs during the soak.
  FaultInjector& faults = FaultInjector::Global();
  faults.Reset();
  faults.ArmRandom("service.whatif.run", 0.05, /*seed=*/41);
  faults.ArmRandom("service.sketch.insert", 0.02, /*seed=*/42);
  faults.ArmRandom("service.worker.spawn", 0.10, /*seed=*/43);
  faults.ArmRandom("service.swap", 0.10, /*seed=*/44);
  faults.ArmRandom("journal.write", 0.05, /*seed=*/45);
#endif

  std::atomic<size_t> submitted{0};
  std::atomic<size_t> terminal{0};
  std::atomic<bool> epochs_monotone{true};
  std::atomic<bool> stop_control{false};

  // Request plane: 4 threads racing the 3-slot admission limit.
  constexpr size_t kRequestThreads = 4;
  std::vector<std::thread> requesters;
  for (size_t t = 0; t < kRequestThreads; ++t) {
    requesters.emplace_back([&, t] {
      double budget = options.base.space_budget;
      for (size_t i = t; i < kRequests; i += kRequestThreads) {
        WhatIfRequest request;
        request.budgets = {budget * (0.5 + 0.1 * static_cast<double>(i % 9))};
        submitted.fetch_add(1);
        WhatIfResult result = service.WhatIf(request);
        // Terminal outcome, always: one of the four counted states.
        switch (result.status.code()) {
          case StatusCode::kOk:
          case StatusCode::kDeadlineExceeded:
          case StatusCode::kResourceExhausted:
          case StatusCode::kUnavailable:
            terminal.fetch_add(1);
            break;
          default:
            ADD_FAILURE() << "unexpected terminal status: "
                          << result.status.ToString();
            terminal.fetch_add(1);
        }
      }
    });
  }

  // Observation plane: a steady stream that shifts distribution halfway.
  std::thread observer([&] {
    for (size_t i = 0; i < kRequests; ++i) {
      bool late = i >= kRequests / 2;
      // Early: group-heavy on dims {0,1}. Late: selective on dims {2,3}.
      SliceQuery q = late ? Q(0b1000, 0b0100) : Q(0b0011);
      (void)service.Observe(q, late ? 4.0 : 1.0);  // drops are fine
      if (i % 64 == 0) std::this_thread::yield();
    }
  });

  // Control plane: epoch closes racing everything else.
  std::thread controller([&] {
    uint64_t last_epoch = service.epoch();
    while (!stop_control.load()) {
      EpochResult result = service.AdvanceEpoch();
      uint64_t now = service.epoch();
      if (now < last_epoch) epochs_monotone.store(false);
      if (result.status.ok() && result.epoch < last_epoch) {
        epochs_monotone.store(false);
      }
      last_epoch = now;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  for (std::thread& t : requesters) t.join();
  observer.join();
  // A few more epoch closes now that the full shifted stream is in.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop_control.store(true);
  controller.join();
#ifdef OLAPIDX_FAULT_INJECTION
  FaultInjector::Global().Reset();
#endif
  // Final epoch closes with faults disarmed: the shifted distribution
  // must trigger a re-selection by now if none happened under fire.
  // Drift compares an epoch with the one before it and reads 0 when
  // either is empty, and on a loaded host the whole observation stream
  // can land in one epoch. So each round first closes a baseline epoch of
  // the early shape, then an epoch of the shifted one.
  (void)service.AdvanceEpoch();
  for (int i = 0; i < 3 && service.Stats().reselections == 0; ++i) {
    for (int j = 0; j < 50; ++j) (void)service.Observe(Q(0b0011), 1.0);
    (void)service.AdvanceEpoch();
    for (int j = 0; j < 50; ++j) {
      (void)service.Observe(Q(0b1100, 0b0010), 8.0);
    }
    (void)service.AdvanceEpoch();
  }

  // No lost request.
  EXPECT_EQ(submitted.load(), kRequests);
  EXPECT_EQ(terminal.load(), kRequests);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.whatif_ok + stats.whatif_deadline_exceeded +
                stats.whatif_rejected + stats.whatif_failed,
            kRequests);
  // Monotone epochs.
  EXPECT_TRUE(epochs_monotone.load());
  // The workload shift was noticed.
  EXPECT_GE(stats.reselections, 1u);
  // The service is still fully functional after the soak.
  WhatIfResult sanity = service.WhatIf(WhatIfRequest{});
  EXPECT_TRUE(sanity.status.ok()) << sanity.status.ToString();
  // And its final state journals + restores cleanly (faults disarmed).
  ASSERT_TRUE(service.Save().ok());
  StatusOr<std::unique_ptr<AdvisorService>> restored =
      AdvisorService::Create(cube.schema, cube.sizes,
                             AllSliceQueries(lattice), options);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->epoch(), service.epoch());
  EXPECT_EQ((*restored)->Snapshot().generation,
            service.Snapshot().generation);
  std::remove(options.journal_path.c_str());
}

}  // namespace
}  // namespace olapidx

// AdvisorService: the resident ("always-on") form of the advisor.
//
// The one-shot Advisor answers "given this workload, what should I
// materialize?" once. A deployed OLAP system asks the question
// continuously: queries stream through the engine, the workload drifts
// away from what the current design was selected for, operators probe
// alternative space budgets while the system is live, and the process
// hosting all of this can crash at any point. AdvisorService packages the
// selection machinery for that setting:
//
//  * Shared immutable state. The query-view graph and the current
//    recommendation live in an immutable ServedState published through a
//    shared_ptr swap; readers (what-if requests, the drift monitor,
//    observers) grab a reference and are immune to concurrent re-selection
//    — a swapped-out state stays alive until its last reader drops it.
//  * Observed workloads. Executed slice queries feed a sharded concurrent
//    FrequencySketch (wire Executor::SetQueryObserver to ObserverCallback).
//  * What-if requests. Budget sweeps and design diffs run concurrently,
//    each under its own deadline, with admission control (bounded
//    in-flight requests; excess is rejected, not queued) and bounded
//    retry-with-backoff on transient (fault-injected) failures.
//  * Drift-triggered re-selection. AdvanceEpoch closes the current
//    observation epoch, compares it against the previous one (KL
//    divergence) and, past the threshold, re-selects for the observed
//    workload on a worker thread — warm-started from the last
//    SelectionCheckpoint, falling back to a sparse build and beam
//    selection when the dense graph would bust the memory ceiling
//    (graceful degradation; a failed re-selection leaves the previous
//    design serving, it never aborts the service).
//  * Crash safety. Save() journals the full served state — observed
//    sketches, workload, checkpoint, graph fingerprint — via
//    write-temp-then-atomic-rename with a whole-file checksum; Create()
//    restores from the journal bit-identically (a pending, interrupted
//    selection is restored as exactly the same pending prefix).
//
// Every public entry point returns a terminal Status: Ok, an interruption
// code (DeadlineExceeded / ResourceExhausted for admission rejection), or
// a real error — never a hang, never an abort. The soak test drives all of
// this concurrently under seeded random fault injection.

#ifndef OLAPIDX_SERVICE_ADVISOR_SERVICE_H_
#define OLAPIDX_SERVICE_ADVISOR_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/backoff.h"
#include "common/status.h"
#include "core/advisor.h"
#include "core/sparse_cube_graph.h"
#include "workload/frequency_sketch.h"
#include "workload/workload.h"

namespace olapidx {

struct ExecutionStats;  // engine/executor.h; only referenced, never used here

struct ServiceOptions {
  // Algorithm, space budget, and per-algorithm knobs used for the initial
  // selection, re-selections, and (with the budget overridden) what-if
  // runs. `base.control` and `base.resume` are ignored — the service
  // supplies its own deadlines and checkpoints.
  AdvisorConfig base;

  // Dense graph build options (initial build and non-degraded
  // re-selections).
  CubeGraphOptions graph;

  // Degraded path: sparse, workload-pruned build used when the dense build
  // fails or its cost tables would exceed memory_ceiling_bytes, paired
  // with beam-capped selection (degraded_beam_width) so the run finishes
  // within the re-selection deadline. Dense graphs store one cost column
  // per column class, like sparse ones, so the ceiling binds late: the
  // dim-8 dense build of all 3^8 slice queries peaks near 210 MiB, and the
  // n > 8 dimension limit usually triggers the fallback first.
  SparseCubeGraphOptions sparse;
  size_t degraded_beam_width = 16;
  uint64_t memory_ceiling_bytes = 1ull << 30;

  // KL divergence (nats) between the closing and previous observation
  // epochs above which AdvanceEpoch re-selects.
  double drift_threshold = 0.25;
  // Smoothing weight for the KL estimate (see KlDivergence).
  double kl_smoothing = 0.5;

  // Admission control: what-if requests in flight beyond this are rejected
  // with ResourceExhausted ("no lost request": rejection is a terminal
  // answer, not a queue).
  size_t max_concurrent_requests = 4;

  // Retry policy for transient (kUnavailable, e.g. fault-injected)
  // failures inside a what-if request; delays are capped by the request
  // deadline.
  RetryPolicy retry;

  // Deadline for a what-if request that does not bring its own.
  int64_t default_deadline_ms = 1000;

  // Wall-clock ceiling for one re-selection (initial selection included).
  // An expiry mid-selection publishes the anytime prefix as a *pending*
  // design (resumable via CompletePendingReselection).
  int64_t reselect_deadline_ms = 10'000;
  // Deterministic stage ceiling for re-selections; SIZE_MAX = unlimited.
  // The crash-resume tests use this to stop a selection at an exact stage.
  size_t reselect_max_stages = SIZE_MAX;

  // Observation sketch shard count (throughput only; results identical).
  size_t sketch_shards = 8;

  // When nonempty, Save() writes the journal here and Create() restores
  // from it if it exists.
  std::string journal_path;
};

// What-if: evaluate the current selection problem at alternative space
// budgets, against the state current at admission time.
struct WhatIfRequest {
  // Budgets to sweep; empty = just the served budget.
  std::vector<double> budgets;
  // 0 = ServiceOptions::default_deadline_ms.
  int64_t deadline_ms = 0;
  // Compute added/removed structure names vs the served design.
  bool diff_against_current = true;
};

struct WhatIfPoint {
  double budget = 0.0;
  // Ok, or an interruption code when the deadline cut the run short (the
  // numbers then describe the anytime prefix).
  Status status;
  bool completed = false;
  double space_used = 0.0;
  double average_query_cost = 0.0;
  size_t num_structures = 0;
  // Design diff vs the served recommendation (names), when requested.
  std::vector<std::string> added;
  std::vector<std::string> removed;
};

struct WhatIfResult {
  // Terminal request outcome: Ok (all points evaluated), DeadlineExceeded
  // (sweep cut short; completed points are present), ResourceExhausted
  // (rejected by admission control; no points), or the first hard error.
  Status status;
  // Epoch of the state the request ran against.
  uint64_t epoch = 0;
  // Transparent retry count across the sweep (transient failures absorbed
  // by the backoff loop).
  size_t retries = 0;
  std::vector<WhatIfPoint> points;
};

// Outcome of one AdvanceEpoch call.
struct EpochResult {
  // Status of the epoch transition itself: Ok also when nothing drifted;
  // a re-selection failure (injected fault, rejected config) leaves the
  // epoch unadvanced and reports the cause here; a journal write failure
  // after an otherwise successful transition also lands here (the
  // in-memory state did advance — Save() can be retried).
  Status status;
  uint64_t epoch = 0;       // epoch after the call
  double drift = 0.0;       // KL(closing epoch ‖ previous epoch), nats
  bool drift_detected = false;
  bool reselected = false;  // a new design was published
  bool degraded = false;    // ... via the sparse + beam fallback
  bool pending = false;     // ... and was cut short (resumable)
};

// Monotonically increasing identifier of the served design.
struct ServedSnapshot {
  uint64_t epoch = 0;        // observation epoch when this design landed
  uint64_t generation = 0;   // bumped by every published design
  bool degraded = false;     // built via the sparse fallback path
  bool pending = false;      // selection was interrupted; resumable
  Recommendation recommendation;
  SelectionCheckpoint checkpoint;  // resumable prefix of `recommendation`
  Workload workload;               // workload the advisor was built from
  uint64_t graph_fingerprint = 0;
};

// Aggregate counters for the soak harness ("no lost request": ok +
// deadline_exceeded + rejected + failed == requests submitted).
struct ServiceStats {
  uint64_t whatif_ok = 0;
  uint64_t whatif_deadline_exceeded = 0;
  uint64_t whatif_rejected = 0;
  uint64_t whatif_failed = 0;
  uint64_t whatif_retries = 0;
  uint64_t observations = 0;
  uint64_t observations_dropped = 0;
  uint64_t epochs_advanced = 0;
  uint64_t epoch_failures = 0;
  uint64_t reselections = 0;
  uint64_t degraded_reselections = 0;
};

class AdvisorService {
 public:
  // Builds the initial advisor and design for `initial_workload` (dense
  // build, sparse fallback past the memory ceiling) and starts serving at
  // epoch 0 — unless options.journal_path names an existing journal, in
  // which case the served state (epoch, sketches, design, pending
  // checkpoint) is restored from it bit-identically and
  // `initial_workload` is ignored. Returns the first hard error instead
  // of a service (corrupt journal = DataLoss; journal taken against
  // different schema/sizes = FailedPrecondition).
  static StatusOr<std::unique_ptr<AdvisorService>> Create(
      const CubeSchema& schema, const ViewSizes& sizes,
      const Workload& initial_workload, const ServiceOptions& options);

  AdvisorService(const AdvisorService&) = delete;
  AdvisorService& operator=(const AdvisorService&) = delete;

  // ---- Observation plane ----

  // Records one executed query. Thread-safe, wait-free past the sketch
  // shard lock. A transient failure (injected at "service.sketch.insert")
  // drops the observation, bumps observations_dropped, and is returned —
  // the service keeps running.
  Status Observe(const SliceQuery& query, double weight = 1.0);

  // Adapter for Executor::SetQueryObserver: feeds every executed query
  // into Observe (drop-on-failure). The returned callable holds a raw
  // pointer to this service; the service must outlive the executor. The
  // std::function type matches Executor::QueryObserver without this
  // header depending on the engine.
  std::function<void(const SliceQuery&, const ExecutionStats&)>
  ObserverCallback();

  // ---- Request plane ----

  // Budget sweep / design diff against the currently served state. Safe to
  // call from many threads; each call is admitted (or rejected) and runs
  // under its own deadline with bounded retry on transient failures.
  WhatIfResult WhatIf(const WhatIfRequest& request);

  // ---- Control plane ----

  // Closes the current observation epoch: scores drift vs the previous
  // epoch, re-selects when past the threshold (worker thread, checkpoint
  // warm start, degradation fallback), publishes, journals (when
  // configured), and advances the epoch counter. Serialized internally;
  // concurrent calls simply run one after the other. On a re-selection
  // failure the epoch does not advance and the previous design keeps
  // serving — the caller may retry.
  EpochResult AdvanceEpoch();

  // Resumes and completes a pending (interrupted) re-selection on the
  // *same* advisor, publishing the completed design. No-op (Ok) when
  // nothing is pending. The completed design is bit-identical to what the
  // uninterrupted selection would have produced (the greedy determinism
  // contract).
  Status CompletePendingReselection();

  // Journals the served state (atomic write + checksum). No-op (Ok) when
  // journaling is not configured.
  Status Save();

  // ---- Introspection ----

  // Copy of the currently served snapshot (cheap relative to selection;
  // used by CLIs and tests).
  ServedSnapshot Snapshot() const;

  // Current observation epoch (monotone; never decreases).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  ServiceStats Stats() const;

  const ServiceOptions& options() const { return options_; }

 private:
  struct ServedState {
    std::shared_ptr<const Advisor> advisor;
    ServedSnapshot snapshot;
  };

  AdvisorService(CubeSchema schema, ViewSizes sizes, ServiceOptions options);

  // Builds an advisor for `workload`: dense first, sparse + compressed
  // columns when the dense build fails or busts the memory ceiling.
  // *degraded reports which path was taken.
  StatusOr<Advisor> BuildAdvisor(const Workload& workload,
                                 bool* degraded) const;

  // One selection run on `advisor` (serial — selection threads would race
  // concurrent what-ifs for the shared pool's single job slot), honoring
  // `control` and the degraded beam cap.
  Recommendation RunSelection(const Advisor& advisor, double budget,
                              const RunControl& control, bool degraded,
                              const SelectionCheckpoint* resume) const;

  // Re-selects for `workload` and publishes the result. Called with
  // epoch_mu_ held.
  Status Reselect(const Workload& workload, EpochResult* out);

  // Publishes a new served state (the only writer of state_).
  void Publish(std::shared_ptr<const ServedState> next);
  std::shared_ptr<const ServedState> Current() const;

  std::string SerializeJournal() const;
  Status LoadJournal(const std::string& text);

  const CubeSchema schema_;
  const ViewSizes sizes_;
  const ServiceOptions options_;

  mutable std::mutex state_mu_;  // guards the state_ pointer swap
  std::shared_ptr<const ServedState> state_;

  std::atomic<uint64_t> epoch_{0};
  std::atomic<size_t> inflight_{0};

  // Epoch transitions (drift scoring, re-selection, sketch rotation) are
  // serialized; observation inserts are not blocked by this.
  std::mutex epoch_mu_;
  // Guards the epoch-boundary rotation of the two sketch pointers against
  // concurrent Observe calls (inserts themselves serialize on the sketch's
  // own shard locks).
  mutable std::mutex sketch_mu_;
  std::unique_ptr<FrequencySketch> current_sketch_;
  std::unique_ptr<FrequencySketch> previous_sketch_;

  // Stats counters (relaxed; read as a snapshot).
  std::atomic<uint64_t> whatif_ok_{0};
  std::atomic<uint64_t> whatif_deadline_{0};
  std::atomic<uint64_t> whatif_rejected_{0};
  std::atomic<uint64_t> whatif_failed_{0};
  std::atomic<uint64_t> whatif_retries_{0};
  std::atomic<uint64_t> observations_{0};
  std::atomic<uint64_t> observations_dropped_{0};
  std::atomic<uint64_t> epochs_advanced_{0};
  std::atomic<uint64_t> epoch_failures_{0};
  std::atomic<uint64_t> reselections_{0};
  std::atomic<uint64_t> degraded_reselections_{0};
};

}  // namespace olapidx

#endif  // OLAPIDX_SERVICE_ADVISOR_SERVICE_H_

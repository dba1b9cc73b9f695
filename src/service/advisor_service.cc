#include "service/advisor_service.h"

#include <cinttypes>
#include <cstdio>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "common/deadline.h"
#include "common/fault_injection.h"
#include "common/journal.h"
#include "common/metrics.h"
#include "core/serialize.h"

namespace olapidx {

namespace {

constexpr char kJournalHeader[] = "olapidx-service-journal v1";

std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// One "wq"/"pv"/"ob" journal line: masks, then the numeric payload.
std::string SketchLine(const char* tag, const SliceQuery& query,
                       const std::string& payload) {
  return std::string(tag) + " " +
         std::to_string(query.group_by().mask()) + " " +
         std::to_string(query.selection().mask()) + " " + payload + "\n";
}

struct JournalCursor {
  const std::string& text;
  size_t pos = 0;

  bool NextLine(std::string* line) {
    if (pos >= text.size()) return false;
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    *line = text.substr(pos, end - pos);
    pos = end + 1;
    return true;
  }
};

bool ParseMaskedQuery(const std::string& rest, SliceQuery* out,
                      std::string* tail) {
  unsigned long g = 0, s = 0;
  int consumed = 0;
  if (std::sscanf(rest.c_str(), "%lu %lu%n", &g, &s, &consumed) != 2) {
    return false;
  }
  AttributeSet group = AttributeSet::FromMask(static_cast<uint32_t>(g));
  AttributeSet selection = AttributeSet::FromMask(static_cast<uint32_t>(s));
  if (group.Intersects(selection)) return false;
  *out = SliceQuery(group, selection);
  *tail = rest.substr(static_cast<size_t>(consumed));
  return true;
}

}  // namespace

AdvisorService::AdvisorService(CubeSchema schema, ViewSizes sizes,
                               ServiceOptions options)
    : schema_(std::move(schema)),
      sizes_(std::move(sizes)),
      options_(std::move(options)),
      current_sketch_(
          std::make_unique<FrequencySketch>(options_.sketch_shards)),
      previous_sketch_(
          std::make_unique<FrequencySketch>(options_.sketch_shards)) {}

StatusOr<std::unique_ptr<AdvisorService>> AdvisorService::Create(
    const CubeSchema& schema, const ViewSizes& sizes,
    const Workload& initial_workload, const ServiceOptions& options) {
  std::unique_ptr<AdvisorService> service(
      new AdvisorService(schema, sizes, options));

  if (!options.journal_path.empty() && FileExists(options.journal_path)) {
    StatusOr<std::string> text = ReadFileToString(options.journal_path);
    if (!text.ok()) {
      return text.status().WithContext("reading service journal '" +
                                       options.journal_path + "'");
    }
    Status loaded = service->LoadJournal(*text);
    if (!loaded.ok()) {
      return loaded.WithContext("restoring service journal '" +
                                options.journal_path + "'");
    }
    return service;
  }

  if (initial_workload.empty()) {
    return Status::InvalidArgument(
        "the initial workload is empty and no journal exists to restore "
        "from");
  }
  bool degraded = false;
  StatusOr<Advisor> advisor =
      service->BuildAdvisor(initial_workload, &degraded);
  if (!advisor.ok()) {
    return advisor.status().WithContext("building the initial advisor");
  }
  RunControl control;
  control.deadline = Deadline::AfterMillis(options.reselect_deadline_ms);
  control.max_steps = options.reselect_max_stages;
  Recommendation rec =
      service->RunSelection(*advisor, options.base.space_budget, control,
                            degraded, /*resume=*/nullptr);
  if (!rec.status.ok() && !rec.status.IsInterruption()) {
    return rec.status.WithContext("initial selection");
  }

  auto state = std::make_shared<ServedState>();
  state->advisor = std::make_shared<const Advisor>(*std::move(advisor));
  ServedSnapshot& snap = state->snapshot;
  snap.epoch = 0;
  snap.generation = 1;
  snap.degraded = degraded;
  snap.pending = !rec.completed;
  AdvisorConfig stamp = options.base;
  snap.checkpoint = rec.ToCheckpoint(stamp);
  snap.workload = initial_workload;
  snap.graph_fingerprint = state->advisor->graph_fingerprint();
  snap.recommendation = std::move(rec);
  service->Publish(std::move(state));
  // Best effort: a failed initial journal write must not take down a
  // service that is otherwise ready to serve — Save() can be retried.
  (void)service->Save();
  return service;
}

StatusOr<Advisor> AdvisorService::BuildAdvisor(const Workload& workload,
                                               bool* degraded) const {
  *degraded = false;
  StatusOr<Advisor> dense =
      Advisor::Create(schema_, sizes_, workload, options_.graph);
  if (dense.ok() && dense->cube_graph().graph.CostTableBytes() <=
                        options_.memory_ceiling_bytes) {
    return dense;
  }
  // Graceful degradation: dense build impossible (dimension limits) or its
  // cost tables would bust the memory ceiling — fall back to the
  // workload-pruned sparse build.
  *degraded = true;
  OLAPIDX_METRIC_COUNTER(degraded_builds, "service.degraded_builds");
  degraded_builds.Add(1);
  return Advisor::CreateSparse(schema_, sizes_, workload, options_.sparse);
}

Recommendation AdvisorService::RunSelection(
    const Advisor& advisor, double budget, const RunControl& control,
    bool degraded, const SelectionCheckpoint* resume) const {
  AdvisorConfig config = options_.base;
  config.space_budget = budget;
  config.control = control;
  config.resume = resume;
  // Serial selection: concurrent what-if requests and the re-selection
  // worker would otherwise race for the shared pool's single job slot.
  config.r_greedy.num_threads = 1;
  config.inner_greedy.num_threads = 1;
  if (degraded && options_.degraded_beam_width > 0) {
    config.r_greedy.beam_width = options_.degraded_beam_width;
    config.inner_greedy.beam_width = options_.degraded_beam_width;
  }
  return advisor.Recommend(config);
}

Status AdvisorService::Observe(const SliceQuery& query, double weight) {
  Status status;
  {
    std::lock_guard<std::mutex> lock(sketch_mu_);
    status = current_sketch_->TryRecord(query, weight);
  }
  if (status.ok()) {
    observations_.fetch_add(1, std::memory_order_relaxed);
  } else {
    observations_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

std::function<void(const SliceQuery&, const ExecutionStats&)>
AdvisorService::ObserverCallback() {
  return [this](const SliceQuery& query, const ExecutionStats&) {
    // Drop-on-failure: an injected sketch fault must never fail the query
    // that was, after all, already answered.
    (void)Observe(query);
  };
}

WhatIfResult AdvisorService::WhatIf(const WhatIfRequest& request) {
  OLAPIDX_METRIC_COUNTER(requests, "service.whatif_requests");
  requests.Add(1);
  WhatIfResult result;
  result.epoch = epoch();

  // Admission control: bounded in-flight requests, reject (don't queue)
  // past the limit so the caller gets a terminal answer immediately.
  size_t inflight = inflight_.fetch_add(1, std::memory_order_acq_rel);
  struct InflightGuard {
    std::atomic<size_t>& counter;
    ~InflightGuard() { counter.fetch_sub(1, std::memory_order_acq_rel); }
  } guard{inflight_};
  if (inflight >= options_.max_concurrent_requests) {
    whatif_rejected_.fetch_add(1, std::memory_order_relaxed);
    result.status = Status::ResourceExhausted(
        "what-if rejected: " + std::to_string(inflight) +
        " request(s) already in flight (admission limit " +
        std::to_string(options_.max_concurrent_requests) + ")");
    return result;
  }

  std::shared_ptr<const ServedState> state = Current();
  Deadline deadline = Deadline::AfterMillis(
      request.deadline_ms > 0 ? request.deadline_ms
                              : options_.default_deadline_ms);
  std::vector<double> budgets = request.budgets;
  if (budgets.empty()) budgets.push_back(options_.base.space_budget);

  std::set<std::string> served_names;
  if (request.diff_against_current) {
    for (const RecommendedStructure& s :
         state->snapshot.recommendation.structures) {
      served_names.insert(s.name);
    }
  }

  for (size_t i = 0; i < budgets.size(); ++i) {
    if (deadline.expired()) {
      result.status = Status::DeadlineExceeded(
          "what-if sweep: deadline expired with " +
          std::to_string(budgets.size() - i) + " budget point(s) left");
      break;
    }
    WhatIfPoint point;
    point.budget = budgets[i];
    Recommendation rec;
    size_t retries = 0;
    Status attempt = RetryWithBackoff(
        options_.retry, deadline,
        [&]() -> Status {
          OLAPIDX_FAULT_POINT("service.whatif.run");
          RunControl control;
          control.deadline = deadline;
          rec = RunSelection(*state->advisor, point.budget, control,
                             state->snapshot.degraded, /*resume=*/nullptr);
          // An interruption is an acceptable anytime answer for this
          // point, not a retryable failure.
          if (!rec.status.ok() && !rec.status.IsInterruption()) {
            return rec.status;
          }
          return Status::Ok();
        },
        &retries);
    result.retries += retries;
    whatif_retries_.fetch_add(retries, std::memory_order_relaxed);
    if (!attempt.ok()) {
      point.status = attempt;
      result.points.push_back(std::move(point));
      result.status = attempt;
      break;
    }
    point.status = rec.status;
    point.completed = rec.completed;
    point.space_used = rec.space_used;
    point.average_query_cost = rec.average_query_cost;
    point.num_structures = rec.structures.size();
    if (request.diff_against_current) {
      std::set<std::string> new_names;
      for (const RecommendedStructure& s : rec.structures) {
        new_names.insert(s.name);
      }
      for (const std::string& name : new_names) {
        if (served_names.count(name) == 0) point.added.push_back(name);
      }
      for (const std::string& name : served_names) {
        if (new_names.count(name) == 0) point.removed.push_back(name);
      }
    }
    result.points.push_back(std::move(point));
  }

  if (result.status.ok()) {
    whatif_ok_.fetch_add(1, std::memory_order_relaxed);
  } else if (result.status.code() == StatusCode::kDeadlineExceeded) {
    whatif_deadline_.fetch_add(1, std::memory_order_relaxed);
  } else {
    whatif_failed_.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

EpochResult AdvisorService::AdvanceEpoch() {
  std::lock_guard<std::mutex> epoch_lock(epoch_mu_);
  EpochResult out;
  out.epoch = epoch();
  out.drift = KlDivergence(*current_sketch_, *previous_sketch_,
                           options_.kl_smoothing);
  out.drift_detected = out.drift > options_.drift_threshold;

  if (out.drift_detected) {
    Workload observed = current_sketch_->ToWorkload();
    Status reselected = Reselect(observed, &out);
    if (!reselected.ok()) {
      // The previous design keeps serving and the epoch does not advance;
      // the next AdvanceEpoch retries against the same sketches.
      epoch_failures_.fetch_add(1, std::memory_order_relaxed);
      out.status = reselected;
      return out;
    }
    reselections_.fetch_add(1, std::memory_order_relaxed);
    if (out.degraded) {
      degraded_reselections_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Rotate the observation epochs: the closing epoch becomes the drift
  // baseline, the old baseline is recycled as the (empty) new epoch.
  {
    std::lock_guard<std::mutex> lock(sketch_mu_);
    std::swap(current_sketch_, previous_sketch_);
    current_sketch_->Clear();
  }
  out.epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  epochs_advanced_.fetch_add(1, std::memory_order_relaxed);
  OLAPIDX_METRIC_COUNTER(epochs, "service.epochs");
  epochs.Add(1);
  // A journal write failure is reported but does not un-advance the epoch
  // — the in-memory state is consistent and Save() can be retried.
  out.status = Save();
  return out;
}

Status AdvisorService::Reselect(const Workload& workload, EpochResult* out) {
  OLAPIDX_FAULT_POINT("service.worker.spawn");
  std::shared_ptr<const ServedState> prev = Current();

  // Warm start from the served checkpoint with the fingerprint cleared:
  // the re-selection graph is built from the *observed* workload, so it is
  // a different graph by construction, and the strict fingerprint check
  // would always reject it. Pick resolution still validates every
  // structure against the new graph.
  SelectionCheckpoint warm = prev->snapshot.checkpoint;
  warm.graph_fingerprint = 0;

  RunControl control;
  control.deadline = Deadline::AfterMillis(options_.reselect_deadline_ms);
  control.max_steps = options_.reselect_max_stages;

  bool degraded = false;
  std::optional<StatusOr<Advisor>> built;
  Recommendation rec;
  // The re-selection runs on a worker thread — the pattern a resident
  // service uses so its control plane never blocks its request plane (the
  // soak test exercises exactly this interleaving).
  std::thread worker([&] {
    built.emplace(BuildAdvisor(workload, &degraded));
    if (!built->ok()) return;
    rec = RunSelection(**built, options_.base.space_budget, control,
                       degraded, &warm);
    if (!rec.status.ok() && !rec.status.IsInterruption()) {
      // Warm start rejected (e.g. a served pick has no counterpart in the
      // new graph): degrade to a cold start instead of failing the epoch.
      rec = RunSelection(**built, options_.base.space_budget, control,
                         degraded, /*resume=*/nullptr);
    }
  });
  worker.join();

  if (!built->ok()) {
    return built->status().WithContext(
        "rebuilding the advisor for the observed workload");
  }
  if (!rec.status.ok() && !rec.status.IsInterruption()) {
    return rec.status.WithContext("re-selection");
  }
  OLAPIDX_FAULT_POINT("service.swap");

  auto state = std::make_shared<ServedState>();
  state->advisor = std::make_shared<const Advisor>(*std::move(*built));
  ServedSnapshot& snap = state->snapshot;
  snap.epoch = epoch() + 1;
  snap.generation = prev->snapshot.generation + 1;
  snap.degraded = degraded;
  snap.pending = !rec.completed;
  AdvisorConfig stamp = options_.base;
  snap.checkpoint = rec.ToCheckpoint(stamp);
  snap.workload = workload;
  snap.graph_fingerprint = state->advisor->graph_fingerprint();
  snap.recommendation = std::move(rec);
  out->reselected = true;
  out->degraded = degraded;
  out->pending = snap.pending;
  Publish(std::move(state));
  return Status::Ok();
}

Status AdvisorService::CompletePendingReselection() {
  std::lock_guard<std::mutex> epoch_lock(epoch_mu_);
  std::shared_ptr<const ServedState> prev = Current();
  if (!prev->snapshot.pending) return Status::Ok();

  // Same advisor, unlimited control: the checkpoint replays for free and
  // the remaining stages run to completion — bit-identical to the design
  // an uninterrupted selection would have produced.
  RunControl control;
  Recommendation rec =
      RunSelection(*prev->advisor, options_.base.space_budget, control,
                   prev->snapshot.degraded, &prev->snapshot.checkpoint);
  if (!rec.status.ok() && !rec.status.IsInterruption()) {
    return rec.status.WithContext("completing the pending re-selection");
  }
  OLAPIDX_FAULT_POINT("service.swap");

  auto state = std::make_shared<ServedState>();
  state->advisor = prev->advisor;
  ServedSnapshot& snap = state->snapshot;
  snap.epoch = prev->snapshot.epoch;
  snap.generation = prev->snapshot.generation + 1;
  snap.degraded = prev->snapshot.degraded;
  snap.pending = !rec.completed;
  AdvisorConfig stamp = options_.base;
  snap.checkpoint = rec.ToCheckpoint(stamp);
  snap.workload = prev->snapshot.workload;
  snap.graph_fingerprint = prev->snapshot.graph_fingerprint;
  snap.recommendation = std::move(rec);
  Publish(std::move(state));
  return Save();
}

Status AdvisorService::Save() {
  if (options_.journal_path.empty()) return Status::Ok();
  return AtomicWriteFile(options_.journal_path, SerializeJournal());
}

void AdvisorService::Publish(std::shared_ptr<const ServedState> next) {
  std::lock_guard<std::mutex> lock(state_mu_);
  state_ = std::move(next);
}

std::shared_ptr<const AdvisorService::ServedState> AdvisorService::Current()
    const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return state_;
}

ServedSnapshot AdvisorService::Snapshot() const { return Current()->snapshot; }

ServiceStats AdvisorService::Stats() const {
  ServiceStats stats;
  stats.whatif_ok = whatif_ok_.load(std::memory_order_relaxed);
  stats.whatif_deadline_exceeded =
      whatif_deadline_.load(std::memory_order_relaxed);
  stats.whatif_rejected = whatif_rejected_.load(std::memory_order_relaxed);
  stats.whatif_failed = whatif_failed_.load(std::memory_order_relaxed);
  stats.whatif_retries = whatif_retries_.load(std::memory_order_relaxed);
  stats.observations = observations_.load(std::memory_order_relaxed);
  stats.observations_dropped =
      observations_dropped_.load(std::memory_order_relaxed);
  stats.epochs_advanced = epochs_advanced_.load(std::memory_order_relaxed);
  stats.epoch_failures = epoch_failures_.load(std::memory_order_relaxed);
  stats.reselections = reselections_.load(std::memory_order_relaxed);
  stats.degraded_reselections =
      degraded_reselections_.load(std::memory_order_relaxed);
  return stats;
}

std::string AdvisorService::SerializeJournal() const {
  ServedSnapshot snap = Snapshot();
  std::vector<FrequencySketch::Entry> current_entries;
  std::vector<FrequencySketch::Entry> previous_entries;
  {
    std::lock_guard<std::mutex> lock(sketch_mu_);
    current_entries = current_sketch_->Snapshot();
    previous_entries = previous_sketch_->Snapshot();
  }

  std::string payload;
  payload += "epoch " + std::to_string(epoch()) + "\n";
  payload += "generation " + std::to_string(snap.generation) + "\n";
  payload += "degraded " + std::string(snap.degraded ? "1" : "0") + "\n";
  payload += "pending " + std::string(snap.pending ? "1" : "0") + "\n";
  payload += "graph " + HashToHex(snap.graph_fingerprint) + "\n";
  payload += "workload " + std::to_string(snap.workload.size()) + "\n";
  for (const WeightedQuery& wq : snap.workload.queries()) {
    payload += SketchLine("wq", wq.query, FormatDouble(wq.frequency));
  }
  payload += "prev " + std::to_string(previous_entries.size()) + "\n";
  for (const FrequencySketch::Entry& e : previous_entries) {
    payload += SketchLine("pv", e.query,
                          FormatDouble(e.weight) + " " +
                              std::to_string(e.count));
  }
  payload += "obs " + std::to_string(current_entries.size()) + "\n";
  for (const FrequencySketch::Entry& e : current_entries) {
    payload += SketchLine("ob", e.query,
                          FormatDouble(e.weight) + " " +
                              std::to_string(e.count));
  }
  payload += "checkpoint\n";
  payload += SerializeCheckpoint(snap.checkpoint, schema_);

  std::string out = std::string(kJournalHeader) + "\n";
  out += "checksum " + HashToHex(Fnv1a64(payload)) + "\n";
  out += payload;
  return out;
}

Status AdvisorService::LoadJournal(const std::string& text) {
  JournalCursor cursor{text};
  std::string line;
  if (!cursor.NextLine(&line) || line != kJournalHeader) {
    return Status::InvalidArgument("missing '" + std::string(kJournalHeader) +
                                   "' header");
  }
  if (!cursor.NextLine(&line) || line.rfind("checksum ", 0) != 0) {
    return Status::DataLoss("missing 'checksum' line");
  }
  uint64_t expected = 0;
  if (!ParseHexHash(line.substr(9), &expected)) {
    return Status::DataLoss("bad checksum '" + line.substr(9) + "'");
  }
  std::string payload = text.substr(cursor.pos);
  if (Fnv1a64(payload) != expected) {
    return Status::DataLoss(
        "journal checksum mismatch: the file is corrupt (or was edited); "
        "delete it to start the service fresh");
  }

  uint64_t epoch = 0;
  uint64_t generation = 0;
  bool degraded = false;
  bool pending = false;
  uint64_t graph_fingerprint = 0;
  Workload workload;
  std::vector<FrequencySketch::Entry> previous_entries;
  std::vector<FrequencySketch::Entry> current_entries;
  std::string checkpoint_text;

  auto parse_count = [](const std::string& value, uint64_t* out_count) {
    char* end = nullptr;
    unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
    if (value.empty() || end == nullptr || *end != '\0') return false;
    *out_count = static_cast<uint64_t>(parsed);
    return true;
  };

  while (cursor.NextLine(&line)) {
    if (line == "checkpoint") {
      checkpoint_text = text.substr(cursor.pos);
      break;
    }
    size_t space = line.find(' ');
    if (space == std::string::npos) {
      return Status::DataLoss("malformed journal line '" + line + "'");
    }
    std::string key = line.substr(0, space);
    std::string value = line.substr(space + 1);
    if (key == "epoch") {
      if (!parse_count(value, &epoch)) {
        return Status::DataLoss("bad epoch '" + value + "'");
      }
    } else if (key == "generation") {
      if (!parse_count(value, &generation)) {
        return Status::DataLoss("bad generation '" + value + "'");
      }
    } else if (key == "degraded") {
      degraded = value == "1";
    } else if (key == "pending") {
      pending = value == "1";
    } else if (key == "graph") {
      if (!ParseHexHash(value, &graph_fingerprint)) {
        return Status::DataLoss("bad graph fingerprint '" + value + "'");
      }
    } else if (key == "workload" || key == "prev" || key == "obs") {
      // Counts are advisory (the lines carry their own tags); validated
      // after the loop.
    } else if (key == "wq" || key == "pv" || key == "ob") {
      SliceQuery query;
      std::string tail;
      if (!ParseMaskedQuery(value, &query, &tail)) {
        return Status::DataLoss("bad query masks in '" + line + "'");
      }
      if (key == "wq") {
        double frequency = 0.0;
        if (std::sscanf(tail.c_str(), "%lf", &frequency) != 1 ||
            !(frequency > 0.0)) {
          return Status::DataLoss("bad workload frequency in '" + line + "'");
        }
        workload.Add(query, frequency);
      } else {
        double weight = 0.0;
        unsigned long long count = 0;
        if (std::sscanf(tail.c_str(), "%lf %llu", &weight, &count) != 2 ||
            !(weight > 0.0) || count == 0) {
          return Status::DataLoss("bad sketch entry in '" + line + "'");
        }
        FrequencySketch::Entry entry;
        entry.query = query;
        entry.weight = weight;
        entry.count = static_cast<uint64_t>(count);
        (key == "pv" ? previous_entries : current_entries)
            .push_back(entry);
      }
    } else {
      return Status::DataLoss("unknown journal key '" + key + "'");
    }
  }
  if (checkpoint_text.empty()) {
    return Status::DataLoss("missing embedded checkpoint");
  }
  if (workload.empty()) {
    return Status::DataLoss("journal carries no workload");
  }

  StatusOr<SelectionCheckpoint> checkpoint =
      ParseCheckpoint(checkpoint_text, schema_);
  if (!checkpoint.ok()) {
    return checkpoint.status().WithContext("parsing the embedded checkpoint");
  }

  // Rebuild the advisor exactly the way the journaled state was built —
  // the journal pins which path (dense or sparse) produced the graph.
  StatusOr<Advisor> advisor =
      degraded
          ? Advisor::CreateSparse(schema_, sizes_, workload, options_.sparse)
          : Advisor::Create(schema_, sizes_, workload, options_.graph);
  if (!advisor.ok()) {
    return advisor.status().WithContext(
        "rebuilding the advisor from the journaled workload");
  }
  if (advisor->graph_fingerprint() != graph_fingerprint) {
    return Status::FailedPrecondition(
        "the rebuilt query-view graph does not match the journaled "
        "fingerprint — schema, sizes, or build options changed since the "
        "journal was written; delete the journal to start fresh");
  }

  // Restore the recommendation by replaying the checkpoint on the rebuilt
  // graph. Replayed stages are free (they do not count against max_steps),
  // so a pending selection is restored as exactly the same pending prefix
  // (max_steps = 0 stops before the first *new* stage), and a completed
  // one re-terminates identically.
  RunControl control;
  if (pending) control.max_steps = 0;
  Recommendation rec = RunSelection(*advisor, options_.base.space_budget,
                                    control, degraded, &*checkpoint);
  if (!rec.status.ok() && !rec.status.IsInterruption()) {
    return rec.status.WithContext(
        "replaying the journaled checkpoint on the rebuilt graph");
  }

  {
    std::lock_guard<std::mutex> lock(sketch_mu_);
    current_sketch_->Clear();
    previous_sketch_->Clear();
    for (const FrequencySketch::Entry& e : current_entries) {
      current_sketch_->RestoreEntry(e.query, e.weight, e.count);
    }
    for (const FrequencySketch::Entry& e : previous_entries) {
      previous_sketch_->RestoreEntry(e.query, e.weight, e.count);
    }
  }

  auto state = std::make_shared<ServedState>();
  state->advisor = std::make_shared<const Advisor>(*std::move(advisor));
  ServedSnapshot& snap = state->snapshot;
  snap.epoch = epoch;
  snap.generation = generation;
  snap.degraded = degraded;
  snap.pending = pending;
  snap.checkpoint = *std::move(checkpoint);
  snap.workload = std::move(workload);
  snap.graph_fingerprint = graph_fingerprint;
  snap.recommendation = std::move(rec);
  epoch_.store(epoch, std::memory_order_release);
  Publish(std::move(state));
  return Status::Ok();
}

}  // namespace olapidx

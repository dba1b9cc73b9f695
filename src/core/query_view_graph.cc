#include "core/query_view_graph.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <mutex>
#include <numeric>
#include <utility>

namespace olapidx {

// The edge sink: per-view accumulation state that ConsumeEdgeRuns()
// scatters run buffers into. Everything here is order-independent —
// duplicate labels min-merge and each class prototype belongs to its lowest
// query id — so the finalized tables are the same for any flush order.
struct QueryViewGraph::StreamView {
  // One per (query, view) pair: the future ViewQueries / view-cost /
  // column arrays, appended in arrival order and sorted in Finalize().
  struct Entry {
    uint32_t query;
    int32_t slot;  // class slot, -1 = no index edges
    double cost;   // view-edge (scan) cost, min-merged
  };
  // One per distinct column class seen at this view, plus one per
  // (query, view) pair of unshared (col_class 0) runs.
  struct Slot {
    uint32_t col_class;  // 0 = unshared
    uint32_t owner;      // lowest query seen in the class
  };
  std::vector<Entry> entries;
  std::vector<Slot> slots;
  std::vector<double> slot_protos;  // [slot * num_indexes + k], min-merged
};

// Sizes are charged as logical bytes: the array elements above, plus
// sizeof(StreamView) per view for the vector bookkeeping.
struct QueryViewGraph::StreamState {
  std::mutex mu;
  std::vector<StreamView> views;
  uint64_t state_bytes = 0;  // logical bytes of the accumulation state
  uint64_t peak_bytes = 0;   // high-water incl. in-flight batches
};

QueryViewGraph::QueryViewGraph() : stream_(std::make_unique<StreamState>()) {}
QueryViewGraph::QueryViewGraph(QueryViewGraph&&) noexcept = default;
QueryViewGraph& QueryViewGraph::operator=(QueryViewGraph&&) noexcept =
    default;
QueryViewGraph::~QueryViewGraph() = default;

uint32_t QueryViewGraph::AddView(std::string name, double space) {
  OLAPIDX_CHECK(!finalized_);
  OLAPIDX_CHECK(space > 0.0);
  ViewData vd;
  vd.name = std::move(name);
  vd.space = space;
  views_.push_back(std::move(vd));
  ++num_structures_;
  return static_cast<uint32_t>(views_.size() - 1);
}

int32_t QueryViewGraph::AddIndex(uint32_t view, std::string name,
                                 double space) {
  OLAPIDX_CHECK(!finalized_);
  OLAPIDX_CHECK(view < num_views());
  OLAPIDX_CHECK(space > 0.0);
  ViewData& vd = views_[view];
  OLAPIDX_CHECK(vd.lazy_keys.empty());  // a view is eager or lazy, not both
  vd.index_names.push_back(std::move(name));
  vd.index_spaces.push_back(space);
  vd.index_maintenance.push_back(0.0);
  ++num_structures_;
  return static_cast<int32_t>(vd.index_names.size() - 1);
}

void QueryViewGraph::SetNameDictionary(std::vector<std::string> attr_names) {
  attr_names_ = std::move(attr_names);
}

void QueryViewGraph::SetIndexNamer(
    std::function<std::string(uint32_t, int32_t)> namer) {
  index_namer_ = std::move(namer);
}

void QueryViewGraph::AddIndexesNamed(uint32_t view, int32_t count,
                                     double space_each,
                                     double maintenance_each) {
  OLAPIDX_CHECK(!finalized_);
  OLAPIDX_CHECK(view < num_views());
  OLAPIDX_CHECK(count >= 0);
  OLAPIDX_CHECK(space_each > 0.0);
  OLAPIDX_CHECK(maintenance_each >= 0.0);
  ViewData& vd = views_[view];
  OLAPIDX_CHECK(vd.index_names.empty());  // a view is eager or lazy, not both
  OLAPIDX_CHECK(vd.lazy_keys.empty());
  OLAPIDX_CHECK(vd.index_spaces.empty());
  vd.index_spaces.assign(static_cast<size_t>(count), space_each);
  vd.index_maintenance.assign(static_cast<size_t>(count), maintenance_each);
  num_structures_ += static_cast<uint32_t>(count);
}

void QueryViewGraph::AddIndexes(uint32_t view, std::vector<IndexKey> keys,
                                double space_each, double maintenance_each) {
  OLAPIDX_CHECK(!finalized_);
  OLAPIDX_CHECK(view < num_views());
  OLAPIDX_CHECK(space_each > 0.0);
  OLAPIDX_CHECK(maintenance_each >= 0.0);
  ViewData& vd = views_[view];
  OLAPIDX_CHECK(vd.index_names.empty());  // a view is eager or lazy, not both
  OLAPIDX_CHECK(vd.lazy_keys.empty());
  vd.lazy_keys = std::move(keys);
  vd.index_spaces.assign(vd.lazy_keys.size(), space_each);
  vd.index_maintenance.assign(vd.lazy_keys.size(), maintenance_each);
  num_structures_ += static_cast<uint32_t>(vd.lazy_keys.size());
}

uint32_t QueryViewGraph::AddQuery(std::string name, double default_cost,
                                  double frequency) {
  OLAPIDX_CHECK(!finalized_);
  OLAPIDX_CHECK(default_cost >= 0.0);
  OLAPIDX_CHECK(frequency >= 0.0);
  queries_.push_back(QueryData{std::move(name), default_cost, frequency});
  return static_cast<uint32_t>(queries_.size() - 1);
}

void QueryViewGraph::SetViewMaintenance(uint32_t view, double cost) {
  OLAPIDX_CHECK(view < num_views());
  OLAPIDX_CHECK(cost >= 0.0);
  views_[view].maintenance = cost;
}

void QueryViewGraph::SetIndexMaintenance(uint32_t view, int32_t index,
                                         double cost) {
  OLAPIDX_CHECK(view < num_views());
  OLAPIDX_CHECK(index >= 0 && index < num_indexes(view));
  OLAPIDX_CHECK(cost >= 0.0);
  views_[view].index_maintenance[static_cast<size_t>(index)] = cost;
}

void QueryViewGraph::AddViewEdge(uint32_t query, uint32_t view, double cost) {
  OLAPIDX_CHECK(!finalized_);
  OLAPIDX_CHECK(query < num_queries());
  OLAPIDX_CHECK(view < num_views());
  OLAPIDX_CHECK(cost >= 0.0);
  pending_.push_back(EdgeRun{query, view, StructureRef::kNoIndex,
                             StructureRef::kNoIndex, cost});
}

void QueryViewGraph::AddIndexEdge(uint32_t query, uint32_t view,
                                  int32_t index, double cost) {
  OLAPIDX_CHECK(!finalized_);
  OLAPIDX_CHECK(query < num_queries());
  OLAPIDX_CHECK(view < num_views());
  OLAPIDX_CHECK(index >= 0 && index < num_indexes(view));
  OLAPIDX_CHECK(cost >= 0.0);
  // The next index of the last edge's (query, view) at the same cost
  // extends that edge's run: the reference builders emit whole prefix
  // classes this way.
  if (!pending_.empty()) {
    EdgeRun& last = pending_.back();
    if (last.query == query && last.view == view &&
        last.index_end == index && last.cost == cost) {
      ++last.index_end;
      return;
    }
  }
  pending_.push_back(EdgeRun{query, view, index, index + 1, cost});
}

void QueryViewGraph::ValidateRun(const EdgeRun& run) const {
  OLAPIDX_CHECK(run.query < num_queries());
  OLAPIDX_CHECK(run.view < num_views());
  OLAPIDX_CHECK(run.cost >= 0.0);
  if (run.index_begin != StructureRef::kNoIndex) {
    OLAPIDX_CHECK(run.index_begin >= 0 && run.index_begin < run.index_end &&
                  run.index_end <= num_indexes(run.view));
    // Class ids are small dense integers: the cube builders use
    // (selection ∩ view) + 1, which reaches 2^n at the kMaxDimensions = 20
    // ceiling the sparse path supports.
    OLAPIDX_CHECK(run.col_class <= (1u << 20));
  }
}

void QueryViewGraph::ConsumeEdgeRuns(std::vector<EdgeRun>& runs) {
  using Entry = StreamView::Entry;
  using Slot = StreamView::Slot;
  OLAPIDX_CHECK(!finalized_);
  for (const EdgeRun& run : runs) ValidateRun(run);
  StreamState& st = *stream_;
  std::lock_guard<std::mutex> lock(st.mu);
  if (st.views.size() < views_.size()) {
    st.state_bytes += (views_.size() - st.views.size()) * sizeof(StreamView);
    st.views.resize(views_.size());
  }
  st.peak_bytes =
      std::max(st.peak_bytes,
               st.state_bytes + runs.size() * sizeof(EdgeRun));
  for (const EdgeRun& r : runs) {
    StreamView& sv = st.views[r.view];
    // Within one batch a view's entries arrive in ascending query order,
    // so "same query as the last entry" is exactly "another run of the
    // current (query, view)".
    Entry* last = sv.entries.empty() || sv.entries.back().query != r.query
                      ? nullptr
                      : &sv.entries.back();
    if (r.index_begin == StructureRef::kNoIndex) {
      if (last != nullptr) {
        last->cost = std::min(last->cost, r.cost);
      } else {
        sv.entries.push_back(Entry{r.query, -1, r.cost});
        st.state_bytes += sizeof(Entry);
      }
      continue;
    }
    const size_t ni = views_[r.view].index_spaces.size();
    uint32_t slot;
    if (last != nullptr && last->slot >= 0) {
      // A later run of this (query, view): one query has one class per
      // view, so its slot — and its owner — are already settled.
      slot = static_cast<uint32_t>(last->slot);
      OLAPIDX_DCHECK(sv.slots[slot].col_class == r.col_class);
    } else {
      // Distinct classes per view are few; a linear probe beats a per-view
      // hash map here. Unshared runs always open a slot of their own.
      const uint32_t nslots = static_cast<uint32_t>(sv.slots.size());
      slot = nslots;
      if (r.col_class != 0) {
        for (uint32_t s = 0; s < nslots; ++s) {
          if (sv.slots[s].col_class == r.col_class) {
            slot = s;
            break;
          }
        }
      }
      if (slot == nslots) {
        sv.slots.push_back(Slot{r.col_class, r.query});
        sv.slot_protos.resize(sv.slot_protos.size() + ni, kInfiniteCost);
        st.state_bytes += sizeof(Slot) + ni * sizeof(double);
      } else if (r.query < sv.slots[slot].owner) {
        // A lower query id claims the class: its runs, not the old
        // owner's, define the prototype, whatever the arrival order.
        sv.slots[slot].owner = r.query;
        std::fill_n(sv.slot_protos.begin() +
                        static_cast<std::ptrdiff_t>(slot * ni),
                    ni, kInfiniteCost);
      }
      if (last != nullptr) {
        last->slot = static_cast<int32_t>(slot);
      } else {
        sv.entries.push_back(
            Entry{r.query, static_cast<int32_t>(slot), kInfiniteCost});
        st.state_bytes += sizeof(Entry);
      }
    }
    if (r.query == sv.slots[slot].owner) {
      double* row = sv.slot_protos.data() + static_cast<size_t>(slot) * ni;
      for (int32_t k = r.index_begin; k < r.index_end; ++k) {
        double& c = row[static_cast<size_t>(k)];
        c = std::min(c, r.cost);
      }
    }
  }
  st.peak_bytes = std::max(st.peak_bytes, st.state_bytes);
  runs.clear();
}

void QueryViewGraph::Finalize() {
  using Entry = StreamView::Entry;
  OLAPIDX_CHECK(!finalized_);
  // Hand-built edges may come in any order; the sink wants each (query,
  // view)'s runs adjacent, which ordering by query guarantees. The
  // reference builders already emit in query order.
  auto by_query = [](const EdgeRun& a, const EdgeRun& b) {
    return a.query < b.query;
  };
  if (!std::is_sorted(pending_.begin(), pending_.end(), by_query)) {
    std::sort(pending_.begin(), pending_.end(), by_query);
  }
  ConsumeEdgeRuns(pending_);
  pending_ = {};

  StreamState& st = *stream_;
  ingest_peak_bytes_ = st.peak_bytes;
  uint64_t running = st.state_bytes;  // sink state + finished tables
  uint64_t peak = running;
  std::vector<uint32_t> slot_of_col;  // slots sorted by owner
  std::vector<uint32_t> col_of_slot;
  for (uint32_t v = 0; v < num_views(); ++v) {
    StreamView& sv = st.views[v];
    ViewData& vd = views_[v];
    const size_t nslots = sv.slots.size();
    const size_t ni = vd.index_spaces.size();
    if (sv.entries.empty()) continue;  // every slot hangs off an entry
    // Number the columns by ascending class owner, so the layout — and the
    // fingerprint — does not depend on the flush order. The all-+inf
    // column, if needed, comes last.
    slot_of_col.resize(nslots);
    std::iota(slot_of_col.begin(), slot_of_col.end(), 0u);
    std::sort(slot_of_col.begin(), slot_of_col.end(),
              [&](uint32_t a, uint32_t b) {
                return sv.slots[a].owner < sv.slots[b].owner;
              });
    col_of_slot.resize(nslots);
    for (size_t c = 0; c < nslots; ++c) {
      col_of_slot[slot_of_col[c]] = static_cast<uint32_t>(c);
    }
    const uint32_t inf_col = static_cast<uint32_t>(nslots);
    // Entries → the per-position arrays. Entries arrived in per-batch
    // query order; sort globally and merge the duplicates a query split
    // across batches leaves behind.
    std::sort(sv.entries.begin(), sv.entries.end(),
              [](const Entry& a, const Entry& b) { return a.query < b.query; });
    vd.queries.reserve(sv.entries.size());
    vd.view_cost.reserve(sv.entries.size());
    vd.col_of_pos.reserve(sv.entries.size());
    for (const Entry& e : sv.entries) {
      const uint32_t col =
          e.slot < 0 ? inf_col : col_of_slot[static_cast<size_t>(e.slot)];
      if (!vd.queries.empty() && vd.queries.back() == e.query) {
        vd.view_cost.back() = std::min(vd.view_cost.back(), e.cost);
        if (e.slot >= 0) vd.col_of_pos.back() = col;
        continue;
      }
      vd.queries.push_back(e.query);
      vd.view_cost.push_back(e.cost);
      vd.col_of_pos.push_back(col);
    }
    running += vd.view_cost.size() * sizeof(double) +
               (vd.queries.size() + vd.col_of_pos.size()) * sizeof(uint32_t);
    peak = std::max(peak, running + 2 * nslots * sizeof(uint32_t));
    // Free each part of the sink state as soon as it is converted, so the
    // conversion never holds both forms of more than one part.
    running -= sv.entries.size() * sizeof(Entry);
    sv.entries = {};
    // Slot prototypes → the k-major table, written row by row: row k
    // gathers element k of every slot, at most #classes cache lines.
    const bool needs_inf =
        std::find(vd.col_of_pos.begin(), vd.col_of_pos.end(), inf_col) !=
        vd.col_of_pos.end();
    vd.num_cols = nslots + (needs_inf ? 1 : 0);
    vd.col_protos.resize(ni * vd.num_cols);
    double* dst = vd.col_protos.data();
    for (size_t k = 0; k < ni; ++k) {
      for (size_t c = 0; c < nslots; ++c) {
        *dst++ = sv.slot_protos[static_cast<size_t>(slot_of_col[c]) * ni + k];
      }
      if (needs_inf) *dst++ = kInfiniteCost;
    }
    running += vd.col_protos.size() * sizeof(double);
    peak = std::max(peak, running + nslots * sizeof(uint32_t));
    running -= nslots * sizeof(StreamView::Slot) +
               sv.slot_protos.size() * sizeof(double);
    sv = StreamView{};
  }
  finalize_peak_bytes_ = peak;
  stream_.reset();
  BuildQueryViews();
  finalized_ = true;
}

void QueryViewGraph::BuildQueryViews() {
  // Invert the view→queries adjacency. Views are visited in ascending
  // order, so each query's view list comes out sorted.
  query_views_.assign(queries_.size(), {});
  for (uint32_t v = 0; v < num_views(); ++v) {
    for (uint32_t q : views_[v].queries) {
      query_views_[q].push_back(v);
    }
  }
}

namespace {

// FNV-1a over 64-bit words: 8x fewer multiplies than the byte-wise form.
inline uint64_t MixWord(uint64_t h, uint64_t word) {
  h ^= word;
  return h * 0x100000001b3ULL;
}

inline uint64_t MixDouble(uint64_t h, double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return MixWord(h, bits);
}

template <typename T>
uint64_t MixSpan(uint64_t h, const std::vector<T>& v) {
  h = MixWord(h, v.size());
  for (const T& x : v) {
    h = MixWord(h, static_cast<uint64_t>(x));
  }
  return h;
}

uint64_t MixDoubleSpan(uint64_t h, const std::vector<double>& v) {
  h = MixWord(h, v.size());
  for (double d : v) {
    h = MixDouble(h, d);
  }
  return h;
}

}  // namespace

uint64_t QueryViewGraph::Fingerprint() const {
  OLAPIDX_CHECK(finalized_);
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  h = MixWord(h, num_views());
  h = MixWord(h, num_queries());
  h = MixWord(h, num_structures_);
  for (const QueryData& q : queries_) {
    h = MixDouble(h, q.default_cost);
    h = MixDouble(h, q.frequency);
  }
  for (const ViewData& vd : views_) {
    h = MixDouble(h, vd.space);
    h = MixDouble(h, vd.maintenance);
    h = MixDoubleSpan(h, vd.index_spaces);
    h = MixDoubleSpan(h, vd.index_maintenance);
    h = MixSpan(h, vd.queries);
    h = MixDoubleSpan(h, vd.view_cost);
    h = MixDoubleSpan(h, vd.col_protos);
    h = MixSpan(h, vd.col_of_pos);
  }
  // 0 is reserved as "no fingerprint" in checkpoint files.
  return h == 0 ? 1 : h;
}

uint64_t QueryViewGraph::CostTableBytes() const {
  uint64_t bytes = 0;
  for (const ViewData& vd : views_) {
    bytes += (vd.col_protos.size() + vd.view_cost.size()) * sizeof(double);
    bytes += (vd.col_of_pos.size() + vd.queries.size()) * sizeof(uint32_t);
  }
  return bytes;
}

double QueryViewGraph::DefaultTotalCost() const {
  double total = 0.0;
  for (const QueryData& q : queries_) {
    total += q.frequency * q.default_cost;
  }
  return total;
}

}  // namespace olapidx

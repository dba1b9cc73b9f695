#include "core/query_view_graph.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <numeric>
#include <utility>

namespace olapidx {

namespace {

// Finalize converts the sink state block by block: a run of consecutive
// views whose tables reach about this many bytes shares one allocation per
// table array. The cut is by bytes, not by a view count, so a block holds
// few wide views or many narrow ones, and the sink state and the finished
// tables coexist for at most one block.
constexpr uint64_t kTableBlockBytes = uint64_t{1} << 18;

// Bytes of the finished tables of `positions` positions and `protos`
// prototype cells.
uint64_t TableBytes(uint64_t positions, uint64_t protos) {
  return positions * (sizeof(double) + 2 * sizeof(uint32_t)) +
         protos * sizeof(double);
}

}  // namespace

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

uint32_t QueryViewGraph::AddView(std::string_view name, double space) {
  OLAPIDX_CHECK(!finalized_);
  OLAPIDX_CHECK(space > 0.0);
  OLAPIDX_CHECK(view_names_.size() + name.size() <= UINT32_MAX);
  ViewData vd;
  vd.space = space;
  vd.name_begin = static_cast<uint32_t>(view_names_.size());
  vd.name_size = static_cast<uint32_t>(name.size());
  view_names_.append(name);
  views_.push_back(vd);
  ++num_structures_;
  return static_cast<uint32_t>(views_.size() - 1);
}

QueryViewGraph::IndexDetail& QueryViewGraph::Detail(uint32_t view) {
  ViewData& vd = views_[view];
  if (vd.detail < 0) {
    vd.detail = static_cast<int32_t>(details_.size());
    IndexDetail& d = details_.emplace_back();
    d.spaces.assign(static_cast<size_t>(vd.num_indexes), vd.index_space);
    d.maintenance.assign(static_cast<size_t>(vd.num_indexes),
                         vd.index_maintenance);
  }
  return details_[static_cast<size_t>(vd.detail)];
}

int32_t QueryViewGraph::AddIndex(uint32_t view, std::string name,
                                 double space) {
  OLAPIDX_CHECK(!finalized_);
  OLAPIDX_CHECK(view < num_views());
  OLAPIDX_CHECK(space > 0.0);
  ViewData& vd = views_[view];
  // A view registers its indexes one way only.
  OLAPIDX_CHECK(vd.family == IndexFamily::kNone ||
                vd.family == IndexFamily::kEager);
  vd.family = IndexFamily::kEager;
  IndexDetail& d = Detail(view);
  d.names.push_back(std::move(name));
  d.spaces.push_back(space);
  d.maintenance.push_back(0.0);
  ++num_structures_;
  return vd.num_indexes++;
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
  OLAPIDX_CHECK(vd.family == IndexFamily::kNone);
  vd.family = IndexFamily::kNamed;
  vd.num_indexes = count;
  vd.index_space = space_each;
  vd.index_maintenance = maintenance_each;
  num_structures_ += static_cast<uint32_t>(count);
}

void QueryViewGraph::AddIndexes(uint32_t view, std::span<const IndexKey> keys,
                                double space_each, double maintenance_each) {
  OLAPIDX_CHECK(!finalized_);
  OLAPIDX_CHECK(view < num_views());
  OLAPIDX_CHECK(space_each > 0.0);
  OLAPIDX_CHECK(maintenance_each >= 0.0);
  OLAPIDX_CHECK(keys.size() <= INT32_MAX &&
                keys_.size() + keys.size() <= UINT32_MAX);
  ViewData& vd = views_[view];
  OLAPIDX_CHECK(vd.family == IndexFamily::kNone);
  vd.family = IndexFamily::kKeys;
  vd.key_begin = static_cast<uint32_t>(keys_.size());
  vd.num_indexes = static_cast<int32_t>(keys.size());
  vd.index_space = space_each;
  vd.index_maintenance = maintenance_each;
  keys_.insert(keys_.end(), keys.begin(), keys.end());
  num_structures_ += static_cast<uint32_t>(keys.size());
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
  Detail(view).maintenance[static_cast<size_t>(index)] = cost;
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
    const auto ni = static_cast<size_t>(views_[r.view].num_indexes);
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
  const uint32_t nv = num_views();
  for (uint32_t first = 0; first < nv;) {
    // 1. Sort each view's entries by query and merge, in place, the
    // duplicates a query split across batches leaves behind; the merged
    // entries are the view's positions. Views join the block until its
    // tables reach kTableBlockBytes.
    size_t positions = 0;
    size_t protos = 0;
    size_t max_slots = 0;
    uint32_t end = first;
    while (end < nv && TableBytes(positions, protos) < kTableBlockBytes) {
      StreamView& sv = st.views[end];
      ViewData& vd = views_[end++];
      if (sv.entries.empty()) continue;  // every slot hangs off an entry
      std::sort(
          sv.entries.begin(), sv.entries.end(),
          [](const Entry& a, const Entry& b) { return a.query < b.query; });
      size_t merged = 0;
      for (const Entry& e : sv.entries) {
        if (merged > 0 && sv.entries[merged - 1].query == e.query) {
          Entry& into = sv.entries[merged - 1];
          into.cost = std::min(into.cost, e.cost);
          if (e.slot >= 0) into.slot = e.slot;
          continue;
        }
        sv.entries[merged++] = e;
      }
      // The tail past `merged` stays allocated (and charged) until the
      // view's sink state is freed below.
      const bool needs_inf =
          std::any_of(sv.entries.begin(),
                      sv.entries.begin() + static_cast<std::ptrdiff_t>(merged),
                      [](const Entry& e) { return e.slot < 0; });
      vd.num_positions = static_cast<uint32_t>(merged);
      vd.num_cols =
          static_cast<uint32_t>(sv.slots.size()) + (needs_inf ? 1 : 0);
      positions += merged;
      protos += static_cast<size_t>(vd.num_indexes) * vd.num_cols;
      max_slots = std::max(max_slots, sv.slots.size());
    }

    // 2–3. The block's four arrays, each at its exact size.
    TableBlock& block = blocks_.emplace_back();
    if (positions > 0) {
      block.queries = std::make_unique_for_overwrite<uint32_t[]>(positions);
      block.view_cost = std::make_unique_for_overwrite<double[]>(positions);
      block.col_of_pos = std::make_unique_for_overwrite<uint32_t[]>(positions);
    }
    if (protos > 0) {
      block.col_protos = std::make_unique_for_overwrite<double[]>(protos);
    }
    running += TableBytes(positions, protos);
    peak = std::max(peak, running + 2 * max_slots * sizeof(uint32_t));

    // 4. Fill the arrays view by view, freeing each view's sink state as
    // soon as it is converted.
    uint32_t* queries = block.queries.get();
    double* view_cost = block.view_cost.get();
    uint32_t* col_of_pos = block.col_of_pos.get();
    double* col_protos = block.col_protos.get();
    for (uint32_t v = first; v < end; ++v) {
      StreamView& sv = st.views[v];
      ViewData& vd = views_[v];
      if (sv.entries.empty()) continue;
      const size_t nslots = sv.slots.size();
      const auto ni = static_cast<size_t>(vd.num_indexes);
      // Number the columns by ascending class owner, so the layout — and
      // the fingerprint — does not depend on the flush order. The all-+inf
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
      const auto inf_col = static_cast<uint32_t>(nslots);
      vd.queries = queries;
      vd.view_cost = view_cost;
      vd.col_of_pos = col_of_pos;
      for (uint32_t i = 0; i < vd.num_positions; ++i) {
        const Entry& e = sv.entries[i];
        *queries++ = e.query;
        *view_cost++ = e.cost;
        *col_of_pos++ =
            e.slot < 0 ? inf_col : col_of_slot[static_cast<size_t>(e.slot)];
      }
      // Slot prototypes → the k-major table, written row by row: row k
      // gathers element k of every slot, at most #classes cache lines.
      vd.col_protos = col_protos;
      const bool needs_inf = vd.num_cols > nslots;
      for (size_t k = 0; k < ni; ++k) {
        for (size_t c = 0; c < nslots; ++c) {
          *col_protos++ =
              sv.slot_protos[static_cast<size_t>(slot_of_col[c]) * ni + k];
        }
        if (needs_inf) *col_protos++ = kInfiniteCost;
      }
      running -= sv.entries.size() * sizeof(Entry) +
                 nslots * sizeof(StreamView::Slot) +
                 sv.slot_protos.size() * sizeof(double);
      sv = StreamView{};
    }
    first = end;
  }
  finalize_peak_bytes_ = peak;
  stream_.reset();
  finalized_ = true;
  BuildQueryViews();
}

void QueryViewGraph::BuildQueryViews() {
  // Invert the view→queries adjacency. Views are visited in ascending
  // order, so each query's view list comes out sorted.
  query_views_.assign(queries_.size(), {});
  for (uint32_t v = 0; v < num_views(); ++v) {
    for (uint32_t q : ViewQueries(v)) {
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

uint64_t MixSpan(uint64_t h, std::span<const uint32_t> v) {
  h = MixWord(h, v.size());
  for (uint32_t x : v) {
    h = MixWord(h, x);
  }
  return h;
}

uint64_t MixDoubleSpan(uint64_t h, std::span<const double> v) {
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
    // Per-index values, a uniform one expanded per index: the words are
    // the same whichever way the view stores them.
    const auto ni = static_cast<size_t>(vd.num_indexes);
    const IndexDetail* d =
        vd.detail < 0 ? nullptr : &details_[static_cast<size_t>(vd.detail)];
    h = MixWord(h, ni);
    for (size_t k = 0; k < ni; ++k) {
      h = MixDouble(h, d != nullptr ? d->spaces[k] : vd.index_space);
    }
    h = MixWord(h, ni);
    for (size_t k = 0; k < ni; ++k) {
      h = MixDouble(h, d != nullptr ? d->maintenance[k] : vd.index_maintenance);
    }
    h = MixSpan(h, {vd.queries, vd.num_positions});
    h = MixDoubleSpan(h, {vd.view_cost, vd.num_positions});
    h = MixDoubleSpan(h, {vd.col_protos, ni * vd.num_cols});
    h = MixSpan(h, {vd.col_of_pos, vd.num_positions});
  }
  // 0 is reserved as "no fingerprint" in checkpoint files.
  return h == 0 ? 1 : h;
}

uint64_t QueryViewGraph::CostTableBytes() const {
  uint64_t bytes = 0;
  for (const ViewData& vd : views_) {
    bytes += TableBytes(vd.num_positions,
                        static_cast<uint64_t>(vd.num_indexes) * vd.num_cols);
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

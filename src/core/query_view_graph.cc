#include "core/query_view_graph.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <utility>

namespace olapidx {

namespace {

// Bytes of the tables of `positions` positions and `cells` prototype
// cells.
uint64_t TableBytes(uint64_t positions, uint64_t cells) {
  return positions * (sizeof(double) + 2 * sizeof(uint32_t)) +
         cells * sizeof(double);
}

}  // namespace

uint32_t QueryViewGraph::AddViewNamedAt(size_t name_begin, double space) {
  OLAPIDX_CHECK(!finalized_);
  OLAPIDX_CHECK(space > 0.0);
  OLAPIDX_CHECK(view_names_.size() <= UINT32_MAX);
  ViewData vd;
  vd.space = space;
  vd.name_begin = static_cast<uint32_t>(name_begin);
  vd.name_size = static_cast<uint32_t>(view_names_.size() - name_begin);
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
  const size_t key_begin = keys_.size();
  keys_.insert(keys_.end(), keys.begin(), keys.end());
  AddIndexRange(view, key_begin, keys.size(), space_each, maintenance_each);
}

void QueryViewGraph::AdoptIndexKeys(std::vector<IndexKey> keys) {
  OLAPIDX_CHECK(keys_.empty());
  keys_ = std::move(keys);
}

void QueryViewGraph::AddIndexRange(uint32_t view, size_t key_begin,
                                   size_t count, double space_each,
                                   double maintenance_each) {
  OLAPIDX_CHECK(!finalized_);
  OLAPIDX_CHECK(view < num_views());
  OLAPIDX_CHECK(space_each > 0.0);
  OLAPIDX_CHECK(maintenance_each >= 0.0);
  OLAPIDX_CHECK(count <= INT32_MAX && key_begin + count <= keys_.size() &&
                keys_.size() <= UINT32_MAX);
  ViewData& vd = views_[view];
  OLAPIDX_CHECK(vd.family == IndexFamily::kNone);
  vd.family = IndexFamily::kKeys;
  vd.key_begin = static_cast<uint32_t>(key_begin);
  vd.num_indexes = static_cast<int32_t>(count);
  vd.index_space = space_each;
  vd.index_maintenance = maintenance_each;
  num_structures_ += static_cast<uint32_t>(count);
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
  }
}

void QueryViewGraph::AddEdgeRuns(std::span<const EdgeRun> runs) {
  OLAPIDX_CHECK(!finalized_);
  for (const EdgeRun& run : runs) ValidateRun(run);
  pending_.insert(pending_.end(), runs.begin(), runs.end());
}

QueryViewGraph::TableBlockCut QueryViewGraph::StartTables(
    std::span<const uint32_t> position_begin) {
  OLAPIDX_CHECK(!finalized_ && blocks_.empty() &&
                position_begin.size() == views_.size() + 1);
  const uint32_t nv = num_views();
  TableBlockCut cut;
  cut.first.push_back(0);
  uint64_t estimate = 0;
  for (uint32_t v = 0; v < nv; ++v) {
    const uint64_t positions = position_begin[v + 1] - position_begin[v];
    estimate += TableBytes(
        positions, positions * static_cast<uint64_t>(views_[v].num_indexes));
    if (estimate >= kTableBlockBytes || v + 1 == nv) {
      cut.first.push_back(v + 1);
      cut.bytes.push_back(estimate);
      estimate = 0;
    }
  }
  blocks_.resize(cut.bytes.size());
  return cut;
}

void QueryViewGraph::WriteTableBlock(size_t block, uint32_t first,
                                     TableScratch& scratch) {
  constexpr uint32_t kNoSlot = TableScratch::kNoSlot;
  const size_t nviews = scratch.positions.size();
  OLAPIDX_CHECK(block < blocks_.size() && first + nviews <= views_.size());
  OLAPIDX_CHECK(scratch.num_slots.size() == nviews &&
                scratch.view_cost.size() == scratch.queries.size() &&
                scratch.slot.size() == scratch.queries.size());
  // Each view's column count: one column per slot, and the all-+inf one
  // when some position has no index edge.
  size_t cells = 0;
  for (size_t i = 0, pos = 0; i < nviews; ++i) {
    ViewData& vd = views_[first + i];
    const uint32_t* slot = scratch.slot.data() + pos;
    vd.num_positions = scratch.positions[i];
    pos += vd.num_positions;
    const bool needs_inf =
        std::find(slot, slot + vd.num_positions, kNoSlot) !=
        slot + vd.num_positions;
    vd.num_cols = scratch.num_slots[i] + (needs_inf ? 1 : 0);
    cells += static_cast<size_t>(vd.num_indexes) * vd.num_cols;
  }

  TableBlock& tb = blocks_[block];
  const size_t positions = scratch.queries.size();
  if (positions > 0) {
    tb.queries = std::make_unique_for_overwrite<uint32_t[]>(positions);
    tb.view_cost = std::make_unique_for_overwrite<double[]>(positions);
    tb.col_of_pos = std::make_unique_for_overwrite<uint32_t[]>(positions);
    std::copy_n(scratch.queries.data(), positions, tb.queries.get());
    std::copy_n(scratch.view_cost.data(), positions, tb.view_cost.get());
  }
  if (cells > 0) tb.col_protos = std::make_unique_for_overwrite<double[]>(cells);

  uint32_t* col_of_pos = tb.col_of_pos.get();
  double* col_protos = tb.col_protos.get();
  const double* slot_protos = scratch.protos.data();
  for (size_t i = 0, pos = 0; i < nviews; ++i) {
    ViewData& vd = views_[first + i];
    const uint32_t nslots = scratch.num_slots[i];
    const auto ni = static_cast<size_t>(vd.num_indexes);
    vd.queries = tb.queries.get() + pos;
    vd.view_cost = tb.view_cost.get() + pos;
    vd.col_of_pos = col_of_pos;
    for (uint32_t j = 0; j < vd.num_positions; ++j, ++pos) {
      const uint32_t s = scratch.slot[pos];
      *col_of_pos++ = s == kNoSlot ? nslots : s;
    }
    // Slot-major prototypes → the k-major table, written row by row: row
    // k gathers element k of every slot, at most #slots cache lines.
    vd.col_protos = col_protos;
    const bool needs_inf = vd.num_cols > nslots;
    for (size_t k = 0; k < ni; ++k) {
      for (size_t c = 0; c < nslots; ++c) {
        *col_protos++ = slot_protos[c * ni + k];
      }
      if (needs_inf) *col_protos++ = kInfiniteCost;
    }
    slot_protos += nslots * ni;
  }
  if (scratch.CapacityBytes() > 2 * kTableBlockBytes) {
    scratch = TableScratch{};
  } else {
    scratch.Clear();
  }
}

void QueryViewGraph::WritePendingTables() {
  constexpr uint32_t kNoSlot = TableScratch::kNoSlot;
  // Hand-built edges come in any order; sorted by (view, query), each
  // view's positions come out ascending, and the first query to reach a
  // column class is its lowest, the owner whose runs make the prototype.
  std::sort(pending_.begin(), pending_.end(),
            [](const EdgeRun& a, const EdgeRun& b) {
              return a.view != b.view ? a.view < b.view : a.query < b.query;
            });
  // Each view's positions are its distinct queries.
  const uint32_t nv = num_views();
  std::vector<uint32_t> position_begin(size_t{nv} + 1, 0);
  for (size_t i = 0; i < pending_.size(); ++i) {
    const EdgeRun& r = pending_[i];
    if (i == 0 || r.view != pending_[i - 1].view ||
        r.query != pending_[i - 1].query) {
      ++position_begin[r.view + 1];
    }
  }
  std::partial_sum(position_begin.begin(), position_begin.end(),
                   position_begin.begin());
  const TableBlockCut cut = StartTables(position_begin);

  struct ClassSlot {
    uint32_t col_class;
    uint32_t slot;
  };
  std::vector<ClassSlot> classes;  // the current view's shared classes
  TableScratch scratch;
  size_t block = 0;  // the open one
  const EdgeRun* run = pending_.data();
  const EdgeRun* const end = run + pending_.size();
  for (uint32_t v = 0; v < nv; ++v) {
    const auto ni = static_cast<size_t>(views_[v].num_indexes);
    uint32_t nslots = 0;
    classes.clear();
    while (run != end && run->view == v) {
      const uint32_t q = run->query;
      double view_cost = kInfiniteCost;
      uint32_t slot = kNoSlot;
      uint32_t col_class = 0;  // of the pair's first index run
      bool owner = false;
      for (; run != end && run->view == v && run->query == q; ++run) {
        if (run->index_begin == StructureRef::kNoIndex) {
          view_cost = std::min(view_cost, run->cost);
          continue;
        }
        if (slot == kNoSlot) {
          col_class = run->col_class;
          // Distinct classes per view are few; a linear probe beats a
          // hash map here. Unshared runs always open a slot of their own.
          auto it = classes.end();
          if (col_class != 0) {
            it = std::find_if(
                classes.begin(), classes.end(),
                [&](const ClassSlot& c) { return c.col_class == col_class; });
          }
          if (it != classes.end()) {
            slot = it->slot;
          } else {
            slot = nslots++;
            owner = true;
            if (col_class != 0) classes.push_back({col_class, slot});
            scratch.protos.resize(scratch.protos.size() + ni, kInfiniteCost);
          }
        }
        // One (query, view)'s index runs share one column class.
        OLAPIDX_DCHECK(run->col_class == col_class);
        if (owner) {
          double* row = scratch.protos.data() + scratch.protos.size() - ni;
          for (int32_t k = run->index_begin; k < run->index_end; ++k) {
            double& c = row[static_cast<size_t>(k)];
            c = std::min(c, run->cost);
          }
        }
      }
      scratch.queries.push_back(q);
      scratch.view_cost.push_back(view_cost);
      scratch.slot.push_back(slot);
    }
    scratch.positions.push_back(position_begin[v + 1] - position_begin[v]);
    scratch.num_slots.push_back(nslots);
    if (v + 1 == cut.first[block + 1]) {
      WriteTableBlock(block, cut.first[block], scratch);
      ++block;
    }
  }
  pending_ = {};
}

void QueryViewGraph::Finalize() {
  OLAPIDX_CHECK(!finalized_);
  if (!pending_.empty()) {
    OLAPIDX_CHECK(blocks_.empty());  // edges come one way only
    WritePendingTables();
  }
  finalized_ = true;
  BuildQueryViews();
}

void QueryViewGraph::BuildQueryViews() {
  // Invert the view→queries adjacency, each list reserved at its exact
  // size. Views are visited in ascending order, so each query's view list
  // comes out sorted.
  std::vector<uint32_t> count(queries_.size(), 0);
  for (uint32_t v = 0; v < num_views(); ++v) {
    for (uint32_t q : ViewQueries(v)) ++count[q];
  }
  query_views_.resize(queries_.size());
  for (size_t q = 0; q < queries_.size(); ++q) {
    query_views_[q].reserve(count[q]);
  }
  for (uint32_t v = 0; v < num_views(); ++v) {
    for (uint32_t q : ViewQueries(v)) query_views_[q].push_back(v);
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

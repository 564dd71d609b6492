#include "core/explore.h"

#include <algorithm>

#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "exec/thread_pool.h"

namespace acquire {

namespace {

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::vector<int32_t> MaxLevels(const RefinedSpace& space) {
  std::vector<int32_t> caps(space.d());
  for (size_t i = 0; i < caps.size(); ++i) caps[i] = space.MaxLevel(i);
  return caps;
}

}  // namespace

void AggregateStore::Configure(size_t d, size_t state_width) {
  d_ = d;
  state_width_ = state_width;
  block_width_ = (d + 1) * state_width;
}

void AggregateStore::Reserve(size_t coords) {
  if (coords == 0) return;
  // Grow geometrically: reserving "just enough" on every per-layer call
  // would reallocate — and copy the whole arena — once per layer.
  if (coords * d_ > keys_.capacity()) {
    keys_.reserve(std::max(coords * d_, keys_.capacity() * 2));
  }
  if (coords * block_width_ > arena_.capacity()) {
    arena_.reserve(std::max(coords * block_width_, arena_.capacity() * 2));
  }
  // Keep the load factor under 3/4 for `coords` entries.
  const size_t wanted = NextPowerOfTwo(coords * 4 / 3 + 1);
  if (wanted > slots_.size()) Rehash(wanted);
  ChargeGrowth();
}

void AggregateStore::ChargeGrowth() {
  const size_t bytes = MemoryBytes();
  if (bytes <= charged_bytes_) return;
  const size_t delta = bytes - charged_bytes_;
  charged_bytes_ = bytes;
  if (budget_ == nullptr) return;
  budget_->Charge(delta);
  // Injected allocation failure on the growth path: indistinguishable from
  // a real budget overrun downstream (best-so-far kResourceExhausted).
  if (ACQ_FAILPOINT("explore.arena_grow")) budget_->MarkExhausted();
}

size_t AggregateStore::ProbeSlot(const int32_t* key) const {
  const size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>(HashGridCoordSpan(key, d_)) & mask;
  while (true) {
    const uint32_t e = slots_[i];
    if (e == 0) return i;
    // Open-coded compare: d is 1..4 in practice, below memcmp's call cost.
    const int32_t* entry = keys_.data() + (e - 1) * d_;
    size_t j = 0;
    while (j < d_ && entry[j] == key[j]) ++j;
    if (j == d_) return i;
    i = (i + 1) & mask;
  }
}

void AggregateStore::Rehash(size_t slot_count) {
  slots_.assign(slot_count, 0);
  const size_t mask = slot_count - 1;
  for (size_t e = 0; e < num_entries_; ++e) {
    const int32_t* key = keys_.data() + e * d_;
    size_t i = static_cast<size_t>(HashGridCoordSpan(key, d_)) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<uint32_t>(e + 1);
  }
}

const double* AggregateStore::FindWithSlot(const GridCoord& coord,
                                           size_t* slot) const {
  if (slots_.empty()) {
    *slot = kNoSlot;
    return nullptr;
  }
  const size_t i = ProbeSlot(coord.data());
  *slot = i;
  const uint32_t e = slots_[i];
  return e == 0 ? nullptr : arena_.data() + (e - 1) * block_width_;
}

double* AggregateStore::InsertHinted(const GridCoord& coord, size_t hint) {
  if ((num_entries_ + 1) * 4 > slots_.size() * 3) {
    Rehash(std::max<size_t>(slots_.size() * 2, 64));
    hint = kNoSlot;  // the slots moved
  }
  const size_t slot = (hint < slots_.size() && slots_[hint] == 0)
                          ? hint
                          : ProbeSlot(coord.data());
  keys_.insert(keys_.end(), coord.begin(), coord.end());
  const size_t offset = num_entries_ * block_width_;
  arena_.resize(offset + block_width_, 0.0);
  slots_[slot] = static_cast<uint32_t>(++num_entries_);
  ChargeGrowth();
  return arena_.data() + offset;
}

LayerRank::LayerRank(std::vector<int32_t> caps)
    : caps_(std::move(caps)), d_(caps_.size()), suffix_(d_ + 1, 0) {}

void LayerRank::Extend(int64_t level) {
  for (; levels_ <= level; ++levels_) {
    const int64_t s = levels_;
    table_.resize(table_.size() + d_ + 1);
    uint64_t* column = table_.data() + static_cast<size_t>(s) * (d_ + 1);
    // N_d(s) is 1 for s == 0 (the empty completion), else 0. Then
    // N_k(s) = N_{k+1}(s) + ... + N_{k+1}(s - min(cap_k, s)): a difference
    // of the prefix sums of row k+1, whose column s is already filled.
    column[d_] = Prefix(d_, s - 1) + (s == 0 ? 1 : 0);
    for (size_t k = d_; k-- > 0;) {
      const int64_t top = std::min<int64_t>(caps_[k], s);
      column[k] = Prefix(k, s - 1) + Prefix(k + 1, s) -
                  Prefix(k + 1, s - top - 1);
    }
  }
}

uint64_t LayerRank::LayerSize(int64_t level) const {
  if (level < 0) return 0;
  return Prefix(0, level) - Prefix(0, level - 1);
}

uint64_t LayerRank::Rank(const int32_t* coord, int64_t level) const {
  uint64_t rank = 0;
  int64_t rem = level;
  for (size_t k = 0; k < d_; ++k) {
    rank += Term(k, rem, coord[k]);
    rem -= coord[k];
  }
  return rank;
}

void LayerRank::PredecessorRanks(const int32_t* coord, int64_t level,
                                 uint64_t* out) {
  // v = u - e_j lies in layer level - 1. Its terms before j see one less
  // remaining sum, its term at j one less value as well, and its terms
  // after j equal u's own (both the value and the remaining sum match).
  uint64_t* suffix = suffix_.data();
  int64_t rem = level;
  for (size_t k = 0; k < d_; ++k) {
    suffix[k] = Term(k, rem, coord[k]);
    rem -= coord[k];
  }
  suffix[d_] = 0;
  for (size_t k = d_; k-- > 0;) suffix[k] += suffix[k + 1];
  uint64_t head = 0;  // v's terms before j: sum of Term(k, r_k - 1, u_k)
  rem = level;
  for (size_t j = 0; j < d_; ++j) {
    if (coord[j] > 0) {
      out[j] = head + Term(j, rem - 1, coord[j] - 1) + suffix[j + 1];
      if (coord[j] == rem) break;  // every later coordinate is 0
    }
    head += Term(j, rem - 1, coord[j]);
    rem -= coord[j];
  }
}

Explorer::Explorer(const RefinedSpace* space, EvaluationLayer* layer,
                   MemoryBudget* budget)
    : space_(space), layer_(layer) {
  const AggregateOps& ops = *space_->task().agg.ops;
  store_.Configure(space_->d(), ops.Init().size());
  store_.set_budget(budget);
  scratch_.resize(space_->d() + 1);
}

Result<double> Explorer::ComputeAggregate(const GridCoord& coord) {
  const double* block = nullptr;
  ACQ_RETURN_IF_ERROR(EnsureComputed(coord, &block));
  const size_t d = space_->d();
  const size_t w = store_.state_width();
  const AggregateOps& ops = *space_->task().agg.ops;
  // O_{d+1} is the whole refined query (Eq. 8).
  tmp_state_.assign(block + d * w, block + (d + 1) * w);
  return ops.Final(tmp_state_);
}

void Explorer::SeedCellStates(const std::vector<GridCoord>& coords,
                              std::vector<AggregateOps::State> states) {
  seed_states_ = std::move(states);
  seed_keys_.clear();
  for (const GridCoord& c : coords) {
    seed_keys_.insert(seed_keys_.end(), c.begin(), c.end());
  }
  seed_cursor_ = 0;
  seed_index_built_ = false;
  // The evaluation layer executed these in the batch; count them now so
  // cell_queries() matches the layer's own query counter.
  cell_queries_ += coords.size();
}

void Explorer::BuildSeedIndex() {
  const size_t d = space_->d();
  const size_t count = seed_states_.size();
  seed_slots_.assign(std::max<size_t>(16, NextPowerOfTwo(count * 2)), 0);
  const size_t mask = seed_slots_.size() - 1;
  for (size_t e = 0; e < count; ++e) {
    size_t i =
        static_cast<size_t>(HashGridCoordSpan(seed_keys_.data() + e * d, d)) &
        mask;
    while (seed_slots_[i] != 0) i = (i + 1) & mask;
    seed_slots_[i] = static_cast<uint32_t>(e + 1);
  }
  seed_index_built_ = true;
}

bool Explorer::TakeSeed(const GridCoord& coord, AggregateOps::State* out) {
  if (seed_states_.empty()) return false;
  const size_t d = space_->d();
  // Consumed seeds are cleared below, so skipping empties finds the first
  // live seed; in a layer drain it is exactly the requested coordinate.
  while (seed_cursor_ < seed_states_.size() &&
         seed_states_[seed_cursor_].empty()) {
    ++seed_cursor_;
  }
  size_t e = seed_states_.size();
  if (seed_cursor_ < seed_states_.size()) {
    const int32_t* key = seed_keys_.data() + seed_cursor_ * d;
    size_t j = 0;
    while (j < d && key[j] == coord[j]) ++j;
    if (j == d) e = seed_cursor_;
  }
  if (e == seed_states_.size()) {
    if (!seed_index_built_) BuildSeedIndex();
    const size_t mask = seed_slots_.size() - 1;
    size_t i = static_cast<size_t>(HashGridCoordSpan(coord.data(), d)) & mask;
    while (true) {
      const uint32_t entry = seed_slots_[i];
      if (entry == 0) return false;
      const int32_t* key = seed_keys_.data() + (entry - 1) * d;
      size_t j = 0;
      while (j < d && key[j] == coord[j]) ++j;
      if (j == d) {
        if (seed_states_[entry - 1].empty()) return false;  // consumed
        e = entry - 1;
        break;
      }
      i = (i + 1) & mask;
    }
  }
  out->swap(seed_states_[e]);
  seed_states_[e].clear();  // deterministic consumed marker
  return true;
}

void Explorer::BeginShellDrain(size_t lo) {
  shell_drain_ = true;
  shell_lo_ = lo;
  shell_group_lo_ = lo;
  shell_cursor_.assign(space_->d(), lo);
}

void Explorer::NoteShellInsert() {
  const size_t n = store_.size();
  if (n < shell_lo_ + 2) return;
  const size_t d = space_->d();
  const int32_t* prev = store_.KeyAt(n - 2);
  const int32_t* cur = store_.KeyAt(n - 1);
  if (std::lexicographical_compare(cur, cur + d, prev, prev + d)) {
    // Keys ascend within a pinned group; a lex restart is the next group.
    shell_group_lo_ = n - 1;
  }
}

const double* Explorer::FindShellPred(size_t j, const int32_t* key) {
  const size_t d = space_->d();
  const size_t hi = store_.size();
  // A group restart re-bases every cursor to the new group's first entry.
  size_t e = std::max(shell_cursor_[j], shell_group_lo_);
  while (e < hi) {
    const int32_t* entry = store_.KeyAt(e);
    size_t i = 0;
    while (i < d && entry[i] == key[i]) ++i;
    if (i == d) {
      shell_cursor_[j] = e + 1;
      return store_.BlockAt(e);
    }
    if (entry[i] > key[i]) break;  // keys ascend: a later entry only grows
    ++e;  // lex-smaller entries can never match a future key of this group
  }
  shell_cursor_[j] = e;
  return nullptr;
}

Status Explorer::EnsureComputed(const GridCoord& coord, const double** block) {
  if (const double* found = store_.Find(coord)) {
    *block = found;
    return Status::OK();
  }
  const size_t d = space_->d();
  const size_t w = store_.state_width();
  const AggregateOps& ops = *space_->task().agg.ops;

  stack_.clear();
  stack_.push_back(coord);
  pred_blocks_.resize(d);
  while (!stack_.empty()) {
    GridCoord cur = std::move(stack_.back());
    stack_.pop_back();
    size_t slot_hint = AggregateStore::kNoSlot;
    if (store_.FindWithSlot(cur, &slot_hint) != nullptr) continue;
    // Every predecessor cur - e_j must be available first; probe each by
    // decrementing cur in place. The lookups double as the merge inputs: a
    // found block pointer stays valid through the merges below because
    // nothing inserts into the store before then.
    bool missing = false;
    for (size_t j = 0; j < d; ++j) {
      pred_blocks_[j] = nullptr;
      if (cur[j] == 0) continue;
      --cur[j];
      const double* prev_block =
          shell_drain_ ? FindShellPred(j, cur.data()) : nullptr;
      if (prev_block == nullptr) prev_block = store_.Find(cur);
      if (prev_block != nullptr) {
        pred_blocks_[j] = prev_block;
      } else {
        if (!missing) {
          missing = true;
          ++cur[j];
          stack_.push_back(cur);  // revisit once the predecessors resolve
          --cur[j];
        }
        stack_.push_back(cur);  // the missing predecessor itself
      }
      ++cur[j];
    }
    if (missing) continue;

    // Algorithm 3. scratch_[0] = the cell sub-query — taken from the batch
    // seed when one exists, executed for real otherwise; scratch_[i] =
    // O_{i+1} via Eq. 17.
    if (!TakeSeed(cur, &scratch_[0])) {
      ACQ_ASSIGN_OR_RETURN(scratch_[0],
                           layer_->EvaluateBox(space_->CellBox(cur)));
      ++cell_queries_;
    }
    if (scratch_[0].size() != w) {
      return Status::Internal(
          "aggregate state width differs from ops.Init()");
    }
    for (size_t i = 1; i <= d; ++i) {
      scratch_[i] = scratch_[i - 1];
      const double* prev_block = pred_blocks_[i - 1];
      if (prev_block == nullptr) continue;  // O_i(u - e_{i-1}) is empty
      tmp_state_.assign(prev_block + i * w, prev_block + (i + 1) * w);
      ops.Merge(&scratch_[i], tmp_state_);
    }
    double* inserted = store_.InsertHinted(cur, slot_hint);
    for (size_t i = 0; i <= d; ++i) {
      std::copy(scratch_[i].begin(), scratch_[i].end(), inserted + i * w);
    }
    if (shell_drain_) NoteShellInsert();
    // `coord` sits at the bottom of the dependency stack, so the insert
    // that empties the stack is coord's own block.
    *block = inserted;
  }
  return Status::OK();
}

BatchExplorer::BatchExplorer(const RefinedSpace* space, EvaluationLayer* layer,
                             QueryGenerator* generator, SearchOrder order,
                             RunContext* ctx)
    : space_(space),
      layer_(layer),
      generator_(generator),
      ctx_(ctx),
      shell_(order == SearchOrder::kShell),
      rank_(MaxLevels(*space)),
      block_width_((space->d() + 1) * space->task().agg.ops->Init().size()),
      budget_(ctx != nullptr ? &ctx->budget() : nullptr),
      pred_rank_(space->d(), 0),
      acc_(space->task().agg.ops->Init()),
      pred_state_(acc_) {
  if (order != SearchOrder::kBfs) explorer_.emplace(space, layer, budget_);
}

BatchExplorer::~BatchExplorer() { Finish(); }

void BatchExplorer::Finish() {
  if (!prefetch_.valid()) return;
  // ReclaimPrefetch leaves prefetch_ invalid, so a second Finish is a no-op.
  try {
    ReclaimPrefetch();
  } catch (...) {
    // Generator failures surface through NextLayer, never from here.
  }
}

bool BatchExplorer::ReclaimPrefetch() {
  // Whoever flips the flag first runs the generation. A task still queued
  // is taken back and becomes a no-op that never touches this explorer. A
  // task already running needs nothing from the pool to finish, so a plain
  // wait cannot deadlock, and the caller never runs another session's
  // queued work while it holds its own catalog lock.
  const bool reclaimed = !prefetch_claimed_->exchange(true);
  std::future<void> prefetch = std::move(prefetch_);
  if (!reclaimed) prefetch.get();
  return reclaimed;
}

void BatchExplorer::GenerateLayer() {
  Stopwatch sw;
  next_valid_ = false;
  if (!primed_) {
    if (exhausted_ || !generator_->Next(&lookahead_)) {
      exhausted_ = true;
      next_coords_.clear();
      expand_ms_ += sw.ElapsedMillis();
      return;
    }
    lookahead_score_ = generator_->CurrentScore();
    primed_ = true;
  }
  next_score_ = lookahead_score_;
  // next_coords_ holds the layer drained two swaps ago; swapping its
  // elements out instead of clearing hands their buffers back to
  // lookahead_ (and from there to the generator's assign), so steady-state
  // layer turnover allocates only when a layer outgrows the previous ones.
  size_t n = 0;
  do {
    if (n < next_coords_.size()) {
      next_coords_[n].swap(lookahead_);
    } else {
      next_coords_.push_back(std::move(lookahead_));
    }
    ++n;
    // Interrupted runs stop draining mid-layer: the truncated layer is
    // handed over as-is (still valid coordinates of this score). The
    // lookahead coordinate was just placed into the layer, so the primed
    // invariant (lookahead_ holds a fetched-but-unplaced coordinate) no
    // longer holds -- the prefetch started when this layer is handed out
    // generates again before the driver's poll stops the search, and it
    // must re-prime from the generator instead of replaying the consumed
    // lookahead.
    if (ctx_ != nullptr && (n & 0xFF) == 0 && ctx_->ShouldStop()) {
      primed_ = false;
      break;
    }
    if (!generator_->Next(&lookahead_)) {
      primed_ = false;
      exhausted_ = true;
      break;
    }
    lookahead_score_ = generator_->CurrentScore();
  } while (lookahead_score_ == next_score_);
  next_coords_.resize(n);
  next_valid_ = true;
  expand_ms_ += sw.ElapsedMillis();
}

void BatchExplorer::StartPrefetch() {
  // A single-worker pool has nothing to overlap the prefetch with: the
  // generator work would just move to another thread and come back with
  // hand-off latency and cold caches. Leave the future invalid there and
  // let NextLayer generate inline. Tiny layers (best-first order between
  // score ties hands out near-singletons) get the same treatment — the
  // pool hand-off costs more than the generator work it would overlap.
  constexpr size_t kMinPrefetchLayer = 4;
  ThreadPool& pool = ThreadPool::Shared();
  if (pool.num_threads() > 1 && layer_coords_.size() >= kMinPrefetchLayer) {
    prefetch_claimed_ = std::make_shared<std::atomic<bool>>(false);
    prefetch_ = pool.Submit([this, claimed = prefetch_claimed_] {
      if (!claimed->exchange(true)) GenerateLayer();
    });
  }
}

bool BatchExplorer::NextLayer() {
  placed_ = false;
  // Hand-over: a prefetch that a worker ran wrote next_* before the join;
  // the first layer, a single-core pool and a prefetch that had not
  // started yet generate inline.
  if (!prefetch_.valid() || ReclaimPrefetch()) GenerateLayer();
  if (!next_valid_) return false;
  layer_coords_.swap(next_coords_);
  layer_score_ = next_score_;
  // Generate the following layer while the caller evaluates, merges and
  // investigates this one. The generator only depends on the space, never
  // on the store, so it can run ahead of the investigation.
  StartPrefetch();
  return true;
}

Status BatchExplorer::ExecuteLayer() {
  if (!explorer_) return ExecuteLayerPositional();
  Stopwatch sw;
  // The store only ever holds handed-out coordinates (predecessor fills
  // resolve within the layers drained so far), so when its size equals the
  // count handed out in previous layers, nothing of this fresh layer can be
  // stored and the layer is used in place. Any mismatch — a caller
  // re-running or abandoning a layer, or exploring around the drain — runs
  // the per-coordinate filter, keeping "at most one execution per
  // coordinate" unconditional.
  const std::vector<GridCoord>* coords = &layer_coords_;
  const bool in_sync = explorer_->store().size() == drained_total_;
  if (!in_sync) {
    batch_.clear();
    for (const GridCoord& c : layer_coords_) {
      if (!explorer_->IsStored(c)) batch_.push_back(c);
    }
    coords = &batch_;
  }
  // A shell layer's same-shell predecessors are the current layer's own
  // inserts, which start at store entry drained_total_ when in sync.
  if (in_sync && shell_) {
    explorer_->BeginShellDrain(drained_total_);
  } else {
    explorer_->EndShellDrain();
  }
  drained_total_ += layer_coords_.size();
  explorer_->ReserveAdditional(coords->size());
  if (!coords->empty()) {
    ACQ_ASSIGN_OR_RETURN(
        std::vector<AggregateOps::State> states,
        layer_->EvaluateCells(coords->data(), coords->size(), space_->step()));
    explorer_->SeedCellStates(*coords, std::move(states));
  }
  batch_ms_ += sw.ElapsedMillis();
  return Status::OK();
}

Status BatchExplorer::ExecuteLayerPositional() {
  Stopwatch sw;
  const int64_t level = static_cast<int64_t>(layer_score_);
  const size_t n = layer_coords_.size();
  // The merges of layer l read all of layer l - 1. A truncated layer ends
  // the run (the context keeps reporting the interruption), so its rest
  // never arrives here.
  if (merged_ != executed_ || level != level_ + 1 ||
      executed_ != rank_.LayerSize(level_)) {
    return Status::Internal(
        "positional Explore store: each BFS layer must be executed once and "
        "all its aggregates computed, in order");
  }
  rank_.Extend(level);
  // Layer level - 2 is never read again; its buffer takes layer level.
  prev_.swap(cur_);
  cur_.clear();
  cur_.resize(rank_.LayerSize(level) * block_width_);
  level_ = level;
  executed_ = merged_ = 0;
  ChargeGrowth();
  // Generation order is the rank order; a drift would silently misplace
  // every state, so the ends of the layer (or of its truncated prefix) are
  // checked.
  if (n > rank_.LayerSize(level) ||
      rank_.Rank(layer_coords_.front().data(), level) != 0 ||
      rank_.Rank(layer_coords_.back().data(), level) != n - 1) {
    return Status::Internal(
        "positional Explore store: layer order differs from its rank order");
  }
  ACQ_ASSIGN_OR_RETURN(
      std::vector<AggregateOps::State> states,
      layer_->EvaluateCells(layer_coords_.data(), n, space_->step()));
  const size_t w = block_width_ / (space_->d() + 1);
  for (size_t q = 0; q < n; ++q) {
    if (states[q].size() != w) {
      return Status::Internal("aggregate state width differs from ops.Init()");
    }
    double* slot = cur_.data() + q * block_width_;
    for (size_t k = 0; k < w; ++k) slot[k] = states[q][k];
  }
  executed_ += n;
  cell_queries_ += n;
  placed_ = true;
  batch_ms_ += sw.ElapsedMillis();
  return Status::OK();
}

void BatchExplorer::ChargeGrowth() {
  const size_t bytes = (prev_.capacity() + cur_.capacity()) * sizeof(double) +
                       rank_.MemoryBytes();
  if (bytes <= peak_bytes_) return;
  const size_t delta = bytes - peak_bytes_;
  peak_bytes_ = bytes;
  if (budget_ == nullptr) return;
  budget_->Charge(delta);
  // Injected allocation failure on the growth path, as in AggregateStore.
  if (ACQ_FAILPOINT("explore.arena_grow")) budget_->MarkExhausted();
}

void BatchExplorer::MergePosition(size_t pos, const int32_t* coord) {
  const size_t d = space_->d();
  const size_t w = block_width_ / (d + 1);
  const AggregateOps& ops = *space_->task().agg.ops;
  double* block = cur_.data() + pos * block_width_;
  rank_.PredecessorRanks(coord, level_, pred_rank_.data());
  // The fold of Explorer::EnsureComputed, state by state: O_{i+1} starts
  // as O_i and absorbs the predecessor's O_{i+1} (none where u_i == 0).
  // States are a few doubles, so element loops copy them: assign/copy
  // would call memmove ten times per coordinate at d = 4.
  for (size_t k = 0; k < w; ++k) acc_[k] = block[k];
  for (size_t i = 1; i <= d; ++i) {
    if (coord[i - 1] > 0) {
      const double* pred =
          prev_.data() + pred_rank_[i - 1] * block_width_ + i * w;
      for (size_t k = 0; k < w; ++k) pred_state_[k] = pred[k];
      ops.Merge(&acc_, pred_state_);
    }
    for (size_t k = 0; k < w; ++k) block[i * w + k] = acc_[k];
  }
}

Result<double> BatchExplorer::ComputeAggregate(size_t q) {
  if (explorer_) return explorer_->ComputeAggregate(layer_coords_[q]);
  if (!placed_ || q >= layer_coords_.size()) {
    return Status::Internal(
        "positional Explore store: aggregate requested before ExecuteLayer");
  }
  for (; merged_ <= q; ++merged_) {
    MergePosition(merged_, layer_coords_[merged_].data());
  }
  // O_{d+1} is the whole refined query (Eq. 8).
  const size_t w = block_width_ / (space_->d() + 1);
  const double* whole = cur_.data() + q * block_width_ + block_width_ - w;
  for (size_t k = 0; k < w; ++k) pred_state_[k] = whole[k];
  return space_->task().agg.ops->Final(pred_state_);
}

}  // namespace acquire

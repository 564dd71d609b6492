#ifndef ACQUIRE_CORE_EXPLORE_H_
#define ACQUIRE_CORE_EXPLORE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "core/expand.h"
#include "core/refined_space.h"
#include "core/run_context.h"
#include "exec/evaluation.h"

namespace acquire {

/// Stores, per investigated grid query, the aggregate states of its d+1
/// sub-queries O_1..O_{d+1} (cell, pillar, wall, ..., block; Eqs. 5-8).
/// Only aggregate states are retained, never result tuples, exactly as in
/// Section 5.1.1.
///
/// This is the hash-addressed store of the sequential Explorer and of the
/// batched shell and best-first drains; batched BFS drains address their
/// states by position instead (BatchExplorer, LayerRank).
///
/// Layout: an open-addressed (linear probing, power-of-two) slot table maps
/// a coordinate to an entry index; entry e's key lives at keys_[e*d..] and
/// its d+1 fixed-width sub-aggregate states live contiguously at
/// arena_[e*block_width..] — one flat double array for the whole store, so
/// inserting a coordinate allocates nothing beyond the amortized geometric
/// growth of three flat vectors.
class AggregateStore {
 public:
  /// Must be called before any Insert/Find. `state_width` is the fixed
  /// number of doubles per aggregate state (== ops.Init().size()).
  void Configure(size_t d, size_t state_width);

  /// Charges the store's capacity growth (keys, arena, slot table) against
  /// `budget` (not owned; may be nullptr). Growth past the budget — or an
  /// injected "explore.arena_grow" failpoint hit — latches the budget's
  /// exhausted flag; the store itself keeps functioning (soft enforcement,
  /// see MemoryBudget) so the driver can stop cleanly at its next poll.
  void set_budget(MemoryBudget* budget) { budget_ = budget; }

  /// Current reserved footprint in bytes (capacity, not size).
  size_t MemoryBytes() const {
    return keys_.capacity() * sizeof(int32_t) +
           arena_.capacity() * sizeof(double) +
           slots_.capacity() * sizeof(uint32_t);
  }

  /// Pre-sizes the table and arena for `coords` total entries.
  void Reserve(size_t coords);

  /// The (d+1)*state_width doubles of the coordinate's sub-aggregates —
  /// state j (sub-query O_{j+1}) at offset j*state_width. nullptr when the
  /// coordinate has not been investigated.
  const double* Find(const GridCoord& coord) const {
    if (slots_.empty()) return nullptr;
    const uint32_t e = slots_[ProbeSlot(coord.data())];
    return e == 0 ? nullptr : arena_.data() + (e - 1) * block_width_;
  }

  /// No-hint sentinel for FindWithSlot / InsertHinted.
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  /// Find that also reports where the probe ended: on a miss, `slot` is the
  /// empty slot the key would occupy, reusable as an InsertHinted hint as
  /// long as no rehash or other insert intervenes (kNoSlot when the table
  /// is empty).
  const double* FindWithSlot(const GridCoord& coord, size_t* slot) const;

  /// Appends a new entry and returns its zero-initialized block. The
  /// coordinate must not be present (callers always Find first).
  double* Insert(const GridCoord& coord) { return InsertHinted(coord, kNoSlot); }

  /// Insert reusing a FindWithSlot miss probe: when the hinted slot is
  /// still empty it is taken directly (a linear-probe chain never loses
  /// occupancy, so the first empty slot of the key's chain cannot move
  /// earlier), else the probe reruns.
  double* InsertHinted(const GridCoord& coord, size_t hint);

  size_t size() const { return num_entries_; }
  size_t d() const { return d_; }
  size_t state_width() const { return state_width_; }
  size_t block_width() const { return block_width_; }

  /// Entry `e`'s key / block by insertion order (e < size()). Entries are
  /// append-only, so indices are stable; block pointers are stable until
  /// the next Insert.
  const int32_t* KeyAt(size_t e) const { return keys_.data() + e * d_; }
  const double* BlockAt(size_t e) const {
    return arena_.data() + e * block_width_;
  }

 private:
  /// Slot holding the coordinate, or the empty slot where it would go.
  size_t ProbeSlot(const int32_t* key) const;
  void Rehash(size_t slot_count);
  /// Charges any capacity growth since the last call against budget_.
  void ChargeGrowth();

  size_t d_ = 0;
  size_t state_width_ = 0;
  size_t block_width_ = 0;  // (d + 1) * state_width
  size_t num_entries_ = 0;
  std::vector<uint32_t> slots_;  // entry index + 1; 0 = empty
  std::vector<int32_t> keys_;    // num_entries * d, entry-major
  std::vector<double> arena_;    // num_entries * block_width
  MemoryBudget* budget_ = nullptr;  // not owned; nullptr = untracked
  size_t charged_bytes_ = 0;        // capacity bytes already charged
};

/// Position of a grid coordinate within its BFS layer. Under BFS/L1 order
/// layer l is the set of in-cap d-vectors u (0 <= u_k <= cap_k) that sum
/// to l, and BfsGenerator emits it in lexicographically descending order.
/// With N_k(s) the number of in-cap completions of dimensions k..d-1 that
/// sum to s, the rank of u — the number of layer members that order above
/// it — is
///
///   rank(u) = sum_k sum_{t = u_k + 1}^{min(cap_k, r_k)} N_{k+1}(r_k - t),
///   r_k = l - (u_0 + ... + u_{k-1}),
///
/// and each inner sum is a difference of two prefix sums of N_{k+1}, so a
/// rank costs O(d) table reads. The table holds those prefix sums for the
/// layers reached so far and grows by d+1 entries per layer. Every count
/// it holds is bounded by the number of coordinates in layers 0..l, all of
/// which the search has generated, so 64 bits never overflow.
class LayerRank {
 public:
  explicit LayerRank(std::vector<int32_t> caps);

  /// Extends the table through layer `level`. Needed before LayerSize,
  /// Rank or PredecessorRanks touch that layer.
  void Extend(int64_t level);

  /// Number of coordinates in layer `level` (0 past the grid's far corner).
  uint64_t LayerSize(int64_t level) const;

  /// Rank of `coord` (in cap, summing to `level`) within its layer.
  uint64_t Rank(const int32_t* coord, int64_t level) const;

  /// out[j] = the rank of coord - e_j within layer level - 1, for every j
  /// with coord[j] > 0 (out[j] is left untouched where coord[j] == 0). All
  /// d predecessors share their prefix and suffix terms, so this is O(d)
  /// in total rather than O(d) per predecessor.
  void PredecessorRanks(const int32_t* coord, int64_t level, uint64_t* out);

  size_t MemoryBytes() const { return table_.capacity() * sizeof(uint64_t); }

 private:
  /// Prefix count S_k(s) = N_k(0) + ... + N_k(s); 0 for s < 0.
  uint64_t Prefix(size_t k, int64_t s) const {
    return s < 0 ? 0 : table_[static_cast<size_t>(s) * (d_ + 1) + k];
  }
  /// The rank term of dimension k: how many in-cap completions put a value
  /// above `x` at k when dimensions k.. must sum to `rem`.
  uint64_t Term(size_t k, int64_t rem, int64_t x) const {
    const int64_t top = std::min<int64_t>(caps_[k], rem);
    return Prefix(k + 1, rem - x - 1) - Prefix(k + 1, rem - top - 1);
  }

  std::vector<int32_t> caps_;
  size_t d_;
  int64_t levels_ = 0;            // layers 0..levels_-1 are covered
  std::vector<uint64_t> table_;   // S_k(s) at [s * (d + 1) + k], k = 0..d
  std::vector<uint64_t> suffix_;  // PredecessorRanks scratch
};

/// The Explore phase (Section 5): Incremental Aggregate Computation.
///
/// For each grid query only the cell sub-query O_1 is executed against the
/// evaluation layer; the remaining sub-aggregates follow from the
/// recurrence O_i(u) = O_{i-1}(u) + O_i(u - e_{i-1}) (Eq. 17) in d
/// constant-time merges, so a query is executed at most once no matter how
/// many refined queries contain it.
///
/// Algorithm 3 assumes predecessors were investigated first; BFS order
/// guarantees that (Theorem 3), and the shell generator's descending
/// pinned-group order makes every same-shell predecessor precede its
/// successors too, but best-first order can still request a coordinate
/// before an equal-score predecessor, so missing predecessors are filled
/// on demand (memoized, still at most one cell execution per coordinate).
class Explorer {
 public:
  /// `budget` (optional, not owned) meters the aggregate store's arena
  /// growth — see AggregateStore::set_budget.
  Explorer(const RefinedSpace* space, EvaluationLayer* layer,
           MemoryBudget* budget = nullptr);

  Explorer(const Explorer&) = delete;
  Explorer& operator=(const Explorer&) = delete;

  /// Final aggregate value of grid query `coord` (Algorithm 3).
  Result<double> ComputeAggregate(const GridCoord& coord);

  /// Records cell sub-query states that were already executed against the
  /// layer in a batch (EvaluateCells): states[q] is O_1 of coords[q].
  /// ComputeAggregate consumes a seeded state instead of issuing the cell
  /// query again. Counts toward cell_queries() immediately — the layer did
  /// execute them. Already-investigated coordinates must not be seeded, and
  /// each call replaces the previous layer's seeds wholesale (predecessor
  /// fills never reach a later layer, so seeds are consumed within their
  /// own layer unless the search stops first).
  void SeedCellStates(const std::vector<GridCoord>& coords,
                      std::vector<AggregateOps::State> states);

  bool IsStored(const GridCoord& coord) const {
    return store_.Find(coord) != nullptr;
  }

  /// Pre-sizes the store for `additional` more coordinates.
  void ReserveAdditional(size_t additional) {
    store_.Reserve(store_.size() + additional);
  }

  /// Arms the shell-order predecessor fast path: the layer being
  /// investigated is one L-inf shell whose same-shell predecessors live in
  /// the store region [lo, size()) that grows as the drain inserts. The
  /// shell generator emits pinned groups in descending pinned order (see
  /// ShellGenerator), each group ascending lexicographically, so d forward
  /// cursors over the current group resolve the same-group predecessors
  /// (every dimension but the pinned one) with warm sequential scans; a
  /// group restart is detected from the inserts themselves (a key ordering
  /// below its predecessor entry) and re-bases the cursors. Cross-group and
  /// previous-shell predecessors fall back to the hash table — the cursors
  /// only ever answer exact matches.
  void BeginShellDrain(size_t lo);
  void EndShellDrain() { shell_drain_ = false; }

  /// Number of cell queries actually executed (== store().size() plus any
  /// seeded-but-not-yet-consumed batch states).
  uint64_t cell_queries() const { return cell_queries_; }

  const AggregateStore& store() const { return store_; }

 private:
  /// Ensures store_ holds the sub-aggregates of `coord` (iterative
  /// dependency-stack fill) and sets `block` to its stored block.
  Status EnsureComputed(const GridCoord& coord, const double** block);

  /// Moves the seeded O_1 state of `coord` into `out` (true) or leaves it
  /// untouched (false). Layer drains consume seeds in seeding order, so a
  /// rolling cursor answers without hashing; out-of-order consumption
  /// (shell/best-first predecessor fills) falls back to a lazily built
  /// probe table over the seed keys.
  bool TakeSeed(const GridCoord& coord, AggregateOps::State* out);
  void BuildSeedIndex();

  /// Shell-drain predecessor lookup: looks for `key` at or after
  /// shell_cursor_[j] within the current pinned group's stored entries
  /// (ascending), skipping lex-smaller entries for good. nullptr on a miss.
  const double* FindShellPred(size_t j, const int32_t* key);
  /// Called after each insert while the shell drain is armed: a key that
  /// orders below the previous entry starts the next pinned group.
  void NoteShellInsert();

  const RefinedSpace* space_;
  EvaluationLayer* layer_;
  AggregateStore store_;
  uint64_t cell_queries_ = 0;
  /// Batch-executed cell states awaiting their Eq. 17 merges: a flat
  /// open-addressed index over the current layer's seeds, rebuilt per
  /// layer with no per-coordinate allocation (a map-of-states here cost
  /// three node operations per coordinate — more than the batch saved).
  std::vector<AggregateOps::State> seed_states_;
  std::vector<int32_t> seed_keys_;    // seed e's coord at seed_keys_[e*d..]
  std::vector<uint32_t> seed_slots_;  // seed index + 1; 0 = empty
  size_t seed_cursor_ = 0;            // first possibly-unconsumed seed
  bool seed_index_built_ = false;     // seed_slots_ populated (lazy)
  // Shell-drain predecessor cursors (see BeginShellDrain).
  bool shell_drain_ = false;
  size_t shell_lo_ = 0;        // first entry of the current shell
  size_t shell_group_lo_ = 0;  // first entry of the current pinned group
  std::vector<size_t> shell_cursor_;  // per dimension, >= shell_group_lo_
  // Reused scratch (states of the coordinate being computed, a predecessor
  // state lifted out of the arena, the dependency stack, the predecessor
  // block pointers found during the availability check — valid only until
  // the next store_ insert).
  std::vector<AggregateOps::State> scratch_;
  AggregateOps::State tmp_state_;
  std::vector<GridCoord> stack_;
  std::vector<const double*> pred_blocks_;
};

/// Layer-batched Explore driver: drains one equi-score layer at a time from
/// the Expand generator, executes all of the layer's outstanding cell
/// sub-queries in one EvaluateCells batch (parallel or natively merged,
/// per the evaluation layer), then lets the caller run Algorithm 3 over the
/// layer's coordinates in generation order. The Eq. 17 predecessor merges
/// stay sequential in that order, so aggregates are bit-identical to the
/// one-coordinate-at-a-time Explorer (Theorem 3's ordering is preserved;
/// only O_1 executions are reordered, and those are independent).
///
/// Store. In BFS order the states live in a positional layer store:
/// layer l's (d+1)-state blocks sit in one flat array indexed by LayerRank,
/// which equals the coordinate's position in the generator's layer. The
/// batch's O_1 states land directly in their slots, the predecessor
/// u - e_j is a computed rank into layer l-1, and Eq. 17 becomes d indexed
/// reads. Only layers l-1 and l are kept: nothing reads older states
/// (overshoot repartitioning evaluates its own boxes, and answers carry
/// their coordinates). Shell and best-first orders use the hash-addressed
/// Explorer instead — a positional key for them would need far more slots
/// than coordinates.
///
/// NextLayer additionally pipelines the generator: after handing out layer
/// k it prefetches layer k+1 on the shared pool, so Expand runs concurrently
/// with the caller's evaluation/merge/investigation of layer k. The
/// generator emits the same layers in the same order either way, and it is
/// touched by exactly one thread at a time (the join in NextLayer is the
/// hand-over), so results are unchanged.
class BatchExplorer {
 public:
  /// `ctx` (optional, not owned) lets a huge layer generation stop early:
  /// GenerateLayer polls it every few hundred coordinates and truncates the
  /// layer, so a cancelled run is not stuck expanding a d-dimensional layer
  /// to completion first. A truncated layer is a prefix of the full one; the
  /// context keeps answering ShouldStop() from then on, so the driver stops
  /// before asking for more. The context's budget also meters the store
  /// (ctx == nullptr: untracked). `order` is the order `generator` emits in
  /// (kAuto resolved): kBfs selects the positional store, kShell arms the
  /// shell drain on in-sync layers.
  BatchExplorer(const RefinedSpace* space, EvaluationLayer* layer,
                QueryGenerator* generator, SearchOrder order,
                RunContext* ctx = nullptr);

  /// Joins an in-flight layer prefetch (Finish).
  ~BatchExplorer();

  BatchExplorer(const BatchExplorer&) = delete;
  BatchExplorer& operator=(const BatchExplorer&) = delete;

  /// Drains the next equi-score layer from the generator (one-coordinate
  /// lookahead detects the score change). False once the space is
  /// exhausted. Does not execute anything.
  bool NextLayer();

  /// Score shared by every coordinate of the current layer.
  double layer_score() const { return layer_score_; }

  /// The current layer's coordinates in generation order.
  const std::vector<GridCoord>& layer() const { return layer_coords_; }

  /// Executes the cell sub-queries of every not-yet-investigated
  /// coordinate of the current layer in one batch and stores their states.
  /// The positional store takes each BFS layer once, in order, after every
  /// aggregate of the previous one was computed; anything else (such as the
  /// rest of a truncated layer) is an Internal error.
  Status ExecuteLayer();

  /// Final aggregate of layer()[q] (Algorithm 3), after ExecuteLayer. The
  /// positional store merges the layer's coordinates in generation order
  /// up to q on the first request, so asking in order costs one merge each.
  Result<double> ComputeAggregate(size_t q);

  /// Cell queries executed so far.
  uint64_t cell_queries() const {
    return explorer_ ? explorer_->cell_queries() : cell_queries_;
  }

  /// Largest store footprint of the run so far, in bytes (capacity): the
  /// two retained layers plus the rank table on the positional path, the
  /// hash store on the others.
  size_t store_peak_bytes() const {
    return explorer_ ? explorer_->store().MemoryBytes() : peak_bytes_;
  }

  /// Joins the in-flight layer prefetch, if any. A driver that stops
  /// before the generator is exhausted (satisfied, STOP, deadline, budget)
  /// must call this before reading expand_ms(): the prefetch task writes
  /// expand_ms_ on a pool worker until the join. Idempotent; NextLayer must
  /// not be called afterwards.
  void Finish();

  /// Cumulative generator time (NextLayer) and batch execution time
  /// (ExecuteLayer), for per-phase driver stats. Prefetched generator time
  /// overlaps the caller's work, so phase times can sum past wall time.
  /// Read expand_ms() only after Finish().
  double expand_ms() const { return expand_ms_; }
  double batch_ms() const { return batch_ms_; }

 private:
  /// Drains one equi-score run from the generator into next_*. Runs either
  /// inline (first layer) or on a pool worker; never both at once.
  void GenerateLayer();
  void StartPrefetch();
  /// Joins the prefetch: true when it had not started (it never will, and
  /// the caller generates inline), false after waiting for the worker that
  /// ran it. Leaves prefetch_ invalid.
  bool ReclaimPrefetch();

  /// Positional ExecuteLayer: places the handed-out layer at its layer
  /// positions and fills their O_1 slots from one EvaluateCells batch.
  Status ExecuteLayerPositional();
  /// Eq. 17 for layer position `pos` (coordinate `coord`): O_1 from its
  /// slot, O_{i+1} = O_i merged with O_{i+1} of the predecessor along
  /// dimension i, read from layer l-1 at its computed rank.
  void MergePosition(size_t pos, const int32_t* coord);
  /// Charges store growth past the high-water mark against the budget.
  void ChargeGrowth();

  const RefinedSpace* space_;
  EvaluationLayer* layer_;
  QueryGenerator* generator_;
  RunContext* ctx_;
  const bool shell_;   // arm the shell drain on in-sync layers
  // Hash-addressed store (shell, best-first); empty in BFS order, which
  // uses the positional store below.
  std::optional<Explorer> explorer_;
  std::vector<GridCoord> layer_coords_;
  double layer_score_ = 0.0;
  // Generator cursor and the prefetched layer. Owned by the prefetch task
  // between StartPrefetch() and the join at the top of NextLayer().
  bool primed_ = false;        // lookahead holds a coordinate
  bool exhausted_ = false;
  GridCoord lookahead_;
  double lookahead_score_ = 0.0;
  std::vector<GridCoord> next_coords_;
  double next_score_ = 0.0;
  bool next_valid_ = false;
  std::future<void> prefetch_;
  std::shared_ptr<std::atomic<bool>> prefetch_claimed_;  // set by its runner
  std::vector<GridCoord> batch_;  // scratch: coords needing execution
  size_t drained_total_ = 0;      // coords handed out in previous layers
  double expand_ms_ = 0.0;
  double batch_ms_ = 0.0;

  // Positional layer store (BFS order only; see the class comment).
  LayerRank rank_;
  size_t block_width_ = 0;        // (d + 1) * state width
  std::vector<double> prev_;      // layer level_ - 1, block per position
  std::vector<double> cur_;       // layer level_, block per position
  int64_t level_ = -1;            // layer held in cur_
  size_t executed_ = 0;           // cur_ positions with their O_1 slot
  size_t merged_ = 0;             // cur_ positions merged (a prefix)
  bool placed_ = false;           // layer() has its O_1 slots in cur_
  uint64_t cell_queries_ = 0;
  size_t peak_bytes_ = 0;         // high-water footprint, charged as it grows
  MemoryBudget* budget_;          // not owned; nullptr = untracked
  std::vector<uint64_t> pred_rank_;
  AggregateOps::State acc_;       // O_i of the position being merged
  AggregateOps::State pred_state_;
};

}  // namespace acquire

#endif  // ACQUIRE_CORE_EXPLORE_H_

#ifndef ACQUIRE_CORE_EXPLORE_H_
#define ACQUIRE_CORE_EXPLORE_H_

#include <cstdint>
#include <future>
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
/// Layout: an open-addressed (linear probing, power-of-two) slot table maps
/// a coordinate to an entry index; entry e's key lives at keys_[e*d..] and
/// its d+1 fixed-width sub-aggregate states live contiguously at
/// arena_[e*block_width..] — one flat double array for the whole store, so
/// inserting a coordinate allocates nothing beyond the amortized geometric
/// growth of three flat vectors (the previous map-of-vectors cost one node
/// plus d+2 vector allocations per coordinate).
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

  /// Arms the layer-drain predecessor fast path: the coordinates about to
  /// be investigated form one equi-score layer whose Eq. 17 predecessors
  /// all live in store entries [lo, hi) (the previous layer). In a BFS
  /// drain both the layer and, per dimension j, its predecessor sequence
  /// u - e_j descend lexicographically, so d forward cursors over that
  /// contiguous entry range resolve predecessors with short sequential
  /// scans of warm memory instead of random hash probes. Any miss falls
  /// back to the hash table, so shell/best-first orders (and predecessor
  /// fills) stay correct — the cursors are a locality hint, never an
  /// authority. Pass lo == hi to disarm. Disarms any shell drain.
  void BeginLayerDrain(size_t lo, size_t hi);

  /// Arms the shell-order predecessor fast path instead: the layer being
  /// investigated is one L-inf shell whose same-shell predecessors live in
  /// the store region [lo, size()) that grows as the drain inserts. The
  /// shell generator emits pinned groups in descending pinned order (see
  /// ShellGenerator), each group ascending lexicographically, so d forward
  /// cursors over the current group resolve the same-group predecessors
  /// (every dimension but the pinned one) with warm sequential scans; a
  /// group restart is detected from the inserts themselves (a key ordering
  /// below its predecessor entry) and re-bases the cursors. Cross-group and
  /// previous-shell predecessors fall back to the hash table — the cursors
  /// only ever answer exact matches. Disarms any BFS layer drain.
  void BeginShellDrain(size_t lo);

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

  /// Looks for `key` at or after pred_cursor_[j] within the armed entry
  /// range, advancing the cursor past entries that order above the key.
  /// nullptr on a miss (caller falls back to store_.Find).
  const double* FindPredInRange(size_t j, const int32_t* key);

  /// Shell-drain counterpart: looks for `key` at or after
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
  // Layer-drain predecessor cursors (see BeginLayerDrain).
  size_t pred_lo_ = 0;
  size_t pred_hi_ = 0;
  std::vector<size_t> pred_cursor_;  // per dimension, in [pred_lo_, pred_hi_]
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
  /// to completion first. The driver re-polls before consuming the layer,
  /// so a truncated layer is never mistaken for a complete one on an
  /// uninterrupted run (ctx == nullptr is byte-identical behavior).
  BatchExplorer(const RefinedSpace* space, EvaluationLayer* layer,
                QueryGenerator* generator, RunContext* ctx = nullptr);

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
  /// coordinate of the current layer in one batch and seeds the explorer.
  Status ExecuteLayer();

  /// Tells ExecuteLayer which predecessor fast path to arm on in-sync
  /// layers: the shell drain (BeginShellDrain) instead of the descending
  /// BFS window. Set once by the driver for shell search order.
  void set_shell_drain_hint(bool shell) { shell_hint_ = shell; }

  Explorer& explorer() { return explorer_; }

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

  const RefinedSpace* space_;
  EvaluationLayer* layer_;
  QueryGenerator* generator_;
  RunContext* ctx_;
  Explorer explorer_;
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
  std::vector<GridCoord> batch_;  // scratch: coords needing execution
  size_t drained_total_ = 0;      // coords handed out in previous layers
  size_t prev_layer_size_ = 0;    // size of the layer drained before this one
  bool shell_hint_ = false;       // arm the shell drain on in-sync layers
  double expand_ms_ = 0.0;
  double batch_ms_ = 0.0;
};

}  // namespace acquire

#endif  // ACQUIRE_CORE_EXPLORE_H_

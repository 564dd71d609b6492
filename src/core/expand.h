#ifndef ACQUIRE_CORE_EXPAND_H_
#define ACQUIRE_CORE_EXPAND_H_

#include <memory>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/refined_space.h"
#include "core/run_context.h"

namespace acquire {

/// Which Expand-phase generator drives the search.
enum class SearchOrder {
  kAuto,       // shells for the L-infinity norm, BFS otherwise (the paper)
  kBfs,        // Algorithm 1
  kShell,      // Algorithm 2
  kBestFirst,  // exact-QScore priority order (ablation; not in the paper)
};

/// The Expand phase (Section 4): produces grid queries in nondecreasing
/// refinement order. Implementations guarantee Theorem 2's property — every
/// query of score k is produced before any query of score > k — which the
/// driver uses to stop as soon as the layer containing the first hit is
/// exhausted.
class QueryGenerator {
 public:
  virtual ~QueryGenerator() = default;

  /// Produces the next grid query; false once the space is exhausted.
  virtual bool Next(GridCoord* out) = 0;

  /// Monotone nondecreasing score of the coordinate last returned by
  /// Next(): the BFS/shell layer index, or the exact QScore for the
  /// best-first generator.
  virtual double CurrentScore() const = 0;
};

/// Algorithm 1: breadth-first search over the refined-space grid graph.
/// Layers are sets of constant coordinate sum; for the (default) L1 norm a
/// layer is exactly an equi-QScore plane.
///
/// The frontier needs no visited set: every coordinate u with sum k + 1 has
/// exactly one canonical predecessor, u minus one on its last nonzero
/// dimension, so generating cur + e_i only for i >= last_nonzero(cur)
/// produces each coordinate exactly once (the per-axis caps preserve this —
/// the canonical predecessor of an in-cap coordinate is itself in cap).
/// That keeps expansion allocation-free per coordinate: layers live in two
/// flat d-strided int32 arenas (current and next) pre-sized from the
/// layer-cardinality estimate, and Next assigns into the caller's vector
/// (which reuses its capacity) instead of handing out a fresh one.
class BfsGenerator final : public QueryGenerator {
 public:
  /// `budget` (optional, not owned) meters the flat layer arenas — in high
  /// dimensions a single BFS layer can dwarf the aggregate store, so layer
  /// growth past the budget (or an injected "expand.layer_alloc" failpoint
  /// hit) latches budget exhaustion for the driver to observe.
  explicit BfsGenerator(const RefinedSpace* space,
                        MemoryBudget* budget = nullptr);

  bool Next(GridCoord* out) override;
  double CurrentScore() const override { return score_; }

 private:
  /// Charges layer-arena capacity growth since the last call.
  void ChargeGrowth();

  const RefinedSpace* space_;
  std::vector<int32_t> layer_;  // current layer, d-strided, generation order
  std::vector<int32_t> next_;   // successors of the layer_ coords visited
  size_t pos_ = 0;              // next unvisited coordinate index in layer_
  double score_ = 0.0;
  size_t total_cells_ = 0;      // saturated grid cardinality (reserve cap)
  MemoryBudget* budget_;        // not owned; nullptr = untracked
  size_t charged_bytes_ = 0;    // arena capacity bytes already charged
};

/// Algorithm 2: explicit enumeration of the L-shaped equi-L∞ shells
/// max_i(u_i) = k, in increasing k. Within a shell, coordinates are grouped
/// by the FIRST dimension pinned at k (dimensions before the pin stay below
/// k) and enumerated lexicographically; the groups themselves are emitted in
/// DESCENDING pin order (d-1 down to 0). That order makes every shell
/// topological for Eq. 17: a predecessor u - e_p of a group-p coordinate
/// either drops to shell k-1 or re-pins on a later dimension (an
/// earlier-emitted group), and a predecessor along a free dimension is
/// lexicographically earlier in the same group — so the Explore phase's
/// shell-drain cursors (Explorer::BeginShellDrain) always find predecessors
/// already stored, with no on-demand fills.
class ShellGenerator final : public QueryGenerator {
 public:
  explicit ShellGenerator(const RefinedSpace* space);

  bool Next(GridCoord* out) override;
  double CurrentScore() const override { return static_cast<double>(k_); }

 private:
  const RefinedSpace* space_;
  int32_t k_ = 0;        // current shell
  size_t pinned_ = 0;    // dimension fixed at k; d = before the first group
  GridCoord current_;    // odometer over the free dimensions
  bool shell0_done_ = false;
  bool odometer_live_ = false;
  int32_t max_shell_ = 0;
};

/// Best-first variant (an ablation, not in the paper): pops coordinates in
/// exact QScore order using a priority queue. For non-L1 norms this visits
/// strictly fewer queries than BFS before the first hit, at the cost of a
/// heap.
class BestFirstGenerator final : public QueryGenerator {
 public:
  /// `budget` (optional, not owned) meters the heap + visited set, which
  /// grow with the explored frontier like the BFS layer arenas do.
  explicit BestFirstGenerator(const RefinedSpace* space,
                              MemoryBudget* budget = nullptr);

  bool Next(GridCoord* out) override;
  double CurrentScore() const override { return score_; }

 private:
  struct Entry {
    double qscore;
    GridCoord coord;
    bool operator>(const Entry& other) const { return qscore > other.qscore; }
  };

  const RefinedSpace* space_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  std::unordered_set<GridCoord, GridCoordHash> seen_;
  double score_ = 0.0;
  MemoryBudget* budget_;      // not owned; nullptr = untracked
  size_t charged_coords_ = 0; // frontier coordinates already charged
};

}  // namespace acquire

#endif  // ACQUIRE_CORE_EXPAND_H_

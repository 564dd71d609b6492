#ifndef ACQUIRE_EXEC_EVALUATION_H_
#define ACQUIRE_EXEC_EVALUATION_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/memory_budget.h"
#include "common/result.h"
#include "exec/acq_task.h"

namespace acquire {

/// Grid coordinate in the refined space (one refinement level per
/// dimension; Section 4's grid queries).
using GridCoord = std::vector<int32_t>;

/// Hash of a grid coordinate stored as `d` contiguous int32 levels.
/// Multiply-xor per lane plus a final avalanche. Plain FNV-1a (the previous
/// hash) leaves the high bits almost untouched for the small dense levels
/// the expand phase actually produces (0..k on every axis), so
/// power-of-two tables saw clustered buckets and long probe chains; the
/// final mix spreads every input bit across the whole word.
inline uint64_t HashGridCoordSpan(const int32_t* v, size_t d) {
  uint64_t h = 0x9E3779B97F4A7C15ULL ^ static_cast<uint64_t>(d);
  for (size_t i = 0; i < d; ++i) {
    h = (h ^ static_cast<uint32_t>(v[i])) * 0x9DDFEA08EB382D69ULL;
    h ^= h >> 29;
  }
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 32;
  return h;
}

struct GridCoordHash {
  size_t operator()(const GridCoord& c) const {
    return static_cast<size_t>(HashGridCoordSpan(c.data(), c.size()));
  }
};

/// Half-open-below PScore range on one dimension: admits tuples whose
/// needed PScore lies in (lo, hi]. lo < 0 means "from 0 inclusive", so
/// {-1, p} is the full refined predicate at PScore p and
/// {(u-1)*s, u*s} is grid cell u at step s.
struct PScoreRange {
  double lo = -1.0;
  double hi = 0.0;

  bool Admits(double needed) const { return needed > lo && needed <= hi; }
};

/// The shared needed-PScore materialization every prepared evaluation layer
/// sits on: a dimension-major (structure-of-arrays) tuple x dimension
/// matrix plus the per-row aggregate input. Dimension-major because every
/// box-query kernel walks one dimension across all rows at a time, so each
/// dimension is one contiguous stream. Built by BuildNeededMatrix
/// (exec/eval_kernel.h), optionally in parallel.
struct NeededMatrix {
  size_t rows = 0;
  size_t dims = 0;
  std::vector<double> needed;      // dims * rows, dimension-major
  std::vector<double> agg_values;  // rows

  const double* dim(size_t i) const { return needed.data() + i * rows; }
  double* mutable_dim(size_t i) { return needed.data() + i * rows; }
};

/// The paper's modular evaluation layer (Section 3): the component that
/// actually executes (sub-)queries against the data. ACQUIRE, the baselines
/// and the repartitioner all talk to it through box queries in PScore space.
///
/// Implementations (see exec/backend.h for driver-level selection):
///  * DirectEvaluationLayer — recomputes per-tuple refinement distances on
///    every call; each call models one SQL execution in the paper's
///    Postgres back end (cost: one full scan of the base relation).
///  * ParallelEvaluationLayer (exec/parallel_evaluation.h) — materializes
///    the tuple x dimension needed-PScore matrix once in Prepare(); calls
///    still scan all tuples but skip predicate-function evaluation, serially
///    or chunked across a thread pool. Models a DBMS with a specialized
///    access path.
///  * CellSortedEvaluationLayer (index/cell_sorted.h) — Section 7.4's grid
///    index: rows counting-sorted into grid cells in a CSR layout, so a
///    cell query is one binary search plus a precomputed per-cell state and
///    an aligned box merges per-cell states in sorted key order.
///
/// The two materializing layers follow one growth rule: when the task's
/// relation has grown past the rows they were prepared over, the next
/// serial evaluate entry rebuilds them, and SupportsConcurrentEvaluate()
/// stays false until it has.
class EvaluationLayer {
 public:
  struct ExecStats {
    uint64_t queries = 0;         // box queries executed
    uint64_t tuples_scanned = 0;  // tuples touched while answering them

    /// Per-phase driver timings, filled by RunAcquire / RunAcquireContract
    /// (never by the layer itself): generator time, cell/box execution
    /// time, and the batched explorer's drain time. drain_ms times each
    /// layer's Eq. 17 merges together with the investigate() calls
    /// interleaved with them, so it is not a pure merge figure. The
    /// sequential explorer folds both into explore_ms; only the batched
    /// explorer fills drain_ms, and it overlaps expand with the other
    /// phases (layer prefetch), so the three can sum past elapsed_ms.
    double expand_ms = 0.0;
    double explore_ms = 0.0;
    double drain_ms = 0.0;

    /// Peak bytes (capacity) of the Explore phase's aggregate-state store,
    /// filled by RunAcquire: the hash store for the sequential explorer and
    /// the batched shell and best-first drains, the two retained layers plus
    /// the rank table for batched BFS drains. 0 when nothing was stored.
    uint64_t store_peak_bytes = 0;

    /// Index build cost, filled by the layer itself: wall time spent inside
    /// Prepare() and growth rebuilds (0 for layers with a no-op Prepare).
    /// Survives ResetStats — Prepare happens before the driver resets the
    /// per-run query counters.
    double prepare_ms = 0.0;
  };

  explicit EvaluationLayer(const AcqTask* task) : task_(task) {}
  virtual ~EvaluationLayer() = default;

  EvaluationLayer(const EvaluationLayer&) = delete;
  EvaluationLayer& operator=(const EvaluationLayer&) = delete;

  /// One-time setup (no-op for the direct layer).
  virtual Status Prepare() { return Status::OK(); }

  /// Aggregate state over tuples whose needed-PScore vector lies in `box`
  /// (one range per dimension, task->d() entries).
  virtual Result<AggregateOps::State> EvaluateBox(
      const std::vector<PScoreRange>& box) = 0;

  /// Batch cell-query API for the Explore phase: the aggregate states of
  /// `count` grid cells at grid step `step`, where cell `u` covers
  /// ((u_i - 1) * step, u_i * step] on every dimension (CellRangeForLevel;
  /// identical to RefinedSpace::CellBox). Results are in input order and
  /// bit-identical to calling EvaluateBox on each cell box. The base
  /// implementation fans the per-cell calls out on the shared thread pool
  /// when the layer permits concurrent evaluation, else answers serially;
  /// indexed backends override it to answer the whole batch natively
  /// (CellSortedEvaluationLayer sweeps its CSR key array once).
  virtual Result<std::vector<AggregateOps::State>> EvaluateCells(
      const GridCoord* coords, size_t count, double step);

  /// Evaluates independent box queries, results in input order; fans out
  /// across the shared pool when SupportsConcurrentEvaluate() allows it,
  /// else evaluates serially. Per-box results are bit-identical to
  /// EvaluateBox either way.
  Result<std::vector<AggregateOps::State>> EvaluateBoxes(
      const std::vector<std::vector<PScoreRange>>& boxes);

  /// True when EvaluateBox may be called from several threads at once —
  /// in practice: the layer is prepared and everything behind EvaluateBox
  /// is read-only except the atomic counters.
  virtual bool SupportsConcurrentEvaluate() const { return false; }

  /// Full refined query at per-dimension PScores `pscores`: box
  /// (-inf, pscores_i]. Returns the *final* aggregate value.
  Result<double> EvaluateQueryValue(const std::vector<double>& pscores);

  /// Attaches the memory budget this layer's materializations and per-call
  /// scratch are charged against (nullptr detaches). Charges accumulated
  /// while no budget was attached — e.g. a lazy Prepare() triggered by the
  /// processor's origin evaluation before the driver resolved the run's
  /// budget — are flushed to the new budget immediately, so the prepared
  /// footprint is never lost to attachment order.
  void set_memory_budget(MemoryBudget* budget) {
    budget_ = budget;
    if (budget_ != nullptr && pending_budget_bytes_ > 0) {
      budget_->Charge(pending_budget_bytes_);
      pending_budget_bytes_ = 0;
    }
  }

  const AcqTask& task() const { return *task_; }
  ExecStats stats() const {
    ExecStats s;
    s.queries = stats_.queries.load(std::memory_order_relaxed);
    s.tuples_scanned = stats_.tuples_scanned.load(std::memory_order_relaxed);
    s.prepare_ms = prepare_ms_;
    return s;
  }
  void ResetStats() {
    stats_.queries.store(0, std::memory_order_relaxed);
    stats_.tuples_scanned.store(0, std::memory_order_relaxed);
  }

 protected:
  /// Counters updated while answering queries. Atomic (relaxed) because
  /// EvaluateCells / EvaluateBoxes run concurrent EvaluateBox calls on the
  /// pool for layers that opt in via SupportsConcurrentEvaluate().
  struct AtomicExecStats {
    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> tuples_scanned{0};
  };

  /// Shared argument check for EvaluateBox implementations.
  Status CheckBox(const std::vector<PScoreRange>& box) const;

  /// Tallies `bytes` of layer-owned memory (prepared materializations,
  /// selection scratch) against the attached budget, or defers the charge
  /// until set_memory_budget attaches one. Never fails: exhaustion latches
  /// in the budget and the driver stops at its next poll.
  void ChargeBudget(uint64_t bytes) {
    if (bytes == 0) return;
    if (budget_ != nullptr) {
      budget_->Charge(bytes);
    } else {
      pending_budget_bytes_ += bytes;
    }
  }

  /// Charges a prepared footprint of `bytes` less what earlier builds of
  /// this layer already charged, so a growth rebuild pays only for the
  /// growth.
  void ChargePrepared(uint64_t bytes) {
    if (bytes <= prepared_bytes_) return;
    ChargeBudget(bytes - prepared_bytes_);
    prepared_bytes_ = bytes;
  }

  const AcqTask* task_;
  AtomicExecStats stats_;
  MemoryBudget* budget_ = nullptr;
  uint64_t pending_budget_bytes_ = 0;
  uint64_t prepared_bytes_ = 0;  // largest footprint ChargePrepared saw
  /// Build-cost observability (see ExecStats): written by Prepare, which
  /// runs before or between (never during) concurrent evaluation, so a
  /// plain field suffices.
  double prepare_ms_ = 0.0;
};

/// Scan-per-call layer; see EvaluationLayer docs.
class DirectEvaluationLayer final : public EvaluationLayer {
 public:
  explicit DirectEvaluationLayer(const AcqTask* task)
      : EvaluationLayer(task) {}

  Result<AggregateOps::State> EvaluateBox(
      const std::vector<PScoreRange>& box) override;

 private:
  bool scratch_charged_ = false;  // per-call vectors, charged once
};

/// Computes the needed-PScore vector of `row` under `task` (helper shared
/// by evaluation layers, baselines and tests).
void ComputeNeeded(const AcqTask& task, size_t row, std::vector<double>* out);

/// Grid level of a needed PScore at step `step`: level 0 admits exactly the
/// tuples the original predicate admits (needed == 0); level u > 0 covers
/// needed in ((u-1)*step, u*step]. Returns -1 for unreachable tuples.
/// Inline, and without a libm ceil call: the index builds call it for
/// every row and dimension.
inline int64_t PScoreLevel(double needed, double step) {
  if (std::isinf(needed)) return -1;
  if (needed <= 0.0) return 0;
  // ceil(q) for q > 0: truncation is the floor, plus one unless q is whole.
  const double q = needed / step;
  const int64_t floor = static_cast<int64_t>(q);
  return floor + (static_cast<double>(floor) < q ? 1 : 0);
}

/// The cell box of grid level `level` at step `step` on one dimension
/// (the inverse of PScoreLevel).
PScoreRange CellRangeForLevel(int64_t level, double step);

/// If `v` is (approximately) a non-negative integer multiple of `step`,
/// returns that multiple; otherwise -1.
int64_t AlignedGridMultiple(double v, double step);

/// Decomposes `box` into inclusive grid-level bounds per dimension when
/// every boundary is aligned to the `step` grid: dimension i covers levels
/// lo[i]..hi[i]. Returns false (outputs unspecified) when any boundary is
/// off-grid. A box that is exactly one cell yields lo == hi.
bool AlignedLevelBounds(const std::vector<PScoreRange>& box, double step,
                        std::vector<int64_t>* lo, std::vector<int64_t>* hi);

}  // namespace acquire

#endif  // ACQUIRE_EXEC_EVALUATION_H_

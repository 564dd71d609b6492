#ifndef ACQUIRE_CORE_RUN_CONTEXT_H_
#define ACQUIRE_CORE_RUN_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "common/memory_budget.h"
#include "common/status.h"

namespace acquire {

/// How a search run ended. Every value except kCompleted means the result
/// is a *partial* answer: the search stopped before its own stopping rules
/// (first hit layer / exhaustion / divergence) concluded, and `best` holds
/// the closest query found so far. Distinguishing these matters for the
/// serving path — "no answer exists within the explored region" and "the
/// budget ran out before we could tell" call for different client actions.
enum class RunTermination {
  kCompleted,          // the search's own stopping rules concluded
  kTruncated,          // AcquireOptions.max_explored exhausted
  kDeadlineExceeded,   // RunContext deadline passed
  kCancelled,          // RunContext::RequestCancel observed
  kClientSatisfied,    // RunContext::RequestClientStop observed (STOP verb)
  kResourceExhausted,  // MemoryBudget limit hit (or injected exhaustion)
};

/// Stable lowercase name ("completed", "truncated", "deadline_exceeded",
/// "cancelled", "client_satisfied", "resource_exhausted") — also the wire
/// form the ACQ server reports.
const char* RunTerminationToString(RunTermination t);

/// Converts a non-kCompleted termination to the matching error Status
/// (OK for kCompleted / kTruncated / kClientSatisfied, which still carry a
/// usable result).
Status TerminationToStatus(RunTermination t);

/// Point-in-time view of a running search, handed to a ProgressSink at the
/// layer-drain boundaries of both Explore drivers. All fields are plain
/// values copied on the run thread, so a sink may stash the snapshot or
/// serialize it without touching any live search state. `best_*` fields are
/// meaningful only when `has_best` is set (the origin layer may drain before
/// any on-grid refinement has been investigated).
struct ProgressSnapshot {
  uint64_t layers_drained = 0;   // equi-score layers fully investigated
  uint64_t queries_explored = 0;
  uint64_t cell_queries = 0;
  double elapsed_ms = 0.0;       // search wall time so far

  bool has_best = false;
  double best_error = 0.0;       // |agg(best) - target| under the error_fn
  double best_qscore = 0.0;      // Eq. 5 distance of best from the original
  double best_aggregate = 0.0;
  std::string best_description;  // refined predicate rendering of best

  // Evaluation-layer ExecStats counters, snapshotted at the layer boundary
  // (the layer's stats() struct is trivially copyable and only mutated by
  // the run thread, so a mid-run copy is exact, not torn).
  uint64_t eval_queries = 0;
  uint64_t tuples_scanned = 0;
  double prepare_ms = 0.0;
};

/// Cooperative deadline + cancellation token + progress counters threaded
/// through one ACQUIRE run (RunAcquire / RunAcquireContract / ProcessAcq via
/// AcquireOptions::run_ctx).
///
/// Threading model: one thread drives the run and is the only writer of
/// the progress counters; ShouldStop may additionally be polled by the
/// run's layer-prefetch worker, and any number of other threads may call
/// RequestCancel and read the progress counters concurrently. Deadline
/// setters are not thread-safe — arm them before the run starts. The
/// drivers poll at coordinate
/// granularity in the sequential explorer and at layer granularity in the
/// batched one, so an in-flight run stops within one layer's worth of work
/// and returns its best-so-far partial answer instead of blocking the
/// worker it runs on.
class RunContext {
 public:
  using Clock = std::chrono::steady_clock;

  RunContext() = default;
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  /// Arms the deadline. Call before the run starts.
  void set_deadline(Clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
    deadline_passed_.store(false, std::memory_order_relaxed);
  }

  /// Convenience: deadline = now + `ms` (non-positive arms an
  /// already-expired deadline, so the run stops at its first poll).
  void SetTimeoutMillis(double ms) {
    set_deadline(Clock::now() +
                 std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(ms)));
  }

  bool has_deadline() const { return has_deadline_; }

  /// Thread-safe; idempotent. The run observes it at the next poll.
  void RequestCancel() { cancel_.store(true, std::memory_order_relaxed); }

  bool cancel_requested() const {
    return cancel_.load(std::memory_order_relaxed);
  }

  /// Client-driven early stop ("good enough"): same cooperative path as
  /// RequestCancel, but the run terminates with kClientSatisfied and its
  /// best-so-far report is a *successful* partial answer, not an error.
  /// Thread-safe; idempotent.
  void RequestClientStop() {
    client_stop_.store(true, std::memory_order_relaxed);
  }

  bool client_stop_requested() const {
    return client_stop_.load(std::memory_order_relaxed);
  }

  /// The driver's fast poll: the cancellation flag is read every call, the
  /// clock only every kDeadlineStride calls (a steady_clock read costs an
  /// order of magnitude more than a relaxed load, and sequential Explore
  /// polls per coordinate). Once a clock read finds the deadline passed,
  /// every later poll answers true, like the cancel flags and the budget:
  /// a layer generation that stopped on the deadline must not be followed
  /// by a driver poll that says "keep going". Safe to call from the run
  /// thread and its layer prefetch worker concurrently.
  bool ShouldStop() {
    if (cancel_requested()) return true;
    if (client_stop_requested()) return true;
    if (budget_.exhausted()) return true;
    if (!has_deadline_) return false;
    if (deadline_passed_.load(std::memory_order_relaxed)) return true;
    if (poll_count_.fetch_add(1, std::memory_order_relaxed) %
            kDeadlineStride !=
        0) {
      return false;
    }
    if (Clock::now() < deadline_) return false;
    deadline_passed_.store(true, std::memory_order_relaxed);
    return true;
  }

  /// Definitive classification for the result: cancellation wins over the
  /// client stop (CANCEL discards, STOP keeps — the discard is the stronger
  /// request), which wins over resource exhaustion, which wins over the
  /// deadline (it names the actual cause; a budget-stopped run usually
  /// blows its deadline while draining too). The clock is always consulted.
  /// kCompleted when nothing fired.
  RunTermination Interruption() const {
    if (cancel_requested()) return RunTermination::kCancelled;
    if (client_stop_requested()) return RunTermination::kClientSatisfied;
    if (budget_.exhausted()) return RunTermination::kResourceExhausted;
    if (has_deadline_ && Clock::now() >= deadline_) {
      return RunTermination::kDeadlineExceeded;
    }
    return RunTermination::kCompleted;
  }

  /// The run's cooperative memory budget (see MemoryBudget). Configure the
  /// limit before the run; the drivers wire it into the aggregate store and
  /// the expand generator, and fold exhaustion into ShouldStop.
  MemoryBudget& budget() { return budget_; }
  const MemoryBudget& budget() const { return budget_; }

  /// Receives throttled ProgressSnapshots on the *run thread*. Must be fast
  /// and must not re-enter the run (it executes between layers, so a slow
  /// sink directly stretches the search).
  using ProgressSink = std::function<void(const ProgressSnapshot&)>;

  /// Arms the progress sink. Call before the run starts (not thread-safe
  /// against an in-flight run). `interval_ms` <= 0 emits a frame at every
  /// layer drain; otherwise drains inside the interval are coalesced and
  /// only the first drain at/after each interval boundary emits.
  void ArmProgressSink(ProgressSink sink, double interval_ms) {
    progress_sink_ = std::move(sink);
    progress_interval_ms_ = interval_ms;
    progress_emitted_ = false;
  }

  bool progress_armed() const { return static_cast<bool>(progress_sink_); }

  /// Layer-drain hook for the Explore drivers: bumps `layers_drained` and,
  /// when a sink is armed and the throttle window has elapsed, builds one
  /// snapshot — pre-seeded with this context's counters — lets `fill`
  /// complete it (best-so-far, ExecStats) and hands it to the sink. `fill`
  /// only runs when a frame is actually emitted, so Describe()-style
  /// rendering costs nothing on coalesced drains. Run-thread only.
  template <typename Fill>
  void LayerDrained(Fill&& fill) {
    const uint64_t layers =
        layers_drained.fetch_add(1, std::memory_order_relaxed) + 1;
    if (!progress_sink_) return;
    const Clock::time_point now = Clock::now();
    if (progress_emitted_ && progress_interval_ms_ > 0 &&
        std::chrono::duration<double, std::milli>(now - last_emit_).count() <
            progress_interval_ms_) {
      return;
    }
    progress_emitted_ = true;
    last_emit_ = now;
    ProgressSnapshot snap;
    snap.layers_drained = layers;
    snap.queries_explored = queries_explored.load(std::memory_order_relaxed);
    snap.cell_queries = cell_queries.load(std::memory_order_relaxed);
    fill(&snap);
    progress_sink_(snap);
  }

  /// Progress counters, written (relaxed) by the run thread as the search
  /// advances and read by observers (the server's STATUS handler).
  std::atomic<uint64_t> queries_explored{0};
  std::atomic<uint64_t> cell_queries{0};
  std::atomic<uint64_t> layers_drained{0};

 private:
  static constexpr uint64_t kDeadlineStride = 32;

  std::atomic<bool> cancel_{false};
  std::atomic<bool> client_stop_{false};
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  std::atomic<uint64_t> poll_count_{0};
  std::atomic<bool> deadline_passed_{false};  // a poll saw the deadline
  MemoryBudget budget_;

  ProgressSink progress_sink_;
  double progress_interval_ms_ = 0.0;
  bool progress_emitted_ = false;   // run-thread only (throttle state)
  Clock::time_point last_emit_{};   // run-thread only
};

}  // namespace acquire

#endif  // ACQUIRE_CORE_RUN_CONTEXT_H_

#ifndef ACQUIRE_SERVER_SESSION_H_
#define ACQUIRE_SERVER_SESSION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/fingerprint.h"
#include "core/processor.h"
#include "core/run_context.h"
#include "server/result_cache.h"
#include "storage/catalog.h"

namespace acquire {

/// Lifecycle of one submitted ACQ. Terminal states are kDone (a report is
/// available — including deadline-exceeded and truncated runs, whose
/// reports are partial; see AcquireResult::termination), kCancelled (a
/// CANCEL was observed, queued or mid-run; a mid-run cancel still carries
/// the partial report) and kFailed (bind/plan/execution error).
enum class SessionState { kQueued, kRunning, kDone, kCancelled, kFailed };

const char* SessionStateToString(SessionState state);

/// One admitted ACQ request: the SQL text, the per-run options, the
/// RunContext the drivers poll, and — once terminal — the outcome.
/// State transitions happen under `mu` and are announced on `cv`.
class Session {
 public:
  Session(std::string id, std::string sql, AcquireOptions options);

  const std::string& id() const { return id_; }
  const std::string& sql() const { return sql_; }

  /// Thread-safe snapshot accessors.
  SessionState state() const;
  /// Blocks until the session reaches a terminal state.
  void WaitDone();

  /// Requests cooperative cancellation; the run (if any) observes it at
  /// its next poll. Returns false when the session was already terminal.
  bool RequestCancel();

  /// Client-driven early stop (the STOP verb): the run observes it at its
  /// next poll and finishes kDone with termination "client_satisfied" and a
  /// well-formed best-so-far report — unlike RequestCancel, whose report is
  /// the error-shaped "cancelled". Returns false when already terminal.
  bool RequestClientStop();

  /// Consistent copy for protocol rendering: terminal details (error /
  /// outcome / task for answer rendering) plus live progress counters, which
  /// are meaningful for running sessions too.
  struct View {
    SessionState state = SessionState::kQueued;
    Status error;
    bool has_outcome = false;
    AcqOutcome outcome;
    std::shared_ptr<const AcqTask> task;
    /// Set when this session was served from the result cache (an admission
    /// hit, an in-flight follower, or the seeding leader itself): the
    /// pre-rendered report to reply with, byte-identical across all of them.
    CachedResultPtr cached;
    double wall_ms = 0.0;
    uint64_t queries_explored = 0;
    uint64_t cell_queries = 0;
  };
  View Snapshot() const;

  RunContext& ctx() { return ctx_; }

 private:
  friend class SessionManager;

  const std::string id_;
  const std::string sql_;
  AcquireOptions options_;  // run_ctx is pointed at ctx_ before the run
  EvalBackend backend_ = EvalBackend::kAuto;
  RunContext ctx_;
  const RunContext::Clock::time_point submitted_at_;

  /// Task fingerprint, computed at admission when the result cache is
  /// enabled and the task is cacheable; keys the cache and the in-flight
  /// dedup map. Immutable after Submit. `fp_generation_` is the catalog
  /// generation the fingerprint was computed under: a session that runs
  /// after an APPEND moved the catalog past it computes a fresh answer but
  /// must NOT seed the cache under the stale fingerprint.
  TaskFingerprint fp_{};
  bool has_fp_ = false;
  uint64_t fp_generation_ = 0;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  SessionState state_ = SessionState::kQueued;
  Status error_;                            // when kFailed
  AcqOutcome outcome_;                      // when kDone / mid-run kCancelled
  bool has_outcome_ = false;                // outcome_ is meaningful
  std::shared_ptr<AcqTask> task_;           // keeps rendering inputs alive
  CachedResultPtr cached_;                  // cache-served reply (see View)
  double wall_ms_ = 0.0;                    // submit -> terminal
};

using SessionPtr = std::shared_ptr<Session>;

/// Server-wide monotonic counters, readable while serving (STATS verb).
struct ServerCounters {
  uint64_t submitted = 0;
  uint64_t rejected = 0;   // admission queue full
  uint64_t completed = 0;  // kDone with termination == completed
  uint64_t truncated = 0;  // kDone with termination == truncated
  uint64_t deadline_exceeded = 0;
  uint64_t cancelled = 0;
  uint64_t client_satisfied = 0;  // kDone with termination == client_satisfied
  uint64_t resource_exhausted = 0;  // kDone with termination == resource_exhausted
  uint64_t failed = 0;
  /// PROGRESS frames emitted by this manager's runs (throttle-passed layer
  /// drains handed to the session's progress callback; a frame the server
  /// later drops via the server.progress_emit failpoint still counts here).
  uint64_t progress_frames = 0;
  /// Per-run ExecStats / result counters folded together across finished
  /// runs — the serving system's cumulative work.
  uint64_t queries_explored = 0;
  uint64_t cell_queries = 0;
  uint64_t eval_queries = 0;    // evaluation-layer box queries
  uint64_t tuples_scanned = 0;
  uint64_t run_micros = 0;      // summed AcquireResult::elapsed_ms
  /// Submissions that joined an identical in-flight task instead of
  /// running (they wait on the leader's result). Cache-served sessions —
  /// admission hits and followers — bump only `submitted` plus this /
  /// the cache's hit counter: the termination counters above count
  /// executed runs.
  uint64_t cache_inflight_joins = 0;
  /// Submissions short-circuited to kFailed by the negative cache (a plan
  /// that already failed deterministically >= kNegativeThreshold times);
  /// they bump only `submitted` plus this — no slot, no run, no `failed`.
  uint64_t cache_negative_served = 0;
  /// Index-build work folded across finished runs (ExecStats::prepare_ms in
  /// microseconds). STATS-only.
  uint64_t prepare_micros = 0;
  /// Live ingestion through SessionManager::AppendRows: successful APPEND
  /// batches and the rows they landed.
  uint64_t appends = 0;
  uint64_t append_rows = 0;
};

class ResourceGovernor;

/// Write-ahead durability seam for live ingestion (implemented by
/// TenantDurability in server/durability.h; null = no durability). Both
/// methods run under the manager's exclusive data lock, already serialized
/// against every append and catalog read, so implementations need no
/// locking of their own against the append path.
class DurabilityHook {
 public:
  virtual ~DurabilityHook() = default;

  /// Called after the batch validated (Catalog::ValidateAppend passed) and
  /// before it applies. An error fails the APPEND with nothing applied and
  /// nothing retained in the log — kResourceExhausted is the disk-quota
  /// rejection. `catalog` is the pre-apply state (its generation + 1 is the
  /// generation the batch will create).
  virtual Status LogAppend(const Catalog& catalog, const std::string& table,
                           const std::vector<std::vector<Value>>& rows) = 0;

  /// Called after the batch applied and the generation bumped. Must not
  /// fail the append (it already happened); implementations checkpoint here
  /// when their append interval elapses.
  virtual void CommitApplied(const Catalog& catalog) = 0;
};

/// Streaming opt-in for one submission (SUBMIT "progress":{...}): when
/// `enabled`, the manager arms the session context's throttled ProgressSink
/// before launch, so frames cover the run from its first drained layer. The
/// callback runs on the run thread between layers — it must be fast and must
/// not call back into the manager (it may touch the session it is given).
/// Cache-served submissions (admission hits, in-flight followers, negative
/// hits) execute nothing and therefore stream nothing: the final reply is
/// their only frame.
struct SessionProgress {
  std::function<void(const Session&, const ProgressSnapshot&)> callback;
  double interval_ms = 0.0;  // <= 0: one frame per drained layer
  bool enabled = false;
};

struct SessionManagerOptions {
  /// Runs executing concurrently on the shared thread pool. 0 sizes to
  /// half the pool (at least 1): each run fans its own layer batches out
  /// across the same pool, so saturating it with run bodies would leave no
  /// headroom for the data-parallel leaves.
  size_t max_running = 0;
  /// Admitted-but-not-yet-running bound; beyond it SUBMIT is rejected
  /// with kUnavailable (backpressure instead of unbounded memory).
  size_t max_queued = 64;
  /// Result-cache byte limit. 0 (the default) disables both the cache and
  /// the in-flight deduplication of identical tasks, preserving the
  /// pre-cache serving behavior exactly.
  uint64_t cache_bytes = 0;
  /// Session-id prefix ("s-" yields the historical ids; tenants use
  /// "<tenant>-s-"), so ids stay unique — and routable — across managers.
  std::string session_prefix = "s-";
  /// When set, run slots are granted by this governor (global fair-share
  /// across all managers registered with it) instead of the local
  /// running_ < max_running check, queued sessions are dispatched by its
  /// weighted schedule rather than pulled directly by the finishing
  /// runner, and per-run memory budgets are clamped to the tenant's carved
  /// share. The governor must outlive the manager and the manager must be
  /// Register()ed before serving. Null (the default) preserves the
  /// standalone single-manager behavior exactly.
  ResourceGovernor* governor = nullptr;
  /// When set, AppendRows follows write-ahead discipline: validate, log
  /// through the hook (fsynced per its policy), apply, ack — so every acked
  /// batch is recoverable and a rejected one leaves the log byte-identical.
  /// Must outlive the manager. Null (the default) = in-memory only.
  DurabilityHook* durability = nullptr;
};

/// Binds sessions against a shared Catalog and schedules them
/// onto the process-wide persistent ThreadPool with bounded admission:
/// at most `max_running` run bodies occupy pool tasks at once, at most
/// `max_queued` admitted requests wait behind them, and everything beyond
/// that is rejected immediately.
///
/// Catalog mutation: with the const-catalog constructor the catalog must
/// not be mutated while a manager serves from it. The mutable-catalog
/// constructor additionally enables AppendRows (live ingestion), which is
/// the ONLY permitted mutation: it takes the manager's data lock
/// exclusively, so it serializes against every catalog-reading section
/// (admission fingerprinting and run bodies, which hold the lock shared).
/// Each successful append bumps the catalog generation, so fingerprinted
/// cache entries and negative plan-cache entries from before the append
/// can never be served afterwards.
///
/// With cache_bytes > 0 admission additionally consults a fingerprinted
/// result cache: a submission matching a completed run finishes immediately
/// from the cached reply (no slot, no queue), and one matching a task still
/// in flight joins it as a follower, waiting on the leader's session
/// instead of re-running. Only completed runs are inserted; when a leader
/// ends any other way (failed / cancelled / truncated / exhausted) its
/// oldest follower is promoted to run fresh on the same slot, so a poisoned
/// leader never poisons its duplicates.
class SessionManager {
 public:
  SessionManager(const Catalog* catalog, SessionManagerOptions options);

  /// Mutable-catalog overload: identical serving behavior, plus AppendRows
  /// becomes available.
  SessionManager(Catalog* catalog, SessionManagerOptions options);

  /// Cancels everything and waits for in-flight runs to drain.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Admission: schedules or queues the request, or fails with
  /// kUnavailable when the queue is full. `options.run_ctx` is overwritten
  /// to point at the session's own context. `backend` (when not kAuto)
  /// overrides the planned task's evaluation backend. `progress` (when
  /// enabled) streams throttled per-layer ProgressSnapshots to its callback
  /// while the run executes (see SessionProgress).
  Result<SessionPtr> Submit(std::string sql, AcquireOptions options,
                            double timeout_ms,
                            EvalBackend backend = EvalBackend::kAuto,
                            SessionProgress progress = {});

  /// NotFound for unknown ids.
  Result<SessionPtr> Find(const std::string& id) const;

  /// Cancels a session by id: a queued session finishes as kCancelled
  /// without running; a running one is interrupted at its next poll.
  Result<SessionPtr> Cancel(const std::string& id);

  /// Client-driven early stop by id ("good enough"): a running session is
  /// interrupted at its next poll and finishes kDone with termination
  /// "client_satisfied" and its best-so-far report; a queued one resolves
  /// the same way with an empty report, without running. Unlike Cancel, an
  /// in-flight follower is left attached: its leader keeps running and the
  /// follower still gets the full result (a strictly better answer than any
  /// partial). NotFound for unknown ids; a terminal session is returned
  /// unchanged.
  Result<SessionPtr> Stop(const std::string& id);

  /// Cancels every non-terminal session and blocks until no session is
  /// queued or running (pool tasks all returned — nothing leaks).
  void Shutdown();

  ServerCounters counters() const;
  size_t num_running() const;
  size_t num_queued() const;
  /// The resolved concurrent-run bound (options.max_running with 0
  /// expanded to half the pool); under a governor this also caps the
  /// tenant's share of the global slots.
  size_t max_running() const { return max_running_; }

  /// Governed dispatch (called by the ResourceGovernor only, never with
  /// the governor lock held): launches the oldest queued session on the
  /// slot the governor just granted. False when the queue is empty — the
  /// caller rolls the tentative grant back. Must not be called while any
  /// lock of this manager is held.
  bool DispatchOneQueued();

  /// Appends `rows` to `table` atomically under the exclusive data lock:
  /// no fingerprint is computed and no run plans/executes while the catalog
  /// moves. Unsupported when the manager was constructed over a const
  /// catalog; otherwise forwards Catalog::AppendRows (all-or-nothing per
  /// batch) and, on success, bumps the appends / append_rows counters.
  /// Running sessions finish against the snapshot they started from; the
  /// generation bump makes their cached renders unseedable (stale) and
  /// invalidates prior cache/negative entries for future submissions.
  Status AppendRows(const std::string& table,
                    const std::vector<std::vector<Value>>& rows);

  const Catalog& catalog() const { return *catalog_; }

  /// The result cache (disabled when cache_bytes was 0; see ResultCache).
  ResultCache& cache() { return cache_; }

 private:
  /// One fingerprint's in-flight task: the session executing it and the
  /// duplicate submissions waiting on its result. Guarded by mu_.
  struct Inflight {
    SessionPtr leader;
    std::vector<SessionPtr> followers;
  };

  /// Requires mu_. Mints the next session id under options_.session_prefix.
  std::string NextIdLocked();

  /// Parses/binds `sql` and fingerprints the task. False (leaving *fp
  /// untouched) when the SQL does not parse/bind or the task is
  /// uncacheable — the submission then takes the plain uncached path.
  bool ComputeFingerprint(const std::string& sql,
                          const AcquireOptions& options, EvalBackend backend,
                          TaskFingerprint* fp) const;

  /// Publishes `session` terminal kDone served from `cached` (counters
  /// adopted, waiters notified). Touches only the session.
  void PublishFromCache(const SessionPtr& session,
                        const CachedResultPtr& cached);
  /// Publishes kCancelled if not already terminal. Touches only the session.
  void PublishCancelled(const SessionPtr& session);

  /// Requires mu_. Resolves the in-flight entry led by `session`:
  /// completed (cached != null) -> insert into the cache and return the
  /// followers to serve from it; otherwise promote the oldest follower as
  /// the new leader via *promoted (it takes over the caller's runner slot)
  /// — unless shutting down, in which case every follower is returned in
  /// *cancel with its `cancelled` counter already bumped (after the slot
  /// release the manager may be destroyed, so counters must move here).
  void ResolveInflightLocked(const SessionPtr& session,
                             const CachedResultPtr& cached,
                             SessionPtr* promoted,
                             std::vector<SessionPtr>* serve,
                             std::vector<SessionPtr>* cancel);

  /// Submits a runner-loop pool task for `session`; the runner keeps its
  /// running slot and drains the queue before releasing it.
  void Launch(SessionPtr session);
  /// Runs one session to its terminal state. Hands back the next queued
  /// session (or releases the running slot) in `*next` BEFORE publishing
  /// the terminal state, so a waiter released by the notify observes the
  /// slot already accounted for in num_running()/num_queued().
  void RunSession(const SessionPtr& session, SessionPtr* next);

  /// Hands the slot bookkeeping of a finishing (or enqueue-failed) runner
  /// to the next owner: a promoted follower wins the slot directly;
  /// otherwise an ungoverned manager pulls its own queue head or releases
  /// the slot, while a governed one returns the slot to the governor —
  /// which re-dispatches across every tenant — and then decrements
  /// running_. Takes mu_ (and, governed, calls the governor, so mu_ must
  /// not be held on entry). After it returns with *next == nullptr the
  /// manager may be destroyed by Shutdown: callers may touch only
  /// sessions past that point.
  void FinishSlot(const SessionPtr& session, const CachedResultPtr& cached,
                  SessionPtr* next, std::vector<SessionPtr>* serve,
                  std::vector<SessionPtr>* cancel);

  const Catalog* catalog_;
  /// Non-null only via the mutable-catalog constructor; aliases catalog_.
  Catalog* mutable_catalog_ = nullptr;
  const SessionManagerOptions options_;
  const size_t max_running_;
  /// Aliases options_.governor; null = standalone (ungoverned) manager.
  ResourceGovernor* const governor_;

  /// Reader/writer gate between catalog readers and AppendRows. Shared:
  /// Submit's fingerprint/negative-lookup section and RunSession's
  /// plan/run/render section. Exclusive: AppendRows. Lock order: data_mu_
  /// strictly before mu_ / counters_mu_; nothing acquires data_mu_ while
  /// holding either.
  mutable std::shared_mutex data_mu_;

  ResultCache cache_;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;  // signalled when running+queued drops
  uint64_t next_id_ = 1;
  size_t running_ = 0;
  bool shutdown_ = false;
  std::deque<SessionPtr> queue_;
  std::map<std::string, SessionPtr> sessions_;
  std::unordered_map<TaskFingerprint, Inflight, TaskFingerprintHash>
      inflight_;  // under mu_

  mutable std::mutex counters_mu_;
  ServerCounters counters_;
};

}  // namespace acquire

#endif  // ACQUIRE_SERVER_SESSION_H_

#include "server/session.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "exec/thread_pool.h"
#include "server/tenant.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace acquire {

namespace {

using Clock = std::chrono::steady_clock;

bool IsTerminal(SessionState state) {
  return state == SessionState::kDone || state == SessionState::kCancelled ||
         state == SessionState::kFailed;
}

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Negative-cache key: the raw SQL text plus the catalog generation (a
/// reload that could make the plan succeed invalidates the key). NOT the
/// task fingerprint — plans that fail usually cannot be fingerprinted.
/// Options are deliberately excluded: only parse/bind failures are
/// recorded, and those depend on nothing but (sql, catalog).
uint64_t NegativeKey(const Catalog& catalog, const std::string& sql) {
  uint64_t h = 1469598103934665603ULL ^ catalog.generation();
  for (unsigned char c : sql) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Only failures that are pure functions of (sql, catalog) may be served
/// from the negative cache. Transient conditions (unavailable, resource
/// exhausted, internal, IO) must retry for real.
bool IsDeterministicPlanFailure(const Status& error) {
  switch (error.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kNotImplemented:
    case StatusCode::kParseError:
    case StatusCode::kTypeError:
    case StatusCode::kUnsupported:
      return true;
    default:
      return false;
  }
}

}  // namespace

const char* SessionStateToString(SessionState state) {
  switch (state) {
    case SessionState::kQueued:
      return "queued";
    case SessionState::kRunning:
      return "running";
    case SessionState::kDone:
      return "done";
    case SessionState::kCancelled:
      return "cancelled";
    case SessionState::kFailed:
      return "failed";
  }
  return "unknown";
}

Session::Session(std::string id, std::string sql, AcquireOptions options)
    : id_(std::move(id)),
      sql_(std::move(sql)),
      options_(std::move(options)),
      submitted_at_(Clock::now()) {
  options_.run_ctx = &ctx_;
}

SessionState Session::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

void Session::WaitDone() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return IsTerminal(state_); });
}

bool Session::RequestCancel() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (IsTerminal(state_)) return false;
  }
  ctx_.RequestCancel();
  return true;
}

bool Session::RequestClientStop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (IsTerminal(state_)) return false;
  }
  ctx_.RequestClientStop();
  return true;
}

Session::View Session::Snapshot() const {
  View view;
  {
    std::lock_guard<std::mutex> lock(mu_);
    view.state = state_;
    view.error = error_;
    view.has_outcome = has_outcome_;
    if (has_outcome_) view.outcome = outcome_;
    view.task = task_;
    view.cached = cached_;
    view.wall_ms = wall_ms_;
  }
  view.queries_explored = ctx_.queries_explored.load(std::memory_order_relaxed);
  view.cell_queries = ctx_.cell_queries.load(std::memory_order_relaxed);
  return view;
}

SessionManager::SessionManager(const Catalog* catalog,
                               SessionManagerOptions options)
    : catalog_(catalog),
      options_(options),
      max_running_(options.max_running != 0
                       ? options.max_running
                       : std::max<size_t>(
                             1, ThreadPool::Shared().num_threads() / 2)),
      governor_(options.governor),
      cache_(options.cache_bytes) {}

SessionManager::SessionManager(Catalog* catalog, SessionManagerOptions options)
    : SessionManager(static_cast<const Catalog*>(catalog), options) {
  mutable_catalog_ = catalog;
}

SessionManager::~SessionManager() { Shutdown(); }

std::string SessionManager::NextIdLocked() {
  return StringFormat("%s%llu", options_.session_prefix.c_str(),
                      static_cast<unsigned long long>(next_id_++));
}

Status SessionManager::AppendRows(
    const std::string& table, const std::vector<std::vector<Value>>& rows) {
  if (mutable_catalog_ == nullptr) {
    return Status::Unsupported(
        "catalog is read-only (manager was constructed over a const "
        "catalog)");
  }
  {
    // Exclusive against every catalog-reading shared section: no admission
    // fingerprint and no run body observes a half-applied batch, and a
    // batch never lands between a run's execution and its cache render.
    std::unique_lock<std::shared_mutex> data_lock(data_mu_);
    if (rows.empty() || options_.durability == nullptr) {
      // Empty batches change nothing (no generation bump), so they are
      // never logged; an empty-batch APPEND before and after leaves the
      // log byte-identical.
      ACQ_RETURN_IF_ERROR(mutable_catalog_->AppendRows(table, rows));
    } else {
      // Write-ahead discipline: validate -> log (synced per policy) ->
      // apply -> ack. A batch that fails validation or the log never
      // touches the catalog and leaves the log byte-identical; a logged
      // batch cannot fail to apply (ValidateAppend passed under this same
      // exclusive lock).
      ACQ_RETURN_IF_ERROR(mutable_catalog_->ValidateAppend(table, rows));
      ACQ_RETURN_IF_ERROR(
          options_.durability->LogAppend(*mutable_catalog_, table, rows));
      ACQ_RETURN_IF_ERROR(mutable_catalog_->AppendRows(table, rows));
      options_.durability->CommitApplied(*mutable_catalog_);
    }
  }
  std::lock_guard<std::mutex> clock(counters_mu_);
  ++counters_.appends;
  counters_.append_rows += rows.size();
  return Status::OK();
}

Result<SessionPtr> SessionManager::Submit(std::string sql,
                                          AcquireOptions options,
                                          double timeout_ms,
                                          EvalBackend backend,
                                          SessionProgress progress) {
  if (ACQ_FAILPOINT("server.admit")) {
    std::lock_guard<std::mutex> clock(counters_mu_);
    ++counters_.rejected;
    return Status::Unavailable(
        "injected admission rejection (failpoint server.admit)");
  }
  // Injected fair-share admission rejection: models the governor denying a
  // tenant under cross-tenant pressure. Only meaningful for governed
  // managers; the reply surfaces as a well-formed ResourceExhausted error.
  if (governor_ != nullptr && ACQ_FAILPOINT("server.tenant_admission")) {
    std::lock_guard<std::mutex> clock(counters_mu_);
    ++counters_.rejected;
    return Status::ResourceExhausted(
        "injected tenant admission rejection "
        "(failpoint server.tenant_admission)");
  }

  // The catalog-reading part of admission — negative-cache key, fingerprint
  // and the generation it was computed under — runs inside the shared data
  // lock so a concurrent AppendRows can't move the catalog mid-read
  // (fingerprint folds the generation in; tearing the two apart would let a
  // stale fingerprint carry a fresh generation or vice versa).
  Status negative;
  bool negative_hit = false;
  TaskFingerprint fp;
  bool has_fp = false;
  uint64_t fp_generation = 0;
  {
    std::shared_lock<std::shared_mutex> data_lock(data_mu_);
    negative_hit = cache_.LookupFailure(NegativeKey(*catalog_, sql), &negative);
    if (!negative_hit) {
      // Fingerprint before taking mu_: parsing/binding is pure and touches
      // only the catalog (read-locked here). Any failure just means
      // "uncacheable" and the submission proceeds exactly as it did before
      // the cache existed.
      has_fp =
          cache_.enabled() && ComputeFingerprint(sql, options, backend, &fp);
      fp_generation = catalog_->generation();
    }
  }

  // Negative cache: a plan that already failed deterministically (same SQL,
  // same catalog generation) at least kNegativeThreshold times fails
  // immediately — no slot, no queue entry, no re-plan.
  if (negative_hit) {
    SessionPtr session;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutdown_) return Status::Unavailable("session manager shut down");
      session = std::make_shared<Session>(NextIdLocked(), std::move(sql),
                                          std::move(options));
      session->backend_ = backend;
      sessions_.emplace(session->id(), session);
    }
    {
      std::lock_guard<std::mutex> clock(counters_mu_);
      ++counters_.submitted;
      ++counters_.cache_negative_served;
    }
    {
      std::lock_guard<std::mutex> lock(session->mu_);
      session->state_ = SessionState::kFailed;
      session->error_ = std::move(negative);
      session->wall_ms_ = MillisSince(session->submitted_at_);
      session->cv_.notify_all();
    }
    return session;
  }

  // Cache hit: finish immediately from the stored reply — no running slot,
  // no queue entry, no deadline (the work is already done).
  if (has_fp) {
    if (CachedResultPtr cached = cache_.Lookup(fp)) {
      SessionPtr session;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (shutdown_) return Status::Unavailable("session manager shut down");
        session = std::make_shared<Session>(NextIdLocked(), std::move(sql),
                                            std::move(options));
        session->backend_ = backend;
        session->fp_ = fp;
        session->has_fp_ = true;
        session->fp_generation_ = fp_generation;
        sessions_.emplace(session->id(), session);
      }
      {
        std::lock_guard<std::mutex> clock(counters_mu_);
        ++counters_.submitted;
      }
      PublishFromCache(session, cached);
      return session;
    }
  }

  // Governed memory carve-up: clamp this run's budget to the tenant's
  // share before the session captures its options. Fingerprints exclude
  // budgets, so the clamp never perturbs cache keys.
  if (governor_ != nullptr) {
    options.memory_budget_bytes =
        governor_->GovernMemoryBudget(this, options.memory_budget_bytes);
  }

  // Governed slot acquisition happens before mu_ (the governor lock is
  // taken while holding no manager lock, never the other way around) and
  // strictly after the negative/cache-hit paths above, so cache hits keep
  // consuming no slot. A slot granted here implies running_ < max_running_:
  // the governor caps this manager's outstanding grants at max_running_ and
  // only slot-holding paths increment running_.
  bool slot = false;
  if (governor_ != nullptr) slot = governor_->TryAcquireRunSlot(this);

  SessionPtr session;
  bool launch = false;
  bool joined = false;
  bool queued = false;
  Status reject;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      reject = Status::Unavailable("session manager shut down");
    } else if (auto inflight_it = has_fp ? inflight_.find(fp) : inflight_.end();
               inflight_it != inflight_.end()) {
      // Identical task already in flight: join it as a follower instead of
      // running again. Followers hold no slot and no queue entry (they are
      // pure waiters), so they bypass the admission-full check.
      session = std::make_shared<Session>(NextIdLocked(), std::move(sql),
                                          std::move(options));
      session->backend_ = backend;
      session->fp_ = fp;
      session->has_fp_ = true;
      session->fp_generation_ = fp_generation;
      if (timeout_ms > 0.0) session->ctx_.SetTimeoutMillis(timeout_ms);
      sessions_.emplace(session->id(), session);
      inflight_it->second.followers.push_back(session);
      joined = true;
    } else {
      const bool can_run =
          governor_ != nullptr ? slot : running_ < max_running_;
      if (!can_run && queue_.size() >= options_.max_queued) {
        std::lock_guard<std::mutex> clock(counters_mu_);
        ++counters_.rejected;
        reject = Status::Unavailable(
            StringFormat("admission queue full (%zu running, %zu queued)",
                         running_, queue_.size()));
      } else {
        session = std::make_shared<Session>(NextIdLocked(), std::move(sql),
                                            std::move(options));
        session->backend_ = backend;
        if (has_fp) {
          session->fp_ = fp;
          session->has_fp_ = true;
          session->fp_generation_ = fp_generation;
          inflight_.emplace(fp, Inflight{session, {}});
        }
        // The deadline clock starts at admission, so queue wait counts
        // against the caller's budget -- a request that waited out its
        // deadline in the queue finishes immediately as kDeadlineExceeded
        // instead of running.
        if (timeout_ms > 0.0) session->ctx_.SetTimeoutMillis(timeout_ms);
        // Arm streaming before the session can launch (or even queue): the
        // sink must cover the run from its first drained layer. The manager
        // interposes only to tally the frame; emission happens on the run
        // thread strictly before RunSession's terminal publish, so by the
        // time WaitDone returns no further frame can be in flight — the
        // final reply is always the last line of a streaming exchange.
        if (progress.enabled && progress.callback) {
          Session* raw = session.get();
          session->ctx_.ArmProgressSink(
              [this, raw, cb = std::move(progress.callback)](
                  const ProgressSnapshot& snap) {
                {
                  std::lock_guard<std::mutex> clock(counters_mu_);
                  ++counters_.progress_frames;
                }
                cb(*raw, snap);
              },
              progress.interval_ms);
        }
        sessions_.emplace(session->id(), session);
        if (can_run) {
          ++running_;
          launch = true;
        } else {
          queue_.push_back(session);
          queued = true;
        }
      }
    }
  }
  // An acquired slot that didn't launch (shutdown, follower join, or a
  // reject — the last is impossible with a slot, but harmless) goes back to
  // the governor, which may hand it straight to a queued tenant.
  if (governor_ != nullptr && slot && !launch) governor_->ReleaseRunSlot(this);
  if (!reject.ok()) return reject;
  {
    std::lock_guard<std::mutex> clock(counters_mu_);
    ++counters_.submitted;
    if (joined) ++counters_.cache_inflight_joins;
  }
  if (launch) {
    Launch(session);
  } else if (queued && governor_ != nullptr) {
    // Closes the enqueue/dispatch race: a slot freed between our failed
    // TryAcquire and the push_back above would have scanned an empty queue.
    governor_->NotifyQueued(this);
  }
  return session;
}

bool SessionManager::DispatchOneQueued() {
  SessionPtr session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    session = queue_.front();
    queue_.pop_front();
    ++running_;
  }
  // During shutdown the session still launches: its runner observes the
  // cancel request immediately and publishes kCancelled, which is exactly
  // how queued sessions drain (Shutdown waits for running_ to hit zero).
  Launch(std::move(session));
  return true;
}

bool SessionManager::ComputeFingerprint(const std::string& sql,
                                        const AcquireOptions& options,
                                        EvalBackend backend,
                                        TaskFingerprint* fp) const {
  Result<AstQuery> ast = ParseAcqSql(sql);
  if (!ast.ok()) return false;
  Binder binder(catalog_);
  Result<QuerySpec> spec = binder.BindQuery(*ast);
  if (!spec.ok()) return false;
  // A SUBMIT-level backend override beats the spec's choice at run time
  // (RunSession applies it to the planned task), so it must key the cache.
  if (backend != EvalBackend::kAuto) spec->eval_backend = backend;
  Result<TaskFingerprint> result = FingerprintTask(*catalog_, *spec, options);
  if (!result.ok()) return false;
  *fp = *result;
  return true;
}

void SessionManager::PublishFromCache(const SessionPtr& session,
                                      const CachedResultPtr& cached) {
  // Adopt the seeding run's progress counters first, so a STATUS racing the
  // notify never reports done with zero progress.
  session->ctx_.queries_explored.store(cached->queries_explored,
                                       std::memory_order_relaxed);
  session->ctx_.cell_queries.store(cached->cell_queries,
                                   std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(session->mu_);
  if (IsTerminal(session->state_)) return;
  session->state_ = SessionState::kDone;
  session->cached_ = cached;
  session->wall_ms_ = MillisSince(session->submitted_at_);
  session->cv_.notify_all();
}

void SessionManager::PublishCancelled(const SessionPtr& session) {
  std::lock_guard<std::mutex> lock(session->mu_);
  if (IsTerminal(session->state_)) return;
  session->state_ = SessionState::kCancelled;
  session->wall_ms_ = MillisSince(session->submitted_at_);
  session->cv_.notify_all();
}

void SessionManager::ResolveInflightLocked(const SessionPtr& session,
                                           const CachedResultPtr& cached,
                                           SessionPtr* promoted,
                                           std::vector<SessionPtr>* serve,
                                           std::vector<SessionPtr>* cancel) {
  if (!session->has_fp_) return;
  auto it = inflight_.find(session->fp_);
  if (it == inflight_.end() || it->second.leader != session) return;
  std::vector<SessionPtr> followers = std::move(it->second.followers);
  inflight_.erase(it);
  if (cached != nullptr) {
    cache_.Insert(session->fp_, cached);
    *serve = std::move(followers);
    return;
  }
  if (followers.empty()) return;
  if (!shutdown_) {
    // The leader didn't complete (failed / cancelled / truncated /
    // exhausted), so its reply must not stand in for the followers': the
    // oldest follower runs fresh on the slot the leader is vacating, and the
    // rest wait on it.
    *promoted = std::move(followers.front());
    followers.erase(followers.begin());
    inflight_.emplace(session->fp_, Inflight{*promoted, std::move(followers)});
    return;
  }
  {
    std::lock_guard<std::mutex> clock(counters_mu_);
    counters_.cancelled += followers.size();
  }
  *cancel = std::move(followers);
}

void SessionManager::FinishSlot(const SessionPtr& session,
                                const CachedResultPtr& cached,
                                SessionPtr* next,
                                std::vector<SessionPtr>* serve,
                                std::vector<SessionPtr>* cancel) {
  bool release_slot = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SessionPtr promoted;
    ResolveInflightLocked(session, cached, &promoted, serve, cancel);
    if (promoted != nullptr) {
      // A promoted follower inherits the slot (manager-local and, under a
      // governor, the governor grant) — it has waited at least as long as
      // anything queued anywhere.
      *next = std::move(promoted);
    } else if (governor_ == nullptr && !queue_.empty()) {
      *next = queue_.front();
      queue_.pop_front();
    } else if (governor_ == nullptr) {
      --running_;
      idle_cv_.notify_all();
    } else {
      release_slot = true;
    }
  }
  if (release_slot) {
    // Governed: hand the slot back first — the governor's dispatch may
    // deal it to any tenant's queue (including this one) — and only then
    // decrement running_. Shutdown (and therefore manager destruction)
    // waits on running_ == 0, so the governor call lands strictly before
    // teardown can begin; after the decrement only sessions may be
    // touched.
    governor_->ReleaseRunSlot(this);
    std::lock_guard<std::mutex> lock(mu_);
    --running_;
    idle_cv_.notify_all();
  }
}

Result<SessionPtr> SessionManager::Find(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound(StringFormat("no session '%s'", id.c_str()));
  }
  return it->second;
}

Result<SessionPtr> SessionManager::Cancel(const std::string& id) {
  ACQ_ASSIGN_OR_RETURN(SessionPtr session, Find(id));
  // A follower holds no slot and no run: cancelling it just detaches it
  // from the leader it was waiting on. The leader (and any other follower)
  // is untouched — cancelling one duplicate never poisons the rest.
  bool was_follower = false;
  if (session->has_fp_) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(session->fp_);
    if (it != inflight_.end() && it->second.leader != session) {
      auto& followers = it->second.followers;
      auto pos = std::find(followers.begin(), followers.end(), session);
      if (pos != followers.end()) {
        followers.erase(pos);
        was_follower = true;
      }
    }
  }
  if (was_follower) {
    {
      std::lock_guard<std::mutex> clock(counters_mu_);
      ++counters_.cancelled;
    }
    PublishCancelled(session);
    return session;
  }
  session->RequestCancel();
  return session;
}

Result<SessionPtr> SessionManager::Stop(const std::string& id) {
  ACQ_ASSIGN_OR_RETURN(SessionPtr session, Find(id));
  // Followers are deliberately left attached (see the header): stopping a
  // pure waiter cannot produce a partial answer, and its leader's full
  // result — which it will receive anyway — dominates any best-so-far.
  // RequestClientStop on a follower's context is a harmless no-op (nothing
  // polls it), so no follower special-casing is needed here.
  session->RequestClientStop();
  return session;
}

void SessionManager::Shutdown() {
  std::vector<SessionPtr> to_cancel;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    to_cancel.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) to_cancel.push_back(session);
  }
  for (const SessionPtr& session : to_cancel) session->RequestCancel();
  // Governed managers drain their queue through governor dispatch (each
  // dispatched session observes its cancel immediately). Nudge once in
  // case every slot was idle when the last request queued.
  if (governor_ != nullptr) governor_->NotifyQueued(this);
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return running_ == 0 && queue_.empty(); });
}

ServerCounters SessionManager::counters() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_;
}

size_t SessionManager::num_running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

size_t SessionManager::num_queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void SessionManager::Launch(SessionPtr session) {
  // The runner owns one of the max_running_ slots for its whole lifetime:
  // after finishing a session it pulls the next queued one directly instead
  // of resubmitting to the pool, so a burst of queued requests costs one
  // pool task, and the slot is released (with idle_cv_ notified) only when
  // the queue is empty.
  // Injected enqueue failure: the pool refused the runner task, so the
  // session fails terminally without running — with the same bookkeeping
  // order as RunSession's tail (counters, then slot handoff, then terminal
  // publish). The loop keeps the slot and retries the enqueue for the next
  // queued session; each retry re-evaluates the failpoint.
  while (ACQ_FAILPOINT("server.pool_enqueue")) {
    {
      std::lock_guard<std::mutex> clock(counters_mu_);
      ++counters_.failed;
    }
    SessionPtr next;
    std::vector<SessionPtr> serve_unused;
    std::vector<SessionPtr> cancel_followers;
    // A failed leader must not strand its followers: promote one onto
    // this slot (it becomes `next`) or, on shutdown, cancel them.
    FinishSlot(session, nullptr, &next, &serve_unused, &cancel_followers);
    // After releasing the slot, Shutdown may destroy the manager: only
    // sessions may be touched past this point on the next == nullptr path.
    {
      std::lock_guard<std::mutex> lock(session->mu_);
      session->state_ = SessionState::kFailed;
      session->error_ = Status::Unavailable(
          "injected thread-pool enqueue failure "
          "(failpoint server.pool_enqueue)");
      session->wall_ms_ = MillisSince(session->submitted_at_);
      session->cv_.notify_all();
    }
    for (const SessionPtr& follower : cancel_followers) {
      PublishCancelled(follower);
    }
    if (next == nullptr) return;
    session = std::move(next);
  }
  ThreadPool::Shared().Submit([this, session = std::move(session)]() mutable {
    while (session != nullptr) {
      SessionPtr next;
      RunSession(session, &next);
      // Once RunSession released the slot (next == nullptr and the queue
      // was empty), Shutdown may return and destroy the manager, so the
      // loop must not touch `this` again on that path.
      session = std::move(next);
    }
  });
}

void SessionManager::RunSession(const SessionPtr& session, SessionPtr* next) {
  const Clock::time_point start = session->submitted_at_;

  SessionState state = SessionState::kFailed;
  Status error;
  bool has_outcome = false;
  AcqOutcome outcome;
  std::shared_ptr<AcqTask> task;
  bool interrupted_in_queue = false;

  // A cancel (or manager shutdown) that arrived while queued wins without
  // running; a STOP or a deadline that expired in the queue likewise
  // resolves here with an empty partial report (the cancel-beats-stop
  // precedence matches RunContext::Interruption).
  if (session->ctx_.ShouldStop()) {
    interrupted_in_queue = true;
    const bool was_cancel = session->ctx_.cancel_requested();
    const bool was_stop =
        !was_cancel && session->ctx_.client_stop_requested();
    {
      std::lock_guard<std::mutex> clock(counters_mu_);
      if (was_cancel) {
        ++counters_.cancelled;
      } else if (was_stop) {
        ++counters_.client_satisfied;
      } else {
        ++counters_.deadline_exceeded;
      }
    }
    if (!was_cancel) {
      outcome.result.termination = was_stop
                                       ? RunTermination::kClientSatisfied
                                       : RunTermination::kDeadlineExceeded;
      has_outcome = true;
    }
    state = was_cancel ? SessionState::kCancelled : SessionState::kDone;
  }

  // The run body and the cache-render decision sit inside one shared hold
  // of the data lock: the catalog cannot move between planning, executing
  // and deciding whether the answer may seed the cache. An APPEND therefore
  // waits for in-flight runs (they finish against their snapshot) and no
  // result computed on post-append data is ever stored under a pre-append
  // fingerprint, or vice versa.
  std::shared_lock<std::shared_mutex> data_lock(data_mu_, std::defer_lock);

  if (!interrupted_in_queue) {
    {
      std::lock_guard<std::mutex> lock(session->mu_);
      session->state_ = SessionState::kRunning;
    }
    data_lock.lock();

    // Bind + plan against the shared catalog, then run. The task
    // outlives the outcome (answer rendering needs its dimensions), so it
    // lives in a shared_ptr on the session. The failpoint sits in front of
    // the whole body: a `sleep:` spec stretches the run (widening the
    // in-flight dedup window for tests) and a failure spec fails it.
    Binder binder(catalog_);
    Result<AcqTask> planned =
        ACQ_FAILPOINT("server.run")
            ? Result<AcqTask>(Status::Unavailable(
                  "injected run failure (failpoint server.run)"))
            : binder.PlanSql(session->sql());
    if (!planned.ok()) {
      error = planned.status();
      if (IsDeterministicPlanFailure(error)) {
        cache_.RecordFailure(NegativeKey(*catalog_, session->sql()), error);
      }
    } else {
      task = std::make_shared<AcqTask>(std::move(*planned));
      if (session->backend_ != EvalBackend::kAuto) {
        task->eval_backend = session->backend_;
      }
      Result<AcqOutcome> ran = ProcessAcq(*task, session->options_);
      if (!ran.ok()) {
        error = ran.status();
      } else {
        outcome = std::move(*ran);
        has_outcome = true;
        state = outcome.result.termination == RunTermination::kCancelled
                    ? SessionState::kCancelled
                    : SessionState::kDone;
      }
    }

    // Counters first: a waiter released by the notify below must already
    // see this run reflected in STATS.
    {
      std::lock_guard<std::mutex> clock(counters_mu_);
      if (!has_outcome) {
        ++counters_.failed;
      } else {
        switch (outcome.result.termination) {
          case RunTermination::kCompleted:
            ++counters_.completed;
            break;
          case RunTermination::kTruncated:
            ++counters_.truncated;
            break;
          case RunTermination::kDeadlineExceeded:
            ++counters_.deadline_exceeded;
            break;
          case RunTermination::kCancelled:
            ++counters_.cancelled;
            break;
          case RunTermination::kClientSatisfied:
            ++counters_.client_satisfied;
            break;
          case RunTermination::kResourceExhausted:
            ++counters_.resource_exhausted;
            break;
        }
        const AcquireResult& result = outcome.result;
        counters_.queries_explored += result.queries_explored;
        counters_.cell_queries += result.cell_queries;
        counters_.eval_queries += result.exec_stats.queries;
        counters_.tuples_scanned += result.exec_stats.tuples_scanned;
        counters_.prepare_micros +=
            static_cast<uint64_t>(result.exec_stats.prepare_ms * 1000.0);
        counters_.run_micros +=
            static_cast<uint64_t>(result.elapsed_ms * 1000.0);
      }
    }
  }

  // One wall-clock reading and (for completed cacheable runs) one report
  // render, BEFORE any publish: the leader, its followers, and every later
  // cache hit reply with this exact JSON, which is what makes cached
  // replies byte-identical to the fresh one.
  const double wall_ms = MillisSince(start);
  CachedResultPtr cached;
  // Stale-generation guard: a session fingerprinted at generation G but run
  // after an APPEND moved the catalog to G' computed its answer on data the
  // fingerprint does not describe. Its reply is correct for the caller, but
  // it must not seed the cache (followers are promoted to re-run instead).
  const bool generation_current =
      data_lock.owns_lock() &&
      catalog_->generation() == session->fp_generation_;
  if (session->has_fp_ && state == SessionState::kDone && has_outcome &&
      outcome.result.termination == RunTermination::kCompleted &&
      generation_current) {
    auto entry = std::make_shared<CachedResult>();
    entry->report = BuildReportJson(outcome, task.get(), wall_ms);
    entry->queries_explored =
        session->ctx_.queries_explored.load(std::memory_order_relaxed);
    entry->cell_queries =
        session->ctx_.cell_queries.load(std::memory_order_relaxed);
    entry->bytes = entry->report.Dump().size() + 64;
    // Cost-aware eviction signal: what this reply cost to compute.
    entry->cost_ms = wall_ms;
    entry->generation = session->fp_generation_;
    cached = std::move(entry);
  }
  if (data_lock.owns_lock()) data_lock.unlock();

  // Slot bookkeeping before the terminal publish: a waiter released by the
  // notify below must see the slot already handed to the next queued
  // session (or the governor) or released in num_running()/num_queued().
  // The idle_cv_ notify inside FinishSlot can let Shutdown (and the
  // manager destructor) proceed, so from here on only sessions themselves
  // may be touched.
  std::vector<SessionPtr> serve_followers;
  std::vector<SessionPtr> cancel_followers;
  FinishSlot(session, cached, next, &serve_followers, &cancel_followers);

  {
    std::lock_guard<std::mutex> lock(session->mu_);
    session->state_ = state;
    session->error_ = error;
    if (has_outcome) {
      session->outcome_ = std::move(outcome);
      session->has_outcome_ = true;
      session->task_ = std::move(task);
    }
    // The seeding run itself replies from the cached render too, so its own
    // reply matches every hit that follows.
    session->cached_ = cached;
    session->wall_ms_ = wall_ms;
    session->cv_.notify_all();
  }

  for (const SessionPtr& follower : serve_followers) {
    PublishFromCache(follower, cached);
  }
  for (const SessionPtr& follower : cancel_followers) {
    PublishCancelled(follower);
  }
}

}  // namespace acquire

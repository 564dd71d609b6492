// Chaos harness for the hardened serving path: concurrent clients hammer a
// live AcqServer while every fault-injection site fires randomly (p=0.05).
// The contract under chaos is graceful degradation — no crash, no hang, and
// every byte that does come back is a well-formed protocol response. With
// the failpoints disarmed again, a served run must be bit-identical to a
// direct RunAcquire/ProcessAcq of the same SQL.
//
// ACQ_CHAOS_ITERS overrides the per-client iteration count (CI's ASan job
// runs the default; bump it for soak testing).

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "core/processor.h"
#include "gtest/gtest.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/binder.h"
#include "sql/printer.h"
#include "workload/users_gen.h"

namespace acquire {
namespace {

constexpr int kClients = 4;

int IterationsPerClient() {
  if (const char* env = std::getenv("ACQ_CHAOS_ITERS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 25;  // 4 clients x 25 = 100 chaos iterations
}

Catalog* SharedCatalog() {
  static Catalog* catalog = [] {
    auto* c = new Catalog();
    UsersOptions options;
    options.users = 2000;
    EXPECT_TRUE(GenerateUsers(options, c).ok());
    return c;
  }();
  return catalog;
}

// Small, fast ACQs (distinct per client/iteration) so one chaos run cycles
// through many full SUBMIT->report round trips. Targets sit well above the
// original aggregates, so every run actually expands — a few layers drain
// and streaming clients see PROGRESS frames.
std::string ChaosSql(int client, int iter) {
  return StringFormat(
      "SELECT * FROM users CONSTRAINT COUNT(*) >= %d "
      "WHERE age <= %d AND income >= %d",
      700 + 20 * client + 3 * (iter % 7), 24 + (client + iter) % 6,
      55000 + 500 * client);
}

// A response is "well-formed" when it parses (CallWithRetry already parsed
// it) and carries the protocol invariants for its ok flag.
void ExpectWellFormed(const JsonValue& response) {
  ASSERT_TRUE(response.is_object()) << response.Dump();
  if (response.GetBool("ok", false)) {
    const std::string state = response.GetString("state");
    EXPECT_TRUE(state == "done" || state == "cancelled" ||
                state == "failed" || state == "queued" || state == "running")
        << response.Dump();
    if (state == "done") {
      const JsonValue* report = response.Get("report");
      ASSERT_NE(report, nullptr) << response.Dump();
      EXPECT_FALSE(report->GetString("termination").empty());
    }
  } else {
    EXPECT_FALSE(response.GetString("code").empty()) << response.Dump();
    EXPECT_FALSE(response.GetString("error").empty()) << response.Dump();
  }
}

// Evaluation counts of every registered failpoint site, by name.
std::map<std::string, uint64_t> SiteEvaluations() {
  std::map<std::string, uint64_t> evaluations;
  for (const FailpointRegistry::SiteInfo& site :
       FailpointRegistry::Global().List()) {
    evaluations[site.name] = site.evaluations;
  }
  return evaluations;
}

// Every site a chaos spec arms must have been evaluated by the mix since
// `before` was taken; a site no code path reaches any more would
// otherwise sit in the spec and test nothing.
void ExpectEverySiteReached(const std::string& spec,
                            const std::map<std::string, uint64_t>& before) {
  const std::map<std::string, uint64_t> after = SiteEvaluations();
  for (const std::string& entry : Split(spec, ';')) {
    const std::string name = entry.substr(0, entry.find('='));
    auto was = before.find(name);
    auto now = after.find(name);
    ASSERT_NE(now, after.end()) << name;
    EXPECT_GT(now->second, was == before.end() ? 0u : was->second)
        << name << " was armed but never evaluated";
  }
}

TEST(ChaosTest, ConcurrentClientsSurviveRandomFaults) {
  if (!FailpointRegistry::compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  auto& registry = FailpointRegistry::Global();
  registry.DisarmAll();

  ServerOptions options;
  options.max_running = 2;
  options.max_queued = 8;
  options.max_line_bytes = 1 << 16;
  options.idle_timeout_ms = 10000.0;
  AcqServer server(SharedCatalog(), options);
  ASSERT_TRUE(server.Start().ok());

  // Every instrumented seam, all at once.
  const std::string spec =
      "server.recv=p:0.05;server.send=p:0.05;"
      "server.parse=p:0.05;server.admit=p:0.05;"
      "server.pool_enqueue=p:0.05;"
      "server.progress_emit=p:0.05;"
      "explore.arena_grow=p:0.05;"
      "expand.layer_alloc=p:0.05;"
      "exec.parallel_for=p:0.05;"
      "index.batch_eval=p:0.05";
  const std::map<std::string, uint64_t> before = SiteEvaluations();
  ASSERT_TRUE(registry.ConfigureFromSpec(spec).ok());

  const int iters = IterationsPerClient();
  std::atomic<int> well_formed{0};
  std::atomic<int> transport_gave_up{0};
  std::atomic<int> frames_seen{0};
  std::atomic<int> torn_frames{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      LineClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) return;
      RetryOptions retry;
      retry.max_attempts = 6;
      retry.initial_backoff_ms = 1.0;
      retry.max_backoff_ms = 20.0;
      // Odd clients stream PROGRESS frames (with server.progress_emit
      // randomly dropping them); even clients use the plain lockstep
      // path, so both line kinds mix on the same server.
      const bool streaming = (c % 2) == 1;
      for (int i = 0; i < iters; ++i) {
        JsonValue request = JsonValue::Object();
        request.Set("cmd", JsonValue::Str("SUBMIT"));
        request.Set("sql", JsonValue::Str(ChaosSql(c, i)));
        request.Set("wait", JsonValue::Bool(true));
        request.Set("timeout_ms", JsonValue::Number(30000.0));
        if (streaming) {
          JsonValue progress = JsonValue::Object();
          progress.Set("interval_ms", JsonValue::Number(0.0));
          request.Set("progress", progress);
        }
        Result<JsonValue> response =
            streaming ? client.CallStreamingWithRetry(
                            request,
                            [&](const JsonValue& frame) {
                              // Every frame that reaches the client must be
                              // whole: parsed (CallStreaming rejects torn
                              // lines) and schema-complete.
                              frames_seen.fetch_add(1,
                                                    std::memory_order_relaxed);
                              if (!frame.GetBool("progress", false) ||
                                  frame.GetString("id").empty() ||
                                  frame.GetNumber("layers_drained", -1.0) <
                                      1.0) {
                                torn_frames.fetch_add(
                                    1, std::memory_order_relaxed);
                              }
                            },
                            retry)
                      : client.CallWithRetry(request, retry);
        if (!response.ok()) {
          // Every attempt lost to an injected transport fault: acceptable
          // under chaos (the server must still be alive; verified below).
          transport_gave_up.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        ExpectWellFormed(*response);
        well_formed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  // No torn or interleaved frames reached any client, and the streaming
  // mix actually streamed.
  EXPECT_EQ(torn_frames.load(), 0);
  EXPECT_GT(frames_seen.load(), 0);

  // The chaos actually exercised the sites, and most calls still got a
  // well-formed answer through the retry layer.
  EXPECT_GT(registry.TotalHits(), 0u);
  ExpectEverySiteReached(spec, before);
  EXPECT_GT(well_formed.load(), 0);

  // With the faults disarmed the server must serve normally again,
  // bit-identical to a direct run of the same SQL.
  registry.DisarmAll();
  const std::string sql = ChaosSql(0, 0);
  Binder binder(SharedCatalog());
  Result<AcqTask> planned = binder.PlanSql(sql);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  auto task = std::make_shared<AcqTask>(std::move(*planned));
  Result<AcqOutcome> direct = ProcessAcq(*task, AcquireOptions{});
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  LineClient verifier;
  ASSERT_TRUE(verifier.Connect("127.0.0.1", server.port()).ok());
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str(sql));
  request.Set("wait", JsonValue::Bool(true));
  Result<JsonValue> served = verifier.CallWithRetry(request);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_TRUE(served->GetBool("ok", false)) << served->Dump();
  ASSERT_EQ(served->GetString("state"), "done") << served->Dump();
  const JsonValue* report = served->Get("report");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->GetString("mode"), AcqModeToString(direct->mode));
  EXPECT_EQ(report->GetString("termination"),
            RunTerminationToString(direct->result.termination));
  EXPECT_EQ(report->GetNumber("original_aggregate", -1.0),
            direct->original_aggregate);
  EXPECT_EQ(report->GetNumber("queries_explored", -1.0),
            static_cast<double>(direct->result.queries_explored));
  const AcqTask& display_task = direct->mode == AcqMode::kContracted
                                    ? *direct->contraction_task
                                    : *task;
  const JsonValue* answers = report->Get("answers");
  ASSERT_NE(answers, nullptr);
  ASSERT_TRUE(answers->is_array());
  ASSERT_EQ(answers->size(), direct->result.queries.size());
  for (size_t i = 0; i < direct->result.queries.size(); ++i) {
    const RefinedQuery& expected = direct->result.queries[i];
    const JsonValue& got = answers->AsArray()[i];
    EXPECT_EQ(got.GetString("sql"), RenderRefinedSql(display_task, expected));
    EXPECT_EQ(got.GetNumber("aggregate", -1.0), expected.aggregate);
    EXPECT_EQ(got.GetNumber("qscore", -1.0), expected.qscore);
    EXPECT_EQ(got.GetNumber("error", -1.0), expected.error);
  }

  verifier.Close();
  server.Stop();

  // Nothing leaked: all sessions drained (Stop shut the manager down) and
  // the transport-give-up tally stayed a small minority of the calls.
  EXPECT_EQ(server.sessions().num_running(), 0u);
  EXPECT_LE(transport_gave_up.load(), kClients * iters / 2);
}

TEST(ChaosTest, MemoryBudgetDegradesToBestSoFarUnderChaos) {
  if (!FailpointRegistry::compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  FailpointRegistry::Global().DisarmAll();
  AcqServer server(SharedCatalog());
  // Unreachable constraint + tiny budget: the run must stop gracefully
  // with a best-so-far resource_exhausted report.
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str(
                         "SELECT * FROM users CONSTRAINT COUNT(*) >= "
                         "1000000000 WHERE age <= 20 AND income <= 30000 "
                         "AND engagement <= 1.0 AND "
                         "account_age_days <= 100"));
  request.Set("stall_limit", JsonValue::Number(1e15));
  request.Set("divergence_patience", JsonValue::Number(1000000));
  request.Set("max_explored", JsonValue::Number(4e9));
  request.Set("timeout_ms", JsonValue::Number(30000.0));
  request.Set("memory_budget_bytes", JsonValue::Number(128 * 1024));
  request.Set("wait", JsonValue::Bool(true));
  Result<JsonValue> parsed =
      JsonValue::Parse(server.HandleRequestLine(request.Dump()));
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->GetBool("ok", false)) << parsed->Dump();
  EXPECT_EQ(parsed->GetString("state"), "done");
  const JsonValue* report = parsed->Get("report");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->GetString("termination"), "resource_exhausted");
  EXPECT_FALSE(report->GetBool("satisfied", true));
  const JsonValue* best = report->Get("best");
  ASSERT_NE(best, nullptr);
  EXPECT_FALSE(best->GetString("predicates").empty());
}

// One failpoint hit must degrade exactly one run, not poison later ones:
// a count:1 arena fault fails the first run resource_exhausted, and the
// identical resubmission completes normally.
TEST(ChaosTest, SingleInjectedArenaFaultDoesNotPoisonLaterRuns) {
  if (!FailpointRegistry::compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  auto& registry = FailpointRegistry::Global();
  registry.DisarmAll();
  AcqServer server(SharedCatalog());
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  // Unreachable target over a small d=2 grid: the clean run finishes the
  // exhaustive search quickly (termination "completed"), while the faulted
  // run has many layers left when the injected exhaustion latches.
  request.Set("sql", JsonValue::Str(
                         "SELECT * FROM users CONSTRAINT COUNT(*) >= "
                         "1000000 WHERE age <= 25 AND income >= 50000"));
  // memory_budget_bytes wires a budget into the run so the arena site is
  // live; the huge limit alone would never latch.
  request.Set("memory_budget_bytes", JsonValue::Number(1e12));
  request.Set("wait", JsonValue::Bool(true));

  ASSERT_TRUE(registry.Configure("explore.arena_grow", "count:1").ok());
  Result<JsonValue> faulted =
      JsonValue::Parse(server.HandleRequestLine(request.Dump()));
  ASSERT_TRUE(faulted.ok());
  ASSERT_TRUE(faulted->GetBool("ok", false)) << faulted->Dump();
  const JsonValue* report = faulted->Get("report");
  ASSERT_NE(report, nullptr) << faulted->Dump();
  EXPECT_EQ(report->GetString("termination"), "resource_exhausted");

  Result<JsonValue> clean =
      JsonValue::Parse(server.HandleRequestLine(request.Dump()));
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(clean->GetBool("ok", false)) << clean->Dump();
  const JsonValue* clean_report = clean->Get("report");
  ASSERT_NE(clean_report, nullptr) << clean->Dump();
  EXPECT_EQ(clean_report->GetString("termination"), "completed");
}

// The strategy failpoint (generic batch evaluation fallback) changes only
// how work is executed, never what it computes: a run with it firing half
// the time is bit-identical to a clean run.
TEST(ChaosTest, StrategyFailpointsNeverChangeResults) {
  if (!FailpointRegistry::compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  auto& registry = FailpointRegistry::Global();
  registry.DisarmAll();
  Binder binder(SharedCatalog());
  Result<AcqTask> planned = binder.PlanSql(ChaosSql(2, 3));
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  Result<AcqOutcome> clean = ProcessAcq(*planned, AcquireOptions{});
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  // exec.parallel_for is left out: this task's batches and builds are too
  // small to split, so ParallelFor never reaches the site.
  const std::string spec = "index.batch_eval=p:0.5";
  const std::map<std::string, uint64_t> before = SiteEvaluations();
  ASSERT_TRUE(registry.ConfigureFromSpec(spec).ok());
  Result<AcqOutcome> degraded = ProcessAcq(*planned, AcquireOptions{});
  registry.DisarmAll();
  ExpectEverySiteReached(spec, before);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();

  EXPECT_EQ(degraded->result.termination, clean->result.termination);
  EXPECT_EQ(degraded->result.satisfied, clean->result.satisfied);
  EXPECT_EQ(degraded->result.queries_explored, clean->result.queries_explored);
  ASSERT_EQ(degraded->result.queries.size(), clean->result.queries.size());
  for (size_t i = 0; i < clean->result.queries.size(); ++i) {
    EXPECT_EQ(degraded->result.queries[i].aggregate,
              clean->result.queries[i].aggregate);
    EXPECT_EQ(degraded->result.queries[i].qscore,
              clean->result.queries[i].qscore);
    EXPECT_EQ(degraded->result.queries[i].error,
              clean->result.queries[i].error);
  }
}

std::string DumpWithoutId(const JsonValue& response) {
  JsonValue out = JsonValue::Object();
  for (const auto& [key, value] : response.Members()) {
    if (key != "id") out.Set(key, JsonValue(value));
  }
  return out.Dump();
}

double CacheStat(AcqServer* server, const char* field) {
  Result<JsonValue> stats =
      JsonValue::Parse(server->HandleRequestLine("{\"cmd\":\"STATS\"}"));
  EXPECT_TRUE(stats.ok());
  const JsonValue* counters = stats.ok() ? stats->Get("stats") : nullptr;
  return counters != nullptr ? counters->GetNumber(field, -1.0) : -1.0;
}

// Chaos with the result cache in the hot path: clients resubmit a small set
// of tasks (so hits and in-flight joins actually occur) while every fault
// site fires at p=0.05, including injected run failures. The cache must
// never absorb a degraded run — after the chaos, a cleared cache re-seeded
// by a fresh run serves the repeat byte-identically.
TEST(ChaosTest, CacheStaysBitExactUnderChaos) {
  if (!FailpointRegistry::compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  auto& registry = FailpointRegistry::Global();
  registry.DisarmAll();

  ServerOptions options;
  options.max_running = 2;
  options.max_queued = 8;
  options.cache_bytes = 32ull << 20;
  AcqServer server(SharedCatalog(), options);
  ASSERT_TRUE(server.Start().ok());

  const std::string spec =
      "server.recv=p:0.05;server.send=p:0.05;"
      "server.parse=p:0.05;server.admit=p:0.05;"
      "server.pool_enqueue=p:0.05;server.run=p:0.05;"
      "explore.arena_grow=p:0.05;"
      "expand.layer_alloc=p:0.05;"
      "exec.parallel_for=p:0.05;"
      "index.batch_eval=p:0.05";
  const std::map<std::string, uint64_t> before = SiteEvaluations();
  ASSERT_TRUE(registry.ConfigureFromSpec(spec).ok());

  const int iters = IterationsPerClient();
  std::atomic<int> well_formed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      LineClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) return;
      RetryOptions retry;
      retry.max_attempts = 6;
      retry.initial_backoff_ms = 1.0;
      retry.max_backoff_ms = 20.0;
      for (int i = 0; i < iters; ++i) {
        JsonValue request = JsonValue::Object();
        request.Set("cmd", JsonValue::Str("SUBMIT"));
        // Only 3 distinct tasks across all clients: repeats exercise cache
        // hits and concurrent duplicates exercise in-flight joins.
        request.Set("sql", JsonValue::Str(ChaosSql(i % 3, 0)));
        request.Set("wait", JsonValue::Bool(true));
        request.Set("timeout_ms", JsonValue::Number(30000.0));
        Result<JsonValue> response = client.CallWithRetry(request, retry);
        if (!response.ok()) continue;
        ExpectWellFormed(*response);
        well_formed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_GT(registry.TotalHits(), 0u);
  ExpectEverySiteReached(spec, before);
  EXPECT_GT(well_formed.load(), 0);
  registry.DisarmAll();

  // Post-chaos differential: drop whatever the chaos cached, seed each task
  // with a clean fresh run, and require the repeat to be byte-identical.
  Result<JsonValue> clear_reply =
      JsonValue::Parse(server.HandleRequestLine("{\"cmd\":\"CACHE\",\"clear\":true}"));
  ASSERT_TRUE(clear_reply.ok() && clear_reply->GetBool("ok", false));
  for (int t = 0; t < 3; ++t) {
    JsonValue request = JsonValue::Object();
    request.Set("cmd", JsonValue::Str("SUBMIT"));
    request.Set("sql", JsonValue::Str(ChaosSql(t, 0)));
    request.Set("wait", JsonValue::Bool(true));
    const std::string line = request.Dump();
    Result<JsonValue> fresh = JsonValue::Parse(server.HandleRequestLine(line));
    ASSERT_TRUE(fresh.ok());
    ASSERT_EQ(fresh->GetString("state"), "done") << fresh->Dump();
    const double hits_before = CacheStat(&server, "cache_hits");
    Result<JsonValue> cached = JsonValue::Parse(server.HandleRequestLine(line));
    ASSERT_TRUE(cached.ok());
    EXPECT_EQ(DumpWithoutId(*cached), DumpWithoutId(*fresh));
    EXPECT_EQ(CacheStat(&server, "cache_hits"), hits_before + 1);
  }
  server.Stop();
  EXPECT_EQ(server.sessions().num_running(), 0u);
}

// Degraded runs must never seed the cache: an injected run failure and a
// max_explored truncation both leave the cache empty, while the following
// clean completed run is inserted.
TEST(ChaosTest, FailedOrTruncatedRunsAreNeverCached) {
  if (!FailpointRegistry::compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  auto& registry = FailpointRegistry::Global();
  registry.DisarmAll();
  ServerOptions options;
  options.cache_bytes = 16ull << 20;
  AcqServer server(SharedCatalog(), options);

  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str(ChaosSql(1, 1)));
  request.Set("wait", JsonValue::Bool(true));

  // Injected run failure -> state failed, nothing inserted.
  ASSERT_TRUE(registry.Configure("server.run", "count:1").ok());
  Result<JsonValue> failed =
      JsonValue::Parse(server.HandleRequestLine(request.Dump()));
  ASSERT_TRUE(failed.ok());
  EXPECT_EQ(failed->GetString("state"), "failed") << failed->Dump();
  EXPECT_EQ(CacheStat(&server, "cache_entries"), 0.0);

  // Truncated (max_explored) run -> done, but still not inserted.
  JsonValue truncated_request = JsonValue::Object();
  truncated_request.Set("cmd", JsonValue::Str("SUBMIT"));
  truncated_request.Set("sql", JsonValue::Str(
                                   "SELECT * FROM users CONSTRAINT "
                                   "COUNT(*) >= 1000000000 WHERE age <= 25 "
                                   "AND income >= 50000"));
  truncated_request.Set("max_explored", JsonValue::Number(1));
  truncated_request.Set("wait", JsonValue::Bool(true));
  Result<JsonValue> truncated =
      JsonValue::Parse(server.HandleRequestLine(truncated_request.Dump()));
  ASSERT_TRUE(truncated.ok());
  ASSERT_EQ(truncated->GetString("state"), "done") << truncated->Dump();
  EXPECT_EQ(truncated->Get("report")->GetString("termination"), "truncated");
  EXPECT_EQ(CacheStat(&server, "cache_entries"), 0.0);

  // The clean rerun of the originally-failed task is cached.
  Result<JsonValue> clean =
      JsonValue::Parse(server.HandleRequestLine(request.Dump()));
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->GetString("state"), "done") << clean->Dump();
  EXPECT_EQ(CacheStat(&server, "cache_entries"), 1.0);
}

// Administrative verbs (ATTACH/DETACH/APPEND/...) carry no session state;
// their well-formedness contract is just the ok/code/error envelope.
void ExpectWellFormedVerb(const JsonValue& response) {
  ASSERT_TRUE(response.is_object()) << response.Dump();
  if (!response.GetBool("ok", false)) {
    EXPECT_FALSE(response.GetString("code").empty()) << response.Dump();
    EXPECT_FALSE(response.GetString("error").empty()) << response.Dump();
  }
}

// Multi-tenant chaos: three long-lived tenants (default + two attached)
// serve concurrent SUBMITs and live APPENDs while a churn thread
// attaches/detaches a fourth tenant in a loop and the tenant-admission
// failpoint randomly rejects. The contract: every reply is well-formed
// (rejections carry ResourceExhausted/Unavailable/NotFound codes), the
// server survives, and afterwards the surviving attached tenants — whose
// catalogs were never appended to — still serve bit-identical to a direct
// ProcessAcq over an identically-generated catalog.
TEST(ChaosTest, MultiTenantChurnSurvivesAndStaysBitExact) {
  if (!FailpointRegistry::compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  auto& registry = FailpointRegistry::Global();
  registry.DisarmAll();

  // Private mutable catalog: the default tenant absorbs live APPENDs, so
  // the suite-shared read-only catalog must not be used here.
  Catalog mutable_catalog;
  {
    UsersOptions options;
    options.users = 2000;
    ASSERT_TRUE(GenerateUsers(options, &mutable_catalog).ok());
  }
  ServerOptions options;
  options.max_running = 2;
  options.max_queued = 8;
  AcqServer server(&mutable_catalog, options);
  ASSERT_TRUE(server.Start().ok());

  auto attach = [&server](const std::string& id, size_t rows) {
    JsonValue request = JsonValue::Object();
    request.Set("cmd", JsonValue::Str("ATTACH"));
    request.Set("tenant", JsonValue::Str(id));
    request.Set("gen", JsonValue::Str("users"));
    request.Set("rows", JsonValue::Number(static_cast<double>(rows)));
    return JsonValue::Parse(server.HandleRequestLine(request.Dump()));
  };
  Result<JsonValue> t1 = attach("t1", 1500);
  ASSERT_TRUE(t1.ok() && t1->GetBool("ok", false)) << t1.ok();
  Result<JsonValue> t2 = attach("t2", 1000);
  ASSERT_TRUE(t2.ok() && t2->GetBool("ok", false)) << t2.ok();

  ASSERT_TRUE(
      registry.Configure("server.tenant_admission", "p:0.1").ok());

  const int iters = IterationsPerClient();
  const char* targets[] = {"", "t1", "t2"};
  std::atomic<int> well_formed{0};
  std::atomic<int> admission_rejected{0};
  std::vector<std::thread> workers;
  for (int c = 0; c < 3; ++c) {
    workers.emplace_back([&, c] {
      LineClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) return;
      RetryOptions retry;
      retry.max_attempts = 4;
      retry.initial_backoff_ms = 1.0;
      retry.max_backoff_ms = 20.0;
      for (int i = 0; i < iters; ++i) {
        JsonValue request = JsonValue::Object();
        request.Set("cmd", JsonValue::Str("SUBMIT"));
        request.Set("sql", JsonValue::Str(ChaosSql(c, i)));
        request.Set("wait", JsonValue::Bool(true));
        request.Set("timeout_ms", JsonValue::Number(30000.0));
        const char* tenant = targets[(c + i) % 3];
        if (tenant[0] != '\0') {
          request.Set("tenant", JsonValue::Str(tenant));
        }
        Result<JsonValue> response = client.CallWithRetry(request, retry);
        if (!response.ok()) continue;
        ExpectWellFormed(*response);
        if (!response->GetBool("ok", false)) {
          const std::string code = response->GetString("code");
          EXPECT_TRUE(code == "ResourceExhausted" || code == "Unavailable" ||
                      code == "NotFound")
              << response->Dump();
          if (code == "ResourceExhausted") {
            admission_rejected.fetch_add(1, std::memory_order_relaxed);
          }
        }
        well_formed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Live ingestion into the default tenant only: the attached tenants'
  // catalogs must stay pristine for the bit-identity check below.
  workers.emplace_back([&] {
    LineClient client;
    if (!client.Connect("127.0.0.1", server.port()).ok()) return;
    for (int i = 0; i < iters; ++i) {
      JsonValue request = JsonValue::Object();
      request.Set("cmd", JsonValue::Str("APPEND"));
      request.Set("table", JsonValue::Str("users"));
      JsonValue rows = JsonValue::Array();
      JsonValue row = JsonValue::Array();
      row.Append(JsonValue::Number(1000000 + i));  // user_id
      row.Append(JsonValue::Number(30));           // age
      row.Append(JsonValue::Number(60000.0));      // income
      row.Append(JsonValue::Number(0.5));          // engagement
      row.Append(JsonValue::Number(100));          // account_age_days
      row.Append(JsonValue::Str("chaosville"));    // city
      row.Append(JsonValue::Str("x"));             // gender
      row.Append(JsonValue::Str("phd"));           // education
      row.Append(JsonValue::Str("chaos"));         // interest
      rows.Append(std::move(row));
      request.Set("rows", std::move(rows));
      Result<JsonValue> response = client.CallWithRetry(request);
      if (response.ok()) ExpectWellFormedVerb(*response);
    }
  });
  // Attach/detach churn: a short-lived tenant cycles while the others
  // serve; SUBMITs racing its DETACH may see NotFound/Unavailable.
  workers.emplace_back([&] {
    LineClient client;
    if (!client.Connect("127.0.0.1", server.port()).ok()) return;
    for (int i = 0; i < iters / 2 + 1; ++i) {
      Result<JsonValue> attached = attach("churn", 300);
      if (attached.ok()) ExpectWellFormedVerb(*attached);
      JsonValue submit = JsonValue::Object();
      submit.Set("cmd", JsonValue::Str("SUBMIT"));
      submit.Set("sql", JsonValue::Str(ChaosSql(1, i)));
      submit.Set("tenant", JsonValue::Str("churn"));
      submit.Set("wait", JsonValue::Bool(true));
      submit.Set("timeout_ms", JsonValue::Number(30000.0));
      Result<JsonValue> ran = client.Call(submit);
      if (ran.ok()) ExpectWellFormed(*ran);
      Result<JsonValue> detached = JsonValue::Parse(server.HandleRequestLine(
          "{\"cmd\":\"DETACH\",\"tenant\":\"churn\"}"));
      if (detached.ok()) ExpectWellFormedVerb(*detached);
    }
  });
  for (std::thread& worker : workers) worker.join();
  registry.DisarmAll();
  EXPECT_GT(well_formed.load(), 0);

  // Survivor bit-identity: each attached tenant still answers exactly like
  // a direct run over a catalog generated with its ATTACH parameters.
  struct Survivor {
    const char* tenant;
    size_t rows;
  };
  for (const Survivor& survivor : {Survivor{"t1", 1500},
                                   Survivor{"t2", 1000}}) {
    Catalog replica;
    UsersOptions gen;
    gen.users = survivor.rows;
    ASSERT_TRUE(GenerateUsers(gen, &replica).ok());
    const std::string sql = ChaosSql(0, 0);
    Binder binder(&replica);
    Result<AcqTask> planned = binder.PlanSql(sql);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    auto task = std::make_shared<AcqTask>(std::move(*planned));
    Result<AcqOutcome> direct = ProcessAcq(*task, AcquireOptions{});
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();

    JsonValue request = JsonValue::Object();
    request.Set("cmd", JsonValue::Str("SUBMIT"));
    request.Set("sql", JsonValue::Str(sql));
    request.Set("tenant", JsonValue::Str(survivor.tenant));
    request.Set("wait", JsonValue::Bool(true));
    JsonValue served =
        *JsonValue::Parse(server.HandleRequestLine(request.Dump()));
    ASSERT_TRUE(served.GetBool("ok", false)) << served.Dump();
    ASSERT_EQ(served.GetString("state"), "done") << served.Dump();
    const JsonValue* report = served.Get("report");
    ASSERT_NE(report, nullptr);
    EXPECT_EQ(report->GetString("mode"), AcqModeToString(direct->mode));
    EXPECT_EQ(report->GetString("termination"),
              RunTerminationToString(direct->result.termination));
    EXPECT_EQ(report->GetNumber("original_aggregate", -1.0),
              direct->original_aggregate);
    const AcqTask& display_task = direct->mode == AcqMode::kContracted
                                      ? *direct->contraction_task
                                      : *task;
    const JsonValue* answers = report->Get("answers");
    ASSERT_NE(answers, nullptr);
    ASSERT_EQ(answers->size(), direct->result.queries.size());
    for (size_t i = 0; i < direct->result.queries.size(); ++i) {
      const RefinedQuery& expected = direct->result.queries[i];
      const JsonValue& got = answers->AsArray()[i];
      EXPECT_EQ(got.GetString("sql"),
                RenderRefinedSql(display_task, expected));
      EXPECT_EQ(got.GetNumber("aggregate", -1.0), expected.aggregate);
      EXPECT_EQ(got.GetNumber("qscore", -1.0), expected.qscore);
      EXPECT_EQ(got.GetNumber("error", -1.0), expected.error);
    }
  }

  server.Stop();
  for (const TenantPtr& tenant : server.tenants().List()) {
    EXPECT_EQ(tenant->manager().num_running(), 0u) << tenant->id();
  }
}

}  // namespace
}  // namespace acquire

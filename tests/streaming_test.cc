// Streaming anytime results, proven bit-exact: a SUBMIT that opts into
// PROGRESS frames must produce a final report byte-identical to the same
// SUBMIT without streaming (modulo the volatile session id and wall-clock
// fields), across every search order, batch on/off, and frame throttle.
// Frames themselves must be monotone — the anytime contract is that the
// best answer only ever tightens — and a client STOP at any point must
// yield a well-formed best-so-far report with termination
// "client_satisfied".

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "gtest/gtest.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/users_gen.h"

namespace acquire {
namespace {

Catalog* SharedCatalog() {
  static Catalog* catalog = [] {
    auto* c = new Catalog();
    UsersOptions users;
    users.users = 3000;
    EXPECT_TRUE(GenerateUsers(users, c).ok());
    PatientsOptions patients;
    patients.patients = 3000;
    EXPECT_TRUE(GeneratePatients(patients, c).ok());
    return c;
  }();
  return catalog;
}

JsonValue MustParse(const std::string& line) {
  Result<JsonValue> parsed = JsonValue::Parse(line);
  EXPECT_TRUE(parsed.ok()) << line;
  return parsed.ok() ? *parsed : JsonValue::Null();
}

/// Recursively drops the fields that legitimately differ between two runs
/// of the same task: the session id and wall-clock timings. Everything
/// else — mode, termination, aggregates, errors, rendered SQL, counters —
/// must match to the byte.
JsonValue Stripped(const JsonValue& value) {
  if (value.is_object()) {
    JsonValue out = JsonValue::Object();
    for (const auto& [key, member] : value.Members()) {
      if (key == "id" || key == "elapsed_ms" || key == "wall_ms") continue;
      out.Set(key, Stripped(member));
    }
    return out;
  }
  if (value.is_array()) {
    JsonValue out = JsonValue::Array();
    for (const JsonValue& element : value.AsArray()) {
      out.Append(Stripped(element));
    }
    return out;
  }
  return value;
}

struct StreamedRun {
  std::vector<JsonValue> frames;
  JsonValue reply;
};

JsonValue SubmitRequest(const std::string& sql, const std::string& order,
                        bool batch, double interval_ms, bool streaming) {
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str(sql));
  request.Set("wait", JsonValue::Bool(true));
  request.Set("order", JsonValue::Str(order));
  request.Set("batch_explore", JsonValue::Bool(batch));
  if (streaming) {
    JsonValue progress = JsonValue::Object();
    progress.Set("interval_ms", JsonValue::Number(interval_ms));
    request.Set("progress", progress);
  }
  return request;
}

/// Runs one SUBMIT in-process, capturing the streamed frame lines exactly
/// as a TCP client would see them (in order, before the final reply).
StreamedRun RunStreamed(AcqServer& server, const JsonValue& request) {
  StreamedRun run;
  const std::string reply = server.HandleRequestLine(
      request.Dump(), [&run](const std::string& line) {
        run.frames.push_back(MustParse(line));
        return true;
      });
  run.reply = MustParse(reply);
  return run;
}

/// The frame invariants every streamed run must satisfy: well-formed
/// schema, monotone layer/query counters, and a best error that never
/// loosens (the anytime guarantee).
void ExpectFramesMonotone(const StreamedRun& run) {
  double last_layers = 0.0;
  double last_explored = 0.0;
  double last_error = -1.0;
  bool saw_best = false;
  for (const JsonValue& frame : run.frames) {
    ASSERT_TRUE(frame.is_object()) << frame.Dump();
    EXPECT_TRUE(frame.GetBool("progress", false)) << frame.Dump();
    EXPECT_FALSE(frame.GetString("id").empty()) << frame.Dump();
    EXPECT_FALSE(frame.GetString("tenant").empty()) << frame.Dump();
    const double layers = frame.GetNumber("layers_drained", -1.0);
    const double explored = frame.GetNumber("queries_explored", -1.0);
    EXPECT_GE(layers, 1.0) << frame.Dump();
    EXPECT_GE(layers, last_layers) << frame.Dump();
    EXPECT_GE(explored, last_explored) << frame.Dump();
    last_layers = layers;
    last_explored = explored;
    const JsonValue* best = frame.Get("best");
    ASSERT_NE(best, nullptr) << frame.Dump();
    if (best->is_object()) {
      const double error = best->GetNumber("error", -1.0);
      EXPECT_GE(error, 0.0) << frame.Dump();
      if (saw_best) {
        EXPECT_LE(error, last_error)
            << "best error loosened between frames: " << frame.Dump();
      }
      saw_best = true;
      last_error = error;
    } else {
      // Once a best exists it never goes away.
      EXPECT_FALSE(saw_best) << frame.Dump();
    }
    const JsonValue* governor = frame.Get("governor");
    ASSERT_NE(governor, nullptr) << frame.Dump();
    EXPECT_TRUE(governor->is_object()) << frame.Dump();
    EXPECT_GE(governor->GetNumber("running", -1.0), 1.0) << frame.Dump();
  }
}

// The headline battery: 4 search orders x batch on/off, each solved
// without streaming (the baseline), with interval 0 (frame per drained
// layer) and with a 5 ms throttle. All three final reports must be
// byte-identical after stripping the session id and wall-clock fields,
// and the streamed runs' frames must be monotone.
TEST(StreamingTest, DifferentialBatteryBitExactFinalReports) {
  AcqServer server(SharedCatalog());
  const std::string sql =
      "SELECT * FROM users CONSTRAINT COUNT(*) >= 1400 "
      "WHERE age <= 30 AND income >= 60000 AND engagement >= 3.0";
  const char* orders[] = {"auto", "bfs", "shell", "best_first"};
  uint64_t total_frames = 0;
  for (const char* order : orders) {
    for (bool batch : {false, true}) {
      SCOPED_TRACE(StringFormat("order=%s batch=%d", order, batch ? 1 : 0));
      StreamedRun baseline =
          RunStreamed(server, SubmitRequest(sql, order, batch, 0.0, false));
      ASSERT_TRUE(baseline.reply.GetBool("ok", false))
          << baseline.reply.Dump();
      ASSERT_EQ(baseline.reply.GetString("state"), "done")
          << baseline.reply.Dump();
      EXPECT_TRUE(baseline.frames.empty());
      const std::string want = Stripped(baseline.reply).Dump();

      for (double interval_ms : {0.0, 5.0}) {
        SCOPED_TRACE(StringFormat("interval_ms=%g", interval_ms));
        StreamedRun streamed =
            RunStreamed(server, SubmitRequest(sql, order, batch, interval_ms, true));
        ASSERT_TRUE(streamed.reply.GetBool("ok", false))
            << streamed.reply.Dump();
        EXPECT_EQ(Stripped(streamed.reply).Dump(), want);
        if (interval_ms == 0.0) {
          EXPECT_FALSE(streamed.frames.empty());
        }
        ExpectFramesMonotone(streamed);
        total_frames += streamed.frames.size();
      }
    }
  }
  // STATS accounts for every frame the battery streamed.
  JsonValue reply = MustParse(server.HandleRequestLine("{\"cmd\":\"STATS\"}"));
  const JsonValue* stats = reply.Get("stats");
  ASSERT_NE(stats, nullptr) << reply.Dump();
  EXPECT_EQ(stats->GetNumber("progress_frames", -1.0),
            static_cast<double>(total_frames));
  EXPECT_EQ(stats->GetNumber("progress_drops", -1.0), 0.0);
}

// Acceptance check: a five-dimensional fig9-style run at interval 0 emits
// one frame per drained layer (the batched driver drains whole equi-score
// layers, so frame count and the final layers_drained agree exactly).
TEST(StreamingTest, IntervalZeroEmitsOneFramePerDrainedLayer) {
  AcqServer server(SharedCatalog());
  const std::string sql =
      "SELECT * FROM patients CONSTRAINT COUNT(*) >= 1200 "
      "WHERE age <= 45 AND weekly_exercise_hours >= 3 AND income >= 20000 "
      "AND systolic_bp <= 135 AND annual_cost <= 25000";
  StreamedRun streamed =
      RunStreamed(server, SubmitRequest(sql, "bfs", /*batch=*/true, 0.0, true));
  ASSERT_TRUE(streamed.reply.GetBool("ok", false)) << streamed.reply.Dump();
  ASSERT_EQ(streamed.reply.GetString("state"), "done")
      << streamed.reply.Dump();
  ASSERT_FALSE(streamed.frames.empty());
  ExpectFramesMonotone(streamed);
  // Frame count equals the last frame's drained-layer count, and the
  // counter steps by exactly one per frame: no layer went unreported.
  const JsonValue& last = streamed.frames.back();
  EXPECT_EQ(static_cast<double>(streamed.frames.size()),
            last.GetNumber("layers_drained", -1.0));
  for (size_t i = 0; i < streamed.frames.size(); ++i) {
    EXPECT_EQ(streamed.frames[i].GetNumber("layers_drained", -1.0),
              static_cast<double>(i + 1));
  }
  EXPECT_GE(streamed.frames.size(), 2u);
}

// STOP mid-run: a client that is satisfied by an early frame stops the
// run and still gets a well-formed best-so-far report with termination
// "client_satisfied". The STOP is issued from inside the frame callback —
// the earliest possible armed point a real client could react at.
TEST(StreamingTest, StopMidRunYieldsClientSatisfiedBestSoFar) {
  AcqServer server(SharedCatalog());
  // Unreachable constraint with the stopping rules relaxed: the run would
  // explore for a very long time unless the STOP lands.
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
  JsonValue progress = JsonValue::Object();
  progress.Set("interval_ms", JsonValue::Number(0.0));
  request.Set("progress", progress);
  request.Set("wait", JsonValue::Bool(true));

  std::atomic<int> frames{0};
  std::atomic<bool> stop_acked{false};
  const std::string reply_line = server.HandleRequestLine(
      request.Dump(), [&](const std::string& line) {
        const JsonValue frame = MustParse(line);
        if (frames.fetch_add(1) == 1 && !stop_acked.load()) {
          // Second frame: the client has seen enough. STOP by session id,
          // exactly as a second connection would.
          JsonValue stop = JsonValue::Object();
          stop.Set("cmd", JsonValue::Str("STOP"));
          stop.Set("id", JsonValue::Str(frame.GetString("id")));
          JsonValue acked = MustParse(server.HandleRequestLine(stop.Dump()));
          EXPECT_TRUE(acked.GetBool("ok", false)) << acked.Dump();
          stop_acked.store(true);
        }
        return true;
      });
  ASSERT_TRUE(stop_acked.load()) << "run finished before the second frame";
  const JsonValue reply = MustParse(reply_line);
  ASSERT_TRUE(reply.GetBool("ok", false)) << reply.Dump();
  EXPECT_EQ(reply.GetString("state"), "done") << reply.Dump();
  const JsonValue* report = reply.Get("report");
  ASSERT_NE(report, nullptr) << reply.Dump();
  EXPECT_EQ(report->GetString("termination"), "client_satisfied");
  EXPECT_FALSE(report->GetBool("satisfied", true));
  // Best-so-far is a real partial answer: the run explored something and
  // reports its closest query.
  EXPECT_GT(report->GetNumber("queries_explored", 0.0), 0.0);
  const JsonValue* best = report->Get("best");
  ASSERT_NE(best, nullptr);
  EXPECT_FALSE(best->GetString("predicates").empty()) << report->Dump();
  // The STATS ledger classifies the run as client-satisfied, not
  // cancelled or completed.
  JsonValue stats_reply =
      MustParse(server.HandleRequestLine("{\"cmd\":\"STATS\"}"));
  const JsonValue* stats = stats_reply.Get("stats");
  ASSERT_NE(stats, nullptr) << stats_reply.Dump();
  EXPECT_EQ(stats->GetNumber("client_satisfied", -1.0), 1.0);
}

// STOP while still queued: the session resolves without running at all —
// an empty, well-formed report with zero queries explored.
TEST(StreamingTest, QueuedStopResolvesWithEmptyReport) {
  if (!FailpointRegistry::compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  auto& registry = FailpointRegistry::Global();
  registry.DisarmAll();
  ServerOptions options;
  options.max_running = 1;
  AcqServer server(SharedCatalog(), options);
  // Stretch the slot-holding run so the second SUBMIT reliably queues.
  ASSERT_TRUE(registry.ConfigureFromSpec("server.run=sleep:300").ok());

  JsonValue hog = SubmitRequest(
      "SELECT * FROM users CONSTRAINT COUNT(*) >= 600 "
      "WHERE age <= 30 AND income >= 60000",
      "auto", false, 0.0, false);
  hog.Set("wait", JsonValue::Bool(false));
  JsonValue hog_reply = MustParse(server.HandleRequestLine(hog.Dump()));
  ASSERT_TRUE(hog_reply.GetBool("ok", false)) << hog_reply.Dump();

  JsonValue queued = SubmitRequest(
      "SELECT * FROM users CONSTRAINT COUNT(*) >= 700 "
      "WHERE age <= 28 AND income >= 62000",
      "auto", false, 0.0, false);
  queued.Set("wait", JsonValue::Bool(false));
  JsonValue queued_reply = MustParse(server.HandleRequestLine(queued.Dump()));
  ASSERT_TRUE(queued_reply.GetBool("ok", false)) << queued_reply.Dump();
  const std::string id = queued_reply.GetString("id");
  ASSERT_FALSE(id.empty());

  JsonValue stop = JsonValue::Object();
  stop.Set("cmd", JsonValue::Str("STOP"));
  stop.Set("id", JsonValue::Str(id));
  stop.Set("wait", JsonValue::Bool(true));
  JsonValue stopped = MustParse(server.HandleRequestLine(stop.Dump()));
  registry.DisarmAll();
  ASSERT_TRUE(stopped.GetBool("ok", false)) << stopped.Dump();
  EXPECT_EQ(stopped.GetString("state"), "done") << stopped.Dump();
  const JsonValue* report = stopped.Get("report");
  ASSERT_NE(report, nullptr) << stopped.Dump();
  EXPECT_EQ(report->GetString("termination"), "client_satisfied");
  EXPECT_EQ(report->GetNumber("queries_explored", -1.0), 0.0);
  const JsonValue* answers = report->Get("answers");
  ASSERT_NE(answers, nullptr);
  EXPECT_TRUE(answers->is_array());
  EXPECT_EQ(answers->size(), 0u);
}

// A cache hit replays the stored report without running anything, so it
// must stream nothing — and stay bit-identical to the run that seeded it.
TEST(StreamingTest, CacheHitStreamsNoFramesAndStaysBitIdentical) {
  ServerOptions options;
  options.cache_bytes = 1 << 20;
  AcqServer server(SharedCatalog(), options);
  const std::string sql =
      "SELECT * FROM users CONSTRAINT COUNT(*) >= 800 "
      "WHERE age <= 30 AND income >= 60000";
  StreamedRun first =
      RunStreamed(server, SubmitRequest(sql, "auto", false, 0.0, true));
  ASSERT_TRUE(first.reply.GetBool("ok", false)) << first.reply.Dump();
  StreamedRun second =
      RunStreamed(server, SubmitRequest(sql, "auto", false, 0.0, true));
  ASSERT_TRUE(second.reply.GetBool("ok", false)) << second.reply.Dump();
  EXPECT_TRUE(second.frames.empty())
      << "cache hit ran nothing, so nothing may stream";
  EXPECT_EQ(Stripped(second.reply).Dump(), Stripped(first.reply).Dump());
}

// A run stopped by the client must never seed the result cache: its
// answer reflects where it was interrupted, not the task.
TEST(StreamingTest, ClientStoppedRunDoesNotSeedCache) {
  ServerOptions options;
  options.cache_bytes = 1 << 20;
  AcqServer server(SharedCatalog(), options);
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  const std::string sql =
      "SELECT * FROM users CONSTRAINT COUNT(*) >= 1000000000 "
      "WHERE age <= 20 AND income <= 30000 AND engagement <= 1.0 "
      "AND account_age_days <= 100";
  request.Set("sql", JsonValue::Str(sql));
  request.Set("stall_limit", JsonValue::Number(1e15));
  request.Set("divergence_patience", JsonValue::Number(1000000));
  request.Set("max_explored", JsonValue::Number(4e9));
  request.Set("timeout_ms", JsonValue::Number(30000.0));
  JsonValue progress = JsonValue::Object();
  progress.Set("interval_ms", JsonValue::Number(0.0));
  request.Set("progress", progress);
  request.Set("wait", JsonValue::Bool(true));

  std::atomic<bool> stop_sent{false};
  const std::string reply_line = server.HandleRequestLine(
      request.Dump(), [&](const std::string& line) {
        if (!stop_sent.exchange(true)) {
          const JsonValue frame = MustParse(line);
          JsonValue stop = JsonValue::Object();
          stop.Set("cmd", JsonValue::Str("STOP"));
          stop.Set("id", JsonValue::Str(frame.GetString("id")));
          server.HandleRequestLine(stop.Dump());
        }
        return true;
      });
  const JsonValue reply = MustParse(reply_line);
  ASSERT_TRUE(reply.GetBool("ok", false)) << reply.Dump();
  const JsonValue* report = reply.Get("report");
  ASSERT_NE(report, nullptr);
  ASSERT_EQ(report->GetString("termination"), "client_satisfied")
      << report->Dump();

  // A stopped run never seeded the cache: resubmitting cannot hit.
  JsonValue stats_reply =
      MustParse(server.HandleRequestLine("{\"cmd\":\"STATS\"}"));
  const JsonValue* stats = stats_reply.Get("stats");
  ASSERT_NE(stats, nullptr) << stats_reply.Dump();
  EXPECT_EQ(stats->GetNumber("cache_hits", -1.0), 0.0);
  EXPECT_EQ(stats->GetNumber("cache_entries", -1.0), 0.0);
}

// The ordering guarantee over real TCP: every frame precedes the final
// reply on the wire, and the stream ends exactly at the terminal line
// (CallStreaming returns it; the connection stays usable in lockstep).
TEST(StreamingTest, TcpStreamOrdersFramesBeforeFinalReply) {
  AcqServer server(SharedCatalog());
  ASSERT_TRUE(server.Start().ok());
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  JsonValue request = SubmitRequest(
      "SELECT * FROM users CONSTRAINT COUNT(*) >= 1400 "
      "WHERE age <= 30 AND income >= 60000 AND engagement >= 3.0",
      "bfs", true, 0.0, true);
  std::vector<JsonValue> frames;
  Result<JsonValue> reply = client.CallStreaming(
      request, [&frames](const JsonValue& frame) { frames.push_back(frame); });
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->GetBool("ok", false)) << reply->Dump();
  EXPECT_EQ(reply->GetString("state"), "done");
  EXPECT_FALSE(frames.empty());
  // The connection is back in lockstep: a plain STATS round-trip works.
  JsonValue stats_request = JsonValue::Object();
  stats_request.Set("cmd", JsonValue::Str("STATS"));
  Result<JsonValue> stats_reply = client.Call(stats_request);
  ASSERT_TRUE(stats_reply.ok()) << stats_reply.status().ToString();
  const JsonValue* stats = stats_reply->Get("stats");
  ASSERT_NE(stats, nullptr) << stats_reply->Dump();
  EXPECT_EQ(stats->GetNumber("progress_frames", -1.0),
            static_cast<double>(frames.size()));
  client.Close();
  server.Stop();
}

// Satellite 4's regression: CallStreamingWithRetry must NOT retry a
// SUBMIT whose stream already delivered a PROGRESS frame — the run's side
// effects are observable, so a silent re-run would double them. Phase 1
// learns the run's deterministic frame count F; phase 2 arms
// server.send=every:(F+1) so all F frames are delivered and exactly the
// final-reply send fails, closing the connection mid-exchange.
TEST(StreamingTest, NoRetryAfterDeliveredFrame) {
  if (!FailpointRegistry::compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  auto& registry = FailpointRegistry::Global();
  registry.DisarmAll();
  AcqServer server(SharedCatalog());
  ASSERT_TRUE(server.Start().ok());
  JsonValue request = SubmitRequest(
      "SELECT * FROM users CONSTRAINT COUNT(*) >= 1400 "
      "WHERE age <= 30 AND income >= 60000 AND engagement >= 3.0",
      "bfs", true, 0.0, true);

  LineClient probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", server.port()).ok());
  std::atomic<int> probe_frames{0};
  Result<JsonValue> probed = probe.CallStreaming(
      request, [&probe_frames](const JsonValue&) { probe_frames.fetch_add(1); });
  ASSERT_TRUE(probed.ok()) << probed.status().ToString();
  ASSERT_TRUE(probed->GetBool("ok", false)) << probed->Dump();
  const int f = probe_frames.load();
  ASSERT_GE(f, 1) << "test needs a run that streams at least one frame";
  probe.Close();

  ASSERT_TRUE(
      registry.ConfigureFromSpec(StringFormat("server.send=every:%d", f + 1))
          .ok());
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  std::atomic<int> frames{0};
  RetryOptions retry;
  retry.max_attempts = 5;
  retry.initial_backoff_ms = 1.0;
  retry.max_backoff_ms = 5.0;
  Result<JsonValue> reply = client.CallStreamingWithRetry(
      request, [&frames](const JsonValue&) { frames.fetch_add(1); }, retry);
  registry.DisarmAll();
  EXPECT_EQ(frames.load(), f);
  // The transport failure after delivered frames surfaces as an error —
  // no retry happened (retries() stays 0), so the run was not re-executed.
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(client.retries(), 0u);
  JsonValue stats_request = JsonValue::Object();
  stats_request.Set("cmd", JsonValue::Str("STATS"));
  LineClient fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", server.port()).ok());
  Result<JsonValue> stats_reply = fresh.Call(stats_request);
  ASSERT_TRUE(stats_reply.ok()) << stats_reply.status().ToString();
  const JsonValue* stats = stats_reply->Get("stats");
  ASSERT_NE(stats, nullptr) << stats_reply->Dump();
  EXPECT_EQ(stats->GetNumber("submitted", -1.0), 2.0)
      << "a retry would have submitted a third run: " << stats_reply->Dump();
  fresh.Close();
  client.Close();
  server.Stop();
}

// Same failpoint, non-streaming control: with no frame delivered before
// the failure, CallStreamingWithRetry retries like CallWithRetry does.
TEST(StreamingTest, RetryStillAllowedBeforeFirstFrame) {
  if (!FailpointRegistry::compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  auto& registry = FailpointRegistry::Global();
  registry.DisarmAll();
  AcqServer server(SharedCatalog());
  ASSERT_TRUE(server.Start().ok());
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  // count:1 → exactly the first send (the non-streaming reply) fails;
  // the retry reconnects and succeeds.
  ASSERT_TRUE(registry.ConfigureFromSpec("server.send=count:1").ok());
  JsonValue request = SubmitRequest(
      "SELECT * FROM users CONSTRAINT COUNT(*) >= 700 "
      "WHERE age <= 30 AND income >= 60000",
      "auto", false, 0.0, false);
  RetryOptions retry;
  retry.max_attempts = 5;
  retry.initial_backoff_ms = 1.0;
  retry.max_backoff_ms = 5.0;
  Result<JsonValue> reply =
      client.CallStreamingWithRetry(request, nullptr, retry);
  registry.DisarmAll();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->GetBool("ok", false)) << reply->Dump();
  EXPECT_GE(client.retries(), 1u);
  client.Close();
  server.Stop();
}

// A finished streamed session stays in its tenant's manager for STATUS,
// and so does its progress callback. The callback must not own the
// tenant, or the tenant would pin itself: after a streamed SUBMIT and a
// DETACH, nothing may keep the tenant (and its catalog) alive.
TEST(StreamingTest, DetachFreesTenantAfterStreamedSubmit) {
  AcqServer server(SharedCatalog());
  JsonValue attach = JsonValue::Object();
  attach.Set("cmd", JsonValue::Str("ATTACH"));
  attach.Set("tenant", JsonValue::Str("t1"));
  attach.Set("gen", JsonValue::Str("users"));
  attach.Set("rows", JsonValue::Number(2000));
  JsonValue attached = MustParse(server.HandleRequestLine(attach.Dump()));
  ASSERT_TRUE(attached.GetBool("ok", false)) << attached.Dump();
  std::weak_ptr<Tenant> weak;
  {
    Result<TenantPtr> tenant = server.tenants().Find("t1");
    ASSERT_TRUE(tenant.ok());
    weak = *tenant;
  }

  JsonValue request = SubmitRequest(
      "SELECT * FROM users CONSTRAINT COUNT(*) >= 900 "
      "WHERE age <= 30 AND income >= 60000",
      "bfs", /*batch=*/true, 0.0, /*streaming=*/true);
  request.Set("tenant", JsonValue::Str("t1"));
  StreamedRun streamed = RunStreamed(server, request);
  ASSERT_TRUE(streamed.reply.GetBool("ok", false)) << streamed.reply.Dump();
  ASSERT_FALSE(streamed.frames.empty());
  ASSERT_FALSE(weak.expired());

  JsonValue detached = MustParse(
      server.HandleRequestLine("{\"cmd\":\"DETACH\",\"tenant\":\"t1\"}"));
  ASSERT_TRUE(detached.GetBool("ok", false)) << detached.Dump();
  EXPECT_TRUE(weak.expired());
}

}  // namespace
}  // namespace acquire

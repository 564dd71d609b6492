// The ACQ service layer end to end: protocol grammar, session lifecycle,
// admission control, deadlines/cancellation, and — the core guarantee —
// that answers served over the wire are bit-identical to direct ProcessAcq
// runs against the same catalog, including under concurrent clients.

#include <atomic>
#include <chrono>
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

// One catalog for the whole suite: the server treats it as read-only, so
// sharing it across tests mirrors production use.
Catalog* SharedCatalog() {
  static Catalog* catalog = [] {
    auto* c = new Catalog();
    UsersOptions options;
    options.users = 3000;
    EXPECT_TRUE(GenerateUsers(options, c).ok());
    return c;
  }();
  return catalog;
}

// A query whose expansion can never satisfy its constraint; with the stall
// guard effectively disabled it keeps exploring until interrupted. The
// 30s deadline is a backstop so a broken cancel fails the test instead of
// hanging it.
JsonValue SlowSubmit() {
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
  return request;
}

JsonValue MustParse(const std::string& line) {
  Result<JsonValue> parsed = JsonValue::Parse(line);
  EXPECT_TRUE(parsed.ok()) << line;
  return parsed.ok() ? *parsed : JsonValue::Null();
}

// Runs the same SQL directly (no server) with default options.
Result<AcqOutcome> DirectRun(const std::string& sql,
                             std::shared_ptr<AcqTask>* task_out) {
  Binder binder(SharedCatalog());
  ACQ_ASSIGN_OR_RETURN(AcqTask task, binder.PlanSql(sql));
  auto task_ptr = std::make_shared<AcqTask>(std::move(task));
  ACQ_ASSIGN_OR_RETURN(AcqOutcome outcome,
                       ProcessAcq(*task_ptr, AcquireOptions{}));
  *task_out = task_ptr;
  return outcome;
}

// Asserts the server's report is bit-identical to the direct outcome:
// same mode/termination/satisfied, exactly equal doubles, and the same
// rendered SQL for every answer.
void ExpectReportMatchesDirect(const JsonValue& response,
                               const AcqOutcome& direct,
                               const AcqTask& direct_task) {
  ASSERT_TRUE(response.GetBool("ok", false)) << response.Dump();
  const JsonValue* report = response.Get("report");
  ASSERT_NE(report, nullptr) << response.Dump();
  EXPECT_EQ(report->GetString("mode"), AcqModeToString(direct.mode));
  EXPECT_EQ(report->GetString("termination"),
            RunTerminationToString(direct.result.termination));
  EXPECT_EQ(report->GetBool("satisfied", !direct.result.satisfied),
            direct.result.satisfied);
  EXPECT_EQ(report->GetNumber("original_aggregate", -1.0),
            direct.original_aggregate);
  EXPECT_EQ(report->GetNumber("queries_explored", -1.0),
            static_cast<double>(direct.result.queries_explored));
  EXPECT_EQ(report->GetNumber("cell_queries", -1.0),
            static_cast<double>(direct.result.cell_queries));
  const AcqTask& display_task = direct.mode == AcqMode::kContracted
                                    ? *direct.contraction_task
                                    : direct_task;
  const JsonValue* answers = report->Get("answers");
  ASSERT_NE(answers, nullptr);
  ASSERT_TRUE(answers->is_array());
  ASSERT_EQ(answers->size(), direct.result.queries.size());
  for (size_t i = 0; i < direct.result.queries.size(); ++i) {
    const RefinedQuery& expected = direct.result.queries[i];
    const JsonValue& got = answers->AsArray()[i];
    EXPECT_EQ(got.GetString("sql"),
              RenderRefinedSql(display_task, expected));
    EXPECT_EQ(got.GetString("predicates"), expected.description);
    EXPECT_EQ(got.GetNumber("aggregate", -1.0), expected.aggregate);
    EXPECT_EQ(got.GetNumber("qscore", -1.0), expected.qscore);
    EXPECT_EQ(got.GetNumber("error", -1.0), expected.error);
  }
  const JsonValue* best = report->Get("best");
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->GetNumber("aggregate", -1.0), direct.result.best.aggregate);
  EXPECT_EQ(best->GetNumber("qscore", -1.0), direct.result.best.qscore);
}

TEST(ServerProtocolTest, RejectsMalformedRequests) {
  AcqServer server(SharedCatalog());
  struct Case {
    const char* line;
    const char* code;
  } cases[] = {
      {"this is not json", "ParseError"},
      {"[1,2,3]", "InvalidArgument"},
      {"{\"cmd\":\"NOPE\"}", "InvalidArgument"},
      {"{\"cmd\":\"SUBMIT\"}", "InvalidArgument"},
      {"{\"cmd\":\"SUBMIT\",\"sql\":42}", "InvalidArgument"},
      {"{\"cmd\":\"SUBMIT\",\"sql\":\"SELECT * FROM users CONSTRAINT "
       "COUNT(*) >= 1 WHERE age <= 30\",\"gamma\":-1}",
       "InvalidArgument"},
      {"{\"cmd\":\"SUBMIT\",\"sql\":\"x\",\"order\":\"sideways\"}",
       "InvalidArgument"},
      {"{\"cmd\":\"SUBMIT\",\"sql\":\"x\",\"backend\":\"abacus\"}",
       "InvalidArgument"},
      {"{\"cmd\":\"STATUS\",\"id\":\"s-999\"}", "NotFound"},
      {"{\"cmd\":\"CANCEL\",\"id\":\"nope\"}", "NotFound"},
  };
  for (const Case& c : cases) {
    JsonValue response = MustParse(server.HandleRequestLine(c.line));
    EXPECT_FALSE(response.GetBool("ok", true)) << c.line;
    EXPECT_EQ(response.GetString("code"), c.code) << c.line;
    EXPECT_FALSE(response.GetString("error").empty()) << c.line;
  }
}

TEST(ServerProtocolTest, PlanningErrorFailsSession) {
  AcqServer server(SharedCatalog());
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str("SELECT * FROM missing_table "
                                    "CONSTRAINT COUNT(*) >= 1 "
                                    "WHERE x <= 1"));
  request.Set("wait", JsonValue::Bool(true));
  JsonValue response = MustParse(server.HandleRequestLine(request.Dump()));
  EXPECT_TRUE(response.GetBool("ok", false));
  EXPECT_EQ(response.GetString("state"), "failed");
  EXPECT_FALSE(response.GetString("error").empty());
}

TEST(ServerTest, SubmitWaitMatchesDirectRun) {
  // Learn the original aggregate cheaply, then target 20% above it so the
  // run actually expands.
  std::shared_ptr<AcqTask> probe_task;
  auto probe = DirectRun(
      "SELECT * FROM users CONSTRAINT COUNT(*) >= 1 "
      "WHERE age <= 30 AND income >= 60000",
      &probe_task);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  const int target =
      static_cast<int>(probe->original_aggregate * 1.2) + 1;
  const std::string sql = StringFormat(
      "SELECT * FROM users CONSTRAINT COUNT(*) >= %d "
      "WHERE age <= 30 AND income >= 60000",
      target);
  std::shared_ptr<AcqTask> task;
  auto direct = DirectRun(sql, &task);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  AcqServer server(SharedCatalog());
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str(sql));
  request.Set("wait", JsonValue::Bool(true));
  JsonValue response = MustParse(server.HandleRequestLine(request.Dump()));
  EXPECT_EQ(response.GetString("state"), "done");
  ExpectReportMatchesDirect(response, *direct, *task);
}

TEST(ServerTest, EightConcurrentClientsBitIdenticalOverTcp) {
  constexpr int kClients = 8;
  // Distinct queries per client, solved directly first (serially).
  std::vector<std::string> sqls;
  std::vector<AcqOutcome> direct(kClients);
  std::vector<std::shared_ptr<AcqTask>> tasks(kClients);
  for (int i = 0; i < kClients; ++i) {
    sqls.push_back(StringFormat(
        "SELECT * FROM users CONSTRAINT COUNT(*) >= %d "
        "WHERE age <= %d AND income >= %d",
        200 + 25 * i, 24 + i, 55000 + 1000 * i));
    auto outcome = DirectRun(sqls.back(), &tasks[i]);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    direct[i] = std::move(*outcome);
  }

  AcqServer server(SharedCatalog());
  ASSERT_TRUE(server.Start().ok());
  std::vector<JsonValue> responses(kClients);
  std::vector<Status> failures(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      LineClient client;
      Status connected = client.Connect("127.0.0.1", server.port());
      if (!connected.ok()) {
        failures[i] = connected;
        return;
      }
      JsonValue request = JsonValue::Object();
      request.Set("cmd", JsonValue::Str("SUBMIT"));
      request.Set("sql", JsonValue::Str(sqls[i]));
      request.Set("wait", JsonValue::Bool(true));
      Result<JsonValue> response = client.Call(request);
      if (!response.ok()) {
        failures[i] = response.status();
        return;
      }
      responses[i] = std::move(*response);
    });
  }
  for (std::thread& t : clients) t.join();
  server.Stop();
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(failures[i].ok()) << failures[i].ToString();
    EXPECT_EQ(responses[i].GetString("state"), "done") << sqls[i];
    ExpectReportMatchesDirect(responses[i], direct[i], *tasks[i]);
  }
}

TEST(ServerTest, CancelMidExploreReturnsPartialReport) {
  AcqServer server(SharedCatalog());
  JsonValue submitted =
      MustParse(server.HandleRequestLine(SlowSubmit().Dump()));
  ASSERT_TRUE(submitted.GetBool("ok", false)) << submitted.Dump();
  const std::string id = submitted.GetString("id");
  ASSERT_FALSE(id.empty());

  // Wait until the run is demonstrably mid-Explore.
  JsonValue status;
  for (int i = 0; i < 2000; ++i) {
    status = MustParse(server.HandleRequestLine(
        StringFormat("{\"cmd\":\"STATUS\",\"id\":\"%s\"}", id.c_str())));
    if (status.GetString("state") == "running" &&
        status.GetNumber("queries_explored", 0.0) > 0.0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(status.GetString("state"), "running") << status.Dump();

  JsonValue cancelled = MustParse(server.HandleRequestLine(StringFormat(
      "{\"cmd\":\"CANCEL\",\"id\":\"%s\",\"wait\":true}", id.c_str())));
  ASSERT_TRUE(cancelled.GetBool("ok", false)) << cancelled.Dump();
  EXPECT_EQ(cancelled.GetString("state"), "cancelled");
  const JsonValue* report = cancelled.Get("report");
  ASSERT_NE(report, nullptr) << cancelled.Dump();
  EXPECT_EQ(report->GetString("termination"), "cancelled");
  EXPECT_FALSE(report->GetBool("satisfied", true));
  EXPECT_GT(report->GetNumber("queries_explored", 0.0), 0.0);

  // The run released its admission slot and pool task.
  for (int i = 0; i < 2000 && server.sessions().num_running() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.sessions().num_running(), 0u);
}

TEST(ServerTest, AdmissionRejectsWhenSaturated) {
  ServerOptions options;
  options.max_running = 1;
  options.max_queued = 1;
  AcqServer server(SharedCatalog(), options);
  JsonValue first = MustParse(server.HandleRequestLine(SlowSubmit().Dump()));
  JsonValue second = MustParse(server.HandleRequestLine(SlowSubmit().Dump()));
  JsonValue third = MustParse(server.HandleRequestLine(SlowSubmit().Dump()));
  ASSERT_TRUE(first.GetBool("ok", false));
  ASSERT_TRUE(second.GetBool("ok", false));
  EXPECT_FALSE(third.GetBool("ok", true));
  EXPECT_EQ(third.GetString("code"), "Unavailable");

  for (const JsonValue* response : {&first, &second}) {
    const std::string id = response->GetString("id");
    JsonValue cancelled = MustParse(server.HandleRequestLine(StringFormat(
        "{\"cmd\":\"CANCEL\",\"id\":\"%s\",\"wait\":true}", id.c_str())));
    EXPECT_EQ(cancelled.GetString("state"), "cancelled") << cancelled.Dump();
  }

  JsonValue stats = MustParse(server.HandleRequestLine("{\"cmd\":\"STATS\"}"));
  const JsonValue* counters = stats.Get("stats");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->GetNumber("submitted", -1.0), 2.0);
  EXPECT_EQ(counters->GetNumber("rejected", -1.0), 1.0);
  EXPECT_EQ(counters->GetNumber("cancelled", -1.0), 2.0);
}

TEST(ServerTest, DeadlineOverServerReturnsPartialDone) {
  AcqServer server(SharedCatalog());
  JsonValue request = SlowSubmit();
  request.Set("timeout_ms", JsonValue::Number(1.0));
  request.Set("wait", JsonValue::Bool(true));
  JsonValue response = MustParse(server.HandleRequestLine(request.Dump()));
  ASSERT_TRUE(response.GetBool("ok", false)) << response.Dump();
  EXPECT_EQ(response.GetString("state"), "done");
  const JsonValue* report = response.Get("report");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->GetString("termination"), "deadline_exceeded");
  EXPECT_FALSE(report->GetBool("satisfied", true));
}

TEST(ServerTest, StatsAggregateAcrossRuns) {
  AcqServer server(SharedCatalog());
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str(
                         "SELECT * FROM users CONSTRAINT COUNT(*) >= 1 "
                         "WHERE age <= 40"));
  request.Set("wait", JsonValue::Bool(true));
  JsonValue response = MustParse(server.HandleRequestLine(request.Dump()));
  ASSERT_TRUE(response.GetBool("ok", false)) << response.Dump();
  EXPECT_EQ(response.GetString("state"), "done");

  JsonValue stats = MustParse(server.HandleRequestLine("{\"cmd\":\"STATS\"}"));
  ASSERT_TRUE(stats.GetBool("ok", false));
  const JsonValue* counters = stats.Get("stats");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->GetNumber("submitted", -1.0), 1.0);
  EXPECT_EQ(counters->GetNumber("completed", -1.0), 1.0);
  EXPECT_EQ(counters->GetNumber("running", -1.0), 0.0);
  EXPECT_EQ(counters->GetNumber("queued", -1.0), 0.0);
  EXPECT_GE(counters->GetNumber("pool_threads", 0.0), 1.0);
}

TEST(ServerTest, SubmitWithMemoryBudgetReportsResourceExhausted) {
  AcqServer server(SharedCatalog());
  JsonValue request = SlowSubmit();
  // A budget far below the search's working set: the run must degrade to a
  // well-formed resource_exhausted report, never crash or hang.
  request.Set("memory_budget_bytes", JsonValue::Number(64 * 1024));
  request.Set("wait", JsonValue::Bool(true));
  JsonValue response = MustParse(server.HandleRequestLine(request.Dump()));
  ASSERT_TRUE(response.GetBool("ok", false)) << response.Dump();
  EXPECT_EQ(response.GetString("state"), "done");
  const JsonValue* report = response.Get("report");
  ASSERT_NE(report, nullptr) << response.Dump();
  EXPECT_EQ(report->GetString("termination"), "resource_exhausted");
  EXPECT_FALSE(report->GetBool("satisfied", true));
  EXPECT_GE(report->GetNumber("queries_explored", 0.0), 1.0);
  ASSERT_NE(report->Get("best"), nullptr);

  JsonValue stats = MustParse(server.HandleRequestLine("{\"cmd\":\"STATS\"}"));
  const JsonValue* counters = stats.Get("stats");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->GetNumber("resource_exhausted", -1.0), 1.0);
}

TEST(ServerTest, NegativeMemoryBudgetRejected) {
  AcqServer server(SharedCatalog());
  JsonValue request = SlowSubmit();
  request.Set("memory_budget_bytes", JsonValue::Number(-1.0));
  JsonValue response = MustParse(server.HandleRequestLine(request.Dump()));
  EXPECT_FALSE(response.GetBool("ok", true));
  EXPECT_EQ(response.GetString("code"), "InvalidArgument");
}

TEST(ServerProtocolTest, FailpointVerbListsArmsAndClears) {
  AcqServer server(SharedCatalog());
  JsonValue listed =
      MustParse(server.HandleRequestLine("{\"cmd\":\"FAILPOINT\"}"));
  ASSERT_TRUE(listed.GetBool("ok", false)) << listed.Dump();
  EXPECT_EQ(listed.GetBool("enabled", false),
            FailpointRegistry::compiled_in());
  ASSERT_NE(listed.Get("sites"), nullptr);

  if (!FailpointRegistry::compiled_in()) {
    JsonValue armed = MustParse(server.HandleRequestLine(
        "{\"cmd\":\"FAILPOINT\",\"set\":\"server.admit=count:1\"}"));
    EXPECT_EQ(armed.GetString("code"), "Unsupported");
    return;
  }
  JsonValue armed = MustParse(server.HandleRequestLine(
      "{\"cmd\":\"FAILPOINT\",\"set\":\"server.admit=count:1\"}"));
  ASSERT_TRUE(armed.GetBool("ok", false)) << armed.Dump();

  // The armed admission site rejects exactly the next SUBMIT.
  JsonValue rejected = MustParse(server.HandleRequestLine(SlowSubmit().Dump()));
  EXPECT_FALSE(rejected.GetBool("ok", true));
  EXPECT_EQ(rejected.GetString("code"), "Unavailable");

  JsonValue bad_spec = MustParse(server.HandleRequestLine(
      "{\"cmd\":\"FAILPOINT\",\"set\":\"server.admit=p:7\"}"));
  EXPECT_FALSE(bad_spec.GetBool("ok", true));
  EXPECT_EQ(bad_spec.GetString("code"), "InvalidArgument");

  JsonValue cleared = MustParse(
      server.HandleRequestLine("{\"cmd\":\"FAILPOINT\",\"clear\":true}"));
  ASSERT_TRUE(cleared.GetBool("ok", false)) << cleared.Dump();
  JsonValue accepted = MustParse(server.HandleRequestLine(SlowSubmit().Dump()));
  ASSERT_TRUE(accepted.GetBool("ok", false)) << accepted.Dump();
  JsonValue cancelled = MustParse(server.HandleRequestLine(StringFormat(
      "{\"cmd\":\"CANCEL\",\"id\":\"%s\",\"wait\":true}",
      accepted.GetString("id").c_str())));
  EXPECT_EQ(cancelled.GetString("state"), "cancelled");

  // STATS surfaces the injected-failure tally.
  JsonValue stats = MustParse(server.HandleRequestLine("{\"cmd\":\"STATS\"}"));
  const JsonValue* counters = stats.Get("stats");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->GetNumber("failpoint_hits", -1.0), 1.0);
}

TEST(ServerTest, OversizedLineRejectedAndConnectionClosed) {
  ServerOptions options;
  options.max_line_bytes = 1024;
  AcqServer server(SharedCatalog(), options);
  ASSERT_TRUE(server.Start().ok());
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto raw = client.CallRaw(std::string(4096, 'x'));
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  JsonValue response = MustParse(*raw);
  EXPECT_FALSE(response.GetBool("ok", true));
  EXPECT_EQ(response.GetString("code"), "InvalidArgument");
  // The server closes after the rejection: the next call fails.
  EXPECT_FALSE(client.Call(JsonValue::Object()).ok());
  server.Stop();
}

TEST(ServerTest, NewlineFreeGarbageCannotGrowBufferUnbounded) {
  ServerOptions options;
  options.max_line_bytes = 1024;
  AcqServer server(SharedCatalog(), options);
  ASSERT_TRUE(server.Start().ok());
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  // Binary garbage with no terminating newline: the server must cap its
  // partial-line buffer, answer once, and drop the connection.
  std::string garbage(8192, '\0');
  for (size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<char>(i * 131 + 7);
    if (garbage[i] == '\n') garbage[i] = ' ';
  }
  auto raw = client.CallRaw(garbage.substr(0, garbage.size() - 1));
  // CallRaw appends '\n' itself; either the rejection line came back or the
  // server already closed mid-send. Both are acceptable; a hang is not.
  if (raw.ok()) {
    JsonValue response = MustParse(*raw);
    EXPECT_FALSE(response.GetBool("ok", true));
  }
  server.Stop();
}

TEST(ServerTest, HalfOpenConnectionDoesNotWedgeServer) {
  AcqServer server(SharedCatalog());
  ASSERT_TRUE(server.Start().ok());
  {
    // Connect, send half a frame, vanish without the newline.
    LineClient half;
    ASSERT_TRUE(half.Connect("127.0.0.1", server.port()).ok());
    // (CallRaw would block on the response; just drop the connection.)
    half.Close();
  }
  // The server keeps serving new connections afterwards.
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  JsonValue stats_request = JsonValue::Object();
  stats_request.Set("cmd", JsonValue::Str("STATS"));
  auto stats = client.Call(stats_request);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->GetBool("ok", false));
  server.Stop();
}

TEST(ServerTest, IdleConnectionReapedByReadDeadline) {
  ServerOptions options;
  options.idle_timeout_ms = 50.0;
  AcqServer server(SharedCatalog(), options);
  ASSERT_TRUE(server.Start().ok());
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  // Go quiet past the deadline; the server must reap the connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  JsonValue stats_request = JsonValue::Object();
  stats_request.Set("cmd", JsonValue::Str("STATS"));
  // Either the send fails outright or the response never comes (the recv
  // sees the server's close). A fresh connection then shows the reap.
  (void)client.Call(stats_request);
  LineClient fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", server.port()).ok());
  auto stats = fresh.Call(stats_request);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const JsonValue* counters = stats->Get("stats");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->GetNumber("idle_disconnects", 0.0), 1.0);
  fresh.Close();
  server.Stop();
}

TEST(ServerTest, DisconnectBetweenSubmitAndStatus) {
  AcqServer server(SharedCatalog());
  ASSERT_TRUE(server.Start().ok());
  std::string id;
  {
    LineClient submitter;
    ASSERT_TRUE(submitter.Connect("127.0.0.1", server.port()).ok());
    auto submitted = submitter.Call(SlowSubmit());
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    ASSERT_TRUE(submitted->GetBool("ok", false)) << submitted->Dump();
    id = submitted->GetString("id");
    submitter.Close();  // vanish with the run still going
  }
  // Sessions survive their submitting connection: a different client can
  // observe and cancel the run.
  LineClient observer;
  ASSERT_TRUE(observer.Connect("127.0.0.1", server.port()).ok());
  auto cancelled = observer.Call(MustParse(StringFormat(
      "{\"cmd\":\"CANCEL\",\"id\":\"%s\",\"wait\":true}", id.c_str())));
  ASSERT_TRUE(cancelled.ok()) << cancelled.status().ToString();
  EXPECT_EQ(cancelled->GetString("state"), "cancelled");
  observer.Close();
  server.Stop();
}

TEST(ServerTest, WrongTypedFieldsRejectedNotCrashed) {
  AcqServer server(SharedCatalog());
  const char* cases[] = {
      "{\"cmd\":\"SUBMIT\",\"sql\":[1,2]}",
      "{\"cmd\":\"SUBMIT\",\"sql\":{\"a\":1}}",
      "{\"cmd\":\"SUBMIT\",\"sql\":true}",
      "{\"cmd\":\"SUBMIT\",\"sql\":\"x\",\"order\":7}",
      "{\"cmd\":\"SUBMIT\",\"sql\":\"x\",\"backend\":[]}",
      "{\"cmd\":\"FAILPOINT\",\"set\":42}",
      "{\"cmd\":\"FAILPOINT\",\"clear\":1.5}",
      "{\"cmd\":3}",
  };
  for (const char* line : cases) {
    JsonValue response = MustParse(server.HandleRequestLine(line));
    EXPECT_FALSE(response.GetBool("ok", true)) << line;
    EXPECT_FALSE(response.GetString("error").empty()) << line;
  }
}

// Drops the fields two runs of the same task may differ in: the session
// id and the wall-clock timings.
JsonValue WithoutIdAndTiming(const JsonValue& value) {
  if (value.is_object()) {
    JsonValue out = JsonValue::Object();
    for (const auto& [key, member] : value.Members()) {
      if (key == "id" || key == "elapsed_ms" || key == "wall_ms") continue;
      out.Set(key, WithoutIdAndTiming(member));
    }
    return out;
  }
  if (value.is_array()) {
    JsonValue out = JsonValue::Array();
    for (const JsonValue& element : value.AsArray()) {
      out.Append(WithoutIdAndTiming(element));
    }
    return out;
  }
  return value;
}

// SUBMIT ignores fields it does not know, including retired ones: an older
// client that still selects the removed sharded merge gets the reply it
// would get without the field, not an error.
TEST(ServerTest, RetiredSubmitFieldIsIgnored) {
  AcqServer server(SharedCatalog());
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str(
                         "SELECT * FROM users CONSTRAINT COUNT(*) >= 600 "
                         "WHERE age <= 30 AND income >= 60000"));
  request.Set("wait", JsonValue::Bool(true));
  JsonValue plain = MustParse(server.HandleRequestLine(request.Dump()));
  ASSERT_TRUE(plain.GetBool("ok", false)) << plain.Dump();
  EXPECT_EQ(plain.GetString("state"), "done");

  request.Set("merge_strategy", JsonValue::Str("radix"));
  JsonValue stale = MustParse(server.HandleRequestLine(request.Dump()));
  EXPECT_EQ(WithoutIdAndTiming(stale).Dump(),
            WithoutIdAndTiming(plain).Dump());
}

TEST(ClientTest, RetriesReconnectAfterServerSideDrop) {
  if (!FailpointRegistry::compiled_in()) GTEST_SKIP();
  AcqServer server(SharedCatalog());
  ASSERT_TRUE(server.Start().ok());
  // Drop the next server->client send mid-protocol; the client's retry
  // must reconnect and complete.
  ASSERT_TRUE(FailpointRegistry::Global()
                  .Configure("server.send", "count:1")
                  .ok());
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  JsonValue stats_request = JsonValue::Object();
  stats_request.Set("cmd", JsonValue::Str("STATS"));
  auto stats = client.CallWithRetry(stats_request);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->GetBool("ok", false));
  EXPECT_GE(client.retries(), 1u);
  FailpointRegistry::Global().DisarmAll();
  client.Close();
  server.Stop();
}

TEST(ClientTest, RetriesUnavailableUntilAdmitted) {
  if (!FailpointRegistry::compiled_in()) GTEST_SKIP();
  AcqServer server(SharedCatalog());
  ASSERT_TRUE(server.Start().ok());
  // Two injected admission rejections, then the SUBMIT goes through.
  ASSERT_TRUE(FailpointRegistry::Global()
                  .Configure("server.admit", "count:2")
                  .ok());
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str(
                         "SELECT * FROM users CONSTRAINT COUNT(*) >= 1 "
                         "WHERE age <= 40"));
  request.Set("wait", JsonValue::Bool(true));
  auto response = client.CallWithRetry(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->GetBool("ok", false)) << response->Dump();
  EXPECT_EQ(response->GetString("state"), "done");
  EXPECT_GE(client.retries(), 2u);
  FailpointRegistry::Global().DisarmAll();
  client.Close();
  server.Stop();
}

// Decorrelated retry jitter: backoff sleeps are randomized within
// [initial, 3*previous] capped at max_backoff_ms, so a fleet of clients
// rejected by the same admission burst doesn't re-collide on a shared
// deterministic schedule. The total sleep across attempts is therefore
// bounded: at least one initial backoff, at most attempts*max (plus
// call overhead), both of which this test pins with wide margins.
TEST(ClientTest, JitteredBackoffStaysWithinConfiguredBounds) {
  if (!FailpointRegistry::compiled_in()) GTEST_SKIP();
  AcqServer server(SharedCatalog());
  ASSERT_TRUE(server.Start().ok());
  // Every attempt is rejected: the call exhausts max_attempts, sleeping
  // between each, and returns the final Unavailable reply.
  ASSERT_TRUE(FailpointRegistry::Global()
                  .Configure("server.admit", "count:100")
                  .ok());
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str(
                         "SELECT * FROM users CONSTRAINT COUNT(*) >= 1 "
                         "WHERE age <= 40"));
  RetryOptions retry;
  retry.max_attempts = 5;
  retry.initial_backoff_ms = 4.0;
  retry.max_backoff_ms = 40.0;
  retry.jitter_seed = 12345;  // deterministic draw for the test
  const auto start = std::chrono::steady_clock::now();
  auto response = client.CallWithRetry(request, retry);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->GetString("code"), "Unavailable") << response->Dump();
  EXPECT_EQ(client.retries(), 4u);
  // 4 sleeps, each in [4ms, 40ms]: the floor proves sleeping happened at
  // all, the ceiling (with slack for 5 round trips) proves the cap held.
  EXPECT_GE(elapsed_ms, 4.0);
  EXPECT_LE(elapsed_ms, 4 * 40.0 + 2000.0);
  FailpointRegistry::Global().DisarmAll();
  client.Close();
  server.Stop();
}

// jitter=false preserves the historical deterministic schedule for tests
// and tools that rely on exact sleep sequences; the retry loop still
// recovers from admission rejections either way.
TEST(ClientTest, JitterDisabledStillRetriesDeterministically) {
  if (!FailpointRegistry::compiled_in()) GTEST_SKIP();
  AcqServer server(SharedCatalog());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(FailpointRegistry::Global()
                  .Configure("server.admit", "count:2")
                  .ok());
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str(
                         "SELECT * FROM users CONSTRAINT COUNT(*) >= 1 "
                         "WHERE age <= 40"));
  request.Set("wait", JsonValue::Bool(true));
  RetryOptions retry;
  retry.jitter = false;
  retry.initial_backoff_ms = 1.0;
  retry.max_backoff_ms = 8.0;
  auto response = client.CallWithRetry(request, retry);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->GetBool("ok", false)) << response->Dump();
  EXPECT_EQ(response->GetString("state"), "done");
  EXPECT_GE(client.retries(), 2u);
  FailpointRegistry::Global().DisarmAll();
  client.Close();
  server.Stop();
}

// The wire reply minus the outer session "id" — the only field replies for
// the same task may differ in when the result cache serves them.
std::string DumpWithoutId(const JsonValue& response) {
  JsonValue out = JsonValue::Object();
  for (const auto& [key, value] : response.Members()) {
    if (key != "id") out.Set(key, JsonValue(value));
  }
  return out.Dump();
}

double StatsNumber(AcqServer* server, const char* field) {
  Result<JsonValue> stats =
      JsonValue::Parse(server->HandleRequestLine("{\"cmd\":\"STATS\"}"));
  EXPECT_TRUE(stats.ok());
  const JsonValue* counters = stats.ok() ? stats->Get("stats") : nullptr;
  return counters != nullptr ? counters->GetNumber(field, -1.0) : -1.0;
}

// N concurrent SUBMITs of the same task run it exactly once: a sleep:
// failpoint holds the leader in flight while the followers arrive, join,
// and all receive the leader's reply byte-identically.
TEST(ServerTest, InFlightDuplicateSubmitsJoinTheLeader) {
  if (!FailpointRegistry::compiled_in()) GTEST_SKIP();
  auto& registry = FailpointRegistry::Global();
  registry.DisarmAll();
  ServerOptions options;
  options.cache_bytes = 16ull << 20;
  AcqServer server(SharedCatalog(), options);
  ASSERT_TRUE(registry.Configure("server.run", "sleep:600").ok());

  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str(
                         "SELECT * FROM users CONSTRAINT COUNT(*) >= 300 "
                         "WHERE age <= 30 AND income >= 60000"));
  // The leader registers its in-flight entry synchronously, so the
  // followers below are guaranteed to find it while the leader sleeps.
  JsonValue leader = MustParse(server.HandleRequestLine(request.Dump()));
  ASSERT_TRUE(leader.GetBool("ok", false)) << leader.Dump();
  const std::string leader_id = leader.GetString("id");

  constexpr int kFollowers = 3;
  request.Set("wait", JsonValue::Bool(true));
  std::vector<JsonValue> replies(kFollowers);
  std::vector<std::thread> followers;
  for (int i = 0; i < kFollowers; ++i) {
    followers.emplace_back([&, i] {
      replies[i] = MustParse(server.HandleRequestLine(request.Dump()));
    });
  }
  for (std::thread& t : followers) t.join();
  registry.DisarmAll();

  JsonValue done = MustParse(server.HandleRequestLine(StringFormat(
      "{\"cmd\":\"STATUS\",\"id\":\"%s\",\"wait\":true}", leader_id.c_str())));
  ASSERT_EQ(done.GetString("state"), "done") << done.Dump();
  for (const JsonValue& reply : replies) {
    ASSERT_TRUE(reply.GetBool("ok", false)) << reply.Dump();
    EXPECT_EQ(reply.GetString("state"), "done") << reply.Dump();
    EXPECT_EQ(DumpWithoutId(reply), DumpWithoutId(done));
  }
  EXPECT_EQ(StatsNumber(&server, "submitted"), 4.0);
  EXPECT_EQ(StatsNumber(&server, "completed"), 1.0);
  EXPECT_EQ(StatsNumber(&server, "cache_inflight_joins"), 3.0);
  EXPECT_EQ(StatsNumber(&server, "cache_hits"), 0.0);
}

// Cancelling the leader must not poison its followers: one follower is
// promoted onto the vacated slot, runs the task itself, and completes.
TEST(ServerTest, CancelledLeaderPromotesFollower) {
  if (!FailpointRegistry::compiled_in()) GTEST_SKIP();
  auto& registry = FailpointRegistry::Global();
  registry.DisarmAll();
  ServerOptions options;
  options.cache_bytes = 16ull << 20;
  AcqServer server(SharedCatalog(), options);
  ASSERT_TRUE(registry.Configure("server.run", "sleep:600").ok());

  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  // Must NOT be satisfied at the origin: the cancel flag is polled per
  // explored coordinate, so an original-satisfies task would complete
  // before the pre-armed cancellation could land.
  request.Set("sql", JsonValue::Str(
                         "SELECT * FROM users CONSTRAINT COUNT(*) >= 1400 "
                         "WHERE age <= 32 AND income >= 58000"));
  JsonValue leader = MustParse(server.HandleRequestLine(request.Dump()));
  ASSERT_TRUE(leader.GetBool("ok", false)) << leader.Dump();
  const std::string leader_id = leader.GetString("id");

  request.Set("wait", JsonValue::Bool(true));
  JsonValue follower_reply;
  std::thread follower([&] {
    follower_reply = MustParse(server.HandleRequestLine(request.Dump()));
  });
  // The follower has demonstrably joined before the cancel lands.
  for (int i = 0; i < 5000; ++i) {
    if (StatsNumber(&server, "cache_inflight_joins") >= 1.0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(StatsNumber(&server, "cache_inflight_joins"), 1.0);

  JsonValue cancelled = MustParse(server.HandleRequestLine(StringFormat(
      "{\"cmd\":\"CANCEL\",\"id\":\"%s\",\"wait\":true}", leader_id.c_str())));
  registry.DisarmAll();  // the promoted follower reruns server.run
  EXPECT_EQ(cancelled.GetString("state"), "cancelled") << cancelled.Dump();
  follower.join();

  ASSERT_TRUE(follower_reply.GetBool("ok", false)) << follower_reply.Dump();
  EXPECT_EQ(follower_reply.GetString("state"), "done")
      << follower_reply.Dump();
  const JsonValue* report = follower_reply.Get("report");
  ASSERT_NE(report, nullptr) << follower_reply.Dump();
  EXPECT_EQ(report->GetString("termination"), "completed");
  EXPECT_EQ(StatsNumber(&server, "completed"), 1.0);
  EXPECT_EQ(StatsNumber(&server, "cancelled"), 1.0);
}

TEST(ServerProtocolTest, RejectsMalformedProgressFields) {
  AcqServer server(SharedCatalog());
  const char* sql_prefix =
      "{\"cmd\":\"SUBMIT\",\"sql\":\"SELECT * FROM users CONSTRAINT "
      "COUNT(*) >= 1 WHERE age <= 30\",";
  struct Case {
    const char* progress_tail;  // appended after the shared prefix
    const char* why;
  } cases[] = {
      {"\"progress\":{\"interval_ms\":-1}}", "negative interval"},
      {"\"progress\":{\"interval_ms\":1.5}}", "non-integral interval"},
      {"\"progress\":{\"interval_ms\":\"fast\"}}", "non-number interval"},
      {"\"progress\":{\"interval_ms\":3600001}}", "oversize interval"},
      {"\"progress\":5}", "progress is neither bool nor object"},
      {"\"progress\":[true]}", "progress is an array"},
      {"\"progress\":true,\"wait\":false}", "streaming contradicts wait"},
  };
  for (const Case& c : cases) {
    const std::string line = std::string(sql_prefix) + c.progress_tail;
    JsonValue response = MustParse(server.HandleRequestLine(line));
    EXPECT_FALSE(response.GetBool("ok", true)) << c.why << ": " << line;
    EXPECT_EQ(response.GetString("code"), "InvalidArgument")
        << c.why << ": " << response.Dump();
  }
  // interval_ms 0 is NOT malformed: it means one frame per drained layer.
  const std::string ok_line =
      std::string(sql_prefix) +
      "\"progress\":{\"interval_ms\":0},\"wait\":true}";
  JsonValue response = MustParse(server.HandleRequestLine(ok_line));
  EXPECT_TRUE(response.GetBool("ok", false)) << response.Dump();
}

TEST(ServerProtocolTest, StopOnUnknownAndFinishedSessions) {
  AcqServer server(SharedCatalog());
  // Unknown session: NotFound, same contract as CANCEL/STATUS.
  JsonValue missing =
      MustParse(server.HandleRequestLine("{\"cmd\":\"STOP\",\"id\":\"s-99\"}"));
  EXPECT_FALSE(missing.GetBool("ok", true));
  EXPECT_EQ(missing.GetString("code"), "NotFound");

  // Finished session: STOP is a harmless no-op that returns the terminal
  // state unchanged — the report stays the completed one.
  JsonValue submit = JsonValue::Object();
  submit.Set("cmd", JsonValue::Str("SUBMIT"));
  submit.Set("sql", JsonValue::Str(
                        "SELECT * FROM users CONSTRAINT COUNT(*) >= 700 "
                        "WHERE age <= 30 AND income >= 60000"));
  submit.Set("wait", JsonValue::Bool(true));
  JsonValue done = MustParse(server.HandleRequestLine(submit.Dump()));
  ASSERT_TRUE(done.GetBool("ok", false)) << done.Dump();
  ASSERT_EQ(done.GetString("state"), "done") << done.Dump();
  const std::string id = done.GetString("id");

  JsonValue stop = JsonValue::Object();
  stop.Set("cmd", JsonValue::Str("STOP"));
  stop.Set("id", JsonValue::Str(id));
  JsonValue stopped = MustParse(server.HandleRequestLine(stop.Dump()));
  ASSERT_TRUE(stopped.GetBool("ok", false)) << stopped.Dump();
  EXPECT_EQ(stopped.GetString("state"), "done");
  const JsonValue* report = stopped.Get("report");
  ASSERT_NE(report, nullptr) << stopped.Dump();
  EXPECT_EQ(report->GetString("termination"), "completed");
  EXPECT_EQ(StatsNumber(&server, "client_satisfied"), 0.0);
}

TEST(ServerTest, MultipleRequestsOnOneConnection) {
  AcqServer server(SharedCatalog());
  ASSERT_TRUE(server.Start().ok());
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // Malformed line gets an error response, connection stays usable.
  auto raw = client.CallRaw("{{{{");
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  JsonValue error = MustParse(*raw);
  EXPECT_FALSE(error.GetBool("ok", true));

  JsonValue stats_request = JsonValue::Object();
  stats_request.Set("cmd", JsonValue::Str("STATS"));
  auto stats = client.Call(stats_request);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->GetBool("ok", false));
  client.Close();
  server.Stop();
}

}  // namespace
}  // namespace acquire

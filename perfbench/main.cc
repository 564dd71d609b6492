// End-to-end benchmark of the ACQ server's front door.
//
//   acq_perfbench --workload serve_cold|search_deep|serve_rw --seed N
//                 --seconds S --trace 0|1 [--work-dir DIR] [--git-sha SHA]
//
// Untraced run (--trace 0): sets the workload up several times (setup_s is
// the median), then drives AcqServer::HandleRequestLine in-process with a
// closed loop of SUBMIT ("wait":true) and APPEND request lines for S
// seconds, and reports what a client sees.
//
// Traced run (--trace 1): the same set-up and op stream, then replays the
// executed SUBMITs through each layer's public entry point in the order the
// server calls them (Binder::PlanSql, MakeEvaluationLayer + Prepare,
// ProcessAcq over a span-recording layer, BuildReportJson) and reports
// per-layer numbers. Server and WAL counters come from STATS deltas. The
// spans are written to <work-dir>/trace-<workload>-seed<N>.jsonl at the end.
//
// Both runs check every SUBMIT answer against a sequential reference
// (ProcessAcq with BatchExplore::kOff on the same data state) and every
// acked APPEND for visibility. The last stdout line is the result object;
// any failure sets "correct":false and the exit code to 1.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/topk.h"
#include "common/failpoint.h"
#include "core/processor.h"
#include "index/backend_factory.h"
#include "server/result_cache.h"
#include "server/server.h"
#include "sql/binder.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using acquire::AcqServer;
using acquire::Catalog;
using acquire::JsonValue;

/// setup_s is the median of at least kMinSetupReps set-ups, repeated (up
/// to kMaxSetupReps) until set-up and teardown have taken kSetupSeconds.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 200;
constexpr double kSetupSeconds = 1.0;
/// Untimed ops before the window, capped at a quarter of --seconds.
constexpr double kWarmupSeconds = 2.0;
/// APPENDs timed on the idle server after the window. In serve_rw the
/// in-mix APPENDs cost more (SUBMITs still share the table, so the append
/// copies it), and every 32nd logged APPEND waits for an fsync; with 1000
/// probe APPENDs both stay well under a tenth of the sample, so
/// append_p90_ms does not sit on the boundary of the fast and slow modes.
/// WorkloadSpec::probe_seconds paces the probe where it would otherwise
/// last only milliseconds.
constexpr size_t kProbeAppends = 1000;
/// The traced run replays SUBMITs for at most this share of --seconds.
constexpr double kReplayShare = 0.5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

JsonValue ParseOrNull(const std::string& line) {
  acquire::Result<JsonValue> parsed = JsonValue::Parse(line);
  return parsed.ok() ? std::move(*parsed) : JsonValue::Null();
}

/// The STATS counters the benchmark reads, by name.
std::map<std::string, double> Stats(AcqServer* server) {
  std::map<std::string, double> out;
  const JsonValue reply = ParseOrNull(server->HandleRequestLine(
      R"({"cmd":"STATS"})"));
  const JsonValue* stats = reply.is_object() ? reply.Get("stats") : nullptr;
  if (stats == nullptr || !stats->is_object()) return out;
  for (const auto& [key, value] : stats->Members()) {
    if (value.is_number()) out[key] = value.AsDouble();
  }
  return out;
}

/// The parts of a report an answer is judged on: how the ACQ was resolved,
/// whether it was satisfied, and each recommended query's refined
/// predicates and aggregate.
std::string Canonical(const JsonValue& report) {
  auto query = [](const JsonValue* q) {
    JsonValue out = JsonValue::Object();
    if (q != nullptr && q->is_object()) {
      if (const JsonValue* p = q->Get("predicates")) out.Set("predicates", *p);
      if (const JsonValue* a = q->Get("aggregate")) out.Set("aggregate", *a);
    }
    return out;
  };
  JsonValue out = JsonValue::Object();
  for (const char* key : {"mode", "termination", "satisfied",
                          "original_aggregate"}) {
    if (const JsonValue* v = report.Get(key)) out.Set(key, *v);
  }
  out.Set("best", query(report.Get("best")));
  JsonValue answers = JsonValue::Array();
  if (const JsonValue* list = report.Get("answers");
      list != nullptr && list->is_array()) {
    for (const JsonValue& q : list->AsArray()) answers.Append(query(&q));
  }
  out.Set("answers", std::move(answers));
  return out.Dump();
}

/// A catalog and the server answering over it.
struct Setup {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<AcqServer> server;

  /// Stops the server before the catalog it reads goes away.
  void Reset() {
    server.reset();
    catalog.reset();
  }
};

Setup MakeSetup(const WorkloadSpec& spec, uint64_t seed,
                const std::string& wal_dir) {
  Setup setup;
  setup.catalog = GenerateCatalog(spec, seed);
  if (setup.catalog == nullptr) return setup;
  acquire::ServerOptions options;
  options.max_running = kRunSlots;
  options.cache_bytes = spec.cache_bytes;
  if (spec.wal) {
    std::filesystem::remove_all(wal_dir);
    std::filesystem::create_directories(wal_dir);
    options.wal_dir = wal_dir;
    options.fsync = acquire::FsyncPolicy::kBatch;
  }
  setup.server = std::make_unique<AcqServer>(setup.catalog.get(), options);
  return setup;
}

/// Untimed ops before the window (lazy set-up, allocator and cache warm),
/// the timed window, and the APPEND probe on the idle server after it.
enum class Phase { kWarmup, kWindow, kProbe };

/// One request as the client saw it.
struct Record {
  Phase phase = Phase::kWindow;
  size_t op = 0;
  Op::Kind kind = Op::Kind::kSubmit;
  size_t acq = 0;
  const RowBatch* rows = nullptr;
  int64_t send_ns = 0;
  int64_t recv_ns = 0;
  std::string reply;
  // Filled while checking: data state (acked APPENDs before the op) and the
  // parsed reply.
  uint64_t epoch = 0;
  bool ok = false;
  bool cache_hit = false;
  double wall_ms = 0.0;  // the report's submit-to-terminal time
  std::string answer;    // Canonical(report)

  double latency_ms() const { return Ms(recv_ns - send_ns); }
};

/// Closed loop: `clients` threads, each sending its next op only after the
/// previous reply, until `seconds` have passed. Ops are taken in order from
/// `first_op` on. Appends the records, sorted by op number, to `out`.
void RunClosedLoop(AcqServer* server, OpStream* ops, size_t clients,
                   size_t first_op, double seconds, Phase phase,
                   std::vector<Record>* out) {
  std::atomic<size_t> next{first_op};
  std::vector<std::vector<Record>> per_client(clients);
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (NowNs() < deadline) {
        const size_t i = next.fetch_add(1);
        const Op& op = ops->Get(i);
        Record rec;
        rec.phase = phase;
        rec.op = i;
        rec.kind = op.kind;
        rec.acq = op.acq;
        rec.rows = op.rows;
        rec.send_ns = NowNs();
        rec.reply = server->HandleRequestLine(op.line);
        rec.recv_ns = NowNs();
        per_client[c].push_back(std::move(rec));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const size_t begin = out->size();
  for (auto& list : per_client) {
    for (Record& rec : list) out->push_back(std::move(rec));
  }
  std::sort(out->begin() + static_cast<std::ptrdiff_t>(begin), out->end(),
            [](const Record& a, const Record& b) { return a.op < b.op; });
}

/// Parses every reply; assigns each op its data epoch (acked APPENDs before
/// it in op order — exact because APPENDs only run in single-client mixes).
void ParseReplies(std::vector<Record>* records) {
  uint64_t acked = 0;
  for (Record& rec : *records) {
    rec.epoch = acked;
    const JsonValue reply = ParseOrNull(rec.reply);
    if (!reply.is_object() || !reply.GetBool("ok", false)) continue;
    if (rec.kind == Op::Kind::kAppend) {
      rec.ok = true;
      ++acked;
      continue;
    }
    const JsonValue* state = reply.Get("state");
    const JsonValue* report = reply.Get("report");
    if (state == nullptr || !state->is_string() ||
        state->AsString() != "done" || report == nullptr ||
        !report->is_object()) {
      continue;
    }
    const JsonValue* termination = report->Get("termination");
    rec.ok = termination != nullptr && termination->is_string() &&
             termination->AsString() == "completed";
    rec.wall_ms = report->GetNumber("wall_ms", 0.0);
    // A fresh run's reply arrives after its own wall_ms elapsed; a cached
    // reply carries the seeding run's wall_ms and arrives much sooner.
    rec.cache_hit = rec.latency_ms() < rec.wall_ms;
    rec.answer = Canonical(*report);
  }
}

/// Per-request numbers of one traced replay.
struct Replay {
  double plan_ms = 0, prepare_ms = 0, prepare_ns_per_row = 0, release_ms = 0;
  double eval_ms = 0, eval_calls = 0, cell_queries = 0;
  double search_ms = 0, coords = 0, render_ms = 0;
  double root_ms = 0, untraced_ms = 0, topk_ms = 0;
  bool nested = true;
  std::string answer;
};

acquire::AcquireOptions ServerLikeOptions(double gamma) {
  acquire::AcquireOptions options;
  options.gamma = gamma;
  options.delta = kDelta;
  return options;
}

/// The server's own sequence for one SUBMIT, without spans.
double UntracedSubmitMs(const Catalog& catalog, const std::string& sql,
                        double gamma) {
  const int64_t t0 = NowNs();
  acquire::Binder binder(&catalog);
  acquire::Result<acquire::AcqTask> task = binder.PlanSql(sql);
  if (!task.ok()) return -1.0;
  acquire::Result<acquire::AcqOutcome> outcome =
      acquire::ProcessAcq(*task, ServerLikeOptions(gamma));
  if (!outcome.ok()) return -1.0;
  const JsonValue report = acquire::BuildReportJson(*outcome, &*task, 0.0);
  const double ms = Ms(NowNs() - t0);
  return report.is_object() ? ms : -1.0;
}

/// One traced replay: a root "submit" span with one child per layer entry
/// point, exec spans under core.search.
bool TracedSubmit(const Catalog& catalog, const std::string& sql,
                  double gamma, uint64_t request, Tracer* tracer,
                  Replay* out) {
  const int32_t root = tracer->Begin("submit", -1, request);
  int32_t span = tracer->Begin("sql.plan", root, request);
  acquire::Binder binder(&catalog);
  acquire::Result<acquire::AcqTask> task = binder.PlanSql(sql);
  tracer->End(span);
  if (!task.ok()) return false;

  span = tracer->Begin("index.prepare", root, request);
  acquire::BackendOptions backend;
  backend.grid_step =
      gamma / static_cast<double>(std::max<size_t>(task->d(), 1));
  acquire::Result<std::unique_ptr<acquire::EvaluationLayer>> layer =
      acquire::MakeEvaluationLayer(&*task, task->eval_backend, backend);
  const bool prepared = layer.ok() && (*layer)->Prepare().ok();
  tracer->End(span);
  if (!prepared) return false;
  std::unique_ptr<acquire::EvaluationLayer> inner = std::move(*layer);
  inner->ResetStats();

  const int32_t search = tracer->Begin("core.search", root, request);
  TracingLayer traced(inner.get(), tracer, search, request);
  acquire::Result<acquire::AcqOutcome> outcome =
      acquire::ProcessAcq(*task, &traced, ServerLikeOptions(gamma));
  tracer->End(search);
  if (!outcome.ok()) return false;
  out->cell_queries = static_cast<double>(inner->stats().queries);

  // The server's ProcessAcq frees its layer before replying; so does this
  // (`traced` is not used past this point).
  span = tracer->Begin("index.release", root, request);
  inner.reset();
  tracer->End(span);

  span = tracer->Begin("server.render", root, request);
  const JsonValue report = acquire::BuildReportJson(*outcome, &*task, 0.0);
  tracer->End(span);
  tracer->End(root);

  out->coords = static_cast<double>(outcome->result.queries_explored);
  out->answer = Canonical(report);
  const int64_t topk_start = NowNs();
  const bool topk_ok =
      acquire::RunTopK(*task, acquire::Norm::L1()).ok();
  out->topk_ms = Ms(NowNs() - topk_start);
  return topk_ok;
}

/// Folds one request's spans into its Replay numbers and checks nesting:
/// every child lies inside the root, and the layer spans sum to at most
/// the root.
void SummarizeSpans(const std::vector<Span>& spans, size_t first,
                    size_t rows, Replay* r) {
  const Span& root = spans[first];
  r->root_ms = Ms(root.end_ns - root.start_ns);
  double layers_ms = 0.0;
  for (size_t i = first + 1; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double ms = Ms(s.end_ns - s.start_ns);
    if (s.start_ns < root.start_ns || s.end_ns > root.end_ns) {
      r->nested = false;
    }
    const std::string name = s.name;
    if (name == "sql.plan") r->plan_ms = ms;
    if (name == "index.prepare") r->prepare_ms = ms;
    if (name == "core.search") r->search_ms = ms;
    if (name == "index.release") r->release_ms = ms;
    if (name == "server.render") r->render_ms = ms;
    if (name.rfind("exec.", 0) == 0) {
      r->eval_ms += ms;
      r->eval_calls += 1;
    }
    if (s.parent == static_cast<int32_t>(first)) layers_ms += ms;
  }
  if (layers_ms > r->root_ms || r->eval_ms > r->search_ms) r->nested = false;
  r->prepare_ns_per_row =
      rows > 0 ? r->prepare_ms * 1e6 / static_cast<double>(rows) : 0.0;
}

/// Time a SUBMIT waited for a run slot, reconstructed from the client side:
/// when `slots` or more other SUBMITs were in flight at its send time, it
/// could only start once enough of them had replied.
std::vector<double> SlotWaitsMs(const std::vector<Record>& records,
                                size_t slots) {
  std::vector<double> waits;
  for (const Record& rec : records) {
    if (rec.kind != Op::Kind::kSubmit || rec.cache_hit) continue;
    std::vector<int64_t> ends;
    for (const Record& other : records) {
      if (&other != &rec && other.kind == Op::Kind::kSubmit &&
          !other.cache_hit && other.send_ns <= rec.send_ns &&
          other.recv_ns > rec.send_ns) {
        ends.push_back(other.recv_ns);
      }
    }
    double wait = 0.0;
    if (ends.size() >= slots) {
      std::sort(ends.begin(), ends.end());
      wait = Ms(std::min(ends[ends.size() - slots], rec.recv_ns) -
                rec.send_ns);
    }
    waits.push_back(wait);
  }
  return waits;
}

/// Outcome of the reference walk (and, in traced runs, the layer replay).
struct Checked {
  size_t failed = 0;
  size_t mismatches = 0;
  size_t nest_violations = 0;
  uint64_t epochs = 0;
  std::vector<Replay> replays;
};

/// Regenerates the data and walks its states in op order: for each epoch
/// (the data between two acked APPENDs) every distinct ACQ is computed once
/// with the sequential explorer and every SUBMIT answered in that epoch is
/// compared with it. Traced runs also replay the epoch's executed SUBMITs
/// through the layer entry points, paired with an untraced replay, for
/// kReplayShare of --seconds, and write every span at the end.
Checked CheckAgainstReference(const WorkloadSpec& spec, const Args& args,
                              const OpStream& ops,
                              const std::vector<Record>& records) {
  Checked out;
  std::unique_ptr<Catalog> ref_catalog = GenerateCatalog(spec, args.seed);
  Tracer tracer;
  if (args.trace) {
    for (const Record& rec : records) {
      Span span;
      span.name =
          rec.kind == Op::Kind::kSubmit ? "client.submit" : "client.append";
      span.start_ns = rec.send_ns;
      span.end_ns = rec.recv_ns;
      span.request = rec.op;
      tracer.Add(span);
    }
  }
  std::vector<const Record*> appends;
  uint64_t last_epoch = 0;
  for (const Record& rec : records) {
    if (rec.kind == Op::Kind::kAppend && rec.ok) appends.push_back(&rec);
    if (rec.kind == Op::Kind::kSubmit) last_epoch = rec.epoch;
  }
  out.epochs = last_epoch + 1;
  int64_t replay_ns = 0;
  for (uint64_t epoch = 0; epoch <= last_epoch; ++epoch) {
    std::vector<size_t> acqs;
    for (const Record& rec : records) {
      if (rec.kind == Op::Kind::kSubmit && rec.epoch == epoch &&
          std::find(acqs.begin(), acqs.end(), rec.acq) == acqs.end()) {
        acqs.push_back(rec.acq);
      }
    }
    std::vector<std::string> expected(acqs.size());
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < std::max(1u, std::thread::hardware_concurrency());
         ++t) {
      workers.emplace_back([&] {
        for (size_t k = next.fetch_add(1); k < acqs.size();
             k = next.fetch_add(1)) {
          acquire::Binder binder(ref_catalog.get());
          auto task = binder.PlanSql(ops.sql(acqs[k]));
          if (!task.ok()) continue;
          acquire::AcquireOptions options = ServerLikeOptions(spec.gamma);
          options.batch_explore = acquire::BatchExplore::kOff;
          auto outcome = acquire::ProcessAcq(*task, options);
          if (!outcome.ok()) continue;
          expected[k] =
              Canonical(acquire::BuildReportJson(*outcome, &*task, 0.0));
        }
      });
    }
    for (std::thread& t : workers) t.join();
    std::map<size_t, const std::string*> by_acq;
    for (size_t k = 0; k < acqs.size(); ++k) by_acq[acqs[k]] = &expected[k];

    for (const Record& rec : records) {
      if (rec.kind != Op::Kind::kSubmit || rec.epoch != epoch) continue;
      const std::string& want = *by_acq.at(rec.acq);
      if (rec.ok && (want.empty() || rec.answer != want)) {
        ++out.mismatches;
        ++out.failed;
        std::fprintf(stderr, "wrong answer for op %zu:\n  got  %s\n  want %s\n",
                     rec.op, rec.answer.c_str(), want.c_str());
      }
      if (!args.trace || rec.cache_hit ||
          replay_ns > static_cast<int64_t>(args.seconds * kReplayShare * 1e9)) {
        continue;
      }
      // Untraced and traced back to back, alternating which goes first, so
      // their difference is the tracing overhead.
      const int64_t t0 = NowNs();
      Replay r;
      const std::string& sql = ops.sql(rec.acq);
      const bool untraced_first = out.replays.size() % 2 == 0;
      if (untraced_first) {
        r.untraced_ms = UntracedSubmitMs(*ref_catalog, sql, spec.gamma);
      }
      const size_t first = tracer.spans().size();
      const bool traced_ok =
          TracedSubmit(*ref_catalog, sql, spec.gamma, rec.op, &tracer, &r);
      if (!untraced_first) {
        r.untraced_ms = UntracedSubmitMs(*ref_catalog, sql, spec.gamma);
      }
      replay_ns += NowNs() - t0;
      SummarizeSpans(tracer.spans(), first,
                     (*ref_catalog->GetTable("lineitem"))->num_rows(), &r);
      if (!traced_ok || r.untraced_ms < 0.0 || r.answer != want) {
        ++out.mismatches;
        ++out.failed;
      }
      if (!r.nested) {
        ++out.nest_violations;
        ++out.failed;
      }
      out.replays.push_back(r);
    }
    if (epoch < last_epoch) {
      if (!ref_catalog->AppendRows("lineitem", *appends[epoch]->rows).ok()) {
        ++out.failed;
      }
      WarmColumnStats(*ref_catalog);
    }
  }
  if (args.trace) {
    const std::string path = args.work_dir + "/trace-" + spec.name +
                             "-seed" + std::to_string(args.seed) + ".jsonl";
    if (!tracer.WriteJsonLines(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string ResultLine(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics) {
  std::string line = correct ? R"({"correct":true)" : R"({"correct":false)";
  line += ",\"attempted\":" + std::to_string(attempted);
  line += ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  i == 0 ? "" : ",", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    line += buf;
  }
  return line + "}}";
}

int Run(const Args& args) {
  const WorkloadSpec* spec_ptr = FindWorkload(args.workload);
  if (spec_ptr == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *spec_ptr;
  const std::string work_dir = args.work_dir + "/" + spec.name + "-" +
                               std::to_string(getpid());
  std::filesystem::create_directories(work_dir);

  // Stamp: the machine and build every number below came from.
  std::printf(
      "{\"stamp\":{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
      "\"nproc\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"failpoints\":%s,\"git_sha\":\"%s\"}}\n",
      spec.name, static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      acquire::FailpointRegistry::compiled_in() ? "true" : "false",
      args.git_sha.c_str());
  std::fflush(stdout);

  // --- Set-up, several times; the last one serves. ---
  std::vector<double> setup_s;
  Setup setup;
  const int64_t setup_start = NowNs();
  for (int rep = 0;
       rep < kMinSetupReps ||
       (rep < kMaxSetupReps && NowNs() - setup_start < kSetupSeconds * 1e9);
       ++rep) {
    setup.Reset();
    const int64_t t0 = NowNs();
    setup = MakeSetup(spec, args.seed,
                      work_dir + "/wal-" + std::to_string(rep));
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (setup.server == nullptr) {
      std::fprintf(stderr, "set-up failed\n");
      std::filesystem::remove_all(work_dir);
      return 1;
    }
  }
  const uint64_t initial_generation = setup.catalog->generation();
  const size_t initial_rows =
      (*setup.catalog->GetTable("lineitem"))->num_rows();
  OpStream ops(spec, args.seed, *setup.catalog);

  // --- Warm-up, the timed window, then the APPEND probe. ---
  std::vector<Record> records;
  RunClosedLoop(setup.server.get(), &ops, spec.clients, 0,
                std::min(kWarmupSeconds, args.seconds / 4), Phase::kWarmup,
                &records);
  const auto stats0 = Stats(setup.server.get());
  const int64_t start_ns = NowNs();
  RunClosedLoop(setup.server.get(), &ops, spec.clients, records.size(),
                args.seconds, Phase::kWindow, &records);
  const int64_t end_ns = NowNs();
  const auto stats1 = Stats(setup.server.get());
  // Every mix also times APPEND on the idle server, so each reports APPEND
  // latency from enough samples for its p90.
  const int64_t probe_start = NowNs();
  for (size_t i = 0; i < kProbeAppends; ++i) {
    const int64_t due =
        probe_start + static_cast<int64_t>(spec.probe_seconds * 1e9 * i /
                                           static_cast<double>(kProbeAppends));
    if (NowNs() < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
    }
    const Op op = ops.ProbeAppend(i);
    Record rec;
    rec.phase = Phase::kProbe;
    rec.op = records.size();
    rec.kind = op.kind;
    rec.rows = op.rows;
    rec.send_ns = NowNs();
    rec.reply = setup.server->HandleRequestLine(op.line);
    rec.recv_ns = NowNs();
    records.push_back(std::move(rec));
  }
  const auto stats2 = Stats(setup.server.get());
  const double peak_rss_mb = PeakRssMb();
  ParseReplies(&records);

  // --- Checks: APPEND visibility, then every SUBMIT against a reference. --
  const size_t attempted = records.size();
  size_t failed = 0;
  size_t acked_appends = 0;
  for (const Record& rec : records) {
    if (!rec.ok) ++failed;
    if (rec.kind == Op::Kind::kAppend && rec.ok) ++acked_appends;
  }
  const size_t final_rows = (*setup.catalog->GetTable("lineitem"))->num_rows();
  const bool appends_visible =
      final_rows == initial_rows + acked_appends * kAppendRows &&
      setup.catalog->generation() == initial_generation + acked_appends &&
      stats2.count("catalog_generation") > 0 &&
      stats2.at("catalog_generation") ==
          static_cast<double>(initial_generation + acked_appends);
  if (!appends_visible) {
    std::fprintf(stderr, "acked APPENDs not visible: rows %zu (expected %zu)\n",
                 final_rows, initial_rows + acked_appends * kAppendRows);
    ++failed;
  }
  setup.Reset();

  const Checked checked = CheckAgainstReference(spec, args, ops, records);
  failed += checked.failed;
  const std::vector<Replay>& replays = checked.replays;

  // --- Metrics. ---
  std::vector<double> submit_ms, append_ms, mixed_append_ms, hit_ms, queue_ms;
  std::vector<Record> window;  // the timed SUBMITs, for the slot-wait view
  size_t submits = 0;
  for (const Record& rec : records) {
    if (rec.phase == Phase::kWarmup) continue;
    if (rec.kind == Op::Kind::kSubmit) {
      window.push_back(rec);
      ++submits;
      submit_ms.push_back(rec.latency_ms());
      if (rec.cache_hit) {
        hit_ms.push_back(rec.latency_ms());
      } else if (rec.ok) {
        queue_ms.push_back(rec.latency_ms() - rec.wall_ms);
      }
    } else {
      append_ms.push_back(rec.latency_ms());
      if (rec.phase == Phase::kWindow) {
        mixed_append_ms.push_back(rec.latency_ms());
      }
    }
  }
  const double window_s = static_cast<double>(end_ns - start_ns) / 1e9;
  const double failed_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);

  auto delta = [](const std::map<std::string, double>& a,
                  const std::map<std::string, double>& b,
                  const std::string& key) {
    auto ia = a.find(key);
    auto ib = b.find(key);
    return ia != a.end() && ib != b.end() ? ib->second - ia->second : 0.0;
  };
  auto median_of = [&](double Replay::*field) {
    std::vector<double> v;
    for (const Replay& r : replays) v.push_back(r.*field);
    return Quantile(v, 0.5);
  };
  auto median_ratio = [&](double Replay::*num, double Replay::*den,
                          double scale) {
    std::vector<double> v;
    for (const Replay& r : replays) {
      if (r.*den > 0) v.push_back(r.*num * scale / (r.*den));
    }
    return Quantile(v, 0.5);
  };
  std::vector<double> self_ms, self_ns_per_coord, overhead_ms;
  for (const Replay& r : replays) {
    self_ms.push_back(r.search_ms - r.eval_ms);
    if (r.coords > 0) {
      self_ns_per_coord.push_back((r.search_ms - r.eval_ms) * 1e6 / r.coords);
    }
    overhead_ms.push_back(r.root_ms - r.untraced_ms);
  }
  const double appends_done = delta(stats0, stats2, "appends");
  const double rows_done = delta(stats0, stats2, "append_rows");

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Quantile(setup_s, 0.5), "s"},
        {"submit_p50_ms", Quantile(submit_ms, 0.5), "ms"},
        {"submit_p90_ms", Quantile(submit_ms, 0.9), "ms"},
        {"submits_per_s", static_cast<double>(submits) / window_s, "1/s"},
        {"append_p50_ms", Quantile(append_ms, 0.5), "ms"},
        {"append_p90_ms", Quantile(append_ms, 0.9), "ms"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
    };
  } else {
    metrics = {
        {"sql.plan_ms", median_of(&Replay::plan_ms), "ms"},
        {"index.prepare_ms", median_of(&Replay::prepare_ms), "ms"},
        {"index.prepare_ns_per_row", median_of(&Replay::prepare_ns_per_row),
         "ns"},
        {"index.release_ms", median_of(&Replay::release_ms), "ms"},
        {"exec.eval_ms", median_of(&Replay::eval_ms), "ms"},
        {"exec.eval_calls", median_of(&Replay::eval_calls), "count"},
        {"exec.cell_queries", median_of(&Replay::cell_queries), "count"},
        {"exec.ns_per_cell",
         median_ratio(&Replay::eval_ms, &Replay::cell_queries, 1e6), "ns"},
        {"core.search_ms", median_of(&Replay::search_ms), "ms"},
        {"core.search_self_ms", Quantile(self_ms, 0.5), "ms"},
        {"core.coords_explored", median_of(&Replay::coords), "count"},
        {"core.self_ns_per_coord", Quantile(self_ns_per_coord, 0.5), "ns"},
        {"server.queue_ms", Quantile(queue_ms, 0.5), "ms"},
        {"server.slot_wait_ms",
         Quantile(SlotWaitsMs(window, kRunSlots), 0.5), "ms"},
        {"server.render_ms", median_of(&Replay::render_ms), "ms"},
        {"server.cache_hit_ratio",
         submits > 0 ? delta(stats0, stats1, "cache_hits") /
                           static_cast<double>(submits)
                     : 0.0,
         "ratio"},
        {"server.cache_hit_ms", Quantile(hit_ms, 0.5), "ms"},
        // The in-mix APPENDs where the mix has them, else the probe.
        {"wal.append_ms",
         Quantile(mixed_append_ms.empty() ? append_ms : mixed_append_ms, 0.5),
         "ms"},
        {"wal.syncs_per_append",
         appends_done > 0 ? delta(stats0, stats2, "wal_syncs") / appends_done
                          : 0.0,
         "ratio"},
        {"wal.bytes_per_row",
         rows_done > 0 ? delta(stats0, stats2, "wal_bytes") / rows_done : 0.0,
         "B"},
        {"baselines.topk_ms", median_of(&Replay::topk_ms), "ms"},
        {"trace.overhead_ms", Quantile(overhead_ms, 0.5), "ms"},
        {"trace.replayed", static_cast<double>(replays.size()), "count"},
    };
  }

  // Human-oriented summary, then the result object as the last line.
  std::printf(
      "{\"summary\":{\"submits\":%zu,\"appends\":%zu,\"window_s\":%.3f,"
      "\"failed_frac\":%.6g,\"mismatches\":%zu,\"nest_violations\":%zu,"
      "\"epochs\":%zu,\"replayed\":%zu}}\n",
      submits, acked_appends, window_s, failed_frac, checked.mismatches,
      checked.nest_violations, static_cast<size_t>(checked.epochs),
      replays.size());
  const bool correct = failed == 0;
  std::printf("%s\n", ResultLine(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  std::filesystem::remove_all(work_dir);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR] [--git-sha SHA]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}

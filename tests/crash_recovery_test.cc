// Crash-injection harness for the durability subsystem: drives the real
// acq_serve binary over TCP, kills it at armed failpoint crash sites
// (process _Exit mid-append, mid-checkpoint), restarts it over the same
// --wal-dir and asserts the recovery contract of storage/wal.h:
//
//   - every acked APPEND survives the crash exactly (pre-write and
//     mid-write crashes recover precisely the acked prefix);
//   - an unacked append never half-applies: it is either absent or fully
//     present (the post-sync pre-ack site may legitimately persist one
//     unacked batch — durable-but-unacked, never torn);
//   - recovery state is bit-exact: the restarted server's catalog
//     generation equals the pre-crash acked generation, and a server
//     recovered from WAL answers identically to one that was fed the same
//     appends live;
//   - a torn or vandalized log tail never prevents startup;
//   - SIGTERM is a clean shutdown: drain, checkpoint, exit 0.
//
// ACQ_SERVE_BIN overrides the binary path (CI sets it; the default assumes
// ctest's working directory build/tests). ACQ_CRASH_CYCLES scales the
// repeated crash/restart loop (default 3; CI uses 10). Tests skip when the
// binary is missing or failpoints are compiled out.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "gtest/gtest.h"

namespace acquire {
namespace {

namespace fs = std::filesystem;

std::string ServeBinary() {
  if (const char* env = std::getenv("ACQ_SERVE_BIN")) return env;
  return "../examples/acq_serve";
}

int CrashCycles() {
  if (const char* env = std::getenv("ACQ_CRASH_CYCLES")) {
    const int cycles = std::atoi(env);
    if (cycles > 0) return cycles;
  }
  return 3;
}

bool BinaryAvailable() { return ::access(ServeBinary().c_str(), X_OK) == 0; }

/// One acq_serve child process: stdout+stderr piped back, port parsed from
/// the listening line.
class ServerProc {
 public:
  ~ServerProc() { Kill(); }

  /// Starts `binary args...`; returns false (with a reason) when the child
  /// could not be launched or never printed its listening line.
  bool Start(const std::vector<std::string>& args, std::string* error) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      *error = "pipe failed";
      return false;
    }
    pid_ = ::fork();
    if (pid_ < 0) {
      *error = "fork failed";
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
      return false;
    }
    if (pid_ == 0) {
      ::dup2(pipe_fds[1], STDOUT_FILENO);
      ::dup2(pipe_fds[1], STDERR_FILENO);
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
      std::vector<std::string> full = args;
      full.insert(full.begin(), ServeBinary());
      std::vector<char*> argv;
      argv.reserve(full.size() + 1);
      for (std::string& arg : full) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      std::perror("execv acq_serve");
      ::_exit(127);
    }
    ::close(pipe_fds[1]);
    out_ = ::fdopen(pipe_fds[0], "r");
    if (out_ == nullptr) {
      *error = "fdopen failed";
      return false;
    }
    // Scan startup output for the (flushed) listening line; keep everything
    // seen so far for recovery-line assertions.
    char line[1024];
    while (std::fgets(line, sizeof(line), out_) != nullptr) {
      startup_ += line;
      int port = 0;
      if (std::sscanf(line, "acq_serve listening on 127.0.0.1:%d", &port) ==
          1) {
        port_ = port;
        return true;
      }
    }
    *error = "server exited before listening:\n" + startup_;
    return false;
  }

  int port() const { return port_; }
  pid_t pid() const { return pid_; }
  const std::string& startup_output() const { return startup_; }

  /// Blocks until the child exits; returns its wait status (-1 on error).
  int Wait() {
    if (pid_ <= 0) return -1;
    int status = -1;
    if (::waitpid(pid_, &status, 0) != pid_) return -1;
    pid_ = -1;
    return status;
  }

  /// Drains the rest of the child's output (after it exited).
  std::string DrainOutput() {
    std::string rest;
    if (out_ != nullptr) {
      char chunk[1024];
      size_t n;
      while ((n = std::fread(chunk, 1, sizeof(chunk), out_)) > 0) {
        rest.append(chunk, n);
      }
    }
    return rest;
  }

  void Signal(int sig) {
    if (pid_ > 0) ::kill(pid_, sig);
  }

  void Kill() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    if (out_ != nullptr) {
      std::fclose(out_);
      out_ = nullptr;
    }
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  FILE* out_ = nullptr;
  std::string startup_;
};

/// Newline-delimited JSON client over one TCP connection.
class LineClient {
 public:
  ~LineClient() { Close(); }

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval timeout{10, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
      return false;
    }
    return true;
  }

  /// Sends one line and reads one reply line. Returns "" when the
  /// connection died (the server crashed mid-request).
  std::string Request(const std::string& line) {
    if (fd_ < 0) return "";
    const std::string framed = line + "\n";
    size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent,
                               framed.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return "";
      sent += static_cast<size_t>(n);
    }
    std::string reply;
    char byte = 0;
    for (;;) {
      const ssize_t n = ::recv(fd_, &byte, 1, 0);
      if (n <= 0) return "";  // EOF or timeout: the server is gone
      if (byte == '\n') return reply;
      reply += byte;
    }
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
};

std::string AppendRequest(int i) {
  char row[256];
  std::snprintf(row, sizeof(row),
                R"({"cmd":"APPEND","table":"users","rows":[[%d,%d,%d.0,0.5,)"
                R"(%d,"city%d","f","bs","sports"]]})",
                9000 + i, 20 + (i % 40), 50000 + i * 100, 10 + i, i);
  return row;
}

constexpr char kProbeSubmit[] =
    R"({"cmd":"SUBMIT","wait":true,"sql":"SELECT * FROM users )"
    R"(CONSTRAINT COUNT(*) >= 5 WHERE age <= 30 AND income >= 50000;"})";

uint64_t ExtractU64(const std::string& reply, const std::string& key) {
  const size_t pos = reply.find("\"" + key + "\":");
  if (pos == std::string::npos) return ~uint64_t{0};
  return std::strtoull(reply.c_str() + pos + key.size() + 3, nullptr, 10);
}

std::string NormalizeTimings(std::string reply) {
  for (const char* key : {"\"elapsed_ms\":", "\"wall_ms\":"}) {
    size_t pos = 0;
    while ((pos = reply.find(key, pos)) != std::string::npos) {
      const size_t begin = pos + std::strlen(key);
      size_t end = begin;
      while (end < reply.size() &&
             (std::isdigit(static_cast<unsigned char>(reply[end])) ||
              reply[end] == '.' || reply[end] == '-' || reply[end] == 'e' ||
              reply[end] == '+')) {
        ++end;
      }
      reply.replace(begin, end - begin, "0");
      pos = begin;
    }
  }
  return reply;
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!BinaryAvailable()) {
      GTEST_SKIP() << "could not find " << ServeBinary()
                   << " (set ACQ_SERVE_BIN)";
    }
    if (!FailpointRegistry::compiled_in()) {
      GTEST_SKIP() << "failpoints compiled out";
    }
    dir_ = ::testing::TempDir() + "/acq_crash_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::vector<std::string> BaseArgs(const std::string& extra_failpoints) {
    std::vector<std::string> args = {
        "--gen",     "users", "--rows", "300",
        "--port",    "0",     "--wal-dir", dir_ + "/wal",
        "--fsync",   "always"};
    if (!extra_failpoints.empty()) {
      args.push_back("--failpoints");
      args.push_back(extra_failpoints);
    }
    return args;
  }

  /// Appends until the server dies or `max_appends` acks; returns acked.
  int DriveUntilCrash(int port, int max_appends) {
    LineClient client;
    EXPECT_TRUE(client.Connect(port));
    int acked = 0;
    for (int i = 0; i < max_appends; ++i) {
      const std::string reply = client.Request(AppendRequest(i));
      if (reply.empty()) break;  // connection died: the crash fired
      EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
      ++acked;
    }
    return acked;
  }

  /// Catalog generation as seen over STATS (the bit-identity anchor).
  uint64_t StatsGeneration(int port) {
    LineClient client;
    EXPECT_TRUE(client.Connect(port));
    const std::string stats = client.Request(R"({"cmd":"STATS"})");
    EXPECT_FALSE(stats.empty());
    return ExtractU64(stats, "catalog_generation");
  }

  std::string dir_;
};

struct CrashSite {
  const char* spec;       // --failpoints value
  int expected_extra_lo;  // recovered - acked lower bound
  int expected_extra_hi;  // recovered - acked upper bound
};

// Names each instance by its failpoint spec; the default printer dumps the
// struct's bytes, whose `spec` pointer differs from run to run.
void PrintTo(const CrashSite& site, std::ostream* os) { *os << site.spec; }

// pre_write dies before any byte of the record is written and mid_write
// dies between the frame header and the payload (a torn tail): in both
// cases the crashed append must vanish. pre_ack dies after the synced
// write: the record is durable but unacked — recovery may surface exactly
// one more batch than was acked, never a torn one.
class CrashSiteTest : public CrashRecoveryTest,
                      public ::testing::WithParamInterface<CrashSite> {};

TEST_P(CrashSiteTest, AckedPrefixSurvivesExactly) {
  const CrashSite site = GetParam();

  ServerProc server;
  std::string error;
  ASSERT_TRUE(server.Start(BaseArgs(site.spec), &error)) << error;
  const uint64_t base_generation = StatsGeneration(server.port());
  ASSERT_NE(base_generation, ~uint64_t{0});

  const int acked = DriveUntilCrash(server.port(), /*max_appends=*/10);
  const int status = server.Wait();
  ASSERT_TRUE(WIFEXITED(status)) << "status " << status;
  EXPECT_EQ(WEXITSTATUS(status), 137) << server.DrainOutput();
  EXPECT_LT(acked, 10) << "crash site never fired: " << site.spec;

  // Restart over the same directory, no failpoints.
  ServerProc recovered;
  ASSERT_TRUE(recovered.Start(BaseArgs(""), &error)) << error;
  const uint64_t generation = StatsGeneration(recovered.port());
  const int extra =
      static_cast<int>(generation - base_generation) - acked;
  EXPECT_GE(extra, site.expected_extra_lo)
      << "acked appends lost (acked " << acked << ", recovered gen "
      << generation << " from base " << base_generation << ")\n"
      << recovered.startup_output();
  EXPECT_LE(extra, site.expected_extra_hi)
      << "unacked append half-applied or double-applied\n"
      << recovered.startup_output();

  // The recovered server serves: probe query answers.
  LineClient client;
  ASSERT_TRUE(client.Connect(recovered.port()));
  const std::string probe = client.Request(kProbeSubmit);
  EXPECT_NE(probe.find("\"ok\":true"), std::string::npos) << probe;
  recovered.Signal(SIGTERM);
  const int clean = recovered.Wait();
  ASSERT_TRUE(WIFEXITED(clean));
  EXPECT_EQ(WEXITSTATUS(clean), 0) << recovered.DrainOutput();
}

INSTANTIATE_TEST_SUITE_P(
    Sites, CrashSiteTest,
    ::testing::Values(
        CrashSite{"wal.append.pre_write=crash:3", 0, 0},
        CrashSite{"wal.append.mid_write=crash:3", 0, 0},
        CrashSite{"wal.append.pre_ack=crash:3", 0, 1}));

TEST_F(CrashRecoveryTest, MidCheckpointCrashKeepsWalAuthoritative) {
  std::vector<std::string> args = BaseArgs("wal.checkpoint.mid=crash:1");
  args.push_back("--checkpoint-interval-appends");
  args.push_back("2");
  ServerProc server;
  std::string error;
  ASSERT_TRUE(server.Start(args, &error)) << error;
  const uint64_t base_generation = StatsGeneration(server.port());

  // The second append triggers the auto-checkpoint, which dies before
  // publication; the append itself was already logged and applied.
  const int acked = DriveUntilCrash(server.port(), /*max_appends=*/5);
  const int status = server.Wait();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 137);
  EXPECT_EQ(acked, 1);

  ServerProc recovered;
  ASSERT_TRUE(recovered.Start(BaseArgs(""), &error)) << error;
  // No checkpoint was published; the full WAL replays, including the
  // logged-but-unacked second append.
  EXPECT_NE(recovered.startup_output().find("checkpoint=no"),
            std::string::npos)
      << recovered.startup_output();
  const uint64_t generation = StatsGeneration(recovered.port());
  EXPECT_EQ(generation - base_generation, 2u)
      << recovered.startup_output();
}

TEST_F(CrashRecoveryTest, RepeatedCrashRestartCyclesStayBitExact) {
  const int cycles = CrashCycles();
  uint64_t base_generation = 0;
  int total_acked = 0;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    ServerProc server;
    std::string error;
    // Crash on the third logged append of each cycle.
    ASSERT_TRUE(
        server.Start(BaseArgs("wal.append.pre_write=crash:3"), &error))
        << error;
    const uint64_t generation = StatsGeneration(server.port());
    if (cycle == 0) {
      base_generation = generation;
    } else {
      // The invariant under repeated crash/restart: recovered generation ==
      // base + every append ever acked, bit-exact, every cycle.
      ASSERT_EQ(generation, base_generation + total_acked)
          << "cycle " << cycle << ":\n" << server.startup_output();
    }
    total_acked += DriveUntilCrash(server.port(), /*max_appends=*/10);
    const int status = server.Wait();
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 137);
  }
  // Final verification pass without failpoints.
  ServerProc final_server;
  std::string error;
  ASSERT_TRUE(final_server.Start(BaseArgs(""), &error)) << error;
  EXPECT_EQ(StatsGeneration(final_server.port()),
            base_generation + total_acked);
}

TEST_F(CrashRecoveryTest, RecoveredServerAnswersIdenticallyToLiveServer) {
  // Feed N appends, crash on the next, recover — then compare the probe
  // reply against a twin server that received the same N appends with no
  // crash at all. Identical catalogs must answer byte-identically
  // (timings normalized).
  ServerProc crashed;
  std::string error;
  ASSERT_TRUE(
      crashed.Start(BaseArgs("wal.append.pre_write=crash:4"), &error))
      << error;
  const int acked = DriveUntilCrash(crashed.port(), /*max_appends=*/10);
  ASSERT_EQ(acked, 3);
  crashed.Wait();

  ServerProc recovered;
  ASSERT_TRUE(recovered.Start(BaseArgs(""), &error)) << error;
  LineClient recovered_client;
  ASSERT_TRUE(recovered_client.Connect(recovered.port()));
  const std::string recovered_reply = recovered_client.Request(kProbeSubmit);
  ASSERT_FALSE(recovered_reply.empty());

  const std::string twin_dir = dir_ + "/twin";
  fs::create_directories(twin_dir);
  ServerProc twin;
  std::vector<std::string> twin_args = {
      "--gen",  "users", "--rows",    "300",
      "--port", "0",     "--wal-dir", twin_dir + "/wal",
      "--fsync", "always"};
  ASSERT_TRUE(twin.Start(twin_args, &error)) << error;
  LineClient twin_client;
  ASSERT_TRUE(twin_client.Connect(twin.port()));
  for (int i = 0; i < acked; ++i) {
    ASSERT_NE(twin_client.Request(AppendRequest(i)).find("\"ok\":true"),
              std::string::npos);
  }
  const std::string twin_reply = twin_client.Request(kProbeSubmit);
  EXPECT_EQ(NormalizeTimings(recovered_reply), NormalizeTimings(twin_reply));
}

TEST_F(CrashRecoveryTest, VandalizedWalTailNeverPreventsStartup) {
  {
    ServerProc server;
    std::string error;
    ASSERT_TRUE(server.Start(BaseArgs(""), &error)) << error;
    ASSERT_EQ(DriveUntilCrash(server.port(), 2), 2);
    // Hard kill: no checkpoint, the WAL carries both appends.
    server.Kill();
  }
  // Scribble garbage on the log tail, as a crash mid-write would.
  {
    std::ofstream out(dir_ + "/wal/default/wal.log",
                      std::ios::binary | std::ios::app);
    out << "\xde\xadpartial-record-garbage";
  }
  ServerProc recovered;
  std::string error;
  ASSERT_TRUE(recovered.Start(BaseArgs(""), &error))
      << "torn tail prevented startup: " << error;
  EXPECT_NE(recovered.startup_output().find("torn_tail=yes"),
            std::string::npos)
      << recovered.startup_output();
  LineClient client;
  ASSERT_TRUE(client.Connect(recovered.port()));
  const std::string stats = client.Request(R"({"cmd":"STATS"})");
  EXPECT_NE(stats.find("\"recovery_wal_records\":2"), std::string::npos)
      << stats;
}

TEST_F(CrashRecoveryTest, AttachSurvivesCrashDetachSurvivesRestart) {
  {
    ServerProc server;
    std::string error;
    ASSERT_TRUE(server.Start(BaseArgs(""), &error)) << error;
    LineClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    ASSERT_NE(client
                  .Request(R"({"cmd":"ATTACH","tenant":"t1","gen":"users",)"
                           R"("rows":80,"seed":5})")
                  .find("\"ok\":true"),
              std::string::npos);
    ASSERT_NE(client
                  .Request(R"({"cmd":"ATTACH","tenant":"t2","gen":"users",)"
                           R"("rows":60})")
                  .find("\"ok\":true"),
              std::string::npos);
    ASSERT_NE(client.Request(R"({"cmd":"DETACH","tenant":"t2"})")
                  .find("\"ok\":true"),
              std::string::npos);
    server.Kill();  // crash: only the manifest knows the tenant set
  }
  ServerProc recovered;
  std::string error;
  ASSERT_TRUE(recovered.Start(BaseArgs(""), &error)) << error;
  LineClient client;
  ASSERT_TRUE(client.Connect(recovered.port()));
  const std::string tenants = client.Request(R"({"cmd":"TENANTS"})");
  EXPECT_NE(tenants.find("\"tenant\":\"t1\""), std::string::npos) << tenants;
  EXPECT_EQ(tenants.find("\"tenant\":\"t2\""), std::string::npos) << tenants;
}

TEST_F(CrashRecoveryTest, SigtermDrainsCheckpointsAndExitsZero) {
  ServerProc server;
  std::string error;
  ASSERT_TRUE(server.Start(BaseArgs(""), &error)) << error;
  ASSERT_EQ(DriveUntilCrash(server.port(), 3), 3);
  server.Signal(SIGTERM);
  const int status = server.Wait();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << server.DrainOutput();
  const std::string output = server.startup_output() + server.DrainOutput();
  EXPECT_NE(output.find("shutting down"), std::string::npos) << output;
  // The clean shutdown checkpointed: restart recovers from the snapshot
  // with an empty log.
  ServerProc recovered;
  ASSERT_TRUE(recovered.Start(BaseArgs(""), &error)) << error;
  EXPECT_NE(recovered.startup_output().find("checkpoint=yes"),
            std::string::npos)
      << recovered.startup_output();
  EXPECT_NE(recovered.startup_output().find("wal_records=0"),
            std::string::npos)
      << recovered.startup_output();
}

}  // namespace
}  // namespace acquire

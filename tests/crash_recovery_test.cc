// Process-level crash/recovery integration tests: a real oij_server
// binary (located via the OIJ_SERVER_BIN environment variable, set by
// CMake), killed with SIGKILL mid-run and restarted over the same
// --wal-dir. The headline property is the ISSUE's acceptance bar:
//
//   * --fsync per_batch: the union of results streamed before the kill
//     and after recovery equals the policy-aware reference oracle
//     EXACTLY (zero loss of watermark-finalized results).
//   * --fsync interval under injected disk faults: recovery still
//     succeeds and every recovered result stays within the documented
//     loss bound (a subset of the oracle, never a fabricated result).
//   * SIGTERM drain: the Sync() barrier in the server's finalize path
//     makes every accepted record durable even under --fsync none,
//     verified by reading the WAL directory back with BuildReplayPlan.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "http_test_util.h"
#include "join/reference_join.h"
#include "join/watermark.h"
#include "net/socket.h"
#include "net/wire_codec.h"
#include "stream/generator.h"
#include "stream/presets.h"
#include "wal/wal_reader.h"

namespace oij {
namespace {

const char* ServerBinary() { return std::getenv("OIJ_SERVER_BIN"); }

std::vector<StreamEvent> Generate(const WorkloadSpec& spec) {
  WorkloadGenerator gen(spec);
  std::vector<StreamEvent> events;
  StreamEvent ev;
  while (gen.Next(&ev)) events.push_back(ev);
  return events;
}

bool WaitUntil(const std::function<bool()>& pred, int64_t timeout_ms = 30000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// Scratch WAL directory, removed on destruction.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/oij_crash_test_XXXXXX";
    char* d = mkdtemp(tmpl);
    EXPECT_NE(d, nullptr);
    if (d != nullptr) path_ = d;
  }
  ~TempDir() {
    if (!path_.empty()) {
      const std::string cmd = "rm -rf '" + path_ + "'";
      if (std::system(cmd.c_str()) != 0) {
        std::fprintf(stderr, "warning: failed to remove %s\n", path_.c_str());
      }
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A forked oij_server. Stdout is piped so the ephemeral data/admin
/// ports can be parsed from the startup banner; a drain thread keeps the
/// pipe from filling afterwards.
class ServerProc {
 public:
  ~ServerProc() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      WaitExit();
    }
    if (drain_.joinable()) drain_.join();
    if (out_fd_ >= 0) close(out_fd_);
  }

  bool Spawn(const std::vector<std::string>& extra_args) {
    const char* bin = ServerBinary();
    if (bin == nullptr) return false;
    int fds[2];
    if (pipe(fds) != 0) return false;
    pid_ = fork();
    if (pid_ < 0) {
      close(fds[0]);
      close(fds[1]);
      return false;
    }
    if (pid_ == 0) {
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      std::vector<std::string> args;
      args.push_back(bin);
      args.insert(args.end(), extra_args.begin(), extra_args.end());
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      execv(bin, argv.data());
      _exit(127);
    }
    close(fds[1]);
    out_fd_ = fds[0];
    if (!ParsePorts()) return false;
    drain_ = std::thread([this] {
      char buf[4096];
      while (read(out_fd_, buf, sizeof(buf)) > 0) {
      }
    });
    return true;
  }

  void Kill(int sig) {
    ASSERT_GT(pid_, 0);
    ASSERT_EQ(kill(pid_, sig), 0) << strerror(errno);
  }

  /// Reaps the child; returns its wait() status (-1 if already reaped).
  int WaitExit() {
    if (pid_ <= 0) return -1;
    int status = -1;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return status;
  }

  uint16_t data_port() const { return data_port_; }
  uint16_t admin_port() const { return admin_port_; }

 private:
  /// Reads the banner until both port lines appear. A failed start
  /// closes the pipe (EOF) and we report false.
  bool ParsePorts() {
    std::string text;
    char buf[512];
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      const ssize_t n = read(out_fd_, buf, sizeof(buf));
      if (n <= 0) return false;
      text.append(buf, static_cast<size_t>(n));
      unsigned dp = 0, ap = 0;
      const char* d = std::strstr(text.c_str(), "data port:");
      const char* a = std::strstr(text.c_str(), "admin port:");
      if (d != nullptr && a != nullptr &&
          std::sscanf(d, "data port: %u", &dp) == 1 &&
          std::sscanf(a, "admin port: %u", &ap) == 1) {
        data_port_ = static_cast<uint16_t>(dp);
        admin_port_ = static_cast<uint16_t>(ap);
        return true;
      }
    }
    return false;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::thread drain_;
  uint16_t data_port_ = 0;
  uint16_t admin_port_ = 0;
};

/// Data-plane client whose received-result count is observable while the
/// reader thread is still running (the crash tests must know when every
/// streamed result has been *delivered* before pulling the plug).
class LiveClient {
 public:
  explicit LiveClient(uint16_t port) {
    const Status s = ConnectTcp("127.0.0.1", port, &fd_);
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (fd_ >= 0) reader_ = std::thread(&LiveClient::ReadLoop, this);
  }

  ~LiveClient() {
    // Unblock the reader first: on an assertion-failure unwind the
    // server may still be alive with the connection open, and a plain
    // join would wait forever on its recv.
    if (fd_ >= 0) shutdown(fd_, SHUT_RDWR);
    JoinReader();
    CloseFd(fd_);
  }

  bool Send(const std::string& bytes) {
    return SendAll(fd_, bytes.data(), bytes.size()).ok();
  }

  void JoinReader() {
    if (reader_.joinable()) reader_.join();
  }

  size_t ResultCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    return results_.size();
  }

  /// Valid only after JoinReader().
  const std::vector<JoinResult>& results() const { return results_; }
  const std::string& summary() const { return summary_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  void ReadLoop() {
    WireDecoder decoder;
    char buf[16384];
    WireFrame frame;
    while (true) {
      const int64_t n = RecvSome(fd_, buf, sizeof(buf));
      if (n <= 0) return;
      decoder.Feed(buf, static_cast<size_t>(n));
      while (true) {
        const WireDecoder::Result r = decoder.Next(&frame);
        if (r == WireDecoder::Result::kNeedMore) break;
        if (r == WireDecoder::Result::kCorrupt) return;
        std::lock_guard<std::mutex> lock(mu_);
        if (frame.type == FrameType::kResult) {
          results_.push_back(frame.result);
        } else if (frame.type == FrameType::kSummary) {
          summary_ = frame.text;
        } else if (frame.type == FrameType::kError) {
          errors_.push_back(frame.text);
        }
      }
    }
  }

  int fd_ = -1;
  std::thread reader_;
  mutable std::mutex mu_;
  std::vector<JoinResult> results_;
  std::string summary_;
  std::vector<std::string> errors_;
};

/// Sends events [begin, end) with the standard observe-then-punctuate
/// cadence, continuing a global per-run event counter so watermark
/// positions are identical to an uninterrupted run. The tracker must
/// have observed [0, begin) already.
bool SendRange(LiveClient* client, const std::vector<StreamEvent>& events,
               size_t begin, size_t end, WatermarkTracker* tracker,
               uint64_t wm_every, std::string* batch) {
  for (size_t i = begin; i < end; ++i) {
    tracker->Observe(events[i].tuple.ts);
    AppendTupleFrame(batch, events[i]);
    if ((i + 1) % wm_every == 0) {
      AppendWatermarkFrame(batch, tracker->watermark());
    }
    if (batch->size() >= 32 * 1024) {
      if (!client->Send(*batch)) return false;
      batch->clear();
    }
  }
  if (!batch->empty()) {
    if (!client->Send(*batch)) return false;
    batch->clear();
  }
  return true;
}

using BaseKey = std::tuple<Timestamp, Key, double>;

BaseKey KeyOf(const Tuple& base) {
  return BaseKey(base.ts, base.key, base.payload);
}

struct Observed {
  uint64_t match_count = 0;
  double aggregate = 0.0;
};

/// Union-dedupes results across the crash boundary. Recovery re-emits
/// already-finalized bases (at-least-once delivery); under per_batch the
/// re-emission must agree with the original byte-for-byte.
void Accumulate(const std::vector<JoinResult>& results, bool dups_must_agree,
                std::map<BaseKey, Observed>* acc) {
  for (const JoinResult& r : results) {
    const BaseKey k = KeyOf(r.base);
    auto it = acc->find(k);
    if (it == acc->end()) {
      (*acc)[k] = Observed{r.match_count, r.aggregate};
    } else if (dups_must_agree) {
      EXPECT_EQ(it->second.match_count, r.match_count)
          << "re-emitted base ts=" << r.base.ts << " key=" << r.base.key
          << " changed its match count across the crash";
      EXPECT_NEAR(it->second.aggregate, r.aggregate, 1e-6);
    } else {
      // Lossy regime: keep the most complete emission.
      if (r.match_count > it->second.match_count) {
        it->second = Observed{r.match_count, r.aggregate};
      }
    }
  }
}

/// Per-standing-query union-dedupe: results carry the query ordinal on
/// the wire, so one subscriber stream splits into one accumulator per
/// standing query.
void AccumulateByQuery(const std::vector<JoinResult>& results,
                       bool dups_must_agree,
                       std::map<uint32_t, std::map<BaseKey, Observed>>* acc) {
  std::map<uint32_t, std::vector<JoinResult>> by_query;
  for (const JoinResult& r : results) by_query[r.query].push_back(r);
  for (const auto& [ord, rs] : by_query) {
    Accumulate(rs, dups_must_agree, &(*acc)[ord]);
  }
}

std::map<BaseKey, Observed> OracleIndex(
    const std::vector<ReferenceResult>& expected) {
  std::map<BaseKey, Observed> idx;
  for (const ReferenceResult& r : expected) {
    idx[KeyOf(r.base)] = Observed{r.match_count, r.aggregate};
  }
  return idx;
}

struct CrashWorkload {
  WorkloadSpec workload;
  QuerySpec query;
  std::vector<StreamEvent> events;
  std::vector<ReferenceResult> expected;
  size_t crash_at = 0;
};

/// Shrinks the "default" preset to loopback scale and picks a crash
/// point on a watermark boundary (so phase 2 resumes mid-cadence
/// cleanly — the exactness argument does not depend on this, it only
/// keeps the punctuation sequence identical to an uninterrupted run).
CrashWorkload BuildCrashWorkload(uint64_t tuples, uint64_t wm_every,
                                 bool crash_on_boundary) {
  CrashWorkload out;
  EXPECT_TRUE(FindPreset("default", &out.workload));
  out.workload.total_tuples = tuples;
  out.query.window = out.workload.window;
  out.query.lateness_us = out.workload.lateness_us;
  out.query.emit_mode = EmitMode::kWatermark;
  out.events = Generate(out.workload);
  out.expected = ReferenceJoinWithPolicy(out.events, out.query, wm_every);
  out.crash_at = out.events.size() / 2;
  if (crash_on_boundary) {
    out.crash_at = (out.crash_at / wm_every) * wm_every;
  } else {
    out.crash_at += 17;  // mid-batch, mid-cadence
  }
  return out;
}

// ------------------------------------------------ per_batch: exact

/// kill -9 under --fsync per_batch. Every result the server streamed
/// before the kill was watermark-finalized, and per_batch syncs the WAL
/// before each watermark broadcast, so the inputs behind every streamed
/// result are durable. Phase 1 results + post-recovery phase 2 results,
/// union-deduped, must equal the reference oracle exactly.
TEST(CrashRecoveryTest, PerBatchKillNineRecoversExactly) {
  if (ServerBinary() == nullptr) {
    GTEST_SKIP() << "OIJ_SERVER_BIN not set";
  }
  constexpr uint64_t kWmEvery = 64;
  const CrashWorkload w =
      BuildCrashWorkload(6'000, kWmEvery, /*crash_on_boundary=*/true);
  TempDir dir;

  const std::vector<std::string> args = {
      "--workload", "default",    "--engine",         "scale-oij",
      "--joiners",  "2",          "--wal-dir",        dir.path(),
      "--fsync",    "per_batch",  "--snapshot-every", "2048"};

  std::map<BaseKey, Observed> got;
  size_t phase1_results = 0;
  {
    ServerProc server;
    ASSERT_TRUE(server.Spawn(args)) << "oij_server failed to start";

    LiveClient client(server.data_port());
    std::string batch;
    AppendControlFrame(&batch, FrameType::kSubscribe);
    WatermarkTracker tracker(w.query.lateness_us);
    ASSERT_TRUE(SendRange(&client, w.events, 0, w.crash_at, &tracker,
                          kWmEvery, &batch));

    // Quiesce before the kill: every sent tuple ingested, every appended
    // WAL record synced (the phase ends on a watermark barrier), and
    // every result the server streamed actually delivered to us. After
    // that the kill cannot lose anything the test has witnessed. (Even a
    // result finalized in the kill window is not *lost* — its inputs are
    // durable, so recovery re-derives it — quiescing just keeps the
    // pre/post bookkeeping simple, so require it to hold across a pause.)
    const auto quiesced = [&] {
      int code = 0;
      const std::string body = HttpGet(server.admin_port(), "/statz", &code);
      double tuples_in = -1, appended = -1, synced = -2, streamed = -1;
      if (code != 200 || !StatzNumber(body, "tuples_in", &tuples_in) ||
          !StatzNumber(body, "appended_records", &appended) ||
          !StatzNumber(body, "synced_records", &synced) ||
          !StatzNumber(body, "results_streamed", &streamed)) {
        return false;
      }
      return tuples_in == static_cast<double>(w.crash_at) && appended > 0 &&
             appended == synced &&
             static_cast<double>(client.ResultCount()) == streamed;
    };
    ASSERT_TRUE(WaitUntil([&] {
      if (!quiesced()) return false;
      const size_t before = client.ResultCount();
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      return quiesced() && client.ResultCount() == before;
    })) << "server never quiesced before the kill";

    server.Kill(SIGKILL);
    server.WaitExit();
    client.JoinReader();  // the dead server's socket closes the stream
    phase1_results = client.results().size();
    Accumulate(client.results(), /*dups_must_agree=*/true, &got);
  }

  // Restart over the same directory; recovery runs before serving.
  ServerProc server;
  ASSERT_TRUE(server.Spawn(args)) << "restart failed";
  ASSERT_TRUE(WaitUntil([&] {
    int code = 0;
    HttpGet(server.admin_port(), "/healthz", &code);
    return code == 200;
  })) << "server never became healthy after recovery";

  int code = 0;
  const std::string statz = HttpGet(server.admin_port(), "/statz", &code);
  ASSERT_EQ(code, 200);
  double replayed = 0;
  ASSERT_TRUE(StatzNumber(statz, "replay_records", &replayed)) << statz;
  EXPECT_GT(replayed, 0) << "restart did not replay the WAL: " << statz;

  {
    LiveClient client(server.data_port());
    std::string batch;
    AppendControlFrame(&batch, FrameType::kSubscribe);
    // Re-prime the punctuation state from phase 1 without resending it.
    WatermarkTracker tracker(w.query.lateness_us);
    for (size_t i = 0; i < w.crash_at; ++i) {
      tracker.Observe(w.events[i].tuple.ts);
    }
    ASSERT_TRUE(SendRange(&client, w.events, w.crash_at, w.events.size(),
                          &tracker, kWmEvery, &batch));
    AppendControlFrame(&batch, FrameType::kFinish);
    ASSERT_TRUE(client.Send(batch));
    client.JoinReader();
    EXPECT_TRUE(client.errors().empty())
        << "server error: " << client.errors().front();
    EXPECT_FALSE(client.summary().empty()) << "no summary after recovery";
    Accumulate(client.results(), /*dups_must_agree=*/true, &got);
  }
  server.Kill(SIGKILL);
  server.WaitExit();

  // Exactness across the crash: same cardinality, same per-base counts
  // and aggregates as the uninterrupted oracle.
  const auto oracle = OracleIndex(w.expected);
  EXPECT_GT(phase1_results, 0u) << "crash point produced no pre-kill results";
  ASSERT_EQ(got.size(), oracle.size())
      << "recovered run finalized a different set of bases";
  for (const auto& [key, want] : oracle) {
    const auto it = got.find(key);
    ASSERT_NE(it, got.end())
        << "oracle base ts=" << std::get<0>(key) << " key=" << std::get<1>(key)
        << " never emitted";
    EXPECT_EQ(it->second.match_count, want.match_count)
        << "base ts=" << std::get<0>(key) << " key=" << std::get<1>(key);
    EXPECT_NEAR(it->second.aggregate, want.aggregate, 1e-6);
  }
}

/// The multi-query variant of the acceptance bar: a --fsync per_batch
/// server with THREE standing queries (the workload primary plus two
/// added over POST /queries) is killed with SIGKILL mid-run. The restart
/// must restore the catalog from the WAL/MANIFEST before serving — GET
/// /queries lists all three with their specs and ordinals — and the
/// union of per-query results across the crash must equal each query's
/// own reference oracle exactly.
TEST(CrashRecoveryTest, PerBatchKillNineRestoresQueryCatalog) {
  if (ServerBinary() == nullptr) {
    GTEST_SKIP() << "OIJ_SERVER_BIN not set";
  }
  constexpr uint64_t kWmEvery = 64;
  const CrashWorkload w =
      BuildCrashWorkload(6'000, kWmEvery, /*crash_on_boundary=*/true);

  // Two riders on the shared index, both inside the retained-history
  // exactness bound (primary pre 1000 >= rider pre + lateness 100) and
  // added before any ingest, so each rider's oracle is simply the full
  // reference run under its own spec.
  QuerySpec narrow = w.query;
  narrow.window = IntervalWindow{400, 0};
  narrow.agg = AggKind::kCount;
  QuerySpec half = w.query;
  half.window = IntervalWindow{800, 0};
  half.agg = AggKind::kSum;
  std::map<uint32_t, std::map<BaseKey, Observed>> want;
  want[0] = OracleIndex(w.expected);
  want[1] = OracleIndex(ReferenceJoinWithPolicy(w.events, narrow, kWmEvery));
  want[2] = OracleIndex(ReferenceJoinWithPolicy(w.events, half, kWmEvery));

  TempDir dir;
  const std::vector<std::string> args = {
      "--workload", "default",    "--engine",         "scale-oij",
      "--joiners",  "2",          "--wal-dir",        dir.path(),
      "--fsync",    "per_batch",  "--snapshot-every", "2048"};

  std::map<uint32_t, std::map<BaseKey, Observed>> got;
  {
    ServerProc server;
    ASSERT_TRUE(server.Spawn(args)) << "oij_server failed to start";

    int code = 0;
    std::string resp =
        HttpSend(server.admin_port(), "POST", "/queries",
                 R"({"id":"narrow","pre":400,"fol":0,"agg":"count"})", &code);
    ASSERT_EQ(code, 200) << resp;
    resp = HttpSend(server.admin_port(), "POST", "/queries",
                    R"({"id":"half","pre":800,"fol":0,"agg":"sum"})", &code);
    ASSERT_EQ(code, 200) << resp;

    LiveClient client(server.data_port());
    std::string batch;
    AppendControlFrame(&batch, FrameType::kSubscribe);
    WatermarkTracker tracker(w.query.lateness_us);
    ASSERT_TRUE(SendRange(&client, w.events, 0, w.crash_at, &tracker,
                          kWmEvery, &batch));

    // Same quiesce discipline as the single-query test: every sent tuple
    // ingested, the WAL fully synced, every streamed result delivered.
    const auto quiesced = [&] {
      int c = 0;
      const std::string body = HttpGet(server.admin_port(), "/statz", &c);
      double tuples_in = -1, appended = -1, synced = -2, streamed = -1;
      if (c != 200 || !StatzNumber(body, "tuples_in", &tuples_in) ||
          !StatzNumber(body, "appended_records", &appended) ||
          !StatzNumber(body, "synced_records", &synced) ||
          !StatzNumber(body, "results_streamed", &streamed)) {
        return false;
      }
      return tuples_in == static_cast<double>(w.crash_at) && appended > 0 &&
             appended == synced &&
             static_cast<double>(client.ResultCount()) == streamed;
    };
    ASSERT_TRUE(WaitUntil([&] {
      if (!quiesced()) return false;
      const size_t before = client.ResultCount();
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      return quiesced() && client.ResultCount() == before;
    })) << "server never quiesced before the kill";

    server.Kill(SIGKILL);
    server.WaitExit();
    client.JoinReader();
    AccumulateByQuery(client.results(), /*dups_must_agree=*/true, &got);
  }
  for (const uint32_t ord : {0u, 1u, 2u}) {
    EXPECT_GT(got[ord].size(), 0u)
        << "standing query ord " << ord << " streamed nothing pre-kill";
  }

  // Restart over the same directory. Recovery must rebuild the standing
  // queries from the durable catalog before replaying a single tuple.
  ServerProc server;
  ASSERT_TRUE(server.Spawn(args)) << "restart failed";
  ASSERT_TRUE(WaitUntil([&] {
    int code = 0;
    HttpGet(server.admin_port(), "/healthz", &code);
    return code == 200;
  })) << "server never became healthy after recovery";

  int code = 0;
  const std::string statz = HttpGet(server.admin_port(), "/statz", &code);
  ASSERT_EQ(code, 200);
  double replayed = 0;
  ASSERT_TRUE(StatzNumber(statz, "replay_records", &replayed)) << statz;
  EXPECT_GT(replayed, 0) << "restart did not replay the WAL: " << statz;

  const std::string queries = HttpGet(server.admin_port(), "/queries", &code);
  ASSERT_EQ(code, 200);
  EXPECT_NE(
      queries.find("\"id\":\"narrow\",\"ord\":1,\"active\":true,\"pre\":400"),
      std::string::npos)
      << "recovered catalog lost 'narrow': " << queries;
  EXPECT_NE(
      queries.find("\"id\":\"half\",\"ord\":2,\"active\":true,\"pre\":800"),
      std::string::npos)
      << "recovered catalog lost 'half': " << queries;
  EXPECT_NE(queries.find("\"agg\":\"count\""), std::string::npos) << queries;

  {
    LiveClient client(server.data_port());
    std::string batch;
    AppendControlFrame(&batch, FrameType::kSubscribe);
    WatermarkTracker tracker(w.query.lateness_us);
    for (size_t i = 0; i < w.crash_at; ++i) {
      tracker.Observe(w.events[i].tuple.ts);
    }
    ASSERT_TRUE(SendRange(&client, w.events, w.crash_at, w.events.size(),
                          &tracker, kWmEvery, &batch));
    AppendControlFrame(&batch, FrameType::kFinish);
    ASSERT_TRUE(client.Send(batch));
    client.JoinReader();
    EXPECT_TRUE(client.errors().empty())
        << "server error: " << client.errors().front();
    EXPECT_FALSE(client.summary().empty()) << "no summary after recovery";
    AccumulateByQuery(client.results(), /*dups_must_agree=*/true, &got);
  }
  server.Kill(SIGKILL);
  server.WaitExit();

  // All three result sets, union-deduped across the crash, must equal
  // their per-query oracles exactly.
  ASSERT_EQ(got.size(), 3u) << "results arrived for an unknown query ordinal";
  for (const auto& [ord, oracle] : want) {
    const auto& seen = got[ord];
    ASSERT_EQ(seen.size(), oracle.size())
        << "query ord " << ord
        << " finalized a different set of bases across the crash";
    for (const auto& [key, expect] : oracle) {
      const auto it = seen.find(key);
      ASSERT_NE(it, seen.end())
          << "query ord " << ord << " base ts=" << std::get<0>(key)
          << " key=" << std::get<1>(key) << " never emitted";
      EXPECT_EQ(it->second.match_count, expect.match_count)
          << "query ord " << ord << " base ts=" << std::get<0>(key)
          << " key=" << std::get<1>(key);
      EXPECT_NEAR(it->second.aggregate, expect.aggregate, 1e-6);
    }
  }
}

// ----------------------------------- interval + disk faults: bounded

/// kill -9 under --fsync interval with the disk-fault harness active
/// (short writes and fsync failures). Loss is allowed — the bound is
/// the unsynced tail — but recovery must still succeed and must never
/// fabricate results: everything emitted across both phases must be a
/// (possibly partial) version of an oracle result.
TEST(CrashRecoveryTest, IntervalKillNineUnderDiskFaultsStaysWithinBound) {
  if (ServerBinary() == nullptr) {
    GTEST_SKIP() << "OIJ_SERVER_BIN not set";
  }
  constexpr uint64_t kWmEvery = 64;
  const CrashWorkload w =
      BuildCrashWorkload(4'000, kWmEvery, /*crash_on_boundary=*/false);
  TempDir dir;

  // One joiner = one WAL shard, so the surviving log is a contiguous
  // LSN prefix and the loss bound is easy to reason about. A huge fsync
  // interval plus injected fsync failures guarantees an unsynced tail.
  const std::vector<std::string> args = {
      "--workload", "default", "--engine", "key-oij",
      "--joiners", "1", "--wal-dir", dir.path(),
      "--fsync", "interval", "--fsync-interval-us", "1000000000",
      "--wal-short-write-prob", "0.05", "--wal-fsync-fail-prob", "0.5"};

  std::map<BaseKey, Observed> got;
  {
    ServerProc server;
    ASSERT_TRUE(server.Spawn(args)) << "oij_server failed to start";
    LiveClient client(server.data_port());
    std::string batch;
    AppendControlFrame(&batch, FrameType::kSubscribe);
    WatermarkTracker tracker(w.query.lateness_us);
    ASSERT_TRUE(SendRange(&client, w.events, 0, w.crash_at, &tracker,
                          kWmEvery, &batch));
    ASSERT_TRUE(WaitUntil([&] {
      return StatzNumberOr(server.admin_port(), "tuples_in", -1) ==
             static_cast<double>(w.crash_at);
    })) << "server never ingested phase 1";
    server.Kill(SIGKILL);
    server.WaitExit();
    client.JoinReader();
    Accumulate(client.results(), /*dups_must_agree=*/false, &got);
  }

  // Restart without the fault injection: the disk is whatever the
  // faulty run left behind; recovery must absorb torn tails cleanly.
  const std::vector<std::string> clean_args = {
      "--workload", "default", "--engine", "key-oij", "--joiners", "1",
      "--wal-dir",  dir.path(), "--fsync", "interval"};
  ServerProc server;
  ASSERT_TRUE(server.Spawn(clean_args)) << "restart failed";
  ASSERT_TRUE(WaitUntil([&] {
    int code = 0;
    HttpGet(server.admin_port(), "/healthz", &code);
    return code == 200;
  })) << "server never became healthy after faulty-disk recovery";

  {
    LiveClient client(server.data_port());
    std::string batch;
    AppendControlFrame(&batch, FrameType::kSubscribe);
    WatermarkTracker tracker(w.query.lateness_us);
    for (size_t i = 0; i < w.crash_at; ++i) {
      tracker.Observe(w.events[i].tuple.ts);
    }
    ASSERT_TRUE(SendRange(&client, w.events, w.crash_at, w.events.size(),
                          &tracker, kWmEvery, &batch));
    AppendControlFrame(&batch, FrameType::kFinish);
    ASSERT_TRUE(client.Send(batch));
    client.JoinReader();
    EXPECT_TRUE(client.errors().empty())
        << "server error: " << client.errors().front();
    EXPECT_FALSE(client.summary().empty());
    Accumulate(client.results(), /*dups_must_agree=*/false, &got);
  }
  server.Kill(SIGKILL);
  server.WaitExit();

  // Bounded loss, never fabrication: every emitted base exists in the
  // oracle with at least as many matches. (Bases whose inputs sat in
  // the lost tail are allowed to be missing or partial.)
  const auto oracle = OracleIndex(w.expected);
  EXPECT_GT(got.size(), 0u) << "faulted run recovered nothing at all";
  EXPECT_LE(got.size(), oracle.size());
  for (const auto& [key, seen] : got) {
    const auto it = oracle.find(key);
    ASSERT_NE(it, oracle.end())
        << "fabricated base ts=" << std::get<0>(key)
        << " key=" << std::get<1>(key);
    EXPECT_LE(seen.match_count, it->second.match_count)
        << "base ts=" << std::get<0>(key) << " key=" << std::get<1>(key)
        << " has more matches than full knowledge allows";
  }
}

// --------------------------------------------- SIGTERM drain barrier

/// Graceful shutdown must be loss-free regardless of fsync policy: the
/// server's finalize path flushes pending ingest, runs the engine's
/// Sync() barrier, and only then exits. With --fsync none nothing else
/// would have forced the log out, so reading the directory back proves
/// the barrier ran.
TEST(CrashRecoveryTest, SigtermDrainMakesEveryAcceptedRecordDurable) {
  if (ServerBinary() == nullptr) {
    GTEST_SKIP() << "OIJ_SERVER_BIN not set";
  }
  constexpr uint64_t kTuples = 3'000;
  constexpr uint64_t kWmEvery = 64;
  constexpr uint32_t kJoiners = 2;  // watermarks replicate to 2 shards
  WorkloadSpec workload;
  ASSERT_TRUE(FindPreset("default", &workload));
  workload.total_tuples = kTuples;
  const auto events = Generate(workload);
  TempDir dir;

  ServerProc server;
  ASSERT_TRUE(server.Spawn({"--workload", "default", "--engine", "key-oij",
                            "--joiners", std::to_string(kJoiners),
                            "--wal-dir", dir.path(), "--fsync", "none"}));

  uint64_t watermarks_sent = 0;
  {
    LiveClient client(server.data_port());
    std::string batch;
    WatermarkTracker tracker(workload.lateness_us);
    uint64_t n = 0;
    for (const StreamEvent& ev : events) {
      tracker.Observe(ev.tuple.ts);
      AppendTupleFrame(&batch, ev);
      if (++n % kWmEvery == 0) {
        AppendWatermarkFrame(&batch, tracker.watermark());
        ++watermarks_sent;
      }
    }
    ASSERT_TRUE(client.Send(batch));  // note: no kFinish — run left open

    // Wait for the engine to consume everything (appends happen on the
    // ingest path, so the full logical record count — a replicated
    // watermark is one record — proves consumption).
    const double want_appended =
        static_cast<double>(kTuples + watermarks_sent);
    ASSERT_TRUE(WaitUntil([&] {
      return StatzNumberOr(server.admin_port(), "appended_records", -1) ==
             want_appended;
    })) << "WAL never saw every accepted record";

    server.Kill(SIGTERM);
    const int status = server.WaitExit();
    ASSERT_TRUE(WIFEXITED(status)) << "drain did not exit cleanly";
    EXPECT_EQ(WEXITSTATUS(status), 0);
    client.JoinReader();
  }

  // Under --fsync none only the drain barrier could have persisted this.
  WalReplayPlan plan;
  const Status s = BuildReplayPlan(dir.path(), &plan);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(plan.torn_tails, 0u) << "graceful drain left a torn tail";
  EXPECT_FALSE(plan.has_snapshot) << "no snapshot was configured";
  uint64_t tuple_records = 0, watermark_records = 0;
  for (const WalReplayRecord& r : plan.records) {
    if (r.is_watermark) {
      ++watermark_records;
    } else {
      ++tuple_records;
    }
  }
  EXPECT_EQ(tuple_records, kTuples)
      << "accepted tuples missing from the drained WAL";
  EXPECT_EQ(watermark_records, watermarks_sent)
      << "watermark punctuations missing from the drained WAL";
}

}  // namespace
}  // namespace oij

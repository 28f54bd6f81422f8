// Wire paths: an embedded OijServer (WAL on, interval fsync), optionally
// behind an embedded OijRouter, fed over loopback TCP by an open-loop
// client. One benchmark thread drives both client connections: it sends
// each batch when its last tuple is due and reads the subscriber stream
// in between, so the busy threads (client, server loop, joiner, router
// loop) fit in four cores.

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "bench.h"
#include "cluster/router.h"
#include "layers.h"
#include "net/socket.h"
#include "net/wire_codec.h"
#include "server/server.h"

namespace perfbench {

namespace {

constexpr uint32_t kClientThread = 1;
constexpr uint64_t kBatchTuples = 256;
constexpr int64_t kRepDeadlineNs = 90'000'000'000;  // a wedged run fails
constexpr int64_t kSetupDeadlineNs = 10'000'000'000;

/// Thread ids that appeared between two /proc task listings and carry no
/// engine thread name: the loop thread a Start() just spawned.
int NewLoopTid(const std::vector<int>& before) {
  int tid = -1;
  for (int t : ListTasks()) {
    if (std::binary_search(before.begin(), before.end(), t)) continue;
    const std::string name = TaskName(t);
    if (name.rfind("joiner-", 0) == 0 || name == "oij-watchdog") continue;
    tid = std::max(tid, t);
  }
  return tid;
}

/// The system under test for one repetition.
class Deployment {
 public:
  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() { Stop(); }

  std::string Start(const PreparedInput& input, const WorkloadPlan& plan,
                    const std::string& scratch_dir) {
    std::error_code ec;
    std::filesystem::create_directories(scratch_dir, ec);
    std::string tmpl = scratch_dir + "/wal-XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) return "mkdtemp failed in " + scratch_dir;
    wal_dir_ = tmpl;

    oij::ServerConfig config;
    config.engine = oij::EngineKind::kScaleOij;
    config.query = input.query;
    config.options.num_joiners = plan.joiners;
    config.options.durability.wal_dir = wal_dir_;
    config.workload_name = plan.name;
    server_ = std::make_unique<oij::OijServer>(config);
    std::vector<int> before = ListTasks();
    oij::Status s = server_->Start();
    if (!s.ok()) return "server start: " + s.ToString();
    server_tid_ = NewLoopTid(before);
    data_port_ = server_->data_port();

    if (plan.path == Path::kRouted) {
      oij::RouterConfig rc;
      rc.backends.push_back(
          {"127.0.0.1", server_->data_port(), server_->admin_port()});
      router_ = std::make_unique<oij::OijRouter>(rc);
      before = ListTasks();
      s = router_->Start();
      if (!s.ok()) return "router start: " + s.ToString();
      router_tid_ = NewLoopTid(before);
      data_port_ = router_->data_port();
      // Tuples routed before the backend handshake completes would be
      // dropped: the router is ready once its backend is active.
      const int64_t deadline = oij::MonotonicNowNs() + kSetupDeadlineNs;
      while (router_->CountersSnapshot().backend_connects == 0) {
        if (oij::MonotonicNowNs() > deadline) {
          return "router never reached its backend";
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    return "";
  }

  void Stop() {
    if (router_) router_->Shutdown();
    if (server_) server_->Shutdown();
    router_.reset();
    server_.reset();
    if (!wal_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(wal_dir_, ec);
      wal_dir_.clear();
    }
  }

  oij::OijServer* server() { return server_.get(); }
  oij::OijRouter* router() { return router_.get(); }
  uint16_t data_port() const { return data_port_; }
  int server_tid() const { return server_tid_; }
  int router_tid() const { return router_tid_; }

 private:
  std::unique_ptr<oij::OijServer> server_;
  std::unique_ptr<oij::OijRouter> router_;
  std::string wal_dir_;
  uint16_t data_port_ = 0;
  int server_tid_ = -1;
  int router_tid_ = -1;
};

/// Owns a client socket.
class Socket {
 public:
  Socket() = default;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { oij::CloseFd(fd_); }
  int* out() { return &fd_; }
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

/// Connects the sender and the subscriber; the subscriber's hello round
/// trip proves the server (or router) finished recovery and accepts
/// data. Returns an error message, empty on success.
std::string ConnectClients(uint16_t port, Socket* sender, Socket* subscriber,
                           oij::WireDecoder* sub_decoder) {
  oij::Status s = oij::ConnectTcp("127.0.0.1", port, subscriber->out());
  if (!s.ok()) return "subscriber connect: " + s.ToString();
  std::string hello;
  oij::AppendHelloFrame(&hello, oij::HelloInfo{});
  oij::AppendControlFrame(&hello, oij::FrameType::kSubscribe);
  s = oij::SendAll(subscriber->fd(), hello.data(), hello.size());
  if (!s.ok()) return "subscriber hello: " + s.ToString();
  oij::WireFrame frame;
  char buf[4096];
  while (true) {
    const oij::WireDecoder::Result r = sub_decoder->Next(&frame);
    if (r == oij::WireDecoder::Result::kFrame) {
      if (frame.type == oij::FrameType::kHello) break;
      if (frame.type == oij::FrameType::kError) return "hello refused: " + frame.text;
      continue;
    }
    if (r == oij::WireDecoder::Result::kCorrupt) return "corrupt hello reply";
    const int64_t got = oij::RecvSome(subscriber->fd(), buf, sizeof(buf));
    if (got <= 0) return "connection closed before the hello reply";
    sub_decoder->Feed(buf, static_cast<size_t>(got));
  }
  s = oij::ConnectTcp("127.0.0.1", port, sender->out());
  if (!s.ok()) return "sender connect: " + s.ToString();
  oij::SetNonBlocking(sender->fd());
  oij::SetNonBlocking(subscriber->fd());
  return "";
}

/// One admin-plane scrape: GET /metrics, parsed into name -> values (one
/// value per label set, in page order).
std::map<std::string, std::vector<double>> ScrapeMetrics(uint16_t port) {
  std::map<std::string, std::vector<double>> out;
  Socket sock;
  if (!oij::ConnectTcp("127.0.0.1", port, sock.out()).ok()) return out;
  timeval timeout{1, 0};
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  if (!oij::SendAll(sock.fd(), request.data(), request.size()).ok()) return out;
  std::string page;
  char buf[8192];
  int64_t got;
  while ((got = oij::RecvSome(sock.fd(), buf, sizeof(buf))) > 0) {
    page.append(buf, static_cast<size_t>(got));
  }
  std::istringstream lines(page);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#' || line.rfind("HTTP/", 0) == 0) continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string name = line.substr(0, std::min(line.find('{'), space));
    out[name].push_back(std::atof(line.c_str() + space + 1));
  }
  return out;
}

double First(const std::map<std::string, std::vector<double>>& m,
             const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() || it->second.empty() ? 0.0 : it->second.front();
}

/// Live samples from the admin planes (traced repetitions only).
struct AdminSamples {
  std::mutex mu;
  std::vector<oij::WatchdogSample> progress;  // guarded by mu
  double max_unsynced = 0.0;                  // guarded by mu
  size_t router_samples = 0;                  // guarded by mu
  size_t router_unhealthy = 0;                // guarded by mu
};

void ScrapeOnce(uint16_t server_admin, uint16_t router_admin,
                AdminSamples* out) {
  const auto server = ScrapeMetrics(server_admin);
  if (server.empty()) return;
  oij::WatchdogSample s;
  if (const auto it = server.find("oij_joiner_queue_depth");
      it != server.end()) {
    for (double d : it->second) s.queue_depths.push_back(static_cast<size_t>(d));
  }
  s.arena_bytes = static_cast<uint64_t>(First(server, "oij_arena_bytes"));
  s.ebr_retired_backlog =
      static_cast<uint64_t>(First(server, "oij_ebr_retired_backlog"));
  const double unsynced = First(server, "oij_wal_appended_records_total") -
                          First(server, "oij_wal_synced_records");
  size_t unhealthy = 0;
  bool router_seen = false;
  if (router_admin != 0) {
    const auto router = ScrapeMetrics(router_admin);
    const auto it = router.find("oij_router_backend_healthy");
    if (it != router.end()) {
      router_seen = true;
      for (double h : it->second) unhealthy += h < 0.5 ? 1 : 0;
    }
  }
  std::lock_guard<std::mutex> lock(out->mu);
  out->progress.push_back(std::move(s));
  out->max_unsynced = std::max(out->max_unsynced, unsynced);
  if (router_seen) {
    ++out->router_samples;
    out->router_unhealthy += unhealthy > 0 ? 1 : 0;
  }
}

/// What the client observed during one repetition.
struct ClientReport {
  std::string error;
  int64_t first_send_ns = 0;
  int64_t summary_ns = 0;
  int64_t finish_sent_ns = 0;
  ResultTally tally;
  std::vector<double> send_lag_ms;  ///< per batch: send start - due
  uint64_t send_attempts = 0;
  uint64_t send_would_block = 0;
  uint64_t result_frames = 0;
};

/// Runs the open-loop client to completion: every tuple and watermark,
/// kFinish, then the subscriber stream through its summary and close.
void DriveClient(const PreparedInput& input, size_t n, uint64_t rate,
                 Socket* sender, Socket* subscriber,
                 oij::WireDecoder* sub_decoder, ReleaseSchedule* schedule,
                 std::vector<Span>* spans, ClientReport* report) {
  const oij::Timestamp fol = input.query.window.fol;
  const double ns_per_tuple = 1e9 / static_cast<double>(rate);
  std::string out;
  size_t out_off = 0;
  size_t next = 0;
  size_t block = 0;
  bool finish_queued = false;
  bool sender_open = true;
  bool got_summary = false;
  oij::WireDecoder sender_decoder;
  oij::WireFrame frame;
  char buf[1 << 16];
  const int64_t t0 = oij::MonotonicNowNs();
  const int64_t deadline = t0 + kRepDeadlineNs;
  auto due_of = [&](size_t tuple) {
    return t0 + static_cast<int64_t>(ns_per_tuple * static_cast<double>(tuple));
  };
  report->first_send_ns = t0;

  auto read_stream = [&](int fd, oij::WireDecoder* decoder, bool results) {
    int64_t got;
    {
      ScopedSpan span(spans, "client.recv", kClientThread);
      got = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    }
    if (got < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    if (got == 0) return false;  // orderly close
    const int64_t received_ns = oij::MonotonicNowNs();
    ScopedSpan span(spans, "client.decode", kClientThread);
    decoder->Feed(buf, static_cast<size_t>(got));
    while (true) {
      const oij::WireDecoder::Result r = decoder->Next(&frame);
      if (r == oij::WireDecoder::Result::kNeedMore) break;
      if (r == oij::WireDecoder::Result::kCorrupt) {
        report->error = "corrupt stream: " + decoder->error().ToString();
        return false;
      }
      if (frame.type == oij::FrameType::kResult && results) {
        ++report->result_frames;
        report->tally.Add(frame.result, fol, received_ns);
      } else if (frame.type == oij::FrameType::kSummary && results) {
        got_summary = true;
        report->summary_ns = received_ns;
      } else if (frame.type == oij::FrameType::kError) {
        report->error = "server error: " + frame.text;
      }
    }
    return true;
  };

  while (true) {
    const int64_t now = oij::MonotonicNowNs();
    if (now > deadline) {
      report->error = "repetition exceeded its deadline";
      return;
    }
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
      if (next < n) {
        const size_t end = std::min(n, next + kBatchTuples);
        const int64_t due = due_of(end - 1);
        if (now >= due) {
          report->send_lag_ms.push_back(static_cast<double>(now - due) / 1e6);
          ScopedSpan span(spans, "client.encode", kClientThread);
          for (size_t k = next; k < end; ++k) {
            oij::AppendTupleFrame(&out, input.events[k]);
            if ((k + 1) % kWatermarkEvery == 0) {
              const oij::Timestamp wm = input.block_watermarks[block++];
              oij::AppendWatermarkFrame(&out, wm);
              schedule->Add(wm, due_of(k));
            }
          }
          next = end;
        }
      } else if (!finish_queued) {
        oij::AppendControlFrame(&out, oij::FrameType::kFinish);
        finish_queued = true;
        schedule->SetFinishDue(due_of(n - 1));
        report->finish_sent_ns = now;
      }
    }
    bool blocked = false;
    if (out_off < out.size()) {
      ScopedSpan span(spans, "client.send", kClientThread);
      ++report->send_attempts;
      const ssize_t sent = ::send(sender->fd(), out.data() + out_off,
                                  out.size() - out_off,
                                  MSG_DONTWAIT | MSG_NOSIGNAL);
      if (sent > 0) {
        out_off += static_cast<size_t>(sent);
      } else if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        ++report->send_would_block;
        blocked = true;
      } else {
        report->error = "send failed";
        return;
      }
    }

    // Wait for the subscriber stream, a writable sender, or the next
    // batch's due time, whichever comes first.
    pollfd fds[2] = {{subscriber->fd(), POLLIN, 0},
                     {sender->fd(), static_cast<short>(POLLIN), 0}};
    if (blocked) fds[1].events |= POLLOUT;
    if (!sender_open) fds[1].fd = -1;
    int64_t wait_ns = 100'000'000;
    if (out_off < out.size()) {
      wait_ns = blocked ? 1'000'000 : 0;
    } else if (next < n) {
      wait_ns = std::max<int64_t>(
          0, due_of(std::min(n, next + kBatchTuples) - 1) -
                 oij::MonotonicNowNs());
    } else if (!finish_queued) {
      wait_ns = 0;
    }
    int ready;
    {
      ScopedSpan span(spans, "client.wait", kClientThread);
      const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                        static_cast<long>(wait_ns % 1'000'000'000)};
      ready = ::ppoll(fds, 2, &ts, nullptr);
    }
    if (ready < 0 && errno != EINTR) {
      report->error = "poll failed";
      return;
    }
    if (ready <= 0) continue;
    if (fds[1].revents & (POLLIN | POLLHUP | POLLERR)) {
      // The finisher's own summary, or an error; EOF once finished.
      if (!read_stream(sender->fd(), &sender_decoder, false)) {
        sender_open = false;
        if (!finish_queued || out_off < out.size()) {
          if (report->error.empty()) report->error = "sender connection closed";
          return;
        }
      }
    }
    if (fds[0].revents & (POLLIN | POLLHUP | POLLERR)) {
      if (!read_stream(subscriber->fd(), sub_decoder, true)) {
        if (!got_summary && report->error.empty()) {
          report->error = "connection closed before the run summary";
        }
        return;
      }
    }
    if (!report->error.empty()) return;
  }
}

}  // namespace

RepResult RunWireRep(const PreparedInput& input, const WorkloadPlan& plan,
                     const RepOptions& opt) {
  RepResult rep;
  const size_t n = opt.tuples == 0
                       ? input.events.size()
                       : std::min(opt.tuples, input.events.size());
  SpanLog spans;
  std::vector<Span>* client = opt.trace ? spans.Register() : nullptr;
  ReleaseSchedule schedule;
  ClientReport report;
  report.tally.samples.reserve(n / 4);

  PeakRss peak;
  Deployment d;
  Socket sender;
  Socket subscriber;
  oij::WireDecoder sub_decoder;
  const int64_t setup_start = oij::MonotonicNowNs();
  {
    ScopedSpan span(client, "client.setup", kClientThread);
    rep.error = d.Start(input, plan, opt.scratch_dir);
    if (rep.error.empty()) {
      rep.error = ConnectClients(d.data_port(), &sender, &subscriber,
                                 &sub_decoder);
    }
  }
  rep.setup_s = static_cast<double>(oij::MonotonicNowNs() - setup_start) / 1e9;
  if (!rep.error.empty()) return rep;

  AdminSamples admin;
  std::unique_ptr<Sampler> sampler;
  if (opt.trace) {
    const uint16_t server_admin = d.server()->admin_port();
    const uint16_t router_admin = d.router() ? d.router()->admin_port() : 0;
    sampler = std::make_unique<Sampler>(100, [&admin, server_admin,
                                              router_admin] {
      ScrapeOnce(server_admin, router_admin, &admin);
    });
  }
  const int64_t server_cpu0 = TaskCpuNs(d.server_tid());
  const int64_t router_cpu0 = d.router() ? TaskCpuNs(d.router_tid()) : 0;
  {
    ScopedSpan span(client, "client.run", kClientThread);
    DriveClient(input, n, plan.rate, &sender, &subscriber, &sub_decoder,
                &schedule, client, &report);
  }
  const int64_t server_cpu = TaskCpuNs(d.server_tid()) - server_cpu0;
  const int64_t router_cpu =
      d.router() ? TaskCpuNs(d.router_tid()) - router_cpu0 : 0;
  if (sampler) sampler->Stop();
  rep.error = report.error;
  rep.tuples = n;
  rep.ingest_s =
      static_cast<double>(report.summary_ns - report.first_send_ns) / 1e9;

  // Behind a router the client's summary can arrive before the server
  // publishes its final run; wait for it before reading the counters.
  const int64_t wait_deadline = oij::MonotonicNowNs() + kSetupDeadlineNs;
  while (!d.server()->run_finished() && oij::MonotonicNowNs() < wait_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const oij::RunResult run = d.server()->FinalRun();
  const oij::ServerCounters counters = d.server()->CountersSnapshot();
  const oij::RouterCounters rcounters =
      d.router() ? d.router()->CountersSnapshot() : oij::RouterCounters{};
  d.Stop();
  rep.peak_rss_mb = peak.PeakMb();

  rep.diff = CompareDigests(
      opt.expected != nullptr ? *opt.expected : input.expected,
      report.tally.digest);
  rep.delays_ms = DelaysMs(report.tally.samples, schedule);
  rep.ok = rep.error.empty() && report.summary_ns > 0 &&
           run.stats.health.ok();
  if (rep.error.empty() && !rep.ok) {
    rep.error = "server run unhealthy: " + run.stats.health.ToString();
  }

  if (opt.trace) {
    LayerMetrics& m = rep.layers;
    const std::vector<Span> all = spans.All();
    rep.self_times = SelfTimes(all);
    const auto& times = rep.self_times;
    auto layer = [&times](const char* name) {
      const auto it = times.find(name);
      return it == times.end() ? LayerTime{} : it->second;
    };
    const double wall_ns = rep.ingest_s * 1e9;
    m["trace.span_coverage"] = ChildCoverage(all, kClientThread, "client.run");
    m["driver.finish_ms"] =
        static_cast<double>(report.summary_ns - report.finish_sent_ns) / 1e6;
    std::vector<double> lag = report.send_lag_ms;
    m["client.send_lag_p99_ms"] = PercentileOf(&lag, 0.99).value;
    m["client.send_blocked_frac"] =
        report.send_attempts == 0
            ? 0.0
            : static_cast<double>(report.send_would_block) /
                  static_cast<double>(report.send_attempts);
    m["net.encode_ns"] = static_cast<double>(layer("client.encode").self_ns) /
                         static_cast<double>(n);
    m["net.decode_ns"] =
        report.result_frames == 0
            ? 0.0
            : static_cast<double>(layer("client.decode").self_ns) /
                  static_cast<double>(report.result_frames);
    m["server.loop_cpu_frac"] =
        wall_ns > 0 ? static_cast<double>(server_cpu) / wall_ns : 0.0;
    std::vector<double> ingest_delay;
    std::vector<double> egress_delay;
    for (const DelaySample& s : report.tally.samples) {
      const int64_t emit_ns = s.emit_us * 1000;
      ingest_delay.push_back(
          static_cast<double>(emit_ns - schedule.ReleaseDueNs(s.window_end)) /
          1e6);
      egress_delay.push_back(static_cast<double>(s.delivered_ns - emit_ns) /
                             1e6);
    }
    m["server.ingest_delay_p50_ms"] = PercentileOf(&ingest_delay, 0.5).value;
    m["egress.delay_p50_ms"] = PercentileOf(&egress_delay, 0.5).value;
    m["egress.bytes_per_result"] =
        counters.results_streamed == 0
            ? 0.0
            : static_cast<double>(counters.bytes_out) /
                  static_cast<double>(counters.results_streamed);
    m["server.subscribers_evicted"] =
        static_cast<double>(counters.subscribers_evicted);
    const oij::WalStats& wal = run.stats.wal;
    m["wal.bytes_per_tuple"] =
        run.stats.input_tuples == 0
            ? 0.0
            : static_cast<double>(wal.appended_bytes) /
                  static_cast<double>(run.stats.input_tuples);
    m["wal.fsyncs_per_s"] =
        rep.ingest_s > 0 ? static_cast<double>(wal.fsyncs) / rep.ingest_s : 0.0;
    AddEngineLayers(run.stats, rep.ingest_s, plan.joiners,
                    run.stats.input_tuples, &m);
    {
      std::lock_guard<std::mutex> lock(admin.mu);
      oij::EngineOptions defaults;
      AddProgressLayers(admin.progress, defaults.queue_capacity,
                        defaults.batch_size, &m);
      m["wal.unsynced_records"] = admin.max_unsynced;
      m["router.backend_unhealthy"] =
          admin.router_samples == 0
              ? 0.0
              : static_cast<double>(admin.router_unhealthy) /
                    static_cast<double>(admin.router_samples);
    }
    if (d.router_tid() >= 0) {
      m["router.loop_cpu_frac"] =
          wall_ns > 0 ? static_cast<double>(router_cpu) / wall_ns : 0.0;
    }
    m["router.tuples_dropped"] = static_cast<double>(rcounters.tuples_dropped);
    if (!opt.span_file.empty()) spans.WriteTsv(opt.span_file);
  }
  return rep;
}

}  // namespace perfbench

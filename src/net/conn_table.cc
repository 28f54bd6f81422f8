#include "net/conn_table.h"

#include <utility>
#include <vector>

#include "common/counter.h"
#include "net/timer_queue.h"

namespace oij {

ConnTable::ConnTable(EventLoop* loop, size_t max_subscriber_backlog_bytes,
                     Handlers handlers)
    : loop_(loop),
      max_subscriber_backlog_bytes_(max_subscriber_backlog_bytes),
      handlers_(std::move(handlers)) {}

Status ConnTable::Listen(const std::string& bind_address, uint16_t data_port,
                         uint16_t admin_port) {
  Status s = data_listener_.Listen(bind_address, data_port);
  if (!s.ok()) return s;
  s = admin_listener_.Listen(bind_address, admin_port);
  if (!s.ok()) {
    data_listener_.Close();
    return s;
  }
  loop_->Add(data_listener_.fd(), kLoopReadable,
             [this](uint32_t) { Accept(&data_listener_, false); });
  loop_->Add(admin_listener_.fd(), kLoopReadable,
             [this](uint32_t) { Accept(&admin_listener_, true); });
  return Status::OK();
}

void ConnTable::Shutdown() {
  for (TcpListener* listener : {&data_listener_, &admin_listener_}) {
    loop_->Remove(listener->fd());
    listener->Close();
  }
  CloseWhere([](const Conn&) { return true; });
}

std::vector<int> ConnTable::FdsWhere(
    const std::function<bool(const Conn&)>& pred) const {
  std::vector<int> fds;
  for (const auto& [fd, conn] : conns_) {
    if (pred(*conn)) fds.push_back(fd);
  }
  return fds;
}

size_t ConnTable::CloseWhere(const std::function<bool(const Conn&)>& pred) {
  const std::vector<int> fds = FdsWhere(pred);
  for (int fd : fds) Close(fd);
  return fds.size();
}

Conn* ConnTable::Find(int fd) {
  auto it = conns_.find(fd);
  return it == conns_.end() ? nullptr : it->second.get();
}

void ConnTable::Accept(TcpListener* listener, bool is_admin) {
  listener->AcceptAll([this, is_admin](int fd) {
    if (!is_admin) {
      SingleWriterAdd(connections_accepted_, 1);
      SingleWriterAdd(connections_open_, 1);
    }
    auto conn = std::make_unique<Conn>(fd);
    conn->is_admin = is_admin;
    conn->last_frame_ms = TimerQueue::NowMs();
    conns_.emplace(fd, std::move(conn));
    loop_->Add(fd, kLoopReadable,
               [this, fd](uint32_t ready) { OnEvent(fd, ready); });
  });
}

void ConnTable::OnEvent(int fd, uint32_t ready) {
  Conn* conn = Find(fd);
  if (conn == nullptr) return;
  if (ready & kLoopError) {
    Close(fd);
    return;
  }
  if (ready & kLoopWritable) {
    Flush(conn);
    if (Find(fd) == nullptr) return;
  }
  if (ready & kLoopReadable) {
    size_t got = 0;
    const TcpConnection::IoResult r = conn->tcp.ReadReady(&got);
    if (!conn->is_admin) SingleWriterAdd(bytes_in_, got);
    if (r == TcpConnection::IoResult::kError) {
      Close(fd);
      return;
    }
    // Process whatever arrived even on EOF: the peer may have sent its
    // final frames and closed its write end in one burst.
    if (conn->is_admin) {
      ReadAdmin(conn);
    } else {
      ReadData(conn);
    }
    if (Find(fd) == nullptr) return;  // processing closed it
    if (r == TcpConnection::IoResult::kEof) {
      if (conn->tcp.wants_write()) {
        // Half-close: let queued output (e.g. a summary) drain first.
        conn->tcp.set_close_after_flush(true);
        Flush(conn);
      } else {
        Close(fd);
      }
    }
  }
}

void ConnTable::ReadData(Conn* conn) {
  if (conn->tcp.close_after_flush()) {
    conn->tcp.input().clear();  // already tearing down; drop new bytes
    return;
  }
  std::string& in = conn->tcp.input();
  conn->decoder.Feed(in);
  in.clear();
  WireFrame frame;
  bool stamped = false;
  while (true) {
    const WireDecoder::Result r = conn->decoder.Next(&frame);
    if (r == WireDecoder::Result::kNeedMore) {
      if (stamped && handlers_.on_frames_done) handlers_.on_frames_done();
      return;
    }
    if (r == WireDecoder::Result::kCorrupt) {
      SendError(conn, conn->decoder.error().ToString());
      return;
    }
    SingleWriterAdd(frames_in_, 1);
    if (!stamped) {
      conn->last_frame_ms = TimerQueue::NowMs();
      stamped = true;
    }
    // The handshake is optional, but a kHello must lead, and one from
    // another protocol era gets a clean kError: the frame itself decoded
    // fine, so the refusal never poisons the decoder.
    const bool first = !conn->saw_frame;
    conn->saw_frame = true;
    if (frame.type == FrameType::kHello &&
        (!first || !frame.hello.Compatible())) {
      SingleWriterAdd(hellos_rejected_, 1);
      SendError(conn,
                !first ? std::string("hello must be the first frame")
                       : "incompatible wire protocol: peer magic=" +
                             std::to_string(frame.hello.magic) +
                             " version=" +
                             std::to_string(frame.hello.version) +
                             ", want magic=" + std::to_string(kWireMagic) +
                             " version=" + std::to_string(kWireVersion));
      return;
    }
    if (!handlers_.on_frame(conn, frame)) return;
  }
}

void ConnTable::ReadAdmin(Conn* conn) {
  if (conn->tcp.close_after_flush()) {
    conn->tcp.input().clear();
    return;
  }
  HttpRequest request;
  size_t consumed = 0;
  std::string response;
  switch (ParseHttpRequest(conn->tcp.input(), &request, &consumed)) {
    case HttpParseResult::kNeedMore:
      return;
    case HttpParseResult::kBad:
      response = BuildHttpResponse(400, kTextContentType,
                                   "malformed request\n");
      break;
    case HttpParseResult::kOk:
      SingleWriterAdd(admin_requests_, 1);
      response = handlers_.on_admin(request);
      break;
  }
  // One request per connection (HTTP/1.0, Connection: close).
  conn->tcp.input().clear();
  conn->tcp.QueueWrite(response);
  conn->tcp.set_close_after_flush(true);
  Flush(conn);
}

void ConnTable::UpdateInterest(Conn* conn) {
  uint32_t interest = 0;
  if (!conn->tcp.close_after_flush()) interest |= kLoopReadable;
  if (conn->tcp.wants_write()) interest |= kLoopWritable;
  loop_->SetInterest(conn->tcp.fd(), interest);
}

void ConnTable::Flush(Conn* conn) {
  const size_t before = conn->tcp.pending_write_bytes();
  if (conn->tcp.FlushWrites() == TcpConnection::IoResult::kError) {
    Close(conn->tcp.fd());
    return;
  }
  const size_t after = conn->tcp.pending_write_bytes();
  if (!conn->is_admin) SingleWriterAdd(bytes_out_, before - after);
  if (conn->tcp.close_after_flush() && !conn->tcp.wants_write()) {
    Close(conn->tcp.fd());
    return;
  }
  UpdateInterest(conn);
}

void ConnTable::SendError(Conn* conn, const std::string& message) {
  SingleWriterAdd(frames_rejected_, 1);
  std::string out;
  AppendTextFrame(&out, FrameType::kError, message);
  conn->tcp.QueueWrite(out);
  conn->tcp.set_close_after_flush(true);
  Flush(conn);
}

void ConnTable::Close(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if (it->second->subscriber) {
    SingleWriterSub(subscribers_, 1);
  }
  if (!it->second->is_admin) {
    SingleWriterSub(connections_open_, 1);
  }
  loop_->Remove(fd);
  conns_.erase(it);  // TcpConnection's destructor closes the fd
}

void ConnTable::Subscribe(Conn* conn) {
  if (conn->subscriber) return;
  conn->subscriber = true;
  SingleWriterAdd(subscribers_, 1);
}

bool ConnTable::FanOut(std::string_view frames) {
  bool delivered = false;
  for (int fd : FdsWhere([](const Conn& conn) {
         return conn.subscriber && !conn.tcp.close_after_flush();
       })) {
    Conn* conn = Find(fd);
    if (conn == nullptr) continue;
    conn->tcp.QueueWrite(frames);
    Flush(conn);
    // A subscriber that has stopped reading (stalled or silently gone)
    // accumulates backlog; past the bound it is evicted so the rest keep
    // being served. An outright write error was already closed above.
    conn = Find(fd);
    if (conn != nullptr &&
        conn->tcp.pending_write_bytes() > max_subscriber_backlog_bytes_) {
      SingleWriterAdd(subscribers_evicted_, 1);
      Close(fd);
      continue;
    }
    delivered = true;
  }
  return delivered;
}

void ConnTable::SendFinal(std::string_view frame) {
  for (int fd : FdsWhere([](const Conn& conn) {
         return conn.subscriber || conn.finisher;
       })) {
    Conn* conn = Find(fd);
    if (conn == nullptr) continue;
    conn->tcp.QueueWrite(frame);
    conn->tcp.set_close_after_flush(true);
    Flush(conn);
  }
}

bool ConnTable::FlushAll() {
  bool pending = false;
  for (int fd : FdsWhere(
           [](const Conn& conn) { return conn.tcp.wants_write(); })) {
    Conn* conn = Find(fd);
    if (conn == nullptr) continue;
    Flush(conn);
    conn = Find(fd);
    if (conn != nullptr && conn->tcp.wants_write()) pending = true;
  }
  return pending;
}

ConnCounters ConnTable::Counters() const {
  ConnCounters c;
  c.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  c.connections_open = connections_open_.load(std::memory_order_relaxed);
  c.admin_requests = admin_requests_.load(std::memory_order_relaxed);
  c.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  c.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  c.frames_in = frames_in_.load(std::memory_order_relaxed);
  c.frames_rejected = frames_rejected_.load(std::memory_order_relaxed);
  c.hellos_rejected = hellos_rejected_.load(std::memory_order_relaxed);
  c.subscribers = subscribers_.load(std::memory_order_relaxed);
  c.subscribers_evicted =
      subscribers_evicted_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace oij

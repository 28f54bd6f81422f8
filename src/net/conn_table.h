#ifndef OIJ_NET_CONN_TABLE_H_
#define OIJ_NET_CONN_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/http.h"
#include "net/wire_codec.h"

namespace oij {

/// One accepted client connection of a serving process.
struct Conn {
  explicit Conn(int fd) : tcp(fd) {}
  TcpConnection tcp;
  WireDecoder decoder;
  bool is_admin = false;
  bool subscriber = false;
  bool finisher = false;    ///< gets the final summary like a subscriber
  bool saw_frame = false;   ///< a kHello is legal only as the first frame
  bool wants_acks = false;  ///< the peer's kHello asked for watermark acks
  uint64_t tuples_received = 0;
  /// Last read that completed a frame, or accept time (stall sweep).
  int64_t last_frame_ms = 0;
};

/// Point-in-time copy of a ConnTable's counters. The connection and byte
/// counts cover data connections only: a scrape of the admin port does
/// not move the data-plane byte counters it reports.
struct ConnCounters {
  uint64_t connections_accepted = 0;
  uint64_t connections_open = 0;
  uint64_t admin_requests = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t frames_in = 0;
  uint64_t frames_rejected = 0;  ///< kError frames sent
  /// kHello frames refused (bad magic/version, or not the first frame).
  uint64_t hellos_rejected = 0;
  uint64_t subscribers = 0;
  /// Subscribers dropped for a write backlog over the bound (a stalled
  /// peer must not wedge egress for everyone else).
  uint64_t subscribers_evicted = 0;
};

/// The client side of a serving process, shared by oij_server and
/// oij_router: the data and admin listeners and every connection they
/// accept, all driven by the owner's EventLoop on its thread.
///
/// Data connections decode wire frames and hand each to `on_frame`
/// (refusing a misplaced or incompatible kHello first); admin connections
/// parse one HTTP/1.0 request (400 when malformed), send `on_admin`'s
/// response and close once it is flushed. The owner only gives meaning
/// to frames and requests. Every method runs on the loop thread, except
/// Counters(), which any thread may call.
class ConnTable {
 public:
  struct Handlers {
    /// One decoded frame. Must return false when the connection was
    /// closed or is closing (the table stops decoding this read and does
    /// not touch `conn` again); true lets it decode the next frame.
    std::function<bool(Conn*, const WireFrame&)> on_frame;
    /// One parsed admin request; returns a complete HTTP response.
    std::function<std::string(const HttpRequest&)> on_admin;
    /// Called after a read whose frames were all handled (optional).
    std::function<void()> on_frames_done = nullptr;
  };

  /// Subscribers whose unflushed backlog exceeds
  /// `max_subscriber_backlog_bytes` after a fan-out are evicted.
  ConnTable(EventLoop* loop, size_t max_subscriber_backlog_bytes,
            Handlers handlers);

  ConnTable(const ConnTable&) = delete;
  ConnTable& operator=(const ConnTable&) = delete;

  /// Binds both listeners (port 0 picks an ephemeral port) and
  /// registers them with the loop. On failure nothing stays bound.
  Status Listen(const std::string& bind_address, uint16_t data_port,
                uint16_t admin_port);

  uint16_t data_port() const { return data_listener_.port(); }
  uint16_t admin_port() const { return admin_listener_.port(); }

  /// Closes both listeners and every connection.
  void Shutdown();

  /// The live connection on `fd`, or null once it was closed.
  Conn* Find(int fd);

  /// Writes what `conn` has queued; closes it on a write error, or once
  /// a close-after-flush connection has drained.
  void Flush(Conn* conn);

  /// Sends a kError frame carrying `message`, then closes.
  void SendError(Conn* conn, const std::string& message);

  void Close(int fd);

  /// Closes every connection `pred` selects; returns how many.
  size_t CloseWhere(const std::function<bool(const Conn&)>& pred);

  /// Marks `conn` as a result subscriber.
  void Subscribe(Conn* conn);

  /// Queues `frames` to every subscriber that is not closing, evicting
  /// any whose backlog then exceeds the bound. Returns whether at least
  /// one subscriber kept the frames.
  bool FanOut(std::string_view frames);

  /// Sends `frame` to every subscriber and finisher, and closes each of
  /// them once it is flushed.
  void SendFinal(std::string_view frame);

  /// Flushes every connection with queued output; returns whether any
  /// still has bytes pending.
  bool FlushAll();

  ConnCounters Counters() const;

 private:
  /// The fds `pred` selects, collected first because Flush and Close
  /// erase from the map.
  std::vector<int> FdsWhere(const std::function<bool(const Conn&)>& pred) const;
  void Accept(TcpListener* listener, bool is_admin);
  void OnEvent(int fd, uint32_t ready);
  void ReadData(Conn* conn);
  void ReadAdmin(Conn* conn);
  void UpdateInterest(Conn* conn);

  EventLoop* loop_;
  size_t max_subscriber_backlog_bytes_;
  Handlers handlers_;
  TcpListener data_listener_;
  TcpListener admin_listener_;
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;

  // Loop thread writes (SingleWriterAdd); any thread reads.
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_open_{0};
  std::atomic<uint64_t> admin_requests_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> frames_in_{0};
  std::atomic<uint64_t> frames_rejected_{0};
  std::atomic<uint64_t> hellos_rejected_{0};
  std::atomic<uint64_t> subscribers_{0};
  std::atomic<uint64_t> subscribers_evicted_{0};
};

}  // namespace oij

#endif  // OIJ_NET_CONN_TABLE_H_

#include "service/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/strings.h"
#include "net/frame.h"
#include "net/listen.h"

namespace chainsplit {
namespace {

bool SendAll(int fd, const std::string& data, NetCounters* counters) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
#ifdef MSG_NOSIGNAL
                       MSG_NOSIGNAL
#else
                       0
#endif
    );
    if (n <= 0) return false;
    counters->bytes_out.fetch_add(n, std::memory_order_relaxed);
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Adapts a Session to the epoll engine's per-connection handler.
class SessionHandler : public LineHandler {
 public:
  SessionHandler(QueryService* service, const SessionOptions& options)
      : session_(service, options) {}

  std::string Greeting() override { return "% chainsplit ready\n.\n"; }

  bool HandleLine(const std::string& line, std::string* out) override {
    return session_.HandleLine(line, out);
  }

 private:
  Session session_;
};

}  // namespace

TcpServer::TcpServer(QueryService* service, ServerOptions options)
    : service_(service), options_(std::move(options)) {}

TcpServer::~TcpServer() { Stop(); }

StatusOr<int> TcpServer::Start(int port) {
  CS_ASSIGN_OR_RETURN(
      int listen_fd,
      OpenListenSocket(options_.listen_addr, port, options_.listen_backlog));
  StatusOr<int> bound = BoundPort(listen_fd);
  if (!bound.ok()) {
    ::close(listen_fd);
    return bound.status();
  }
  port_ = *bound;
  StatusOr<int> started = options_.mode == ServerOptions::Mode::kEpoll
                              ? StartEpoll(listen_fd)
                              : StartThreaded(listen_fd);
  if (started.ok()) RegisterMetrics();
  return started;
}

void TcpServer::RegisterMetrics() {
  MetricsRegistry* registry = service_->metrics();
  const std::string port = StrCat(port_);
  auto add = [&](const char* name, const char* help, MetricType type,
                 const std::atomic<int64_t>* value, MetricLabels labels) {
    labels.emplace_back("port", port);
    metric_callbacks_.push_back(
        registry->AddCallback(name, help, type, std::move(labels), [value] {
          return static_cast<double>(
              value->load(std::memory_order_relaxed));
        }));
  };
  add("csdd_net_accepted_total", "Connections accepted",
      MetricType::kCounter, &counters_.accepted, {});
  add("csdd_net_active_connections", "Currently open connections",
      MetricType::kGauge, &counters_.active_connections, {});
  add("csdd_net_dispatched_total",
      "Request lines handed to the dispatcher pool", MetricType::kCounter,
      &counters_.dispatched, {});
  add("csdd_net_responses_total", "Completed responses written back",
      MetricType::kCounter, &counters_.responses, {});
  add("csdd_net_bytes_total", "Bytes over the wire by direction",
      MetricType::kCounter, &counters_.bytes_in, {{"direction", "in"}});
  add("csdd_net_bytes_total", "Bytes over the wire by direction",
      MetricType::kCounter, &counters_.bytes_out, {{"direction", "out"}});
  add("csdd_net_queue_depth", "Requests in the bounded queue right now",
      MetricType::kGauge, &counters_.queue_depth, {});
  add("csdd_net_queue_high_watermark", "Deepest the queue has ever been",
      MetricType::kGauge, &counters_.queue_high_watermark, {});
  // Admission-control rejections join the service's per-outcome request
  // family: summing csdd_requests_total over every outcome (including
  // these) equals the request lines the front end accepted off the
  // wire, so service- and net-level totals reconcile.
  const char* outcome_help =
      "Service requests by outcome (the TCP server adds "
      "rejected_overload/rejected_oversize series to this family)";
  add("csdd_requests_total", outcome_help, MetricType::kCounter,
      &counters_.rejected_overload, {{"outcome", "rejected_overload"}});
  add("csdd_requests_total", outcome_help, MetricType::kCounter,
      &counters_.rejected_oversize, {{"outcome", "rejected_oversize"}});
}

void TcpServer::UnregisterMetrics() {
  for (uint64_t id : metric_callbacks_) {
    service_->metrics()->RemoveCallback(id);
  }
  metric_callbacks_.clear();
}

StatusOr<int> TcpServer::StartEpoll(int listen_fd) {
  SessionOptions session_options;
  session_options.tcp_mode = true;
  session_options.cancel = &shutdown_;
  session_options.net = &counters_;
  EngineOptions engine_options;
  engine_options.queue_capacity = options_.queue_capacity;
  engine_options.workers = options_.workers;
  engine_options.max_line_bytes = options_.max_line_bytes;
  QueryService* service = service_;
  engine_ = std::make_unique<EpollEngine>(
      [service, session_options] {
        return std::make_unique<SessionHandler>(service, session_options);
      },
      engine_options, &counters_);
  Status status = engine_->Start(listen_fd);
  if (!status.ok()) {
    engine_.reset();  // the engine closed listen_fd on the way out
    return status;
  }
  return port_;
}

StatusOr<int> TcpServer::StartThreaded(int listen_fd) {
  listen_fd_ = listen_fd;
  counters_.mode = "threaded";
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return port_;
}

void TcpServer::AcceptLoop() {
  while (true) {
    ReapFinished();
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (shutdown_.cancelled()) return;
      if (errno == EINTR) continue;
      return;  // listen socket closed
    }
    SetNoDelay(fd);  // best effort: without it replies are only slower
    counters_.accepted.fetch_add(1, std::memory_order_relaxed);
    counters_.active_connections.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      ::close(fd);
      counters_.active_connections.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
    connections_.push_back(fd);
    // Reserve the node first so the thread can carry its own stable
    // iterator (list nodes never move).
    threads_.emplace_back();
    auto self = std::prev(threads_.end());
    *self = std::thread([this, fd, self] { ServeConnection(fd, self); });
  }
}

void TcpServer::ReapFinished() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    done.swap(reaped_);
  }
  for (std::thread& t : done) {
    if (t.joinable()) t.join();
  }
}

void TcpServer::ServeConnection(int fd,
                                std::list<std::thread>::iterator self) {
  SessionOptions session_options;
  session_options.tcp_mode = true;
  session_options.cancel = &shutdown_;
  session_options.net = &counters_;
  Session session(service_, session_options);

  std::string banner = "% chainsplit ready\n.\n";
  if (SendAll(fd, banner, &counters_)) {
    // The same framer as the epoll engine: CRLF handling, pipelined
    // drain, and the max-line guard behave byte-identically.
    LineFramer framer(options_.max_line_bytes);
    char chunk[4096];
    std::string line;
    bool open = true;
    while (open) {
      LineFramer::Result result = LineFramer::Result::kNeedMore;
      while (open &&
             (result = framer.Next(&line)) == LineFramer::Result::kLine) {
        std::string out;
        open = session.HandleLine(line, &out);
        counters_.dispatched.fetch_add(1, std::memory_order_relaxed);
        counters_.responses.fetch_add(1, std::memory_order_relaxed);
        if (!out.empty() && !SendAll(fd, out, &counters_)) open = false;
      }
      if (!open) break;
      if (result == LineFramer::Result::kOversize) {
        // Reject the unframeable stream in-band, then close.
        counters_.rejected_oversize.fetch_add(1, std::memory_order_relaxed);
        counters_.responses.fetch_add(1, std::memory_order_relaxed);
        SendAll(fd, OversizeFrame(framer.max_line_bytes()), &counters_);
        break;
      }
      ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;  // client closed (or Stop() shut the socket down)
      counters_.bytes_in.fetch_add(n, std::memory_order_relaxed);
      framer.Append(chunk, static_cast<size_t>(n));
    }
  }
  // Single exit path — a banner-send failure must run the same cleanup
  // or the descriptor leaks. Close under the lock: an fd still listed
  // in connections_ is always open, so Stop() can never shut down a
  // recycled descriptor.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find(connections_.begin(), connections_.end(), fd);
  if (it != connections_.end()) {
    connections_.erase(it);
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
    counters_.active_connections.fetch_sub(1, std::memory_order_relaxed);
  }
  // Park this thread's own handle for the accept loop to join. When
  // Stop() already took ownership (stopped_), the handle was spliced
  // out of threads_ and `self` is no longer ours to touch.
  if (!stopped_) {
    reaped_.push_back(std::move(*self));
    threads_.erase(self);
  }
}

int64_t TcpServer::tracked_connection_threads() {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(threads_.size() + reaped_.size());
}

void TcpServer::Stop() {
  shutdown_.Cancel();
  // Drop the registry callbacks first: after Stop nothing may read
  // counters_ through the service's registry. Idempotent (the id list
  // is cleared).
  UnregisterMetrics();
  if (engine_ != nullptr) {
    // Workers drain their in-flight (now cancelled) requests, then the
    // loop exits and every connection fd is reclaimed.
    engine_->Stop();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::list<std::thread> threads;
  std::vector<std::thread> reaped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Wake up every connection thread; each closes its own fd on exit.
    // Taking the whole list transfers handle ownership to Stop — the
    // threads see stopped_ and skip their self-reap.
    for (int fd : connections_) ::shutdown(fd, SHUT_RDWR);
    threads.swap(threads_);
    reaped.swap(reaped_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  for (std::thread& t : reaped) {
    if (t.joinable()) t.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (int fd : connections_) ::close(fd);
  connections_.clear();
  listen_fd_ = -1;
}

}  // namespace chainsplit

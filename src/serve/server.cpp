#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace llamp::serve {
namespace {

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

Server::Server(Options opts, std::vector<Route> routes)
    : opts_(std::move(opts)), routes_(std::move(routes)) {}

Server::~Server() {
  request_shutdown();
  join();
  close_fd(listen_fd_);
  close_fd(wake_r_);
  close_fd(wake_w_);
}

void Server::start() {
  if (opts_.max_inflight < 0) {
    throw Error("serve: max_inflight must be >= 0");
  }
  int pipefd[2];
  if (::pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw Error("serve: cannot create wakeup pipe");
  }
  wake_r_ = pipefd[0];
  wake_w_ = pipefd[1];

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) throw Error("serve: cannot create listen socket");
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    close_fd(listen_fd_);
    throw UsageError("serve: bad bind address '" + opts_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    const int err = errno;
    close_fd(listen_fd_);
    throw Error(strformat("serve: cannot bind %s:%u (errno %d)",
                          opts_.host.c_str(), unsigned{opts_.port}, err));
  }
  if (::listen(listen_fd_, 128) != 0) {
    close_fd(listen_fd_);
    throw Error("serve: listen failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    bound_port_ = ntohs(bound.sin_port);
  }

  // llamp-lint: allow(conc-thread): the daemon's one request executor, a
  // long-lived queue consumer rather than a parallel loop
  executor_thread_ = std::thread([this] { executor_loop(); });
  // llamp-lint: allow(conc-thread): the IO thread owns every socket for the
  // server's lifetime; it blocks in poll(), never in a loop body
  io_thread_ = std::thread([this] { io_loop(); });
}

void Server::request_shutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  if (wake_w_ >= 0) {
    const char c = 's';
    // Async-signal-safe: one write(2); the pipe is non-blocking, and a
    // full pipe is fine (the loop is already awake).
    (void)!::write(wake_w_, &c, 1);
  }
}

void Server::join() {
  if (io_thread_.joinable()) io_thread_.join();
  if (executor_thread_.joinable()) executor_thread_.join();
}

Server::Stats Server::stats() const {
  Stats s;
  s.connections = stat_connections_.load(std::memory_order_relaxed);
  s.requests = stat_requests_.load(std::memory_order_relaxed);
  s.responses = stat_responses_.load(std::memory_order_relaxed);
  s.rejected = stat_rejected_.load(std::memory_order_relaxed);
  s.protocol_errors = stat_protocol_errors_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// Executor thread: queued routes, strictly one at a time in dispatch order.
// ---------------------------------------------------------------------------

void Server::executor_loop() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return executor_stop_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stop requested and fully drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    Completion done;
    done.conn_id = job.conn_id;
    try {
      done.response = job.route->handler(job.request);
    } catch (const std::exception& e) {
      // Handlers map engine errors themselves; anything reaching here is
      // an internal failure, reported in-band without killing the daemon.
      done.response.status = 500;
      done.response.body = error_body("internal", e.what());
    }
    done.response.keep_alive = job.keep_alive;
    {
      const std::lock_guard<std::mutex> lock(completion_mutex_);
      completions_.push_back(std::move(done));
    }
    const char c = 'c';
    (void)!::write(wake_w_, &c, 1);
  }
}

// ---------------------------------------------------------------------------
// IO thread: the poll loop.
// ---------------------------------------------------------------------------

void Server::io_loop() {
  while (true) {
    // Drain entry: stop accepting, drop idle connections, finish the rest.
    if (!draining_ && shutdown_requested_.load(std::memory_order_acquire)) {
      draining_ = true;
      close_fd(listen_fd_);
      std::vector<std::uint64_t> idle;
      for (const auto& [id, conn] : conns_) {
        if (!conn.awaiting && conn.out.empty()) idle.push_back(id);
      }
      for (const std::uint64_t id : idle) close_conn(id);
    }
    if (draining_ && inflight_ == 0 && conns_.empty()) break;

    std::vector<pollfd> fds;
    std::vector<std::uint64_t> fd_conn;  // conns_ id per pollfd, 0 = none
    fds.push_back({wake_r_, POLLIN, 0});
    fd_conn.push_back(0);
    if (listen_fd_ >= 0) {
      fds.push_back({listen_fd_, POLLIN, 0});
      fd_conn.push_back(0);
    }
    for (const auto& [id, conn] : conns_) {
      short events = 0;
      const bool want_read =
          !conn.awaiting && !conn.stop_parsing && !draining_;
      if (want_read) events |= POLLIN;
      if (!conn.out.empty()) events |= POLLOUT;
      fds.push_back({conn.fd, events, 0});
      fd_conn.push_back(id);
    }

    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable poll failure: fall through to teardown
    }

    // Wakeup pipe: drain it; the actual work (drain entry, completions)
    // is picked up below / on the next iteration.
    if ((fds[0].revents & POLLIN) != 0) {
      char buf[64];
      while (::read(wake_r_, buf, sizeof buf) > 0) {
      }
    }
    if (listen_fd_ >= 0 && fds.size() > 1 && fd_conn[1] == 0 &&
        fds[1].fd == listen_fd_ && (fds[1].revents & POLLIN) != 0) {
      accept_new_connections();
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      const std::uint64_t id = fd_conn[i];
      if (id == 0) continue;
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      if ((fds[i].revents & (POLLERR | POLLNVAL)) != 0) {
        close_conn(id);
        continue;
      }
      if ((fds[i].revents & POLLOUT) != 0) {
        flush_writes(it->second);
        it = conns_.find(id);
        if (it == conns_.end()) continue;
      }
      if ((fds[i].revents & (POLLIN | POLLHUP)) != 0) {
        handle_readable(id, it->second);
      }
    }

    apply_completions();

    // Post-completion close pass: connections that finished their last
    // response (close_after_flush or drain) go away here.
    std::vector<std::uint64_t> done;
    for (const auto& [id, conn] : conns_) {
      if (!conn.out.empty() || conn.awaiting) continue;
      if (conn.close_after_flush || draining_) done.push_back(id);
    }
    for (const std::uint64_t id : done) close_conn(id);
  }

  // Teardown: the queue is empty (inflight_ == 0), so the executor can be
  // released; remaining sockets (poll-failure path) are dropped.
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    executor_stop_ = true;
  }
  queue_cv_.notify_all();
  std::vector<std::uint64_t> all;
  for (const auto& [id, conn] : conns_) all.push_back(id);
  for (const std::uint64_t id : all) close_conn(id);
  close_fd(listen_fd_);
}

void Server::accept_new_connections() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept failure: try again on poll
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    Conn conn;
    conn.fd = fd;
    conns_.emplace(next_conn_id_++, std::move(conn));
    stat_connections_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::handle_readable(std::uint64_t id, Conn& conn) {
  while (true) {
    char buf[65536];
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n > 0) {
      conn.in.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      // Peer closed.  A mid-request disconnect (partial bytes, or a
      // response still pending) just drops the connection; nothing is
      // half-executed because dispatch only happens on complete requests.
      if (conn.awaiting || !conn.out.empty()) {
        conn.close_after_flush = true;
        conn.stop_parsing = true;
        return;
      }
      close_conn(id);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_conn(id);
    return;
  }
  parse_and_dispatch(id, conn);
}

void Server::parse_and_dispatch(std::uint64_t id, Conn& conn) {
  while (!conn.awaiting && !conn.stop_parsing && !conn.in.empty()) {
    ParseResult res = parse_http_request(conn.in, opts_.limits);
    if (res.status == ParseResult::Status::kNeedMore) return;
    if (res.status == ParseResult::Status::kError) {
      // Framing is unrecoverable after a protocol error: answer and close.
      stat_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      HttpResponse err;
      err.status = res.error_status;
      err.body = error_body("http", res.error_message);
      err.keep_alive = false;
      conn.stop_parsing = true;
      send_response(conn, std::move(err));
      return;
    }
    conn.in.erase(0, res.consumed);
    stat_requests_.fetch_add(1, std::memory_order_relaxed);
    if (route_request(id, conn, std::move(res.request))) {
      conn.awaiting = true;  // response arrives via the completion queue
      return;
    }
    // Inline response emitted; send_response may have closed the conn on
    // a write error, so re-check before parsing pipelined bytes.
    if (conns_.find(id) == conns_.end()) return;
  }
}

const Server::Route* Server::find_route(const std::string& method,
                                        const std::string& path,
                                        bool& path_known,
                                        std::string& allowed_methods) const {
  path_known = false;
  for (const Route& r : routes_) {
    if (r.path != path) continue;
    path_known = true;
    if (!allowed_methods.empty()) allowed_methods += ", ";
    allowed_methods += r.method;
    if (r.method == method) return &r;
  }
  return nullptr;
}

bool Server::route_request(std::uint64_t id, Conn& conn, HttpRequest&& req) {
  const bool keep_alive = req.keep_alive();
  bool path_known = false;
  std::string allowed;
  const Route* route = find_route(req.method, req.target, path_known, allowed);
  if (route == nullptr) {
    stat_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    HttpResponse res;
    if (path_known) {
      res.status = 405;
      res.extra_headers.push_back("Allow: " + allowed);
      res.body = error_body(
          "http", strformat("method %s not allowed for %s",
                            req.method.c_str(), req.target.c_str()));
    } else {
      res.status = 404;
      res.body = error_body("http", "unknown path " + req.target);
    }
    res.keep_alive = keep_alive;
    send_response(conn, std::move(res));
    return false;
  }
  if (route->dispatch == Dispatch::kInline) {
    HttpResponse res;
    try {
      res = route->handler(req);
    } catch (const std::exception& e) {
      res = HttpResponse{};
      res.status = 500;
      res.body = error_body("internal", e.what());
    }
    res.keep_alive = keep_alive;
    send_response(conn, std::move(res));
    return false;
  }
  // Queued route: admission control first.
  if (inflight_ >= opts_.max_inflight) {
    stat_rejected_.fetch_add(1, std::memory_order_relaxed);
    HttpResponse res;
    res.status = 503;
    res.extra_headers.emplace_back("Retry-After: 1");
    res.body = error_body(
        "http", strformat("server is at its in-flight request limit (%d); "
                          "retry shortly",
                          opts_.max_inflight));
    res.keep_alive = keep_alive;
    send_response(conn, std::move(res));
    return false;
  }
  ++inflight_;
  conn.pending_keep_alive = keep_alive;
  Job job;
  job.conn_id = id;
  job.keep_alive = keep_alive;
  job.route = route;
  job.request = std::move(req);
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    jobs_.push_back(std::move(job));
  }
  queue_cv_.notify_one();
  return true;
}

void Server::send_response(Conn& conn, HttpResponse res) {
  if (!res.keep_alive) conn.close_after_flush = true;
  conn.out += serialize_response(res);
  stat_responses_.fetch_add(1, std::memory_order_relaxed);
  flush_writes(conn);
}

void Server::flush_writes(Conn& conn) {
  while (!conn.out.empty()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn.out.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    // Write failure (peer vanished): drop the buffered bytes; the close
    // pass below reaps the connection.
    conn.out.clear();
    conn.close_after_flush = true;
    conn.stop_parsing = true;
    return;
  }
}

void Server::apply_completions() {
  std::deque<Completion> done;
  {
    const std::lock_guard<std::mutex> lock(completion_mutex_);
    done.swap(completions_);
  }
  for (Completion& c : done) {
    --inflight_;
    auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) continue;  // client left before the answer
    Conn& conn = it->second;
    conn.awaiting = false;
    send_response(conn, std::move(c.response));
    // The connection may hold pipelined requests that were waiting on
    // this response.
    if (conns_.find(c.conn_id) != conns_.end() && !draining_) {
      parse_and_dispatch(c.conn_id, conn);
    }
  }
}

void Server::close_conn(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  close_fd(it->second.fd);
  conns_.erase(it);
}

}  // namespace llamp::serve

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <exception>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "serve/tcp_transport.h"

namespace perfbench {

using namespace rrambnn;

namespace {

/// Every distinct request framed once, before any clock starts. Request k
/// is frames[k % cycle] with its id — the payload's leading u64
/// (docs/protocol.md) — patched in at send time.
std::vector<std::vector<std::uint8_t>> EncodeFrames(const RequestSet& requests) {
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t k = 0; k < requests.cycle(); ++k) {
    frames.push_back(serve::FrameBytes(serve::EncodeRequest(requests.Get(k))));
  }
  return frames;
}

constexpr std::size_t kIdOffset = 4;  // after the u32 length prefix

/// Blocking send of a pre-encoded frame under a new id, without copying it.
void SendFrame(int fd, const std::vector<std::uint8_t>& frame,
               std::uint64_t id) {
  std::uint8_t head[kIdOffset + 8];
  std::copy(frame.begin(), frame.begin() + kIdOffset, head);
  for (std::size_t b = 0; b < 8; ++b) {
    head[kIdOffset + b] = static_cast<std::uint8_t>(id >> (8 * b));
  }
  std::size_t off = 0;
  while (off < frame.size()) {
    iovec iov[2];
    std::size_t n = 0;
    if (off < sizeof(head)) {
      iov[n++] = {head + off, sizeof(head) - off};
    }
    const std::size_t body = std::max(off, sizeof(head));
    iov[n++] = {const_cast<std::uint8_t*>(frame.data()) + body,
                frame.size() - body};
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n;
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) throw std::runtime_error("closed loop: send failed");
    off += static_cast<std::size_t>(w);
  }
}

}  // namespace

LoadResult RunClosedLoop(std::uint16_t port, const Workload& workload,
                         const RequestSet& requests, double warmup_s,
                         double window_s) {
  const int conns = workload.connections;
  const std::vector<std::vector<std::uint8_t>> frames = EncodeFrames(requests);
  const Clock::time_point window_start =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(warmup_s));
  const Clock::time_point window_end =
      window_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(window_s));
  std::vector<Tally> tallies(static_cast<std::size_t>(conns));
  std::vector<Clock::time_point> last_done(static_cast<std::size_t>(conns),
                                           window_start);
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      Tally& tally = tallies[static_cast<std::size_t>(c)];
      std::unique_ptr<serve::TcpClient> client;
      for (std::uint64_t k = static_cast<std::uint64_t>(c);;
           k += static_cast<std::uint64_t>(conns)) {
        const Clock::time_point t0 = Clock::now();
        if (t0 >= window_end) break;
        const bool counted = t0 >= window_start;
        if (counted) ++tally.attempted;
        try {
          if (!client) {
            client = std::make_unique<serve::TcpClient>("127.0.0.1", port);
          }
          SendFrame(client->fd(), frames[k % frames.size()], k + 1);
          const serve::Response response = client->Receive();
          const Clock::time_point t1 = Clock::now();
          if (response.id != k + 1) {
            throw std::runtime_error("closed loop: response id mismatch");
          }
          if (!counted) {
            // Warm-up answers are not timed, but must still be right.
            if (response.ok && response.predictions != requests.Expected(k)) {
              ++tally.mismatched;
            }
            continue;
          }
          tally.Record(response, requests.Expected(k), Micros(t1 - t0),
                       Seconds(t0 - window_start));
          last_done[static_cast<std::size_t>(c)] = t1;
        } catch (const std::exception&) {
          if (counted) ++tally.broken;
          client.reset();  // reconnect on the next request
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoadResult result;
  for (const Tally& t : tallies) result.tally.Merge(t);
  result.window_s =
      Seconds(*std::max_element(last_done.begin(), last_done.end()) -
              window_start);
  return result;
}

LoadResult RunOpenLoop(std::uint16_t port, const Workload& workload,
                       const RequestSet& requests, std::uint64_t seed,
                       double warmup_s, double window_s) {
  // The arrival schedule depends only on the seed and the rate.
  std::mt19937_64 rng(seed ^ 0x6f70656e6c6f6f70ull);
  std::exponential_distribution<double> gap(workload.rate_per_s);
  std::vector<double> due_s;
  for (double t = 0.0; (t += gap(rng)) < warmup_s + window_s;) {
    due_s.push_back(t);
  }
  const std::size_t n = due_s.size();
  const int conns = workload.connections;

  std::vector<std::unique_ptr<serve::TcpClient>> clients;
  for (int c = 0; c < conns; ++c) {
    clients.push_back(std::make_unique<serve::TcpClient>("127.0.0.1", port));
  }
  std::vector<std::vector<std::uint8_t>> frames = EncodeFrames(requests);
  const std::size_t cycle = frames.size();
  std::vector<Clock::time_point> sent(n), done(n);
  std::vector<std::uint8_t> answered(n, 0);
  std::vector<serve::Response> responses(n);
  std::atomic<std::size_t> sent_count{0};
  std::atomic<bool> sender_failed{false};

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due_s[i]));
  };

  // The sender never blocks on a socket: a frame the kernel cannot take yet
  // waits in a per-connection backlog that is flushed whenever the socket
  // drains, so a daemon that stops reading shows up as latency instead of
  // holding back later sends.
  std::vector<int> fds;
  for (const auto& client : clients) {
    fds.push_back(client->fd());
    ::fcntl(fds.back(), F_SETFL, ::fcntl(fds.back(), F_GETFL) | O_NONBLOCK);
  }
  std::thread sender([&] {
    // Wake on time (the default 50 us timer slack would make every sleep
    // late), sleep to just before the slot, then spin onto it.
    ::prctl(PR_SET_TIMERSLACK, 1UL);
    std::vector<std::vector<std::uint8_t>> backlog(fds.size());
    const auto flush = [&](std::size_t c) {
      std::vector<std::uint8_t>& bytes = backlog[c];
      std::size_t off = 0;
      while (off < bytes.size()) {
        const ssize_t w = ::send(fds[c], bytes.data() + off,
                                 bytes.size() - off, MSG_NOSIGNAL);
        if (w < 0 && errno == EINTR) continue;
        if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (w <= 0) return false;
        off += static_cast<std::size_t>(w);
      }
      bytes.erase(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(off));
      return true;
    };
    // Waits until `until`, flushing backlogs as their sockets drain.
    const auto wait_flushing = [&](Clock::time_point until) {
      for (;;) {
        std::vector<pollfd> waiting;
        for (std::size_t c = 0; c < fds.size(); ++c) {
          if (!backlog[c].empty()) waiting.push_back({fds[c], POLLOUT, 0});
        }
        const Clock::time_point now = Clock::now();
        if (now >= until) return true;
        if (waiting.empty()) {
          std::this_thread::sleep_until(until);
          return true;
        }
        const auto left =
            std::chrono::duration_cast<std::chrono::nanoseconds>(until - now);
        const timespec timeout{static_cast<time_t>(left.count() / 1000000000),
                               static_cast<long>(left.count() % 1000000000)};
        if (::ppoll(waiting.data(), waiting.size(), &timeout, nullptr) > 0) {
          for (std::size_t c = 0; c < fds.size(); ++c) {
            if (!backlog[c].empty() && !flush(c)) return false;
          }
        }
      }
    };
    for (std::size_t i = 0; i < n && !sender_failed; ++i) {
      const Clock::time_point t = due(i);
      if (!wait_flushing(t - std::chrono::microseconds(50))) break;
      while (Clock::now() < t) {
      }
      sent[i] = Clock::now();
      std::vector<std::uint8_t>& frame = frames[i % cycle];
      for (std::size_t b = 0; b < 8; ++b) {
        frame[kIdOffset + b] = static_cast<std::uint8_t>((i + 1) >> (8 * b));
      }
      const std::size_t c = i % fds.size();
      backlog[c].insert(backlog[c].end(), frame.begin(), frame.end());
      if (!flush(c)) break;
      sent_count.store(i + 1, std::memory_order_release);
    }
    // Drain what the sockets have not taken yet.
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
    while (Clock::now() < give_up &&
           std::any_of(backlog.begin(), backlog.end(),
                       [](const auto& b) { return !b.empty(); })) {
      if (!wait_flushing(Clock::now() + std::chrono::milliseconds(1))) break;
    }
    if (sent_count.load() < n) sender_failed = true;
  });

  const auto receive = [&] {
    std::vector<serve::FrameAssembler> assemblers(
        static_cast<std::size_t>(conns));
    std::vector<pollfd> polled;
    for (const int fd : fds) polled.push_back({fd, POLLIN, 0});
    std::size_t received = 0;
    std::vector<std::uint8_t> buf(1 << 16);
    const Clock::time_point give_up = due(n - 1) + std::chrono::seconds(10);
    while (received < n && Clock::now() < give_up) {
      if (sender_failed &&
          received >= sent_count.load(std::memory_order_acquire)) {
        break;
      }
      if (::poll(polled.data(), polled.size(), 20) <= 0) continue;
      for (std::size_t c = 0; c < polled.size(); ++c) {
        if (polled[c].fd < 0 ||
            !(polled[c].revents & (POLLIN | POLLHUP | POLLERR))) {
          continue;
        }
        const ssize_t got = ::recv(polled[c].fd, buf.data(), buf.size(), 0);
        if (got <= 0) {
          if (got < 0 && (errno == EINTR || errno == EAGAIN)) continue;
          polled[c].fd = -1;  // closed by the daemon: its requests time out
          continue;
        }
        const Clock::time_point now = Clock::now();
        assemblers[c].Feed(buf.data(), static_cast<std::size_t>(got));
        while (auto frame = assemblers[c].Next()) {
          serve::Response response = serve::DecodeResponse(*frame);
          if (response.id == 0 || response.id > n ||
              answered[response.id - 1]) {
            throw std::runtime_error("open loop: unexpected response id");
          }
          const std::size_t i = response.id - 1;
          done[i] = now;
          answered[i] = 1;
          responses[i] = std::move(response);
          ++received;
        }
      }
    }
  };
  std::exception_ptr receiver_error;
  std::thread receiver([&] {
    try {
      receive();
    } catch (...) {
      receiver_error = std::current_exception();
    }
  });
  sender.join();
  receiver.join();
  if (receiver_error) std::rethrow_exception(receiver_error);

  LoadResult result;
  result.window_s = window_s;
  for (std::size_t i = 0; i < n; ++i) {
    if (due_s[i] < warmup_s) {
      // Warm-up answers are not timed, but must still be right.
      if (answered[i] && responses[i].ok &&
          responses[i].predictions != requests.Expected(i)) {
        ++result.tally.mismatched;
      }
      continue;
    }
    ++result.tally.attempted;
    if (i >= sent_count.load()) {
      ++result.tally.broken;
      continue;
    }
    result.lateness_us.push_back(Micros(sent[i] - due(i)));
    if (!answered[i]) {
      ++result.tally.timeouts;
      continue;
    }
    const std::size_t before = result.tally.latencies_us.size();
    result.tally.Record(responses[i], requests.Expected(i),
                        Micros(done[i] - due(i)), due_s[i]);
    if (result.tally.latencies_us.size() > before) {
      result.from_send_us.push_back(Micros(done[i] - sent[i]));
    }
  }
  return result;
}

Tally RunUnloaded(std::uint16_t port, const RequestSet& requests,
                  std::int64_t count) {
  const std::vector<std::vector<std::uint8_t>> frames = EncodeFrames(requests);
  serve::TcpClient client("127.0.0.1", port);
  Tally tally;
  for (std::uint64_t k = 0; k < static_cast<std::uint64_t>(count); ++k) {
    const Clock::time_point t0 = Clock::now();
    SendFrame(client.fd(), frames[k % frames.size()], k + 1);
    const serve::Response response = client.Receive();
    ++tally.attempted;
    tally.Record(response, requests.Expected(k), Micros(Clock::now() - t0));
  }
  return tally;
}

}  // namespace perfbench

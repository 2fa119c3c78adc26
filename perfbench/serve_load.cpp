#include "serve_load.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <exception>
#include <thread>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

using namespace sparkxd;

serve::ClassifyRequest make_request(const data::Dataset& pool,
                                    std::uint64_t base_seed,
                                    std::uint64_t id) {
  serve::ClassifyRequest request;
  request.id = id;
  request.seed = hash_combine(base_seed, id);
  request.image = pool.images[id % pool.size()];
  return request;
}

std::vector<serve::ClassifyReply> oracle_replies(
    const serve::ServingArtifact& artifact, const data::Dataset& pool,
    std::uint64_t base_seed, std::size_t n) {
  std::vector<serve::ClassifyReply> replies(n);
  parallel_for_chunks(n, [&](std::size_t begin, std::size_t end, std::size_t) {
    serve::Engine engine(artifact);
    for (std::size_t i = begin; i < end; ++i)
      replies[i] = engine.classify(make_request(pool, base_seed, i));
  });
  return replies;
}

namespace {

using Clock = std::chrono::steady_clock;

/// Owns the generator's client sockets.
struct Sockets {
  std::vector<int> fds;
  ~Sockets() {
    for (const int fd : fds) ::close(fd);
  }
};

}  // namespace

PacedResult run_paced(std::uint16_t port, const data::Dataset& pool,
                      std::uint64_t base_seed, std::size_t n, double rate_rps,
                      std::size_t connections, bool quick_ack) {
  SPARKXD_REQUIRE(n > 0 && rate_rps > 0.0 && connections > 0,
                  "paced phase needs requests, a rate and connections");
  Sockets sockets;
  for (std::size_t c = 0; c < connections; ++c) {
    sockets.fds.push_back(serve::connect_to("127.0.0.1", port));
    // The generator's own sends must not wait on Nagle; the server's
    // socket options stay whatever the program sets.
    const int one = 1;
    ::setsockopt(sockets.fds.back(), IPPROTO_TCP, TCP_NODELAY, &one,
                 sizeof(one));
  }

  PacedResult result;
  result.replies.resize(n);
  result.late_us.resize(n);
  std::vector<double> reply_us(n, -1.0);
  const auto period = std::chrono::duration<double>(1.0 / rate_rps);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       period * static_cast<double>(i));
  };

  // Receiver: one thread polling every connection. Either side failing
  // stops the other; the first error is rethrown after the join.
  std::atomic<bool> stop{false};
  std::exception_ptr receiver_error, sender_error;
  std::thread receiver([&] {
    try {
      std::vector<pollfd> pfds;
      for (const int fd : sockets.fds) pfds.push_back({fd, POLLIN, 0});
      std::size_t answered = 0;
      auto last_progress = Clock::now();
      std::vector<std::uint8_t> payload;
      while (answered < n && !stop.load()) {
        const int ready = ::poll(pfds.data(), pfds.size(), 200);
        SPARKXD_REQUIRE(ready >= 0 || errno == EINTR, "poll failed");
        if (ready <= 0) {
          SPARKXD_REQUIRE(
              Clock::now() - last_progress < std::chrono::seconds(10),
              "paced phase: no reply for 10 s");
          continue;
        }
        for (auto& p : pfds) {
          if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
          SPARKXD_REQUIRE(serve::read_frame(p.fd, payload),
                          "paced phase: server closed a connection");
          const auto now = Clock::now();
          if (quick_ack) {
            // Not sticky: the kernel may fall back to delayed ACKs, so it
            // is set again after every read (which also sends the ACK).
            const int one = 1;
            ::setsockopt(p.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
          }
          const serve::MsgType type = serve::frame_type(payload);
          std::uint64_t id = 0;
          if (type == serve::MsgType::kReply) {
            const auto reply = serve::decode_reply(payload);
            id = reply.id;
            SPARKXD_REQUIRE(id < n && reply_us[id] < 0.0,
                            "paced phase: unexpected or duplicate reply id");
            result.replies[id] = reply;
          } else if (type == serve::MsgType::kQueueFull) {
            id = serve::decode_queue_full(payload);
            ++result.rejected;
          } else {
            id = serve::decode_deadline_exceeded(payload);
            ++result.rejected;
          }
          SPARKXD_REQUIRE(id < n, "paced phase: reply id out of range");
          reply_us[id] =
              std::chrono::duration<double, std::micro>(now - due(id)).count();
          ++answered;
          last_progress = now;
        }
      }
    } catch (...) {
      receiver_error = std::current_exception();
      stop.store(true);
    }
  });

  // Sender: the calling thread, on the fixed schedule.
  try {
    for (std::size_t i = 0; i < n && !stop.load(); ++i) {
      std::this_thread::sleep_until(due(i));
      const auto sent = Clock::now();
      result.late_us[i] =
          std::chrono::duration<double, std::micro>(sent - due(i)).count();
      SPARKXD_REQUIRE(
          serve::write_frame(
              sockets.fds[i % connections],
              serve::encode_classify(make_request(pool, base_seed, i))),
          "paced phase: server closed a connection");
    }
  } catch (...) {
    sender_error = std::current_exception();
    stop.store(true);
  }
  receiver.join();
  if (sender_error) std::rethrow_exception(sender_error);
  if (receiver_error) std::rethrow_exception(receiver_error);

  for (const double us : reply_us) result.latency_us.push_back(us);
  return result;
}

}  // namespace perfbench

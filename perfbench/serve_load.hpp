#pragma once
// Load generation and output checks for the serving workload.
//
// Request stream: request i of a stream with base seed b carries id i, seed
// hash_combine(b, i) and image pool[i % pool.size()] — the rule
// serve::replay uses, so one oracle covers both the closed-loop phase
// (driven by serve::replay) and the open-loop phase (driven here).

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"
#include "serve/artifact.hpp"
#include "serve/engine.hpp"

namespace perfbench {

[[nodiscard]] sparkxd::serve::ClassifyRequest make_request(
    const sparkxd::data::Dataset& pool, std::uint64_t base_seed,
    std::uint64_t id);

/// Oracle replies: serve::Engine::classify over requests [0, n) of the
/// stream, computed in process on one engine per worker thread. Returned in
/// id order.
[[nodiscard]] std::vector<sparkxd::serve::ClassifyReply> oracle_replies(
    const sparkxd::serve::ServingArtifact& artifact,
    const sparkxd::data::Dataset& pool, std::uint64_t base_seed,
    std::size_t n);

/// Result of one open-loop phase.
struct PacedResult {
  std::vector<sparkxd::serve::ClassifyReply> replies;  ///< id order
  std::vector<double> latency_us;  ///< reply time minus due time, per reply
  std::vector<double> late_us;     ///< send start minus due time, per request
  std::uint64_t rejected = 0;      ///< kQueueFull / kDeadlineExceeded answers
};

/// Open-loop generator: sends requests [0, n) of the stream at a fixed
/// `rate_rps`, round-robin over `connections` loopback connections, from
/// one sender thread (the caller) while one receiver thread collects the
/// replies. Each request is due at start + i / rate_rps and is timed from
/// that due time, so a stall is charged to every request queued behind it.
///
/// With `quick_ack` the receiver acknowledges every reply as soon as it has
/// read it (TCP_QUICKACK). Without it the kernel delays the ACK until the
/// next request on that connection carries it. The server's sockets keep
/// Nagle's algorithm on, so once two replies on one connection overlap
/// (after any stall) each later reply waits for that piggy-backed ACK, and
/// latency locks to the per-connection send interval.
///
/// Throws ContractViolation on a protocol error or when no reply arrives
/// for 10 s.
[[nodiscard]] PacedResult run_paced(std::uint16_t port,
                                    const sparkxd::data::Dataset& pool,
                                    std::uint64_t base_seed, std::size_t n,
                                    double rate_rps, std::size_t connections,
                                    bool quick_ack);

}  // namespace perfbench

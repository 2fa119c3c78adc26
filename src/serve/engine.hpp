#pragma once
// Per-worker classification engine over a shared, frozen ServingArtifact.
//
// Determinism contract (the serving layer's core guarantee): a request's
// `seed` FULLY determines its reply. The engine derives two streams from
// it —
//
//   inject stream  hash_combine(seed, 0): drives the weak-cell flip
//                  decisions through the artifact's frozen tables, split
//                  across layers by core::layer_inject_rng as in
//                  core::evaluate_corrupted (single layer consumes the
//                  stream directly, a deep stack forks substream l for
//                  layer l);
//   spike stream   hash_combine(seed, 1): drives the Poisson encoding of
//                  the request's image.
//
// Nothing else is stochastic, and the scratch weights are restored bit for
// bit after every request (delta injection + revert), so replies are
// replayable regardless of batching, worker assignment, or the order
// requests reach a worker. That is what lets the server batch freely and
// lets a replay client verify a deployment byte for byte.
//
// An Engine is the per-worker mutable half: one corruptible weight copy
// (O(total weights), paid once per worker, not per request) plus one
// snn::InferenceState. The artifact itself is shared read-only across any
// number of engines on any number of threads.

#include <cstdint>
#include <vector>

#include "error/injector.hpp"
#include "serve/artifact.hpp"
#include "snn/network.hpp"

namespace sparkxd::serve {

/// One classification request.
struct ClassifyRequest {
  std::uint64_t id = 0;    ///< echoed in the reply (client correlation)
  std::uint64_t seed = 0;  ///< determinism root: encoding + injected faults
  std::vector<float> image;  ///< n_inputs pixels in [0, 1]
};

/// One classification reply. label/spikes/flips are pure functions of
/// (artifact, request) — the replay digest hashes all of them.
struct ClassifyReply {
  std::uint64_t id = 0;
  std::int32_t label = -1;   ///< predicted class, -1 if no neuron fired
  std::uint32_t spikes = 0;  ///< total output-layer spikes
  std::uint32_t flips = 0;   ///< weak-cell bits flipped for this request

  friend bool operator==(const ClassifyReply&, const ClassifyReply&) = default;
};

class Engine {
 public:
  /// Copies the artifact's network once (the per-worker corruptible copy)
  /// and keeps a pointer to the artifact, which must outlive the engine.
  explicit Engine(const ServingArtifact& artifact);

  /// Classifies one request; deterministic in (artifact, request), no
  /// observable state carried between calls. NOT thread-safe — one engine
  /// per worker thread.
  [[nodiscard]] ClassifyReply classify(const ClassifyRequest& request);

  [[nodiscard]] const ServingArtifact& artifact() const noexcept {
    return *artifact_;
  }

 private:
  const ServingArtifact* artifact_;
  snn::Network scratch_;       ///< private corruptible weight copy
  snn::InferenceState state_;  ///< reused membrane/encoder scratch
  std::vector<std::vector<error::WeightFlip>> flips_;  ///< per-layer deltas
};

}  // namespace sparkxd::serve

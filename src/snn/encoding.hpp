#pragma once
// Poisson rate coding (paper §V: "rate coding and the Poisson distribution
// for converting the input samples into spike trains").
//
// A pixel of intensity p in [0,1] emits a spike in each simulation step with
// probability p * max_rate — a Bernoulli approximation of a Poisson process
// sampled at dt, which is the standard discrete-time formulation.
//
// The per-step draw is one Rng::next_u64 per active pixel, in pixel order,
// compared in integers: set_image stores t = Rng::uniform_threshold(p) per
// active pixel, and a pixel spikes iff (next_u64() >> 11) < t — exactly the
// outcome of `uniform() < p` for the float p (see Rng::uniform_threshold).
// step() writes every active index and advances the output cursor by that
// predicate, so the compaction has no data-dependent branch; the spike
// lists and the Rng stream are those of the floating-point compare.
//
// Stream-offset contract: every step draws exactly once per active pixel,
// whatever spikes, so a sample of T steps takes T * count_active(image)
// draws. A pass over a dataset can therefore start sample i at its own
// place in one shared stream (Rng::discard by the draws of the samples
// before it) and still make the serial loop's draws.

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace sparkxd::snn {

/// A whole sample's input spike trains, as PoissonEncoder::encode draws
/// them: step offsets plus the spiking indices, ascending within a step.
/// Storage is sized by the spikes actually drawn and kept when the raster
/// is reused. Only the encoder writes one, so its offsets and indices are
/// always consistent with its image.
class SpikeRaster {
 public:
  /// Pixel count of the encoded image.
  [[nodiscard]] std::size_t inputs() const noexcept { return inputs_; }
  [[nodiscard]] std::size_t steps() const noexcept {
    return step_begin_.empty() ? 0 : step_begin_.size() - 1;
  }
  /// Total spikes over all steps.
  [[nodiscard]] std::size_t size() const noexcept { return spikes_.size(); }
  /// The input indices that spike at step t < steps().
  [[nodiscard]] std::span<const std::uint32_t> step(std::size_t t) const {
    return {spikes_.data() + step_begin_[t],
            spikes_.data() + step_begin_[t + 1]};
  }

 private:
  friend class PoissonEncoder;
  std::size_t inputs_ = 0;
  std::vector<std::size_t> step_begin_;  ///< steps() + 1 offsets
  std::vector<std::uint32_t> spikes_;
};

/// Converts images into per-step lists of spiking input indices.
class PoissonEncoder {
 public:
  /// max_rate = spike probability per step at full intensity, in (0, 1].
  explicit PoissonEncoder(float max_rate);

  /// Number of pixels of `image` that can spike: the draws each step makes
  /// after set_image(image). Throws, as set_image does, on a pixel outside
  /// [0, 1]. Lets a pass find every sample's stream offset up front.
  [[nodiscard]] static std::size_t count_active(
      const std::vector<float>& image);

  /// Prepares the encoder for a new image: records which pixels can spike.
  void set_image(const std::vector<float>& image);

  /// Samples the set of input indices that spike in one step. The output
  /// vector is reused storage owned by the caller.
  void step(Rng& rng, std::vector<std::uint32_t>& spikes_out) const;

  /// Samples `steps` steps into `raster` (reused storage): the same draws,
  /// in the same order, as `steps` calls to step().
  void encode(Rng& rng, std::size_t steps, SpikeRaster& raster);

  /// Expected number of input spikes per step for the current image.
  [[nodiscard]] double expected_spikes_per_step() const noexcept;

  /// Number of pixels that can spike for the current image. Zero means
  /// step() never draws from the Rng, which lets the event engine
  /// short-circuit an all-zero sample without desynchronizing the stream.
  [[nodiscard]] std::size_t active_pixels() const noexcept {
    return active_idx_.size();
  }

 private:
  /// The one definition of a valid and of an active (can-spike) pixel,
  /// shared by set_image and count_active.
  static bool in_range(float v) noexcept { return v >= 0.0f && v <= 1.0f; }
  static bool active(float v) noexcept { return v > 0.0f; }

  /// One step's draws: writes the spiking active indices to out[0, k) and
  /// returns k. `out` must hold active_pixels() entries.
  std::size_t draw_step(Rng& rng, std::uint32_t* out) const noexcept;

  float max_rate_;
  std::size_t n_pixels_ = 0;               ///< size of the current image
  std::vector<std::uint32_t> active_idx_;  ///< pixels with non-zero intensity
  std::vector<float> active_p_;            ///< their per-step probabilities
  std::vector<std::uint64_t> active_t_;    ///< uniform_threshold(active_p_)
  std::vector<std::uint32_t> draw_buf_;    ///< encode's scratch, grow-only
};

}  // namespace sparkxd::snn

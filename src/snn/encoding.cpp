#include "snn/encoding.hpp"

#include <cstddef>

#include "common/contracts.hpp"

namespace sparkxd::snn {

PoissonEncoder::PoissonEncoder(float max_rate) : max_rate_(max_rate) {
  SPARKXD_REQUIRE(max_rate > 0.0f && max_rate <= 1.0f,
                  "max_rate must be a per-step probability in (0, 1]");
}

namespace {
constexpr const char* kRangeMessage = "pixel intensities must be in [0,1]";
}  // namespace

std::size_t PoissonEncoder::count_active(const std::vector<float>& image) {
  std::size_t k = 0;
  bool ok = true;
  for (const float v : image) {
    ok &= in_range(v);
    k += static_cast<std::size_t>(active(v));
  }
  SPARKXD_REQUIRE(ok, kRangeMessage);
  return k;
}

void PoissonEncoder::set_image(const std::vector<float>& image) {
  // One pass sized once to the image: range-check every pixel and compact
  // the active ones without a data-dependent branch (always write, advance
  // the cursor by `pixel > 0`); then only the active entries get their
  // integer threshold.
  const std::size_t n = image.size();
  active_idx_.resize(n);
  active_p_.resize(n);
  std::size_t k = 0;
  bool ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = image[i];
    // Validate BEFORE the activity filter: a negative or NaN pixel fails
    // `> 0.0f` and used to slip through silently as "inactive".
    ok &= in_range(v);
    active_idx_[k] = static_cast<std::uint32_t>(i);
    active_p_[k] = v * max_rate_;
    k += static_cast<std::size_t>(active(v));
  }
  // A rejected image leaves the encoder empty, all three arrays at size 0.
  if (!ok) k = 0;
  n_pixels_ = ok ? n : 0;
  active_idx_.resize(k);
  active_p_.resize(k);
  active_t_.resize(k);
  SPARKXD_REQUIRE(ok, kRangeMessage);
  for (std::size_t j = 0; j < k; ++j)
    active_t_[j] = Rng::uniform_threshold(active_p_[j]);
}

std::size_t PoissonEncoder::draw_step(Rng& rng,
                                      std::uint32_t* out) const noexcept {
  // Branchless compaction: always write the index, advance by the spike
  // predicate. One draw per active pixel, in pixel order (see the header).
  const std::size_t n = active_idx_.size();
  const std::uint32_t* idx = active_idx_.data();
  const std::uint64_t* t = active_t_.data();
  std::size_t n_out = 0;
  for (std::size_t k = 0; k < n; ++k) {
    out[n_out] = idx[k];
    n_out += static_cast<std::size_t>((rng.next_u64() >> 11) < t[k]);
  }
  return n_out;
}

void PoissonEncoder::step(Rng& rng,
                          std::vector<std::uint32_t>& spikes_out) const {
  spikes_out.resize(active_idx_.size());
  spikes_out.resize(draw_step(rng, spikes_out.data()));
}

void PoissonEncoder::encode(Rng& rng, std::size_t steps,
                            SpikeRaster& raster) {
  // Each step draws into the encoder's buffer, which holds room for every
  // active pixel past the current end; the raster then copies only the
  // spikes drawn, so its storage is sized by actual spikes.
  const std::size_t n = active_idx_.size();
  raster.inputs_ = n_pixels_;
  raster.step_begin_.resize(steps + 1);
  raster.step_begin_[0] = 0;
  std::size_t end = 0;
  for (std::size_t t = 0; t < steps; ++t) {
    if (draw_buf_.size() < end + n) draw_buf_.resize(end + n);
    end += draw_step(rng, draw_buf_.data() + end);
    raster.step_begin_[t + 1] = end;
  }
  raster.spikes_.assign(draw_buf_.begin(),
                        draw_buf_.begin() + static_cast<std::ptrdiff_t>(end));
}

double PoissonEncoder::expected_spikes_per_step() const noexcept {
  double e = 0.0;
  for (const float p : active_p_) e += p;
  return e;
}

}  // namespace sparkxd::snn

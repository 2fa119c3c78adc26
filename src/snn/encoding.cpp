#include "snn/encoding.hpp"

#include "common/contracts.hpp"

namespace sparkxd::snn {

PoissonEncoder::PoissonEncoder(float max_rate) : max_rate_(max_rate) {
  SPARKXD_REQUIRE(max_rate > 0.0f && max_rate <= 1.0f,
                  "max_rate must be a per-step probability in (0, 1]");
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
  bool in_range = true;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = image[i];
    // Validate BEFORE the activity filter: a negative or NaN pixel fails
    // `> 0.0f` and used to slip through silently as "inactive".
    in_range &= v >= 0.0f && v <= 1.0f;
    active_idx_[k] = static_cast<std::uint32_t>(i);
    active_p_[k] = v * max_rate_;
    k += static_cast<std::size_t>(v > 0.0f);
  }
  // A rejected image leaves the encoder empty, all three arrays at size 0.
  if (!in_range) k = 0;
  active_idx_.resize(k);
  active_p_.resize(k);
  active_t_.resize(k);
  SPARKXD_REQUIRE(in_range, "pixel intensities must be in [0,1]");
  for (std::size_t j = 0; j < k; ++j)
    active_t_[j] = Rng::uniform_threshold(active_p_[j]);
}

void PoissonEncoder::step(Rng& rng,
                          std::vector<std::uint32_t>& spikes_out) const {
  // Branchless compaction: always write the index, advance by the spike
  // predicate. One draw per active pixel, in pixel order (see the header).
  const std::size_t n = active_idx_.size();
  spikes_out.resize(n);
  std::uint32_t* out = spikes_out.data();
  const std::uint32_t* idx = active_idx_.data();
  const std::uint64_t* t = active_t_.data();
  std::size_t n_out = 0;
  for (std::size_t k = 0; k < n; ++k) {
    out[n_out] = idx[k];
    n_out += static_cast<std::size_t>((rng.next_u64() >> 11) < t[k]);
  }
  spikes_out.resize(n_out);
}

double PoissonEncoder::expected_spikes_per_step() const noexcept {
  double e = 0.0;
  for (const float p : active_p_) e += p;
  return e;
}

}  // namespace sparkxd::snn

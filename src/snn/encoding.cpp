#include "snn/encoding.hpp"

#include "common/contracts.hpp"

namespace sparkxd::snn {

PoissonEncoder::PoissonEncoder(float max_rate) : max_rate_(max_rate) {
  SPARKXD_REQUIRE(max_rate > 0.0f && max_rate <= 1.0f,
                  "max_rate must be a per-step probability in (0, 1]");
}

void PoissonEncoder::set_image(const std::vector<float>& image) {
  active_idx_.clear();
  active_p_.clear();
  active_t_.clear();
  for (std::size_t i = 0; i < image.size(); ++i) {
    // Validate BEFORE the activity filter: a negative or NaN pixel fails
    // `> 0.0f` and used to slip through silently as "inactive".
    SPARKXD_REQUIRE(image[i] >= 0.0f && image[i] <= 1.0f,
                    "pixel intensities must be in [0,1]");
    if (image[i] > 0.0f) {
      active_idx_.push_back(static_cast<std::uint32_t>(i));
      const float p = image[i] * max_rate_;
      active_p_.push_back(p);
      active_t_.push_back(Rng::uniform_threshold(p));
    }
  }
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

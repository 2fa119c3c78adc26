#include "snn/stdp.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/contracts.hpp"

namespace sparkxd::snn {

PreTraces::PreTraces(std::size_t n_inputs, float tau_ms, float dt_ms)
    : decay_(std::exp(-dt_ms / tau_ms)), x_(n_inputs, 0.0f) {
  SPARKXD_REQUIRE(tau_ms > 0.0f && dt_ms > 0.0f,
                  "trace time constants must be positive");
}

void PreTraces::reset() { std::fill(x_.begin(), x_.end(), 0.0f); }

void PreTraces::step(std::span<const std::uint32_t> input_spikes) {
  for (float& x : x_) x *= decay_;
  for (const auto i : input_spikes) {
    SPARKXD_REQUIRE(i < x_.size(), "input spike index out of range");
    x_[i] = 1.0f;
  }
}

void stdp_post_update(float* w_row, std::size_t n_inputs,
                      const std::vector<float>& x_pre, const StdpParams& p) {
  SPARKXD_REQUIRE(x_pre.size() == n_inputs,
                  "trace width must match the weight row");
  // Locals, not loads through `p`: the compiler cannot prove the params do
  // not alias the row it writes.
  const float eta = p.eta;
  const float x_target = p.x_target;
  const float w_min = p.w_min;
  const float w_max = p.w_max;
  const float* x = x_pre.data();
  for (std::size_t i = 0; i < n_inputs; ++i) {
    const float w = w_row[i];
    const float drive = x[i] - x_target;
    // Asymmetric soft bounds: potentiation saturates toward w_max,
    // depression toward w_min. Scaling depression by (w - w_min) matters
    // for fault recovery: a weight corrupted to w_max must still be
    // depressible, which a symmetric (w_max - w) factor would forbid.
    // Both factors are computed and one is picked by an integer mask: a
    // float ternary over two products is not if-converted under the default
    // -ftrapping-math, which keeps the loop scalar.
    const float up = eta * drive * (w_max - w);
    const float down = eta * drive * (w - w_min);
    const std::uint32_t pick_up = 0u - static_cast<std::uint32_t>(drive > 0.0f);
    const float dw = std::bit_cast<float>(
        (std::bit_cast<std::uint32_t>(up) & pick_up) |
        (std::bit_cast<std::uint32_t>(down) & ~pick_up));
    // std::clamp(w + dw, w_min, w_max) as two selects, same results for
    // NaN (kept) and -0.0 (kept against w_min = 0).
    const float v = w + dw;
    const float lo = v < w_min ? w_min : v;
    w_row[i] = w_max < lo ? w_max : lo;
  }
}

}  // namespace sparkxd::snn

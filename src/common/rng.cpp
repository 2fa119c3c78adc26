#include "common/rng.hpp"

#include <bit>
#include <cmath>

namespace sparkxd {

// splitmix64 / hash_combine / next_u64 / uniform / bernoulli are defined
// inline in rng.hpp — the evaluation hot paths make millions of draws and
// must not pay a cross-TU call per draw.

namespace rng_detail {

namespace {
/// p(x) - x^256 for the xoshiro256 transition's characteristic polynomial
/// p(x) = x^256 + sum c_k x^k (degree 256, so only the low coefficients are
/// stored). Squaring x 128 times modulo p gives the reference JUMP
/// constant; tests/common_test.cpp checks that.
constexpr Gf2Poly kCharPolyLow = {0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL,
                                  0x04b4edcf26259f85ULL, 0x0003c03c3f3ecb19ULL};

/// a(x) * x mod p: shift up one place; a carry out of x^255 becomes x^256,
/// which is the low part of p.
void times_x(Gf2Poly& a) noexcept {
  const std::uint64_t carry = a[3] >> 63;
  a[3] = (a[3] << 1) | (a[2] >> 63);
  a[2] = (a[2] << 1) | (a[1] >> 63);
  a[1] = (a[1] << 1) | (a[0] >> 63);
  a[0] <<= 1;
  const std::uint64_t mask = 0 - carry;
  for (std::size_t w = 0; w < 4; ++w) a[w] ^= kCharPolyLow[w] & mask;
}
}  // namespace

Gf2Poly mulmod(const Gf2Poly& a, const Gf2Poly& b) noexcept {
  // Horner over b's coefficients from the top: r <- r * x + b_k * a.
  Gf2Poly r{};
  for (int k = 255; k >= 0; --k) {
    times_x(r);
    const std::uint64_t mask = 0 - ((b[k / 64] >> (k % 64)) & 1);
    for (std::size_t w = 0; w < 4; ++w) r[w] ^= a[w] & mask;
  }
  return r;
}

}  // namespace rng_detail

void Rng::discard(std::uint64_t n) noexcept {
  // Applying q(T) takes 256 steps, so stepping is cheaper below that.
  if (n < 256) {
    while (n-- > 0) (void)next_u64();
    return;
  }
  // q(x) = x^n mod p by left-to-right square-and-multiply.
  rng_detail::Gf2Poly q{1, 0, 0, 0};
  for (int bit = 63 - std::countl_zero(n); bit >= 0; --bit) {
    q = rng_detail::mulmod(q, q);
    if ((n >> bit) & 1) rng_detail::times_x(q);
  }
  // state <- q(T) state = sum over k of q_k T^k state (the reference
  // xoshiro256 jump() loop, with q in place of the JUMP constant).
  std::array<std::uint64_t, 4> acc{};
  for (int k = 0; k < 256; ++k) {
    if ((q[k / 64] >> (k % 64)) & 1)
      for (std::size_t w = 0; w < 4; ++w) acc[w] ^= state_[w];
    (void)next_u64();
  }
  state_ = acc;
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
}

Rng Rng::fork(std::uint64_t stream_id) const noexcept {
  // Mix the full current state with the stream id; do not advance *this.
  std::uint64_t h = stream_id;
  for (const auto w : state_) h = hash_combine(h, w);
  return Rng(h);
}

double Rng::uniform(double lo, double hi) {
  SPARKXD_REQUIRE(lo <= hi, "uniform(lo, hi) needs lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  SPARKXD_REQUIRE(lo <= hi, "uniform_int(lo, hi) needs lo <= hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = ~0ULL - (~0ULL % span);
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return lo + static_cast<std::int64_t>(x % span);
}

std::size_t Rng::index(std::size_t n) {
  SPARKXD_REQUIRE(n > 0, "index(n) needs n > 0");
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

double Rng::normal() noexcept {
  // Box–Muller; guard against log(0).
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return r * std::cos(2.0 * 3.14159265358979323846 * u2);
}

double Rng::normal(double mean, double sigma) {
  SPARKXD_REQUIRE(sigma >= 0.0, "normal sigma must be >= 0");
  return mean + sigma * normal();
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

std::uint64_t Rng::poisson(double lambda) {
  SPARKXD_REQUIRE(lambda >= 0.0, "poisson lambda must be >= 0");
  if (lambda == 0.0) return 0;
  if (lambda < 64.0) {
    // Knuth: multiply uniforms until below exp(-lambda).
    const double l = std::exp(-lambda);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform();
    } while (p > l);
    return k - 1;
  }
  // Normal approximation with continuity correction for large lambda.
  const double x = normal(lambda, std::sqrt(lambda));
  return x <= 0.0 ? 0 : static_cast<std::uint64_t>(x + 0.5);
}

double Rng::exponential(double rate) {
  SPARKXD_REQUIRE(rate > 0.0, "exponential rate must be > 0");
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(u) / rate;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  SPARKXD_REQUIRE(k <= n, "cannot sample more items than the population");
  // Partial Fisher–Yates over an index vector; O(n) memory, O(n) time.
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + index(n - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace sparkxd

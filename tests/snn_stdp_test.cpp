// Tests for Poisson rate coding, presynaptic traces and the STDP update.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/contracts.hpp"
#include "snn/encoding.hpp"
#include "snn/stdp.hpp"

namespace sparkxd::snn {
namespace {

/// One step's input spike list, passed to PreTraces::step as a span.
using Spikes = std::vector<std::uint32_t>;

// ------------------------------------------------------------ Poisson coding

TEST(Encoding, RateProportionalToIntensity) {
  PoissonEncoder enc(0.5f);
  std::vector<float> image(4, 0.0f);
  image[0] = 1.0f;   // expect rate 0.5
  image[1] = 0.5f;   // expect rate 0.25
  image[2] = 0.1f;   // expect rate 0.05
  enc.set_image(image);
  Rng rng(42);
  std::vector<int> counts(4, 0);
  std::vector<std::uint32_t> spikes;
  const int steps = 20000;
  for (int t = 0; t < steps; ++t) {
    enc.step(rng, spikes);
    for (const auto s : spikes) ++counts[s];
  }
  EXPECT_NEAR(counts[0] / double(steps), 0.5, 0.02);
  EXPECT_NEAR(counts[1] / double(steps), 0.25, 0.02);
  EXPECT_NEAR(counts[2] / double(steps), 0.05, 0.01);
  EXPECT_EQ(counts[3], 0);  // zero pixel never spikes
}

TEST(Encoding, ExpectedSpikesPerStep) {
  PoissonEncoder enc(0.4f);
  enc.set_image({1.0f, 0.5f, 0.0f});
  EXPECT_NEAR(enc.expected_spikes_per_step(), 0.4 + 0.2, 1e-6);
}

TEST(Encoding, DeterministicGivenRngState) {
  PoissonEncoder enc(0.3f);
  std::vector<float> img(10, 0.7f);
  enc.set_image(img);
  Rng a(5), b(5);
  std::vector<std::uint32_t> sa, sb;
  for (int t = 0; t < 100; ++t) {
    enc.step(a, sa);
    enc.step(b, sb);
    EXPECT_EQ(sa, sb);
  }
}

TEST(Encoding, RejectsBadRateAndPixels) {
  EXPECT_THROW(PoissonEncoder(0.0f), ContractViolation);
  EXPECT_THROW(PoissonEncoder(1.5f), ContractViolation);
  PoissonEncoder enc(0.5f);
  EXPECT_THROW(enc.set_image({2.0f}), ContractViolation);
}

TEST(Encoding, SpikeTrainCountIsBinomial) {
  // Total spikes over a window should match the Binomial mean/variance.
  PoissonEncoder enc(0.2f);
  std::vector<float> img(100, 1.0f);
  enc.set_image(img);
  Rng rng(9);
  std::vector<std::uint32_t> spikes;
  double sum = 0.0, sum2 = 0.0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    enc.step(rng, spikes);
    const double k = static_cast<double>(spikes.size());
    sum += k;
    sum2 += k * k;
  }
  const double mean = sum / trials;
  const double var = sum2 / trials - mean * mean;
  EXPECT_NEAR(mean, 20.0, 0.5);      // n*p
  EXPECT_NEAR(var, 16.0, 2.0);       // n*p*(1-p)
}

// -------------------------------------------------------------------- traces

TEST(PreTracesTest, SetToOneOnSpikeAndDecay) {
  PreTraces traces(3, 20.0f, 1.0f);
  traces.step(Spikes{1});
  EXPECT_EQ(traces.values()[1], 1.0f);
  EXPECT_EQ(traces.values()[0], 0.0f);
  traces.step(Spikes{});
  const float decay = std::exp(-1.0f / 20.0f);
  EXPECT_NEAR(traces.values()[1], decay, 1e-5);
  traces.step(Spikes{});
  EXPECT_NEAR(traces.values()[1], decay * decay, 1e-5);
}

TEST(PreTracesTest, ResetClears) {
  PreTraces traces(2, 20.0f, 1.0f);
  traces.step(Spikes{0, 1});
  traces.reset();
  EXPECT_EQ(traces.values()[0], 0.0f);
  EXPECT_EQ(traces.values()[1], 0.0f);
}

TEST(PreTracesTest, RepeatedSpikesSaturateAtOne) {
  PreTraces traces(1, 20.0f, 1.0f);
  for (int t = 0; t < 50; ++t) traces.step(Spikes{0});
  EXPECT_EQ(traces.values()[0], 1.0f);
}

TEST(PreTracesTest, RejectsOutOfRangeSpike) {
  PreTraces traces(2, 20.0f, 1.0f);
  EXPECT_THROW(traces.step(Spikes{5}), ContractViolation);
}

// ---------------------------------------------------------------------- STDP

StdpParams params() {
  StdpParams p;
  p.eta = 0.1f;
  p.x_target = 0.4f;
  p.w_min = 0.0f;
  p.w_max = 1.0f;
  return p;
}

TEST(Stdp, PotentiatesRecentlyActiveInputs) {
  const auto p = params();
  std::vector<float> w{0.5f};
  const std::vector<float> x{0.9f};  // above x_target
  stdp_post_update(w.data(), 1, x, p);
  EXPECT_GT(w[0], 0.5f);
}

TEST(Stdp, DepressesStaleInputs) {
  const auto p = params();
  std::vector<float> w{0.5f};
  const std::vector<float> x{0.0f};  // below x_target
  stdp_post_update(w.data(), 1, x, p);
  EXPECT_LT(w[0], 0.5f);
}

TEST(Stdp, NoChangeAtTargetTrace) {
  const auto p = params();
  std::vector<float> w{0.5f};
  const std::vector<float> x{p.x_target};
  stdp_post_update(w.data(), 1, x, p);
  EXPECT_FLOAT_EQ(w[0], 0.5f);
}

TEST(Stdp, PotentiationSaturatesAtWmax) {
  const auto p = params();
  std::vector<float> w{1.0f};
  const std::vector<float> x{1.0f};
  stdp_post_update(w.data(), 1, x, p);
  EXPECT_FLOAT_EQ(w[0], 1.0f);
}

TEST(Stdp, DepressionWorksFromWmax) {
  // The fault-recovery property: a weight stuck at w_max (e.g. corrupted
  // upward by a bit flip) must still be depressible.
  const auto p = params();
  std::vector<float> w{1.0f};
  const std::vector<float> x{0.0f};
  stdp_post_update(w.data(), 1, x, p);
  EXPECT_LT(w[0], 1.0f);
}

TEST(Stdp, DepressionStopsAtWmin) {
  const auto p = params();
  std::vector<float> w{0.0f};
  const std::vector<float> x{0.0f};
  stdp_post_update(w.data(), 1, x, p);
  EXPECT_FLOAT_EQ(w[0], 0.0f);
}

TEST(Stdp, WeightsStayInBounds) {
  const auto p = params();
  Rng rng(3);
  std::vector<float> w(100);
  std::vector<float> x(100);
  for (auto& v : w) v = static_cast<float>(rng.uniform());
  for (int iter = 0; iter < 200; ++iter) {
    for (auto& v : x) v = static_cast<float>(rng.uniform());
    stdp_post_update(w.data(), w.size(), x, p);
    for (const float v : w) {
      EXPECT_GE(v, p.w_min);
      EXPECT_LE(v, p.w_max);
    }
  }
}

TEST(Stdp, UpdateMagnitudeScalesWithEta) {
  auto p = params();
  std::vector<float> w1{0.5f}, w2{0.5f};
  const std::vector<float> x{1.0f};
  p.eta = 0.1f;
  stdp_post_update(w1.data(), 1, x, p);
  p.eta = 0.2f;
  stdp_post_update(w2.data(), 1, x, p);
  EXPECT_NEAR((w2[0] - 0.5f), 2.0f * (w1[0] - 0.5f), 1e-5);
}

TEST(Stdp, RepeatedPairingConvergesTowardWmax) {
  const auto p = params();
  std::vector<float> w{0.1f};
  const std::vector<float> x{1.0f};
  for (int i = 0; i < 500; ++i) stdp_post_update(w.data(), 1, x, p);
  EXPECT_GT(w[0], 0.95f);
}

/// The update as a plain per-synapse ternary plus std::clamp — the
/// reference the select-based kernel must match bit for bit.
void stdp_reference(float* w_row, std::size_t n, const std::vector<float>& x,
                    const StdpParams& p) {
  for (std::size_t i = 0; i < n; ++i) {
    const float drive = x[i] - p.x_target;
    const float dw = drive > 0.0f ? p.eta * drive * (p.w_max - w_row[i])
                                  : p.eta * drive * (w_row[i] - p.w_min);
    w_row[i] = std::clamp(w_row[i] + dw, p.w_min, p.w_max);
  }
}

TEST(Stdp, SelectKernelMatchesTheTernaryReferenceBitwise) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  for (const StdpParams& p :
       {params(), StdpParams{}, StdpParams{0.5f, 0.2f, 20.0f, 0.05f, 0.8f}}) {
    const std::vector<float> weights{p.w_min,
                                     p.w_max,
                                     p.w_min - 0.25f,
                                     p.w_max + 0.25f,
                                     -1.0e30f,
                                     1.0e30f,
                                     -0.0f,
                                     0.0f,
                                     denorm,
                                     -denorm,
                                     4.0f * denorm,
                                     nan,
                                     0.5f * (p.w_min + p.w_max)};
    const std::vector<float> traces{0.0f,  std::nextafter(p.x_target, 0.0f),
                                    p.x_target,
                                    std::nextafter(p.x_target, 1.0f),
                                    1.0f,  nan};
    // Every (weight, trace) pair in one row: 78 synapses, so both the
    // vector body and the scalar tail of the kernel are covered.
    std::vector<float> w, x;
    for (const float wv : weights)
      for (const float xv : traces) {
        w.push_back(wv);
        x.push_back(xv);
      }
    std::vector<float> ref = w;
    stdp_post_update(w.data(), w.size(), x, p);
    stdp_reference(ref.data(), ref.size(), x, p);
    for (std::size_t i = 0; i < w.size(); ++i)
      EXPECT_EQ(std::bit_cast<std::uint32_t>(w[i]),
                std::bit_cast<std::uint32_t>(ref[i]))
          << "synapse " << i << ": w " << weights[i / traces.size()]
          << ", x " << traces[i % traces.size()];
  }
}

TEST(Stdp, RejectsMismatchedTraceWidth) {
  const auto p = params();
  std::vector<float> w(3, 0.5f);
  const std::vector<float> x(2, 0.5f);
  EXPECT_THROW(stdp_post_update(w.data(), 3, x, p), ContractViolation);
}

}  // namespace
}  // namespace sparkxd::snn

// Tests for the Poisson rate encoder (snn/encoding): spike-rate
// correctness, determinism per Rng stream, zero/full intensity behavior,
// and domain contracts. The encoder drives every spike train in the
// framework, so its rate and stream discipline underpin both the accuracy
// numbers and the bit-exact determinism contract.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "snn/encoding.hpp"

namespace sparkxd::snn {
namespace {

TEST(PoissonEncoder, EmpiricalRateMatchesIntensityTimesMaxRate) {
  // A pixel of intensity p spikes with probability p * max_rate per step:
  // over many steps the empirical frequency must land within a few standard
  // errors of that product, pixel by pixel.
  const float max_rate = 0.3f;
  PoissonEncoder enc(max_rate);
  const std::vector<float> image{0.1f, 0.5f, 1.0f, 0.0f, 0.25f};
  enc.set_image(image);
  const std::size_t steps = 20000;
  std::vector<std::size_t> counts(image.size(), 0);
  Rng rng(7);
  std::vector<std::uint32_t> spikes;
  for (std::size_t t = 0; t < steps; ++t) {
    enc.step(rng, spikes);
    for (const auto i : spikes) ++counts[i];
  }
  for (std::size_t i = 0; i < image.size(); ++i) {
    const double p = static_cast<double>(image[i]) * max_rate;
    const double freq = static_cast<double>(counts[i]) / steps;
    const double sigma = std::sqrt(p * (1.0 - p) / steps);
    EXPECT_NEAR(freq, p, 5.0 * sigma + 1e-12) << "pixel " << i;
  }
}

/// FNV-1a fold of one value into `h`.
void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
}

struct EncoderKat {
  std::uint64_t digest;     ///< FNV-1a over every step's spike list
  std::size_t spikes;       ///< total spikes over all steps
  std::uint64_t next_draw;  ///< the Rng's next_u64() after the last step
};

EncoderKat run_encoder_kat(float max_rate, const std::vector<float>& image,
                           std::uint64_t seed, std::size_t steps) {
  PoissonEncoder enc(max_rate);
  enc.set_image(image);
  Rng rng(seed);
  std::vector<std::uint32_t> spikes;
  EncoderKat out{0xcbf29ce484222325ULL, 0, 0};
  for (std::size_t t = 0; t < steps; ++t) {
    enc.step(rng, spikes);
    fnv_mix(out.digest, spikes.size());
    for (const auto i : spikes) fnv_mix(out.digest, i);
    out.spikes += spikes.size();
  }
  out.next_draw = rng.next_u64();
  return out;
}

TEST(PoissonEncoder, SpikeListsMatchKnownAnswers) {
  // Pinned on the floating-point compare the integer-threshold step
  // replaced: spike lists and the next Rng draw over a fixed corpus.
  // A digit-like image (about 40% zero pixels):
  std::vector<float> digit(784);
  Rng img(101);
  for (auto& p : digit)
    p = img.uniform() < 0.4 ? 0.0f : static_cast<float>(img.uniform());
  // Edge pixels: p = 1 exactly, p * 2^53 an integer (0.5, 0.375, 0.3f),
  // and tiny p whose p * 2^53 is not an integer, down to a subnormal.
  const std::vector<float> edges{1.0f,   0.5f,   0.375f, 0.3f,  0.0f,
                                 1e-10f, 3e-12f, 1e-30f, 1e-40f, 0.999999f,
                                 0x1.0p-20f, 0.7f};
  const struct {
    float max_rate;
    const std::vector<float>* image;
    std::uint64_t seed;
    EncoderKat want;
  } cases[] = {
      {0.30f, &digit, 5,
       {0xfb9db7882c772b6eULL, 21668, 0xe06af6e714e24919ULL}},
      {1.00f, &digit, 6,
       {0x4891eb3a9a9d8ae9ULL, 72977, 0xe9558bd662671158ULL}},
      {1.00f, &edges, 7,
       {0x39359d7d0276c20cULL, 1179, 0x5e33d998cb51c8f6ULL}},
      {0.25f, &edges, 8,
       {0xaa1b8b12d2180e8eULL, 257, 0xfe14d32757b2b21cULL}},
  };
  for (const auto& c : cases) {
    const auto got = run_encoder_kat(c.max_rate, *c.image, c.seed, 300);
    EXPECT_EQ(got.digest, c.want.digest) << "seed " << c.seed;
    EXPECT_EQ(got.spikes, c.want.spikes) << "seed " << c.seed;
    EXPECT_EQ(got.next_draw, c.want.next_draw) << "seed " << c.seed;
  }
}

TEST(PoissonEncoder, DeterministicPerRngStream) {
  // Identical Rng states must produce identical spike trains — the property
  // every fork-per-sample evaluation path in the framework leans on.
  PoissonEncoder enc(0.5f);
  std::vector<float> image(50);
  Rng img_rng(11);
  for (auto& p : image) p = static_cast<float>(img_rng.uniform());
  enc.set_image(image);
  Rng a(42), b(42), c(43);
  std::vector<std::uint32_t> sa, sb, sc;
  bool any_difference_from_c = false;
  for (std::size_t t = 0; t < 200; ++t) {
    enc.step(a, sa);
    enc.step(b, sb);
    enc.step(c, sc);
    EXPECT_EQ(sa, sb) << "same seed diverged at step " << t;
    any_difference_from_c |= sa != sc;
  }
  EXPECT_TRUE(any_difference_from_c) << "different seeds never diverged";
}

TEST(PoissonEncoder, SpikeIndicesAreSortedActivePixels) {
  PoissonEncoder enc(1.0f);
  const std::vector<float> image{0.0f, 0.8f, 0.0f, 0.9f, 0.7f};
  enc.set_image(image);
  Rng rng(3);
  std::vector<std::uint32_t> spikes;
  for (std::size_t t = 0; t < 100; ++t) {
    enc.step(rng, spikes);
    for (std::size_t k = 0; k < spikes.size(); ++k) {
      EXPECT_GT(image[spikes[k]], 0.0f) << "zero pixel spiked";
      if (k > 0) {
        EXPECT_LT(spikes[k - 1], spikes[k]) << "indices unsorted";
      }
    }
  }
}

TEST(PoissonEncoder, ZeroPixelsNeverSpikeAndFullIntensityAlwaysDoes) {
  // At max_rate 1.0 a full-intensity pixel fires every step (uniform() < 1
  // is certain); zero pixels are not even enumerated as active.
  PoissonEncoder enc(1.0f);
  enc.set_image({1.0f, 0.0f, 1.0f});
  Rng rng(5);
  std::vector<std::uint32_t> spikes;
  for (std::size_t t = 0; t < 50; ++t) {
    enc.step(rng, spikes);
    ASSERT_EQ(spikes.size(), 2u);
    EXPECT_EQ(spikes[0], 0u);
    EXPECT_EQ(spikes[1], 2u);
  }
}

TEST(PoissonEncoder, ExpectedSpikesPerStepSumsActiveProbabilities) {
  PoissonEncoder enc(0.4f);
  enc.set_image({0.5f, 0.0f, 1.0f});
  EXPECT_NEAR(enc.expected_spikes_per_step(), 0.5 * 0.4 + 1.0 * 0.4, 1e-6);
  enc.set_image(std::vector<float>(10, 0.0f));
  EXPECT_EQ(enc.expected_spikes_per_step(), 0.0);
}

TEST(PoissonEncoder, SetImageResetsTheActiveSet) {
  PoissonEncoder enc(1.0f);
  enc.set_image({1.0f, 1.0f});
  enc.set_image({0.0f, 1.0f});  // the first image must not linger
  Rng rng(9);
  std::vector<std::uint32_t> spikes;
  enc.step(rng, spikes);
  ASSERT_EQ(spikes.size(), 1u);
  EXPECT_EQ(spikes[0], 1u);
}

TEST(PoissonEncoder, RejectsBadRatesAndIntensities) {
  EXPECT_THROW(PoissonEncoder(0.0f), ContractViolation);
  EXPECT_THROW(PoissonEncoder(-0.1f), ContractViolation);
  EXPECT_THROW(PoissonEncoder(1.5f), ContractViolation);
  PoissonEncoder enc(0.5f);
  EXPECT_THROW(enc.set_image({0.5f, 1.2f}), ContractViolation);
}

TEST(PoissonEncoder, RejectsNegativeAndNanIntensities) {
  // Regression: the `> 0.0f` activity filter used to run before any
  // validation, so negative and NaN pixels slipped through silently as
  // "inactive" instead of failing the [0,1] domain contract.
  PoissonEncoder enc(0.5f);
  EXPECT_THROW(enc.set_image({0.5f, -0.1f}), ContractViolation);
  EXPECT_THROW(enc.set_image({-1.0f}), ContractViolation);
  EXPECT_THROW(enc.set_image({0.5f, std::nanf("")}), ContractViolation);
  // A rejected image must not leave a partial active set behind.
  enc.set_image({1.0f, 0.0f});
  EXPECT_EQ(enc.active_pixels(), 1u);
}

TEST(PoissonEncoder, RejectedImageLeavesAnEmptyEncoder) {
  // A short image first, so a stale threshold array would be shorter than
  // the rejected image's active set; then a long image whose last pixel is
  // out of range. The encoder must be left empty and consistent: step()
  // draws nothing and emits nothing rather than reading stale thresholds.
  PoissonEncoder enc(1.0f);
  enc.set_image({1.0f});
  std::vector<float> bad(64, 1.0f);
  bad.back() = 2.0f;
  EXPECT_THROW(enc.set_image(bad), ContractViolation);
  EXPECT_EQ(enc.active_pixels(), 0u);
  EXPECT_EQ(enc.expected_spikes_per_step(), 0.0);
  Rng rng(3), untouched(3);
  std::vector<std::uint32_t> spikes{7u};
  enc.step(rng, spikes);
  EXPECT_TRUE(spikes.empty());
  EXPECT_EQ(rng.next_u64(), untouched.next_u64());
}

TEST(PoissonEncoder, ActivePixelsCountsNonZeroIntensities) {
  PoissonEncoder enc(0.5f);
  enc.set_image({0.0f, 0.3f, 1.0f, 0.0f});
  EXPECT_EQ(enc.active_pixels(), 2u);
  enc.set_image(std::vector<float>(8, 0.0f));
  EXPECT_EQ(enc.active_pixels(), 0u);
}

TEST(PoissonEncoder, CountActiveIsTheDrawCountOfEachStep) {
  // count_active shares set_image's definition of an active pixel, so it
  // predicts how far one step advances the Rng.
  const std::vector<std::vector<float>> images{
      {0.0f, 0.3f, 1.0f, 0.0f}, std::vector<float>(9, 0.0f),
      std::vector<float>(9, 1.0f), {std::nextafter(0.0f, 1.0f), 0.5f}};
  PoissonEncoder enc(0.4f);
  for (const auto& image : images) {
    enc.set_image(image);
    EXPECT_EQ(PoissonEncoder::count_active(image), enc.active_pixels());
    Rng stepped(8), skipped(8);
    std::vector<std::uint32_t> spikes;
    enc.step(stepped, spikes);
    skipped.discard(PoissonEncoder::count_active(image));
    EXPECT_EQ(stepped.next_u64(), skipped.next_u64());
  }
  EXPECT_THROW((void)PoissonEncoder::count_active({0.5f, 1.5f}),
               ContractViolation);
  EXPECT_THROW((void)PoissonEncoder::count_active({std::nanf("")}),
               ContractViolation);
  EXPECT_THROW((void)PoissonEncoder::count_active({-0.0f, -0.1f}),
               ContractViolation);
}

TEST(PoissonEncoder, EncodeMakesTheDrawsOfThatManySteps) {
  // A dense image, then a sparse one into the same raster: each raster
  // holds exactly the spikes of T step() calls, sized by the spikes drawn.
  std::vector<float> dense(50);
  for (std::size_t i = 0; i < dense.size(); ++i)
    dense[i] = static_cast<float>(i % 5) / 4.0f;
  std::vector<float> sparse{0.0f, 0.9f, 0.0f, 0.0f, 0.2f};
  PoissonEncoder enc(0.6f);
  SpikeRaster raster;
  for (const auto* image : {&dense, &sparse}) {
    enc.set_image(*image);
    Rng a(21), b(21);
    enc.encode(a, 37, raster);
    EXPECT_EQ(raster.inputs(), image->size());
    ASSERT_EQ(raster.steps(), 37u);
    std::size_t total = 0;
    std::vector<std::uint32_t> spikes;
    for (std::size_t t = 0; t < 37; ++t) {
      enc.step(b, spikes);
      const auto step = raster.step(t);
      EXPECT_EQ(std::vector<std::uint32_t>(step.begin(), step.end()), spikes)
          << "step " << t;
      total += spikes.size();
    }
    EXPECT_EQ(raster.size(), total);
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  // Zero steps: an empty raster, no draws.
  Rng r(4);
  enc.encode(r, 0, raster);
  EXPECT_EQ(raster.steps(), 0u);
  EXPECT_EQ(raster.size(), 0u);
  EXPECT_EQ(r.next_u64(), Rng(4).next_u64());
}

}  // namespace
}  // namespace sparkxd::snn

// Tests for the approximate-DRAM error substrate: subarray profiles, the
// four EDEN error models, weak-cell determinism/nesting, and injection
// statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "common/contracts.hpp"
#include "energy/ber_model.hpp"
#include "error/injector.hpp"
#include "mapping/mapping.hpp"

namespace sparkxd::error {
namespace {

dram::Geometry geom() { return dram::Geometry::lpddr3_4gb(); }

/// A placement + weight buffer big enough for meaningful statistics.
struct InjectorFixture {
  dram::Geometry g = geom();
  SubarrayProfile profile{g, 42};
  std::size_t n_weights = 200000;
  ChunkPlacement placement =
      mapping::baseline_placement(g, n_weights);
  std::vector<float> weights = std::vector<float>(n_weights, 0.1f);
};

// ------------------------------------------------------------------- profile

TEST(SubarrayProfile, DeterministicPerSeed) {
  const SubarrayProfile a(geom(), 7), b(geom(), 7), c(geom(), 8);
  for (std::uint64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.weakness(i), b.weakness(i));
  }
  bool differs = false;
  for (std::uint64_t i = 0; i < a.size() && !differs; ++i)
    differs = a.weakness(i) != c.weakness(i);
  EXPECT_TRUE(differs);
}

TEST(SubarrayProfile, WeaknessMeanNearOne) {
  // Use a bigger module for tighter statistics.
  auto g = geom();
  g.subarrays_per_bank = 512;
  const SubarrayProfile p(g, 3);
  double sum = 0.0;
  for (std::uint64_t i = 0; i < p.size(); ++i) sum += p.weakness(i);
  EXPECT_NEAR(sum / static_cast<double>(p.size()), 1.0, 0.1);
}

TEST(SubarrayProfile, RateScalesWithModuleBer) {
  const SubarrayProfile p(geom(), 7);
  EXPECT_DOUBLE_EQ(p.rate(0, 0.0), 0.0);
  EXPECT_NEAR(p.rate(0, 1e-4) / p.rate(0, 1e-6), 100.0, 1e-6);
}

TEST(SubarrayProfile, RateClampedAtHalf) {
  const SubarrayProfile p(geom(), 7, 2.0);  // wide spread
  for (std::uint64_t i = 0; i < p.size(); ++i)
    EXPECT_LE(p.rate(i, 0.4), 0.5);
}

TEST(SubarrayProfile, CountSafeMonotoneInThreshold) {
  const SubarrayProfile p(geom(), 7);
  const double ber = 1e-3;
  std::size_t prev = 0;
  for (const double th : {1e-5, 1e-4, 1e-3, 1e-2, 1.0}) {
    const auto n = p.count_safe(ber, th);
    EXPECT_GE(n, prev);
    prev = n;
  }
  EXPECT_EQ(p.count_safe(ber, 1.0), p.size());
}

TEST(SubarrayProfile, HalfSafeAtThresholdEqualBer) {
  // weakness is lognormal with median < mean=1: more than half the
  // subarrays have rate <= module BER.
  const SubarrayProfile p(geom(), 7);
  const auto safe = p.count_safe(1e-3, 1e-3);
  EXPECT_GT(safe, p.size() / 2);
  EXPECT_LT(safe, p.size());
}

TEST(SubarrayProfile, ZeroSigmaIsUniform) {
  const SubarrayProfile p(geom(), 7, 0.0);
  for (std::uint64_t i = 0; i < p.size(); ++i)
    EXPECT_NEAR(p.weakness(i), 1.0, 1e-9);
}

TEST(SubarrayProfile, RejectsOutOfRange) {
  const SubarrayProfile p(geom(), 7);
  EXPECT_THROW((void)p.weakness(p.size()), ContractViolation);
  EXPECT_THROW((void)p.rate(0, 2.0), ContractViolation);
}

// ------------------------------------------------------------------ injector

TEST(Injector, ExpectedFlipRateMatchesBer) {
  InjectorFixture f;
  const double ber = 1e-3;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement, f.n_weights, 42,
                          ber);
  // The placement covers a couple of subarrays; the expected rate is
  // ber * (their average weakness), so compare against that.
  const auto bits = static_cast<double>(f.n_weights) * 32.0;
  const double expected = inj.expected_flips(ber);
  Rng rng(1);
  double total = 0.0;
  const int trials = 5;
  for (int t = 0; t < trials; ++t) {
    auto w = f.weights;
    total += static_cast<double>(inj.freeze(ber).inject(w, rng));
  }
  const double measured = total / trials;
  EXPECT_NEAR(measured / expected, 1.0, 0.1);
  // And the absolute rate is the right order of magnitude.
  EXPECT_GT(measured / bits, ber * 0.1);
  EXPECT_LT(measured / bits, ber * 10.0);
}

TEST(Injector, WeakSetsAreNestedAcrossBer) {
  // Cells failing at a low BER must also fail at a higher BER (voltage
  // reduction only adds failures). inject_all_weak flips every weak cell,
  // so the flip count must be monotone in BER.
  InjectorFixture f;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement, f.n_weights, 42,
                          1e-3);
  std::size_t prev = 0;
  for (const double ber : {1e-6, 1e-5, 1e-4, 1e-3}) {
    auto w = f.weights;
    const auto flips = inj.inject_all_weak(w, ber);
    EXPECT_GE(flips, prev);
    prev = flips;
  }
  EXPECT_GT(prev, 0u);
}

TEST(Injector, FlippedCellsAtLowerBerAreSubsetOfHigherBer) {
  // Prefix stability of the sorted candidate list: the exact cells flipped
  // at BER b1 < b2 must be a subset of those flipped at b2, not merely
  // fewer. Zeroed weights + a clamp range wider than any single-flip value
  // (max 2^127) make the resulting bit pattern the exact weak-cell mask.
  InjectorFixture f;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement,
                                              f.n_weights, 42, 1e-3);
  const SanitizeRange wide{-3.4e38f, 3.4e38f};
  const auto mask_at = [&](double ber) {
    std::vector<float> w(f.n_weights, 0.0f);
    inj.inject_all_weak(w, ber, wide);
    std::vector<std::uint32_t> bits(f.n_weights);
    for (std::size_t i = 0; i < f.n_weights; ++i)
      bits[i] = float_to_bits(w[i]);
    return bits;
  };
  const auto low = mask_at(1e-5);
  const auto high = mask_at(1e-3);
  std::size_t low_bits = 0, high_bits = 0;
  for (std::size_t i = 0; i < f.n_weights; ++i) {
    EXPECT_EQ(low[i] & high[i], low[i]) << "weight " << i;
    low_bits += static_cast<std::size_t>(std::popcount(low[i]));
    high_bits += static_cast<std::size_t>(std::popcount(high[i]));
  }
  EXPECT_GT(low_bits, 0u);
  EXPECT_GT(high_bits, low_bits);
}

TEST(Injector, SameSeedSameWeakCells) {
  InjectorFixture f;
  const auto a = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement, f.n_weights, 42,
                        1e-3);
  const auto b = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement, f.n_weights, 42,
                        1e-3);
  auto wa = f.weights, wb = f.weights;
  (void)a.inject_all_weak(wa, 1e-3);
  (void)b.inject_all_weak(wb, 1e-3);
  EXPECT_EQ(wa, wb);
}

TEST(Injector, DifferentSeedDifferentWeakCells) {
  InjectorFixture f;
  const auto a = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement, f.n_weights, 42,
                        1e-3);
  const auto b = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement, f.n_weights, 43,
                        1e-3);
  auto wa = f.weights, wb = f.weights;
  (void)a.inject_all_weak(wa, 1e-3);
  (void)b.inject_all_weak(wb, 1e-3);
  EXPECT_NE(wa, wb);
}

TEST(Injector, ZeroBerNeverFlips) {
  InjectorFixture f;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement, f.n_weights, 42,
                          1e-3);
  Rng rng(1);
  auto w = f.weights;
  EXPECT_EQ(inj.freeze(0.0).inject(w, rng), 0u);
  EXPECT_EQ(w, f.weights);
}

TEST(Injector, SanitizeClampsCorruptedValues) {
  InjectorFixture f;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement, f.n_weights, 42,
                          1e-3);
  Rng rng(1);
  auto w = f.weights;
  (void)inj.freeze(1e-3).inject(w, rng, {0.0f, 0.4f});
  for (const float v : w) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 0.4f);
    EXPECT_FALSE(std::isnan(v));
  }
}

TEST(Injector, RejectsBerAboveMax) {
  InjectorFixture f;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement, f.n_weights, 42,
                          1e-5);
  Rng rng(1);
  auto w = f.weights;
  std::vector<std::uint8_t> bytes(f.n_weights * sizeof(float));
  EXPECT_THROW((void)inj.freeze(1e-3), ContractViolation);
  EXPECT_THROW((void)inj.inject_all_weak(w, 1e-3), ContractViolation);
  EXPECT_THROW((void)inj.inject_bytes(bytes.data(), bytes.size(), 1e-3, rng),
               ContractViolation);
}

TEST(Injector, ExpectedFlipsRejectsBerAboveMax) {
  // Candidates exist only up to max_ber, so an expectation above it would
  // silently report the max_ber value; it must fail like every other
  // BER-taking member instead.
  InjectorFixture f;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement,
                                              f.n_weights, 42, 1e-5);
  EXPECT_GT(inj.expected_flips(1e-5), 0.0);
  EXPECT_THROW((void)inj.expected_flips(1e-3), ContractViolation);
}

TEST(Injector, RejectsUndersizedPlacement) {
  InjectorFixture f;
  ChunkPlacement tiny(f.placement.begin(), f.placement.begin() + 2);
  EXPECT_THROW(ErrorInjector::for_weights(f.g, f.profile, {}, tiny,
                                          f.n_weights, 42, 1e-3),
               ContractViolation);
}

TEST(Injector, FlipProbabilityIsHalfForWeakCells) {
  InjectorFixture f;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement, f.n_weights, 42,
                          1e-3);
  auto w_all = f.weights;
  const auto all = inj.inject_all_weak(w_all, 1e-3);
  Rng rng(2);
  double sum = 0.0;
  for (int t = 0; t < 10; ++t) {
    auto w = f.weights;
    sum += static_cast<double>(inj.freeze(1e-3).inject(w, rng));
  }
  EXPECT_NEAR(sum / 10.0 / static_cast<double>(all), kWeakCellFailProb, 0.05);
}

// ------------------------------------------------------------ error models

class ModelKinds : public ::testing::TestWithParam<ErrorModelKind> {};

TEST_P(ModelKinds, AllModelsProduceExpectedOrderOfFlips) {
  InjectorFixture f;
  ErrorModelSpec spec;
  spec.kind = GetParam();
  const double ber = 1e-3;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, spec, f.placement, f.n_weights, 42,
                          ber);
  Rng rng(3);
  auto w = f.weights;
  const auto flips = inj.freeze(ber).inject(w, rng);
  const auto bits = static_cast<double>(f.n_weights) * 32.0;
  EXPECT_GT(flips, bits * ber * 0.05);
  EXPECT_LT(flips, bits * ber * 20.0);
}

TEST_P(ModelKinds, ToStringIsStable) {
  EXPECT_NE(std::string(to_string(GetParam())).find("Model"),
            std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelKinds,
    ::testing::Values(ErrorModelKind::kModel0Uniform,
                      ErrorModelKind::kModel1Bitline,
                      ErrorModelKind::kModel2Wordline,
                      ErrorModelKind::kModel3DataDependent),
    [](const auto& info) {
      switch (info.param) {
        case ErrorModelKind::kModel0Uniform: return "Model0";
        case ErrorModelKind::kModel1Bitline: return "Model1";
        case ErrorModelKind::kModel2Wordline: return "Model2";
        case ErrorModelKind::kModel3DataDependent: return "Model3";
      }
      return "unknown";
    });

TEST(ErrorModels, Model1ConcentratesOnBitlines) {
  // Under Model-1, weak cells cluster on a subset of bitlines; under
  // Model-0 they spread across all of them. With the baseline placement a
  // weight's bitline within its row is (weight_index mod 512, bit), so we
  // count how many distinct bitlines receive at least one flip.
  InjectorFixture f;
  const std::size_t bitlines = 512 * 32;
  const auto distinct_bitlines = [&](ErrorModelKind kind) {
    ErrorModelSpec spec;
    spec.kind = kind;
    spec.stripe_sigma = 2.0;
    const auto inj = ErrorInjector::for_weights(f.g, f.profile, spec, f.placement, f.n_weights,
                            42, 1e-3);
    auto w = f.weights;
    (void)inj.inject_all_weak(w, 1e-3);
    std::vector<char> hit(bitlines, 0);
    const std::uint32_t clean = float_to_bits(0.1f);
    for (std::size_t i = 0; i < w.size(); ++i) {
      const std::uint32_t diff = float_to_bits(w[i]) ^ clean;
      if (!diff) continue;
      for (unsigned b = 0; b < 32; ++b)
        if ((diff >> b) & 1u) hit[(i % 512) * 32 + b] = 1;
    }
    std::size_t n = 0;
    for (const char h : hit) n += static_cast<std::size_t>(h);
    return n;
  };
  const auto m0 = distinct_bitlines(ErrorModelKind::kModel0Uniform);
  const auto m1 = distinct_bitlines(ErrorModelKind::kModel1Bitline);
  EXPECT_LT(m1, m0 * 8 / 10) << "Model-1 flips should cluster on fewer "
                                "bitlines than Model-0";
}

TEST(ErrorModels, Model3PrefersSetBits) {
  // With p1 >> p0, weak cells holding 1 flip far more often than those
  // holding 0. Use an all-bits-set weight vs an all-bits-clear one.
  InjectorFixture f;
  ErrorModelSpec spec;
  spec.kind = ErrorModelKind::kModel3DataDependent;
  spec.p1 = 0.99;
  spec.p0 = 0.01;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, spec, f.placement, f.n_weights, 42,
                          1e-3);
  Rng rng(5);
  std::vector<float> ones(f.n_weights, bits_to_float(0xFFFFFFFFu));
  std::vector<float> zeros(f.n_weights, bits_to_float(0x0u));
  // No sanitization (lo=-inf style range wide enough): use a huge range so
  // flips are counted, not clamped away.
  const SanitizeRange wide{-3.4e38f, 3.4e38f};
  const auto frozen = inj.freeze(1e-3);
  const auto flips_ones = frozen.inject(ones, rng, wide);
  const auto flips_zeros = frozen.inject(zeros, rng, wide);
  EXPECT_GT(flips_ones, flips_zeros * 5);
}

// ---------------------------------------- delta injection + frozen tables

TEST(DeltaInjection, RevertRestoresWeightsBitwise) {
  InjectorFixture f;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement,
                                              f.n_weights, 42, 1e-3);
  Rng rng(11);
  auto w = f.weights;
  std::vector<WeightFlip> log;
  const auto flips = inj.freeze(1e-3).inject(w, rng, {0.0f, 0.4f}, &log);
  ASSERT_GT(flips, 0u);
  EXPECT_EQ(flips, log.size());
  EXPECT_NE(w, f.weights);
  revert_flips(w, log);
  EXPECT_EQ(w, f.weights);  // exact pre-injection bit patterns
}

TEST(DeltaInjection, LoggingDoesNotChangeTheInjection) {
  InjectorFixture f;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement,
                                              f.n_weights, 42, 1e-3);
  Rng a(12), b(12);
  auto wa = f.weights, wb = f.weights;
  std::vector<WeightFlip> log;
  const auto frozen = inj.freeze(1e-3);
  const auto na = frozen.inject(wa, a);
  const auto nb = frozen.inject(wb, b, {}, &log);
  EXPECT_EQ(na, nb);
  EXPECT_EQ(wa, wb);
}

/// FNV-1a over the little-endian bytes of every weight's bit pattern.
std::uint64_t weight_bits_hash(const std::vector<float>& w) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const float v : w) {
    const std::uint32_t bits = float_to_bits(v);
    for (unsigned k = 0; k < 4; ++k) {
      h ^= (bits >> (8 * k)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// One injection's full observable outcome: the flip count, the resulting
/// weight bits, and the injection Rng's next draw (its stream position —
/// Monte-Carlo trials stay bit-identical only while streams stay aligned).
struct KnownAnswer {
  std::size_t flips;
  std::uint64_t weights_hash;
  std::uint64_t next_draw;
};

/// Injects `frozen` into a copy of the fixture weights from Rng(seed) and
/// checks the outcome against `want`. The known answers below were computed
/// with the per-call candidate scan that the frozen table replaced, on this
/// fixture with these seeds and sanitize ranges.
void expect_known_answer(const FrozenInjection& frozen,
                         std::vector<float> weights, std::uint64_t seed,
                         const SanitizeRange& sanitize,
                         const KnownAnswer& want) {
  Rng rng(seed);
  EXPECT_EQ(frozen.inject(weights, rng, sanitize), want.flips);
  EXPECT_EQ(weight_bits_hash(weights), want.weights_hash);
  EXPECT_EQ(rng.next_u64(), want.next_draw) << "Rng stream position moved";
}

TEST(FrozenInjection_, Model0KnownAnswers) {
  InjectorFixture f;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement,
                                              f.n_weights, 42, 1e-3);
  const std::pair<double, KnownAnswer> cases[] = {
      {1e-5, {31, 0x6160d3709c013396ULL, 0x06442abab71b6dd0ULL}},
      {1e-4, {301, 0xe8e0464b62fdcddeULL, 0x9d2fefb78c8dea8cULL}},
      {1e-3, {2974, 0x107f36f128294ba7ULL, 0x2ee1dbe1f2f73502ULL}},
  };
  for (const auto& [ber, want] : cases) {
    SCOPED_TRACE(ber);
    expect_known_answer(inj.freeze(ber), f.weights, 13, {0.0f, 0.4f}, want);
  }
}

TEST(FrozenInjection_, Model3KnownAnswer) {
  // Model-3 decides per stored bit value, so the table must read the
  // current bits in candidate order.
  InjectorFixture f;
  ErrorModelSpec spec;
  spec.kind = ErrorModelKind::kModel3DataDependent;
  spec.p1 = 0.9;
  spec.p0 = 0.1;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, spec,
                                              f.placement, f.n_weights, 42,
                                              1e-3);
  expect_known_answer(inj.freeze(1e-3), f.weights, 14, {0.0f, 0.4f},
                      {3375, 0x878f49ea65ad565eULL, 0x46bd6c0cf5b4e81bULL});
}

TEST(FrozenInjection_, TablesAreNestedAcrossBer) {
  InjectorFixture f;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement,
                                              f.n_weights, 42, 1e-3);
  std::size_t prev = 0;
  for (const double ber : {1e-6, 1e-5, 1e-4, 1e-3}) {
    const auto frozen = inj.freeze(ber);
    EXPECT_EQ(frozen.ber(), ber);
    EXPECT_GE(frozen.size(), prev);
    prev = frozen.size();
  }
  // At the enumerated maximum the table is the whole candidate list.
  EXPECT_EQ(inj.freeze(1e-3).size(), inj.candidate_count());
  EXPECT_THROW((void)inj.freeze(1e-2), ContractViolation);
}

TEST(FrozenInjection_, DeltaRoundTripThroughTheTable) {
  InjectorFixture f;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement,
                                              f.n_weights, 42, 1e-3);
  const auto frozen = inj.freeze(1e-3);
  Rng rng(15);
  auto w = f.weights;
  // Several consecutive inject/revert cycles on ONE buffer (the Monte-Carlo
  // trial pattern) must leave it untouched every time.
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<WeightFlip> log;
    const auto flips = frozen.inject(w, rng, {0.0f, 0.4f}, &log);
    EXPECT_EQ(flips, log.size());
    revert_flips(w, log);
    EXPECT_EQ(w, f.weights) << "trial " << trial;
  }
}

TEST(FrozenInjection_, CarriesRetentionCandidatesAtAnyBer) {
  // Retention-weak cells are below every BER threshold, so a table frozen
  // at BER 0 still injects them.
  InjectorFixture f;
  ErrorModelSpec spec;
  spec.retention.enabled = true;
  spec.retention.interval_multiplier = 32.0;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, spec,
                                              f.placement, f.n_weights, 42,
                                              0.0);
  const auto frozen = inj.freeze(0.0);
  EXPECT_EQ(frozen.size(), inj.retention_candidate_count());
  EXPECT_EQ(frozen.size(), 875u);
  expect_known_answer(frozen, f.weights, 16, {},
                      {449, 0xc15f9d35687abc6bULL, 0x31ff0d1943150026ULL});
}

// ---------------------------------------------------- enumeration known answers

/// FNV-1a over every candidate's (byte, bit, score bits), in table order.
std::uint64_t candidate_digest(const ErrorInjector& inj) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& c : inj.candidates()) {
    mix(c.byte_index);
    mix(c.bit);
    mix(std::bit_cast<std::uint64_t>(c.score));
  }
  return h;
}

/// 2501 chunks taken every 37th from the END of a long baseline walk, so
/// chunk order and address order disagree and the placement spans several
/// subarrays, rows and columns.
ChunkPlacement strided_placement(const dram::Geometry& g,
                                 std::size_t n_chunks) {
  const auto walk = mapping::baseline_placement(
      g, n_chunks * 37 * g.burst_bytes() / sizeof(float));
  ChunkPlacement p(n_chunks);
  for (std::size_t c = 0; c < n_chunks; ++c)
    p[c] = walk[walk.size() - 1 - c * 37];
  return p;
}

struct EnumerationKat {
  ErrorModelKind kind;
  bool retention;
  std::size_t count;
  std::size_t retention_count;
  std::uint64_t digest;
};

TEST(Injector, CandidateTablesMatchKnownAnswers) {
  // Pinned on the per-bit enumeration the per-chunk kernel replaced: every
  // model, with and without the retention axis, over a payload whose last
  // chunk (and last word) is only partly used.
  const auto g = geom();
  const SubarrayProfile profile(g, 42);
  const std::size_t n_bytes = 2500 * 32 + 7;
  const auto placement = strided_placement(g, 2501);
  const EnumerationKat kats[] = {
      {ErrorModelKind::kModel0Uniform, false,
       7547, 0, 0xd2d897cc6006fd3bULL},
      {ErrorModelKind::kModel0Uniform, true,
       9640, 2165, 0xd7785dae147dcd50ULL},
      {ErrorModelKind::kModel1Bitline, false,
       7365, 0, 0x5ada1258d4b4761eULL},
      {ErrorModelKind::kModel1Bitline, true,
       9460, 2165, 0x89c3aec54b9b19f1ULL},
      {ErrorModelKind::kModel2Wordline, false,
       7909, 0, 0x8bdfe4dd4ac49347ULL},
      {ErrorModelKind::kModel2Wordline, true,
       10001, 2165, 0xd268ed61517cabf9ULL},
      {ErrorModelKind::kModel3DataDependent, false,
       7547, 0, 0xd2d897cc6006fd3bULL},
      {ErrorModelKind::kModel3DataDependent, true,
       9640, 2165, 0xd7785dae147dcd50ULL},
  };
  for (const auto& kat : kats) {
    ErrorModelSpec spec;
    spec.kind = kat.kind;
    spec.retention.enabled = kat.retention;
    spec.retention.interval_multiplier = 32.0;
    const ErrorInjector inj(g, profile, spec, placement, n_bytes, 7, 5e-3);
    EXPECT_EQ(inj.candidate_count(), kat.count) << to_string(kat.kind);
    EXPECT_EQ(inj.retention_candidate_count(), kat.retention_count)
        << to_string(kat.kind);
    EXPECT_EQ(candidate_digest(inj), kat.digest) << to_string(kat.kind);
    for (const auto& c : inj.candidates()) ASSERT_LT(c.byte_index, n_bytes);
  }
}

TEST(ChunkCandidateTable, SweepInjectorsEqualStandaloneOnes) {
  // A 5-voltage grid of two-layer Algorithm-2 placements (overlapping across
  // voltages, each layer's last chunk partly used): every (voltage, layer)
  // injector built from one table over the union equals the enumerating
  // build, candidate for candidate, for every model with and without the
  // retention axis.
  const auto g = geom();
  const SubarrayProfile profile(g, 42);
  const energy::BerModel ber_model;
  const std::vector<double> voltages{1.325, 1.25, 1.175, 1.1, 1.025};
  const std::vector<std::size_t> layer_weights{784 * 64 + 3, 64 * 10 + 5};
  const std::vector<double> thresholds{1e-4, 1e-5};
  std::vector<std::vector<mapping::LayerPlacement>> places;
  std::vector<std::uint64_t> all_chunks;  // dram::encode_linear
  double table_ber = 0.0;
  for (const double v : voltages) {
    const double ber = ber_model.ber(v);
    table_ber = std::max(table_ber, std::max(ber, 1e-12));
    places.push_back(mapping::sparkxd_placement_layers(
        g, profile, ber, thresholds, layer_weights));
    for (const auto& lp : places.back())
      for (const auto& a : lp.chunks)
        all_chunks.push_back(dram::encode_linear(g, a));
  }
  for (const auto kind :
       {ErrorModelKind::kModel0Uniform, ErrorModelKind::kModel1Bitline,
        ErrorModelKind::kModel2Wordline,
        ErrorModelKind::kModel3DataDependent}) {
    for (const bool retention : {false, true}) {
      ErrorModelSpec spec;
      spec.kind = kind;
      spec.retention.enabled = retention;
      spec.retention.interval_multiplier = 16.0;
      const ChunkCandidateTable table(g, profile, spec, all_chunks, 42,
                                      table_ber);
      EXPECT_LT(table.chunk_count(), all_chunks.size())
          << "placements never overlapped";
      std::size_t non_empty = 0;
      for (std::size_t vi = 0; vi < voltages.size(); ++vi) {
        const double ber = std::max(ber_model.ber(voltages[vi]), 1e-12);
        for (std::size_t l = 0; l < layer_weights.size(); ++l) {
          const auto& chunks = places[vi][l].chunks;
          const auto want = ErrorInjector::for_weights(
              g, profile, spec, chunks, layer_weights[l], 42, ber);
          const ErrorInjector got(table, chunks,
                                  layer_weights[l] * sizeof(float), ber);
          EXPECT_EQ(got.retention_candidate_count(),
                    want.retention_candidate_count());
          EXPECT_EQ(got.payload_bytes(), want.payload_bytes());
          EXPECT_TRUE(std::ranges::equal(got.candidates(), want.candidates()))
              << to_string(kind) << (retention ? " +retention" : "")
              << " voltage " << voltages[vi] << " layer " << l;
          if (want.candidate_count() > 0) ++non_empty;
        }
      }
      // Not vacuous: the low-voltage pairs carry candidates.
      EXPECT_GE(non_empty, 4u) << to_string(kind);
    }
  }
  // A table cannot serve a BER above its own, nor a chunk it never saw.
  std::vector<std::uint64_t> layer1;
  for (const auto& a : places[0][1].chunks)
    layer1.push_back(dram::encode_linear(g, a));
  const ChunkCandidateTable small(g, profile, {}, layer1, 42, 1e-6);
  EXPECT_THROW(ErrorInjector(small, places[0][1].chunks, 4, 1e-5),
               ContractViolation);
  EXPECT_THROW(ErrorInjector(small, places[0][0].chunks, 4, 1e-6),
               ContractViolation);
}

// ----------------------------------------------------------------- retention

RetentionSpec retention_at(double multiplier) {
  RetentionSpec r;
  r.enabled = true;
  r.interval_multiplier = multiplier;
  return r;
}

ErrorModelSpec spec_with_retention(double multiplier) {
  ErrorModelSpec spec;
  spec.retention = retention_at(multiplier);
  return spec;
}

TEST(Retention, FailProbabilityShape) {
  // Disabled: exactly zero. Nominal cadence on an average subarray:
  // negligible (~1e-8). Each relaxation step raises it monotonically, as
  // does subarray weakness.
  EXPECT_EQ(retention_fail_probability(RetentionSpec{}, 1.0), 0.0);
  const double p1 = retention_fail_probability(retention_at(1.0), 1.0);
  EXPECT_GT(p1, 0.0);
  EXPECT_LT(p1, 1e-6);
  double prev = p1;
  for (const double m : {2.0, 4.0, 8.0, 16.0, 32.0, 64.0}) {
    const double p = retention_fail_probability(retention_at(m), 1.0);
    EXPECT_GT(p, prev) << "multiplier " << m;
    prev = p;
  }
  // 32x relaxation lands in the same decades as the voltage axis's BERs.
  const double p32 = retention_fail_probability(retention_at(32.0), 1.0);
  EXPECT_GT(p32, 1e-4);
  EXPECT_LT(p32, 1e-2);
  // Weak subarrays leak faster.
  EXPECT_GT(retention_fail_probability(retention_at(8.0), 4.0),
            retention_fail_probability(retention_at(8.0), 1.0));
  EXPECT_EQ(retention_fail_probability(retention_at(8.0), 0.0), 0.0);
}

TEST(Retention, SpecValidation) {
  EXPECT_NO_THROW(RetentionSpec{}.validate());  // disabled: anything goes
  EXPECT_NO_THROW(retention_at(64.0).validate());
  EXPECT_THROW(retention_at(0.5).validate(), ContractViolation);
  auto bad_sigma = retention_at(8.0);
  bad_sigma.sigma_decades = 0.0;
  EXPECT_THROW(bad_sigma.validate(), ContractViolation);
}

TEST(Retention, InjectorEnumeratesRetentionCandidates) {
  InjectorFixture f;
  // Voltage axis quiet (tiny max BER), retention relaxed 32x: candidates
  // are (almost) purely retention failures, deterministic per seed.
  const auto inj = ErrorInjector::for_weights(
      f.g, f.profile, spec_with_retention(32.0), f.placement, f.n_weights,
      42, 1e-12);
  EXPECT_GT(inj.retention_candidate_count(), 0u);
  EXPECT_LE(inj.retention_candidate_count(), inj.candidate_count());
  // ~p32 * 6.4M cells. The band is wide: the baseline placement packs the
  // payload into very few subarrays, so the draw of their weakness
  // multipliers moves the count through the nonlinear tail of Phi.
  const double p32 = retention_fail_probability(retention_at(32.0), 1.0);
  const double expected = p32 * static_cast<double>(f.n_weights) * 32;
  EXPECT_GT(static_cast<double>(inj.retention_candidate_count()),
            expected / 50);
  EXPECT_LT(static_cast<double>(inj.retention_candidate_count()),
            expected * 50);
  // Nominal cadence: the same payload carries (essentially) none.
  const auto nominal = ErrorInjector::for_weights(
      f.g, f.profile, spec_with_retention(1.0), f.placement, f.n_weights,
      42, 1e-12);
  EXPECT_LT(nominal.retention_candidate_count(), 5u);
  // Determinism in the seed.
  const auto again = ErrorInjector::for_weights(
      f.g, f.profile, spec_with_retention(32.0), f.placement, f.n_weights,
      42, 1e-12);
  EXPECT_EQ(again.retention_candidate_count(),
            inj.retention_candidate_count());
}

TEST(Retention, WeakSetsAreNestedAcrossMultipliers) {
  // A cell that leaks past an 8x window also leaks past a 32x window: the
  // deterministic per-cell uniform is compared against a larger probability,
  // so the flipped set at 8x is a subset of the one at 32x.
  InjectorFixture f;
  const auto flipped_at = [&](double multiplier) {
    const auto inj = ErrorInjector::for_weights(
        f.g, f.profile, spec_with_retention(multiplier), f.placement,
        f.n_weights, 42, 1e-12);
    auto w = f.weights;
    (void)inj.inject_all_weak(w, 1e-12);
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < w.size(); ++i)
      if (w[i] != f.weights[i]) idx.push_back(i);
    return idx;
  };
  const auto at8 = flipped_at(8.0);
  const auto at32 = flipped_at(32.0);
  ASSERT_FALSE(at32.empty());
  EXPECT_LT(at8.size(), at32.size());
  for (const auto i : at8)
    EXPECT_TRUE(std::binary_search(at32.begin(), at32.end(), i))
        << "weight " << i << " flipped at 8x but not at 32x";
}

TEST(Retention, ComposesWithVoltageWeakCellsWithoutDuplicates) {
  InjectorFixture f;
  const auto voltage_only = ErrorInjector::for_weights(
      f.g, f.profile, {}, f.placement, f.n_weights, 42, 1e-3);
  const auto composed = ErrorInjector::for_weights(
      f.g, f.profile, spec_with_retention(32.0), f.placement, f.n_weights,
      42, 1e-3);
  // The union grows and the retention share is accounted.
  EXPECT_GT(composed.candidate_count(), voltage_only.candidate_count());
  EXPECT_GT(composed.retention_candidate_count(), 0u);
  // No duplicate candidates: every reported flip changes a distinct bit, so
  // the number of changed bits equals the flip count (duplicates would
  // cancel pairwise and undercount). The full-float range keeps the
  // sanitizer from clamping extra bits away.
  auto w = f.weights;
  const auto flips = composed.inject_all_weak(
      w, 1e-3,
      {-std::numeric_limits<float>::max(), std::numeric_limits<float>::max()});
  std::size_t changed_bits = 0;
  for (std::size_t i = 0; i < w.size(); ++i)
    changed_bits += static_cast<std::size_t>(
        std::popcount(float_to_bits(w[i]) ^ float_to_bits(f.weights[i])));
  EXPECT_EQ(changed_bits, flips);
}

TEST(Retention, RetentionCellsFlipAtAnyInjectionBer) {
  // Retention failures do not care about the voltage: they flip even when
  // the injection BER is zero (the bank is at nominal voltage but the
  // refresh interval is relaxed).
  InjectorFixture f;
  const auto inj = ErrorInjector::for_weights(
      f.g, f.profile, spec_with_retention(32.0), f.placement, f.n_weights,
      42, 0.0);
  EXPECT_GT(inj.retention_candidate_count(), 0u);
  auto w = f.weights;
  const auto flips = inj.inject_all_weak(w, 0.0);
  EXPECT_EQ(flips, inj.retention_candidate_count());
}

}  // namespace
}  // namespace sparkxd::error

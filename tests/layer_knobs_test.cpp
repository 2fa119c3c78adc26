// Tests for the per-layer (voltage x refresh x ECC) operating-point search:
// determinism (thread count, candidate-enumeration order), the accuracy-floor
// property every chosen triple must satisfy, the honest fallback when no
// candidate is feasible, and ladder validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "core/layer_knobs.hpp"
#include "energy/ber_model.hpp"
#include "error/injector.hpp"
#include "error/retention.hpp"
#include "error/subarray_profile.hpp"
#include "mapping/mapping.hpp"
#include "test_env_util.hpp"

namespace sparkxd::core {
namespace {

/// A small two-layer search problem with generous tolerances, so both the
/// per-layer choices and the uniform baseline are feasible.
struct SearchSetup {
  dram::Geometry geometry = dram::Geometry::lpddr3_4gb();
  error::SubarrayProfile profile{geometry, 42};
  LayerKnobsConfig cfg;
  LayerKnobsInputs in;

  SearchSetup() {
    cfg.enabled = true;
    in.geometry = geometry;
    in.profile = &profile;
    in.voltages = {1.325, 1.175, 1.025};
    in.ecc = {error::EccKind::kSecded, 64, 0};
    in.layer_ber_th = {1e-3, 2e-4};
    in.layer_met_target = {true, true};
    in.layer_weights = {600, 300};
    in.salp = false;
    in.seed = 42;
  }
};

void expect_identical(const LayerKnobsReport& a, const LayerKnobsReport& b) {
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    const auto& x = a.layers[l];
    const auto& y = b.layers[l];
    EXPECT_EQ(x.v_supply, y.v_supply) << "layer " << l;
    EXPECT_EQ(x.refresh_multiplier, y.refresh_multiplier) << "layer " << l;
    EXPECT_EQ(x.ecc_scheme, y.ecc_scheme) << "layer " << l;
    EXPECT_EQ(x.raw_ber, y.raw_ber) << "layer " << l;
    EXPECT_EQ(x.tolerable_ber, y.tolerable_ber) << "layer " << l;
    EXPECT_EQ(x.energy_nj, y.energy_nj) << "layer " << l;
    EXPECT_EQ(x.meets_floor, y.meets_floor) << "layer " << l;
    EXPECT_EQ(x.retention_weak_cells, y.retention_weak_cells) << "layer " << l;
  }
  EXPECT_EQ(a.total_energy_nj, b.total_energy_nj);
  EXPECT_EQ(a.uniform_feasible, b.uniform_feasible);
  EXPECT_EQ(a.uniform_energy_nj, b.uniform_energy_nj);
  EXPECT_EQ(a.uniform.v_supply, b.uniform.v_supply);
  EXPECT_EQ(a.uniform.refresh_multiplier, b.uniform.refresh_multiplier);
  EXPECT_EQ(a.uniform.ecc_scheme, b.uniform.ecc_scheme);
}

TEST(LayerKnobs, RetentionCountEqualsTheInjectorCountAtEveryRung) {
  // The search reports each choice's retention-weak cells through the
  // retention-only count; it must equal what a full injector over the same
  // region reports, at every rung of the default refresh ladder, for layers
  // whose last chunk is partly used.
  const dram::Geometry g = dram::Geometry::lpddr3_4gb();
  const error::SubarrayProfile profile(g, 42);
  const std::vector<std::size_t> layer_weights{784 * 64 + 3, 64 * 10 + 5};
  const auto places = mapping::baseline_placement_layers(g, layer_weights);
  for (const double m : LayerKnobsConfig{}.refresh_ladder) {
    error::ErrorModelSpec spec;
    spec.retention.enabled = true;
    spec.retention.interval_multiplier = m;
    for (std::size_t l = 0; l < layer_weights.size(); ++l) {
      const auto injector = error::ErrorInjector::for_weights(
          g, profile, spec, places[l], layer_weights[l], 42, 1e-3);
      EXPECT_EQ(error::count_retention_cells(g, profile, spec, places[l],
                                             layer_weights[l] * sizeof(float),
                                             42),
                injector.retention_candidate_count())
          << "layer " << l << " x" << m;
    }
  }
  EXPECT_EQ(error::count_retention_cells(g, profile, {}, places[0],
                                         layer_weights[0] * sizeof(float), 42),
            0u);
}

TEST(LayerKnobs, LadderValidation) {
  LayerKnobsConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  cfg.refresh_ladder = {};
  EXPECT_THROW(cfg.validate(), ContractViolation);
  cfg.refresh_ladder = {0.5};
  EXPECT_THROW(cfg.validate(), ContractViolation);
  cfg.refresh_ladder = {1.0, 4.0, 2.0};  // not ascending
  EXPECT_THROW(cfg.validate(), ContractViolation);
  cfg.refresh_ladder = {1.0, 2.0, 2.0};  // not strictly
  EXPECT_THROW(cfg.validate(), ContractViolation);
}

TEST(LayerKnobs, EveryChosenTripleMeetsTheFloorItWasSelectedUnder) {
  SearchSetup s;
  const auto report = assign_layer_knobs(s.cfg, s.in);
  const energy::BerModel ber_model;
  ASSERT_EQ(report.layers.size(), s.in.layer_weights.size());
  for (std::size_t l = 0; l < report.layers.size(); ++l) {
    const auto& c = report.layers[l];
    EXPECT_TRUE(c.meets_floor) << "layer " << l;
    EXPECT_LE(c.raw_ber, c.tolerable_ber) << "layer " << l;
    // The recorded raw BER is the voltage BER composed with the retention
    // failure probability of the chosen cadence — recompute it.
    error::RetentionSpec ret = s.in.error_model.retention;
    ret.enabled = true;
    ret.interval_multiplier = c.refresh_multiplier;
    const double p_v = ber_model.ber(c.v_supply);
    const double p_ret = error::retention_fail_probability(ret, 1.0);
    EXPECT_NEAR(c.raw_ber, 1.0 - (1.0 - p_v) * (1.0 - p_ret), 1e-15)
        << "layer " << l;
    EXPECT_GT(c.energy_nj, 0.0) << "layer " << l;
    // The chosen knobs come from the candidate axes.
    EXPECT_NE(std::find(s.in.voltages.begin(), s.in.voltages.end(),
                        c.v_supply),
              s.in.voltages.end());
    EXPECT_NE(std::find(s.cfg.refresh_ladder.begin(),
                        s.cfg.refresh_ladder.end(), c.refresh_multiplier),
              s.cfg.refresh_ladder.end());
  }
  // The per-layer assignment minimizes over a superset of any uniform
  // triple, so its total can never exceed the uniform baseline.
  ASSERT_TRUE(report.uniform_feasible);
  EXPECT_LE(report.total_energy_nj, report.uniform_energy_nj);
  EXPECT_GT(report.uniform_energy_nj, 0.0);
}

TEST(LayerKnobs, ChosenEnergiesMatchKnownAnswers) {
  // Exact doubles: the relational checks above would all still hold if the
  // stream cost billed refresh or ECC decode wrongly. SearchSetup's tiny
  // layers stream inside one tREFI (no REF fires; the ECC decode charge is
  // what these pin); the 100x larger layers stream long enough that every
  // candidate cadence fires REFs, so their region refresh bill is pinned
  // too (and the winners move off the datasheet cadence).
  SearchSetup s;
  const auto small = assign_layer_knobs(s.cfg, s.in);
  ASSERT_EQ(small.layers.size(), 2u);
  EXPECT_EQ(small.layers[0].energy_nj, 95.151909293552805);
  EXPECT_EQ(small.layers[1].energy_nj, 48.045498113854585);
  EXPECT_EQ(small.total_energy_nj, 143.19740740740738);
  ASSERT_TRUE(small.uniform_feasible);
  EXPECT_EQ(small.uniform_energy_nj, 143.19740740740738);

  SearchSetup big;
  big.in.layer_weights = {60000, 30000};
  const auto large = assign_layer_knobs(big.cfg, big.in);
  ASSERT_EQ(large.layers.size(), 2u);
  EXPECT_EQ(large.layers[0].refresh_multiplier, 8.0);
  EXPECT_EQ(large.layers[1].refresh_multiplier, 4.0);
  EXPECT_EQ(large.layers[0].energy_nj, 9240.8950437242784);
  EXPECT_EQ(large.layers[1].energy_nj, 4623.6266915294918);
  EXPECT_EQ(large.total_energy_nj, 13864.521735253769);
  ASSERT_TRUE(large.uniform_feasible);
  EXPECT_EQ(large.uniform_energy_nj, 13864.521735253769);
}

TEST(LayerKnobs, ResultIsThreadCountInvariant) {
  SearchSetup s;
  LayerKnobsReport serial, parallel8;
  {
    testutil::ThreadsOverride threads("1");
    serial = assign_layer_knobs(s.cfg, s.in);
  }
  {
    testutil::ThreadsOverride threads("8");
    parallel8 = assign_layer_knobs(s.cfg, s.in);
  }
  expect_identical(serial, parallel8);
}

TEST(LayerKnobs, ResultIsInvariantToCandidateEnumerationOrder) {
  // The winner is chosen by a value-based order (energy, then higher
  // voltage, then lower multiplier, then weaker code), so permuting the
  // voltage grid — which permutes the candidate enumeration — must not
  // change any chosen triple bit for bit.
  SearchSetup s;
  const auto forward = assign_layer_knobs(s.cfg, s.in);
  SearchSetup r;
  std::reverse(r.in.voltages.begin(), r.in.voltages.end());
  const auto reversed = assign_layer_knobs(r.cfg, r.in);
  expect_identical(forward, reversed);
}

TEST(LayerKnobs, InfeasibleLayerFallsBackToSafestTripleHonestly) {
  SearchSetup s;
  // Layer 1's tolerance was never met: no candidate may claim the floor.
  s.in.layer_met_target = {true, false};
  s.in.layer_ber_th = {1e-3, 0.0};
  const auto report = assign_layer_knobs(s.cfg, s.in);
  ASSERT_EQ(report.layers.size(), 2u);
  EXPECT_TRUE(report.layers[0].meets_floor);
  const auto& fallback = report.layers[1];
  EXPECT_FALSE(fallback.meets_floor);
  // Safest triple: first grid voltage (the highest), datasheet-closest
  // cadence, strongest rung of the escalation ladder.
  EXPECT_EQ(fallback.v_supply, s.in.voltages.front());
  EXPECT_EQ(fallback.refresh_multiplier, s.cfg.refresh_ladder.front());
  const auto ladder = error::ecc_escalation_ladder(s.in.ecc);
  EXPECT_EQ(fallback.ecc, ladder.back());
  // One infeasible layer makes every uniform triple infeasible too.
  EXPECT_FALSE(report.uniform_feasible);
}

TEST(LayerKnobs, RejectsMismatchedInputs) {
  SearchSetup s;
  s.in.layer_ber_th.pop_back();
  EXPECT_THROW((void)assign_layer_knobs(s.cfg, s.in), ContractViolation);
  SearchSetup p;
  p.in.profile = nullptr;
  EXPECT_THROW((void)assign_layer_knobs(p.cfg, p.in), ContractViolation);
  SearchSetup v;
  v.in.voltages.clear();
  EXPECT_THROW((void)assign_layer_knobs(v.cfg, v.in), ContractViolation);
}

}  // namespace
}  // namespace sparkxd::core

// Tests for the SparkXD core: corrupted evaluation, Algorithm 1 (fault-aware
// training), tolerance analysis (§IV-C), and the end-to-end pipeline.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "common/contracts.hpp"
#include "core/fault_aware.hpp"
#include "core/pipeline.hpp"
#include "error/ecc_scheme.hpp"
#include "mapping/mapping.hpp"
#include "test_env_util.hpp"

namespace sparkxd::core {
namespace {

/// Shared expensive fixture: one trained baseline + injector, reused by all
/// Algorithm-1 tests in this binary.
class FaultAwareFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    state = new State();
    state->all = data::make_dataset(data::Task::kDigits, 550, 42);
    state->train = state->all.take(400);
    state->test = state->all.drop(400);
    snn::NetworkConfig cfg;
    cfg.n_neurons = 100;
    cfg.seed = 42;
    Rng rng(42);
    state->baseline = std::make_unique<snn::TrainedModel>(
        snn::train_and_label(cfg, state->train, state->test, 2, rng));
    state->geometry = dram::Geometry::lpddr3_4gb();
    state->profile =
        std::make_unique<error::SubarrayProfile>(state->geometry, 42);
    const std::size_t n_weights = cfg.n_inputs * cfg.n_neurons;
    state->placement =
        mapping::baseline_placement(state->geometry, n_weights);
    state->injector = std::make_unique<error::ErrorInjector>(
        state->geometry, *state->profile, error::ErrorModelSpec{},
        state->placement, n_weights, 42, 1e-3);
    state->injectors = {state->injector.get()};
  }
  static void TearDownTestSuite() {
    delete state;
    state = nullptr;
  }

  struct State {
    data::Dataset all, train, test;
    std::unique_ptr<snn::TrainedModel> baseline;
    dram::Geometry geometry;
    std::unique_ptr<error::SubarrayProfile> profile;
    error::ChunkPlacement placement;
    std::unique_ptr<error::ErrorInjector> injector;
    LayerInjectors injectors;  ///< {injector}: the one-layer stack's list
  };
  static State* state;
};

FaultAwareFixture::State* FaultAwareFixture::state = nullptr;

TEST_F(FaultAwareFixture, EvaluateCorruptedRestoresWeights) {
  Rng rng(1);
  const auto before = state->baseline->net.weights(0);
  (void)evaluate_corrupted(state->baseline->net, state->baseline->labels,
                           state->injectors, 1e-3, state->test, rng);
  EXPECT_EQ(state->baseline->net.weights(0), before);
}

TEST_F(FaultAwareFixture, EvaluateCorruptedZeroBerEqualsClean) {
  // At BER 0 no bits flip, so the result must be reproducible per seed,
  // independent of which injector produced it, and equal to the clean
  // accuracy up to spike-train sampling noise (injection and evaluation use
  // separate Rng substreams, so the clean reference uses its own stream).
  Rng a(2), b(2), c(2);
  const double clean =
      snn::evaluate(state->baseline->net, state->baseline->labels,
                    state->test, a);
  const double corrupted =
      evaluate_corrupted(state->baseline->net, state->baseline->labels,
                         state->injectors, 0.0, state->test, b);
  const double again =
      evaluate_corrupted(state->baseline->net, state->baseline->labels,
                         state->injectors, 0.0, state->test, c);
  EXPECT_DOUBLE_EQ(corrupted, again);
  EXPECT_NEAR(clean, corrupted, 0.05);
}

TEST_F(FaultAwareFixture, HighBerDegradesBaseline) {
  // Common random numbers: with same-seeded parents the BER-0 and BER-1e-3
  // evaluations see identical spike trains, so the comparison isolates the
  // effect of the injected errors (small upward flukes from lucky flips
  // are still possible, hence the slack).
  Rng zero_rng(3), high_rng(3);
  const double uncorrupted =
      evaluate_corrupted(state->baseline->net, state->baseline->labels,
                         state->injectors, 0.0, state->test, zero_rng, 2);
  const double corrupted =
      evaluate_corrupted(state->baseline->net, state->baseline->labels,
                         state->injectors, 1e-3, state->test, high_rng, 2);
  EXPECT_LT(corrupted, uncorrupted + 0.02);
}

TEST_F(FaultAwareFixture, HotPathMatchesLegacySnapshotLoopBitwise) {
  // The optimized Monte-Carlo path (frozen candidate table + delta-revert +
  // reused inference scratch) against the pre-optimization reference loop:
  // full snapshot restore per trial + a per-trial candidate freeze + a
  // fresh evaluation each time. Stream derivation is the documented contract
  // (stream = rng.next_u64(); trial t draws hash_combine(stream, 2t) /
  // (2t+1)), so the means must agree bit for bit.
  const std::size_t trials = 3;
  const double ber = 1e-3;
  Rng fast_rng(21), ref_rng(21);
  const double fast =
      evaluate_corrupted(state->baseline->net, state->baseline->labels,
                         state->injectors, ber, state->test, fast_rng,
                         trials);
  const error::SanitizeRange sanitize{
      state->baseline->net.config().stdp.w_min, kDefaultWeightClip};
  const std::uint64_t stream = ref_rng.next_u64();
  snn::Network scratch = state->baseline->net;
  const std::vector<float> snapshot = state->baseline->net.weights(0);
  double sum = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    Rng inject_rng(hash_combine(stream, 2 * t));
    Rng eval_rng(hash_combine(stream, 2 * t + 1));
    if (t != 0) scratch.weights_mut(0) = snapshot;
    state->injector->freeze(ber).inject(scratch.weights_mut(0), inject_rng,
                                        sanitize);
    sum += snn::evaluate(scratch, state->baseline->labels, state->test,
                         eval_rng);
  }
  const double reference = sum / static_cast<double>(trials);
  EXPECT_EQ(fast, reference);  // bitwise, not approximately
}

TEST_F(FaultAwareFixture, RejectsZeroTrials) {
  Rng rng(4);
  EXPECT_THROW(
      (void)evaluate_corrupted(state->baseline->net,
                               state->baseline->labels, state->injectors,
                               1e-3, state->test, rng, 0),
      ContractViolation);
}

TEST_F(FaultAwareFixture, Algorithm1ImprovesCorruptedAccuracy) {
  FaultTrainingConfig cfg;
  cfg.ber_stages = {1e-7, 1e-5, 1e-3};
  Rng rng(5);
  const auto result = improve_error_tolerance(
      *state->baseline, cfg, state->injectors, state->train, state->test,
      rng);
  ASSERT_TRUE(result.met_target);
  EXPECT_EQ(result.stage_curve.size(), 3u);
  // The improved model under corruption at BER_th meets the paper's bound.
  Rng eval_rng(6);
  auto improved = result.improved;
  const double acc = evaluate_corrupted(improved.net, improved.labels,
                                        state->injectors, result.ber_th,
                                        state->test, eval_rng, 2);
  EXPECT_GE(acc,
            state->baseline->clean_accuracy - cfg.accuracy_bound - 0.03);
}

TEST_F(FaultAwareFixture, Algorithm1BerThIsAStageValue) {
  FaultTrainingConfig cfg;
  cfg.ber_stages = {1e-7, 1e-5, 1e-3};
  Rng rng(7);
  const auto result = improve_error_tolerance(
      *state->baseline, cfg, state->injectors, state->train, state->test,
      rng);
  if (result.met_target) {
    bool found = false;
    for (const double s : cfg.ber_stages) found |= s == result.ber_th;
    EXPECT_TRUE(found);
  }
}

TEST_F(FaultAwareFixture, Algorithm1RejectsBadSchedules) {
  FaultTrainingConfig cfg;
  cfg.ber_stages = {};
  Rng rng(8);
  EXPECT_THROW((void)improve_error_tolerance(*state->baseline, cfg,
                                             state->injectors, state->train,
                                             state->test, rng),
               ContractViolation);
  cfg.ber_stages = {1e-3, 1e-5};  // descending
  EXPECT_THROW((void)improve_error_tolerance(*state->baseline, cfg,
                                             state->injectors, state->train,
                                             state->test, rng),
               ContractViolation);
  cfg.ber_stages = {1e-5};
  cfg.epochs_per_stage = 0;
  EXPECT_THROW((void)improve_error_tolerance(*state->baseline, cfg,
                                             state->injectors, state->train,
                                             state->test, rng),
               ContractViolation);
}

TEST_F(FaultAwareFixture, ToleranceCurveIsRecordedAscending) {
  Rng rng(9);
  auto model = *state->baseline;  // copy
  const std::vector<double> rates{1e-7, 1e-5, 1e-3};
  const auto analysis =
      analyze_layer_tolerance(model.net, model.labels, state->injectors,
                              rates, 0.0, state->test, rng);
  ASSERT_EQ(analysis.size(), 1u);
  ASSERT_EQ(analysis[0].curve.size(), 3u);
  for (std::size_t i = 0; i < rates.size(); ++i)
    EXPECT_EQ(analysis[0].curve[i].ber, rates[i]);
  // target 0 -> every point passes -> BER_th is the last stage.
  EXPECT_TRUE(analysis[0].met_target);
  EXPECT_EQ(analysis[0].ber_th, 1e-3);
}

TEST_F(FaultAwareFixture, ToleranceUnreachableTarget) {
  Rng rng(10);
  auto model = *state->baseline;
  const auto analysis =
      analyze_layer_tolerance(model.net, model.labels, state->injectors,
                              {1e-5, 1e-3}, 1.01, state->test, rng);
  ASSERT_EQ(analysis.size(), 1u);
  EXPECT_FALSE(analysis[0].met_target);
  EXPECT_EQ(analysis[0].ber_th, 0.0);
}

TEST_F(FaultAwareFixture, ToleranceRejectsDescendingRates) {
  Rng rng(11);
  auto model = *state->baseline;
  EXPECT_THROW((void)analyze_layer_tolerance(model.net, model.labels,
                                             state->injectors, {1e-3, 1e-5},
                                             0.5, state->test, rng),
               ContractViolation);
}

TEST_F(FaultAwareFixture, ToleranceRejectsANullInjector) {
  Rng rng(12);
  auto model = *state->baseline;
  EXPECT_THROW((void)analyze_layer_tolerance(model.net, model.labels,
                                             LayerInjectors{nullptr},
                                             {1e-5, 1e-3}, 0.5, state->test,
                                             rng),
               ContractViolation);
}

TEST_F(FaultAwareFixture, ToleranceRejectsAnInjectorCountOtherThanDepth) {
  Rng rng(13);
  auto model = *state->baseline;
  EXPECT_THROW((void)analyze_layer_tolerance(
                   model.net, model.labels,
                   LayerInjectors{state->injector.get(),
                                  state->injector.get()},
                   {1e-5, 1e-3}, 0.5, state->test, rng),
               ContractViolation);
  EXPECT_THROW((void)analyze_layer_tolerance(model.net, model.labels,
                                             LayerInjectors{}, {1e-5, 1e-3},
                                             0.5, state->test, rng),
               ContractViolation);
}

// ----------------------------------------------------------- ecc evaluation

snn::NetworkConfig two_layer_config() {
  snn::NetworkConfig cfg;
  cfg.n_neurons = 25;
  cfg.hidden_neurons = {48};
  cfg.seed = 42;
  return cfg;
}

snn::TrainedModel train_two_layer(const data::Dataset& train,
                                  const data::Dataset& test) {
  Rng train_rng(42);
  return snn::train_and_label(two_layer_config(), train, test, 1, train_rng);
}

/// A trained 784 -> 48 -> 25 stack with SECDED on layer 0 and no code on
/// layer 1: layer 0 takes the raw-inject + scrub path, layer 1 the
/// clip-only path, both drawing from their forked substreams.
struct TwoLayerEccRig {
  TwoLayerEccRig() {
    const snn::NetworkConfig cfg = two_layer_config();
    const std::vector<std::size_t> layer_weights{cfg.layer_weight_count(0),
                                                 cfg.layer_weight_count(1)};
    const auto places =
        mapping::baseline_placement_layers(geometry, layer_weights);
    for (std::size_t l = 0; l < 2; ++l)
      injectors.push_back(error::ErrorInjector::for_weights(
          geometry, profile, error::ErrorModelSpec{}, places[l],
          layer_weights[l], 42, 1e-3));
  }

  /// evaluate_corrupted_ecc at BER 1e-3 with per-layer scrub totals.
  double evaluate(const data::Dataset& ds, Rng& rng, std::size_t trials,
                  std::vector<EccScrubTotals>& totals) const {
    return evaluate_corrupted_ecc(model.net, model.labels,
                                  {&injectors[0], &injectors[1]}, ecc, 1e-3,
                                  ds, rng, trials, kDefaultWeightClip,
                                  &totals);
  }

  data::Dataset all = data::make_dataset(data::Task::kDigits, 150, 42);
  data::Dataset train = all.take(100);
  data::Dataset test = all.drop(100);
  snn::TrainedModel model = train_two_layer(train, test);
  dram::Geometry geometry = dram::Geometry::lpddr3_4gb();
  error::SubarrayProfile profile{geometry, 42};
  std::unique_ptr<error::EccScheme> secded =
      error::make_ecc_scheme({error::EccKind::kSecded, 64, 0});
  std::vector<std::uint64_t> checks =
      error::ecc_encode_buffer(*secded, model.net.weights(0));
  std::vector<error::ErrorInjector> injectors;
  LayerEcc ecc{{secded.get(), &checks}, {nullptr, nullptr}};
};

TEST(EvaluateCorruptedEcc, TwoLayerMixedProtectionKnownAnswer) {
  // The pinned accuracy, per-layer scrub totals and the caller's next draw
  // lock down the whole trial loop; a stream, clip or reduction change
  // moves at least one of them.
  const TwoLayerEccRig rig;
  Rng rng(77);
  std::vector<EccScrubTotals> totals;
  const double acc = rig.evaluate(rig.test, rng, 4, totals);
  EXPECT_EQ(acc, 0.39000000000000001);
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0].codewords, 2241u);
  EXPECT_EQ(totals[0].corrected, 2218u);
  EXPECT_EQ(totals[0].detected, 23u);
  EXPECT_EQ(totals[0].bits_corrected, 2218u);
  EXPECT_EQ(totals[1].codewords, 0u);
  EXPECT_EQ(totals[1].corrected, 0u);
  EXPECT_EQ(totals[1].detected, 0u);
  EXPECT_EQ(totals[1].bits_corrected, 0u);
  EXPECT_EQ(rng.next_u64(), 4186339675336148520ull);
}

TEST(EvaluateCorruptedEcc, FanOutIsThreadCountInvariant) {
  // One trial spreads its 50 samples over every worker; with two or three
  // trials each worker takes whole trials and scores their samples inline.
  // Accuracy and the per-layer scrub totals must not depend on the split.
  const TwoLayerEccRig rig;
  ASSERT_EQ(rig.test.size(), 50u);
  for (const std::size_t trials : {1u, 2u, 3u}) {
    std::vector<double> accs;
    std::vector<std::vector<EccScrubTotals>> all_totals;
    for (const char* threads : {"1", "3", "8"}) {
      testutil::ThreadsOverride override_threads(threads);
      Rng rng(91);
      std::vector<EccScrubTotals> totals;
      accs.push_back(rig.evaluate(rig.test, rng, trials, totals));
      all_totals.push_back(totals);
    }
    ASSERT_EQ(all_totals[0].size(), 2u);
    EXPECT_GT(all_totals[0][0].codewords, 0u);  // ECC really scrubbed
    for (std::size_t run = 1; run < accs.size(); ++run) {
      EXPECT_EQ(accs[run], accs[0]) << trials << " trials, run " << run;
      for (std::size_t l = 0; l < 2; ++l) {
        const EccScrubTotals& a = all_totals[run][l];
        const EccScrubTotals& b = all_totals[0][l];
        EXPECT_EQ(a.codewords, b.codewords) << trials << " trials, layer " << l;
        EXPECT_EQ(a.corrected, b.corrected) << trials << " trials, layer " << l;
        EXPECT_EQ(a.detected, b.detected) << trials << " trials, layer " << l;
        EXPECT_EQ(a.bits_corrected, b.bits_corrected)
            << trials << " trials, layer " << l;
      }
    }
  }
}

TEST(EvaluateCorruptedEcc, RejectsAnEmptyTestSet) {
  // Zero samples: the call must fail naming the empty dataset, not divide
  // by n = 0.
  const TwoLayerEccRig rig;
  data::Dataset empty;
  empty.num_classes = rig.test.num_classes;
  for (const std::size_t trials : {1u, 2u}) {
    Rng rng(5);
    std::vector<EccScrubTotals> totals;
    try {
      (void)rig.evaluate(empty, rng, trials, totals);
      ADD_FAILURE() << "an empty test set was accepted, " << trials
                    << " trials";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("empty dataset"),
                std::string::npos)
          << e.what();
    }
  }
}

// ------------------------------------------------------------------ pipeline

TEST(Pipeline, EndToEndSmoke) {
  PipelineConfig cfg;
  cfg.network.n_neurons = 64;
  cfg.network.seed = 42;
  cfg.train_samples = 250;
  cfg.test_samples = 100;
  cfg.baseline_epochs = 1;
  cfg.fault_training.ber_stages = {1e-5, 1e-3};
  const auto r = run_pipeline(cfg);

  EXPECT_GT(r.baseline_accuracy, 0.3);
  EXPECT_GT(r.baseline_energy_nj, 0.0);
  ASSERT_EQ(r.per_voltage.size(), 5u);

  double prev_energy = r.baseline_energy_nj * 1.01;
  for (const auto& v : r.per_voltage) {
    // Energy strictly decreases with voltage; savings grow.
    EXPECT_LT(v.energy_nj, prev_energy);
    prev_energy = v.energy_nj;
    EXPECT_GT(v.saving_pct, 0.0);
    // Throughput is maintained (paper Fig. 12b).
    EXPECT_GE(v.speedup, 0.99);
    // The mapping keeps the row buffer hot.
    EXPECT_GT(v.row_hit_rate, 0.9);
    EXPECT_GT(v.safe_subarrays, 0u);
  }
  // Headline: the lowest voltage saves roughly 40% (paper: 39.46% average).
  EXPECT_NEAR(r.per_voltage.back().saving_pct, 39.5, 3.0);
}

TEST(Pipeline, AccuracyWithinBoundAcrossVoltages) {
  PipelineConfig cfg;
  cfg.network.n_neurons = 100;
  cfg.network.seed = 42;
  cfg.train_samples = 400;
  cfg.test_samples = 150;
  cfg.baseline_epochs = 2;
  cfg.fault_training.ber_stages = {1e-7, 1e-5, 1e-3};
  const auto r = run_pipeline(cfg);
  ASSERT_TRUE(r.met_target);
  for (const auto& v : r.per_voltage)
    EXPECT_GE(v.accuracy, r.baseline_accuracy -
                              cfg.fault_training.accuracy_bound - 0.04)
        << "at " << v.v_supply << " V";
}

TEST(Pipeline, RecordsPhaseWallClockTimings) {
  PipelineConfig cfg;
  cfg.network.n_neurons = 25;
  cfg.network.seed = 42;
  cfg.train_samples = 100;
  cfg.test_samples = 50;
  cfg.baseline_epochs = 1;
  cfg.fault_training.ber_stages = {1e-5, 1e-3};
  cfg.voltages = {1.250, 1.025};
  const auto r = run_pipeline(cfg);
  const auto& t = r.timings;
  EXPECT_GT(t.train_ns, 0.0);
  EXPECT_GT(t.fault_training_ns, 0.0);
  EXPECT_GT(t.sweep_ns, 0.0);
  // The phases tile the run: they sum to the total (same clock reads).
  EXPECT_NEAR(t.train_ns + t.fault_training_ns + t.sweep_ns, t.total_ns,
              t.total_ns * 1e-9 + 1.0);
}

TEST(Pipeline, RejectsEmptyVoltageList) {
  PipelineConfig cfg;
  cfg.voltages.clear();
  EXPECT_THROW((void)run_pipeline(cfg), ContractViolation);
}

TEST(Pipeline, ArtifactCaptureRejectsEcc) {
  // An artifact carries no check words, so capturing a protected
  // configuration would serve it unprotected; refused before any work.
  PipelineConfig cfg;
  cfg.ecc = {error::EccKind::kSecded, 64, 0};
  ArtifactState artifact;
  EXPECT_THROW((void)run_pipeline(cfg, &artifact), ContractViolation);
}

/// One named config edit for the key-coverage tests.
struct ConfigEdit {
  const char* field;
  void (*apply)(PipelineConfig&);
};

/// The smallest step away from a float, so a key that rounds is caught.
template <class T>
T bump(T v) {
  return std::nextafter(v, std::numeric_limits<T>::max());
}

TEST(PipelineKeys, EveryFieldTheBaselinePhaseReadsChangesBothKeys) {
  const ConfigEdit edits[] = {
      {"task", [](PipelineConfig& c) { c.task = data::Task::kFashion; }},
      {"train_samples", [](PipelineConfig& c) { ++c.train_samples; }},
      {"test_samples", [](PipelineConfig& c) { ++c.test_samples; }},
      {"seed", [](PipelineConfig& c) { ++c.seed; }},
      {"baseline_epochs", [](PipelineConfig& c) { ++c.baseline_epochs; }},
      {"n_inputs", [](PipelineConfig& c) { ++c.network.n_inputs; }},
      {"n_neurons", [](PipelineConfig& c) { ++c.network.n_neurons; }},
      {"hidden_neurons",
       [](PipelineConfig& c) { c.network.hidden_neurons = {48}; }},
      {"timesteps", [](PipelineConfig& c) { ++c.network.timesteps; }},
      {"dt_ms", [](PipelineConfig& c) { c.network.dt_ms = bump(c.network.dt_ms); }},
      {"max_rate",
       [](PipelineConfig& c) { c.network.max_rate = bump(c.network.max_rate); }},
      {"norm_target", [](PipelineConfig& c) {
         c.network.norm_target = bump(c.network.norm_target);
       }},
      {"network.seed", [](PipelineConfig& c) { ++c.network.seed; }},
      {"engine",
       [](PipelineConfig& c) { c.network.engine = snn::EngineKind::kEventFx; }},
      {"lif.v_rest",
       [](PipelineConfig& c) { c.network.lif.v_rest = bump(c.network.lif.v_rest); }},
      {"lif.v_reset", [](PipelineConfig& c) {
         c.network.lif.v_reset = bump(c.network.lif.v_reset);
       }},
      {"lif.v_thresh", [](PipelineConfig& c) {
         c.network.lif.v_thresh = bump(c.network.lif.v_thresh);
       }},
      {"lif.tau_m_ms", [](PipelineConfig& c) {
         c.network.lif.tau_m_ms = bump(c.network.lif.tau_m_ms);
       }},
      {"lif.refractory_steps",
       [](PipelineConfig& c) { ++c.network.lif.refractory_steps; }},
      {"lif.theta_plus", [](PipelineConfig& c) {
         c.network.lif.theta_plus = bump(c.network.lif.theta_plus);
       }},
      {"lif.tau_theta_ms", [](PipelineConfig& c) {
         c.network.lif.tau_theta_ms = bump(c.network.lif.tau_theta_ms);
       }},
      {"lif.inhibition", [](PipelineConfig& c) {
         c.network.lif.inhibition = bump(c.network.lif.inhibition);
       }},
      {"lif.winner_take_all", [](PipelineConfig& c) {
         c.network.lif.winner_take_all = !c.network.lif.winner_take_all;
       }},
      {"lif.compete_at_inference", [](PipelineConfig& c) {
         c.network.lif.compete_at_inference =
             !c.network.lif.compete_at_inference;
       }},
      {"stdp.eta",
       [](PipelineConfig& c) { c.network.stdp.eta = bump(c.network.stdp.eta); }},
      {"stdp.x_target", [](PipelineConfig& c) {
         c.network.stdp.x_target = bump(c.network.stdp.x_target);
       }},
      {"stdp.tau_pre_ms", [](PipelineConfig& c) {
         c.network.stdp.tau_pre_ms = bump(c.network.stdp.tau_pre_ms);
       }},
      {"stdp.w_min",
       [](PipelineConfig& c) { c.network.stdp.w_min = bump(c.network.stdp.w_min); }},
      {"stdp.w_max",
       [](PipelineConfig& c) { c.network.stdp.w_max = bump(c.network.stdp.w_max); }},
  };
  const PipelineConfig base;
  for (const ConfigEdit& e : edits) {
    PipelineConfig cfg = base;
    e.apply(cfg);
    EXPECT_NE(baseline_training_key(cfg), baseline_training_key(base))
        << e.field;
    EXPECT_NE(fault_training_key(cfg), fault_training_key(base)) << e.field;
  }
}

TEST(PipelineKeys, EveryFieldOnlyAlgorithm1ReadsChangesOnlyItsKey) {
  const ConfigEdit edits[] = {
      {"ber_stages",
       [](PipelineConfig& c) { c.fault_training.ber_stages.back() = 2e-3; }},
      {"ber_stages.size",
       [](PipelineConfig& c) { c.fault_training.ber_stages.pop_back(); }},
      {"epochs_per_stage",
       [](PipelineConfig& c) { ++c.fault_training.epochs_per_stage; }},
      {"accuracy_bound", [](PipelineConfig& c) {
         c.fault_training.accuracy_bound = bump(c.fault_training.accuracy_bound);
       }},
      {"eval_trials", [](PipelineConfig& c) { ++c.fault_training.eval_trials; }},
      {"weight_clip", [](PipelineConfig& c) {
         c.fault_training.weight_clip = bump(c.fault_training.weight_clip);
       }},
      {"calibrate_under_errors", [](PipelineConfig& c) {
         c.fault_training.calibrate_under_errors =
             !c.fault_training.calibrate_under_errors;
       }},
      {"geometry.channels", [](PipelineConfig& c) { ++c.geometry.channels; }},
      {"geometry.ranks_per_channel",
       [](PipelineConfig& c) { ++c.geometry.ranks_per_channel; }},
      {"geometry.chips_per_rank",
       [](PipelineConfig& c) { ++c.geometry.chips_per_rank; }},
      {"geometry.banks_per_chip",
       [](PipelineConfig& c) { ++c.geometry.banks_per_chip; }},
      {"geometry.subarrays_per_bank",
       [](PipelineConfig& c) { ++c.geometry.subarrays_per_bank; }},
      {"geometry.rows_per_subarray",
       [](PipelineConfig& c) { ++c.geometry.rows_per_subarray; }},
      {"geometry.columns_per_row",
       [](PipelineConfig& c) { ++c.geometry.columns_per_row; }},
      {"geometry.column_bytes",
       [](PipelineConfig& c) { ++c.geometry.column_bytes; }},
      {"geometry.burst_columns",
       [](PipelineConfig& c) { ++c.geometry.burst_columns; }},
      {"subarray_sigma",
       [](PipelineConfig& c) { c.subarray_sigma = bump(c.subarray_sigma); }},
      {"error_model.kind", [](PipelineConfig& c) {
         c.error_model.kind = error::ErrorModelKind::kModel1Bitline;
       }},
      {"error_model.p1",
       [](PipelineConfig& c) { c.error_model.p1 = bump(c.error_model.p1); }},
      {"error_model.p0",
       [](PipelineConfig& c) { c.error_model.p0 = bump(c.error_model.p0); }},
      {"error_model.stripe_sigma", [](PipelineConfig& c) {
         c.error_model.stripe_sigma = bump(c.error_model.stripe_sigma);
       }},
      {"retention.enabled",
       [](PipelineConfig& c) { c.error_model.retention.enabled = true; }},
      {"retention.interval_multiplier", [](PipelineConfig& c) {
         auto& r = c.error_model.retention;
         r.interval_multiplier = bump(r.interval_multiplier);
       }},
      {"retention.median_decades", [](PipelineConfig& c) {
         auto& r = c.error_model.retention;
         r.median_decades = bump(r.median_decades);
       }},
      {"retention.sigma_decades", [](PipelineConfig& c) {
         auto& r = c.error_model.retention;
         r.sigma_decades = bump(r.sigma_decades);
       }},
  };
  const PipelineConfig base;
  for (const ConfigEdit& e : edits) {
    PipelineConfig cfg = base;
    e.apply(cfg);
    EXPECT_EQ(baseline_training_key(cfg), baseline_training_key(base))
        << e.field;
    EXPECT_NE(fault_training_key(cfg), fault_training_key(base)) << e.field;
  }
}

TEST(PipelineKeys, SweepOnlyFieldsChangeNeitherKey) {
  const ConfigEdit edits[] = {
      {"salp", [](PipelineConfig& c) { c.salp = true; }},
      {"refresh",
       [](PipelineConfig& c) { c.refresh = dram::RefreshPolicy::reduced(8.0); }},
      {"ecc", [](PipelineConfig& c) { c.ecc = {error::EccKind::kSecded, 64, 0}; }},
      {"voltages", [](PipelineConfig& c) { c.voltages = {1.250, 1.025}; }},
      {"layer_knobs", [](PipelineConfig& c) { c.layer_knobs.enabled = true; }},
  };
  const PipelineConfig base;
  for (const ConfigEdit& e : edits) {
    PipelineConfig cfg = base;
    e.apply(cfg);
    EXPECT_EQ(baseline_training_key(cfg), baseline_training_key(base))
        << e.field;
    EXPECT_EQ(fault_training_key(cfg), fault_training_key(base)) << e.field;
  }
}

TEST(Pipeline, PhasesRejectAStateTrainedForAnotherKey) {
  // A phase state is only valid under the key it was trained for.
  PipelineConfig cfg;
  cfg.network.n_neurons = 25;
  cfg.train_samples = 60;
  cfg.test_samples = 30;
  cfg.baseline_epochs = 1;
  cfg.fault_training.ber_stages = {1e-5, 1e-3};
  cfg.voltages = {1.250, 1.025};
  const BaselineState baseline = train_baseline(cfg);
  PipelineConfig other_seed = cfg;
  ++other_seed.seed;
  EXPECT_THROW((void)train_fault_aware(other_seed, baseline),
               ContractViolation);
  const TrainedState trained = train_fault_aware(cfg, baseline);
  PipelineConfig other_stages = cfg;
  other_stages.fault_training.ber_stages = {1e-4, 1e-3};
  EXPECT_THROW((void)run_sweep(other_stages, trained), ContractViolation);
  // A sweep-only change reuses the state.
  PipelineConfig salp = cfg;
  salp.salp = true;
  EXPECT_NO_THROW((void)run_sweep(salp, trained));
}

TEST(PipelineConfig_, ValidateRejectsBadVoltageGrids) {
  PipelineConfig cfg;
  EXPECT_NO_THROW(cfg.validate());  // defaults are valid

  cfg.voltages = {1.100, 1.250};  // ascending — wrong order
  EXPECT_THROW(cfg.validate(), ContractViolation);
  cfg.voltages = {1.250, 1.250, 1.100};  // duplicate
  EXPECT_THROW(cfg.validate(), ContractViolation);
  cfg.voltages = {1.250, -1.0};  // non-positive
  EXPECT_THROW(cfg.validate(), ContractViolation);
  cfg.voltages = {std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(cfg.validate(), ContractViolation);
  cfg.voltages = {1.325};  // a single voltage is fine
  EXPECT_NO_THROW(cfg.validate());
}

TEST(PipelineConfig_, ValidateRejectsBadBerSchedule) {
  PipelineConfig cfg;
  cfg.fault_training.ber_stages.clear();
  EXPECT_THROW(cfg.validate(), ContractViolation);
  cfg.fault_training.ber_stages = {1e-3, 1e-5};  // descending
  EXPECT_THROW(cfg.validate(), ContractViolation);
  cfg.fault_training.ber_stages = {0.0, 1e-3};  // zero rate
  EXPECT_THROW(cfg.validate(), ContractViolation);
}

TEST(PipelineConfig_, ValidateRejectsEmptyData) {
  PipelineConfig no_train;
  no_train.train_samples = 0;
  EXPECT_THROW(no_train.validate(), ContractViolation);
  PipelineConfig no_test;
  no_test.test_samples = 0;
  EXPECT_THROW(no_test.validate(), ContractViolation);
}

TEST_F(FaultAwareFixture, LayerInjectorsSizeMustMatchDepth) {
  Rng rng(32);
  EXPECT_THROW((void)evaluate_corrupted(
                   state->baseline->net, state->baseline->labels,
                   LayerInjectors{state->injector.get(),
                                  state->injector.get()},
                   1e-3, state->test, rng),
               ContractViolation);
}

// -------------------------------------------------------------- deep stacks

/// Shared expensive fixture for the layer-stack pipeline: one 2-layer
/// end-to-end run, reused by all deep-pipeline assertions below.
class DeepPipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cfg = new PipelineConfig();
    cfg->network.n_neurons = 25;
    cfg->network.hidden_neurons = {48};
    cfg->network.seed = 42;
    cfg->train_samples = 100;
    cfg->test_samples = 50;
    cfg->baseline_epochs = 1;
    cfg->fault_training.ber_stages = {1e-5, 1e-3};
    cfg->fault_training.eval_trials = 2;
    cfg->voltages = {1.250, 1.100, 1.025};
    report = new PipelineReport(run_pipeline(*cfg));
  }
  static void TearDownTestSuite() {
    delete report;
    delete cfg;
    report = nullptr;
    cfg = nullptr;
  }
  static PipelineConfig* cfg;
  static PipelineReport* report;
};

PipelineConfig* DeepPipelineFixture::cfg = nullptr;
PipelineReport* DeepPipelineFixture::report = nullptr;

TEST_F(DeepPipelineFixture, RunsEndToEndWithPerLayerTolerance) {
  const auto& r = *report;
  EXPECT_GT(r.baseline_accuracy, 0.2);
  ASSERT_EQ(r.layer_ber_th.size(), 2u);
  ASSERT_EQ(r.layer_met_target.size(), 2u);
  ASSERT_EQ(r.layer_curves.size(), 2u);
  for (std::size_t l = 0; l < 2; ++l) {
    // Per-layer curves cover every configured BER stage, in order.
    ASSERT_EQ(r.layer_curves[l].size(),
              cfg->fault_training.ber_stages.size());
    for (std::size_t i = 0; i < r.layer_curves[l].size(); ++i)
      EXPECT_EQ(r.layer_curves[l][i].ber,
                cfg->fault_training.ber_stages[i]);
    // A met per-layer threshold is one of the analyzed stages.
    if (r.layer_met_target[l]) {
      bool found = false;
      for (const double s : cfg->fault_training.ber_stages)
        found |= s == r.layer_ber_th[l];
      EXPECT_TRUE(found);
    } else {
      EXPECT_EQ(r.layer_ber_th[l], 0.0);
    }
    // Corrupting ONE layer can never be harder to tolerate than corrupting
    // all of them: the per-layer threshold dominates the global one.
    if (r.met_target && r.layer_met_target[l]) {
      EXPECT_GE(r.layer_ber_th[l], r.ber_th);
    }
  }
}

TEST_F(DeepPipelineFixture, PerVoltageRowsCarryPerLayerPlacementStats) {
  for (const auto& v : report->per_voltage) {
    ASSERT_EQ(v.layers.size(), 2u);
    double energy = 0.0;
    std::uint64_t refreshes = 0;
    for (std::size_t l = 0; l < v.layers.size(); ++l) {
      const auto& ls = v.layers[l];
      EXPECT_GT(ls.chunks, 0u);
      EXPECT_GT(ls.safe_subarrays, 0u);
      EXPECT_GT(ls.energy_nj, 0.0);
      EXPECT_GT(ls.row_hit_rate, 0.9);
      energy += ls.energy_nj;
      refreshes += ls.refreshes;
    }
    // Layer 0 (784x48) holds far more weights than layer 1 (48x25).
    EXPECT_GT(v.layers[0].chunks, v.layers[1].chunks);
    // Aggregates are the sums of the per-layer slices.
    EXPECT_DOUBLE_EQ(v.energy_nj, energy);
    EXPECT_EQ(v.refreshes, refreshes);
    EXPECT_GT(v.saving_pct, 0.0);
    EXPECT_GE(v.speedup, 0.99);
  }
}

TEST_F(DeepPipelineFixture, SingleLayerReportsKeepLegacyShape) {
  // The flat pipeline must not pay for (or report) the per-layer analysis:
  // its vector is exactly {ber_th} and no curves are recorded.
  PipelineConfig flat = *cfg;
  flat.network.hidden_neurons.clear();
  const auto r = run_pipeline(flat);
  ASSERT_EQ(r.layer_ber_th.size(), 1u);
  EXPECT_EQ(r.layer_ber_th[0], r.met_target ? r.ber_th : 0.0);
  ASSERT_EQ(r.layer_met_target.size(), 1u);
  EXPECT_EQ(r.layer_met_target[0], r.met_target);
  EXPECT_TRUE(r.layer_curves.empty());
  ASSERT_FALSE(r.per_voltage.empty());
  for (const auto& v : r.per_voltage) {
    ASSERT_EQ(v.layers.size(), 1u);
    EXPECT_DOUBLE_EQ(v.layers[0].energy_nj, v.energy_nj);
    EXPECT_EQ(v.layers[0].safe_subarrays, v.safe_subarrays);
    EXPECT_EQ(v.layers[0].capacity_relaxed, v.capacity_relaxed);
  }
}

TEST(Pipeline, SalpIsNeverSlowerOrHungrierThanCommodity) {
  // SALP only removes PRE/ACT work from the SparkXD mapping's trace, so at
  // every voltage it can only save energy and time; accuracy is untouched
  // (error injection does not depend on the row-buffer architecture).
  PipelineConfig cfg;
  cfg.network.n_neurons = 25;
  cfg.network.seed = 42;
  cfg.train_samples = 100;
  cfg.test_samples = 50;
  cfg.baseline_epochs = 1;
  cfg.fault_training.ber_stages = {1e-5, 1e-3};
  cfg.voltages = {1.250, 1.025};
  const auto commodity = run_pipeline(cfg);
  cfg.salp = true;
  const auto salp = run_pipeline(cfg);
  ASSERT_EQ(salp.per_voltage.size(), commodity.per_voltage.size());
  for (std::size_t i = 0; i < salp.per_voltage.size(); ++i) {
    EXPECT_LE(salp.per_voltage[i].energy_nj,
              commodity.per_voltage[i].energy_nj * 1.0001);
    EXPECT_GE(salp.per_voltage[i].speedup,
              commodity.per_voltage[i].speedup * 0.9999);
    EXPECT_EQ(salp.per_voltage[i].accuracy, commodity.per_voltage[i].accuracy);
  }
}

}  // namespace
}  // namespace sparkxd::core

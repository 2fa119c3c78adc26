// Tests for the full network and the trainer: initialization invariants,
// normalization, learning/inference separation, labeling, prediction, and a
// small end-to-end learning smoke test.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <utility>

#include "common/contracts.hpp"
#include "data/dataset.hpp"
#include "snn/network.hpp"
#include "snn/trainer.hpp"
#include "test_env_util.hpp"

namespace sparkxd::snn {
namespace {

NetworkConfig tiny_config() {
  NetworkConfig cfg;
  cfg.n_inputs = 784;
  cfg.n_neurons = 30;
  cfg.timesteps = 40;
  cfg.seed = 7;
  return cfg;
}

std::vector<float> bright_image(std::size_t n, float value = 0.8f) {
  return std::vector<float>(n, value);
}

TEST(Network, InitialWeightsNormalized) {
  const auto cfg = tiny_config();
  Network net(cfg);
  const auto& w = net.weights(0);
  ASSERT_EQ(w.size(), cfg.n_neurons * cfg.n_inputs);
  for (std::size_t n = 0; n < cfg.n_neurons; ++n) {
    float sum = 0.0f;
    for (std::size_t i = 0; i < cfg.n_inputs; ++i)
      sum += w[n * cfg.n_inputs + i];
    EXPECT_NEAR(sum, cfg.norm_target, 0.01f);
  }
  for (const float v : w) EXPECT_GE(v, 0.0f);
}

TEST(Network, WeightInitDeterministicInSeed) {
  auto cfg = tiny_config();
  Network a(cfg), b(cfg);
  EXPECT_EQ(a.weights(0), b.weights(0));
  cfg.seed = 8;
  Network c(cfg);
  EXPECT_NE(a.weights(0), c.weights(0));
}

TEST(Network, NormalizeRowsRestoresTarget) {
  const auto cfg = tiny_config();
  Network net(cfg);
  for (auto& w : net.weights_mut(0)) w *= 3.0f;
  net.normalize_rows();
  const auto& w = net.weights(0);
  float sum = 0.0f;
  for (std::size_t i = 0; i < cfg.n_inputs; ++i) sum += w[i];
  EXPECT_NEAR(sum, cfg.norm_target, 0.01f);
}

TEST(Network, NormalizeSkipsZeroRows) {
  const auto cfg = tiny_config();
  Network net(cfg);
  for (std::size_t i = 0; i < cfg.n_inputs; ++i)
    net.weights_mut(0)[i] = 0.0f;  // zero out neuron 0
  net.normalize_rows();
  for (std::size_t i = 0; i < cfg.n_inputs; ++i)
    EXPECT_EQ(net.weights(0)[i], 0.0f);
}

TEST(Network, InferenceDoesNotChangeWeightsOrThetas) {
  const auto cfg = tiny_config();
  Network net(cfg);
  const auto w_before = net.weights(0);
  const auto theta_before = net.thetas(0);
  Rng rng(1);
  (void)net.process(bright_image(cfg.n_inputs), /*learn=*/false, rng);
  EXPECT_EQ(net.weights(0), w_before);
  EXPECT_EQ(net.thetas(0), theta_before);
}

TEST(Network, LearningChangesWeights) {
  const auto cfg = tiny_config();
  Network net(cfg);
  const auto w_before = net.weights(0);
  Rng rng(1);
  (void)net.process(bright_image(cfg.n_inputs), /*learn=*/true, rng);
  EXPECT_NE(net.weights(0), w_before);
}

TEST(Network, LearningKeepsRowsNormalized) {
  const auto cfg = tiny_config();
  Network net(cfg);
  Rng rng(1);
  (void)net.process(bright_image(cfg.n_inputs), /*learn=*/true, rng);
  const auto& w = net.weights(0);
  for (std::size_t n = 0; n < cfg.n_neurons; ++n) {
    float sum = 0.0f;
    for (std::size_t i = 0; i < cfg.n_inputs; ++i)
      sum += w[n * cfg.n_inputs + i];
    EXPECT_NEAR(sum, cfg.norm_target, 0.05f);
  }
}

TEST(Network, SpikesProducedForBrightInput) {
  const auto cfg = tiny_config();
  Network net(cfg);
  Rng rng(1);
  const auto counts = net.process(bright_image(cfg.n_inputs), false, rng);
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  EXPECT_GT(total, 0u);
}

TEST(Network, NoSpikesForBlackInput) {
  const auto cfg = tiny_config();
  Network net(cfg);
  Rng rng(1);
  const auto counts =
      net.process(std::vector<float>(cfg.n_inputs, 0.0f), false, rng);
  for (const auto c : counts) EXPECT_EQ(c, 0u);
}

TEST(Network, InferenceDeterministicGivenRngState) {
  const auto cfg = tiny_config();
  Network net(cfg);
  Rng a(3), b(3);
  const auto img = bright_image(cfg.n_inputs, 0.5f);
  EXPECT_EQ(net.process(img, false, a), net.process(img, false, b));
}

TEST(Network, TrainingWithWtaProducesAtMostOneSpikePerStep) {
  auto cfg = tiny_config();
  cfg.lif.winner_take_all = true;
  Network net(cfg);
  Rng rng(2);
  const auto counts = net.process(bright_image(cfg.n_inputs), true, rng);
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  EXPECT_LE(total, cfg.timesteps);
}

TEST(Network, RejectsWrongImageSize) {
  Network net(tiny_config());
  Rng rng(1);
  std::vector<float> wrong(10, 0.5f);
  EXPECT_THROW(net.process(wrong, false, rng), ContractViolation);
}

TEST(Network, RejectsDegenerateConfig) {
  auto cfg = tiny_config();
  cfg.n_neurons = 0;
  EXPECT_THROW(Network{cfg}, ContractViolation);
  cfg = tiny_config();
  cfg.timesteps = 0;
  EXPECT_THROW(Network{cfg}, ContractViolation);
  cfg = tiny_config();
  cfg.norm_target = 0.0f;
  EXPECT_THROW(Network{cfg}, ContractViolation);
}

// --------------------------------------------- transposed inference layout

TEST(Network, TransposeMirrorsRowMajorAfterTraining) {
  const auto cfg = tiny_config();
  Network net(cfg);
  Rng rng(1);
  (void)net.process(bright_image(cfg.n_inputs), /*learn=*/true, rng);
  EXPECT_FALSE(net.transpose_synced());  // training moved the rows
  net.sync_transpose();
  const auto& w = net.weights(0);
  const auto& wt = net.weights_T(0);
  ASSERT_EQ(wt.size(), w.size());
  for (std::size_t n = 0; n < cfg.n_neurons; ++n)
    for (std::size_t i = 0; i < cfg.n_inputs; ++i)
      ASSERT_EQ(wt[i * cfg.n_neurons + n], w[n * cfg.n_inputs + i])
          << "neuron " << n << " input " << i;
}

TEST(Network, StaleTransposeIsRejectedUntilSynced) {
  Network net(tiny_config());
  net.weights_mut(0)[3] = 0.77f;
  EXPECT_FALSE(net.transpose_synced());
  EXPECT_THROW((void)net.weights_T(0), ContractViolation);
  EXPECT_THROW((void)net.weights_delta(0), ContractViolation);
  InferenceState state(net);
  Rng rng(1);
  EXPECT_THROW((void)net.infer(state, bright_image(net.config().n_inputs),
                               rng),
               ContractViolation);
  net.sync_transpose();
  EXPECT_EQ(net.weights_T(0)[3 * net.config().n_neurons], 0.77f);
}

TEST(Network, DeltaMirrorEqualsFullResync) {
  const auto cfg = tiny_config();
  Network full(cfg), delta(cfg);
  const std::size_t idx = 5 * cfg.n_inputs + 17;  // neuron 5, input 17
  full.weights_mut(0)[idx] = 0.123f;
  full.sync_transpose();
  delta.weights_delta(0)[idx] = 0.123f;
  delta.mirror_weight(0, idx);
  EXPECT_TRUE(delta.transpose_synced());
  EXPECT_EQ(full.weights(0), delta.weights(0));
  EXPECT_EQ(full.weights_T(0), delta.weights_T(0));
}

TEST(Network, InferMatchesProcessBitwise) {
  // The InferenceState fast path must consume the same Rng stream and
  // produce the same spike counts as process(learn=false) — including when
  // one state is reused across samples.
  const auto cfg = tiny_config();
  Network net(cfg);
  Rng train_rng(2);
  (void)net.process(bright_image(cfg.n_inputs), /*learn=*/true, train_rng);
  net.sync_transpose();
  InferenceState state(net);
  for (const float intensity : {0.8f, 0.5f, 0.2f}) {
    const auto img = bright_image(cfg.n_inputs, intensity);
    Rng a(3), b(3);
    EXPECT_EQ(net.process(img, /*learn=*/false, a), net.infer(state, img, b))
        << "intensity " << intensity;
  }
}

TEST(Network, ProcessOfAPreDrawnRasterEqualsProcessOfTheImage) {
  auto cfg = tiny_config();
  cfg.hidden_neurons = {17};
  const auto ds = data::make_dataset(data::Task::kDigits, 6, 2);
  Network by_image(cfg), by_raster(cfg);
  PoissonEncoder enc(cfg.max_rate);
  SpikeRaster raster;
  Rng a(5), b(5);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const bool learn = i % 3 != 2;
    const auto expect = by_image.process(ds.images[i], learn, a);
    enc.set_image(ds.images[i]);
    enc.encode(b, cfg.timesteps, raster);
    EXPECT_EQ(by_raster.process(raster, learn), expect) << "sample " << i;
  }
  for (std::size_t l = 0; l < by_image.n_layers(); ++l) {
    EXPECT_EQ(by_raster.weights(l), by_image.weights(l));
    EXPECT_EQ(by_raster.thetas(l), by_image.thetas(l));
  }
  EXPECT_EQ(a.next_u64(), b.next_u64());
  // A raster of the wrong length or width is rejected.
  enc.encode(b, cfg.timesteps - 1, raster);
  EXPECT_THROW((void)by_raster.process(raster, false), ContractViolation);
  enc.set_image(std::vector<float>(cfg.n_inputs - 1, 0.5f));
  enc.encode(b, cfg.timesteps, raster);
  EXPECT_THROW((void)by_raster.process(raster, true), ContractViolation);
}

TEST(Network, StaleInferenceStateResyncsAfterRetraining) {
  // Regression: InferenceState snapshots the LIF thetas at construction.
  // Before the generation counter a state built pre-(re)training silently
  // kept inferring with the stale thresholds; now infer() notices the
  // generation mismatch and resyncs the slices first.
  const auto cfg = tiny_config();
  Network net(cfg);
  InferenceState stale(net);
  EXPECT_EQ(stale.generation(), net.theta_generation());

  Rng train_rng(2);
  (void)net.process(bright_image(cfg.n_inputs), /*learn=*/true, train_rng);
  net.sync_transpose();
  EXPECT_GT(net.theta_generation(), stale.generation());

  InferenceState fresh(net);
  const auto img = bright_image(cfg.n_inputs, 0.5f);
  Rng a(9), b(9);
  EXPECT_EQ(net.infer(stale, img, a), net.infer(fresh, img, b));
  EXPECT_EQ(stale.generation(), net.theta_generation());
}

TEST(Network, ThetaGenerationBumpsOnEveryMutationPath) {
  Network net(tiny_config());
  const auto g0 = net.theta_generation();
  (void)net.thetas_mut(0);  // mutable access presumes mutation
  EXPECT_EQ(net.theta_generation(), g0 + 1);
  Rng rng(3);
  (void)net.process(bright_image(net.config().n_inputs), /*learn=*/true, rng);
  EXPECT_GT(net.theta_generation(), g0 + 1);
  // Inference must not bump it (states stay valid across pure readouts).
  net.sync_transpose();
  InferenceState state(net);
  const auto g1 = net.theta_generation();
  Rng rng2(4);
  (void)net.infer(state, bright_image(net.config().n_inputs, 0.3f), rng2);
  EXPECT_EQ(net.theta_generation(), g1);
  EXPECT_EQ(state.generation(), g1);
}

TEST(Network, ExplicitResyncRefreshesSnapshot) {
  Network net(tiny_config());
  InferenceState state(net);
  net.thetas_mut(0)[0] += 0.5f;
  EXPECT_NE(state.generation(), net.theta_generation());
  state.resync(net);
  EXPECT_EQ(state.generation(), net.theta_generation());
}

TEST(Network, InferLeavesNetworkUntouched) {
  const auto cfg = tiny_config();
  Network net(cfg);
  InferenceState state(net);
  const auto w_before = net.weights(0);
  const auto theta_before = net.thetas(0);
  Rng rng(4);
  (void)net.infer(state, bright_image(cfg.n_inputs), rng);
  EXPECT_EQ(net.weights(0), w_before);
  EXPECT_EQ(net.thetas(0), theta_before);
  EXPECT_TRUE(net.transpose_synced());
}

// ------------------------------------------------------------------- trainer

struct TrainedFixture : public ::testing::Test {
  void SetUp() override {
    all = data::make_dataset(data::Task::kDigits, 500, 42);
    train = all.take(400);
    test = all.drop(400);
    NetworkConfig cfg;
    cfg.n_neurons = 100;
    cfg.seed = 42;
    Rng rng(42);
    model = std::make_unique<TrainedModel>(
        train_and_label(cfg, train, test, 2, rng));
  }
  data::Dataset all, train, test;
  std::unique_ptr<TrainedModel> model;
};

TEST_F(TrainedFixture, LearnsWellAboveChance) {
  // 10 classes -> chance is 10%. The smoke bound is deliberately loose; the
  // benches report the real accuracy.
  EXPECT_GT(model->clean_accuracy, 0.5);
}

TEST_F(TrainedFixture, LabelsCoverMultipleClasses) {
  std::set<std::int32_t> classes;
  for (const auto l : model->labels.label)
    if (l >= 0) classes.insert(l);
  EXPECT_GE(classes.size(), 8u);
}

TEST_F(TrainedFixture, LabelsInRange) {
  for (const auto l : model->labels.label) {
    EXPECT_GE(l, -1);
    EXPECT_LT(l, 10);
  }
  ASSERT_EQ(model->labels.bias.size(), model->labels.label.size());
  for (const double b : model->labels.bias) EXPECT_GE(b, 0.0);
}

TEST_F(TrainedFixture, PredictReturnsValidClass) {
  Rng rng(5);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto p = predict(model->net, model->labels, test.images[i], rng);
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 10);
  }
}

TEST_F(TrainedFixture, EvaluateIsMeanAccuracy) {
  Rng rng(6);
  const double acc = evaluate(model->net, model->labels, test, rng);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

TEST_F(TrainedFixture, EvaluateOverloadsAgreeBitwise) {
  // Const fan-out and in-place scratch must produce the same accuracy from
  // the same Rng state, each taking exactly one draw from it.
  Rng a(8), b(8);
  const double fanned =
      evaluate(std::as_const(model->net), model->labels, test, a);
  const double in_place = evaluate(model->net, model->labels, test, b);
  EXPECT_EQ(fanned, in_place);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST_F(TrainedFixture, MoreTrainingDoesNotCollapse) {
  Rng rng(7);
  train_epoch(model->net, train, rng);
  const auto labels = label_neurons(model->net, train, rng);
  const double acc = evaluate(model->net, labels, test, rng);
  EXPECT_GT(acc, 0.5);
}

TEST(Trainer, LargerNetworkAtLeastAsGood) {
  // Paper Fig. 1a: larger models achieve higher accuracy (given data).
  const auto all = data::make_dataset(data::Task::kDigits, 700, 11);
  const auto train = all.take(550);
  const auto test = all.drop(550);
  NetworkConfig small, large;
  small.n_neurons = 36;
  small.seed = 11;
  large.n_neurons = 225;
  large.seed = 11;
  Rng r1(11), r2(11);
  const auto m_small = train_and_label(small, train, test, 2, r1);
  const auto m_large = train_and_label(large, train, test, 2, r2);
  EXPECT_GT(m_large.clean_accuracy, m_small.clean_accuracy - 0.02);
}

TEST(Trainer, RejectsMismatchedDataset) {
  NetworkConfig cfg = tiny_config();
  cfg.n_inputs = 100;  // not 784
  Network net(cfg);
  const auto ds = data::make_dataset(data::Task::kDigits, 10, 1);
  Rng rng(1);
  EXPECT_THROW(train_epoch(net, ds, rng), ContractViolation);
}

TEST(Trainer, EmptyDatasetRejectedForLabeling) {
  Network net(tiny_config());
  data::Dataset empty;
  empty.num_classes = 10;
  Rng rng(1);
  EXPECT_THROW(label_neurons(net, empty, rng), ContractViolation);
}

// -------------------------------------------------------------- deep stacks

NetworkConfig deep_config() {
  NetworkConfig cfg = tiny_config();
  cfg.hidden_neurons = {20, 12};
  return cfg;
}

TEST(DeepNetwork, LayerGeometryHelpers) {
  const auto cfg = deep_config();
  EXPECT_EQ(cfg.n_layers(), 3u);
  EXPECT_EQ(cfg.layer_inputs(0), 784u);
  EXPECT_EQ(cfg.layer_neurons(0), 20u);
  EXPECT_EQ(cfg.layer_inputs(1), 20u);
  EXPECT_EQ(cfg.layer_neurons(1), 12u);
  EXPECT_EQ(cfg.layer_inputs(2), 12u);
  EXPECT_EQ(cfg.layer_neurons(2), 30u);
  EXPECT_EQ(cfg.total_weights(),
            784u * 20u + 20u * 12u + 12u * 30u);
}

TEST(DeepNetwork, PerLayerWeightsNormalizedAndDeterministic) {
  const auto cfg = deep_config();
  Network net(cfg);
  ASSERT_EQ(net.n_layers(), 3u);
  for (std::size_t l = 0; l < 3; ++l) {
    const auto& w = net.weights(l);
    ASSERT_EQ(w.size(), cfg.layer_weight_count(l));
    for (std::size_t n = 0; n < cfg.layer_neurons(l); ++n) {
      float sum = 0.0f;
      for (std::size_t i = 0; i < cfg.layer_inputs(l); ++i)
        sum += w[n * cfg.layer_inputs(l) + i];
      EXPECT_NEAR(sum, cfg.norm_target, 0.01f) << "layer " << l;
    }
  }
  Network again(cfg);
  for (std::size_t l = 0; l < 3; ++l)
    EXPECT_EQ(net.weights(l), again.weights(l));
}

TEST(DeepNetwork, OutputLayerInitMatchesTheFlatNetworkBitwise) {
  // The output layer draws from Rng(seed) — the legacy stream — so before
  // normalization it is the same draw sequence as the flat network's one
  // layer. (Normalization depends only on the row itself, so the normalized
  // rows coincide too.)
  auto flat_cfg = tiny_config();
  flat_cfg.n_inputs = 20;  // the deep output layer's fan-in
  auto deep_cfg = tiny_config();
  deep_cfg.hidden_neurons = {20};
  deep_cfg.n_inputs = 20;
  const Network flat(flat_cfg);
  const Network deep(deep_cfg);
  ASSERT_EQ(deep.weights(1).size(), 20u * 30u);
  EXPECT_EQ(deep.weights(1), flat.weights(0));
}

TEST(DeepNetwork, LayerIndexOutOfRangeThrows) {
  Network deep(deep_config());
  EXPECT_THROW((void)deep.weights(3), ContractViolation);
}

TEST(DeepNetwork, ProcessAndInferAgreeBitwise) {
  const auto cfg = deep_config();
  Network net(cfg);
  const auto image = bright_image(cfg.n_inputs, 0.6f);
  Rng a(21), b(21);
  const auto via_process = net.process(image, /*learn=*/false, a);
  InferenceState state(net);
  const auto via_infer = net.infer(state, image, b);
  EXPECT_EQ(via_process, via_infer);
  ASSERT_EQ(via_process.size(), cfg.n_neurons);
}

TEST(DeepNetwork, PerLayerDeltaMirrorRoundTrips) {
  // Corrupt a word of each layer via the delta path, mirror it, and verify
  // inference sees it; then revert and verify bitwise restoration.
  const auto cfg = deep_config();
  Network net(cfg);
  const auto image = bright_image(cfg.n_inputs, 0.7f);
  Rng clean_rng(31);
  InferenceState state(net);
  const auto clean = net.infer(state, image, clean_rng);

  std::vector<std::pair<std::size_t, float>> before(net.n_layers());
  for (std::size_t l = 0; l < net.n_layers(); ++l) {
    const std::size_t idx = 3 + l;
    before[l] = {idx, net.weights(l)[idx]};
    net.weights_delta(l)[idx] = 0.9f;
    net.mirror_weight(l, idx);
  }
  Rng corrupt_rng(31);
  const auto corrupted = net.infer(state, image, corrupt_rng);
  (void)corrupted;  // values may or may not differ; the contract is revert
  for (std::size_t l = 0; l < net.n_layers(); ++l) {
    net.weights_delta(l)[before[l].first] = before[l].second;
    net.mirror_weight(l, before[l].first);
  }
  Rng restored_rng(31);
  EXPECT_EQ(net.infer(state, image, restored_rng), clean);
}

TEST(DeepNetwork, WeightsMutInvalidatesOnlyThatLayersTranspose) {
  Network net(deep_config());
  ASSERT_TRUE(net.transpose_synced());
  (void)net.weights_mut(1);
  EXPECT_FALSE(net.transpose_synced());
  EXPECT_THROW((void)net.weights_T(1), ContractViolation);
  EXPECT_NO_THROW((void)net.weights_T(0));  // untouched layers stay synced
  EXPECT_THROW((void)net.weights_delta(1), ContractViolation);
  net.sync_transpose();
  EXPECT_TRUE(net.transpose_synced());
}

TEST(DeepNetwork, TrainsLabelsAndEvaluatesEndToEnd) {
  const auto all = data::make_dataset(data::Task::kDigits, 140, 3);
  const auto train = all.take(100);
  const auto test = all.drop(100);
  auto cfg = tiny_config();
  cfg.hidden_neurons = {48};
  Rng rng(3);
  const auto model = train_and_label(cfg, train, test, 1, rng);
  EXPECT_GT(model.clean_accuracy, 0.15);  // well above the 10% chance floor
  // Deterministic end to end.
  Rng rng2(3);
  const auto model2 = train_and_label(cfg, train, test, 1, rng2);
  EXPECT_EQ(model.clean_accuracy, model2.clean_accuracy);
  for (std::size_t l = 0; l < model.net.n_layers(); ++l)
    EXPECT_EQ(model.net.weights(l), model2.net.weights(l));
}

// ------------------------------------------------ learning-pass known answer

/// Hash of every layer's weight bits and theta bits, layer order.
std::uint64_t state_hash(const Network& net) {
  std::uint64_t h = 0;
  for (std::size_t l = 0; l < net.n_layers(); ++l) {
    for (const float w : net.weights(l))
      h = hash_combine(h, std::bit_cast<std::uint32_t>(w));
    for (const float th : net.thetas(l))
      h = hash_combine(h, std::bit_cast<std::uint32_t>(th));
  }
  return h;
}

/// One train_epoch from a fixed start, with one all-zero row per layer that
/// has more than one neuron (covers the zero-sum skip of normalize_rows).
/// Returns {state hash, the caller Rng's next draw}.
std::pair<std::uint64_t, std::uint64_t> train_one_epoch(
    const NetworkConfig& cfg) {
  const auto ds = data::make_dataset(data::Task::kDigits, 40, 11);
  Network net(cfg);
  for (std::size_t l = 0; l < net.n_layers(); ++l) {
    const std::size_t ni = cfg.layer_inputs(l);
    auto& w = net.weights_mut(l);
    std::fill(w.begin() + 3 * ni, w.begin() + 4 * ni, 0.0f);
  }
  const auto before = net;
  Rng rng(11);
  train_epoch(net, ds, rng);
  for (std::size_t l = 0; l < net.n_layers(); ++l) {
    // Not vacuous: STDP moved every layer, and the zero row stayed zero.
    EXPECT_NE(net.weights(l), before.weights(l)) << "layer " << l;
    const std::size_t ni = cfg.layer_inputs(l);
    for (std::size_t i = 3 * ni; i < 4 * ni; ++i)
      EXPECT_EQ(net.weights(l)[i], 0.0f) << "layer " << l;
  }
  return {state_hash(net), rng.next_u64()};
}

TEST(TrainEpoch, FlatNetworkMatchesKnownAnswer) {
  // 25 neurons: three full blocks of eight plus a one-neuron tail in the
  // drive gather and the row normalization.
  auto cfg = tiny_config();
  cfg.n_neurons = 25;
  // At 3 threads the encode-ahead chunks end mid-block.
  for (const char* threads : {"1", "3", "8"}) {
    const testutil::ThreadsOverride knob(threads);
    const auto [hash, next] = train_one_epoch(cfg);
    EXPECT_EQ(hash, 2739947542463736954ull) << threads << " threads";
    EXPECT_EQ(next, 15462188045957605436ull) << threads << " threads";
  }
}

TEST(TrainEpoch, OddWidthStackMatchesKnownAnswer) {
  // No width is a multiple of eight: every layer has a tail block, and the
  // hidden layers' fan-ins (13, 27) are odd too.
  auto cfg = tiny_config();
  cfg.hidden_neurons = {13, 27};
  cfg.n_neurons = 11;
  for (const char* threads : {"1", "3", "8"}) {
    const testutil::ThreadsOverride knob(threads);
    const auto [hash, next] = train_one_epoch(cfg);
    EXPECT_EQ(hash, 13027067855240947313ull) << threads << " threads";
    EXPECT_EQ(next, 15462188045957605436ull) << threads << " threads";
  }
}

TEST(TrainEpoch, BlockedKernelsKeepEachRowsAdditionOrder) {
  // Rows {0.5, 2^-25, 2^-25}: summed in input order every partial sum ties
  // back to 0.5 (round half to even), while any other order reaches
  // 0.5 + 2^-24. Nine neurons = one full block of eight plus a tail.
  NetworkConfig cfg;
  cfg.n_inputs = 3;
  cfg.n_neurons = 9;
  cfg.timesteps = 1;
  cfg.max_rate = 1.0f;  // every pixel spikes on every step
  cfg.lif.v_thresh = std::nextafter(0.5f, 1.0f);
  const float tiny = std::ldexp(1.0f, -25);
  const std::vector<float> row{0.5f, tiny, tiny};

  // Row normalization: the sum is exactly 0.5, so the scale is 22.
  Network norm(cfg);
  auto& w = norm.weights_mut(0);
  for (std::size_t n = 0; n < cfg.n_neurons; ++n)
    std::copy(row.begin(), row.end(), w.begin() + n * 3);
  norm.normalize_rows();
  for (std::size_t n = 0; n < cfg.n_neurons; ++n)
    for (std::size_t i = 0; i < 3; ++i)
      EXPECT_EQ(norm.weights(0)[n * 3 + i], row[i] * (cfg.norm_target / 0.5f))
          << "neuron " << n << ", input " << i;

  // Learning-mode drive: the first step's drive is exactly 0.5, one ulp
  // below threshold, so no neuron fires.
  Network learn(cfg);
  auto& lw = learn.weights_mut(0);
  for (std::size_t n = 0; n < cfg.n_neurons; ++n)
    std::copy(row.begin(), row.end(), lw.begin() + n * 3);
  Rng rng(1);
  const auto counts = learn.process({1.0f, 1.0f, 1.0f}, /*learn=*/true, rng);
  EXPECT_EQ(counts, std::vector<std::uint32_t>(cfg.n_neurons, 0));
}

// ----------------------------------------------- labelling-pass known answer

/// One train_epoch, then label_neurons on the same set, from a fixed start.
/// Sample 5 is all zero (no draws) and sample 17 fully inked (every pixel
/// draws). Returns {hash of the label ints and the bias bits, the caller
/// Rng's next draw}.
std::pair<std::uint64_t, std::uint64_t> label_after_one_epoch(
    const NetworkConfig& cfg) {
  auto ds = data::make_dataset(data::Task::kDigits, 40, 11);
  ds.images[5].assign(ds.pixels(), 0.0f);
  ds.images[17].assign(ds.pixels(), 1.0f);
  Network net(cfg);
  Rng rng(11);
  train_epoch(net, ds, rng);
  const auto labels = label_neurons(net, ds, rng);
  EXPECT_EQ(labels.label.size(), cfg.n_neurons);
  EXPECT_EQ(labels.num_classes, 10u);
  std::uint64_t h = 0;
  for (const std::int32_t c : labels.label)
    h = hash_combine(h, static_cast<std::uint32_t>(c));
  for (const double b : labels.bias)
    h = hash_combine(h, std::bit_cast<std::uint64_t>(b));
  return {h, rng.next_u64()};
}

TEST(LabelNeurons, FlatNetworkMatchesKnownAnswer) {
  auto cfg = tiny_config();
  cfg.n_neurons = 25;
  for (const char* threads : {"1", "3", "8"}) {
    const testutil::ThreadsOverride knob(threads);
    const auto [hash, next] = label_after_one_epoch(cfg);
    EXPECT_EQ(hash, 4449993279482634569ull) << threads << " threads";
    EXPECT_EQ(next, 12862321591406333470ull) << threads << " threads";
  }
}

TEST(LabelNeurons, OddWidthStackMatchesKnownAnswer) {
  auto cfg = tiny_config();
  cfg.hidden_neurons = {13, 27};
  cfg.n_neurons = 11;
  for (const char* threads : {"1", "3", "8"}) {
    const testutil::ThreadsOverride knob(threads);
    const auto [hash, next] = label_after_one_epoch(cfg);
    EXPECT_EQ(hash, 8551168822035103739ull) << threads << " threads";
    EXPECT_EQ(next, 12862321591406333470ull) << threads << " threads";
  }
}

TEST(LabelNeurons, EventFxNetworkLabelsWithTheFloatKernel) {
  // The engine choice is an inference setting: labelling an event-fx
  // network gives the float kernel's labels and draws, and leaves the
  // engine as it was.
  const auto ds = data::make_dataset(data::Task::kDigits, 30, 5);
  auto cfg = tiny_config();
  cfg.hidden_neurons = {16};
  Network net(cfg);
  Rng train_rng(5);
  train_epoch(net, ds, train_rng);
  Network fx = net;
  fx.set_engine(EngineKind::kEventFx);
  Rng r_float(6), r_fx(6);
  const auto a = label_neurons(net, ds, r_float);
  const auto b = label_neurons(fx, ds, r_fx);
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.bias, b.bias);
  EXPECT_EQ(r_float.next_u64(), r_fx.next_u64());
  EXPECT_EQ(fx.engine(), EngineKind::kEventFx);
}

TEST(LabelNeurons, RejectsADatasetWithoutClasses) {
  // A hand-built set leaves num_classes at 0: every label is out of range.
  Network net(tiny_config());
  auto ds = data::make_dataset(data::Task::kDigits, 10, 1);
  ds.num_classes = 0;
  Rng rng(3);
  EXPECT_THROW((void)label_neurons(net, ds, rng), ContractViolation);
  EXPECT_EQ(rng.next_u64(), Rng(3).next_u64());  // nothing drawn
}

TEST(LabelNeurons, RejectsALabelOutOfRange) {
  Network net(tiny_config());
  auto ds = data::make_dataset(data::Task::kDigits, 10, 1);
  ds.labels[7] = 10;  // num_classes is 10
  Rng rng(3);
  EXPECT_THROW((void)label_neurons(net, ds, rng), ContractViolation);
  EXPECT_EQ(rng.next_u64(), Rng(3).next_u64());
}

TEST(LabelNeurons, RejectsAWrongPixelWidth) {
  // The declared width must match the network, and so must every image:
  // a ragged image late in the set fails before the first sample draws.
  Network net(tiny_config());
  auto ds = data::make_dataset(data::Task::kDigits, 10, 1);
  ds.width = 27;
  Rng rng(3);
  EXPECT_THROW((void)label_neurons(net, ds, rng), ContractViolation);
  ds.width = 28;
  ds.images[8].pop_back();
  EXPECT_THROW((void)label_neurons(net, ds, rng), ContractViolation);
  EXPECT_EQ(rng.next_u64(), Rng(3).next_u64());
}

TEST(TrainEpoch, RejectsABadImageBeforeLearning) {
  // A ragged image, or a pixel outside [0, 1], late in the set fails before
  // the first sample learns or draws.
  Network net(tiny_config());
  const Network before = net;
  auto ds = data::make_dataset(data::Task::kDigits, 10, 1);
  ds.images[8].pop_back();
  Rng rng(3);
  EXPECT_THROW(train_epoch(net, ds, rng), ContractViolation);
  ds.images[8].push_back(0.0f);
  ds.images[9][4] = 1.5f;
  EXPECT_THROW(train_epoch(net, ds, rng), ContractViolation);
  EXPECT_EQ(net.weights(0), before.weights(0));
  EXPECT_EQ(net.thetas(0), before.thetas(0));
  EXPECT_EQ(rng.next_u64(), Rng(3).next_u64());
}

TEST(DeepNetwork, RejectsZeroSizedHiddenLayers) {
  auto cfg = tiny_config();
  cfg.hidden_neurons = {16, 0};
  EXPECT_THROW(Network net(cfg), ContractViolation);
}

}  // namespace
}  // namespace sparkxd::snn

// pipeline_hotpath — the canonical perf-trajectory benchmark.
//
// Times the SparkXD pipeline's phases separately — baseline training,
// fault-aware training, the DRAM energy sweep, and the Monte-Carlo
// corrupted-accuracy phase — and emits the stable sparkxd-bench-v1 JSON
// report (CI archives it as BENCH_4.json) so hot-path wins are tracked by
// machines, not commit messages.
//
// The Monte-Carlo phase is measured twice, single-threaded:
//   * hot     — the delta-injection hot path (core::evaluate_corrupted):
//               frozen candidate table shared across trials, flip-log
//               revert instead of a full snapshot restore, transposed
//               spike-gather kernel, reused per-worker inference scratch.
//   * legacy  — the pre-optimization loop, reconstructed faithfully here:
//               full weight-snapshot restore per trial, per-call candidate
//               enumeration (ErrorInjector::freeze on every trial), and the
//               row-major neuron-outer gather kernel.
// Both legs must produce the SAME mean accuracy bit for bit (the exit code
// enforces it); `speedup_vs_legacy` records the win. The hot-path gains are
// copy/enumeration/layout eliminations, so the ratio is thread-count
// independent — measuring at 1 thread keeps it stable on any CI host.
//
//   pipeline_hotpath [--json BENCH_4.json]
//
// Honours SPARKXD_SCALE / SPARKXD_SEED. Exit codes: 0 ok, 1 equivalence
// violation, 2 bad usage.

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_common.hpp"
#include "error/injector.hpp"
#include "mapping/mapping.hpp"
#include "snn/lif.hpp"

namespace {

using namespace sparkxd;
using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

/// The pre-optimization inference kernel: row-major weights, neuron-outer /
/// spike-inner gather (a serial dependent addition chain per neuron), full
/// LIF state owned per call. Kept here — not in the library — purely as the
/// legacy reference the hot path is measured and verified against.
std::vector<std::uint32_t> legacy_infer(const snn::Network& net,
                                        const std::vector<float>& image,
                                        snn::LifLayer& lif, Rng& rng) {
  const auto& cfg = net.config();
  const std::size_t ni = cfg.n_inputs;
  const std::size_t nn = cfg.n_neurons;
  const std::vector<float>& w = net.weights(0);
  snn::PoissonEncoder encoder(cfg.max_rate);
  lif.reset_dynamics();
  lif.set_plastic(false);
  encoder.set_image(image);
  std::vector<float> current(nn, 0.0f);
  std::vector<std::uint32_t> in_spikes, out_spikes, counts(nn, 0);
  for (std::size_t t = 0; t < cfg.timesteps; ++t) {
    encoder.step(rng, in_spikes);
    std::fill(current.begin(), current.end(), 0.0f);
    if (!in_spikes.empty()) {
      for (std::size_t n = 0; n < nn; ++n) {
        const float* row = w.data() + n * ni;
        float acc = 0.0f;
        for (const auto i : in_spikes) acc += row[i];
        current[n] = acc;
      }
    }
    lif.step(current, out_spikes);
    for (const auto s : out_spikes) ++counts[s];
  }
  return counts;
}

/// The pre-optimization Monte-Carlo loop: snapshot restore + per-call
/// candidate enumeration + legacy kernel. Stream derivation matches
/// core::evaluate_corrupted exactly, so the means must agree bit for bit.
double legacy_evaluate_corrupted(const snn::Network& net,
                                 const snn::NeuronLabels& labels,
                                 const error::ErrorInjector& injector,
                                 double ber, const data::Dataset& test,
                                 Rng& rng, std::size_t trials,
                                 float weight_clip) {
  const error::SanitizeRange sanitize{net.config().stdp.w_min, weight_clip};
  const std::uint64_t stream = rng.next_u64();
  const std::vector<float>& snapshot = net.weights(0);
  snn::Network scratch = net;
  snn::LifLayer lif(net.config().n_neurons, net.config().lif,
                    net.config().dt_ms);
  lif.thetas_mut() = net.thetas(0);
  double acc_sum = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    Rng inject_rng(hash_combine(stream, 2 * t));
    Rng eval_rng(hash_combine(stream, 2 * t + 1));
    if (t != 0) scratch.weights_mut(0) = snapshot;  // full per-trial restore
    injector.freeze(ber).inject(scratch.weights_mut(0), inject_rng,
                                sanitize);
    const std::uint64_t eval_stream = eval_rng.next_u64();
    std::size_t n_correct = 0;
    for (std::size_t i = 0; i < test.size(); ++i) {
      Rng sample_rng(hash_combine(eval_stream, i));
      const auto counts = legacy_infer(scratch, test.images[i], lif,
                                       sample_rng);
      n_correct += snn::vote_spike_counts(counts, labels) ==
                   static_cast<std::int32_t>(test.labels[i]);
    }
    acc_sum += static_cast<double>(n_correct) /
               static_cast<double>(test.size());
  }
  return acc_sum / static_cast<double>(trials);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = bench::json_out_path(argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      ++i;  // value consumed by json_out_path
    } else {
      std::fprintf(stderr, "pipeline_hotpath: unknown option '%s'\n",
                   argv[i]);
      return 2;
    }
  }
  // The phase ratios this bench records are thread-count independent (copy,
  // enumeration and layout eliminations); pin one worker so the absolute
  // numbers are comparable across CI hosts too.
  ::setenv("SPARKXD_THREADS", "1", 1);
  bench::banner("pipeline hot-path phase timings",
                "delta injection + frozen candidate tables + the transposed "
                "gather give >=1.5x fewer ns/trial in the Monte-Carlo phase "
                "than the pre-optimization loop, with bit-identical results");

  const std::uint64_t seed = experiment_seed();
  const auto cfg = bench::net_config(200);
  const std::size_t n_train = scaled(220, 100);
  const std::size_t n_test = scaled(80, 50);
  const std::size_t trials = std::max<std::size_t>(scaled(8), 4);

  // --- train ---------------------------------------------------------------
  const auto all = data::make_dataset(data::Task::kDigits, n_train + n_test,
                                      seed);
  const auto train = all.take(n_train);
  const auto test = all.drop(n_train);
  Rng rng(seed);
  const auto t0 = Clock::now();
  auto model = snn::train_and_label(cfg, train, test, 1, rng);
  const auto t1 = Clock::now();

  // --- fault training (Algorithm 1, short schedule) ------------------------
  const auto g = dram::Geometry::lpddr3_4gb();
  const error::SubarrayProfile profile(g, seed);
  const std::size_t n_weights = cfg.n_inputs * cfg.n_neurons;
  const auto place = mapping::baseline_placement(g, n_weights);
  const auto injector = error::ErrorInjector::for_weights(
      g, profile, {}, place, n_weights, seed, 1e-3);
  const core::LayerInjectors injectors{&injector};
  core::FaultTrainingConfig ft;
  ft.ber_stages = {1e-5, 1e-4, 1e-3};
  const auto t2 = Clock::now();
  const auto fa = core::improve_error_tolerance(model, ft, injectors, train,
                                                test, rng);
  const auto t3 = Clock::now();

  // --- DRAM energy sweep ---------------------------------------------------
  const std::vector<double> voltages = {1.325, 1.250, 1.175, 1.100, 1.025};
  const auto t4 = Clock::now();
  double energy_sum = 0.0;
  for (const double v : voltages)
    energy_sum +=
        core::weight_stream_energy(g, place, n_weights, v).energy.total_nj();
  const auto t5 = Clock::now();

  // --- Monte-Carlo phase: hot path vs legacy loop --------------------------
  const double ber = 1e-3;
  const auto timed_mc = [&](auto&& eval) {
    Rng warm(7);
    (void)eval(warm, std::size_t{2});  // warm-up: page in weights + caches
    Rng r(7);
    const auto s0 = Clock::now();
    const double acc = eval(r, trials);
    const auto s1 = Clock::now();
    return std::pair{ns_between(s0, s1), acc};
  };
  const auto [hot_ns, hot_acc] = timed_mc([&](Rng& r, std::size_t n) {
    return core::evaluate_corrupted(model.net, model.labels, injectors, ber,
                                    test, r, n);
  });
  const auto [legacy_ns, legacy_acc] = timed_mc([&](Rng& r, std::size_t n) {
    return legacy_evaluate_corrupted(model.net, model.labels, injector, ber,
                                     test, r, n, core::kDefaultWeightClip);
  });
  const double hot_per_trial = hot_ns / static_cast<double>(trials);
  const double legacy_per_trial = legacy_ns / static_cast<double>(trials);
  const double speedup = legacy_per_trial / std::max(hot_per_trial, 1.0);

  Table t("pipeline_hotpath",
          {"phase", "reps", "total [ms]", "ns/rep"});
  const auto row = [&](const char* name, std::size_t reps, double ns) {
    t.add_row({name, std::to_string(reps), Table::num(ns / 1e6, 1),
               Table::num(ns / static_cast<double>(reps), 0)});
  };
  row("train", 1, ns_between(t0, t1));
  row("fault_training", 1, ns_between(t2, t3));
  row("sweep", voltages.size(), ns_between(t4, t5));
  row("monte_carlo", trials, hot_ns);
  row("monte_carlo_legacy", trials, legacy_ns);
  t.emit();
  std::printf("\nmonte_carlo speedup vs legacy loop: %.2fx "
              "(%.1f -> %.1f ms/trial), accuracies bit-identical: %s\n",
              speedup, legacy_per_trial / 1e6, hot_per_trial / 1e6,
              hot_acc == legacy_acc ? "yes" : "NO — EQUIVALENCE VIOLATION");

  bench::BenchReport report("pipeline_hotpath");
  report.add_phase("train", 1, ns_between(t0, t1));
  auto& ftp = report.add_phase("fault_training", 1, ns_between(t2, t3));
  ftp.metrics.emplace_back("ber_th", fa.ber_th);
  report.add_phase("sweep", voltages.size(), ns_between(t4, t5))
      .metrics.emplace_back("energy_nj_sum", energy_sum);
  auto& mc = report.add_phase("monte_carlo", trials, hot_ns);
  mc.metrics.emplace_back("ns_per_trial", hot_per_trial);
  mc.metrics.emplace_back("accuracy", hot_acc);
  auto& mcl = report.add_phase("monte_carlo_legacy", trials, legacy_ns);
  mcl.metrics.emplace_back("ns_per_trial", legacy_per_trial);
  mcl.metrics.emplace_back("accuracy", legacy_acc);
  mcl.metrics.emplace_back("speedup_vs_legacy", speedup);
  if (json_path != nullptr && !report.write(json_path)) return 2;

  return hot_acc == legacy_acc ? 0 : 1;
}

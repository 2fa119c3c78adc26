// The repo benchmark: one command that runs a workload, checks its outputs,
// and prints every metric by name with its unit as one JSON line.
//
//   perfbench --workload registry|cold-deep|serve --seed N --seconds S
//             --trace 0|1
//
// --trace 0 measures the end-to-end metrics with nothing instrumented;
// --trace 1 is a separate run that times each layer from outside (see
// pipeline_trace.hpp) and reports the per-layer metrics. See README.md for
// why each workload exists and what every metric means.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "pipeline_trace.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "serve/artifact.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve_load.hpp"

namespace {

using namespace sparkxd;
using perfbench::PipelineTrace;
using perfbench::Span;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ constants

/// The serving workload's deployed scenario (its lowest grid voltage).
constexpr const char* kServeScenario = "digits-small-commodity-m0-deep3";
/// cold-deep: scenarios per pass (each 0.5-0.9 s on a shared 4-vCPU VM).
constexpr std::size_t kColdDeepScenarios = 8;
/// Repetitions of set-up per run; setup_s is their median.
constexpr std::size_t kPipelineSetupReps = 5;
constexpr std::size_t kServeSetupReps = 3;
/// serve: server and load shape.
constexpr std::size_t kServeWorkers = 3;
constexpr std::size_t kServeConnections = 4;
constexpr std::size_t kServeWindow = 8;
constexpr std::size_t kSaturateBlock = 10'000;  ///< requests per saturate block
constexpr std::size_t kImagePool = 256;
/// Open-loop rate of the paced phase: about a ninth of the median peak_rps
/// (8860 req/s) measured at the commit that introduced this benchmark, fixed
/// from then on so every later commit is loaded identically. At 4000 req/s
/// a shared host slowed by other guests brought the server close to its
/// limit, and the p50 then measured the host rather than the server.
constexpr double kPacedRps = 1000.0;
/// Length of the trace-only paced phase whose client delays its ACKs (see
/// perfbench::run_paced); it makes serve.paced_p50_delack_ms.
constexpr double kDelackPhaseS = 2.0;
/// The paced generator fell behind when its typical (median) send ran this
/// late; such a run is rejected instead of reported. Transient host stalls
/// only reach the tail, which client.late_ms_p99 reports.
constexpr double kMaxLateP50Us = 1000.0;
/// serve.paced_p99_ms is the median over windows of this many seconds of each
/// window's p99, so a single host stall does not decide it. At kPacedRps a
/// window holds 1000 requests, so its p99 still has 10 samples beyond it.
constexpr double kTailWindowS = 1.0;
/// Requests timed directly through Engine::classify / Network::infer.
constexpr std::size_t kDirectTimingRequests = 2000;

// ------------------------------------------------------------ helpers

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// One work unit's wall and CPU seconds.
struct Unit {
  double wall = 0.0;
  double cpu = 0.0;
};

/// Repeat work units while the next one (assumed as long as the last) still
/// ends within `seconds` of `start`, and at least kMinUnits times, so a run
/// never overshoots its time by a whole unit.
constexpr std::size_t kMinUnits = 3;
bool another_unit(Clock::time_point start, double seconds,
                  const std::vector<Unit>& units) {
  return units.size() < kMinUnits ||
         seconds_since(start) + units.back().wall <= seconds;
}

template <class F>
Unit measure(F&& f) {
  const double c0 = cpu_seconds();
  const auto t0 = Clock::now();
  f();
  return {seconds_since(t0), cpu_seconds() - c0};
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& why) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
    correct = false;
  }
};

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void print_result(const Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

bool is_golden(const std::string& name) {
  for (const auto g : scenario::kGoldenScenarios)
    if (name == g) return true;
  return false;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SPARKXD_REQUIRE(in.good(), "cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

const scenario::Scenario& builtin(const char* name) {
  const auto* s = scenario::find_scenario(name);
  SPARKXD_REQUIRE(s != nullptr,
                  std::string("missing built-in scenario ") + name);
  return *s;
}

// ------------------------------------------------------------ inputs

/// registry: every built-in row (44 at this commit) in registry order. The
/// golden-locked smoke rows keep their seeds (their digests are checked);
/// every other row's seed is remixed with the workload seed, so rows that
/// shared a training config still share it.
std::vector<scenario::Scenario> registry_inputs(std::uint64_t seed) {
  auto rows = scenario::builtin_scenarios();
  for (auto& s : rows)
    if (!is_golden(s.name)) s.seed = hash_combine(seed, s.seed);
  return rows;
}

/// cold-deep: the deep3 stack with SECDED, 8x relaxed refresh and the knob
/// search, each row on its own seed so no two rows share any work.
std::vector<scenario::Scenario> cold_deep_inputs(std::uint64_t seed) {
  std::vector<scenario::Scenario> rows;
  for (std::size_t k = 0; k < kColdDeepScenarios; ++k) {
    scenario::Scenario s = builtin(kServeScenario);
    s.name = "cold-deep-" + std::to_string(k);
    s.ecc = {error::EccKind::kSecded, 64, 0};
    s.refresh = dram::RefreshPolicy::reduced(8.0);
    s.layer_knobs = true;
    s.seed = hash_combine(seed, k);
    rows.push_back(std::move(s));
  }
  return rows;
}

/// Share of rows whose training-config subset repeats an earlier row's.
double shared_training_share(const std::vector<scenario::Scenario>& rows) {
  std::set<std::string> keys;
  for (const auto& s : rows)
    keys.insert(perfbench::training_key(s.pipeline_config()));
  return 1.0 - static_cast<double>(keys.size()) /
                   static_cast<double>(rows.size());
}

/// Set-up of a pipeline workload: build and validate its inputs, then run
/// one warm-up smoke scenario so thread start-up and lazily built tables are
/// paid before timing. Repeated; the median is setup_s.
template <class MakeInputs>
std::pair<std::vector<scenario::Scenario>, double> pipeline_setup(
    MakeInputs&& make_inputs) {
  std::vector<double> reps;
  std::vector<scenario::Scenario> rows;
  for (std::size_t r = 0; r < kPipelineSetupReps; ++r) {
    const auto t0 = Clock::now();
    rows = make_inputs();
    for (const auto& s : rows) s.validate();
    (void)scenario::run_scenarios({builtin("smoke-digits-m0")});
    reps.push_back(seconds_since(t0));
  }
  return {std::move(rows), median(reps)};
}

// ------------------------------------------------------------ traced runs

void emit_trace_metrics(Result& res, const PipelineTrace& t,
                        double shared_share, double traced_wall,
                        double untraced_wall, double accuracy_mean) {
  const auto ms = [&](Span s) { return t.get(s) * 1e-6; };
  res.metric("data.synth_ms", ms(Span::kSynth), "ms");
  res.metric("snn.train_epoch_ms", ms(Span::kTrainEpoch), "ms");
  res.metric("snn.label_ms", ms(Span::kLabel), "ms");
  res.metric("snn.evaluate_ms", ms(Span::kEvaluate), "ms");
  res.metric("core.algo1_ms", ms(Span::kAlgo1), "ms");
  res.metric("snn.train_ns_per_image",
             t.train_images ? t.get(Span::kTrainEpoch) /
                                  static_cast<double>(t.train_images)
                            : 0.0,
             "ns");
  res.metric("core.layer_tolerance_ms", ms(Span::kLayerTolerance), "ms");
  res.metric("error.profile_ms", ms(Span::kProfile), "ms");
  res.metric("error.injector_build_ms", ms(Span::kInjectorBuild), "ms");
  res.metric("error.ecc_encode_ms", ms(Span::kEccEncode), "ms");
  res.metric("mapping.placement_ms", ms(Span::kPlacement), "ms");
  res.metric("core.mc_eval_ms", ms(Span::kMcEval), "ms");
  res.metric("core.mc_ns_per_image",
             t.mc_images ? t.get(Span::kMcEval) /
                               static_cast<double>(t.mc_images)
                         : 0.0,
             "ns");
  res.metric("core.stream_cost_ms", ms(Span::kStreamCost), "ms");
  res.metric("core.sweep_ms", ms(Span::kSweep), "ms");
  res.metric("core.knob_search_ms", ms(Span::kKnobSearch), "ms");
  res.metric("scenario.shared_training_share", shared_share, "ratio");
  res.metric("dram.accesses", static_cast<double>(t.accesses), "count");
  res.metric("dram.row_hit_rate",
             t.accesses ? static_cast<double>(t.hits) /
                              static_cast<double>(t.accesses)
                        : 0.0,
             "ratio");
  res.metric("dram.refreshes", static_cast<double>(t.refreshes), "count");
  res.metric("dram.host_ns_per_access",
             t.accesses ? t.get(Span::kStreamCost) /
                              static_cast<double>(t.accesses)
                        : 0.0,
             "ns");
  res.metric("energy.dram_nj", t.dram_nj, "nJ");
  res.metric("energy.refresh_nj_share",
             t.dram_nj > 0.0 ? t.refresh_nj / t.dram_nj : 0.0, "ratio");
  res.metric("knobs.saving_pct",
             t.knob_uniform_nj > 0.0
                 ? 100.0 * (1.0 - t.knob_nj / t.knob_uniform_nj)
                 : 0.0,
             "%");
  res.metric("model.accuracy_mean", accuracy_mean, "ratio");
  res.metric("trace.coverage",
             t.scenario_ns > 0.0 ? t.covered_ns / t.scenario_ns : 0.0,
             "ratio");
  res.metric("trace.overhead", traced_wall / untraced_wall, "ratio");
}

/// What the parity gate compares: the row's digest and its full report bytes.
std::string parity_text(const scenario::ScenarioResult& r) {
  return scenario::digest(r) + scenario::to_json({r});
}

/// Mean per-voltage accuracy over a batch (a modelled output, not gated).
double accuracy_mean(const std::vector<scenario::ScenarioResult>& results) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& r : results)
    for (const auto& row : r.report.per_voltage) {
      sum += row.accuracy;
      ++n;
    }
  return n ? sum / static_cast<double>(n) : 0.0;
}

/// Traces every row (in parallel across rows when `parallel_rows`, the way
/// run_scenarios runs a batch; one after another otherwise) and checks each
/// replica's digest against the untraced result. Returns the traced wall.
double trace_rows(const std::vector<scenario::ScenarioResult>& untraced,
                  bool parallel_rows, PipelineTrace& total, Result& res) {
  std::vector<PipelineTrace> traces(untraced.size());
  std::vector<std::string> texts(untraced.size());
  const auto one = [&](std::size_t i) {
    const auto& s = untraced[i].scenario;
    texts[i] = parity_text(
        {s, perfbench::traced_pipeline(s.pipeline_config(), traces[i])});
  };
  const auto t0 = Clock::now();
  if (parallel_rows) {
    parallel_for(untraced.size(), one);
  } else {
    for (std::size_t i = 0; i < untraced.size(); ++i) one(i);
  }
  const double wall = seconds_since(t0);
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    total.merge(traces[i]);
    ++res.attempted;
    if (texts[i] != parity_text(untraced[i])) {
      ++res.failed;
      res.fail("parity gate: traced replica of " + untraced[i].scenario.name +
               " reports differently from run_pipeline");
    }
  }
  return wall;
}

void emit_serve_zero_metrics(Result& res) {
  // Pipeline workloads serve nothing: these layers do no work there.
  for (const char* name : {"serve.classify_us_p50", "snn.infer_us_p50",
                           "serve.wait_us_p50"})
    res.metric(name, 0.0, "us");
  res.metric("serve.batch_mean", 0.0, "count");
  res.metric("serve.max_queue_depth", 0.0, "count");
  res.metric("serve.flips_per_req", 0.0, "count");
  res.metric("client.retries", 0.0, "count");
  res.metric("client.late_ms_p99", 0.0, "ms");
  res.metric("serve.paced_p99_ms", 0.0, "ms");
  res.metric("serve.paced_p99_all_ms", 0.0, "ms");
  res.metric("serve.paced_p50_delack_ms", 0.0, "ms");
}

// ------------------------------------------------------------ pipelines

/// Runs a pipeline workload for `seconds`, repeating its rows: `batch` runs
/// them all in one run_scenarios call (rows in parallel, as `sparkxd_run
/// --all` does); otherwise one after another, so each row's sweep gets every
/// core. Checks that the report bytes repeat and that golden rows match
/// tests/golden.
void run_pipelines(const std::vector<scenario::Scenario>& rows, double setup_s,
                   bool batch, double seconds, bool trace, Result& res) {
  std::vector<Unit> units;
  // latency_ms[r]: row r's time from due to result, per repetition.
  std::vector<std::vector<double>> latency_ms(rows.size());
  std::string first_json;
  double rss_mb = 0.0;
  std::vector<scenario::ScenarioResult> results;
  const auto t_start = Clock::now();
  do {
    units.push_back(measure([&] {
      if (batch) {
        const auto t0 = Clock::now();
        results = scenario::run_scenarios(rows);
        // Every row of a batch is due at its start and delivered at its end.
        for (auto& l : latency_ms) l.push_back(seconds_since(t0) * 1e3);
        return;
      }
      results.clear();
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto t0 = Clock::now();
        results.push_back(scenario::run_scenarios({rows[i]}).front());
        latency_ms[i].push_back(seconds_since(t0) * 1e3);
      }
    }));
    res.attempted += rows.size();
    const std::string json = scenario::to_json(results);
    if (first_json.empty()) {
      // What one `sparkxd_run` process peaks at: set-up plus one repetition.
      rss_mb = peak_rss_mb();
      first_json = json;
      for (const auto& r : results)
        if (is_golden(r.scenario.name) &&
            scenario::digest(r) !=
                read_file("tests/golden/" + r.scenario.name + ".digest")) {
          ++res.failed;
          res.fail(r.scenario.name + " digest differs from its golden");
        }
    } else if (json != first_json) {
      res.failed += rows.size();
      res.fail("report bytes differ between repetitions");
    }
  } while (!trace && another_unit(t_start, seconds, units));

  if (trace) {
    PipelineTrace t;
    const double traced_wall = trace_rows(results, batch, t, res);
    emit_trace_metrics(res, t, shared_training_share(rows), traced_wall,
                       units.front().wall, accuracy_mean(results));
    emit_serve_zero_metrics(res);
    return;
  }
  std::vector<double> wall, cpu, row_ms;
  for (const auto& u : units) {
    wall.push_back(u.wall);
    cpu.push_back(u.cpu);
  }
  // A row's latency is the median of its repetitions, so one host stall
  // does not decide it; the p50 is taken across rows.
  for (const auto& reps : latency_ms) row_ms.push_back(median(reps));
  res.metric("setup_s", setup_s, "s");
  res.metric("wall_s", median(wall), "s");
  res.metric("cpu_s", median(cpu), "s");
  res.metric("peak_rss_mb", rss_mb, "MB");
  res.metric("peak_rps", static_cast<double>(rows.size()) / median(wall),
             "1/s");
  res.metric("paced_p50_ms", percentile(row_ms, 50.0), "ms");
}

// ------------------------------------------------------------ serve

/// The open-loop generator could not keep its schedule; the run is rejected
/// instead of reported.
struct GeneratorFellBehind : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Deployment {
  std::shared_ptr<const serve::ServingArtifact> artifact;
  std::unique_ptr<serve::Server> server;
  std::string report_text;  ///< parity_text of the exporting pipeline run
  double pipeline_s = 0.0;    ///< untraced run_pipeline wall
  double accuracy_mean = 0.0;
};

/// Builds the artifact from the pipeline (as `sparkxd_run
/// --export-artifact` does) and starts a server on it.
Deployment deploy() {
  const scenario::Scenario& s = builtin(kServeScenario);
  Deployment d;
  core::ArtifactState state;
  const auto t0 = Clock::now();
  const auto report = core::run_pipeline(s.pipeline_config(), &state);
  d.pipeline_s = seconds_since(t0);
  d.report_text = parity_text({s, report});
  d.accuracy_mean = accuracy_mean({{s, report}});
  d.artifact = std::make_shared<const serve::ServingArtifact>(
      serve::make_artifact(s.name, std::move(state)));
  serve::ServerConfig config;
  config.workers = kServeWorkers;
  d.server = std::make_unique<serve::Server>(d.artifact, config);
  d.server->start();
  return d;
}

/// Median over consecutive kTailWindowS windows (requests in due order) of
/// each window's p99 latency.
double windowed_p99_us(const std::vector<double>& latency_us) {
  const auto per_window = std::max<std::size_t>(
      1, static_cast<std::size_t>(kPacedRps * kTailWindowS));
  std::vector<double> p99s;
  for (std::size_t b = 0; b < latency_us.size(); b += per_window) {
    const auto e = std::min(latency_us.size(), b + per_window);
    p99s.push_back(percentile({latency_us.begin() + b, latency_us.begin() + e},
                              99.0));
  }
  return median(p99s);
}

std::uint64_t digest_of(std::vector<serve::ClassifyReply> replies) {
  return serve::digest_replies(replies);
}

void run_serve(std::uint64_t seed, double seconds, bool trace, Result& res) {
  std::vector<double> setup_reps, pipeline_reps;
  Deployment d;
  for (std::size_t r = 0; r < kServeSetupReps; ++r) {
    d.server.reset();  // drains and joins the previous repetition's server
    const auto t0 = Clock::now();
    d = deploy();
    setup_reps.push_back(seconds_since(t0));
    pipeline_reps.push_back(d.pipeline_s);
  }
  const std::uint16_t port = d.server->port();
  // Traced: the artifact build (the offline pipeline) layer by layer, right
  // after the untraced builds it is compared with, and parity-gated
  // against them.
  PipelineTrace t;
  double traced_wall = 0.0;
  if (trace) {
    const scenario::Scenario& s = builtin(kServeScenario);
    core::ArtifactState state;
    const auto t0 = Clock::now();
    const auto report =
        perfbench::traced_pipeline(s.pipeline_config(), t, &state);
    traced_wall = seconds_since(t0);
    ++res.attempted;
    if (parity_text({s, report}) != d.report_text) {
      ++res.failed;
      res.fail("parity gate: traced artifact build reports differently");
    }
  }
  const auto pool = data::make_dataset(data::Task::kDigits, kImagePool, seed);

  // Saturate: closed loop through serve::replay, in fixed-size blocks.
  const double phase_s = seconds / 2.0;
  std::vector<Unit> blocks;
  std::vector<std::uint64_t> block_seeds, block_digests;
  std::uint64_t retries = 0;
  const auto t_sat = Clock::now();
  do {
    serve::ClientOptions opt;
    opt.requests = kSaturateBlock;
    opt.connections = kServeConnections;
    opt.window = kServeWindow;
    opt.base_seed = hash_combine(seed, 100 + blocks.size());
    serve::ReplayStats st;
    blocks.push_back(measure(
        [&] { st = serve::replay("127.0.0.1", port, pool, opt); }));
    block_seeds.push_back(opt.base_seed);
    block_digests.push_back(st.digest);
    retries += st.retries;
    res.attempted += kSaturateBlock;
    if (st.replies != kSaturateBlock) {
      res.failed += kSaturateBlock - st.replies;
      res.fail("saturate phase lost replies");
    }
  } while (another_unit(t_sat, phase_s, blocks));

  // Paced: open loop at the fixed rate, from a client that ACKs at once.
  const auto before = serve::fetch_stats("127.0.0.1", port);
  const std::uint64_t paced_seed = hash_combine(seed, 1);
  const auto paced_n = static_cast<std::size_t>(kPacedRps * phase_s);
  const auto paced = perfbench::run_paced(port, pool, paced_seed, paced_n,
                                          kPacedRps, kServeConnections, true);
  const auto after = serve::fetch_stats("127.0.0.1", port);
  // Traced: the same load from a client that delays its ACKs, as a default
  // socket does, so the server's Nagle stalls show (ungated).
  const std::uint64_t delack_seed = hash_combine(seed, 2);
  const auto delack_n = static_cast<std::size_t>(kPacedRps * kDelackPhaseS);
  perfbench::PacedResult delack;
  if (trace) {
    delack = perfbench::run_paced(port, pool, delack_seed, delack_n,
                                  kPacedRps, kServeConnections, false);
    res.attempted += delack_n;
    res.failed += delack.rejected;
    if (delack.rejected) res.fail("delayed-ACK phase had rejected requests");
  }
  const double rss_mb = peak_rss_mb();  // before the oracle's own memory
  res.attempted += paced_n;
  res.failed += paced.rejected;
  if (paced.rejected) res.fail("paced phase had rejected requests");
  d.server.reset();

  double late_p50 = percentile(paced.late_us, 50.0);
  if (trace) late_p50 = std::max(late_p50, percentile(delack.late_us, 50.0));
  if (late_p50 > kMaxLateP50Us) {
    throw GeneratorFellBehind("paced generator fell behind (median send "
                              "lateness " + std::to_string(late_p50) +
                              " us); run rejected");
  }

  // Output checks: every reply equals the in-process oracle.
  for (std::size_t b = 0; b < blocks.size(); ++b)
    if (digest_of(perfbench::oracle_replies(*d.artifact, pool, block_seeds[b],
                                            kSaturateBlock)) !=
        block_digests[b]) {
      res.failed += kSaturateBlock;
      res.fail("saturate block " + std::to_string(b) +
               " digest differs from the Engine::classify oracle");
    }
  const auto paced_oracle =
      perfbench::oracle_replies(*d.artifact, pool, paced_seed, paced_n);
  if (digest_of(paced_oracle) != digest_of(paced.replies)) {
    res.failed += paced_n;
    res.fail("paced digest differs from the Engine::classify oracle");
  }
  if (trace && digest_of(perfbench::oracle_replies(*d.artifact, pool,
                                                   delack_seed, delack_n)) !=
                   digest_of(delack.replies)) {
    res.failed += delack_n;
    res.fail("delayed-ACK digest differs from the Engine::classify oracle");
  }

  const double paced_p50_us = percentile(paced.latency_us, 50.0);
  if (!trace) {
    std::vector<double> wall, cpu, rps;
    for (const auto& u : blocks) {
      wall.push_back(u.wall);
      cpu.push_back(u.cpu);
      rps.push_back(static_cast<double>(kSaturateBlock) / u.wall);
    }
    res.metric("setup_s", median(setup_reps), "s");
    res.metric("wall_s", median(wall), "s");
    res.metric("cpu_s", median(cpu), "s");
    res.metric("peak_rss_mb", rss_mb, "MB");
    res.metric("peak_rps", median(rps), "1/s");
    res.metric("paced_p50_ms", paced_p50_us * 1e-3, "ms");
    return;
  }

  emit_trace_metrics(res, t, 0.0, traced_wall, median(pipeline_reps),
                     d.accuracy_mean);

  // Direct layer timings over the paced request stream.
  serve::Engine engine(*d.artifact);
  snn::Network clean = d.artifact->model.net;
  clean.sync_transpose();
  clean.set_engine(snn::EngineKind::kEvent);  // the serving kernel
  snn::InferenceState state_inf(clean);
  std::vector<double> classify_us, infer_us;
  double flips = 0.0;
  for (std::size_t i = 0; i < kDirectTimingRequests; ++i) {
    const auto request = perfbench::make_request(pool, paced_seed, i);
    auto c0 = Clock::now();
    const auto reply = engine.classify(request);
    classify_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - c0).count());
    if (!(reply == paced_oracle[i])) {
      ++res.failed;
      res.fail("direct Engine::classify reply differs from the oracle");
    }
    Rng spike_rng(hash_combine(request.seed, 1));
    c0 = Clock::now();
    (void)clean.infer(state_inf, request.image, spike_rng);
    infer_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - c0).count());
  }
  for (const auto& r : paced.replies) flips += r.flips;
  const double classify_p50 = percentile(classify_us, 50.0);
  const std::uint64_t paced_batches = after.batches - before.batches;
  res.metric("serve.classify_us_p50", classify_p50, "us");
  res.metric("snn.infer_us_p50", percentile(infer_us, 50.0), "us");
  res.metric("serve.wait_us_p50", paced_p50_us - classify_p50, "us");
  res.metric("serve.batch_mean",
             paced_batches ? static_cast<double>(after.served - before.served) /
                                 static_cast<double>(paced_batches)
                           : 0.0,
             "count");
  res.metric("serve.max_queue_depth",
             static_cast<double>(after.max_queue_depth), "count");
  res.metric("serve.flips_per_req", flips / static_cast<double>(paced_n),
             "count");
  res.metric("client.retries", static_cast<double>(retries), "count");
  res.metric("client.late_ms_p99", percentile(paced.late_us, 99.0) * 1e-3,
             "ms");
  res.metric("serve.paced_p99_ms", windowed_p99_us(paced.latency_us) * 1e-3,
             "ms");
  res.metric("serve.paced_p99_all_ms",
             percentile(paced.latency_us, 99.0) * 1e-3, "ms");
  res.metric("serve.paced_p50_delack_ms",
             percentile(delack.latency_us, 50.0) * 1e-3, "ms");
}

// ------------------------------------------------------------ main

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "registry|cold-deep|serve --seed N --seconds S --trace 0|1\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        workload = val;
      } else if (arg == "--seed") {
        seed = std::stoull(val);
      } else if (arg == "--seconds") {
        seconds = std::stod(val);
      } else if (arg == "--trace") {
        trace = std::stoi(val);
      } else {
        usage(("unknown flag " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!(seconds > 0.0) || (trace != 0 && trace != 1))
    usage("--seconds must be positive and --trace 0 or 1");

  Result res;
  try {
    if (workload == "registry" || workload == "cold-deep") {
      const bool registry = workload == "registry";
      const auto [rows, setup_s] = pipeline_setup([&] {
        return registry ? registry_inputs(seed) : cold_deep_inputs(seed);
      });
      run_pipelines(rows, setup_s, registry, seconds, trace == 1, res);
    } else if (workload == "serve") {
      run_serve(seed, seconds, trace == 1, res);
    } else {
      usage(("unknown workload '" + workload + "'").c_str());
    }
  } catch (const GeneratorFellBehind& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const Metric& m : res.metrics)
    if (!std::isfinite(m.value)) res.fail(m.name + " is not finite");
  print_result(res);
  return res.correct && res.failed == 0 ? 0 : 1;
}

#include "pipeline_trace.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "data/dataset.hpp"
#include "error/ecc_scheme.hpp"
#include "error/injector.hpp"
#include "error/subarray_profile.hpp"
#include "mapping/mapping.hpp"
#include "snn/trainer.hpp"

namespace perfbench {

using namespace sparkxd;

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Times f() into `trace`'s span `s`. Top-level spans (the scenario's own
/// thread, outside the sweep) also count toward trace coverage.
template <class F>
decltype(auto) timed(PipelineTrace& trace, Span s, bool top, F&& f) {
  struct Timer {
    PipelineTrace& trace;
    Span s;
    bool top;
    Clock::time_point t0 = Clock::now();
    ~Timer() {
      const double dt = ns_since(t0);
      trace.at(s) += dt;
      if (top) trace.covered_ns += dt;
    }
  } timer{trace, s, top};
  return f();
}

void add_stream(PipelineTrace& trace, const core::TraceEnergy& te) {
  trace.accesses += te.stats.accesses;
  trace.hits += te.stats.hits;
  trace.refreshes += te.stats.refreshes;
  trace.refresh_nj += te.energy.refresh_nj;
  trace.dram_nj += te.energy.total_nj();
}

}  // namespace

void PipelineTrace::merge(const PipelineTrace& o) {
  for (std::size_t i = 0; i < ns.size(); ++i) ns[i] += o.ns[i];
  train_images += o.train_images;
  mc_images += o.mc_images;
  accesses += o.accesses;
  hits += o.hits;
  refreshes += o.refreshes;
  refresh_nj += o.refresh_nj;
  dram_nj += o.dram_nj;
  knob_nj += o.knob_nj;
  knob_uniform_nj += o.knob_uniform_nj;
  covered_ns += o.covered_ns;
  scenario_ns += o.scenario_ns;
}

std::string training_key(const core::PipelineConfig& cfg) {
  const auto& n = cfg.network;
  std::ostringstream k;
  k << std::hexfloat << data::to_string(cfg.task) << '|' << n.n_inputs << '|'
    << n.n_neurons << '|';
  for (const std::size_t h : n.hidden_neurons) k << h << ',';
  k << '|' << n.timesteps << '|' << n.dt_ms << '|' << n.max_rate << '|'
    << n.norm_target << '|' << n.seed << '|' << cfg.seed << '|'
    << cfg.train_samples << '|' << cfg.test_samples << '|'
    << cfg.baseline_epochs << '|' << n.lif.v_rest << '|' << n.lif.v_reset
    << '|' << n.lif.v_thresh << '|' << n.lif.tau_m_ms << '|'
    << n.lif.refractory_steps << '|' << n.lif.theta_plus << '|'
    << n.lif.tau_theta_ms << '|' << n.lif.inhibition << '|'
    << n.lif.winner_take_all << '|' << n.lif.compete_at_inference << '|'
    << n.stdp.eta << '|' << n.stdp.x_target << '|' << n.stdp.tau_pre_ms
    << '|' << n.stdp.w_min << '|' << n.stdp.w_max;
  return k.str();
}

core::PipelineReport traced_pipeline(const core::PipelineConfig& cfg,
                                     PipelineTrace& trace,
                                     core::ArtifactState* artifact) {
  const auto t_start = Clock::now();
  cfg.validate();
  const std::size_t capture_vi =
      artifact == nullptr ? core::ArtifactState::npos
      : artifact->voltage_index == core::ArtifactState::npos
          ? cfg.voltages.size() - 1
          : artifact->voltage_index;
  if (artifact != nullptr)
    SPARKXD_REQUIRE(capture_vi < cfg.voltages.size(),
                    "artifact voltage index is outside the voltage grid");
  Rng rng(cfg.seed);
  core::PipelineReport report;

  // --- Data + baseline model (snn::train_and_label, call by call). -----------
  data::Dataset train, test;
  timed(trace, Span::kSynth, true, [&] {
    const auto all = data::make_dataset(
        cfg.task, cfg.train_samples + cfg.test_samples, cfg.seed);
    train = all.take(cfg.train_samples);
    test = all.drop(cfg.train_samples);
  });
  snn::TrainedModel baseline{snn::Network(cfg.network), {}, 0.0};
  for (std::size_t e = 0; e < cfg.baseline_epochs; ++e) {
    timed(trace, Span::kTrainEpoch, true,
          [&] { snn::train_epoch(baseline.net, train, rng); });
    trace.train_images += train.size();
  }
  baseline.labels = timed(trace, Span::kLabel, true, [&] {
    return snn::label_neurons(baseline.net, train, rng);
  });
  baseline.clean_accuracy = timed(trace, Span::kEvaluate, true, [&] {
    return snn::evaluate(baseline.net, baseline.labels, test, rng);
  });
  report.baseline_accuracy = baseline.clean_accuracy;

  // --- Substrate models. -----------------------------------------------------
  const energy::VoltageModel voltage_model;
  const energy::BerModel ber_model;
  const energy::PowerModel power_model;
  const auto profile = timed(trace, Span::kProfile, true, [&] {
    return error::SubarrayProfile(cfg.geometry, cfg.seed, cfg.subarray_sigma);
  });
  const std::size_t n_layers = cfg.network.n_layers();
  std::vector<std::size_t> layer_weights(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l)
    layer_weights[l] = cfg.network.layer_weight_count(l);

  const auto base_places = timed(trace, Span::kPlacement, true, [&] {
    return mapping::baseline_placement_layers(cfg.geometry, layer_weights);
  });
  const double max_stage_ber = cfg.fault_training.ber_stages.back();
  std::vector<error::ErrorInjector> train_injectors;
  train_injectors.reserve(n_layers);
  timed(trace, Span::kInjectorBuild, true, [&] {
    for (std::size_t l = 0; l < n_layers; ++l)
      train_injectors.push_back(error::ErrorInjector::for_weights(
          cfg.geometry, profile, cfg.error_model, base_places[l],
          layer_weights[l], cfg.seed, max_stage_ber));
  });
  core::LayerInjectors train_injector_ptrs;
  for (const auto& inj : train_injectors) train_injector_ptrs.push_back(&inj);

  // --- Algorithm 1. ----------------------------------------------------------
  auto fa = timed(trace, Span::kAlgo1, true, [&] {
    return core::improve_error_tolerance(baseline, cfg.fault_training,
                                         train_injector_ptrs, train, test, rng);
  });
  report.ber_th = fa.ber_th;
  report.met_target = fa.met_target;
  report.stage_curve = std::move(fa.stage_curve);
  report.improved_accuracy = timed(trace, Span::kEvaluate, true, [&] {
    return snn::evaluate(fa.improved.net, fa.improved.labels, test, rng);
  });
  if (artifact != nullptr) {
    artifact->model = fa.improved;
    artifact->model->clean_accuracy = report.improved_accuracy;
    artifact->weight_clip = cfg.fault_training.weight_clip;
  }

  // --- Per-layer tolerance analysis (deep stacks only). ----------------------
  report.layer_ber_th.assign(n_layers, fa.met_target ? fa.ber_th : 0.0);
  report.layer_met_target.assign(n_layers, fa.met_target);
  if (n_layers > 1) {
    const double target =
        baseline.clean_accuracy - cfg.fault_training.accuracy_bound;
    const auto per_layer = timed(trace, Span::kLayerTolerance, true, [&] {
      return core::analyze_layer_tolerance(
          fa.improved.net, fa.improved.labels, train_injector_ptrs,
          cfg.fault_training.ber_stages, target, test, rng,
          cfg.fault_training.eval_trials, cfg.fault_training.weight_clip);
    });
    report.layer_curves.resize(n_layers);
    for (std::size_t l = 0; l < n_layers; ++l) {
      report.layer_ber_th[l] =
          per_layer[l].met_target ? per_layer[l].ber_th : 0.0;
      report.layer_met_target[l] = per_layer[l].met_target;
      report.layer_curves[l] = per_layer[l].curve;
    }
  }

  // --- ECC ladder + check words. ---------------------------------------------
  const bool ecc_on = cfg.ecc.enabled();
  std::vector<std::unique_ptr<error::EccScheme>> ecc_ladder;
  std::vector<std::vector<std::vector<std::uint64_t>>> ecc_checks;
  if (ecc_on) {
    timed(trace, Span::kEccEncode, true, [&] {
      for (const error::EccSpec& spec : error::ecc_escalation_ladder(cfg.ecc))
        ecc_ladder.push_back(error::make_ecc_scheme(spec));
      ecc_checks.resize(ecc_ladder.size());
      for (std::size_t k = 0; k < ecc_ladder.size(); ++k) {
        ecc_checks[k].resize(n_layers);
        for (std::size_t l = 0; l < n_layers; ++l)
          ecc_checks[k][l] = error::ecc_encode_buffer(
              *ecc_ladder[k], fa.improved.net.weights(l));
      }
    });
  }

  // --- Baseline energy reference. --------------------------------------------
  const dram::RefreshPolicy baseline_refresh =
      cfg.refresh.simulated() ? dram::RefreshPolicy::nominal()
                              : dram::RefreshPolicy::disabled();
  for (std::size_t l = 0; l < n_layers; ++l) {
    const auto base_te = timed(trace, Span::kStreamCost, true, [&] {
      return core::weight_stream_energy(
          cfg.geometry, base_places[l], layer_weights[l], energy::kNominalVdd,
          voltage_model, power_model, /*salp=*/false, baseline_refresh);
    });
    add_stream(trace, base_te);
    report.baseline_energy_nj += base_te.energy.total_nj();
    report.baseline_time_ns += base_te.stats.total_time_ns;
  }

  // --- Per-voltage sweep: each voltage traces into its own slot. -------------
  report.per_voltage.resize(cfg.voltages.size());
  std::vector<PipelineTrace> slots(cfg.voltages.size());
  const Rng sweep_rng = rng;
  timed(trace, Span::kSweep, true, [&] {
    parallel_for(cfg.voltages.size(), [&](std::size_t vi) {
      PipelineTrace& slot = slots[vi];
      const double v = cfg.voltages[vi];
      Rng vrng = sweep_rng.fork(vi);
      core::VoltageReport row;
      row.v_supply = v;
      row.module_ber = ber_model.ber(v);

      std::vector<std::size_t> scheme_idx(n_layers, 0);
      std::vector<double> place_th = report.layer_ber_th;
      std::vector<std::size_t> stored_weights = layer_weights;
      if (ecc_on) {
        for (std::size_t l = 0; l < n_layers; ++l) {
          std::size_t k = 0;
          while (k + 1 < ecc_ladder.size() &&
                 ecc_ladder[k]->tolerable_raw_ber(report.layer_ber_th[l]) <
                     row.module_ber)
            ++k;
          scheme_idx[l] = k;
          place_th[l] = std::max(
              report.layer_ber_th[l],
              ecc_ladder[k]->tolerable_raw_ber(report.layer_ber_th[l]));
          stored_weights[l] =
              layer_weights[l] +
              error::ecc_check_float_equiv(*ecc_ladder[k], layer_weights[l]);
        }
      }

      const auto placement = timed(slot, Span::kPlacement, false, [&] {
        return mapping::sparkxd_placement_layers(
            cfg.geometry, profile, row.module_ber, place_th, stored_weights);
      });
      for (const auto& lp : placement) {
        row.capacity_relaxed |= lp.capacity_relaxed;
        row.safe_subarrays = std::max(row.safe_subarrays, lp.safe_subarrays);
      }

      std::vector<error::ErrorInjector> eval_injectors;
      eval_injectors.reserve(n_layers);
      timed(slot, Span::kInjectorBuild, false, [&] {
        for (std::size_t l = 0; l < n_layers; ++l)
          eval_injectors.push_back(error::ErrorInjector::for_weights(
              cfg.geometry, profile, cfg.error_model, placement[l].chunks,
              layer_weights[l], cfg.seed, std::max(row.module_ber, 1e-12)));
      });
      core::LayerInjectors eval_ptrs;
      for (const auto& inj : eval_injectors) eval_ptrs.push_back(&inj);
      std::vector<core::EccScrubTotals> scrub_totals;
      row.accuracy = timed(slot, Span::kMcEval, false, [&] {
        if (ecc_on) {
          core::LayerEcc layer_ecc(n_layers);
          for (std::size_t l = 0; l < n_layers; ++l)
            layer_ecc[l] = {ecc_ladder[scheme_idx[l]].get(),
                            &ecc_checks[scheme_idx[l]][l]};
          return core::evaluate_corrupted_ecc(
              fa.improved.net, fa.improved.labels, eval_ptrs, layer_ecc,
              row.module_ber, test, vrng, cfg.fault_training.eval_trials,
              cfg.fault_training.weight_clip, &scrub_totals);
        }
        return core::evaluate_corrupted(
            fa.improved.net, fa.improved.labels, eval_ptrs, row.module_ber,
            test, vrng, cfg.fault_training.eval_trials,
            cfg.fault_training.weight_clip);
      });
      slot.mc_images += cfg.fault_training.eval_trials * test.size();

      if (artifact != nullptr && vi == capture_vi) {
        artifact->v_supply = v;
        artifact->module_ber = row.module_ber;
        artifact->placement = placement;
        artifact->frozen.clear();
        timed(slot, Span::kInjectorBuild, false, [&] {
          for (const auto& inj : eval_injectors)
            artifact->frozen.push_back(inj.freeze(row.module_ber));
        });
      }

      row.layers.resize(n_layers);
      double total_time_ns = 0.0;
      std::uint64_t hits = 0, accesses = 0;
      for (std::size_t l = 0; l < n_layers; ++l) {
        core::EccStreamOverhead ecc_oh;
        if (ecc_on) {
          const error::EccScheme& scheme = *ecc_ladder[scheme_idx[l]];
          ecc_oh.codewords =
              error::ecc_codeword_count(scheme, layer_weights[l]);
          ecc_oh.decode_ns_per_codeword = scheme.decode_latency_ns();
          ecc_oh.decode_nj_per_codeword = scheme.decode_energy_nj();
        }
        const auto te = timed(slot, Span::kStreamCost, false, [&] {
          return core::weight_stream_energy(
              cfg.geometry, placement[l].chunks, stored_weights[l], v,
              voltage_model, power_model, cfg.salp, cfg.refresh,
              ecc_on ? &ecc_oh : nullptr);
        });
        add_stream(slot, te);
        core::LayerVoltageStats& ls = row.layers[l];
        ls.ber_th = placement[l].ber_th;
        ls.capacity_relaxed = placement[l].capacity_relaxed;
        ls.chunks = placement[l].chunks.size();
        ls.safe_subarrays = placement[l].safe_subarrays;
        ls.energy_nj = te.energy.total_nj();
        ls.row_hit_rate = te.stats.hit_rate();
        ls.refreshes = te.stats.refreshes;
        ls.retention_weak_cells = eval_injectors[l].retention_candidate_count();
        if (ecc_on) {
          const error::EccScheme& scheme = *ecc_ladder[scheme_idx[l]];
          ls.ecc_scheme = scheme.name();
          ls.ecc_escalated = scheme_idx[l] > 0;
          ls.ecc_overhead = scheme.storage_overhead();
          ls.ecc_codewords = scrub_totals[l].codewords;
          ls.ecc_corrected = scrub_totals[l].corrected;
          ls.ecc_detected = scrub_totals[l].detected;
          ls.ecc_energy_nj = te.energy.ecc_nj;
          row.ecc_codewords += ls.ecc_codewords;
          row.ecc_corrected += ls.ecc_corrected;
          row.ecc_detected += ls.ecc_detected;
        }
        row.refreshes += ls.refreshes;
        row.retention_weak_cells += ls.retention_weak_cells;
        row.energy_nj += ls.energy_nj;
        total_time_ns += te.stats.total_time_ns;
        hits += te.stats.hits;
        accesses += te.stats.accesses;
      }
      row.saving_pct =
          100.0 * (1.0 - row.energy_nj / report.baseline_energy_nj);
      row.speedup = total_time_ns > 0.0
                        ? report.baseline_time_ns / total_time_ns
                        : 1.0;
      row.row_hit_rate = accesses ? static_cast<double>(hits) /
                                        static_cast<double>(accesses)
                                  : 0.0;
      report.per_voltage[vi] = row;
    });
  });
  for (const auto& slot : slots) trace.merge(slot);

  // --- Per-layer operating-point search. -------------------------------------
  if (cfg.layer_knobs.enabled) {
    core::LayerKnobsInputs in;
    in.geometry = cfg.geometry;
    in.profile = &profile;
    in.error_model = cfg.error_model;
    in.voltages = cfg.voltages;
    in.ecc = cfg.ecc;
    in.layer_ber_th = report.layer_ber_th;
    in.layer_met_target.assign(report.layer_met_target.begin(),
                               report.layer_met_target.end());
    in.layer_weights = layer_weights;
    in.salp = cfg.salp;
    in.seed = cfg.seed;
    report.layer_knobs = timed(trace, Span::kKnobSearch, true, [&] {
      return core::assign_layer_knobs(cfg.layer_knobs, in);
    });
    if (report.layer_knobs->uniform_feasible) {
      trace.knob_nj += report.layer_knobs->total_energy_nj;
      trace.knob_uniform_nj += report.layer_knobs->uniform_energy_nj;
    }
  }
  trace.scenario_ns += ns_since(t_start);
  return report;
}

}  // namespace perfbench

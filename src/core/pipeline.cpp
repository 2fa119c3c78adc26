#include "core/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <locale>
#include <sstream>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "dram/controller.hpp"
#include "snn/trainer.hpp"

namespace sparkxd::core {

void PipelineConfig::validate() const {
  SPARKXD_REQUIRE(train_samples > 0, "need at least one training sample");
  SPARKXD_REQUIRE(test_samples > 0, "need at least one test sample");
  SPARKXD_REQUIRE(network.n_inputs > 0 && network.n_neurons > 0,
                  "network must have inputs and neurons");
  for (const std::size_t h : network.hidden_neurons)
    SPARKXD_REQUIRE(h > 0, "hidden layer sizes must be positive");
  SPARKXD_REQUIRE(!fault_training.ber_stages.empty(),
                  "fault-training schedule needs at least one BER stage");
  for (std::size_t i = 0; i < fault_training.ber_stages.size(); ++i) {
    const double b = fault_training.ber_stages[i];
    SPARKXD_REQUIRE(std::isfinite(b) && b > 0.0 && b < 1.0,
                    "BER stages must lie in (0, 1)");
    SPARKXD_REQUIRE(i == 0 || fault_training.ber_stages[i - 1] < b,
                    "BER stages must be strictly ascending");
  }
  SPARKXD_REQUIRE(!voltages.empty(),
                  "voltage grid is empty — need at least one supply voltage");
  for (std::size_t i = 0; i < voltages.size(); ++i) {
    SPARKXD_REQUIRE(std::isfinite(voltages[i]) && voltages[i] > 0.0,
                    "supply voltages must be positive and finite");
    SPARKXD_REQUIRE(i == 0 || voltages[i - 1] > voltages[i],
                    "voltage grid must be strictly descending "
                    "(paper order, 1.325 V down to 1.025 V)");
  }
  geometry.validate();
  refresh.validate(dram::TimingParams::lpddr3_1600());
  error_model.retention.validate();
  ecc.validate();
  layer_knobs.validate();

  // Capacity: the sweep's Algorithm-2 placement retires whole rows per
  // layer, so even with every subarray relaxed to safe, layer l needs
  // ceil(chunks_l / bursts_per_row) rows of its own. Its stored footprint
  // includes the configured code's check words (an escalated code stores
  // at least as many). Checked here so an undersized module fails before
  // any training rather than in the first placement after it.
  const std::uint64_t bursts_per_row =
      geometry.columns_per_row / geometry.burst_columns;
  SPARKXD_REQUIRE(bursts_per_row > 0,
                  "a DRAM row must hold at least one burst");
  const std::uint64_t module_rows =
      geometry.total_subarrays() * geometry.rows_per_subarray;
  const auto scheme = ecc.enabled() ? error::make_ecc_scheme(ecc) : nullptr;
  std::uint64_t rows_used = 0;
  for (std::size_t l = 0; l < network.n_layers(); ++l) {
    const std::size_t weights = network.layer_weight_count(l);
    const std::size_t stored =
        weights +
        (scheme ? error::ecc_check_float_equiv(*scheme, weights) : 0);
    const std::uint64_t rows =
        (mapping::chunks_for_weights(geometry, stored) + bursts_per_row - 1) /
        bursts_per_row;
    const auto too_small = [&] {
      std::ostringstream msg;
      msg << "DRAM module too small for the weight data: layer " << l
          << " stores " << stored << " words (" << weights
          << " weights + check words) in " << rows << " rows of "
          << geometry.row_bytes() << " B, but only "
          << module_rows - rows_used << " of the module's " << module_rows
          << " rows remain";
      return msg.str();
    };
    SPARKXD_REQUIRE(rows <= module_rows - rows_used, too_small());
    rows_used += rows;
  }
}

EccStreamOverhead ecc_stream_overhead(const error::EccScheme& scheme,
                                      std::size_t n_weights) {
  if (scheme.kind() == error::EccKind::kNone) return {};
  return {error::ecc_codeword_count(scheme, n_weights),
          scheme.decode_latency_ns(), scheme.decode_energy_nj()};
}

TraceEnergy weight_stream_energy(const dram::Geometry& geometry,
                                 const error::ChunkPlacement& placement,
                                 std::size_t n_weights, double v_supply,
                                 const energy::VoltageModel& vm,
                                 const energy::PowerModel& pm, bool salp,
                                 const dram::RefreshRegions& refresh,
                                 const EccStreamOverhead* ecc) {
  const auto timing = vm.derive_timings(v_supply);
  dram::Controller controller(geometry, timing, salp, refresh);
  const auto trace =
      mapping::streaming_read_trace(geometry, placement, n_weights);
  TraceEnergy te;
  te.stats = controller.run(trace, kBurstArrivalNs);
  if (ecc != nullptr && ecc->codewords > 0) {
    // The scrub engine decodes every fetched codeword; the added time
    // extends the makespan BEFORE energy conversion so background (and the
    // estimated-refresh term) accrue over it, and the reported speedup vs
    // the accurate baseline reflects the decode latency.
    te.stats.total_time_ns += static_cast<double>(ecc->codewords) *
                              ecc->decode_ns_per_codeword;
  }
  te.energy = pm.trace_energy(te.stats, v_supply, refresh.base);
  if (!refresh.regions.empty()) {
    // Per-region REF retires only that region's rows (see the header).
    const double module_rows =
        static_cast<double>(geometry.total_subarrays()) *
        static_cast<double>(geometry.rows_per_subarray);
    te.energy.refresh_nj = 0.0;
    for (std::size_t r = 0; r < refresh.regions.size(); ++r) {
      const std::uint64_t refs = r < te.stats.region_refreshes.size()
                                     ? te.stats.region_refreshes[r]
                                     : 0;
      te.energy.refresh_nj += pm.region_refresh_energy_nj(
          refs,
          static_cast<double>(refresh.regions[r].rows.size()) / module_rows,
          v_supply);
    }
  }
  if (ecc != nullptr)
    te.energy.ecc_nj = static_cast<double>(ecc->codewords) *
                       ecc->decode_nj_per_codeword;
  return te;
}

TraceEnergy weight_stream_energy(const dram::Geometry& geometry,
                                 const error::ChunkPlacement& placement,
                                 std::size_t n_weights, double v_supply,
                                 const energy::VoltageModel& vm,
                                 const energy::PowerModel& pm, bool salp,
                                 const dram::RefreshPolicy& refresh,
                                 const EccStreamOverhead* ecc) {
  return weight_stream_energy(geometry, placement, n_weights, v_supply, vm,
                              pm, salp, dram::RefreshRegions{refresh, {}},
                              ecc);
}

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Key writer: every field in a fixed order, floats as hexfloat (exact),
/// '|' between fields and ',' after each vector element, so distinct
/// field values always give distinct keys.
class KeyWriter {
 public:
  KeyWriter() { out_.imbue(std::locale::classic()); out_ << std::hexfloat; }
  template <class T>
  KeyWriter& operator<<(const T& v) {
    out_ << v << '|';
    return *this;
  }
  template <class T>
  KeyWriter& operator<<(const std::vector<T>& vs) {
    for (const T& v : vs) out_ << v << ',';
    out_ << '|';
    return *this;
  }
  [[nodiscard]] std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

/// Index into cfg.voltages that `artifact` captures (npos without one);
/// validates the capture request.
std::size_t capture_index(const PipelineConfig& cfg,
                          const ArtifactState* artifact) {
  if (artifact == nullptr) return ArtifactState::npos;
  const std::size_t vi = artifact->voltage_index == ArtifactState::npos
                             ? cfg.voltages.size() - 1
                             : artifact->voltage_index;
  SPARKXD_REQUIRE(vi < cfg.voltages.size(),
                  "artifact voltage index is outside the voltage grid");
  SPARKXD_REQUIRE(!cfg.ecc.enabled(),
                  "an artifact carries no ECC check words; capture an "
                  "unprotected configuration");
  return vi;
}

std::vector<std::size_t> layer_weight_counts(const snn::NetworkConfig& net) {
  std::vector<std::size_t> counts(net.n_layers());
  for (std::size_t l = 0; l < counts.size(); ++l)
    counts[l] = net.layer_weight_count(l);
  return counts;
}

}  // namespace

std::string baseline_training_key(const PipelineConfig& cfg) {
  const snn::NetworkConfig& n = cfg.network;
  KeyWriter k;
  k << static_cast<int>(cfg.task) << cfg.train_samples << cfg.test_samples
    << cfg.seed << cfg.baseline_epochs;
  k << n.n_inputs << n.n_neurons << n.hidden_neurons << n.timesteps
    << n.dt_ms << n.max_rate << n.norm_target << n.seed
    << static_cast<int>(n.engine);
  k << n.lif.v_rest << n.lif.v_reset << n.lif.v_thresh << n.lif.tau_m_ms
    << n.lif.refractory_steps << n.lif.theta_plus << n.lif.tau_theta_ms
    << n.lif.inhibition << n.lif.winner_take_all
    << n.lif.compete_at_inference;
  k << n.stdp.eta << n.stdp.x_target << n.stdp.tau_pre_ms << n.stdp.w_min
    << n.stdp.w_max;
  return k.str();
}

std::string fault_training_key(const PipelineConfig& cfg) {
  const FaultTrainingConfig& f = cfg.fault_training;
  const dram::Geometry& g = cfg.geometry;
  const error::ErrorModelSpec& e = cfg.error_model;
  KeyWriter k;
  k << baseline_training_key(cfg);
  k << f.ber_stages << f.epochs_per_stage << f.accuracy_bound
    << f.eval_trials << f.weight_clip << f.calibrate_under_errors;
  k << g.channels << g.ranks_per_channel << g.chips_per_rank
    << g.banks_per_chip << g.subarrays_per_bank << g.rows_per_subarray
    << g.columns_per_row << g.column_bytes << g.burst_columns;
  k << cfg.subarray_sigma;
  k << static_cast<int>(e.kind) << e.p1 << e.p0 << e.stripe_sigma
    << e.retention.enabled << e.retention.interval_multiplier
    << e.retention.median_decades << e.retention.sigma_decades;
  return k.str();
}

PipelineReport run_pipeline(const PipelineConfig& cfg) {
  return run_pipeline(cfg, nullptr);
}

PipelineReport run_pipeline(const PipelineConfig& cfg,
                            ArtifactState* artifact) {
  cfg.validate();
  (void)capture_index(cfg, artifact);  // reject a bad capture before training
  return run_sweep(cfg, train_fault_aware(cfg, train_baseline(cfg)),
                   artifact);
}

BaselineState train_baseline(const PipelineConfig& cfg) {
  cfg.validate();
  const auto t_start = Clock::now();
  Rng rng(cfg.seed);
  // --- Data + baseline model (accurate DRAM). -----------------------------
  const auto all = data::make_dataset(
      cfg.task, cfg.train_samples + cfg.test_samples, cfg.seed);
  auto train = all.take(cfg.train_samples);
  auto test = all.drop(cfg.train_samples);
  auto model = snn::train_and_label(cfg.network, train, test,
                                    cfg.baseline_epochs, rng);
  return {baseline_training_key(cfg), std::move(train), std::move(test),
          std::move(model), rng, ns_since(t_start)};
}

TrainedState train_fault_aware(const PipelineConfig& cfg,
                               const BaselineState& baseline) {
  SPARKXD_REQUIRE(baseline.key == baseline_training_key(cfg),
                  "baseline state was trained for a different baseline "
                  "configuration");
  const auto t_start = Clock::now();
  Rng rng = baseline.rng;
  const data::Dataset& test = baseline.test;
  PipelineReport report;
  report.baseline_accuracy = baseline.model.clean_accuracy;
  report.timings.train_ns = baseline.train_ns;

  const error::SubarrayProfile profile(cfg.geometry, cfg.seed,
                                       cfg.subarray_sigma);
  const std::size_t n_layers = cfg.network.n_layers();
  const std::vector<std::size_t> layer_weights =
      layer_weight_counts(cfg.network);

  // Training-time injectors: the paper trains against the *baseline* mapping
  // (weights in subsequent addresses of a bank, §IV-B Step-2); each layer
  // occupies its own slice of that walk. All layers share the module's one
  // weak-cell reality (same seed — weakness is hashed per physical cell, and
  // the per-layer regions are disjoint addresses of the same device).
  const auto base_places =
      mapping::baseline_placement_layers(cfg.geometry, layer_weights);
  const double max_stage_ber = cfg.fault_training.ber_stages.back();
  std::vector<error::ErrorInjector> train_injectors;
  train_injectors.reserve(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l)
    train_injectors.push_back(error::ErrorInjector::for_weights(
        cfg.geometry, profile, cfg.error_model, base_places[l],
        layer_weights[l], cfg.seed, max_stage_ber));
  LayerInjectors train_injector_ptrs;
  for (const auto& inj : train_injectors) train_injector_ptrs.push_back(&inj);

  // --- Algorithm 1: fault-aware training + BER_th. -------------------------
  auto fa = improve_error_tolerance(baseline.model, cfg.fault_training,
                                    train_injector_ptrs, baseline.train, test,
                                    rng);
  report.ber_th = fa.ber_th;
  report.met_target = fa.met_target;
  report.stage_curve = std::move(fa.stage_curve);
  // The scratch overload syncs the transposed copy in place, which is what
  // lets every sweep share the improved model read-only.
  report.improved_accuracy =
      snn::evaluate(fa.improved.net, fa.improved.labels, test, rng);

  // --- Per-layer tolerance analysis (§IV-C, per layer). --------------------
  // A single-layer stack's per-layer vector IS the global result — no extra
  // analysis runs (and no Rng is consumed), keeping legacy runs
  // bit-identical. Deep stacks re-run the analysis once per layer with only
  // that layer corrupted; the resulting BER_th vector drives the per-layer
  // mapping thresholds in the sweep.
  report.layer_ber_th.assign(n_layers, fa.met_target ? fa.ber_th : 0.0);
  report.layer_met_target.assign(n_layers, fa.met_target);
  if (n_layers > 1) {
    const double target =
        baseline.model.clean_accuracy - cfg.fault_training.accuracy_bound;
    const auto per_layer = analyze_layer_tolerance(
        fa.improved.net, fa.improved.labels, train_injector_ptrs,
        cfg.fault_training.ber_stages, target, test, rng,
        cfg.fault_training.eval_trials, cfg.fault_training.weight_clip);
    report.layer_curves.resize(n_layers);
    for (std::size_t l = 0; l < n_layers; ++l) {
      report.layer_ber_th[l] =
          per_layer[l].met_target ? per_layer[l].ber_th : 0.0;
      report.layer_met_target[l] = per_layer[l].met_target;
      report.layer_curves[l] = per_layer[l].curve;
    }
  }
  report.timings.fault_training_ns = ns_since(t_start);
  return {fault_training_key(cfg), test, std::move(fa.improved),
          std::move(report), rng};
}

PipelineReport run_sweep(const PipelineConfig& cfg,
                         const TrainedState& trained,
                         ArtifactState* artifact) {
  cfg.validate();
  SPARKXD_REQUIRE(trained.key == fault_training_key(cfg),
                  "trained state was trained for a different training "
                  "configuration");
  const std::size_t capture_vi = capture_index(cfg, artifact);
  const auto t_start = Clock::now();
  PipelineReport report = trained.report;
  const snn::TrainedModel& improved = trained.improved;
  const data::Dataset& test = trained.test;
  if (artifact != nullptr) {
    // Copy the deployed model out now (the sweep below shares it
    // read-only); its clean_accuracy becomes the error-free test accuracy.
    artifact->model = improved;
    artifact->model->clean_accuracy = report.improved_accuracy;
    artifact->weight_clip = cfg.fault_training.weight_clip;
  }

  // --- Substrate models. ---------------------------------------------------
  const energy::VoltageModel voltage_model;
  const energy::BerModel ber_model;
  const energy::PowerModel power_model;
  const error::SubarrayProfile profile(cfg.geometry, cfg.seed,
                                       cfg.subarray_sigma);
  const std::size_t n_layers = cfg.network.n_layers();
  const std::vector<std::size_t> layer_weights =
      layer_weight_counts(cfg.network);
  const auto base_places =
      mapping::baseline_placement_layers(cfg.geometry, layer_weights);

  // --- ECC axis (third approximation knob). --------------------------------
  // The escalation ladder starts at the configured scheme and appends
  // strictly stronger codes; per-(ladder step, layer) check words are
  // computed ONCE from the improved model's clean weights and shared
  // read-only across the voltage sweep (the clean weights never change
  // after Algorithm 1).
  const bool ecc_on = cfg.ecc.enabled();
  std::vector<std::unique_ptr<error::EccScheme>> ecc_ladder;
  std::vector<std::vector<std::vector<std::uint64_t>>> ecc_checks;
  if (ecc_on) {
    for (const error::EccSpec& spec : error::ecc_escalation_ladder(cfg.ecc))
      ecc_ladder.push_back(error::make_ecc_scheme(spec));
    ecc_checks.resize(ecc_ladder.size());
    for (std::size_t k = 0; k < ecc_ladder.size(); ++k) {
      ecc_checks[k].resize(n_layers);
      for (std::size_t l = 0; l < n_layers; ++l)
        ecc_checks[k][l] =
            error::ecc_encode_buffer(*ecc_ladder[k], improved.net.weights(l));
    }
  }

  // --- Baseline energy reference: accurate DRAM @ 1.35 V, baseline map. ----
  // When the refresh axis is simulated, the reference runs at the NOMINAL
  // cadence (accurate DRAM refreshes on spec), so reduced-refresh scenarios
  // report the refresh-energy win; otherwise the legacy estimate applies.
  const dram::RefreshPolicy baseline_refresh =
      cfg.refresh.simulated() ? dram::RefreshPolicy::nominal()
                              : dram::RefreshPolicy::disabled();
  for (std::size_t l = 0; l < n_layers; ++l) {
    const auto base_te = weight_stream_energy(
        cfg.geometry, base_places[l], layer_weights[l], energy::kNominalVdd,
        voltage_model, power_model, /*salp=*/false, baseline_refresh);
    report.baseline_energy_nj += base_te.energy.total_nj();
    report.baseline_time_ns += base_te.stats.total_time_ns;
  }

  // --- Per-voltage ECC assignment + Algorithm 2 placement. ----------------
  // Voltages are independent given the trained model, so the sweep runs
  // concurrently: each voltage fills its own slot, and below forks its own
  // Rng stream from the sweep index, keeping the report bit-identical at
  // every SPARKXD_THREADS setting. Placement comes first, for every
  // voltage, so the weak-cell enumeration can see the whole grid. A plan
  // keeps only its payload chunks' addresses, not the placement: placing
  // is cheap and deterministic, so the voltage's worker places again below
  // rather than the sweep holding every voltage's placement at once.
  struct VoltagePlan {
    double module_ber = 0.0;
    std::vector<std::size_t> scheme_idx;
    std::vector<double> place_th;
    std::vector<std::size_t> stored_weights;
    std::vector<std::uint64_t> payload_chunks;  ///< dram::encode_linear
  };
  const auto place = [&](const VoltagePlan& plan) {
    return mapping::sparkxd_placement_layers(cfg.geometry, profile,
                                             plan.module_ber, plan.place_th,
                                             plan.stored_weights);
  };
  const std::size_t n_v = cfg.voltages.size();
  std::vector<VoltagePlan> plans(n_v);
  parallel_for(n_v, [&](std::size_t vi) {
    VoltagePlan& plan = plans[vi];
    plan.module_ber = ber_model.ber(cfg.voltages[vi]);

    // Per-layer ECC scheme assignment: walk the escalation ladder to the
    // weakest code whose tolerable raw BER (at this layer's learned
    // post-correction tolerance) covers the operating BER — a layer whose
    // BER_th is not met at this voltage escalates its code BEFORE the
    // placement has to relax capacity. The code's absorption also raises
    // the layer's effective placement threshold, and the check bits join
    // the layer's stored footprint (placement + streamed traffic).
    plan.scheme_idx.assign(n_layers, 0);
    plan.place_th = report.layer_ber_th;
    plan.stored_weights = layer_weights;
    if (ecc_on) {
      for (std::size_t l = 0; l < n_layers; ++l) {
        std::size_t k = 0;
        while (k + 1 < ecc_ladder.size() &&
               ecc_ladder[k]->tolerable_raw_ber(report.layer_ber_th[l]) <
                   plan.module_ber)
          ++k;
        plan.scheme_idx[l] = k;
        plan.place_th[l] = std::max(
            report.layer_ber_th[l],
            ecc_ladder[k]->tolerable_raw_ber(report.layer_ber_th[l]));
        plan.stored_weights[l] =
            layer_weights[l] +
            error::ecc_check_float_equiv(*ecc_ladder[k], layer_weights[l]);
      }
    }

    // Algorithm 2 per layer: each layer's weights go into its own region of
    // safe subarrays at ITS tolerance threshold; if a layer's learned
    // BER_th is too strict to fit at this operating BER, the placement
    // relaxes it to the smallest feasible threshold and reports that
    // honestly (LayerPlacement::capacity_relaxed). The plan records the
    // payload chunks only: the injectors target the weights, not the ECC
    // check words stored after them.
    const auto placement = place(plan);
    for (std::size_t l = 0; l < n_layers; ++l) {
      const auto& chunks = placement[l].chunks;
      const std::size_t used = std::min(
          chunks.size(),
          mapping::chunks_for_weights(cfg.geometry, layer_weights[l]));
      for (std::size_t c = 0; c < used; ++c)
        plan.payload_chunks.push_back(
            dram::encode_linear(cfg.geometry, chunks[c]));
    }
  });

  // --- Weak cells of every chunk the grid's payloads use, enumerated once. --
  // Placements at neighbouring voltages revisit the same physical chunks,
  // and a cell's weakness score does not depend on the voltage or layer
  // mapped onto it, so each distinct chunk is scanned once at the grid's
  // largest BER (error::ChunkCandidateTable). The table lives for this
  // sweep only.
  const auto injector_ber = [](double module_ber) {
    return std::max(module_ber, 1e-12);
  };
  double table_ber = 0.0;
  std::vector<std::uint64_t> grid_chunks;
  for (VoltagePlan& plan : plans) {
    table_ber = std::max(table_ber, injector_ber(plan.module_ber));
    grid_chunks.insert(grid_chunks.end(), plan.payload_chunks.begin(),
                       plan.payload_chunks.end());
    std::vector<std::uint64_t>().swap(plan.payload_chunks);
  }
  const error::ChunkCandidateTable weak_cells(cfg.geometry, profile,
                                              cfg.error_model,
                                              std::move(grid_chunks),
                                              cfg.seed, table_ber);

  // --- Per-voltage: accuracy + energy. -------------------------------------
  report.per_voltage.resize(n_v);
  const Rng sweep_rng = trained.rng;
  parallel_for(n_v, [&](std::size_t vi) {
    const double v = cfg.voltages[vi];
    Rng vrng = sweep_rng.fork(vi);
    const VoltagePlan& plan = plans[vi];
    const auto& scheme_idx = plan.scheme_idx;
    const auto& stored_weights = plan.stored_weights;
    const auto placement = place(plan);
    VoltageReport row;
    row.v_supply = v;
    row.module_ber = plan.module_ber;
    for (const auto& lp : placement) {
      row.capacity_relaxed |= lp.capacity_relaxed;
      row.safe_subarrays = std::max(row.safe_subarrays, lp.safe_subarrays);
    }

    // Accuracy of the improved model with errors drawn through each layer's
    // Algorithm-2 placement at this voltage's module BER.
    std::vector<error::ErrorInjector> eval_injectors;
    eval_injectors.reserve(n_layers);
    for (std::size_t l = 0; l < n_layers; ++l)
      eval_injectors.emplace_back(weak_cells, placement[l].chunks,
                                  layer_weights[l] * sizeof(float),
                                  injector_ber(row.module_ber));
    LayerInjectors eval_ptrs;
    for (const auto& inj : eval_injectors) eval_ptrs.push_back(&inj);
    // With ECC on, the injectors above target the payload words only
    // (check-word corruption is idealized away — the scrub engine's own
    // storage is assumed protected); injection is raw and the scrub
    // corrects or clips per codeword. With it off every scheme is null.
    LayerEcc layer_ecc(n_layers);
    if (ecc_on)
      for (std::size_t l = 0; l < n_layers; ++l)
        layer_ecc[l] = {ecc_ladder[scheme_idx[l]].get(),
                        &ecc_checks[scheme_idx[l]][l]};
    std::vector<EccScrubTotals> scrub_totals;
    row.accuracy = evaluate_corrupted_ecc(
        improved.net, improved.labels, eval_ptrs, layer_ecc,
        row.module_ber, test, vrng, cfg.fault_training.eval_trials,
        cfg.fault_training.weight_clip, &scrub_totals);

    // Artifact capture: exactly one sweep worker matches, so the write is
    // race-free; freezing re-reads the injectors' candidate tables and
    // consumes no Rng, leaving the report untouched.
    if (artifact != nullptr && vi == capture_vi) {
      artifact->v_supply = v;
      artifact->module_ber = row.module_ber;
      artifact->placement = placement;
      artifact->frozen.clear();
      for (const auto& inj : eval_injectors)
        artifact->frozen.push_back(inj.freeze(row.module_ber));
    }

    // Energy + throughput of the SparkXD mapping at this voltage: each
    // layer's weight stream is simulated over its own placement and the
    // totals aggregate the layers.
    row.layers.resize(n_layers);
    double total_time_ns = 0.0;
    std::uint64_t hits = 0, accesses = 0;
    for (std::size_t l = 0; l < n_layers; ++l) {
      const EccStreamOverhead ecc_oh =
          ecc_on ? ecc_stream_overhead(*ecc_ladder[scheme_idx[l]],
                                       layer_weights[l])
                 : EccStreamOverhead{};
      const auto te = weight_stream_energy(
          cfg.geometry, placement[l].chunks, stored_weights[l], v,
          voltage_model, power_model, cfg.salp, cfg.refresh, &ecc_oh);
      LayerVoltageStats& ls = row.layers[l];
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

  // --- Per-layer operating-point search (EnforceSNN/EDEN completion). ------
  // A pure function of state the pipeline already computed (per-layer
  // BER_th, the substrate models, the profile); consumes no Rng, so runs
  // with the search off are bit-identical to legacy runs.
  if (cfg.layer_knobs.enabled) {
    LayerKnobsInputs in;
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
    report.layer_knobs = assign_layer_knobs(cfg.layer_knobs, in);
  }
  PhaseTimings& t = report.timings;
  t.sweep_ns = ns_since(t_start);
  t.total_ns = t.train_ns + t.fault_training_ns + t.sweep_ns;
  return report;
}

}  // namespace sparkxd::core

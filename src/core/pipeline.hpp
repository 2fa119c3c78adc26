#pragma once
// The end-to-end SparkXD pipeline (paper Fig. 7): baseline training ->
// fault-aware training (Algorithm 1) -> tolerance analysis -> error-aware
// DRAM mapping (Algorithm 2) -> DRAM energy / throughput evaluation across
// supply voltages.
//
// This is the top-level API a deployment would use: give it a task and a
// network size, get back the improved model, its maximum tolerable BER, and
// a per-voltage report of accuracy, energy and speed against the accurate-
// DRAM baseline.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/fault_aware.hpp"
#include "core/layer_knobs.hpp"
#include "dram/controller.hpp"
#include "dram/geometry.hpp"
#include "energy/ber_model.hpp"
#include "energy/power_model.hpp"
#include "energy/voltage_model.hpp"
#include "error/error_model.hpp"
#include "mapping/mapping.hpp"
#include "snn/params.hpp"
#include "snn/trainer.hpp"

namespace sparkxd::core {

/// Full pipeline configuration.
struct PipelineConfig {
  snn::NetworkConfig network;
  data::Task task = data::Task::kDigits;
  std::size_t train_samples = 600;
  std::size_t test_samples = 200;
  std::size_t baseline_epochs = 2;
  FaultTrainingConfig fault_training;
  /// Supply voltages to evaluate (paper: 1.325 .. 1.025 V).
  std::vector<double> voltages = {1.325, 1.250, 1.175, 1.100, 1.025};
  dram::Geometry geometry = dram::Geometry::lpddr3_4gb();
  /// Per-subarray row buffers (SALP, §IV-D / Putra et al. [14]) for the
  /// SparkXD mapping's evaluation. The accurate-DRAM baseline reference is
  /// always the conventional commodity module (one row buffer per bank).
  bool salp = false;
  /// Refresh axis (EDEN-style reduced refresh). Disabled by default, which
  /// reproduces the refresh-free controller schedule and the legacy
  /// makespan-based refresh-energy estimate bit for bit. When simulated,
  /// the accurate-DRAM baseline reference runs at the NOMINAL cadence, so
  /// reduced-rate savings include the refresh-energy win.
  dram::RefreshPolicy refresh;
  error::ErrorModelSpec error_model;  ///< Model-0 by default (paper §III);
                                      ///< carries the retention spec
  /// ECC axis (third approximation knob). Disabled by default, which keeps
  /// the unprotected path bit for bit. When enabled, each layer's weights
  /// are codeword-protected: injection is raw (no load-time clip before the
  /// decoder), the scrub corrects/flags codewords against check words from
  /// the clean weights, and the check storage + per-codeword decode
  /// latency/energy feed the placement, the controller timeline, and the
  /// energy breakdown. A layer whose BER_th the operating point exceeds
  /// escalates along error::ecc_escalation_ladder instead of immediately
  /// relaxing placement capacity.
  error::EccSpec ecc;
  /// Per-layer operating-point search (EnforceSNN/EDEN completion): when
  /// enabled, run_pipeline additionally assigns each layer its own
  /// (voltage, refresh, ECC) triple via assign_layer_knobs and reports the
  /// result in PipelineReport::layer_knobs. Purely additive — the search
  /// consumes no Rng and runs after the sweep, so every report field of a
  /// knob-free run is bit-identical.
  LayerKnobsConfig layer_knobs;
  std::uint64_t seed = 42;
  /// Lognormal spread of per-subarray error rates.
  double subarray_sigma = 0.8;

  /// Validates the configuration; throws ContractViolation with a specific
  /// message on the first problem found. Checks sample counts, the BER
  /// stage schedule (non-empty, positive, strictly ascending), the voltage
  /// grid (non-empty, finite, positive, strictly descending — the paper's
  /// 1.325 → 1.025 V presentation order), the DRAM geometry, and that the
  /// module holds every layer's weights plus the configured code's check
  /// words at the sweep's row granularity (the message names the layer and
  /// both sizes).
  void validate() const;
};

/// Per-layer slice of one voltage row: the placement, occupancy, and DRAM
/// accounting of ONE layer of the stack (its weights live in their own
/// disjoint safe-subarray region with their own BER threshold). The
/// top-level VoltageReport fields aggregate these — energy/refreshes/weak
/// cells by sum, the hit rate over the combined access counts.
struct LayerVoltageStats {
  double ber_th = 0.0;  ///< threshold this layer was placed under (post-relax)
  bool capacity_relaxed = false;  ///< threshold raised to fit this layer
  std::size_t chunks = 0;         ///< burst chunks holding this layer
  std::size_t safe_subarrays = 0; ///< subarrays safe at this layer's BER_th
  double energy_nj = 0.0;         ///< streaming this layer's weights once
  double row_hit_rate = 0.0;
  std::uint64_t refreshes = 0;
  std::size_t retention_weak_cells = 0;
  // ECC axis (meaningful only when PipelineConfig::ecc is enabled; all
  // zero/empty otherwise so non-ecc reports and digests are unchanged).
  std::string ecc_scheme;          ///< assigned scheme name, e.g. "bch(79,64)"
  bool ecc_escalated = false;      ///< stronger than the configured base code
  double ecc_overhead = 0.0;       ///< check bits per data bit
  std::uint64_t ecc_codewords = 0; ///< codewords scrubbed across MC trials
  std::uint64_t ecc_corrected = 0; ///< codewords fully restored
  std::uint64_t ecc_detected = 0;  ///< codewords flagged uncorrectable
  double ecc_energy_nj = 0.0;      ///< decode energy of one weight stream
};

/// Per-voltage evaluation row (one bar group of Fig. 12a / 12b).
struct VoltageReport {
  double v_supply = 0.0;
  double module_ber = 0.0;
  double accuracy = 0.0;       ///< improved SNN + Algorithm 2 mapping
  double energy_nj = 0.0;      ///< DRAM energy of one inference weight fetch
  double saving_pct = 0.0;     ///< vs the accurate-DRAM baseline
  double speedup = 1.0;        ///< baseline time / SparkXD time
  double row_hit_rate = 0.0;
  std::size_t safe_subarrays = 0;
  bool capacity_relaxed = false;  ///< BER_th raised to fit the weights
  std::uint64_t refreshes = 0;    ///< REF commands during the weight stream
  /// Retention-failure weak cells in the mapped payload (0 unless the
  /// refresh policy is simulated with a retention-enabled error model).
  std::size_t retention_weak_cells = 0;
  // ECC scrub aggregates over all layers (zero when the ecc axis is off).
  std::uint64_t ecc_codewords = 0;
  std::uint64_t ecc_corrected = 0;
  std::uint64_t ecc_detected = 0;
  /// One entry per network layer (size n_layers; a single-layer stack has
  /// one entry that mirrors the top-level fields). For deep stacks the
  /// top-level energy_nj/refreshes/retention_weak_cells are the sums over
  /// these, row_hit_rate aggregates the access counts, safe_subarrays is
  /// the most permissive layer's count, and capacity_relaxed is true when
  /// ANY layer's threshold had to be relaxed.
  std::vector<LayerVoltageStats> layers;
};

/// Wall-clock phase timings of one run_pipeline call (nanoseconds).
/// Informational only: host- and load-dependent, so they are EXCLUDED from
/// the stable JSON serialization and the golden digests (which must stay
/// byte-identical across runs); sparkxd_run --timings prints them to stderr.
struct PhaseTimings {
  /// Dataset synthesis + baseline training (train_baseline).
  double train_ns = 0.0;
  /// Algorithm 1 (incl. its stage evaluations) + the per-layer tolerance
  /// analysis (train_fault_aware).
  double fault_training_ns = 0.0;
  /// Baseline energy + per-voltage sweep + knob search (run_sweep).
  double sweep_ns = 0.0;
  double total_ns = 0.0;  ///< sum of the three phases above
  /// Set by scenario::run_scenarios on a row that reused an earlier row's
  /// baseline training (same baseline_training_key): the training ran once,
  /// on the earlier row's clock, so this row's train_ns is 0.
  bool train_shared = false;
  /// Likewise for Algorithm 1 (same fault_training_key): fault_training_ns
  /// is 0. Implies train_shared.
  bool fault_training_shared = false;
};

/// Full pipeline output.
struct PipelineReport {
  double baseline_accuracy = 0.0;  ///< baseline SNN, accurate DRAM
  double improved_accuracy = 0.0;  ///< improved SNN, error-free weights
  double ber_th = 0.0;
  bool met_target = false;
  std::vector<TolerancePoint> stage_curve;
  /// Per-layer maximum tolerable BER (size = network n_layers, input side
  /// first). For a single-layer stack this is {ber_th} — the global
  /// analysis IS the one layer's analysis, so no extra work (or Rng
  /// consumption) happens. For deep stacks it is the §IV-C analysis run
  /// once per layer with ONLY that layer corrupted (see
  /// analyze_layer_tolerance); 0.0 where the bound was never met.
  std::vector<double> layer_ber_th;
  std::vector<bool> layer_met_target;        ///< per-layer bound met?
  /// Per-layer tolerance curves (deep stacks only; empty for single-layer).
  std::vector<std::vector<TolerancePoint>> layer_curves;
  double baseline_energy_nj = 0.0;  ///< accurate DRAM @1.35 V, baseline map
  double baseline_time_ns = 0.0;
  std::vector<VoltageReport> per_voltage;
  /// Per-layer operating points (engaged when PipelineConfig::layer_knobs
  /// is enabled; nullopt otherwise so legacy reports are untouched).
  std::optional<LayerKnobsReport> layer_knobs;
  PhaseTimings timings;  ///< wall clock; not serialized, not digested
};

/// Runs the whole framework. Deterministic in cfg.seed.
/// Equivalent to run_sweep(cfg, train_fault_aware(cfg, train_baseline(cfg))).
[[nodiscard]] PipelineReport run_pipeline(const PipelineConfig& cfg);

// --- The pipeline in phases. ------------------------------------------------
// run_pipeline is three phases composed. The two training phases read only
// the config fields named by their key below, so a batch whose rows agree
// on a key can run that phase once and hand its state to every row
// (scenario::run_scenarios does). A state is a pure function of its key:
// reusing it is unobservable in the report bytes.

/// Exactly the config subset the baseline phase reads: task, sample counts,
/// cfg.seed, baseline_epochs and the whole NetworkConfig (engine included —
/// the baseline's clean accuracy runs the inference engine). Two configs
/// with equal keys produce equal BaselineStates.
[[nodiscard]] std::string baseline_training_key(const PipelineConfig& cfg);

/// baseline_training_key plus what Algorithm 1 and the per-layer tolerance
/// analysis read: fault_training, geometry, subarray_sigma and the whole
/// error_model (retention included). Independent of salp, refresh, ecc,
/// voltages and layer_knobs, which only the sweep reads.
[[nodiscard]] std::string fault_training_key(const PipelineConfig& cfg);

/// State after dataset synthesis and baseline training.
struct BaselineState {
  std::string key;  ///< baseline_training_key of the config it was built for
  data::Dataset train;
  data::Dataset test;
  snn::TrainedModel model;  ///< clean_accuracy = baseline test accuracy
  Rng rng;                  ///< the pipeline stream after this phase
  double train_ns = 0.0;
};

/// State after Algorithm 1 and the per-layer tolerance analysis: everything
/// the sweep reads that training produced.
struct TrainedState {
  std::string key;  ///< fault_training_key of the config it was built for
  data::Dataset test;
  /// The improved model, its transposed inference copy synced so sweeps can
  /// share it read-only; clean_accuracy is the baseline's (Algorithm 1
  /// carries it), the report holds the improved one.
  snn::TrainedModel improved;
  /// Training fields filled (baseline/improved accuracy, ber_th,
  /// met_target, stage_curve, layer_*) plus timings.train_ns and
  /// timings.fault_training_ns; every sweep field empty.
  PipelineReport report;
  Rng rng;  ///< the pipeline stream after this phase
};

/// Phase 1: validates cfg, synthesizes the dataset and trains the baseline.
[[nodiscard]] BaselineState train_baseline(const PipelineConfig& cfg);

/// Phase 2: Algorithm 1 from `baseline` (read-only), then the per-layer
/// tolerance analysis. Throws ContractViolation unless `baseline` was built
/// for cfg's baseline_training_key.
[[nodiscard]] TrainedState train_fault_aware(const PipelineConfig& cfg,
                                             const BaselineState& baseline);

/// Offline half of the artifact/serve split: everything a long-lived server
/// needs to run classification at ONE deployed operating point, captured
/// while the pipeline computes it anyway. The capture is purely additive —
/// it copies state the sweep already built (the improved model, one
/// voltage's Algorithm-2 placement, and that voltage's frozen injection
/// tables) and consumes no Rng, so a run with capture is bit-identical to a
/// run without (the golden digests lock this down).
struct ArtifactState {
  /// Input: index into cfg.voltages of the operating point to capture;
  /// npos (the default) captures the LAST grid entry — the lowest, most
  /// aggressive voltage, the paper's headline operating point.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t voltage_index = npos;

  // Outputs, filled by run_pipeline:
  double v_supply = 0.0;
  double module_ber = 0.0;      ///< operating BER at v_supply
  float weight_clip = 0.0f;     ///< load-time range clip the server applies
  /// The improved (fault-aware) model; clean_accuracy holds the error-free
  /// test accuracy (the report's improved_accuracy).
  std::optional<snn::TrainedModel> model;
  /// Per-layer Algorithm-2 placement at the captured voltage.
  std::vector<mapping::LayerPlacement> placement;
  /// Per-layer frozen injection tables at module_ber — the exact tables the
  /// sweep's Monte-Carlo evaluation shares across trials, now shareable
  /// across serving workers.
  std::vector<error::FrozenInjection> frozen;
};

/// run_pipeline with an optional artifact capture (nullptr = plain run).
/// A capture needs cfg.ecc disabled (throws ContractViolation otherwise):
/// the artifact holds no check words and serving injects with the clip
/// only, so a protected configuration would be served unprotected.
[[nodiscard]] PipelineReport run_pipeline(const PipelineConfig& cfg,
                                          ArtifactState* artifact);

/// Phase 3: the baseline energy reference, the per-voltage sweep and the
/// knob search over `trained` (read-only, so concurrent sweeps may share
/// it), with an optional artifact capture as in run_pipeline. Throws
/// ContractViolation unless `trained` was built for cfg's
/// fault_training_key.
///
/// The sweep runs in three steps: every voltage's ECC assignment and
/// Algorithm-2 placement; one error::ChunkCandidateTable over the union of
/// their payload chunks, each distinct physical chunk scanned once at the
/// grid's largest max(module_ber, 1e-12); then, per voltage, each layer's
/// injector built from that table, the Monte-Carlo accuracy and the weight
/// stream. The table is freed when the sweep returns. The injectors equal
/// per-voltage ErrorInjector::for_weights builds candidate for candidate,
/// so the report is unchanged by the sharing.
[[nodiscard]] PipelineReport run_sweep(const PipelineConfig& cfg,
                                       const TrainedState& trained,
                                       ArtifactState* artifact = nullptr);

/// Burst request arrival period seen by the DRAM: the accelerator consumes
/// one 32 B weight burst per MAC-array pass, slightly slower than the bus
/// can stream (tBURST = 5 ns), so short bank-preparation stalls are partially
/// hidden. Both mappings are simulated under the same arrival process.
inline constexpr double kBurstArrivalNs = 5.4;

/// Helper shared with the benches: DRAM stats + energy of streaming all
/// weights of an n_weights model through a placement at a supply voltage.
struct TraceEnergy {
  dram::TraceStats stats;
  energy::EnergyBreakdown energy;
};

/// ECC cost of one layer's weight stream: the scrub engine decodes every
/// fetched codeword, extending the access timeline (background energy
/// accrues over the added decode time, and the speedup vs the accurate
/// baseline reflects it) and drawing decode energy on the fixed logic rail
/// (EnergyBreakdown::ecc_nj). Stream the CHECK bits too by passing the
/// stored (payload + check equivalent) weight count to
/// weight_stream_energy — that is the redundancy-read bandwidth cost.
struct EccStreamOverhead {
  std::size_t codewords = 0;
  double decode_ns_per_codeword = 0.0;
  double decode_nj_per_codeword = 0.0;
};

/// The overhead of streaming `n_weights` payload words under `scheme`: one
/// decode per codeword; all zero for an unprotected scheme.
[[nodiscard]] EccStreamOverhead ecc_stream_overhead(
    const error::EccScheme& scheme, std::size_t n_weights);

/// The one stream-cost model: DRAM stats + energy of streaming `n_weights`
/// words through `placement` at `v_supply` (one controller run of the
/// streaming read trace, at kBurstArrivalNs). With `ecc`, the serial decode
/// time extends the makespan before the energy conversion and the decode
/// energy fills EnergyBreakdown::ecc_nj.
///
/// Refresh rule: when `refresh` has regions, commands dodge each region's
/// own REF windows and refresh_nj is the sum over regions of
/// PowerModel::region_refresh_energy_nj(that region's REF count, region
/// rows / module rows) — the rows outside every region are not billed.
/// Without regions, `refresh.base` alone governs the controller and
/// PowerModel::trace_energy's policy rule bills refresh (the REFs counted
/// when simulated, the makespan estimate when disabled).
[[nodiscard]] TraceEnergy weight_stream_energy(
    const dram::Geometry& geometry, const error::ChunkPlacement& placement,
    std::size_t n_weights, double v_supply, const energy::VoltageModel& vm,
    const energy::PowerModel& pm, bool salp,
    const dram::RefreshRegions& refresh,
    const EccStreamOverhead* ecc = nullptr);

/// Single-policy form: the plan RefreshRegions{refresh, {}}.
[[nodiscard]] TraceEnergy weight_stream_energy(
    const dram::Geometry& geometry, const error::ChunkPlacement& placement,
    std::size_t n_weights, double v_supply,
    const energy::VoltageModel& vm = energy::VoltageModel{},
    const energy::PowerModel& pm = energy::PowerModel{}, bool salp = false,
    const dram::RefreshPolicy& refresh = dram::RefreshPolicy::disabled(),
    const EccStreamOverhead* ecc = nullptr);

}  // namespace sparkxd::core

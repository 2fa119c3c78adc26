#pragma once
// Traced replica of core::run_pipeline, built only from the library's public
// calls, with a span around each call into a layer.
//
// The replica makes the same calls in the same order with the same Rng
// streams as run_pipeline, so its report (and therefore its
// scenario::digest) must equal the untraced run's; the benchmark checks that
// for every scenario it traces (the parity gate), so the per-layer numbers
// can never drift into describing a different program.
//
// Spans are recorded from outside the program: wall time around each call,
// accumulated per span name. Calls made inside the parallel voltage sweep
// are summed over the sweep's workers (busy time, comparable with cpu_s);
// the sweep itself is also one top-level span on the scenario's thread.

#include <array>
#include <cstdint>
#include <string>

#include "core/pipeline.hpp"

namespace perfbench {

enum class Span : std::size_t {
  kSynth,           ///< data::make_dataset + train/test split
  kTrainEpoch,      ///< snn::train_epoch (baseline epochs)
  kLabel,           ///< snn::label_neurons
  kEvaluate,        ///< snn::evaluate (baseline and improved clean accuracy)
  kAlgo1,           ///< core::improve_error_tolerance (Algorithm 1)
  kLayerTolerance,  ///< core::analyze_layer_tolerance (deep stacks)
  kProfile,         ///< error::SubarrayProfile construction
  kInjectorBuild,   ///< ErrorInjector::for_weights (+ freeze on capture)
  kEccEncode,       ///< ECC ladder construction + ecc_encode_buffer
  kPlacement,       ///< mapping baseline/Algorithm-2 placements
  kMcEval,          ///< core::evaluate_corrupted[_ecc] in the sweep
  kStreamCost,      ///< core::weight_stream_energy (controller + energy)
  kSweep,           ///< the whole parallel voltage sweep
  kKnobSearch,      ///< core::assign_layer_knobs
  kCount,
};

/// Per-layer times and modelled counters of one or more traced scenarios.
struct PipelineTrace {
  std::array<double, static_cast<std::size_t>(Span::kCount)> ns{};
  std::uint64_t train_images = 0;  ///< images presented by train_epoch
  std::uint64_t mc_images = 0;     ///< corrupted inferences in the sweep
  // Modelled DRAM counters over every simulated weight stream.
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t refreshes = 0;
  double refresh_nj = 0.0;
  double dram_nj = 0.0;
  // Knob search totals over scenarios with a feasible uniform point.
  double knob_nj = 0.0;
  double knob_uniform_nj = 0.0;
  // Coverage: wall time inside top-level spans vs each scenario's wall.
  double covered_ns = 0.0;
  double scenario_ns = 0.0;

  [[nodiscard]] double& at(Span s) { return ns[static_cast<std::size_t>(s)]; }
  [[nodiscard]] double get(Span s) const {
    return ns[static_cast<std::size_t>(s)];
  }
  void merge(const PipelineTrace& other);
};

/// Runs the traced replica of core::run_pipeline(cfg, artifact) and adds
/// its spans and counters to `trace`. Not thread-safe on `trace`: callers
/// tracing scenarios concurrently give each its own trace and merge.
[[nodiscard]] sparkxd::core::PipelineReport traced_pipeline(
    const sparkxd::core::PipelineConfig& cfg, PipelineTrace& trace,
    sparkxd::core::ArtifactState* artifact = nullptr);

/// Canonical text of the training-config subset a training memo would key
/// on: task, network sizes, sample counts, epochs, seeds and LIF/STDP
/// parameters. Rows with equal keys train bit-identical baselines.
[[nodiscard]] std::string training_key(
    const sparkxd::core::PipelineConfig& cfg);

}  // namespace perfbench

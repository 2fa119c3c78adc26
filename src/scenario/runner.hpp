#pragma once
// Batch execution of scenarios + stable report serialization.
//
// run_scenarios fans the batch out through common/parallel's parallel_for;
// each scenario is fully self-seeded (Scenario::seed drives the dataset, the
// training, and every injection stream), so the batch inherits the
// framework-wide determinism contract: results are bit-identical at every
// SPARKXD_THREADS setting. Nested pipeline parallelism runs inline on the
// scenario's worker (see common/parallel.hpp).
//
// Within one call, each distinct core::baseline_training_key trains its
// baseline once and each distinct core::fault_training_key runs Algorithm 1
// once; every row naming the key sweeps that shared state. The states live
// only inside the call and are freed after their last reader.
//
// Two serializations are provided:
//  * to_json      — the full report (schema "sparkxd-report-v1", see README)
//  * digest       — a compact fixed-precision key=value rendering of the
//                   headline metrics, used by the golden-report regression
//                   harness (tests/golden/*.digest) and the CI check.

#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "scenario/scenario.hpp"

namespace sparkxd::scenario {

/// One executed scenario.
struct ScenarioResult {
  Scenario scenario;
  core::PipelineReport report;
};

/// Runs every scenario through the phases of core::run_pipeline, in
/// parallel across scenarios, training once per distinct training key.
/// Each result is byte-identical to a solo run_pipeline of its scenario;
/// only its timings differ, marking the phases it shared with an earlier
/// row (core::PhaseTimings). Results come back in input order. The first
/// error any row throws is rethrown after the workers stop.
[[nodiscard]] std::vector<ScenarioResult> run_scenarios(
    const std::vector<Scenario>& scenarios);

/// Full JSON document for a batch of results (stable byte-for-byte for
/// identical results; keys in fixed order, std::to_chars number formatting).
[[nodiscard]] std::string to_json(const std::vector<ScenarioResult>& results);

/// Compact digest of one result: one "key=value" line per headline metric,
/// every float rounded to fixed precision so the digest survives honest
/// serialization changes but trips on any numeric drift.
[[nodiscard]] std::string digest(const ScenarioResult& result);

}  // namespace sparkxd::scenario

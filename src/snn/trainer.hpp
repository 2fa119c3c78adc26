#pragma once
// Training, neuron labeling and evaluation for the unsupervised network.
//
// Unsupervised STDP produces neurons with class-selective receptive fields;
// classification then works by (1) assigning each neuron the class it fires
// most for on labelled data ("labeling"), and (2) at inference, predicting
// the class whose neurons fired most (spike-count vote) — the standard
// readout for this architecture, and the one the paper's accuracy numbers
// are based on.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "snn/network.hpp"

namespace sparkxd::snn {

/// Per-neuron class assignments plus calibration data for the readout.
///
/// `bias` is each neuron's mean spike count over the labelling set; the
/// prediction vote uses (count - bias), so neurons that fire
/// indiscriminately (untrained receptive fields, or neurons inflated by
/// weight corruption) cancel out of the vote instead of dragging their
/// assigned class — this bias correction is what keeps the readout robust
/// under approximate-DRAM errors.
struct NeuronLabels {
  std::vector<std::int32_t> label;  ///< class per neuron, -1 if never fired
  std::vector<double> bias;         ///< mean spikes/sample per neuron
  std::size_t num_classes = 0;
};

/// Runs one unsupervised STDP pass over the dataset (in order). Learning is
/// serial, sample by sample, but the spike trains are drawn ahead: while
/// one block of samples learns, the next block is encoded across the other
/// workers, each chunk starting at its first sample's place in `rng`'s
/// stream (Rng::discard, the offset contract in snn/encoding.hpp). The
/// draws, the learned state and `rng` afterwards equal the one-sample-at-
/// a-time loop's at every thread count. Every image is checked (width and
/// pixel range) before anything learns or draws.
void train_epoch(Network& net, const data::Dataset& ds, Rng& rng);

/// Assigns each neuron the class for which its average spike count (over the
/// labelled set, inference mode) is highest. Samples are scored
/// concurrently through the float event kernel (bitwise
/// process(learn=false)) over the shared network, each chunk owning an
/// InferenceState and starting at its first sample's place in `rng`'s
/// stream: the draws, and `rng` afterwards, equal those of the serial loop
/// over the samples, so the labels are the same at every thread count. An
/// event-fx network labels through one float copy. The dataset is checked
/// before any draw (classes present, every label below num_classes, every
/// image n_inputs pixels in [0, 1]); on a rejection `rng` is unchanged.
/// Syncs the network's transposed weights.
[[nodiscard]] NeuronLabels label_neurons(Network& net,
                                         const data::Dataset& ds, Rng& rng);

/// Predicts one image: class with the highest average spike count among its
/// labelled neurons. Returns -1 when no neuron fires at all.
[[nodiscard]] std::int32_t predict(Network& net, const NeuronLabels& labels,
                                   const std::vector<float>& image, Rng& rng);

/// The bias-corrected population vote over one sample's spike counts (the
/// readout predict() and evaluate() share). Returns -1 when no labelled
/// neuron exists.
[[nodiscard]] std::int32_t vote_spike_counts(
    const std::vector<std::uint32_t>& counts, const NeuronLabels& labels);

/// Fraction of correctly classified samples (inference mode). Samples are
/// scored concurrently (see common/parallel); each worker owns only an
/// InferenceState (membrane dynamics + scratch, O(n_neurons)) and reads the
/// network's weights in place, so fan-out never copies the weight matrix.
/// Each sample's spike trains fork from one draw of `rng`, so the result is
/// deterministic and thread-count independent. `net` is untouched (const),
/// which is what lets concurrent sweeps share one trained model. If the
/// network's transposed inference copy is stale, one private synced copy is
/// made; callers on the hot path should sync_transpose() beforehand.
[[nodiscard]] double evaluate(const Network& net, const NeuronLabels& labels,
                              const data::Dataset& ds, Rng& rng);

/// Scratch overload: identical result and streams; syncs the transposed
/// inference copy in place first (weights and thetas untouched). Use when
/// the caller owns a mutable network (e.g. freshly corrupted weights).
[[nodiscard]] double evaluate(Network& net, const NeuronLabels& labels,
                              const data::Dataset& ds, Rng& rng);

/// A trained, labelled model with its clean-weight accuracy.
struct TrainedModel {
  Network net;
  NeuronLabels labels;
  double clean_accuracy = 0.0;
};

/// Convenience: trains `epochs` STDP passes, labels on the training set, and
/// evaluates on the test set. `rng` seeds all stochastic parts.
[[nodiscard]] TrainedModel train_and_label(const NetworkConfig& cfg,
                                           const data::Dataset& train,
                                           const data::Dataset& test,
                                           std::size_t epochs, Rng& rng);

}  // namespace sparkxd::snn

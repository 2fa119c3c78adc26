#include "snn/trainer.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <utility>

#include "common/contracts.hpp"
#include "common/parallel.hpp"

namespace sparkxd::snn {

namespace {

/// Samples a training epoch draws ahead of the learning pass when other
/// workers are free: block b learns while block b + 1 is encoded.
constexpr std::size_t kEncodeBlock = 32;

/// The stream offsets of a pass over `ds` (the contract in
/// snn/encoding.hpp): sample i's first draw comes offsets[i] draws after
/// the pass's first draw, and offsets[size()] is the pass total. Checks
/// every image's width and pixel range, so a bad sample throws before any
/// sample draws.
std::vector<std::uint64_t> draw_offsets(const data::Dataset& ds,
                                        const NetworkConfig& cfg) {
  std::vector<std::uint64_t> offsets(ds.size() + 1, 0);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    SPARKXD_REQUIRE(ds.images[i].size() == cfg.n_inputs,
                    "every image must have n_inputs pixels");
    offsets[i + 1] =
        offsets[i] + cfg.timesteps * PoissonEncoder::count_active(ds.images[i]);
  }
  return offsets;
}

/// A copy of `rng` advanced by `n` draws.
Rng advanced(const Rng& rng, std::uint64_t n) {
  Rng r = rng;
  r.discard(n);
  return r;
}

}  // namespace

void train_epoch(Network& net, const data::Dataset& ds, Rng& rng) {
  SPARKXD_REQUIRE(ds.pixels() == net.config().n_inputs,
                  "dataset pixel count must match the network input width");
  const auto offsets = draw_offsets(ds, net.config());
  const std::size_t n = ds.size();
  const std::size_t steps = net.config().timesteps;
  const float max_rate = net.config().max_rate;

  // The epoch runs in blocks, double-buffered. Drawing ahead pays only
  // when another worker can encode while this one learns; with one worker
  // (or nested in a parallel region) a block is one sample, so the rasters
  // hold one sample's spikes instead of a block's.
  const std::size_t block =
      parallel_chunk_count(kEncodeBlock) > 1 ? kEncodeBlock : 1;
  std::array<std::vector<SpikeRaster>, 2> rasters;
  for (auto& buf : rasters) buf.resize(std::min(n, block));
  // `stream` sits at the first draw of the next block to encode. Chunk c of
  // the block [base, end), split as parallel_for_chunks splits it, starts
  // offsets[b] - offsets[base] draws past `start`, a copy of `stream`; the
  // last chunk ends at the block's end and moves `stream` there, so a
  // one-chunk block never discards.
  Rng stream = rng;
  const auto encode_chunk = [&](std::size_t base, std::size_t end,
                                std::size_t parts, std::size_t c,
                                const Rng& start,
                                std::vector<SpikeRaster>& out) {
    const std::size_t b = base + c * (end - base) / parts;
    const std::size_t e = base + (c + 1) * (end - base) / parts;
    Rng r = advanced(start, offsets[b] - offsets[base]);
    PoissonEncoder enc(max_rate);
    for (std::size_t i = b; i < e; ++i) {
      enc.set_image(ds.images[i]);
      enc.encode(r, steps, out[i - base]);
    }
    if (c + 1 == parts) stream = r;
  };

  // Pass p: item 0 learns block p - 1 from one buffer, serially, sample by
  // sample, while items 1.. draw block p into the other. The first pass
  // only draws and the last only learns. Nested inside a parallel region
  // the items run inline, in order.
  const std::size_t n_blocks = (n + block - 1) / block;
  for (std::size_t p = 0; p <= n_blocks; ++p) {
    const std::size_t begin = std::min(n, p * block);
    const std::size_t end = std::min(n, begin + block);
    const std::size_t learn_begin = p == 0 ? 0 : (p - 1) * block;
    const std::size_t parts =
        begin == end
            ? 0
            : std::max<std::size_t>(1, parallel_chunk_count(end - begin) - 1);
    const auto& learn = rasters[(p + 1) % 2];
    auto& ahead = rasters[p % 2];
    parallel_for(1 + parts, [&, start = stream](std::size_t item) {
      if (item == 0) {
        for (std::size_t i = learn_begin; i < begin; ++i)
          (void)net.process(learn[i - learn_begin], /*learn=*/true);
      } else {
        encode_chunk(begin, end, parts, item - 1, start, ahead);
      }
    });
  }
  rng = stream;
}

NeuronLabels label_neurons(Network& net, const data::Dataset& ds, Rng& rng) {
  SPARKXD_REQUIRE(ds.size() > 0, "cannot label neurons on an empty dataset");
  SPARKXD_REQUIRE(ds.pixels() == net.config().n_inputs,
                  "dataset pixel count must match the network input width");
  const std::size_t n = net.config().n_neurons;
  const std::size_t k = ds.num_classes;
  SPARKXD_REQUIRE(k > 0, "cannot label neurons on a dataset with no classes");
  SPARKXD_REQUIRE(ds.labels.size() == ds.size(),
                  "every labelling sample needs a label");
  std::vector<std::size_t> class_count(k, 0);
  for (const auto c : ds.labels) {
    SPARKXD_REQUIRE(c < k, "sample label out of range [0, num_classes)");
    ++class_count[c];
  }
  const auto offsets = draw_offsets(ds, net.config());

  // The float event kernel is bitwise process(learn=false) over a shared
  // const network, so chunks own only an InferenceState. An event-fx
  // network labels through one float copy, as the dense kernel always did.
  net.sync_transpose();
  std::optional<Network> float_copy;
  if (net.engine() != EngineKind::kEvent) {
    float_copy = net;
    float_copy->set_engine(EngineKind::kEvent);
  }
  const Network& kernel = float_copy ? *float_copy : net;

  // responses[n][c] = summed spikes of neuron n over class-c samples, per
  // chunk. The sums are integer-valued doubles, so adding the chunks in
  // order is exact.
  // Chunk c starts at its first sample's place in the caller's stream; the
  // last chunk ends where the serial loop would, and hands that state back.
  const std::size_t n_chunks = parallel_chunk_count(ds.size());
  std::vector<std::vector<double>> chunk_responses(n_chunks);
  Rng after = rng;
  parallel_for_chunks(
      ds.size(),
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        InferenceState state(kernel);
        Rng r = advanced(rng, offsets[begin]);
        auto& responses = chunk_responses[chunk];
        responses.assign(n * k, 0.0);
        for (std::size_t i = begin; i < end; ++i) {
          const auto counts = kernel.infer(state, ds.images[i], r);
          const auto c = ds.labels[i];
          for (std::size_t j = 0; j < n; ++j)
            responses[j * k + c] += counts[j];
        }
        if (end == ds.size()) after = r;
      },
      n_chunks);
  rng = after;
  std::vector<double> responses(n * k, 0.0);
  for (const auto& part : chunk_responses)
    for (std::size_t x = 0; x < part.size(); ++x) responses[x] += part[x];

  NeuronLabels out;
  out.num_classes = k;
  out.label.assign(n, -1);
  out.bias.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double best = 0.0;
    double total = 0.0;
    std::int32_t best_c = -1;
    for (std::size_t c = 0; c < k; ++c) {
      // Average response per presented sample of that class.
      const double avg = class_count[c]
                             ? responses[j * k + c] /
                                   static_cast<double>(class_count[c])
                             : 0.0;
      total += responses[j * k + c];
      if (avg > best) {
        best = avg;
        best_c = static_cast<std::int32_t>(c);
      }
    }
    out.label[j] = best_c;
    out.bias[j] = total / static_cast<double>(ds.size());
  }
  return out;
}

std::int32_t vote_spike_counts(const std::vector<std::uint32_t>& counts,
                               const NeuronLabels& labels) {
  std::vector<double> votes(labels.num_classes, 0.0);
  std::vector<std::size_t> members(labels.num_classes, 0);
  for (std::size_t j = 0; j < counts.size(); ++j) {
    const auto c = labels.label[j];
    if (c < 0) continue;
    // Bias-corrected vote: a neuron only contributes its response *excess*
    // over its labelling-time mean, so indiscriminate firing cancels.
    votes[static_cast<std::size_t>(c)] +=
        static_cast<double>(counts[j]) - labels.bias[j];
    ++members[static_cast<std::size_t>(c)];
  }
  double best = 0.0;
  std::int32_t best_c = -1;
  bool first = true;
  for (std::size_t c = 0; c < votes.size(); ++c) {
    if (members[c] == 0) continue;
    const double avg = votes[c] / static_cast<double>(members[c]);
    if (first || avg > best) {
      best = avg;
      best_c = static_cast<std::int32_t>(c);
      first = false;
    }
  }
  return best_c;
}

std::int32_t predict(Network& net, const NeuronLabels& labels,
                     const std::vector<float>& image, Rng& rng) {
  SPARKXD_REQUIRE(labels.label.size() == net.config().n_neurons,
                  "label table must match the network size");
  return vote_spike_counts(net.process(image, /*learn=*/false, rng), labels);
}

namespace {

/// Scores samples [begin, end) through `state`, one forked Rng per sample.
void score_span(const Network& net, InferenceState& state,
                const NeuronLabels& labels, const data::Dataset& ds,
                std::uint64_t stream, std::size_t begin, std::size_t end,
                std::vector<std::uint8_t>& correct) {
  for (std::size_t i = begin; i < end; ++i) {
    Rng sample_rng(hash_combine(stream, i));
    const auto counts = net.infer(state, ds.images[i], sample_rng);
    correct[i] = vote_spike_counts(counts, labels) ==
                 static_cast<std::int32_t>(ds.labels[i]);
  }
}

double accuracy_of(const std::vector<std::uint8_t>& correct) {
  std::size_t n_correct = 0;
  for (const std::uint8_t c : correct) n_correct += c;
  return static_cast<double>(n_correct) / static_cast<double>(correct.size());
}

}  // namespace

double evaluate(const Network& net, const NeuronLabels& labels,
                const data::Dataset& ds, Rng& rng) {
  SPARKXD_REQUIRE(ds.size() > 0, "cannot evaluate on an empty dataset");
  SPARKXD_REQUIRE(labels.label.size() == net.config().n_neurons,
                  "label table must match the network size");
  if (!net.transpose_synced()) {
    // Cold path: one private synced copy for the whole call (never one per
    // chunk). Hot callers sync beforehand and share `net` across workers.
    Network synced = net;
    synced.sync_transpose();
    return evaluate(std::as_const(synced), labels, ds, rng);
  }
  // Inference is per-sample independent (the membrane dynamics reset per
  // sample and the weights are read-only), so samples are scored
  // concurrently: each chunk owns an InferenceState and each sample forks
  // its spike-train Rng from one parent draw, making the accuracy
  // bit-identical at every thread count.
  const std::uint64_t stream = rng.next_u64();
  std::vector<std::uint8_t> correct(ds.size(), 0);
  parallel_for_chunks(
      ds.size(), [&](std::size_t begin, std::size_t end, std::size_t) {
        InferenceState state(net);
        score_span(net, state, labels, ds, stream, begin, end, correct);
      });
  return accuracy_of(correct);
}

double evaluate(Network& net, const NeuronLabels& labels,
                const data::Dataset& ds, Rng& rng) {
  // Scratch overload: sync the transposed inference copy in place (the only
  // mutation — weights and thetas are untouched), then share the network
  // read-only across the scoring workers.
  net.sync_transpose();
  return evaluate(std::as_const(net), labels, ds, rng);
}

TrainedModel train_and_label(const NetworkConfig& cfg,
                             const data::Dataset& train,
                             const data::Dataset& test, std::size_t epochs,
                             Rng& rng) {
  TrainedModel m{Network(cfg), {}, 0.0};
  for (std::size_t e = 0; e < epochs; ++e) train_epoch(m.net, train, rng);
  m.labels = label_neurons(m.net, train, rng);
  m.clean_accuracy = evaluate(m.net, m.labels, test, rng);
  return m;
}

}  // namespace sparkxd::snn

#include "error/injector.hpp"

#include <algorithm>
#include <cmath>

#include "common/bits.hpp"
#include "common/contracts.hpp"
#include "common/parallel.hpp"

namespace sparkxd::error {

const char* to_string(ErrorModelKind k) noexcept {
  switch (k) {
    case ErrorModelKind::kModel0Uniform:
      return "Model-0 (uniform)";
    case ErrorModelKind::kModel1Bitline:
      return "Model-1 (bitline)";
    case ErrorModelKind::kModel2Wordline:
      return "Model-2 (wordline)";
    case ErrorModelKind::kModel3DataDependent:
      return "Model-3 (data-dependent)";
  }
  return "unknown";
}

namespace {

/// Uniform [0,1) double from a cell coordinate, deterministic per seed.
double cell_score(std::uint64_t seed, std::uint64_t cell) noexcept {
  std::uint64_t s = sparkxd::hash_combine(seed, cell);
  return static_cast<double>(sparkxd::splitmix64(s) >> 11) * 0x1.0p-53;
}

/// Deterministic mean-1 lognormal multiplier for a stripe (bitline or
/// wordline) identified by `id`.
double stripe_multiplier(std::uint64_t seed, std::uint64_t id, double sigma) {
  Rng rng(sparkxd::hash_combine(seed, id));
  return rng.lognormal(-0.5 * sigma * sigma, sigma);
}

/// Slack on the division-free pre-filter `u < threshold * m * kCutSlack`:
/// every cell with u / m < threshold passes it (the three roundings involved
/// are each within 2^-53 relative), and the exact score test follows.
constexpr double kCutSlack = 1.0 + 0x1.0p-40;

}  // namespace

/// The one weak-cell enumeration kernel: the per-seed constants of a
/// (geometry, profile, spec, seed) reality and the scan of one physical
/// burst chunk. Both ErrorInjector's enumerating constructor and
/// ChunkCandidateTable scan through it, and count_retention_cells shares its
/// retention predicate. A cell's result depends only on these constants and
/// the chunk's address — not on which payload byte maps onto it.
class CellEnumerator {
 public:
  CellEnumerator(const dram::Geometry& geometry,
                 const SubarrayProfile& profile, const ErrorModelSpec& spec,
                 std::uint64_t seed, double max_ber)
      : g_(geometry),
        profile_(profile),
        spec_(spec),
        // Stripe multipliers (Model-1 / Model-2) are recomputed on demand
        // from a deterministic per-stripe hash: the flat stripe id is the
        // same index a full `n_banks x bitlines` / `n_banks x rows` table
        // would use, so the values are identical to an eager table without
        // the millions of lognormal draws for stripes never touched.
        bitline_count_(std::uint64_t{geometry.columns_per_row} *
                       geometry.column_bytes * 8),
        bitline_seed_(hash_combine(seed, 0xB17ULL)),
        wordline_seed_(hash_combine(seed, 0x30BDULL)),
        cell_seed_(hash_combine(seed, 0xCE11ULL)),
        retention_seed_(hash_combine(seed, 0x4E7E417ULL)),
        threshold_(2.0 * max_ber) {
    SPARKXD_REQUIRE(max_ber >= 0.0 && max_ber <= 0.5,
                    "max BER outside the modelled range");
    SPARKXD_REQUIRE(spec.p0 >= 0.0 && spec.p0 <= 1.0 && spec.p1 >= 0.0 &&
                        spec.p1 <= 1.0,
                    "Model-3 flip probabilities must be probabilities");
    spec.retention.validate();
  }

  /// Retention-failure probability of every cell of the chunk at `chunk`
  /// (a chunk lives in one subarray); 0 with the retention axis off.
  [[nodiscard]] double retention_probability(
      const dram::Address& chunk) const {
    return spec_.retention.enabled
               ? retention_fail_probability(
                     spec_.retention,
                     profile_.weakness(subarray_id(g_, chunk)))
               : 0.0;
  }

  /// The retention predicate: the cell leaks past the effective refresh
  /// window. Never true at p_retention = 0 (the hash is >= 0), so callers
  /// may skip the hash there.
  [[nodiscard]] bool retention_weak(std::uint64_t cell,
                                    double p_retention) const noexcept {
    return cell_score(retention_seed_, cell) < p_retention;
  }

  /// Where the byte at offset `offset` of a chunk lives: its column word,
  /// its first bit within that word, and that bit's cell coordinate (the
  /// byte's 8 cells are consecutive coordinates, so one index serves all).
  struct ByteCells {
    std::uint32_t column;
    std::uint32_t bit0;
    std::uint64_t cell0;
  };
  [[nodiscard]] ByteCells byte_cells(const dram::Address& chunk,
                                     std::uint32_t offset) const {
    dram::Address addr = chunk;
    addr.column = chunk.column + offset / g_.column_bytes;
    const std::uint32_t bit0 = (offset % g_.column_bytes) * 8;
    return {addr.column, bit0, cell_bit_index(g_, addr, bit0)};
  }

  /// Appends the candidates among bytes [0, n_bytes) of the chunk at
  /// `chunk`, with byte_index = base + offset, in ascending (byte, bit)
  /// order.
  void scan(const dram::Address& chunk, std::size_t n_bytes,
            std::uint32_t base,
            std::vector<ErrorInjector::Candidate>& out) const {
    const double sub_weak = profile_.weakness(subarray_id(g_, chunk));
    const double p_retention = retention_probability(chunk);
    const bool retention_possible = p_retention > 0.0;
    const std::uint64_t bank = bank_id(g_, chunk);
    // A chunk lives in one row, so its wordline multiplier is one stripe.
    const double wordline_mult =
        spec_.kind == ErrorModelKind::kModel2Wordline
            ? stripe_multiplier(wordline_seed_,
                                bank * g_.rows_per_bank() +
                                    bank_row(g_, chunk),
                                spec_.stripe_sigma)
            : 1.0;
    const std::uint32_t column_bits = g_.column_bytes * 8;
    for (std::uint32_t offset = 0; offset < n_bytes; ++offset) {
      const ByteCells byte = byte_cells(chunk, offset);
      const auto byte_index = static_cast<std::uint32_t>(base + offset);
      for (std::uint32_t bit = 0; bit < 8; ++bit) {
        const std::uint64_t cell = byte.cell0 + bit;
        // Retention failure takes precedence: a cell that leaks past the
        // effective refresh window is weak regardless of voltage, and must
        // not also appear as a voltage candidate (a duplicate would let two
        // flips cancel).
        if (retention_possible && retention_weak(cell, p_retention)) {
          out.push_back({byte_index, static_cast<std::uint8_t>(bit),
                         ErrorInjector::kRetentionScore});
          continue;
        }
        // Per-cell weakness multiplier under the active model.
        double m = sub_weak;
        switch (spec_.kind) {
          case ErrorModelKind::kModel0Uniform:
          case ErrorModelKind::kModel3DataDependent:
            break;  // uniform within the subarray
          case ErrorModelKind::kModel1Bitline:
            m *= stripe_multiplier(
                bitline_seed_,
                bank * bitline_count_ +
                    std::uint64_t{byte.column} * column_bits + byte.bit0 +
                    bit,
                spec_.stripe_sigma);
            break;
          case ErrorModelKind::kModel2Wordline:
            m *= wordline_mult;
            break;
        }
        if (m <= 0.0) continue;
        const double u = cell_score(cell_seed_, cell);
        if (!(u < threshold_ * m * kCutSlack)) continue;
        const double score = u / m;
        if (score < threshold_)
          out.push_back({byte_index, static_cast<std::uint8_t>(bit), score});
      }
    }
  }

 private:
  const dram::Geometry& g_;
  const SubarrayProfile& profile_;
  const ErrorModelSpec& spec_;
  std::uint64_t bitline_count_;
  std::uint64_t bitline_seed_;
  std::uint64_t wordline_seed_;
  std::uint64_t cell_seed_;
  std::uint64_t retention_seed_;
  double threshold_;
};

namespace {

/// Number of placement chunks that carry payload bytes.
std::size_t payload_chunks(const dram::Geometry& g,
                           const ChunkPlacement& placement,
                           std::size_t n_payload_bytes) {
  const std::size_t chunk_bytes = g.burst_bytes();
  SPARKXD_REQUIRE(placement.size() * chunk_bytes >= n_payload_bytes,
                  "placement does not cover the payload");
  return std::min(placement.size(),
                  (n_payload_bytes + chunk_bytes - 1) / chunk_bytes);
}

/// Bytes of chunk `c` that lie inside an `n_payload_bytes` payload.
std::size_t chunk_payload_bytes(std::size_t c, std::size_t chunk_bytes,
                                std::size_t n_payload_bytes) {
  return std::min(chunk_bytes, n_payload_bytes - c * chunk_bytes);
}

}  // namespace

ErrorInjector::ErrorInjector(const dram::Geometry& geometry,
                             const SubarrayProfile& profile,
                             const ErrorModelSpec& spec,
                             ChunkPlacement placement,
                             std::size_t n_payload_bytes, std::uint64_t seed,
                             double max_ber)
    : max_ber_(max_ber), n_payload_bytes_(n_payload_bytes), spec_(spec) {
  const CellEnumerator kernel(geometry, profile, spec, seed, max_ber);
  const std::size_t n_chunks =
      payload_chunks(geometry, placement, n_payload_bytes);
  if (n_payload_bytes == 0 || (max_ber == 0.0 && !spec.retention.enabled))
    return;

  // Candidate enumeration is pure per chunk (stateless hashes, no shared
  // Rng), so chunks are scanned concurrently into per-range buffers;
  // concatenating the buffers in range order restores ascending chunk order
  // regardless of the thread count.
  const std::size_t chunk_bytes = geometry.burst_bytes();
  const std::size_t n_parts = parallel_chunk_count(n_chunks);
  std::vector<std::vector<Candidate>> parts(n_parts);
  // Pass n_parts explicitly: the chunk count must match the buffer sizing
  // above even if the thread knob changes between the two reads.
  parallel_for_chunks(
      n_chunks,
      [&](std::size_t begin, std::size_t end, std::size_t slot) {
        for (std::size_t c = begin; c < end; ++c)
          kernel.scan(placement[c],
                      chunk_payload_bytes(c, chunk_bytes, n_payload_bytes),
                      static_cast<std::uint32_t>(c * chunk_bytes),
                      parts[slot]);
      },
      n_parts);
  for (const auto& part : parts)
    candidates_.insert(candidates_.end(), part.begin(), part.end());
  sort_candidates();
}

ErrorInjector::ErrorInjector(const ChunkCandidateTable& table,
                             const ChunkPlacement& placement,
                             std::size_t n_payload_bytes, double max_ber)
    : max_ber_(max_ber), n_payload_bytes_(n_payload_bytes),
      spec_(table.spec_) {
  SPARKXD_REQUIRE(max_ber >= 0.0 && max_ber <= table.max_ber_,
                  "BER exceeds the chunk table's enumerated maximum");
  const std::size_t n_chunks =
      payload_chunks(table.geometry_, placement, n_payload_bytes);
  const std::size_t chunk_bytes = table.geometry_.burst_bytes();
  const double threshold = 2.0 * max_ber;
  for (std::size_t c = 0; c < n_chunks; ++c) {
    const std::size_t base = c * chunk_bytes;
    const std::size_t used = chunk_payload_bytes(c, chunk_bytes,
                                                 n_payload_bytes);
    // Rebase the chunk's cells onto this payload, dropping the bytes past
    // a partially used last chunk and the cells not weak at max_ber.
    for (const Candidate& cell : table.chunk(placement[c]))
      if (cell.byte_index < used && cell.score < threshold)
        candidates_.push_back(
            {static_cast<std::uint32_t>(base + cell.byte_index), cell.bit,
             cell.score});
  }
  sort_candidates();
}

void ErrorInjector::sort_candidates() {
  // Sort by score so injection at lower BERs touches a stable prefix; break
  // score ties by cell position so the order is fully specified.
  std::sort(candidates_.begin(), candidates_.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score < b.score;
              return a.byte_index != b.byte_index
                         ? a.byte_index < b.byte_index
                         : a.bit < b.bit;
            });
  // Retention candidates carry a negative score, so after the sort they are
  // exactly the leading run.
  while (retention_candidates_ < candidates_.size() &&
         candidates_[retention_candidates_].score < 0.0)
    ++retention_candidates_;
}

ChunkCandidateTable::ChunkCandidateTable(const dram::Geometry& geometry,
                                         const SubarrayProfile& profile,
                                         const ErrorModelSpec& spec,
                                         std::vector<std::uint64_t> chunk_addrs,
                                         std::uint64_t seed, double max_ber)
    : geometry_(geometry),
      spec_(spec),
      max_ber_(max_ber),
      keys_(std::move(chunk_addrs)) {
  const CellEnumerator kernel(geometry, profile, spec, seed, max_ber);
  std::sort(keys_.begin(), keys_.end());
  keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
  keys_.shrink_to_fit();

  // Scan every distinct chunk whole, concurrently (the kernel is pure);
  // per-range buffers concatenated in range order keep address order.
  const std::size_t n = keys_.size();
  const std::size_t chunk_bytes = geometry.burst_bytes();
  const std::size_t n_parts = parallel_chunk_count(n);
  std::vector<std::vector<ErrorInjector::Candidate>> parts(n_parts);
  std::vector<std::uint32_t> counts(n, 0);
  parallel_for_chunks(
      n,
      [&](std::size_t begin, std::size_t end, std::size_t slot) {
        for (std::size_t i = begin; i < end; ++i) {
          const std::size_t before = parts[slot].size();
          kernel.scan(dram::decode_linear(geometry, keys_[i]), chunk_bytes, 0,
                      parts[slot]);
          counts[i] = static_cast<std::uint32_t>(parts[slot].size() - before);
        }
      },
      n_parts);
  begin_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) begin_[i + 1] = begin_[i] + counts[i];
  cells_.reserve(begin_[n]);
  for (const auto& p : parts) cells_.insert(cells_.end(), p.begin(), p.end());
}

std::span<const ErrorInjector::Candidate> ChunkCandidateTable::chunk(
    const dram::Address& a) const {
  const std::uint64_t key = dram::encode_linear(geometry_, a);
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  SPARKXD_REQUIRE(it != keys_.end() && *it == key,
                  "chunk was not enumerated by this table");
  const auto i = static_cast<std::size_t>(it - keys_.begin());
  return {cells_.data() + begin_[i], cells_.data() + begin_[i + 1]};
}

std::size_t count_retention_cells(const dram::Geometry& geometry,
                                  const SubarrayProfile& profile,
                                  const ErrorModelSpec& spec,
                                  const ChunkPlacement& placement,
                                  std::size_t n_payload_bytes,
                                  std::uint64_t seed) {
  const CellEnumerator kernel(geometry, profile, spec, seed, 0.0);
  const std::size_t n_chunks =
      payload_chunks(geometry, placement, n_payload_bytes);
  if (!spec.retention.enabled) return 0;
  const std::size_t chunk_bytes = geometry.burst_bytes();
  const std::size_t n_parts = parallel_chunk_count(n_chunks);
  std::vector<std::size_t> parts(n_parts, 0);
  parallel_for_chunks(
      n_chunks,
      [&](std::size_t begin, std::size_t end, std::size_t slot) {
        for (std::size_t c = begin; c < end; ++c) {
          const double p = kernel.retention_probability(placement[c]);
          if (!(p > 0.0)) continue;
          const std::size_t used =
              chunk_payload_bytes(c, chunk_bytes, n_payload_bytes);
          for (std::uint32_t offset = 0; offset < used; ++offset) {
            const std::uint64_t cell0 =
                kernel.byte_cells(placement[c], offset).cell0;
            for (std::uint32_t bit = 0; bit < 8; ++bit)
              parts[slot] += kernel.retention_weak(cell0 + bit, p);
          }
        }
      },
      n_parts);
  std::size_t total = 0;
  for (const std::size_t n : parts) total += n;
  return total;
}

ErrorInjector ErrorInjector::for_weights(const dram::Geometry& geometry,
                                         const SubarrayProfile& profile,
                                         const ErrorModelSpec& spec,
                                         ChunkPlacement placement,
                                         std::size_t n_weights,
                                         std::uint64_t seed, double max_ber) {
  return ErrorInjector(geometry, profile, spec, std::move(placement),
                       n_weights * sizeof(float), seed, max_ber);
}

void sanitize_weight(float& w, const SanitizeRange& r) noexcept {
  if (!r.clamp) return;
  if (std::isnan(w)) {
    w = r.lo;
    return;
  }
  w = std::clamp(w, r.lo, r.hi);
}

void revert_flips(std::vector<float>& weights,
                  const std::vector<WeightFlip>& flips) noexcept {
  // Reverse order: when one word was flipped more than once, the first
  // record (written last here) carries the pre-injection value.
  for (auto it = flips.rbegin(); it != flips.rend(); ++it)
    weights[it->word] = it->before;
}

std::span<const ErrorInjector::Candidate> ErrorInjector::weak_prefix(
    double ber) const {
  SPARKXD_REQUIRE(ber <= max_ber_ + 1e-15,
                  "BER exceeds the injector's enumerated maximum");
  const double threshold = 2.0 * ber;
  // Sorted by score, so the weak candidates are exactly the leading run.
  const auto end = std::partition_point(
      candidates_.begin(), candidates_.end(),
      [threshold](const Candidate& c) { return c.score < threshold; });
  return {candidates_.begin(), end};
}

std::size_t ErrorInjector::inject_all_weak(
    std::vector<float>& weights, double ber,
    const SanitizeRange& sanitize) const {
  const FrozenInjection table = freeze(ber);
  SPARKXD_REQUIRE(weights.size() * sizeof(float) >= n_payload_bytes_,
                  "weight array smaller than the mapped payload");
  for (const auto& e : table.entries()) {
    float& w = weights[e.word];
    w = flip_float_bit(w, e.bit);
    sanitize_weight(w, sanitize);
  }
  return table.size();
}

FrozenInjection ErrorInjector::freeze(double ber) const {
  const auto weak = weak_prefix(ber);
  FrozenInjection f;
  f.ber_ = ber;
  f.p0_ = spec_.p0;
  f.p1_ = spec_.p1;
  f.data_dependent_ = spec_.kind == ErrorModelKind::kModel3DataDependent;
  f.n_payload_bytes_ = n_payload_bytes_;
  f.entries_.reserve(weak.size());
  // Little-endian byte order: byte k of the float holds u32 bits 8k..8k+7.
  for (const auto& c : weak)
    f.entries_.push_back(
        {static_cast<std::uint32_t>(c.byte_index / sizeof(float)),
         static_cast<std::uint8_t>((c.byte_index % sizeof(float)) * 8 +
                                   c.bit)});
  return f;
}

FrozenInjection FrozenInjection::from_parts(std::vector<Entry> entries,
                                            double ber, double p0, double p1,
                                            bool data_dependent,
                                            std::size_t n_payload_bytes) {
  SPARKXD_REQUIRE(std::isfinite(ber) && ber >= 0.0 && ber < 1.0,
                  "frozen BER must lie in [0, 1)");
  SPARKXD_REQUIRE(std::isfinite(p0) && p0 >= 0.0 && p0 <= 1.0 &&
                      std::isfinite(p1) && p1 >= 0.0 && p1 <= 1.0,
                  "flip probabilities must lie in [0, 1]");
  const std::size_t n_words = n_payload_bytes / sizeof(float);
  for (const auto& e : entries) {
    SPARKXD_REQUIRE(e.word < n_words,
                    "frozen entry addresses a word past the payload");
    SPARKXD_REQUIRE(e.bit < 32, "frozen entry bit index must be < 32");
  }
  FrozenInjection f;
  f.entries_ = std::move(entries);
  f.ber_ = ber;
  f.p0_ = p0;
  f.p1_ = p1;
  f.data_dependent_ = data_dependent;
  f.n_payload_bytes_ = n_payload_bytes;
  return f;
}

std::size_t FrozenInjection::inject(std::vector<float>& weights, Rng& rng,
                                    const SanitizeRange& sanitize,
                                    std::vector<WeightFlip>* flips) const {
  SPARKXD_REQUIRE(weights.size() * sizeof(float) >= n_payload_bytes_,
                  "weight array smaller than the mapped payload");
  std::size_t n_flips = 0;
  for (const auto& e : entries_) {
    float& w = weights[e.word];
    double p = kWeakCellFailProb;
    if (data_dependent_)
      p = test_bit(float_to_bits(w), e.bit) ? p1_ : p0_;
    if (!rng.bernoulli(p)) continue;
    if (flips != nullptr) flips->push_back({e.word, w});
    w = flip_float_bit(w, e.bit);
    sanitize_weight(w, sanitize);
    ++n_flips;
  }
  return n_flips;
}

std::size_t ErrorInjector::inject_bytes(std::uint8_t* data,
                                        std::size_t n_bytes, double ber,
                                        Rng& rng) const {
  const auto weak = weak_prefix(ber);
  SPARKXD_REQUIRE(n_bytes >= n_payload_bytes_,
                  "byte array smaller than the mapped payload");
  std::size_t flips = 0;
  for (const auto& c : weak) {
    std::uint8_t& byte = data[c.byte_index];
    double p = kWeakCellFailProb;
    if (spec_.kind == ErrorModelKind::kModel3DataDependent)
      p = ((byte >> c.bit) & 1u) ? spec_.p1 : spec_.p0;
    if (!rng.bernoulli(p)) continue;
    byte = static_cast<std::uint8_t>(byte ^ (1u << c.bit));
    ++flips;
  }
  return flips;
}

double ErrorInjector::expected_flips(double ber) const {
  const double p = spec_.kind == ErrorModelKind::kModel3DataDependent
                       ? 0.5 * (spec_.p0 + spec_.p1)
                       : kWeakCellFailProb;
  return static_cast<double>(weak_prefix(ber).size()) * p;
}

}  // namespace sparkxd::error

// Exhaustive round-trip tests for the SECDED(72,64) code: every correctable
// (single-bit) error pattern must decode back to the original codeword, and
// every double-bit pattern must be flagged — never silently miscorrected
// into a wrong word that claims to be clean or corrected. The buffer tests
// cover the FP32-weight scrub helpers over the same scheme.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bits.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "error/ecc_scheme.hpp"

namespace sparkxd::error {
namespace {

std::unique_ptr<EccScheme> secded() {
  return make_ecc_scheme({EccKind::kSecded, 64, 0});
}

/// Assorted data words: degenerate patterns plus deterministic random ones.
std::vector<std::uint64_t> test_words() {
  std::vector<std::uint64_t> words = {
      0x0000000000000000ULL, 0xFFFFFFFFFFFFFFFFULL, 0xAAAAAAAAAAAAAAAAULL,
      0x5555555555555555ULL, 0xDEADBEEFCAFEBABEULL, 0x0000000000000001ULL,
      0x8000000000000000ULL,
  };
  Rng rng(123);
  for (int i = 0; i < 5; ++i) words.push_back(rng.next_u64());
  return words;
}

std::uint64_t encode(const EccScheme& scheme, std::uint64_t word) {
  std::uint64_t check = 0;
  scheme.encode(&word, &check);
  return check;
}

/// A codeword-wide bit flip: positions 0..63 hit the data word, 64..71 hit
/// the check byte.
void flip(std::uint64_t& data, std::uint64_t& check, unsigned pos) {
  if (pos < 64)
    data ^= std::uint64_t{1} << pos;
  else
    check ^= std::uint64_t{1} << (pos - 64);
}

TEST(Secded, CleanWordsDecodeClean) {
  const auto scheme = secded();
  for (const auto word : test_words()) {
    std::uint64_t data = word;
    std::uint64_t check = encode(*scheme, word);
    EXPECT_EQ(scheme->decode(&data, &check).status, EccStatus::kClean);
    EXPECT_EQ(data, word);
  }
}

TEST(Secded, EncodeIsDeterministicAndWordSensitive) {
  const auto scheme = secded();
  EXPECT_EQ(encode(*scheme, 0xDEADBEEFCAFEF00DULL),
            encode(*scheme, 0xDEADBEEFCAFEF00DULL));
  EXPECT_NE(encode(*scheme, 0), encode(*scheme, 1));
}

TEST(Secded, EverySingleBitErrorIsCorrectedToTheOriginal) {
  const auto scheme = secded();
  for (const auto word : test_words()) {
    const std::uint64_t check = encode(*scheme, word);
    for (unsigned pos = 0; pos < 72; ++pos) {
      std::uint64_t data = word;
      std::uint64_t c = check;
      flip(data, c, pos);
      const EccDecode r = scheme->decode(&data, &c);
      EXPECT_EQ(r.status, EccStatus::kCorrected)
          << "word " << word << " flipped bit " << pos;
      EXPECT_EQ(r.bits_corrected, 1u) << "flipped bit " << pos;
      EXPECT_EQ(data, word) << "data not restored after flipping bit " << pos;
      EXPECT_EQ(c, check) << "check not restored after flipping bit " << pos;
    }
  }
}

TEST(Secded, EveryDoubleBitErrorIsFlaggedNeverMiscorrected) {
  // All C(72,2) = 2556 two-bit patterns across data + check bits. SECDED
  // must *detect* them; the fatal failure mode would be kClean or a
  // kCorrected that "fixes" the word to a wrong value.
  const auto scheme = secded();
  for (const auto word : test_words()) {
    const std::uint64_t check = encode(*scheme, word);
    for (unsigned i = 0; i < 72; ++i) {
      for (unsigned j = i + 1; j < 72; ++j) {
        std::uint64_t data = word;
        std::uint64_t c = check;
        flip(data, c, i);
        flip(data, c, j);
        const std::uint64_t corrupted = data;
        EXPECT_EQ(scheme->decode(&data, &c).status, EccStatus::kDetected)
            << "word " << word << " flipped bits " << i << "," << j;
        EXPECT_EQ(data, corrupted) << "detected word must be left as-is";
      }
    }
  }
}

// ------------------------------------------------------------ weight buffers

void flip_weight_bit(std::vector<float>& w, std::size_t i, unsigned bit) {
  w[i] = flip_float_bit(w[i], bit);
}

TEST(EccWeights, CleanBufferScrubsClean) {
  const auto scheme = secded();
  std::vector<float> w = {0.1f, 0.2f, 0.3f, 0.4f};
  const auto checks = ecc_encode_buffer(*scheme, w);
  ASSERT_EQ(checks.size(), 2u);
  const auto stats = ecc_scrub_buffer(*scheme, w, checks);
  EXPECT_EQ(stats.codewords, 2u);
  EXPECT_EQ(stats.corrected, 0u);
  EXPECT_EQ(stats.detected, 0u);
}

TEST(EccWeights, SingleBitFlipIsRepaired) {
  const auto scheme = secded();
  std::vector<float> w(8, 0.25f);
  const auto original = w;
  const auto checks = ecc_encode_buffer(*scheme, w);
  flip_weight_bit(w, 5, 13);  // one mantissa bit of weight 5

  const auto stats = ecc_scrub_buffer(*scheme, w, checks);
  EXPECT_EQ(stats.corrected, 1u);
  EXPECT_EQ(stats.detected, 0u);
  EXPECT_EQ(w, original);
}

TEST(EccWeights, DoubleFlipInOneWordIsFlaggedAndLeftAsIs) {
  const auto scheme = secded();
  std::vector<float> w(4, 0.75f);
  const auto checks = ecc_encode_buffer(*scheme, w);
  // Two flips inside the same 64-bit word (weights 0 and 1).
  flip_weight_bit(w, 0, 3);
  flip_weight_bit(w, 1, 21);
  const auto corrupted = w;

  const auto stats = ecc_scrub_buffer(*scheme, w, checks);
  EXPECT_EQ(stats.corrected, 0u);
  EXPECT_EQ(stats.detected, 1u);
  EXPECT_EQ(w, corrupted);  // detected but not touched
}

TEST(EccWeights, FlipsInDifferentWordsAreBothRepaired) {
  const auto scheme = secded();
  std::vector<float> w(8, 0.5f);
  const auto original = w;
  const auto checks = ecc_encode_buffer(*scheme, w);
  for (const std::size_t i : {0u, 7u}) flip_weight_bit(w, i, 7);
  const auto stats = ecc_scrub_buffer(*scheme, w, checks);
  EXPECT_EQ(stats.corrected, 2u);
  EXPECT_EQ(stats.detected, 0u);
  EXPECT_EQ(w, original);
}

TEST(EccWeights, ScrubRepairsSingleErrorsAcrossABuffer) {
  const auto scheme = secded();
  Rng rng(9);
  std::vector<float> w(1000);
  for (auto& x : w) x = static_cast<float>(rng.uniform(0.0, 0.4));
  const auto checks = ecc_encode_buffer(*scheme, w);
  auto corrupted = w;
  // Flip one bit in 50 distinct 64-bit words (two weights per word).
  for (std::size_t word = 0; word < 50; ++word)
    flip_weight_bit(corrupted, word * 10, (word * 7) % 32);
  const auto stats = ecc_scrub_buffer(*scheme, corrupted, checks);
  EXPECT_EQ(stats.corrected, 50u);
  EXPECT_EQ(stats.detected, 0u);
  EXPECT_EQ(corrupted, w);
}

TEST(EccWeights, OddBufferPadsTheTailWordAndMismatchedChecksThrow) {
  const auto scheme = secded();
  std::vector<float> odd = {0.1f, 0.2f, 0.3f};
  const auto original = odd;
  const auto checks = ecc_encode_buffer(*scheme, odd);
  ASSERT_EQ(checks.size(), 2u);  // the tail word is zero-padded
  flip_weight_bit(odd, 2, 30);
  EXPECT_EQ(ecc_scrub_buffer(*scheme, odd, checks).corrected, 1u);
  EXPECT_EQ(odd, original);

  std::vector<float> w(4, 0.1f);
  const std::vector<std::uint64_t> wrong(3);
  EXPECT_THROW((void)ecc_scrub_buffer(*scheme, w, wrong), ContractViolation);
}

TEST(EccWeights, StorageOverheadIsOneEighth) {
  const auto scheme = secded();
  // 64 weights = 256 data bytes -> 32 check bytes = 8 FP32-word equivalents.
  EXPECT_EQ(ecc_codeword_count(*scheme, 64), 32u);
  EXPECT_EQ(ecc_check_float_equiv(*scheme, 64) * sizeof(float), 32u);
  EXPECT_DOUBLE_EQ(scheme->storage_overhead(), 0.125);
}

}  // namespace
}  // namespace sparkxd::error

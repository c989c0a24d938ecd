#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "prg/chacha.h"
#include "prg/prg.h"
#include "prg/seed.h"
#include "util/file_util.h"

namespace ssdb::prg {
namespace {

std::string Hex(const uint8_t* bytes, size_t length) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < length; ++i) {
    out.push_back(kDigits[bytes[i] >> 4]);
    out.push_back(kDigits[bytes[i] & 15]);
  }
  return out;
}

// FNV-1a over the little-endian bytes of each value: a compact fingerprint
// of a long PRG output, pinned by the golden tests below.
class Digest {
 public:
  void Add(uint64_t value, size_t bytes) {
    for (size_t i = 0; i < bytes; ++i) {
      hash_ ^= static_cast<uint8_t>(value >> (8 * i));
      hash_ *= 0x100000001b3ULL;
    }
  }
  void AddElems(const gf::RingElem& elems) {
    for (gf::Elem e : elems) Add(e, sizeof(gf::Elem));
  }
  void AddString(const std::string& bytes) {
    for (char c : bytes) Add(static_cast<uint8_t>(c), 1);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

gf::Ring MakeRing(uint32_t p, uint32_t e = 1) {
  return gf::Ring(gf::Field::Make(p, e).value());
}

// The keystream of nonce `nonce` from byte 0, straight from the block
// function: the reference every Stream read is checked against.
std::vector<uint8_t> FlatKeystream(const std::array<uint8_t, kChaChaKeyBytes>& key,
                                   uint64_t nonce, size_t blocks) {
  std::vector<uint8_t> out;
  std::array<uint8_t, kChaChaBlockBytes> block;
  for (uint64_t counter = 0; counter < blocks; ++counter) {
    ChaCha20Block(key, counter, nonce, &block);
    out.insert(out.end(), block.begin(), block.end());
  }
  return out;
}

uint64_t LoadLe(const uint8_t* bytes, size_t length) {
  uint64_t v = 0;
  for (size_t i = 0; i < length; ++i) v |= uint64_t{bytes[i]} << (8 * i);
  return v;
}

TEST(ChaChaTest, DjbKnownAnswer) {
  // Zero key, zero nonce: the first two keystream blocks of djb's
  // reference test vector.
  std::array<uint8_t, kChaChaKeyBytes> key{};
  std::array<uint8_t, kChaChaBlockBytes> block;
  ChaCha20Block(key, 0, 0, &block);
  EXPECT_EQ(Hex(block.data(), block.size()),
            "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
            "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586");
  ChaCha20Block(key, 1, 0, &block);
  EXPECT_EQ(Hex(block.data(), block.size()),
            "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed"
            "29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f");
}

TEST(ChaChaTest, LanesEqualFourBlocks) {
  // Random keys, distinct per-lane nonces, and counters c..c+3 that cross
  // 2^32 (the carry goes into state word 13), plus the stream's own shape:
  // four consecutive blocks of one nonce.
  uint64_t rng = 0x9e3779b97f4a7c15ULL;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  const uint64_t bases[] = {0, 1, (uint64_t{1} << 32) - 2,
                            (uint64_t{1} << 32) - 1, ~uint64_t{0} - 3};
  for (int trial = 0; trial < 20; ++trial) {
    std::array<uint8_t, kChaChaKeyBytes> key;
    for (uint8_t& b : key) b = static_cast<uint8_t>(next());
    for (uint64_t base : bases) {
      for (bool same_nonce : {false, true}) {
        std::array<uint64_t, kChaChaLanes> counters;
        std::array<uint64_t, kChaChaLanes> nonces;
        const uint64_t nonce = next();
        for (size_t l = 0; l < kChaChaLanes; ++l) {
          counters[l] = base + l;
          nonces[l] = same_nonce ? nonce : next();
        }
        std::array<uint8_t, kChaChaLaneBytes> lanes;
        ChaCha20Lanes(key, counters, nonces, &lanes);
        for (size_t l = 0; l < kChaChaLanes; ++l) {
          std::array<uint8_t, kChaChaBlockBytes> block;
          ChaCha20Block(key, counters[l], nonces[l], &block);
          EXPECT_EQ(Hex(lanes.data() + kChaChaBlockBytes * l, block.size()),
                    Hex(block.data(), block.size()))
              << "lane " << l << " counter " << counters[l];
        }
      }
    }
  }
}

TEST(ChaChaTest, DeterministicAndCounterSensitive) {
  std::array<uint8_t, kChaChaKeyBytes> key{};
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<uint8_t>(i);
  std::array<uint8_t, kChaChaBlockBytes> b1, b2, b3, b4;
  ChaCha20Block(key, 0, 0, &b1);
  ChaCha20Block(key, 0, 0, &b2);
  ChaCha20Block(key, 1, 0, &b3);
  ChaCha20Block(key, 0, 1, &b4);
  EXPECT_EQ(b1, b2);
  EXPECT_NE(b1, b3);  // counter changes the block
  EXPECT_NE(b1, b4);  // nonce changes the block
  EXPECT_NE(b3, b4);
}

TEST(ChaChaTest, KeySensitive) {
  std::array<uint8_t, kChaChaKeyBytes> k1{}, k2{};
  k2[0] = 1;
  std::array<uint8_t, kChaChaBlockBytes> b1, b2;
  ChaCha20Block(k1, 0, 0, &b1);
  ChaCha20Block(k2, 0, 0, &b2);
  EXPECT_NE(b1, b2);
}

TEST(SeedTest, HexRoundTrip) {
  Seed seed = Seed::FromUint64(1234);
  auto back = Seed::FromHex(seed.ToHex());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(*back == seed);
}

TEST(SeedTest, FileRoundTrip) {
  ssdb::TempDir dir("seed_test");
  Seed seed = Seed::FromUint64(777);
  std::string path = dir.FilePath("seed.key");
  ASSERT_TRUE(seed.SaveToFile(path).ok());
  auto loaded = Seed::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(*loaded == seed);
}

TEST(SeedTest, RejectsWrongLength) {
  EXPECT_FALSE(Seed::FromHex("abcd").ok());
  EXPECT_FALSE(Seed::FromHex("zz").ok());
}

TEST(SeedTest, NearbyIntegersGiveUnrelatedSeeds) {
  EXPECT_FALSE(Seed::FromUint64(1) == Seed::FromUint64(2));
}

TEST(PrgTest, StreamsAreDeterministicPerPosition) {
  Prg prg(Seed::FromUint64(42));
  auto s1 = prg.StreamForNode(10);
  auto s2 = prg.StreamForNode(10);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(s1.NextByte(), s2.NextByte());
  }
}

TEST(PrgTest, DifferentPositionsAreIndependent) {
  Prg prg(Seed::FromUint64(42));
  auto s1 = prg.StreamForNode(10);
  auto s2 = prg.StreamForNode(11);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (s1.NextByte() != s2.NextByte()) ++differing;
  }
  EXPECT_GT(differing, 32);  // overwhelming with independent streams
}

TEST(PrgTest, ElementsAreInRangeAndRoughlyUniform) {
  auto field = gf::Field::Make(83);
  ASSERT_TRUE(field.ok());
  Prg prg(Seed::FromUint64(7));
  auto stream = prg.StreamForNode(1);
  std::vector<int> histogram(field->q(), 0);
  const int draws = 83000;
  for (int i = 0; i < draws; ++i) {
    gf::Elem e = stream.NextElem(*field);
    ASSERT_LT(e, field->q());
    ++histogram[e];
  }
  // Every value should appear, none wildly over-represented (chi-square-ish
  // sanity bound: expected 1000 per bucket).
  for (uint32_t v = 0; v < field->q(); ++v) {
    EXPECT_GT(histogram[v], 700) << "value " << v;
    EXPECT_LT(histogram[v], 1300) << "value " << v;
  }
}

TEST(PrgTest, ClientShareMatchesStream) {
  auto field = gf::Field::Make(29);
  ASSERT_TRUE(field.ok());
  gf::Ring ring(*field);
  Prg prg(Seed::FromUint64(123));
  gf::RingElem share = prg.ClientShare(ring, 5);
  EXPECT_EQ(share.size(), ring.n());
  auto stream = prg.StreamForNode(5);
  gf::RingElem expected = stream.NextRingElem(ring);
  EXPECT_EQ(share, expected);
}

TEST(PrgTest, DifferentSeedsDiverge) {
  auto field = gf::Field::Make(83);
  ASSERT_TRUE(field.ok());
  gf::Ring ring(*field);
  Prg a((Seed::FromUint64(1)));
  Prg b((Seed::FromUint64(2)));
  EXPECT_NE(a.ClientShare(ring, 1), b.ClientShare(ring, 1));
}

// Golden digests of every PRG output the stores and the wire depend on,
// recorded before the buffered stream replaced the byte-at-a-time one. A
// change to any of them re-keys every encoded database.
TEST(PrgGoldenTest, ClientShares) {
  struct Case {
    uint32_t p, e;
    uint64_t pres, mutation;
  };
  const Case cases[] = {
      {83, 1, 0xc4ac8b2dfed68153ULL, 0x8ce91cba080818deULL},   // 7-bit draws
      {257, 1, 0xb17b446029d8aefcULL, 0x823858fc4cd20669ULL},  // 9-bit draws
      {3, 4, 0x4e535553e1e985a6ULL, 0xb6c5960bc952a7e4ULL},    // GF(3^4)
  };
  Prg prg(Seed::FromUint64(42));
  for (const Case& c : cases) {
    gf::Ring ring = MakeRing(c.p, c.e);
    Digest pres;
    for (uint64_t pre = 0; pre < 2048; ++pre) {
      pres.AddElems(prg.ClientShare(ring, pre));
    }
    Digest mutation;
    for (uint64_t i = 0; i < 64; ++i) {
      mutation.AddElems(prg.ClientShare(ring, kFirstMutationNonce + i));
      mutation.AddElems(prg.ClientShare(ring, kMutationNonceLimit - 1 - i));
    }
    EXPECT_EQ(pres.value(), c.pres) << "p=" << c.p << " e=" << c.e;
    EXPECT_EQ(mutation.value(), c.mutation) << "p=" << c.p << " e=" << c.e;
  }
}

TEST(PrgGoldenTest, ServerSliceShares) {
  Prg prg(Seed::FromUint64(42));
  gf::Ring ring = MakeRing(83);
  Digest digest;
  for (uint32_t slice = 1; slice <= 3; ++slice) {
    for (uint64_t pre = 0; pre < 512; ++pre) {
      digest.AddElems(prg.ServerSliceShare(ring, pre, slice));
    }
  }
  EXPECT_EQ(digest.value(), 0xabc8e7c1042e2ccbULL);
}

TEST(PrgGoldenTest, AggregateAndVerifyMaskWords) {
  Prg prg(Seed::FromUint64(42));
  const uint64_t nonces[] = {0, 1, 77, 4095, kFirstMutationNonce + 3};
  Digest agg;
  Digest verify;
  for (uint64_t nonce : nonces) {
    for (uint32_t slice = 0; slice <= 3; ++slice) {
      Prg::Stream stream = prg.StreamForAggColumns(nonce, slice);
      for (int w = 0; w < 600; ++w) agg.Add(stream.NextUint32(), 4);
    }
    Prg::Stream stream = prg.StreamForVerifyColumns(nonce);
    for (int w = 0; w < 600; ++w) verify.Add(stream.NextUint64(), 8);
  }
  for (uint32_t index = 0; index < 100; ++index) {
    verify.Add(prg.AggVerifyKey(index), 8);
  }
  EXPECT_EQ(agg.value(), 0x83335e4f7750d2eaULL);
  EXPECT_EQ(verify.value(), 0xfd031e4ef1d070acULL);
}

TEST(PrgGoldenTest, PayloadKeystream) {
  Prg prg(Seed::FromUint64(42));
  Digest digest;
  for (size_t length = 0; length <= 300; ++length) {
    std::string keystream = prg.PayloadKeystream(length, length);
    ASSERT_EQ(keystream.size(), length);
    digest.AddString(keystream);
    std::string plain(length, 'x');
    std::string sealed = prg.SealPayload(length, plain);
    for (size_t i = 0; i < length; ++i) {
      ASSERT_EQ(sealed[i], static_cast<char>(keystream[i] ^ 'x'));
    }
    EXPECT_EQ(prg.UnsealPayload(length, sealed), plain);
  }
  EXPECT_EQ(digest.value(), 0x8e83785898f9eddfULL);
}

TEST(PrgTest, SkipEqualsDroppingBytes) {
  // From start offsets on both sides of the block (64 B) and refill
  // (256 B) boundaries, reached both by reading and by skipping, Skip(k)
  // then a read must land exactly k bytes further down the keystream.
  const Seed seed = Seed::FromUint64(9);
  Prg prg(seed);
  const uint64_t pre = 12345;
  const std::vector<uint8_t> flat = FlatKeystream(seed.bytes(), pre, 24);
  const size_t starts[] = {0,   1,   3,   60,  63,  64,  65,  127, 128,
                           129, 191, 192, 252, 255, 256, 257, 260, 320};
  for (size_t start : starts) {
    for (size_t k = 0; k <= 700; ++k) {
      for (bool read_to_start : {true, false}) {
        Prg::Stream stream = prg.StreamForNode(pre);
        if (read_to_start) {
          for (size_t i = 0; i < start; ++i) {
            ASSERT_EQ(stream.NextByte(), flat[i]);
          }
        } else {
          stream.Skip(start);
        }
        stream.Skip(k);
        const uint8_t* at = flat.data() + start + k;
        ASSERT_EQ(stream.NextUint32(), LoadLe(at, 4))
            << "start " << start << " skip " << k;
        ASSERT_EQ(stream.NextUint64(), LoadLe(at + 4, 8))
            << "start " << start << " skip " << k;
        ASSERT_EQ(stream.NextByte(), at[12]);
      }
    }
  }
}

TEST(PrgTest, FrontierMaskSumsEqualPerNodeWalks) {
  // Every frontier size around the four-lane tails, offsets inside one
  // block, across blocks and repeated, both word widths, aggregate slices
  // 0-3 and the verify stream: each sum must equal the per-nonce Stream
  // reads it replaces.
  Prg prg(Seed::FromUint64(5));
  const std::vector<uint64_t> all_nonces = {
      3, 17, 18, 400, 9000, 65535, kFirstMutationNonce, kFirstMutationNonce + 7,
      kMutationNonceLimit - 1};
  const std::vector<std::vector<size_t>> offset_sets = {
      {0, 8, 16, 56},                    // one block
      {8, 64, 200, 1024, 4096 + 48},     // across blocks
      {16, 16, 72, 72, 72, 136, 1000},   // repeated
      {}};
  struct Case {
    Prg::MaskStream stream;
    uint32_t slice;
  };
  const Case cases[] = {{Prg::MaskStream::kAggColumns, 0},
                        {Prg::MaskStream::kAggColumns, 1},
                        {Prg::MaskStream::kAggColumns, 2},
                        {Prg::MaskStream::kAggColumns, 3},
                        {Prg::MaskStream::kVerifyColumns, 0}};
  for (size_t frontier : {0, 1, 3, 4, 5, 9}) {
    const std::vector<uint64_t> nonces(all_nonces.begin(),
                                       all_nonces.begin() + frontier);
    for (const Case& c : cases) {
      for (const std::vector<size_t>& offsets : offset_sets) {
        for (size_t word_bytes : {4, 8}) {
          std::vector<uint64_t> expected(offsets.size(), 0);
          for (uint64_t nonce : nonces) {
            for (size_t j = 0; j < offsets.size(); ++j) {
              Prg::Stream stream =
                  c.stream == Prg::MaskStream::kAggColumns
                      ? prg.StreamForAggColumns(nonce, c.slice)
                      : prg.StreamForVerifyColumns(nonce);
              stream.Skip(offsets[j]);
              expected[j] += word_bytes == 4 ? stream.NextUint32()
                                             : stream.NextUint64();
            }
          }
          EXPECT_EQ(prg.FrontierMaskSums(c.stream, c.slice, nonces, offsets,
                                         word_bytes),
                    expected)
              << "frontier " << frontier << " slice " << c.slice
              << " verify " << (c.stream == Prg::MaskStream::kVerifyColumns)
              << " width " << word_bytes << " offsets " << offsets.size();
        }
      }
    }
  }
}

}  // namespace
}  // namespace ssdb::prg

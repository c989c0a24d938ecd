#include "prg/chacha.h"

namespace ssdb::prg {
namespace {

// Four uint32_t lanes in one register; GCC and Clang lower the arithmetic,
// xor and shifts below to SSE2 on x86-64 and NEON on aarch64.
typedef uint32_t U32x4 __attribute__((vector_size(16)));

template <int K, typename V>
inline V Rotl32(V x) {
  return (x << K) | (x >> (32 - K));
}

template <typename V>
inline void QuarterRound(V& a, V& b, V& c, V& d) {
  a += b;
  d ^= a;
  d = Rotl32<16>(d);
  c += d;
  b ^= c;
  b = Rotl32<12>(b);
  a += b;
  d ^= a;
  d = Rotl32<8>(d);
  c += d;
  b ^= c;
  b = Rotl32<7>(b);
}

inline uint32_t Load32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

inline void Store32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

// The 16 output words of a block (or of one block per lane): state setup,
// 20 rounds, and the feed-forward. `V{} + w` splats a scalar word across
// the lanes (and is just w for V = uint32_t).
template <typename V>
inline void ChaCha20Core(const std::array<uint8_t, kChaChaKeyBytes>& key,
                         V counter_lo, V counter_hi, V nonce_lo, V nonce_hi,
                         V x[16]) {
  // "expand 32-byte k"
  static constexpr uint32_t kSigma[4] = {0x61707865, 0x3320646e, 0x79622d32,
                                         0x6b206574};
  V state[16];
  for (int i = 0; i < 4; ++i) state[i] = V{} + kSigma[i];
  for (int i = 0; i < 8; ++i) state[4 + i] = V{} + Load32(key.data() + 4 * i);
  state[12] = counter_lo;
  state[13] = counter_hi;
  state[14] = nonce_lo;
  state[15] = nonce_hi;

  for (int i = 0; i < 16; ++i) x[i] = state[i];
  for (int round = 0; round < 10; ++round) {
    // Column rounds.
    QuarterRound(x[0], x[4], x[8], x[12]);
    QuarterRound(x[1], x[5], x[9], x[13]);
    QuarterRound(x[2], x[6], x[10], x[14]);
    QuarterRound(x[3], x[7], x[11], x[15]);
    // Diagonal rounds.
    QuarterRound(x[0], x[5], x[10], x[15]);
    QuarterRound(x[1], x[6], x[11], x[12]);
    QuarterRound(x[2], x[7], x[8], x[13]);
    QuarterRound(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) x[i] += state[i];
}

}  // namespace

void ChaCha20Block(const std::array<uint8_t, kChaChaKeyBytes>& key,
                   uint64_t counter, uint64_t nonce,
                   std::array<uint8_t, kChaChaBlockBytes>* out) {
  uint32_t x[16];
  ChaCha20Core<uint32_t>(key, static_cast<uint32_t>(counter),
                         static_cast<uint32_t>(counter >> 32),
                         static_cast<uint32_t>(nonce),
                         static_cast<uint32_t>(nonce >> 32), x);
  for (int i = 0; i < 16; ++i) Store32(out->data() + 4 * i, x[i]);
}

void ChaCha20Lanes(const std::array<uint8_t, kChaChaKeyBytes>& key,
                   const std::array<uint64_t, kChaChaLanes>& counters,
                   const std::array<uint64_t, kChaChaLanes>& nonces,
                   std::array<uint8_t, kChaChaLaneBytes>* out) {
  U32x4 counter_lo, counter_hi, nonce_lo, nonce_hi;
  for (size_t l = 0; l < kChaChaLanes; ++l) {
    counter_lo[l] = static_cast<uint32_t>(counters[l]);
    counter_hi[l] = static_cast<uint32_t>(counters[l] >> 32);
    nonce_lo[l] = static_cast<uint32_t>(nonces[l]);
    nonce_hi[l] = static_cast<uint32_t>(nonces[l] >> 32);
  }
  U32x4 x[16];
  ChaCha20Core(key, counter_lo, counter_hi, nonce_lo, nonce_hi, x);
  for (size_t l = 0; l < kChaChaLanes; ++l) {
    uint8_t* block = out->data() + kChaChaBlockBytes * l;
    for (int i = 0; i < 16; ++i) Store32(block + 4 * i, x[i][l]);
  }
}

}  // namespace ssdb::prg

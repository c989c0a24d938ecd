// ChaCha20 block function (D.J. Bernstein), implemented from scratch.
// This is the pseudorandom generator behind the client shares: the paper
// requires a PRG whose output can be regenerated per node from (seed, pre),
// which maps naturally onto ChaCha's (key, nonce, counter) addressing.
//
// The state setup and double round are written once, as a template over
// the word type: a plain uint32_t computes one block, a 4-lane GCC/Clang
// vector of uint32_t computes four independent blocks side by side (SSE2 on
// x86-64, NEON on aarch64, without intrinsics or -march). Both entry points
// produce the same bytes a one-block-at-a-time loop would.

#ifndef SSDB_PRG_CHACHA_H_
#define SSDB_PRG_CHACHA_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace ssdb::prg {

inline constexpr size_t kChaChaKeyBytes = 32;
inline constexpr size_t kChaChaBlockBytes = 64;
inline constexpr size_t kChaChaLanes = 4;
inline constexpr size_t kChaChaLaneBytes = kChaChaLanes * kChaChaBlockBytes;

// Produces the 64-byte keystream block for (key, nonce, counter) using 20
// rounds. Layout follows the original djb variant: 64-bit counter (words
// 12-13) + 64-bit nonce (words 14-15). The one-block entry: a position jump
// that lands mid-block needs exactly that block.
void ChaCha20Block(const std::array<uint8_t, kChaChaKeyBytes>& key,
                   uint64_t counter, uint64_t nonce,
                   std::array<uint8_t, kChaChaBlockBytes>* out);

// Four blocks in one pass: bytes [64·i, 64·i + 64) of `out` are the block
// (counters[i], nonces[i]) — identical to ChaCha20Block for that pair, and
// stored little-endian on any host. Lanes are independent, so they may be
// four consecutive blocks of one stream or the same block of four streams.
void ChaCha20Lanes(const std::array<uint8_t, kChaChaKeyBytes>& key,
                   const std::array<uint64_t, kChaChaLanes>& counters,
                   const std::array<uint64_t, kChaChaLanes>& nonces,
                   std::array<uint8_t, kChaChaLaneBytes>* out);

}  // namespace ssdb::prg

#endif  // SSDB_PRG_CHACHA_H_

/// Position-addressable pseudorandom generator for client shares (paper
/// §5.2): "ClientFilter first regenerates the client polynomial by using the
/// pseudorandom generator with the secret seed and the pre location".
///
/// Each node position `pre` selects an independent ChaCha20 keystream
/// (nonce = pre), so any node's client share can be regenerated in
/// isolation, in any order — exactly the property the thin-client pipeline
/// needs. Six domain-separated nonce spaces share the key (DESIGN.md §3,
/// §5, §8, §9, §12):
///   bits 0..31   node position `pre` (the nonce of a node as first encoded)
///   bits 32..39  mutation-nonce extension (DESIGN.md §12): a node re-shared
///                by INSERT/UPDATE/DELETE draws a fresh 40-bit nonce from a
///                persistent per-document watermark in
///                [kFirstMutationNonce, kMutationNonceLimit), so mutated
///                masks never collide with any pre-addressed stream
///   bits 40..55  server slice index (multi-server encode; 0 = client share)
///   bit  59      point-grid stream flag (DESIGN.md §3): the client's
///                request counter in bits 0..55 picks the evaluation
///                points of one strict-equality grid
///   bit  60      verification α-key stream flag (with bit 61, DESIGN.md §9)
///   bit  61      aggregate verification-track mask stream flag (DESIGN.md §9)
///   bit  62      aggregate-column mask stream flag (DESIGN.md §8)
///   bit  63      sealed-payload keystream flag (§4 extension)

#ifndef SSDB_PRG_PRG_H_
#define SSDB_PRG_PRG_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gf/field.h"
#include "gf/ring.h"
#include "prg/chacha.h"
#include "prg/seed.h"

namespace ssdb::prg {

// Mutation nonces (DESIGN.md §12) live strictly above the 32-bit pre space
// and strictly below the slice-index bits: a per-document watermark hands
// them out in [kFirstMutationNonce, kMutationNonceLimit).
inline constexpr uint64_t kFirstMutationNonce = uint64_t{1} << 32;
inline constexpr uint64_t kMutationNonceLimit = uint64_t{1} << 40;
// Grid request counters (DESIGN.md §3) live below the flag bit 59 in bits
// 0..55.
inline constexpr uint64_t kGridRequestLimit = uint64_t{1} << 56;

class Prg {
 public:
  explicit Prg(const Seed& seed);

  // An independent deterministic byte/element stream for one node.
  //
  // Reads come out of a buffer of up to four consecutive ChaCha20 blocks:
  // a sequential refill computes the next four blocks in one lane call
  // (ChaCha20Lanes), so samplers and word reads are loads from memory. The
  // bytes are exactly the keystream of (key, nonce) from block 0 on —
  // buffering changes when blocks are computed, never which bytes come out.
  class Stream {
   public:
    Stream(const std::array<uint8_t, kChaChaKeyBytes>& key, uint64_t nonce);

    uint8_t NextByte();
    // Little-endian words of the next 4 / 8 keystream bytes.
    uint32_t NextUint32();
    uint64_t NextUint64();

    // Advances the stream by `bytes` positions without materializing them.
    // ChaCha20 is a counter-mode cipher, so skipping whole blocks is a
    // counter jump — random access into a node's mask stream is O(1). A
    // jump within the buffer moves the read offset; a jump past it that
    // lands mid-block computes that one block (ChaCha20Block), and one that
    // lands on a block boundary computes nothing until the next read.
    void Skip(size_t bytes);

    // XORs the next `length` keystream bytes into `data`.
    void XorBytes(char* data, size_t length);

    // Uniform field element via rejection sampling (no modulo bias).
    gf::Elem NextElem(const gf::Field& field);

    // n = ring.n() uniform coefficients — a client share.
    gf::RingElem NextRingElem(const gf::Ring& ring);

   private:
    // Buffers the next four blocks (one lane call).
    void Refill();
    template <typename Word>
    Word NextWord();
    // Fills out[0..count) by rejection sampling: bit_width-sized draws
    // (one byte for widths <= 8, two little-endian bytes for 9-16), each
    // accepted iff below q — the draw order the stored shares depend on.
    void Sample(const gf::Field& field, gf::Elem* out, size_t count);
    template <size_t kDrawBytes>
    void SampleDraws(uint32_t q, uint32_t mask, gf::Elem* out, size_t count);

    std::array<uint8_t, kChaChaKeyBytes> key_;
    uint64_t nonce_;
    uint64_t counter_ = 0;  // block counter of the first unbuffered block
    std::array<uint8_t, kChaChaLaneBytes> buffer_;
    size_t offset_ = 0;  // next byte to read from buffer_
    size_t end_ = 0;     // buffered bytes (a multiple of the block size)
  };

  Stream StreamForNode(uint64_t pre) const;

  // Convenience: the client share for the node at position `pre`.
  gf::RingElem ClientShare(const gf::Ring& ring, uint64_t pre) const;

  // Pseudorandom server share slice `index` (1 <= index < m) for the node at
  // position `pre` — the m-server split's extra slices (DESIGN.md §5).
  // Domain-separated from the client share by nonce bits 40..55, so slice
  // randomness never overlaps share or payload randomness. Only the encoder
  // uses these; querying needs no knowledge of m.
  Stream StreamForServerSlice(uint64_t pre, uint32_t index) const;
  gf::RingElem ServerSliceShare(const gf::Ring& ring, uint64_t pre,
                                uint32_t index) const;

  // Stream of mask words for the node's aggregate columns (DESIGN.md §8):
  // slice 0 is the client's mask stream, slice i >= 1 the pseudorandom part
  // of server slice i. Domain-separated from share randomness by nonce
  // bit 62, so aggregate masks never overlap share or payload bytes.
  Stream StreamForAggColumns(uint64_t pre, uint32_t slice) const;

  // Mask stream for the node's aggregate *verification track* (DESIGN.md
  // §9): 16 bytes per aggregate word position w — the wide-share mask C_w
  // (uint64 at byte 16·w) then the proof-share mask C_p (uint64 at byte
  // 16·w + 8). Only the client ever regenerates it (the track is masked by
  // client randomness alone, independent of the server count m), so nonce
  // bit 61 domain-separates it from every other stream.
  Stream StreamForVerifyColumns(uint64_t pre) const;

  // The evaluation points of the client's strict-equality grid number
  // `request` (DESIGN.md §3): a stream no server can predict without the
  // seed, whatever the query. `request` must be below kGridRequestLimit.
  Stream StreamForGridPoints(uint64_t request) const;

  // The client-held verification key α_τ for mapped value index τ
  // (DESIGN.md §9): a uniform uint64 drawn from the bits 60+61 nonce
  // subspace, position-addressed so any single key is an O(1) counter jump.
  uint64_t AggVerifyKey(uint32_t value_index) const;

  // The mask streams a frontier sum can read: StreamForAggColumns(·, slice)
  // or StreamForVerifyColumns(·).
  enum class MaskStream { kAggColumns, kVerifyColumns };

  // Frontier-wide mask sums (DESIGN.md §8, §9): sums[j] is the sum, over
  // every nonce in `nonces`, of the little-endian `word_bytes`-byte word
  // (4 or 8) at byte offsets[j] of that nonce's `stream` — exactly what a
  // Skip/NextUint32|64 walk of each node's stream would add up, mod 2^64
  // (a 4-byte caller keeps the low 32 bits). Offsets must be multiples of
  // `word_bytes`; repeats are allowed, and ascending offsets share a block.
  // Each lane call computes the same block for four nonces, so a frontier
  // costs about a quarter of its per-node walks. `slice` must be 0 for the
  // verify stream.
  std::vector<uint64_t> FrontierMaskSums(MaskStream stream, uint32_t slice,
                                         const std::vector<uint64_t>& nonces,
                                         const std::vector<size_t>& offsets,
                                         size_t word_bytes) const;

  // Keystream for the node's sealed payload (§4 extension). Domain-separated
  // from the share stream by the nonce's high bit, so payload bytes never
  // overlap share randomness.
  std::string PayloadKeystream(uint64_t pre, size_t length) const;

  // XOR seal/unseal with the payload keystream (involution).
  std::string SealPayload(uint64_t pre, std::string_view plaintext) const;
  std::string UnsealPayload(uint64_t pre, std::string_view sealed) const {
    return SealPayload(pre, sealed);
  }

 private:
  std::array<uint8_t, kChaChaKeyBytes> key_;
};

}  // namespace ssdb::prg

#endif  // SSDB_PRG_PRG_H_

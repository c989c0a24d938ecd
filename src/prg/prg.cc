#include "prg/prg.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"

namespace ssdb::prg {
namespace {

// Nonce domains of the aggregate and verification mask streams (see the
// table in prg.h).
uint64_t AggColumnsNonce(uint64_t pre, uint32_t slice) {
  SSDB_DCHECK(slice < (1u << 16));
  return pre | (static_cast<uint64_t>(slice) << 40) | (1ULL << 62);
}

uint64_t VerifyColumnsNonce(uint64_t pre) { return pre | (1ULL << 61); }

}  // namespace

Prg::Prg(const Seed& seed) {
  const auto& bytes = seed.bytes();
  for (size_t i = 0; i < kChaChaKeyBytes; ++i) {
    key_[i] = bytes[i];
  }
}

Prg::Stream::Stream(const std::array<uint8_t, kChaChaKeyBytes>& key,
                    uint64_t nonce)
    : key_(key), nonce_(nonce) {}

void Prg::Stream::Refill() {
  ChaCha20Lanes(key_, {counter_, counter_ + 1, counter_ + 2, counter_ + 3},
                {nonce_, nonce_, nonce_, nonce_}, &buffer_);
  counter_ += kChaChaLanes;
  offset_ = 0;
  end_ = kChaChaLaneBytes;
}

uint8_t Prg::Stream::NextByte() {
  if (offset_ == end_) Refill();
  return buffer_[offset_++];
}

void Prg::Stream::Skip(size_t bytes) {
  // Buffered bytes are consumed first; whole blocks beyond them are
  // skipped by advancing the counter without running ChaCha at all.
  const size_t buffered = end_ - offset_;
  if (bytes <= buffered) {
    offset_ += bytes;
    return;
  }
  bytes -= buffered;
  counter_ += bytes / kChaChaBlockBytes;
  offset_ = end_ = 0;
  const size_t remainder = bytes % kChaChaBlockBytes;
  if (remainder != 0) {
    std::array<uint8_t, kChaChaBlockBytes> block;
    ChaCha20Block(key_, counter_++, nonce_, &block);
    std::memcpy(buffer_.data(), block.data(), block.size());
    offset_ = remainder;
    end_ = kChaChaBlockBytes;
  }
}

void Prg::Stream::XorBytes(char* data, size_t length) {
  while (length > 0) {
    if (offset_ == end_) Refill();
    const size_t take = std::min(length, end_ - offset_);
    for (size_t i = 0; i < take; ++i) {
      data[i] = static_cast<char>(data[i] ^ buffer_[offset_ + i]);
    }
    offset_ += take;
    data += take;
    length -= take;
  }
}

template <typename Word>
Word Prg::Stream::NextWord() {
  uint8_t bytes[sizeof(Word)];
  if (end_ - offset_ >= sizeof(Word)) {
    std::memcpy(bytes, buffer_.data() + offset_, sizeof(Word));
    offset_ += sizeof(Word);
  } else {
    // The word straddles the end of the buffer.
    for (uint8_t& b : bytes) b = NextByte();
  }
  Word v = 0;
  for (size_t i = 0; i < sizeof(Word); ++i) {
    v |= static_cast<Word>(bytes[i]) << (8 * i);
  }
  return v;
}

uint32_t Prg::Stream::NextUint32() { return NextWord<uint32_t>(); }

uint64_t Prg::Stream::NextUint64() { return NextWord<uint64_t>(); }

template <size_t kDrawBytes>
void Prg::Stream::SampleDraws(uint32_t q, uint32_t mask, gf::Elem* out,
                              size_t count) {
  size_t k = 0;
  while (k < count) {
    if (end_ - offset_ < kDrawBytes) {
      if (offset_ == end_) {
        Refill();
        continue;
      }
      // A two-byte draw straddling the end of the buffer.
      uint32_t draw = NextByte();
      draw |= static_cast<uint32_t>(NextByte()) << 8;
      draw &= mask;
      out[k] = draw;
      k += draw < q;
      continue;
    }
    // Branch-free accept: every draw is written at out[k] and k advances
    // only when it is below q, so a rejected draw is overwritten next.
    const uint8_t* p = buffer_.data() + offset_;
    const size_t draws = (end_ - offset_) / kDrawBytes;
    size_t d = 0;
    for (; d < draws && k < count; ++d) {
      uint32_t draw = p[kDrawBytes * d];
      if (kDrawBytes == 2) {
        draw |= static_cast<uint32_t>(p[kDrawBytes * d + 1]) << 8;
      }
      draw &= mask;
      out[k] = draw;
      k += draw < q;
    }
    offset_ += kDrawBytes * d;
  }
}

void Prg::Stream::Sample(const gf::Field& field, gf::Elem* out,
                         size_t count) {
  // Rejection sampling on bit_width-sized draws: acceptance >= 1/2. Whole
  // bytes are drawn and masked to `bits`; our q <= 2^16 bound keeps every
  // draw within two bytes.
  const int bits = field.bit_width();
  const uint32_t mask = (bits >= 32) ? ~0u : ((1u << bits) - 1);
  if (bits <= 8) {
    SampleDraws<1>(field.q(), mask, out, count);
  } else {
    SampleDraws<2>(field.q(), mask, out, count);
  }
}

gf::Elem Prg::Stream::NextElem(const gf::Field& field) {
  gf::Elem e;
  Sample(field, &e, 1);
  return e;
}

gf::RingElem Prg::Stream::NextRingElem(const gf::Ring& ring) {
  gf::RingElem out(ring.n());
  Sample(ring.field(), out.data(), out.size());
  return out;
}

Prg::Stream Prg::StreamForNode(uint64_t pre) const {
  return Stream(key_, pre);
}

Prg::Stream Prg::StreamForServerSlice(uint64_t pre, uint32_t index) const {
  SSDB_DCHECK(index != 0 && index < (1u << 16));
  return Stream(key_, pre | (static_cast<uint64_t>(index) << 40));
}

gf::RingElem Prg::ServerSliceShare(const gf::Ring& ring, uint64_t pre,
                                   uint32_t index) const {
  return StreamForServerSlice(pre, index).NextRingElem(ring);
}

gf::RingElem Prg::ClientShare(const gf::Ring& ring, uint64_t pre) const {
  return StreamForNode(pre).NextRingElem(ring);
}

Prg::Stream Prg::StreamForAggColumns(uint64_t pre, uint32_t slice) const {
  return Stream(key_, AggColumnsNonce(pre, slice));
}

Prg::Stream Prg::StreamForVerifyColumns(uint64_t pre) const {
  return Stream(key_, VerifyColumnsNonce(pre));
}

Prg::Stream Prg::StreamForGridPoints(uint64_t request) const {
  SSDB_DCHECK(request < kGridRequestLimit);
  return Stream(key_, request | (1ULL << 59));
}

uint64_t Prg::AggVerifyKey(uint32_t value_index) const {
  Stream stream(key_, (1ULL << 61) | (1ULL << 60));
  stream.Skip(static_cast<size_t>(value_index) * sizeof(uint64_t));
  return stream.NextUint64();
}

std::vector<uint64_t> Prg::FrontierMaskSums(
    MaskStream stream, uint32_t slice, const std::vector<uint64_t>& nonces,
    const std::vector<size_t>& offsets, size_t word_bytes) const {
  SSDB_DCHECK(word_bytes == 4 || word_bytes == 8);
  SSDB_DCHECK(stream == MaskStream::kAggColumns || slice == 0);
  std::vector<uint64_t> sums(offsets.size(), 0);
  std::array<uint64_t, kChaChaLanes> lane_nonces;
  std::array<uint64_t, kChaChaLanes> counters;
  std::array<uint8_t, kChaChaLaneBytes> blocks;
  for (size_t first = 0; first < nonces.size(); first += kChaChaLanes) {
    // A short tail repeats its last nonce in the spare lanes, which are
    // computed but not summed.
    const size_t lanes = std::min(kChaChaLanes, nonces.size() - first);
    for (size_t l = 0; l < kChaChaLanes; ++l) {
      const uint64_t nonce = nonces[first + std::min(l, lanes - 1)];
      lane_nonces[l] = stream == MaskStream::kAggColumns
                           ? AggColumnsNonce(nonce, slice)
                           : VerifyColumnsNonce(nonce);
    }
    uint64_t block = UINT64_MAX;  // the block `blocks` holds
    for (size_t j = 0; j < offsets.size(); ++j) {
      SSDB_DCHECK(offsets[j] % word_bytes == 0);
      const uint64_t counter = offsets[j] / kChaChaBlockBytes;
      if (counter != block) {
        counters.fill(counter);
        ChaCha20Lanes(key_, counters, lane_nonces, &blocks);
        block = counter;
      }
      const uint8_t* word = blocks.data() + offsets[j] % kChaChaBlockBytes;
      for (size_t l = 0; l < lanes; ++l) {
        uint64_t v = 0;
        for (size_t i = 0; i < word_bytes; ++i) {
          v |= static_cast<uint64_t>(word[i]) << (8 * i);
        }
        sums[j] += v;
        word += kChaChaBlockBytes;
      }
    }
  }
  return sums;
}

std::string Prg::PayloadKeystream(uint64_t pre, size_t length) const {
  return SealPayload(pre, std::string(length, '\0'));
}

std::string Prg::SealPayload(uint64_t pre, std::string_view plaintext) const {
  std::string out(plaintext);
  Stream(key_, pre | (1ULL << 63)).XorBytes(out.data(), out.size());
  return out;
}

}  // namespace ssdb::prg

// Bit-level packing of small unsigned integers into a byte buffer.
//
// Polynomials over GF(q) are stored as q-1 coefficients of ceil(log2 q) bits
// each — the paper's "(p^e - 1) * log2(p^e) bits" storage cost. BitWriter /
// BitReader implement the little-endian bit stream used for that encoding.

#ifndef SSDB_UTIL_BITPACK_H_
#define SSDB_UTIL_BITPACK_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace ssdb {

// Number of bits needed to represent values in [0, n-1]; BitWidth(1) == 1.
int BitWidth(uint64_t n);

class BitWriter {
 public:
  BitWriter() = default;

  // Appends the low `bits` bits of `value` (1 <= bits <= 57).
  void Write(uint64_t value, int bits);

  // Flushes pending bits and returns the packed buffer.
  std::string Finish();

  // Total bits written so far.
  size_t bit_count() const { return bit_count_; }

 private:
  std::string bytes_;
  uint64_t pending_ = 0;  // bits not yet flushed, little-endian
  int pending_bits_ = 0;
  size_t bit_count_ = 0;
};

class BitReader {
 public:
  explicit BitReader(std::string_view data) : data_(data) {}

  // Reads `bits` bits (1 <= bits <= 57) into *value. Fails with OutOfRange
  // when the buffer is exhausted.
  Status Read(int bits, uint64_t* value);

  // Bits remaining in the buffer.
  size_t remaining_bits() const { return data_.size() * 8 - bit_pos_; }

 private:
  std::string_view data_;
  size_t bit_pos_ = 0;
};

// Unchecked word-buffered reader over the same little-endian bit stream,
// for the hot paths (share unpacking and in-place share evaluation). The
// caller checks up front that `data` holds every bit it will ask for.
class BitCursor {
 public:
  explicit BitCursor(std::string_view data)
      : next_(reinterpret_cast<const uint8_t*>(data.data())),
        end_(next_ + data.size()) {}

  // The next `bits` (1 <= bits <= 32) bits.
  uint32_t Next(int bits) {
    while (acc_bits_ < bits) {
      if (end_ - next_ >= 4) {
        uint64_t word = next_[0] | uint32_t{next_[1]} << 8 |
                        uint32_t{next_[2]} << 16 | uint32_t{next_[3]} << 24;
        acc_ |= word << acc_bits_;
        acc_bits_ += 32;
        next_ += 4;
      } else {
        acc_ |= uint64_t{*next_++} << acc_bits_;
        acc_bits_ += 8;
      }
    }
    uint32_t value = static_cast<uint32_t>(acc_ & ((uint64_t{1} << bits) - 1));
    acc_ >>= bits;
    acc_bits_ -= bits;
    return value;
  }

 private:
  const uint8_t* next_;
  const uint8_t* end_;
  uint64_t acc_ = 0;  // buffered bits, little-endian
  int acc_bits_ = 0;
};

// Packs `values`, each `bits` wide (1 <= bits <= 32), into BitWriter's
// stream. Inverse of UnpackVector.
std::string PackVector(const std::vector<uint32_t>& values, int bits);

// Unpacks `count` values of `bits` bits each from `data`; OutOfRange when
// `data` is too short.
StatusOr<std::vector<uint32_t>> UnpackVector(std::string_view data, int bits,
                                             size_t count);

}  // namespace ssdb

#endif  // SSDB_UTIL_BITPACK_H_

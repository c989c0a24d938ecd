#include "util/bitpack.h"

#include "util/logging.h"

namespace ssdb {

int BitWidth(uint64_t n) {
  if (n <= 2) return 1;
  int bits = 0;
  uint64_t max = n - 1;
  while (max > 0) {
    ++bits;
    max >>= 1;
  }
  return bits;
}

void BitWriter::Write(uint64_t value, int bits) {
  SSDB_DCHECK(bits >= 1 && bits <= 57) << "unsupported bit width " << bits;
  if (bits < 64) {
    value &= (uint64_t{1} << bits) - 1;
  }
  pending_ |= value << pending_bits_;
  pending_bits_ += bits;
  bit_count_ += bits;
  while (pending_bits_ >= 8) {
    bytes_.push_back(static_cast<char>(pending_ & 0xff));
    pending_ >>= 8;
    pending_bits_ -= 8;
  }
}

std::string BitWriter::Finish() {
  if (pending_bits_ > 0) {
    bytes_.push_back(static_cast<char>(pending_ & 0xff));
    pending_ = 0;
    pending_bits_ = 0;
  }
  return std::move(bytes_);
}

Status BitReader::Read(int bits, uint64_t* value) {
  SSDB_DCHECK(bits >= 1 && bits <= 57) << "unsupported bit width " << bits;
  if (bit_pos_ + static_cast<size_t>(bits) > data_.size() * 8) {
    return Status::OutOfRange("BitReader: buffer exhausted");
  }
  uint64_t result = 0;
  int filled = 0;
  size_t byte = bit_pos_ / 8;
  int offset = static_cast<int>(bit_pos_ % 8);
  while (filled < bits) {
    uint64_t cur = static_cast<uint8_t>(data_[byte]) >> offset;
    int avail = 8 - offset;
    result |= cur << filled;
    filled += avail;
    ++byte;
    offset = 0;
  }
  if (bits < 64) {
    result &= (uint64_t{1} << bits) - 1;
  }
  *value = result;
  bit_pos_ += bits;
  return Status::OK();
}

// PackVector/UnpackVector produce exactly BitWriter/BitReader's stream, but
// move whole 32-bit words through a 64-bit accumulator instead of one value
// (or one byte) at a time — they sit under every share serialization.
std::string PackVector(const std::vector<uint32_t>& values, int bits) {
  SSDB_DCHECK(bits >= 1 && bits <= 32) << "unsupported bit width " << bits;
  std::string out((values.size() * bits + 7) / 8, '\0');
  char* dst = out.data();
  const uint64_t mask = (uint64_t{1} << bits) - 1;
  uint64_t acc = 0;  // pending bits, little-endian; fewer than 32 between
  int acc_bits = 0;  // iterations, so one value always fits
  for (uint32_t v : values) {
    acc |= (v & mask) << acc_bits;
    acc_bits += bits;
    if (acc_bits >= 32) {
      for (int i = 0; i < 4; ++i) *dst++ = static_cast<char>(acc >> (8 * i));
      acc >>= 32;
      acc_bits -= 32;
    }
  }
  for (; acc_bits > 0; acc_bits -= 8, acc >>= 8) {
    *dst++ = static_cast<char>(acc);
  }
  return out;
}

StatusOr<std::vector<uint32_t>> UnpackVector(std::string_view data, int bits,
                                             size_t count) {
  SSDB_DCHECK(bits >= 1 && bits <= 32) << "unsupported bit width " << bits;
  if (data.size() * 8 < count * bits) {
    return Status::OutOfRange("BitReader: buffer exhausted");
  }
  std::vector<uint32_t> values(count);
  BitCursor cursor(data);
  for (size_t i = 0; i < count; ++i) values[i] = cursor.Next(bits);
  return values;
}

}  // namespace ssdb

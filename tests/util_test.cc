#include <gtest/gtest.h>

#include "util/bitpack.h"
#include "util/file_util.h"
#include "util/hex.h"
#include "util/random.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/string_util.h"
#include "util/varint.h"

namespace ssdb {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return Status::IOError("disk"); };
  auto wrapper = [&]() -> Status {
    SSDB_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsIOError());
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(7), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::InvalidArgument("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.value_or(7), 7);
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  auto produce = []() -> StatusOr<int> { return 10; };
  auto chain = [&]() -> StatusOr<int> {
    SSDB_ASSIGN_OR_RETURN(int x, produce());
    return x * 2;
  };
  EXPECT_EQ(*chain(), 20);
}

TEST(BitWidthTest, KnownValues) {
  EXPECT_EQ(BitWidth(2), 1);
  EXPECT_EQ(BitWidth(3), 2);
  EXPECT_EQ(BitWidth(5), 3);
  EXPECT_EQ(BitWidth(29), 5);
  EXPECT_EQ(BitWidth(83), 7);
  EXPECT_EQ(BitWidth(256), 8);
  EXPECT_EQ(BitWidth(257), 9);
}

TEST(BitpackTest, RoundTripVariousWidths) {
  for (int bits = 1; bits <= 16; ++bits) {
    Random rng(bits);
    std::vector<uint32_t> values;
    uint32_t mask = (bits >= 32) ? ~0u : ((1u << bits) - 1);
    for (int i = 0; i < 100; ++i) {
      values.push_back(static_cast<uint32_t>(rng.Next()) & mask);
    }
    std::string packed = PackVector(values, bits);
    EXPECT_EQ(packed.size(), (100 * bits + 7) / 8) << "bits=" << bits;
    auto unpacked = UnpackVector(packed, bits, values.size());
    ASSERT_TRUE(unpacked.ok());
    EXPECT_EQ(*unpacked, values) << "bits=" << bits;
  }
}

// The bit-at-a-time packer and unpacker PackVector/UnpackVector replaced,
// kept as the reference their word-buffered versions must match byte for
// byte.
std::string ReferencePack(const std::vector<uint32_t>& values, int bits) {
  BitWriter writer;
  for (uint32_t v : values) writer.Write(v, bits);
  return writer.Finish();
}

StatusOr<std::vector<uint32_t>> ReferenceUnpack(std::string_view data,
                                                int bits, size_t count) {
  BitReader reader(data);
  std::vector<uint32_t> values;
  for (size_t i = 0; i < count; ++i) {
    uint64_t v = 0;
    SSDB_RETURN_IF_ERROR(reader.Read(bits, &v));
    values.push_back(static_cast<uint32_t>(v));
  }
  return values;
}

TEST(BitpackTest, WordBufferedMatchesBitAtATimeReference) {
  Random rng(97);
  for (int bits = 1; bits <= 32; ++bits) {
    for (size_t count : {0u, 1u, 3u, 7u, 28u, 33u, 82u, 255u}) {
      std::vector<uint32_t> values;
      for (size_t i = 0; i < count; ++i) {
        // Full 32-bit values: the packer must mask off the high bits just
        // like the reference writer does.
        values.push_back(static_cast<uint32_t>(rng.Next()));
      }
      std::string packed = PackVector(values, bits);
      ASSERT_EQ(packed, ReferencePack(values, bits))
          << "bits=" << bits << " count=" << count;
      auto unpacked = UnpackVector(packed, bits, count);
      auto reference = ReferenceUnpack(packed, bits, count);
      ASSERT_TRUE(unpacked.ok());
      ASSERT_TRUE(reference.ok());
      EXPECT_EQ(*unpacked, *reference) << "bits=" << bits;
      if (count > 0) {
        // One byte short of the last value: both report OutOfRange.
        std::string_view shorter(packed.data(), (count * bits - 1) / 8);
        EXPECT_EQ(UnpackVector(shorter, bits, count).status().code(),
                  StatusCode::kOutOfRange);
        EXPECT_EQ(ReferenceUnpack(shorter, bits, count).status().code(),
                  StatusCode::kOutOfRange);
      }
    }
  }
}

TEST(BitpackTest, ReaderOutOfRange) {
  BitReader reader("a");  // 8 bits
  uint64_t v;
  EXPECT_TRUE(reader.Read(8, &v).ok());
  EXPECT_FALSE(reader.Read(1, &v).ok());
}

TEST(BitpackTest, PaperStorageCost) {
  // (p^e - 1) * ceil(log2(p^e)) bits: p=29 -> 28*5 = 140 bits = 18 bytes
  // (the paper rounds to "17 bytes" with exact log2; we bit-pack per
  // coefficient). p=83 -> 82*7 = 574 bits = 72 bytes.
  EXPECT_EQ(PackVector(std::vector<uint32_t>(28, 1), 5).size(), 18u);
  EXPECT_EQ(PackVector(std::vector<uint32_t>(82, 1), 7).size(), 72u);
}

TEST(VarintTest, RoundTrip) {
  std::string buf;
  PutVarint64(&buf, 0);
  PutVarint64(&buf, 127);
  PutVarint64(&buf, 128);
  PutVarint64(&buf, 1ull << 40);
  PutVarintSigned64(&buf, -5);
  PutVarintSigned64(&buf, 5);
  PutFixed32(&buf, 0xdeadbeef);
  PutFixed64(&buf, 0x0123456789abcdefULL);
  PutLengthPrefixed(&buf, "hello");

  std::string_view view = buf;
  uint64_t u;
  int64_t s;
  uint32_t f32;
  uint64_t f64;
  std::string_view str;
  ASSERT_TRUE(GetVarint64(&view, &u).ok());
  EXPECT_EQ(u, 0u);
  ASSERT_TRUE(GetVarint64(&view, &u).ok());
  EXPECT_EQ(u, 127u);
  ASSERT_TRUE(GetVarint64(&view, &u).ok());
  EXPECT_EQ(u, 128u);
  ASSERT_TRUE(GetVarint64(&view, &u).ok());
  EXPECT_EQ(u, 1ull << 40);
  ASSERT_TRUE(GetVarintSigned64(&view, &s).ok());
  EXPECT_EQ(s, -5);
  ASSERT_TRUE(GetVarintSigned64(&view, &s).ok());
  EXPECT_EQ(s, 5);
  ASSERT_TRUE(GetFixed32(&view, &f32).ok());
  EXPECT_EQ(f32, 0xdeadbeef);
  ASSERT_TRUE(GetFixed64(&view, &f64).ok());
  EXPECT_EQ(f64, 0x0123456789abcdefULL);
  ASSERT_TRUE(GetLengthPrefixed(&view, &str).ok());
  EXPECT_EQ(str, "hello");
  EXPECT_TRUE(view.empty());
}

TEST(VarintTest, TruncatedInputFails) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  std::string_view view(buf.data(), 2);
  uint64_t v;
  EXPECT_FALSE(GetVarint64(&view, &v).ok());
}

TEST(HexTest, RoundTrip) {
  std::string bytes("\x00\x01\xfe\xff", 4);
  EXPECT_EQ(HexEncode(bytes), "0001feff");
  auto decoded = HexDecode("0001feff");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, bytes);
}

TEST(HexTest, RejectsBadInput) {
  EXPECT_FALSE(HexDecode("abc").ok());   // odd length
  EXPECT_FALSE(HexDecode("zz").ok());    // non-hex
}

TEST(RandomTest, DeterministicAcrossInstances) {
  Random a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RandomTest, UniformStaysInRange) {
  Random rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, ZipfFavorsSmallIndices) {
  Random rng(3);
  uint64_t low = 0, total = 10000;
  for (uint64_t i = 0; i < total; ++i) {
    if (rng.Zipf(100) < 10) ++low;
  }
  // The first 10% of ranks should get far more than 10% of the mass.
  EXPECT_GT(low, total / 5);
}

TEST(StringUtilTest, SplitAndJoin) {
  EXPECT_EQ(SplitString("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(SplitWhitespace("  a\tb \n c "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(JoinStrings({"x", "y"}, "/"), "x/y");
  EXPECT_EQ(TrimWhitespace("  hi  "), "hi");
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_EQ(AsciiToLower("AbC"), "abc");
}

TEST(FileUtilTest, WriteReadRoundTrip) {
  TempDir dir("util_test");
  std::string path = dir.FilePath("f.txt");
  ASSERT_TRUE(WriteStringToFile(path, "contents\n").ok());
  EXPECT_TRUE(FileExists(path));
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "contents\n");
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 9u);
  ASSERT_TRUE(RemoveFileIfExists(path).ok());
  EXPECT_FALSE(FileExists(path));
}

TEST(FileUtilTest, ReadMissingFileFails) {
  EXPECT_FALSE(ReadFileToString("/nonexistent/nope").ok());
}

}  // namespace
}  // namespace ssdb

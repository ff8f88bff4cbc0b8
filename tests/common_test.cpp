// Unit tests for the common substrate: strong types, Result, Rng, serial.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "amoeba/common/error.hpp"
#include "amoeba/common/rng.hpp"
#include "amoeba/common/serial.hpp"
#include "amoeba/common/types.hpp"

namespace amoeba {
namespace {

TEST(Types, PortTruncatesTo48Bits) {
  const Port p(0xFFFF'FFFF'FFFF'FFFFULL);
  EXPECT_EQ(p.value(), (1ULL << 48) - 1);
  EXPECT_EQ(Port(0).value(), 0u);
  EXPECT_TRUE(Port(0).is_null());
  EXPECT_FALSE(Port(1).is_null());
}

TEST(Types, ObjectNumberTruncatesTo24Bits) {
  EXPECT_EQ(ObjectNumber(0xFFFF'FFFFu).value(), (1u << 24) - 1);
}

TEST(Types, RightsBitOperations) {
  Rights r = Rights::none();
  EXPECT_FALSE(r.has(3));
  r = r.with(3);
  EXPECT_TRUE(r.has(3));
  EXPECT_TRUE(r.subset_of(Rights::all()));
  EXPECT_FALSE(Rights::all().subset_of(r));
  EXPECT_EQ(r.without(3), Rights::none());
  EXPECT_EQ(Rights::all().intersect(Rights(0x0F)).bits(), 0x0F);
  EXPECT_TRUE(Rights(0x0F).has_all(Rights(0x05)));
  EXPECT_FALSE(Rights(0x0F).has_all(Rights(0x10)));
}

TEST(Types, RightsSubsetIsReflexiveAndAntisymmetric) {
  for (unsigned a = 0; a < 256; a += 17) {
    EXPECT_TRUE(Rights(static_cast<std::uint8_t>(a))
                    .subset_of(Rights(static_cast<std::uint8_t>(a))));
  }
  EXPECT_TRUE(Rights(0x01).subset_of(Rights(0x03)));
  EXPECT_FALSE(Rights(0x03).subset_of(Rights(0x01)));
}

TEST(ResultTest, HoldsValueOrError) {
  const Result<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  EXPECT_EQ(good.error(), ErrorCode::ok);

  const Result<int> bad(ErrorCode::no_such_object);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), ErrorCode::no_such_object);
  EXPECT_THROW((void)bad.value(), UsageError);
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(ResultTest, VoidSpecialization) {
  const Result<void> good;
  EXPECT_TRUE(good.ok());
  const Result<void> bad(ErrorCode::timeout);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), ErrorCode::timeout);
}

TEST(ResultTest, OkErrorCodeRejectedAsError) {
  EXPECT_THROW(Result<int>(ErrorCode::ok), UsageError);
}

TEST(ResultTest, RvalueValueSurvivesRangeFor) {
  // Regression: value()&& must return by value, not T&&; otherwise a
  // range-for over a temporary Result dangles in C++20.
  auto make = [] {
    return Result<std::vector<int>>(std::vector<int>{1, 2, 3});
  };
  int sum = 0;
  for (const int v : make().value()) {
    sum += v;
  }
  EXPECT_EQ(sum, 6);
}

TEST(ErrorTest, AllCodesHaveNames) {
  for (int i = 0; i <= static_cast<int>(ErrorCode::internal); ++i) {
    EXPECT_STRNE(error_name(static_cast<ErrorCode>(i)), "unknown_error");
  }
}

TEST(RngTest, DeterministicUnderSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.next() == b.next());
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 1000ULL, 1ULL << 47}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
  EXPECT_THROW(rng.below(0), UsageError);
}

TEST(RngTest, BitsMasksCorrectly) {
  Rng rng(4);
  for (int b = 1; b <= 63; ++b) {
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(rng.bits(b) >> b, 0u) << "width " << b;
    }
  }
  EXPECT_THROW(rng.bits(0), UsageError);
  EXPECT_THROW(rng.bits(65), UsageError);
}

TEST(RngTest, Uniform01InRange) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, FillCoversAllBytes) {
  Rng rng(6);
  std::vector<std::uint8_t> buf(1000, 0);
  rng.fill(buf);
  std::set<std::uint8_t> seen(buf.begin(), buf.end());
  EXPECT_GT(seen.size(), 200u);  // all byte values roughly represented
}

TEST(Serial, RoundTripsEveryFieldType) {
  Writer w;
  w.u8(0xAB);
  w.u16(0xCDEF);
  w.u32(0xDEADBEEF);
  w.u48(0x123456789ABCULL);
  w.u64(0xFEDCBA9876543210ULL);
  w.port(Port(0x424242424242ULL));
  w.object(ObjectNumber(0x123456));
  w.rights(Rights(0x5A));
  w.check(CheckField(0xA5A5A5A5A5A5ULL));
  w.str("hello amoeba");
  const Buffer payload = {1, 2, 3, 4, 5};
  w.bytes(payload);

  Reader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xCDEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u48(), 0x123456789ABCULL);
  EXPECT_EQ(r.u64(), 0xFEDCBA9876543210ULL);
  EXPECT_EQ(r.port(), Port(0x424242424242ULL));
  EXPECT_EQ(r.object(), ObjectNumber(0x123456));
  EXPECT_EQ(r.rights(), Rights(0x5A));
  EXPECT_EQ(r.check(), CheckField(0xA5A5A5A5A5A5ULL));
  EXPECT_EQ(r.str(), "hello amoeba");
  EXPECT_EQ(r.bytes(), payload);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serial, UnderflowLatchesFailure) {
  Writer w;
  w.u16(7);
  Reader r(w.buffer());
  (void)r.u64();  // only 2 bytes available
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.exhausted());
  EXPECT_EQ(r.u8(), 0);  // stays failed, reads return zero
}

TEST(Serial, TruncatedStringFails) {
  Writer w;
  w.u32(100);  // claims 100 bytes follow; none do
  Reader r(w.buffer());
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Serial, VarintsRoundTripAndRejectOverlongOrTruncatedRuns) {
  Writer w;
  const std::uint64_t values[] = {0, 127, 128, 16'383, 16'384, 0xFFFFFFFFu,
                                  ~std::uint64_t{0}};
  for (const std::uint64_t v : values) {
    w.varint(v);
  }
  const Buffer payload{1, 2, 3};
  w.varbytes(payload);
  EXPECT_EQ(w.buffer().size(), 1u + 1 + 2 + 2 + 3 + 5 + 10 + 1 + 3);
  Reader r(w.buffer());
  for (const std::uint64_t v : values) {
    EXPECT_EQ(r.varint(), v);
  }
  EXPECT_EQ(r.varbytes(), payload);
  EXPECT_TRUE(r.exhausted());

  const Buffer overlong(11, 0x80);  // no u64 needs an 11th byte
  Reader bad(overlong);
  (void)bad.varint();
  EXPECT_FALSE(bad.ok());
  Writer truncated;
  truncated.varint(100);  // claims 100 bytes follow; none do
  Reader short_read(truncated.buffer());
  EXPECT_TRUE(short_read.varbytes().empty());
  EXPECT_FALSE(short_read.ok());
}

TEST(Serial, EmptyBufferIsExhausted) {
  Reader r(std::span<const std::uint8_t>{});
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(r.remaining(), 0u);
}

}  // namespace
}  // namespace amoeba

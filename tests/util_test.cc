#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "cluster/memory_space.h"
#include "util/json.h"
#include "util/random.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/table_printer.h"
#include "util/units.h"

namespace rdmajoin {
namespace {

// ---------- Status ----------

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorFactoriesCarryCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
  EXPECT_EQ(Status::ResourceExhausted("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::FailedPrecondition("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(Status, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::Internal("a"), Status::Internal("a"));
  EXPECT_FALSE(Status::Internal("a") == Status::Internal("b"));
}

Status FailsIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}
Status UsesReturnIfError(int x) {
  RDMAJOIN_RETURN_IF_ERROR(FailsIfNegative(x));
  return Status::OK();
}

TEST(Status, ReturnIfErrorMacro) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_EQ(UsesReturnIfError(-1).code(), StatusCode::kInvalidArgument);
}

// ---------- StatusOr ----------

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::OutOfRange("not positive");
  return x;
}

TEST(StatusOr, HoldsValueOrError) {
  auto good = ParsePositive(5);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 5);
  auto bad = ParsePositive(-5);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
}

TEST(StatusOr, MoveOnlyValues) {
  StatusOr<std::unique_ptr<int>> s(std::make_unique<int>(7));
  ASSERT_TRUE(s.ok());
  std::unique_ptr<int> v = std::move(s).value();
  EXPECT_EQ(*v, 7);
}

// ---------- Units ----------

TEST(Units, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(64 * 1024), "64 KiB");
  EXPECT_EQ(FormatBytes(3 * kMiB), "3 MiB");
  EXPECT_EQ(FormatBytes(2 * kGiB), "2 GiB");
}

TEST(Units, FormatSecondsAndRate) {
  EXPECT_EQ(FormatSeconds(5.7539), "5.754 s");
  EXPECT_EQ(FormatRateMBps(3.4e9), "3400.0 MB/s");
}

// ---------- Random ----------

TEST(Random, DeterministicAndSeedSensitive) {
  Random a(1), b(1), c(2);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Random, UniformInRangeAndDoubleInUnit) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Random, ZeroSeedDoesNotDegenerate) {
  Random rng(0);
  EXPECT_NE(rng.Next(), 0u);
  EXPECT_NE(rng.Next(), rng.Next());
}

// ---------- TablePrinter ----------

TEST(TablePrinter, FormatsNumbersAndCountsRows) {
  TablePrinter t("test");
  t.SetHeader({"a", "b"});
  t.AddRow({TablePrinter::Int(42), TablePrinter::Num(3.14159, 2)});
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.rows()[0][0], "42");
  EXPECT_EQ(t.rows()[0][1], "3.14");
}

// ---------- MemorySpace ----------

TEST(MemorySpace, ReserveReleaseAccounting) {
  MemorySpace mem(1000);
  EXPECT_TRUE(mem.Reserve(600).ok());
  EXPECT_EQ(mem.used(), 600u);
  EXPECT_EQ(mem.available(), 400u);
  EXPECT_EQ(mem.Reserve(500).code(), StatusCode::kResourceExhausted);
  mem.Release(200);
  EXPECT_TRUE(mem.Reserve(500).ok());
  EXPECT_EQ(mem.peak_used(), 900u);
}

TEST(MemorySpace, PinRequiresReservationAndHonorsLimit) {
  MemorySpace mem(1000, /*pin_limit=*/300);
  EXPECT_EQ(mem.Pin(100).code(), StatusCode::kFailedPrecondition);  // not reserved
  ASSERT_TRUE(mem.Reserve(500).ok());
  EXPECT_TRUE(mem.Pin(300).ok());
  EXPECT_EQ(mem.Pin(1).code(), StatusCode::kResourceExhausted);  // pin limit
  mem.Unpin(300);
  EXPECT_EQ(mem.pinned(), 0u);
  EXPECT_EQ(mem.peak_pinned(), 300u);
}

// ---------- JSON number codec ----------

TEST(JsonNumber, IntegralFastPathMatchesTheGeneralRoutine) {
  size_t checked = 0;
  size_t mismatches = 0;
  auto check = [&](double v) {
    ++checked;
    const std::string got = JsonNumber(v);
    const std::string want = json_internal::GeneralJsonNumber(v);
    // The size bound writers reserve by is exact for a plain integer below
    // 2^53.
    const bool digits_only = v < 9007199254740992.0 &&
                             got.find_first_not_of("0123456789") == std::string::npos;
    const size_t bound = JsonNumberSizeBound(v);
    if ((got != want || bound < got.size() || (digits_only && bound != got.size())) &&
        ++mismatches <= 10) {
      ADD_FAILURE() << "JsonNumber " << got << ", general routine " << want
                    << ", size bound " << bound;
    }
  };
  for (uint64_t i = 0; i <= 1000000; ++i) check(static_cast<double>(i));
  double pow10 = 1;
  for (int k = 0; k <= 16; ++k, pow10 *= 10) {
    check(pow10);
    check(pow10 - 1);
    check(pow10 + 1);
  }
  for (int k = 0; k <= 53; ++k) check(std::ldexp(1.0, k));
  const double two53 = std::ldexp(1.0, 53);
  for (const double v : {two53 - 1, two53, two53 + 2, std::ldexp(1.0, 64)}) {
    check(v);
  }
  for (int64_t i = 1; i <= 100000; ++i) check(-static_cast<double>(i));
  check(-(two53 - 1));
  // Integral doubles of every magnitude: below 2^53 (the fast path's range)
  // and above it, where every double is an integer.
  std::mt19937_64 rng(20150531);
  for (int i = 0; i < 200000; ++i) {
    check(static_cast<double>(rng() >> 11));
    check(static_cast<double>(rng() >> (rng() % 64)));
    check(-static_cast<double>(rng() >> (rng() % 64)));
  }
  EXPECT_GE(checked, 1700000u);
  EXPECT_EQ(mismatches, 0u);
  for (const double v : {0.1, -1.0 / 3, -2.2250738585072014e-308, 1e300}) {
    EXPECT_GE(JsonNumberSizeBound(v), JsonNumber(v).size()) << v;
  }
  for (int i = 0; i < 100000; ++i) {
    const uint64_t v = rng() >> (rng() % 64);
    ASSERT_EQ(JsonUintSize(v), std::to_string(v).size()) << v;
  }
  // The fast path spells an integer as its digits, as %g does.
  EXPECT_EQ(JsonNumber(9007199254740991.0), "9007199254740991");
  EXPECT_EQ(JsonNumber(1200), "1.2e+03");
}

TEST(JsonTokenizer, OnePassIntegersMatchFromChars) {
  // A plain integer of at most 19 digits is lexed in one scan; its double
  // must be from_chars's correctly rounded one, and its uint_value exact.
  std::mt19937_64 rng(7919);
  std::vector<std::string> texts = {"0", "1", "9007199254740993",
                                    "9223372036854775807", "9223372036854775808",
                                    "9999999999999999999", "18446744073709551615",
                                    "18446744073709551616", "123456789012345678901"};
  for (int i = 0; i < 200000; ++i) {
    texts.push_back(std::to_string(rng() >> (rng() % 64)));
  }
  for (const std::string& text : texts) {
    auto parsed = ParseJson(text);
    ASSERT_TRUE(parsed.ok()) << text;
    double want = 0;
    std::from_chars(text.data(), text.data() + text.size(), want);
    ASSERT_EQ(parsed->number_value, want) << text;
    uint64_t uint_want = 0;
    const bool fits = std::from_chars(text.data(), text.data() + text.size(),
                                      uint_want)
                          .ec == std::errc();
    ASSERT_EQ(parsed->is_uint, fits) << text;
    if (fits) {
      ASSERT_EQ(parsed->uint_value, uint_want) << text;
    }
  }
}

/// The tokens and errors left in `in` to the end of the document, spelled
/// out for comparison.
std::string Drain(JsonTokenizer* in) {
  std::string out;
  for (int i = 0; i < 64; ++i) {
    const Status st = in->Next();
    if (!st.ok()) return out + st.message();
    out += std::to_string(static_cast<int>(in->token())) + " ";
    if (in->token() == JsonTokenizer::Token::kEnd) break;
  }
  return out;
}

TEST(JsonTokenizer, TryUintArrayLeavesTheStateTheGenericPathLeaves) {
  const std::vector<uint64_t> max = {10, UINT64_MAX, 1000};
  for (const char* array :
       {"[1,2,3]", "[ 1 ,\n2\t,\r3 ]", "[]", "[ ]", "[7]", "[10,9999999999999999999,1000]",
        // Declined: each of these takes the generic path.
        "[01]", "[1.0]", "[1e0]", "[-1]", "[-0]", "[1,]", "[,1]", "[1 2]",
        "[11]", "[1,2,1001]", "[10,18446744073709551614]", "[1,2,3,4]", "[1,18446744073709551615]",
        "[1,[2]]", "[1,\"2\"]", "[1,2", "[1,", "[", "[ "}) {
    const std::string doc = std::string("{\"k\":") + array + ",\"after\":[7]}";
    JsonTokenizer fast(doc);
    JsonTokenizer generic(doc);
    for (JsonTokenizer* in : {&fast, &generic}) {
      ASSERT_TRUE(in->Next().ok());  // {
      ASSERT_TRUE(in->Next().ok());  // "k"
      ASSERT_TRUE(in->Next().ok());  // [
    }
    uint64_t out[3] = {};
    size_t n = 0;
    const bool taken = fast.TryUintArray(out, std::span<const uint64_t>(max), &n);
    if (!taken) {
      // Nothing consumed: the same token stream as an untouched tokenizer.
      EXPECT_EQ(Drain(&fast), Drain(&generic)) << array;
      continue;
    }
    std::vector<uint64_t> values;
    const Status st = generic.ForEachElement([&] {
      uint64_t v = 0;
      RDMAJOIN_RETURN_IF_ERROR(generic.Read(&v));
      values.push_back(v);
      return Status::OK();
    });
    ASSERT_TRUE(st.ok()) << array << ": " << st.ToString();
    EXPECT_EQ(std::vector<uint64_t>(out, out + n), values) << array;
    EXPECT_EQ(fast.token(), generic.token()) << array;
    EXPECT_EQ(fast.number().uint_value, generic.number().uint_value) << array;
    EXPECT_EQ(fast.number().number_value, generic.number().number_value) << array;
    EXPECT_EQ(fast.Error("here").message(), generic.Error("here").message()) << array;
    EXPECT_EQ(Drain(&fast), Drain(&generic)) << array;
  }
}

}  // namespace
}  // namespace rdmajoin

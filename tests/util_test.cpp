// Unit tests for the util module: RNG determinism and uniformity sanity,
// bit-vector packing, integer math, statistics (incl. the mergeable
// accumulator's determinism contract and wire codec), JSON, tables and CLI
// parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/bitio.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace synccount::util;

// --- Rng ---------------------------------------------------------------

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, (1ULL << 40)}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowZeroAndOne) {
  Rng rng(7);
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelowRoughlyUniform) {
  Rng rng(123);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBuckets)];
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kDraws / kBuckets, 600) << "bucket " << b;
  }
}

TEST(Rng, NextInInclusiveRange) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.split();
  Rng a2(42);
  Rng child2 = a2.split();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(child.next_u64(), child2.next_u64());
  // Parent and child streams differ.
  Rng b(42);
  Rng c = b.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += b.next_u64() == c.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Rng, BoundedDrawReproducesNextBelow) {
  // Same values and the same draws consumed, rejections included: 2^63+1
  // rejects about half of all raw draws.
  for (const std::uint64_t bound : {0ULL, 1ULL, 2ULL, 3ULL, 4ULL, 12ULL, (1ULL << 32) + 1,
                                    (1ULL << 63) + 1}) {
    Rng a(0xb0b0 + bound);
    Rng b(0xb0b0 + bound);
    const BoundedDraw draw(bound);
    for (int i = 0; i < 2000; ++i) ASSERT_EQ(draw(b), a.next_below(bound)) << bound;
    EXPECT_EQ(a.next_u64(), b.next_u64()) << bound;
  }
}

// --- BitVec ------------------------------------------------------------

TEST(BitVec, SetGetRoundTripSingleWord) {
  BitVec v;
  v.set_bits(3, 7, 0x55);
  EXPECT_EQ(v.get_bits(3, 7), 0x55u);
  EXPECT_EQ(v.get_bits(0, 3), 0u);
}

TEST(BitVec, CrossWordBoundary) {
  BitVec v;
  v.set_bits(60, 10, 0x3ffu);
  EXPECT_EQ(v.get_bits(60, 10), 0x3ffu);
  v.set_bits(60, 10, 0x155u);
  EXPECT_EQ(v.get_bits(60, 10), 0x155u);
  EXPECT_EQ(v.get_bits(0, 60), 0u);
  EXPECT_EQ(v.get_bits(70, 64), 0u);
}

TEST(BitVec, FullWidthField) {
  BitVec v;
  v.set_bits(64, 64, ~0ULL);
  EXPECT_EQ(v.get_bits(64, 64), ~0ULL);
  EXPECT_EQ(v.get_bits(0, 64), 0u);
  EXPECT_EQ(v.get_bits(128, 64), 0u);
}

TEST(BitVec, OverwriteLeavesNeighboursIntact) {
  BitVec v;
  v.set_bits(0, 8, 0xff);
  v.set_bits(8, 8, 0xaa);
  v.set_bits(16, 8, 0xff);
  v.set_bits(8, 8, 0x11);
  EXPECT_EQ(v.get_bits(0, 8), 0xffu);
  EXPECT_EQ(v.get_bits(8, 8), 0x11u);
  EXPECT_EQ(v.get_bits(16, 8), 0xffu);
}

TEST(BitVec, TruncateClearsHighBits) {
  BitVec v;
  v.set_bits(0, 64, ~0ULL);
  v.set_bits(64, 64, ~0ULL);
  v.truncate(70);
  EXPECT_EQ(v.get_bits(0, 64), ~0ULL);
  EXPECT_EQ(v.get_bits(64, 6), 0x3fu);
  EXPECT_EQ(v.get_bits(70, 58), 0u);
}

TEST(BitVec, EqualityAfterTruncate) {
  BitVec a, b;
  a.set_bits(0, 20, 0x12345);
  a.set_bits(40, 10, 0x3ff);
  b.set_bits(0, 20, 0x12345);
  EXPECT_NE(a, b);
  a.truncate(20);
  EXPECT_EQ(a, b);
}

TEST(BitVec, HashDiffersForDifferentValues) {
  BitVec a, b;
  a.set_bits(0, 10, 1);
  b.set_bits(0, 10, 2);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(BitVec, ReaderWriterSequence) {
  BitVec v;
  BitWriter w(v);
  w.write(5, 17);
  w.write(13, 4095);
  w.write(1, 1);
  EXPECT_EQ(w.offset(), 19);
  BitReader r(v);
  EXPECT_EQ(r.read(5), 17u);
  EXPECT_EQ(r.read(13), 4095u);
  EXPECT_EQ(r.read(1), 1u);
}

// --- math --------------------------------------------------------------

TEST(Math, CeilLog2) {
  EXPECT_EQ(ceil_log2(0), 0);
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(4), 2);
  EXPECT_EQ(ceil_log2(5), 3);
  EXPECT_EQ(ceil_log2(1024), 10);
  EXPECT_EQ(ceil_log2(1025), 11);
  EXPECT_EQ(ceil_log2(~0ULL), 64);
}

TEST(Math, FloorLog2) {
  EXPECT_EQ(floor_log2(0), -1);
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(2), 1);
  EXPECT_EQ(floor_log2(3), 1);
  EXPECT_EQ(floor_log2(1024), 10);
}

TEST(Math, CheckedPow) {
  EXPECT_EQ(checked_pow(2, 10), 1024u);
  EXPECT_EQ(checked_pow(10, 0), 1u);
  EXPECT_EQ(checked_pow(0, 5), 0u);
  EXPECT_EQ(checked_pow(2, 63), 1ULL << 63);
  EXPECT_FALSE(checked_pow(2, 64).has_value());
  EXPECT_FALSE(checked_pow(10, 20).has_value());
}

TEST(Math, IpowThrowsOnOverflow) {
  EXPECT_THROW(ipow(2, 64), std::invalid_argument);
  EXPECT_EQ(ipow(6, 4), 1296u);
}

TEST(Math, CheckedMulAdd) {
  EXPECT_EQ(checked_mul(3, 7), 21u);
  EXPECT_FALSE(checked_mul(~0ULL, 2).has_value());
  EXPECT_EQ(checked_add(1, 2), 3u);
  EXPECT_FALSE(checked_add(~0ULL, 1).has_value());
}

TEST(Math, AddMod) {
  EXPECT_EQ(add_mod(5, 7, 10), 2u);
  EXPECT_EQ(add_mod(9, 1, 10), 0u);
  // Near the top of the uint64 range.
  const std::uint64_t m = ~0ULL - 1;
  EXPECT_EQ(add_mod(m - 1, m - 1, m), m - 2);
}

TEST(Math, ModI64) {
  EXPECT_EQ(mod_i64(-1, 5), 4u);
  EXPECT_EQ(mod_i64(-5, 5), 0u);
  EXPECT_EQ(mod_i64(7, 5), 2u);
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 3), 0u);
  EXPECT_EQ(ceil_div(1, 3), 1u);
  EXPECT_EQ(ceil_div(3, 3), 1u);
  EXPECT_EQ(ceil_div(4, 3), 2u);
}

TEST(Math, Lcm) {
  EXPECT_EQ(lcm_checked(4, 6), 12u);
  EXPECT_EQ(lcm_checked(7, 13), 91u);
  EXPECT_THROW(lcm_checked(~0ULL, ~0ULL - 1), std::invalid_argument);
}

TEST(Math, DivisorMatchesHardwareDivision) {
  constexpr std::uint64_t kMax = ~0ULL;
  std::vector<std::uint64_t> divisors = {1,          2,          3,           5,
                                         7,          10,         12,          27,
                                         64,         1000,       1728,        (1ULL << 31) - 1,
                                         kMax >> 32, 1ULL << 32, (1ULL << 32) + 1,
                                         kMax >> 1,  1ULL << 63, (1ULL << 63) + 1,
                                         kMax - 1,   kMax};
  Rng rng(0xd1d);
  for (int i = 0; i < 200; ++i) divisors.push_back((rng.next_u64() >> rng.next_below(64)) | 1);
  for (const std::uint64_t d : divisors) {
    const Divisor div(d);
    std::vector<std::uint64_t> ns = {0,          1,          d - 1,      d,
                                     d + 1,      2 * d - 1,  2 * d,      (1ULL << 32) - 1,
                                     1ULL << 32, (1ULL << 32) + 1, kMax - 1, kMax,
                                     kMax - d,   kMax / d * d, kMax / d * d - 1};
    for (int i = 0; i < 50; ++i) ns.push_back(rng.next_u64() >> rng.next_below(64));
    for (const std::uint64_t n : ns) {
      ASSERT_EQ(div.div(n), n / d) << n << " / " << d;
      ASSERT_EQ(div.mod(n), n % d) << n << " % " << d;
    }
  }
  EXPECT_EQ(Divisor().div(kMax), kMax);  // default: d = 1
}

// --- stats -------------------------------------------------------------

TEST(Stats, SummaryBasics) {
  const Summary s = summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
}

TEST(Stats, SummaryEmpty) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  // NaN, not 0.0: an empty accumulator must not look like a real zero sample.
  EXPECT_TRUE(std::isnan(s.mean));
  EXPECT_TRUE(std::isnan(s.median));
  EXPECT_TRUE(std::isnan(s.min));
  EXPECT_NE(s.to_string().find("n/a"), std::string::npos);
}

TEST(Stats, RegressionSlope) {
  EXPECT_NEAR(regression_slope({1, 2, 3, 4}, {2, 4, 6, 8}), 2.0, 1e-9);
  EXPECT_NEAR(regression_slope({1, 2, 3}, {5, 5, 5}), 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(regression_slope({1}, {1}), 0.0);
}

// --- table -------------------------------------------------------------

// --- StreamingStats: merge determinism + wire codec --------------------
//
// The sharded-sweep merge path rests on one property: merging partial
// accumulators in order is *bit-identical* to one sequential fold. These
// tests pin that down (exact == on doubles is deliberate).

// All summary fields identical, bitwise.
void expect_identical(const StreamingStats& a, const StreamingStats& b) {
  ASSERT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.stddev(), b.stddev());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  for (const double p : {0.0, 0.25, 0.5, 0.9, 0.95, 1.0}) {
    EXPECT_EQ(a.quantile(p), b.quantile(p));
  }
  EXPECT_EQ(a.samples(), b.samples());
}

// Irrational-ish samples so every fp operation order matters.
std::vector<double> awkward_samples(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) xs.push_back(rng.next_double() * 1e3 + 1.0 / 3.0);
  return xs;
}

TEST(StreamingStats, MergeBitIdenticalToSequentialAdd) {
  const auto xs = awkward_samples(257, 7);
  StreamingStats all;
  for (const double x : xs) all.add(x);
  // Every split point, including empty prefix/suffix.
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{128},
                                std::size_t{256}, xs.size()}) {
    StreamingStats lo, hi;
    for (std::size_t i = 0; i < cut; ++i) lo.add(xs[i]);
    for (std::size_t i = cut; i < xs.size(); ++i) hi.add(xs[i]);
    lo.merge(hi);
    expect_identical(lo, all);
  }
}

TEST(StreamingStats, MergeAssociativeAcrossArbitrarySplits) {
  const auto xs = awkward_samples(200, 11);
  StreamingStats all;
  for (const double x : xs) all.add(x);
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    // Split into 1..8 ordered chunks at random cut points, fold left.
    std::set<std::size_t> cuts = {0, xs.size()};
    const int parts = 1 + static_cast<int>(rng.next_below(8));
    for (int i = 1; i < parts; ++i) cuts.insert(rng.next_below(xs.size()));
    std::vector<StreamingStats> chunks;
    auto it = cuts.begin();
    for (std::size_t lo = *it++; it != cuts.end(); ++it) {
      StreamingStats c;
      for (std::size_t i = lo; i < *it; ++i) c.add(xs[i]);
      chunks.push_back(std::move(c));
      lo = *it;
    }
    StreamingStats folded;
    for (const auto& c : chunks) folded.merge(c);
    expect_identical(folded, all);
  }
}

TEST(StreamingStats, SelfMergeDoublesTheSamples) {
  StreamingStats acc;
  for (const double x : awkward_samples(33, 5)) acc.add(x);
  StreamingStats twice;
  for (const double x : acc.samples()) twice.add(x);
  for (const double x : acc.samples()) twice.add(x);
  acc.merge(acc);  // must stay defined while add() grows samples_
  expect_identical(acc, twice);
}

TEST(StreamingStats, JsonCodecRoundTripIsBitIdentical) {
  StreamingStats acc;
  for (const double x : awkward_samples(97, 13)) acc.add(x);
  const Json j = to_json(acc);
  const StreamingStats back = streaming_stats_from_json(Json::parse(j.dump()));
  expect_identical(back, acc);
  // Re-serialisation is byte-stable (the merge byte-identity contract).
  EXPECT_EQ(to_json(back).dump(), j.dump());
}

TEST(StreamingStats, EmptyCodecRoundTrip) {
  const StreamingStats empty;
  const StreamingStats back = streaming_stats_from_json(Json::parse(to_json(empty).dump()));
  EXPECT_EQ(back.count(), 0u);
  EXPECT_TRUE(std::isnan(back.quantile(0.5)));
}

// --- Json --------------------------------------------------------------

TEST(Json, ScalarRoundTrips) {
  EXPECT_EQ(Json::parse("null").dump(), "null");
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").dump(), "false");
  EXPECT_EQ(Json::parse("-17").as_i64(), -17);
  EXPECT_EQ(Json::parse("18446744073709551615").as_u64(), ~std::uint64_t{0});
  EXPECT_EQ(Json::number(~std::uint64_t{0}).dump(), "18446744073709551615");
}

TEST(Json, DoubleShortestRoundTrip) {
  for (const double v : {0.1, 1.0 / 3.0, 1e-300, 6.02214076e23, -0.0, 123456789.123456789}) {
    const Json j = Json::number(v);
    EXPECT_EQ(Json::parse(j.dump()).as_double(), v) << j.dump();
  }
}

TEST(Json, NumberTokenPreservedVerbatim) {
  // parse keeps the original spelling, so re-dumping cannot drift bytes.
  for (const char* tok : {"1e3", "0.5", "-0.0", "2", "1.25e-7"}) {
    EXPECT_EQ(Json::parse(tok).dump(), tok);
  }
}

TEST(Json, StringEscapes) {
  const Json j = Json::string("a\"b\\c\n\t\x01z");
  EXPECT_EQ(j.dump(), "\"a\\\"b\\\\c\\n\\t\\u0001z\"");
  EXPECT_EQ(Json::parse(j.dump()).as_string(), "a\"b\\c\n\t\x01z");
  EXPECT_EQ(Json::parse("\"\\u00e9\\ud83d\\ude00\"").as_string(), "\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(Json, NestedStructureAndMemberOrder) {
  Json obj = Json::object();
  obj.set("b", Json::number(std::int64_t{1}));
  obj.set("a", Json::number(std::int64_t{2}));
  Json arr = Json::array();
  arr.push_back(Json());
  arr.push_back(Json::boolean(true));
  obj.set("list", std::move(arr));
  // Insertion order is preserved (deterministic dumps), not sorted.
  EXPECT_EQ(obj.dump(), "{\"b\":1,\"a\":2,\"list\":[null,true]}");
  const Json back = Json::parse(obj.dump());
  EXPECT_EQ(back.dump(), obj.dump());
  EXPECT_EQ(back.at("a").as_int(), 2);
  EXPECT_EQ(back.at("list").size(), 2u);
  EXPECT_TRUE(back.at("list").at(0).is_null());
  EXPECT_EQ(back.find("missing"), nullptr);
}

TEST(Json, MalformedInputsThrow) {
  for (const char* bad : {"", "{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"unterminated",
                          "{\"a\":1} trailing", "01", "-01.5", "nul", "\"\\q\""}) {
    EXPECT_THROW(Json::parse(bad), std::invalid_argument) << bad;
  }
  EXPECT_THROW(Json::parse("123").as_string(), std::invalid_argument);
  EXPECT_THROW(Json::parse("\"x\"").as_u64(), std::invalid_argument);
  EXPECT_THROW(Json::parse("-1").as_u64(), std::invalid_argument);
  EXPECT_THROW(Json::object().at("nope"), std::invalid_argument);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name  | value |"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
}

TEST(Table, PadsMissingCells) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_NE(t.to_string().find("| x |"), std::string::npos);
}

// --- cli ---------------------------------------------------------------

TEST(Cli, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta=7", "--flag", "pos1"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_EQ(cli.get_int("beta", 0), 7);
  EXPECT_TRUE(cli.get_bool("flag"));
  EXPECT_FALSE(cli.get_bool("missing"));
  EXPECT_EQ(cli.get_int("missing", 9), 9);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, StringAndDouble) {
  const char* argv[] = {"prog", "--name=abc", "--x=2.5"};
  Cli cli(3, argv);
  EXPECT_EQ(cli.get_string("name", ""), "abc");
  EXPECT_DOUBLE_EQ(cli.get_double("x", 0), 2.5);
}

// --- check -------------------------------------------------------------

TEST(Cli, UnknownFlags) {
  const char* argv[] = {"prog", "--f=3", "--seeds=5", "--bogus=1", "--typo"};
  const Cli cli(5, argv);
  EXPECT_TRUE(cli.unknown_flags({"f", "seeds", "bogus", "typo"}).empty());
  const auto unknown = cli.unknown_flags({"f", "seeds"});
  ASSERT_EQ(unknown.size(), 2u);
  EXPECT_EQ(unknown[0], "bogus");
  EXPECT_EQ(unknown[1], "typo");
}

TEST(Check, ThrowsWithMessage) {
  try {
    SC_CHECK(false, "context here");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("context here"), std::string::npos);
  }
  EXPECT_THROW(SC_REQUIRE(false, "x"), std::logic_error);
}

}  // namespace

// Unit tests for src/common: RNG, thread pool, serialisation, tables, checks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <set>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "common/thread_pool.h"

namespace orco::common {
namespace {

TEST(CheckTest, CheckThrowsInvalidArgumentWithContext) {
  try {
    ORCO_CHECK(1 == 2, "custom detail " << 42);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom detail 42"), std::string::npos);
  }
}

TEST(CheckTest, EnsureThrowsLogicError) {
  EXPECT_THROW(ORCO_ENSURE(false, "invariant"), std::logic_error);
}

TEST(CheckTest, PassingChecksDoNotThrow) {
  EXPECT_NO_THROW(ORCO_CHECK(true, "fine"));
  EXPECT_NO_THROW(ORCO_ENSURE(true, "fine"));
}

TEST(SplitMix64Test, DeterministicAndDistinct) {
  SplitMix64 a(7), b(7), c(8);
  const auto a1 = a.next();
  EXPECT_EQ(a1, b.next());
  EXPECT_NE(a1, c.next());
}

TEST(Pcg32Test, SameSeedSameStream) {
  Pcg32 a(123, 5), b(123, 5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Pcg32Test, DifferentStreamsDiverge) {
  Pcg32 a(123, 5), b(123, 6);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Pcg32Test, UniformInUnitInterval) {
  Pcg32 rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Pcg32Test, UniformRangeRespectsBounds) {
  Pcg32 rng(2);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniform(-2.5f, 7.5f);
    EXPECT_GE(v, -2.5f);
    EXPECT_LT(v, 7.5f);
  }
}

// The float rounding of next() / 2^32 reaches 1.0f for next() >= 2^32 - 128,
// so uniform(lo, hi) can return hi itself: the range is [lo, hi]. The value
// stays as it is, since every seeded weight that lands there depends on it.
TEST(Pcg32Test, UniformCanReturnTheUpperBound) {
  Pcg32 probe(1);
  probe.advance(59630664);
  EXPECT_EQ(probe.next(), 4294967276u);

  Pcg32 rng(1);
  rng.advance(59630664);
  EXPECT_EQ(rng.uniform(-0.5f, 0.5f), 0.5f);
}

TEST(Pcg32Test, AdvanceEqualsRepeatedNext) {
  for (const std::uint64_t n :
       {0ull, 1ull, 2ull, 63ull, 64ull, 65ull, 4096ull, 1000003ull}) {
    Pcg32 stepped(42, 7);
    for (std::uint64_t i = 0; i < n; ++i) (void)stepped.next();
    Pcg32 jumped(42, 7);
    jumped.advance(n);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(jumped.next(), stepped.next()) << "n = " << n;
    }
  }
}

TEST(Pcg32Test, AdvanceComposes) {
  for (const auto& [a, b] : {std::pair<std::uint64_t, std::uint64_t>{0, 5},
                             {3, 0},
                             {65536, 65537},
                             {1000003, 4096},
                             {std::uint64_t{1} << 40, 12345}}) {
    Pcg32 twice(9);
    twice.advance(a);
    twice.advance(b);
    Pcg32 once(9);
    once.advance(a + b);
    EXPECT_EQ(twice.next(), once.next()) << a << " + " << b;
  }
}

TEST(Pcg32Test, BoundedStaysInRange) {
  Pcg32 rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
  EXPECT_EQ(rng.bounded(0), 0u);
  EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(Pcg32Test, BoundedCoversAllValues) {
  Pcg32 rng(4);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.bounded(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Pcg32Test, NormalMomentsApproximatelyStandard) {
  Pcg32 rng(5);
  const int n = 20000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Pcg32Test, NormalWithParamsShiftsAndScales) {
  Pcg32 rng(6);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Pcg32Test, SplitProducesIndependentStream) {
  Pcg32 parent(7);
  Pcg32 child = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next() == child.next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(ShuffledIndicesTest, IsAPermutation) {
  Pcg32 rng(8);
  const auto idx = shuffled_indices(100, rng);
  std::set<std::size_t> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 100u);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), 99u);
}

TEST(ShuffledIndicesTest, ActuallyShuffles) {
  Pcg32 rng(9);
  const auto idx = shuffled_indices(100, rng);
  std::vector<std::size_t> sorted(100);
  std::iota(sorted.begin(), sorted.end(), std::size_t{0});
  EXPECT_NE(idx, sorted);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, HelperFallsBackToSerialBelowGrain) {
  std::vector<int> hits(10, 0);
  parallel_for(nullptr, 0, 10, 100,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i) hits[i]++;
               });
  for (const auto h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, GlobalPoolIsReusable) {
  auto& pool = ThreadPool::global();
  std::atomic<int> count{0};
  pool.parallel_for(0, 64, [&](std::size_t lo, std::size_t hi) {
    count.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(SerializeTest, RoundTripsPods) {
  ByteWriter w;
  w.write_u32(0xdeadbeef);
  w.write_u64(0x0123456789abcdefULL);
  w.write_f32(3.5f);
  w.write_f64(-2.25);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.read_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.read_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.read_f32(), 3.5f);
  EXPECT_EQ(r.read_f64(), -2.25);
  EXPECT_TRUE(r.exhausted());
}

TEST(SerializeTest, RoundTripsVectorsAndStrings) {
  ByteWriter w;
  w.write_f32_span(std::vector<float>{1.0f, 2.0f, 3.0f});
  w.write_string("orcodcs");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.read_view(sizeof(float)).size(), 3 * sizeof(float));
  EXPECT_EQ(r.read_string(), "orcodcs");

  // read_view hands out the same payloads in place, each one starting
  // right after its length prefix.
  ByteReader v(w.bytes());
  const std::span<const std::byte> floats = v.read_view(sizeof(float));
  EXPECT_EQ(floats.data(), w.bytes().data() + 8);
  ASSERT_EQ(floats.size(), 3 * sizeof(float));
  float third = 0.0f;
  std::memcpy(&third, floats.data() + 2 * sizeof(float), sizeof third);
  EXPECT_EQ(third, 3.0f);
  EXPECT_EQ(v.read_view(1).size(), 7u);
  EXPECT_TRUE(v.exhausted());
}

TEST(SerializeTest, UnderrunThrows) {
  ByteWriter w;
  w.write_u32(1);
  ByteReader r(w.bytes());
  (void)r.read_u32();
  EXPECT_THROW((void)r.read_u32(), std::invalid_argument);

  // A length prefix the buffer cannot hold is refused before anything is
  // sized from it: no 2^40-element allocation, no length_error on
  // UINT64_MAX. Four payload bytes follow each prefix.
  for (const std::uint64_t prefix :
       {std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
    SCOPED_TRACE(prefix);
    ByteWriter hostile;
    hostile.write_u64(prefix);
    hostile.write_u32(7);
    EXPECT_THROW((void)ByteReader(hostile.bytes()).read_view(sizeof(float)),
                 std::invalid_argument);
    EXPECT_THROW((void)ByteReader(hostile.bytes()).read_string(),
                 std::invalid_argument);
    EXPECT_THROW((void)ByteReader(hostile.bytes()).read_view(1),
                 std::invalid_argument);
  }
  // Zero-length reads return empty values and consume only the prefix.
  ByteWriter empty;
  empty.write_f32_span({});
  empty.write_string("");
  empty.write_bytes({});
  ByteReader er(empty.bytes());
  EXPECT_TRUE(er.read_view(sizeof(float)).empty());
  EXPECT_TRUE(er.read_string().empty());
  EXPECT_TRUE(er.read_view(1).empty());
  EXPECT_TRUE(er.exhausted());
  EXPECT_TRUE(ByteReader(empty.bytes()).read_view(sizeof(float)).empty());
}

TEST(SerializeTest, FileRoundTrip) {
  ByteWriter w;
  w.write_string("persist me");
  const std::string path = ::testing::TempDir() + "/orco_serialize_test.bin";
  write_file_atomic(path, w.bytes());
  const auto bytes = read_file(path);
  ByteReader r(bytes);
  EXPECT_EQ(r.read_string(), "persist me");
}

TEST(SerializeTest, AtomicWriteReplacesAndFailedRenameLeavesNoTemp) {
  const std::string dir = ::testing::TempDir() + "/orco_atomic_write_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ByteWriter first;
  first.write_string("first");
  ByteWriter second;
  second.write_string("second");
  const std::string path = dir + "/record.bin";
  write_file_atomic(path, first.bytes());
  write_file_atomic(path, second.bytes());
  const auto bytes = read_file(path);
  ByteReader r(bytes);
  EXPECT_EQ(r.read_string(), "second");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // A directory in the way makes the rename fail after the temp file was
  // written and synced: the call throws and removes its temp file.
  const std::string blocked = dir + "/blocked";
  std::filesystem::create_directories(blocked + "/child");
  EXPECT_THROW(write_file_atomic(blocked, first.bytes()), std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(blocked + ".tmp"));
  // An unopenable temp path throws too.
  EXPECT_THROW(write_file_atomic(dir + "/missing/record.bin", first.bytes()),
               std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(SerializeTest, MissingFileThrows) {
  EXPECT_THROW((void)read_file("/nonexistent/definitely/missing.bin"),
               std::runtime_error);
}

TEST(TableTest, FormatsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(TableTest, RejectsRaggedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TableTest, CsvOutput) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "x,y\n1,2\n");
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(StopwatchTest, MeasuresNonNegativeMonotonicTime) {
  Stopwatch sw;
  const double t1 = sw.seconds();
  const double t2 = sw.seconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  sw.reset();
  EXPECT_GE(sw.seconds(), 0.0);
}

}  // namespace
}  // namespace orco::common

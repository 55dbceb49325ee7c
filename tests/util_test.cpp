// Hashing, bit array, and RNG tests — the primitives the BITSTATE store
// and the deterministic workload generators rest on — and the default
// lane count.
#include <gtest/gtest.h>
#include <sched.h>

#include <map>
#include <set>

#include "util/bitarray.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace iotsan {
namespace {

TEST(HashTest, Fnv1aKnownVectors) {
  // FNV-1a 64 reference values.
  EXPECT_EQ(hash::Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(hash::Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(hash::Fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(HashTest, BytesAndStringAgree) {
  const std::uint8_t bytes[] = {'a', 'b', 'c'};
  EXPECT_EQ(hash::Fnv1a64(std::span<const std::uint8_t>(bytes, 3)),
            hash::Fnv1a64("abc"));
}

TEST(HashTest, SplitMixIsBijectiveish) {
  // Distinct inputs must produce distinct outputs in a small sample.
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    seen.insert(hash::SplitMix64(i));
  }
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(HashTest, NthHashProducesDistinctStreams) {
  const std::uint64_t base = hash::Fnv1a64("state vector");
  std::set<std::uint64_t> seen;
  for (unsigned i = 0; i < 16; ++i) {
    seen.insert(hash::NthHash(base, i));
  }
  EXPECT_EQ(seen.size(), 16u);
}

TEST(BitArrayTest, TestAndSet) {
  BitArray bits(128);
  EXPECT_FALSE(bits.Test(7));
  EXPECT_FALSE(bits.TestAndSet(7));
  EXPECT_TRUE(bits.Test(7));
  EXPECT_TRUE(bits.TestAndSet(7));
  EXPECT_EQ(bits.PopCount(), 1u);
}

TEST(BitArrayTest, IndexWrapsModuloSize) {
  BitArray bits(100);
  bits.TestAndSet(100);  // wraps to 0
  EXPECT_TRUE(bits.Test(0));
}

TEST(BitArrayTest, NonMultipleOf64Size) {
  BitArray bits(65);
  bits.TestAndSet(64);
  EXPECT_TRUE(bits.Test(64));
  EXPECT_FALSE(bits.Test(63));
  EXPECT_EQ(bits.size(), 65u);
}

TEST(BitArrayTest, Reset) {
  BitArray bits(64);
  bits.TestAndSet(1);
  bits.TestAndSet(63);
  bits.Reset();
  EXPECT_EQ(bits.PopCount(), 0u);
}

TEST(BitArrayTest, ZeroSizeRejected) {
  EXPECT_THROW(BitArray(0), Error);
}

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(10), 10u);
  }
  EXPECT_THROW(rng.NextBelow(0), Error);
}

TEST(RngTest, NextBelowCoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBelow(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  std::map<std::int64_t, int> counts;
  for (int i = 0; i < 3000; ++i) {
    std::int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    ++counts[v];
  }
  EXPECT_EQ(counts.size(), 5u);  // all five values hit
  EXPECT_THROW(rng.NextInRange(3, 2), Error);
}

TEST(RngTest, DoublesInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);  // mean of uniform(0,1)
}

TEST(RngTest, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.NextBool(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

/// BITSTATE-style false-positive rate stays small while the field is
/// sparsely occupied (Holzmann's analysis, paper §2.3).
TEST(BitArrayTest, BloomFalsePositiveRateIsLowWhenSparse) {
  BitArray bits(std::size_t{1} << 16);
  constexpr unsigned kHashes = 3;
  auto insert = [&bits](std::uint64_t key) {
    bool seen = true;
    for (unsigned i = 0; i < kHashes; ++i) {
      seen &= bits.TestAndSet(hash::NthHash(key, i));
    }
    return seen;
  };
  int false_positives = 0;
  for (std::uint64_t k = 0; k < 2000; ++k) {
    if (insert(hash::SplitMix64(k))) ++false_positives;
  }
  EXPECT_LT(false_positives, 5);
}

TEST(ResolveJobsTest, AllLanesAreTheCpusOfTheAffinityMask) {
  // `--jobs 0` runs one lane per CPU this thread may use, as `nproc`
  // counts them: pinned to one CPU (`taskset -c 0`), one lane.
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(util::ResolveJobs(0), static_cast<unsigned>(CPU_COUNT(&saved)));
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const unsigned pinned = util::ResolveJobs(0);
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(util::ResolveJobs(3), 3u);
}

}  // namespace
}  // namespace iotsan

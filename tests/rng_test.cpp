#include "flb/util/rng.hpp"

#include <cmath>
#include <cstdint>
#include <iterator>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "flb/util/error.hpp"

namespace flb {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a.next_u64());
  a.reseed(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next_u64(), first[i]);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.uniform(-2.5, 7.5);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 7.5);
  }
}

TEST(Rng, UniformDegenerateRange) {
  Rng rng(5);
  EXPECT_DOUBLE_EQ(rng.uniform(3.0, 3.0), 3.0);
}

TEST(Rng, UniformRejectsInvertedBounds) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform(1.0, 0.0), Error);
}

TEST(Rng, NextBelowCoversRangeWithoutEscaping) {
  Rng rng(6);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    std::uint64_t v = rng.next_below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // every residue hit
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelowRejectsZero) {
  Rng rng(8);
  EXPECT_THROW(rng.next_below(0), Error);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliApproximatesProbability) {
  Rng rng(11);
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  double p = static_cast<double>(hits) / kTrials;
  EXPECT_NEAR(p, 0.3, 0.02);
}

TEST(Rng, MeanOfUniformIsCentered) {
  Rng rng(12);
  double sum = 0;
  constexpr int kTrials = 40000;
  for (int i = 0; i < kTrials; ++i) sum += rng.uniform(0.0, 2.0);
  EXPECT_NEAR(sum / kTrials, 1.0, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(13);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (parent.next_u64() == child.next_u64()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, SplitIsDeterministic) {
  Rng a(14), b(14);
  Rng ca = a.split(), cb = b.split();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(ca.next_u64(), cb.next_u64());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(15);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(Rng, ShuffleChangesOrderEventually) {
  Rng rng(16);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[static_cast<std::size_t>(i)] = i;
  std::vector<int> orig = v;
  rng.shuffle(v);
  EXPECT_NE(v, orig);  // probability of identity permutation ~ 1/50!
}

TEST(DrawWeight, MeanMatchesParameter) {
  Rng rng(17);
  double sum = 0;
  constexpr int kTrials = 40000;
  for (int i = 0; i < kTrials; ++i) sum += draw_weight(rng, 5.0);
  EXPECT_NEAR(sum / kTrials, 5.0, 0.1);
}

TEST(DrawWeight, StaysNonNegativeAndBounded) {
  Rng rng(18);
  for (int i = 0; i < 10000; ++i) {
    Cost w = draw_weight(rng, 2.0);
    EXPECT_GE(w, 0.0);
    EXPECT_LT(w, 4.0);
  }
}

TEST(DrawWeight, ZeroMeanGivesZero) {
  Rng rng(19);
  EXPECT_DOUBLE_EQ(draw_weight(rng, 0.0), 0.0);
}

TEST(DrawWeight, RejectsNegativeMean) {
  Rng rng(20);
  EXPECT_THROW(draw_weight(rng, -1.0), Error);
}

// Every fault, belief and runtime digest hangs off these values: one seed
// and index give six distinct streams, and the arithmetic never moves.
TEST(StreamHash, PinnedPerStream) {
  constexpr std::uint64_t kPinned[] = {
      0x846eaa95e9ab437cULL, 0x2f23a4e5b4b6c213ULL, 0xd718de52a5518601ULL,
      0xa798e6ec6dcce1b6ULL, 0x8dadbf26a67b6477ULL, 0xe58455395e5880eeULL};
  constexpr SeedStream kStreams[] = {
      SeedStream::kTask,    SeedStream::kEdge,      SeedStream::kBurst,
      SeedStream::kCascade, SeedStream::kHeartbeat, SeedStream::kObserver};
  for (std::size_t i = 0; i < std::size(kStreams); ++i)
    EXPECT_EQ(stream_hash(7, kStreams[i], 3), kPinned[i]) << i;
  EXPECT_NE(stream_hash(7, SeedStream::kTask, 3),
            stream_hash(8, SeedStream::kTask, 3));
  EXPECT_NE(stream_hash(7, SeedStream::kTask, 3),
            stream_hash(7, SeedStream::kTask, 4));
}

}  // namespace
}  // namespace flb

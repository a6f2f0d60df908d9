#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "src/util/bitmap.h"
#include "src/util/random.h"

namespace cedar {
namespace {

TEST(BitmapTest, InitialValue) {
  Bitmap zeros(100, false);
  Bitmap ones(100, true);
  EXPECT_EQ(zeros.Count(), 0u);
  EXPECT_EQ(ones.Count(), 100u);
  EXPECT_FALSE(zeros.Get(50));
  EXPECT_TRUE(ones.Get(50));
}

TEST(BitmapTest, TailBitsClearedOnInit) {
  Bitmap ones(70, true);  // 70 is not a multiple of 64
  EXPECT_EQ(ones.Count(), 70u);
}

TEST(BitmapTest, SetAndRange) {
  Bitmap bits(200);
  bits.Set(7, true);
  bits.SetRange(100, 50, true);
  EXPECT_TRUE(bits.Get(7));
  EXPECT_TRUE(bits.Get(100));
  EXPECT_TRUE(bits.Get(149));
  EXPECT_FALSE(bits.Get(150));
  EXPECT_EQ(bits.Count(), 51u);
  bits.SetRange(100, 50, false);
  EXPECT_EQ(bits.Count(), 1u);
}

TEST(BitmapTest, FindRunForward) {
  Bitmap bits(100);
  bits.SetRange(10, 5, true);
  bits.SetRange(40, 20, true);
  EXPECT_EQ(*bits.FindRunForward(0, 3), 10u);
  EXPECT_EQ(*bits.FindRunForward(0, 10), 40u);
  EXPECT_EQ(*bits.FindRunForward(20, 3), 40u);
  EXPECT_FALSE(bits.FindRunForward(0, 21).has_value());
}

TEST(BitmapTest, FindRunBackward) {
  Bitmap bits(100);
  bits.SetRange(10, 5, true);
  bits.SetRange(40, 20, true);
  EXPECT_EQ(*bits.FindRunBackward(99, 3), 57u);  // run ends at 59
  EXPECT_EQ(*bits.FindRunBackward(30, 3), 12u);
  EXPECT_FALSE(bits.FindRunBackward(99, 25).has_value());
}

TEST(BitmapTest, FindRunBackwardAtZero) {
  Bitmap bits(10);
  bits.Set(0, true);
  EXPECT_EQ(*bits.FindRunBackward(9, 1), 0u);
}

TEST(BitmapTest, LongestRun) {
  Bitmap bits(100);
  bits.SetRange(5, 3, true);
  bits.SetRange(20, 8, true);
  EXPECT_EQ(bits.LongestRun(0, 100), 8u);
  EXPECT_EQ(bits.LongestRun(0, 24), 4u);  // clipped window
}

TEST(BitmapTest, EqualityAndWords) {
  Bitmap a(65, true);
  Bitmap b(65, true);
  EXPECT_EQ(a, b);
  b.Set(64, false);
  EXPECT_FALSE(a == b);
  EXPECT_EQ(a.words().size(), 2u);
}

TEST(BitmapTest, RandomizedAgainstVector) {
  Rng rng(88);
  Bitmap bits(500);
  std::vector<bool> oracle(500, false);
  for (int step = 0; step < 2000; ++step) {
    const auto i = static_cast<std::uint32_t>(rng.Below(500));
    const bool v = rng.Chance(0.5);
    bits.Set(i, v);
    oracle[i] = v;
  }
  std::uint32_t count = 0;
  for (std::uint32_t i = 0; i < 500; ++i) {
    ASSERT_EQ(bits.Get(i), oracle[i]) << i;
    count += oracle[i];
  }
  EXPECT_EQ(bits.Count(), count);
}

TEST(BitmapDeathTest, ZeroCountRunSearchIsABug) {
  Bitmap bits(64, true);
  EXPECT_DEATH(bits.FindRunForward(0, 0), "count > 0");
  EXPECT_DEATH(bits.FindRunBackward(63, 0), "count > 0");
}

// Bit-by-bit references for the word-at-a-time run searches, over a plain
// vector of the bitmap's in-range bits.
std::optional<std::uint32_t> RefFindRunForward(const std::vector<bool>& bits,
                                               std::uint32_t from,
                                               std::uint32_t count) {
  std::uint32_t run = 0;
  for (std::uint32_t i = from; i < bits.size(); ++i) {
    run = bits[i] ? run + 1 : 0;
    if (run >= count) {
      return i - count + 1;
    }
  }
  return std::nullopt;
}

std::optional<std::uint32_t> RefFindRunBackward(const std::vector<bool>& bits,
                                                std::uint32_t from,
                                                std::uint32_t count) {
  if (bits.empty()) {
    return std::nullopt;
  }
  const auto size = static_cast<std::uint32_t>(bits.size());
  std::uint32_t run = 0;
  for (std::uint32_t i = std::min(from, size - 1) + 1; i-- > 0;) {
    run = bits[i] ? run + 1 : 0;
    if (run >= count) {
      return i;
    }
  }
  return std::nullopt;
}

std::uint32_t RefLongestRun(const std::vector<bool>& bits, std::uint32_t start,
                            std::uint32_t end) {
  std::uint32_t best = 0;
  std::uint32_t run = 0;
  for (std::uint32_t i = start; i < end && i < bits.size(); ++i) {
    run = bits[i] ? run + 1 : 0;
    best = std::max(best, run);
  }
  return best;
}

std::vector<bool> InRangeBits(const Bitmap& map) {
  std::vector<bool> bits(map.size());
  for (std::uint32_t i = 0; i < map.size(); ++i) {
    bits[i] = map.Get(i);
  }
  return bits;
}

// A map of alternating set and clear runs whose lengths are drawn from
// `max_run`, so runs of every length cross word boundaries. When
// `dirty_tail` is set, the bits past size() in the last word are set through
// mutable_words(), as Vam::Load can leave them.
Bitmap RandomRunMap(Rng& rng, std::uint32_t size, std::uint32_t max_run,
                    bool dirty_tail) {
  Bitmap map(size);
  bool value = rng.Chance(0.5);
  for (std::uint32_t i = 0; i < size;) {
    const auto len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(rng.Between(1, max_run), size - i));
    map.SetRange(i, len, value);
    i += len;
    value = !value;
  }
  if (dirty_tail && size % 64 != 0) {
    map.mutable_words().back() |= ~0ull << (size % 64);
  }
  return map;
}

void ExpectSearchesMatchReference(const Bitmap& map, Rng& rng, int queries) {
  const std::vector<bool> bits = InRangeBits(map);
  const std::uint32_t size = map.size();
  std::vector<std::uint32_t> froms = {
      0, size, size + 1, std::numeric_limits<std::uint32_t>::max()};
  if (size > 0) {
    froms.push_back(size - 1);
  }
  for (int q = 0; q < queries; ++q) {
    froms.push_back(static_cast<std::uint32_t>(rng.Below(size + 70)));
  }
  for (const std::uint32_t from : froms) {
    for (const std::uint32_t count :
         {1u, 2u, 7u, static_cast<std::uint32_t>(rng.Between(1, 200)),
          size, size + 1}) {
      if (count == 0) {
        continue;
      }
      ASSERT_EQ(map.FindRunForward(from, count),
                RefFindRunForward(bits, from, count))
          << "forward size " << size << " from " << from << " count " << count;
      ASSERT_EQ(map.FindRunBackward(from, count),
                RefFindRunBackward(bits, from, count))
          << "backward size " << size << " from " << from << " count "
          << count;
    }
    const auto end = static_cast<std::uint32_t>(rng.Below(size + 70));
    ASSERT_EQ(map.LongestRun(from, end), RefLongestRun(bits, from, end))
        << "longest size " << size << " [" << from << ", " << end << ")";
  }
}

TEST(BitmapTest, RunSearchesMatchBitwiseReference) {
  Rng rng(600);
  for (int round = 0; round < 200; ++round) {
    const auto size = static_cast<std::uint32_t>(rng.Below(700));
    const auto max_run = static_cast<std::uint32_t>(rng.Between(1, 150));
    const Bitmap map = RandomRunMap(rng, size, max_run, rng.Chance(0.5));
    ExpectSearchesMatchReference(map, rng, 20);
  }
}

TEST(BitmapTest, RunSearchesOnUniformMaps) {
  Rng rng(601);
  for (const std::uint32_t size : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 129u,
                                   200u, 1000u, 4097u}) {
    for (const bool value : {false, true}) {
      Bitmap map(size, value);
      ExpectSearchesMatchReference(map, rng, 10);
      if (size % 64 != 0) {
        map.mutable_words().back() |= ~0ull << (size % 64);
        ExpectSearchesMatchReference(map, rng, 10);
      }
    }
  }
}

TEST(BitmapTest, DirtyTailNeverReportedPastSize) {
  Bitmap map(70);  // all used; bits 70..127 of the last word set below
  map.mutable_words().back() |= ~0ull << (70 % 64);
  EXPECT_FALSE(map.FindRunForward(0, 1).has_value());
  EXPECT_FALSE(map.FindRunBackward(1000, 1).has_value());
  EXPECT_EQ(map.LongestRun(0, 1000), 0u);
  map.Set(69, true);
  EXPECT_EQ(map.FindRunForward(0, 1), 69u);
  EXPECT_FALSE(map.FindRunForward(0, 2).has_value());
  EXPECT_EQ(map.FindRunBackward(1000, 1), 69u);
  EXPECT_EQ(map.LongestRun(0, 1000), 1u);
}

TEST(BitmapTest, SetRangeMatchesBitwiseReference) {
  Rng rng(602);
  for (int round = 0; round < 100; ++round) {
    const auto size = static_cast<std::uint32_t>(rng.Between(1, 700));
    Bitmap map(size, rng.Chance(0.5));
    std::vector<bool> bits = InRangeBits(map);
    for (int op = 0; op < 50; ++op) {
      const auto start = static_cast<std::uint32_t>(rng.Below(size));
      const auto count =
          static_cast<std::uint32_t>(rng.Below(size - start + 1));
      const bool value = rng.Chance(0.5);
      map.SetRange(start, count, value);
      std::fill(bits.begin() + start, bits.begin() + start + count, value);
    }
    ASSERT_EQ(InRangeBits(map), bits) << "size " << size;
    // SetRange never sets a bit past size(), so Count() stays exact.
    ASSERT_EQ(map.Count(),
              static_cast<std::uint32_t>(
                  std::count(bits.begin(), bits.end(), true)));
  }
}

}  // namespace
}  // namespace cedar

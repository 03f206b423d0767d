// FlatKeyMap (window/flat_key_map.h) against std::unordered_map as the
// oracle: random insert/find/iterate/reset sequences, growth across sizes,
// and the edge keys 0, UINT64_MAX and strided keys that share low bits.

#include "src/window/flat_key_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"

namespace klink {
namespace {

struct Agg {
  int64_t count = 0;
  double sum = 0.0;
};

/// Asserts `map` holds exactly the oracle's keys and values, iterates in
/// insertion order (`order`), and that absent keys miss.
void ExpectSame(const FlatKeyMap<Agg>& map,
                const std::unordered_map<uint64_t, Agg>& oracle,
                const std::vector<uint64_t>& order) {
  ASSERT_EQ(map.size(), oracle.size());
  EXPECT_EQ(map.empty(), oracle.empty());
  size_t i = 0;
  for (const auto& [key, value] : map) {
    ASSERT_LT(i, order.size());
    EXPECT_EQ(key, order[i]);
    const auto it = oracle.find(key);
    ASSERT_NE(it, oracle.end());
    EXPECT_EQ(value.count, it->second.count);
    EXPECT_EQ(value.sum, it->second.sum);
    ++i;
  }
  EXPECT_EQ(i, order.size());
  for (const auto& [key, value] : oracle) {
    const Agg* found = map.Find(key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->count, value.count);
  }
  std::vector<uint64_t> keys;
  map.AppendKeys(&keys);
  EXPECT_EQ(keys, order);
}

TEST(FlatKeyMapTest, RandomOperationsMatchUnorderedMap) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    FlatKeyMap<Agg> map;
    std::unordered_map<uint64_t, Agg> oracle;
    std::vector<uint64_t> order;
    // Key spaces from dense to sparse, so lookups both hit and miss.
    const uint64_t space = uint64_t{1} << rng.NextInt(2, 40);
    for (int op = 0; op < 4000; ++op) {
      const uint64_t key = rng.NextUint64() % space;
      const int64_t what = rng.NextInt(0, 99);
      if (what < 60) {
        const double v = rng.NextDouble();
        const auto [agg, inserted] = map.TryEmplace(key);
        const auto [it, oracle_inserted] = oracle.try_emplace(key);
        ASSERT_EQ(inserted, oracle_inserted);
        if (inserted) order.push_back(key);
        ++agg->count;
        agg->sum += v;
        ++it->second.count;
        it->second.sum += v;
      } else if (what < 70) {
        const Agg v{rng.NextInt(1, 9), rng.NextDouble()};
        const bool inserted = map.Insert(key, v);
        ASSERT_EQ(inserted, oracle.emplace(key, v).second);
        if (inserted) order.push_back(key);
      } else if (what < 99) {
        const Agg* found = map.Find(key);
        const auto it = oracle.find(key);
        ASSERT_EQ(found != nullptr, it != oracle.end());
        if (found != nullptr) {
          EXPECT_EQ(found->sum, it->second.sum);
        }
      } else {
        ExpectSame(map, oracle, order);
        map = FlatKeyMap<Agg>();
        oracle.clear();
        order.clear();
        EXPECT_EQ(map.Find(key), nullptr);
      }
    }
    ExpectSame(map, oracle, order);
  }
}

TEST(FlatKeyMapTest, GrowsAcrossSizes) {
  for (const size_t n : {size_t{1}, size_t{5}, size_t{6}, size_t{7},
                         size_t{100}, size_t{1000}, size_t{50000}}) {
    SCOPED_TRACE("n " + std::to_string(n));
    FlatKeyMap<Agg> map;
    std::unordered_map<uint64_t, Agg> oracle;
    std::vector<uint64_t> order;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = i * 7919;
      map.TryEmplace(key).first->count = static_cast<int64_t>(i);
      oracle[key].count = static_cast<int64_t>(i);
      order.push_back(key);
    }
    ExpectSame(map, oracle, order);
    // Reserve after the fact keeps every key reachable.
    map.Reserve(4 * n);
    ExpectSame(map, oracle, order);
  }
}

TEST(FlatKeyMapTest, EdgeAndStridedKeys) {
  FlatKeyMap<Agg> map;
  std::unordered_map<uint64_t, Agg> oracle;
  std::vector<uint64_t> order;
  std::vector<uint64_t> keys = {0, std::numeric_limits<uint64_t>::max(),
                                std::numeric_limits<uint64_t>::max() - 1, 1};
  // Strides that share every low bit (a power-of-two mask of the raw key
  // would put them all in one slot).
  for (uint64_t i = 1; i <= 2000; ++i) keys.push_back(i << 32);
  for (uint64_t i = 1; i <= 2000; ++i) keys.push_back(i * 1024);
  for (const uint64_t key : keys) {
    const auto [agg, inserted] = map.TryEmplace(key);
    ASSERT_TRUE(inserted);
    agg->sum = static_cast<double>(key % 1000);
    oracle[key].sum = static_cast<double>(key % 1000);
    order.push_back(key);
  }
  ExpectSame(map, oracle, order);
  for (const uint64_t key : keys) {
    EXPECT_FALSE(map.TryEmplace(key).second);
  }
  EXPECT_EQ(map.Find(2), nullptr);
  EXPECT_EQ(map.Find(uint64_t{2001} << 32), nullptr);
}

TEST(FlatKeyMapTest, EmptyMapFindsNothing) {
  const FlatKeyMap<Agg> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(0), nullptr);
  EXPECT_EQ(map.begin(), map.end());
}

}  // namespace
}  // namespace klink

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "cache/trigger_cache.h"
#include "core/trigger.h"

namespace tman {
namespace {

TriggerHandle MakeTrigger(TriggerId id) {
  auto t = std::make_shared<TriggerRuntime>();
  t->id = id;
  t->name = "t" + std::to_string(id);
  return t;
}

TEST(TriggerCacheTest, LoadsOnMissHitsAfter) {
  std::atomic<int> loads{0};
  TriggerCache cache(4, [&](TriggerId id) -> Result<TriggerHandle> {
    ++loads;
    return MakeTrigger(id);
  });
  auto h1 = cache.Pin(1);
  ASSERT_TRUE(h1.ok());
  EXPECT_EQ((*h1)->id, 1u);
  EXPECT_EQ(loads.load(), 1);
  auto h2 = cache.Pin(1);
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(loads.load(), 1);  // hit, no reload
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(TriggerCacheTest, LruEviction) {
  std::atomic<int> loads{0};
  TriggerCache cache(2, [&](TriggerId id) -> Result<TriggerHandle> {
    ++loads;
    return MakeTrigger(id);
  });
  ASSERT_TRUE(cache.Pin(1).ok());
  ASSERT_TRUE(cache.Pin(2).ok());
  ASSERT_TRUE(cache.Pin(3).ok());  // evicts 1 (LRU)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  ASSERT_TRUE(cache.Pin(2).ok());  // still resident
  EXPECT_EQ(loads.load(), 3);
  ASSERT_TRUE(cache.Pin(1).ok());  // reload
  EXPECT_EQ(loads.load(), 4);
}

TEST(TriggerCacheTest, ClockReplacesTheVictimInPlace) {
  // Each new entry takes its victim's ring slot and the hand moves past
  // it, so the next insert evicts an older entry, not the newest one.
  int loads = 0;
  TriggerCache cache(
      2,
      [&](TriggerId id) -> Result<TriggerHandle> {
        ++loads;
        return MakeTrigger(id);
      },
      /*num_shards=*/1);
  for (TriggerId id = 1; id <= 4; ++id) cache.Put(id, MakeTrigger(id));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  ASSERT_TRUE(cache.Pin(3).ok());
  ASSERT_TRUE(cache.Pin(4).ok());
  EXPECT_EQ(loads, 0);  // resident set {3, 4}
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(TriggerCacheTest, TouchOnHitProtectsFromEviction) {
  TriggerCache cache(2, [&](TriggerId id) -> Result<TriggerHandle> {
    return MakeTrigger(id);
  });
  ASSERT_TRUE(cache.Pin(1).ok());
  ASSERT_TRUE(cache.Pin(2).ok());
  ASSERT_TRUE(cache.Pin(1).ok());  // 1 becomes MRU
  ASSERT_TRUE(cache.Pin(3).ok());  // evicts 2, not 1
  EXPECT_EQ(cache.stats().misses, 3u);
  ASSERT_TRUE(cache.Pin(1).ok());
  EXPECT_EQ(cache.stats().misses, 3u);  // 1 still cached
}

TEST(TriggerCacheTest, EvictedButPinnedHandleStaysAlive) {
  TriggerCache cache(1, [&](TriggerId id) -> Result<TriggerHandle> {
    return MakeTrigger(id);
  });
  auto pinned = cache.Pin(1);
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(cache.Pin(2).ok());  // evicts 1's slot
  EXPECT_EQ(cache.size(), 1u);
  // The shared_ptr pin keeps the description valid.
  EXPECT_EQ((*pinned)->name, "t1");
}

TEST(TriggerCacheTest, PutSeedsWithoutLoader) {
  std::atomic<int> loads{0};
  TriggerCache cache(4, [&](TriggerId id) -> Result<TriggerHandle> {
    ++loads;
    return MakeTrigger(id);
  });
  cache.Put(9, MakeTrigger(9));
  ASSERT_TRUE(cache.Pin(9).ok());
  EXPECT_EQ(loads.load(), 0);
}

TEST(TriggerCacheTest, InvalidateForcesReload) {
  std::atomic<int> loads{0};
  TriggerCache cache(4, [&](TriggerId id) -> Result<TriggerHandle> {
    ++loads;
    return MakeTrigger(id);
  });
  ASSERT_TRUE(cache.Pin(5).ok());
  cache.Invalidate(5);
  ASSERT_TRUE(cache.Pin(5).ok());
  EXPECT_EQ(loads.load(), 2);
  cache.Invalidate(12345);  // unknown id: no-op
}

TEST(TriggerCacheTest, LoaderFailurePropagates) {
  TriggerCache cache(4, [&](TriggerId) -> Result<TriggerHandle> {
    return Status::NotFound("gone");
  });
  auto r = cache.Pin(1);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(cache.stats().loads_failed, 1u);
}

TEST(TriggerCacheTest, ClearEmptiesEverything) {
  TriggerCache cache(4, [&](TriggerId id) -> Result<TriggerHandle> {
    return MakeTrigger(id);
  });
  ASSERT_TRUE(cache.Pin(1).ok());
  ASSERT_TRUE(cache.Pin(2).ok());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TriggerCacheTest, ConcurrentPinsAreSafe) {
  std::atomic<int> loads{0};
  TriggerCache cache(8, [&](TriggerId id) -> Result<TriggerHandle> {
    ++loads;
    std::this_thread::yield();
    return MakeTrigger(id);
  });
  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, &errors, t] {
      for (int i = 0; i < 500; ++i) {
        auto h = cache.Pin(static_cast<TriggerId>((i + t) % 16));
        if (!h.ok() || (*h)->id != static_cast<TriggerId>((i + t) % 16)) {
          ++errors;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(cache.size(), 8u);  // at capacity
}

TEST(TriggerCacheTest, ShardCountScalesWithCapacityButNeverExceedsIt) {
  TriggerCache tiny(4, [](TriggerId id) -> Result<TriggerHandle> {
    return MakeTrigger(id);
  });
  EXPECT_EQ(tiny.num_shards(), 1u);  // small caches stay one CLOCK ring
  TriggerCache big(16384, [](TriggerId id) -> Result<TriggerHandle> {
    return MakeTrigger(id);
  });
  EXPECT_GE(big.num_shards(), 2u);
  EXPECT_LE(big.num_shards(), 16u);
  TriggerCache forced(100, [](TriggerId id) -> Result<TriggerHandle> {
    return MakeTrigger(id);
  }, /*num_shards=*/8);
  EXPECT_EQ(forced.num_shards(), 8u);
}

TEST(TriggerCacheTest, ConcurrentHammerPinPutInvalidateClear) {
  // Hammer every mutating entry point from many threads at once; under
  // the asan/tsan presets this is the shard-locking proof.
  std::atomic<int> loads{0};
  TriggerCache cache(32, [&](TriggerId id) -> Result<TriggerHandle> {
    ++loads;
    std::this_thread::yield();
    return MakeTrigger(id);
  }, /*num_shards=*/4);
  constexpr int kIds = 128;
  std::atomic<int> errors{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, &errors, t] {
      for (int i = 0; i < 2000; ++i) {
        TriggerId id = static_cast<TriggerId>((i * 7 + t * 13) % kIds);
        auto h = cache.Pin(id);
        if (!h.ok() || (*h)->id != id) ++errors;
      }
    });
  }
  threads.emplace_back([&cache, &stop] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      cache.Put(static_cast<TriggerId>(i % kIds),
                MakeTrigger(static_cast<TriggerId>(i % kIds)));
      cache.Invalidate(static_cast<TriggerId>((i + 3) % kIds));
      if (++i % 512 == 0) cache.Clear();
    }
  });
  for (int t = 0; t < 4; ++t) threads[t].join();
  stop = true;
  threads.back().join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_LE(cache.size(), 32u);  // per-shard CLOCK keeps the bound
  // Every Pin counts exactly one hit or one miss, even when racing the
  // mutator thread (Put/Invalidate/Clear touch no counters).
  auto st = cache.stats();
  EXPECT_EQ(st.hits + st.misses, 4u * 2000u);
}

TEST(TriggerCacheTest, PinnedHandlesSurviveConcurrentEviction) {
  TriggerCache cache(4, [&](TriggerId id) -> Result<TriggerHandle> {
    return MakeTrigger(id);
  }, /*num_shards=*/1);
  // Pin a handle, then thrash the cache far past capacity from other
  // threads; the pinned description must stay valid throughout.
  auto pinned = cache.Pin(999);
  ASSERT_TRUE(pinned.ok());
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 1000; ++i) {
        (void)cache.Pin(static_cast<TriggerId>(t * 1000 + i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ((*pinned)->id, 999u);
  EXPECT_EQ((*pinned)->name, "t999");
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_LE(cache.size(), 4u);
}

TEST(TriggerCacheTest, StatsConsistentUnderConcurrency) {
  TriggerCache cache(64, [&](TriggerId id) -> Result<TriggerHandle> {
    return MakeTrigger(id);
  }, /*num_shards=*/4);
  constexpr int kThreads = 4;
  constexpr int kPins = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache] {
      for (int i = 0; i < kPins; ++i) {
        (void)cache.Pin(static_cast<TriggerId>(i % 32));
      }
    });
  }
  for (auto& th : threads) th.join();
  auto st = cache.stats();
  // Every pin is exactly one hit or one miss.
  EXPECT_EQ(st.hits + st.misses,
            static_cast<uint64_t>(kThreads) * kPins);
  EXPECT_EQ(st.loads_failed, 0u);
  EXPECT_EQ(cache.size(), 32u);
}

TEST(TriggerCacheTest, CacheSizedToItsPopulationNeverEvicts) {
  // Capacity bounds the whole cache: however unevenly the ids hash to
  // the shards, N distinct ids fit a cache of capacity N.
  constexpr size_t kIds = 4096;
  TriggerCache cache(kIds, [](TriggerId id) -> Result<TriggerHandle> {
    return MakeTrigger(id);
  });
  ASSERT_GE(cache.num_shards(), 2u);
  for (int round = 0; round < 2; ++round) {
    for (TriggerId id = 1; id <= kIds; ++id) ASSERT_TRUE(cache.Pin(id).ok());
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().misses, kIds);
  EXPECT_EQ(cache.stats().hits, kIds);
  EXPECT_EQ(cache.size(), kIds);
  // One more id fills no shard beyond the whole cache's capacity.
  ASSERT_TRUE(cache.Pin(kIds + 1).ok());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), kIds);
}

TEST(TriggerCacheTest, PaperSizingExample) {
  // §5.1: with 4 KB per description and a 64 MB cache, 16,384 trigger
  // descriptions fit simultaneously.
  constexpr size_t kCacheBytes = 64ull << 20;
  constexpr size_t kPerTrigger = 4096;
  TriggerCache cache(kCacheBytes / kPerTrigger,
                     [&](TriggerId id) -> Result<TriggerHandle> {
                       return MakeTrigger(id);
                     });
  EXPECT_EQ(cache.capacity(), 16384u);
}

}  // namespace
}  // namespace tman

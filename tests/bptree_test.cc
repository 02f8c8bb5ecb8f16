#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "storage/bptree.h"
#include "util/random.h"

namespace tman {
namespace {

class BPTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_unique<DiskManager>();
    pool_ = std::make_unique<BufferPool>(disk_.get(), 256);
    auto meta = BPTree::Create(pool_.get());
    ASSERT_TRUE(meta.ok());
    meta_ = *meta;
    tree_ = std::make_unique<BPTree>(pool_.get(), meta_);
  }

  static std::vector<Value> IntKey(int64_t k) { return {Value::Int(k)}; }
  static Rid MakeRid(uint32_t p, uint16_t s) { return Rid{p, s}; }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BPTree> tree_;
  PageId meta_ = kInvalidPageId;
};

TEST_F(BPTreeTest, InsertAndSearchEqual) {
  ASSERT_TRUE(tree_->Insert(IntKey(5), MakeRid(1, 1)).ok());
  ASSERT_TRUE(tree_->Insert(IntKey(7), MakeRid(2, 2)).ok());
  auto r = tree_->SearchEqual(IntKey(5));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0], MakeRid(1, 1));
  EXPECT_TRUE(tree_->SearchEqual(IntKey(6))->empty());
}

TEST_F(BPTreeTest, RootIsCachedAcrossSplitsAndReopen) {
  // 200-byte keys split nodes after ~18 entries, so a few hundred keys
  // grow the tree through two root splits. The keys sort as strings:
  // wide_key(0) is the first entry of the leftmost leaf, so its lookup
  // touches exactly one node per level.
  auto wide_key = [](int64_t k) {
    return std::vector<Value>{
        Value::String(std::string(200, 'k') + std::to_string(k))};
  };
  auto fetches = [&] {
    BufferPoolStats st = pool_->stats();
    return st.hits + st.misses;
  };
  int64_t n = 0;
  uint32_t height = 1;
  while (height < 3) {
    ASSERT_TRUE(
        tree_->Insert(wide_key(n), MakeRid(1, static_cast<uint16_t>(n))).ok());
    ++n;
    height = *tree_->Height();
  }
  for (int64_t k = 0; k < n; k += 7) {
    ASSERT_EQ(tree_->SearchEqual(wide_key(k))->size(), 1u) << k;
  }
  pool_->ResetStats();
  ASSERT_EQ(tree_->SearchEqual(wide_key(0))->size(), 1u);
  EXPECT_EQ(fetches(), height);

  // A fresh tree over a cold pool reads the meta page once, then never.
  ASSERT_TRUE(pool_->FlushAll().ok());
  tree_.reset();
  pool_ = std::make_unique<BufferPool>(disk_.get(), 256);
  tree_ = std::make_unique<BPTree>(pool_.get(), meta_);
  ASSERT_EQ(tree_->SearchEqual(wide_key(0))->size(), 1u);
  EXPECT_EQ(fetches(), height + 1);
  pool_->ResetStats();
  ASSERT_EQ(tree_->SearchEqual(wide_key(0))->size(), 1u);
  EXPECT_EQ(fetches(), height);
  EXPECT_EQ(*tree_->Height(), height);
  for (int64_t k = 0; k < n; ++k) {
    ASSERT_EQ(tree_->SearchEqual(wide_key(k))->size(), 1u) << k;
  }
}

TEST_F(BPTreeTest, DuplicateKeysAllRidsReturned) {
  for (uint16_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(tree_->Insert(IntKey(42), MakeRid(1, i)).ok());
  }
  auto r = tree_->SearchEqual(IntKey(42));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 50u);
}

TEST_F(BPTreeTest, DuplicateKeyRidPairIdempotent) {
  ASSERT_TRUE(tree_->Insert(IntKey(1), MakeRid(9, 9)).ok());
  ASSERT_TRUE(tree_->Insert(IntKey(1), MakeRid(9, 9)).ok());
  EXPECT_EQ(tree_->SearchEqual(IntKey(1))->size(), 1u);
}

TEST_F(BPTreeTest, DeleteRemovesOneEntry) {
  ASSERT_TRUE(tree_->Insert(IntKey(1), MakeRid(1, 1)).ok());
  ASSERT_TRUE(tree_->Insert(IntKey(1), MakeRid(1, 2)).ok());
  ASSERT_TRUE(tree_->Delete(IntKey(1), MakeRid(1, 1)).ok());
  auto r = tree_->SearchEqual(IntKey(1));
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0], MakeRid(1, 2));
  EXPECT_FALSE(tree_->Delete(IntKey(1), MakeRid(1, 1)).ok());
}

TEST_F(BPTreeTest, SplitsGrowTheTree) {
  for (int64_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(tree_->Insert(IntKey(i), MakeRid(0, 0)).ok())
        << "insert " << i;
  }
  auto height = tree_->Height();
  ASSERT_TRUE(height.ok());
  EXPECT_GE(*height, 2u);
  EXPECT_EQ(*tree_->NumEntries(), 5000u);
  // Every key still findable after all the splits.
  for (int64_t i = 0; i < 5000; i += 97) {
    EXPECT_EQ(tree_->SearchEqual(IntKey(i))->size(), 1u) << "key " << i;
  }
}

TEST_F(BPTreeTest, DeletedSpaceIsReusedWithoutSplitting) {
  // An int key entry is 21 bytes (klen 2 + key 13 + rid 6) plus a 4-byte
  // slot, so a 4096-byte leaf with its 12-byte header holds 163 of them.
  constexpr int64_t kFull = 163;
  for (int64_t i = 0; i < kFull; ++i) {
    ASSERT_TRUE(tree_->Insert(IntKey(2 * i), MakeRid(0, 0)).ok());
  }
  ASSERT_EQ(*tree_->Height(), 1u);
  const uint64_t pages = disk_->num_pages();
  // Delete every other entry, then refill to the same count: the holes
  // must be compacted into room, not trigger a split.
  for (int64_t i = 0; i < kFull; i += 2) {
    ASSERT_TRUE(tree_->Delete(IntKey(2 * i), MakeRid(0, 0)).ok());
  }
  for (int64_t i = 0; i < kFull; i += 2) {
    ASSERT_TRUE(tree_->Insert(IntKey(2 * i + 1), MakeRid(0, 0)).ok());
  }
  EXPECT_EQ(*tree_->Height(), 1u);
  EXPECT_EQ(disk_->num_pages(), pages);
  EXPECT_EQ(*tree_->NumEntries(), static_cast<uint64_t>(kFull));
  // One more entry no longer fits: the leaf splits.
  ASSERT_TRUE(tree_->Insert(IntKey(-1), MakeRid(0, 0)).ok());
  EXPECT_EQ(*tree_->Height(), 2u);
}

TEST_F(BPTreeTest, RangeScanInclusiveExclusive) {
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree_->Insert(IntKey(i), MakeRid(0, 0)).ok());
  }
  std::vector<int64_t> seen;
  auto collect = [&seen](const std::vector<Value>& key, const Rid&) {
    seen.push_back(key[0].as_int());
    return true;
  };
  ASSERT_TRUE(tree_->SearchRange(IntKey(10), true, IntKey(15), true, collect)
                  .ok());
  EXPECT_EQ(seen, (std::vector<int64_t>{10, 11, 12, 13, 14, 15}));

  seen.clear();
  ASSERT_TRUE(tree_->SearchRange(IntKey(10), false, IntKey(15), false,
                                 collect)
                  .ok());
  EXPECT_EQ(seen, (std::vector<int64_t>{11, 12, 13, 14}));
}

TEST_F(BPTreeTest, OpenEndedRanges) {
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(tree_->Insert(IntKey(i), MakeRid(0, 0)).ok());
  }
  int64_t count = 0;
  ASSERT_TRUE(tree_->SearchRange(std::nullopt, true, IntKey(4), true,
                                 [&](const auto&, const Rid&) {
                                   ++count;
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(count, 5);
  count = 0;
  ASSERT_TRUE(tree_->SearchRange(IntKey(15), true, std::nullopt, true,
                                 [&](const auto&, const Rid&) {
                                   ++count;
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(count, 5);
}

TEST_F(BPTreeTest, CompositeAndStringKeys) {
  std::vector<Value> k1{Value::String("boston"), Value::Int(2)};
  std::vector<Value> k2{Value::String("boston"), Value::Int(3)};
  std::vector<Value> k3{Value::String("austin"), Value::Int(9)};
  ASSERT_TRUE(tree_->Insert(k1, MakeRid(1, 1)).ok());
  ASSERT_TRUE(tree_->Insert(k2, MakeRid(2, 2)).ok());
  ASSERT_TRUE(tree_->Insert(k3, MakeRid(3, 3)).ok());
  EXPECT_EQ(tree_->SearchEqual(k1)->size(), 1u);
  EXPECT_EQ(tree_->SearchEqual(k2)->size(), 1u);
  // Full scan yields keys in lexicographic order.
  std::vector<std::string> cities;
  ASSERT_TRUE(tree_->ScanAll([&](const std::vector<Value>& k, const Rid&) {
                 cities.push_back(k[0].as_string());
                 return true;
               }).ok());
  EXPECT_EQ(cities,
            (std::vector<std::string>{"austin", "boston", "boston"}));
}

TEST_F(BPTreeTest, RandomizedAgainstStdMultimap) {
  Random rng(77);
  std::multimap<int64_t, Rid> model;
  for (int step = 0; step < 8000; ++step) {
    int64_t key = static_cast<int64_t>(rng.Uniform(500));
    if (rng.NextDouble() < 0.7 || model.empty()) {
      Rid rid = MakeRid(static_cast<uint32_t>(rng.Uniform(1000)),
                        static_cast<uint16_t>(rng.Uniform(100)));
      // Skip if (key,rid) already present (tree is idempotent there).
      bool dup = false;
      auto range = model.equal_range(key);
      for (auto it = range.first; it != range.second; ++it) {
        if (it->second == rid) dup = true;
      }
      ASSERT_TRUE(tree_->Insert({Value::Int(key)}, rid).ok());
      if (!dup) model.emplace(key, rid);
    } else {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.Uniform(model.size())));
      ASSERT_TRUE(tree_->Delete({Value::Int(it->first)}, it->second).ok());
      model.erase(it);
    }
  }
  EXPECT_EQ(*tree_->NumEntries(), model.size());
  // Spot-check equality lookups for every key bucket.
  for (int64_t key = 0; key < 500; ++key) {
    auto r = tree_->SearchEqual({Value::Int(key)});
    ASSERT_TRUE(r.ok());
    std::set<std::string> got, want;
    for (const Rid& rid : *r) got.insert(rid.ToString());
    auto range = model.equal_range(key);
    for (auto it = range.first; it != range.second; ++it) {
      want.insert(it->second.ToString());
    }
    EXPECT_EQ(got, want) << "key " << key;
  }
}

TEST_F(BPTreeTest, OversizedKeyRejected) {
  std::vector<Value> key{Value::String(std::string(2000, 'k'))};
  EXPECT_FALSE(tree_->Insert(key, MakeRid(0, 0)).ok());
}

TEST_F(BPTreeTest, ScanStopsEarly) {
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree_->Insert(IntKey(i), MakeRid(0, 0)).ok());
  }
  int count = 0;
  ASSERT_TRUE(tree_->ScanAll([&](const auto&, const Rid&) {
                 return ++count < 10;
               }).ok());
  EXPECT_EQ(count, 10);
}

// ---- Mixed-type randomized oracle ----------------------------------------
//
// Keys mix encodings whose order ties or nests: NULL, ints and floats of
// equal value (2 and 2.0 are one key), the empty string, strings sharing a
// long prefix, and 1-3 columns so that a key can be a prefix of another.
// The long prefix makes entries large, so the tree grows to height 3 and
// every node edit (in-place insert, delete hole, compaction, leaf and
// internal split) runs many times.

std::vector<Value> MixedKey(Random& rng) {
  std::vector<Value> key;
  const uint64_t cols = 1 + rng.Uniform(3);
  for (uint64_t c = 0; c < cols; ++c) {
    switch (rng.Uniform(5)) {
      case 0:
        key.push_back(Value::Null());
        break;
      case 1:
        key.push_back(Value::Int(static_cast<int64_t>(rng.Uniform(6)) - 2));
        break;
      case 2:  // halves: some equal an int key, some fall between two
        key.push_back(
            Value::Float((static_cast<double>(rng.Uniform(12)) - 4) / 2));
        break;
      case 3: {
        std::string s(rng.Uniform(2) == 0 ? 0 : 120, 'p');
        s.append(rng.Uniform(3), static_cast<char>('a' + rng.Uniform(2)));
        key.push_back(Value::String(std::move(s)));
        break;
      }
      default:
        key.push_back(Value::String(""));
        break;
    }
  }
  return key;
}

// The same key with every int spelled as a float (2 -> 2.0).
std::vector<Value> AsFloats(std::vector<Value> key) {
  for (Value& v : key) {
    if (v.is_int()) v = Value::Float(static_cast<double>(v.as_int()));
  }
  return key;
}

struct ModelEntry {
  std::vector<Value> key;
  Rid rid;
};

int CompareToModel(const ModelEntry& e, const std::vector<Value>& key,
                   const Rid& rid) {
  int c = CompareValues(e.key, key);
  if (c != 0) return c;
  if (e.rid == rid) return 0;
  return e.rid < rid ? -1 : 1;
}

// Entries in CompareValues-then-rid order; (key, rid) pairs are unique.
class TreeModel {
 public:
  // False when an equal (key, rid) is already present.
  bool Insert(const std::vector<Value>& key, const Rid& rid) {
    auto it = Find(key, rid);
    if (it != entries_.end() && CompareToModel(*it, key, rid) == 0) {
      return false;
    }
    entries_.insert(it, ModelEntry{key, rid});
    return true;
  }
  bool Erase(const std::vector<Value>& key, const Rid& rid) {
    auto it = Find(key, rid);
    if (it == entries_.end() || CompareToModel(*it, key, rid) != 0) {
      return false;
    }
    entries_.erase(it);
    return true;
  }
  // Rids of the entries in the range, in order; absent bounds are open.
  std::vector<Rid> Range(const std::vector<Value>* lo, bool lo_inclusive,
                         const std::vector<Value>* hi,
                         bool hi_inclusive) const {
    std::vector<Rid> out;
    for (const ModelEntry& e : entries_) {
      if (lo != nullptr) {
        int c = CompareValues(e.key, *lo);
        if (c < 0 || (c == 0 && !lo_inclusive)) continue;
      }
      if (hi != nullptr) {
        int c = CompareValues(e.key, *hi);
        if (c > 0 || (c == 0 && !hi_inclusive)) continue;
      }
      out.push_back(e.rid);
    }
    return out;
  }
  const std::vector<ModelEntry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }

 private:
  std::vector<ModelEntry>::iterator Find(const std::vector<Value>& key,
                                         const Rid& rid) {
    return std::lower_bound(entries_.begin(), entries_.end(), 0,
                            [&](const ModelEntry& e, int) {
                              return CompareToModel(e, key, rid) < 0;
                            });
  }

  std::vector<ModelEntry> entries_;
};

// Checks ScanAll order, SearchEqual and SearchRange (inclusive and
// exclusive, open and closed bounds) against the model.
void ExpectTreeMatchesModel(const BPTree& tree, const TreeModel& model,
                            Random& rng) {
  std::vector<ModelEntry> scanned;
  ASSERT_TRUE(tree.ScanAll([&](const std::vector<Value>& key, const Rid& r) {
                    scanned.push_back(ModelEntry{key, r});
                    return true;
                  }).ok());
  ASSERT_EQ(scanned.size(), model.entries().size());
  for (size_t i = 0; i < scanned.size(); ++i) {
    const ModelEntry& want = model.entries()[i];
    ASSERT_EQ(CompareToModel(scanned[i], want.key, want.rid), 0)
        << "scan position " << i << ": " << ValuesToString(scanned[i].key)
        << " vs " << ValuesToString(want.key);
  }
  EXPECT_EQ(*tree.NumEntries(), model.entries().size());

  auto tree_range = [&](const std::vector<Value>* lo, bool lo_inc,
                        const std::vector<Value>* hi, bool hi_inc) {
    std::vector<Rid> out;
    std::optional<std::vector<Value>> olo, ohi;
    if (lo != nullptr) olo = *lo;
    if (hi != nullptr) ohi = *hi;
    EXPECT_TRUE(tree.SearchRange(olo, lo_inc, ohi, hi_inc,
                                 [&](const std::vector<Value>&, const Rid& r) {
                                   out.push_back(r);
                                   return true;
                                 })
                    .ok());
    return out;
  };
  for (int probe = 0; probe < 40; ++probe) {
    std::vector<Value> key = MixedKey(rng);
    if (!model.empty() && rng.Uniform(2) == 0) {
      key = model.entries()[rng.Uniform(model.entries().size())].key;
    }
    std::vector<Rid> want = model.Range(&key, true, &key, true);
    auto got = tree.SearchEqual(key);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, want) << ValuesToString(key);
    EXPECT_EQ(*tree.SearchEqual(AsFloats(key)), want) << ValuesToString(key);

    std::vector<Value> other = MixedKey(rng);
    const std::vector<Value>& lo =
        CompareValues(key, other) <= 0 ? key : other;
    const std::vector<Value>& hi =
        CompareValues(key, other) <= 0 ? other : key;
    for (int flags = 0; flags < 4; ++flags) {
      bool lo_inc = (flags & 1) != 0;
      bool hi_inc = (flags & 2) != 0;
      EXPECT_EQ(tree_range(&lo, lo_inc, &hi, hi_inc),
                model.Range(&lo, lo_inc, &hi, hi_inc))
          << ValuesToString(lo) << (lo_inc ? " [" : " (")
          << ValuesToString(hi) << (hi_inc ? "]" : ")");
    }
    const bool inc = rng.Uniform(2) == 0;
    EXPECT_EQ(tree_range(nullptr, true, &hi, inc),
              model.Range(nullptr, true, &hi, inc));
    EXPECT_EQ(tree_range(&lo, inc, nullptr, true),
              model.Range(&lo, inc, nullptr, true));
  }
}

TEST_F(BPTreeTest, MixedTypeKeysMatchSortedModelAcrossEditsAndReopen) {
  Random rng(2024);
  TreeModel model;
  for (int step = 0; step < 8000; ++step) {
    if (rng.Uniform(100) < 70 || model.empty()) {
      std::vector<Value> key = MixedKey(rng);
      Rid rid = MakeRid(static_cast<uint32_t>(rng.Uniform(40)),
                        static_cast<uint16_t>(rng.Uniform(4)));
      ASSERT_TRUE(tree_->Insert(key, rid).ok());
      model.Insert(key, rid);
    } else if (rng.Uniform(10) == 0) {
      // A (key, rid) that may be absent: NotFound exactly when the model
      // has no equal entry.
      std::vector<Value> key = MixedKey(rng);
      Rid rid = MakeRid(static_cast<uint32_t>(rng.Uniform(40)), 0);
      bool present = model.Erase(key, rid);
      EXPECT_EQ(tree_->Delete(key, rid).ok(), present);
    } else {
      const ModelEntry e = model.entries()[rng.Uniform(model.entries().size())];
      // Delete through an equal key spelled differently half the time.
      std::vector<Value> key = rng.Uniform(2) == 0 ? AsFloats(e.key) : e.key;
      ASSERT_TRUE(tree_->Delete(key, e.rid).ok()) << ValuesToString(e.key);
      ASSERT_TRUE(model.Erase(e.key, e.rid));
    }
    if (step % 2000 == 1999) {
      ASSERT_NO_FATAL_FAILURE(ExpectTreeMatchesModel(*tree_, model, rng));
    }
  }
  auto height = tree_->Height();
  ASSERT_TRUE(height.ok());
  EXPECT_GE(*height, 3u);  // internal nodes split too

  // Reopen from the metadata page over a cold buffer pool.
  ASSERT_TRUE(pool_->FlushAll().ok());
  BufferPool cold(disk_.get(), 16);
  BPTree reopened(&cold, meta_);
  EXPECT_EQ(*reopened.Height(), *height);
  ASSERT_NO_FATAL_FAILURE(ExpectTreeMatchesModel(reopened, model, rng));
}

TEST_F(BPTreeTest, ReadersSeeStableKeysWhileWriterEdits) {
  // Even keys are stable, one rid each; the writer churns odd keys between
  // them, splitting and compacting the very leaves the readers probe.
  constexpr int64_t kStable = 200;
  for (int64_t i = 0; i < kStable; ++i) {
    ASSERT_TRUE(
        tree_->Insert(IntKey(2 * i), MakeRid(static_cast<uint32_t>(i), 1))
            .ok());
  }
  std::atomic<bool> writer_done{false};
  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  for (uint64_t t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Random rng(t + 1);
      for (int reads = 0; !writer_done.load() || reads < 200; ++reads) {
        int64_t i = static_cast<int64_t>(rng.Uniform(kStable));
        auto r = tree_->SearchEqual(IntKey(2 * i));
        if (!r.ok() || r->size() != 1 ||
            !((*r)[0] == MakeRid(static_cast<uint32_t>(i), 1))) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  Random rng(99);
  std::vector<std::pair<int64_t, Rid>> churn;
  for (int step = 0; step < 3000; ++step) {
    if (rng.Uniform(3) != 0 || churn.empty()) {
      int64_t key = 2 * static_cast<int64_t>(rng.Uniform(kStable)) + 1;
      Rid rid = MakeRid(static_cast<uint32_t>(step), 2);
      ASSERT_TRUE(tree_->Insert(IntKey(key), rid).ok());
      churn.emplace_back(key, rid);
    } else {
      size_t victim = rng.Uniform(churn.size());
      ASSERT_TRUE(
          tree_->Delete(IntKey(churn[victim].first), churn[victim].second)
              .ok());
      churn[victim] = churn.back();
      churn.pop_back();
    }
  }
  writer_done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(*tree_->NumEntries(), static_cast<uint64_t>(kStable) + churn.size());
}

}  // namespace
}  // namespace tman

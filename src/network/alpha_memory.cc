#include "network/alpha_memory.h"

#include "util/hash.h"

namespace tman {

const AlphaMemory::Index* AlphaMemory::FindIndex(size_t field) const {
  for (const auto& [f, index] : indexes_) {
    if (f == field) return &index;
  }
  return nullptr;
}

void AlphaMemory::IndexSlot(Index* index, size_t field, size_t slot) const {
  const Tuple& tuple = slots_[slot]->tuple;
  if (field < tuple.size()) index->emplace(tuple.at(field).Hash(), slot);
}

void AlphaMemory::Insert(const Tuple& tuple) {
  auto row = std::make_shared<AlphaRow>(AlphaRow{tuple, 0});  // copy unlocked
  std::unique_lock lock(mutex_);
  row->seq = next_seq_++;
  size_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(row);
  } else {
    slot = slots_.size();
    slots_.push_back(std::move(row));
  }
  ++live_;
  for (auto& [field, index] : indexes_) IndexSlot(&index, field, slot);
}

bool AlphaMemory::Remove(const Tuple& tuple) {
  std::unique_lock lock(mutex_);
  // The newest equal row, found through an index when one covers the
  // tuple, otherwise by scan.
  size_t found = slots_.size();
  auto consider = [&](size_t slot) {
    const auto& row = slots_[slot];
    if (row == nullptr || !(row->tuple == tuple)) return;
    if (found == slots_.size() || row->seq > slots_[found]->seq) found = slot;
  };
  const std::pair<size_t, Index>* via = nullptr;
  for (const auto& entry : indexes_) {
    if (entry.first < tuple.size()) {
      via = &entry;
      break;
    }
  }
  if (via != nullptr) {
    auto range = via->second.equal_range(tuple.at(via->first).Hash());
    for (auto it = range.first; it != range.second; ++it) consider(it->second);
  } else {
    for (size_t i = 0; i < slots_.size(); ++i) consider(i);
  }
  if (found == slots_.size()) return false;
  for (auto& [field, index] : indexes_) {
    if (field >= tuple.size()) continue;
    auto range = index.equal_range(tuple.at(field).Hash());
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second == found) {
        index.erase(it);
        break;
      }
    }
  }
  slots_[found].reset();
  free_.push_back(found);
  --live_;
  return true;
}

uint64_t AlphaMemory::next_seq() const {
  std::shared_lock lock(mutex_);
  return next_seq_;
}

void AlphaMemory::AddIndex(size_t field) { BuildIndex(field); }

void AlphaMemory::BuildIndex(size_t field) const {
  std::unique_lock lock(mutex_);
  if (FindIndex(field) != nullptr) return;
  indexes_.emplace_back(field, Index());
  Index* index = &indexes_.back().second;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i] != nullptr) IndexSlot(index, field, i);
  }
}

void AlphaMemory::Snapshot(uint64_t since, RowSnapshot* out) const {
  std::shared_lock lock(mutex_);
  for (const auto& row : slots_) {
    if (row != nullptr && row->seq >= since) out->push_back(row);
  }
}

void AlphaMemory::SnapshotEqual(size_t field, const Value& value,
                                uint64_t since, RowSnapshot* out) const {
  std::shared_lock lock(mutex_);
  const Index* index = FindIndex(field);
  if (index == nullptr) {
    lock.unlock();
    BuildIndex(field);
    lock.lock();
    index = FindIndex(field);
  }
  auto range = index->equal_range(value.Hash());
  for (auto it = range.first; it != range.second; ++it) {
    const auto& row = slots_[it->second];
    if (row->seq >= since && field < row->tuple.size() &&
        row->tuple.at(field) == value) {
      out->push_back(row);
    }
  }
}

size_t AlphaMemory::size() const {
  std::shared_lock lock(mutex_);
  return live_;
}

size_t AlphaMemory::CountSince(uint64_t since) const {
  std::shared_lock lock(mutex_);
  size_t n = 0;
  for (const auto& row : slots_) {
    if (row != nullptr && row->seq >= since) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// AlphaMemoryRegistry
// ---------------------------------------------------------------------------

namespace {

uint64_t KeyHash(const AlphaMemoryKey& key) {
  uint64_t h = MixInt(key.source);
  h = HashCombine(h, key.sig_id);
  h = HashCombine(h, key.partition);
  return HashCombine(h, HashValues(key.constants));
}

/// Constants are the same when their types are: `cat = 3` and
/// `cat = 3.0` compare equal but stay apart, so no conversion rule can
/// make two selections share rows they would not both hold.
bool SameKey(const AlphaMemoryKey& a, const AlphaMemoryKey& b) {
  if (a.source != b.source || a.sig_id != b.sig_id ||
      a.partition != b.partition || a.constants.size() != b.constants.size()) {
    return false;
  }
  for (size_t i = 0; i < a.constants.size(); ++i) {
    if (a.constants[i].type() != b.constants[i].type() ||
        !(a.constants[i] == b.constants[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

AlphaMemoryRef AlphaMemoryRegistry::Attach(const AlphaMemoryKey& key) {
  const uint64_t hash = KeyHash(key);
  std::lock_guard<std::mutex> lock(mutex_);
  auto [begin, end] = by_key_.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    Entry& entry = entries_.at(it->second);
    if (SameKey(entry.key, key)) {
      ++entry.nodes;
      return AlphaMemoryRef{entry.memory, entry.memory->next_seq()};
    }
  }
  auto memory = std::make_shared<AlphaMemory>();
  by_key_.emplace(hash, memory.get());
  entries_.emplace(memory.get(), Entry{key, hash, memory, 1});
  return AlphaMemoryRef{std::move(memory), 0};
}

void AlphaMemoryRegistry::Detach(const AlphaMemoryRef& ref) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(ref.memory.get());
  if (it == entries_.end() || --it->second.nodes > 0) return;
  auto [begin, end] = by_key_.equal_range(it->second.hash);
  for (auto k = begin; k != end; ++k) {
    if (k->second == ref.memory.get()) {
      by_key_.erase(k);
      break;
    }
  }
  entries_.erase(it);
}

AlphaMemoryStats AlphaMemoryRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  AlphaMemoryStats st;
  st.memories = entries_.size();
  for (const auto& [memory, entry] : entries_) {
    st.rows += memory->size();
    st.nodes += entry.nodes;
  }
  return st;
}

}  // namespace tman

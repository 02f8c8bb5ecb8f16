#include "storage/bptree.h"

#include <cassert>
#include <cstring>

#include "types/tuple.h"

namespace tman {

namespace {

// Node layout:
//   [0]      u8  is_leaf
//   [2..4)   u16 slot_count
//   [4..6)   u16 data_start (lowest entry byte; the free gap ends here)
//   [6..10)  u32 next_leaf (leaf) / leftmost child (internal)
//   [12..)   slot array {u16 off, u16 len}, kept in key order
// Entries live in [data_start, kPageSize) in any physical order; deletes
// leave holes there that the next compaction reclaims.
// Entry bytes:
//   leaf:     [u16 klen][key bytes][rid: u32 page, u16 slot]
//   internal: [u16 klen][key bytes][rid: 6 bytes][child: u32]
// The (key, rid) pair is the total ordering; storing the rid makes every
// entry unique so duplicate user keys need no special casing.
constexpr size_t kNodeHeader = 12;
constexpr size_t kSlotSize = 4;
constexpr size_t kRidSize = 6;
constexpr size_t kMaxEntry = 1024;  // guarantees >= 3 entries per node

uint16_t GetU16(const char* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
void PutU16(char* p, uint16_t v) { std::memcpy(p, &v, 2); }
uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
void PutU32(char* p, uint32_t v) { std::memcpy(p, &v, 4); }

bool IsLeaf(const char* d) { return d[0] != 0; }
uint16_t SlotCount(const char* d) { return GetU16(d + 2); }
uint16_t DataStart(const char* d) { return GetU16(d + 4); }
PageId Link(const char* d) { return GetU32(d + 6); }
void SetLink(char* d, PageId v) { PutU32(d + 6, v); }

struct EntryView {
  std::string_view key;  // serialized tuple bytes
  Rid rid;
  PageId child = kInvalidPageId;  // internal nodes only
};

EntryView ParseEntry(std::string_view raw, bool is_leaf) {
  EntryView e;
  uint16_t klen = GetU16(raw.data());
  e.key = raw.substr(2, klen);
  const char* p = raw.data() + 2 + klen;
  e.rid.page_id = GetU32(p);
  e.rid.slot = GetU16(p + 4);
  if (!is_leaf) e.child = GetU32(p + kRidSize);
  return e;
}

std::string_view EntryRaw(const char* d, uint16_t slot) {
  const char* s = d + kNodeHeader + slot * kSlotSize;
  uint16_t off = GetU16(s);
  uint16_t len = GetU16(s + 2);
  return std::string_view(d + off, len);
}

size_t EntrySize(size_t key_len, bool is_leaf) {
  return 2 + key_len + kRidSize + (is_leaf ? 0 : 4);
}

void WriteEntry(char* out, std::string_view key_bytes, const Rid& rid,
                PageId child, bool is_leaf) {
  PutU16(out, static_cast<uint16_t>(key_bytes.size()));
  std::memcpy(out + 2, key_bytes.data(), key_bytes.size());
  char* p = out + 2 + key_bytes.size();
  PutU32(p, rid.page_id);
  PutU16(p + 4, rid.slot);
  if (!is_leaf) PutU32(p + kRidSize, child);
}

std::string MakeEntry(std::string_view key_bytes, const Rid& rid,
                      PageId child, bool is_leaf) {
  std::string out(EntrySize(key_bytes.size(), is_leaf), '\0');
  WriteEntry(out.data(), key_bytes, rid, child, is_leaf);
  return out;
}

std::string EncodeKey(const std::vector<Value>& key) {
  std::string out;
  Tuple(key).Serialize(&out);
  return out;
}

std::vector<Value> DecodeKey(std::string_view key_bytes) {
  size_t pos = 0;
  auto t = Tuple::Deserialize(key_bytes, &pos);
  assert(t.ok());
  return std::move(*t).values();
}

int CompareRid(const Rid& a, const Rid& b) {
  if (a.page_id != b.page_id) return a.page_id < b.page_id ? -1 : 1;
  if (a.slot != b.slot) return a.slot < b.slot ? -1 : 1;
  return 0;
}

/// (entry key, entry rid) vs (target key, target rid), comparing the
/// entry's encoded key bytes in place.
int CmpEntryToTarget(const EntryView& e, const std::vector<Value>& target_key,
                     const Rid& target_rid) {
  int c = Tuple::CompareSerialized(e.key, target_key);
  if (c != 0) return c;
  return CompareRid(e.rid, target_rid);
}

/// True when slot `pos` of leaf `d` exists and holds exactly (key, rid).
bool LeafHolds(const char* d, uint16_t pos, const std::vector<Value>& key,
               const Rid& rid) {
  return pos < SlotCount(d) &&
         CmpEntryToTarget(ParseEntry(EntryRaw(d, pos), true), key, rid) == 0;
}

constexpr Rid kMinRid{0, 0};
constexpr Rid kMaxRid{0xFFFFFFFEu, 0xFFFF};

/// Rewrites a node page from an ordered list of raw entries.
void RebuildNode(char* d, bool is_leaf, PageId link,
                 const std::vector<std::string>& entries) {
  std::memset(d, 0, kPageSize);
  d[0] = is_leaf ? 1 : 0;
  SetLink(d, link);
  uint16_t data_start = static_cast<uint16_t>(kPageSize);
  PutU16(d + 2, static_cast<uint16_t>(entries.size()));
  for (size_t i = 0; i < entries.size(); ++i) {
    data_start = static_cast<uint16_t>(data_start - entries[i].size());
    std::memcpy(d + data_start, entries[i].data(), entries[i].size());
    char* s = d + kNodeHeader + i * kSlotSize;
    PutU16(s, data_start);
    PutU16(s + 2, static_cast<uint16_t>(entries[i].size()));
  }
  PutU16(d + 4, data_start);
}

std::vector<std::string> CollectEntries(const char* d) {
  std::vector<std::string> out;
  uint16_t n = SlotCount(d);
  out.reserve(n + 1);
  for (uint16_t i = 0; i < n; ++i) out.emplace_back(EntryRaw(d, i));
  return out;
}

/// Bytes the node occupies without holes: header, slots and live entries.
size_t LiveSize(const char* d) {
  uint16_t n = SlotCount(d);
  size_t sz = kNodeHeader + n * kSlotSize;
  for (uint16_t i = 0; i < n; ++i) {
    sz += GetU16(d + kNodeHeader + i * kSlotSize + 2);
  }
  return sz;
}

/// Repacks the live entries at the page end in slot order — the layout
/// RebuildNode produces — reclaiming the holes deletes left.
void Compact(char* d) {
  char old[kPageSize];
  std::memcpy(old, d, kPageSize);
  const uint16_t n = SlotCount(d);
  size_t data_start = kPageSize;
  for (uint16_t i = 0; i < n; ++i) {
    std::string_view e = EntryRaw(old, i);
    data_start -= e.size();
    std::memcpy(d + data_start, e.data(), e.size());
    PutU16(d + kNodeHeader + i * kSlotSize, static_cast<uint16_t>(data_start));
  }
  const size_t slots_end = kNodeHeader + n * kSlotSize;
  std::memset(d + slots_end, 0, data_start - slots_end);
  PutU16(d + 4, static_cast<uint16_t>(data_start));
}

/// Inserts an entry at slot `pos`: written into the free gap when it fits
/// there, after a compaction when only the holes make room. Returns false,
/// leaving the node untouched, when even the compacted node cannot hold it
/// (the caller splits).
bool InsertInPlace(char* d, uint16_t pos, std::string_view key_bytes,
                   const Rid& rid, PageId child) {
  const bool leaf = IsLeaf(d);
  const size_t size = EntrySize(key_bytes.size(), leaf);
  const uint16_t n = SlotCount(d);
  if (DataStart(d) < kNodeHeader + (n + 1) * kSlotSize + size) {
    if (LiveSize(d) + kSlotSize + size > kPageSize) return false;
    Compact(d);
  }
  const uint16_t off = static_cast<uint16_t>(DataStart(d) - size);
  WriteEntry(d + off, key_bytes, rid, child, leaf);
  char* slot = d + kNodeHeader + pos * kSlotSize;
  std::memmove(slot + kSlotSize, slot, (n - pos) * kSlotSize);
  PutU16(slot, off);
  PutU16(slot + 2, static_cast<uint16_t>(size));
  PutU16(d + 2, static_cast<uint16_t>(n + 1));
  PutU16(d + 4, off);
  return true;
}

/// Drops slot `pos`; its entry bytes become a hole.
void RemoveSlot(char* d, uint16_t pos) {
  const uint16_t n = SlotCount(d);
  char* slot = d + kNodeHeader + pos * kSlotSize;
  std::memmove(slot, slot + kSlotSize, (n - pos - 1) * kSlotSize);
  PutU16(d + 2, static_cast<uint16_t>(n - 1));
}

/// Binary search: first slot whose (key, rid) >= target. Returns n if none.
uint16_t LowerBound(const char* d, const std::vector<Value>& key,
                    const Rid& rid) {
  bool leaf = IsLeaf(d);
  uint16_t lo = 0;
  uint16_t hi = SlotCount(d);
  while (lo < hi) {
    uint16_t mid = static_cast<uint16_t>((lo + hi) / 2);
    if (CmpEntryToTarget(ParseEntry(EntryRaw(d, mid), leaf), key, rid) < 0) {
      lo = static_cast<uint16_t>(mid + 1);
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// First slot whose (key, rid) > target. In internal nodes the target's
/// child is the entry *before* this position (a separator equal to the
/// target leads to its own child — separators are the first entry of the
/// right subtree, so equality belongs right).
uint16_t UpperBound(const char* d, const std::vector<Value>& key,
                    const Rid& rid) {
  bool leaf = IsLeaf(d);
  uint16_t lo = 0;
  uint16_t hi = SlotCount(d);
  while (lo < hi) {
    uint16_t mid = static_cast<uint16_t>((lo + hi) / 2);
    if (CmpEntryToTarget(ParseEntry(EntryRaw(d, mid), leaf), key, rid) <= 0) {
      lo = static_cast<uint16_t>(mid + 1);
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// The child of an internal node to the left of slot `pos` (its leftmost
/// child when `pos` is 0).
PageId ChildBefore(const char* d, uint16_t pos) {
  if (pos == 0) return Link(d);
  return ParseEntry(EntryRaw(d, pos - 1), /*is_leaf=*/false).child;
}

}  // namespace

BPTree::BPTree(BufferPool* pool, PageId meta_page)
    : pool_(pool), meta_page_(meta_page) {}

Result<PageId> BPTree::Create(BufferPool* pool) {
  PageGuard root;
  TMAN_RETURN_IF_ERROR(pool->NewPage(&root));
  RebuildNode(root.data(), /*is_leaf=*/true, kInvalidPageId, {});
  root.MarkDirty();

  PageGuard meta;
  TMAN_RETURN_IF_ERROR(pool->NewPage(&meta));
  PutU32(meta.data(), root.page_id());
  meta.MarkDirty();
  return meta.page_id();
}

Result<PageId> BPTree::Root() const {
  if (root_ == kInvalidPageId) {
    PageGuard meta;
    TMAN_RETURN_IF_ERROR(pool_->FetchPage(meta_page_, &meta));
    root_ = static_cast<PageId>(GetU32(meta.data()));
  }
  return root_;
}

Status BPTree::SetRoot(PageId root) {
  PageGuard meta;
  TMAN_RETURN_IF_ERROR(pool_->FetchPage(meta_page_, &meta));
  PutU32(meta.data(), root);
  meta.MarkDirty();
  root_ = root;
  return Status::OK();
}

Status BPTree::Insert(const std::vector<Value>& key, const Rid& rid) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string key_bytes = EncodeKey(key);
  if (key_bytes.size() + 2 + kRidSize + 4 > kMaxEntry) {
    return Status::NotSupported("index key too large (" +
                                std::to_string(key_bytes.size()) + " bytes)");
  }
  TMAN_ASSIGN_OR_RETURN(PageId root, Root());
  Promo promo;
  TMAN_RETURN_IF_ERROR(InsertRec(root, key_bytes, key, rid, &promo));
  if (promo.happened) {
    // Grow the tree: new root with the old root as leftmost child.
    PageGuard fresh;
    TMAN_RETURN_IF_ERROR(pool_->NewPage(&fresh));
    EntryView sep = ParseEntry(promo.sep, /*is_leaf=*/true);
    std::vector<std::string> entries;
    entries.push_back(
        MakeEntry(sep.key, sep.rid, promo.right, /*is_leaf=*/false));
    RebuildNode(fresh.data(), /*is_leaf=*/false, root, entries);
    fresh.MarkDirty();
    TMAN_RETURN_IF_ERROR(SetRoot(fresh.page_id()));
  }
  return Status::OK();
}

Status BPTree::InsertRec(PageId node, std::string_view key_bytes,
                         const std::vector<Value>& key, const Rid& rid,
                         Promo* promo) {
  PageGuard guard;
  TMAN_RETURN_IF_ERROR(pool_->FetchPage(node, &guard));
  const char* d = guard.data();

  if (IsLeaf(d)) {
    uint16_t pos = LowerBound(d, key, rid);
    if (LeafHolds(d, pos, key, rid)) {
      return Status::OK();  // idempotent duplicate (key, rid)
    }
    return InsertIntoNode(&guard, pos, key_bytes, rid, kInvalidPageId, promo);
  }

  // Internal node: descend into the child of the last separator <= key
  // (equality descends into the separator's own child). The guard stays
  // pinned across the recursion, so `d` stays valid.
  uint16_t pos = UpperBound(d, key, rid);
  Promo child_promo;
  TMAN_RETURN_IF_ERROR(
      InsertRec(ChildBefore(d, pos), key_bytes, key, rid, &child_promo));
  if (!child_promo.happened) return Status::OK();

  // The child's new right sibling starts with a key above the separator we
  // descended through and below the next one, so it lands at `pos`.
  EntryView sep = ParseEntry(child_promo.sep, /*is_leaf=*/true);
  assert(LowerBound(d, DecodeKey(sep.key), sep.rid) == pos);
  return InsertIntoNode(&guard, pos, sep.key, sep.rid, child_promo.right,
                        promo);
}

Status BPTree::InsertIntoNode(PageGuard* guard, uint16_t pos,
                              std::string_view key_bytes, const Rid& rid,
                              PageId child, Promo* promo) {
  char* d = guard->data();
  if (InsertInPlace(d, pos, key_bytes, rid, child)) {
    guard->MarkDirty();
    return Status::OK();
  }
  const bool leaf = IsLeaf(d);
  std::vector<std::string> entries = CollectEntries(d);
  entries.insert(entries.begin() + pos,
                 MakeEntry(key_bytes, rid, child, leaf));
  const size_t mid = entries.size() / 2;
  PageGuard rguard;
  TMAN_RETURN_IF_ERROR(pool_->NewPage(&rguard));
  if (leaf) {
    // The right sibling gets the upper half; its first entry (leaf format:
    // klen|key|rid) is the separator.
    RebuildNode(rguard.data(), true, Link(d),
                std::vector<std::string>(entries.begin() + mid, entries.end()));
    promo->sep = entries[mid];
    entries.resize(mid);
    RebuildNode(d, true, rguard.page_id(), entries);
  } else {
    // The middle entry moves up; its child becomes the right node's
    // leftmost child.
    EntryView mid_e = ParseEntry(entries[mid], false);
    RebuildNode(
        rguard.data(), false, mid_e.child,
        std::vector<std::string>(entries.begin() + mid + 1, entries.end()));
    promo->sep = MakeEntry(mid_e.key, mid_e.rid, kInvalidPageId, true);
    entries.resize(mid);
    RebuildNode(d, false, Link(d), entries);
  }
  rguard.MarkDirty();
  guard->MarkDirty();
  promo->happened = true;
  promo->right = rguard.page_id();
  return Status::OK();
}

Status BPTree::DescendToLeaf(const std::vector<Value>* key, const Rid& rid,
                             PageGuard* leaf) const {
  TMAN_ASSIGN_OR_RETURN(PageId node, Root());
  while (true) {
    TMAN_RETURN_IF_ERROR(pool_->FetchPage(node, leaf));
    const char* d = leaf->data();
    if (IsLeaf(d)) return Status::OK();
    node = key == nullptr ? Link(d) : ChildBefore(d, UpperBound(d, *key, rid));
  }
}

template <typename Visit>
Status BPTree::WalkLeaves(const std::vector<Value>* key, const Rid& rid,
                          Visit visit) const {
  PageGuard guard;
  TMAN_RETURN_IF_ERROR(DescendToLeaf(key, rid, &guard));
  uint16_t pos = key == nullptr ? 0 : LowerBound(guard.data(), *key, rid);
  while (true) {
    const char* d = guard.data();
    for (uint16_t n = SlotCount(d); pos < n; ++pos) {
      EntryView e = ParseEntry(EntryRaw(d, pos), true);
      if (!visit(e.key, e.rid)) return Status::OK();
    }
    PageId next = Link(d);
    if (next == kInvalidPageId) return Status::OK();
    TMAN_RETURN_IF_ERROR(pool_->FetchPage(next, &guard));
    pos = 0;
  }
}

Status BPTree::Delete(const std::vector<Value>& key, const Rid& rid) {
  std::lock_guard<std::mutex> lock(mutex_);
  PageGuard guard;
  TMAN_RETURN_IF_ERROR(DescendToLeaf(&key, rid, &guard));
  char* d = guard.data();
  uint16_t pos = LowerBound(d, key, rid);
  if (!LeafHolds(d, pos, key, rid)) {
    return Status::NotFound("index entry not found");
  }
  RemoveSlot(d, pos);
  guard.MarkDirty();
  return Status::OK();
}

Result<std::vector<Rid>> BPTree::SearchEqual(
    const std::vector<Value>& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Rid> out;
  TMAN_RETURN_IF_ERROR(
      WalkLeaves(&key, kMinRid, [&](std::string_view entry_key, const Rid& r) {
        if (Tuple::CompareSerialized(entry_key, key) != 0) return false;
        out.push_back(r);
        return true;
      }));
  return out;
}

Status BPTree::SearchRange(
    const std::optional<std::vector<Value>>& lo, bool lo_inclusive,
    const std::optional<std::vector<Value>>& hi, bool hi_inclusive,
    const std::function<bool(const std::vector<Value>&, const Rid&)>& fn)
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  // For inclusive bounds start at (lo, minimal rid); for exclusive bounds
  // start just past every entry with key == lo.
  const Rid& start_rid = lo_inclusive ? kMinRid : kMaxRid;
  return WalkLeaves(lo.has_value() ? &*lo : nullptr, start_rid,
                    [&](std::string_view entry_key, const Rid& r) {
                      if (hi.has_value()) {
                        int c = Tuple::CompareSerialized(entry_key, *hi);
                        if (c > 0 || (c == 0 && !hi_inclusive)) return false;
                      }
                      return fn(DecodeKey(entry_key), r);
                    });
}

Status BPTree::ScanAll(
    const std::function<bool(const std::vector<Value>&, const Rid&)>& fn)
    const {
  return SearchRange(std::nullopt, true, std::nullopt, true, fn);
}

Result<uint32_t> BPTree::Height() const {
  std::lock_guard<std::mutex> lock(mutex_);
  TMAN_ASSIGN_OR_RETURN(PageId node, Root());
  uint32_t h = 1;
  while (true) {
    PageGuard guard;
    TMAN_RETURN_IF_ERROR(pool_->FetchPage(node, &guard));
    if (IsLeaf(guard.data())) return h;
    node = Link(guard.data());
    ++h;
  }
}

Result<uint64_t> BPTree::NumEntries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t n = 0;
  TMAN_RETURN_IF_ERROR(
      WalkLeaves(nullptr, kMinRid, [&n](std::string_view, const Rid&) {
        ++n;
        return true;
      }));
  return n;
}

}  // namespace tman

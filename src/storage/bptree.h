#ifndef TRIGGERMAN_STORAGE_BPTREE_H_
#define TRIGGERMAN_STORAGE_BPTREE_H_

#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "types/value.h"
#include "util/result.h"

namespace tman {

/// A disk-resident B+-tree over composite keys (vectors of Value), mapping
/// each key to record RIDs. This is the index the paper's organization
/// strategy 4 ("indexed database table") puts on [const1..constK]; since
/// the tree clusters equal keys on adjacent leaf entries, retrieving all
/// triggers for one constant tuple touches O(log n + matches/page) pages —
/// the paper's "retrieved together quickly without doing random I/O".
///
/// Duplicates are handled by appending the RID to the stored key, making
/// every stored entry unique; equality lookups scan the contiguous run of
/// entries whose user-key prefix matches.
///
/// Deletion removes entries without rebalancing (pages may underflow, as
/// in several production systems). Node edits happen in place: an insert
/// writes into the node's free gap, a delete leaves a hole, and a node is
/// compacted only when an insert needs the holes' space. Searches compare
/// the stored key bytes against the decoded target without decoding them
/// (Tuple::CompareSerialized), so probes and non-splitting edits allocate
/// nothing beyond their results.
class BPTree {
 public:
  /// Opens an existing tree whose metadata lives at `meta_page`.
  BPTree(BufferPool* pool, PageId meta_page);

  /// Creates an empty tree; returns its metadata page id.
  static Result<PageId> Create(BufferPool* pool);

  BPTree(const BPTree&) = delete;
  BPTree& operator=(const BPTree&) = delete;

  /// Inserts key -> rid. Duplicate (key, rid) pairs are idempotent.
  Status Insert(const std::vector<Value>& key, const Rid& rid);

  /// Removes one (key, rid) entry. NotFound if absent.
  Status Delete(const std::vector<Value>& key, const Rid& rid);

  /// All RIDs whose key equals `key`.
  Result<std::vector<Rid>> SearchEqual(const std::vector<Value>& key) const;

  /// Calls `fn(key, rid)` for entries in [lo, hi] in key order; either
  /// bound may be absent (open). `fn` returning false stops the scan.
  Status SearchRange(
      const std::optional<std::vector<Value>>& lo, bool lo_inclusive,
      const std::optional<std::vector<Value>>& hi, bool hi_inclusive,
      const std::function<bool(const std::vector<Value>&, const Rid&)>& fn)
      const;

  /// Full in-order scan.
  Status ScanAll(
      const std::function<bool(const std::vector<Value>&, const Rid&)>& fn)
      const;

  /// Tree height (1 = just a leaf). For tests and the cost model.
  Result<uint32_t> Height() const;

  /// Total number of entries (walks the leaf chain).
  Result<uint64_t> NumEntries() const;

 private:
  struct Promo {
    bool happened = false;
    std::string sep;       // encoded composite key promoted to the parent
    PageId right = kInvalidPageId;
  };

  /// The root page id: read from the meta page by the first operation,
  /// then served from `root_`, which SetRoot keeps current. Call with
  /// `mutex_` held.
  Result<PageId> Root() const;
  Status SetRoot(PageId root);

  /// Inserts (key_bytes = encoded `key`, rid) into the subtree at `node`.
  Status InsertRec(PageId node, std::string_view key_bytes,
                   const std::vector<Value>& key, const Rid& rid,
                   Promo* promo);

  /// Inserts an entry at slot `pos` of the pinned node, in place when the
  /// node can hold it, else by splitting it (reported through `promo`).
  Status InsertIntoNode(PageGuard* guard, uint16_t pos,
                        std::string_view key_bytes, const Rid& rid,
                        PageId child, Promo* promo);

  /// Pins into `leaf` the leaf that may contain the first entry >=
  /// (key, rid), or the leftmost leaf when `key` is null.
  Status DescendToLeaf(const std::vector<Value>* key, const Rid& rid,
                       PageGuard* leaf) const;

  /// Calls `visit(key bytes, rid)` on leaf entries in order, starting at
  /// the first >= (key, rid) (or the very first when `key` is null), until
  /// it returns false.
  template <typename Visit>
  Status WalkLeaves(const std::vector<Value>* key, const Rid& rid,
                    Visit visit) const;

  BufferPool* pool_;
  PageId meta_page_;
  mutable std::mutex mutex_;
  mutable PageId root_ = kInvalidPageId;  // guarded by mutex_
};

}  // namespace tman

#endif  // TRIGGERMAN_STORAGE_BPTREE_H_

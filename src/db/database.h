#ifndef TRIGGERMAN_DB_DATABASE_H_
#define TRIGGERMAN_DB_DATABASE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "storage/bptree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_table.h"
#include "types/schema.h"
#include "types/tuple.h"
#include "types/update_descriptor.h"
#include "util/result.h"

namespace tman {

/// Identifier of a table inside MiniDB. Local tables use their TableId as
/// their TriggerMan DataSourceId.
using TableId = uint32_t;

/// Options controlling the embedded database instance.
struct DatabaseOptions {
  size_t buffer_pool_frames = 4096;      // 16 MB of 4 KB pages
  uint64_t disk_latency_ns = 0;          // simulated per-page-I/O latency
};

/// Called after a row changes, with the update descriptor describing the
/// change. TriggerMan installs one hook per table to capture updates —
/// the MiniDB equivalent of the paper's automatically-created Informix
/// triggers ("one trigger per table per update event").
using UpdateHook = std::function<void(const UpdateDescriptor&)>;

/// MiniDB: a small embedded relational engine playing the role the paper
/// assigns to Informix. It hosts user tables (update sources), the
/// TriggerMan catalogs, the constant tables of organization strategies 3
/// and 4, and the persistent update queue. Exception-free; every mutation
/// keeps secondary indexes consistent.
class Database {
 public:
  explicit Database(const DatabaseOptions& options = DatabaseOptions());

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- DDL -----------------------------------------------------------

  Result<TableId> CreateTable(const std::string& name, const Schema& schema);
  Status DropTable(const std::string& name);

  /// Creates a (possibly composite) index over existing and future rows.
  Status CreateIndex(const std::string& index_name,
                     const std::string& table_name,
                     const std::vector<std::string>& attrs);
  Status DropIndex(const std::string& index_name);

  bool HasTable(const std::string& name) const;
  Result<TableId> TableIdOf(const std::string& name) const;
  Result<std::string> TableNameOf(TableId id) const;
  Result<Schema> SchemaOf(const std::string& name) const;

  // --- DML -----------------------------------------------------------

  Result<Rid> Insert(const std::string& table, const Tuple& tuple);
  Status Delete(const std::string& table, const Rid& rid);
  Status Update(const std::string& table, const Rid& rid,
                const Tuple& new_tuple);
  Result<Tuple> Get(const std::string& table, const Rid& rid) const;

  /// Sequential scan; `fn` returning false stops early.
  Status Scan(const std::string& table,
              const std::function<bool(const Rid&, const Tuple&)>& fn) const;

  /// Equality probe on an index.
  Result<std::vector<Rid>> IndexLookup(const std::string& index_name,
                                       const std::vector<Value>& key) const;

  /// Range probe on an index (either bound may be empty = open).
  Status IndexRange(
      const std::string& index_name,
      const std::optional<std::vector<Value>>& lo, bool lo_inclusive,
      const std::optional<std::vector<Value>>& hi, bool hi_inclusive,
      const std::function<bool(const std::vector<Value>&, const Rid&)>& fn)
      const;

  /// Finds an index on `table` whose first attributes are exactly
  /// `attrs` (order-sensitive). Returns the index name or NotFound.
  Result<std::string> FindIndexOn(const std::string& table,
                                  const std::vector<std::string>& attrs) const;

  Result<uint64_t> NumRows(const std::string& table) const;

  // --- update capture --------------------------------------------------

  /// Installs the single per-table update hook; replaces any previous one.
  Status SetUpdateHook(const std::string& table, UpdateHook hook);
  Status ClearUpdateHook(const std::string& table);

  // --- infrastructure ---------------------------------------------------

  BufferPool* buffer_pool() { return pool_.get(); }
  DiskManager* disk() { return disk_.get(); }

 private:
  struct IndexInfo {
    std::string name;
    std::vector<size_t> field_indices;
    std::vector<std::string> attrs;
    std::unique_ptr<BPTree> tree;
  };

  struct TableInfo {
    TableId id;
    std::string name;
    Schema schema;
    std::unique_ptr<HeapTable> heap;
    std::vector<std::unique_ptr<IndexInfo>> indexes;
    UpdateHook hook;
  };

  Result<TableInfo*> Find(const std::string& name) const;
  /// The tree of index `index_name` (any case); takes mutex_.
  Result<BPTree*> FindIndexTree(const std::string& index_name) const;
  static std::vector<Value> IndexKey(const IndexInfo& idx, const Tuple& t);

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;

  mutable std::mutex mutex_;  // guards the maps; per-table ops use heap locks
  std::map<std::string, std::unique_ptr<TableInfo>> tables_;
  std::map<std::string, TableInfo*> index_owner_;  // index name -> table
  TableId next_table_id_ = 1;
};

}  // namespace tman

#endif  // TRIGGERMAN_DB_DATABASE_H_

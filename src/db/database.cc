#include "db/database.h"

#include "util/string_util.h"

namespace tman {

Database::Database(const DatabaseOptions& options)
    : disk_(std::make_unique<DiskManager>(options.disk_latency_ns)),
      pool_(std::make_unique<BufferPool>(disk_.get(),
                                         options.buffer_pool_frames)) {}

Result<Database::TableInfo*> Database::Find(const std::string& name) const {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + name);
  }
  return it->second.get();
}

std::vector<Value> Database::IndexKey(const IndexInfo& idx, const Tuple& t) {
  std::vector<Value> key;
  key.reserve(idx.field_indices.size());
  for (size_t f : idx.field_indices) key.push_back(t.at(f));
  return key;
}

Result<TableId> Database::CreateTable(const std::string& name,
                                      const Schema& schema) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string key = ToLower(name);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table already exists: " + name);
  }
  TMAN_ASSIGN_OR_RETURN(PageId first, HeapTable::Create(pool_.get()));
  auto info = std::make_unique<TableInfo>();
  info->id = next_table_id_++;
  info->name = key;
  info->schema = schema;
  info->heap = std::make_unique<HeapTable>(pool_.get(), first);
  TableId id = info->id;
  tables_[key] = std::move(info);
  return id;
}

Status Database::DropTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string key = ToLower(name);
  auto it = tables_.find(key);
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  for (const auto& idx : it->second->indexes) {
    index_owner_.erase(idx->name);
  }
  tables_.erase(it);
  return Status::OK();
}

Status Database::CreateIndex(const std::string& index_name,
                             const std::string& table_name,
                             const std::vector<std::string>& attrs) {
  std::lock_guard<std::mutex> lock(mutex_);
  TMAN_ASSIGN_OR_RETURN(TableInfo * t, Find(table_name));
  std::string iname = ToLower(index_name);
  if (index_owner_.count(iname) > 0) {
    return Status::AlreadyExists("index already exists: " + index_name);
  }
  auto idx = std::make_unique<IndexInfo>();
  idx->name = iname;
  for (const std::string& a : attrs) {
    TMAN_ASSIGN_OR_RETURN(size_t f, t->schema.RequireField(a));
    idx->field_indices.push_back(f);
    idx->attrs.push_back(ToLower(a));
  }
  TMAN_ASSIGN_OR_RETURN(PageId meta, BPTree::Create(pool_.get()));
  idx->tree = std::make_unique<BPTree>(pool_.get(), meta);
  // Backfill from existing rows.
  Status backfill = Status::OK();
  TMAN_RETURN_IF_ERROR(t->heap->Scan(
      [&](const Rid& rid, std::string_view record) {
        size_t pos = 0;
        auto tuple = Tuple::Deserialize(record, &pos);
        if (!tuple.ok()) {
          backfill = tuple.status();
          return false;
        }
        Status s = idx->tree->Insert(IndexKey(*idx, *tuple), rid);
        if (!s.ok()) {
          backfill = s;
          return false;
        }
        return true;
      }));
  TMAN_RETURN_IF_ERROR(backfill);
  index_owner_[iname] = t;
  t->indexes.push_back(std::move(idx));
  return Status::OK();
}

Status Database::DropIndex(const std::string& index_name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string iname = ToLower(index_name);
  auto it = index_owner_.find(iname);
  if (it == index_owner_.end()) {
    return Status::NotFound("no such index: " + index_name);
  }
  TableInfo* t = it->second;
  index_owner_.erase(it);
  for (auto i = t->indexes.begin(); i != t->indexes.end(); ++i) {
    if ((*i)->name == iname) {
      t->indexes.erase(i);
      break;
    }
  }
  return Status::OK();
}

bool Database::HasTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tables_.count(ToLower(name)) > 0;
}

Result<TableId> Database::TableIdOf(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  TMAN_ASSIGN_OR_RETURN(TableInfo * t, Find(name));
  return t->id;
}

Result<std::string> Database::TableNameOf(TableId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, info] : tables_) {
    if (info->id == id) return name;
  }
  return Status::NotFound("no table with id " + std::to_string(id));
}

Result<Schema> Database::SchemaOf(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  TMAN_ASSIGN_OR_RETURN(TableInfo * t, Find(name));
  return t->schema;
}

Result<Rid> Database::Insert(const std::string& table, const Tuple& tuple) {
  TableInfo* t;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    TMAN_ASSIGN_OR_RETURN(t, Find(table));
  }
  TMAN_ASSIGN_OR_RETURN(Tuple coerced, CoerceToSchema(tuple, t->schema));
  std::string record;
  coerced.Serialize(&record);
  TMAN_ASSIGN_OR_RETURN(Rid rid, t->heap->Insert(record));
  for (const auto& idx : t->indexes) {
    TMAN_RETURN_IF_ERROR(idx->tree->Insert(IndexKey(*idx, coerced), rid));
  }
  if (t->hook) {
    t->hook(UpdateDescriptor::Insert(t->id, coerced));
  }
  return rid;
}

Status Database::Delete(const std::string& table, const Rid& rid) {
  TableInfo* t;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    TMAN_ASSIGN_OR_RETURN(t, Find(table));
  }
  TMAN_ASSIGN_OR_RETURN(std::string record, t->heap->Get(rid));
  size_t pos = 0;
  TMAN_ASSIGN_OR_RETURN(Tuple old_tuple, Tuple::Deserialize(record, &pos));
  TMAN_RETURN_IF_ERROR(t->heap->Delete(rid));
  for (const auto& idx : t->indexes) {
    TMAN_RETURN_IF_ERROR(idx->tree->Delete(IndexKey(*idx, old_tuple), rid));
  }
  if (t->hook) {
    t->hook(UpdateDescriptor::Delete(t->id, old_tuple));
  }
  return Status::OK();
}

Status Database::Update(const std::string& table, const Rid& rid,
                        const Tuple& new_tuple) {
  TableInfo* t;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    TMAN_ASSIGN_OR_RETURN(t, Find(table));
  }
  TMAN_ASSIGN_OR_RETURN(Tuple coerced, CoerceToSchema(new_tuple, t->schema));
  TMAN_ASSIGN_OR_RETURN(std::string record, t->heap->Get(rid));
  size_t pos = 0;
  TMAN_ASSIGN_OR_RETURN(Tuple old_tuple, Tuple::Deserialize(record, &pos));
  std::string new_record;
  coerced.Serialize(&new_record);
  TMAN_ASSIGN_OR_RETURN(Rid new_rid, t->heap->Update(rid, new_record));
  for (const auto& idx : t->indexes) {
    std::vector<Value> old_key = IndexKey(*idx, old_tuple);
    std::vector<Value> new_key = IndexKey(*idx, coerced);
    if (CompareValues(old_key, new_key) != 0 || !(new_rid == rid)) {
      TMAN_RETURN_IF_ERROR(idx->tree->Delete(old_key, rid));
      TMAN_RETURN_IF_ERROR(idx->tree->Insert(new_key, new_rid));
    }
  }
  if (t->hook) {
    t->hook(UpdateDescriptor::Update(t->id, old_tuple, coerced));
  }
  return Status::OK();
}

Result<Tuple> Database::Get(const std::string& table, const Rid& rid) const {
  TableInfo* t;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    TMAN_ASSIGN_OR_RETURN(t, Find(table));
  }
  TMAN_ASSIGN_OR_RETURN(std::string record, t->heap->Get(rid));
  size_t pos = 0;
  return Tuple::Deserialize(record, &pos);
}

Status Database::Scan(
    const std::string& table,
    const std::function<bool(const Rid&, const Tuple&)>& fn) const {
  TableInfo* t;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    TMAN_ASSIGN_OR_RETURN(t, Find(table));
  }
  Status inner = Status::OK();
  TMAN_RETURN_IF_ERROR(t->heap->Scan(
      [&](const Rid& rid, std::string_view record) {
        size_t pos = 0;
        auto tuple = Tuple::Deserialize(record, &pos);
        if (!tuple.ok()) {
          inner = tuple.status();
          return false;
        }
        return fn(rid, *tuple);
      }));
  return inner;
}

Result<BPTree*> Database::FindIndexTree(const std::string& index_name) const {
  std::string iname = ToLower(index_name);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_owner_.find(iname);
  if (it != index_owner_.end()) {
    for (const auto& idx : it->second->indexes) {
      if (idx->name == iname) return idx->tree.get();
    }
  }
  return Status::NotFound("no such index: " + index_name);
}

Result<std::vector<Rid>> Database::IndexLookup(
    const std::string& index_name, const std::vector<Value>& key) const {
  TMAN_ASSIGN_OR_RETURN(BPTree * tree, FindIndexTree(index_name));
  return tree->SearchEqual(key);
}

Status Database::IndexRange(
    const std::string& index_name,
    const std::optional<std::vector<Value>>& lo, bool lo_inclusive,
    const std::optional<std::vector<Value>>& hi, bool hi_inclusive,
    const std::function<bool(const std::vector<Value>&, const Rid&)>& fn)
    const {
  TMAN_ASSIGN_OR_RETURN(BPTree * tree, FindIndexTree(index_name));
  return tree->SearchRange(lo, lo_inclusive, hi, hi_inclusive, fn);
}

Result<std::string> Database::FindIndexOn(
    const std::string& table, const std::vector<std::string>& attrs) const {
  std::lock_guard<std::mutex> lock(mutex_);
  TMAN_ASSIGN_OR_RETURN(TableInfo * t, Find(table));
  for (const auto& idx : t->indexes) {
    if (idx->attrs.size() != attrs.size()) continue;
    bool match = true;
    for (size_t i = 0; i < attrs.size(); ++i) {
      if (!EqualsIgnoreCase(idx->attrs[i], attrs[i])) {
        match = false;
        break;
      }
    }
    if (match) return idx->name;
  }
  return Status::NotFound("no index on given attributes");
}

Result<uint64_t> Database::NumRows(const std::string& table) const {
  TableInfo* t;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    TMAN_ASSIGN_OR_RETURN(t, Find(table));
  }
  return t->heap->num_records();
}

Status Database::SetUpdateHook(const std::string& table, UpdateHook hook) {
  std::lock_guard<std::mutex> lock(mutex_);
  TMAN_ASSIGN_OR_RETURN(TableInfo * t, Find(table));
  t->hook = std::move(hook);
  return Status::OK();
}

Status Database::ClearUpdateHook(const std::string& table) {
  std::lock_guard<std::mutex> lock(mutex_);
  TMAN_ASSIGN_OR_RETURN(TableInfo * t, Find(table));
  t->hook = nullptr;
  return Status::OK();
}

}  // namespace tman

#include "catalog/trigger_catalog.h"

#include <ctime>

#include "util/string_util.h"

namespace tman {

namespace {

constexpr char kTriggerSetTable[] = "tman_trigger_set";
constexpr char kTriggerTable[] = "tman_trigger";
constexpr char kSignatureTable[] = "tman_expression_signature";
constexpr char kDataSourceTable[] = "tman_data_source";

/// Schema text codec for persisted stream schemas: "name:type:width" per
/// field, ';'-separated. No field names may contain ':' or ';' (the
/// parser rejects such identifiers anyway).
std::string EncodeSchema(const Schema& schema) {
  std::vector<std::string> fields;
  fields.reserve(schema.num_fields());
  for (const Field& f : schema.fields()) {
    fields.push_back(f.name + ":" + std::string(DataTypeName(f.type)) + ":" +
                     std::to_string(f.width));
  }
  return Join(fields, ";");
}

Result<Schema> DecodeSchema(const std::string& text) {
  std::vector<Field> fields;
  if (text.empty()) return Schema(fields);
  for (const std::string& piece : Split(text, ';')) {
    auto parts = Split(piece, ':');
    if (parts.size() != 3) {
      return Status::Corruption("bad schema text: " + text);
    }
    TMAN_ASSIGN_OR_RETURN(DataType type, DataTypeFromName(parts[1]));
    fields.emplace_back(parts[0], type,
                        static_cast<uint32_t>(std::stoul(parts[2])));
  }
  return Schema(fields);
}

std::string Today() {
  std::time_t now = std::time(nullptr);
  char buf[32];
  std::tm tm_buf;
  localtime_r(&now, &tm_buf);
  std::strftime(buf, sizeof(buf), "%Y-%m-%d %H:%M:%S", &tm_buf);
  return buf;
}

TriggerSetRow DecodeSetRow(const Tuple& t) {
  TriggerSetRow row;
  row.ts_id = static_cast<uint64_t>(t.at(0).as_int());
  row.name = t.at(1).as_string();
  row.comments = t.at(2).is_null() ? "" : t.at(2).as_string();
  row.creation_date = t.at(3).as_string();
  row.is_enabled = t.at(4).as_int() != 0;
  return row;
}

TriggerRow DecodeTriggerRow(const Tuple& t) {
  TriggerRow row;
  row.trigger_id = static_cast<TriggerId>(t.at(0).as_int());
  row.ts_id = static_cast<uint64_t>(t.at(1).as_int());
  row.name = t.at(2).as_string();
  row.comments = t.at(3).is_null() ? "" : t.at(3).as_string();
  row.trigger_text = t.at(4).as_string();
  row.creation_date = t.at(5).as_string();
  row.is_enabled = t.at(6).as_int() != 0;
  return row;
}

SignatureRow DecodeSignatureRow(const Tuple& t) {
  SignatureRow row;
  row.sig_id = static_cast<uint64_t>(t.at(0).as_int());
  row.data_src_id = static_cast<DataSourceId>(t.at(1).as_int());
  row.signature_desc = t.at(2).as_string();
  row.const_table_name = t.at(3).is_null() ? "" : t.at(3).as_string();
  row.constant_set_size = static_cast<uint64_t>(t.at(4).as_int());
  row.constant_set_organization = static_cast<OrgType>(t.at(5).as_int());
  return row;
}

}  // namespace

Status TriggerCatalog::Open() {
  if (!db_->HasTable(kTriggerSetTable)) {
    TMAN_RETURN_IF_ERROR(
        db_->CreateTable(kTriggerSetTable,
                         Schema({{"ts_id", DataType::kInt},
                                 {"name", DataType::kVarchar},
                                 {"comments", DataType::kVarchar},
                                 {"creation_date", DataType::kVarchar},
                                 {"is_enabled", DataType::kInt}}))
            .status());
  }
  if (!db_->HasTable(kTriggerTable)) {
    TMAN_RETURN_IF_ERROR(
        db_->CreateTable(kTriggerTable,
                         Schema({{"trigger_id", DataType::kInt},
                                 {"ts_id", DataType::kInt},
                                 {"name", DataType::kVarchar},
                                 {"comments", DataType::kVarchar},
                                 {"trigger_text", DataType::kVarchar},
                                 {"creation_date", DataType::kVarchar},
                                 {"is_enabled", DataType::kInt}}))
            .status());
    TMAN_RETURN_IF_ERROR(
        db_->CreateIndex("idx_tman_trigger_id", kTriggerTable,
                         {"trigger_id"}));
    TMAN_RETURN_IF_ERROR(
        db_->CreateIndex("idx_tman_trigger_name", kTriggerTable, {"name"}));
  }
  if (!db_->HasTable(kSignatureTable)) {
    TMAN_RETURN_IF_ERROR(
        db_->CreateTable(kSignatureTable,
                         Schema({{"sig_id", DataType::kInt},
                                 {"data_src_id", DataType::kInt},
                                 {"signature_desc", DataType::kVarchar},
                                 {"const_table_name", DataType::kVarchar},
                                 {"constant_set_size", DataType::kInt},
                                 {"constant_set_organization",
                                  DataType::kInt}}))
            .status());
  }
  if (!db_->HasTable(kDataSourceTable)) {
    TMAN_RETURN_IF_ERROR(
        db_->CreateTable(kDataSourceTable,
                         Schema({{"name", DataType::kVarchar},
                                 {"is_local", DataType::kInt},
                                 {"schema_text", DataType::kVarchar}}))
            .status());
  }
  // Restore id counters after reopen.
  TMAN_ASSIGN_OR_RETURN(uint64_t max_tid, MaxTriggerId());
  next_trigger_id_ = max_tid + 1;
  uint64_t max_ts = 0;
  TMAN_RETURN_IF_ERROR(db_->Scan(
      kTriggerSetTable, [&max_ts](const Rid&, const Tuple& t) {
        uint64_t id = static_cast<uint64_t>(t.at(0).as_int());
        if (id > max_ts) max_ts = id;
        return true;
      }));
  next_ts_id_ = max_ts + 1;
  return Status::OK();
}

Result<uint64_t> TriggerCatalog::CreateTriggerSet(const std::string& name,
                                                  const std::string& comments) {
  TMAN_ASSIGN_OR_RETURN(auto existing, GetTriggerSet(name));
  if (existing.has_value()) {
    return Status::AlreadyExists("trigger set already exists: " + name);
  }
  uint64_t id = next_ts_id_++;
  TMAN_RETURN_IF_ERROR(
      db_->Insert(kTriggerSetTable,
                  Tuple({Value::Int(static_cast<int64_t>(id)),
                         Value::String(ToLower(name)),
                         Value::String(comments), Value::String(Today()),
                         Value::Int(1)}))
          .status());
  return id;
}

Result<std::optional<TriggerSetRow>> TriggerCatalog::GetTriggerSet(
    const std::string& name) {
  std::optional<TriggerSetRow> out;
  std::string needle = ToLower(name);
  TMAN_RETURN_IF_ERROR(db_->Scan(
      kTriggerSetTable, [&](const Rid&, const Tuple& t) {
        if (t.at(1).as_string() == needle) {
          out = DecodeSetRow(t);
          return false;
        }
        return true;
      }));
  return out;
}

Result<std::optional<TriggerSetRow>> TriggerCatalog::GetTriggerSetById(
    uint64_t ts_id) {
  std::optional<TriggerSetRow> out;
  TMAN_RETURN_IF_ERROR(db_->Scan(
      kTriggerSetTable, [&](const Rid&, const Tuple& t) {
        if (static_cast<uint64_t>(t.at(0).as_int()) == ts_id) {
          out = DecodeSetRow(t);
          return false;
        }
        return true;
      }));
  return out;
}

Result<std::vector<TriggerSetRow>> TriggerCatalog::AllTriggerSets() {
  std::vector<TriggerSetRow> out;
  TMAN_RETURN_IF_ERROR(db_->Scan(
      kTriggerSetTable, [&out](const Rid&, const Tuple& t) {
        out.push_back(DecodeSetRow(t));
        return true;
      }));
  return out;
}

Status TriggerCatalog::SetTriggerSetEnabled(const std::string& name,
                                            bool enabled) {
  std::string needle = ToLower(name);
  std::optional<Rid> rid;
  Tuple row;
  TMAN_RETURN_IF_ERROR(db_->Scan(
      kTriggerSetTable, [&](const Rid& r, const Tuple& t) {
        if (t.at(1).as_string() == needle) {
          rid = r;
          row = t;
          return false;
        }
        return true;
      }));
  if (!rid.has_value()) {
    return Status::NotFound("no such trigger set: " + name);
  }
  row.at(4) = Value::Int(enabled ? 1 : 0);
  return db_->Update(kTriggerSetTable, *rid, row);
}

Result<TriggerId> TriggerCatalog::InsertTrigger(
    const std::string& name, uint64_t ts_id, const std::string& comments,
    const std::string& trigger_text) {
  TMAN_ASSIGN_OR_RETURN(auto existing, GetTrigger(name));
  if (existing.has_value()) {
    return Status::AlreadyExists("trigger already exists: " + name);
  }
  TriggerId id = next_trigger_id_++;
  TMAN_RETURN_IF_ERROR(
      db_->Insert(kTriggerTable,
                  Tuple({Value::Int(static_cast<int64_t>(id)),
                         Value::Int(static_cast<int64_t>(ts_id)),
                         Value::String(ToLower(name)),
                         Value::String(comments),
                         Value::String(trigger_text),
                         Value::String(Today()), Value::Int(1)}))
          .status());
  return id;
}

Result<std::optional<Rid>> TriggerCatalog::FindTriggerRid(
    const std::string& name) {
  TMAN_ASSIGN_OR_RETURN(
      std::vector<Rid> rids,
      db_->IndexLookup("idx_tman_trigger_name",
                       {Value::String(ToLower(name))}));
  if (rids.empty()) return std::optional<Rid>();
  return std::optional<Rid>(rids.front());
}

Result<std::optional<TriggerRow>> TriggerCatalog::GetTrigger(
    const std::string& name) {
  TMAN_ASSIGN_OR_RETURN(auto rid, FindTriggerRid(name));
  if (!rid.has_value()) return std::optional<TriggerRow>();
  TMAN_ASSIGN_OR_RETURN(Tuple t, db_->Get(kTriggerTable, *rid));
  return std::optional<TriggerRow>(DecodeTriggerRow(t));
}

Result<std::optional<TriggerRow>> TriggerCatalog::GetTriggerById(
    TriggerId id) {
  TMAN_ASSIGN_OR_RETURN(
      std::vector<Rid> rids,
      db_->IndexLookup("idx_tman_trigger_id",
                       {Value::Int(static_cast<int64_t>(id))}));
  if (rids.empty()) return std::optional<TriggerRow>();
  TMAN_ASSIGN_OR_RETURN(Tuple t, db_->Get(kTriggerTable, rids.front()));
  return std::optional<TriggerRow>(DecodeTriggerRow(t));
}

Status TriggerCatalog::SetTriggerEnabled(const std::string& name,
                                         bool enabled) {
  TMAN_ASSIGN_OR_RETURN(auto rid, FindTriggerRid(name));
  if (!rid.has_value()) return Status::NotFound("no such trigger: " + name);
  TMAN_ASSIGN_OR_RETURN(Tuple t, db_->Get(kTriggerTable, *rid));
  t.at(6) = Value::Int(enabled ? 1 : 0);
  return db_->Update(kTriggerTable, *rid, t);
}

Status TriggerCatalog::DeleteTrigger(const std::string& name) {
  TMAN_ASSIGN_OR_RETURN(auto rid, FindTriggerRid(name));
  if (!rid.has_value()) return Status::NotFound("no such trigger: " + name);
  return db_->Delete(kTriggerTable, *rid);
}

Result<std::vector<TriggerRow>> TriggerCatalog::AllTriggers() {
  std::vector<TriggerRow> out;
  TMAN_RETURN_IF_ERROR(db_->Scan(
      kTriggerTable, [&out](const Rid&, const Tuple& t) {
        out.push_back(DecodeTriggerRow(t));
        return true;
      }));
  return out;
}

Result<uint64_t> TriggerCatalog::NumTriggers() {
  return db_->NumRows(kTriggerTable);
}

Status TriggerCatalog::InsertSignature(const SignatureRow& row) {
  return db_
      ->Insert(kSignatureTable,
               Tuple({Value::Int(static_cast<int64_t>(row.sig_id)),
                      Value::Int(static_cast<int64_t>(row.data_src_id)),
                      Value::String(row.signature_desc),
                      Value::String(row.const_table_name),
                      Value::Int(static_cast<int64_t>(row.constant_set_size)),
                      Value::Int(static_cast<int64_t>(
                          row.constant_set_organization))}))
      .status();
}

Result<std::optional<Rid>> TriggerCatalog::FindSignatureRid(uint64_t sig_id) {
  std::optional<Rid> out;
  TMAN_RETURN_IF_ERROR(db_->Scan(
      kSignatureTable, [&](const Rid& r, const Tuple& t) {
        if (static_cast<uint64_t>(t.at(0).as_int()) == sig_id) {
          out = r;
          return false;
        }
        return true;
      }));
  return out;
}

Status TriggerCatalog::UpdateSignatureStats(uint64_t sig_id, uint64_t size,
                                            OrgType org) {
  TMAN_ASSIGN_OR_RETURN(auto rid, FindSignatureRid(sig_id));
  if (!rid.has_value()) {
    return Status::NotFound("no such signature: " + std::to_string(sig_id));
  }
  TMAN_ASSIGN_OR_RETURN(Tuple t, db_->Get(kSignatureTable, *rid));
  t.at(4) = Value::Int(static_cast<int64_t>(size));
  t.at(5) = Value::Int(static_cast<int64_t>(org));
  return db_->Update(kSignatureTable, *rid, t);
}

Result<std::vector<SignatureRow>> TriggerCatalog::AllSignatures() {
  std::vector<SignatureRow> out;
  TMAN_RETURN_IF_ERROR(db_->Scan(
      kSignatureTable, [&out](const Rid&, const Tuple& t) {
        out.push_back(DecodeSignatureRow(t));
        return true;
      }));
  return out;
}

Status TriggerCatalog::InsertDataSource(const DataSourceRow& row) {
  std::string name = ToLower(row.name);
  bool exists = false;
  TMAN_RETURN_IF_ERROR(db_->Scan(
      kDataSourceTable, [&](const Rid&, const Tuple& t) {
        if (t.at(0).as_string() == name) {
          exists = true;
          return false;
        }
        return true;
      }));
  if (exists) {
    return Status::AlreadyExists("data source already cataloged: " + name);
  }
  return db_
      ->Insert(kDataSourceTable,
               Tuple({Value::String(name),
                      Value::Int(row.is_local_table ? 1 : 0),
                      Value::String(row.is_local_table
                                        ? ""
                                        : EncodeSchema(row.schema))}))
      .status();
}

Status TriggerCatalog::DeleteDataSource(const std::string& name_in) {
  std::string name = ToLower(name_in);
  std::optional<Rid> rid;
  TMAN_RETURN_IF_ERROR(db_->Scan(
      kDataSourceTable, [&](const Rid& r, const Tuple& t) {
        if (t.at(0).as_string() == name) {
          rid = r;
          return false;
        }
        return true;
      }));
  if (!rid.has_value()) {
    return Status::NotFound("no such cataloged data source: " + name);
  }
  return db_->Delete(kDataSourceTable, *rid);
}

Result<std::vector<TriggerCatalog::DataSourceRow>>
TriggerCatalog::AllDataSources() {
  std::vector<DataSourceRow> out;
  Status inner = Status::OK();
  TMAN_RETURN_IF_ERROR(db_->Scan(
      kDataSourceTable, [&](const Rid&, const Tuple& t) {
        DataSourceRow row;
        row.name = t.at(0).as_string();
        row.is_local_table = t.at(1).as_int() != 0;
        if (!row.is_local_table) {
          auto schema = DecodeSchema(t.at(2).as_string());
          if (!schema.ok()) {
            inner = schema.status();
            return false;
          }
          row.schema = *schema;
        }
        out.push_back(std::move(row));
        return true;
      }));
  TMAN_RETURN_IF_ERROR(inner);
  return out;
}

Result<uint64_t> TriggerCatalog::MaxTriggerId() {
  uint64_t max_id = 0;
  TMAN_RETURN_IF_ERROR(db_->Scan(
      kTriggerTable, [&max_id](const Rid&, const Tuple& t) {
        uint64_t id = static_cast<uint64_t>(t.at(0).as_int());
        if (id > max_id) max_id = id;
        return true;
      }));
  return max_id;
}

Result<uint64_t> TriggerCatalog::MaxSignatureId() {
  uint64_t max_id = 0;
  TMAN_RETURN_IF_ERROR(db_->Scan(
      kSignatureTable, [&max_id](const Rid&, const Tuple& t) {
        uint64_t id = static_cast<uint64_t>(t.at(0).as_int());
        if (id > max_id) max_id = id;
        return true;
      }));
  return max_id;
}

}  // namespace tman

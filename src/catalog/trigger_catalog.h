#ifndef TRIGGERMAN_CATALOG_TRIGGER_CATALOG_H_
#define TRIGGERMAN_CATALOG_TRIGGER_CATALOG_H_

#include <optional>
#include <string>
#include <vector>

#include "db/database.h"
#include "predindex/organization.h"
#include "predindex/predicate_entry.h"

namespace tman {

/// Row of the trigger_set catalog table (§5.1).
struct TriggerSetRow {
  uint64_t ts_id = 0;
  std::string name;
  std::string comments;
  std::string creation_date;
  bool is_enabled = true;
};

/// Row of the trigger catalog table (§5.1).
struct TriggerRow {
  TriggerId trigger_id = 0;
  uint64_t ts_id = 0;
  std::string name;
  std::string comments;
  std::string trigger_text;  // the original create trigger statement
  std::string creation_date;
  bool is_enabled = true;
};

/// Row of the expression_signature catalog table (§5.1).
struct SignatureRow {
  uint64_t sig_id = 0;
  DataSourceId data_src_id = 0;
  std::string signature_desc;
  std::string const_table_name;
  uint64_t constant_set_size = 0;
  OrgType constant_set_organization = OrgType::kMemoryList;
};

/// The persistent trigger system catalogs, stored as MiniDB tables exactly
/// as §5.1 lays them out. The trigger cache loads descriptions from here
/// on a miss; everything survives "restarts" of the trigger manager
/// against the same database.
class TriggerCatalog {
 public:
  explicit TriggerCatalog(Database* db) : db_(db) {}

  /// Creates the catalog tables + indexes if missing.
  Status Open();

  // --- trigger sets -----------------------------------------------------

  Result<uint64_t> CreateTriggerSet(const std::string& name,
                                    const std::string& comments);
  Result<std::optional<TriggerSetRow>> GetTriggerSet(const std::string& name);
  Result<std::optional<TriggerSetRow>> GetTriggerSetById(uint64_t ts_id);
  Result<std::vector<TriggerSetRow>> AllTriggerSets();
  Status SetTriggerSetEnabled(const std::string& name, bool enabled);

  // --- triggers ----------------------------------------------------------

  /// Inserts a trigger row; assigns and returns its trigger_id.
  Result<TriggerId> InsertTrigger(const std::string& name, uint64_t ts_id,
                                  const std::string& comments,
                                  const std::string& trigger_text);
  Result<std::optional<TriggerRow>> GetTrigger(const std::string& name);
  Result<std::optional<TriggerRow>> GetTriggerById(TriggerId id);
  Status SetTriggerEnabled(const std::string& name, bool enabled);
  Status DeleteTrigger(const std::string& name);
  Result<std::vector<TriggerRow>> AllTriggers();
  Result<uint64_t> NumTriggers();

  // --- expression signatures ----------------------------------------------

  Status InsertSignature(const SignatureRow& row);
  Status UpdateSignatureStats(uint64_t sig_id, uint64_t size, OrgType org);
  Result<std::vector<SignatureRow>> AllSignatures();

  // --- data sources -------------------------------------------------------

  /// Persisted data source definitions, so Open() can restore the
  /// registry (stream schemas are not otherwise recoverable).
  struct DataSourceRow {
    std::string name;
    bool is_local_table = true;
    Schema schema;  // streams only; local tables read theirs from MiniDB
  };

  Status InsertDataSource(const DataSourceRow& row);
  Status DeleteDataSource(const std::string& name);
  Result<std::vector<DataSourceRow>> AllDataSources();

  /// Highest assigned ids (for counter restoration after reopen).
  Result<uint64_t> MaxTriggerId();
  Result<uint64_t> MaxSignatureId();

 private:
  Result<std::optional<Rid>> FindTriggerRid(const std::string& name);
  Result<std::optional<Rid>> FindSignatureRid(uint64_t sig_id);

  Database* db_;
  uint64_t next_ts_id_ = 1;
  TriggerId next_trigger_id_ = 1;
};

}  // namespace tman

#endif  // TRIGGERMAN_CATALOG_TRIGGER_CATALOG_H_

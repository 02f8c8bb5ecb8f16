#ifndef TRIGGERMAN_PREDINDEX_ORG_DB_H_
#define TRIGGERMAN_PREDINDEX_ORG_DB_H_

#include <string>
#include <unordered_map>

#include "db/database.h"
#include "predindex/organization.h"

namespace tman {

/// Base for the database-backed organizations (3 and 4): the equivalence
/// class lives in the constant table const_table_<sigID> with columns
///   (expr_id int, trigger_id int, next_node int,
///    const_1 varchar ... const_m varchar, rest varchar)
/// exactly the paper's denormalized layout (§5.1 — deliberately not 3NF
/// so matching needs no joins). Constant cells hold a type-preserving
/// binary encoding. The rest column stays in the layout so older tables
/// still open, but it is written NULL and never read: the signature's one
/// compiled rest program tests every row against its constants.
class DbOrganizationBase : public ConstantSetOrganization {
 public:
  DbOrganizationBase(const SignatureContext* ctx, Database* db);

  Status Insert(const PredicateEntry& entry) override;
  Status Remove(ExprId expr_id) override;
  Status ForEach(const std::function<void(const PredicateEntry&)>& fn)
      const override;
  size_t size() const override { return rid_of_.size(); }

  /// Creates the constant table if it does not exist yet, and reloads the
  /// exprID -> RID map if it does. Must be called once before use.
  Status Open();

 protected:
  Result<PredicateEntry> DecodeRow(const Tuple& row) const;
  Status ScanMatch(const Probe& probe,
                   const std::function<void(const PredicateEntry&)>& fn) const;

  const SignatureContext* ctx_;
  Database* db_;
  std::string table_;
  std::unordered_map<ExprId, Rid> rid_of_;
};

/// Organization 3: non-indexed database table. Matching scans the table
/// (buffer-pool + simulated disk costs apply), testing each row.
class DbTableOrganization : public DbOrganizationBase {
 public:
  using DbOrganizationBase::DbOrganizationBase;

  OrgType type() const override { return OrgType::kDbTable; }
  Status Match(const Probe& probe,
               const std::function<void(const PredicateEntry&)>& fn)
      const override;
};

/// Organization 4: indexed database table. A clustered composite-key
/// index on [const_1..const_K] answers equality probes with O(log n)
/// page reads; matching rows cluster on adjacent leaf entries ("retrieved
/// together quickly without doing random I/O"). Signatures whose
/// indexable part is not an equality composite fall back to scanning —
/// the paper leaves non-equality disk indexing as future work [Kony98].
class DbIndexedTableOrganization : public DbOrganizationBase {
 public:
  DbIndexedTableOrganization(const SignatureContext* ctx, Database* db);

  OrgType type() const override { return OrgType::kDbIndexedTable; }
  Status Match(const Probe& probe,
               const std::function<void(const PredicateEntry&)>& fn)
      const override;

  /// Also creates the composite index when the signature is equality-
  /// indexable.
  Status OpenIndexed();

 private:
  std::string index_name_;
  bool indexed_ = false;
};

}  // namespace tman

#endif  // TRIGGERMAN_PREDINDEX_ORG_DB_H_

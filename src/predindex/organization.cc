#include "predindex/organization.h"

#include "predindex/org_db.h"
#include "predindex/org_memory.h"

namespace tman {

std::string_view OrgTypeName(OrgType type) {
  switch (type) {
    case OrgType::kMemoryList:
      return "memory-list";
    case OrgType::kMemoryIndex:
      return "memory-index";
    case OrgType::kDbTable:
      return "db-table";
    case OrgType::kDbIndexedTable:
      return "db-indexed-table";
  }
  return "?";
}

Status ConstantSetOrganization::MatchPartition(
    const Probe& probe, uint32_t partition, uint32_t num_partitions,
    const std::function<void(const PredicateEntry&)>& fn) const {
  if (num_partitions <= 1) return Match(probe, fn);
  return Match(probe, [&](const PredicateEntry& e) {
    if (PartitionOf(e.expr_id, num_partitions) == partition) fn(e);
  });
}

Result<std::unique_ptr<ConstantSetOrganization>> CreateOrganization(
    OrgType type, const SignatureContext* ctx, Database* db) {
  switch (type) {
    case OrgType::kMemoryList:
      return std::unique_ptr<ConstantSetOrganization>(
          new MemoryListOrganization(ctx));
    case OrgType::kMemoryIndex:
      return std::unique_ptr<ConstantSetOrganization>(
          new MemoryIndexOrganization(ctx));
    case OrgType::kDbTable: {
      if (db == nullptr) {
        return Status::InvalidArgument(
            "db-table organization requires a database");
      }
      auto org = std::make_unique<DbTableOrganization>(ctx, db);
      TMAN_RETURN_IF_ERROR(org->Open());
      return std::unique_ptr<ConstantSetOrganization>(std::move(org));
    }
    case OrgType::kDbIndexedTable: {
      if (db == nullptr) {
        return Status::InvalidArgument(
            "db-indexed-table organization requires a database");
      }
      auto org = std::make_unique<DbIndexedTableOrganization>(ctx, db);
      TMAN_RETURN_IF_ERROR(org->OpenIndexed());
      return std::unique_ptr<ConstantSetOrganization>(std::move(org));
    }
  }
  return Status::InvalidArgument("unknown organization type");
}

}  // namespace tman

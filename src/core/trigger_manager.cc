#include "core/trigger_manager.h"

#include <algorithm>
#include <array>
#include <unordered_set>

#include "expr/rewrite.h"
#include "parser/parser.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace tman {

namespace {

constexpr char kDefaultSetName[] = "default";

}  // namespace

TriggerManager::TriggerManager(Database* db, TriggerManagerOptions options)
    : db_(db), options_(options) {
  // Two staging modes: memory, or durable (the WAL is the persistent
  // update queue). Either flag selects durable.
  options_.durable_wal = options.durable_wal || options.persistent_queue;
  catalog_ = std::make_unique<TriggerCatalog>(db_);
  pindex_ = std::make_unique<PredicateIndex>(db_, options_.org_policy);
  cache_ = std::make_unique<TriggerCache>(
      options_.trigger_cache_capacity,
      [this](TriggerId id) { return LoadTrigger(id); });
  actions_ = std::make_unique<ActionExecutor>(db_, &events_);
  drivers_ = std::make_unique<DriverPool>(&task_queue_, options_.driver_config);
  ReoptimizerOptions ropt;
  ropt.cost = options_.cost_model;
  ropt.policy = options_.adapt_policy;
  ropt.faults = options_.driver_config.fault_injector;
  reopt_ = std::make_unique<ConstantSetReoptimizer>(pindex_.get(), &adapt_log_,
                                                    ropt);
}

TriggerManager::~TriggerManager() { Stop(); }

Status TriggerManager::Open() {
  TMAN_RETURN_IF_ERROR(catalog_->Open());

  // Default trigger set.
  TMAN_ASSIGN_OR_RETURN(auto def, catalog_->GetTriggerSet(kDefaultSetName));
  if (def.has_value()) {
    default_ts_id_ = def->ts_id;
  } else {
    TMAN_ASSIGN_OR_RETURN(
        default_ts_id_,
        catalog_->CreateTriggerSet(kDefaultSetName, "default trigger set"));
  }

  // Restore cataloged data sources (the registry definitions survive in
  // the tman_data_source table), then catalog any sources the caller
  // defined before Open().
  opened_ = true;
  TMAN_ASSIGN_OR_RETURN(auto source_rows, catalog_->AllDataSources());
  for (const TriggerCatalog::DataSourceRow& row : source_rows) {
    if (registry_.Has(row.name)) continue;
    if (row.is_local_table) {
      TMAN_RETURN_IF_ERROR(RestoreLocalTableSource(row.name));
    } else {
      TMAN_ASSIGN_OR_RETURN(DataSourceId id,
                            registry_.DefineStream(row.name, row.schema));
      TMAN_RETURN_IF_ERROR(pindex_->RegisterDataSource(id, row.schema));
    }
  }
  for (const DataSourceInfo& info : registry_.All()) {
    bool cataloged = false;
    for (const auto& row : source_rows) {
      if (row.name == info.name) {
        cataloged = true;
        break;
      }
    }
    if (cataloged) continue;
    TriggerCatalog::DataSourceRow row;
    row.name = info.name;
    row.is_local_table = info.kind == DataSourceKind::kLocalTable;
    row.schema = info.schema;
    TMAN_RETURN_IF_ERROR(catalog_->InsertDataSource(row));
  }

  // Reload the trigger sets' enabled flags, then previously created
  // triggers: rebuild the predicate index and their networks.
  TMAN_ASSIGN_OR_RETURN(std::vector<TriggerSetRow> sets,
                        catalog_->AllTriggerSets());
  {
    std::unique_lock lock(meta_mutex_);
    for (const TriggerSetRow& set : sets) {
      TMAN_RETURN_IF_ERROR(directory_.SetSetEnabled(set.ts_id, set.is_enabled));
    }
  }
  TMAN_ASSIGN_OR_RETURN(std::vector<TriggerRow> rows, catalog_->AllTriggers());
  for (const TriggerRow& row : rows) {
    TMAN_ASSIGN_OR_RETURN(Command cmd, ParseCommand(row.trigger_text));
    auto* create = std::get_if<CreateTriggerCmd>(&cmd);
    if (create == nullptr) {
      return Status::Corruption("catalog trigger_text is not create trigger: " +
                                row.name);
    }
    TMAN_RETURN_IF_ERROR(
        InstallTrigger(*create, row.trigger_id, row.ts_id,
                       /*catalog_write=*/false));
    if (!row.is_enabled) {
      std::unique_lock lock(meta_mutex_);
      directory_.SetEnabled(row.trigger_id, false);
    }
  }

  // Durable ingestion: open (or create) the update log and re-stage
  // whatever a previous incarnation left unprocessed. This runs last so
  // the predicate index and sources are ready for the re-staged tokens.
  if (options_.durable_wal) {
    TMAN_ASSIGN_OR_RETURN(std::vector<UpdateLog::Recovered> recovered,
                          log_.Open(db_, options_.condition_partitions,
                                    options_.wal_checkpoint_bytes));
    std::vector<Task> tasks;
    for (const UpdateLog::Recovered& r : recovered) {
      AppendTokenTasks(r.token, &tasks, r.slot);
    }
    task_queue_.PushBatch(std::move(tasks));
    // A former cluster member holds recovered tokens for the router's
    // fences (see PauseProcessing), before any driver can start.
    if (!log_.Meta().empty() && !recovered.empty()) task_queue_.Pause();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Data sources
// ---------------------------------------------------------------------------

Status TriggerManager::RestoreLocalTableSource(const std::string& table) {
  TMAN_ASSIGN_OR_RETURN(DataSourceId id,
                        registry_.DefineLocalTable(db_, table));
  TMAN_ASSIGN_OR_RETURN(DataSourceInfo info, registry_.LookupById(id));
  TMAN_RETURN_IF_ERROR(pindex_->RegisterDataSource(id, info.schema));
  // The auto-installed update-capture trigger of §3: every change to the
  // table becomes an update descriptor submitted to TriggerMan.
  return db_->SetUpdateHook(table, [this](const UpdateDescriptor& token) {
    Status s = SubmitUpdate(token);
    if (!s.ok()) {
      TMAN_LOG(kError) << "update capture failed: " << s.ToString();
    }
  });
}

Result<DataSourceId> TriggerManager::DefineLocalTableSource(
    const std::string& table) {
  TMAN_RETURN_IF_ERROR(RestoreLocalTableSource(table));
  TMAN_ASSIGN_OR_RETURN(DataSourceInfo info, registry_.Lookup(table));
  if (opened_) {
    TriggerCatalog::DataSourceRow row;
    row.name = info.name;
    row.is_local_table = true;
    Status s = catalog_->InsertDataSource(row);
    if (!s.ok() && !s.IsAlreadyExists()) return s;
  }
  return info.id;
}

Result<DataSourceId> TriggerManager::DefineStreamSource(
    const std::string& name, const Schema& schema) {
  TMAN_ASSIGN_OR_RETURN(DataSourceId id, registry_.DefineStream(name, schema));
  TMAN_RETURN_IF_ERROR(pindex_->RegisterDataSource(id, schema));
  if (opened_) {
    TriggerCatalog::DataSourceRow row;
    row.name = ToLower(name);
    row.is_local_table = false;
    row.schema = schema;
    Status s = catalog_->InsertDataSource(row);
    if (!s.ok() && !s.IsAlreadyExists()) return s;
  }
  return id;
}

// ---------------------------------------------------------------------------
// Trigger definition (§5.1)
// ---------------------------------------------------------------------------

Result<std::shared_ptr<TriggerRuntime>> TriggerManager::BuildRuntime(
    const CreateTriggerCmd& cmd, TriggerId trigger_id, uint64_t ts_id,
    std::vector<Schema>* schemas_out) {
  if ((!cmd.group_by.empty() || cmd.having != nullptr) &&
      cmd.from.size() != 1) {
    return Status::NotSupported(
        "aggregate conditions over joins are future work (paper §9); "
        "group by/having requires a single tuple variable");
  }
  if (cmd.having != nullptr && cmd.group_by.empty()) {
    return Status::InvalidArgument("having requires a group by clause");
  }

  // Step 1 (validate): resolve the from-list against defined sources.
  std::vector<TupleVarInfo> vars;
  std::vector<Schema> schemas;
  for (const TupleVarDecl& decl : cmd.from) {
    TMAN_ASSIGN_OR_RETURN(DataSourceInfo info, registry_.Lookup(decl.source));
    for (const TupleVarInfo& existing : vars) {
      if (EqualsIgnoreCase(existing.var, decl.var)) {
        return Status::InvalidArgument("duplicate tuple variable: " +
                                       decl.var);
      }
    }
    TupleVarInfo v;
    v.var = decl.var;
    v.source_name = info.name;
    v.source_id = info.id;
    v.event = OpCode::kInsertOrUpdate;
    vars.push_back(std::move(v));
    schemas.push_back(info.schema);
  }

  // Apply the on-clause to its target tuple variable.
  std::vector<std::string> update_columns;
  int event_var = -1;
  if (cmd.on.has_value()) {
    const EventSpec& spec = *cmd.on;
    std::string target = spec.target;
    if (target.empty() && vars.size() == 1) target = vars[0].var;
    if (target.empty()) {
      return Status::InvalidArgument(
          "on-clause needs a target (e.g. 'on insert to house') when the "
          "trigger has several tuple variables");
    }
    for (size_t i = 0; i < vars.size(); ++i) {
      if (EqualsIgnoreCase(vars[i].var, target) ||
          EqualsIgnoreCase(vars[i].source_name, target)) {
        if (event_var >= 0) {
          return Status::InvalidArgument("ambiguous event target: " + target);
        }
        event_var = static_cast<int>(i);
      }
    }
    if (event_var < 0) {
      return Status::InvalidArgument("event target not in from-list: " +
                                     target);
    }
    vars[static_cast<size_t>(event_var)].event = spec.op;
    for (const std::string& col : spec.columns) {
      auto pieces = Split(col, '.');
      update_columns.push_back(ToLower(pieces.back()));
    }
    std::sort(update_columns.begin(), update_columns.end());
    update_columns.erase(
        std::unique(update_columns.begin(), update_columns.end()),
        update_columns.end());
  }

  // Step 2: qualify the when/group-by/having clauses and convert the
  // when-clause to CNF.
  auto resolver = [&](const std::string& attr) -> Result<std::string> {
    int found = -1;
    for (size_t i = 0; i < vars.size(); ++i) {
      if (schemas[i].FieldIndex(attr) >= 0) {
        if (found >= 0) {
          return Status::InvalidArgument("ambiguous attribute: " + attr);
        }
        found = static_cast<int>(i);
      }
    }
    if (found < 0) return Status::NotFound("no such attribute: " + attr);
    return vars[static_cast<size_t>(found)].var;
  };
  auto validator = [&](const std::string& var,
                       const std::string& attr) -> Status {
    for (size_t i = 0; i < vars.size(); ++i) {
      if (EqualsIgnoreCase(vars[i].var, var)) {
        if (schemas[i].FieldIndex(attr) < 0) {
          return Status::NotFound("no attribute " + attr +
                                  " in tuple variable " + var);
        }
        return Status::OK();
      }
    }
    return Status::NotFound("unknown tuple variable: " + var);
  };
  ExprPtr when = cmd.when;
  if (when != nullptr) {
    TMAN_ASSIGN_OR_RETURN(when, QualifyColumnRefs(when, resolver, validator));
  }
  std::vector<ExprPtr> group_by;
  for (const ExprPtr& g : cmd.group_by) {
    TMAN_ASSIGN_OR_RETURN(ExprPtr q,
                          QualifyColumnRefs(g, resolver, validator));
    group_by.push_back(std::move(q));
  }
  ExprPtr having = cmd.having;
  if (having != nullptr) {
    TMAN_ASSIGN_OR_RETURN(having,
                          QualifyColumnRefs(having, resolver, validator));
  }
  std::vector<ExprPtr> cnf;
  if (when != nullptr) {
    TMAN_ASSIGN_OR_RETURN(cnf, ToCnf(when));
  }

  // Step 3: trigger condition graph.
  TMAN_ASSIGN_OR_RETURN(ConditionGraph graph,
                        ConditionGraph::Build(vars, cnf));

  auto runtime = std::make_shared<TriggerRuntime>();
  runtime->id = trigger_id;
  runtime->ts_id = ts_id;
  runtime->name = ToLower(cmd.name);
  runtime->cmd = cmd;
  runtime->graph = graph;
  // Stash the normalized update-columns and qualified aggregate clauses
  // back into the command so later consumers see them uniformly.
  if (runtime->cmd.on.has_value()) {
    runtime->cmd.on->columns = update_columns;
  }
  runtime->cmd.group_by = std::move(group_by);
  runtime->cmd.having = std::move(having);
  // Qualify action event arguments as well, so aggregate extraction and
  // evaluation see resolved column refs.
  for (ExprPtr& arg : runtime->cmd.action.event_args) {
    TMAN_ASSIGN_OR_RETURN(arg, QualifyColumnRefs(arg, resolver, validator));
  }
  *schemas_out = std::move(schemas);
  return runtime;
}

void TriggerManager::DetachState(const TriggerState* state) {
  if (state == nullptr) return;
  for (const AlphaMemoryRef& ref : state->memories) {
    if (ref.memory != nullptr) alpha_memories_.Detach(ref);
  }
  aggregate_shapes_.Detach(state->aggregate);
}

Status TriggerManager::InstallTrigger(const CreateTriggerCmd& cmd,
                                      TriggerId trigger_id, uint64_t ts_id,
                                      bool catalog_write) {
  std::vector<Schema> schemas;
  TMAN_ASSIGN_OR_RETURN(std::shared_ptr<TriggerRuntime> runtime,
                        BuildRuntime(cmd, trigger_id, ts_id, &schemas));
  const std::vector<ConditionGraph::Node>& nodes = runtime->graph.nodes();
  auto state = std::make_unique<TriggerState>();
  if (runtime->multi_variable()) state->memories.resize(nodes.size());
  const uint32_t parts = std::max(1u, options_.condition_partitions);

  // Undoes what this install registered so far.
  std::vector<ExprId> expr_ids;
  auto fail = [&](Status s) {
    for (ExprId id : expr_ids) (void)pindex_->RemovePredicate(id);
    DetachState(state.get());
    return s;
  };

  // Step 5: register each node's selection predicate in the predicate
  // index, creating signatures/constant tables as needed. A stored node
  // attaches to the shared memory of its selection: the identity
  // AddPredicate returns, within the condition partition that will
  // match the predicate.
  for (size_t i = 0; i < nodes.size(); ++i) {
    const ConditionGraph::Node& node = nodes[i];
    PredicateSpec spec;
    spec.data_source = node.info.source_id;
    spec.op = node.info.event;
    if (runtime->cmd.on.has_value() &&
        node.info.event == runtime->cmd.on->op) {
      spec.update_columns = runtime->cmd.on->columns;
    }
    spec.predicate = node.SelectionPredicate();
    spec.trigger_id = trigger_id;
    spec.next_node = static_cast<NetworkNodeId>(i);
    auto added = pindex_->AddPredicate(spec);
    if (!added.ok()) return fail(added.status());
    expr_ids.push_back(added->expr_id);
    if (ATreatNetwork::NodeStored(runtime->graph, db_, i)) {
      state->memories[i] = alpha_memories_.Attach(
          {spec.data_source, added->sig_id,
           PartitionOf(added->expr_id, parts), added->constants});
      state->sources.push_back(spec.data_source);
    }
    if (catalog_write) {
      Status s;
      if (added->new_signature) {
        SignatureRow row;
        row.sig_id = added->sig_id;
        row.data_src_id = spec.data_source;
        row.signature_desc = added->signature_desc;
        row.const_table_name =
            added->constants.empty()
                ? ""
                : "const_table_" + std::to_string(added->sig_id);
        row.constant_set_size = added->class_size;
        row.constant_set_organization = added->org;
        s = catalog_->InsertSignature(row);
      } else {
        s = catalog_->UpdateSignatureStats(added->sig_id, added->class_size,
                                           added->org);
      }
      if (!s.ok()) return fail(s);
    }
  }
  runtime->expr_ids = expr_ids;

  // Step 4: the A-TREAT network over those memories.
  auto network =
      ATreatNetwork::Build(runtime->graph, db_, schemas, state->memories);
  if (!network.ok()) return fail(network.status());
  runtime->network = std::move(*network);

  // Aggregate triggers: a slot in the shared shape of their group by and
  // aggregate calls, maintained by the partition that matches their one
  // predicate (reset on reopen — the paper leaves durable aggregate state
  // as future work).
  std::optional<AggregateClauses> clauses;
  if (!runtime->cmd.group_by.empty()) {
    auto extracted = AggregateClauses::Extract(
        runtime->cmd.having, runtime->cmd.action.event_args);
    if (!extracted.ok()) return fail(extracted.status());
    clauses = std::move(*extracted);
    AggregateShapeKey key;
    key.source = nodes[0].info.source_id;
    key.partition = PartitionOf(expr_ids[0], parts);
    key.var = nodes[0].info.var;
    key.schema = schemas[0];
    key.group_by = runtime->cmd.group_by;
    key.calls = clauses->calls;
    state->aggregate = aggregate_shapes_.Attach(key, clauses->having);
  }

  const bool aggregate = clauses.has_value();
  if (state->sources.empty() && !aggregate) state.reset();  // keeps nothing
  std::shared_ptr<const FiringPlan> plan = action_templates_.MakePlan(
      *runtime, std::move(state), aggregate ? &*clauses : nullptr);
  const bool pinned = plan->network;
  {
    std::unique_lock lock(meta_mutex_);
    Status s = directory_.Install(
        trigger_id, ts_id, aggregate ? TriggerDirectory::kAggregate : 0, plan);
    if (!s.ok()) {
      for (ExprId id : expr_ids) (void)pindex_->RemovePredicate(id);
      DetachState(plan->state.get());
      return s;
    }
    trigger_by_name_[runtime->name] = trigger_id;
    // Remember the expr ids for drop trigger even after cache eviction.
    expr_ids_by_trigger_[trigger_id] = std::move(expr_ids);
  }

  // Only a firing through the join network pins the runtime; selection
  // and aggregate triggers fire from their plans.
  if (pinned) cache_->Put(trigger_id, TriggerHandle(runtime));
  return Status::OK();
}

Status TriggerManager::CreateTrigger(const CreateTriggerCmd& cmd) {
  uint64_t ts_id = default_ts_id_;
  if (!cmd.set_name.empty()) {
    TMAN_ASSIGN_OR_RETURN(auto set, catalog_->GetTriggerSet(cmd.set_name));
    if (!set.has_value()) {
      return Status::NotFound("no such trigger set: " + cmd.set_name);
    }
    ts_id = set->ts_id;
  }
  TMAN_ASSIGN_OR_RETURN(
      TriggerId id,
      catalog_->InsertTrigger(cmd.name, ts_id, "", cmd.original_text));
  Status s = InstallTrigger(cmd, id, ts_id, /*catalog_write=*/true);
  if (!s.ok()) {
    (void)catalog_->DeleteTrigger(cmd.name);
    return s;
  }
  return Status::OK();
}

Status TriggerManager::DropTrigger(const std::string& name) {
  std::string lname = ToLower(name);
  TriggerId id = 0;
  std::vector<ExprId> expr_ids;
  // Freed on return, once RemovePredicate below has taken every stripe
  // a fire pass could read it under exclusively.
  std::shared_ptr<const FiringPlan> plan;
  {
    std::unique_lock lock(meta_mutex_);
    auto it = trigger_by_name_.find(lname);
    if (it == trigger_by_name_.end()) {
      return Status::NotFound("no such trigger: " + name);
    }
    id = it->second;
    auto eit = expr_ids_by_trigger_.find(id);
    if (eit != expr_ids_by_trigger_.end()) {
      expr_ids = eit->second;
      expr_ids_by_trigger_.erase(eit);
    }
    trigger_by_name_.erase(it);
    directory_.Remove(id, &plan);
  }
  for (ExprId eid : expr_ids) {
    Status s = pindex_->RemovePredicate(eid);
    if (!s.ok()) {
      TMAN_LOG(kWarn) << "drop trigger: predicate removal failed: "
                      << s.ToString();
    }
  }
  if (plan != nullptr) DetachState(plan->state.get());
  cache_->Invalidate(id);
  return catalog_->DeleteTrigger(lname);
}

Status TriggerManager::SetTriggerEnabled(const std::string& name,
                                         bool enabled) {
  std::string lname = ToLower(name);
  TMAN_RETURN_IF_ERROR(catalog_->SetTriggerEnabled(lname, enabled));
  std::unique_lock lock(meta_mutex_);
  auto it = trigger_by_name_.find(lname);
  if (it != trigger_by_name_.end()) directory_.SetEnabled(it->second, enabled);
  return Status::OK();
}

Status TriggerManager::CreateTriggerSet(const std::string& name,
                                        const std::string& comments) {
  TMAN_ASSIGN_OR_RETURN(uint64_t ts_id,
                        catalog_->CreateTriggerSet(name, comments));
  std::unique_lock lock(meta_mutex_);
  return directory_.SetSetEnabled(ts_id, true);
}

Status TriggerManager::SetTriggerSetEnabled(const std::string& name,
                                            bool enabled) {
  TMAN_RETURN_IF_ERROR(catalog_->SetTriggerSetEnabled(name, enabled));
  TMAN_ASSIGN_OR_RETURN(auto set, catalog_->GetTriggerSet(name));
  std::unique_lock lock(meta_mutex_);
  return directory_.SetSetEnabled(set->ts_id, enabled);
}

// ---------------------------------------------------------------------------
// Command interface
// ---------------------------------------------------------------------------

Result<std::string> TriggerManager::ExecuteCommand(std::string_view text) {
  // Introspection commands sit outside the SQL-ish grammar: handled here
  // so the console AND the wire protocol (ipc ClientConnection routes
  // Command frames through ExecuteCommand) both get them.
  std::string_view trimmed = Trim(text);
  std::string lowered = ToLower(std::string(trimmed));
  if (lowered == "stats") return StatsText();
  if (lowered == "adapt" || lowered.rfind("adapt ", 0) == 0) {
    std::string_view args = trimmed.size() > 5 ? Trim(trimmed.substr(5))
                                               : std::string_view();
    return AdaptCommand(args);
  }
  TMAN_ASSIGN_OR_RETURN(Command cmd, ParseCommand(text));
  if (auto* create = std::get_if<CreateTriggerCmd>(&cmd)) {
    TMAN_RETURN_IF_ERROR(CreateTrigger(*create));
    return "trigger " + create->name + " created";
  }
  if (auto* drop = std::get_if<DropTriggerCmd>(&cmd)) {
    TMAN_RETURN_IF_ERROR(DropTrigger(drop->name));
    return "trigger " + drop->name + " dropped";
  }
  if (auto* set = std::get_if<CreateTriggerSetCmd>(&cmd)) {
    TMAN_RETURN_IF_ERROR(CreateTriggerSet(set->name, set->comments));
    return "trigger set " + set->name + " created";
  }
  if (auto* enable = std::get_if<EnableCmd>(&cmd)) {
    Status s = enable->is_set
                   ? SetTriggerSetEnabled(enable->name, enable->enable)
                   : SetTriggerEnabled(enable->name, enable->enable);
    TMAN_RETURN_IF_ERROR(s);
    return std::string(enable->enable ? "enabled " : "disabled ") +
           (enable->is_set ? "trigger set " : "trigger ") + enable->name;
  }
  if (auto* define = std::get_if<DefineDataSourceCmd>(&cmd)) {
    if (db_->HasTable(define->name)) {
      TMAN_RETURN_IF_ERROR(DefineLocalTableSource(define->name).status());
      return "data source " + define->name + " defined (local table)";
    }
    TMAN_RETURN_IF_ERROR(
        DefineStreamSource(define->name, define->schema).status());
    return "data source " + define->name + " defined (stream)";
  }
  return Status::Internal("unhandled command");
}

Result<std::string> TriggerManager::ExecuteScript(std::string_view text) {
  std::string out;
  for (const std::string& piece : Split(std::string(text), ';')) {
    std::string_view trimmed = Trim(piece);
    if (trimmed.empty()) continue;
    TMAN_ASSIGN_OR_RETURN(std::string msg, ExecuteCommand(trimmed));
    if (!out.empty()) out += "\n";
    out += msg;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Token pipeline (§5.4 + §6)
// ---------------------------------------------------------------------------

Status TriggerManager::SubmitUpdate(const UpdateDescriptor& token) {
  return SubmitUpdateBatch({token});
}

Status TriggerManager::SubmitUpdateBatch(
    const std::vector<UpdateDescriptor>& tokens,
    std::vector<Status>* per_update, const BatchStamp* stamp) {
  StageTimer ingest_timer(&stage_metrics_, Stage::kIngest, tokens.size());
  updates_submitted_.fetch_add(tokens.size(), std::memory_order_relaxed);
  std::vector<Task> tasks;
  const bool durable = wal_enabled();
  if (durable) {
    // The batch is durable (group-committed) before any task is staged;
    // one task per (token, partition), each reporting back to the log.
    Result<uint64_t> batch_id = log_.Stage(tokens, stamp);
    if (!batch_id.ok()) {
      if (per_update != nullptr) {
        per_update->assign(tokens.size(), batch_id.status());
      }
      return batch_id.status();
    }
    tasks.reserve(tokens.size());
    for (uint32_t i = 0; i < tokens.size(); ++i) {
      AppendTokenTasks(tokens[i], &tasks, UpdateLog::Slot{*batch_id, i});
    }
  } else {
    // Memory mode: the batch is chunked into columnar token-batch tasks
    // so the whole group rides the batched pipeline end-to-end, and lands
    // under one shard lock with one wakeup pass.
    AppendTokenBatchTasks(tokens, &tasks);
  }
  if (per_update != nullptr) per_update->assign(tokens.size(), Status::OK());
  task_queue_.PushBatch(std::move(tasks));
  if (durable) log_.MaybeCheckpoint();
  return Status::OK();
}

void TriggerManager::AppendTokenTasks(const UpdateDescriptor& token,
                                      std::vector<Task>* out,
                                      std::optional<UpdateLog::Slot> logged) {
  const uint32_t parts = std::max(1u, options_.condition_partitions);
  for (uint32_t p = 0; p < parts; ++p) {
    Task task;
    task.kind = parts == 1 ? TaskKind::kProcessToken
                           : TaskKind::kProcessTokenPartition;
    task.work = [this, token, p, parts, logged]() {
      // A token fenced by a cluster rejoin (FenceWalSessions) was already
      // re-routed to another node; complete its bookkeeping without
      // processing it so it neither fires here nor replays again.
      if (logged && log_.Fenced(logged->batch_id, logged->index)) {
        log_.Done(logged->batch_id, logged->index);
        return Status::OK();
      }
      Status s = ProcessToken(token, p, parts);
      // Only completed partitions report back: a failed one leaves the
      // token pending so the next recovery replays it (at-least-once).
      if (logged && s.ok()) log_.Done(logged->batch_id, logged->index);
      return s;
    };
    out->push_back(std::move(task));
  }
}

void TriggerManager::AppendTokenBatchTasks(
    const std::vector<UpdateDescriptor>& tokens, std::vector<Task>* out) {
  const size_t chunk = std::max<size_t>(1, options_.batch_size);
  const uint32_t parts = std::max(1u, options_.condition_partitions);
  for (size_t begin = 0; begin < tokens.size(); begin += chunk) {
    const size_t end = std::min(tokens.size(), begin + chunk);
    if (end - begin == 1) {
      AppendTokenTasks(tokens[begin], out);
      continue;
    }
    // The group is shared by its partition tasks; each runs the whole
    // group through the batched pipeline for its partition.
    auto group = std::make_shared<std::vector<UpdateDescriptor>>(
        tokens.begin() + begin, tokens.begin() + end);
    for (uint32_t p = 0; p < parts; ++p) {
      Task task;
      task.kind = parts == 1 ? TaskKind::kProcessToken
                             : TaskKind::kProcessTokenPartition;
      task.work = [this, group, p, parts]() {
        return ProcessTokenBatch(*group, p, parts);
      };
      out->push_back(std::move(task));
    }
  }
}

Status TriggerManager::ProcessPending() {
  // Batched pop: one shard-lock acquisition claims a run of tasks, the
  // same amortization the driver pool gets from DriverConfig::pop_batch.
  std::vector<Task> tasks;
  const size_t chunk = std::max<uint32_t>(1, options_.batch_size);
  for (;;) {
    tasks.clear();
    if (task_queue_.PopBatch(&tasks, chunk) == 0) break;
    for (Task& task : tasks) {
      Status s = task.work();
      task_queue_.MarkDone();
      if (!s.ok()) {
        TMAN_LOG(kWarn) << "task failed: " << s.ToString();
      }
    }
  }
  return Status::OK();
}

Status TriggerManager::Start() {
  drivers_->Start();
  if (options_.adaptive && !adapt_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(adapt_thread_mutex_);
      adapt_stop_ = false;
    }
    adapt_thread_ = std::thread([this]() {
      std::unique_lock<std::mutex> lock(adapt_thread_mutex_);
      while (!adapt_stop_) {
        adapt_thread_cv_.wait_for(lock, options_.adapt_interval);
        if (adapt_stop_) break;
        if (!adaptive_enabled()) continue;
        lock.unlock();
        RunAdaptationRound();
        lock.lock();
      }
    });
  }
  return Status::OK();
}

void TriggerManager::Stop() {
  if (adapt_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(adapt_thread_mutex_);
      adapt_stop_ = true;
    }
    adapt_thread_cv_.notify_all();
    adapt_thread_.join();
  }
  if (drivers_ != nullptr) drivers_->Stop();
}

AdaptRoundReport TriggerManager::RunAdaptationRound() {
  std::lock_guard<std::mutex> lock(adapt_run_mutex_);
  AdaptRoundReport report = reopt_->RunOnce();
  adapt_rounds_.fetch_add(1, std::memory_order_relaxed);
  return report;
}

void TriggerManager::Drain() { task_queue_.WaitIdle(); }

namespace {

/// A short run of trivially copyable values kept inline, then on the heap
/// once it outgrows N.
template <typename T, size_t N>
class InlineVector {
 public:
  void push_back(const T& v) {
    if (size_ == N) heap_.assign(inline_.begin(), inline_.end());
    if (size_ >= N) {
      heap_.push_back(v);
    } else {
      inline_[size_] = v;
    }
    ++size_;
  }
  void clear() {
    size_ = 0;
    heap_.clear();
  }
  T* data() { return size_ > N ? heap_.data() : inline_.data(); }
  size_t size() const { return size_; }
  T& operator[](size_t i) { return data()[i]; }

 private:
  std::array<T, N> inline_;
  std::vector<T> heap_;
  size_t size_ = 0;
};

/// The shared memories one tuple's maintenance already updated: every
/// trigger with a selection matches it, but their memory changes once.
/// A short inline list scanned in place, then a set once it fills.
class UpdatedMemories {
 public:
  /// True the first time `memory` is seen.
  bool Insert(const AlphaMemory* memory) {
    if (size_ < kScan) {
      const AlphaMemory** end = list_.data() + size_;
      if (std::find(list_.data(), end, memory) != end) return false;
      list_[size_++] = memory;
      if (size_ == kScan) set_.insert(list_.begin(), list_.end());
      return true;
    }
    return set_.insert(memory).second;
  }

 private:
  static constexpr size_t kScan = 16;
  std::array<const AlphaMemory*, kScan> list_;
  size_t size_ = 0;
  std::unordered_set<const AlphaMemory*> set_;
};

}  // namespace

Status TriggerManager::MaintainToken(const UpdateDescriptor& token,
                                     uint32_t partition,
                                     uint32_t num_partitions) {
  // Maintenance pass (only when some trigger on this source keeps state:
  // stored alpha memories of multi-variable triggers, or aggregate
  // groups). Matching here ignores event opcodes — state must track the
  // selection result regardless of which events fire the trigger. A
  // virtual node keeps nothing. Each shared memory and aggregate shape
  // belongs to one condition partition (its key), so exactly one
  // partition task of the token updates it.
  if (!directory_.NeedsMaintenance(token.data_source)) return Status::OK();
  auto maintain = [&](const Tuple& tuple, bool add) -> Status {
    UpdatedMemories updated;
    InlineVector<AggregateMatch, 128> aggregates;
    return pindex_->MatchMaintenance(
        token.data_source, tuple, partition, num_partitions,
        [&](const PredicateMatch& m) {
          // Read under the match's stripe lock (TriggerDirectory::Plan),
          // which keeps the plan and its state alive.
          const FiringPlan* plan = directory_.Plan(m.trigger_id);
          if (plan == nullptr || plan->state == nullptr) return;
          const TriggerState& state = *plan->state;
          if (state.aggregate.shape != nullptr) {
            // A disabled aggregate's groups stay frozen.
            if ((directory_.Flags(m.trigger_id) &
                 TriggerDirectory::kEnabled) != 0) {
              aggregates.push_back({plan, m.next_node});
            }
            return;
          }
          // Join memories track the selection even while the trigger is
          // disabled.
          AlphaMemory* memory = state.memory(m.next_node);
          if (memory == nullptr || !updated.Insert(memory)) return;
          if (add) {
            memory->Insert(tuple);
          } else {
            memory->Remove(tuple);
          }
        },
        // Still under the stripe lock, which keeps every matched plan and
        // its aggregate slot alive.
        [&]() {
          return aggregates.size() == 0
                     ? Status::OK()
                     : RunAggregateDeltas(aggregates.data(),
                                          aggregates.size(), token, tuple,
                                          add);
        });
  };
  if (token.old_tuple.has_value() &&
      (token.op == OpCode::kDelete || token.op == OpCode::kUpdate)) {
    TMAN_RETURN_IF_ERROR(maintain(*token.old_tuple, /*add=*/false));
  }
  if (token.new_tuple.has_value() &&
      (token.op == OpCode::kInsert || token.op == OpCode::kUpdate)) {
    TMAN_RETURN_IF_ERROR(maintain(*token.new_tuple, /*add=*/true));
  }
  return Status::OK();
}

Status TriggerManager::ProcessToken(const UpdateDescriptor& token,
                                    uint32_t partition,
                                    uint32_t num_partitions) {
  if (partition == 0) {
    tokens_processed_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    StageTimer maintain_timer(&stage_metrics_, Stage::kMaintain, 1);
    TMAN_RETURN_IF_ERROR(MaintainToken(token, partition, num_partitions));
  }

  // Fire matching: event condition + selection predicate through the
  // predicate index, then joins, then actions. (The kMatch span covers
  // the whole pass; firing work inside it is also timed separately as
  // kFire sub-spans.)
  StageTimer match_timer(&stage_metrics_, Stage::kMatch, 1);
  Status inner = Status::OK();
  TMAN_RETURN_IF_ERROR(pindex_->MatchPartitioned(
      token, partition, num_partitions, [&](const PredicateMatch& m) {
        if (!inner.ok()) return;
        Status s = RunFiring(m, token);
        if (!s.ok()) inner = s;
      }));
  return inner;
}

Status TriggerManager::ProcessTokenBatch(
    const std::vector<UpdateDescriptor>& tokens, uint32_t partition,
    uint32_t num_partitions) {
  if (tokens.empty()) return Status::OK();
  if (partition == 0) {
    tokens_processed_.fetch_add(tokens.size(), std::memory_order_relaxed);
  }

  // Maintenance stays per token and in submission order: alpha-memory and
  // aggregate-group upkeep is stateful, so reordering across tokens would
  // change join results. For the same reason a token whose maintenance
  // changes stored memories first fires the tokens before it (their
  // joins must not see it, as in the scalar pipeline); the tokens between
  // two such tokens share one batched fire pass. A token whose
  // maintenance fails is excluded from the fire pass (the scalar pipeline
  // would have returned before matching it) without stopping its
  // batch-mates.
  std::vector<Status> lane_status(tokens.size());
  size_t begin = 0;  // first token not yet fired
  while (begin < tokens.size()) {
    size_t end = begin;
    {
      StageTimer maintain_timer(&stage_metrics_, Stage::kMaintain, 0);
      for (; end < tokens.size(); ++end) {
        if (end > begin &&
            directory_.HasStoredMemories(tokens[end].data_source)) {
          break;
        }
        lane_status[end] = MaintainToken(tokens[end], partition,
                                         num_partitions);
      }
      maintain_timer.set_items(end - begin);
    }
    FireTokens(tokens, begin, end, partition, num_partitions, &lane_status);
    begin = end;
  }

  for (const Status& s : lane_status) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

void TriggerManager::FireTokens(const std::vector<UpdateDescriptor>& tokens,
                                size_t begin, size_t end, uint32_t partition,
                                uint32_t num_partitions,
                                std::vector<Status>* lane_status) {
  std::vector<Status>& status = *lane_status;
  // The whole batch when it fires at once with no failure; otherwise a
  // copy of the tokens to fire, each lane mapped to its token.
  const std::vector<UpdateDescriptor>* match_tokens = &tokens;
  std::vector<UpdateDescriptor> subset;
  std::vector<size_t> lane_map;
  bool whole = begin == 0 && end == tokens.size();
  for (size_t i = begin; i < end && whole; ++i) whole = status[i].ok();
  if (!whole) {
    for (size_t i = begin; i < end; ++i) {
      if (!status[i].ok()) continue;
      subset.push_back(tokens[i]);
      lane_map.push_back(i);
    }
    if (subset.empty()) return;
    match_tokens = &subset;
  }
  auto token_of = [&](size_t lane) { return whole ? lane : lane_map[lane]; };

  // One batched fire pass: probes hashed per (stripe, source) group,
  // rest-of-predicates through the batched VM.
  StageTimer match_timer(&stage_metrics_, Stage::kMatch,
                         match_tokens->size());
  std::vector<Status> match_status;
  (void)pindex_->MatchBatch(
      *match_tokens, partition, num_partitions,
      [&](size_t lane, const PredicateMatch& m) {
        const size_t i = token_of(lane);
        if (!status[i].ok()) return;
        Status s = RunFiring(m, tokens[i]);
        if (!s.ok()) status[i] = s;
      },
      &match_status);
  for (size_t lane = 0; lane < match_status.size(); ++lane) {
    const size_t i = token_of(lane);
    if (status[i].ok() && !match_status[lane].ok()) {
      status[i] = match_status[lane];
    }
  }
}

Status TriggerManager::RunFiring(const PredicateMatch& match,
                                 const UpdateDescriptor& token) {
  if (!TriggerDirectory::Fires(directory_.Flags(match.trigger_id))) {
    return Status::OK();
  }
  // Read under the stripe lock the match came from, which keeps the plan
  // alive (TriggerDirectory::Plan).
  const FiringPlan* plan = directory_.Plan(match.trigger_id);
  if (plan == nullptr) return Status::OK();
  const Tuple& tuple = token.EffectiveTuple();
  if (!plan->network) {
    // One tuple variable: the predicate index decided the whole
    // condition, and the P-node is the next network node (§5.4).
    StageTimer fire_timer(&stage_metrics_, Stage::kFire, 1);
    rule_firings_.fetch_add(1, std::memory_order_relaxed);
    const Tuple* binding = &tuple;
    RunAction(*plan, ActionContext{&binding, &token, match.next_node});
    return Status::OK();
  }
  TMAN_ASSIGN_OR_RETURN(TriggerHandle trigger, cache_->Pin(match.trigger_id));
  // The callback captures one reference, so the FiringFn holding it fits
  // std::function's inline storage: a join that fires nothing allocates
  // nothing.
  struct Firing {
    TriggerManager* self;
    const FiringPlan* plan;
    const UpdateDescriptor* token;
    NetworkNodeId node;
    StageTimer timer;
    uint64_t fired = 0;
  } firing{this, plan, &token, match.next_node,
           StageTimer(&stage_metrics_, Stage::kFire, 0)};
  return trigger->network->MatchJoins(
      match.next_node, tuple, [&firing](const Tuple* const* bindings) {
        firing.self->rule_firings_.fetch_add(1, std::memory_order_relaxed);
        firing.timer.set_items(++firing.fired);
        firing.self->RunAction(
            *firing.plan, ActionContext{bindings, firing.token, firing.node});
      });
}

void TriggerManager::RunAction(const FiringPlan& plan,
                               const ActionContext& ctx) {
  if (options_.concurrent_actions) {
    // Rule action concurrency (§6): the action runs as its own task,
    // holding the plan and copies of what it binds.
    std::vector<Tuple> bindings;
    for (size_t i = 0; i < plan.action->vars.size(); ++i) {
      bindings.push_back(*ctx.bindings[i]);
    }
    Task task;
    task.kind = TaskKind::kRunAction;
    task.work = [this, keep_alive = plan.shared_from_this(),
                 bindings = std::move(bindings), token = *ctx.token,
                 node = ctx.arrival_node]() {
      std::vector<const Tuple*> row;
      for (const Tuple& t : bindings) row.push_back(&t);
      return actions_->Execute(*keep_alive,
                               ActionContext{row.data(), &token, node});
    };
    task_queue_.Push(std::move(task));
    return;
  }
  Status s = actions_->Execute(plan, ctx);
  if (!s.ok()) {
    TMAN_LOG(kWarn) << "action of trigger " << plan.name
                    << " failed: " << s.ToString();
  }
}

Status TriggerManager::RunAggregateDeltas(const AggregateMatch* matches,
                                          size_t n,
                                          const UpdateDescriptor& token,
                                          const Tuple& tuple, bool add) {
  // Each shape takes the tuple once, for the slots of all of its matches
  // (in match order); usually every match shares one shape.
  InlineVector<const AggregateShape*, 8> applied;
  InlineVector<uint32_t, 128> slots;
  InlineVector<uint32_t, 128> owners;  // slots[i]'s index in `matches`
  std::vector<AggregateShape::Firing> firings;  // allocated only to fire
  const Tuple* binding = &tuple;
  for (size_t first = 0; first < n; ++first) {
    AggregateShape* shape =
        matches[first].plan->state->aggregate.shape.get();
    const AggregateShape** seen = applied.data();
    if (std::find(seen, seen + applied.size(), shape) !=
        seen + applied.size()) {
      continue;
    }
    applied.push_back(shape);
    slots.clear();
    owners.clear();
    for (size_t i = first; i < n; ++i) {
      const AggregateRef& ref = matches[i].plan->state->aggregate;
      if (ref.shape.get() != shape) continue;
      slots.push_back(ref.slot);
      owners.push_back(static_cast<uint32_t>(i));
    }
    firings.clear();
    Status status =
        shape->Apply(tuple, add, slots.data(), slots.size(), &firings);
    for (const AggregateShape::Firing& firing : firings) {
      const AggregateMatch& m = matches[owners[firing.index]];
      rule_firings_.fetch_add(1, std::memory_order_relaxed);
      // The group's aggregate values lead the action's parameters.
      Status s = actions_->Execute(
          *m.plan, ActionContext{&binding, &token, m.node, &firing.values});
      if (!s.ok()) {
        TMAN_LOG(kWarn) << "aggregate action of trigger " << m.plan->name
                        << " failed: " << s.ToString();
      }
    }
    TMAN_RETURN_IF_ERROR(status);
  }
  return Status::OK();
}

Result<TriggerHandle> TriggerManager::LoadTrigger(TriggerId id) {
  TMAN_ASSIGN_OR_RETURN(auto row, catalog_->GetTriggerById(id));
  if (!row.has_value()) {
    return Status::NotFound("trigger " + std::to_string(id) +
                            " not in catalog");
  }
  TMAN_ASSIGN_OR_RETURN(Command cmd, ParseCommand(row->trigger_text));
  auto* create = std::get_if<CreateTriggerCmd>(&cmd);
  if (create == nullptr) {
    return Status::Corruption("catalog trigger_text is not create trigger");
  }
  std::vector<Schema> schemas;
  TMAN_ASSIGN_OR_RETURN(std::shared_ptr<TriggerRuntime> runtime,
                        BuildRuntime(*create, id, row->ts_id, &schemas));
  // A reload re-attaches the stored memories the trigger's plan holds, so
  // it sees every row the evicted copy saw. Only a reopen starts them
  // empty: local tables are virtual nodes, and replaying a stream is out
  // of scope (the paper's persistent queue covers staged, not consumed,
  // updates).
  std::vector<AlphaMemoryRef> memories;
  {
    std::shared_lock lock(meta_mutex_);
    const FiringPlan* plan = directory_.Plan(id);
    if (plan == nullptr) {
      return Status::NotFound("trigger " + std::to_string(id) +
                              " is not installed");
    }
    if (plan->state != nullptr) memories = plan->state->memories;
  }
  TMAN_ASSIGN_OR_RETURN(
      runtime->network,
      ATreatNetwork::Build(runtime->graph, db_, schemas, std::move(memories)));
  return TriggerHandle(runtime);
}

Result<TriggerHandle> TriggerManager::PinTrigger(const std::string& name) {
  TriggerId id = 0;
  {
    std::shared_lock lock(meta_mutex_);
    auto it = trigger_by_name_.find(ToLower(name));
    if (it == trigger_by_name_.end()) {
      return Status::NotFound("no such trigger: " + name);
    }
    id = it->second;
  }
  return cache_->Pin(id);
}

TriggerManagerStats TriggerManager::stats() const {
  TriggerManagerStats st;
  st.updates_submitted = updates_submitted_.load(std::memory_order_relaxed);
  st.tokens_processed = tokens_processed_.load(std::memory_order_relaxed);
  st.rule_firings = rule_firings_.load(std::memory_order_relaxed);
  st.actions = actions_->stats();
  st.cache = cache_->stats();
  st.predicates = pindex_->stats();
  st.alpha = alpha_memories_.stats();
  st.aggregates = aggregate_shapes_.stats();
  if (wal_enabled()) {
    st.wal = log_.wal()->stats();
    st.wal_pending_tokens = log_.PendingTokens();
  }
  st.stages = stage_metrics_.Snapshot();
  st.stages.queue_depth = task_queue_.size();
  st.stages.queue_in_flight = task_queue_.in_flight();
  st.adapt_rounds = adapt_rounds_.load(std::memory_order_relaxed);
  st.adapt_switches = reopt_->total_switches();
  st.adapt_events = adapt_log_.total();
  return st;
}

std::string TriggerManager::StatsText() const {
  TriggerManagerStats st = stats();
  std::string out;
  out += "submitted=" + std::to_string(st.updates_submitted) +
         " processed=" + std::to_string(st.tokens_processed) +
         " firings=" + std::to_string(st.rule_firings) + "\n";
  out += "signatures=" + std::to_string(st.predicates.num_signatures) +
         " predicates=" + std::to_string(st.predicates.num_predicates) +
         " matches=" + std::to_string(st.predicates.matches_emitted) + "\n";
  out += "alpha: memories=" + std::to_string(st.alpha.memories) +
         " rows=" + std::to_string(st.alpha.rows) +
         " nodes=" + std::to_string(st.alpha.nodes) + "\n";
  out += "aggregates: shapes=" + std::to_string(st.aggregates.shapes) +
         " triggers=" + std::to_string(st.aggregates.triggers) +
         " groups=" + std::to_string(st.aggregates.groups) + "\n";
  out += st.stages.ToString();
  out += "adapt: rounds=" + std::to_string(st.adapt_rounds) +
         " switches=" + std::to_string(st.adapt_switches) +
         " events=" + std::to_string(st.adapt_events) + "\n";
  // Per-signature runtime stats, the raw feed of the re-optimizer.
  for (const SignatureStatsReport& r : pindex_->SignatureStats()) {
    const SignatureRuntimeStats& s = r.stats;
    double selectivity =
        s.probes > 0 ? static_cast<double>(s.matches) / s.probes : 0.0;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "sig %llu src=%u org=%s size=%zu probes=%llu "
                  "matches=%llu sel=%.4f switches=%u %s\n",
                  static_cast<unsigned long long>(s.sig_id),
                  static_cast<unsigned>(r.source),
                  std::string(OrgTypeName(s.org)).c_str(), s.class_size,
                  static_cast<unsigned long long>(s.probes),
                  static_cast<unsigned long long>(s.matches), selectivity,
                  s.org_switches, s.description.c_str());
    out += line;
  }
  return out;
}

Result<std::string> TriggerManager::AdaptCommand(std::string_view args) {
  std::string sub = ToLower(std::string(Trim(args)));
  if (sub.empty() || sub == "status") {
    std::string out;
    out += std::string("adaptive=") + (options_.adaptive ? "on" : "off") +
           " gate=" + (adaptive_enabled() ? "open" : "closed") +
           " rounds=" + std::to_string(adapt_rounds_.load()) +
           " switches=" + std::to_string(reopt_->total_switches()) +
           " events=" + std::to_string(adapt_log_.total()) + "\n";
    const AdaptPolicy& p = reopt_->policy();
    out += "policy: min_probes=" + std::to_string(p.min_probes) +
           " min_gain=" + std::to_string(p.min_gain_ratio) +
           " cooldown=" + std::to_string(p.cooldown_rounds) + "\n";
    return out;
  }
  if (sub == "run") {
    AdaptRoundReport report = RunAdaptationRound();
    return report.ToString();
  }
  if (sub == "log") {
    std::vector<AdaptationRecord> tail = adapt_log_.Tail(32);
    if (tail.empty()) return std::string("adaptation log empty");
    std::string out;
    for (const AdaptationRecord& rec : tail) out += rec.ToString() + "\n";
    return out;
  }
  if (sub == "on") {
    set_adaptive_enabled(true);
    return std::string("adaptation enabled");
  }
  if (sub == "off") {
    set_adaptive_enabled(false);
    return std::string("adaptation disabled");
  }
  return Status::InvalidArgument(
      "usage: adapt [status|run|log|on|off]");
}

}  // namespace tman

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>

#include "core/trigger_manager.h"
#include "db/sql.h"
#include "expr/eval.h"

namespace tman {
namespace {

class TriggerManagerTest : public ::testing::Test {
 protected:
  void SetUp() override { Reset(TriggerManagerOptions()); }

  void Reset(TriggerManagerOptions options) {
    tman_.reset();
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->CreateTable("emp", Schema({{"name", DataType::kVarchar},
                                                {"salary", DataType::kFloat},
                                                {"dept", DataType::kInt}}))
                    .ok());
    tman_ = std::make_unique<TriggerManager>(db_.get(), options);
    ASSERT_TRUE(tman_->Open().ok());
    ASSERT_TRUE(tman_->DefineLocalTableSource("emp").ok());
  }

  void Exec(const std::string& cmd) {
    auto r = tman_->ExecuteCommand(cmd);
    ASSERT_TRUE(r.ok()) << cmd << " -> " << r.status().ToString();
  }

  void InsertEmp(const std::string& name, double salary, int64_t dept) {
    ASSERT_TRUE(db_->Insert("emp", Tuple({Value::String(name),
                                          Value::Float(salary),
                                          Value::Int(dept)}))
                    .ok());
  }

  /// A second local table source for join triggers: dept(id, floor).
  void CreateDeptTable() {
    ASSERT_TRUE(db_->CreateTable("dept", Schema({{"id", DataType::kInt},
                                                 {"floor", DataType::kInt}}))
                    .ok());
    ASSERT_TRUE(tman_->DefineLocalTableSource("dept").ok());
  }

  void InsertDept(int64_t id, int64_t floor) {
    ASSERT_TRUE(
        db_->Insert("dept", Tuple({Value::Int(id), Value::Int(floor)})).ok());
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<TriggerManager> tman_;
};

TEST_F(TriggerManagerTest, EndToEndRaiseEvent) {
  Exec("create trigger bigSalary from emp on insert "
       "when emp.salary > 80000 do raise event BigHire(emp.name)");

  InsertEmp("Bob", 90000, 1);
  InsertEmp("Carl", 20000, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());

  auto events = tman_->events().History();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "BigHire");
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].as_string(), "Bob");
  EXPECT_EQ(tman_->stats().rule_firings, 1u);
}

TEST_F(TriggerManagerTest, PaperExampleUpdateFred) {
  InsertEmp("Bob", 50000, 1);
  InsertEmp("Fred", 10000, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());  // drain capture noise

  Exec("create trigger updateFred from emp on update(emp.salary) "
       "when emp.name = 'Bob' "
       "do execSQL 'update emp set salary=:NEW.emp.salary where "
       "emp.name=''Fred'''");

  // Raise Bob's salary; the trigger mirrors it onto Fred.
  auto r = ExecuteSql(db_.get(), "UPDATE emp SET salary = 60000 "
                                 "WHERE name = 'Bob'");
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());

  auto fred = ExecuteSql(db_.get(),
                         "SELECT salary FROM emp WHERE name = 'Fred'");
  ASSERT_TRUE(fred.ok());
  ASSERT_EQ(fred->rows.size(), 1u);
  EXPECT_DOUBLE_EQ(fred->rows[0].at(0).as_float(), 60000);
}

TEST_F(TriggerManagerTest, UpdateColumnFilterEndToEnd) {
  Exec("create trigger salaryWatch from emp on update(emp.salary) "
       "do raise event SalaryChanged(emp.name)");
  InsertEmp("Ann", 100, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 0u);  // insert is not update

  // Changing dept only: no firing.
  ASSERT_TRUE(
      ExecuteSql(db_.get(), "UPDATE emp SET dept = 2 WHERE name = 'Ann'")
          .ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 0u);

  // Changing salary: fires.
  ASSERT_TRUE(
      ExecuteSql(db_.get(), "UPDATE emp SET salary = 200 WHERE name = 'Ann'")
          .ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 1u);
}

TEST_F(TriggerManagerTest, OldMacroInExecSqlAction) {
  ASSERT_TRUE(db_->CreateTable("audit", Schema({{"who", DataType::kVarchar},
                                                {"before", DataType::kFloat},
                                                {"after", DataType::kFloat}}))
                  .ok());
  InsertEmp("Bob", 100, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  Exec("create trigger auditRaise from emp on update(emp.salary) "
       "do execSQL 'insert into audit values (:NEW.emp.name, "
       ":OLD.emp.salary, :NEW.emp.salary)'");
  ASSERT_TRUE(
      ExecuteSql(db_.get(), "UPDATE emp SET salary = 150 WHERE name = 'Bob'")
          .ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  auto rows = ExecuteSql(db_.get(), "SELECT * FROM audit");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0].at(0).as_string(), "Bob");
  EXPECT_DOUBLE_EQ(rows->rows[0].at(1).as_float(), 100);
  EXPECT_DOUBLE_EQ(rows->rows[0].at(2).as_float(), 150);
}

TEST_F(TriggerManagerTest, DeleteEventTrigger) {
  Exec("create trigger onGone from emp on delete from emp "
       "do raise event Gone(emp.name)");
  InsertEmp("Zed", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 0u);
  ASSERT_TRUE(
      ExecuteSql(db_.get(), "DELETE FROM emp WHERE name = 'Zed'").ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  auto events = tman_->events().History();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "Gone");
  EXPECT_EQ(events[0].args[0].as_string(), "Zed");
}

TEST_F(TriggerManagerTest, EnableDisableTrigger) {
  Exec("create trigger t from emp on insert do raise event E(emp.name)");
  Exec("disable trigger t");
  InsertEmp("A", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 0u);
  Exec("enable trigger t");
  InsertEmp("B", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 1u);
}

TEST_F(TriggerManagerTest, TriggerSetsDisableMembers) {
  Exec("create trigger set batch 'batch triggers'");
  Exec("create trigger t1 in batch from emp on insert do raise event E()");
  Exec("create trigger t2 from emp on insert do raise event F()");
  Exec("disable trigger set batch");
  InsertEmp("A", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  auto events = tman_->events().History();
  ASSERT_EQ(events.size(), 1u);  // only t2 (default set) fired
  EXPECT_EQ(events[0].name, "F");
}

TEST_F(TriggerManagerTest, DisabledTriggerSetStaysDisabledAfterReopen) {
  Exec("create trigger set batch 'batch triggers'");
  Exec("create trigger t1 in batch from emp on insert do raise event E()");
  Exec("disable trigger set batch");
  tman_.reset();

  // Open restores the emp source and the set's flag from the catalog.
  tman_ = std::make_unique<TriggerManager>(db_.get());
  ASSERT_TRUE(tman_->Open().ok());
  InsertEmp("A", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 0u);
  Exec("enable trigger set batch");
  InsertEmp("B", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 1u);
}

TEST_F(TriggerManagerTest, DropTriggerStopsFiring) {
  Exec("create trigger t from emp on insert do raise event E()");
  InsertEmp("A", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 1u);
  Exec("drop trigger t");
  InsertEmp("B", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 1u);
  EXPECT_EQ(tman_->predicate_index().stats().num_predicates, 0u);
}

TEST_F(TriggerManagerTest, DuplicateTriggerNameRejected) {
  Exec("create trigger t from emp on insert do raise event E()");
  auto r = tman_->ExecuteCommand(
      "create trigger t from emp on insert do raise event E()");
  EXPECT_FALSE(r.ok());
}

TEST_F(TriggerManagerTest, BadTriggerLeavesNoCatalogResidue) {
  auto r = tman_->ExecuteCommand(
      "create trigger bad from emp when emp.bogus = 1 do raise event E()");
  EXPECT_FALSE(r.ok());
  // Name is reusable: the catalog row was rolled back.
  Exec("create trigger bad from emp on insert do raise event E()");
}

TEST_F(TriggerManagerTest, StreamSourceSubmitUpdate) {
  Schema quotes({{"symbol", DataType::kVarchar}, {"price", DataType::kFloat}});
  auto ds = tman_->DefineStreamSource("quotes", quotes);
  ASSERT_TRUE(ds.ok());
  Exec("create trigger alert from quotes "
       "when quotes.symbol = 'ACME' and quotes.price > 100 "
       "do raise event PriceAlert(quotes.price)");

  ASSERT_TRUE(tman_->SubmitUpdate(UpdateDescriptor::Insert(
                      *ds, Tuple({Value::String("ACME"), Value::Float(150)})))
                  .ok());
  ASSERT_TRUE(tman_->SubmitUpdate(UpdateDescriptor::Insert(
                      *ds, Tuple({Value::String("ACME"), Value::Float(50)})))
                  .ok());
  ASSERT_TRUE(tman_->SubmitUpdate(UpdateDescriptor::Insert(
                      *ds, Tuple({Value::String("XYZ"), Value::Float(500)})))
                  .ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  ASSERT_EQ(tman_->events().num_raised(), 1u);
  EXPECT_DOUBLE_EQ(tman_->events().History()[0].args[0].as_float(), 150);
}

TEST_F(TriggerManagerTest, JoinTriggerIrisHouseAlert) {
  // Build the paper's real-estate schema as local tables.
  ASSERT_TRUE(db_->CreateTable("salesperson",
                               Schema({{"spno", DataType::kInt},
                                       {"name", DataType::kVarchar},
                                       {"phone", DataType::kVarchar}}))
                  .ok());
  ASSERT_TRUE(db_->CreateTable("house", Schema({{"hno", DataType::kInt},
                                                {"address",
                                                 DataType::kVarchar},
                                                {"price", DataType::kFloat},
                                                {"nno", DataType::kInt},
                                                {"spno", DataType::kInt}}))
                  .ok());
  ASSERT_TRUE(db_->CreateTable("represents",
                               Schema({{"spno", DataType::kInt},
                                       {"nno", DataType::kInt}}))
                  .ok());
  ASSERT_TRUE(tman_->DefineLocalTableSource("salesperson").ok());
  ASSERT_TRUE(tman_->DefineLocalTableSource("house").ok());
  ASSERT_TRUE(tman_->DefineLocalTableSource("represents").ok());

  ASSERT_TRUE(db_->Insert("salesperson",
                          Tuple({Value::Int(1), Value::String("Iris"),
                                 Value::String("555")}))
                  .ok());
  ASSERT_TRUE(
      db_->Insert("represents", Tuple({Value::Int(1), Value::Int(10)})).ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());

  Exec("create trigger IrisHouseAlert on insert to house "
       "from salesperson s, house h, represents r "
       "when s.name = 'Iris' and s.spno=r.spno and r.nno=h.nno "
       "do raise event NewHouseInIrisNeighborhood(h.hno, h.address)");

  // A house in Iris's neighborhood fires the alert.
  ASSERT_TRUE(db_->Insert("house",
                          Tuple({Value::Int(7), Value::String("12 Oak"),
                                 Value::Float(250000), Value::Int(10),
                                 Value::Int(1)}))
                  .ok());
  // A house elsewhere does not.
  ASSERT_TRUE(db_->Insert("house",
                          Tuple({Value::Int(8), Value::String("9 Elm"),
                                 Value::Float(90000), Value::Int(99),
                                 Value::Int(1)}))
                  .ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());

  auto events = tman_->events().History();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "NewHouseInIrisNeighborhood");
  EXPECT_EQ(events[0].args[0].as_int(), 7);
  EXPECT_EQ(events[0].args[1].as_string(), "12 Oak");

  // Tuple variables without an explicit on-event are implicitly
  // insert-or-update (§5): a new represents row that completes the join
  // for the existing house 8 fires the trigger too.
  ASSERT_TRUE(
      db_->Insert("represents", Tuple({Value::Int(1), Value::Int(99)})).ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 2u);
  EXPECT_EQ(tman_->events().History()[1].args[0].as_int(), 8);

  // And future houses in the newly represented neighborhood fire as well
  // (virtual alpha nodes read current table state).
  ASSERT_TRUE(db_->Insert("house",
                          Tuple({Value::Int(9), Value::String("3 Fir"),
                                 Value::Float(1), Value::Int(99),
                                 Value::Int(1)}))
                  .ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 3u);
}

TEST_F(TriggerManagerTest, MultiVarStreamUsesStoredMemories) {
  Schema orders({{"oid", DataType::kInt}, {"cust", DataType::kInt}});
  Schema shipments({{"oid", DataType::kInt}, {"status", DataType::kVarchar}});
  auto ds_o = tman_->DefineStreamSource("orders", orders);
  auto ds_s = tman_->DefineStreamSource("shipments", shipments);
  ASSERT_TRUE(ds_o.ok() && ds_s.ok());
  Exec("create trigger shipped from orders o, shipments s "
       "when o.oid = s.oid and s.status = 'shipped' "
       "do raise event OrderShipped(o.oid, o.cust)");

  // Order arrives first (stored in o's alpha memory), then the shipment.
  ASSERT_TRUE(tman_->SubmitUpdate(UpdateDescriptor::Insert(
                      *ds_o, Tuple({Value::Int(1), Value::Int(42)})))
                  .ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 0u);
  ASSERT_TRUE(tman_->SubmitUpdate(UpdateDescriptor::Insert(
                      *ds_s, Tuple({Value::Int(1),
                                    Value::String("shipped")})))
                  .ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  ASSERT_EQ(tman_->events().num_raised(), 1u);
  EXPECT_EQ(tman_->events().History()[0].args[1].as_int(), 42);

  // Delete the order; a duplicate shipment no longer fires.
  ASSERT_TRUE(tman_->SubmitUpdate(UpdateDescriptor::Delete(
                      *ds_o, Tuple({Value::Int(1), Value::Int(42)})))
                  .ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  ASSERT_TRUE(tman_->SubmitUpdate(UpdateDescriptor::Insert(
                      *ds_s, Tuple({Value::Int(1),
                                    Value::String("shipped")})))
                  .ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 1u);
}

TEST_F(TriggerManagerTest, AsyncDriversProcessUpdates) {
  TriggerManagerOptions options;
  options.driver_config.num_drivers = 2;
  options.driver_config.period = std::chrono::milliseconds(5);
  Reset(options);
  Exec("create trigger t from emp on insert when emp.dept = 1 "
       "do raise event E(emp.name)");
  ASSERT_TRUE(tman_->Start().ok());
  for (int i = 0; i < 200; ++i) {
    InsertEmp("e" + std::to_string(i), 1, i % 2);
  }
  tman_->Drain();
  tman_->Stop();
  EXPECT_EQ(tman_->events().num_raised(), 100u);
}

TEST_F(TriggerManagerTest, ConditionPartitionsCoverAllTriggers) {
  TriggerManagerOptions options;
  options.condition_partitions = 4;
  Reset(options);
  for (int i = 0; i < 10; ++i) {
    Exec("create trigger t" + std::to_string(i) +
         " from emp on insert when emp.dept = 1 do raise event E()");
  }
  InsertEmp("x", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 10u);  // exactly once each
}

TEST_F(TriggerManagerTest, ConcurrentActionsRunAsTasks) {
  TriggerManagerOptions options;
  options.concurrent_actions = true;
  Reset(options);
  Exec("create trigger t from emp on insert do raise event E(emp.name)");
  InsertEmp("x", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 1u);
}

TEST_F(TriggerManagerTest, MemoryQueueModeWorks) {
  TriggerManagerOptions options;
  options.persistent_queue = false;
  Reset(options);
  Exec("create trigger t from emp on insert do raise event E()");
  InsertEmp("x", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 1u);
}

TEST_F(TriggerManagerTest, TriggersSurviveReopen) {
  Exec("create trigger t from emp on insert when emp.dept = 7 "
       "do raise event E(emp.name)");
  tman_.reset();  // shut down the first instance

  // A new TriggerMan over the same database: Open restores data sources
  // from the catalog and reloads triggers.
  tman_ = std::make_unique<TriggerManager>(db_.get());
  ASSERT_TRUE(tman_->Open().ok());
  EXPECT_EQ(tman_->predicate_index().stats().num_predicates, 1u);

  InsertEmp("back", 1, 7);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  ASSERT_EQ(tman_->events().num_raised(), 1u);
  EXPECT_EQ(tman_->events().History()[0].args[0].as_string(), "back");
}

TEST_F(TriggerManagerTest, StreamSourcesSurviveReopen) {
  Schema quotes({{"symbol", DataType::kVarchar},
                 {"price", DataType::kFloat}});
  ASSERT_TRUE(tman_->DefineStreamSource("quotes", quotes).ok());
  Exec("create trigger alert from quotes when quotes.price > 100 "
       "do raise event Alert(quotes.symbol)");
  tman_.reset();

  tman_ = std::make_unique<TriggerManager>(db_.get());
  ASSERT_TRUE(tman_->Open().ok());  // restores the stream's schema too
  auto info = tman_->sources().Lookup("quotes");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->schema.num_fields(), 2u);
  ASSERT_TRUE(tman_->SubmitUpdate(UpdateDescriptor::Insert(
                      info->id,
                      Tuple({Value::String("ACME"), Value::Float(150)})))
                  .ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 1u);
}

TEST_F(TriggerManagerTest, StagedTokensFireOnceAfterReopen) {
  // Default options stage durably: tokens acknowledged but not processed
  // when the manager goes away are replayed by the next Open(), and a
  // later submission fires itself, not a leftover.
  Schema feed({{"id", DataType::kInt}});
  auto ds = tman_->DefineStreamSource("feed", feed);
  ASSERT_TRUE(ds.ok());
  Exec("create trigger seen from feed when feed.id >= 0 "
       "do raise event Seen(feed.id)");
  std::vector<UpdateDescriptor> batch;
  for (int64_t id = 0; id < 5; ++id) {
    batch.push_back(UpdateDescriptor::Insert(*ds, Tuple({Value::Int(id)})));
  }
  ASSERT_TRUE(tman_->SubmitUpdateBatch(batch).ok());
  tman_.reset();  // no processing: the tokens are only staged

  tman_ = std::make_unique<TriggerManager>(db_.get());
  ASSERT_TRUE(tman_->Open().ok());
  std::map<int64_t, int> fired;
  tman_->events().Register(
      "Seen", [&](const Event& e) { fired[e.args[0].as_int()]++; });
  ASSERT_TRUE(tman_->ProcessPending().ok());
  ASSERT_TRUE(
      tman_->SubmitUpdate(UpdateDescriptor::Insert(*ds, Tuple({Value::Int(5)})))
          .ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  ASSERT_EQ(fired.size(), 6u);
  for (int64_t id = 0; id < 6; ++id) {
    EXPECT_EQ(fired[id], 1) << "token " << id;
  }
}

TEST_F(TriggerManagerTest, CacheEvictionReloadsDuringFiring) {
  // Join triggers pin their runtime (network) on every firing; a tiny
  // cache evicts and reloads them between firings.
  TriggerManagerOptions options;
  options.trigger_cache_capacity = 2;  // tiny: constant eviction
  Reset(options);
  CreateDeptTable();
  for (int64_t d = 0; d < 8; ++d) InsertDept(d, 100 + d);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  for (int i = 0; i < 8; ++i) {
    Exec("create trigger t" + std::to_string(i) +
         " from emp e, dept d on insert to e when e.dept = d.id and d.id = " +
         std::to_string(i) + " do raise event E" + std::to_string(i) +
         "(e.name, d.floor)");
  }
  for (int64_t d = 0; d < 8; ++d) {
    InsertEmp("x", 1, d);
  }
  ASSERT_TRUE(tman_->ProcessPending().ok());
  ASSERT_EQ(tman_->events().num_raised(), 8u);
  for (const Event& e : tman_->events().History()) {
    EXPECT_EQ(e.name, "E" + std::to_string(e.args[1].as_int() - 100));
  }
  EXPECT_GT(tman_->cache().stats().evictions, 0u);
  EXPECT_GT(tman_->cache().stats().misses, 0u);
}

TEST_F(TriggerManagerTest, LocalTableJoinTokensPinEachTriggerOnce) {
  // The fixture of CacheEvictionReloadsDuringFiring. Both join sides are
  // local tables, so both alpha nodes are virtual and keep no memory:
  // maintenance has nothing to update and must not pin. The fire pass is
  // the only cache lookup of each trigger a token reaches.
  TriggerManagerOptions options;
  options.trigger_cache_capacity = 2;
  Reset(options);
  CreateDeptTable();
  for (int64_t d = 0; d < 8; ++d) InsertDept(d, 100 + d);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  auto lookups = [&] {
    TriggerCacheStats st = tman_->cache().stats();
    return st.hits + st.misses;
  };
  auto create = [&](int i) {
    Exec("create trigger t" + std::to_string(i) +
         " from emp e, dept d on insert to e when e.dept = d.id and d.id = " +
         std::to_string(i) + " do raise event E" + std::to_string(i) +
         "(e.name, d.floor)");
  };

  create(0);
  uint64_t before = lookups();
  InsertEmp("x", 1, 0);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(lookups() - before, 1u);
  ASSERT_EQ(tman_->events().num_raised(), 1u);

  // Every emp token reaches all eight triggers at node e (e has no
  // selection); each fires only for its own dept.
  for (int i = 1; i < 8; ++i) create(i);
  for (int64_t d = 0; d < 8; ++d) {
    before = lookups();
    InsertEmp("y", 1, d);
    ASSERT_TRUE(tman_->ProcessPending().ok());
    EXPECT_EQ(lookups() - before, 8u) << "dept " << d;
  }
  // An aggregate on emp makes emp tokens run the maintenance pass. It
  // reaches the aggregate's groups through its firing plan, so it pins
  // nothing: neither the aggregate nor any join.
  Exec("create trigger crowded from emp group by emp.dept "
       "having count(emp.name) >= 100 do raise event Crowded(emp.dept)");
  before = lookups();
  InsertEmp("z", 1, 0);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(lookups() - before, 8u);
  std::multiset<std::string> fired, expected = {"E0 x 100", "E0 z 100"};
  for (const Event& e : tman_->events().History()) {
    fired.insert(e.name + " " + e.args[0].as_string() + " " +
                 std::to_string(e.args[1].as_int()));
  }
  for (int64_t d = 0; d < 8; ++d) {
    expected.insert("E" + std::to_string(d) + " y " + std::to_string(100 + d));
  }
  EXPECT_EQ(fired, expected);
  EXPECT_GT(tman_->cache().stats().evictions, 0u);
}

TEST_F(TriggerManagerTest, AggregateStateSurvivesCacheEviction) {
  TriggerManagerOptions options;
  options.trigger_cache_capacity = 1;  // every token evicts
  Reset(options);
  Exec("create trigger crowded from emp group by emp.dept "
       "having count(emp.name) >= 3 "
       "do raise event Crowded(emp.dept, count(emp.name))");
  for (int i = 0; i < 3; ++i) {
    Exec("create trigger s" + std::to_string(i) +
         " from emp on insert do raise event Seen()");
  }
  // The aggregate's groups live in its firing plan and it never enters
  // the cache; selection triggers never pin either. These two join
  // triggers' pins churn the one-slot cache around it.
  CreateDeptTable();
  InsertDept(1, 10);
  InsertDept(2, 20);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  Exec("create trigger located from emp e, dept d on insert to e "
       "when e.dept = d.id do raise event Located(e.name, d.floor)");
  Exec("create trigger placed from emp e, dept d on insert to e "
       "when e.dept = d.id do raise event Placed(e.name)");
  std::vector<std::pair<int64_t, int64_t>> crowded;  // (dept, count)
  tman_->events().Register("Crowded", [&](const Event& e) {
    crowded.emplace_back(e.args[0].as_int(), e.args[1].as_int());
  });
  auto insert = [&](const std::string& name, int64_t dept) {
    InsertEmp(name, 1, dept);
    ASSERT_TRUE(tman_->ProcessPending().ok());
  };

  insert("a", 1);
  insert("b", 1);
  EXPECT_TRUE(crowded.empty());
  insert("c", 1);  // dept 1 crosses the threshold
  insert("d", 1);  // still above: no refire
  using Firings = std::vector<std::pair<int64_t, int64_t>>;
  EXPECT_EQ(crowded, (Firings{{1, 3}}));
  EXPECT_GT(tman_->cache().stats().evictions, 0u);
  EXPECT_GT(tman_->cache().stats().misses, 0u);

  // A disabled aggregate's groups stay frozen: dept 2 holds two rows
  // through five inserts while disabled, and the next one fires at 3.
  insert("e", 2);
  insert("f", 2);
  Exec("disable trigger crowded");
  for (int i = 0; i < 5; ++i) insert("g" + std::to_string(i), 2);
  EXPECT_EQ(crowded.size(), 1u);
  Exec("enable trigger crowded");
  insert("h", 2);
  EXPECT_EQ(crowded, (Firings{{1, 3}, {2, 3}}));
}

TEST_F(TriggerManagerTest, StreamJoinMemoriesSurviveCacheEviction) {
  // A join trigger's stored memories belong to its firing plan, not its
  // cached runtime, so evicting the runtime loses no row: the cache's
  // capacity cannot change what fires.
  auto run = [&](size_t capacity) {
    TriggerManagerOptions options;
    options.trigger_cache_capacity = capacity;
    Reset(options);
    Schema schema({{"k", DataType::kInt}, {"id", DataType::kInt}});
    auto sa = tman_->DefineStreamSource("sa", schema);
    auto sb = tman_->DefineStreamSource("sb", schema);
    EXPECT_TRUE(sa.ok() && sb.ok());
    for (int i = 0; i < 4; ++i) {
      Exec("create trigger j" + std::to_string(i) +
           " from sa x, sb y when x.k = y.k do raise event J" +
           std::to_string(i) + "(x.id, y.id)");
    }
    for (int64_t k = 0; k < 4; ++k) {
      EXPECT_TRUE(tman_
                      ->SubmitUpdate(UpdateDescriptor::Insert(
                          *sa, Tuple({Value::Int(k), Value::Int(10 + k)})))
                      .ok());
      EXPECT_TRUE(tman_->ProcessPending().ok());
    }
    for (int64_t k = 0; k < 4; ++k) {
      EXPECT_TRUE(tman_
                      ->SubmitUpdate(UpdateDescriptor::Insert(
                          *sb, Tuple({Value::Int(k), Value::Int(20 + k)})))
                      .ok());
      EXPECT_TRUE(tman_->ProcessPending().ok());
    }
    std::multiset<std::string> fired;
    for (const Event& e : tman_->events().History()) {
      fired.insert(e.name + " " + std::to_string(e.args[0].as_int()) + " " +
                   std::to_string(e.args[1].as_int()));
    }
    return fired;
  };
  std::multiset<std::string> expected;
  for (int i = 0; i < 4; ++i) {
    for (int k = 0; k < 4; ++k) {
      expected.insert("J" + std::to_string(i) + " " + std::to_string(10 + k) +
                      " " + std::to_string(20 + k));
    }
  }
  EXPECT_EQ(run(1000), expected);
  EXPECT_EQ(run(1), expected);
  EXPECT_GT(tman_->cache().stats().evictions, 0u);
}

TEST_F(TriggerManagerTest, JoinTriggersShareOneMemoryPerSelection) {
  // durable_mixed's join shape: 200 triggers over 12 categories per side
  // have 12 distinct selections on each source, so 24 shared memories
  // serve 400 stored nodes.
  TriggerManagerOptions options;
  options.persistent_queue = false;
  Reset(options);
  Schema schema({{"id", DataType::kInt},
                 {"k", DataType::kInt},
                 {"cat", DataType::kInt},
                 {"v", DataType::kInt}});
  auto orders = tman_->DefineStreamSource("orders", schema);
  auto fills = tman_->DefineStreamSource("fills", schema);
  ASSERT_TRUE(orders.ok() && fills.ok());
  constexpr int kCats = 12;
  for (int i = 0; i < 200; ++i) {
    std::string cond = "r.k = s.k and r.cat = " + std::to_string(i % kCats) +
                       " and s.cat = " + std::to_string((i / kCats) % kCats);
    if ((i / kCats) % 2 == 1) cond += " and r.v > s.v";
    Exec("create trigger j" + std::to_string(i) +
         " from orders r, fills s when " + cond +
         " do raise event J(r.id, s.id)");
  }
  AlphaMemoryStats st = tman_->stats().alpha;
  EXPECT_EQ(st.memories, 24u);
  EXPECT_EQ(st.nodes, 400u);
  EXPECT_EQ(st.rows, 0u);

  // One orders row of category 3 is stored once, whatever the number of
  // triggers whose r-node selects it.
  ASSERT_TRUE(tman_
                  ->SubmitUpdate(UpdateDescriptor::Insert(
                      *orders, Tuple({Value::Int(1), Value::Int(7),
                                      Value::Int(3), Value::Int(5)})))
                  .ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->stats().alpha.rows, 1u);
  auto text = tman_->ExecuteCommand("stats");
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("alpha: memories=24 rows=1 nodes=400"),
            std::string::npos)
      << *text;

  // A selection's memory goes when its last stored node does.
  for (int i = 0; i < 200; ++i) {
    if (i % kCats == 3) Exec("drop trigger j" + std::to_string(i));
  }
  st = tman_->stats().alpha;
  EXPECT_EQ(st.memories, 23u);
  EXPECT_EQ(st.rows, 0u);
  int dropped = 0;
  for (int i = 0; i < 200; ++i) dropped += i % kCats == 3;
  EXPECT_EQ(st.nodes, 400u - 2 * dropped);
}

TEST_F(TriggerManagerTest, InBatchJoinPartnersFireAsWhenSubmittedOneByOne) {
  // An sa row and an sb row with equal k in one batch join once: the sb
  // row's maintenance must not reach the sa row's fire pass, whatever the
  // batch size (scalar order: maintain sa, fire sa, maintain sb, fire sb).
  for (uint32_t batch : {1u, 64u}) {
    TriggerManagerOptions options;
    options.persistent_queue = false;
    options.batch_size = batch;
    Reset(options);
    Schema schema({{"k", DataType::kInt}, {"id", DataType::kInt}});
    auto sa = tman_->DefineStreamSource("sa", schema);
    auto sb = tman_->DefineStreamSource("sb", schema);
    ASSERT_TRUE(sa.ok() && sb.ok());
    Exec("create trigger j from sa x, sb y when x.k = y.k "
         "do raise event J(x.id, y.id)");
    ASSERT_TRUE(tman_
                    ->SubmitUpdateBatch(
                        {UpdateDescriptor::Insert(
                             *sa, Tuple({Value::Int(5), Value::Int(1)})),
                         UpdateDescriptor::Insert(
                             *sb, Tuple({Value::Int(5), Value::Int(2)}))})
                    .ok());
    ASSERT_TRUE(tman_->ProcessPending().ok());
    EXPECT_EQ(tman_->events().num_raised(), 1u) << "batch_size " << batch;
  }
}

TEST_F(TriggerManagerTest, AggregatesOfOneShapeShareIt) {
  // durable_mixed's aggregate population: 100 triggers differing only in
  // their selection constant form one shape, holding one slot each.
  TriggerManagerOptions options;
  options.persistent_queue = false;
  Reset(options);
  Schema schema({{"id", DataType::kInt},
                 {"k", DataType::kInt},
                 {"cat", DataType::kInt},
                 {"g", DataType::kInt},
                 {"v", DataType::kInt}});
  auto orders = tman_->DefineStreamSource("orders", schema);
  ASSERT_TRUE(orders.ok());
  for (int i = 0; i < 100; ++i) {
    Exec("create trigger a" + std::to_string(i) + " from orders r when r.v > " +
         std::to_string(50 * i / 100) +
         " group by r.g having count(r.id) >= 100 do raise event A(r.g, " +
         std::to_string(i) + ")");
  }
  AggregateShapeStats st = tman_->stats().aggregates;
  EXPECT_EQ(st.shapes, 1u);
  EXPECT_EQ(st.triggers, 100u);
  EXPECT_EQ(st.groups, 0u);
  // Two groups, whatever the number of triggers holding them.
  for (int64_t id = 0; id < 4; ++id) {
    ASSERT_TRUE(tman_
                    ->SubmitUpdate(UpdateDescriptor::Insert(
                        *orders,
                        Tuple({Value::Int(id), Value::Int(0), Value::Int(0),
                               Value::Int(id % 2), Value::Int(99)})))
                    .ok());
  }
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->stats().aggregates.groups, 2u);
  auto text = tman_->ExecuteCommand("stats");
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("aggregates: shapes=1 triggers=100 groups=2"),
            std::string::npos)
      << *text;
  // Other aggregate calls make another shape; the last drop frees it.
  Exec("create trigger big from orders r group by r.g "
       "having sum(r.v) > 1000 do raise event B(r.g)");
  EXPECT_EQ(tman_->stats().aggregates.shapes, 2u);
  Exec("drop trigger big");
  for (int i = 0; i < 100; ++i) Exec("drop trigger a" + std::to_string(i));
  st = tman_->stats().aggregates;
  EXPECT_EQ(st.shapes, 0u);
  EXPECT_EQ(st.triggers, 0u);
  EXPECT_EQ(st.groups, 0u);
}

TEST_F(TriggerManagerTest, SelectionTriggersFireWithoutTheCache) {
  // Selection triggers fire from their resident firing plans, so the
  // trigger cache's capacity cannot change what fires and no firing
  // loads (or even looks up) a trigger description. Their action
  // arguments run compiled: the interpreter is never called.
  using Fired = std::multiset<std::string>;
  auto run = [&](size_t capacity, bool durable, bool concurrent,
                 Fired* fired) {
    TriggerManagerOptions options;
    options.trigger_cache_capacity = capacity;
    options.persistent_queue = durable;
    options.concurrent_actions = concurrent;
    Reset(options);
    auto ds = tman_->DefineStreamSource(
        "feed", Schema({{"id", DataType::kInt},
                        {"sym", DataType::kVarchar},
                        {"v", DataType::kInt}}));
    ASSERT_TRUE(ds.ok());
    for (int i = 0; i < 24; ++i) {
      std::string when = "feed.sym = 'S" + std::to_string(i % 4) + "'";
      if (i % 3 == 1) when += " and feed.v > " + std::to_string(i);
      if (i % 3 == 2) {
        when += " and feed.v - feed.id < " + std::to_string(i * 2);
      }
      // Constants of two types share one action signature.
      std::string constant = i % 2 == 0 ? std::to_string(i)
                                        : "'c" + std::to_string(i) + "'";
      Exec("create trigger s" + std::to_string(i) + " from feed when " +
           when + " do raise event S(feed.id, " + constant +
           ", feed.v * 2, upper(feed.sym))");
    }
    std::mutex mu;
    tman_->events().Register("*", [&mu, fired](const Event& e) {
      std::string key = e.name;
      for (const Value& v : e.args) key += "," + v.ToString();
      std::lock_guard<std::mutex> lock(mu);
      fired->insert(key);
    });
    std::vector<UpdateDescriptor> batch;
    for (int64_t id = 0; id < 64; ++id) {
      batch.push_back(UpdateDescriptor::Insert(
          *ds, Tuple({Value::Int(id), Value::String("S" + std::to_string(id % 5)),
                      Value::Int(id * 7 % 50)})));
    }
    tman_->cache().ResetStats();
    const uint64_t interpreted = InterpreterEvalCalls();
    ASSERT_TRUE(tman_->SubmitUpdateBatch(batch).ok());
    ASSERT_TRUE(tman_->ProcessPending().ok());
    EXPECT_EQ(InterpreterEvalCalls(), interpreted);
    TriggerCacheStats cache = tman_->cache().stats();
    EXPECT_EQ(cache.hits + cache.misses, 0u);
    EXPECT_EQ(tman_->cache().size(), 0u);
    EXPECT_EQ(tman_->stats().actions.action_errors, 0u);
    tman_.reset();  // the consumer captures `mu`
  };

  Fired reference;
  run(TriggerManagerOptions().trigger_cache_capacity, false, false,
      &reference);
  EXPECT_GT(reference.size(), 64u);
  for (size_t capacity : {size_t{1}, TriggerManagerOptions().trigger_cache_capacity}) {
    for (bool durable : {false, true}) {
      for (bool concurrent : {false, true}) {
        SCOPED_TRACE("capacity " + std::to_string(capacity) +
                     (durable ? " durable" : " memory") +
                     (concurrent ? " concurrent_actions" : ""));
        Fired fired;
        run(capacity, durable, concurrent, &fired);
        EXPECT_EQ(fired, reference);
      }
    }
  }
}

TEST_F(TriggerManagerTest, DdlRacesLockFreeDispatch) {
  // Drivers read the trigger directory without a lock while another
  // thread toggles triggers and sets and creates and drops triggers on
  // the same source. Triggers nobody touches fire exactly once a token.
  constexpr int kBatches = 24;
  constexpr int kBatchTokens = 32;
  for (bool durable : {false, true}) {
    SCOPED_TRACE(durable ? "durable" : "memory");
    TriggerManagerOptions options;
    options.persistent_queue = durable;
    options.driver_config.num_drivers = 3;
    Reset(options);
    auto ds =
        tman_->DefineStreamSource("feed", Schema({{"id", DataType::kInt}}));
    ASSERT_TRUE(ds.ok());
    Exec("create trigger stable from feed when feed.id >= 0 "
         "do raise event Stable(feed.id)");
    Exec("create trigger stable_agg from feed group by feed.id "
         "having count(feed.id) >= 1 do raise event StableAgg(feed.id)");
    Exec("create trigger set flipset 'toggled'");
    Exec("create trigger member in flipset from feed when feed.id >= 0 "
         "do raise event Member(feed.id)");
    Exec("create trigger flip from feed when feed.id >= 0 "
         "do raise event Flip(feed.id)");

    std::mutex mu;
    std::map<std::string, std::map<int64_t, int>> fired;  // event -> id
    for (const char* name : {"Stable", "StableAgg"}) {
      tman_->events().Register(name, [&](const Event& e) {
        std::lock_guard<std::mutex> lock(mu);
        fired[e.name][e.args[0].as_int()]++;
      });
    }
    ASSERT_TRUE(tman_->Start().ok());

    std::atomic<bool> stop{false};
    std::atomic<int> rounds{0};
    std::atomic<int> ddl_failures{0};
    std::thread ddl([&] {
      for (int round = 0; !stop.load(); rounds = ++round) {
        const std::string extra = "extra" + std::to_string(round);
        const std::string create =
            round % 2 == 0
                ? "create trigger " + extra +
                      " from feed when feed.id >= 0 do raise event X()"
                : "create trigger " + extra +
                      " from feed group by feed.id having "
                      "count(feed.id) >= 2 do raise event X()";
        for (const std::string& cmd :
             {std::string("disable trigger flip"),
              std::string("disable trigger set flipset"), create,
              std::string("enable trigger flip"),
              std::string("enable trigger set flipset"),
              "drop trigger " + extra}) {
          if (!tman_->ExecuteCommand(cmd).ok()) ddl_failures++;
        }
      }
    });

    int64_t next_id = 0;
    for (int b = 0; b < kBatches; ++b) {
      // Keep the DDL loop moving while batches go in.
      while (rounds.load() < b) std::this_thread::yield();
      std::vector<UpdateDescriptor> batch;
      for (int i = 0; i < kBatchTokens; ++i) {
        batch.push_back(
            UpdateDescriptor::Insert(*ds, Tuple({Value::Int(next_id++)})));
      }
      ASSERT_TRUE(tman_->SubmitUpdateBatch(batch).ok());
    }
    tman_->Drain();
    stop = true;
    ddl.join();
    tman_->Drain();
    tman_->Stop();

    EXPECT_EQ(ddl_failures.load(), 0);
    for (const char* name : {"Stable", "StableAgg"}) {
      const std::map<int64_t, int>& by_id = fired[name];
      EXPECT_EQ(by_id.size(), static_cast<size_t>(next_id)) << name;
      for (const auto& [id, n] : by_id) {
        EXPECT_EQ(n, 1) << name << " token " << id;
      }
    }
  }
}

TEST_F(TriggerManagerTest, GroupByOverJoinsRejectedAsFutureWork) {
  ASSERT_TRUE(db_->CreateTable("dept", Schema({{"dno", DataType::kInt}}))
                  .ok());
  ASSERT_TRUE(tman_->DefineLocalTableSource("dept").ok());
  auto r = tman_->ExecuteCommand(
      "create trigger agg from emp e, dept d group by e.dept "
      "having count(e.dept) > 5 do raise event TooMany()");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotSupported);
  // having without group by is invalid.
  auto r2 = tman_->ExecuteCommand(
      "create trigger agg2 from emp having count(dept) > 5 "
      "do raise event TooMany()");
  EXPECT_FALSE(r2.ok());
}

TEST_F(TriggerManagerTest, ScriptExecution) {
  auto r = tman_->ExecuteScript(
      "create trigger set s1 'x'; "
      "create trigger a in s1 from emp on insert do raise event A(); "
      "create trigger b from emp on insert do raise event B()");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  InsertEmp("q", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 2u);
}

TEST_F(TriggerManagerTest, EventConsumersNotified) {
  Exec("create trigger t from emp on insert do raise event Ping(emp.name)");
  std::vector<std::string> received;
  uint64_t reg = tman_->events().Register("Ping", [&](const Event& e) {
    received.push_back(e.args[0].as_string());
  });
  InsertEmp("n1", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], "n1");
  tman_->events().Unregister(reg);
  InsertEmp("n2", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(received.size(), 1u);
}

TEST_F(TriggerManagerTest, PinTriggerExposesRuntime) {
  Exec("create trigger t from emp on insert when emp.dept = 1 "
       "do raise event E()");
  auto handle = tman_->PinTrigger("t");
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ((*handle)->name, "t");
  EXPECT_EQ((*handle)->graph.nodes().size(), 1u);
  EXPECT_FALSE((*handle)->multi_variable());
  EXPECT_FALSE(tman_->PinTrigger("none").ok());
}

}  // namespace
}  // namespace tman

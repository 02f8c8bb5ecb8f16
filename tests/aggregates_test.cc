#include <gtest/gtest.h>

#include "core/trigger_manager.h"
#include "db/sql.h"
#include "expr/rewrite.h"
#include "parser/parser.h"

namespace tman {
namespace {

// --- AggregateShape unit tests ----------------------------------------------

/// One trigger's slot in a shape of its own (grouped by e.dept unless
/// the test names another group-by expression).
struct OneTrigger {
  AggregateClauses clauses;
  std::unique_ptr<AggregateShape> shape;
  uint32_t slot = 0;

  /// Feeds one token (which already passed selection): its old tuple
  /// leaves, then its new tuple joins. Returns the edge firings.
  Result<std::vector<AggregateShape::Firing>> Apply(
      const UpdateDescriptor& token) {
    std::vector<AggregateShape::Firing> firings;
    if (token.old_tuple.has_value()) {
      TMAN_RETURN_IF_ERROR(
          shape->Apply(*token.old_tuple, false, &slot, 1, &firings));
    }
    if (token.new_tuple.has_value()) {
      TMAN_RETURN_IF_ERROR(
          shape->Apply(*token.new_tuple, true, &slot, 1, &firings));
    }
    return firings;
  }
};

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest()
      : schema_({{"dept", DataType::kInt},
                 {"salary", DataType::kFloat},
                 {"name", DataType::kVarchar}}) {}

  std::unique_ptr<OneTrigger> Make(const std::string& having,
                                   std::vector<ExprPtr> args = {},
                                   const std::string& group = "e.dept") {
    ExprPtr having_expr;
    if (!having.empty()) {
      auto parsed = ParseExpressionString(having);
      EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
      having_expr = *parsed;
    }
    auto group_expr = ParseExpressionString(group);
    EXPECT_TRUE(group_expr.ok());
    auto clauses = AggregateClauses::Extract(having_expr, args);
    EXPECT_TRUE(clauses.ok()) << clauses.status().ToString();
    auto t = std::make_unique<OneTrigger>();
    t->clauses = std::move(*clauses);
    AggregateShapeKey key;
    key.source = 1;
    key.var = "e";
    key.schema = schema_;
    key.group_by = {*group_expr};
    key.calls = t->clauses.calls;
    t->shape = std::make_unique<AggregateShape>(std::move(key));
    t->slot = t->shape->Attach(t->clauses.having);
    return t;
  }

  static Tuple Row(Value dept, Value salary) {
    return Tuple({std::move(dept), std::move(salary), Value::String("x")});
  }
  UpdateDescriptor Ins(int64_t dept, double salary) {
    return UpdateDescriptor::Insert(
        1, Row(Value::Int(dept), Value::Float(salary)));
  }
  UpdateDescriptor Del(int64_t dept, double salary) {
    return UpdateDescriptor::Delete(
        1, Row(Value::Int(dept), Value::Float(salary)));
  }

  Schema schema_;
};

TEST_F(EvaluatorTest, CountThresholdFiresOnceAtEdge) {
  auto ev = Make("count(e.dept) >= 3");
  EXPECT_TRUE(ev->Apply(Ins(1, 10))->empty());
  EXPECT_TRUE(ev->Apply(Ins(1, 20))->empty());
  auto f = ev->Apply(Ins(1, 30));
  ASSERT_TRUE(f.ok());
  ASSERT_EQ(f->size(), 1u);
  EXPECT_EQ((*f)[0].values[0].as_int(), 3);
  // Already true: no re-firing while it stays true.
  EXPECT_TRUE(ev->Apply(Ins(1, 40))->empty());
  // Other group independent.
  EXPECT_TRUE(ev->Apply(Ins(2, 5))->empty());
  EXPECT_EQ(ev->shape->num_groups(), 2u);
}

TEST_F(EvaluatorTest, DeleteRearmsTheEdge) {
  auto ev = Make("count(e.dept) >= 2");
  EXPECT_TRUE(ev->Apply(Ins(1, 10))->empty());
  EXPECT_EQ(ev->Apply(Ins(1, 20))->size(), 1u);
  EXPECT_TRUE(ev->Apply(Del(1, 20))->empty());   // drops to 1: goes false
  EXPECT_EQ(ev->Apply(Ins(1, 30))->size(), 1u);  // true again: re-fires
}

TEST_F(EvaluatorTest, SumAvgMinMax) {
  auto ev = Make("sum(e.salary) > 100 and avg(e.salary) >= 40 and "
                 "min(e.salary) > 5 and max(e.salary) < 100");
  EXPECT_TRUE(ev->Apply(Ins(1, 50))->empty());   // sum 50
  EXPECT_TRUE(ev->Apply(Ins(1, 30))->empty());   // sum 80
  auto f = ev->Apply(Ins(1, 40));                // sum 120, avg 40, min 30
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->size(), 1u);
  // A 200-salary insert breaks max < 100 -> false again.
  EXPECT_TRUE(ev->Apply(Ins(1, 200))->empty());
  // Removing it restores the condition -> fires again.
  EXPECT_EQ(ev->Apply(Del(1, 200))->size(), 1u);
}

TEST_F(EvaluatorTest, UpdateMovesBetweenGroups) {
  auto ev = Make("count(e.dept) >= 2");
  EXPECT_TRUE(ev->Apply(Ins(1, 10))->empty());
  EXPECT_TRUE(ev->Apply(Ins(2, 20))->empty());
  // Update moves the dept-2 row into dept 1: group 1 reaches 2.
  auto upd = UpdateDescriptor::Update(
      1, Row(Value::Int(2), Value::Float(20)),
      Row(Value::Int(1), Value::Float(20)));
  auto f = ev->Apply(upd);
  ASSERT_TRUE(f.ok());
  ASSERT_EQ(f->size(), 1u);
  EXPECT_EQ((*f)[0].values[0].as_int(), 2);
  EXPECT_EQ(ev->shape->num_groups(), 1u);  // group 2 emptied and freed
  EXPECT_EQ(ev->shape->num_groups(ev->slot), 1u);
}

TEST_F(EvaluatorTest, AggregatesSkipNulls) {
  auto ev = Make("count(e.salary) >= 1");
  auto null_salary =
      UpdateDescriptor::Insert(1, Row(Value::Int(1), Value::Null()));
  EXPECT_TRUE(ev->Apply(null_salary)->empty());  // NULL not counted
  EXPECT_EQ(ev->Apply(Ins(1, 10))->size(), 1u);
}

TEST_F(EvaluatorTest, ActionArgInstantiation) {
  auto arg = ParseExpressionString("count(e.dept) * 10");
  ASSERT_TRUE(arg.ok());
  auto ev = Make("count(e.dept) >= 2", {*arg});
  (void)ev->Apply(Ins(1, 10));
  auto f = ev->Apply(Ins(1, 20));
  ASSERT_TRUE(f.ok());
  ASSERT_EQ(f->size(), 1u);
  ASSERT_EQ(ev->clauses.action_args.size(), 1u);
  auto inst = BindPlaceholders(ev->clauses.action_args[0], (*f)[0].values);
  ASSERT_TRUE(inst.ok());
  // The aggregate placeholder bound to 2: expression is (2 * 10).
  Bindings b;
  Tuple t = Row(Value::Int(1), Value::Float(20));
  b.Bind("e", &schema_, &t);
  EXPECT_EQ(EvalExpr(*inst, b)->as_int(), 20);
}

TEST_F(EvaluatorTest, DedupesEqualAggregateCalls) {
  auto ev = Make("count(e.dept) >= 2 and count(e.dept) <= 10");
  EXPECT_EQ(ev->shape->num_calls(), 1u);
}

TEST_F(EvaluatorTest, GroupIdentityIsTheTypeTaggedEncoding) {
  // Int(1) and Float(1.0) are equal values but different encodings, so
  // different groups; a NULL key is a group of its own. count(*) counts
  // the NULL-keyed row.
  auto ev = Make("count() >= 2", {}, "e.salary");
  EXPECT_TRUE(ev->Apply(UpdateDescriptor::Insert(
                            1, Row(Value::Int(7), Value::Int(1))))
                  ->empty());
  EXPECT_TRUE(ev->Apply(UpdateDescriptor::Insert(
                            1, Row(Value::Int(7), Value::Float(1.0))))
                  ->empty());
  EXPECT_TRUE(ev->Apply(UpdateDescriptor::Insert(
                            1, Row(Value::Int(7), Value::Null())))
                  ->empty());
  EXPECT_EQ(ev->shape->num_groups(), 3u);
  // A second row of each key fires each group once.
  EXPECT_EQ(ev->Apply(UpdateDescriptor::Insert(
                          1, Row(Value::Int(8), Value::Float(1.0))))
                ->size(),
            1u);
  EXPECT_EQ(ev->Apply(UpdateDescriptor::Insert(
                          1, Row(Value::Int(8), Value::Null())))
                ->size(),
            1u);
  EXPECT_EQ(ev->shape->num_groups(), 3u);
  // Deleting the Int(1) row empties only its group.
  EXPECT_TRUE(ev->Apply(UpdateDescriptor::Delete(
                            1, Row(Value::Int(7), Value::Int(1))))
                  ->empty());
  EXPECT_EQ(ev->shape->num_groups(), 2u);
}

TEST_F(EvaluatorTest, MinMaxUnderDeleteWithDuplicates) {
  auto ev = Make("min(e.salary) >= 20 and max(e.salary) <= 20");
  EXPECT_TRUE(ev->Apply(Ins(1, 10))->empty());
  EXPECT_TRUE(ev->Apply(Ins(1, 10))->empty());
  EXPECT_TRUE(ev->Apply(Ins(1, 20))->empty());
  // One of the duplicate 10s leaves: min is still 10.
  EXPECT_TRUE(ev->Apply(Del(1, 10))->empty());
  // The other leaves: min = max = 20.
  auto f = ev->Apply(Del(1, 10));
  ASSERT_TRUE(f.ok());
  ASSERT_EQ(f->size(), 1u);
  EXPECT_DOUBLE_EQ((*f)[0].values[0].as_float(), 20);
  EXPECT_DOUBLE_EQ((*f)[0].values[1].as_float(), 20);
  // A duplicate 20 and its removal keep the condition: no refire.
  EXPECT_TRUE(ev->Apply(Ins(1, 20))->empty());
  EXPECT_TRUE(ev->Apply(Del(1, 20))->empty());
  // Removing the last row: min/max NULL, the condition goes false and
  // the group is freed.
  EXPECT_TRUE(ev->Apply(Del(1, 20))->empty());
  EXPECT_EQ(ev->shape->num_groups(), 0u);
}

TEST_F(EvaluatorTest, HavingErrorOnANewGroupKeepsItsCountsWithIt) {
  // max(e.name) > 5 compares a string with an int: a TypeError whenever
  // some row of the group has a name, NULL (no error) otherwise.
  auto ev = Make("count(e.dept) >= 2 or max(e.name) > 5");
  auto named = [](int64_t dept) {
    return Tuple({Value::Int(dept), Value::Float(1), Value::String("x")});
  };
  auto unnamed = [](int64_t dept) {
    return Tuple({Value::Int(dept), Value::Float(1), Value::Null()});
  };
  std::vector<AggregateShape::Firing> f;
  // The first row of group 1 errors after it was counted: the group
  // stays held with that row.
  EXPECT_FALSE(ev->shape->Apply(named(1), true, &ev->slot, 1, &f).ok());
  EXPECT_EQ(ev->shape->num_groups(), 1u);
  EXPECT_EQ(ev->shape->num_groups(ev->slot), 1u);
  // A new group starts from zero rows, not from group 1's: its first row
  // does not reach count 2.
  ASSERT_TRUE(ev->shape->Apply(unnamed(2), true, &ev->slot, 1, &f).ok());
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(ev->shape->num_groups(), 2u);
  ASSERT_TRUE(ev->shape->Apply(unnamed(2), true, &ev->slot, 1, &f).ok());
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].values[0].as_int(), 2);
  // Group 1's row leaves (max is NULL again, no error): the group is
  // freed, and its id serves a third group that again starts empty.
  ASSERT_TRUE(ev->shape->Apply(named(1), false, &ev->slot, 1, &f).ok());
  EXPECT_EQ(ev->shape->num_groups(), 1u);
  f.clear();
  ASSERT_TRUE(ev->shape->Apply(unnamed(3), true, &ev->slot, 1, &f).ok());
  EXPECT_TRUE(f.empty());
  ASSERT_TRUE(ev->shape->Apply(unnamed(3), false, &ev->slot, 1, &f).ok());
  EXPECT_EQ(ev->shape->num_groups(), 1u);
  EXPECT_EQ(ev->shape->num_groups(ev->slot), 1u);
  ev->shape->Detach(ev->slot);
  EXPECT_EQ(ev->shape->num_groups(), 0u);
}

TEST_F(EvaluatorTest, SlotsOfOneShapeKeepTheirOwnGroups) {
  // Two triggers of one shape with other having constants: one tuple
  // updates both slots, each with its own counts and edge.
  auto low = Make("count(e.dept) >= 1");
  auto high = ParseExpressionString("count(e.dept) >= 2");
  ASSERT_TRUE(high.ok());
  auto high_clauses = AggregateClauses::Extract(*high, {});
  ASSERT_TRUE(high_clauses.ok());
  const uint32_t slots[] = {low->slot,
                            low->shape->Attach(high_clauses->having)};
  std::vector<AggregateShape::Firing> f;
  Tuple row = Row(Value::Int(1), Value::Float(5));
  ASSERT_TRUE(low->shape->Apply(row, true, slots, 2, &f).ok());
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].index, 0u);
  f.clear();
  ASSERT_TRUE(low->shape->Apply(row, true, slots, 2, &f).ok());
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].index, 1u);
  // Only the second slot sees a third row; its removal from the first
  // slot's view changes nothing there.
  f.clear();
  ASSERT_TRUE(low->shape->Apply(row, true, slots + 1, 1, &f).ok());
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(low->shape->num_groups(), 1u);
  low->shape->Detach(slots[1]);
  EXPECT_EQ(low->shape->num_slots(), 1u);
  EXPECT_EQ(low->shape->num_groups(), 1u);
}

// --- end-to-end aggregate triggers -------------------------------------------

class AggregateTriggerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->CreateTable("orders",
                                 Schema({{"cust", DataType::kInt},
                                         {"amount", DataType::kFloat},
                                         {"region", DataType::kVarchar}}))
                    .ok());
    tman_ = std::make_unique<TriggerManager>(db_.get());
    ASSERT_TRUE(tman_->Open().ok());
    ASSERT_TRUE(tman_->DefineLocalTableSource("orders").ok());
  }

  void Order(int64_t cust, double amount, const std::string& region) {
    ASSERT_TRUE(db_->Insert("orders", Tuple({Value::Int(cust),
                                             Value::Float(amount),
                                             Value::String(region)}))
                    .ok());
    ASSERT_TRUE(tman_->ProcessPending().ok());
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<TriggerManager> tman_;
};

TEST_F(AggregateTriggerTest, BigSpenderAlert) {
  auto r = tman_->ExecuteCommand(
      "create trigger bigSpender from orders o "
      "group by o.cust having sum(o.amount) > 1000 "
      "do raise event BigSpender(o.cust, sum(o.amount))");
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  Order(1, 400, "east");
  Order(2, 900, "west");
  Order(1, 500, "east");
  EXPECT_EQ(tman_->events().num_raised(), 0u);
  Order(1, 200, "east");  // cust 1 crosses 1000
  ASSERT_EQ(tman_->events().num_raised(), 1u);
  Event e = tman_->events().History()[0];
  EXPECT_EQ(e.name, "BigSpender");
  EXPECT_EQ(e.args[0].as_int(), 1);
  EXPECT_DOUBLE_EQ(e.args[1].as_float(), 1100);
  // Still above threshold: no refire.
  Order(1, 10, "east");
  EXPECT_EQ(tman_->events().num_raised(), 1u);
  // Cust 2 crosses independently.
  Order(2, 200, "west");
  EXPECT_EQ(tman_->events().num_raised(), 2u);
}

TEST_F(AggregateTriggerTest, SelectionFiltersBeforeGrouping) {
  // Only east-region orders count toward the group.
  auto r = tman_->ExecuteCommand(
      "create trigger eastVolume from orders o "
      "when o.region = 'east' "
      "group by o.cust having count(o.cust) >= 2 "
      "do raise event EastRegular(o.cust)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Order(5, 10, "east");
  Order(5, 10, "west");  // filtered by selection
  EXPECT_EQ(tman_->events().num_raised(), 0u);
  Order(5, 10, "east");
  EXPECT_EQ(tman_->events().num_raised(), 1u);
}

TEST_F(AggregateTriggerTest, DropRemovesAggregateState) {
  ASSERT_TRUE(tman_->ExecuteCommand(
                       "create trigger agg from orders o group by o.cust "
                       "having count(o.cust) >= 2 do raise event E(o.cust)")
                  .ok());
  Order(1, 10, "east");
  ASSERT_TRUE(tman_->DropTrigger("agg").ok());
  Order(1, 10, "east");
  EXPECT_EQ(tman_->events().num_raised(), 0u);
}

TEST_F(AggregateTriggerTest, DeleteLowersAggregates) {
  ASSERT_TRUE(tman_->ExecuteCommand(
                       "create trigger agg from orders o group by o.cust "
                       "having count(o.cust) >= 2 do raise event E(o.cust)")
                  .ok());
  Order(1, 10, "east");
  Order(1, 20, "east");
  EXPECT_EQ(tman_->events().num_raised(), 1u);
  ASSERT_TRUE(
      ExecuteSql(db_.get(), "delete from orders where amount = 20").ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  // Dropped below threshold; re-crossing fires again.
  Order(1, 30, "east");
  EXPECT_EQ(tman_->events().num_raised(), 2u);
}

}  // namespace
}  // namespace tman

#include <gtest/gtest.h>

#include "core/trigger_manager.h"
#include "db/sql.h"
#include "expr/rewrite.h"
#include "parser/parser.h"

namespace tman {
namespace {

// --- GroupByEvaluator unit tests --------------------------------------------

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest()
      : schema_({{"dept", DataType::kInt},
                 {"salary", DataType::kFloat},
                 {"name", DataType::kVarchar}}) {}

  std::unique_ptr<GroupByEvaluator> Make(const std::string& having,
                                         std::vector<ExprPtr> args = {}) {
    ExprPtr having_expr;
    if (!having.empty()) {
      auto parsed = ParseExpressionString(having);
      EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
      having_expr = *parsed;
    }
    auto group = ParseExpressionString("e.dept");
    EXPECT_TRUE(group.ok());
    auto ev = GroupByEvaluator::Create("e", schema_, {*group}, having_expr,
                                       args);
    EXPECT_TRUE(ev.ok()) << ev.status().ToString();
    return std::move(*ev);
  }

  UpdateDescriptor Ins(int64_t dept, double salary) {
    return UpdateDescriptor::Insert(
        1, Tuple({Value::Int(dept), Value::Float(salary),
                  Value::String("x")}));
  }
  UpdateDescriptor Del(int64_t dept, double salary) {
    return UpdateDescriptor::Delete(
        1, Tuple({Value::Int(dept), Value::Float(salary),
                  Value::String("x")}));
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
  EXPECT_EQ((*f)[0].group_key[0].as_int(), 1);
  // Already true: no re-firing while it stays true.
  EXPECT_TRUE(ev->Apply(Ins(1, 40))->empty());
  // Other group independent.
  EXPECT_TRUE(ev->Apply(Ins(2, 5))->empty());
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
      1, Tuple({Value::Int(2), Value::Float(20), Value::String("x")}),
      Tuple({Value::Int(1), Value::Float(20), Value::String("x")}));
  auto f = ev->Apply(upd);
  ASSERT_TRUE(f.ok());
  ASSERT_EQ(f->size(), 1u);
  EXPECT_EQ((*f)[0].group_key[0].as_int(), 1);
  EXPECT_EQ(ev->num_groups(), 1u);  // group 2 emptied and erased
}

TEST_F(EvaluatorTest, AggregatesSkipNulls) {
  auto ev = Make("count(e.salary) >= 1");
  auto null_salary = UpdateDescriptor::Insert(
      1, Tuple({Value::Int(1), Value::Null(), Value::String("x")}));
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
  ASSERT_EQ(ev->action_arg_templates().size(), 1u);
  auto inst =
      BindPlaceholders(ev->action_arg_templates()[0], (*f)[0].agg_values);
  ASSERT_TRUE(inst.ok());
  // The aggregate placeholder bound to 2: expression is (2 * 10).
  Bindings b;
  Tuple t({Value::Int(1), Value::Float(20), Value::String("x")});
  b.Bind("e", &schema_, &t);
  EXPECT_EQ(EvalExpr(*inst, b)->as_int(), 20);
}

TEST_F(EvaluatorTest, DedupesEqualAggregateCalls) {
  auto ev = Make("count(e.dept) >= 2 and count(e.dept) <= 10");
  EXPECT_EQ(ev->num_aggregates(), 1u);
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

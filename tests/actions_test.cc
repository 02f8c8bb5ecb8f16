#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <mutex>
#include <set>
#include <thread>

#include "core/actions.h"
#include "core/trigger_manager.h"
#include "db/sql.h"
#include "expr/eval.h"
#include "parser/parser.h"
#include "util/random.h"

namespace tman {
namespace {

// Builds a minimal TriggerRuntime (single emp variable), its firing plan,
// and the ActionContext of one firing for macro-substitution tests.
class ActionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->CreateTable("emp", Schema({{"name", DataType::kVarchar},
                                                {"salary", DataType::kFloat},
                                                {"dept", DataType::kInt}}))
                    .ok());
    executor_ = std::make_unique<ActionExecutor>(db_.get(), &events_);

    trigger_ = std::make_shared<TriggerRuntime>();
    trigger_->id = 1;
    trigger_->name = "t";
    std::vector<TupleVarInfo> vars = {
        {"emp", "emp", 1, OpCode::kInsertOrUpdate}};
    auto graph = ConditionGraph::Build(vars, {});
    ASSERT_TRUE(graph.ok());
    trigger_->graph = *graph;
    auto net = ATreatNetwork::Build(trigger_->graph, db_.get());
    ASSERT_TRUE(net.ok());
    trigger_->network = std::move(*net);
  }

  /// An update of Bob's salary; the context points into the fixture.
  ActionContext MakeContext(double old_salary, double new_salary) {
    Tuple old_t({Value::String("Bob"), Value::Float(old_salary),
                 Value::Int(3)});
    binding_ = Tuple({Value::String("Bob"), Value::Float(new_salary),
                      Value::Int(3)});
    token_ = UpdateDescriptor::Update(1, old_t, binding_);
    return ActionContext{row_, &token_, 0};
  }

  /// The plan of trigger_ as its action now stands.
  std::shared_ptr<const FiringPlan> Plan() {
    return templates_.MakePlan(*trigger_);
  }

  Result<std::string> TrySubstitute(const std::string& sql,
                                    const ActionContext& ctx) {
    return executor_->SubstituteMacros(sql, *Plan()->action, ctx);
  }

  std::string Substitute(const std::string& sql, const ActionContext& ctx) {
    auto r = TrySubstitute(sql, ctx);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : "";
  }

  std::unique_ptr<Database> db_;
  EventManager events_;
  std::unique_ptr<ActionExecutor> executor_;
  std::shared_ptr<TriggerRuntime> trigger_;
  ActionTemplates templates_;
  Tuple binding_;
  UpdateDescriptor token_;
  const Tuple* row_[1] = {&binding_};
};

TEST_F(ActionsTest, QualifiedNewAndOld) {
  auto ctx = MakeContext(100, 200);
  EXPECT_EQ(Substitute("set x = :NEW.emp.salary", ctx), "set x = 200");
  EXPECT_EQ(Substitute("set x = :OLD.emp.salary", ctx), "set x = 100");
}

TEST_F(ActionsTest, UnqualifiedAttrResolved) {
  auto ctx = MakeContext(100, 200);
  EXPECT_EQ(Substitute(":NEW.salary + :OLD.salary", ctx), "200 + 100");
}

TEST_F(ActionsTest, StringValuesQuoted) {
  auto ctx = MakeContext(1, 2);
  EXPECT_EQ(Substitute("where n = :NEW.emp.name", ctx),
            "where n = 'Bob'");
}

TEST_F(ActionsTest, CaseInsensitiveMacros) {
  auto ctx = MakeContext(100, 200);
  EXPECT_EQ(Substitute(":new.emp.salary/:Old.emp.salary", ctx), "200/100");
}

TEST_F(ActionsTest, NonMacroColonsPassThrough) {
  auto ctx = MakeContext(1, 2);
  EXPECT_EQ(Substitute("a : b :: c :x", ctx), "a : b :: c :x");
  EXPECT_EQ(Substitute(":NEWT.salary", ctx), ":NEWT.salary");  // not :NEW.
}

TEST_F(ActionsTest, OldOnWrongVariableFails) {
  auto ctx = MakeContext(1, 2);
  EXPECT_FALSE(TrySubstitute(":OLD.other.x", ctx).ok());
}

TEST_F(ActionsTest, OldWithoutOldImageFails) {
  binding_ = Tuple({Value::String("Bob"), Value::Float(5), Value::Int(3)});
  token_ = UpdateDescriptor::Insert(1, binding_);
  ActionContext ctx{row_, &token_, 0};
  EXPECT_FALSE(TrySubstitute(":OLD.emp.salary", ctx).ok());
  // :NEW still fine for inserts.
  EXPECT_TRUE(TrySubstitute(":NEW.emp.salary", ctx).ok());
}

TEST_F(ActionsTest, UnknownAttributeFails) {
  auto ctx = MakeContext(1, 2);
  EXPECT_FALSE(TrySubstitute(":NEW.emp.bogus", ctx).ok());
}

TEST_F(ActionsTest, ExecSqlActionRunsAgainstDatabase) {
  trigger_->cmd.action.kind = ActionKind::kExecSql;
  trigger_->cmd.action.sql =
      "insert into emp values (:NEW.emp.name, :NEW.emp.salary, 9)";
  auto ctx = MakeContext(100, 200);
  ASSERT_TRUE(executor_->Execute(*Plan(), ctx).ok());
  auto rows = ExecuteSql(db_.get(), "select * from emp where dept = 9");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0].at(0).as_string(), "Bob");
  EXPECT_EQ(executor_->stats().sql_statements, 1u);
}

TEST_F(ActionsTest, FailingSqlCountsAsError) {
  trigger_->cmd.action.kind = ActionKind::kExecSql;
  trigger_->cmd.action.sql = "insert into missing values (1)";
  auto ctx = MakeContext(1, 2);
  EXPECT_FALSE(executor_->Execute(*Plan(), ctx).ok());
  EXPECT_EQ(executor_->stats().action_errors, 1u);
}

TEST_F(ActionsTest, RaiseEventEvaluatesArgs) {
  trigger_->cmd.action.kind = ActionKind::kRaiseEvent;
  trigger_->cmd.action.event_name = "Raise";
  auto arg1 = ParseExpressionString("emp.name");
  auto arg2 = ParseExpressionString("emp.salary * 2");
  ASSERT_TRUE(arg1.ok() && arg2.ok());
  trigger_->cmd.action.event_args = {*arg1, *arg2};
  auto ctx = MakeContext(100, 200);
  ASSERT_TRUE(executor_->Execute(*Plan(), ctx).ok());
  ASSERT_EQ(events_.History().size(), 1u);
  Event e = events_.History()[0];
  EXPECT_EQ(e.args[0].as_string(), "Bob");
  EXPECT_DOUBLE_EQ(e.args[1].as_float(), 400);
}

// --- plans vs the interpreter ----------------------------------------------

// Random `raise event` argument lists, checked against EvalExpr over the
// same bindings: literals of every type and NULL, qualified and
// unqualified (also ambiguous and unknown) column refs, arithmetic,
// builtins, division and mod by zero, and a function the compiler
// refuses. Triggers of one shape differ only in their literals (often of
// different types) and must share one action template.
class PlanDifferential {
 public:
  PlanDifferential()
      : q_schema_({{"id", DataType::kInt},
                   {"sym", DataType::kVarchar},
                   {"price", DataType::kFloat},
                   {"vol", DataType::kInt}}),
        r_schema_({{"rid", DataType::kInt},
                   {"tag", DataType::kVarchar},
                   {"vol", DataType::kInt}}) {}

  Value RandomLiteral() {
    switch (rng_.Uniform(4)) {
      case 0:
        return Value::Int(rng_.UniformRange(-2, 2));
      case 1: {
        static const double kFloats[] = {0.0, 1.5, -2.25, 7.0};
        return Value::Float(kFloats[rng_.Uniform(4)]);
      }
      case 2: {
        static const char* kStrings[] = {"", "ab", "Zq", "x y"};
        return Value::String(kStrings[rng_.Uniform(4)]);
      }
      default:
        return Value::Null();
    }
  }

  ExprPtr RandomExpr(int depth) {
    static const std::pair<const char*, const char*> kRefs[] = {
        {"q", "id"}, {"q", "sym"}, {"q", "price"}, {"q", "vol"},
        {"r", "rid"}, {"r", "tag"}, {"r", "vol"}, {"", "id"},
        {"", "price"}, {"", "tag"}, {"", "vol"}, {"", "bogus"}};
    static const BinOp kOps[] = {BinOp::kAdd, BinOp::kSub, BinOp::kMul,
                                 BinOp::kDiv, BinOp::kEq,  BinOp::kLt,
                                 BinOp::kAnd, BinOp::kOr};
    static const char* kUnary[] = {"upper", "lower", "length", "abs",
                                   "frobnicate"};
    switch (rng_.Uniform(depth <= 0 ? 2 : 7)) {
      case 0:
        return MakeLiteral(RandomLiteral());
      case 1: {
        const auto& ref = kRefs[rng_.Uniform(std::size(kRefs))];
        return MakeColumnRef(ref.first, ref.second);
      }
      case 2:
      case 3:
        return MakeBinary(kOps[rng_.Uniform(std::size(kOps))],
                          RandomExpr(depth - 1), RandomExpr(depth - 1));
      case 4:
        return MakeFunctionCall(rng_.Uniform(2) == 0 ? "mod" : "round",
                                {RandomExpr(depth - 1), RandomExpr(depth - 1)});
      case 5:
        return MakeFunctionCall(kUnary[rng_.Uniform(std::size(kUnary))],
                                {RandomExpr(depth - 1)});
      default:
        return MakeUnary(rng_.Uniform(2) == 0 ? UnOp::kNeg : UnOp::kNot,
                         RandomExpr(depth - 1));
    }
  }

  // The same shape with every literal drawn afresh.
  ExprPtr Relit(const ExprPtr& e) {
    if (e->kind == ExprKind::kLiteral) return MakeLiteral(RandomLiteral());
    if (e->children.empty()) return e;
    auto out = std::make_shared<Expr>(*e);
    for (ExprPtr& c : out->children) c = Relit(c);
    return out;
  }

  Tuple RandomTuple(const Schema& schema) {
    std::vector<Value> values;
    for (size_t f = 0; f < schema.num_fields(); ++f) {
      uint64_t pick = rng_.Uniform(10);
      if (pick == 0) {
        values.push_back(Value::Null());
      } else if (pick == 1) {
        values.push_back(RandomLiteral());  // may disagree with the schema
      } else if (schema.field(f).type == DataType::kInt) {
        values.push_back(Value::Int(rng_.UniformRange(-3, 3)));
      } else if (schema.field(f).type == DataType::kFloat) {
        values.push_back(Value::Float(rng_.UniformRange(-4, 4) * 0.5));
      } else {
        values.push_back(Value::String(rng_.Uniform(2) == 0 ? "Ab" : ""));
      }
    }
    return Tuple(std::move(values));
  }

  std::shared_ptr<TriggerRuntime> MakeTrigger(TriggerId id,
                                              std::vector<ExprPtr> args) {
    auto t = std::make_shared<TriggerRuntime>();
    t->id = id;
    t->name = "p" + std::to_string(id);
    std::vector<TupleVarInfo> vars = {
        {"q", "quotes", 1, OpCode::kInsertOrUpdate},
        {"r", "refs", 2, OpCode::kInsertOrUpdate}};
    t->graph = ConditionGraph::Build(vars, {}).value();
    t->network =
        ATreatNetwork::Build(t->graph, nullptr, {q_schema_, r_schema_},
                             ATreatNetwork::PrivateMemories(t->graph, nullptr))
            .value();
    t->cmd.action.kind = ActionKind::kRaiseEvent;
    t->cmd.action.event_name = "P";
    t->cmd.action.event_args = std::move(args);
    return t;
  }

  Random& rng() { return rng_; }
  const Schema& q_schema() const { return q_schema_; }
  const Schema& r_schema() const { return r_schema_; }

 private:
  Random rng_{20260419};
  Schema q_schema_;
  Schema r_schema_;
};

// Empty when `got` equals `want`: the same value and type, or the same
// error code and message.
std::string Mismatch(const Result<Value>& want, const Result<Value>& got) {
  if (want.ok() != got.ok()) {
    return "ok " + std::to_string(want.ok()) + " vs " +
           std::to_string(got.ok()) + ": " +
           (want.ok() ? got.status().ToString() : want.status().ToString());
  }
  if (!want.ok()) {
    if (want.status().code() == got.status().code() &&
        want.status().message() == got.status().message()) {
      return "";
    }
    return want.status().ToString() + " vs " + got.status().ToString();
  }
  if (want->type() == got->type() && want->Compare(*got) == 0) return "";
  return want->ToString() + " vs " + got->ToString();
}

TEST(FiringPlanTest, SharedTemplatesMatchTheInterpreter) {
  PlanDifferential gen;
  ActionTemplates templates;
  struct Planned {
    std::shared_ptr<TriggerRuntime> trigger;
    std::shared_ptr<const FiringPlan> plan;
  };
  std::vector<Planned> planned;
  constexpr int kShapes = 60;
  constexpr int kTriggersPerShape = 5;
  TriggerId next_id = 1;
  size_t compiled = 0;
  size_t refused = 0;
  for (int shape = 0; shape < kShapes; ++shape) {
    std::vector<ExprPtr> args;
    const uint64_t num_args = 1 + gen.rng().Uniform(3);
    for (uint64_t a = 0; a < num_args; ++a) args.push_back(gen.RandomExpr(3));
    const ActionTemplate* shared = nullptr;
    for (int k = 0; k < kTriggersPerShape; ++k) {
      std::vector<ExprPtr> relit;
      for (const ExprPtr& a : args) relit.push_back(gen.Relit(a));
      auto trigger = gen.MakeTrigger(next_id++, relit);
      auto plan = templates.MakePlan(*trigger);
      if (shared == nullptr) {
        shared = plan->action.get();
        for (const auto& program : plan->action->programs) {
          (program != nullptr ? compiled : refused)++;
        }
      }
      EXPECT_EQ(plan->action.get(), shared)
          << "shape " << shape << " trigger " << k;
      planned.push_back({std::move(trigger), std::move(plan)});
    }
  }
  EXPECT_GT(compiled, 0u);
  EXPECT_GT(refused, 0u);  // unknown functions and ambiguous names

  std::vector<std::pair<Tuple, Tuple>> rows;
  for (int i = 0; i < 40; ++i) {
    rows.emplace_back(gen.RandomTuple(gen.q_schema()),
                      gen.RandomTuple(gen.r_schema()));
  }

  // Four threads evaluate the same shared templates at once.
  std::atomic<uint64_t> checked{0};
  std::atomic<uint64_t> errors{0};
  std::mutex mu;
  std::vector<std::string> mismatches;
  auto check = [&]() {
    for (const Planned& p : planned) {
      for (const auto& [q, r] : rows) {
        Bindings b;
        b.Bind("q", &gen.q_schema(), &q);
        b.Bind("r", &gen.r_schema(), &r);
        const Tuple* tuples[] = {&q, &r};
        const auto& args = p.trigger->cmd.action.event_args;
        Status first_error;
        std::vector<Value> want_all;
        for (size_t i = 0; i < args.size(); ++i) {
          Result<Value> want = EvalExpr(args[i], b);
          Result<Value> got =
              p.plan->action->EvalArg(i, tuples, p.plan->constants);
          std::string diff = Mismatch(want, got);
          if (!diff.empty()) {
            std::lock_guard<std::mutex> lock(mu);
            mismatches.push_back(ExprToString(args[i]) + ": " + diff);
          }
          if (!want.ok()) {
            errors.fetch_add(1, std::memory_order_relaxed);
            if (first_error.ok()) first_error = want.status();
          } else if (first_error.ok()) {
            want_all.push_back(*want);
          }
          checked.fetch_add(1, std::memory_order_relaxed);
        }
        // EvalArgs stops at the first error, as the interpreter walk did.
        std::vector<Value> got_all;
        Status s = p.plan->EvalArgs(ActionContext{tuples}, &got_all);
        if (s.code() != first_error.code() ||
            s.message() != first_error.message() ||
            (s.ok() && got_all.size() != want_all.size())) {
          std::lock_guard<std::mutex> lock(mu);
          mismatches.push_back("EvalArgs of " + p.plan->name + ": " +
                               s.ToString() + " vs " +
                               first_error.ToString());
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(check);
  for (std::thread& t : threads) t.join();

  size_t num_args = 0;
  std::set<const ActionTemplate*> distinct;
  for (const Planned& p : planned) {
    num_args += p.trigger->cmd.action.event_args.size();
    distinct.insert(p.plan->action.get());
  }
  EXPECT_EQ(checked.load(), 4 * rows.size() * num_args);
  EXPECT_GT(errors.load(), 0u);
  EXPECT_TRUE(mismatches.empty())
      << mismatches.size() << " mismatches, first: " << mismatches.front();
  // One live template per distinct action signature.
  EXPECT_EQ(templates.size(), distinct.size());
}

TEST(EventManagerTest, WildcardAndHistoryBounds) {
  EventManager events(/*history_capacity=*/3);
  int wildcard_hits = 0;
  events.Register("*", [&](const Event&) { ++wildcard_hits; });
  for (int i = 0; i < 5; ++i) {
    events.Raise(Event{"E" + std::to_string(i), {}});
  }
  EXPECT_EQ(wildcard_hits, 5);
  EXPECT_EQ(events.num_raised(), 5u);
  auto history = events.History();
  ASSERT_EQ(history.size(), 3u);  // bounded
  EXPECT_EQ(history[0].name, "E2");
  EXPECT_EQ(history[2].name, "E4");
  events.ClearHistory();
  EXPECT_TRUE(events.History().empty());
}

TEST(EventManagerTest, ConsumerMatchingIsCaseInsensitive) {
  EventManager events;
  int hits = 0;
  uint64_t id = events.Register("PriceAlert", [&](const Event&) { ++hits; });
  events.Raise(Event{"pricealert", {}});
  events.Raise(Event{"PRICEALERT", {}});
  events.Raise(Event{"other", {}});
  EXPECT_EQ(hits, 2);
  events.Unregister(id);
  events.Raise(Event{"PriceAlert", {}});
  EXPECT_EQ(hits, 2);
}

}  // namespace
}  // namespace tman

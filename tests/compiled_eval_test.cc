#include <gtest/gtest.h>

#include <random>

#include "core/aggregates.h"
#include "db/sql.h"
#include "expr/cnf.h"
#include "expr/compile.h"
#include "expr/eval.h"
#include "expr/expr.h"
#include "network/atreat.h"
#include "parser/parser.h"
#include "predindex/predicate_index.h"

namespace tman {
namespace {

ExprPtr Parse(const std::string& text) {
  auto r = ParseExpressionString(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
  return r.ok() ? *r : nullptr;
}

class CompiledEvalTest : public ::testing::Test {
 protected:
  CompiledEvalTest()
      : schema_({{"name", DataType::kVarchar},
                 {"salary", DataType::kFloat},
                 {"dept", DataType::kInt}}),
        tuple_({Value::String("Bob"), Value::Float(85000), Value::Int(3)}) {
    layout_.Add("emp", &schema_);
  }

  Result<Value> Compiled(const std::string& text) {
    ExprPtr e = Parse(text);
    auto compiled = CompiledPredicate::Compile(e, layout_);
    if (!compiled.ok()) return compiled.status();
    const Tuple* tuples[] = {&tuple_};
    return compiled->EvalValue(tuples, 1);
  }

  Result<Value> Interpreted(const std::string& text) {
    Bindings b;
    b.Bind("emp", &schema_, &tuple_);
    return EvalExpr(Parse(text), b);
  }

  void ExpectSame(const std::string& text) {
    Result<Value> c = Compiled(text);
    Result<Value> i = Interpreted(text);
    ASSERT_EQ(c.ok(), i.ok()) << text << "\ncompiled: " << c.status().ToString()
                              << "\ninterpreted: " << i.status().ToString();
    if (c.ok()) {
      EXPECT_EQ(c->is_null(), i->is_null()) << text;
      EXPECT_EQ(c->ToString(), i->ToString()) << text;
    } else {
      EXPECT_EQ(c.status().code(), i.status().code()) << text;
      EXPECT_EQ(c.status().message(), i.status().message()) << text;
    }
  }

  Schema schema_;
  Tuple tuple_;
  BindingLayout layout_;
};

TEST_F(CompiledEvalTest, LiteralsAndColumnRefs) {
  EXPECT_EQ(Compiled("42")->as_int(), 42);
  EXPECT_DOUBLE_EQ(Compiled("2.5")->as_float(), 2.5);
  EXPECT_EQ(Compiled("'hi'")->as_string(), "hi");
  EXPECT_TRUE(Compiled("null")->is_null());
  EXPECT_EQ(Compiled("emp.name")->as_string(), "Bob");
  EXPECT_EQ(Compiled("dept")->as_int(), 3);  // unqualified, unambiguous
  EXPECT_EQ(Compiled("EMP.DEPT")->as_int(), 3);  // case-insensitive var
}

TEST_F(CompiledEvalTest, NullExpressionIsTrue) {
  auto compiled = CompiledPredicate::Compile(nullptr, layout_);
  ASSERT_TRUE(compiled.ok());
  const Tuple* tuples[] = {&tuple_};
  EXPECT_TRUE(*compiled->EvalBool(tuples, 1));
}

TEST_F(CompiledEvalTest, ComparisonsMatchInterpreter) {
  for (const char* text :
       {"emp.salary > 80000", "emp.salary > 90000", "emp.name = 'Bob'",
        "emp.name <> 'Alice'", "emp.dept <= 3", "emp.dept >= 4",
        "emp.name > 5",            // type error
        "emp.dept = 3.0",          // int vs float
        "null = 3", "emp.name < 'Z'", "2 < 3", "2.5 >= 2.5"}) {
    ExpectSame(text);
  }
}

TEST_F(CompiledEvalTest, ArithmeticMatchesInterpreter) {
  for (const char* text :
       {"1 + 2 * 3", "(1 + 2) * 3", "7 / 2", "7.0 / 2", "-5 + 2", "1 / 0",
        "1.0 / 0", "'a' * 2", "'foo' + 'bar'", "emp.salary * 2 + 1",
        "emp.dept - null", "-emp.name", "-emp.salary"}) {
    ExpectSame(text);
  }
}

TEST_F(CompiledEvalTest, ThreeValuedLogicMatchesInterpreter) {
  for (const char* text :
       {"null and 1", "null and 0", "1 and null", "0 and null",
        "null or 1", "null or 0", "1 or null", "0 or null",
        "not null", "not 0", "not 3", "not 'x'", "not ''",
        "null and null", "null or null",
        "emp.dept = 3 and emp.salary > 1000",
        "emp.dept = 4 or emp.salary > 1000"}) {
    ExpectSame(text);
  }
}

TEST_F(CompiledEvalTest, ShortCircuitSkipsErrors) {
  // The right side divides by zero; a decided left side must skip it,
  // exactly like the interpreter.
  EXPECT_EQ(Compiled("emp.dept = 4 and 1 / 0")->as_int(), 0);
  EXPECT_EQ(Compiled("emp.dept = 3 or 1 / 0")->as_int(), 1);
  EXPECT_FALSE(Compiled("emp.dept = 3 and 1 / 0").ok());
  EXPECT_FALSE(Compiled("emp.dept = 4 or 1 / 0").ok());
}

TEST_F(CompiledEvalTest, FunctionsMatchInterpreter) {
  for (const char* text :
       {"abs(-3)", "abs(-2.5)", "abs('x')", "abs(null)", "length('abcd')",
        "length(5)", "upper(emp.name)", "lower('ABC')", "upper(3)",
        "round(2.6)", "round(emp.dept)", "round('x')", "mod(7, 3)",
        "mod(7, 0)", "mod(7.5, 2)", "mod(null, 3)"}) {
    ExpectSame(text);
  }
}

TEST_F(CompiledEvalTest, CompileRefusals) {
  // Unknown function, ambiguous/unknown columns, placeholders: the
  // compiler refuses and callers fall back to the interpreter.
  EXPECT_FALSE(CompiledPredicate::Compile(Parse("zorp(1)"), layout_).ok());
  EXPECT_FALSE(CompiledPredicate::Compile(Parse("abs(1, 2)"), layout_).ok());
  EXPECT_FALSE(CompiledPredicate::Compile(Parse("emp.bogus = 1"), layout_).ok());
  EXPECT_FALSE(CompiledPredicate::Compile(Parse("zorp.name = 'x'"), layout_).ok());
  EXPECT_FALSE(
      CompiledPredicate::Compile(MakePlaceholder(1), layout_).ok());
  EXPECT_EQ(TryCompilePredicate(Parse("zorp(1)"), layout_), nullptr);
  EXPECT_NE(TryCompilePredicate(Parse("dept = 1"), layout_), nullptr);

  BindingLayout two;
  Schema other({{"dept", DataType::kInt}});
  two.Add("emp", &schema_);
  two.Add("other", &other);
  // "dept" now lives in both schemas: ambiguous when unqualified.
  EXPECT_FALSE(CompiledPredicate::Compile(Parse("dept = 1"), two).ok());
  EXPECT_TRUE(CompiledPredicate::Compile(Parse("emp.dept = 1"), two).ok());
}

TEST_F(CompiledEvalTest, ParamsReplacePlaceholders) {
  // HAVING-style: placeholders become parameter loads.
  ExprPtr e = MakeBinary(BinOp::kGt, MakePlaceholder(1),
                         MakeLiteral(Value::Int(10)));
  CompileOptions opts;
  opts.allow_params = true;
  auto compiled = CompiledPredicate::Compile(e, layout_, opts);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const Tuple* tuples[] = {&tuple_};
  Value params[] = {Value::Int(42)};
  EXPECT_TRUE(*compiled->EvalBool(tuples, 1, params, 1));
  params[0] = Value::Int(3);
  EXPECT_FALSE(*compiled->EvalBool(tuples, 1, params, 1));
  params[0] = Value::Null();
  EXPECT_FALSE(*compiled->EvalBool(tuples, 1, params, 1));
}

TEST_F(CompiledEvalTest, MultiSlotJoinLayout) {
  Schema emp({{"dept", DataType::kInt}, {"salary", DataType::kFloat}});
  Schema dep({{"id", DataType::kInt}, {"budget", DataType::kFloat}});
  BindingLayout layout;
  layout.Add("e", &emp);
  layout.Add("d", &dep);
  ExprPtr join = Parse("e.dept = d.id and e.salary < d.budget");
  auto compiled = CompiledPredicate::Compile(join, layout);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  Tuple t_e({Value::Int(3), Value::Float(100)});
  Tuple t_d({Value::Int(3), Value::Float(500)});
  const Tuple* tuples[] = {&t_e, &t_d};
  EXPECT_TRUE(*compiled->EvalBool(tuples, 2));
  Tuple t_d2({Value::Int(4), Value::Float(500)});
  tuples[1] = &t_d2;
  EXPECT_FALSE(*compiled->EvalBool(tuples, 2));
}

TEST_F(CompiledEvalTest, ConstantsAreInterned) {
  ExprPtr e = Parse("dept = 7 or dept = 7 or dept = 7");
  auto compiled = CompiledPredicate::Compile(e, layout_);
  ASSERT_TRUE(compiled.ok());
  // The listing mentions one pooled constant, referenced three times.
  std::string disasm = compiled->Disassemble();
  EXPECT_NE(disasm.find("consts=1"), std::string::npos) << disasm;
}

TEST_F(CompiledEvalTest, ShortTupleIsAnErrorNotUB) {
  ExprPtr e = Parse("emp.dept = 3");
  auto compiled = CompiledPredicate::Compile(e, layout_);
  ASSERT_TRUE(compiled.ok());
  Tuple narrow({Value::Int(1)});  // schema says 3 fields, tuple has 1
  const Tuple* tuples[] = {&narrow};
  EXPECT_FALSE(compiled->EvalBool(tuples, 1).ok());
  EXPECT_FALSE(compiled->EvalBool(tuples, 0).ok());  // missing binding
}

// ---------------------------------------------------------------------------
// Differential fuzz: random expression trees evaluated both ways must agree
// value-for-value (and error-for-error, message included).
// ---------------------------------------------------------------------------

class ExprFuzzer {
 public:
  ExprFuzzer(uint32_t seed, const Schema* s0, const Schema* s1)
      : rng_(seed), s0_(s0), s1_(s1) {}

  ExprPtr Random(int depth) { return Gen(depth); }

  Value RandomValueOfType(DataType t) {
    if (Chance(20)) return Value::Null();
    switch (t) {
      case DataType::kInt:
        return Value::Int(Int(-4, 4));
      case DataType::kFloat:
        return Value::Float(static_cast<double>(Int(-4, 4)) / 2.0);
      default:
        return Value::String(RandomShortString());
    }
  }

  Tuple RandomTuple(const Schema& s) {
    std::vector<Value> vals;
    vals.reserve(s.num_fields());
    for (const Field& f : s.fields()) {
      vals.push_back(RandomValueOfType(f.type));
    }
    return Tuple(std::move(vals));
  }

 private:
  bool Chance(int percent) { return Int(0, 99) < percent; }
  int64_t Int(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng_);
  }
  std::string RandomShortString() {
    static const char* kStrings[] = {"", "a", "b", "ab", "xyz", "A"};
    return kStrings[Int(0, 5)];
  }

  ExprPtr GenLeaf() {
    switch (Int(0, 5)) {
      case 0:
        return MakeLiteral(Value::Int(Int(-4, 4)));
      case 1:
        return MakeLiteral(Value::Float(static_cast<double>(Int(-4, 4)) / 2));
      case 2:
        return MakeLiteral(Value::String(RandomShortString()));
      case 3:
        return MakeLiteral(Value::Null());
      default: {
        const Schema* s = Chance(50) ? s0_ : s1_;
        const char* var = s == s0_ ? "t0" : "t1";
        size_t f = static_cast<size_t>(Int(0, s->num_fields() - 1));
        // Field names are unique across the two schemas, so unqualified
        // references stay unambiguous; exercise both forms.
        if (Chance(25)) return MakeColumnRef("", s->field(f).name);
        return MakeColumnRef(var, s->field(f).name);
      }
    }
  }

  ExprPtr Gen(int depth) {
    if (depth <= 0 || Chance(25)) return GenLeaf();
    switch (Int(0, 9)) {
      case 0:
        return MakeBinary(BinOp::kAnd, Gen(depth - 1), Gen(depth - 1));
      case 1:
        return MakeBinary(BinOp::kOr, Gen(depth - 1), Gen(depth - 1));
      case 2: {
        static const BinOp kCmps[] = {BinOp::kEq, BinOp::kNe, BinOp::kLt,
                                      BinOp::kLe, BinOp::kGt, BinOp::kGe};
        return MakeBinary(kCmps[Int(0, 5)], Gen(depth - 1), Gen(depth - 1));
      }
      case 3: {
        static const BinOp kArith[] = {BinOp::kAdd, BinOp::kSub, BinOp::kMul,
                                       BinOp::kDiv};
        return MakeBinary(kArith[Int(0, 3)], Gen(depth - 1), Gen(depth - 1));
      }
      case 4:
        return MakeUnary(UnOp::kNot, Gen(depth - 1));
      case 5:
        return MakeUnary(UnOp::kNeg, Gen(depth - 1));
      case 6: {
        static const char* kUnaryFns[] = {"abs", "length", "upper", "lower",
                                          "round"};
        return MakeFunctionCall(kUnaryFns[Int(0, 4)], {Gen(depth - 1)});
      }
      case 7:
        return MakeFunctionCall("mod", {Gen(depth - 1), Gen(depth - 1)});
      default:
        return MakeBinary(BinOp::kAnd, Gen(depth - 1), Gen(depth - 1));
    }
  }

  std::mt19937 rng_;
  const Schema* s0_;
  const Schema* s1_;
};

TEST(CompiledEvalFuzzTest, DifferentialAgainstInterpreter) {
  Schema s0({{"a", DataType::kInt},
             {"b", DataType::kFloat},
             {"s", DataType::kVarchar}});
  Schema s1({{"x", DataType::kInt},
             {"y", DataType::kFloat},
             {"z", DataType::kChar}});
  BindingLayout layout;
  layout.Add("t0", &s0);
  layout.Add("t1", &s1);

  ExprFuzzer fuzz(20260806, &s0, &s1);
  int compiled_count = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    ExprPtr e = fuzz.Random(4);
    auto compiled = CompiledPredicate::Compile(e, layout);
    ASSERT_TRUE(compiled.ok())
        << ExprToString(e) << ": " << compiled.status().ToString();
    ++compiled_count;

    // Several random tuple pairs per expression.
    for (int round = 0; round < 3; ++round) {
      Tuple t0 = fuzz.RandomTuple(s0);
      Tuple t1 = fuzz.RandomTuple(s1);
      const Tuple* tuples[] = {&t0, &t1};
      Bindings b;
      b.Bind("t0", &s0, &t0);
      b.Bind("t1", &s1, &t1);

      Result<Value> cv = compiled->EvalValue(tuples, 2);
      Result<Value> iv = EvalExpr(e, b);
      ASSERT_EQ(cv.ok(), iv.ok())
          << ExprToString(e) << "\nt0=" << t0.ToString()
          << " t1=" << t1.ToString()
          << "\ncompiled: " << cv.status().ToString()
          << "\ninterpreted: " << iv.status().ToString()
          << "\n" << compiled->Disassemble();
      if (cv.ok()) {
        bool same_null = cv->is_null() == iv->is_null();
        ASSERT_TRUE(same_null && cv->ToString() == iv->ToString())
            << ExprToString(e) << "\nt0=" << t0.ToString()
            << " t1=" << t1.ToString() << "\ncompiled=" << cv->ToString()
            << " interpreted=" << iv->ToString() << "\n"
            << compiled->Disassemble();
      } else {
        ASSERT_EQ(cv.status().code(), iv.status().code()) << ExprToString(e);
        ASSERT_EQ(cv.status().message(), iv.status().message())
            << ExprToString(e);
      }
    }
  }
  EXPECT_EQ(compiled_count, 1500);
}

// --- Hot-path coverage -------------------------------------------------------

// End-to-end proof that the per-token paths run on compiled programs: a
// predicate-index match with a rest predicate, an A-TREAT join with a
// catch-all conjunct, an execSQL scan filter, and a group-by having clause are
// all driven while the interpreter call counter stands still. The
// interpreter stays reachable only through the documented fallbacks.
TEST(CompiledHotPathTest, HotPathsDoNotTouchInterpreter) {
  // Predicate index: equality signature plus a non-indexable rest.
  Database db;
  PredicateIndex pindex(&db, OrgPolicy());
  Schema emp({{"name", DataType::kVarchar},
              {"salary", DataType::kFloat},
              {"dept", DataType::kInt}});
  ASSERT_TRUE(pindex.RegisterDataSource(1, emp).ok());
  PredicateSpec spec;
  spec.data_source = 1;
  spec.op = OpCode::kInsert;
  spec.predicate = Parse("emp.dept = 3 and emp.salary > 50000");
  spec.trigger_id = 100;
  spec.next_node = 0;
  ASSERT_TRUE(pindex.AddPredicate(spec).ok());

  // A-TREAT network over stored memories (stream sources) with an extra
  // non-equijoin conjunct and a catch-all conjunct.
  std::vector<TupleVarInfo> vars = {
      {"o", "orders", 11, OpCode::kInsertOrUpdate},
      {"s", "shipments", 12, OpCode::kInsertOrUpdate},
  };
  std::vector<Schema> schemas = {
      Schema({{"oid", DataType::kInt}, {"cust", DataType::kInt}}),
      Schema({{"oid", DataType::kInt}, {"qty", DataType::kInt}}),
  };
  auto cnf = ToCnf(Parse("o.oid = s.oid and o.cust < s.qty and 2 > 1"));
  ASSERT_TRUE(cnf.ok());
  auto graph = ConditionGraph::Build(vars, *cnf);
  ASSERT_TRUE(graph.ok());
  ASSERT_EQ(graph->catch_all().size(), 1u);
  auto net = ATreatNetwork::Build(
      *graph, nullptr, schemas, ATreatNetwork::PrivateMemories(*graph, nullptr));
  ASSERT_TRUE(net.ok());
  ASSERT_TRUE((*net)->node_stored(0) && (*net)->node_stored(1));

  // MiniDB table for the scan-filter leg (no index: forces the scan route).
  Database sqldb;
  ASSERT_TRUE(
      ExecuteSql(&sqldb, "create table emp (name varchar, salary float, "
                         "dept int)")
          .ok());
  for (int i = 0; i < 8; ++i) {
    std::string stmt = "insert into emp values ('e" + std::to_string(i) +
                       "', " + std::to_string(40000 + i * 5000) + ", " +
                       std::to_string(i % 3) + ")";
    ASSERT_TRUE(ExecuteSql(&sqldb, stmt).ok()) << stmt;
  }

  // Aggregate shape with a parameterized having clause.
  auto clauses = AggregateClauses::Extract(
      Parse("count(e.dept) >= 2 and sum(e.salary) > 100"), {});
  ASSERT_TRUE(clauses.ok()) << clauses.status().ToString();
  AggregateShapeKey key;
  key.var = "e";
  key.schema = emp;
  key.group_by = {Parse("e.dept")};
  key.calls = clauses->calls;
  AggregateShape shape(std::move(key));
  const uint32_t slot = shape.Attach(clauses->having);

  const uint64_t before = InterpreterEvalCalls();

  // 1. Predicate-index matches (signature hit + compiled rest, and a
  //    rest rejection).
  for (int i = 0; i < 10; ++i) {
    std::vector<PredicateMatch> out;
    UpdateDescriptor token = UpdateDescriptor::Insert(
        1, Tuple({Value::String("x"), Value::Float(40000.0 + i * 5000),
                  Value::Int(3)}));
    ASSERT_TRUE(pindex.Match(token, &out).ok());
  }

  // 2. A-TREAT maintenance and join: equijoin probe of a stored memory,
  //    compiled residual and catch-all conjuncts.
  int firings = 0;
  auto count = [&firings](const Tuple* const*) { ++firings; };
  for (int i = 0; i < 5; ++i) {
    for (NetworkNodeId node : {0, 1}) {
      Tuple t({Value::Int(i), Value::Int(node == 0 ? 1 : 10)});
      ASSERT_TRUE((*net)->AddTuple(node, t).ok());
      ASSERT_TRUE((*net)->MatchJoins(node, t, count).ok());
    }
  }
  EXPECT_EQ(firings, 5);

  // 3. execSQL scan filters.
  auto rows = ExecuteSql(&sqldb,
                         "select name from emp where salary > 50000 and "
                         "dept = 1");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_GT(rows->rows.size(), 0u);

  // 4. Group-by/having evaluation.
  for (int i = 0; i < 6; ++i) {
    std::vector<AggregateShape::Firing> fired;
    Status s = shape.Apply(
        Tuple({Value::String("x"), Value::Float(60000), Value::Int(i % 2)}),
        /*add=*/true, &slot, 1, &fired);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  EXPECT_EQ(InterpreterEvalCalls() - before, 0u)
      << "a hot path fell back to the tree-walking interpreter";
}

}  // namespace
}  // namespace tman

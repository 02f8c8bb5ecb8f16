#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>

#include "core/trigger_manager.h"
#include "expr/cnf.h"
#include "expr/compile.h"
#include "expr/eval.h"
#include "expr/token_batch.h"
#include "network/atreat.h"
#include "parser/parser.h"
#include "predindex/predicate_index.h"
#include "runtime/task_queue.h"

namespace tman {
namespace {

ExprPtr Parse(const std::string& text) {
  auto r = ParseExpressionString(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
  return r.ok() ? *r : nullptr;
}

// ---------------------------------------------------------------------------
// TokenBatch container
// ---------------------------------------------------------------------------

TEST(TokenBatchTest, AppendAndAccess) {
  Tuple a({Value::Int(1)});
  Tuple b({Value::Int(2)});
  TokenBatch batch(2);
  EXPECT_TRUE(batch.empty());
  batch.Append(&a, &b);
  batch.Append(&b, &a);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.num_slots(), 2u);
  EXPECT_EQ(batch.at(0, 0), &a);
  EXPECT_EQ(batch.at(1, 0), &b);
  EXPECT_EQ(batch.at(0, 1), &b);
  EXPECT_EQ(batch.at(1, 1), &a);
  // Columns are contiguous per slot.
  EXPECT_EQ(batch.slot(0)[0], &a);
  EXPECT_EQ(batch.slot(0)[1], &b);
  batch.Clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.num_slots(), 2u);
  batch.Reset(1);
  batch.Append(&a);
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.at(0, 0), &a);
}

// ---------------------------------------------------------------------------
// Batched VM: differential against scalar-compiled and interpreter
// ---------------------------------------------------------------------------

class BatchVmTest : public ::testing::Test {
 protected:
  BatchVmTest()
      : schema_({{"name", DataType::kVarchar},
                 {"salary", DataType::kFloat},
                 {"dept", DataType::kInt}}) {
    layout_.Add("emp", &schema_);
  }

  Schema schema_;
  BindingLayout layout_;
};

TEST_F(BatchVmTest, BatchMatchesScalarPerLane) {
  ExprPtr e = Parse("emp.dept = 3 and emp.salary > 50000");
  auto compiled = CompiledPredicate::Compile(e, layout_);
  ASSERT_TRUE(compiled.ok());

  std::vector<Tuple> tuples;
  for (int i = 0; i < 100; ++i) {
    tuples.push_back(Tuple({Value::String("e"), Value::Float(1000.0 * i),
                            Value::Int(i % 5)}));
  }
  TokenBatch batch(1);
  for (const Tuple& t : tuples) batch.Append(&t);

  BatchResult result;
  ASSERT_TRUE(compiled->EvalBatch(batch, &result).ok());
  ASSERT_EQ(result.size(), tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    const Tuple* slot[] = {&tuples[i]};
    auto scalar = compiled->EvalValue(slot, 1);
    ASSERT_TRUE(scalar.ok());
    ASSERT_TRUE(result.ok(i));
    EXPECT_EQ(result.value(i).ToString(), scalar->ToString()) << i;
  }
}

TEST_F(BatchVmTest, ErrorLanesAreIsolated) {
  // Lane-local division by zero: the failing lanes carry the scalar
  // error, the rest of the batch still evaluates.
  ExprPtr e = Parse("100 / emp.dept > 10");
  auto compiled = CompiledPredicate::Compile(e, layout_);
  ASSERT_TRUE(compiled.ok());

  std::vector<Tuple> tuples;
  for (int i = 0; i < 8; ++i) {
    tuples.push_back(
        Tuple({Value::String("e"), Value::Float(1), Value::Int(i % 2)}));
  }
  TokenBatch batch(1);
  for (const Tuple& t : tuples) batch.Append(&t);
  BatchResult result;
  ASSERT_TRUE(compiled->EvalBatch(batch, &result).ok());
  EXPECT_EQ(result.num_errors(), 4u);
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (i % 2 == 0) {
      ASSERT_FALSE(result.ok(i));
      EXPECT_EQ(result.status(i).message(), "integer division by zero");
    } else {
      ASSERT_TRUE(result.ok(i));
      EXPECT_EQ(result.value(i).as_int(), 1);
    }
  }

  std::vector<uint32_t> selection;
  ASSERT_TRUE(compiled->EvalBoolBatch(batch, &result, &selection).ok());
  ASSERT_EQ(selection.size(), 4u);
  for (uint32_t lane : selection) EXPECT_EQ(lane % 2, 1u);
}

TEST_F(BatchVmTest, MissingBindingsAndParams) {
  ExprPtr e = Parse("emp.dept = 1");
  auto compiled = CompiledPredicate::Compile(e, layout_);
  ASSERT_TRUE(compiled.ok());
  TokenBatch empty_slots(1);  // zero lanes: fine
  BatchResult result;
  EXPECT_TRUE(compiled->EvalBatch(empty_slots, &result).ok());
  EXPECT_EQ(result.size(), 0u);

  CompileOptions opts;
  opts.allow_params = true;
  ExprPtr p = MakeBinary(BinOp::kGt, MakePlaceholder(1),
                         MakeLiteral(Value::Int(10)));
  auto with_params = CompiledPredicate::Compile(p, layout_, opts);
  ASSERT_TRUE(with_params.ok());
  Tuple t({Value::String("x"), Value::Float(0), Value::Int(0)});
  TokenBatch batch(1);
  batch.Append(&t);
  // Missing parameters is a whole-batch (structural) error.
  EXPECT_FALSE(with_params->EvalBatch(batch, &result).ok());
  Value params[] = {Value::Int(42)};
  ASSERT_TRUE(with_params->EvalBatch(batch, &result, params, 1).ok());
  ASSERT_TRUE(result.ok(0));
  EXPECT_EQ(result.value(0).as_int(), 1);
}

// Port of the compiled-eval fuzzer, extended to batches: every random
// expression is evaluated over a randomized batch (NULL-heavy, mixed
// int/float/string columns) and each lane must agree with BOTH oracles —
// the scalar compiled program and the tree interpreter — value-for-value
// and error-for-error, message included.
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

  int64_t Int(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng_);
  }

 private:
  bool Chance(int percent) { return Int(0, 99) < percent; }
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

TEST(BatchVmFuzzTest, DifferentialAgainstScalarAndInterpreter) {
  Schema s0({{"a", DataType::kInt},
             {"b", DataType::kFloat},
             {"s", DataType::kVarchar}});
  Schema s1({{"x", DataType::kInt},
             {"y", DataType::kFloat},
             {"z", DataType::kChar}});
  BindingLayout layout;
  layout.Add("t0", &s0);
  layout.Add("t1", &s1);

  ExprFuzzer fuzz(20260808, &s0, &s1);
  static const size_t kBatchSizes[] = {1, 3, 8, 64, 100};
  for (int iter = 0; iter < 600; ++iter) {
    ExprPtr e = fuzz.Random(4);
    auto compiled = CompiledPredicate::Compile(e, layout);
    ASSERT_TRUE(compiled.ok())
        << ExprToString(e) << ": " << compiled.status().ToString();

    const size_t lanes = kBatchSizes[iter % 5];
    std::vector<Tuple> t0s, t1s;
    for (size_t i = 0; i < lanes; ++i) {
      t0s.push_back(fuzz.RandomTuple(s0));
      t1s.push_back(fuzz.RandomTuple(s1));
    }
    TokenBatch batch(2);
    for (size_t i = 0; i < lanes; ++i) batch.Append(&t0s[i], &t1s[i]);

    BatchResult result;
    ASSERT_TRUE(compiled->EvalBatch(batch, &result).ok()) << ExprToString(e);
    ASSERT_EQ(result.size(), lanes);

    for (size_t i = 0; i < lanes; ++i) {
      const Tuple* slots[] = {&t0s[i], &t1s[i]};
      Result<Value> sv = compiled->EvalValue(slots, 2);
      Bindings b;
      b.Bind("t0", &s0, &t0s[i]);
      b.Bind("t1", &s1, &t1s[i]);
      Result<Value> iv = EvalExpr(e, b);

      ASSERT_EQ(result.ok(i), sv.ok())
          << ExprToString(e) << "\nlane " << i << " t0=" << t0s[i].ToString()
          << " t1=" << t1s[i].ToString()
          << "\nbatched: " << result.status(i).ToString()
          << "\nscalar: " << sv.status().ToString() << "\n"
          << compiled->Disassemble();
      ASSERT_EQ(result.ok(i), iv.ok()) << ExprToString(e) << " lane " << i;
      if (result.ok(i)) {
        const Value& bv = result.value(i);
        ASSERT_EQ(bv.is_null(), sv->is_null()) << ExprToString(e);
        ASSERT_EQ(bv.ToString(), sv->ToString())
            << ExprToString(e) << "\nlane " << i << " t0=" << t0s[i].ToString()
            << " t1=" << t1s[i].ToString() << "\nbatched=" << bv.ToString()
            << " scalar=" << sv->ToString() << "\n"
            << compiled->Disassemble();
        ASSERT_EQ(bv.ToString(), iv->ToString()) << ExprToString(e);
      } else {
        ASSERT_EQ(result.status(i).code(), sv.status().code())
            << ExprToString(e);
        ASSERT_EQ(result.status(i).message(), sv.status().message())
            << ExprToString(e) << "\nlane " << i << " t0=" << t0s[i].ToString()
            << " t1=" << t1s[i].ToString() << "\n"
            << compiled->Disassemble();
        ASSERT_EQ(result.status(i).message(), iv.status().message())
            << ExprToString(e);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// TaskQueue::PopBatch
// ---------------------------------------------------------------------------

Task Noop() {
  Task t;
  t.work = []() { return Status::OK(); };
  return t;
}

TEST(PopBatchTest, DrainsHomeShardUnderOneLock) {
  TaskQueue q(4);
  std::vector<Task> tasks;
  for (int i = 0; i < 10; ++i) tasks.push_back(Noop());
  q.PushBatchToShard(1, std::move(tasks));

  std::vector<Task> out;
  EXPECT_EQ(q.PopBatchFromShard(1, &out, 6), 6u);
  EXPECT_EQ(out.size(), 6u);
  EXPECT_EQ(q.PopBatchFromShard(1, &out, 100), 4u);
  EXPECT_EQ(out.size(), 10u);
  EXPECT_EQ(q.PopBatchFromShard(1, &out, 4), 0u);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.in_flight(), 10u);
  for (size_t i = 0; i < out.size(); ++i) q.MarkDone();

  auto st = q.stats();
  EXPECT_EQ(st.batch_pops, 2u);
  EXPECT_EQ(st.batch_pop_tasks, 10u);
  auto shards = q.shard_stats();
  EXPECT_EQ(shards[1].batch_pops, 2u);
  EXPECT_EQ(shards[1].batch_pop_tasks, 10u);
  EXPECT_EQ(shards[1].steals, 0u);
}

TEST(PopBatchTest, StealTakesAtMostHalf) {
  TaskQueue q(4);
  std::vector<Task> tasks;
  for (int i = 0; i < 8; ++i) tasks.push_back(Noop());
  q.PushBatchToShard(2, std::move(tasks));

  // Homed on shard 0 (empty): the batch pop steals from shard 2 but may
  // take at most half of its queue even when asked for more.
  std::vector<Task> out;
  EXPECT_EQ(q.PopBatchFromShard(0, &out, 100), 4u);
  auto shards = q.shard_stats();
  EXPECT_EQ(shards[2].steals, 4u);
  EXPECT_EQ(shards[2].depth, 4u);
  // A single remaining task is still stealable (min 1).
  out.clear();
  EXPECT_EQ(q.PopBatchFromShard(0, &out, 3), 2u);
  EXPECT_EQ(q.PopBatchFromShard(0, &out, 100), 1u);
  EXPECT_EQ(q.PopBatchFromShard(0, &out, 100), 1u);
  for (int i = 0; i < 8; ++i) q.MarkDone();
  EXPECT_EQ(q.size(), 0u);
}

TEST(PopBatchTest, RespectsPauseAndZero) {
  TaskQueue q(2);
  q.Push(Noop());
  std::vector<Task> out;
  EXPECT_EQ(q.PopBatch(&out, 0), 0u);
  q.Pause();
  EXPECT_EQ(q.PopBatch(&out, 8), 0u);
  q.Resume();
  EXPECT_EQ(q.PopBatch(&out, 8), 1u);
  q.MarkDone();
}

TEST(PopBatchTest, ConcurrentPoppersSeeEveryTaskOnce) {
  TaskQueue q(4);
  constexpr int kTasks = 4000;
  std::atomic<int> executed{0};
  std::vector<Task> tasks;
  tasks.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    Task t;
    t.work = [&executed]() {
      executed.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    };
    tasks.push_back(std::move(t));
  }
  for (int i = 0; i < kTasks; i += 100) {
    std::vector<Task> chunk(std::make_move_iterator(tasks.begin() + i),
                            std::make_move_iterator(tasks.begin() + i + 100));
    q.PushBatchToShard(static_cast<uint32_t>(i / 100) % 4, std::move(chunk));
  }
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&q, w]() {
      std::vector<Task> out;
      for (;;) {
        out.clear();
        if (q.PopBatchFromShard(static_cast<uint32_t>(w), &out, 16) == 0) {
          break;
        }
        for (Task& t : out) {
          (void)t.work();
          q.MarkDone();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(executed.load(), kTasks);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.in_flight(), 0u);
  auto st = q.stats();
  EXPECT_EQ(st.popped, static_cast<uint64_t>(kTasks));
  EXPECT_EQ(st.batch_pop_tasks, static_cast<uint64_t>(kTasks));
}

// ---------------------------------------------------------------------------
// PredicateIndex::MatchBatch parity
// ---------------------------------------------------------------------------

TEST(MatchBatchTest, AgreesWithScalarMatch) {
  Database db;
  PredicateIndex pindex(&db, OrgPolicy());
  Schema emp({{"name", DataType::kVarchar},
              {"salary", DataType::kFloat},
              {"dept", DataType::kInt}});
  Schema item({{"sku", DataType::kInt}, {"price", DataType::kFloat}});
  ASSERT_TRUE(pindex.RegisterDataSource(1, emp).ok());
  ASSERT_TRUE(pindex.RegisterDataSource(2, item).ok());

  auto add = [&](DataSourceId ds, OpCode op, const std::string& pred,
                 TriggerId tid) {
    PredicateSpec spec;
    spec.data_source = ds;
    spec.op = op;
    spec.predicate = pred.empty() ? nullptr : Parse(pred);
    spec.trigger_id = tid;
    ASSERT_TRUE(pindex.AddPredicate(spec).ok()) << pred;
  };
  add(1, OpCode::kInsert, "emp.dept = 3 and emp.salary > 1000", 100);
  add(1, OpCode::kInsert, "emp.dept = 3 and length(emp.name) > 2", 101);
  add(1, OpCode::kInsertOrUpdate, "emp.salary > 5000", 102);
  add(1, OpCode::kInsert, "", 103);  // unconditional
  add(2, OpCode::kInsert, "item.price < 10.0", 200);

  std::mt19937 rng(7);
  std::vector<UpdateDescriptor> tokens;
  for (int i = 0; i < 200; ++i) {
    if (rng() % 3 == 0) {
      tokens.push_back(UpdateDescriptor::Insert(
          2, Tuple({Value::Int(static_cast<int64_t>(rng() % 50)),
                    Value::Float(static_cast<double>(rng() % 20))})));
    } else {
      tokens.push_back(UpdateDescriptor::Insert(
          1, Tuple({Value::String(std::string(rng() % 5, 'x')),
                    Value::Float(static_cast<double>(rng() % 10000)),
                    Value::Int(static_cast<int64_t>(rng() % 5))})));
    }
  }

  // Scalar oracle.
  std::vector<std::vector<std::pair<TriggerId, ExprId>>> scalar(tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    std::vector<PredicateMatch> out;
    ASSERT_TRUE(pindex.Match(tokens[i], &out).ok());
    for (const PredicateMatch& m : out) {
      scalar[i].push_back({m.trigger_id, m.expr_id});
    }
  }

  std::vector<std::vector<std::pair<TriggerId, ExprId>>> batched(
      tokens.size());
  std::vector<Status> per_token;
  ASSERT_TRUE(pindex
                  .MatchBatch(tokens, 0, 1,
                              [&](size_t lane, const PredicateMatch& m) {
                                batched[lane].push_back(
                                    {m.trigger_id, m.expr_id});
                              },
                              &per_token)
                  .ok());
  ASSERT_EQ(per_token.size(), tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    EXPECT_TRUE(per_token[i].ok()) << i;
    EXPECT_EQ(batched[i], scalar[i]) << "token " << i;
  }
}

TEST(MatchBatchTest, LaneErrorStopsOnlyThatToken) {
  Database db;
  PredicateIndex pindex(&db, OrgPolicy());
  Schema emp({{"name", DataType::kVarchar}, {"dept", DataType::kInt}});
  ASSERT_TRUE(pindex.RegisterDataSource(1, emp).ok());
  PredicateSpec spec;
  spec.data_source = 1;
  spec.op = OpCode::kInsert;
  // dept = 0 lanes divide by zero inside the rest-of-predicate.
  spec.predicate = Parse("emp.dept = emp.dept and 10 / emp.dept >= 0");
  spec.trigger_id = 7;
  ASSERT_TRUE(pindex.AddPredicate(spec).ok());

  std::vector<UpdateDescriptor> tokens;
  for (int i = 0; i < 6; ++i) {
    tokens.push_back(UpdateDescriptor::Insert(
        1, Tuple({Value::String("x"), Value::Int(i % 3)})));
  }
  std::vector<int> match_count(tokens.size(), 0);
  std::vector<Status> per_token;
  Status first = pindex.MatchBatch(
      tokens, 0, 1,
      [&](size_t lane, const PredicateMatch&) { ++match_count[lane]; },
      &per_token);
  EXPECT_FALSE(first.ok());
  for (size_t i = 0; i < tokens.size(); ++i) {
    // Scalar oracle per token.
    std::vector<PredicateMatch> out;
    Status s = pindex.Match(tokens[i], &out);
    EXPECT_EQ(per_token[i].ok(), s.ok()) << i;
    if (!s.ok()) {
      EXPECT_EQ(per_token[i].message(), s.message()) << i;
    }
    EXPECT_EQ(match_count[i], static_cast<int>(out.size())) << i;
  }
}

// ---------------------------------------------------------------------------
// Hot path proof: the batched pipeline never re-enters the interpreter
// ---------------------------------------------------------------------------

TEST(BatchHotPathTest, BatchedPathsDoNotTouchInterpreter) {
  // Compiled batch eval.
  Schema emp({{"name", DataType::kVarchar},
              {"salary", DataType::kFloat},
              {"dept", DataType::kInt}});
  BindingLayout layout;
  layout.Add("emp", &emp);
  ExprPtr e = Parse("emp.dept = 3 and emp.salary > 50000");
  auto compiled = CompiledPredicate::Compile(e, layout);
  ASSERT_TRUE(compiled.ok());

  // Predicate index with a compiled rest-of-predicate.
  Database db;
  PredicateIndex pindex(&db, OrgPolicy());
  ASSERT_TRUE(pindex.RegisterDataSource(1, emp).ok());
  PredicateSpec spec;
  spec.data_source = 1;
  spec.op = OpCode::kInsert;
  spec.predicate = Parse("emp.dept = 3 and emp.salary > 50000");
  spec.trigger_id = 100;
  ASSERT_TRUE(pindex.AddPredicate(spec).ok());

  // A-TREAT network over stored memories (stream sources) whose join and
  // catch-all conjuncts all compile.
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

  const uint64_t before = InterpreterEvalCalls();

  // 1. Batched VM over 64 lanes.
  std::vector<Tuple> tuples;
  for (int i = 0; i < 64; ++i) {
    tuples.push_back(Tuple({Value::String("e"), Value::Float(1000.0 * i),
                            Value::Int(i % 5)}));
  }
  TokenBatch batch(1);
  for (const Tuple& t : tuples) batch.Append(&t);
  BatchResult result;
  std::vector<uint32_t> selection;
  ASSERT_TRUE(compiled->EvalBoolBatch(batch, &result, &selection).ok());

  // 2. Batched predicate-index probe.
  std::vector<UpdateDescriptor> tokens;
  for (int i = 0; i < 64; ++i) {
    tokens.push_back(UpdateDescriptor::Insert(
        1, Tuple({Value::String("x"), Value::Float(40000.0 + i * 1000),
                  Value::Int(3)})));
  }
  ASSERT_TRUE(pindex
                  .MatchBatch(tokens, 0, 1,
                              [](size_t, const PredicateMatch&) {}, nullptr)
                  .ok());

  // 3. A-TREAT maintenance and multi-candidate joins: every shipment
  //    joins the four orders that share its oid.
  int firings = 0;
  auto count = [&firings](const Tuple* const*) { ++firings; };
  for (NetworkNodeId node : {0, 1}) {
    for (int i = 0; i < 16; ++i) {
      Tuple t({Value::Int(i % 4), Value::Int(node == 0 ? 1 : 10)});
      ASSERT_TRUE((*net)->AddTuple(node, t).ok());
      ASSERT_TRUE((*net)->MatchJoins(node, t, count).ok());
    }
  }
  EXPECT_EQ(firings, 64);

  EXPECT_EQ(InterpreterEvalCalls() - before, 0u)
      << "a batched path fell back to the tree-walking interpreter";
}

// ---------------------------------------------------------------------------
// TriggerManager end-to-end: batched pipeline ≡ scalar pipeline
// ---------------------------------------------------------------------------

class BatchPipelineTest : public ::testing::Test {
 protected:
  void Reset(uint32_t batch_size) {
    tman_.reset();
    db_ = std::make_unique<Database>();
    TriggerManagerOptions options;
    options.persistent_queue = false;  // memory mode: the batched path
    options.batch_size = batch_size;
    tman_ = std::make_unique<TriggerManager>(db_.get(), options);
    ASSERT_TRUE(tman_->Open().ok());
    Schema quotes({{"sym", DataType::kVarchar},
                   {"price", DataType::kFloat},
                   {"size", DataType::kInt}});
    auto ds = tman_->DefineStreamSource("quotes", quotes);
    ASSERT_TRUE(ds.ok());
    source_ = *ds;
    auto r = tman_->ExecuteCommand(
        "create trigger bigTrade from quotes on insert "
        "when quotes.price > 50.0 and quotes.size >= 10 "
        "do raise event BigTrade(quotes.sym)");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  std::vector<UpdateDescriptor> MakeTokens(int n) {
    std::vector<UpdateDescriptor> tokens;
    std::mt19937 rng(99);
    for (int i = 0; i < n; ++i) {
      tokens.push_back(UpdateDescriptor::Insert(
          source_,
          Tuple({Value::String("s" + std::to_string(i % 7)),
                 Value::Float(static_cast<double>(rng() % 100)),
                 Value::Int(static_cast<int64_t>(rng() % 20))})));
    }
    return tokens;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<TriggerManager> tman_;
  DataSourceId source_ = 0;
};

TEST_F(BatchPipelineTest, BatchedFiringsMatchScalar) {
  const int kTokens = 500;

  Reset(/*batch_size=*/1);  // scalar oracle
  {
    auto tokens = MakeTokens(kTokens);
    ASSERT_TRUE(tman_->SubmitUpdateBatch(tokens).ok());
    ASSERT_TRUE(tman_->ProcessPending().ok());
  }
  const uint64_t scalar_firings = tman_->stats().rule_firings;
  const uint64_t scalar_tokens = tman_->stats().tokens_processed;
  EXPECT_GT(scalar_firings, 0u);
  EXPECT_EQ(scalar_tokens, static_cast<uint64_t>(kTokens));

  Reset(/*batch_size=*/64);
  {
    auto tokens = MakeTokens(kTokens);
    ASSERT_TRUE(tman_->SubmitUpdateBatch(tokens).ok());
    ASSERT_TRUE(tman_->ProcessPending().ok());
  }
  EXPECT_EQ(tman_->stats().rule_firings, scalar_firings);
  EXPECT_EQ(tman_->stats().tokens_processed,
            static_cast<uint64_t>(kTokens));
  // The batched path drains through PopBatch: the queue's batch counters
  // must show multi-task drains.
  auto qs = tman_->task_queue().stats();
  EXPECT_GT(qs.batch_pops, 0u);
  EXPECT_EQ(qs.batch_pop_tasks, qs.popped);
}

TEST_F(BatchPipelineTest, BatchedPipelineRunsDriversToo) {
  Reset(/*batch_size=*/64);
  auto tokens = MakeTokens(300);
  ASSERT_TRUE(tman_->Start().ok());
  ASSERT_TRUE(tman_->SubmitUpdateBatch(tokens).ok());
  tman_->Drain();
  tman_->Stop();
  EXPECT_EQ(tman_->stats().tokens_processed, 300u);
}

}  // namespace
}  // namespace tman

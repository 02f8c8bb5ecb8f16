// Property-based tests: randomized workloads checked against reference
// models and semantic invariants.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "expr/cnf.h"
#include "expr/eval.h"
#include "expr/rewrite.h"
#include "expr/signature.h"
#include "network/atreat.h"
#include "parser/parser.h"
#include "predindex/predicate_index.h"
#include "util/random.h"

namespace tman {
namespace {

Schema TestSchema() {
  return Schema({{"a", DataType::kInt},
                 {"b", DataType::kInt},
                 {"s", DataType::kVarchar}});
}

Tuple RandomTuple(Random* rng) {
  return Tuple({Value::Int(rng->UniformRange(-20, 20)),
                Value::Int(rng->UniformRange(0, 100)),
                Value::String("k" + std::to_string(rng->Uniform(10)))});
}

ExprPtr MustParseLocal(const std::string& text) {
  auto r = ParseExpressionString(text);
  EXPECT_TRUE(r.ok()) << text;
  return *r;
}

/// A random boolean expression over one tuple variable "t".
ExprPtr RandomPredicate(Random* rng, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.45)) {
    // Leaf comparison.
    switch (rng->Uniform(5)) {
      case 0:
        return MustParseLocal("t.a = " +
                              std::to_string(rng->UniformRange(-20, 20)));
      case 1:
        return MustParseLocal("t.b > " +
                              std::to_string(rng->UniformRange(0, 100)));
      case 2:
        return MustParseLocal("t.b <= " +
                              std::to_string(rng->UniformRange(0, 100)));
      case 3:
        return MustParseLocal("t.s = 'k" + std::to_string(rng->Uniform(10)) +
                              "'");
      default:
        return MustParseLocal("t.a + t.b > " +
                              std::to_string(rng->UniformRange(-10, 110)));
    }
  }
  switch (rng->Uniform(3)) {
    case 0:
      return MakeBinary(BinOp::kAnd, RandomPredicate(rng, depth - 1),
                        RandomPredicate(rng, depth - 1));
    case 1:
      return MakeBinary(BinOp::kOr, RandomPredicate(rng, depth - 1),
                        RandomPredicate(rng, depth - 1));
    default:
      return MakeUnary(UnOp::kNot, RandomPredicate(rng, depth - 1));
  }
}

bool EvalOn(const ExprPtr& e, const Schema& schema, const Tuple& t) {
  Bindings b;
  b.Bind("t", &schema, &t);
  auto r = EvalPredicate(e, b);
  EXPECT_TRUE(r.ok()) << ExprToString(e) << ": " << r.status().ToString();
  return r.ok() && *r;
}

// --- CNF preserves semantics ------------------------------------------------

TEST(CnfPropertyTest, CnfEquivalentToOriginal) {
  Random rng(1234);
  Schema schema = TestSchema();
  for (int round = 0; round < 300; ++round) {
    ExprPtr e = RandomPredicate(&rng, 3);
    auto cnf = ToCnf(e);
    if (!cnf.ok()) continue;  // blown size bound — allowed
    for (int probe = 0; probe < 10; ++probe) {
      Tuple t = RandomTuple(&rng);
      bool original = EvalOn(e, schema, t);
      bool conjunction = true;
      for (const ExprPtr& c : *cnf) {
        if (!EvalOn(c, schema, t)) {
          conjunction = false;
          break;
        }
      }
      ASSERT_EQ(original, conjunction)
          << "expr: " << ExprToString(e) << " tuple: " << t.ToString();
    }
  }
}

// --- signature generalization round trips -----------------------------------

TEST(SignaturePropertyTest, BindPlaceholdersRestoresPredicate) {
  Random rng(99);
  Schema schema = TestSchema();
  for (int round = 0; round < 300; ++round) {
    ExprPtr e = RandomPredicate(&rng, 2);
    auto gen = GeneralizePredicate(1, OpCode::kInsert, e);
    ASSERT_TRUE(gen.ok());
    auto restored =
        BindPlaceholders(gen->signature.generalized, gen->constants);
    ASSERT_TRUE(restored.ok());
    // The restored predicate must evaluate identically to the original on
    // arbitrary tuples (canonicalization may flip comparisons, but never
    // semantics).
    for (int probe = 0; probe < 10; ++probe) {
      Tuple t = RandomTuple(&rng);
      ASSERT_EQ(EvalOn(e, schema, t), EvalOn(*restored, schema, t))
          << "expr: " << ExprToString(e)
          << " restored: " << ExprToString(*restored);
    }
  }
}

TEST(SignaturePropertyTest, SplitPartsConjoinToWhole) {
  // For every generalized predicate: (eq conjuncts AND range AND rest)
  // == whole. We verify by binding constants and evaluating.
  Random rng(7);
  Schema schema = TestSchema();
  for (int round = 0; round < 300; ++round) {
    ExprPtr e = RandomPredicate(&rng, 2);
    auto gen = GeneralizePredicate(1, OpCode::kInsert, e);
    ASSERT_TRUE(gen.ok());
    IndexableSplit split = SplitIndexable(gen->signature.generalized);
    // Reassemble: indexable eq conjuncts + range bounds + rest.
    std::vector<ExprPtr> parts;
    for (const EqConjunct& c : split.eq) {
      parts.push_back(MakeBinary(BinOp::kEq, MakeColumnRef("t", c.attribute),
                                 MakePlaceholder(c.placeholder)));
    }
    if (split.has_range) {
      const RangeSpec& r = split.range;
      if (r.has_lo) {
        parts.push_back(MakeBinary(
            r.lo_inclusive ? BinOp::kGe : BinOp::kGt,
            MakeColumnRef("t", r.attribute),
            MakePlaceholder(r.lo_placeholder)));
      }
      if (r.has_hi) {
        parts.push_back(MakeBinary(
            r.hi_inclusive ? BinOp::kLe : BinOp::kLt,
            MakeColumnRef("t", r.attribute),
            MakePlaceholder(r.hi_placeholder)));
      }
    }
    if (split.rest != nullptr) parts.push_back(split.rest);
    ExprPtr reassembled = AndAll(parts);
    auto bound_whole =
        BindPlaceholders(gen->signature.generalized, gen->constants);
    auto bound_parts = BindPlaceholders(reassembled, gen->constants);
    ASSERT_TRUE(bound_whole.ok() && bound_parts.ok());
    for (int probe = 0; probe < 10; ++probe) {
      Tuple t = RandomTuple(&rng);
      ASSERT_EQ(EvalOn(*bound_whole, schema, t),
                EvalOn(*bound_parts, schema, t))
          << ExprToString(*bound_whole) << " vs "
          << ExprToString(*bound_parts);
    }
  }
}

// --- all four organizations agree -------------------------------------------
//
// The tokens carry a float column `f` with integral values half the time,
// and equality literals cross the numeric types (`t.a = 3.0` on the int
// column, `t.f = 2` on the float one): a value equals its twin of the
// other numeric type under every organization, as under direct
// evaluation.

Schema EquivalenceSchema() {
  return Schema({{"a", DataType::kInt},
                 {"b", DataType::kInt},
                 {"s", DataType::kVarchar},
                 {"f", DataType::kFloat}});
}

Tuple RandomEquivalenceTuple(Random* rng) {
  Tuple t = RandomTuple(rng);
  t.Append(Value::Float(static_cast<double>(rng->UniformRange(-6, 6)) / 2));
  return t;
}

/// An equality leaf on a numeric column whose literal is, half the time,
/// of the other numeric type (then `*cross` is set).
ExprPtr RandomNumericEquality(Random* rng, bool* cross) {
  const uint64_t shape = rng->Uniform(4);
  if (shape == 0 || shape == 2) *cross = true;
  switch (shape) {
    case 0:
      return MustParseLocal("t.a = " +
                            std::to_string(rng->UniformRange(-20, 20)) +
                            ".0");
    case 1:
      return MustParseLocal("t.a = " +
                            std::to_string(rng->UniformRange(-20, 20)));
    case 2:
      return MustParseLocal("t.f = " +
                            std::to_string(rng->UniformRange(-3, 3)));
    default:
      return MustParseLocal("t.f = " +
                            std::to_string(rng->UniformRange(-3, 3)) +
                            (rng->Bernoulli(0.5) ? ".0" : ".5"));
  }
}

/// A predicate of the equivalence test; `*cross` reports a cross-typed
/// equality conjunct.
ExprPtr RandomEquivalencePredicate(Random* rng, bool* cross) {
  switch (rng->Uniform(4)) {
    case 0:
      return RandomPredicate(rng, 2);
    case 1:
      return RandomNumericEquality(rng, cross);
    case 2:
      return MakeBinary(BinOp::kAnd, RandomNumericEquality(rng, cross),
                        RandomPredicate(rng, 1));
    default:
      return MakeBinary(BinOp::kAnd, RandomNumericEquality(rng, cross),
                        RandomNumericEquality(rng, cross));
  }
}

class OrganizationEquivalenceTest : public ::testing::TestWithParam<OrgType> {
};

TEST_P(OrganizationEquivalenceTest, MatchesAgreeWithDirectEvaluation) {
  OrgType org = GetParam();
  Random rng(static_cast<uint64_t>(org) * 7919 + 5);
  Database db;
  OrgPolicy policy;
  policy.forced = true;
  policy.forced_type = org;
  PredicateIndex index(&db, policy);
  Schema schema = EquivalenceSchema();
  ASSERT_TRUE(index.RegisterDataSource(1, schema).ok());

  // Install random predicates, remembering their concrete forms: 60
  // general shapes over the int and varchar columns, then 60 that mix in
  // cross-typed numeric equalities.
  struct Installed {
    TriggerId id;
    ExprPtr predicate;
    bool cross = false;
  };
  std::vector<Installed> installed;
  for (int i = 0; i < 120; ++i) {
    bool cross = false;
    ExprPtr e = i < 60 ? RandomPredicate(&rng, 2)
                       : RandomEquivalencePredicate(&rng, &cross);
    PredicateSpec spec;
    spec.data_source = 1;
    spec.op = OpCode::kInsertOrUpdate;
    spec.predicate = e;
    spec.trigger_id = static_cast<TriggerId>(i + 1);
    auto added = index.AddPredicate(spec);
    ASSERT_TRUE(added.ok()) << added.status().ToString() << " for "
                            << ExprToString(e);
    installed.push_back({spec.trigger_id, e, cross});
  }

  // Probe with random tokens: the index must emit exactly the triggers
  // whose predicate evaluates true.
  size_t cross_typed_matches = 0;
  for (int probe = 0; probe < 200; ++probe) {
    Tuple t = RandomEquivalenceTuple(&rng);
    std::set<TriggerId> expected;
    for (const Installed& inst : installed) {
      Bindings b;
      b.Bind("t", &schema, &t);
      auto pass = EvalPredicate(inst.predicate, b);
      ASSERT_TRUE(pass.ok());
      if (*pass) {
        expected.insert(inst.id);
        if (inst.cross) ++cross_typed_matches;
      }
    }
    std::vector<PredicateMatch> out;
    ASSERT_TRUE(index.Match(UpdateDescriptor::Insert(1, t), &out).ok());
    std::set<TriggerId> got;
    for (const auto& m : out) got.insert(m.trigger_id);
    ASSERT_EQ(got, expected) << "tuple " << t.ToString() << " org "
                             << OrgTypeName(org);
  }
  // The cross-typed equalities did match: the check above saw them.
  EXPECT_GT(cross_typed_matches, 10u) << OrgTypeName(org);
}

std::string OrgTestName(const ::testing::TestParamInfo<OrgType>& info) {
  switch (info.param) {
    case OrgType::kMemoryList:
      return "MemoryList";
    case OrgType::kMemoryIndex:
      return "MemoryIndex";
    case OrgType::kDbTable:
      return "DbTable";
    case OrgType::kDbIndexedTable:
      return "DbIndexedTable";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(AllOrganizations, OrganizationEquivalenceTest,
                         ::testing::Values(OrgType::kMemoryList,
                                           OrgType::kMemoryIndex,
                                           OrgType::kDbTable,
                                           OrgType::kDbIndexedTable),
                         OrgTestName);

// --- partitioned matching is a partition ------------------------------------

class PartitionCoverageTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PartitionCoverageTest, PartitionsAreDisjointAndComplete) {
  uint32_t parts = GetParam();
  Random rng(55);
  PredicateIndex index(nullptr, OrgPolicy());
  Schema schema = TestSchema();
  ASSERT_TRUE(index.RegisterDataSource(1, schema).ok());
  for (int i = 0; i < 100; ++i) {
    PredicateSpec spec;
    spec.data_source = 1;
    spec.op = OpCode::kInsertOrUpdate;
    spec.predicate = RandomPredicate(&rng, 2);
    spec.trigger_id = static_cast<TriggerId>(i + 1);
    ASSERT_TRUE(index.AddPredicate(spec).ok());
  }
  for (int probe = 0; probe < 50; ++probe) {
    Tuple t = RandomTuple(&rng);
    UpdateDescriptor token = UpdateDescriptor::Insert(1, t);
    std::multiset<TriggerId> unpartitioned;
    ASSERT_TRUE(index
                    .MatchPartitioned(token, 0, 1,
                                      [&](const PredicateMatch& m) {
                                        unpartitioned.insert(m.trigger_id);
                                      })
                    .ok());
    std::multiset<TriggerId> combined;
    for (uint32_t p = 0; p < parts; ++p) {
      ASSERT_TRUE(index
                      .MatchPartitioned(token, p, parts,
                                        [&](const PredicateMatch& m) {
                                          combined.insert(m.trigger_id);
                                        })
                      .ok());
    }
    ASSERT_EQ(combined, unpartitioned);
  }
}

INSTANTIATE_TEST_SUITE_P(PartitionCounts, PartitionCoverageTest,
                         ::testing::Values(2u, 3u, 7u, 16u));

// --- the shared rest program agrees with the interpreter --------------------
//
// Every signature class evaluates its rest of predicate with one compiled
// program, binding each candidate's constants as the program's second
// slot. The oracle re-derives every token's outcome from the class's
// organization and the interpreter over BindPlaceholders(rest, constants):
// the same matches in the same order, and the same error (code and
// message) where a rest raises one.

Schema RestSchema() {
  return Schema({{"a", DataType::kInt},
                 {"b", DataType::kInt},
                 {"f", DataType::kFloat},
                 {"s", DataType::kVarchar}});
}

Tuple RandomRestTuple(Random* rng) {
  Value f = rng->Bernoulli(0.1)
                ? Value::Null()
                : Value::Float(static_cast<double>(rng->UniformRange(-40, 40)) /
                               4.0);
  return Tuple({Value::Int(rng->UniformRange(-5, 25)),
                Value::Int(rng->UniformRange(0, 30)), std::move(f),
                Value::String("k" + std::to_string(rng->Uniform(4)))});
}

/// A constant of any type: one class then holds int, float, string and
/// NULL rows (`t.b > 7` and `t.b > 7.5` share a signature).
std::string RandomConstantText(Random* rng) {
  switch (rng->Uniform(8)) {
    case 0:
      return "null";
    case 1:
      return "'k" + std::to_string(rng->Uniform(4)) + "'";
    case 2:
    case 3:
      return std::to_string(rng->UniformRange(0, 20)) + ".5";
    default:
      return std::to_string(rng->UniformRange(0, 20));  // 0 divides by zero
  }
}

/// A predicate of signature shape `shape`: an optional indexable part and
/// a rest drawn from templates that compare, compute, short-circuit and
/// raise (type mismatches, division and mod by zero, and an unknown
/// function the compiler refuses, which runs on the interpreter).
std::string RestPredicateText(int shape, Random* rng) {
  static const char* const kIndexable[] = {"", "t.s = 'k1' and ",
                                           "t.a >= 3 and "};
  static const char* const kRests[] = {
      "t.b > $",
      "t.a + t.b < $",
      "t.b / $ > 2",
      "(t.f > $ or t.a = $)",
      "mod(t.b, $) = 1",
      "t.b > t.a and t.f < $",
      "length(t.s) <= $",
      "not (t.b = $)",
      "abs(t.a) * $ > t.b",
      "(t.b > $ or nosuchfn(t.a) > $)",
  };
  constexpr int kNumRests = sizeof(kRests) / sizeof(kRests[0]);
  std::string out = kIndexable[(shape / kNumRests) % 3];
  for (const char* c = kRests[shape % kNumRests]; *c != '\0'; ++c) {
    if (*c == '$') {
      out += RandomConstantText(rng);
    } else {
      out += *c;
    }
  }
  return out;
}

struct LaneOutcome {
  std::vector<std::pair<TriggerId, ExprId>> matches;
  Status status;
};

/// The oracle: each class's organization supplies the candidates in its
/// order, and the interpreter tests the class rest bound to each
/// candidate's constants. A token stops at its first error.
LaneOutcome ReferenceOutcome(const DataSourcePredicateIndex& src,
                             const Tuple& t) {
  LaneOutcome out;
  for (const auto& sig : src.entries()) {
    const SignatureContext& ctx = sig->context();
    std::vector<size_t> eq_fields;
    for (const EqConjunct& c : ctx.split.eq) {
      eq_fields.push_back(
          static_cast<size_t>(src.schema().FieldIndex(c.attribute)));
    }
    const int range_field =
        ctx.split.has_range
            ? static_cast<int>(
                  src.schema().FieldIndex(ctx.split.range.attribute))
            : -1;
    const Probe probe = Probe::Of(t, eq_fields, range_field);
    Status org = sig->organization()->Match(probe, [&](const PredicateEntry& e) {
      if (!out.status.ok()) return;
      if (ctx.split.rest != nullptr) {
        auto bound = BindPlaceholders(ctx.split.rest, e.constants.values());
        if (!bound.ok()) {
          out.status = bound.status();
          return;
        }
        Bindings b;
        b.Bind(std::string(SignatureVarName()), &src.schema(), &t);
        auto pass = EvalPredicate(*bound, b);
        if (!pass.ok()) {
          out.status = pass.status();
          return;
        }
        if (!*pass) return;
      }
      out.matches.emplace_back(e.trigger_id, e.expr_id);
    });
    if (out.status.ok()) out.status = org;
    if (!out.status.ok()) break;
  }
  return out;
}

/// What the oracle saw over a batch, so a test can insist the data
/// reached both outcomes.
struct OracleTally {
  size_t matches = 0;
  size_t errors = 0;
};

/// Checks Match, MatchMaintenance and MatchBatch of `index` against the
/// oracle on `tuples` (one batch).
void ExpectAgreesWithInterpreter(const PredicateIndex& index,
                                 const std::vector<Tuple>& tuples,
                                 const std::string& where,
                                 OracleTally* tally = nullptr) {
  const DataSourcePredicateIndex* src = index.source(1);
  ASSERT_NE(src, nullptr);
  std::vector<UpdateDescriptor> tokens;
  std::vector<LaneOutcome> want;
  for (const Tuple& t : tuples) {
    tokens.push_back(UpdateDescriptor::Insert(1, t));
    want.push_back(ReferenceOutcome(*src, t));
    if (tally != nullptr) {
      tally->matches += want.back().matches.size();
      tally->errors += want.back().status.ok() ? 0 : 1;
    }
  }
  auto same = [&](const LaneOutcome& got, const LaneOutcome& ref,
                  const std::string& api, size_t lane) {
    EXPECT_EQ(got.matches, ref.matches)
        << where << " " << api << " tuple " << tuples[lane].ToString();
    EXPECT_EQ(got.status.ToString(), ref.status.ToString())
        << where << " " << api << " tuple " << tuples[lane].ToString();
  };
  for (size_t lane = 0; lane < tuples.size(); ++lane) {
    LaneOutcome scalar;
    scalar.status = index.MatchPartitioned(
        tokens[lane], 0, 1, [&](const PredicateMatch& m) {
          scalar.matches.emplace_back(m.trigger_id, m.expr_id);
        });
    same(scalar, want[lane], "Match", lane);
    LaneOutcome maint;
    maint.status = index.MatchMaintenance(
        1, tuples[lane], 0, 1, [&](const PredicateMatch& m) {
          maint.matches.emplace_back(m.trigger_id, m.expr_id);
        });
    same(maint, want[lane], "MatchTuple", lane);
  }
  std::vector<LaneOutcome> batched(tuples.size());
  std::vector<Status> per_token;
  (void)index.MatchBatch(
      tokens, 0, 1,
      [&](size_t lane, const PredicateMatch& m) {
        batched[lane].matches.emplace_back(m.trigger_id, m.expr_id);
      },
      &per_token);
  ASSERT_EQ(per_token.size(), tuples.size());
  for (size_t lane = 0; lane < tuples.size(); ++lane) {
    batched[lane].status = per_token[lane];
    same(batched[lane], want[lane], "MatchBatch", lane);
  }
}

/// Installs `count` random predicates, each of a shape drawn from `shapes`.
void InstallRestPredicates(PredicateIndex* index, Random* rng,
                           const std::vector<int>& shapes, int count,
                           TriggerId* next_trigger) {
  for (int i = 0; i < count; ++i) {
    std::string text =
        RestPredicateText(shapes[rng->Uniform(shapes.size())], rng);
    PredicateSpec spec;
    spec.data_source = 1;
    spec.op = OpCode::kInsertOrUpdate;
    spec.predicate = MustParseLocal(text);
    spec.trigger_id = (*next_trigger)++;
    auto added = index->AddPredicate(spec);
    ASSERT_TRUE(added.ok()) << added.status().ToString() << " for " << text;
  }
}

std::vector<Tuple> RandomRestTuples(Random* rng, int n) {
  std::vector<Tuple> out;
  for (int i = 0; i < n; ++i) out.push_back(RandomRestTuple(rng));
  return out;
}

class SharedRestProgramTest : public ::testing::TestWithParam<OrgType> {};

TEST_P(SharedRestProgramTest, AgreesWithInterpreterUnderEveryOrganization) {
  OrgType org = GetParam();
  OracleTally tally;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Random rng(seed * 104729 + static_cast<uint64_t>(org));
    Database db;
    OrgPolicy policy;
    policy.forced = true;
    policy.forced_type = org;
    PredicateIndex index(&db, policy);
    ASSERT_TRUE(index.RegisterDataSource(1, RestSchema()).ok());
    TriggerId next = 1;
    std::vector<int> shapes;
    for (int shape = 0; shape < 30; ++shape) shapes.push_back(shape);
    InstallRestPredicates(&index, &rng, shapes, 120, &next);
    // Some classes run one compiled program, the nosuchfn ones the
    // interpreter.
    uint64_t with_rest = 0;
    for (const auto& sig : index.source(1)->entries()) {
      if (sig->context().split.rest != nullptr) ++with_rest;
    }
    PredicateIndexStats st = index.stats();
    EXPECT_GT(st.rest_programs, 0u);
    EXPECT_LT(st.rest_programs, with_rest);
    ExpectAgreesWithInterpreter(index, RandomRestTuples(&rng, 64),
                                "seed " + std::to_string(seed), &tally);
  }
  EXPECT_GT(tally.matches, 0u);
  EXPECT_GT(tally.errors, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllOrganizations, SharedRestProgramTest,
                         ::testing::Values(OrgType::kMemoryList,
                                           OrgType::kMemoryIndex,
                                           OrgType::kDbTable,
                                           OrgType::kDbIndexedTable),
                         OrgTestName);

TEST(SharedRestProgramMigrationTest, AgreesAcrossMigrationAndAdaptiveSwap) {
  Random rng(2718);
  Database db;
  OrgPolicy policy;
  policy.list_max = 3;
  policy.memory_max = 10;  // larger classes move to an indexed table
  PredicateIndex index(&db, policy);
  ASSERT_TRUE(index.RegisterDataSource(1, RestSchema()).ok());
  TriggerId next = 1;
  std::set<OrgType> seen;
  // Unindexed, equality and range classes, two of them on the interpreter.
  const std::vector<int> shapes = {3, 9, 10, 14, 19, 22};
  for (int round = 0; round < 6; ++round) {
    InstallRestPredicates(&index, &rng, shapes, 12, &next);
    for (const auto& sig : index.source(1)->entries()) {
      seen.insert(sig->org_type());
    }
    ExpectAgreesWithInterpreter(index, RandomRestTuples(&rng, 48),
                                "round " + std::to_string(round));
  }
  EXPECT_TRUE(seen.count(OrgType::kMemoryList) > 0 &&
              seen.count(OrgType::kMemoryIndex) > 0 &&
              seen.count(OrgType::kDbIndexedTable) > 0);

  // Adaptive swap: rebuild each memory class offside in the other memory
  // organization and install it, as the re-optimizer does.
  int swapped = 0;
  for (const auto& sig : index.source(1)->entries()) {
    OrgType from = sig->org_type();
    if (from != OrgType::kMemoryList && from != OrgType::kMemoryIndex) {
      continue;
    }
    OrgType to = from == OrgType::kMemoryList ? OrgType::kMemoryIndex
                                              : OrgType::kMemoryList;
    std::vector<PredicateEntry> snapshot;
    ASSERT_TRUE(sig->SnapshotEntries(&snapshot).ok());
    auto fresh = sig->BuildOrganization(to, snapshot);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    ASSERT_TRUE(
        sig->InstallOrganization(std::move(*fresh), sig->version()).ok());
    ++swapped;
  }
  EXPECT_GT(swapped, 0);
  ExpectAgreesWithInterpreter(index, RandomRestTuples(&rng, 64),
                              "after adaptive swap");
}

// --- discrimination networks vs naive evaluation ----------------------------

/// Reference model for join firing semantics: plain live-tuple lists per
/// variable and, on arrival, brute-force enumeration of every combination
/// (arriving tuple fixed at its variable) evaluated against the *whole*
/// un-normalized condition. No networks, no CNF, no memo structures — if
/// A-TREAT disagrees with this, it is wrong.
class NaiveJoinReference {
 public:
  NaiveJoinReference(ExprPtr condition, std::vector<std::string> var_names,
                     std::vector<Schema> schemas)
      : condition_(std::move(condition)),
        var_names_(std::move(var_names)),
        schemas_(std::move(schemas)),
        live_(var_names_.size()) {}

  /// Firings caused by `t` arriving at `var`, as serialized bindings.
  std::multiset<std::string> Add(size_t var, const Tuple& t) {
    std::multiset<std::string> firings;
    std::vector<const Tuple*> combo(live_.size(), nullptr);
    combo[var] = &t;
    Enumerate(0, var, &combo, &firings);
    live_[var].push_back(t);
    return firings;
  }

  void Remove(size_t var, const Tuple& t) {
    std::string key = Encode({t});
    auto& list = live_[var];
    for (auto it = list.begin(); it != list.end(); ++it) {
      if (Encode({*it}) == key) {
        list.erase(it);
        return;
      }
    }
    ADD_FAILURE() << "reference asked to remove unknown tuple";
  }

  const std::vector<Tuple>& live(size_t var) const { return live_[var]; }

  static std::string Encode(const std::vector<Tuple>& bindings) {
    std::string out;
    for (const Tuple& t : bindings) t.Serialize(&out);
    return out;
  }

 private:
  void Enumerate(size_t var, size_t fixed, std::vector<const Tuple*>* combo,
                 std::multiset<std::string>* firings) {
    if (var == live_.size()) {
      Bindings b;
      for (size_t v = 0; v < live_.size(); ++v) {
        b.Bind(var_names_[v], &schemas_[v], (*combo)[v]);
      }
      auto pass = EvalPredicate(condition_, b);
      ASSERT_TRUE(pass.ok()) << pass.status().ToString();
      if (*pass) {
        std::vector<Tuple> bound;
        for (const Tuple* t : *combo) bound.push_back(*t);
        firings->insert(Encode(bound));
      }
      return;
    }
    if (var == fixed) {
      Enumerate(var + 1, fixed, combo, firings);
      return;
    }
    for (const Tuple& t : live_[var]) {
      (*combo)[var] = &t;
      Enumerate(var + 1, fixed, combo, firings);
    }
    (*combo)[var] = nullptr;
  }

  ExprPtr condition_;
  std::vector<std::string> var_names_;
  std::vector<Schema> schemas_;
  std::vector<std::vector<Tuple>> live_;
};

TEST(NetworkPropertyTest, ATreatMatchesNaiveReference) {
  // Random trigger sets (join conditions over 2-3 tuple variables) and
  // random token streams: the network must fire exactly the bindings the
  // naive evaluator derives, at every step. Each seed runs three ways:
  // every variable a stream (stored alpha memories), then one or two
  // variables backed by a MiniDB table (virtual alpha nodes), without and
  // with an index on the equijoin attribute. The harness plays the
  // predicate index: a tuple reaches its node (AddTuple, MatchJoins) only
  // when it passes the node's selection, while a table holds every row
  // and its virtual node filters on the fly.
  const std::vector<std::string> kNames = {"r", "s", "u"};
  const std::vector<Schema> kSchemas = {
      Schema({{"a", DataType::kInt}, {"b", DataType::kInt},
              {"k", DataType::kInt}}),
      Schema({{"a", DataType::kInt}, {"c", DataType::kInt},
              {"k", DataType::kInt}}),
      Schema({{"a", DataType::kInt}, {"d", DataType::kInt},
              {"k", DataType::kInt}}),
  };
  const std::vector<std::string> kTwoVarExtras = {
      "r.b > s.c", "r.b + s.c < 40", "not (r.b = s.c)"};
  const std::vector<std::string> kThreeVarExtras = {
      "r.b > s.c", "s.c <= u.d", "r.b + u.d > 20", "not (s.c = u.d)"};
  const std::vector<std::string> kSelections = {"r.b > 8", "s.c < 22",
                                                "u.d <> 5"};
  enum Mode { kStored, kVirtualScan, kVirtualIndexed };

  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Random rng(seed * 6151 + 3);
    size_t num_vars = rng.Bernoulli(0.5) ? 2 : 3;

    // Random trigger: equijoin chain on `a` plus random extra conjuncts,
    // and now and then a selection on one variable.
    std::string cond_text = "r.a = s.a";
    if (num_vars == 3) cond_text += " and s.a = u.a";
    const auto& extras = num_vars == 2 ? kTwoVarExtras : kThreeVarExtras;
    for (const std::string& extra : extras) {
      if (rng.Bernoulli(0.4)) cond_text += " and " + extra;
    }
    Random shape_rng(seed * 7919 + 5);
    for (size_t v = 0; v < num_vars; ++v) {
      if (shape_rng.Bernoulli(0.3)) cond_text += " and " + kSelections[v];
    }
    ExprPtr condition = MustParseLocal(cond_text);

    std::vector<std::string> names(kNames.begin(), kNames.begin() + num_vars);
    std::vector<Schema> schemas(kSchemas.begin(),
                                kSchemas.begin() + num_vars);
    // Which variables a table backs in the virtual modes: one or two.
    std::vector<bool> table_backed(num_vars, false);
    size_t num_tables = 1 + shape_rng.Uniform(2);
    while (num_tables > 0) {
      size_t v = shape_rng.Uniform(num_vars);
      if (!table_backed[v]) {
        table_backed[v] = true;
        --num_tables;
      }
    }

    for (Mode mode : {kStored, kVirtualScan, kVirtualIndexed}) {
      std::string tables;
      for (size_t v = 0; v < num_vars; ++v) {
        if (mode != kStored && table_backed[v]) tables += " " + names[v];
      }
      SCOPED_TRACE("condition: " + cond_text + "; mode " +
                   std::to_string(mode) + "; tables:" + tables +
                   "; reproducing seed: " + std::to_string(seed));

      Database db;
      std::vector<TupleVarInfo> vars;
      std::vector<bool> is_table(num_vars, false);
      for (size_t v = 0; v < num_vars; ++v) {
        std::string source = "tbl_" + names[v];
        vars.push_back({names[v], source, static_cast<DataSourceId>(21 + v),
                        OpCode::kInsertOrUpdate});
        if (mode == kStored || !table_backed[v]) continue;
        is_table[v] = true;
        ASSERT_TRUE(db.CreateTable(source, schemas[v]).ok());
        if (mode == kVirtualIndexed) {
          ASSERT_TRUE(db.CreateIndex("idx_" + names[v], source, {"a"}).ok());
        }
      }
      auto cnf = ToCnf(condition);
      ASSERT_TRUE(cnf.ok());
      auto graph = ConditionGraph::Build(vars, *cnf);
      ASSERT_TRUE(graph.ok()) << graph.status().ToString();
      auto atreat =
          ATreatNetwork::Build(*graph, &db, schemas,
                               ATreatNetwork::PrivateMemories(*graph, &db));
      ASSERT_TRUE(atreat.ok()) << atreat.status().ToString();
      for (size_t v = 0; v < num_vars; ++v) {
        ASSERT_EQ((*atreat)->node_stored(static_cast<NetworkNodeId>(v)),
                  !is_table[v]);
      }
      // What the predicate index would decide for a tuple at `var`.
      auto passes_selection = [&](size_t var, const Tuple& t) {
        ExprPtr selection = graph->nodes()[var].SelectionPredicate();
        if (selection == nullptr) return true;
        Bindings b;
        b.Bind(names[var], &schemas[var], &t);
        auto pass = EvalPredicate(selection, b);
        EXPECT_TRUE(pass.ok()) << pass.status().ToString();
        return pass.ok() && *pass;
      };

      NaiveJoinReference reference(condition, names, schemas);
      std::map<int64_t, Rid> rids;  // table rows by serial
      Random steps(seed * 104729 + mode);
      int serial = 0;  // unique per tuple: removal is unambiguous
      for (int step = 0; step < 120; ++step) {
        size_t var = steps.Uniform(num_vars);
        const NetworkNodeId node = static_cast<NetworkNodeId>(var);
        bool add = reference.live(var).empty() || steps.Bernoulli(0.65);
        if (add) {
          Tuple t({Value::Int(steps.UniformRange(0, 5)),
                   Value::Int(steps.UniformRange(0, 30)),
                   Value::Int(serial++)});
          std::multiset<std::string> expected = reference.Add(var, t);
          if (::testing::Test::HasFatalFailure()) return;
          if (is_table[var]) {
            auto rid = db.Insert(vars[var].source_name, t);
            ASSERT_TRUE(rid.ok()) << rid.status().ToString();
            rids[t.at(2).as_int()] = *rid;
          }
          std::multiset<std::string> firings;
          if (passes_selection(var, t)) {
            ASSERT_TRUE((*atreat)->AddTuple(node, t).ok());
            ASSERT_TRUE((*atreat)
                            ->MatchJoins(node, t,
                                         [&](const Tuple* const* b) {
                                           std::vector<Tuple> row;
                                           for (size_t v = 0; v < num_vars;
                                                ++v) {
                                             row.push_back(*b[v]);
                                           }
                                           firings.insert(
                                               NaiveJoinReference::Encode(row));
                                         })
                            .ok());
          }
          ASSERT_EQ(firings, expected) << "A-TREAT diverged at step " << step;
        } else {
          size_t pick = steps.Uniform(reference.live(var).size());
          Tuple t = reference.live(var)[pick];
          reference.Remove(var, t);
          if (is_table[var]) {
            auto it = rids.find(t.at(2).as_int());
            ASSERT_NE(it, rids.end());
            ASSERT_TRUE(db.Delete(vars[var].source_name, it->second).ok());
            rids.erase(it);
          }
          if (passes_selection(var, t)) {
            ASSERT_TRUE((*atreat)->RemoveTuple(node, t).ok());
          }
        }
      }
      // Stored memories hold exactly the live tuples that pass their
      // node's selection; virtual nodes hold nothing.
      for (size_t v = 0; v < num_vars; ++v) {
        size_t passing = 0;
        for (const Tuple& t : reference.live(v)) {
          if (passes_selection(v, t)) ++passing;
        }
        EXPECT_EQ((*atreat)->memory_size(static_cast<NetworkNodeId>(v)),
                  is_table[v] ? 0u : passing);
      }
    }
  }
}

// --- parser/printer round trip ----------------------------------------------

TEST(ParserPropertyTest, ToStringReparsesEquivalently) {
  Random rng(2718);
  Schema schema = TestSchema();
  for (int round = 0; round < 300; ++round) {
    ExprPtr e = RandomPredicate(&rng, 3);
    std::string text = ExprToString(e);
    auto reparsed = ParseExpressionString(text);
    ASSERT_TRUE(reparsed.ok()) << text;
    ASSERT_TRUE(ExprEquals(e, *reparsed))
        << text << " vs " << ExprToString(*reparsed);
  }
}

}  // namespace
}  // namespace tman

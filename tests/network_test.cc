#include <gtest/gtest.h>

#include <set>

#include "network/atreat.h"
#include "parser/parser.h"

namespace tman {
namespace {

ExprPtr Parse(const std::string& text) {
  auto r = ParseExpressionString(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return *r;
}

/// Visits the rows of `mem` with seq >= `since`; `fn` returning false
/// stops.
template <typename Fn>
void ForEach(const AlphaMemory& mem, Fn fn, uint64_t since = 0) {
  RowSnapshot rows;
  mem.Snapshot(since, &rows);
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!fn(rows[i].tuple)) return;
  }
}

/// Visits the rows of `mem` with seq >= `since` whose `field` equals
/// `value`.
template <typename Fn>
void ProbeEqual(const AlphaMemory& mem, size_t field, const Value& value,
                Fn fn, uint64_t since = 0) {
  RowSnapshot rows;
  mem.SnapshotEqual(field, value, since, &rows);
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!fn(rows[i].tuple)) return;
  }
}

TEST(AlphaMemoryTest, InsertRemoveForEach) {
  AlphaMemory mem;
  Tuple a({Value::Int(1), Value::String("a")});
  Tuple b({Value::Int(2), Value::String("b")});
  mem.Insert(a);
  mem.Insert(b);
  EXPECT_EQ(mem.size(), 2u);
  EXPECT_TRUE(mem.Remove(a));
  EXPECT_FALSE(mem.Remove(a));
  EXPECT_EQ(mem.size(), 1u);
  int count = 0;
  ForEach(mem, [&](const Tuple& t) {
    EXPECT_EQ(t, b);
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1);
}

TEST(AlphaMemoryTest, DuplicateTuplesCounted) {
  AlphaMemory mem;
  Tuple a({Value::Int(1)});
  mem.Insert(a);
  mem.Insert(a);
  EXPECT_EQ(mem.size(), 2u);
  EXPECT_TRUE(mem.Remove(a));
  EXPECT_EQ(mem.size(), 1u);
  EXPECT_TRUE(mem.Remove(a));
  EXPECT_EQ(mem.size(), 0u);
}

TEST(AlphaMemoryTest, ProbeEqualUsesIndex) {
  AlphaMemory mem;
  for (int64_t i = 0; i < 100; ++i) {
    mem.Insert(Tuple({Value::Int(i % 10), Value::Int(i)}));
  }
  std::set<int64_t> seen;
  ProbeEqual(mem, 0, Value::Int(3), [&](const Tuple& t) {
    seen.insert(t.at(1).as_int());
    return true;
  });
  EXPECT_EQ(seen.size(), 10u);
  for (int64_t v : seen) EXPECT_EQ(v % 10, 3);
  // Index stays correct after removals.
  EXPECT_TRUE(mem.Remove(Tuple({Value::Int(3), Value::Int(3)})));
  seen.clear();
  ProbeEqual(mem, 0, Value::Int(3), [&](const Tuple& t) {
    seen.insert(t.at(1).as_int());
    return true;
  });
  EXPECT_EQ(seen.size(), 9u);
}

TEST(AlphaMemoryTest, ProbeIndexesSurviveRemoveAndSlotReuse) {
  AlphaMemory mem;
  // Build per-field indexes on two fields before any churn.
  mem.Insert(Tuple({Value::Int(1), Value::String("a")}));
  mem.Insert(Tuple({Value::Int(2), Value::String("b")}));
  mem.Insert(Tuple({Value::Int(3), Value::String("c")}));
  ProbeEqual(mem, 0, Value::Int(1), [](const Tuple&) { return true; });
  ProbeEqual(mem, 1, Value::String("a"), [](const Tuple&) { return true; });

  // Churn: every removal frees a slot that the next insert reuses for a
  // tuple with different field values; both indexes must track the swaps.
  for (int64_t round = 0; round < 50; ++round) {
    int64_t old_key = 1 + (round % 3);
    std::string old_str(1, static_cast<char>('a' + (old_key - 1)));
    ASSERT_TRUE(
        mem.Remove(Tuple({Value::Int(old_key), Value::String(old_str)})))
        << "round " << round;
    mem.Insert(Tuple({Value::Int(old_key), Value::String(old_str)}));
  }
  EXPECT_EQ(mem.size(), 3u);

  for (int64_t k = 1; k <= 3; ++k) {
    std::string s(1, static_cast<char>('a' + (k - 1)));
    int hits = 0;
    ProbeEqual(mem, 0, Value::Int(k), [&](const Tuple& t) {
      EXPECT_EQ(t.at(1).as_string(), s);
      ++hits;
      return true;
    });
    EXPECT_EQ(hits, 1) << "int probe for " << k;
    hits = 0;
    ProbeEqual(mem, 1, Value::String(s), [&](const Tuple& t) {
      EXPECT_EQ(t.at(0).as_int(), k);
      ++hits;
      return true;
    });
    EXPECT_EQ(hits, 1) << "string probe for " << s;
  }

  // Reused slots must not resurrect the old values under either index.
  mem.Insert(Tuple({Value::Int(9), Value::String("z")}));
  ASSERT_TRUE(mem.Remove(Tuple({Value::Int(2), Value::String("b")})));
  mem.Insert(Tuple({Value::Int(7), Value::String("y")}));  // reuses b's slot
  int stale = 0;
  ProbeEqual(mem, 0, Value::Int(2), [&](const Tuple&) {
    ++stale;
    return true;
  });
  ProbeEqual(mem, 1, Value::String("b"), [&](const Tuple&) {
    ++stale;
    return true;
  });
  EXPECT_EQ(stale, 0);
  int fresh = 0;
  ProbeEqual(mem, 0, Value::Int(7), [&](const Tuple& t) {
    EXPECT_EQ(t.at(1).as_string(), "y");
    ++fresh;
    return true;
  });
  EXPECT_EQ(fresh, 1);
}

TEST(AlphaMemoryTest, ShortTuplesCoexistWithProbeIndexes) {
  AlphaMemory mem;
  mem.Insert(Tuple({Value::Int(1), Value::String("long")}));
  // Index on field 1 exists before the short tuple arrives.
  ProbeEqual(mem, 1, Value::String("long"), [](const Tuple&) { return true; });
  Tuple short_tuple({Value::Int(2)});
  mem.Insert(short_tuple);  // lacks field 1: stays out of that index
  int hits = 0;
  ProbeEqual(mem, 0, Value::Int(2), [&](const Tuple&) {
    ++hits;
    return true;
  });
  EXPECT_EQ(hits, 1);
  EXPECT_TRUE(mem.Remove(short_tuple));
  // The freed slot is reused by a full-width tuple; both indexes pick it up.
  mem.Insert(Tuple({Value::Int(5), Value::String("reborn")}));
  hits = 0;
  ProbeEqual(mem, 1, Value::String("reborn"), [&](const Tuple&) {
    ++hits;
    return true;
  });
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(mem.size(), 2u);
}

TEST(AlphaMemoryTest, LaterNodeSeesOnlyNewerRows) {
  AlphaMemory mem;
  Tuple a({Value::Int(1), Value::Int(10)});
  Tuple b({Value::Int(1), Value::Int(20)});
  mem.Insert(a);
  const uint64_t since = mem.next_seq();  // a node attaches here
  mem.Insert(b);
  EXPECT_EQ(mem.size(), 2u);
  EXPECT_EQ(mem.CountSince(0), 2u);
  EXPECT_EQ(mem.CountSince(since), 1u);
  std::vector<Tuple> seen;
  ForEach(mem, 
      [&](const Tuple& t) {
        seen.push_back(t);
        return true;
      },
      since);
  EXPECT_EQ(seen, std::vector<Tuple>{b});
  seen.clear();
  ProbeEqual(mem, 
      0, Value::Int(1),
      [&](const Tuple& t) {
        seen.push_back(t);
        return true;
      },
      since);
  EXPECT_EQ(seen, std::vector<Tuple>{b});
}

TEST(AlphaMemoryTest, RemoveTakesTheNewestEqualRow) {
  // An older node sees both copies of `a`, a node attached between them
  // only the second. One delete must leave each exactly what its private
  // memory would hold: one copy, and none.
  for (bool indexed : {false, true}) {
    AlphaMemory mem;
    if (indexed) mem.AddIndex(0);
    Tuple a({Value::Int(1), Value::Int(10)});
    mem.Insert(a);
    const uint64_t since = mem.next_seq();
    mem.Insert(Tuple({Value::Int(2), Value::Int(20)}));
    mem.Insert(a);
    ASSERT_TRUE(mem.Remove(a));
    EXPECT_EQ(mem.CountSince(0), 2u) << "indexed " << indexed;
    EXPECT_EQ(mem.CountSince(since), 1u) << "indexed " << indexed;
    int copies = 0;
    ProbeEqual(mem, 0, Value::Int(1), [&](const Tuple&) {
      ++copies;
      return true;
    }, since);
    EXPECT_EQ(copies, 0) << "indexed " << indexed;
  }
}

TEST(AlphaMemoryRegistryTest, OneMemoryPerSelection) {
  AlphaMemoryRegistry registry;
  AlphaMemoryKey cat3{1, 7, 0, {Value::Int(3)}};
  AlphaMemoryRef first = registry.Attach(cat3);
  EXPECT_EQ(first.since, 0u);
  first.memory->Insert(Tuple({Value::Int(3)}));
  AlphaMemoryRef second = registry.Attach(cat3);
  EXPECT_EQ(second.memory, first.memory);
  EXPECT_EQ(second.since, 1u);  // sees no row from before it attached

  // Another constant, constant type, signature, source or partition is
  // another memory.
  AlphaMemoryKey others[] = {{1, 7, 0, {Value::Int(4)}},
                             {1, 7, 0, {Value::Float(3)}},
                             {1, 8, 0, {Value::Int(3)}},
                             {2, 7, 0, {Value::Int(3)}},
                             {1, 7, 1, {Value::Int(3)}}};
  std::vector<AlphaMemoryRef> refs;
  for (const AlphaMemoryKey& key : others) {
    refs.push_back(registry.Attach(key));
    EXPECT_NE(refs.back().memory, first.memory);
  }
  AlphaMemoryStats st = registry.stats();
  EXPECT_EQ(st.memories, 6u);
  EXPECT_EQ(st.nodes, 7u);
  EXPECT_EQ(st.rows, 1u);

  registry.Detach(first);
  EXPECT_EQ(registry.stats().memories, 6u);
  registry.Detach(second);
  for (const AlphaMemoryRef& ref : refs) registry.Detach(ref);
  st = registry.stats();
  EXPECT_EQ(st.memories, 0u);
  EXPECT_EQ(st.nodes, 0u);
  // A later attach starts a fresh memory.
  AlphaMemoryRef fresh = registry.Attach(cat3);
  EXPECT_EQ(fresh.memory->size(), 0u);
  EXPECT_EQ(fresh.since, 0u);
}

TEST(AlphaMemoryTest, ProbeFindingNothingLeavesAnEmptySnapshot) {
  AlphaMemory mem;
  mem.AddIndex(0);
  for (int64_t i = 0; i < 20; ++i) mem.Insert(Tuple({Value::Int(i % 4)}));
  RowSnapshot none;
  mem.SnapshotEqual(0, Value::Int(9), 0, &none);
  EXPECT_EQ(none.size(), 0u);
  RowSnapshot many;  // more rows than the inline slots
  mem.Snapshot(0, &many);
  ASSERT_EQ(many.size(), 20u);
  for (size_t i = 0; i < many.size(); ++i) {
    EXPECT_EQ(many[i].tuple.at(0).as_int(), static_cast<int64_t>(i % 4));
  }
}

// --- A-TREAT network ---------------------------------------------------------

class ATreatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    // Real-estate schema from the paper §2.
    ASSERT_TRUE(db_->CreateTable("salesperson",
                                 Schema({{"spno", DataType::kInt},
                                         {"name", DataType::kVarchar},
                                         {"phone", DataType::kVarchar}}))
                    .ok());
    ASSERT_TRUE(db_->CreateTable("house",
                                 Schema({{"hno", DataType::kInt},
                                         {"address", DataType::kVarchar},
                                         {"price", DataType::kFloat},
                                         {"nno", DataType::kInt},
                                         {"spno", DataType::kInt}}))
                    .ok());
    ASSERT_TRUE(db_->CreateTable("represents",
                                 Schema({{"spno", DataType::kInt},
                                         {"nno", DataType::kInt}}))
                    .ok());
    // Iris (spno 1) represents neighborhoods 10 and 11; Sam (2) reps 12.
    Insert("salesperson", {Value::Int(1), Value::String("Iris"),
                           Value::String("555")});
    Insert("salesperson", {Value::Int(2), Value::String("Sam"),
                           Value::String("556")});
    Insert("represents", {Value::Int(1), Value::Int(10)});
    Insert("represents", {Value::Int(1), Value::Int(11)});
    Insert("represents", {Value::Int(2), Value::Int(12)});
  }

  void Insert(const std::string& table, std::vector<Value> values) {
    ASSERT_TRUE(db_->Insert(table, Tuple(std::move(values))).ok());
  }

  Result<ConditionGraph> IrisGraph() {
    std::vector<TupleVarInfo> vars = {
        {"s", "salesperson", 1, OpCode::kInsertOrUpdate},
        {"h", "house", 2, OpCode::kInsert},
        {"r", "represents", 3, OpCode::kInsertOrUpdate},
    };
    auto cnf =
        ToCnf(Parse("s.name = 'Iris' and s.spno = r.spno and r.nno = h.nno"));
    if (!cnf.ok()) return cnf.status();
    return ConditionGraph::Build(vars, *cnf);
  }

  Tuple House(int64_t hno, const std::string& addr, double price,
              int64_t nno, int64_t spno) {
    return Tuple({Value::Int(hno), Value::String(addr), Value::Float(price),
                  Value::Int(nno), Value::Int(spno)});
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ATreatTest, VirtualNodesForLocalTables) {
  auto graph = IrisGraph();
  ASSERT_TRUE(graph.ok());
  auto net = ATreatNetwork::Build(*graph, db_.get());
  ASSERT_TRUE(net.ok());
  // All three sources are local tables -> virtual alpha nodes (A-TREAT).
  EXPECT_FALSE((*net)->node_stored(0));
  EXPECT_FALSE((*net)->node_stored(1));
  EXPECT_FALSE((*net)->node_stored(2));
}

TEST_F(ATreatTest, JoinFiresForMatchingHouse) {
  auto graph = IrisGraph();
  ASSERT_TRUE(graph.ok());
  auto net = ATreatNetwork::Build(*graph, db_.get());
  ASSERT_TRUE(net.ok());

  // New house in neighborhood 10 (Iris's): token arrives at node h (1).
  int firings = 0;
  ASSERT_TRUE((*net)
                  ->MatchJoins(1, House(100, "12 Oak St", 250000, 10, 2),
                               [&](const Tuple* const* bindings) {
                                 ++firings;
                                 EXPECT_EQ(bindings[0]->at(1).as_string(),
                                           "Iris");
                                 EXPECT_EQ(bindings[1]->at(0).as_int(), 100);
                                 EXPECT_EQ(bindings[2]->at(1).as_int(), 10);
                               })
                  .ok());
  EXPECT_EQ(firings, 1);

  // House in neighborhood 12 (Sam's): selection s.name='Iris' fails.
  firings = 0;
  ASSERT_TRUE((*net)
                  ->MatchJoins(1, House(101, "9 Elm", 100000, 12, 2),
                               [&](const Tuple* const*) { ++firings; })
                  .ok());
  EXPECT_EQ(firings, 0);

  // Unknown neighborhood: join on represents fails.
  firings = 0;
  ASSERT_TRUE((*net)
                  ->MatchJoins(1, House(102, "1 Pine", 50000, 99, 1),
                               [&](const Tuple* const*) { ++firings; })
                  .ok());
  EXPECT_EQ(firings, 0);
}

TEST_F(ATreatTest, MultipleJoinCombinations) {
  // Iris represents two neighborhoods; a token arriving at s joins with
  // every (r, h) pair that matches.
  Insert("house", {Value::Int(1), Value::String("a"), Value::Float(1),
                   Value::Int(10), Value::Int(1)});
  Insert("house", {Value::Int(2), Value::String("b"), Value::Float(2),
                   Value::Int(11), Value::Int(1)});
  Insert("house", {Value::Int(3), Value::String("c"), Value::Float(3),
                   Value::Int(12), Value::Int(2)});
  auto graph = IrisGraph();
  ASSERT_TRUE(graph.ok());
  auto net = ATreatNetwork::Build(*graph, db_.get());
  ASSERT_TRUE(net.ok());
  int firings = 0;
  ASSERT_TRUE((*net)
                  ->MatchJoins(0,
                               Tuple({Value::Int(1), Value::String("Iris"),
                                      Value::String("555")}),
                               [&](const Tuple* const*) { ++firings; })
                  .ok());
  EXPECT_EQ(firings, 2);  // houses 1 and 2, not Sam's house 3
}

TEST_F(ATreatTest, SingleVariableTriggerFiresDirectly) {
  std::vector<TupleVarInfo> vars = {
      {"h", "house", 2, OpCode::kInsert},
  };
  auto cnf = ToCnf(Parse("h.price < 100000"));
  ASSERT_TRUE(cnf.ok());
  auto graph = ConditionGraph::Build(vars, *cnf);
  ASSERT_TRUE(graph.ok());
  auto net = ATreatNetwork::Build(*graph, db_.get());
  ASSERT_TRUE(net.ok());
  int firings = 0;
  ASSERT_TRUE((*net)
                  ->MatchJoins(0, House(7, "x", 50000, 1, 1),
                               [&](const Tuple* const* b) {
                                 ++firings;
                                 EXPECT_EQ(b[0]->at(0).as_int(), 7);
                               })
                  .ok());
  EXPECT_EQ(firings, 1);
}

TEST_F(ATreatTest, CatchAllConjunctFiltersFirings) {
  std::vector<TupleVarInfo> vars = {
      {"s", "salesperson", 1, OpCode::kInsertOrUpdate},
      {"h", "house", 2, OpCode::kInsert},
      {"r", "represents", 3, OpCode::kInsertOrUpdate},
  };
  // Hyper-join conjunct (3 vars) lands on the catch-all list.
  auto cnf = ToCnf(Parse(
      "s.spno = r.spno and r.nno = h.nno and s.spno + r.nno > h.hno"));
  ASSERT_TRUE(cnf.ok());
  auto graph = ConditionGraph::Build(vars, *cnf);
  ASSERT_TRUE(graph.ok());
  ASSERT_EQ(graph->catch_all().size(), 1u);
  auto net = ATreatNetwork::Build(*graph, db_.get());
  ASSERT_TRUE(net.ok());
  // House 100 in nno 10: s.spno(1) + r.nno(10) = 11 > hno must hold.
  int firings = 0;
  ASSERT_TRUE((*net)
                  ->MatchJoins(1, House(5, "x", 1, 10, 1),
                               [&](const Tuple* const*) { ++firings; })
                  .ok());
  EXPECT_EQ(firings, 1);  // 11 > 5
  firings = 0;
  ASSERT_TRUE((*net)
                  ->MatchJoins(1, House(50, "x", 1, 10, 1),
                               [&](const Tuple* const*) { ++firings; })
                  .ok());
  EXPECT_EQ(firings, 0);  // 11 > 50 fails
}

TEST_F(ATreatTest, JoinErrorSurfacesFromMatchJoins) {
  // Stream sources (no database): stored memories. The second conjunct
  // references both variables, so it is a join conjunct, and it divides
  // by zero against every stored partner.
  std::vector<TupleVarInfo> vars = {
      {"a", "as", 21, OpCode::kInsertOrUpdate},
      {"b", "bs", 22, OpCode::kInsertOrUpdate},
  };
  std::vector<Schema> schemas = {
      Schema({{"k", DataType::kInt}}),
      Schema({{"k", DataType::kInt}, {"d", DataType::kInt}}),
  };
  auto cnf = ToCnf(Parse("a.k = b.k and 10 / (b.d - a.k) > 0"));
  ASSERT_TRUE(cnf.ok());
  auto graph = ConditionGraph::Build(vars, *cnf);
  ASSERT_TRUE(graph.ok());
  auto net = ATreatNetwork::Build(
      *graph, nullptr, schemas, ATreatNetwork::PrivateMemories(*graph, nullptr));
  ASSERT_TRUE(net.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE((*net)->AddTuple(0, Tuple({Value::Int(1)})).ok());
  }
  Tuple arriving({Value::Int(1), Value::Int(1)});
  ASSERT_TRUE((*net)->AddTuple(1, arriving).ok());
  int firings = 0;
  Status s = (*net)->MatchJoins(
      1, arriving, [&](const Tuple* const*) { ++firings; });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "integer division by zero");
  EXPECT_EQ(firings, 0);
}

TEST_F(ATreatTest, DisconnectedVariableMakesCartesianProduct) {
  std::vector<TupleVarInfo> vars = {
      {"h", "house", 2, OpCode::kInsert},
      {"s", "salesperson", 1, OpCode::kInsertOrUpdate},
  };
  auto graph = ConditionGraph::Build(vars, {});  // no condition at all
  ASSERT_TRUE(graph.ok());
  auto net = ATreatNetwork::Build(*graph, db_.get());
  ASSERT_TRUE(net.ok());
  int firings = 0;
  ASSERT_TRUE((*net)
                  ->MatchJoins(0, House(1, "x", 1, 1, 1),
                               [&](const Tuple* const*) { ++firings; })
                  .ok());
  EXPECT_EQ(firings, 2);  // two salespersons
}

}  // namespace
}  // namespace tman

// Differential test of shared stored alpha memories: the engine keeps one
// memory per distinct join selection, attached to by every stored node
// with that selection, and must fire exactly what per-trigger private
// memories would. The reference below keeps one private memory per
// trigger node, created empty with the trigger, and evaluates every
// selection and join by brute force.
//
// Token chunks are built so that no two tokens of one chunk can join
// (one source per chunk, distinct join keys), so the firing multiset does
// not depend on how the engine orders tokens within a chunk, batches
// them, or spreads them over condition partitions and drivers.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/trigger_manager.h"
#include "util/random.h"

namespace tman {
namespace {

constexpr int kSources = 3;
constexpr int64_t kKeys = 10;
const char* const kSourceNames[kSources] = {"sa", "sb", "sc"};

struct Row {
  int64_t id = 0, k = 0, cat = 0, v = 0;
  bool operator==(const Row& o) const {
    return id == o.id && k == o.k && cat == o.cat && v == o.v;
  }
  Tuple ToTuple() const {
    return Tuple({Value::Int(id), Value::Int(k), Value::Int(cat),
                  Value::Int(v)});
  }
};

/// A node's selection: none, `var.cat = c`, or `var.v > c`.
struct Sel {
  enum Kind { kNone, kCatEq, kVGt } kind = kNone;
  int64_t c = 0;

  bool Pass(const Row& r) const {
    switch (kind) {
      case kNone:
        return true;
      case kCatEq:
        return r.cat == c;
      case kVGt:
        return r.v > c;
    }
    return false;
  }
  std::string Sql(const std::string& var) const {
    if (kind == kCatEq) return var + ".cat = " + std::to_string(c);
    if (kind == kVGt) return var + ".v > " + std::to_string(c);
    return "";
  }
};

struct NodeSpec {
  int source = 0;
  std::string var;
  Sel sel;
};

/// A join trigger (consecutive nodes joined on k, optionally
/// `n0.v > n1.v`; a self-join also needs `n0.id < n1.id`) or the one
/// aggregate (`count(id) >= 2` per k over its node's selection).
struct TriggerSpec {
  std::string name;
  bool aggregate = false;
  std::vector<NodeSpec> nodes;
  bool v_gt = false;
  bool id_lt = false;

  std::string Sql() const {
    std::string from, when;
    for (const NodeSpec& n : nodes) {
      if (!from.empty()) from += ", ";
      from += std::string(kSourceNames[n.source]) + " " + n.var;
    }
    auto conj = [&when](const std::string& c) {
      if (c.empty()) return;
      when += when.empty() ? c : " and " + c;
    };
    for (size_t i = 0; i + 1 < nodes.size(); ++i) {
      conj(nodes[i].var + ".k = " + nodes[i + 1].var + ".k");
    }
    for (const NodeSpec& n : nodes) conj(n.sel.Sql(n.var));
    if (v_gt) conj(nodes[0].var + ".v > " + nodes[1].var + ".v");
    if (id_lt) conj(nodes[0].var + ".id < " + nodes[1].var + ".id");
    std::string text = "create trigger " + name + " from " + from;
    if (!when.empty()) text += " when " + when;
    const std::string& g = nodes[0].var;
    if (aggregate) {
      return text + " group by " + g + ".k having count(" + g +
             ".id) >= 2 do raise event A('" + name + "', " + g + ".k, count(" +
             g + ".id))";
    }
    std::string args = "'" + name + "'";
    for (const NodeSpec& n : nodes) args += ", " + n.var + ".id";
    return text + " do raise event J(" + args + ")";
  }

  bool Joins(const std::vector<const Row*>& combo) const {
    for (size_t i = 0; i + 1 < combo.size(); ++i) {
      if (combo[i]->k != combo[i + 1]->k) return false;
    }
    if (v_gt && !(combo[0]->v > combo[1]->v)) return false;
    if (id_lt && !(combo[0]->id < combo[1]->id)) return false;
    return true;
  }
};

struct TokenSpec {
  OpCode op = OpCode::kInsert;
  std::optional<Row> old_row, new_row;
};

struct Step {
  enum Kind { kCreate, kDrop, kTokens } kind = kTokens;
  size_t trigger = 0;  // index into Script::triggers
  int source = 0;
  std::vector<TokenSpec> tokens;
};

struct Script {
  std::vector<TriggerSpec> triggers;
  std::vector<Step> steps;
};

// --- generator ------------------------------------------------------------

Sel RandomSel(Random* rng) {
  Sel sel;
  uint64_t pick = rng->Uniform(10);
  if (pick < 3) return sel;
  if (pick < 8) {
    sel.kind = Sel::kCatEq;
    sel.c = rng->UniformRange(0, 2);
  } else {
    sel.kind = Sel::kVGt;
    sel.c = rng->UniformRange(0, 3);
  }
  return sel;
}

TriggerSpec RandomTrigger(Random* rng, int number) {
  static const char* const kVars[] = {"x", "y", "z", "p", "q", "u", "w"};
  TriggerSpec t;
  t.name = "t" + std::to_string(number);
  std::vector<std::string> vars;
  while (vars.size() < 3) {
    std::string v = kVars[rng->Uniform(7)];
    bool dup = false;
    for (const std::string& w : vars) dup = dup || w == v;
    if (!dup) vars.push_back(v);
  }
  uint64_t shape = rng->Uniform(20);
  std::vector<int> sources;
  if (shape < 11) {  // two sources, in either order
    int a = static_cast<int>(rng->Uniform(kSources));
    int b = (a + 1 + static_cast<int>(rng->Uniform(kSources - 1))) % kSources;
    sources = {a, b};
    t.v_gt = rng->Bernoulli(0.3);
  } else if (shape < 15) {  // all three, in a random order
    sources = {0, 1, 2};
    for (size_t i = 2; i > 0; --i) {
      std::swap(sources[i], sources[rng->Uniform(i + 1)]);
    }
  } else {  // self-join
    int s = static_cast<int>(rng->Uniform(kSources));
    sources = {s, s};
    t.id_lt = true;
  }
  for (size_t i = 0; i < sources.size(); ++i) {
    t.nodes.push_back({sources[i], vars[i], RandomSel(rng)});
  }
  return t;
}

Script Generate(uint64_t seed) {
  Random rng(seed);
  Script script;
  auto create = [&](TriggerSpec spec) {
    Step step;
    step.kind = Step::kCreate;
    step.trigger = script.triggers.size();
    script.triggers.push_back(std::move(spec));
    script.steps.push_back(step);
  };
  TriggerSpec agg;
  agg.name = "agg";
  agg.aggregate = true;
  agg.nodes.push_back({1, "g", Sel{Sel::kCatEq, 1}});
  create(agg);
  // Many triggers per selection: the first ones repeat a few shapes.
  for (int i = 0; i < 10; ++i) {
    TriggerSpec t = RandomTrigger(&rng, static_cast<int>(script.triggers.size()));
    if (i % 2 == 1) {
      // Same selections as an earlier trigger, other variable names.
      TriggerSpec twin = script.triggers[script.triggers.size() - 1];
      if (!twin.aggregate) {
        twin.name = t.name;
        for (NodeSpec& n : twin.nodes) n.var = n.var + "2";
        t = twin;
      }
    }
    create(std::move(t));
  }

  std::vector<std::vector<Row>> live(kSources);
  std::vector<size_t> live_triggers;
  for (size_t i = 1; i < script.triggers.size(); ++i) live_triggers.push_back(i);
  int64_t next_id = 1;
  for (int step = 0; step < 90; ++step) {
    uint64_t pick = rng.Uniform(100);
    if (pick < 12) {
      TriggerSpec t = RandomTrigger(&rng, static_cast<int>(script.triggers.size()));
      if (rng.Bernoulli(0.5) && !live_triggers.empty()) {
        // Share the selections of a live trigger.
        TriggerSpec twin =
            script.triggers[live_triggers[rng.Uniform(live_triggers.size())]];
        twin.name = t.name;
        for (NodeSpec& n : twin.nodes) n.var = n.var + "n";
        t = twin;
      }
      live_triggers.push_back(script.triggers.size());
      create(std::move(t));
      continue;
    }
    if (pick < 17 && live_triggers.size() > 4) {
      size_t at = rng.Uniform(live_triggers.size());
      Step drop;
      drop.kind = Step::kDrop;
      drop.trigger = live_triggers[at];
      live_triggers.erase(live_triggers.begin() + static_cast<long>(at));
      script.steps.push_back(drop);
      continue;
    }
    Step chunk;
    chunk.source = static_cast<int>(rng.Uniform(kSources));
    std::vector<Row>& rows = live[chunk.source];
    std::set<int64_t> used;  // join keys already in this chunk
    size_t n = 1 + rng.Uniform(8);
    for (size_t i = 0; i < n; ++i) {
      int64_t k = rng.UniformRange(0, kKeys - 1);
      if (!used.insert(k).second) continue;
      std::vector<size_t> with_k;
      for (size_t r = 0; r < rows.size(); ++r) {
        if (rows[r].k == k) with_k.push_back(r);
      }
      TokenSpec token;
      uint64_t op = with_k.empty() ? 0 : rng.Uniform(10);
      if (op < 4) {
        token.op = OpCode::kInsert;
        token.new_row = Row{next_id++, k, rng.UniformRange(0, 2),
                            rng.UniformRange(0, 4)};
        rows.push_back(*token.new_row);
      } else if (op < 6) {  // a duplicate of a live row
        token.op = OpCode::kInsert;
        token.new_row = rows[with_k[rng.Uniform(with_k.size())]];
        rows.push_back(*token.new_row);
      } else {
        size_t at = with_k[rng.Uniform(with_k.size())];
        token.old_row = rows[at];
        rows.erase(rows.begin() + static_cast<long>(at));
        if (op < 8) {
          token.op = OpCode::kUpdate;
          token.new_row = Row{token.old_row->id, k, rng.UniformRange(0, 2),
                              rng.UniformRange(0, 4)};
          rows.push_back(*token.new_row);
        } else {
          token.op = OpCode::kDelete;
        }
      }
      chunk.tokens.push_back(token);
    }
    script.steps.push_back(std::move(chunk));
  }
  return script;
}

std::string JoinEvent(const TriggerSpec& t, const std::vector<const Row*>& c) {
  std::string out = "J " + t.name;
  for (const Row* r : c) out += " " + std::to_string(r->id);
  return out;
}

// --- reference: one private memory per trigger node -----------------------

std::multiset<std::string> RunReference(const Script& script) {
  struct Live {
    const TriggerSpec* spec;
    std::vector<std::vector<Row>> memories;  // per node
    std::map<int64_t, std::pair<int64_t, bool>> groups;  // k -> (count, true)
  };
  std::vector<std::optional<Live>> triggers(script.triggers.size());
  std::multiset<std::string> fired;

  auto maintain = [&](Live& t, int source, const Row& row, bool add) {
    if (t.spec->aggregate) {
      const NodeSpec& n = t.spec->nodes[0];
      if (n.source != source || !n.sel.Pass(row)) return;
      auto it = t.groups.find(row.k);
      if (it == t.groups.end()) {
        if (!add) return;
        it = t.groups.emplace(row.k, std::make_pair(0, false)).first;
      }
      auto& [count, was_true] = it->second;
      count += add ? 1 : -1;
      bool now = count >= 2;
      if (now && !was_true) {
        fired.insert("A " + t.spec->name + " " + std::to_string(row.k) + " " +
                     std::to_string(count));
      }
      was_true = now;
      if (count == 0 && !was_true) t.groups.erase(it);
      return;
    }
    for (size_t i = 0; i < t.spec->nodes.size(); ++i) {
      const NodeSpec& n = t.spec->nodes[i];
      if (n.source != source || !n.sel.Pass(row)) continue;
      std::vector<Row>& mem = t.memories[i];
      if (add) {
        mem.push_back(row);
      } else {
        for (auto it = mem.begin(); it != mem.end(); ++it) {
          if (*it == row) {
            mem.erase(it);
            break;
          }
        }
      }
    }
  };

  auto fire = [&](const Live& t, int source, const Row& row) {
    if (t.spec->aggregate) return;
    const size_t n = t.spec->nodes.size();
    for (size_t arrival = 0; arrival < n; ++arrival) {
      const NodeSpec& node = t.spec->nodes[arrival];
      if (node.source != source || !node.sel.Pass(row)) continue;
      std::vector<const Row*> combo(n, nullptr);
      combo[arrival] = &row;
      std::function<void(size_t)> rec = [&](size_t i) {
        if (i == n) {
          if (t.spec->Joins(combo)) fired.insert(JoinEvent(*t.spec, combo));
          return;
        }
        if (i == arrival) return rec(i + 1);
        for (const Row& r : t.memories[i]) {
          combo[i] = &r;
          rec(i + 1);
        }
        combo[i] = nullptr;
      };
      rec(0);
    }
  };

  for (const Step& step : script.steps) {
    if (step.kind == Step::kCreate) {
      const TriggerSpec& spec = script.triggers[step.trigger];
      triggers[step.trigger] =
          Live{&spec, std::vector<std::vector<Row>>(spec.nodes.size()), {}};
      continue;
    }
    if (step.kind == Step::kDrop) {
      triggers[step.trigger].reset();
      continue;
    }
    for (const TokenSpec& token : step.tokens) {
      for (auto& t : triggers) {
        if (!t.has_value()) continue;
        if (token.old_row.has_value()) {
          maintain(*t, step.source, *token.old_row, false);
        }
        if (token.new_row.has_value()) {
          maintain(*t, step.source, *token.new_row, true);
        }
      }
      if (token.op == OpCode::kDelete) continue;  // fires insert/update only
      for (const auto& t : triggers) {
        if (t.has_value()) fire(*t, step.source, *token.new_row);
      }
    }
  }
  return fired;
}

// --- the engine -------------------------------------------------------------

struct EngineConfig {
  size_t cache_capacity = TriggerManagerOptions().trigger_cache_capacity;
  uint32_t partitions = 1;
  uint32_t batch_size = 1;
  bool pool = false;  // Start()ed driver pool instead of ProcessPending

  std::string ToString() const {
    return "cache=" + std::to_string(cache_capacity) +
           " partitions=" + std::to_string(partitions) +
           " batch=" + std::to_string(batch_size) +
           (pool ? " pool" : " pending");
  }
};

std::multiset<std::string> RunEngine(const Script& script,
                                     const EngineConfig& config,
                                     AlphaMemoryStats* alpha = nullptr) {
  Database db;
  TriggerManagerOptions options;
  options.persistent_queue = false;
  options.trigger_cache_capacity = config.cache_capacity;
  options.condition_partitions = config.partitions;
  options.batch_size = config.batch_size;
  options.driver_config.num_drivers = 4;
  TriggerManager tman(&db, options);
  EXPECT_TRUE(tman.Open().ok());
  Schema schema({{"id", DataType::kInt},
                 {"k", DataType::kInt},
                 {"cat", DataType::kInt},
                 {"v", DataType::kInt}});
  DataSourceId ids[kSources];
  for (int s = 0; s < kSources; ++s) {
    auto id = tman.DefineStreamSource(kSourceNames[s], schema);
    EXPECT_TRUE(id.ok());
    ids[s] = *id;
  }
  std::mutex mutex;
  std::multiset<std::string> fired;
  tman.events().Register("*", [&](const Event& e) {
    std::string out = e.name;
    for (const Value& v : e.args) {
      out += " " + (v.type() == DataType::kVarchar ? v.as_string()
                                                    : std::to_string(v.as_int()));
    }
    std::lock_guard<std::mutex> lock(mutex);
    fired.insert(out);
  });
  if (config.pool) EXPECT_TRUE(tman.Start().ok());
  for (const Step& step : script.steps) {
    if (step.kind == Step::kCreate) {
      auto r = tman.ExecuteCommand(script.triggers[step.trigger].Sql());
      EXPECT_TRUE(r.ok()) << script.triggers[step.trigger].Sql() << ": "
                          << r.status().ToString();
      continue;
    }
    if (step.kind == Step::kDrop) {
      EXPECT_TRUE(
          tman.DropTrigger(script.triggers[step.trigger].name).ok());
      continue;
    }
    std::vector<UpdateDescriptor> batch;
    const DataSourceId ds = ids[step.source];
    for (const TokenSpec& t : step.tokens) {
      if (t.op == OpCode::kInsert) {
        batch.push_back(UpdateDescriptor::Insert(ds, t.new_row->ToTuple()));
      } else if (t.op == OpCode::kUpdate) {
        batch.push_back(UpdateDescriptor::Update(ds, t.old_row->ToTuple(),
                                                 t.new_row->ToTuple()));
      } else {
        batch.push_back(UpdateDescriptor::Delete(ds, t.old_row->ToTuple()));
      }
    }
    EXPECT_TRUE(tman.SubmitUpdateBatch(batch).ok());
    if (config.pool) {
      tman.Drain();
    } else {
      EXPECT_TRUE(tman.ProcessPending().ok());
    }
  }
  if (config.pool) tman.Stop();
  if (alpha != nullptr) *alpha = tman.stats().alpha;
  return fired;
}

TEST(AlphaSharingTest, SharedMemoriesFireLikePrivateOnes) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Script script = Generate(seed);
    std::multiset<std::string> expected = RunReference(script);
    // The stream must exercise joins and the aggregate.
    size_t joins = 0, aggregates = 0;
    for (const std::string& e : expected) {
      (e[0] == 'J' ? joins : aggregates) += 1;
    }
    EXPECT_GT(joins, 100u) << "seed " << seed;
    EXPECT_GT(aggregates, 0u) << "seed " << seed;

    std::vector<EngineConfig> configs;
    for (size_t cache : {size_t{1}, EngineConfig().cache_capacity}) {
      for (uint32_t partitions : {1u, 4u}) {
        for (uint32_t batch : {1u, 64u}) {
          configs.push_back({cache, partitions, batch, false});
        }
      }
    }
    configs.push_back({EngineConfig().cache_capacity, 4, 64, true});
    for (const EngineConfig& config : configs) {
      AlphaMemoryStats alpha;
      std::multiset<std::string> fired = RunEngine(script, config, &alpha);
      EXPECT_EQ(fired, expected)
          << "seed " << seed << " " << config.ToString() << ": "
          << fired.size() << " fired, " << expected.size() << " expected";
      // Stored nodes share memories: fewer memories than nodes.
      EXPECT_LT(alpha.memories, alpha.nodes)
          << "seed " << seed << " " << config.ToString();
    }
  }
}

}  // namespace
}  // namespace tman

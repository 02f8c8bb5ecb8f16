// Differential test of shared aggregate shapes: aggregate triggers with
// one (source, partition, group by, aggregate calls) share one shape and
// must fire exactly what per-trigger state would. The reference below
// keeps, per trigger, the rows of each group that passed the trigger's
// selection and recomputes every aggregate from them after each change.
//
// Each token chunk touches each group at most once, so the firing
// multiset does not depend on how the engine orders a chunk's tokens,
// batches them, or spreads them over condition partitions and drivers.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/trigger_manager.h"
#include "util/random.h"

namespace tman {
namespace {

constexpr int kGroups = 3;  // g in {0, 1, 2} or NULL

struct Row {
  int64_t id = 0;
  std::optional<int64_t> g;  // NULL: a group of its own
  int64_t v = 0;
  std::optional<int64_t> w;  // NULL: skipped by the aggregates over w

  bool operator==(const Row& o) const {
    return id == o.id && g == o.g && v == o.v && w == o.w;
  }
  Tuple ToTuple() const {
    auto opt = [](const std::optional<int64_t>& x) {
      return x.has_value() ? Value::Int(*x) : Value::Null();
    };
    return Tuple({Value::Int(id), opt(g), Value::Int(v), opt(w)});
  }
};

std::string Num(const std::optional<int64_t>& x) {
  return x.has_value() ? std::to_string(*x) : "N";
}

std::string Float(double d) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", d);
  return buf;
}

/// One aggregate trigger: `from orders r when r.v > sel group by r.g`
/// with one of three shapes' having clauses and action arguments.
struct TriggerSpec {
  std::string name;
  int shape = 0;
  int64_t sel = 0;
  int64_t having = 0;

  std::string Sql() const {
    std::string text = "create trigger " + name + " from orders r when r.v > " +
                       std::to_string(sel) + " group by r.g having ";
    const std::string h = std::to_string(having);
    switch (shape) {
      case 0:
        return text + "count(r.id) >= " + h + " do raise event A('" + name +
               "', r.g, count(r.id))";
      case 1:
        return text + "sum(r.w) >= " + h + " do raise event A('" + name +
               "', r.g, sum(r.w), min(r.w), max(r.w))";
      default:
        return text + "avg(r.w) >= " + h + " do raise event A('" + name +
               "', r.g, count(), avg(r.w))";
    }
  }

  /// The event the trigger raises for a group holding `rows`, or nothing
  /// while its having clause is false (or unknown).
  std::optional<std::string> Event(const std::optional<int64_t>& g,
                                   const std::vector<Row>& rows) const {
    int64_t count_w = 0;
    double sum = 0;
    std::optional<int64_t> lo, hi;
    for (const Row& r : rows) {
      if (!r.w.has_value()) continue;
      ++count_w;
      sum += static_cast<double>(*r.w);
      lo = lo.has_value() ? std::min(*lo, *r.w) : *r.w;
      hi = hi.has_value() ? std::max(*hi, *r.w) : *r.w;
    }
    std::string out = "A " + name + " " + Num(g);
    switch (shape) {
      case 0:
        if (static_cast<int64_t>(rows.size()) < having) return std::nullopt;
        return out + " " + std::to_string(rows.size());
      case 1:
        if (sum < static_cast<double>(having)) return std::nullopt;
        return out + " " + Float(sum) + " " + Num(lo) + " " + Num(hi);
      default: {
        if (count_w == 0) return std::nullopt;  // avg NULL: unknown
        const double avg = sum / static_cast<double>(count_w);
        if (avg < static_cast<double>(having)) return std::nullopt;
        return out + " " + std::to_string(rows.size()) + " " + Float(avg);
      }
    }
  }
};

struct TokenSpec {
  OpCode op = OpCode::kInsert;
  std::optional<Row> old_row, new_row;
};

struct Step {
  enum Kind { kCreate, kDrop, kEnable, kDisable, kTokens } kind = kTokens;
  size_t trigger = 0;
  std::vector<TokenSpec> tokens;
};

struct Script {
  std::vector<TriggerSpec> triggers;
  std::vector<Step> steps;
};

TriggerSpec RandomTrigger(Random* rng, size_t number) {
  TriggerSpec t;
  t.name = "a" + std::to_string(number);
  t.shape = static_cast<int>(rng->Uniform(3));
  t.sel = rng->UniformRange(0, 4);
  t.having = t.shape == 0 ? rng->UniformRange(1, 3) : rng->UniformRange(2, 8);
  return t;
}

Script Generate(uint64_t seed) {
  Random rng(seed);
  Script script;
  std::vector<size_t> live, disabled;
  // The rows later tokens may delete or update. A trigger that starts
  // (or resumes) seeing tokens freezes the rows before it: removing a row
  // a trigger never added lowers its counts, which no recount from rows
  // would show (a known defect, pinned by
  // RemovingARowATriggerNeverAddedLowersItsCounts).
  std::vector<Row> rows;
  auto create = [&]() {
    rows.clear();
    Step step;
    step.kind = Step::kCreate;
    step.trigger = script.triggers.size();
    script.triggers.push_back(RandomTrigger(&rng, script.triggers.size()));
    live.push_back(step.trigger);
    script.steps.push_back(step);
  };
  for (int i = 0; i < 12; ++i) create();

  int64_t next_id = 1;
  auto random_row = [&](int64_t id) {
    Row r;
    r.id = id;
    if (rng.Uniform(8) != 0) r.g = rng.UniformRange(0, kGroups - 1);
    r.v = rng.UniformRange(0, 6);
    if (rng.Uniform(5) != 0) r.w = rng.UniformRange(0, 6);
    return r;
  };
  for (int step = 0; step < 150; ++step) {
    const uint64_t pick = rng.Uniform(100);
    if (pick < 6) {
      create();
      continue;
    }
    if (pick < 10 && live.size() > 4) {
      const size_t at = rng.Uniform(live.size());
      Step drop;
      drop.kind = Step::kDrop;
      drop.trigger = live[at];
      live.erase(live.begin() + static_cast<long>(at));
      for (size_t i = 0; i < disabled.size(); ++i) {
        if (disabled[i] == drop.trigger) {
          disabled.erase(disabled.begin() + static_cast<long>(i));
          break;
        }
      }
      script.steps.push_back(drop);
      continue;
    }
    if (pick < 14 && !live.empty()) {
      Step toggle;
      if (!disabled.empty() && rng.Bernoulli(0.5)) {
        toggle.kind = Step::kEnable;
        toggle.trigger = disabled.back();
        disabled.pop_back();
        rows.clear();
      } else {
        toggle.kind = Step::kDisable;
        toggle.trigger = live[rng.Uniform(live.size())];
        bool already = false;
        for (size_t d : disabled) already = already || d == toggle.trigger;
        if (already) continue;
        disabled.push_back(toggle.trigger);
      }
      script.steps.push_back(toggle);
      continue;
    }
    // A chunk touching each group (NULL included) at most once.
    Step chunk;
    std::set<std::optional<int64_t>> used;
    const size_t n = 1 + rng.Uniform(4);
    for (size_t i = 0; i < n; ++i) {
      TokenSpec token;
      const uint64_t op = rows.empty() ? 0 : rng.Uniform(10);
      if (op < 5) {
        Row r = random_row(next_id++);
        if (op == 4 && !rows.empty()) {
          r = rows[rng.Uniform(rows.size())];  // a duplicate row
        }
        if (used.count(r.g) > 0) continue;
        used.insert(r.g);
        token.op = OpCode::kInsert;
        token.new_row = r;
        rows.push_back(r);
      } else {
        const size_t at = rng.Uniform(rows.size());
        if (used.count(rows[at].g) > 0) continue;
        token.old_row = rows[at];
        if (op < 8) {
          Row r = random_row(rows[at].id);
          if (used.count(r.g) > 0 && r.g != rows[at].g) continue;
          token.op = OpCode::kUpdate;
          token.new_row = r;
          used.insert(r.g);
          rows[at] = r;
        } else {
          token.op = OpCode::kDelete;
          rows.erase(rows.begin() + static_cast<long>(at));
        }
        used.insert(token.old_row->g);
      }
      chunk.tokens.push_back(token);
    }
    if (!chunk.tokens.empty()) script.steps.push_back(std::move(chunk));
  }
  return script;
}

// --- reference: each trigger's groups, recomputed from their rows ---------

std::multiset<std::string> RunReference(const Script& script) {
  struct Group {
    std::vector<Row> rows;
    bool was_true = false;
  };
  struct Live {
    const TriggerSpec* spec;
    bool enabled = true;
    std::map<std::optional<int64_t>, Group> groups;
  };
  std::vector<std::optional<Live>> triggers(script.triggers.size());
  std::multiset<std::string> fired;

  auto maintain = [&](Live& t, const Row& row, bool add) {
    if (!t.enabled || !(row.v > t.spec->sel)) return;
    auto it = t.groups.find(row.g);
    if (it == t.groups.end()) {
      if (!add) return;
      it = t.groups.emplace(row.g, Group{}).first;
    }
    Group& g = it->second;
    if (add) {
      g.rows.push_back(row);
    } else {
      for (auto r = g.rows.begin(); r != g.rows.end(); ++r) {
        if (*r == row) {
          g.rows.erase(r);
          break;
        }
      }
    }
    std::optional<std::string> event = t.spec->Event(row.g, g.rows);
    if (event.has_value() && !g.was_true) fired.insert(*event);
    g.was_true = event.has_value();
    if (g.rows.empty() && !g.was_true) t.groups.erase(it);
  };

  for (const Step& step : script.steps) {
    std::optional<Live>& t = triggers[step.trigger];
    switch (step.kind) {
      case Step::kCreate:
        t = Live{&script.triggers[step.trigger], true, {}};
        continue;
      case Step::kDrop:
        t.reset();
        continue;
      case Step::kEnable:
      case Step::kDisable:
        t->enabled = step.kind == Step::kEnable;
        continue;
      case Step::kTokens:
        break;
    }
    for (const TokenSpec& token : step.tokens) {
      for (auto& live : triggers) {
        if (!live.has_value()) continue;
        if (token.old_row.has_value()) maintain(*live, *token.old_row, false);
        if (token.new_row.has_value()) maintain(*live, *token.new_row, true);
      }
    }
  }
  return fired;
}

// --- the engine -------------------------------------------------------------

struct EngineConfig {
  uint32_t partitions = 1;
  uint32_t batch_size = 1;
  bool durable = false;
  bool pool = false;  // Start()ed drivers, dropping triggers concurrently

  std::string ToString() const {
    return "partitions=" + std::to_string(partitions) +
           " batch=" + std::to_string(batch_size) +
           (durable ? " durable" : " memory") + (pool ? " pool" : "");
  }
};

std::string Format(const Value& v) {
  if (v.is_null()) return "N";
  if (v.is_int()) return std::to_string(v.as_int());
  if (v.is_float()) return Float(v.as_float());
  return v.as_string();
}

std::multiset<std::string> RunEngine(const Script& script,
                                     const EngineConfig& config,
                                     AggregateShapeStats* shapes) {
  Database db;
  TriggerManagerOptions options;
  options.persistent_queue = config.durable;
  options.condition_partitions = config.partitions;
  options.batch_size = config.batch_size;
  options.driver_config.num_drivers = 4;
  TriggerManager tman(&db, options);
  EXPECT_TRUE(tman.Open().ok());
  auto ds = tman.DefineStreamSource("orders",
                                    Schema({{"id", DataType::kInt},
                                            {"g", DataType::kInt},
                                            {"v", DataType::kInt},
                                            {"w", DataType::kInt}}));
  EXPECT_TRUE(ds.ok());
  std::mutex mutex;
  std::multiset<std::string> fired;
  tman.events().Register("*", [&](const Event& e) {
    std::string out = e.name;
    for (const Value& v : e.args) out += " " + Format(v);
    std::lock_guard<std::mutex> lock(mutex);
    fired.insert(out);
  });
  if (config.pool) {
    EXPECT_TRUE(tman.Start().ok());
  }
  std::thread dropper;
  for (const Step& step : script.steps) {
    const std::string& name = script.triggers[step.trigger].name;
    if (step.kind == Step::kCreate) {
      auto r = tman.ExecuteCommand(script.triggers[step.trigger].Sql());
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      continue;
    }
    if (step.kind == Step::kDrop) {
      if (config.pool) {
        // Dropped while the next chunk runs; the caller ignores this
        // trigger's events.
        if (dropper.joinable()) dropper.join();
        dropper = std::thread(
            [&tman, name]() { EXPECT_TRUE(tman.DropTrigger(name).ok()); });
      } else {
        EXPECT_TRUE(tman.DropTrigger(name).ok());
      }
      continue;
    }
    if (step.kind == Step::kEnable || step.kind == Step::kDisable) {
      if (dropper.joinable()) dropper.join();
      if (config.pool) tman.Drain();
      EXPECT_TRUE(
          tman.SetTriggerEnabled(name, step.kind == Step::kEnable).ok());
      continue;
    }
    std::vector<UpdateDescriptor> batch;
    for (const TokenSpec& t : step.tokens) {
      if (t.op == OpCode::kInsert) {
        batch.push_back(UpdateDescriptor::Insert(*ds, t.new_row->ToTuple()));
      } else if (t.op == OpCode::kUpdate) {
        batch.push_back(UpdateDescriptor::Update(*ds, t.old_row->ToTuple(),
                                                 t.new_row->ToTuple()));
      } else {
        batch.push_back(UpdateDescriptor::Delete(*ds, t.old_row->ToTuple()));
      }
    }
    EXPECT_TRUE(tman.SubmitUpdateBatch(batch).ok());
    if (config.pool) {
      tman.Drain();
      if (dropper.joinable()) dropper.join();
    } else {
      EXPECT_TRUE(tman.ProcessPending().ok());
    }
  }
  if (dropper.joinable()) dropper.join();
  if (config.pool) tman.Stop();
  *shapes = tman.stats().aggregates;
  return fired;
}

/// Events of triggers the script never drops.
std::multiset<std::string> Undropped(const Script& script,
                                     const std::multiset<std::string>& in) {
  std::set<std::string> dropped;
  for (const Step& step : script.steps) {
    if (step.kind == Step::kDrop) {
      dropped.insert("A " + script.triggers[step.trigger].name + " ");
    }
  }
  std::multiset<std::string> out;
  for (const std::string& e : in) {
    bool keep = true;
    for (const std::string& d : dropped) keep = keep && e.rfind(d, 0) != 0;
    if (keep) out.insert(e);
  }
  return out;
}

TEST(AggregateSharingTest, SharedShapesFireLikePerTriggerState) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Script script = Generate(seed);
    const std::multiset<std::string> expected = RunReference(script);
    EXPECT_GT(expected.size(), 50u) << "seed " << seed;

    std::vector<EngineConfig> configs;
    for (uint32_t partitions : {1u, 4u}) {
      for (uint32_t batch : {1u, 64u}) {
        for (bool durable : {false, true}) {
          configs.push_back({partitions, batch, durable, false});
        }
      }
    }
    configs.push_back({4, 64, false, true});
    for (const EngineConfig& config : configs) {
      AggregateShapeStats shapes;
      std::multiset<std::string> fired = RunEngine(script, config, &shapes);
      if (config.pool) {
        EXPECT_EQ(Undropped(script, fired), Undropped(script, expected))
            << "seed " << seed << " " << config.ToString();
      } else {
        EXPECT_EQ(fired, expected)
            << "seed " << seed << " " << config.ToString() << ": "
            << fired.size() << " fired, " << expected.size() << " expected";
      }
      // Triggers share shapes: at most 3 per partition.
      EXPECT_LE(shapes.shapes, 3u * config.partitions) << config.ToString();
      if (config.partitions == 1) {
        EXPECT_LT(shapes.shapes, shapes.triggers) << config.ToString();
      }
    }
  }
}

// Pins a known defect that Generate() keeps out of the differential test:
// a trigger's slot cannot tell a removed row it added from one that was
// inserted before the trigger existed, so removing the latter lowers its
// counts. When this is mended, `late` fires at C with count 2.
TEST(AggregateSharingTest, RemovingARowATriggerNeverAddedLowersItsCounts) {
  Database db;
  TriggerManagerOptions options;
  options.persistent_queue = false;
  TriggerManager tman(&db, options);
  ASSERT_TRUE(tman.Open().ok());
  auto ds = tman.DefineStreamSource("orders",
                                    Schema({{"id", DataType::kInt},
                                            {"g", DataType::kInt},
                                            {"v", DataType::kInt},
                                            {"w", DataType::kInt}}));
  ASSERT_TRUE(ds.ok());
  std::multiset<std::string> fired;
  tman.events().Register("*", [&](const Event& e) {
    std::string out = e.name;
    for (const Value& v : e.args) out += " " + Format(v);
    fired.insert(out);
  });
  auto create = [&](const std::string& name, int64_t having) {
    ASSERT_TRUE(tman.ExecuteCommand(TriggerSpec{name, 0, 0, having}.Sql())
                    .ok());
  };
  auto submit = [&](UpdateDescriptor token) {
    ASSERT_TRUE(tman.SubmitUpdateBatch({std::move(token)}).ok());
    ASSERT_TRUE(tman.ProcessPending().ok());
  };
  auto row = [](int64_t id) { return Row{id, 0, 5, 1}.ToTuple(); };

  create("early", 3);
  submit(UpdateDescriptor::Insert(*ds, row(1)));  // A
  create("late", 2);  // same shape; A came before it
  submit(UpdateDescriptor::Insert(*ds, row(2)));  // B
  submit(UpdateDescriptor::Delete(*ds, row(1)));  // A leaves: late 1 -> 0
  submit(UpdateDescriptor::Insert(*ds, row(3)));  // C: late counts 1 of 2
  EXPECT_TRUE(fired.empty());
  submit(UpdateDescriptor::Insert(*ds, row(4)));  // D
  // `early` held A and counts right (B, C, D); `late` counts 2 of 3 rows.
  EXPECT_EQ(fired, (std::multiset<std::string>{"A early 0 3", "A late 0 2"}));
  EXPECT_EQ(tman.stats().aggregates.shapes, 1u);
}

}  // namespace
}  // namespace tman

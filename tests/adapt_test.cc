// Tests for online adaptive re-optimization: the constant-set organization
// swap (never dropping or double-reporting a match, under a 1000-seed
// deterministic interleaving sweep against a never-adapting shadow
// oracle), fault injection at the adapt.* sites, and the `stats` / `adapt`
// console commands.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/trigger_manager.h"
#include "db/sql.h"
#include "parser/parser.h"
#include "predindex/cost_model.h"
#include "predindex/predicate_index.h"
#include "predindex/reoptimizer.h"
#include "runtime/deterministic.h"
#include "util/fault_injector.h"
#include "util/random.h"

namespace tman {
namespace {

ExprPtr Parse(const std::string& text) {
  auto r = ParseExpressionString(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return *r;
}

Schema EmpSchema() {
  return Schema({{"name", DataType::kVarchar},
                 {"salary", DataType::kFloat},
                 {"dept", DataType::kInt}});
}

UpdateDescriptor EmpInsert(const std::string& name, double salary,
                           int64_t dept) {
  return UpdateDescriptor::Insert(
      1,
      Tuple({Value::String(name), Value::Float(salary), Value::Int(dept)}));
}

/// An eager adaptation policy for tests: any observed probe justifies a
/// switch the cost model likes even slightly, every round.
AdaptPolicy EagerPolicy() {
  AdaptPolicy policy;
  policy.min_probes = 1;
  policy.min_gain_ratio = 1.0;
  policy.cooldown_rounds = 0;
  return policy;
}

/// A predicate index whose classes stay on the (mismatched) list
/// organization until the re-optimizer intervenes: list_max is huge, so
/// size-triggered promotion never fires and any promotion observed is
/// the adaptive layer's doing.
OrgPolicy StuckOnListPolicy() {
  OrgPolicy policy;
  policy.list_max = 1u << 30;
  return policy;
}

class AdaptSwapTest : public ::testing::Test {
 protected:
  void Reset(const OrgPolicy& policy, FaultInjector* faults = nullptr) {
    db_ = std::make_unique<Database>();
    index_ = std::make_unique<PredicateIndex>(db_.get(), policy);
    ASSERT_TRUE(index_->RegisterDataSource(1, EmpSchema()).ok());
    shadow_db_ = std::make_unique<Database>();
    shadow_ = std::make_unique<PredicateIndex>(shadow_db_.get(), policy);
    ASSERT_TRUE(shadow_->RegisterDataSource(1, EmpSchema()).ok());
    ReoptimizerOptions options;
    options.policy = EagerPolicy();
    options.faults = faults;
    reopt_ = std::make_unique<ConstantSetReoptimizer>(index_.get(), &log_,
                                                      options);
  }

  /// Adds the same predicate to the adaptive index and the shadow oracle.
  void AddBoth(const std::string& predicate, TriggerId trigger) {
    for (PredicateIndex* target : {index_.get(), shadow_.get()}) {
      PredicateSpec spec;
      spec.data_source = 1;
      spec.op = OpCode::kInsert;
      spec.predicate = Parse(predicate);
      spec.trigger_id = trigger;
      auto r = target->AddPredicate(spec);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
  }

  /// Matches the token against both indexes and asserts the adaptive one
  /// (whatever organizations it has swapped to) reports exactly the
  /// shadow oracle's trigger set — no dropped, no doubled matches.
  std::multiset<TriggerId> MatchBothExpectEqual(
      const UpdateDescriptor& token) {
    std::vector<PredicateMatch> adaptive, oracle;
    EXPECT_TRUE(index_->Match(token, &adaptive).ok());
    EXPECT_TRUE(shadow_->Match(token, &oracle).ok());
    std::multiset<TriggerId> a, b;
    for (const auto& m : adaptive) a.insert(m.trigger_id);
    for (const auto& m : oracle) b.insert(m.trigger_id);
    EXPECT_EQ(a, b);
    return a;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Database> shadow_db_;
  std::unique_ptr<PredicateIndex> index_;
  std::unique_ptr<PredicateIndex> shadow_;
  AdaptationLog log_;
  std::unique_ptr<ConstantSetReoptimizer> reopt_;
};

TEST_F(AdaptSwapTest, ReoptimizerPromotesHotListToIndex) {
  Reset(StuckOnListPolicy());
  for (int d = 0; d < 64; ++d) {
    AddBoth("emp.dept = " + std::to_string(d), 100 + d);
  }
  auto before = index_->SignatureStats();
  ASSERT_EQ(before.size(), 1u);
  EXPECT_EQ(before[0].stats.org, OrgType::kMemoryList);

  // Drive probes through the list so the cost model sees the fan-out.
  for (int i = 0; i < 64; ++i) {
    MatchBothExpectEqual(EmpInsert("x", 1.0, i % 64));
  }
  AdaptRoundReport report = reopt_->RunOnce();
  EXPECT_EQ(report.switched, 1u) << report.ToString();

  auto after = index_->SignatureStats();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].stats.org, OrgType::kMemoryIndex);
  EXPECT_EQ(after[0].stats.org_switches, 1u);
  EXPECT_GE(log_.total_applied(), 1u);

  // Post-swap matching still agrees with the never-adapted oracle.
  for (int i = 0; i < 64; ++i) {
    MatchBothExpectEqual(EmpInsert("y", 2.0, i));
  }
}

TEST_F(AdaptSwapTest, RangeSignaturePromotionUsesIntervalIndex) {
  Reset(StuckOnListPolicy());
  for (int i = 0; i < 48; ++i) {
    AddBoth("emp.salary > " + std::to_string(i * 1000), 500 + i);
  }
  for (int i = 0; i < 32; ++i) {
    MatchBothExpectEqual(EmpInsert("x", i * 1500.0, 0));
  }
  AdaptRoundReport report = reopt_->RunOnce();
  EXPECT_EQ(report.switched, 1u) << report.ToString();
  auto after = index_->SignatureStats();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].stats.org, OrgType::kMemoryIndex);
  EXPECT_TRUE(after[0].stats.has_range);
  // Range matching through the promoted interval index stays exact.
  for (int i = 0; i < 64; ++i) {
    MatchBothExpectEqual(EmpInsert("y", i * 777.0, 0));
  }
}

// The satellite's centerpiece: a 1000-seed deterministic sweep. Each seed
// interleaves three actors — a token producer/matcher, a predicate
// inserter (mutating the class under the re-optimizer's feet, which
// exercises the version-checked abort), and an adaptation actor — and
// every matched token is differentially checked against the
// never-adapting shadow oracle. Any dropped or double-fired match fails
// the exact multiset comparison; the trace makes a failing seed replay.
TEST_F(AdaptSwapTest, SeedSweepSwapNeverDropsOrDoublesMatches) {
  uint64_t total_switches = 0;
  uint64_t total_aborts = 0;
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    Reset(StuckOnListPolicy());
    for (int d = 0; d < 16; ++d) {
      AddBoth("emp.dept = " + std::to_string(d), 100 + d);
    }
    DeterministicScheduler sched(seed);
    Random rng(seed * 977);

    int tokens_left = 20;
    sched.AddActor("tok", [&] {
      if (tokens_left == 0) return false;
      --tokens_left;
      int64_t dept = static_cast<int64_t>(rng.Uniform(32));
      auto matched = MatchBothExpectEqual(EmpInsert("t", 1.0, dept));
      sched.Note("match dept=" + std::to_string(dept) + " -> " +
                 std::to_string(matched.size()));
      return true;
    });

    int inserts_left = 5;
    int next_dept = 16;
    sched.AddActor("ins", [&] {
      if (inserts_left == 0) return false;
      --inserts_left;
      AddBoth("emp.dept = " + std::to_string(next_dept), 100 + next_dept);
      ++next_dept;
      return true;
    });

    int rounds_left = 6;
    sched.AddActor("adapt", [&] {
      if (rounds_left == 0) return false;
      --rounds_left;
      AdaptRoundReport report = reopt_->RunOnce();
      total_switches += report.switched;
      total_aborts += report.aborted;
      EXPECT_EQ(report.errors, 0u)
          << "seed " << seed << ": " << report.ToString();
      return true;
    });

    sched.Run();
    ASSERT_FALSE(::testing::Test::HasFailure())
        << "seed " << seed << " trace:\n"
        << sched.TraceString();

    // Post-run: drive every dept through both indexes one final time.
    for (int d = 0; d < next_dept; ++d) {
      MatchBothExpectEqual(EmpInsert("final", 1.0, d));
    }
    ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
  }
  // The sweep must actually exercise the swap machinery, not vacuously
  // pass with the re-optimizer never firing.
  EXPECT_GT(total_switches, 0u);
}

TEST_F(AdaptSwapTest, FaultInjectionAtEverySiteSurfacesAndRecovers) {
  for (const char* site : {"adapt.snapshot", "adapt.build", "adapt.swap"}) {
    FaultInjector faults;
    Reset(StuckOnListPolicy(), &faults);
    // Registration happens in the re-optimizer's constructor.
    auto sites = faults.RegisteredSites();
    ASSERT_NE(std::find(sites.begin(), sites.end(), site), sites.end());

    for (int d = 0; d < 64; ++d) {
      AddBoth("emp.dept = " + std::to_string(d), 100 + d);
    }
    for (int i = 0; i < 64; ++i) {
      MatchBothExpectEqual(EmpInsert("x", 1.0, i));
    }

    faults.ArmCountdown(site, 0);
    AdaptRoundReport failed = reopt_->RunOnce();
    EXPECT_EQ(failed.switched, 0u) << site;
    EXPECT_EQ(failed.errors + failed.aborted, 1u)
        << site << ": " << failed.ToString();
    // The class is untouched by the failed attempt and still matches.
    auto stats = index_->SignatureStats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].stats.org, OrgType::kMemoryList) << site;
    for (int i = 0; i < 16; ++i) {
      MatchBothExpectEqual(EmpInsert("after-fault", 1.0, i));
    }

    // Disarmed, the very next round installs the switch.
    faults.ClearAll();
    AdaptRoundReport ok = reopt_->RunOnce();
    EXPECT_EQ(ok.switched, 1u) << site << ": " << ok.ToString();
    EXPECT_EQ(index_->SignatureStats()[0].stats.org, OrgType::kMemoryIndex)
        << site;
    for (int i = 0; i < 16; ++i) {
      MatchBothExpectEqual(EmpInsert("after-recover", 1.0, i));
    }
  }
}

// --- console / wire surface -------------------------------------------

class AdaptCommandTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->CreateTable("emp", EmpSchema()).ok());
    TriggerManagerOptions options;
    options.org_policy = StuckOnListPolicy();
    options.adapt_policy = EagerPolicy();
    tman_ = std::make_unique<TriggerManager>(db_.get(), options);
    ASSERT_TRUE(tman_->Open().ok());
    ASSERT_TRUE(tman_->DefineLocalTableSource("emp").ok());
  }

  std::string Exec(const std::string& cmd) {
    auto r = tman_->ExecuteCommand(cmd);
    EXPECT_TRUE(r.ok()) << cmd << " -> " << r.status().ToString();
    return r.ok() ? *r : std::string();
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<TriggerManager> tman_;
};

TEST_F(AdaptCommandTest, StatsReportsStagesOrganizationsAndAdaptState) {
  for (int d = 0; d < 40; ++d) {
    Exec("create trigger t" + std::to_string(d) +
         " from emp on insert when emp.dept = " + std::to_string(d) +
         " do raise event E" + std::to_string(d) + "(emp.name)");
  }
  ASSERT_TRUE(db_->Insert("emp", Tuple({Value::String("a"), Value::Float(1),
                                        Value::Int(3)}))
                  .ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());

  std::string stats = Exec("stats");
  EXPECT_NE(stats.find("mean_us"), std::string::npos) << stats;
  EXPECT_NE(stats.find("adapt:"), std::string::npos) << stats;
  EXPECT_NE(stats.find("sig "), std::string::npos) << stats;
  EXPECT_NE(stats.find("org=memory-list"), std::string::npos) << stats;

  // Stage metrics actually accumulated work.
  auto st = tman_->stats();
  EXPECT_GT(st.stages.stage(Stage::kIngest).items, 0u);
  EXPECT_GT(st.stages.stage(Stage::kMatch).items, 0u);
}

TEST_F(AdaptCommandTest, AdaptRunSwitchesOrganizationAndLogsIt) {
  for (int d = 0; d < 64; ++d) {
    Exec("create trigger t" + std::to_string(d) +
         " from emp on insert when emp.dept = " + std::to_string(d) +
         " do raise event E(emp.name)");
  }
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(db_->Insert("emp", Tuple({Value::String("a"), Value::Float(1),
                                          Value::Int(i)}))
                    .ok());
  }
  ASSERT_TRUE(tman_->ProcessPending().ok());

  std::string before = Exec("adapt status");
  EXPECT_NE(before.find("rounds="), std::string::npos) << before;

  std::string round = Exec("adapt run");
  EXPECT_NE(round.find("switched=1"), std::string::npos) << round;
  EXPECT_NE(Exec("stats").find("org=memory-index"), std::string::npos);
  EXPECT_NE(Exec("adapt log").find("list"), std::string::npos);
  EXPECT_EQ(tman_->stats().adapt_switches, 1u);

  // Matching still works after the command-driven swap.
  ASSERT_TRUE(db_->Insert("emp", Tuple({Value::String("b"), Value::Float(1),
                                        Value::Int(7)}))
                  .ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_GT(tman_->stats().rule_firings, 0u);
}

TEST_F(AdaptCommandTest, AdaptOnOffGateAndUsageErrors) {
  EXPECT_NE(Exec("adapt off").find("disabled"), std::string::npos);
  EXPECT_FALSE(tman_->adaptive_enabled());
  EXPECT_NE(Exec("adapt on").find("enabled"), std::string::npos);
  EXPECT_TRUE(tman_->adaptive_enabled());
  auto bad = tman_->ExecuteCommand("adapt bogus");
  EXPECT_FALSE(bad.ok());
}

TEST_F(AdaptCommandTest, BackgroundAdaptThreadConvergesWithoutCommands) {
  // Short adapt interval; the background thread should install the
  // promotion without any explicit `adapt run`.
  TriggerManagerOptions options;
  options.org_policy = StuckOnListPolicy();
  options.adapt_policy = EagerPolicy();
  options.adaptive = true;
  options.adapt_interval = std::chrono::milliseconds(5);
  auto db2 = std::make_unique<Database>();
  ASSERT_TRUE(db2->CreateTable("emp", EmpSchema()).ok());
  TriggerManager bg(db2.get(), options);
  ASSERT_TRUE(bg.Open().ok());
  ASSERT_TRUE(bg.DefineLocalTableSource("emp").ok());
  for (int d = 0; d < 64; ++d) {
    auto r = bg.ExecuteCommand(
        "create trigger t" + std::to_string(d) +
        " from emp on insert when emp.dept = " + std::to_string(d) +
        " do raise event E(emp.name)");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(db2->Insert("emp", Tuple({Value::String("a"),
                                          Value::Float(1), Value::Int(i)}))
                    .ok());
  }
  ASSERT_TRUE(bg.ProcessPending().ok());
  ASSERT_TRUE(bg.Start().ok());
  for (int spin = 0; spin < 400 && bg.stats().adapt_switches == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(bg.stats().adapt_switches, 0u);
  bg.Stop();
}

}  // namespace
}  // namespace tman

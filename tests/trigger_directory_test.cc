#include "core/trigger_directory.h"

#include <gtest/gtest.h>

#include "core/firing_plan.h"

namespace tman {
namespace {

using D = TriggerDirectory;

std::shared_ptr<const FiringPlan> Maintaining(
    std::vector<DataSourceId> sources) {
  auto plan = std::make_shared<FiringPlan>();
  auto state = std::make_unique<TriggerState>();
  state->sources = std::move(sources);
  plan->state = std::move(state);
  return plan;
}

TEST(TriggerDirectoryTest, UnknownIdsAreNotLive) {
  D dir;
  EXPECT_EQ(dir.Flags(1), 0u);
  EXPECT_EQ(dir.Flags(D::kCapacity + 5), 0u);
  EXPECT_FALSE(D::Fires(dir.Flags(1)));
  EXPECT_FALSE(dir.NeedsMaintenance(3));
}

TEST(TriggerDirectoryTest, InstallEnableRemove) {
  D dir;
  ASSERT_TRUE(dir.Install(7, 1, 0).ok());
  EXPECT_EQ(dir.Flags(7), D::kLive | D::kEnabled);
  EXPECT_TRUE(D::Fires(dir.Flags(7)));
  dir.SetEnabled(7, false);
  EXPECT_EQ(dir.Flags(7), D::kLive);
  EXPECT_FALSE(D::Fires(dir.Flags(7)));
  dir.SetEnabled(7, true);
  EXPECT_TRUE(D::Fires(dir.Flags(7)));
  EXPECT_EQ(dir.Remove(7), D::kLive | D::kEnabled);
  EXPECT_EQ(dir.Flags(7), 0u);
  dir.SetEnabled(7, true);  // a removed trigger stays dead
  EXPECT_EQ(dir.Flags(7), 0u);
  EXPECT_EQ(dir.Remove(7), 0u);
}

TEST(TriggerDirectoryTest, PlansArePublishedAndHandedBackOnRemove) {
  D dir;
  auto plan = std::make_shared<FiringPlan>();
  const FiringPlan* raw = plan.get();
  ASSERT_TRUE(dir.Install(7, 1, 0, std::move(plan)).ok());
  EXPECT_EQ(dir.Plan(7), raw);
  dir.SetEnabled(7, false);
  EXPECT_FALSE(D::Fires(dir.Flags(7)));
  EXPECT_EQ(dir.Plan(7), raw);  // resident while disabled
  std::shared_ptr<const FiringPlan> held;
  EXPECT_EQ(dir.Remove(7, &held), D::kLive);
  EXPECT_EQ(held.get(), raw);  // the caller frees it when safe
  EXPECT_EQ(dir.Plan(7), nullptr);
  EXPECT_EQ(dir.Plan(8), nullptr);
}

TEST(TriggerDirectoryTest, SetFlagGatesItsMembers) {
  D dir;
  ASSERT_TRUE(dir.Install(1, 2, 0).ok());
  ASSERT_TRUE(dir.Install(2, 3, 0).ok());
  ASSERT_TRUE(dir.SetSetEnabled(2, false).ok());
  EXPECT_FALSE(D::Fires(dir.Flags(1)));
  EXPECT_TRUE(D::Fires(dir.Flags(2)));
  ASSERT_TRUE(dir.SetSetEnabled(2, true).ok());
  EXPECT_TRUE(D::Fires(dir.Flags(1)));
  // A set disabled before its first member is installed still gates it.
  ASSERT_TRUE(dir.SetSetEnabled(9, false).ok());
  ASSERT_TRUE(dir.Install(3, 9, 0).ok());
  EXPECT_EQ(dir.Flags(3), D::kLive);
}

TEST(TriggerDirectoryTest, AggregatesNeverFireFromTheFirePass) {
  D dir;
  ASSERT_TRUE(dir.Install(4, 1, D::kAggregate, Maintaining({10})).ok());
  EXPECT_EQ(dir.Flags(4), D::kLive | D::kEnabled | D::kAggregate);
  EXPECT_FALSE(D::Fires(dir.Flags(4)));
}

TEST(TriggerDirectoryTest, MaintenanceCountsFollowStatefulTriggers) {
  D dir;
  ASSERT_TRUE(dir.Install(1, 1, 0, Maintaining({})).ok());  // selection
  EXPECT_FALSE(dir.NeedsMaintenance(5));
  ASSERT_TRUE(dir.Install(2, 1, 0, Maintaining({5, 6})).ok());  // stored join
  ASSERT_TRUE(dir.Install(3, 1, D::kAggregate, Maintaining({6})).ok());
  EXPECT_TRUE(dir.NeedsMaintenance(5));
  EXPECT_TRUE(dir.NeedsMaintenance(6));
  dir.Remove(2);
  EXPECT_FALSE(dir.NeedsMaintenance(5));
  EXPECT_TRUE(dir.NeedsMaintenance(6));
  std::shared_ptr<const FiringPlan> held;
  dir.Remove(3, &held);  // handing the plan back still releases its counts
  EXPECT_NE(held, nullptr);
  EXPECT_FALSE(dir.NeedsMaintenance(6));
  dir.Remove(3);  // a second removal releases nothing more
  EXPECT_FALSE(dir.NeedsMaintenance(6));
  // A source counted twice (a stream self-join) stays maintained until
  // both of its counts are gone.
  ASSERT_TRUE(dir.Install(4, 1, 0, Maintaining({7, 7})).ok());
  ASSERT_TRUE(dir.Install(5, 1, 0, Maintaining({7})).ok());
  dir.Remove(5);
  EXPECT_TRUE(dir.NeedsMaintenance(7));
  dir.Remove(4);
  EXPECT_FALSE(dir.NeedsMaintenance(7));
}

TEST(TriggerDirectoryTest, IdsSpanChunksUpToCapacity) {
  D dir;
  const TriggerId last = D::kCapacity - 1;
  for (TriggerId id : {D::kChunkSize - 1, D::kChunkSize, last}) {
    ASSERT_TRUE(dir.Install(id, 1, 0).ok()) << id;
    EXPECT_TRUE(D::Fires(dir.Flags(id))) << id;
  }
  EXPECT_EQ(dir.Flags(D::kChunkSize + 1), 0u);
}

TEST(TriggerDirectoryTest, OutOfRangeIdsAreRejectedWithoutEffect) {
  D dir;
  EXPECT_FALSE(dir.Install(D::kCapacity, 1, 0).ok());
  EXPECT_FALSE(dir.Install(1, D::kCapacity, 0).ok());
  EXPECT_FALSE(dir.Install(1, 1, 0, Maintaining({2, D::kCapacity})).ok());
  EXPECT_EQ(dir.Flags(1), 0u);
  EXPECT_FALSE(dir.NeedsMaintenance(2));
  EXPECT_FALSE(dir.SetSetEnabled(D::kCapacity, false).ok());
}

}  // namespace
}  // namespace tman

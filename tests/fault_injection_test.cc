// Failure-path tests: injected faults must surface as clean IoError
// statuses at every layer (the library is exception-free; nothing may
// crash, corrupt counters, or wedge after a fault clears). Storage goes
// through the DiskManager's shared FaultInjector; the runtime executor
// has its own "executor.task" site.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>

#include "db/database.h"
#include "db/sql.h"
#include "runtime/driver.h"
#include "storage/bptree.h"
#include "storage/heap_table.h"
#include "storage/table_queue.h"
#include "util/fault_injector.h"
#include "util/random.h"

namespace tman {
namespace {

TEST(FaultInjectionTest, DiskFailsAfterCountdown) {
  DiskManager disk;
  PageId p = disk.AllocatePage();
  Page page;
  disk.InjectFaultAfter(1);
  EXPECT_TRUE(disk.ReadPage(p, &page).ok());   // 1 access allowed
  EXPECT_FALSE(disk.ReadPage(p, &page).ok());  // then trips
  EXPECT_FALSE(disk.WritePage(p, page).ok());
  disk.ClearFaults();
  EXPECT_TRUE(disk.ReadPage(p, &page).ok());
}

TEST(FaultInjectionTest, BufferPoolSurfacesReadFault) {
  DiskManager disk;
  BufferPool pool(&disk, 2);
  PageGuard g;
  ASSERT_TRUE(pool.NewPage(&g).ok());
  PageId id = g.page_id();
  g.Release();
  // Evict it by filling the pool.
  PageGuard g2, g3;
  ASSERT_TRUE(pool.NewPage(&g2).ok());
  ASSERT_TRUE(pool.NewPage(&g3).ok());
  g2.Release();
  g3.Release();
  disk.InjectFaultAfter(0);
  PageGuard back;
  Status s = pool.FetchPage(id, &back);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  disk.ClearFaults();
  EXPECT_TRUE(pool.FetchPage(id, &back).ok());  // recovers
}

TEST(FaultInjectionTest, HeapTablePropagatesFault) {
  DiskManager disk;
  BufferPool pool(&disk, 2);
  auto first = HeapTable::Create(&pool);
  ASSERT_TRUE(first.ok());
  HeapTable table(&pool, *first);
  // Fill several pages so operations need real I/O.
  std::string record(1000, 'x');
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(table.Insert(record).ok());
  }
  disk.InjectFaultAfter(0);
  EXPECT_FALSE(table.Insert(record).ok());
  EXPECT_FALSE(table.Scan([](const Rid&, std::string_view) {
                     return true;
                   }).ok());
  disk.ClearFaults();
  EXPECT_TRUE(table.Insert(record).ok());
}

TEST(FaultInjectionTest, BPTreePropagatesFault) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  auto meta = BPTree::Create(&pool);
  ASSERT_TRUE(meta.ok());
  BPTree tree(&pool, *meta);
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree.Insert({Value::Int(i)}, Rid{0, 0}).ok());
  }
  disk.InjectFaultAfter(0);
  auto r = tree.SearchEqual({Value::Int(500)});
  EXPECT_FALSE(r.ok());
  disk.ClearFaults();
  EXPECT_TRUE(tree.SearchEqual({Value::Int(500)}).ok());
}

TEST(FaultInjectionTest, TableQueueFailsCleanly) {
  DiskManager disk;
  BufferPool pool(&disk, 2);
  auto meta = TableQueue::Create(&pool);
  ASSERT_TRUE(meta.ok());
  TableQueue queue(&pool, *meta);
  std::string record(1500, 'q');
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(queue.Enqueue(record).ok());
  }
  disk.InjectFaultAfter(0);
  EXPECT_FALSE(queue.Enqueue(record).ok());
  disk.ClearFaults();
  // Queue contents survive the failed attempt.
  EXPECT_EQ(*queue.Size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(queue.Dequeue().ok()) << i;
  }
}

TEST(FaultInjectionTest, SqlStatementsReportIoErrors) {
  DatabaseOptions opts;
  opts.buffer_pool_frames = 2;  // everything goes through the disk
  Database db(opts);
  ASSERT_TRUE(ExecuteSql(&db, "create table t (a int, b varchar)").ok());
  // Wide rows: the table spans many pages, so a 2-frame pool must hit the
  // disk during the scan.
  std::string payload(500, 'w');
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(ExecuteSql(&db, "insert into t values (" +
                                    std::to_string(i) + ", '" + payload +
                                    "')")
                    .ok());
  }
  db.disk()->InjectFaultAfter(0);
  auto r = ExecuteSql(&db, "select * from t");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  db.disk()->ClearFaults();
  auto again = ExecuteSql(&db, "select * from t");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->rows.size(), 50u);
}

// --- FaultInjector modes -----------------------------------------------------

TEST(FaultInjectionTest, InjectorEveryNthMode) {
  FaultInjector fi;
  fi.ArmEveryNth("disk.read", 3);
  for (int round = 0; round < 4; ++round) {
    EXPECT_TRUE(fi.Check("disk.read").ok());
    EXPECT_TRUE(fi.Check("disk.read").ok());
    EXPECT_FALSE(fi.Check("disk.read").ok());  // every 3rd trips
    EXPECT_TRUE(fi.Check("disk.write").ok());  // other sites untouched
  }
  EXPECT_EQ(fi.site_stats("disk.read").faults, 4u);
  EXPECT_EQ(fi.site_stats("disk.read").checks, 12u);
}

TEST(FaultInjectionTest, InjectorOneShotDisarmsItself) {
  FaultInjector fi;
  fi.ArmOnce("ipc.write.*", 2);
  EXPECT_TRUE(fi.Check("ipc.write.drop").ok());
  EXPECT_TRUE(fi.Check("ipc.write.drop").ok());
  EXPECT_FALSE(fi.Check("ipc.write.drop").ok());  // the one fault
  EXPECT_FALSE(fi.armed());
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(fi.Check("ipc.write.drop").ok());
  EXPECT_EQ(fi.total_faults(), 1u);

  // Disarming one arm leaves the others armed.
  fi.ArmOnce("disk.read");
  fi.ArmCountdown("disk.write", 0);
  EXPECT_FALSE(fi.Check("disk.read").ok());
  EXPECT_TRUE(fi.Check("disk.read").ok());
  EXPECT_TRUE(fi.armed());
  EXPECT_FALSE(fi.Check("disk.write").ok());
  EXPECT_FALSE(fi.Check("disk.write").ok());
}

TEST(FaultInjectionTest, InjectorProbabilityReplaysBySeed) {
  auto fault_pattern = [](uint64_t seed) {
    FaultInjector fi;
    fi.ArmProbability("disk.*", 0.3, seed);
    std::string bits;
    for (int i = 0; i < 200; ++i) {
      bits.push_back(fi.Check("disk.read").ok() ? '.' : 'X');
    }
    return bits;
  };
  EXPECT_EQ(fault_pattern(7), fault_pattern(7));  // same seed, same storm
  EXPECT_NE(fault_pattern(7), fault_pattern(8));
  std::string bits = fault_pattern(7);
  size_t faults = std::count(bits.begin(), bits.end(), 'X');
  EXPECT_GT(faults, 20u);  // p=0.3 over 200 draws
  EXPECT_LT(faults, 120u);
}

TEST(FaultInjectionTest, InjectorPatternsAndClear) {
  FaultInjector fi;
  EXPECT_FALSE(fi.armed());
  fi.ArmCountdown("table_queue.*", 0);
  fi.ArmCountdown("disk.write", 0);
  EXPECT_TRUE(fi.armed());
  EXPECT_FALSE(fi.Check("table_queue.push").ok());
  EXPECT_FALSE(fi.Check("table_queue.pop.meta").ok());
  EXPECT_FALSE(fi.Check("disk.write").ok());
  EXPECT_TRUE(fi.Check("disk.read").ok());  // exact pattern ≠ sibling site
  fi.Clear("table_queue.*");
  EXPECT_TRUE(fi.Check("table_queue.push").ok());
  EXPECT_FALSE(fi.Check("disk.write").ok());
  EXPECT_EQ(fi.total_faults(), 4u);
  fi.ClearAll();
  EXPECT_FALSE(fi.armed());
  EXPECT_TRUE(fi.Check("disk.write").ok());
}

// --- executor faults ---------------------------------------------------------

TEST(FaultInjectionTest, ExecutorTaskFaultsCountedWithoutWedging) {
  FaultInjector fi;
  fi.ArmEveryNth("executor.task", 3);  // every 3rd task dies pre-dispatch
  TaskQueue queue;
  int executed = 0;
  for (int i = 0; i < 12; ++i) {
    Task t;
    t.kind = TaskKind::kProcessToken;
    t.work = [&executed] {
      ++executed;
      return Status::OK();
    };
    queue.Push(std::move(t));
  }
  ExecutorStats stats;
  auto result = TmanTest(&queue, std::chrono::hours(1), &stats,
                         Clock::Real(), &fi);
  // The queue still drains: a killed task is consumed and counted as an
  // error, never left in flight.
  EXPECT_EQ(result, TmanTestResult::kTaskQueueEmpty);
  EXPECT_EQ(stats.tasks_executed, 12u);
  EXPECT_EQ(stats.task_errors, 4u);
  EXPECT_EQ(executed, 8);
  EXPECT_EQ(queue.in_flight(), 0u);
  EXPECT_EQ(fi.site_stats("executor.task").faults, 4u);
}

// --- TableQueue mid-operation faults ----------------------------------------

TEST(FaultInjectionTest, TableQueueMidPushLeavesQueueRecoverable) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  auto meta = TableQueue::Create(&pool);
  ASSERT_TRUE(meta.ok());
  TableQueue queue(&pool, *meta);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.Enqueue("pre" + std::to_string(i)).ok());
  }
  // Fail the final meta write: the record is already placed in the data
  // page, so this is the worst crash point of Enqueue.
  disk.fault_injector()->ArmCountdown("table_queue.push.meta", 0);
  EXPECT_FALSE(queue.Enqueue("ghost").ok());
  EXPECT_FALSE(queue.Enqueue("ghost2").ok());
  disk.fault_injector()->ClearAll();
  // The failed pushes never happened: count, order and contents intact,
  // and the queue accepts new records.
  ASSERT_TRUE(queue.Size().ok());
  EXPECT_EQ(*queue.Size(), 5u);
  ASSERT_TRUE(queue.Enqueue("post").ok());
  for (int i = 0; i < 5; ++i) {
    auto r = queue.Dequeue();
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(*r, "pre" + std::to_string(i));
  }
  auto last = queue.Dequeue();
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(*last, "post");
  EXPECT_TRUE(queue.Empty());
}

TEST(FaultInjectionTest, TableQueueMidPopLeavesQueueRecoverable) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  auto meta = TableQueue::Create(&pool);
  ASSERT_TRUE(meta.ok());
  TableQueue queue(&pool, *meta);
  // Records sized so the head page drains mid-test (page deallocation is
  // deferred until the meta write lands — exercise that path too).
  std::string big(1500, 'a');
  ASSERT_TRUE(queue.Enqueue(big + "0").ok());
  ASSERT_TRUE(queue.Enqueue(big + "1").ok());
  ASSERT_TRUE(queue.Enqueue(big + "2").ok());
  disk.fault_injector()->ArmCountdown("table_queue.pop.meta", 0);
  EXPECT_FALSE(queue.Dequeue().ok());
  disk.fault_injector()->ClearAll();
  // The failed pop did not consume the record: each comes out exactly once.
  EXPECT_EQ(*queue.Size(), 3u);
  for (int i = 0; i < 3; ++i) {
    auto r = queue.Dequeue();
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(*r, big + std::to_string(i));
  }
  EXPECT_TRUE(queue.Empty());
  EXPECT_FALSE(queue.Dequeue().ok());  // NotFound, not a stale record
}

TEST(FaultInjectionTest, TableQueueSurvivesSeededFaultStormAndReopen) {
  // Random operations under a seeded probability storm on every
  // table_queue site. Invariant (the persistent update-queue safety the
  // paper claims): an operation that returned an error did not happen, so
  // the queue must always equal the reference deque of successful ops —
  // including after a flush and reopen of the whole storage stack.
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    DiskManager disk;
    auto pool = std::make_unique<BufferPool>(&disk, 4);
    auto meta = TableQueue::Create(pool.get());
    ASSERT_TRUE(meta.ok());
    auto queue = std::make_unique<TableQueue>(pool.get(), *meta);
    Random rng(seed);
    std::deque<std::string> reference;
    int next_record = 0;
    disk.fault_injector()->ArmProbability("table_queue.*", 0.35, seed ^ 0xfa);
    for (int op = 0; op < 120; ++op) {
      if (rng.Bernoulli(0.6)) {
        std::string rec(rng.UniformRange(1, 1200), 'r');
        rec += std::to_string(next_record++);
        if (queue->Enqueue(rec).ok()) reference.push_back(rec);
      } else {
        auto r = queue->Dequeue();
        if (r.ok()) {
          ASSERT_FALSE(reference.empty())
              << "dequeued from empty queue; reproducing seed: " << seed;
          EXPECT_EQ(*r, reference.front()) << "reproducing seed: " << seed;
          reference.pop_front();
        }
      }
    }
    disk.fault_injector()->ClearAll();
    // Reopen: flush every dirty frame, then rebuild the pool and queue
    // over the same disk, as after a process restart.
    ASSERT_TRUE(pool->FlushAll().ok());
    queue.reset();
    pool = std::make_unique<BufferPool>(&disk, 4);
    queue = std::make_unique<TableQueue>(pool.get(), *meta);
    ASSERT_TRUE(queue->Size().ok()) << "reproducing seed: " << seed;
    EXPECT_EQ(*queue->Size(), reference.size())
        << "reproducing seed: " << seed;
    while (!reference.empty()) {
      auto r = queue->Dequeue();
      ASSERT_TRUE(r.ok()) << "lost record; reproducing seed: " << seed;
      EXPECT_EQ(*r, reference.front()) << "reproducing seed: " << seed;
      reference.pop_front();
    }
    EXPECT_TRUE(queue->Empty()) << "duplicate records; reproducing seed: "
                                << seed;
  }
}

}  // namespace
}  // namespace tman

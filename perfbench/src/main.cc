// End-to-end trigger benchmark: drives TriggerManager in one process over a
// named workload and prints one JSON result line. See perfbench/README.md.
//
//   trigger_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Phases, each on its own freshly set-up engine fed one pre-generated stream:
//   closed  one submitter + (nproc - 1) drivers, bounded in-flight window
//   single  SubmitUpdateBatch + ProcessPending per batch on one thread
//   open    the stream's prefix at a fixed offered rate; submit->fire
//           latency and ack time
// Each phase's stream is cut into segments, and the phases run interleaved
// in rounds of one segment each. A phase's timings are medians over its
// calm segments, those the hypervisor stole least CPU time from. Setup and
// recovery samples (reopens of a crashed engine's database) are taken
// between rounds; --trace 1 adds the per-layer replays of layers.cc.

#include <malloc.h>
#include <sched.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/trigger_manager.h"
#include "expr/eval.h"
#include "perfbench/src/firing_log.h"
#include "perfbench/src/layers.h"
#include "perfbench/src/workload.h"
#include "util/logging.h"

namespace perfbench {
namespace {

using tman::Status;
using tman::TriggerManager;

constexpr size_t kOracleTokens = 48;
// Each phase's stream is timed in this many equal segments, which is also
// the number of rounds the phases interleave in. A timing is the median over
// the phase's kCalmSegments segments the hypervisor stole least CPU time
// from (ties all kept): on a shared host, stolen time slows a segment by
// far more than its share, most of all with every CPU busy.
constexpr size_t kSegments = 30;
constexpr size_t kCalmSegments = kSegments / 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "trigger_bench: %s\n", msg.c_str());
  std::exit(2);
}

void Check(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else {
      Die("unknown argument " + key);
    }
  }
  if (argc % 2 != 1) Die("arguments come in --key value pairs");
  if (FindWorkload(a.workload) == nullptr) {
    Die("unknown workload '" + a.workload + "'");
  }
  if (a.seconds < 1 || a.seconds > 600) Die("--seconds out of range");
  return a;
}

/// The CPUs this process may run on, as `nproc` counts them.
const std::vector<int>& Cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    if (out.empty()) out.push_back(0);
    return out;
  }();
  return cpus;
}

/// nproc - 1 drivers beside the submitter, at least one.
uint32_t Drivers() {
  return static_cast<uint32_t>(std::max<size_t>(2, Cpus().size()) - 1);
}

/// Pins the calling thread to the `index`-th allowed CPU.
void PinSelf(size_t index) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Cpus()[index % Cpus().size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Pins each started driver to its own CPU, leaving the first to the
/// submitter. Left to the scheduler, drivers woken by the submitter were
/// seen stacked on its CPU for up to a second on a 4-vCPU host, which made
/// closed-loop throughput bimodal. One blocking task per driver, pushed one
/// at a time, makes each driver pin itself.
void PinDrivers(TriggerManager& tm) {
  if (Cpus().size() < 2) return;
  std::mutex mu;
  std::condition_variable cv;
  unsigned arrived = 0;
  bool release = false;
  for (unsigned d = 0; d < Drivers(); ++d) {
    tman::Task task;
    task.work = [&, d]() {
      PinSelf(1 + d);
      std::unique_lock<std::mutex> lock(mu);
      ++arrived;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
      return Status::OK();
    };
    tm.task_queue().Push(std::move(task));
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return arrived == d + 1; });
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  tm.Drain();
}

tman::TriggerManagerOptions OptionsFor(const WorkloadSpec& spec) {
  tman::TriggerManagerOptions o;
  o.persistent_queue = spec.durable;
  o.durable_wal = spec.durable;
  o.driver_config.num_drivers = Drivers();
  return o;
}

/// Per-CPU steal time so far in ms, indexed like Cpus(): time in which the
/// hypervisor ran something else while the CPU had work of this machine.
std::vector<double> StealMs() {
  static const double ms_per_tick =
      1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  std::vector<double> out(Cpus().size(), 0.0);
  std::ifstream stat("/proc/stat");
  std::string line;
  while (std::getline(stat, line)) {
    // cpuN user nice system idle iowait irq softirq steal ...
    int cpu = -1;
    unsigned long long f[8] = {};
    if (line.rfind("cpu", 0) != 0 || line[3] == ' ' ||
        std::sscanf(line.c_str(),
                    "cpu%d %llu %llu %llu %llu %llu %llu %llu %llu", &cpu,
                    &f[0], &f[1], &f[2], &f[3], &f[4], &f[5], &f[6],
                    &f[7]) != 9) {
      continue;
    }
    for (size_t i = 0; i < Cpus().size(); ++i) {
      if (Cpus()[i] == cpu) out[i] = static_cast<double>(f[7]) * ms_per_tick;
    }
  }
  return out;
}

/// Share of `cpus` (indices into Cpus()) stolen between two StealMs()
/// readings `ns` apart.
double StealShare(const std::vector<double>& before,
                  const std::vector<double>& after,
                  const std::vector<size_t>& cpus, int64_t ns) {
  double ms = 0;
  for (size_t c : cpus) ms += after[c] - before[c];
  return ms * 1e6 /
         (static_cast<double>(ns) * static_cast<double>(cpus.size()));
}

std::vector<size_t> AllCpus() {
  std::vector<size_t> out(Cpus().size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = i;
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[static_cast<size_t>(q * static_cast<double>(v.size() - 1))];
}

/// The median of per-segment `values` over the calm segments: those whose
/// share stolen (`steal`, same index) is at most the kCalmSegments-th
/// smallest. The choice is made on steal alone, never on the values.
double CalmMedian(const std::vector<double>& values,
                  const std::vector<double>& steal) {
  if (values.size() != steal.size()) Die("segment counts differ");
  std::vector<double> order = steal;
  std::sort(order.begin(), order.end());
  const double limit = order[std::min(kCalmSegments, order.size()) - 1];
  std::vector<double> calm;
  for (size_t i = 0; i < values.size(); ++i) {
    if (steal[i] <= limit) calm.push_back(values[i]);
  }
  return Median(calm);
}

/// One engine: its database, the manager over it, and how long installing
/// the trigger population took.
struct Engine {
  std::unique_ptr<tman::Database> db;
  std::unique_ptr<TriggerManager> tm;
  double setup_s = 0;
};

/// A fresh, empty engine with the stream sources defined; `sources` (if
/// given) receives their ids. Every fresh engine assigns the same ids; were
/// it not so, the firing digests would not match.
Engine NewEngine(const WorkloadSpec& spec, Sources* sources = nullptr) {
  Engine e;
  e.db = std::make_unique<tman::Database>();
  e.tm = std::make_unique<TriggerManager>(e.db.get(), OptionsFor(spec));
  Check(e.tm->Open(), "open");
  auto q = e.tm->DefineStreamSource("quotes", QuoteSchema());
  auto o = e.tm->DefineStreamSource("orders", RowSchema());
  auto f = e.tm->DefineStreamSource("fills", RowSchema());
  if (!q.ok() || !o.ok() || !f.ok()) Die("could not define the sources");
  if (sources != nullptr) *sources = {*q, *o, *f};
  return e;
}

/// Installs the whole population on `e`, timed, and if `preload` processes
/// the preload batches.
void Install(Engine& e, const Inputs& in, bool preload = true) {
  const int64_t t0 = NowNs();
  for (const std::string& text : in.creates) {
    Check(e.tm->ExecuteCommand(text).status(), text);
  }
  e.setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  for (size_t i = 0; preload && i < in.preload.size(); ++i) {
    const Batch& b = in.preload[i];
    Check(e.tm->SubmitUpdateBatch(b), "preload submit");
    Check(e.tm->ProcessPending(), "preload process");
  }
}

Engine Build(const WorkloadSpec& spec, const Inputs& in, bool preload = true) {
  Engine e = NewEngine(spec);
  Install(e, in, preload);
  return e;
}

/// Counters read before and after a phase.
struct Snapshot {
  tman::TriggerManagerStats engine;
  tman::TaskQueueStats queue;
};

Snapshot Take(TriggerManager& tm) {
  return {tm.stats(), tm.task_queue().stats()};
}

struct PhaseResult {
  double seconds = 0;
  std::vector<double> segment_rates;  // tokens/s per stream segment
  std::vector<double> segment_steal;  // share of the phase's CPUs stolen
  uint64_t failed_submits = 0;
  uint64_t interpreter_calls = 0;  // single phase only
  FiringSummary firings;
  Snapshot before, after;
  // Open loop only: per segment, median ack and generator lateness.
  std::vector<double> ack_p50_us, late_p50_us, late_p90_us;
};

/// [first, end) of `batches` batches: segment `i` of kSegments.
std::pair<size_t, size_t> Segment(size_t batches, size_t i) {
  return {i * batches / kSegments, (i + 1) * batches / kSegments};
}

uint64_t Submit(TriggerManager& tm, const Batch& b) {
  std::vector<Status> per_update;
  tm.SubmitUpdateBatch(b, &per_update);
  uint64_t failed = 0;
  for (const Status& s : per_update) failed += s.ok() ? 0 : 1;
  return failed + (b.size() - std::min(b.size(), per_update.size()));
}

/// Blocks (sleeping, never spinning) while the engine holds at least
/// `window` queued or running tasks.
void WaitForWindow(TriggerManager& tm, size_t window) {
  tman::TaskQueue& q = tm.task_queue();
  while (q.size() + q.in_flight() >= window) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
}

/// An engine crashed and reopened: the manager opened over its database.
struct Recovered {
  std::unique_ptr<tman::Database> db;
  std::unique_ptr<TriggerManager> tm;
  double setup_s = 0;
  std::vector<double> recovery_s;  // each timed reopening Open()
};

/// Timed reopens of each crashed memory-workload database. Such a reopen
/// only reads the catalog, so it repeats; a durable reopen stages the
/// replayed backlog and runs once per crash.
constexpr int kMemoryReopens = 2;

/// Installs the population on a fresh engine (timed), stages the backlog
/// with processing paused after a checkpoint that leaves the WAL holding
/// nothing else, and destroys the manager without Stop/Drain; then times
/// Open() of a new manager over the database. The durable reopen replays
/// the backlog from the WAL; a memory workload has no backlog, and its
/// reopen reloads the catalog. Each sample crashes a fresh database, so
/// every Open() does the same work; `tm` is the last reopened manager.
Recovered CrashAndRecover(const WorkloadSpec& spec, const Inputs& in) {
  Engine e = Build(spec, in, /*preload=*/false);
  if (spec.durable) Check(e.tm->CheckpointWal(), "checkpoint");
  e.tm->PauseProcessing();
  for (const Batch& b : in.backlog) {
    Check(e.tm->SubmitUpdateBatch(b), "backlog");
  }
  e.tm.reset();
  Recovered r{std::move(e.db), nullptr, e.setup_s, {}};
  for (int i = 0; i < (spec.durable ? 1 : kMemoryReopens); ++i) {
    r.tm.reset();
    r.tm = std::make_unique<TriggerManager>(r.db.get(), OptionsFor(spec));
    const int64_t t0 = NowNs();
    Check(r.tm->Open(), "reopen");
    r.recovery_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return r;
}

/// Takes the setup_s and recovery_s samples of each CrashAndRecover. Host
/// speed here drifts by a fifth over seconds, so the crashes are spread
/// over the run: one at the start, then one every `sample_every` rounds,
/// taken between rounds while every phase engine is idle.
class Sampler {
 public:
  Sampler(const WorkloadSpec& spec, const Inputs& in) : spec_(spec), in_(in) {
    Take();
  }

  /// After `done` rounds. Samples run on the done-th CPU in turn, then the
  /// submitter returns to the first.
  void AtBoundary(size_t done) {
    if (done % static_cast<size_t>(spec_.sample_every) != 0) return;
    PinSelf(done);
    Take();
    PinSelf(0);
  }

  std::vector<double> setups, recoveries;

 private:
  void Take() {
    const Recovered r = CrashAndRecover(spec_, in_);
    setups.push_back(r.setup_s);
    recoveries.insert(recoveries.end(), r.recovery_s.begin(),
                      r.recovery_s.end());
  }

  const WorkloadSpec& spec_;
  const Inputs& in_;
};

/// Closed loop, segment `s`: fills the window, runs and drains, so its rate
/// is its tokens over its time, unskewed by work carried between segments.
void ClosedSegment(const WorkloadSpec& spec, const Inputs& in,
                   TriggerManager& tm, size_t s, PhaseResult* r) {
  const auto [first, end] = Segment(in.stream.size(), s);
  const std::vector<double> steal0 = StealMs();
  const int64_t t0 = NowNs();
  size_t tokens = 0;
  for (size_t i = first; i < end; ++i) {
    WaitForWindow(tm, spec.window_tasks);
    r->failed_submits += Submit(tm, in.stream[i]);
    tokens += in.stream[i].size();
  }
  tm.Drain();
  const int64_t ns = std::max<int64_t>(1, NowNs() - t0);
  r->segment_steal.push_back(StealShare(steal0, StealMs(), AllCpus(), ns));
  r->seconds += static_cast<double>(ns) / 1e9;
  r->segment_rates.push_back(static_cast<double>(tokens) * 1e9 /
                             static_cast<double>(ns));
}

/// Single thread, segment `s`: SubmitUpdateBatch then ProcessPending.
void SingleSegment(const Inputs& in, TriggerManager& tm, size_t s,
                   PhaseResult* r) {
  // Each CPU's speed drifts on its own over minutes; segments rotate over
  // the CPUs so no single one sets the median.
  PinSelf(s);
  const auto [first, end] = Segment(in.stream.size(), s);
  // Every other engine is idle: the calls are this engine's.
  const uint64_t calls = tman::InterpreterEvalCalls();
  const std::vector<double> steal0 = StealMs();
  const int64_t t0 = NowNs();
  size_t tokens = 0;
  for (size_t i = first; i < end; ++i) {
    r->failed_submits += Submit(tm, in.stream[i]);
    Check(tm.ProcessPending(), "process");
    tokens += in.stream[i].size();
  }
  const int64_t ns = std::max<int64_t>(1, NowNs() - t0);
  r->segment_steal.push_back(
      StealShare(steal0, StealMs(), {s % Cpus().size()}, ns));
  r->interpreter_calls += tman::InterpreterEvalCalls() - calls;
  PinSelf(0);
  r->seconds += static_cast<double>(ns) / 1e9;
  r->segment_rates.push_back(static_cast<double>(tokens) * 1e9 /
                             static_cast<double>(ns));
}

/// Open loop, segment `s` of the stream's prefix: each batch is due at a
/// fixed offset from the segment's start, and its hand-off time goes to
/// `handoff` for the firing log.
void OpenSegment(const WorkloadSpec& spec, const Inputs& in,
                 TriggerManager& tm, size_t s,
                 std::vector<std::atomic<int64_t>>* handoff, PhaseResult* r) {
  const double period_ns =
      static_cast<double>(kBatchTokens) * 1e9 / spec.offered_rate;
  const auto [first, end] = Segment(in.open_batches, s);
  std::vector<double> ack_us, late_us;
  const std::vector<double> steal0 = StealMs();
  const auto start =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
  const int64_t start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               start.time_since_epoch())
                               .count();
  for (size_t i = first; i < end; ++i) {
    const int64_t offset =
        static_cast<int64_t>(static_cast<double>(i - first) * period_ns);
    std::this_thread::sleep_until(start + std::chrono::nanoseconds(offset));
    const int64_t handed = NowNs();
    (*handoff)[i].store(handed, std::memory_order_relaxed);
    r->failed_submits += Submit(tm, in.stream[i]);
    const int64_t acked = NowNs();
    late_us.push_back(static_cast<double>(handed - start_ns - offset) / 1e3);
    ack_us.push_back(static_cast<double>(acked - handed) / 1e3);
  }
  tm.Drain();
  const int64_t ns = std::max<int64_t>(1, NowNs() - start_ns);
  r->segment_steal.push_back(StealShare(steal0, StealMs(), AllCpus(), ns));
  r->seconds += static_cast<double>(ns) / 1e9;
  r->ack_p50_us.push_back(Median(ack_us));
  r->late_p50_us.push_back(Median(late_us));
  r->late_p90_us.push_back(Quantile(late_us, 0.9));
}

/// Tokens in `in` picked for the interpreter oracle: quotes spread evenly
/// over the prefix every phase processes.
std::set<int64_t> OracleSample(const Inputs& in) {
  std::set<int64_t> ids;
  if (in.selections.empty()) return ids;
  const size_t tokens = in.open_batches * kBatchTokens;
  const size_t stride = std::max<size_t>(1, tokens / kOracleTokens);
  for (size_t i = 0; i < tokens && ids.size() < kOracleTokens; i += stride) {
    for (size_t j = i; j < tokens && j < i + stride; ++j) {
      const tman::UpdateDescriptor& t =
          in.stream[j / kBatchTokens][j % kBatchTokens];
      if (t.data_source == in.sources.quotes) {
        ids.insert(static_cast<int64_t>(j));
        break;
      }
    }
  }
  return ids;
}

/// The brute-force interpreter's (token id, trigger) pairs for the sample.
std::vector<std::pair<int64_t, int64_t>> OracleFirings(
    const Inputs& in, const std::set<int64_t>& sample) {
  tman::bench::NaiveTester naive(QuoteSchema());
  for (const SelectionTrigger& t : in.selections) {
    naive.Add(static_cast<tman::TriggerId>(t.number),
              tman::OpCode::kInsertOrUpdate,
              tman::bench::MustParse(t.condition));
  }
  std::vector<std::pair<int64_t, int64_t>> out;
  std::vector<tman::TriggerId> ids;
  for (int64_t id : sample) {
    ids.clear();
    const size_t i = static_cast<size_t>(id);
    naive.Match(in.stream[i / kBatchTokens][i % kBatchTokens], &ids);
    for (tman::TriggerId t : ids) {
      out.emplace_back(id, static_cast<int64_t>(t));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Sampled tokens whose firings differ from the oracle's.
uint64_t OracleMismatches(const std::vector<std::pair<int64_t, int64_t>>& want,
                          const std::vector<std::pair<int64_t, int64_t>>& got,
                          const std::set<int64_t>& sample) {
  std::map<int64_t, std::vector<int64_t>> w, g;
  for (const auto& [id, t] : want) w[id].push_back(t);
  for (const auto& [id, t] : got) g[id].push_back(t);
  uint64_t bad = 0;
  for (int64_t id : sample) bad += w[id] == g[id] ? 0 : 1;
  return bad;
}

/// A "Vm...:" line of /proc/self/status, in MB.
double StatusMb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::strtod(line.c_str() + key.size() + 1, nullptr) / 1024.0;
    }
  }
  Die("no " + key + " in /proc/self/status");
}

/// Resident set size of the process, after returning freed heap pages to
/// the system so that the reading counts live memory only.
double VmRssMb() {
  malloc_trim(0);
  return StatusMb("VmRSS");
}

std::string Json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, ",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value);
    out += buf;
    out += "\"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

/// Per-layer metrics read from the engine's own counters over one phase.
void PhaseLayers(const PhaseResult& closed, const PhaseResult& single,
                 double tokens, std::vector<Metric>* out) {
  const auto& b = closed.before.engine;
  const auto& a = closed.after.engine;
  const uint64_t hits = a.cache.hits - b.cache.hits;
  const uint64_t misses = a.cache.misses - b.cache.misses;
  out->push_back({"cache.hit_ratio", Ratio(hits, hits + misses), "ratio"});
  out->push_back({"cache.evictions_per_token",
                  static_cast<double>(a.cache.evictions - b.cache.evictions) /
                      tokens,
                  "count"});
  out->push_back({"wal.syncs_per_commit",
                  Ratio(a.wal.sync_rounds - b.wal.sync_rounds,
                        a.wal.commit_calls - b.wal.commit_calls),
                  "count"});
  out->push_back({"wal.checkpoints",
                  static_cast<double>(a.wal.truncations - b.wal.truncations),
                  "count"});
  const auto& qb = closed.before.queue;
  const auto& qa = closed.after.queue;
  out->push_back({"runtime.tasks_per_token",
                  static_cast<double>(qa.pushed - qb.pushed) / tokens,
                  "count"});
  out->push_back({"runtime.steals_per_task",
                  Ratio(qa.steals - qb.steals, qa.popped - qb.popped),
                  "ratio"});
  out->push_back({"runtime.queue_depth_max",
                  static_cast<double>(qa.max_size), "count"});
  auto stage = [&](tman::Stage s) {
    tman::StageSnapshot d = a.stages.stage(s);
    const tman::StageSnapshot& x = b.stages.stage(s);
    d.items -= x.items;
    d.total_ns -= x.total_ns;
    d.batches -= x.batches;
    return d;
  };
  const tman::StageSnapshot maintain = stage(tman::Stage::kMaintain);
  const tman::StageSnapshot match = stage(tman::Stage::kMatch);
  const tman::StageSnapshot fire = stage(tman::Stage::kFire);
  out->push_back({"stage.maintain_ns_per_token",
                  Ratio(maintain.total_ns, maintain.items), "ns"});
  // kFire spans nest inside kMatch spans.
  out->push_back({"stage.match_excl_ns_per_token",
                  Ratio(match.total_ns - std::min(match.total_ns,
                                                  fire.total_ns),
                        match.items),
                  "ns"});
  out->push_back(
      {"stage.fire_ns_per_firing", Ratio(fire.total_ns, fire.items), "ns"});
  out->push_back({"actions.firings_per_token",
                  static_cast<double>(a.actions.events_raised -
                                      b.actions.events_raised) /
                      tokens,
                  "count"});
  // The single-threaded phase: its cache behaviour, and so any trigger
  // reload that parses, is the same on every run.
  out->push_back({"expr.interpreter_calls",
                  static_cast<double>(single.interpreter_calls), "count"});
}

int Run(const Args& args) {
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  tman::SetLogLevel(tman::LogLevel::kError);
  PinSelf(0);  // the submitter; drivers get the other CPUs
  // The default 50 us timer slack would make every paced wake-up late.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  // The closed phase's engine comes first: the inputs are generated for the
  // source ids it assigns.
  Sources sources;
  Engine first = NewEngine(spec, &sources);
  const int64_t gen0 = NowNs();
  Inputs in = Generate(spec, args.seed, args.seconds, sources);
  if (spec.aggregate_triggers > 0 &&
      in.min_steady_group_count < 2 * int64_t{kHavingCount}) {
    Die("aggregate groups fall near their threshold; fix the workload");
  }
  const std::set<int64_t> sample = OracleSample(in);
  std::fprintf(stderr, "generated %zu stream tokens in %.2f s\n",
               in.stream_tokens, static_cast<double>(NowNs() - gen0) / 1e9);

  // Each phase's engine registers its own consumer; the logs outlive the
  // engines.
  std::vector<std::atomic<int64_t>> handoff(in.open_batches);
  FiringLog closed_log(&sample, in.open_batches);
  FiringLog single_log(&sample, in.open_batches);
  FiringLog open_log(&sample, in.open_batches, &handoff, kSegments);
  std::vector<double> setups;  // the phase engines', then the sampler's
  auto install = [&](Engine& e, FiringLog& log, size_t cpu) {
    PinSelf(cpu);  // spread the setup samples over the CPUs
    Install(e, in);
    PinSelf(0);
    setups.push_back(e.setup_s);
    e.tm->events().Register(
        "*", [&log](const tman::Event& ev) { log.OnEvent(ev); });
  };
  // rss_mb is what the closed phase's engine adds to the process by
  // installing the population and the preload, read before any other
  // engine exists.
  const double rss0 = VmRssMb();
  Engine closed_engine = std::move(first);
  install(closed_engine, closed_log, 1);
  const double rss_mb = VmRssMb() - rss0;
  Engine single_engine = NewEngine(spec);
  install(single_engine, single_log, 2);
  Engine open_engine = NewEngine(spec);
  install(open_engine, open_log, 3);
  Sampler sampler(spec, in);
  TriggerManager& closed_tm = *closed_engine.tm;
  TriggerManager& single_tm = *single_engine.tm;
  TriggerManager& open_tm = *open_engine.tm;
  for (TriggerManager* tm : {&closed_tm, &open_tm}) {
    Check(tm->Start(), "start");
    PinDrivers(*tm);
  }

  // The phases run interleaved: round s runs segment s of each phase, and
  // the sampler may crash and recover an engine after it. A slow spell of
  // the host then spoils a few segments of every phase, which the segment
  // medians absorb, rather than the whole of one phase.
  PhaseResult closed, single, open;
  closed.before = Take(closed_tm);
  single.before = Take(single_tm);
  open.before = Take(open_tm);
  for (size_t s = 0; s < kSegments; ++s) {
    ClosedSegment(spec, in, closed_tm, s, &closed);
    SingleSegment(in, single_tm, s, &single);
    OpenSegment(spec, in, open_tm, s, &handoff, &open);
    if (s + 1 < kSegments) sampler.AtBoundary(s + 1);
  }
  closed.after = Take(closed_tm);
  single.after = Take(single_tm);
  open.after = Take(open_tm);
  closed.firings = closed_log.Collect();
  single.firings = single_log.Collect();
  open.firings = open_log.Collect();
  setups.insert(setups.end(), sampler.setups.begin(), sampler.setups.end());
  const std::vector<double>& recoveries = sampler.recoveries;
  std::fprintf(stderr,
               "phases: closed %.2f s, single %.2f s, open %.2f s; "
               "process peak RSS %.0f MB\n",
               closed.seconds, single.seconds, open.seconds,
               StatusMb("VmHWM"));
  std::fprintf(stderr, "setup s:");
  for (double v : setups) std::fprintf(stderr, " %.4f", v);
  std::fprintf(stderr, "\nrecovery s:");
  for (double v : recoveries) std::fprintf(stderr, " %.4f", v);
  std::fprintf(stderr, "\n");
  for (const PhaseResult* p : {&closed, &single}) {
    std::fprintf(stderr, "%s segment tokens/s:",
                 p == &closed ? "closed" : "single");
    for (double r : p->segment_rates) std::fprintf(stderr, " %.0f", r);
    std::fprintf(stderr, "\n");
  }
  for (const PhaseResult* p : {&closed, &single, &open}) {
    std::fprintf(stderr, "%s segment steal %%:",
                 p == &closed ? "closed" : p == &single ? "single" : "open");
    for (double v : p->segment_steal) std::fprintf(stderr, " %.1f", 100 * v);
    std::fprintf(stderr, "; median %.1f, over calm segments %.1f\n",
                 100 * Median(p->segment_steal),
                 100 * CalmMedian(p->segment_steal, p->segment_steal));
  }

  // --- correctness ------------------------------------------------------------
  bool correct = true;
  uint64_t failed =
      closed.failed_submits + single.failed_submits + open.failed_submits;
  const PhaseResult* phases[] = {&closed, &single, &open};
  const char* names[] = {"closed", "single", "open"};
  auto mismatch = [&](const char* what, uint64_t want_digest,
                      uint64_t want_firings, uint64_t got_digest,
                      uint64_t got_firings) {
    if (want_digest == got_digest && want_firings == got_firings) return;
    std::fprintf(stderr, "firing digest mismatch: %s\n", what);
    correct = false;
    failed += std::max<uint64_t>(1, want_firings > got_firings
                                        ? want_firings - got_firings
                                        : got_firings - want_firings);
  };
  for (int i = 0; i < 3; ++i) {
    const FiringSummary& f = phases[i]->firings;
    std::fprintf(stderr,
                 "%s: digest %016" PRIx64 " prefix %016" PRIx64
                 " selection %" PRIu64 " join %" PRIu64 " aggregate %" PRIu64
                 "\n",
                 names[i], f.digest, f.prefix_digest, f.selection_firings,
                 f.join_firings, f.aggregate_firings);
    if (f.malformed > 0) {
      correct = false;
      failed += f.malformed;
    }
    if (f.prefix_firings == 0) correct = false;
  }
  // Closed and single-thread phases take the whole stream, the open loop
  // its prefix.
  mismatch("single vs closed", closed.firings.digest, closed.firings.firings(),
           single.firings.digest, single.firings.firings());
  for (const PhaseResult* p : {&single, &open}) {
    mismatch(p == &open ? "open prefix vs closed" : "single prefix vs closed",
             closed.firings.prefix_digest, closed.firings.prefix_firings,
             p->firings.prefix_digest, p->firings.prefix_firings);
  }
  const auto want = OracleFirings(in, sample);
  for (int i = 0; i < 3; ++i) {
    uint64_t bad = OracleMismatches(want, phases[i]->firings.sampled, sample);
    if (bad > 0) {
      std::fprintf(stderr, "%s: %" PRIu64 " of %zu sampled tokens differ "
                   "from the interpreter oracle\n", names[i], bad,
                   sample.size());
      correct = false;
      failed += bad;
    }
  }

  // --- results -----------------------------------------------------------------
  const double tokens = static_cast<double>(in.stream_tokens);
  const FiringSummary& lat = open.firings;
  uint64_t latency_samples = 0;
  std::vector<double> fire_p50, fire_p90, all;
  for (const std::vector<int64_t>& segment : lat.latency_ns) {
    std::vector<double> us;
    for (int64_t ns : segment) us.push_back(static_cast<double>(ns) / 1e3);
    latency_samples += us.size();
    fire_p50.push_back(Median(us));
    fire_p90.push_back(Quantile(us, 0.9));
    all.insert(all.end(), us.begin(), us.end());
  }
  std::fprintf(stderr, "open loop: whole-phase p50 %.1f us p90 %.1f us; "
               "segment p90s:", Median(all), Quantile(all, 0.9));
  for (double v : fire_p90) std::fprintf(stderr, " %.0f", v);
  std::fprintf(stderr, "\n");
  std::printf(
      "settings {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %d, \"nproc\": %zu, \"drivers\": %u, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"offered_rate\": %.0f, "
      "\"stream_tokens\": %zu, \"window_tasks\": %zu, "
      "\"latency_samples\": %" PRIu64 ", \"oracle_tokens\": %zu, "
      "\"segments\": %zu, \"calm_segments\": %zu, "
      "\"steal_pct\": [%.1f, %.1f, %.1f]}\n",
      spec.name.c_str(), args.seed, args.seconds,
      Cpus().size(), Drivers(), PERFBENCH_BUILD_TYPE,
      __VERSION__, spec.offered_rate, in.stream_tokens, spec.window_tasks,
      latency_samples, sample.size(), kSegments, kCalmSegments,
      100 * Median(closed.segment_steal), 100 * Median(single.segment_steal),
      100 * Median(open.segment_steal));

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"tokens_per_s", CalmMedian(closed.segment_rates, closed.segment_steal),
         "1/s"},
        {"tokens_per_s_1d",
         CalmMedian(single.segment_rates, single.segment_steal), "1/s"},
        {"fire_p50_us", CalmMedian(fire_p50, open.segment_steal), "us"},
        {"fire_p90_us", CalmMedian(fire_p90, open.segment_steal), "us"},
        {"ack_p50_us", CalmMedian(open.ack_p50_us, open.segment_steal), "us"},
        {"setup_s", Median(setups), "s"},
        {"recovery_s", Median(recoveries), "s"},
        {"rss_mb", rss_mb, "MB"},
    };
  } else {
    PhaseLayers(closed, single, tokens, &metrics);
    const Recovered recovered = CrashAndRecover(spec, in);
    TraceLayers(in, recovered.tm.get(), &metrics);
    metrics.push_back({"core.install_us",
                       Median(setups) * 1e6 /
                           static_cast<double>(in.creates.size()),
                       "us"});
    metrics.push_back(
        {"core.recovered_tokens",
         static_cast<double>(recovered.tm->last_recovery().tokens_replayed),
         "count"});
    metrics.push_back(
        {"harness.gen_late_p50_us",
         CalmMedian(open.late_p50_us, open.segment_steal), "us"});
    metrics.push_back(
        {"harness.gen_late_p90_us",
         CalmMedian(open.late_p90_us, open.segment_steal), "us"});
  }
  const uint64_t attempted =
      2 * in.stream_tokens + in.open_batches * kBatchTokens;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              Json(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "trigger_bench: refusing to run an assert-enabled "
                       "build; configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "trigger_bench: build type is %s, not Release; "
                         "numbers from it are not reported\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}

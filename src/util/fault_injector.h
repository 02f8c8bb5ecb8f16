#ifndef TRIGGERMAN_UTIL_FAULT_INJECTOR_H_
#define TRIGGERMAN_UTIL_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "util/random.h"
#include "util/status.h"

namespace tman {

/// Per-site counters: how often a site was checked and how often it
/// returned an injected fault.
struct FaultSiteStats {
  uint64_t checks = 0;
  uint64_t faults = 0;
};

/// Unified fault-injection registry for failure-path testing. Fallible
/// code calls `Check("<layer>.<operation>")` at its fault sites; tests arm
/// faults against exact site names or `prefix.*` patterns. Four trigger
/// modes cover the common failure shapes:
///
///   * countdown    — the next N matching checks succeed, then every
///                    check fails until cleared (the crash point);
///   * one-shot     — the next N matching checks succeed, the one after
///                    fails, and the arm then clears itself (a single
///                    transient fault that a retry gets past);
///   * every-Nth    — every Nth matching check fails (periodic flakiness);
///   * probability  — each matching check fails with seeded probability p
///                    (random storms that replay exactly by seed).
///
/// Canonical site names used across the library:
///
///   disk.read / disk.write /
///   disk.write.short / disk.sync       DiskManager page I/O (".short"
///                                      tears the write: a prefix lands)
///   buffer.fetch / buffer.new /
///   buffer.flush                       BufferPool entry points
///   table_queue.push / .push.meta /
///   table_queue.pop / .pop.meta        TableQueue, before and after the
///                                      record mutation (mid-operation)
///   wal.append / wal.write /
///   wal.fsync / wal.truncate           write-ahead log (storage/wal.h)
///   executor.task                      task execution in TmanTest/drivers
///
/// Components register their site names on construction (RegisterSite),
/// so a test can enumerate every crash point a storage stack exposes and
/// systematically kill-and-recover at each one (crash_recovery_test).
///
/// The unarmed fast path is one relaxed atomic load; arming is rare and
/// fully mutex-protected, so sites may be checked from any thread.
class FaultInjector {
 public:
  FaultInjector() = default;

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arms `pattern` so the next `after_hits` matching checks succeed and
  /// every later one fails with `code`.
  void ArmCountdown(std::string pattern, uint64_t after_hits,
                    StatusCode code = StatusCode::kIoError);

  /// Arms `pattern` so the next `after_hits` matching checks succeed, the
  /// one after fails with `code`, and the arm then disarms itself.
  void ArmOnce(std::string pattern, uint64_t after_hits = 0,
               StatusCode code = StatusCode::kIoError);

  /// Arms `pattern` so every `n`th matching check fails (n >= 1; n == 1
  /// fails every check).
  void ArmEveryNth(std::string pattern, uint64_t n,
                   StatusCode code = StatusCode::kIoError);

  /// Arms `pattern` so each matching check fails with probability `p`,
  /// drawn from a PRNG seeded with `seed` (same seed, same failures).
  void ArmProbability(std::string pattern, double p, uint64_t seed,
                      StatusCode code = StatusCode::kIoError);

  /// Called by instrumented code at a fault site. Returns OK when no armed
  /// fault matches or the armed fault does not trip on this hit.
  Status Check(std::string_view site);

  /// Disarms one pattern (as passed to an Arm call) / every pattern.
  void Clear(std::string_view pattern);
  void ClearAll();

  /// True when any fault is armed (sites stop recording stats when not).
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Declares a site name this injector's instrumented components check.
  /// Idempotent; called from component constructors.
  void RegisterSite(std::string_view site);

  /// Every site declared via RegisterSite, sorted (the crash-test
  /// enumeration contract: arming each of these names in turn covers
  /// every instrumented crash point of the attached storage stack).
  std::vector<std::string> RegisteredSites() const;

  /// Stats for one check-site name (zeroes when never checked while armed).
  FaultSiteStats site_stats(std::string_view site) const;

  /// Total injected faults across all sites since the last ClearAll.
  uint64_t total_faults() const;

 private:
  struct Arm {
    enum class Mode { kCountdown, kEveryNth, kProbability };
    Mode mode = Mode::kCountdown;
    uint64_t remaining = 0;  // countdown: hits left before tripping
    bool once = false;       // countdown: disarm after the first trip
    uint64_t period = 0;     // every-Nth
    uint64_t hits = 0;       // every-Nth: matching checks so far
    double probability = 0.0;
    Random rng{1};
    StatusCode code = StatusCode::kIoError;
  };

  /// True when `pattern` ("a.b" exact or "a.*" prefix) covers `site`.
  static bool Matches(std::string_view pattern, std::string_view site);

  Status MakeFault(const Arm& arm, std::string_view site,
                   std::string_view pattern) const;

  mutable std::mutex mutex_;
  std::map<std::string, Arm, std::less<>> arms_;
  std::set<std::string, std::less<>> sites_;
  std::map<std::string, FaultSiteStats, std::less<>> stats_;
  uint64_t total_faults_ = 0;
  std::atomic<bool> armed_{false};
};

}  // namespace tman

#endif  // TRIGGERMAN_UTIL_FAULT_INJECTOR_H_

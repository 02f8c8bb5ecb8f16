// The traced pass: per-layer metrics from timed calls into each module's
// public functions, run after the timed phases on the same inputs.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "core/trigger_manager.h"
#include "perfbench/src/workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Replays the workload's inputs through the predicate index and trigger
/// cache of `engine` (a recovered instance holding the whole population)
/// and through standalone Wal, TableQueue, TaskQueue and parser instances.
/// Appends the per-layer metrics those replays measure to `out`.
void TraceLayers(const Inputs& in, tman::TriggerManager* engine,
                 std::vector<Metric>* out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_

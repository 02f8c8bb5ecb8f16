#include "core/trigger_directory.h"

#include <string>

#include "core/firing_plan.h"

namespace tman {

namespace {

Status OutOfRange(const char* what, uint64_t id) {
  return Status::ResourceExhausted(std::string(what) + " id " +
                                   std::to_string(id) +
                                   " exceeds the trigger directory");
}

}  // namespace

Status TriggerDirectory::Install(TriggerId id, uint64_t ts_id, uint32_t kind,
                                 std::shared_ptr<const FiringPlan> plan) {
  if (id >= kCapacity) return OutOfRange("trigger", id);
  if (ts_id >= kCapacity) return OutOfRange("trigger set", ts_id);
  kind &= kAggregate;
  if (plan != nullptr && plan->state != nullptr) {
    const TriggerState& state = *plan->state;
    for (DataSourceId source : state.sources) {
      if (source >= kCapacity) return OutOfRange("data source", source);
    }
    if (state.aggregate.shape != nullptr &&
        state.aggregate.shape->key().source >= kCapacity) {
      return OutOfRange("data source", state.aggregate.shape->key().source);
    }
    CountSources(*plan, +1);
  }
  Slot* slot = slots_.Ensure(id);
  slot->ts_id.store(static_cast<uint32_t>(ts_id), std::memory_order_relaxed);
  slot->plan.store(plan.get(), std::memory_order_release);
  slot->owner = std::move(plan);
  slot->flags.store(kLive | kEnabled | kind, std::memory_order_release);
  return Status::OK();
}

uint32_t TriggerDirectory::Remove(TriggerId id,
                                  std::shared_ptr<const FiringPlan>* plan) {
  Slot* slot = slots_.FindMutable(id);
  if (slot == nullptr) return 0;
  uint32_t flags = slot->flags.exchange(0, std::memory_order_acq_rel);
  slot->plan.store(nullptr, std::memory_order_release);
  if (slot->owner != nullptr && slot->owner->state != nullptr) {
    CountSources(*slot->owner, -1);
  }
  if (plan != nullptr) *plan = std::move(slot->owner);
  slot->owner.reset();
  return flags;
}

void TriggerDirectory::CountSources(const FiringPlan& plan, int delta) {
  auto count = [delta](Counts* counts, DataSourceId source) {
    std::atomic<uint32_t>* n = counts->Ensure(source);
    const uint32_t was = n->load(std::memory_order_relaxed);
    if (delta > 0) {
      n->store(was + 1, std::memory_order_relaxed);
    } else if (was > 0) {
      n->store(was - 1, std::memory_order_relaxed);
    }
  };
  const TriggerState& state = *plan.state;
  for (DataSourceId source : state.sources) {
    count(&maintained_, source);
    count(&stored_, source);
  }
  if (state.aggregate.shape != nullptr) {
    count(&maintained_, state.aggregate.shape->key().source);
  }
}

void TriggerDirectory::SetEnabled(TriggerId id, bool enabled) {
  Slot* slot = slots_.FindMutable(id);
  if (slot == nullptr) return;
  uint32_t flags = slot->flags.load(std::memory_order_relaxed);
  if ((flags & kLive) == 0) return;
  flags = enabled ? (flags | kEnabled) : (flags & ~kEnabled);
  slot->flags.store(flags, std::memory_order_release);
}

Status TriggerDirectory::SetSetEnabled(uint64_t ts_id, bool enabled) {
  std::atomic<bool>* disabled = set_disabled_.Ensure(ts_id);
  if (disabled == nullptr) return OutOfRange("trigger set", ts_id);
  disabled->store(!enabled, std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace tman

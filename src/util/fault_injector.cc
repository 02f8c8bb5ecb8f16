#include "util/fault_injector.h"

namespace tman {

void FaultInjector::ArmCountdown(std::string pattern, uint64_t after_hits,
                                 StatusCode code) {
  std::lock_guard<std::mutex> lock(mutex_);
  Arm arm;
  arm.mode = Arm::Mode::kCountdown;
  arm.remaining = after_hits;
  arm.code = code;
  arms_[std::move(pattern)] = std::move(arm);
  armed_.store(true, std::memory_order_relaxed);
}

void FaultInjector::ArmOnce(std::string pattern, uint64_t after_hits,
                            StatusCode code) {
  std::lock_guard<std::mutex> lock(mutex_);
  Arm arm;
  arm.mode = Arm::Mode::kCountdown;
  arm.remaining = after_hits;
  arm.once = true;
  arm.code = code;
  arms_[std::move(pattern)] = std::move(arm);
  armed_.store(true, std::memory_order_relaxed);
}

void FaultInjector::ArmEveryNth(std::string pattern, uint64_t n,
                                StatusCode code) {
  std::lock_guard<std::mutex> lock(mutex_);
  Arm arm;
  arm.mode = Arm::Mode::kEveryNth;
  arm.period = n == 0 ? 1 : n;
  arm.code = code;
  arms_[std::move(pattern)] = std::move(arm);
  armed_.store(true, std::memory_order_relaxed);
}

void FaultInjector::ArmProbability(std::string pattern, double p,
                                   uint64_t seed, StatusCode code) {
  std::lock_guard<std::mutex> lock(mutex_);
  Arm arm;
  arm.mode = Arm::Mode::kProbability;
  arm.probability = p;
  arm.rng = Random(seed);
  arm.code = code;
  arms_[std::move(pattern)] = std::move(arm);
  armed_.store(true, std::memory_order_relaxed);
}

bool FaultInjector::Matches(std::string_view pattern, std::string_view site) {
  if (pattern.size() >= 1 && pattern.back() == '*') {
    return site.substr(0, pattern.size() - 1) ==
           pattern.substr(0, pattern.size() - 1);
  }
  return pattern == site;
}

Status FaultInjector::MakeFault(const Arm& arm, std::string_view site,
                                std::string_view pattern) const {
  std::string msg = "injected fault at " + std::string(site);
  if (pattern != site) msg += " (pattern " + std::string(pattern) + ")";
  switch (arm.code) {
    case StatusCode::kCorruption:
      return Status::Corruption(std::move(msg));
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(std::move(msg));
    case StatusCode::kAborted:
      return Status::Aborted(std::move(msg));
    case StatusCode::kInternal:
      return Status::Internal(std::move(msg));
    default:
      return Status::IoError(std::move(msg));
  }
}

Status FaultInjector::Check(std::string_view site) {
  if (!armed_.load(std::memory_order_relaxed)) return Status::OK();
  std::lock_guard<std::mutex> lock(mutex_);
  if (arms_.empty()) return Status::OK();
  auto stat_it = stats_.find(site);
  if (stat_it == stats_.end()) {
    stat_it = stats_.emplace(std::string(site), FaultSiteStats()).first;
  }
  ++stat_it->second.checks;
  for (auto it = arms_.begin(); it != arms_.end(); ++it) {
    const std::string& pattern = it->first;
    Arm& arm = it->second;
    if (!Matches(pattern, site)) continue;
    bool trip = false;
    switch (arm.mode) {
      case Arm::Mode::kCountdown:
        if (arm.remaining == 0) {
          trip = true;
        } else {
          --arm.remaining;
        }
        break;
      case Arm::Mode::kEveryNth:
        trip = (++arm.hits % arm.period) == 0;
        break;
      case Arm::Mode::kProbability:
        trip = arm.rng.Bernoulli(arm.probability);
        break;
    }
    if (trip) {
      ++stat_it->second.faults;
      ++total_faults_;
      Status fault = MakeFault(arm, site, pattern);
      if (arm.once) {
        arms_.erase(it);
        if (arms_.empty()) armed_.store(false, std::memory_order_relaxed);
      }
      return fault;
    }
  }
  return Status::OK();
}

void FaultInjector::Clear(std::string_view pattern) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = arms_.find(pattern);
  if (it != arms_.end()) arms_.erase(it);
  if (arms_.empty()) armed_.store(false, std::memory_order_relaxed);
}

void FaultInjector::ClearAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  arms_.clear();
  stats_.clear();
  total_faults_ = 0;
  armed_.store(false, std::memory_order_relaxed);
}

void FaultInjector::RegisterSite(std::string_view site) {
  std::lock_guard<std::mutex> lock(mutex_);
  sites_.emplace(site);
}

std::vector<std::string> FaultInjector::RegisteredSites() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<std::string>(sites_.begin(), sites_.end());
}

FaultSiteStats FaultInjector::site_stats(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = stats_.find(site);
  return it == stats_.end() ? FaultSiteStats() : it->second;
}

uint64_t FaultInjector::total_faults() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_faults_;
}

}  // namespace tman

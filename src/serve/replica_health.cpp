#include "serve/replica_health.h"

#include "common/error.h"

namespace hwp3d::serve {

ReplicaHealth::ReplicaHealth(int replicas, int quarantine_after)
    : quarantine_after_(quarantine_after),
      states_(static_cast<size_t>(replicas)),
      healthy_(replicas) {
  HWP_CHECK_MSG(replicas >= 1, "ReplicaHealth needs at least one replica");
  HWP_CHECK_MSG(quarantine_after >= 1, "quarantine_after must be >= 1");
}

void ReplicaHealth::RecordSuccess(int replica) {
  std::lock_guard<std::mutex> lk(mu_);
  states_[static_cast<size_t>(replica)].consecutive_failures = 0;
}

bool ReplicaHealth::RecordFailure(int replica) {
  std::lock_guard<std::mutex> lk(mu_);
  State& s = states_[static_cast<size_t>(replica)];
  if (s.quarantined) return false;
  ++s.consecutive_failures;
  if (s.consecutive_failures < quarantine_after_) return false;
  if (healthy_ <= 1) return false;  // never quarantine the last replica
  s.quarantined = true;
  --healthy_;
  return true;
}

std::vector<int> ReplicaHealth::HealthySet() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<int> set;
  set.reserve(static_cast<size_t>(healthy_));
  for (size_t r = 0; r < states_.size(); ++r) {
    if (!states_[r].quarantined) set.push_back(static_cast<int>(r));
  }
  return set;
}

bool ReplicaHealth::quarantined(int replica) const {
  std::lock_guard<std::mutex> lk(mu_);
  return states_[static_cast<size_t>(replica)].quarantined;
}

int ReplicaHealth::healthy_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return healthy_;
}

int ReplicaHealth::quarantined_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int>(states_.size()) - healthy_;
}

}  // namespace hwp3d::serve

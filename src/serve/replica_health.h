// Per-replica health tracking with quarantine.
//
// The InferenceServer records the outcome of every replica attempt
// here. A replica that fails `quarantine_after` consecutive times (the
// server passes kQuarantineAfter) is quarantined: it drops out of
// HealthySet() and its serving lane stops pulling work, so the
// remaining lanes take over its share. Because every replica is a lane
// over the same immutable compiled model, shrinking the replica set
// degrades throughput but never changes an answer — outputs stay
// bitwise identical to a fully-healthy run.
//
// The last healthy replica is never quarantined: a server with work
// queued must keep trying somewhere, and a transient storm that takes
// out "everything" should degrade to a single struggling replica, not
// to a black hole that fails every request unconditionally.
#pragma once

#include <mutex>
#include <vector>

namespace hwp3d::serve {

class ReplicaHealth {
 public:
  ReplicaHealth(int replicas, int quarantine_after);

  // A successful attempt resets the replica's consecutive-failure run.
  void RecordSuccess(int replica);

  // A failed attempt; returns true when this failure just pushed the
  // replica into quarantine (the caller counts/logs the transition).
  bool RecordFailure(int replica);

  // Indices of non-quarantined replicas, ascending. Never empty.
  std::vector<int> HealthySet() const;
  bool quarantined(int replica) const;
  int healthy_count() const;
  int quarantined_count() const;

 private:
  struct State {
    int consecutive_failures = 0;
    bool quarantined = false;
  };

  const int quarantine_after_;
  mutable std::mutex mu_;
  std::vector<State> states_;
  int healthy_ = 0;
};

}  // namespace hwp3d::serve

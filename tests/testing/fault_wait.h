// Waits for an armed fault point to fire, so a test can act while a
// serving lane is known to be inside the fault (e.g. held by a wedge).
#pragma once

#include <chrono>
#include <string_view>
#include <thread>

#include "common/fault_injection.h"

namespace hwp3d::testing {

inline void WaitForTrip(std::string_view point, int64_t times = 1) {
  while (FaultInjector::Get().injected(point) < times) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace hwp3d::testing

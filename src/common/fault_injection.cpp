#include "common/fault_injection.h"

#include <cstdlib>

#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"

namespace hwp3d {

namespace {

// FNV-1a: stable across platforms/standard libraries, unlike std::hash.
uint64_t HashName(std::string_view name) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Uniform in [0, 1), fully determined by (seed, point name, trial).
double Hash01(uint64_t seed, uint64_t name_hash, uint64_t trial) {
  const uint64_t h = SplitMix64(seed ^ SplitMix64(name_hash ^ SplitMix64(trial)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

FaultInjector::FaultInjector() {
  if (const char* seed_env = std::getenv("HWP_FAULTS_SEED")) {
    char* end = nullptr;
    const unsigned long long s = std::strtoull(seed_env, &end, 10);
    if (end != seed_env && *end == '\0') seed_ = static_cast<uint64_t>(s);
  }
  if (const char* spec = std::getenv("HWP_FAULTS")) {
    Status parsed = Configure(spec);
    if (!parsed.ok()) {
      HWP_LOG(Warning) << "ignoring HWP_FAULTS: " << parsed.ToString();
    }
  }
}

FaultInjector& FaultInjector::Get() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Enable(const std::string& point, FaultSpec spec) {
  std::lock_guard<std::mutex> lk(mu_);
  points_[point] = Point{spec, 0, 0};
  num_points_.store(static_cast<int>(points_.size()),
                    std::memory_order_relaxed);
}

void FaultInjector::Arm(const std::string& point, int64_t count,
                        int64_t delay_us) {
  Enable(point, FaultSpec{1.0, count, delay_us});
}

void FaultInjector::Disable(const std::string& point) {
  std::lock_guard<std::mutex> lk(mu_);
  points_.erase(point);
  num_points_.store(static_cast<int>(points_.size()),
                    std::memory_order_relaxed);
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lk(mu_);
  points_.clear();
  num_points_.store(0, std::memory_order_relaxed);
}

void FaultInjector::SetSeed(uint64_t seed) {
  std::lock_guard<std::mutex> lk(mu_);
  seed_ = seed;
  for (auto& [name, point] : points_) {
    point.trials = 0;
    point.injected = 0;
  }
}

bool FaultInjector::Trip(std::string_view point) {
  if (!active()) return false;
  std::lock_guard<std::mutex> lk(mu_);
  auto it = points_.find(point);
  if (it == points_.end()) return false;
  Point& p = it->second;
  if (p.spec.max_injections >= 0 && p.injected >= p.spec.max_injections) {
    return false;
  }
  const int64_t trial = p.trials++;
  const bool fire =
      p.spec.probability >= 1.0 ||
      (p.spec.probability > 0.0 &&
       Hash01(seed_, HashName(point), static_cast<uint64_t>(trial)) <
           p.spec.probability);
  if (fire) ++p.injected;
  return fire;
}

int64_t FaultInjector::delay_us(std::string_view point) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.spec.delay_us;
}

int64_t FaultInjector::injected(std::string_view point) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.injected;
}

int64_t FaultInjector::total_injected() const {
  std::lock_guard<std::mutex> lk(mu_);
  int64_t total = 0;
  for (const auto& [name, point] : points_) total += point.injected;
  return total;
}

Status FaultInjector::Configure(std::string_view spec) {
  // Parse everything first so a malformed entry rejects the whole spec.
  std::map<std::string, FaultSpec> parsed;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    std::string_view entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return InvalidArgumentError(StrFormat(
          "fault spec entry '%.*s' is not name=PROB[xCOUNT][dDELAY_US]",
          static_cast<int>(entry.size()), entry.data()));
    }
    const std::string name(entry.substr(0, eq));
    const std::string rest(entry.substr(eq + 1));
    FaultSpec fs;
    const char* cursor = rest.c_str();
    char* end = nullptr;
    fs.probability = std::strtod(cursor, &end);
    if (end == cursor || fs.probability < 0.0 || fs.probability > 1.0) {
      return InvalidArgumentError(StrFormat(
          "fault point '%s': probability '%s' must be a number in [0, 1]",
          name.c_str(), rest.c_str()));
    }
    cursor = end;
    while (*cursor == 'x' || *cursor == 'd') {
      const char kind = *cursor++;
      const long long v = std::strtoll(cursor, &end, 10);
      if (end == cursor || v < 0) {
        return InvalidArgumentError(StrFormat(
            "fault point '%s': bad %s suffix in '%s'", name.c_str(),
            kind == 'x' ? "count (x)" : "delay (d)", rest.c_str()));
      }
      if (kind == 'x') {
        fs.max_injections = v;
      } else {
        fs.delay_us = v;
      }
      cursor = end;
    }
    if (*cursor != '\0') {
      return InvalidArgumentError(StrFormat(
          "fault point '%s': trailing garbage '%s'", name.c_str(), cursor));
    }
    parsed[name] = fs;
  }
  for (const auto& [name, fs] : parsed) Enable(name, fs);
  return Status::Ok();
}

}  // namespace hwp3d

#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "obs/json_util.h"
#include "obs/trace.h"

namespace perfbench {

uint64_t SpanRecorder::NextId() {
  std::lock_guard<std::mutex> lk(mu_);
  return next_id_++;
}

uint64_t SpanRecorder::Add(std::string name, uint64_t parent,
                           int64_t request, double start_us, double end_us) {
  if (!enabled_) return 0;
  Span s;
  s.parent = parent;
  s.request = request;
  s.name = std::move(name);
  s.start_us = start_us;
  s.end_us = end_us;
  s.tid = hwp3d::obs::CurrentThreadId();
  std::lock_guard<std::mutex> lk(mu_);
  s.id = next_id_++;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

SpanRecorder::Scope::Scope(SpanRecorder& rec, const char* name,
                           uint64_t parent)
    : rec_(rec), name_(name), parent_(parent) {
  if (!rec_.enabled_) return;
  id_ = rec_.NextId();
  start_us_ = hwp3d::obs::NowUs();
}

SpanRecorder::Scope::~Scope() {
  if (!rec_.enabled_) return;
  Span s;
  s.id = id_;
  s.parent = parent_;
  s.name = name_;
  s.start_us = start_us_;
  s.end_us = hwp3d::obs::NowUs();
  s.tid = hwp3d::obs::CurrentThreadId();
  std::lock_guard<std::mutex> lk(rec_.mu_);
  rec_.spans_.push_back(std::move(s));
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

std::map<std::string, double> SpanRecorder::SelfTimeByLayer() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>> kids;
  for (const Span& s : spans_) {
    if (s.parent != 0) kids[s.parent].emplace_back(s.start_us, s.end_us);
  }
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    double covered = 0.0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0.0, cur_hi = -1.0;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_us);
        hi = std::min(hi, s.end_us);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    out[s.layer()] += std::max(0.0, (s.end_us - s.start_us) - covered);
  }
  return out;
}

bool SpanRecorder::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"traceEvents\":[\n";
  bool first = true;
  char buf[512];
  const auto emit = [&](const std::string& line) {
    os << (first ? "" : ",\n") << line;
    first = false;
  };
  for (const Span& s : spans_) {
    const std::string name = hwp3d::obs::JsonEscape(s.name);
    const std::string layer = hwp3d::obs::JsonEscape(s.layer());
    if (s.request >= 0) {
      // Request spans overlap across requests: async slices keyed by the
      // request id nest per request instead of per thread.
      for (const auto& [ph, ts] : {std::pair{'b', s.start_us},
                                   std::pair{'e', s.end_us}}) {
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\","
                      "\"id\":%lld,\"ts\":%.3f,\"pid\":1,\"tid\":%u,"
                      "\"args\":{\"span\":%llu,\"parent\":%llu}}",
                      name.c_str(), layer.c_str(), ph,
                      static_cast<long long>(s.request), ts, s.tid,
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent));
        emit(buf);
      }
    } else {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                    "\"args\":{\"span\":%llu,\"parent\":%llu}}",
                    name.c_str(), layer.c_str(), s.start_us,
                    s.end_us - s.start_us, s.tid,
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent));
      emit(buf);
    }
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench

// In-memory spans recorded by the benchmark around its calls into each
// layer of the program (the traced run only).
//
// A span has a name "<layer>/<what>", a start and end in obs::NowUs()
// microseconds, and the span that caused it (0 for a root). Spans of
// one served request carry that request's id. Nothing is written until
// the run ends: WriteChromeJson exports Chrome trace-event JSON
// (viewable in chrome://tracing or ui.perfetto.dev), and SelfTimeByLayer
// attributes each span's duration minus the time its children cover to
// its layer.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;    // 0: root
  int64_t request = -1;   // served request id, -1 if none
  std::string name;       // "<layer>/<what>"
  double start_us = 0.0;
  double end_us = 0.0;
  uint32_t tid = 0;

  std::string layer() const { return name.substr(0, name.find('/')); }
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Records a finished span; returns its id (0 when disabled).
  uint64_t Add(std::string name, uint64_t parent, int64_t request,
               double start_us, double end_us);

  // RAII span around a block: starts now, ends at destruction.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name, uint64_t parent = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    uint64_t id() const { return id_; }

   private:
    SpanRecorder& rec_;
    const char* name_;
    uint64_t parent_;
    uint64_t id_ = 0;
    double start_us_ = 0.0;
  };

  size_t size() const;

  // Microseconds of self time per layer: each span's duration minus the
  // union of its children's intervals (clipped to the span).
  std::map<std::string, double> SelfTimeByLayer() const;

  bool WriteChromeJson(const std::string& path) const;

 private:
  uint64_t NextId();

  const bool enabled_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

}  // namespace perfbench

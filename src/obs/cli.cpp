#include "obs/cli.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hwp3d::obs {

namespace {

// One registered flag: a name plus a typed destination. String flags
// store the raw value; integer flags parse it (warning + ignore on
// garbage).
struct Flag {
  const char* name;  // "--threads"
  enum class Kind { kString, kInt, kUint64 } kind;
  void* target;      // std::string* / std::optional<int>* /
                     // std::optional<uint64_t>*
};

// Matches "--flag value" and "--flag=value"; advances `i` past consumed
// arguments and stores the value. Returns false if `arg` is not `flag`.
bool MatchFlag(const char* flag, int argc, char** argv, int& i,
               std::string& value) {
  const char* arg = argv[i];
  const size_t flag_len = std::strlen(flag);
  if (std::strncmp(arg, flag, flag_len) != 0) return false;
  if (arg[flag_len] == '=') {
    value = arg + flag_len + 1;
    return true;
  }
  if (arg[flag_len] == '\0' && i + 1 < argc) {
    value = argv[++i];
    return true;
  }
  return false;
}

void StoreValue(const Flag& flag, const std::string& value) {
  switch (flag.kind) {
    case Flag::Kind::kString:
      *static_cast<std::string*>(flag.target) = value;
      return;
    case Flag::Kind::kInt:
    case Flag::Kind::kUint64: {
      char* end = nullptr;
      const long long v = std::strtoll(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' ||
          (flag.kind == Flag::Kind::kInt && v < 1)) {
        std::fprintf(stderr, "warning: invalid %s value \"%s\"; ignored\n",
                     flag.name, value.c_str());
        return;
      }
      if (flag.kind == Flag::Kind::kInt) {
        *static_cast<std::optional<int>*>(flag.target) =
            static_cast<int>(v);
      } else {
        *static_cast<std::optional<uint64_t>*>(flag.target) =
            static_cast<uint64_t>(v);
      }
      return;
    }
  }
}

}  // namespace

CliOptions InitFromArgs(int& argc, char** argv) {
  CliOptions options;
  const Flag registry[] = {
      {"--trace-out", Flag::Kind::kString, &options.trace_out},
      {"--metrics-out", Flag::Kind::kString, &options.metrics_out},
      {"--device", Flag::Kind::kString, &options.device},
      {"--threads", Flag::Kind::kInt, &options.threads},
      {"--seed", Flag::Kind::kUint64, &options.seed},
  };

  int out = 1;
  for (int i = 1; i < argc; ++i) {
    bool consumed = false;
    for (const Flag& flag : registry) {
      std::string value;
      if (MatchFlag(flag.name, argc, argv, i, value)) {
        StoreValue(flag, value);
        consumed = true;
        break;
      }
      if (std::strcmp(argv[i], flag.name) == 0) {
        std::fprintf(stderr, "warning: %s requires a value; ignored\n",
                     argv[i]);
        consumed = true;
        break;
      }
    }
    if (!consumed) argv[out++] = argv[i];
  }
  argc = out;

  if (!options.trace_out.empty()) Tracer::Get().SetEnabled(true);
  // The pool reads its environment on first use, so this must be
  // exported before any parallel code runs — which is why examples call
  // InitFromArgs first thing in main.
  if (options.threads.has_value()) {
    setenv("HWP_THREADS", std::to_string(*options.threads).c_str(),
           /*overwrite=*/1);
  }
  return options;
}

void Finalize(const CliOptions& options) {
  if (!options.trace_out.empty()) {
    if (Tracer::Get().WriteChromeJson(options.trace_out)) {
      std::fprintf(stderr, "wrote %zu trace events to %s\n",
                   Tracer::Get().event_count(), options.trace_out.c_str());
    } else {
      std::fprintf(stderr, "failed to write trace to %s\n",
                   options.trace_out.c_str());
    }
  }
  if (!options.metrics_out.empty()) {
    if (MetricsRegistry::Get().WriteJsonl(options.metrics_out)) {
      std::fprintf(stderr, "wrote metrics JSONL to %s\n",
                   options.metrics_out.c_str());
    } else {
      std::fprintf(stderr, "failed to write metrics to %s\n",
                   options.metrics_out.c_str());
    }
    MetricsRegistry::Get().SummaryTable().Print();
  }
}

}  // namespace hwp3d::obs

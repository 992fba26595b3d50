// Command-line glue shared by the examples and benches: a small typed
// flag registry that parses the common flags every binary used to
// re-implement by hand, removes them from argv, and applies the
// side-effecting ones (tracing, thread-pool size).
//
//   int main(int argc, char** argv) {
//     const obs::CliOptions opts = obs::InitFromArgs(argc, argv);
//     Rng rng(opts.seed.value_or(42));
//     ...                                  // known flags removed from argv
//     obs::Finalize(opts);                 // writes the requested files
//   }
//
// Flags (both `--flag value` and `--flag=value`):
//   --trace-out F    enable tracing, write Chrome trace JSON to F
//   --metrics-out F  write metrics JSONL to F + print the summary table
//   --threads N      size hwp3d::ThreadPool (sets HWP_THREADS; must run
//                    before the first ThreadPool::Get())
//   --device D       FPGA device name, e.g. zcu102 (consumed by the
//                    caller, see fpga::DeviceByName)
//   --seed S         RNG seed (consumed by the caller)
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace hwp3d::obs {

struct CliOptions {
  std::string trace_out;    // Chrome trace-event JSON path ("" = off)
  std::string metrics_out;  // metrics JSONL path ("" = off)
  std::optional<int> threads;
  std::string device;       // "" = binary's default device
  std::optional<uint64_t> seed;
};

// Extracts the registered flags from argv, compacting the remaining
// arguments and updating argc. Enables the tracer when --trace-out is
// present, exports HWP_THREADS for --threads. Malformed values (non-numeric --threads) warn on stderr and
// are ignored.
CliOptions InitFromArgs(int& argc, char** argv);

// Writes the requested trace/metrics files and prints the metrics
// summary table when --metrics-out was given.
void Finalize(const CliOptions& options);

}  // namespace hwp3d::obs

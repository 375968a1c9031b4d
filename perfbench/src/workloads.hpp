#pragma once
/// \file workloads.hpp
/// The four benchmark workloads (see perfbench/README.md for why each one
/// exists and which layer it loads). Each run builds its own one-thread
/// ka::CpuBackend — never ka::default_backend() — sets up several times,
/// checks a reference output in full, then repeats the workload's call for
/// the requested seconds and checks every output against the reference.

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned pool_threads = 1;  ///< threads of the pool the workload runs on
  unsigned wide_threads = 1;  ///< nproc - 1: reference checks and ka.pool_speedup only
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count and caveats, printed beside the value
};

struct RunResult {
  std::uint64_t attempted = 0;  ///< solves, problems or requests
  std::uint64_t failed = 0;     ///< of those: not Ok, or output not the reference's
  std::vector<std::string> violations;  ///< every failed check, human-readable
  std::vector<Metric> metrics;  ///< end-to-end (untraced) or per-layer (traced)
  std::string backend_name;
  bool vectorized = false;

  [[nodiscard]] bool correct() const { return violations.empty() && failed == 0; }
};

/// Runs one workload; throws unisvd::Error on an unknown name or when the
/// pinned pool does not have opts.pool_threads threads.
RunResult run_workload(const RunOptions& opts, SpanRecorder& spans);

}  // namespace perfbench

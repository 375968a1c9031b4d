/// Benchmark harness: runs one workload and prints every metric by name and
/// unit, then one JSON result object as the last line of standard output.
///
///   perfbench_harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                     [--trace-out <path>]
///
/// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
/// metrics and, with --trace-out, writes the spans as Chrome trace-event
/// JSON. Exit code 0 when every correctness check passed, 1 when one failed
/// (the result line then says "correct": false), 2 on a usage or set-up
/// error (no result line).

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "ka/simd/dispatch.hpp"
#include "workloads.hpp"

namespace {

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  std::string trace_out;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') usage("--seed must be a non-negative integer");
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(opts.seconds > 0) || opts.seconds > 3600) {
        usage("--seconds must be in (0, 3600]");
      }
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") usage("--trace must be 0 or 1");
      opts.trace = val == "1";
    } else if (arg == "--trace-out") {
      trace_out = val;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");

  // Every timed call runs on a one-thread pool. On a shared 4-vCPU x86-64
  // VM, the p50 of dense_values on three pool threads ranged 378-721 ms per
  // solve from run to run as host CPU steal went from 0.3% to 15%: a stolen
  // vCPU stalls every fork-join launch. On one thread the steal stayed
  // under 1% and the p50 ranged 827-1016 ms.
  const unsigned nproc = online_cpus();
  opts.pool_threads = 1;
  opts.wide_threads = nproc > 1 ? nproc - 1 : 1;
  perfbench::SpanRecorder spans(opts.trace);

  perfbench::RunResult r;
  try {
    r = perfbench::run_workload(opts, spans);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench_harness: %s\n", ex.what());
    return 2;
  }

#ifdef UNISVD_SIMD
  const bool simd_build = true;
#else
  const bool simd_build = false;
#endif
  std::printf(
      "fingerprint: {\"nproc\": %u, \"pool_threads\": %u, \"backend\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"unisvd_simd\": %s, "
      "\"vectorized\": %s, \"isa\": \"%s\"}\n",
      nproc, opts.pool_threads, r.backend_name.c_str(), __VERSION__, PERFBENCH_BUILD_TYPE,
      simd_build ? "true" : "false", r.vectorized ? "true" : "false",
      std::string(unisvd::ka::simd::isa_name()).c_str());
  std::printf("workload %s seed %llu seconds %g trace %d\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds, opts.trace ? 1 : 0);
  for (const auto& m : r.metrics) {
    std::printf("  %-22s %16.6g %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  for (auto& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      r.violations.push_back("metric " + m.name + " is not finite");
      m.value = -1.0;
    }
  }
  for (const auto& v : r.violations) std::printf("VIOLATION: %s\n", v.c_str());
  if (r.failed > 0) {
    std::printf("VIOLATION: %llu of %llu outputs not Ok or not the checked reference\n",
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
  }
  if (opts.trace && !trace_out.empty()) {
    if (spans.write_chrome_json(trace_out)) {
      std::printf("trace: %s (%zu spans)\n", trace_out.c_str(), spans.spans().size());
    } else {
      std::fprintf(stderr, "perfbench_harness: cannot write %s\n", trace_out.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct() ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                r.metrics[i].name.c_str(), r.metrics[i].value, r.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return r.correct() ? 0 : 1;
}

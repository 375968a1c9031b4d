/// Ablation for the paper's Figure 2 design choice: fused FTSQRT/FTSMQR
/// kernels (one launch per panel, top row kept in registers) versus the
/// classic per-tile-row launches.
///
/// Reports (a) launch counts — quadratic vs linear in the tile count,
/// (b) memory traffic of the trailing update — the fused kernel loads the
/// top tile row once per panel, (c) simulated runtimes on H100/MI250, and
/// (d) REAL wall clock on the executing CPU backend at reduced sizes.

#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "ka/backend.hpp"
#include "qr/band_reduction.hpp"
#include "rand/matrix_gen.hpp"
#include "sim/library_model.hpp"
#include "tile/tile_layout.hpp"

using namespace unisvd;
using namespace unisvd::sim;

namespace {

struct ScheduleStats {
  std::size_t launches = 0;
  double trailing_bytes = 0.0;
};

ScheduleStats stats_of(index_t n, bool fused) {
  qr::KernelConfig cfg;
  cfg.tilesize = 32;
  cfg.colperblock = 32;
  cfg.fused = fused;
  ka::TraceRecorder tr;
  qr::schedule_band_reduction<float>(n / 32, cfg, tr);
  ScheduleStats out;
  const auto records = tr.records();
  out.launches = records.size();
  for (const auto& d : records) {
    if (d.stage == ka::Stage::TrailingUpdate) {
      out.trailing_bytes += d.cost.bytes_read + d.cost.bytes_written;
    }
  }
  return out;
}

double model_total(const DeviceSpec& dev, index_t n, bool fused) {
  qr::KernelConfig cfg;
  cfg.tilesize = 32;
  cfg.colperblock = 32;
  cfg.splitk = 8;
  cfg.fused = fused;
  return PerfModel(dev).simulate(unified_schedule(n, Precision::FP32, cfg)).total();
}

double real_seconds(index_t n, bool fused) {
  rnd::Xoshiro256 rng(7);
  const auto probe = rnd::gaussian_matrix(n, n, rng);
  qr::KernelConfig cfg;
  cfg.tilesize = 32;
  cfg.colperblock = 32;
  cfg.fused = fused;
  Matrix<float> work(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) work(i, j) = static_cast<float>(probe(i, j));
  }
  Matrix<float> tau(qr::band_tau_rows(n / 32), 32, 0.0f);
  ka::CpuBackend be;
  // Paper §3.4 protocol, scaled down for the CPU backend.
  return benchutil::measure_seconds(
      [&] { qr::band_reduction<float>(be, work.view(), tau.view(), cfg); }, 3, 0.1);
}

}  // namespace

int main() {
  benchutil::print_header(
      "Ablation -- kernel fusion (paper Figure 2): FTSQRT/FTSMQR vs per-row "
      "launches, TILESIZE=32, FP32");
  std::printf("%-8s %10s %10s %12s %12s %12s %12s\n", "n", "launches", "launches",
              "trl GB", "trl GB", "H100 sim", "H100 sim");
  std::printf("%-8s %10s %10s %12s %12s %12s %12s\n", "", "fused", "unfused", "fused",
              "unfused", "fused", "unfused");
  for (index_t n : {1024, 4096, 16384}) {
    const auto sf = stats_of(n, true);
    const auto su = stats_of(n, false);
    std::printf("%-8lld %10zu %10zu %12.2f %12.2f %12s %12s\n",
                static_cast<long long>(n), sf.launches, su.launches,
                sf.trailing_bytes / 1e9, su.trailing_bytes / 1e9,
                benchutil::fmt_seconds(model_total(h100(), n, true)).c_str(),
                benchutil::fmt_seconds(model_total(h100(), n, false)).c_str());
  }

  std::printf("\nMI250 simulated totals:\n%-8s %12s %12s %8s\n", "n", "fused", "unfused",
              "speedup");
  for (index_t n : {1024, 4096, 16384}) {
    const double tf = model_total(mi250(), n, true);
    const double tu = model_total(mi250(), n, false);
    std::printf("%-8lld %12s %12s %7.2fx\n", static_cast<long long>(n),
                benchutil::fmt_seconds(tf).c_str(), benchutil::fmt_seconds(tu).c_str(),
                tu / tf);
  }

  std::printf("\nREAL CPU-backend Phase-1 wall clock:\n%-8s %12s %12s %8s\n", "n",
              "fused", "unfused", "speedup");
  for (index_t n : {256, 512, 1024}) {
    const double tf = real_seconds(n, true);
    const double tu = real_seconds(n, false);
    std::printf("%-8lld %12s %12s %7.2fx\n", static_cast<long long>(n),
                benchutil::fmt_seconds(tf).c_str(), benchutil::fmt_seconds(tu).c_str(),
                tu / tf);
  }
  std::printf(
      "\nExpected shape: unfused launch count grows quadratically with the\n"
      "tile count vs linearly when fused; fused trailing traffic is lower\n"
      "(top tile row loaded once per panel); fusion matters most where\n"
      "launches are expensive (MI250 overhead > H100).\n");
  return 0;
}

/// Kernel microbenchmarks (google-benchmark): REAL CPU-backend throughput
/// of every Phase-1 kernel across TILESIZE / COLPERBLOCK / SPLITK and
/// storage precision — the raw material behind the paper's §4.2 analysis
/// and the hyperparameter discussion of §3.3.
///
/// Backend-sensitive kernels take a trailing `simd` argument (0 = scalar
/// "cpu" backend, 1 = vectorized "simd" backend): pairs of rows differing
/// only in that argument are the real scalar-vs-SIMD comparison CI records
/// (--benchmark_out JSON, uploaded as the bench-results artifact). In a
/// scalar build or on a non-AVX2 machine the simd=1 rows run the reference
/// bodies and the pair collapses to parity — the label column says which.

#include <benchmark/benchmark.h>

#include <memory>

#include "common/half.hpp"
#include "ka/backend.hpp"
#include "ka/simd/dispatch.hpp"
#include "qr/band_reduction.hpp"
#include "rand/matrix_gen.hpp"
#include "rsvd/gemm.hpp"

using namespace unisvd;

namespace {

std::unique_ptr<ka::Backend> make_backend(bool simd) {
  if (simd) return std::make_unique<ka::SimdCpuBackend>();
  return std::make_unique<ka::CpuBackend>();
}

void label_backend(benchmark::State& state, bool simd) {
  state.SetLabel(simd ? std::string(ka::simd::isa_name()) : "scalar");
}

/// A reusable tiled working set: nt x nt tiles with a factored panel.
template <class T>
struct Fixture {
  Matrix<T> w;
  Matrix<T> tau;
  qr::KernelConfig cfg;
  std::unique_ptr<ka::Backend> be;

  Fixture(index_t nt, int ts, int cpb, int splitk, bool simd = false)
      : w(nt * ts, nt * ts), tau(qr::band_tau_rows(nt), ts, T(0)),
        be(make_backend(simd)) {
    cfg.tilesize = ts;
    cfg.colperblock = cpb;
    cfg.splitk = splitk;
    rnd::Xoshiro256 rng(99);
    for (index_t j = 0; j < w.cols(); ++j) {
      for (index_t i = 0; i < w.rows(); ++i) {
        w(i, j) = static_cast<T>(rng.normal());
      }
    }
  }
};

template <class T>
void BM_geqrt(benchmark::State& state) {
  const int ts = static_cast<int>(state.range(0));
  const int splitk = static_cast<int>(state.range(1));
  const bool simd = state.range(2) != 0;
  Fixture<T> f(2, ts, std::min(32, ts), splitk, simd);
  for (auto _ : state) {
    qr::geqrt<T>(*f.be, f.w.view(), 0, 0, f.tau.view(), f.cfg);
    benchmark::DoNotOptimize(f.w.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["flops"] = qr::cost::geqrt_flops(ts);
  label_backend(state, simd);
}

template <class T>
void BM_tsqrt_fused(benchmark::State& state) {
  const int ts = static_cast<int>(state.range(0));
  const index_t nrows = state.range(1);
  const bool simd = state.range(2) != 0;
  Fixture<T> f(nrows + 1, ts, std::min(32, ts), 1, simd);
  qr::geqrt<T>(*f.be, f.w.view(), 0, 0, f.tau.view(), f.cfg);
  for (auto _ : state) {
    qr::tsqrt<T>(*f.be, f.w.view(), 0, 0, 1, nrows + 1, f.tau.view(), f.cfg);
    benchmark::DoNotOptimize(f.w.data());
  }
  state.counters["rows"] = static_cast<double>(nrows);
  label_backend(state, simd);
}

template <class T>
void BM_unmqr(benchmark::State& state) {
  const int ts = static_cast<int>(state.range(0));
  const int cpb = static_cast<int>(state.range(1));
  const bool simd = state.range(2) != 0;
  const index_t nt = ts >= 128 ? 4 : 8;  // keep the 256-class fixture sane
  Fixture<T> f(nt, ts, cpb, 1, simd);
  qr::geqrt<T>(*f.be, f.w.view(), 0, 0, f.tau.view(), f.cfg);
  for (auto _ : state) {
    qr::unmqr<T>(*f.be, f.w.view(), 0, 0, 1, nt, f.tau.view(), f.cfg);
    benchmark::DoNotOptimize(f.w.data());
  }
  state.counters["cols"] = static_cast<double>((nt - 1) * ts);
  label_backend(state, simd);
}

template <class T>
void BM_tsmqr_fused(benchmark::State& state) {
  const int ts = static_cast<int>(state.range(0));
  const index_t nt = state.range(1);
  const bool simd = state.range(2) != 0;
  Fixture<T> f(nt, ts, std::min(32, ts), 1, simd);
  qr::geqrt<T>(*f.be, f.w.view(), 0, 0, f.tau.view(), f.cfg);
  qr::tsqrt<T>(*f.be, f.w.view(), 0, 0, 1, nt, f.tau.view(), f.cfg);
  for (auto _ : state) {
    qr::tsmqr<T>(*f.be, f.w.view(), 0, 0, 1, nt, 1, nt, f.tau.view(), f.cfg);
    benchmark::DoNotOptimize(f.w.data());
  }
  label_backend(state, simd);
}

/// The randomized range finder's dense product: Y = A * Omega with A
/// (4*ts x ts) and a 64-column Gaussian sketch — the rsvd Stage-1 shape.
template <class T>
void BM_sketch_gemm(benchmark::State& state) {
  const int ts = static_cast<int>(state.range(0));
  const bool simd = state.range(1) != 0;
  auto be = make_backend(simd);
  qr::KernelConfig cfg;
  cfg.tilesize = ts;
  cfg.colperblock = std::min(32, ts);
  cfg.splitk = 1;
  const index_t m = 4 * static_cast<index_t>(ts);
  const index_t n = ts;
  const index_t l = 64;
  rnd::Xoshiro256 rng(7);
  Matrix<T> a(m, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) a(i, j) = static_cast<T>(rng.normal());
  }
  Matrix<compute_t<T>> omega(n, l);
  for (index_t j = 0; j < l; ++j) {
    for (index_t i = 0; i < n; ++i) {
      omega(i, j) = static_cast<compute_t<T>>(rng.normal());
    }
  }
  Matrix<T> y(m, l, T(0));
  for (auto _ : state) {
    rsvd::sketch_gemm<T>(*be, a.view(), omega.view(), y.view(), 1.0, cfg);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * static_cast<double>(m) * static_cast<double>(n) *
          static_cast<double>(l) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
  label_backend(state, simd);
}

void BM_band_reduction_fp32(benchmark::State& state) {
  const index_t n = state.range(0);
  const bool fused = state.range(1) != 0;
  const bool simd = state.range(2) != 0;
  Fixture<float> f(n / 32, 32, 32, 1, simd);
  f.cfg.fused = fused;
  for (auto _ : state) {
    state.PauseTiming();
    rnd::Xoshiro256 rng(5);
    for (index_t j = 0; j < f.w.cols(); ++j) {
      for (index_t i = 0; i < f.w.rows(); ++i) {
        f.w(i, j) = static_cast<float>(rng.normal());
      }
    }
    state.ResumeTiming();
    qr::band_reduction<float>(*f.be, f.w.view(), f.tau.view(), f.cfg);
  }
  const double n3 = static_cast<double>(n) * n * n;
  state.counters["GFlop/s"] = benchmark::Counter(
      (8.0 / 3.0) * n3 * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
  label_backend(state, simd);
}

}  // namespace

// Trailing argument of every kernel: simd backend off/on. The 256-class
// rows (tilesize 256) are the acceptance pairs for the vectorized backend.
BENCHMARK_TEMPLATE(BM_geqrt, float)->Args({16, 1, 0})->Args({32, 1, 0})->Args({32, 1, 1})->Args({32, 8, 0})->Args({64, 1, 0})->Args({64, 8, 0});
BENCHMARK_TEMPLATE(BM_geqrt, double)->Args({32, 1, 0})->Args({64, 1, 0});
BENCHMARK_TEMPLATE(BM_geqrt, unisvd::Half)->Args({32, 1, 0});
BENCHMARK_TEMPLATE(BM_tsqrt_fused, float)->Args({32, 1, 0})->Args({32, 4, 0})->Args({32, 4, 1})->Args({32, 15, 0});
BENCHMARK_TEMPLATE(BM_unmqr, float)->Args({32, 8, 0})->Args({32, 16, 0})->Args({32, 32, 0})->Args({32, 32, 1})->Args({64, 32, 0})->Args({64, 32, 1})->Args({256, 32, 0})->Args({256, 32, 1});
BENCHMARK_TEMPLATE(BM_unmqr, double)->Args({32, 32, 0})->Args({32, 32, 1})->Args({256, 32, 0})->Args({256, 32, 1});
BENCHMARK_TEMPLATE(BM_tsmqr_fused, float)->Args({32, 4, 0})->Args({32, 4, 1})->Args({32, 8, 0})->Args({64, 4, 0})->Args({64, 4, 1})->Args({256, 4, 0})->Args({256, 4, 1});
BENCHMARK_TEMPLATE(BM_tsmqr_fused, unisvd::Half)->Args({32, 4, 0})->Args({32, 4, 1});
BENCHMARK_TEMPLATE(BM_sketch_gemm, float)->Args({32, 0})->Args({32, 1})->Args({256, 0})->Args({256, 1});
BENCHMARK_TEMPLATE(BM_sketch_gemm, double)->Args({256, 0})->Args({256, 1});
BENCHMARK(BM_band_reduction_fp32)->Args({256, 1, 0})->Args({256, 1, 1})->Args({256, 0, 0})->Args({512, 1, 0})->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();

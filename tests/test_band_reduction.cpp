/// Stage-1 orchestration tests (Algorithms 1-2): band structure of the
/// numerical content, singular value preservation against the Jacobi
/// oracle, fused/unfused equivalence, trace-vs-execution schedule equality,
/// backend equivalence, precision sweeps, and the factors formed by
/// replaying the retained reflectors (reconstruction, orthogonality, the
/// identity column trim).

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "band/band_matrix.hpp"
#include "baseline/jacobi.hpp"
#include "common/linalg_ref.hpp"
#include "ka/backend.hpp"
#include "common/half.hpp"
#include "qr/band_reduction.hpp"
#include "test_util.hpp"
#include "tile/tile_layout.hpp"

using namespace unisvd;
using testutil::random_matrix;

namespace {

qr::KernelConfig config(int ts, int cpb = 0, bool fused = true, int splitk = 1) {
  qr::KernelConfig cfg;
  cfg.tilesize = ts;
  cfg.colperblock = cpb == 0 ? std::min(32, ts) : cpb;
  cfg.fused = fused;
  cfg.splitk = splitk;
  return cfg;
}

/// Dense matrix holding only the band part (diagonals 0..ts) of w.
Matrix<double> band_part(const Matrix<double>& w, int ts) {
  Matrix<double> out(w.rows(), w.cols(), 0.0);
  for (index_t j = 0; j < w.cols(); ++j) {
    for (index_t i = 0; i < w.rows(); ++i) {
      if (j >= i && j - i <= ts) out(i, j) = w(i, j);
    }
  }
  return out;
}

}  // namespace

struct BandCase {
  int ts;
  index_t nt;
  bool fused;
  int splitk;
};

class BandReductionSweep : public ::testing::TestWithParam<BandCase> {};

TEST_P(BandReductionSweep, PreservesSingularValues) {
  const auto [ts, nt, fused, splitk] = GetParam();
  const index_t n = nt * ts;
  Matrix<double> a = random_matrix(n, n, 1000 + n);
  Matrix<double> w = a;
  Matrix<double> tau(qr::band_tau_rows(nt), ts, 0.0);
  ka::CpuBackend be(8);
  qr::band_reduction<double>(be, w.view(), tau.view(), config(ts, 0, fused, splitk));

  // Orthogonal two-sided reduction: the band part must carry exactly the
  // singular values of the input (the rest of w stores reflector tails).
  const auto banded = band_part(w, ts);
  const auto sv_band = baseline::jacobi_svdvals(banded.view(), &be.pool());
  const auto sv_orig = baseline::jacobi_svdvals(a.view(), &be.pool());
  EXPECT_LT(ref::rel_sv_error(sv_band, sv_orig), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, BandReductionSweep,
    ::testing::Values(BandCase{4, 2, true, 1}, BandCase{4, 5, true, 1},
                      BandCase{8, 3, true, 1}, BandCase{8, 3, false, 1},
                      BandCase{8, 4, true, 2}, BandCase{16, 2, true, 1},
                      BandCase{16, 3, false, 4}, BandCase{32, 2, true, 8}),
    [](const auto& info) {
      return "ts" + std::to_string(info.param.ts) + "_nt" +
             std::to_string(info.param.nt) + (info.param.fused ? "_fused" : "_unfused") +
             "_sk" + std::to_string(info.param.splitk);
    });

TEST(BandReduction, FusedAndUnfusedBitwiseEqualInDouble) {
  const int ts = 8;
  const index_t nt = 4;
  Matrix<double> w1 = random_matrix(nt * ts, nt * ts, 3);
  Matrix<double> w2 = w1;
  Matrix<double> t1(qr::band_tau_rows(nt), ts, 0.0);
  Matrix<double> t2(qr::band_tau_rows(nt), ts, 0.0);
  ka::SerialBackend be;
  qr::band_reduction<double>(be, w1.view(), t1.view(), config(ts, 8, true));
  qr::band_reduction<double>(be, w2.view(), t2.view(), config(ts, 8, false));
  for (index_t j = 0; j < w1.cols(); ++j) {
    for (index_t i = 0; i < w1.rows(); ++i) ASSERT_EQ(w1(i, j), w2(i, j));
  }
}

TEST(BandReduction, SerialAndParallelBackendsBitwiseEqual) {
  const int ts = 8;
  const index_t nt = 4;
  Matrix<double> w1 = random_matrix(nt * ts, nt * ts, 9);
  Matrix<double> w2 = w1;
  Matrix<double> t1(qr::band_tau_rows(nt), ts, 0.0);
  Matrix<double> t2(qr::band_tau_rows(nt), ts, 0.0);
  ka::SerialBackend serial;
  ka::CpuBackend cpu(8);
  qr::band_reduction<double>(serial, w1.view(), t1.view(), config(ts));
  qr::band_reduction<double>(cpu, w2.view(), t2.view(), config(ts));
  for (index_t j = 0; j < w1.cols(); ++j) {
    for (index_t i = 0; i < w1.rows(); ++i) ASSERT_EQ(w1(i, j), w2(i, j));
  }
}

TEST(BandReduction, RecordedTraceEqualsAnalyticSchedule) {
  // The performance model consumes schedules from schedule_band_reduction;
  // they must be identical to what a real execution launches.
  const int ts = 8;
  const index_t nt = 5;
  for (bool fused : {true, false}) {
    const auto cfg = config(ts, 8, fused);
    Matrix<double> w = random_matrix(nt * ts, nt * ts, 11);
    Matrix<double> tau(qr::band_tau_rows(nt), ts, 0.0);
    ka::SerialBackend be;
    ka::TraceRecorder real_trace;
    be.set_trace(&real_trace);
    qr::band_reduction<double>(be, w.view(), tau.view(), cfg);

    ka::TraceRecorder analytic;
    qr::schedule_band_reduction<double>(nt, cfg, analytic);

    const auto real_records = real_trace.records();
    const auto analytic_records = analytic.records();
    ASSERT_EQ(real_records.size(), analytic_records.size());
    for (std::size_t i = 0; i < analytic_records.size(); ++i) {
      const auto& r = real_records[i];
      const auto& s = analytic_records[i];
      EXPECT_EQ(r.name, s.name) << i;
      EXPECT_EQ(r.num_groups, s.num_groups) << i;
      EXPECT_EQ(r.group_size, s.group_size) << i;
      EXPECT_EQ(r.cost.flops, s.cost.flops) << i;
      EXPECT_EQ(r.cost.bytes_read, s.cost.bytes_read) << i;
      EXPECT_EQ(r.cost.serial_iterations, s.cost.serial_iterations) << i;
    }
  }
}

TEST(BandReduction, FusedScheduleIsLinearInTiles) {
  // Launch count: fused ~ O(ntiles), unfused ~ O(ntiles^2) (Figure 2).
  const auto count = [](index_t nt, bool fused) {
    ka::TraceRecorder tr;
    qr::schedule_band_reduction<double>(nt, config(8, 8, fused), tr);
    return tr.records().size();
  };
  const auto f8 = count(8, true);
  const auto f16 = count(16, true);
  const auto u8 = count(8, false);
  const auto u16 = count(16, false);
  // Doubling tiles: fused roughly doubles, unfused roughly quadruples.
  EXPECT_LT(f16, 3 * f8);
  EXPECT_GT(u16, 3 * u8);
  EXPECT_GT(u16, f16 * 4);
}

TEST(BandReduction, StageTimesAttributed) {
  const int ts = 8;
  const index_t nt = 3;
  Matrix<double> w = random_matrix(nt * ts, nt * ts, 2);
  Matrix<double> tau(qr::band_tau_rows(nt), ts, 0.0);
  ka::SerialBackend be;
  ka::StageTimes times;
  qr::band_reduction<double>(be, w.view(), tau.view(), config(ts), &times);
  EXPECT_GT(times.get(ka::Stage::PanelFactorization), 0.0);
  EXPECT_GT(times.get(ka::Stage::TrailingUpdate), 0.0);
  EXPECT_EQ(times.get(ka::Stage::BandToBidiagonal), 0.0);
}

TEST(BandReduction, RejectsInvalidInputs) {
  Matrix<double> rect(16, 8, 0.0);
  Matrix<double> tau(qr::band_tau_rows(2), 8, 0.0);
  ka::SerialBackend be;
  EXPECT_THROW(
      qr::band_reduction<double>(be, rect.view(), tau.view(), config(8)), Error);
  Matrix<double> odd(12, 12, 0.0);  // not a multiple of ts=8
  EXPECT_THROW(qr::band_reduction<double>(be, odd.view(), tau.view(), config(8)),
               Error);
  Matrix<double> ok(16, 16, 0.0);
  // One row short of the retained per-sweep blocks.
  Matrix<double> small_tau(qr::band_tau_rows(2) - 1, 8, 0.0);
  EXPECT_THROW(
      qr::band_reduction<double>(be, ok.view(), small_tau.view(), config(8)), Error);
}

// ---------------------------------------------------------------------------
// Stage-1 factors formed by replaying the retained reflectors
// ---------------------------------------------------------------------------

namespace {

/// Zero-padded random n x n input whose real extent is `real`.
template <class T>
Matrix<T> padded_input(index_t n, index_t real, std::uint64_t seed) {
  Matrix<double> a(n, n, 0.0);
  const Matrix<double> r = random_matrix(real, real, seed);
  for (index_t j = 0; j < real; ++j) {
    for (index_t i = 0; i < real; ++i) a(i, j) = r(i, j);
  }
  return testutil::convert<T>(a);
}

/// || A - U * Band * V^T ||_F / ||A||_F, all in double.
template <class T, class CT>
double band_residual(const Matrix<T>& a, const Matrix<T>& w,
                     const Matrix<CT>& u, const Matrix<CT>& v, int ts) {
  const Matrix<double> b = band_part(testutil::widen(w), ts);
  const Matrix<double> ud = testutil::widen(u);
  const Matrix<double> ub = ref::matmul(ud.view(), b.view());
  const Matrix<double> vd = testutil::widen(v);
  const index_t n = a.rows();
  Matrix<double> rec(n, n, 0.0);
  for (index_t j = 0; j < n; ++j) {
    for (index_t k = 0; k < n; ++k) {
      const double vjk = vd(j, k);
      for (index_t i = 0; i < n; ++i) rec(i, j) += ub(i, k) * vjk;
    }
  }
  return ref::fro_diff(a.view(), rec.view()) / ref::fro_norm(a.view());
}

template <class T>
void check_band_factors(bool fused) {
  using CT = compute_t<T>;
  const double eps = precision_traits<T>::storage_eps;
  for (const int ts : {4, 8}) {
    for (const index_t real : {index_t{32}, index_t{29}, index_t{19}}) {
      const index_t n = tile::TileLayout::make(real, ts).n;
      const std::string tag = std::string(precision_traits<T>::name) +
                              " ts=" + std::to_string(ts) +
                              " real=" + std::to_string(real) +
                              (fused ? " fused" : " unfused");
      const Matrix<T> a = padded_input<T>(n, real, 700 + real);
      Matrix<T> w = a;
      Matrix<T> tau(qr::band_tau_rows(n / ts), ts, T(0));
      Matrix<CT> u(n, n);
      Matrix<CT> v(n, n);
      const auto cfg = config(ts, 0, fused);
      ka::CpuBackend be(4);
      qr::band_reduction<T>(be, w.view(), tau.view(), cfg);
      qr::form_band_factors<T, CT>(be, w.view(), tau.view(), u.view(), v.view(),
                                   cfg);
      const double bound = 50.0 * eps * static_cast<double>(n);
      EXPECT_LE(band_residual(a, w, u, v, ts), bound) << tag;
      EXPECT_LE(ref::orthogonality_defect(u.view()), bound) << tag << " U";
      EXPECT_LE(ref::orthogonality_defect(v.view()), bound) << tag << " V";
    }
  }
}

}  // namespace

TEST(BandFactors, ReconstructInputAllPrecisionsFused) {
  check_band_factors<Half>(true);
  check_band_factors<float>(true);
  check_band_factors<double>(true);
}

TEST(BandFactors, ReconstructInputAllPrecisionsUnfused) {
  check_band_factors<Half>(false);
  check_band_factors<float>(false);
  check_band_factors<double>(false);
}

TEST(BandFactors, TrimmedReplayOntoIdentityMatchesFullWidth) {
  // The trim skips, per sweep, the identity columns left of its panel row;
  // replaying over every column instead must give the same bits.
  for (const bool fused : {true, false}) {
    const int ts = 8;
    const index_t n = 40;
    const auto cfg = config(ts, 8, fused);
    Matrix<float> w = padded_input<float>(n, 37, 77);
    Matrix<float> tau(qr::band_tau_rows(n / ts), ts, 0.0f);
    ka::SerialBackend be;
    qr::band_reduction<float>(be, w.view(), tau.view(), cfg);
    Matrix<float> u(n, n);
    Matrix<float> v(n, n);
    qr::form_band_factors<float, float>(be, w.view(), tau.view(), u.view(),
                                        v.view(), cfg);
    const index_t half = qr::band_tau_rows(n / ts) / 2;
    const auto full_width = [&](MatrixView<float> src, index_t tau_row0,
                                index_t row_shift) {
      Matrix<float> f(n, n, 0.0f);
      for (index_t i = 0; i < n; ++i) f(i, i) = 1.0f;
      qr::replay_sweeps<float, float>(be, src, tau.view().block(tau_row0, 0, half, ts),
                                      f.view(), qr::ApplyDir::Backward, row_shift,
                                      0, cfg);
      return f;
    };
    const Matrix<float> u_full = full_width(w.view(), 0, 0);
    const Matrix<float> v_full = full_width(w.view().transposed(), half, 1);
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::memcmp(&u(i, j), &u_full(i, j), sizeof(float)), 0)
            << "U " << i << "," << j << " fused=" << fused;
        ASSERT_EQ(std::memcmp(&v(i, j), &v_full(i, j), sizeof(float)), 0)
            << "V " << i << "," << j << " fused=" << fused;
      }
    }
  }
}

TEST(KernelConfig, ValidationRules) {
  qr::KernelConfig cfg;
  cfg.tilesize = 33;  // not divisible by colperblock 32
  EXPECT_THROW(cfg.validate(), Error);
  cfg = {};
  cfg.splitk = 3;  // does not divide 32
  EXPECT_THROW(cfg.validate(), Error);
  cfg = {};
  cfg.tilesize = 512;  // out of range
  EXPECT_THROW(cfg.validate(), Error);
  cfg = {};
  cfg.tilesize = 128;
  cfg.splitk = 16;  // 128*16 = 2048 threads > 1024
  EXPECT_THROW(cfg.validate(), Error);
  cfg = {};
  cfg.colperblock = 64;  // > tilesize
  EXPECT_THROW(cfg.validate(), Error);
  cfg = {};
  cfg.tilesize = 64;
  cfg.colperblock = 16;
  cfg.splitk = 8;
  EXPECT_NO_THROW(cfg.validate());
}

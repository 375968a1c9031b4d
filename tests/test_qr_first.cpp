/// Tall-route suite (core/svd.cpp): every tall (or, on the lazy transpose,
/// wide) vector solve factors A = Q R with the replayable panel QR, runs the
/// square pipeline on R and lifts U = Q * U_R by backward reflector replay.
///
///   * singular values bit-identical to the ValuesOnly solve across
///     FP16/FP32/FP64 x aspect ratios x Thin/Full jobs;
///   * accuracy gates (reconstruction residual and orthogonality defect
///     <= 50*eps*n) on the COMPOSED U, tall and wide, Thin and Full, with
///     and without auto_scale;
///   * route flag: SvdReport::qr_first marks every tall vector solve and
///     never a ValuesOnly or square one;
///   * batched: ragged tall/square batches under all four schedules, with
///     ErrorPolicy::Isolate containment;
///   * memory: 16384 x 256 and 8192 x 256 FP32 Thin solves peak at
///     O(m_pad * n_pad) bytes (matrix_peak_bytes high-water counter), far
///     below an m_pad^2 accumulator.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/linalg_ref.hpp"
#include "core/batch.hpp"
#include "core/svd.hpp"
#include "test_util.hpp"
#include "tile/tile_layout.hpp"

using namespace unisvd;

namespace {

SvdConfig vec_config(SvdJob job = SvdJob::Thin, int ts = 8) {
  SvdConfig cfg;
  cfg.kernels.tilesize = ts;
  cfg.kernels.colperblock = std::min(8, ts);
  cfg.job = job;
  // The shapes here have min(m, n) at or below the default fused
  // threshold; disable that path so the suite pins the tall route.
  cfg.small_svd_threshold = 0;
  return cfg;
}

/// || A - U diag(values) V^T ||_F / || A ||_F from the report's factors.
template <class T>
double reconstruction_residual(ConstMatrixView<T> a, const SvdReport& rep) {
  const Matrix<double> ad = ref::to_double(a);
  Matrix<double> us(rep.u.rows(), rep.vt.rows(), 0.0);
  for (index_t j = 0; j < us.cols(); ++j) {
    if (j >= static_cast<index_t>(rep.values.size())) continue;
    const double s = rep.values[static_cast<std::size_t>(j)];
    for (index_t i = 0; i < us.rows(); ++i) {
      us(i, j) = rep.u(i, j) * s;
    }
  }
  const Matrix<double> prod =
      ref::matmul(ConstMatrixView<double>(us.view()), rep.vt.view());
  const double denom = ref::fro_norm(ad.view());
  const double diff = ref::fro_diff(ad.view(), prod.view());
  return denom == 0.0 ? diff : diff / denom;
}

/// The acceptance bound: 50 * eps * n at the precision's storage epsilon.
template <class T>
double accept_tol(index_t m, index_t n) {
  return 50.0 * precision_traits<T>::storage_eps * static_cast<double>(std::max(m, n));
}

template <class T>
void expect_valid_svd(ConstMatrixView<T> a, const SvdReport& rep, SvdJob job,
                      const char* tag) {
  const std::string what = std::string(tag) + " [" + to_string(job) + "]";
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t k = std::min(m, n);
  ASSERT_EQ(rep.values.size(), static_cast<std::size_t>(k)) << what;
  if (job == SvdJob::Full) {
    ASSERT_EQ(rep.u.rows(), m) << what;
    ASSERT_EQ(rep.u.cols(), m) << what;
    ASSERT_EQ(rep.vt.rows(), n) << what;
    ASSERT_EQ(rep.vt.cols(), n) << what;
  } else {
    ASSERT_EQ(rep.u.rows(), m) << what;
    ASSERT_EQ(rep.u.cols(), k) << what;
    ASSERT_EQ(rep.vt.rows(), k) << what;
    ASSERT_EQ(rep.vt.cols(), n) << what;
  }
  EXPECT_LE(reconstruction_residual(a, rep), accept_tol<T>(m, n)) << what;
  EXPECT_LE(ref::orthogonality_defect(rep.u.view()), accept_tol<T>(m, n)) << what;
  EXPECT_LE(ref::orthogonality_defect(rep.vt.view().transposed()),
            accept_tol<T>(m, n))
      << what;
  for (std::size_t i = 1; i < rep.values.size(); ++i) {
    EXPECT_LE(rep.values[i], rep.values[i - 1]) << what;
  }
}

}  // namespace

template <class T>
class TallRouteTyped : public ::testing::Test {};
using StorageTypes = ::testing::Types<Half, float, double>;
TYPED_TEST_SUITE(TallRouteTyped, StorageTypes);

TYPED_TEST(TallRouteTyped, ValuesBitIdenticalToValuesOnlyAcrossShapesAndJobs) {
  // Vector jobs keep the panel's reflectors and values-only solves drop
  // them, but both hand the square pipeline the same R on the same n_pad
  // grid: the singular values are THE SAME BITS for every job.
  const std::pair<index_t, index_t> shapes[] = {
      {40, 24},   // aspect 1.67
      {48, 32},   // aspect 1.5
      {96, 24},   // aspect 4
      {24, 64},   // wide (runs on the lazy transpose)
  };
  for (const auto& [m, n] : shapes) {
    const auto a = testutil::convert<TypeParam>(
        testutil::random_matrix(m, n, 900 + static_cast<std::uint64_t>(m * 3 + n)));
    const auto plain =
        svd_values_report<TypeParam>(a.view(), vec_config(SvdJob::ValuesOnly));
    EXPECT_FALSE(plain.qr_first);  // ValuesOnly never composes factors
    for (const SvdJob job : {SvdJob::Thin, SvdJob::Full}) {
      const auto rep = svd_values_report<TypeParam>(a.view(), vec_config(job));
      EXPECT_TRUE(rep.qr_first);
      ASSERT_EQ(plain.values.size(), rep.values.size());
      for (std::size_t i = 0; i < plain.values.size(); ++i) {
        EXPECT_EQ(plain.values[i], rep.values[i])
            << m << "x" << n << " [" << to_string(job) << "] vs values-only " << i;
      }
    }
  }
}

TYPED_TEST(TallRouteTyped, ComposedFactorsPassAccuracyGates) {
  // Residual + orthogonality of the composed U = Q * U_R within 50*eps*n,
  // tall and wide, Thin and Full — same gates as the square vector suite.
  const auto tall = testutil::convert<TypeParam>(testutil::random_matrix(96, 32, 910));
  const auto wide = testutil::convert<TypeParam>(testutil::random_matrix(24, 72, 911));
  for (const SvdJob job : {SvdJob::Thin, SvdJob::Full}) {
    const auto t = svd_values_report<TypeParam>(tall.view(), vec_config(job));
    EXPECT_TRUE(t.qr_first);
    expect_valid_svd<TypeParam>(tall.view(), t, job, "tall 96x32");
    const auto w = svd_values_report<TypeParam>(wide.view(), vec_config(job));
    EXPECT_TRUE(w.qr_first);
    expect_valid_svd<TypeParam>(wide.view(), w, job, "wide 24x72");
  }
}

TYPED_TEST(TallRouteTyped, PaddedTallShapeStaysValid) {
  // Extents that do not divide the tile grid: padding isolation must hold
  // through panel QR, the R solve, AND the backward replay.
  const auto a = testutil::convert<TypeParam>(testutil::random_matrix(70, 18, 912));
  for (const SvdJob job : {SvdJob::Thin, SvdJob::Full}) {
    const auto rep = svd_values_report<TypeParam>(a.view(), vec_config(job, 16));
    EXPECT_TRUE(rep.qr_first);
    expect_valid_svd<TypeParam>(a.view(), rep, job, "padded 70x18 ts16");
  }
}

TEST(TallRoute, FlagMarksEveryTallVectorSolve) {
  // Any aspect above 1 takes the route for vector jobs; ValuesOnly and
  // square solves never compose factors by replay.
  for (const auto& [m, n] : {std::pair<index_t, index_t>{48, 24}, {48, 32}, {33, 32}}) {
    const auto tall = testutil::convert<float>(testutil::random_matrix(m, n, 920));
    EXPECT_TRUE(svd_values_report<float>(tall.view(), vec_config()).qr_first)
        << m << "x" << n;
    EXPECT_FALSE(
        svd_values_report<float>(tall.view(), vec_config(SvdJob::ValuesOnly)).qr_first)
        << m << "x" << n;
  }
  const auto square = testutil::convert<float>(testutil::random_matrix(32, 32, 922));
  EXPECT_FALSE(svd_values_report<float>(square.view(), vec_config()).qr_first);
}

TEST(TallRoute, AutoScaleComposesScaleInvariantFactors) {
  auto ad = testutil::random_matrix(80, 24, 923);
  for (index_t j = 0; j < ad.cols(); ++j) {
    for (index_t i = 0; i < ad.rows(); ++i) ad(i, j) *= 64.0;
  }
  const auto a = testutil::convert<float>(ad);
  auto cfg = vec_config();
  cfg.auto_scale = true;
  const auto rep = svd_values_report<float>(a.view(), cfg);
  EXPECT_TRUE(rep.qr_first);
  EXPECT_NE(rep.scale_factor, 1.0);
  expect_valid_svd<float>(a.view(), rep, SvdJob::Thin, "auto-scaled 80x24");
}

TEST(TallRoute, DeterministicAcrossThreadCounts) {
  const auto a = testutil::convert<float>(testutil::random_matrix(80, 24, 924));
  ka::CpuBackend be1(1);
  ka::CpuBackend be4(4);
  const auto r1 = svd_values_report<float>(a.view(), vec_config(), be1);
  const auto r4 = svd_values_report<float>(a.view(), vec_config(), be4);
  EXPECT_TRUE(r1.qr_first);
  EXPECT_TRUE(r4.qr_first);
  for (std::size_t i = 0; i < r1.values.size(); ++i) {
    EXPECT_EQ(r1.values[i], r4.values[i]);
  }
  EXPECT_EQ(ref::fro_diff(r1.u.view(), r4.u.view()), 0.0);
  EXPECT_EQ(ref::fro_diff(r1.vt.view(), r4.vt.view()), 0.0);
}

TEST(TallRouteBatched, RaggedBatchMixesRoutesUnderEverySchedule) {
  // A ragged batch mixing tall, square and wide problems plus one poisoned
  // matrix: per-problem route choice under all four schedules, Isolate
  // containment, and bit-identity with the solo solves whichever schedule
  // ran.
  std::vector<Matrix<float>> problems;
  problems.push_back(testutil::convert<float>(testutil::random_matrix(96, 24, 930)));
  problems.push_back(testutil::convert<float>(testutil::random_matrix(32, 32, 931)));
  problems.push_back(testutil::convert<float>(testutil::random_matrix(64, 24, 932)));
  problems.push_back(testutil::convert<float>(testutil::random_matrix(40, 32, 933)));
  problems.push_back(testutil::convert<float>(testutil::random_matrix(24, 56, 934)));
  problems[3](1, 1) = std::numeric_limits<float>::quiet_NaN();
  const auto views = testutil::views_of(problems);
  const bool expect_qr_first[] = {true, false, true, false, true};
  ka::CpuBackend backend(4);

  BatchConfig cfg;
  cfg.svd = vec_config();
  cfg.crossover_n = 48;
  cfg.on_error = ErrorPolicy::Isolate;
  for (const auto schedule : {BatchSchedule::Auto, BatchSchedule::InterProblem,
                              BatchSchedule::IntraProblem, BatchSchedule::Mixed}) {
    cfg.schedule = schedule;
    const auto rep = svd_batched_report<float>(views, cfg, backend);
    ASSERT_EQ(rep.reports.size(), problems.size());
    EXPECT_EQ(rep.failed_count(), 1u) << to_string(schedule);
    for (std::size_t p = 0; p < problems.size(); ++p) {
      if (p == 3) {
        EXPECT_EQ(rep.reports[p].status, SvdStatus::NonFinite);
        EXPECT_TRUE(rep.reports[p].values.empty());
        EXPECT_FALSE(rep.reports[p].qr_first);
        continue;
      }
      EXPECT_EQ(rep.reports[p].status, SvdStatus::Ok);
      EXPECT_EQ(rep.reports[p].qr_first, expect_qr_first[p])
          << to_string(schedule) << " problem " << p;
      expect_valid_svd<float>(views[p], rep.reports[p], SvdJob::Thin, "batched");
      const auto solo = svd_values_report<float>(views[p], cfg.svd);
      ASSERT_EQ(solo.values.size(), rep.reports[p].values.size());
      for (std::size_t i = 0; i < solo.values.size(); ++i) {
        EXPECT_EQ(solo.values[i], rep.reports[p].values[i])
            << to_string(schedule) << " problem " << p;
      }
      EXPECT_EQ(ref::fro_diff(solo.u.view(), rep.reports[p].u.view()), 0.0);
      EXPECT_EQ(ref::fro_diff(solo.vt.view(), rep.reports[p].vt.view()), 0.0);
    }
  }
}

TEST(TallRoute, PeakAccumulatorMemoryIsPanelSizedAt16384x256) {
  // The acceptance case: a 16384 x 256 FP32 Thin solve must keep peak live
  // Matrix bytes at O(m_pad * n_pad) — an m_pad^2 compute-precision
  // accumulator ALONE would be 1 GiB, an order of magnitude past this
  // budget.
  const index_t m = 16384;
  const index_t n = 256;
  rnd::Xoshiro256 rng(940);
  Matrix<float> a(m, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) a(i, j) = static_cast<float>(rng.normal());
  }

  SvdConfig cfg;
  cfg.job = SvdJob::Thin;
  const index_t ts = cfg.kernels.tilesize;
  const index_t mpad = tile::TileLayout::make(m, ts).n;
  const index_t npad = tile::TileLayout::make(n, ts).n;

  // Budget: a generous constant number of m_pad x n_pad panels (storage
  // panel, tau blocks, composition target, double-held report factors,
  // plus every n_pad-sized buffer) — measured peak is ~86 MB against the
  // 168 MB budget, while an m_pad^2 float accumulator alone is ~1074 MB.
  const std::size_t budget = static_cast<std::size_t>(40 * mpad * npad);
  ASSERT_LT(budget, static_cast<std::size_t>(mpad * mpad) * sizeof(float));

  matrix_reset_peak();
  const std::size_t before = matrix_peak_bytes();
  const auto rep = svd_values_report<float>(a.view(), cfg);
  const std::size_t peak = matrix_peak_bytes();

  EXPECT_TRUE(rep.qr_first);
  ASSERT_EQ(rep.values.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(rep.u.rows(), m);
  EXPECT_EQ(rep.u.cols(), n);
  EXPECT_GE(peak, before);
  EXPECT_LE(peak, budget) << "peak " << peak / 1e6 << " MB exceeds the "
                          << budget / 1e6 << " MB O(m_pad*n_pad) budget";
}

TEST(TallRoute, PeakMemoryIsPanelSizedAt8192x256) {
  // A second shape, with full accuracy gates: an 8192 x 256 FP32 Thin
  // solve must stay within the O(m_pad * n_pad) budget — the historic
  // eager-mirror m_pad^2 compute-precision accumulator ALONE (8192^2
  // floats, ~268 MB) would blow it.
  const index_t m = 8192;
  const index_t n = 256;
  rnd::Xoshiro256 rng(941);
  Matrix<float> a(m, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) a(i, j) = static_cast<float>(rng.normal());
  }

  SvdConfig cfg;
  cfg.job = SvdJob::Thin;
  const index_t ts = cfg.kernels.tilesize;
  const index_t mpad = tile::TileLayout::make(m, ts).n;
  const index_t npad = tile::TileLayout::make(n, ts).n;
  const std::size_t budget = static_cast<std::size_t>(40 * mpad * npad);
  ASSERT_LT(budget, static_cast<std::size_t>(mpad * mpad) * sizeof(float));

  matrix_reset_peak();
  const std::size_t before = matrix_peak_bytes();
  const auto rep = svd_values_report<float>(a.view(), cfg);
  const std::size_t peak = matrix_peak_bytes();

  EXPECT_TRUE(rep.qr_first);
  expect_valid_svd<float>(a.view(), rep, SvdJob::Thin, "8192x256 peak");
  EXPECT_GE(peak, before);
  EXPECT_LE(peak, budget) << "peak " << peak / 1e6 << " MB exceeds the "
                          << budget / 1e6 << " MB O(m_pad*n_pad) budget";
}

TEST(TallRoute, HighWaterCounterTracksLiveMatrices) {
  const std::size_t live0 = matrix_live_bytes();
  matrix_reset_peak();
  EXPECT_EQ(matrix_peak_bytes(), live0);
  {
    Matrix<double> a(64, 64);
    EXPECT_GE(matrix_live_bytes(), live0 + 64 * 64 * sizeof(double));
    EXPECT_GE(matrix_peak_bytes(), live0 + 64 * 64 * sizeof(double));
  }
  EXPECT_EQ(matrix_live_bytes(), live0);       // destruction released it
  EXPECT_GE(matrix_peak_bytes(), live0 + 64 * 64 * sizeof(double));  // peak sticks
  matrix_reset_peak();
  EXPECT_EQ(matrix_peak_bytes(), live0);
}

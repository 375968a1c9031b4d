/// Flagship Stage-2+3 engine comparison with CI acceptance gates.
///
/// One banded problem (Stage-1 output shape: upper band of bandwidth bw),
/// two engine stacks over identity-seeded n x n accumulators:
///
///   baseline : eager accumulator mirroring on row-strided accumulators
///              (ut / vt stored with one singular vector per row of a
///              column-major matrix)  +  implicit-QR Stage 3
///   fast     : the production path — vector-contiguous accumulators
///              (U / V stored column-major, the stages see their
///              lazy-transposed views)  +  divide-and-conquer Stage 3
///              (dc/dc_svd.hpp)
///
/// and a values-only implicit-QR oracle for the accuracy gate. The binary
/// EXITS NON-ZERO unless, at the default n = 2048 FP32 Thin-equivalent
/// setup,
///
///   * the fast stack beats the baseline by >= 2.0x on Stage-2+3 wall
///     clock,
///   * every D&C singular value matches the oracle within 50 eps n
///     (relative to sigma_1, FP32 storage eps),
///   * the D&C factors stay orthogonal within the same 50 eps n budget,
///   * the fast arm really ran on transposed (vector-contiguous) views,
///
/// so the Release CI smoke run (--json BENCH_stage23.json) enforces the
/// PR's performance claim by exit code. `--n <extent>` overrides the size
/// for local exploration (the speedup gate still applies).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "band/band_matrix.hpp"
#include "band/band_to_bidiag.hpp"
#include "bench_util.hpp"
#include "bidiag/bidiag_qr.hpp"
#include "common/linalg_ref.hpp"
#include "dc/dc_svd.hpp"
#include "ka/backend.hpp"
#include "rand/rng.hpp"

using namespace unisvd;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Random dense n x n with entries only in the upper band [0, bw] — the
/// shape Stage 1 hands to Stage 2, without paying an untimed Stage-1 run.
Matrix<float> random_banded(index_t n, index_t bw, std::uint64_t seed) {
  rnd::Xoshiro256 rng(seed);
  Matrix<float> a(n, n, 0.0f);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = (j > bw ? j - bw : 0); i <= j && i < n; ++i) {
      a(i, j) = static_cast<float>(rng.normal());
    }
  }
  return a;
}

Matrix<float> identity_acc(index_t n) {
  Matrix<float> m(n, n, 0.0f);
  for (index_t i = 0; i < n; ++i) m(i, i) = 1.0f;
  return m;
}

struct ArmResult {
  double stage2_seconds = 0.0;
  double stage3_seconds = 0.0;
  std::vector<float> values;
  /// Accumulator storage: ut / vt themselves (baseline) or U / V (fast).
  Matrix<float> left;
  Matrix<float> right;
  bool transposed_views = false;

  [[nodiscard]] double total() const { return stage2_seconds + stage3_seconds; }
};

ArmResult run_arm(const Matrix<float>& dense, index_t bw, bool fast,
                  ka::Backend& backend) {
  ArmResult out;
  const index_t n = dense.rows();
  auto b = band::extract_band<float>(dense.view(), bw);
  out.left = identity_acc(n);
  out.right = identity_acc(n);
  MatrixView<float> utv = fast ? out.left.transposed() : out.left.view();
  MatrixView<float> vtv = fast ? out.right.transposed() : out.right.view();
  out.transposed_views = utv.is_transposed() && vtv.is_transposed();
  std::vector<float> d, e;

  auto t0 = std::chrono::steady_clock::now();
  band::band_to_bidiag(b, d, e, &utv, &vtv);
  out.stage2_seconds = seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  if (fast) {
    dc::DcOptions dco;
    dco.pool = backend.batch_pool();
    out.values =
        dc::bidiag_svd_dc<float>(std::move(d), std::move(e), &utv, &vtv, dco);
  } else {
    out.values =
        bidiag::bidiag_svd_qr_vectors(std::move(d), std::move(e), utv, vtv);
  }
  out.stage3_seconds = seconds_since(t0);
  return out;
}

void print_arm(const char* name, const ArmResult& a) {
  std::printf("%-30s %10s %10s %10s %8s\n", name,
              benchutil::fmt_seconds(a.stage2_seconds).c_str(),
              benchutil::fmt_seconds(a.stage3_seconds).c_str(),
              benchutil::fmt_seconds(a.total()).c_str(),
              a.transposed_views ? "vector" : "row");
}

}  // namespace

int main(int argc, char** argv) {
  index_t n = 2048;
  index_t bw = 32;
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--n") == 0) n = std::atoll(argv[i + 1]);
    if (std::strcmp(argv[i], "--bw") == 0) bw = std::atoll(argv[i + 1]);
  }
  auto json = benchutil::JsonSink::from_args("stage23", argc, argv);
  ka::CpuBackend backend;

  benchutil::print_header("Stage-2+3 engine comparison (FP32, gated)");
  std::printf("n = %lld, bandwidth = %lld\n\n", static_cast<long long>(n),
              static_cast<long long>(bw));

  const Matrix<float> dense = random_banded(n, bw, 2300 + static_cast<std::uint64_t>(n));

  // Values-only implicit-QR oracle: the historic bit-identical reference.
  std::vector<double> oracle;
  {
    auto b = band::extract_band<float>(dense.view(), bw);
    std::vector<float> d, e;
    band::band_to_bidiag(b, d, e);
    const auto vals = bidiag::bidiag_svd_qr(std::move(d), std::move(e));
    oracle.assign(vals.begin(), vals.end());
  }

  std::printf("%-30s %10s %10s %10s %8s\n", "engine stack", "stage2", "stage3",
              "total", "layout");
  const ArmResult eager = run_arm(dense, bw, /*fast=*/false, backend);
  print_arm("row-strided eager + QR", eager);
  const ArmResult fast = run_arm(dense, bw, /*fast=*/true, backend);
  print_arm("vector-contiguous eager + D&C", fast);

  const double speedup = eager.total() / fast.total();
  const double eps = 1.1920928955078125e-07;  // FP32 storage eps
  const double tol = 50.0 * eps * static_cast<double>(n);

  double sigma_err = 0.0;
  const double denom = oracle.empty() ? 1.0 : std::max(oracle[0], 1e-30);
  for (std::size_t i = 0; i < oracle.size() && i < fast.values.size(); ++i) {
    sigma_err = std::max(
        sigma_err, std::abs(static_cast<double>(fast.values[i]) - oracle[i]) / denom);
  }
  // U^T U - I and V^T V - I on the column-major factor storage.
  const double ortho_u = ref::orthogonality_defect(fast.left.view());
  const double ortho_v = ref::orthogonality_defect(fast.right.view());

  std::printf("\nspeedup (stage2+3)     %8.2fx   (gate >= 2.00x)\n", speedup);
  std::printf("max rel sigma error    %8.2e   (gate <= %.2e)\n", sigma_err, tol);
  std::printf("orthogonality defect   %8.2e / %8.2e (gate <= %.2e)\n", ortho_u,
              ortho_v, tol);

  json.record("n", static_cast<double>(n), "extent");
  json.record("stage2_eager_seconds", eager.stage2_seconds, "s");
  json.record("stage3_qr_seconds", eager.stage3_seconds, "s");
  json.record("stage2_fast_seconds", fast.stage2_seconds, "s");
  json.record("stage3_dc_seconds", fast.stage3_seconds, "s");
  json.record("speedup", speedup, "x");
  json.record("max_rel_sigma_error", sigma_err, "rel");
  json.record("ortho_defect_u", ortho_u, "fro");
  json.record("ortho_defect_v", ortho_v, "fro");
  json.flush();

  int failures = 0;
  const auto gate = [&failures](bool ok, const char* what) {
    std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", what);
    if (!ok) ++failures;
  };
  gate(speedup >= 2.0,
       "vector-contiguous + D&C >= 2x over row-strided + QR on stage2+3");
  gate(sigma_err <= tol, "D&C sigma within 50 eps n of the QR oracle");
  gate(ortho_u <= tol && ortho_v <= tol, "D&C factors orthogonal within 50 eps n");
  gate(fast.transposed_views, "fast arm ran on transposed accumulator views");
  return failures == 0 ? 0 : 1;
}

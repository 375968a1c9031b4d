#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/linalg_ref.hpp"
#include "common/precision.hpp"

namespace perfbench {

using unisvd::index_t;
using unisvd::Matrix;

namespace {

constexpr double kEps = unisvd::precision_traits<float>::storage_eps;
constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

SigmaErr sigma_err_eps(const std::vector<double>& got, const std::vector<double>& planted,
                       index_t n) {
  if (got.size() > planted.size()) return {kInf, kInf};
  const double unit = kEps * static_cast<double>(n);
  std::vector<double> err(got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    err[i] = std::abs(got[i] - planted[i]) / unit;
    if (!std::isfinite(err[i])) return {kInf, kInf};
  }
  if (err.empty()) return {};
  std::sort(err.begin(), err.end());
  const std::size_t kept = err.size() - err.size() / 20;
  double sum = 0.0;
  for (std::size_t i = 0; i < kept; ++i) sum += err[i];
  return {err.back(), sum / static_cast<double>(kept)};
}

double vec_err_eps(const Matrix<float>& a, const Matrix<double>& u,
                   const std::vector<double>& s, const Matrix<double>& vt) {
  namespace ref = unisvd::ref;
  const index_t m = a.rows();
  const index_t n = a.cols();
  const auto k = static_cast<index_t>(s.size());
  if (u.rows() != m || u.cols() != k || vt.rows() != k || vt.cols() != n) return kInf;

  const Matrix<double> ad = ref::to_double(a.view());
  const double anorm = ref::fro_norm(ad.view());
  const double res = ref::rank_k_residual_fro(ad.view(), u, s, vt, k);
  // A contiguous copy of V keeps the orthogonality loop on unit stride.
  const Matrix<double> v = ref::to_double(vt.view().transposed());
  const double worst = std::max({ref::orthogonality_defect(u.view()),
                                 ref::orthogonality_defect(v.view()),
                                 anorm > 0.0 ? res / anorm : res});
  if (!std::isfinite(worst)) return kInf;
  return worst / (kEps * static_cast<double>(std::max(m, n)));
}

}  // namespace perfbench

#pragma once
/// \file givens_rows.hpp
/// Shared Givens plane-rotation application for the transposed factor
/// accumulators (Ut / Vt, rows = singular vectors). Stage 2 mirrors its
/// bulge-chase rotations and Stage 3 its QR-iteration rotations through
/// this ONE helper, so the accumulator arithmetic cannot drift between
/// stages.
///
/// The pipeline stores each accumulator vector-contiguous: the n_pad x n_pad
/// buffer is the column-major factor U (resp. V) itself and the stages see
/// `ut = U.view().transposed()`, so a logical row of ut — one singular
/// vector — is one contiguous storage column. A row rotation is then two
/// unit-stride streams the compiler vectorizes; on a plain (row-strided)
/// view the same per-element expressions walk with stride ld. Either
/// orientation produces bit-identical logical matrices.

#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/matrix.hpp"

namespace unisvd {

/// Accumulating stopwatch for singular-vector accumulator updates: Stage 2
/// (bulge chasing) and Stage 3 (bidiagonal QR, D&C composition) report the
/// seconds spent on the Ut/Vt factors through an optional `double*`, so
/// the pipeline driver can attribute that share to
/// Stage::VectorAccumulation instead of the reduction stage itself (the
/// Figure 6 breakdown). A null target compiles down to the bare call.
class AccTimer {
 public:
  explicit AccTimer(double* acc = nullptr) noexcept : acc_(acc) {}
  template <class F>
  void timed(F&& f) const {
    if (acc_ == nullptr) {
      f();
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    f();
    *acc_ += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                 .count();
  }

 private:
  double* acc_;
};

namespace detail {

/// Storage address and element stride of logical row r of `m`.
template <class AT>
struct RowRef {
  AT* p;
  index_t stride;
};
template <class AT>
RowRef<AT> row_ref(const MatrixView<AT>& m, index_t r) noexcept {
  // Transposed view: at(r, j) = data[j + r*ld]; plain: data[r + j*ld].
  return m.is_transposed() ? RowRef<AT>{m.data() + r * m.ld(), 1}
                           : RowRef<AT>{m.data() + r, m.ld()};
}

}  // namespace detail

/// Apply the rotation pair (c, s) to full rows (r1, r2) of `m`:
/// row r1 <- c*r1 + s*r2, row r2 <- -s*r1 + c*r2. The rotation scalars may
/// arrive in a wider type than the accumulator storage (the Stage-3
/// double-precision stagnation rescue); they are narrowed once up front.
template <class AT, class S>
void apply_givens_rows(MatrixView<AT> m, index_t r1, index_t r2, S c, S s) {
  const AT cc = static_cast<AT>(c);
  const AT ss = static_cast<AT>(s);
  const index_t cols = m.cols();
  const auto a = detail::row_ref(m, r1);
  const auto b = detail::row_ref(m, r2);
  if (a.stride == 1) {
    AT* __restrict u = a.p;
    AT* __restrict v = b.p;
    for (index_t j = 0; j < cols; ++j) {
      const AT nu = cc * u[j] + ss * v[j];
      const AT nv = -ss * u[j] + cc * v[j];
      u[j] = nu;
      v[j] = nv;
    }
    return;
  }
  for (index_t j = 0; j < cols; ++j) {
    AT& u = a.p[j * a.stride];
    AT& v = b.p[j * b.stride];
    const AT nu = cc * u + ss * v;
    const AT nv = -ss * u + cc * v;
    u = nu;
    v = nv;
  }
}

/// Negate full row r of `m` (a sign fix of one singular vector).
template <class AT>
void negate_row(MatrixView<AT> m, index_t r) {
  const auto a = detail::row_ref(m, r);
  for (index_t j = 0; j < m.cols(); ++j) a.p[j * a.stride] = -a.p[j * a.stride];
}

/// Exchange full rows r1 and r2 of `m`.
template <class AT>
void swap_rows(MatrixView<AT> m, index_t r1, index_t r2) {
  const auto a = detail::row_ref(m, r1);
  const auto b = detail::row_ref(m, r2);
  for (index_t j = 0; j < m.cols(); ++j) {
    std::swap(a.p[j * a.stride], b.p[j * b.stride]);
  }
}

/// In-order log of one sweep's accumulator row updates (rotations and
/// negations of rows of `ut` or `vt`). The producing stage records each
/// update as it is made and replays the whole log at the end of the sweep
/// (a Stage-2 chase column, a Stage-3 QR step): the replay applies exactly
/// the updates the eager path would, in the same order, with the same
/// apply_givens_rows expression, so the accumulators are bit-identical —
/// while the clock is read once per sweep instead of once per rotation.
/// Rotation scalars are narrowed to the accumulator type on record, as
/// apply_givens_rows would narrow them on application.
template <class AT>
class RotationLog {
 public:
  enum class Side : std::uint8_t { U, V };

  RotationLog(MatrixView<AT> ut, MatrixView<AT> vt,
              double* acc_seconds = nullptr) noexcept
      : ut_(ut), vt_(vt), timer_(acc_seconds) {}

  template <class S>
  void rotate(Side side, index_t r1, index_t r2, S c, S s) {
    ops_.push_back(Op{r1, r2, static_cast<AT>(c), static_cast<AT>(s), side});
  }
  void negate(Side side, index_t r) {
    ops_.push_back(Op{r, kNegate, AT(0), AT(0), side});
  }

  /// Apply every recorded update in order and clear the log; the time is
  /// booked to the acc_seconds target once.
  void flush() {
    if (ops_.empty()) return;
    timer_.timed([&] {
      for (const Op& op : ops_) {
        const MatrixView<AT>& m = op.side == Side::U ? ut_ : vt_;
        if (op.r2 == kNegate) {
          negate_row(m, op.r1);
        } else {
          apply_givens_rows(m, op.r1, op.r2, op.c, op.s);
        }
      }
    });
    ops_.clear();
  }

 private:
  static constexpr index_t kNegate = -1;
  struct Op {
    index_t r1;
    index_t r2;  ///< kNegate: negate row r1
    AT c;
    AT s;
    Side side;
  };

  MatrixView<AT> ut_;
  MatrixView<AT> vt_;
  AccTimer timer_;
  std::vector<Op> ops_;
};

}  // namespace unisvd

#pragma once
/// \file band_reduction.hpp
/// SVD Stage 1: reduction of a dense square matrix to band form
/// (paper Algorithms 1 & 2).
///
/// For each diagonal tile k: a QR sweep makes tile (k,k) upper triangular
/// and annihilates the tile column below it, updating the trailing tiles;
/// then an LQ sweep — the SAME kernels applied to the lazy-transposed view
/// (Julia's `A'` in Algorithm 2) — makes tile (k, k+1) lower triangular and
/// annihilates the rest of tile row k. The result is an upper band matrix
/// of bandwidth TILESIZE: upper-triangular diagonal tiles and
/// lower-triangular superdiagonal tiles. Every sweep's reflectors are
/// retained, and replay_sweeps is the one way any of them — here or from
/// qr/panel_qr.hpp — is applied to another target.

#include <algorithm>

#include "common/matrix.hpp"
#include "common/precision.hpp"
#include "ka/backend.hpp"
#include "ka/stage_times.hpp"
#include "qr/geqrt.hpp"
#include "qr/kernel_config.hpp"
#include "qr/tsmqr.hpp"
#include "qr/tsqrt.hpp"
#include "qr/unmqr.hpp"

namespace unisvd::qr {

/// One panel sweep (factorization + trailing update) on working view W:
/// panel is tile column k starting at tile row row0, annihilated down to
/// tile row ntrows-1; the trailing update covers tile columns
/// [k+1, ntcols). The grid may be rectangular (qr/panel_qr.hpp's tall
/// panel QR). The reflectors stay in W — the GEQRT set below the diagonal
/// of tile (row0, k), the TSQRT tails in tiles (l, k), l > row0 — and their
/// tau rows in Tau, which is all replay_sweeps needs later.
template <class T>
void qr_sweep(ka::Backend& be, MatrixView<T> W, MatrixView<T> Tau, index_t k,
              index_t row0, index_t ntrows, index_t ntcols, const KernelConfig& cfg,
              ka::StageTimes* times = nullptr) {
  geqrt(be, W, row0, k, Tau, cfg, times);
  if (k + 1 < ntcols) {
    unmqr(be, W, row0, k, k + 1, ntcols, Tau, cfg, times);
  }
  if (row0 + 1 >= ntrows) return;

  if (cfg.fused) {
    tsqrt(be, W, row0, k, row0 + 1, ntrows, Tau, cfg, times);
    if (k + 1 < ntcols) {
      tsmqr(be, W, row0, k, row0 + 1, ntrows, k + 1, ntcols, Tau, cfg, times);
    }
  } else {
    for (index_t l = row0 + 1; l < ntrows; ++l) {
      tsqrt(be, W, row0, k, l, l + 1, Tau, cfg, times);
      if (k + 1 < ntcols) {
        tsmqr(be, W, row0, k, l, l + 1, k + 1, ntcols, Tau, cfg, times);
      }
    }
  }
}

/// One GETSMQRT sweep of Algorithm 2 (square grid). For QR sweeps
/// row0 == k; for LQ sweeps W is the transposed view and row0 == k + 1.
template <class T>
void getsmqrt(ka::Backend& be, MatrixView<T> W, MatrixView<T> Tau, index_t k,
              index_t row0, index_t ntiles, const KernelConfig& cfg,
              ka::StageTimes* times = nullptr) {
  qr_sweep(be, W, Tau, k, row0, ntiles, ntiles, cfg, times);
}

/// The one way a retained factorization's orthogonal factor reaches a
/// target: replay the column sweeps left in (V, TauAll) onto C. Sweep k
/// holds the reflectors of tile column k of V from tile row
/// row0 = k + row_shift down (row_shift 0 for QR sweeps on A, 1 for the LQ
/// sweeps of band_reduction on A^T), with its (V.rows()/TILESIZE x
/// TILESIZE) tau block stacked at row k * V.rows()/TILESIZE of TauAll.
///
/// ApplyDir::Forward gives C <- Q^T C (sweeps, rows and reflectors in
/// factorization order); Backward gives C <- Q C (all three reversed). C
/// has >= V.rows() rows and a TILESIZE multiple of columns, in any storage
/// type (compute precision for singular vectors).
///
/// `ident_cols` tiles of C's leading columns still hold the identity (0
/// for a dense target). Sweep k never touches rows above tile row row0, so
/// an identity column left of row0 passes through it unchanged: a backward
/// replay onto the identity updates only tile columns >= row0 of each
/// sweep, roughly halving the work, with bit-identical results.
template <class TS, class TA>
void replay_sweeps(ka::Backend& be, MatrixView<TS> V, MatrixView<TS> TauAll,
                   MatrixView<TA> C, ApplyDir dir, index_t row_shift,
                   index_t ident_cols, const KernelConfig& cfg,
                   ka::StageTimes* times = nullptr) {
  cfg.validate();
  const int ts = cfg.tilesize;
  UNISVD_REQUIRE(V.rows() % ts == 0 && V.cols() % ts == 0,
                 "replay_sweeps: extents must be multiples of TILESIZE");
  UNISVD_REQUIRE(C.rows() >= V.rows() && C.cols() % ts == 0,
                 "replay_sweeps: target must cover the reflector rows and be a "
                 "TILESIZE multiple of columns");
  const index_t ntrows = V.rows() / ts;
  UNISVD_REQUIRE(row_shift >= 0 && row_shift <= ntrows,
                 "replay_sweeps: row shift out of range");
  const index_t nsweeps = std::min(V.cols() / ts, ntrows - row_shift);
  UNISVD_REQUIRE(TauAll.rows() >= nsweeps * ntrows && TauAll.cols() >= ts,
                 "replay_sweeps: TauAll workspace too small");
  const index_t cnt = C.cols() / ts;
  const bool fwd = dir == ApplyDir::Forward;
  for (index_t s = 0; s < nsweeps; ++s) {
    const index_t k = fwd ? s : nsweeps - 1 - s;
    const index_t row0 = k + row_shift;
    const index_t j0 = std::min(row0, ident_cols);
    MatrixView<TS> tau = TauAll.block(k * ntrows, 0, ntrows, ts);
    if (fwd) unmqr_apply(be, V, tau, C, row0, k, j0, cnt, dir, cfg, times);
    if (row0 + 1 < ntrows) {
      if (cfg.fused) {
        tsmqr_apply(be, V, tau, C, row0, k, row0 + 1, ntrows, j0, cnt, dir,
                    cfg, times);
      } else {
        for (index_t i = row0 + 1; i < ntrows; ++i) {
          const index_t l = fwd ? i : ntrows + row0 - i;
          tsmqr_apply(be, V, tau, C, row0, k, l, l + 1, j0, cnt, dir, cfg,
                      times);
        }
      }
    }
    if (!fwd) unmqr_apply(be, V, tau, C, row0, k, j0, cnt, dir, cfg, times);
  }
}

/// Rows the retained tau workspace of band_reduction needs: one
/// (ntiles x TILESIZE) block per sweep — the QR sweeps' blocks stacked
/// first, the LQ sweeps' after them.
[[nodiscard]] constexpr index_t band_tau_rows(index_t ntiles) noexcept {
  return 2 * ntiles * ntiles;
}

/// Reduce A (square, extent divisible by TILESIZE) to upper band form of
/// bandwidth TILESIZE via alternating QR/LQ sweeps (Algorithm 2), keeping
/// every sweep's reflectors: the QR tails below the band in tile column k,
/// the LQ tails right of the band in tile row k (extract_band reads
/// neither), and every sweep's tau block in Tau (at least
/// band_tau_rows(ntiles) x TILESIZE, storage precision). QR sweep k's block
/// sits at row k*ntiles, LQ sweep k's at row (ntiles + k)*ntiles.
/// form_band_factors replays them into the singular-vector factors.
template <class T>
void band_reduction(ka::Backend& be, MatrixView<T> A, MatrixView<T> Tau,
                    const KernelConfig& cfg, ka::StageTimes* times = nullptr) {
  cfg.validate();
  UNISVD_REQUIRE(A.rows() == A.cols(), "band_reduction: matrix must be square");
  UNISVD_REQUIRE(A.rows() % cfg.tilesize == 0,
                 "band_reduction: extent must be a multiple of TILESIZE");
  const index_t ntiles = A.rows() / cfg.tilesize;
  UNISVD_REQUIRE(Tau.rows() >= band_tau_rows(ntiles) && Tau.cols() >= cfg.tilesize,
                 "band_reduction: Tau workspace too small");

  const auto block = [&](index_t sweep) {
    return Tau.block(sweep * ntiles, 0, ntiles, cfg.tilesize);
  };
  for (index_t k = 0; k + 1 < ntiles; ++k) {
    getsmqrt(be, A, block(k), k, k, ntiles, cfg, times);  // QR sweep
    getsmqrt(be, A.transposed(), block(ntiles + k), k, k + 1, ntiles, cfg,
             times);                                       // LQ sweep
  }
  getsmqrt(be, A, block(ntiles - 1), ntiles - 1, ntiles - 1, ntiles, cfg, times);
}

/// Form the Stage-1 factors of a band_reduction: with (A, Tau) as it left
/// them, overwrite U and V (square, extent A.rows(), compute precision,
/// any orientation) so that A_in = U * Band * V^T. Each starts as the
/// identity and receives its sweeps (QR sweeps for U, LQ sweeps on A^T for
/// V) by trimmed backward replay. Launches are attributed to
/// Stage::VectorAccumulation.
template <class T, class CT>
void form_band_factors(ka::Backend& be, MatrixView<T> A, MatrixView<T> Tau,
                       MatrixView<CT> U, MatrixView<CT> V,
                       const KernelConfig& cfg, ka::StageTimes* times = nullptr) {
  const index_t n = A.rows();
  const index_t ntiles = n / cfg.tilesize;
  UNISVD_REQUIRE(U.rows() == n && U.cols() == n && V.rows() == n && V.cols() == n,
                 "form_band_factors: factors must match the reduced matrix");
  UNISVD_REQUIRE(Tau.rows() >= band_tau_rows(ntiles),
                 "form_band_factors: Tau workspace too small");
  const index_t half = ntiles * ntiles;
  for (MatrixView<CT> f : {U, V}) {
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < n; ++i) f.at(i, j) = i == j ? CT(1) : CT(0);
    }
  }
  replay_sweeps(be, A, Tau.block(0, 0, half, cfg.tilesize), U,
                ApplyDir::Backward, 0, ntiles, cfg, times);
  replay_sweeps(be, A.transposed(), Tau.block(half, 0, half, cfg.tilesize), V,
                ApplyDir::Backward, 1, ntiles, cfg, times);
}

/// Emit the exact Phase-1 launch schedule for an (ntiles*ts)^2 matrix into
/// `trace` without executing kernels or touching matrix memory — used to
/// drive the GPU performance model at sizes far beyond what is worth
/// executing. The schedule is produced by the SAME orchestration code as
/// the real run (tested equal).
template <class T>
void schedule_band_reduction(index_t ntiles, const KernelConfig& cfg,
                             ka::TraceRecorder& trace) {
  ka::TraceBackend be;
  be.set_trace(&trace);
  const index_t n = ntiles * cfg.tilesize;
  MatrixView<T> a(nullptr, n, n, n);
  MatrixView<T> tau(nullptr, band_tau_rows(ntiles), cfg.tilesize,
                    band_tau_rows(ntiles));
  band_reduction<T>(be, a, tau, cfg);
}

}  // namespace unisvd::qr

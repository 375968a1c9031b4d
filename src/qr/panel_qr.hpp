#pragma once
/// \file panel_qr.hpp
/// Replayable tall-panel QR, built from the SAME GEQRT/TSQRT/UNMQR/TSMQR
/// kernels (qr_sweep) as the dense pipeline's band reduction.
/// panel_qr_factor runs one column sweep per tile column and keeps every
/// sweep's OWN tau block, so the factorization is replayable: replay_sweeps
/// (qr/band_reduction.hpp) applies the implicit Q later, in either
/// direction, without ever materializing Q (m_pad x m_pad) explicitly.
///
/// Two pipelines ride this file (which is why it lives in qr/, not rsvd/):
/// the randomized truncated SVD factors its sketch panels here (a forward
/// replay projects B = Q^T A, a backward replay expands U = Q U~), and the
/// dense driver's tall route (core/svd.cpp) factors the whole input panel
/// A = Q R, solves the small R, and — for vector jobs — replays Q onto the
/// solved left factor, keeping accumulators at m_pad x n_pad instead of
/// m_pad^2.

#include "common/matrix.hpp"
#include "common/precision.hpp"
#include "ka/backend.hpp"
#include "ka/stage_times.hpp"
#include "qr/band_reduction.hpp"

namespace unisvd::qr {

/// Rows the stacked tau workspace of panel_qr_factor needs for an
/// (ntrows x ntcols)-tile panel: one (ntrows x TILESIZE) block per sweep.
[[nodiscard]] constexpr index_t panel_tau_rows(index_t ntrows,
                                               index_t ntcols) noexcept {
  return ntrows * ntcols;
}

/// Factor a tall padded panel A (rows >= cols, both TILESIZE multiples) by
/// column sweeps, retaining every sweep's reflectors: on exit A holds R in
/// its top triangle and the Householder tails below, and TauAll (at least
/// panel_tau_rows(ntrows, ntcols) x TILESIZE) holds one tau block per
/// sweep, stacked by sweep index — the layout replay_sweeps reads with
/// row shift 0.
template <class T>
void panel_qr_factor(ka::Backend& be, MatrixView<T> A, MatrixView<T> TauAll,
                     const qr::KernelConfig& cfg,
                     ka::StageTimes* times = nullptr) {
  cfg.validate();
  UNISVD_REQUIRE(A.rows() >= A.cols(),
                 "panel_qr_factor: panel must be tall (rows >= cols)");
  UNISVD_REQUIRE(A.rows() % cfg.tilesize == 0 && A.cols() % cfg.tilesize == 0,
                 "panel_qr_factor: extents must be multiples of TILESIZE");
  const index_t ntrows = A.rows() / cfg.tilesize;
  const index_t ntcols = A.cols() / cfg.tilesize;
  UNISVD_REQUIRE(TauAll.rows() >= panel_tau_rows(ntrows, ntcols) &&
                     TauAll.cols() >= cfg.tilesize,
                 "panel_qr_factor: TauAll workspace too small");
  for (index_t k = 0; k < ntcols; ++k) {
    MatrixView<T> tau = TauAll.block(k * ntrows, 0, ntrows, cfg.tilesize);
    qr::qr_sweep(be, A, tau, k, k, ntrows, ntcols, cfg, times);
  }
}

}  // namespace unisvd::qr

#pragma once
/// \file tsmqr.hpp
/// TSMQR / FTSMQR: apply TSQRT reflectors to a pair of tile rows
/// (paper Algorithm 5 — the fused kernel shown in Julia).
///
/// For reflector kk of the TSQRT at tile (l, k), the update of a column
/// pair (y = top-row column, x = bottom-row column) is
///     rho  = tau_hat[kk] * (y[kk] + x . v_kk)
///     y[kk] -= rho;     x -= rho * v_kk
/// The fused form walks all bottom tile rows [lbegin, lend) inside one
/// launch while the top-row column y stays in registers (`Yi` in
/// Algorithm 5) — the memory-traffic and launch-count saving of Figure 2.
/// nrows == 1 recovers the classic per-row TSMQR.
///
/// ONE kernel body serves two call shapes: the classic trailing update
/// (`tsmqr` — reflector source and update target are the same working
/// matrix, Stage::TrailingUpdate) and the singular-vector replay
/// (`tsmqr_apply` — separate source and target with independent storage
/// types, either direction, Stage::VectorAccumulation). Keeping a single
/// body guarantees the two paths can never drift numerically.

#include <algorithm>
#include <type_traits>

#include "common/matrix.hpp"
#include "common/precision.hpp"
#include "ka/backend.hpp"
#include "ka/simd/simd.hpp"
#include "ka/stage_times.hpp"
#include "qr/kernel_config.hpp"

namespace unisvd::qr {

namespace detail {

/// Apply the TSQRT reflector sets of tiles (l, k) of V, l in [lbegin,
/// lend) (tau rows l of Tau), to tile rows row0 (top) and l (bottom) of C,
/// tile columns [jbegin, jend). V and C may be the same matrix (trailing
/// update) or different ones (factor accumulation); the compute type
/// follows the target. ApplyDir::Forward composes Q^T (factorization
/// order); Backward walks both the row chain and each tile's reflectors in
/// reverse, composing Q.
template <class TS, class TA>
void tsmqr_impl(ka::Backend& be, MatrixView<TS> V, MatrixView<TS> Tau,
                MatrixView<TA> C, index_t row0, index_t k, index_t lbegin,
                index_t lend, index_t jbegin, index_t jend,
                const KernelConfig& cfg, ka::Stage stage,
                ka::StageTimes* times, ApplyDir dir = ApplyDir::Forward) {
  using CT = compute_t<TA>;
  const int ts = cfg.tilesize;
  const int cpb = cfg.colperblock;
  const index_t nrows = lend - lbegin;
  const index_t ncols = (jend - jbegin) * ts;
  if (ncols <= 0 || nrows <= 0) return;
  const index_t wgs = (ncols + cpb - 1) / cpb;
  const index_t rtop = row0 * ts;
  const index_t cbase = k * ts;
  const index_t col0 = jbegin * ts;
  const index_t colend = jend * ts;

  ka::LaunchDesc desc;
  desc.name = nrows > 1 ? "ftsmqr" : "tsmqr";
  desc.stage = stage;
  desc.num_groups = wgs;
  desc.group_size = cpb;
  desc.local_bytes = static_cast<std::size_t>(2 * ts) * sizeof(CT);
  desc.private_bytes_per_item = static_cast<std::size_t>(2 * ts + 1) * sizeof(CT);
  desc.precision = precision_of<TA>;
  desc.cost.flops = cost::tsmqr_flops(ts, nrows, ncols);
  desc.cost.bytes_read =
      cost::tsmqr_bytes_r(ts, nrows, ncols, wgs, sizeof(TA), sizeof(TS));
  desc.cost.bytes_written = cost::tsmqr_bytes_w(ts, nrows, ncols, sizeof(TA));
  desc.cost.serial_iterations = 2.0 * ts * static_cast<double>(nrows);

#if UNISVD_SIMD_COMPILED
  // Vector body: lanes across columns, NB vectors (NB*L columns) staged per
  // chunk. Y (top row) and X (bottom row) chunks are staged transposed into
  // ts x NB*L scratch whose row stride is the chunk width — every
  // reflector-loop access is a contiguous walk of an L1-resident buffer —
  // and the top-row chunk still loads once per bottom-row chain (the fusion
  // saving of Figure 2). NB independent accumulator chains per reduction
  // hide the FP-add latency a single chain would serialize on. Per lane the
  // sequence — zeroed dot over the full bottom column, combine with y[kk],
  // scale by tau_hat[kk], rank-1 update over all ts rows — matches the
  // scalar work-item exactly, so results are bit-identical. Pad lanes are
  // zero-filled and never stored. LaunchDesc is shared with the scalar
  // body, keeping trace streams equal across backends.
  if (be.vectorized()) {
    namespace sd = ka::simd;
    constexpr int L = sd::lanes_v<CT>;
    const int nblk = sd::padded_to_lanes<CT>(cpb) / L;
    ka::timed_launch(be, desc, [=](ka::WorkGroupCtx& wg) {
      auto Akbuf = wg.local<CT>(static_cast<std::size_t>(ts));
      auto Tk = wg.local<CT>(static_cast<std::size_t>(ts));
      const index_t cg0 = col0 + wg.group_id() * cpb;
      const int nc = static_cast<int>(std::min<index_t>(cpb, colend - cg0));

      const auto chunk = [&](auto nbc, int j0) {
        constexpr int NB = decltype(nbc)::value;
        constexpr int W = NB * L;  // chunk width == staging row stride
        auto Yc = wg.local<CT>(static_cast<std::size_t>(ts) * W);
        auto Xc = wg.local<CT>(static_cast<std::size_t>(ts) * W);
        const int ncb = std::clamp(nc - j0, 0, W);
        if (ncb == 0) return;
        for (int r = 0; r < ts; ++r) {  // top row loaded ONCE per chunk
          CT* row = Yc.data() + static_cast<std::size_t>(r) * W;
          for (int j = 0; j < ncb; ++j) {
            row[j] = static_cast<CT>(C.at(rtop + r, cg0 + j0 + j));
          }
          for (int j = ncb; j < W; ++j) row[j] = CT(0);
        }

        for (index_t lstep = lbegin; lstep < lend; ++lstep) {
          const index_t l =
              dir == ApplyDir::Forward ? lstep : lend - 1 - (lstep - lbegin);
          const index_t rbot = l * ts;

          for (int idx = 0; idx < ts; ++idx) {
            Tk[idx] = static_cast<CT>(Tau.at(l, idx));
          }
          for (int r = 0; r < ts; ++r) {
            CT* row = Xc.data() + static_cast<std::size_t>(r) * W;
            for (int j = 0; j < ncb; ++j) {
              row[j] = static_cast<CT>(C.at(rbot + r, cg0 + j0 + j));
            }
            for (int j = ncb; j < W; ++j) row[j] = CT(0);
          }

          for (int step = 0; step < ts; ++step) {
            const int kk = dir == ApplyDir::Forward ? step : ts - 1 - step;
            // Reflector tail kk is contiguous in a plain column-major view,
            // so point straight at it when no precision cast is needed
            // either. Transposed views (the LQ sweep of band_reduction) and
            // casting storage types stage through Akbuf element-wise.
            const CT* Ak = Akbuf.data();
            bool direct = false;
            if constexpr (std::is_same_v<TS, CT>) direct = !V.is_transposed();
            if (direct) {
              if constexpr (std::is_same_v<TS, CT>) {
                Ak = &V.at(rbot, cbase + kk);
              }
            } else {
              for (int idx = 0; idx < ts; ++idx) {
                Akbuf[idx] = static_cast<CT>(V.at(rbot + idx, cbase + kk));
              }
            }
            const sd::vec_t<CT> tkk = sd::broadcast(Tk[kk]);
            CT* Ykk = Yc.data() + static_cast<std::size_t>(kk) * W;
            sd::vec_t<CT> rho[NB];
            for (int b = 0; b < NB; ++b) rho[b] = sd::broadcast(CT(0));
            for (int r = 0; r < ts; ++r) {
              const sd::vec_t<CT> akr = sd::broadcast(Ak[r]);
              const CT* Xr = Xc.data() + static_cast<std::size_t>(r) * W;
              for (int b = 0; b < NB; ++b) {
                rho[b] += sd::load<CT>(Xr + b * L) * akr;
              }
            }
            for (int b = 0; b < NB; ++b) {
              const sd::vec_t<CT> ykk = sd::load<CT>(Ykk + b * L);
              rho[b] = (rho[b] + ykk) * tkk;
              sd::store(Ykk + b * L, ykk - rho[b]);
            }
            for (int r = 0; r < ts; ++r) {
              const sd::vec_t<CT> akr = sd::broadcast(Ak[r]);
              CT* Xr = Xc.data() + static_cast<std::size_t>(r) * W;
              for (int b = 0; b < NB; ++b) {
                sd::store(Xr + b * L, sd::load<CT>(Xr + b * L) - rho[b] * akr);
              }
            }
          }

          for (int r = 0; r < ts; ++r) {
            const CT* row = Xc.data() + static_cast<std::size_t>(r) * W;
            for (int j = 0; j < ncb; ++j) {
              C.at(rbot + r, cg0 + j0 + j) = static_cast<TA>(row[j]);
            }
          }
        }

        for (int r = 0; r < ts; ++r) {
          const CT* row = Yc.data() + static_cast<std::size_t>(r) * W;
          for (int j = 0; j < ncb; ++j) {
            C.at(rtop + r, cg0 + j0 + j) = static_cast<TA>(row[j]);
          }
        }
      };

      int b = 0;
      while (nblk - b >= 4) {
        chunk(std::integral_constant<int, 4>{}, b * L);
        b += 4;
      }
      if (nblk - b >= 2) {
        chunk(std::integral_constant<int, 2>{}, b * L);
        b += 2;
      }
      if (nblk - b >= 1) {
        chunk(std::integral_constant<int, 1>{}, b * L);
      }
    }, times);
    return;
  }
#endif  // UNISVD_SIMD_COMPILED

  ka::timed_launch(be, desc, [=](ka::WorkGroupCtx& wg) {
    auto Yi = wg.priv<CT>(static_cast<std::size_t>(ts));  // top row column
    auto Xi = wg.priv<CT>(static_cast<std::size_t>(ts));  // bottom row column
    auto Ak = wg.local<CT>(static_cast<std::size_t>(ts));
    auto Tk = wg.local<CT>(static_cast<std::size_t>(ts));
    const index_t cg0 = col0 + wg.group_id() * cpb;

    wg.items([&](int t) {  // top row loaded ONCE per launch (Figure 2)
      const index_t c = cg0 + t;
      if (c >= colend) return;
      auto y = Yi(t);
      for (int r = 0; r < ts; ++r) y[r] = static_cast<CT>(C.at(rtop + r, c));
    });

    for (index_t lstep = lbegin; lstep < lend; ++lstep) {
      const index_t l =
          dir == ApplyDir::Forward ? lstep : lend - 1 - (lstep - lbegin);
      const index_t rbot = l * ts;

      wg.items([&](int t) {
        for (int idx = t; idx < ts; idx += cpb) {
          Tk[idx] = static_cast<CT>(Tau.at(l, idx));
        }
        const index_t c = cg0 + t;
        if (c >= colend) return;
        auto x = Xi(t);
        for (int r = 0; r < ts; ++r) x[r] = static_cast<CT>(C.at(rbot + r, c));
      });

      for (int step = 0; step < ts; ++step) {
        const int kk = dir == ApplyDir::Forward ? step : ts - 1 - step;
        wg.items([&](int t) {  // stage reflector tail v_kk (full B column)
          for (int idx = t; idx < ts; idx += cpb) {
            Ak[idx] = static_cast<CT>(V.at(rbot + idx, cbase + kk));
          }
        });
        wg.items([&](int t) {
          const index_t c = cg0 + t;
          if (c >= colend) return;
          auto y = Yi(t);
          auto x = Xi(t);
          CT rho = CT(0);
          for (int r = 0; r < ts; ++r) rho += x[r] * Ak[r];
          rho = (rho + y[kk]) * Tk[kk];
          y[kk] -= rho;
          for (int r = 0; r < ts; ++r) x[r] -= rho * Ak[r];
        });
      }

      wg.items([&](int t) {
        const index_t c = cg0 + t;
        if (c >= colend) return;
        auto x = Xi(t);
        for (int r = 0; r < ts; ++r) C.at(rbot + r, c) = static_cast<TA>(x[r]);
      });
    }

    wg.items([&](int t) {
      const index_t c = cg0 + t;
      if (c >= colend) return;
      auto y = Yi(t);
      for (int r = 0; r < ts; ++r) C.at(rtop + r, c) = static_cast<TA>(y[r]);
    });
  }, times);
}

}  // namespace detail

/// Apply the TSQRT reflector sets of tiles (l, k), l in [lbegin, lend), to
/// the tile rows row0 (top) and l (bottom), columns [jbegin, jend) tiles.
template <class T>
void tsmqr(ka::Backend& be, MatrixView<T> W, index_t row0, index_t k,
           index_t lbegin, index_t lend, index_t jbegin, index_t jend,
           MatrixView<T> Tau, const KernelConfig& cfg,
           ka::StageTimes* times = nullptr) {
  detail::tsmqr_impl(be, W, Tau, W, row0, k, lbegin, lend, jbegin, jend, cfg,
                     ka::Stage::TrailingUpdate, times);
}

/// Singular-vector variant of TSMQR: apply the TSQRT reflector sets stored
/// in tiles (l, k) of `V`, l in [lbegin, lend) (tau rows l of `Tau`), to
/// tile rows row0 (top) and l (bottom) of a *different* matrix `C`, tile
/// columns [jbegin, jend) — Q^T for ApplyDir::Forward, Q for Backward
/// (BOTH the row chain and each tile's reflector loop reversed). Reflector
/// source and update target have independent storage types — singular-
/// vector targets stay in compute precision. Launches are attributed to
/// Stage::VectorAccumulation.
template <class TS, class TA>
void tsmqr_apply(ka::Backend& be, MatrixView<TS> V, MatrixView<TS> Tau,
                 MatrixView<TA> C, index_t row0, index_t k, index_t lbegin,
                 index_t lend, index_t jbegin, index_t jend, ApplyDir dir,
                 const KernelConfig& cfg, ka::StageTimes* times = nullptr) {
  detail::tsmqr_impl(be, V, Tau, C, row0, k, lbegin, lend, jbegin, jend, cfg,
                     ka::Stage::VectorAccumulation, times, dir);
}

}  // namespace unisvd::qr

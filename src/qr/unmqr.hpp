#pragma once
/// \file unmqr.hpp
/// UNMQR: apply GEQRT reflectors to a tile row (paper Algorithm 4).
///
/// Massively parallel trailing update: each work-item owns one column of
/// the trailing tiles in registers; COLPERBLOCK work-items form a
/// workgroup. The tau_hat vector and each Householder column are staged
/// into local memory cooperatively, then every column applies the
/// reflector independently (BLAS3-like parallelism).
///
/// ONE kernel body serves two call shapes: the classic trailing update
/// (`unmqr` — reflector source and update target are the same working
/// matrix, Stage::TrailingUpdate) and the singular-vector replay
/// (`unmqr_apply` — separate source and target with independent storage
/// types, either direction, Stage::VectorAccumulation). Keeping a single
/// body guarantees the two paths can never drift numerically.
///
/// NOTE (paper erratum): Algorithm 4 line 11 prints `X_i[k:] -= rho`,
/// which combined with line 12 would update X_i[k+1:] twice. The correct
/// Householder application — and what the Julia kernel of Algorithm 5
/// computes — is X_i[k] -= rho; X_i[k+1:] -= rho * A_k[k+1:]. We implement
/// the correct form.

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

/// Apply Q^T (ApplyDir::Forward) or Q (Backward) of GEQRT(tile (row0, k) of
/// V, tau row row0 of Tau) to tile row row0 of C, tile columns
/// [jbegin, jend). V and C may be the same matrix (trailing update) or
/// different ones (factor accumulation); the compute type follows the
/// target.
template <class TS, class TA>
void unmqr_impl(ka::Backend& be, MatrixView<TS> V, MatrixView<TS> Tau,
                MatrixView<TA> C, index_t row0, index_t k, index_t jbegin,
                index_t jend, const KernelConfig& cfg, ka::Stage stage,
                ka::StageTimes* times, ApplyDir dir = ApplyDir::Forward) {
  using CT = compute_t<TA>;
  const int ts = cfg.tilesize;
  const int cpb = cfg.colperblock;
  const index_t ncols = (jend - jbegin) * ts;
  if (ncols <= 0) return;
  const index_t wgs = (ncols + cpb - 1) / cpb;
  const index_t rbase = row0 * ts;
  const index_t cbase = k * ts;
  const index_t col0 = jbegin * ts;
  const index_t colend = jend * ts;

  ka::LaunchDesc desc;
  desc.name = "unmqr";
  desc.stage = stage;
  desc.num_groups = wgs;
  desc.group_size = cpb;
  desc.local_bytes = static_cast<std::size_t>(2 * ts) * sizeof(CT);
  desc.private_bytes_per_item = static_cast<std::size_t>(ts + 1) * sizeof(CT);
  desc.precision = precision_of<TA>;
  desc.cost.flops = cost::unmqr_flops(ts, ncols);
  desc.cost.bytes_read = cost::unmqr_bytes_r(ts, ncols, wgs, sizeof(TA), sizeof(TS));
  desc.cost.bytes_written = cost::unmqr_bytes_w(ts, ncols, sizeof(TA));
  desc.cost.serial_iterations = 2.0 * ts;

#if UNISVD_SIMD_COMPILED
  // Vector body: lanes run ACROSS columns (one lane = one work-item of the
  // reference body). Columns are processed in chunks of NB vectors (NB*L
  // columns) staged transposed into a ts x NB*L scratch whose row stride is
  // the chunk width, so every load/store in the reflector loop is a
  // contiguous walk of an L1-resident buffer. NB independent accumulator
  // chains per reduction hide the FP-add latency that a single chain would
  // serialize on (consecutive reflector steps depend on each other, so ILP
  // must come from within a step). Per lane the operation sequence — load,
  // sequential reduction over r, scale, rank-1 update, store — is exactly
  // the scalar work-item's, so results are bit-identical (pad lanes are
  // zero-filled and never stored). The LaunchDesc is shared with the scalar
  // body: trace streams stay equal across backends.
  if (be.vectorized()) {
    namespace sd = ka::simd;
    constexpr int L = sd::lanes_v<CT>;
    const int nblk = sd::padded_to_lanes<CT>(cpb) / L;
    ka::timed_launch(be, desc, [=](ka::WorkGroupCtx& wg) {
      auto Akbuf = wg.local<CT>(static_cast<std::size_t>(ts));
      auto Tk = wg.local<CT>(static_cast<std::size_t>(ts));
      const index_t cg0 = col0 + wg.group_id() * cpb;
      const int nc = static_cast<int>(std::min<index_t>(cpb, colend - cg0));

      for (int idx = 0; idx < ts; ++idx) {
        Tk[idx] = static_cast<CT>(Tau.at(row0, idx));
      }

      const auto chunk = [&](auto nbc, int j0) {
        constexpr int NB = decltype(nbc)::value;
        constexpr int W = NB * L;  // chunk width == staging row stride
        auto Xc = wg.local<CT>(static_cast<std::size_t>(ts) * W);
        const int ncb = std::clamp(nc - j0, 0, W);
        if (ncb == 0) return;
        for (int r = 0; r < ts; ++r) {
          CT* row = Xc.data() + static_cast<std::size_t>(r) * W;
          for (int j = 0; j < ncb; ++j) {
            row[j] = static_cast<CT>(C.at(rbase + r, cg0 + j0 + j));
          }
          for (int j = ncb; j < W; ++j) row[j] = CT(0);
        }

        for (int step = 0; step + 1 < ts; ++step) {
          const int kk = dir == ApplyDir::Forward ? step : ts - 2 - step;
          // Reflector column kk is contiguous in a plain column-major view,
          // so point straight at it when no precision cast is needed either.
          // Transposed views (the LQ sweep of band_reduction) and casting
          // storage types stage through Akbuf element-wise instead.
          const CT* Ak = Akbuf.data();
          bool direct = false;
          if constexpr (std::is_same_v<TS, CT>) direct = !V.is_transposed();
          if (direct) {
            if constexpr (std::is_same_v<TS, CT>) {
              Ak = &V.at(rbase, cbase + kk);
            }
          } else {
            for (int idx = kk + 1; idx < ts; ++idx) {
              Akbuf[idx] = static_cast<CT>(V.at(rbase + idx, cbase + kk));
            }
          }
          const sd::vec_t<CT> tkk = sd::broadcast(Tk[kk]);
          CT* Xkk = Xc.data() + static_cast<std::size_t>(kk) * W;
          sd::vec_t<CT> rho[NB];
          for (int b = 0; b < NB; ++b) rho[b] = sd::load<CT>(Xkk + b * L);
          for (int r = kk + 1; r < ts; ++r) {
            const sd::vec_t<CT> akr = sd::broadcast(Ak[r]);
            const CT* Xr = Xc.data() + static_cast<std::size_t>(r) * W;
            for (int b = 0; b < NB; ++b) {
              rho[b] += sd::load<CT>(Xr + b * L) * akr;
            }
          }
          for (int b = 0; b < NB; ++b) {
            rho[b] *= tkk;
            sd::store(Xkk + b * L, sd::load<CT>(Xkk + b * L) - rho[b]);
          }
          for (int r = kk + 1; r < ts; ++r) {
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
            C.at(rbase + r, cg0 + j0 + j) = static_cast<TA>(row[j]);
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
    auto Xi = wg.priv<CT>(static_cast<std::size_t>(ts));
    auto Ak = wg.local<CT>(static_cast<std::size_t>(ts));
    auto Tk = wg.local<CT>(static_cast<std::size_t>(ts));
    const index_t cg0 = col0 + wg.group_id() * cpb;

    // Cooperative tau load; each item loads its own column into registers.
    wg.items([&](int t) {
      for (int idx = t; idx < ts; idx += cpb) {
        Tk[idx] = static_cast<CT>(Tau.at(row0, idx));
      }
      const index_t c = cg0 + t;
      if (c >= colend) return;
      auto x = Xi(t);
      for (int r = 0; r < ts; ++r) x[r] = static_cast<CT>(C.at(rbase + r, c));
    });

    for (int step = 0; step + 1 < ts; ++step) {
      // Forward composes Q^T (factorization order); Backward composes Q by
      // walking the same symmetric reflectors in reverse.
      const int kk = dir == ApplyDir::Forward ? step : ts - 2 - step;
      wg.items([&](int t) {  // stage Householder column kk
        for (int idx = t; idx < ts; idx += cpb) {
          Ak[idx] = static_cast<CT>(V.at(rbase + idx, cbase + kk));
        }
      });
      wg.items([&](int t) {
        const index_t c = cg0 + t;
        if (c >= colend) return;
        auto x = Xi(t);
        CT rho = x[kk];
        for (int r = kk + 1; r < ts; ++r) rho += x[r] * Ak[r];
        rho *= Tk[kk];
        x[kk] -= rho;
        for (int r = kk + 1; r < ts; ++r) x[r] -= rho * Ak[r];
      });
    }

    wg.items([&](int t) {
      const index_t c = cg0 + t;
      if (c >= colend) return;
      auto x = Xi(t);
      for (int r = 0; r < ts; ++r) C.at(rbase + r, c) = static_cast<TA>(x[r]);
    });
  }, times);
}

}  // namespace detail

/// Apply Q^T of GEQRT(tile (row0, k)) to tiles (row0, j), j in [jbegin, jend).
template <class T>
void unmqr(ka::Backend& be, MatrixView<T> W, index_t row0, index_t k,
           index_t jbegin, index_t jend, MatrixView<T> Tau,
           const KernelConfig& cfg, ka::StageTimes* times = nullptr) {
  detail::unmqr_impl(be, W, Tau, W, row0, k, jbegin, jend, cfg,
                     ka::Stage::TrailingUpdate, times);
}

/// Singular-vector variant of UNMQR: apply the GEQRT factorization stored
/// in tile (row0, k) of `V` (tau row `row0` of `Tau`) to tile row `row0` of
/// a *different* matrix `C`, tile columns [jbegin, jend) — Q^T for
/// ApplyDir::Forward, Q for Backward (each Householder factor is
/// symmetric, so walking the reflectors in reverse composes Q; the role
/// LAPACK's ORMQR plays with trans='T' / 'N'). The reflector source and the
/// update target have independent storage types: singular-vector targets
/// stay in compute precision (FP32 for FP16 inputs) while the reflectors
/// stay in storage precision. Launches are attributed to
/// Stage::VectorAccumulation.
template <class TS, class TA>
void unmqr_apply(ka::Backend& be, MatrixView<TS> V, MatrixView<TS> Tau,
                 MatrixView<TA> C, index_t row0, index_t k, index_t jbegin,
                 index_t jend, ApplyDir dir, const KernelConfig& cfg,
                 ka::StageTimes* times = nullptr) {
  detail::unmqr_impl(be, V, Tau, C, row0, k, jbegin, jend, cfg,
                     ka::Stage::VectorAccumulation, times, dir);
}

}  // namespace unisvd::qr

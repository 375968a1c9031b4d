#pragma once
/// \file inputs.hpp
/// Seeded workload inputs. Every matrix is FP32 with a planted spectrum, so
/// the harness knows the exact singular values the program should return;
/// the program only ever sees the generated matrices. The same seed gives
/// byte-identical inputs.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/matrix.hpp"
#include "rand/rng.hpp"

namespace perfbench {

using unisvd::index_t;

/// An FP32 input and the spectrum planted in it (descending, min(m, n)
/// entries, before the FP32 rounding of the entries).
struct Planted {
  unisvd::Matrix<float> a;
  std::vector<double> sigma;
};

/// Independent stream seed for (seed, stream): a SplitMix64 step, so
/// neighbouring seeds and streams do not share generator states.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// sigma_i = 1 / (1 + i), i < k.
std::vector<double> harmonic_spectrum(index_t k);

/// sigma_i = 1 / (1 + i) for i < rank, then a 1e-6-scaled harmonic tail:
/// a numerically rank-`rank` matrix, the shape truncated requests target.
std::vector<double> low_rank_spectrum(index_t k, index_t rank);

/// m x n FP32 matrix U diag(sigma) V^T with U, V products of `reflectors`
/// random Householder reflectors per side.
Planted planted_matrix(index_t m, index_t n, std::vector<double> sigma,
                       std::uint64_t seed, int reflectors = 32);

/// The dense workloads' input number `index`: n x n with the harmonic
/// spectrum.
Planted dense_input(index_t n, std::uint64_t seed, std::uint64_t index = 0);

/// The tiny batch: `count` problems alternating 16 x 16 and 32 x 32, each
/// with the harmonic spectrum.
std::vector<Planted> tiny_batch_inputs(std::size_t count, std::uint64_t seed);

/// Serve request kinds and their share of new requests.
enum class RequestKind { Tiny, Square, Tall, Truncated };
const char* to_string(RequestKind k);

/// Rank and tail of truncated requests.
inline constexpr index_t kTruncRank = 8;

/// One distinct serve request: the matrix and what is asked of it.
struct ServeEntry {
  RequestKind kind = RequestKind::Tiny;
  Planted input;
  std::uint64_t sketch_seed = 0;  ///< TruncConfig::seed of truncated requests
};

/// The `size` distinct requests client `client` cycles through: 50% tiny
/// 8..28 squares, 30% 48..96 squares, 10% tall 384 x 48, 10% truncated
/// 256 x 128 rank-8, in exactly these shares with sizes spread evenly over
/// their ranges; the seed picks the matrices and their order.
std::vector<ServeEntry> serve_universe(unsigned client, std::size_t size,
                                       std::uint64_t seed);

/// Which universe entry a client sends next. A request repeats one of the
/// client's last kRepeatWindow new entries with probability kRepeatShare
/// (those repeats are what the service's result cache can serve); otherwise
/// it is the next entry of the universe, cyclically. Deterministic per
/// (seed, client).
class RepeatSchedule {
 public:
  static constexpr double kRepeatShare = 0.25;
  static constexpr std::size_t kRepeatWindow = 8;

  struct Step {
    std::size_t entry = 0;
    bool repeat = false;
  };

  RepeatSchedule(std::uint64_t seed, unsigned client, std::size_t universe_size);
  Step next();

 private:
  unisvd::rnd::Xoshiro256 rng_;
  std::size_t universe_size_;
  std::size_t next_new_ = 0;
  std::deque<std::size_t> recent_;
};

/// 64-bit FNV-1a-style digest of raw bytes, chained through `h`.
std::uint64_t hash_bytes(const void* data, std::size_t bytes,
                         std::uint64_t h = 0xcbf29ce484222325ull);

/// Digest of a matrix's logical contents.
template <class T>
std::uint64_t hash_matrix(const unisvd::Matrix<T>& m, std::uint64_t h = 0xcbf29ce484222325ull) {
  const index_t dims[2] = {m.rows(), m.cols()};
  h = hash_bytes(dims, sizeof dims, h);
  return hash_bytes(m.data(), static_cast<std::size_t>(m.rows() * m.cols()) * sizeof(T), h);
}

}  // namespace perfbench

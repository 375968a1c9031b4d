#include "inputs.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "rand/matrix_gen.hpp"

namespace perfbench {

using unisvd::rnd::Xoshiro256;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  unisvd::rnd::SplitMix64 sm(seed ^ (0xD1B54A32D192ED03ull * (stream + 1)));
  return sm.next();
}

std::vector<double> harmonic_spectrum(index_t k) {
  std::vector<double> s(static_cast<std::size_t>(k));
  for (index_t i = 0; i < k; ++i) s[static_cast<std::size_t>(i)] = 1.0 / (1.0 + static_cast<double>(i));
  return s;
}

std::vector<double> low_rank_spectrum(index_t k, index_t rank) {
  std::vector<double> s = harmonic_spectrum(k);
  for (index_t i = rank; i < k; ++i) s[static_cast<std::size_t>(i)] *= 1e-6;
  return s;
}

Planted planted_matrix(index_t m, index_t n, std::vector<double> sigma,
                       std::uint64_t seed, int reflectors) {
  Xoshiro256 rng(seed);
  Planted p;
  p.a = unisvd::rnd::round_to<float>(
      unisvd::rnd::rect_matrix_with_spectrum(m, n, sigma, rng, reflectors));
  p.sigma = std::move(sigma);
  return p;
}

Planted dense_input(index_t n, std::uint64_t seed, std::uint64_t index) {
  return planted_matrix(n, n, harmonic_spectrum(n), derive_seed(derive_seed(seed, 1), index));
}

std::vector<Planted> tiny_batch_inputs(std::size_t count, std::uint64_t seed) {
  std::vector<Planted> out;
  out.reserve(count);
  const std::uint64_t base = derive_seed(seed, 2);
  for (std::size_t p = 0; p < count; ++p) {
    const index_t n = p % 2 == 0 ? 16 : 32;
    // Eight reflectors per side already make every entry dense; more only
    // lengthens set-up.
    out.push_back(planted_matrix(n, n, harmonic_spectrum(n), derive_seed(base, p), 8));
  }
  return out;
}

const char* to_string(RequestKind k) {
  switch (k) {
    case RequestKind::Tiny: return "tiny";
    case RequestKind::Square: return "square";
    case RequestKind::Tall: return "tall";
    case RequestKind::Truncated: return "truncated";
  }
  return "?";
}

std::vector<ServeEntry> serve_universe(unsigned client, std::size_t size,
                                       std::uint64_t seed) {
  // Every seed gets the same multiset of request shapes, in the exact mix
  // proportions with sizes spread evenly over their ranges; the seed picks
  // the matrices and the order. Drawing kinds and sizes at random instead
  // moves throughput by +-10% from seed to seed.
  struct Shape {
    RequestKind kind;
    index_t m, n;
  };
  std::vector<Shape> shapes;
  shapes.reserve(size);
  const auto share = [size](double frac) {
    return static_cast<std::size_t>(frac * static_cast<double>(size));
  };
  const std::size_t tiny = share(0.5);
  const std::size_t square = share(0.8) - tiny;
  const std::size_t tall = share(0.9) - tiny - square;
  const std::size_t trunc = size - tiny - square - tall;
  const auto spread = [](std::size_t i, std::size_t count, index_t lo, index_t hi) {
    return lo + static_cast<index_t>(i * static_cast<std::size_t>(hi - lo + 1) /
                                     std::max<std::size_t>(count, 1));
  };
  for (std::size_t i = 0; i < tiny; ++i) {
    const index_t n = spread(i, tiny, 8, 28);
    shapes.push_back({RequestKind::Tiny, n, n});
  }
  for (std::size_t i = 0; i < square; ++i) {
    const index_t n = spread(i, square, 48, 96);
    shapes.push_back({RequestKind::Square, n, n});
  }
  for (std::size_t i = 0; i < tall; ++i) shapes.push_back({RequestKind::Tall, 384, 48});
  for (std::size_t i = 0; i < trunc; ++i) shapes.push_back({RequestKind::Truncated, 256, 128});

  const std::uint64_t base = derive_seed(seed, 100 + client);
  Xoshiro256 rng(base);
  for (std::size_t i = shapes.size(); i > 1; --i) {  // Fisher-Yates
    const auto j = static_cast<std::size_t>(rng.uniform() * static_cast<double>(i));
    std::swap(shapes[i - 1], shapes[std::min(j, i - 1)]);
  }

  std::vector<ServeEntry> out;
  out.reserve(size);
  for (std::size_t e = 0; e < shapes.size(); ++e) {
    const Shape& sh = shapes[e];
    const std::uint64_t mseed = derive_seed(base, e);
    ServeEntry entry;
    entry.kind = sh.kind;
    const index_t k = std::min(sh.m, sh.n);
    if (sh.kind == RequestKind::Truncated) {
      entry.input = planted_matrix(sh.m, sh.n, low_rank_spectrum(k, kTruncRank), mseed, 16);
      entry.sketch_seed = derive_seed(mseed, 7);
    } else {
      entry.input = planted_matrix(sh.m, sh.n, harmonic_spectrum(k), mseed,
                                   sh.kind == RequestKind::Tiny ? 8 : 16);
    }
    out.push_back(std::move(entry));
  }
  return out;
}

RepeatSchedule::RepeatSchedule(std::uint64_t seed, unsigned client,
                               std::size_t universe_size)
    : rng_(derive_seed(seed, 200 + client)), universe_size_(universe_size) {}

RepeatSchedule::Step RepeatSchedule::next() {
  // Draw on every step, repeat or not, so the decision stream does not
  // depend on the history length.
  const double u = rng_.uniform();
  const double pick = rng_.uniform();
  if (u < kRepeatShare && !recent_.empty()) {
    const auto i = static_cast<std::size_t>(pick * static_cast<double>(recent_.size()));
    return {recent_[std::min(i, recent_.size() - 1)], true};
  }
  const std::size_t entry = next_new_;
  next_new_ = (next_new_ + 1) % universe_size_;
  recent_.push_back(entry);
  if (recent_.size() > kRepeatWindow) recent_.pop_front();
  return {entry, false};
}

std::uint64_t hash_bytes(const void* data, std::size_t bytes, std::uint64_t h) {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * kPrime;
    h ^= h >> 29;
  }
  for (; i < bytes; ++i) h = (h ^ p[i]) * kPrime;
  return h;
}

}  // namespace perfbench

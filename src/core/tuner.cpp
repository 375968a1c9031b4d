#include "core/tuner.hpp"

#ifdef _WIN32
#include <process.h>
#define UNISVD_GETPID ::_getpid
#else
#include <unistd.h>
#define UNISVD_GETPID ::getpid
#endif

#include <algorithm>
#include <atomic>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <locale>
#include <optional>
#include <sstream>
#include <system_error>

#include "common/half.hpp"
#include "common/linalg_ref.hpp"
#include "core/batch.hpp"
#include "qr/band_reduction.hpp"
#include "rand/matrix_gen.hpp"
#include "tile/tile_layout.hpp"

// Concurrency model (audited for the -Wthread-safety retrofit): TuningTable
// holds no mutexes and no fields shared between threads — a table instance
// is confined to its owning thread, and the only cross-thread (in fact
// cross-process) coordination is save()'s atomic-rename protocol below,
// whose sole shared state is the process-local save_seq atomic. There is
// deliberately nothing here for UNISVD_GUARDED_BY to annotate; if a shared
// field is ever added it must use unisvd::Mutex (scripts/unisvd_lint.py
// forbids raw std::mutex in src/).

namespace unisvd::core {

std::vector<qr::KernelConfig> default_candidates(index_t n) {
  std::vector<qr::KernelConfig> out;
  for (int ts : {16, 32, 64}) {
    if (ts > n) continue;
    for (int cpb : {8, 16, 32}) {
      if (cpb > ts) continue;
      qr::KernelConfig cfg;
      cfg.tilesize = ts;
      cfg.colperblock = cpb;
      cfg.splitk = 1;  // CPU emulation gains nothing from split reductions
      cfg.fused = true;
      out.push_back(cfg);
    }
  }
  if (out.empty()) {
    qr::KernelConfig cfg;
    cfg.tilesize = 8;
    cfg.colperblock = 8;
    out.push_back(cfg);
  }
  return out;
}

template <class T>
TuneResult autotune(ka::Backend& backend, index_t n,
                    std::vector<qr::KernelConfig> candidates, int repeats,
                    std::uint64_t seed) {
  UNISVD_REQUIRE(backend.executes(), "autotune: backend must execute kernels");
  if (candidates.empty()) candidates = default_candidates(n);
  UNISVD_REQUIRE(repeats >= 1, "autotune: repeats must be positive");

  rnd::Xoshiro256 rng(seed);
  const Matrix<double> probe = rnd::gaussian_matrix(n, n, rng);

  TuneResult result;
  for (const auto& cfg : candidates) {
    cfg.validate();
    const auto layout = tile::TileLayout::make(n, cfg.tilesize);
    double best = 0.0;
    for (int r = 0; r < repeats; ++r) {
      Matrix<T> work(layout.n, layout.n, T(0));
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = 0; i < n; ++i) {
          work(i, j) = static_cast<T>(probe(i, j));
        }
      }
      Matrix<T> tau(qr::band_tau_rows(layout.ntiles), cfg.tilesize, T(0));
      const auto t0 = std::chrono::steady_clock::now();
      qr::band_reduction<T>(backend, work.view(), tau.view(), cfg);
      const double dt =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      best = (r == 0) ? dt : std::min(best, dt);
    }
    result.all.push_back(TuneEntry{cfg, best});
  }
  std::sort(result.all.begin(), result.all.end(),
            [](const TuneEntry& a, const TuneEntry& b) { return a.seconds < b.seconds; });
  result.best = result.all.front().config;
  return result;
}

template TuneResult autotune<Half>(ka::Backend&, index_t, std::vector<qr::KernelConfig>,
                                   int, std::uint64_t);
template TuneResult autotune<float>(ka::Backend&, index_t, std::vector<qr::KernelConfig>,
                                    int, std::uint64_t);
template TuneResult autotune<double>(ka::Backend&, index_t,
                                     std::vector<qr::KernelConfig>, int, std::uint64_t);

namespace {

template <class F>
double seconds_of(const F& run) {
  const auto t0 = std::chrono::steady_clock::now();
  run();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Which contiguous run of challenger wins sets a learned threshold.
enum class WinRule {
  Prefix,  ///< the largest size up to which the challenger won at every
           ///< probed size from the smallest (`none` if it lost there)
  Suffix   ///< the smallest size from which the challenger won at every
           ///< probed size up to the largest (`none` if it lost there)
};

/// Best-of-repeats seconds of both arms at one probed size.
struct ArmSeconds {
  index_t n = 0;
  double incumbent = std::numeric_limits<double>::infinity();
  double challenger = std::numeric_limits<double>::infinity();
};

struct Probe {
  index_t value = 0;             ///< learned threshold (see WinRule)
  std::vector<ArmSeconds> arms;  ///< ascending in n
};

/// The probe protocol of the three threshold tuners. `sizes` are sorted and
/// deduplicated (each must be >= min_size). Per size, `prepare(n)` builds
/// that size's inputs and returns `solve(bool challenger)`, which runs one
/// arm once. Each arm first runs once untimed (pool wake-up, first touch);
/// then `repeats` rounds time both arms, alternating which goes first, and
/// keep each arm's best. Under either WinRule a noisy win beyond a real
/// loss never moves the threshold.
template <class Prepare>
Probe probe_crossover(std::vector<index_t> sizes, index_t min_size, int repeats,
                      WinRule rule, index_t none, const std::string& who,
                      const Prepare& prepare) {
  UNISVD_REQUIRE(repeats >= 1, who + ": repeats must be positive");
  for (const index_t n : sizes) {
    UNISVD_REQUIRE(n >= min_size, who + ": probed sizes must be >= " +
                                      std::to_string(min_size));
  }
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());

  Probe probe;
  for (const index_t n : sizes) {
    const auto solve = prepare(n);
    solve(false);
    solve(true);
    ArmSeconds arm;
    arm.n = n;
    for (int r = 0; r < repeats; ++r) {
      for (const bool challenger : {r % 2 == 0, r % 2 != 0}) {
        double& best = challenger ? arm.challenger : arm.incumbent;
        best = std::min(best, seconds_of([&] { solve(challenger); }));
      }
    }
    probe.arms.push_back(arm);
  }
  probe.value = none;
  const auto won = [](const ArmSeconds& a) { return a.challenger <= a.incumbent; };
  if (rule == WinRule::Prefix) {
    for (auto it = probe.arms.begin(); it != probe.arms.end() && won(*it); ++it) {
      probe.value = it->n;
    }
  } else {
    for (auto it = probe.arms.rbegin(); it != probe.arms.rend() && won(*it); ++it) {
      probe.value = it->n;
    }
  }
  return probe;
}

/// A Thin-job solve of a random n x n probe matrix under `cfg` as adjusted
/// by `arm(cfg, challenger)` — the `prepare` of the two SvdConfig tuners.
template <class T, class Arm>
auto square_thin_solve(ka::Backend& backend, const SvdConfig& config,
                       rnd::Xoshiro256& rng, index_t n, Arm arm) {
  return [&backend, config, arm,
          probe = rnd::round_to<T>(rnd::gaussian_matrix(n, n, rng))](bool challenger) {
    SvdConfig cfg = config;
    cfg.job = SvdJob::Thin;
    arm(cfg, challenger);
    (void)svd_values_report<T>(probe.view(), cfg, backend);
  };
}

}  // namespace

template <class T>
BatchCrossoverResult tune_batch_crossover(ka::Backend& backend,
                                          std::vector<index_t> sizes,
                                          std::size_t problems_per_size, int repeats,
                                          const SvdConfig& config, std::uint64_t seed) {
  UNISVD_REQUIRE(backend.executes(),
                 "tune_batch_crossover: backend must execute kernels");
  const ka::ThreadPool* pool = backend.batch_pool();
  UNISVD_REQUIRE(pool != nullptr && pool->size() > 1 && !pool->in_job(),
                 "tune_batch_crossover: the inter-problem schedule cannot run "
                 "here — the backend needs a thread pool of >= 2 threads and "
                 "must not be called from inside one of its own pool jobs");
  UNISVD_REQUIRE(problems_per_size >= 1,
                 "tune_batch_crossover: problems_per_size must be positive");
  if (sizes.empty()) sizes = {32, 64, 128, 256};

  rnd::Xoshiro256 rng(seed);
  std::vector<Matrix<T>> problems;
  std::vector<ConstMatrixView<T>> views;
  // Challenger: the inter-problem schedule, one problem per pool slot.
  const Probe probe = probe_crossover(
      std::move(sizes), 1, repeats, WinRule::Prefix, 0, "tune_batch_crossover",
      [&](index_t n) {
        problems.clear();
        views.clear();
        for (std::size_t p = 0; p < problems_per_size; ++p) {
          problems.push_back(rnd::round_to<T>(rnd::gaussian_matrix(n, n, rng)));
        }
        for (const auto& m : problems) views.push_back(m.view());
        return [&](bool inter) {
          BatchConfig bc;
          bc.svd = config;
          bc.schedule = inter ? BatchSchedule::InterProblem : BatchSchedule::IntraProblem;
          (void)svd_values_batched_report<T>(views, bc, backend);
        };
      });
  BatchCrossoverResult result;
  result.crossover_n = probe.value;
  for (const ArmSeconds& a : probe.arms) {
    result.samples.push_back(BatchCrossoverSample{a.n, a.challenger, a.incumbent});
  }
  return result;
}

template BatchCrossoverResult tune_batch_crossover<Half>(ka::Backend&,
                                                         std::vector<index_t>,
                                                         std::size_t, int,
                                                         const SvdConfig&,
                                                         std::uint64_t);
template BatchCrossoverResult tune_batch_crossover<float>(ka::Backend&,
                                                          std::vector<index_t>,
                                                          std::size_t, int,
                                                          const SvdConfig&,
                                                          std::uint64_t);
template BatchCrossoverResult tune_batch_crossover<double>(ka::Backend&,
                                                           std::vector<index_t>,
                                                           std::size_t, int,
                                                           const SvdConfig&,
                                                           std::uint64_t);

namespace {

std::optional<Precision> parse_precision(const std::string& tok) {
  if (tok == "FP16") return Precision::FP16;
  if (tok == "FP32") return Precision::FP32;
  if (tok == "FP64") return Precision::FP64;
  return std::nullopt;
}

/// Lookup order: the exact precision, then its neighbours nearest first.
/// FP16 and FP32 prefer each other (they share the FP32 compute path, so
/// tuned values transfer well) before falling back to FP64, and vice versa.
std::array<Precision, 3> precision_search_order(Precision p) {
  switch (p) {
    case Precision::FP16: return {p, Precision::FP32, Precision::FP64};
    case Precision::FP32: return {p, Precision::FP16, Precision::FP64};
    case Precision::FP64: return {p, Precision::FP32, Precision::FP16};
  }
  return {p, Precision::FP32, Precision::FP64};
}

using Threshold = TuningTable::Threshold;

/// Text directive of each threshold, indexed by the enum value.
constexpr std::array<const char*, 3> kThresholdDirectives = {"crossover", "small_svd",
                                                             "stage3"};

const char* directive_of(Threshold knob) {
  return kThresholdDirectives[static_cast<std::size_t>(knob)];
}

std::optional<Threshold> threshold_of(const std::string& directive) {
  for (std::size_t i = 0; i < kThresholdDirectives.size(); ++i) {
    if (directive == kThresholdDirectives[i]) return static_cast<Threshold>(i);
  }
  return std::nullopt;
}

void require_backend_name(std::string_view backend) {
  UNISVD_REQUIRE(backend.find_first_of(" \t\n#") == std::string_view::npos,
                 "TuningTable: backend names must be free of whitespace and '#' "
                 "(the text format's separators and comment marker)");
}

}  // namespace

template <class V>
const V* TuningTable::lookup(const std::map<Key, V>& entries, std::string_view backend,
                             Precision p) {
  for (const Precision q : precision_search_order(p)) {
    const auto it = entries.find(Key{std::string(backend), q});
    if (it != entries.end()) return &it->second;
  }
  return nullptr;
}

void TuningTable::set(Threshold knob, std::string_view backend, Precision p,
                      index_t value) {
  UNISVD_REQUIRE(value >= 0, std::string("TuningTable: ") + directive_of(knob) +
                                 " threshold must be >= 0");
  require_backend_name(backend);
  thresholds_[{knob, std::string(backend), p}] = value;
}

std::optional<index_t> TuningTable::get(Threshold knob, std::string_view backend,
                                        Precision p) const {
  const auto it = thresholds_.find({knob, std::string(backend), p});
  if (it == thresholds_.end()) return std::nullopt;
  return it->second;
}

index_t TuningTable::get_or(Threshold knob, std::string_view backend, Precision p,
                            index_t fallback) const {
  for (const Precision q : precision_search_order(p)) {
    if (const auto hit = get(knob, backend, q)) return *hit;
  }
  return fallback;
}

void TuningTable::set_kernels(std::string_view backend, Precision p,
                              const qr::KernelConfig& cfg) {
  cfg.validate();
  require_backend_name(backend);
  kernel_configs_[Key{std::string(backend), p}] = cfg;
}

std::optional<qr::KernelConfig> TuningTable::kernels(std::string_view backend,
                                                     Precision p) const {
  const auto it = kernel_configs_.find(Key{std::string(backend), p});
  if (it == kernel_configs_.end()) return std::nullopt;
  return it->second;
}

qr::KernelConfig TuningTable::kernels_or(std::string_view backend, Precision p,
                                         const qr::KernelConfig& fallback) const {
  const qr::KernelConfig* hit = lookup(kernel_configs_, backend, p);
  return hit != nullptr ? *hit : fallback;
}

void TuningTable::set_rsvd(std::string_view backend, Precision p,
                           const RsvdDefaults& d) {
  UNISVD_REQUIRE(d.oversample >= 0 && d.power_iters >= 0,
                 "TuningTable: rsvd defaults must be non-negative");
  require_backend_name(backend);
  rsvd_defaults_[Key{std::string(backend), p}] = d;
}

std::optional<TuningTable::RsvdDefaults> TuningTable::rsvd(std::string_view backend,
                                                           Precision p) const {
  const auto it = rsvd_defaults_.find(Key{std::string(backend), p});
  if (it == rsvd_defaults_.end()) return std::nullopt;
  return it->second;
}

TuningTable::RsvdDefaults TuningTable::rsvd_or(std::string_view backend, Precision p,
                                               const RsvdDefaults& fallback) const {
  const RsvdDefaults* hit = lookup(rsvd_defaults_, backend, p);
  return hit != nullptr ? *hit : fallback;
}

void TuningTable::write(std::ostream& os) const {
  // The text format is locale-independent by contract: a process that set a
  // global locale with ',' decimal points (or digit grouping on integers)
  // must not corrupt the table it saves. Pin the classic "C" locale for the
  // whole write and restore the caller's on exit.
  const std::locale caller_locale = os.imbue(std::locale::classic());
  os << "# unisvd tuning table v1\n";
  // Directive order is part of the format: crossover lines first, the
  // other thresholds after kernels and rsvd.
  const auto write_thresholds = [&](bool crossover) {
    for (const auto& [key, value] : thresholds_) {
      const auto& [knob, backend, p] = key;
      if ((knob == Threshold::BatchCrossover) != crossover) continue;
      os << directive_of(knob) << ' ' << backend << ' ' << to_string(p) << ' '
         << value << '\n';
    }
  };
  write_thresholds(true);
  for (const auto& [key, cfg] : kernel_configs_) {
    os << "kernels " << key.first << ' ' << to_string(key.second) << ' '
       << cfg.tilesize << ' ' << cfg.colperblock << ' ' << cfg.splitk << ' '
       << (cfg.fused ? 1 : 0) << '\n';
  }
  for (const auto& [key, d] : rsvd_defaults_) {
    os << "rsvd " << key.first << ' ' << to_string(key.second) << ' '
       << d.oversample << ' ' << d.power_iters << '\n';
  }
  write_thresholds(false);
  os.imbue(caller_locale);
}

TuningTable TuningTable::read(std::istream& is, std::size_t* malformed_lines) {
  TuningTable table;
  std::size_t malformed = 0;
  // A line whose KNOWN directive fails to parse is corruption (a truncated
  // write, a hand-edit gone wrong) and is counted — as is a directive that
  // is a torn PREFIX of a known one ("crossov": a write cut off inside the
  // token itself). Genuinely unknown directives pass silently, so newer
  // tables still load on older code and tables holding retired directives
  // still load on newer code.
  const auto known = [](const std::string& d) {
    for (const char* full : {"crossover", "kernels", "rsvd", "small_svd", "stage3"}) {
      const std::string_view f(full);
      if (d == f || (!d.empty() && d.size() < f.size() &&
                     f.substr(0, d.size()) == d)) {
        return true;
      }
    }
    return false;
  };
  std::string line;
  while (std::getline(is, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    // Parse under the classic "C" locale whatever the process global is:
    // grouping locales can mangle the integer fields. Mirrors the imbue in
    // write().
    ls.imbue(std::locale::classic());
    std::string directive;
    if (!(ls >> directive)) continue;  // blank line
    std::string backend;
    std::string prec_tok;
    std::optional<Precision> p;
    if ((ls >> backend >> prec_tok)) p = parse_precision(prec_tok);
    if (!p) {
      if (known(directive)) ++malformed;  // truncated / garbled key: skip
      continue;
    }
    if (const auto knob = threshold_of(directive)) {
      index_t value = -1;
      if (!(ls >> value) || value < 0) {
        ++malformed;
        continue;
      }
      table.thresholds_[{*knob, backend, *p}] = value;
    } else if (directive == "kernels") {
      qr::KernelConfig cfg;
      int fused = 0;
      if (!(ls >> cfg.tilesize >> cfg.colperblock >> cfg.splitk >> fused)) {
        ++malformed;
        continue;
      }
      cfg.fused = fused != 0;
      try {
        cfg.validate();
      } catch (const Error&) {
        ++malformed;  // corrupt entry: skip, keep the rest of the table
        continue;
      }
      table.kernel_configs_[Key{backend, *p}] = cfg;
    } else if (directive == "rsvd") {
      RsvdDefaults d;
      if (!(ls >> d.oversample >> d.power_iters) || d.oversample < 0 ||
          d.power_iters < 0) {
        ++malformed;
        continue;
      }
      table.rsvd_defaults_[Key{backend, *p}] = d;
    } else if (known(directive)) {
      ++malformed;  // torn prefix of a known directive, args intact
    }
    // Unknown directives are ignored (forward compatibility).
  }
  if (malformed_lines != nullptr) *malformed_lines = malformed;
  return table;
}

bool TuningTable::save(const std::string& path) const {
  // Atomic replace: serialize into a pid+sequence-suffixed sibling, then
  // rename over the target. A crash mid-write leaves only the temp file
  // behind; concurrent savers — other processes (distinct pid) or other
  // threads of this one (distinct sequence number) — race renames, so the
  // last one wins with a COMPLETE table either way: the target path never
  // holds a partial write.
  static std::atomic<unsigned> save_seq{0};
  const std::string tmp = path + ".tmp." + std::to_string(UNISVD_GETPID()) +
                          "." + std::to_string(save_seq.fetch_add(1));
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) return false;
    write(os);
    os.flush();
    if (!os) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code rm;
    std::filesystem::remove(tmp, rm);
    return false;
  }
  return true;
}

TuningTable TuningTable::load(const std::string& path) {
  std::ifstream is(path);
  if (!is) return TuningTable{};
  std::size_t malformed = 0;
  TuningTable table = read(is, &malformed);
  if (malformed > 0) {
    // Never fail the caller over a damaged cache file: drop the bad lines
    // (a fully garbled table simply loads empty) and say so once.
    std::cerr << "unisvd: tuning table '" << path << "': ignored " << malformed
              << " malformed line(s)"
              << (table.empty() ? "; no usable entries, loading as empty" : "")
              << '\n';
  }
  return table;
}

template <class T>
index_t learn_batch_crossover(TuningTable& table, ka::Backend& backend,
                              std::vector<index_t> sizes,
                              std::size_t problems_per_size, int repeats,
                              const SvdConfig& config, std::uint64_t seed) {
  const BatchCrossoverResult result = tune_batch_crossover<T>(
      backend, std::move(sizes), problems_per_size, repeats, config, seed);
  table.set_batch_crossover(backend.name(), precision_of<T>, result.crossover_n);
  return result.crossover_n;
}

template index_t learn_batch_crossover<Half>(TuningTable&, ka::Backend&,
                                             std::vector<index_t>, std::size_t, int,
                                             const SvdConfig&, std::uint64_t);
template index_t learn_batch_crossover<float>(TuningTable&, ka::Backend&,
                                              std::vector<index_t>, std::size_t, int,
                                              const SvdConfig&, std::uint64_t);
template index_t learn_batch_crossover<double>(TuningTable&, ka::Backend&,
                                               std::vector<index_t>, std::size_t, int,
                                               const SvdConfig&, std::uint64_t);

namespace {

/// Drop the table's per-solve entries (Phase-1 kernels and the two
/// SvdConfig thresholds) into `svd`, keeping its values where the table has
/// nothing measured.
void apply_tuned_svd(const TuningTable& table, std::string_view backend, Precision p,
                     SvdConfig& svd) {
  svd.kernels = table.kernels_or(backend, p, svd.kernels);
  svd.small_svd_threshold =
      table.get_or(Threshold::SmallSvd, backend, p, svd.small_svd_threshold);
  svd.dc_crossover = table.get_or(Threshold::Stage3, backend, p, svd.dc_crossover);
}

}  // namespace

BatchConfig tuned_batch_config(const TuningTable& table, const ka::Backend& backend,
                               Precision p, BatchConfig base) {
  base.crossover_n = table.batch_crossover_or(backend.name(), p, base.crossover_n);
  apply_tuned_svd(table, backend.name(), p, base.svd);
  return base;
}

template <class T>
SmallSvdThresholdResult tune_small_svd_threshold(ka::Backend& backend,
                                                 std::vector<index_t> sizes,
                                                 int repeats,
                                                 const SvdConfig& config,
                                                 std::uint64_t seed) {
  UNISVD_REQUIRE(backend.executes(),
                 "tune_small_svd_threshold: backend must execute kernels");
  if (sizes.empty()) sizes = {8, 16, 24, 32, 48, 64};
  rnd::Xoshiro256 rng(seed);
  // Challenger: the fused path forced at the probed size (incumbent: off).
  const Probe probe = probe_crossover(
      std::move(sizes), 1, repeats, WinRule::Prefix, 0, "tune_small_svd_threshold",
      [&](index_t n) {
        return square_thin_solve<T>(backend, config, rng, n,
                                    [n](SvdConfig& cfg, bool fused) {
                                      cfg.small_svd_threshold = fused ? n : 0;
                                    });
      });
  SmallSvdThresholdResult result;
  result.threshold = probe.value;
  for (const ArmSeconds& a : probe.arms) {
    result.samples.push_back(SmallSvdSample{a.n, a.challenger, a.incumbent});
  }
  return result;
}

template SmallSvdThresholdResult tune_small_svd_threshold<Half>(
    ka::Backend&, std::vector<index_t>, int, const SvdConfig&, std::uint64_t);
template SmallSvdThresholdResult tune_small_svd_threshold<float>(
    ka::Backend&, std::vector<index_t>, int, const SvdConfig&, std::uint64_t);
template SmallSvdThresholdResult tune_small_svd_threshold<double>(
    ka::Backend&, std::vector<index_t>, int, const SvdConfig&, std::uint64_t);

template <class T>
index_t learn_small_svd_threshold(TuningTable& table, ka::Backend& backend,
                                  std::vector<index_t> sizes, int repeats,
                                  const SvdConfig& config, std::uint64_t seed) {
  const SmallSvdThresholdResult result = tune_small_svd_threshold<T>(
      backend, std::move(sizes), repeats, config, seed);
  table.set(Threshold::SmallSvd, backend.name(), precision_of<T>, result.threshold);
  return result.threshold;
}

template index_t learn_small_svd_threshold<Half>(TuningTable&, ka::Backend&,
                                                 std::vector<index_t>, int,
                                                 const SvdConfig&, std::uint64_t);
template index_t learn_small_svd_threshold<float>(TuningTable&, ka::Backend&,
                                                  std::vector<index_t>, int,
                                                  const SvdConfig&, std::uint64_t);
template index_t learn_small_svd_threshold<double>(TuningTable&, ka::Backend&,
                                                   std::vector<index_t>, int,
                                                   const SvdConfig&, std::uint64_t);

template <class T>
Stage3CrossoverResult tune_stage3_crossover(ka::Backend& backend,
                                            std::vector<index_t> sizes,
                                            int repeats, const SvdConfig& config,
                                            std::uint64_t seed) {
  UNISVD_REQUIRE(backend.executes(),
                 "tune_stage3_crossover: backend must execute kernels");
  if (sizes.empty()) sizes = {64, 96, 128, 192};
  rnd::Xoshiro256 rng(seed);
  // Challenger: divide-and-conquer (incumbent: implicit QR). The probe
  // measures the Stage-3 engines, not the dispatch heuristics around them,
  // so the tiny-problem shortcut stays out of the way.
  const Probe probe = probe_crossover(
      std::move(sizes), 2, repeats, WinRule::Suffix, kStage3CrossoverNever,
      "tune_stage3_crossover", [&](index_t n) {
        return square_thin_solve<T>(backend, config, rng, n,
                                    [](SvdConfig& cfg, bool dc) {
                                      cfg.stage3 = dc ? Stage3Solver::DivideConquer
                                                      : Stage3Solver::QR;
                                      cfg.small_svd_threshold = 0;
                                    });
      });
  Stage3CrossoverResult result;
  result.crossover = probe.value;
  for (const ArmSeconds& a : probe.arms) {
    result.samples.push_back(Stage3Sample{a.n, a.incumbent, a.challenger});
  }
  return result;
}

template Stage3CrossoverResult tune_stage3_crossover<Half>(
    ka::Backend&, std::vector<index_t>, int, const SvdConfig&, std::uint64_t);
template Stage3CrossoverResult tune_stage3_crossover<float>(
    ka::Backend&, std::vector<index_t>, int, const SvdConfig&, std::uint64_t);
template Stage3CrossoverResult tune_stage3_crossover<double>(
    ka::Backend&, std::vector<index_t>, int, const SvdConfig&, std::uint64_t);

template <class T>
index_t learn_stage3_crossover(TuningTable& table, ka::Backend& backend,
                               std::vector<index_t> sizes, int repeats,
                               const SvdConfig& config, std::uint64_t seed) {
  const Stage3CrossoverResult result = tune_stage3_crossover<T>(
      backend, std::move(sizes), repeats, config, seed);
  table.set(Threshold::Stage3, backend.name(), precision_of<T>, result.crossover);
  return result.crossover;
}

template index_t learn_stage3_crossover<Half>(TuningTable&, ka::Backend&,
                                              std::vector<index_t>, int,
                                              const SvdConfig&, std::uint64_t);
template index_t learn_stage3_crossover<float>(TuningTable&, ka::Backend&,
                                               std::vector<index_t>, int,
                                               const SvdConfig&, std::uint64_t);
template index_t learn_stage3_crossover<double>(TuningTable&, ka::Backend&,
                                                std::vector<index_t>, int,
                                                const SvdConfig&, std::uint64_t);

template <class T>
RsvdTuneResult tune_rsvd(ka::Backend& backend, index_t m, index_t n, index_t rank,
                         std::vector<TuningTable::RsvdDefaults> candidates,
                         int repeats, double accuracy_budget, std::uint64_t seed) {
  UNISVD_REQUIRE(backend.executes(), "tune_rsvd: backend must execute kernels");
  UNISVD_REQUIRE(m >= n && n >= 2 * rank && rank >= 2,
                 "tune_rsvd: probe needs m >= n >= 2*rank, rank >= 2");
  UNISVD_REQUIRE(repeats >= 1, "tune_rsvd: repeats must be positive");
  UNISVD_REQUIRE(accuracy_budget >= 1.0, "tune_rsvd: accuracy_budget must be >= 1");
  if (candidates.empty()) {
    for (const index_t p : {index_t{4}, index_t{8}, index_t{16}}) {
      for (const int q : {0, 1, 2}) {
        candidates.push_back(TuningTable::RsvdDefaults{p, q});
      }
    }
  }

  // Probe: geometric decay to sigma_rank, then a flat noise tail — the
  // shape truncated SVD serves (PCA scree, trained-weight spectra). The
  // optimal rank-k Frobenius error is known exactly from the spectrum.
  std::vector<double> sigma(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    sigma[static_cast<std::size_t>(i)] =
        i < rank ? std::pow(10.0, -2.0 * static_cast<double>(i) /
                                      static_cast<double>(rank))
                 : 1e-3;
  }
  double tail2 = 0.0;
  for (index_t i = rank; i < n; ++i) {
    tail2 += sigma[static_cast<std::size_t>(i)] * sigma[static_cast<std::size_t>(i)];
  }
  const double optimal = std::sqrt(tail2);
  rnd::Xoshiro256 rng(seed);
  const Matrix<double> probe64 = rnd::rect_matrix_with_spectrum(m, n, sigma, rng);
  const Matrix<T> probe = rnd::round_to<T>(probe64);

  RsvdTuneResult result;
  for (const auto& cand : candidates) {
    TruncConfig cfg;
    cfg.rank = rank;
    cfg.oversample = cand.oversample;
    cfg.power_iters = cand.power_iters;
    cfg.seed = seed;
    RsvdSample sample;
    sample.defaults = cand;
    sample.seconds = std::numeric_limits<double>::infinity();
    TruncReport rep;
    for (int r = 0; r < repeats; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      rep = svd_truncated_report<T>(probe.view(), cfg, backend);
      sample.seconds = std::min(
          sample.seconds,
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count());
    }
    // Rank-k residual RELATIVE to the optimal rank-k error (the probe's
    // noise tail guarantees optimal > 0): 1.0 is perfect, accuracy_budget
    // is the gate.
    sample.residual =
        ref::rank_k_residual_fro(probe64.view(), rep.u, rep.values, rep.vt,
                                 rep.rank) /
        optimal;
    sample.accurate = sample.residual <= accuracy_budget;
    result.samples.push_back(sample);
  }
  std::sort(result.samples.begin(), result.samples.end(),
            [](const RsvdSample& a, const RsvdSample& b) {
              return a.seconds < b.seconds;
            });
  // Fastest accurate candidate; if nothing met the gate (degenerate probe),
  // fall back to the most accurate one.
  const RsvdSample* winner = nullptr;
  for (const auto& s : result.samples) {
    if (s.accurate) {
      winner = &s;
      break;
    }
  }
  if (winner == nullptr) {
    winner = &*std::min_element(result.samples.begin(), result.samples.end(),
                                [](const RsvdSample& a, const RsvdSample& b) {
                                  return a.residual < b.residual;
                                });
  }
  result.best = winner->defaults;
  return result;
}

template RsvdTuneResult tune_rsvd<Half>(ka::Backend&, index_t, index_t, index_t,
                                        std::vector<TuningTable::RsvdDefaults>, int,
                                        double, std::uint64_t);
template RsvdTuneResult tune_rsvd<float>(ka::Backend&, index_t, index_t, index_t,
                                         std::vector<TuningTable::RsvdDefaults>, int,
                                         double, std::uint64_t);
template RsvdTuneResult tune_rsvd<double>(ka::Backend&, index_t, index_t, index_t,
                                          std::vector<TuningTable::RsvdDefaults>,
                                          int, double, std::uint64_t);

template <class T>
TuningTable::RsvdDefaults learn_rsvd(TuningTable& table, ka::Backend& backend,
                                     index_t m, index_t n, index_t rank, int repeats,
                                     double accuracy_budget, std::uint64_t seed) {
  const RsvdTuneResult result =
      tune_rsvd<T>(backend, m, n, rank, {}, repeats, accuracy_budget, seed);
  table.set_rsvd(backend.name(), precision_of<T>, result.best);
  return result.best;
}

template TuningTable::RsvdDefaults learn_rsvd<Half>(TuningTable&, ka::Backend&,
                                                    index_t, index_t, index_t, int,
                                                    double, std::uint64_t);
template TuningTable::RsvdDefaults learn_rsvd<float>(TuningTable&, ka::Backend&,
                                                     index_t, index_t, index_t, int,
                                                     double, std::uint64_t);
template TuningTable::RsvdDefaults learn_rsvd<double>(TuningTable&, ka::Backend&,
                                                      index_t, index_t, index_t, int,
                                                      double, std::uint64_t);

TruncConfig tuned_trunc_config(const TuningTable& table, const ka::Backend& backend,
                               Precision p, TruncConfig base) {
  const TuningTable::RsvdDefaults d = table.rsvd_or(
      backend.name(), p,
      TuningTable::RsvdDefaults{base.oversample, base.power_iters});
  base.oversample = d.oversample;
  base.power_iters = d.power_iters;
  apply_tuned_svd(table, backend.name(), p, base.svd);
  return base;
}

TruncConfig tuned_trunc_config(const ka::Backend& backend, Precision p,
                               TruncConfig base) {
  return tuned_trunc_config(default_tuning_table(), backend, p, std::move(base));
}

std::string default_tuning_path() {
  if (const char* env = std::getenv("UNISVD_TUNING_FILE")) {
    return std::string(env);  // empty value disables the default table
  }
  if (const char* xdg = std::getenv("XDG_CACHE_HOME"); xdg != nullptr && *xdg != '\0') {
    return std::string(xdg) + "/unisvd/tuning.txt";
  }
  if (const char* home = std::getenv("HOME"); home != nullptr && *home != '\0') {
    return std::string(home) + "/.cache/unisvd/tuning.txt";
  }
  return {};
}

TuningTable default_tuning_table() {
  const std::string path = default_tuning_path();
  if (path.empty()) return TuningTable{};
  return TuningTable::load(path);
}

BatchConfig tuned_batch_config(const ka::Backend& backend, Precision p,
                               BatchConfig base) {
  return tuned_batch_config(default_tuning_table(), backend, p, std::move(base));
}

template <class T>
index_t learn_batch_crossover(ka::Backend& backend, std::vector<index_t> sizes,
                              std::size_t problems_per_size, int repeats,
                              const SvdConfig& config, std::uint64_t seed) {
  const std::string path = default_tuning_path();
  UNISVD_REQUIRE(!path.empty(),
                 "learn_batch_crossover: no default tuning location — set "
                 "UNISVD_TUNING_FILE (or XDG_CACHE_HOME / HOME)");
  TuningTable table = TuningTable::load(path);
  const index_t crossover = learn_batch_crossover<T>(
      table, backend, std::move(sizes), problems_per_size, repeats, config, seed);
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);  // save() reports failure
  }
  UNISVD_REQUIRE(table.save(path),
                 "learn_batch_crossover: cannot write tuning table to " + path);
  return crossover;
}

template index_t learn_batch_crossover<Half>(ka::Backend&, std::vector<index_t>,
                                             std::size_t, int, const SvdConfig&,
                                             std::uint64_t);
template index_t learn_batch_crossover<float>(ka::Backend&, std::vector<index_t>,
                                              std::size_t, int, const SvdConfig&,
                                              std::uint64_t);
template index_t learn_batch_crossover<double>(ka::Backend&, std::vector<index_t>,
                                               std::size_t, int, const SvdConfig&,
                                               std::uint64_t);

}  // namespace unisvd::core

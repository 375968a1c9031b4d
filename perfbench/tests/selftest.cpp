/// Tests of the harness's own helpers: percentile math, the tail-resolution
/// rule, seeded input generation and the serve repeat schedule. Plain
/// asserting executable (no test framework, so the benchmark package builds
/// wherever the library does); exit code 0 when every check passes.
///
///   cmake --build .bench_build/perfbench --target perfbench_selftest
///   .bench_build/perfbench/perfbench_selftest

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "checks.hpp"
#include "inputs.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b, double tol = 1e-12) { return std::abs(a - b) <= tol; }

void test_percentiles() {
  using perfbench::mean;
  using perfbench::median;
  using perfbench::percentile;
  expect(percentile({}, 0.5) == 0.0, "empty percentile is 0");
  expect(near(median({3.0}), 3.0), "median of one sample");
  expect(near(median({4.0, 1.0, 3.0, 2.0}), 2.5), "even-length median interpolates");
  expect(near(median({5.0, 1.0, 9.0}), 5.0), "odd-length median is the middle sample");
  expect(near(mean({1.0, 2.0, 6.0}), 3.0) && mean({}) == 0.0, "mean");
  const std::vector<double> xs = {10, 20, 30, 40, 50};
  expect(near(percentile(xs, 0.0), 10.0) && near(percentile(xs, 1.0), 50.0), "endpoints");
  expect(near(percentile(xs, 0.25), 20.0) && near(percentile(xs, 0.75), 40.0), "quartiles");
  expect(near(percentile(xs, 0.1), 14.0), "interpolated p10");
  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  expect(near(percentile(ramp, 0.99), 990.01, 1e-9), "type-7 p99 of 1..1000");
  expect(near(percentile(xs, 1.5), 50.0) && near(percentile(xs, -1.0), 10.0), "q is clamped");
}

void test_tail_rule() {
  using perfbench::samples_beyond;
  using perfbench::tail_resolved;
  expect(samples_beyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  expect(samples_beyond(999, 0.99) == 9, "999 samples leave 9 beyond p99");
  expect(tail_resolved(1000, 0.99) && !tail_resolved(999, 0.99), "p99 needs 1000 samples");
  expect(tail_resolved(200, 0.95) && !tail_resolved(199, 0.95), "p95 needs 200 samples");
  expect(!tail_resolved(20, 0.99), "20 dense solves do not resolve p99");
  expect(samples_beyond(20, 0.99) == 0, "20 dense solves leave none beyond p99");
  expect(tail_resolved(20, 0.5) && !tail_resolved(19, 0.5), "20 samples resolve p50");
}

bool same_bytes(const perfbench::Planted& a, const perfbench::Planted& b) {
  return a.a.rows() == b.a.rows() && a.a.cols() == b.a.cols() &&
         std::memcmp(a.a.data(), b.a.data(),
                     static_cast<std::size_t>(a.a.rows() * a.a.cols()) * sizeof(float)) == 0 &&
         a.sigma == b.sigma;
}

void test_inputs_deterministic() {
  const perfbench::Planted a = perfbench::dense_input(64, 7);
  const perfbench::Planted b = perfbench::dense_input(64, 7);
  const perfbench::Planted c = perfbench::dense_input(64, 8);
  expect(same_bytes(a, b), "same seed gives byte-identical dense input");
  expect(!same_bytes(a, c), "another seed gives another dense input");
  expect(!same_bytes(a, perfbench::dense_input(64, 7, 1)), "another index gives another dense input");

  const auto t1 = perfbench::tiny_batch_inputs(16, 3);
  const auto t2 = perfbench::tiny_batch_inputs(16, 3);
  const auto t3 = perfbench::tiny_batch_inputs(16, 4);
  bool same = t1.size() == t2.size();
  bool differ = false;
  for (std::size_t p = 0; p < t1.size() && p < t3.size(); ++p) {
    same = same && same_bytes(t1[p], t2[p]);
    differ = differ || !same_bytes(t1[p], t3[p]);
  }
  expect(same, "same seed gives byte-identical tiny batch");
  expect(differ, "another seed gives another tiny batch");
  expect(t1[0].a.rows() == 16 && t1[1].a.rows() == 32, "tiny batch alternates 16 and 32");

  const auto u1 = perfbench::serve_universe(1, 24, 11);
  const auto u2 = perfbench::serve_universe(1, 24, 11);
  const auto u3 = perfbench::serve_universe(2, 24, 11);
  bool su = true;
  bool du = false;
  for (std::size_t e = 0; e < u1.size(); ++e) {
    su = su && u1[e].kind == u2[e].kind && same_bytes(u1[e].input, u2[e].input) &&
         u1[e].sketch_seed == u2[e].sketch_seed;
    du = du || !same_bytes(u1[e].input, u3[e].input);
  }
  expect(su, "same seed gives byte-identical serve requests");
  expect(du, "each client gets its own requests");

  // Every seed gets the same request mix: only matrices and order differ.
  for (std::uint64_t seed : {1u, 2u}) {
    std::size_t count[4] = {0, 0, 0, 0};
    for (const auto& e : perfbench::serve_universe(0, 128, seed)) {
      ++count[static_cast<int>(e.kind)];
    }
    expect(count[0] == 64 && count[1] == 38 && count[2] == 13 && count[3] == 13,
           "serve universe has the exact 50/30/10/10 mix");
  }
}

void test_planted_spectrum() {
  // The planted values are the matrix's singular values: the Frobenius norm
  // of the input equals the 2-norm of the planted spectrum up to rounding.
  const perfbench::Planted p = perfbench::planted_matrix(48, 20, perfbench::harmonic_spectrum(20), 5);
  double fro = 0.0;
  for (perfbench::index_t j = 0; j < p.a.cols(); ++j) {
    for (perfbench::index_t i = 0; i < p.a.rows(); ++i) fro += double(p.a(i, j)) * p.a(i, j);
  }
  double planted = 0.0;
  for (double s : p.sigma) planted += s * s;
  expect(near(std::sqrt(fro), std::sqrt(planted), 1e-6), "planted spectrum has the input's norm");
  const perfbench::SigmaErr exact = perfbench::sigma_err_eps({1.0, 0.5}, {1.0, 0.5, 0.25}, 10);
  expect(exact.max == 0.0 && exact.trimmed_mean == 0.0,
         "a truncated prefix that matches has no error");
  const double unit = 10 * 1.1920928955078125e-07;
  const perfbench::SigmaErr off =
      perfbench::sigma_err_eps({1.0 + 4 * unit, 0.5 + unit, 0.25}, {1.0, 0.5, 0.25}, 10);
  expect(near(off.max, 4.0, 1e-9) && near(off.trimmed_mean, 5.0 / 3.0, 1e-9),
         "max and mean in eps*n units");
  std::vector<double> got(40, 0.5);
  got[0] += 20 * unit;
  got[1] += 2 * unit;
  got[2] += unit;
  const perfbench::SigmaErr trimmed =
      perfbench::sigma_err_eps(got, std::vector<double>(40, 0.5), 10);
  expect(near(trimmed.max, 20.0, 1e-9) && near(trimmed.trimmed_mean, 1.0 / 38, 1e-9),
         "the mean drops the largest 5% of the errors");
  expect(std::isinf(perfbench::sigma_err_eps({1.0, 0.5, 0.2, 0.1}, {1.0, 0.5, 0.25}, 10).max),
         "more values than planted is an error");
}

void test_repeat_schedule() {
  constexpr std::size_t kSteps = 20000;
  const auto run = [](std::uint64_t seed, unsigned client, std::vector<std::size_t>& entries) {
    perfbench::RepeatSchedule s(seed, client, 128);
    std::size_t repeats = 0;
    for (std::size_t i = 0; i < kSteps; ++i) {
      const auto step = s.next();
      entries.push_back(step.entry);
      repeats += step.repeat ? 1 : 0;
    }
    return static_cast<double>(repeats) / kSteps;
  };
  std::vector<std::size_t> a, b, c;
  const double share_a = run(42, 0, a);
  const double share_b = run(42, 0, b);
  const double share_c = run(43, 0, c);
  expect(a == b && share_a == share_b, "same seed gives the same schedule and repeat share");
  expect(a != c, "another seed gives another schedule");
  expect(std::abs(share_a - perfbench::RepeatSchedule::kRepeatShare) < 0.01 &&
             std::abs(share_c - perfbench::RepeatSchedule::kRepeatShare) < 0.01,
         "repeat share is 0.25 +- 0.01");

  // A repeat always names one of the client's last kRepeatWindow new entries.
  perfbench::RepeatSchedule s(9, 2, 128);
  std::vector<std::size_t> recent;
  bool in_window = true;
  for (std::size_t i = 0; i < 5000; ++i) {
    const auto step = s.next();
    if (step.repeat) {
      bool found = false;
      for (std::size_t r : recent) found = found || r == step.entry;
      in_window = in_window && found;
    } else {
      recent.push_back(step.entry);
      if (recent.size() > perfbench::RepeatSchedule::kRepeatWindow) recent.erase(recent.begin());
    }
  }
  expect(in_window, "repeats come from the last 8 new entries");
}

}  // namespace

int main() {
  test_percentiles();
  test_tail_rule();
  test_inputs_deterministic();
  test_planted_spectrum();
  test_repeat_schedule();
  if (failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

#!/usr/bin/env python3
"""Build the unisvd benchmark harness from source and run it.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload dense_values --seed 1 --seconds 25 --trace 0

prints every metric by name and unit and, as the last line of standard
output, one JSON object {"correct", "attempted", "failed", "metrics"}. The
exit code is 0 when every correctness check passed, 1 when one failed, and
2 or 3 on a build, usage or time-out error (no result line then).

Steadiness check, K runs per workload with seeds 1 .. K:

    python3 perfbench/run.py --steady 10 [--workload W ...] [--seconds S]

prints, per end-to-end metric, the median, the quartiles, the quartile
spread and the max/min spread as shares of the median, against the bound in
BENCHMARK.json.

Self-test of the harness's helpers (C++ and Python):

    python3 perfbench/run.py --self-test

Everything is built under .bench_build/perfbench at the repository root;
traces of --trace 1 runs go to .bench_build/traces/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
WORKLOADS = ["dense_values", "dense_vectors", "tiny_batched", "serve_closed"]
HARNESS_LIMIT_S = 170.0  # one harness run must end within 180 s


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_jobs():
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(4, cpus - 1))


def build():
    """Configure once, then (re)build the harness; quiet unless it fails."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(2, f"the unisvd sources are missing: expected {ROOT}/CMakeLists.txt and {ROOT}/src")
    if shutil.which("cmake") is None:
        fail(2, "cmake not found")
    env = dict(os.environ, CCACHE_DISABLE="1")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(build_jobs())])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              env=env, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace"))
            fail(2, f"build step failed: {' '.join(cmd)}")


def harness_cmd(workload, seed, seconds, trace):
    cmd = [str(BUILD_DIR / "perfbench_harness"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(TRACE_DIR / f"{workload}-seed{seed}.json")]
    return cmd


def run_harness(cmd, timeout, capture):
    """Run the harness; on time-out kill it, wait for it and give up."""
    try:
        return subprocess.run(cmd, timeout=timeout, check=False,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail(3, f"harness exceeded {timeout:.0f} s: {' '.join(cmd)}")
    return None


def parse_result(stdout):
    """The result object is the last non-empty line of the harness output."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    return result


def spread(values):
    """Median, quartiles (statistics.quantiles, n=4) and spreads as shares."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    scale = abs(med) if med else 1.0
    return {"median": med, "q1": q1, "q3": q3, "iqr_frac": (q3 - q1) / scale,
            "range_frac": (max(values) - min(values)) / scale}


def verdict(iqr_frac, bound):
    if bound is None:
        return "no bound"
    if iqr_frac <= bound / 3:
        return "steady"
    return "within bound" if iqr_frac <= bound else "NOISY"


def load_bounds():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def steady(args):
    build()
    bounds = load_bounds()
    ok = True
    for workload in args.workload or WORKLOADS:
        samples = {}
        units = {}
        for seed in range(1, args.steady + 1):
            t0 = time.monotonic()
            proc = run_harness(harness_cmd(workload, seed, args.seconds, 0), HARNESS_LIMIT_S, True)
            out = proc.stdout.decode(errors="replace")
            try:
                result = parse_result(out)
            except ValueError as exc:
                print(f"{workload} seed {seed}: bad result ({exc})")
                ok = False
                continue
            if proc.returncode != 0 or not result["correct"]:
                ok = False
            fingerprint = next((ln for ln in out.splitlines() if ln.startswith("fingerprint:")), "")
            print(f"{workload} seed {seed}: exit {proc.returncode} correct {result['correct']} "
                  f"({time.monotonic() - t0:.1f} s) {fingerprint if seed == 1 else ''}")
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"\n{workload}: {args.steady} runs of {args.seconds} s")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} "
              f"{'range/med':>9} {'bound':>6}  verdict")
        for name, values in samples.items():
            s = spread(values)
            bound = bounds.get(name)
            v = verdict(s["iqr_frac"], bound)
            ok = ok and v != "NOISY"
            print(f"  {name:<18} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
                  f"{s['iqr_frac']:>8.4f} {s['range_frac']:>9.4f} "
                  f"{'' if bound is None else bound:>6}  {v} [{units[name]}]")
            print(f"  {'':<18} runs: {' '.join(f'{x:.5g}' for x in values)}")
        print()
    return 0 if ok else 1


class HelperTests(unittest.TestCase):
    def test_spread_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        s = spread(values)
        self.assertAlmostEqual(s["q1"], q1)
        self.assertAlmostEqual(s["q3"], q3)
        self.assertAlmostEqual(s["median"], 10.75)
        self.assertAlmostEqual(s["iqr_frac"], (q3 - q1) / 10.75)
        self.assertAlmostEqual(s["range_frac"], 4.0 / 10.75)

    def test_spread_of_constant_values_is_zero(self):
        s = spread([1.0, 1.0, 1.0, 1.0])
        self.assertEqual((s["iqr_frac"], s["range_frac"]), (0.0, 0.0))

    def test_verdict_thresholds(self):
        self.assertEqual(verdict(0.03, 0.1), "steady")
        self.assertEqual(verdict(0.05, 0.1), "within bound")
        self.assertEqual(verdict(0.2, 0.1), "NOISY")
        self.assertEqual(verdict(0.2, None), "no bound")

    def test_parse_result_takes_last_line(self):
        out = 'fingerprint: {}\n  lat_ms_p90 1 ms\n{"correct": true, "attempted": 3, ' \
              '"failed": 0, "metrics": {"x": {"value": 1.5, "unit": "ms"}}}\n'
        self.assertEqual(parse_result(out)["metrics"]["x"]["value"], 1.5)
        with self.assertRaises(ValueError):
            parse_result('{"correct": true}\n')
        with self.assertRaises(ValueError):
            parse_result("")


def self_test():
    build()
    code = subprocess.run([str(BUILD_DIR / "perfbench_selftest")], check=False).returncode
    suite = unittest.TestLoader().loadTestsFromTestCase(HelperTests)
    py_ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    return 0 if code == 0 and py_ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, metavar="K", default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.steady > 0:
        return steady(args)
    if not args.workload or len(args.workload) != 1:
        fail(2, "give exactly one --workload for a single run")
    if args.seed < 0 or not 0 < args.seconds <= 60:
        fail(2, "--seed must be >= 0 and --seconds in (0, 60]")
    build()
    proc = run_harness(harness_cmd(args.workload[0], args.seed, args.seconds, args.trace),
                       HARNESS_LIMIT_S, False)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one workload of the benchmark and print its result as the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The script builds the `perfbench` package
twice with cargo, offline, under $CARGO_TARGET_DIR (default
`.bench_build`): without the `trace` feature, for timings, and with it,
for per-layer numbers.

`--trace 0` times the workload for `--seconds` on the untraced build and
prints the `end_to_end` metrics of BENCHMARK.json. `--trace 1` spends
40% of `--seconds` on the untraced build and 60% on the traced build
(obs counters and spans; spans are written to perfbench/out/), with
every pass of both followed by one of its native counterpart, and
prints the `per_layer` metrics. The native floor, overhead and CPU use
come from the untraced run.

The last line of standard output is
`{"correct", "attempted", "failed", "metrics"}`; the lines before it are
the host and run records of each program run. Any failure to build, to
run or to report a listed metric exits non-zero without that line.

`--self-test` runs every workload at a tiny size in both modes, checks
that each metric of BENCHMARK.json is reported with its unit, and checks
that a deliberately wrong reference fails every pass.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")

# Share of --seconds the traced mode spends on the untraced build.
UNTRACED_SHARE = 0.4
# Metrics of the traced mode that come from the untraced, interleaved run.
FROM_UNTRACED = ("native.pass_ms.p50", "overhead_x", "cpu_cores_busy")
# A program run may take this long beyond its --seconds (set-up, warm-up,
# the reference) before it is stopped.
GRACE_S = 60
# Workloads the program implements but BENCHMARK.json does not list.
# seq-src-light is too unsteady on a shared two-vCPU host: its pass times
# are bimodal there (about 13 and 19 ms, switching every few seconds), so
# the median of a run flips between the modes. The self-test still runs it.
UNLISTED = ("seq-src-light",)


class BenchError(Exception):
    pass


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def binary(traced):
    return os.path.join(target_dir(), "trace" if traced else "plain", "release", "perfbench")


def build():
    for traced in (False, True):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", MANIFEST,
               "--target-dir", os.path.dirname(os.path.dirname(binary(traced)))]
        if traced:
            cmd += ["--features", "trace"]
        # Cargo's output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            raise BenchError("cargo build failed")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def run_program(traced, args, seconds, extra):
    cmd = [binary(traced), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", "1" if traced else "0",
           "--commit", args.commit] + extra
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} did not finish in time")
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise BenchError(f"{args.workload} exited with {out.returncode}")
    return lines[:-1], json.loads(lines[-1])


def select(metrics, wanted):
    """The wanted metrics, each checked for presence, unit and value."""
    picked = {}
    for name, unit in wanted.items():
        m = metrics.get(name)
        if m is None:
            raise BenchError(f"metric {name} was not reported")
        if m["unit"] != unit:
            raise BenchError(f"metric {name} is in {m['unit']}, not {unit}")
        v = m["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise BenchError(f"metric {name} has no finite value")
        picked[name] = m
    return picked


def measure(args, extra=()):
    """Returns (records, result) of one benchmark run."""
    end_to_end, per_layer = spec()
    extra = list(extra)
    if not args.trace:
        records, r = run_program(False, args, args.seconds, extra)
        return records, dict(r, metrics=select(r["metrics"], end_to_end))
    rec_a, a = run_program(False, args, args.seconds * UNTRACED_SHARE,
                           extra + ["--interleave-native"])
    p50 = a["metrics"]["pass_ms.p50"]["value"]
    # Interleaved like the untraced run, so that obs.overhead_pct compares
    # passes that follow the same native work.
    rec_b, b = run_program(True, args, args.seconds * (1 - UNTRACED_SHARE),
                           extra + ["--interleave-native", "--untraced-p50-ms", repr(p50)])
    metrics = dict(b["metrics"])
    for name in FROM_UNTRACED:
        metrics[name] = a["metrics"][name]
    attempted = a["attempted"] + b["attempted"]
    failed = a["failed"] + b["failed"]
    return rec_a + rec_b, {
        "correct": a["correct"] and b["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": select(metrics, per_layer),
    }


def self_test():
    """Every workload at a tiny size: all metrics with units; a wrong
    reference fails every pass."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]] + list(UNLISTED)
    for name in workloads:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=7, seconds=0.4,
                                      trace=trace, commit="self-test")
            _, r = measure(args, ["--lines", "30"])
            if not (r["correct"] and r["failed"] == 0 and r["attempted"] >= 1):
                raise BenchError(f"self-test: {name} --trace {trace} failed passes: {r}")
            _, bad = measure(args, ["--lines", "30", "--wrong-reference"])
            if bad["correct"] or bad["failed"] != bad["attempted"]:
                raise BenchError(
                    f"self-test: a wrong reference left passes unfailed on {name}: "
                    f"{bad['failed']} of {bad['attempted']} failed")
            print(f"self-test: {name} --trace {trace}: {len(r['metrics'])} metrics, "
                  f"{r['attempted']} passes checked, wrong reference fails "
                  f"{bad['failed']} of {bad['attempted']}")
    print("self-test: ok")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    try:
        build()
        if args.self_test:
            self_test()
            return 0
        if None in (args.workload, args.seed, args.seconds, args.trace):
            p.error("--workload, --seed, --seconds and --trace are required")
        args.commit = commit()
        records, result = measure(args)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    for line in records:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

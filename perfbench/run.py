"""Benchmark of path homology, suspension maps and Hurewicz classes.

    python3 perfbench/run.py --workload hurewicz --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 50          # the gated workloads
    python3 perfbench/run.py --workload hurewicz --repeat 10  # quartiles

Each run starts the workload in a fresh single-threaded Python process
with PYTHONHASHSEED fixed.  With `--trace 0` the last line of output is
the end-to-end record {"correct", "attempted", "failed", "metrics"}; with
`--trace 1` its metrics are the per-layer ones from a traced run, and the
spans go to perfbench/out/.  Every run is also appended, with the times of
two fixed calibration loops, to perfbench/out/runs.jsonl.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# the workloads BENCHMARK.json gates on; `boxpow` runs only when named
WORKLOADS = ("suspension", "hurewicz")
REFERENCE_WORKLOADS = ("boxpow",)
# set-up is timed in this many fresh processes per run (the measuring
# process included) and reported as their median
SETUP_PROCESSES = 3
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "item_s.p50": "s", "peak_rss_mb": "MB"}


def _arithmetic_loop() -> None:
    acc = 0
    for i in range(200_000):
        acc = (acc + i * i) % 1_000_003


def _memory_loop() -> None:
    """Dict and tuple traffic over a working set of several MB, which shows
    contention for caches and memory that pure arithmetic does not."""
    table = {(i, i ^ 0x5555): i for i in range(100_000)}
    acc = 0
    for i in range(100_000):
        acc += table[(i, i ^ 0x5555)]


def calibrate(repeats: int = 5) -> dict[str, float]:
    """Median times of two fixed pure-Python loops: a slow host shows here,
    a slow program does not.  They run in this process, so that they add
    nothing to the workload process's peak memory."""
    out = {}
    for name, loop in (("calib_s", _arithmetic_loop), ("calib_mem_s", _memory_loop)):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            loop()
            times.append(time.perf_counter() - t0)
        out[name] = statistics.median(times)
    return out


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list[str], deadline: float) -> dict:
    """Run worker.py with `args`; its last stdout line is its JSON record."""
    OUT.mkdir(exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workdir", str(OUT), *args]
    timeout = max(deadline - time.monotonic(), 1.0)
    proc = subprocess.run(
        cmd, env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the record printed as the result line."""
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if trace:
        extra = ["--trace", "1", "--trace-out", str(OUT / f"trace-{workload}-{seed}.json.gz")]
    else:
        extra = ["--trace", "0"]
        for _ in range(SETUP_PROCESSES - 1):
            setups.append(_worker(common + extra + ["--setup-only"], deadline)["setup_s"])
    before = calibrate()
    rec = _worker(common + extra, deadline)
    after = calibrate()
    for name in before:
        rec[name] = (before[name] + after[name]) / 2
    setups.append(rec["setup_s"])
    rec["setup_s_runs"] = setups
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(rec) + "\n")
    if trace:
        metrics = rec["per_layer"]
        for name in before:
            metrics[f"host.{name}"] = {"value": rec[name], "unit": "s"}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": rec["wall_s"],
            "item_s.p50": rec["item_s_p50"],
            "peak_rss_mb": rec["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(
        f"# {workload} seed={seed}: {rec['rounds']} round(s), {rec['items']} items, "
        f"calibration loops {rec['calib_s'] * 1000:.2f} ms / {rec['calib_mem_s'] * 1000:.2f} ms "
        f"(arithmetic / memory), checks failed: {rec['bad_checks'] or 'none'}"
    )
    return {
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }


def repeat(workloads: list[str], seed: int, seconds: float, trace: bool, n: int) -> dict:
    """Median and quartiles of every metric over n runs with seeds
    seed, seed+1, ..., each in fresh processes."""
    summary = {}
    for workload in workloads:
        runs = [run_once(workload, seed + i, seconds, trace) for i in range(n)]
        stats = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if n > 1 else (values[0],) * 3
            stats[name] = {
                "median": med,
                "q1": q1,
                "q3": q3,
                "iqr_share": (q3 - q1) / med if med else 0.0,
                "unit": runs[0]["metrics"][name]["unit"],
            }
            print(
                f"{workload:11s} {name:28s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                f"iqr/median {stats[name]['iqr_share']:.3f}"
            )
        failed_share = {r["failed"] / r["attempted"] for r in runs}
        summary[workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed_share": sorted(failed_share),
            "metrics": stats,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=WORKLOADS + REFERENCE_WORKLOADS, help="default: every gated workload"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=0, help="runs per workload; prints quartiles")
    args = parser.parse_args()
    chosen = [args.workload] if args.workload else list(WORKLOADS)
    if not (ROOT / "src" / "digraph_homology").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        if args.repeat:
            result = repeat(chosen, args.seed, args.seconds, bool(args.trace), args.repeat)
        elif args.workload:
            result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            result = {w: run_once(w, args.seed, args.seconds, bool(args.trace)) for w in chosen}
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload run in a fresh process: set up, time whole rounds of the
item list, check every output, print one JSON record.

Started by run.py with PYTHONHASHSEED fixed and the program's `src` on
the path.  `--setup-only` stops after set-up and reports its time, so
that run.py can take the median set-up time of several processes.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import workloads  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident set size of this process.  On Linux `ru_maxrss` keeps
    the parent's peak across fork and exec, so the process's own high-water
    mark is read from /proc where it exists."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs rounds of a workload's items and keeps their times and checks."""

    def __init__(self, workload):
        self.workload = workload
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.bad_checks = []
        self.item_times = []
        self.by_item: dict[str, list[float]] = {}

    def round(self) -> float:
        """One pass over the item list; returns its timed total."""
        items = self.workload.items
        if not self.workload.clear_per_item:
            workloads.clear_caches()
            gc.collect()
        results = []
        total = 0.0
        for item in items:
            if self.workload.clear_per_item:
                workloads.clear_caches()
                gc.collect()
            self.attempted += 1
            if self.tracer:
                self.tracer.begin_item()
            t0 = time.perf_counter()
            try:
                out = item.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            dt = time.perf_counter() - t0
            if self.tracer:
                self.tracer.end_item(dt)
            total += dt
            self.item_times.append(dt)
            self.by_item.setdefault(item.name, []).append(dt)
            results.append(out)
        for item, out in zip(items, results):
            if isinstance(out, Exception):
                self.failed += 1
                print(f"FAILED {item.name}: {out!r}", file=sys.stderr)
            elif not item.check(out):
                self.bad_checks.append(item.name)
                print(f"CHECK FAILED {item.name}", file=sys.stderr)
        return total

    def rounds_until(self, deadline: float) -> list[float]:
        """Whole rounds while the next one should end before the deadline;
        at least one."""
        walls = []
        last = 0.0
        while not walls or time.perf_counter() + last <= deadline:
            start = time.perf_counter()
            walls.append(self.round())
            last = time.perf_counter() - start
        return walls


def traced_rounds(runner: Runner, deadline: float):
    """Pairs of an untraced round, with no wrappers installed, and a traced
    round, while the next pair should end before the deadline; at least
    one pair.  Returns the tracer and the traced and untraced round times."""
    import tracer

    tr = tracer.Tracer()
    traced, untraced = [], []
    last = 0.0
    while not traced or time.perf_counter() + last <= deadline:
        start = time.perf_counter()
        untraced.append(runner.round())
        tr.install()
        runner.tracer = tr
        traced.append(runner.round())
        tr.uninstall()
        runner.tracer = None
        last = time.perf_counter() - start
    return tr, traced, untraced


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        record = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s}
        runner = Runner(workload)
        if args.trace:
            tr, walls, untraced = traced_rounds(runner, time.perf_counter() + args.seconds)
            record["per_layer"] = tr.metrics(walls, untraced)
            if args.trace_out:
                tr.write(args.trace_out)
        else:
            walls = runner.rounds_until(time.perf_counter() + args.seconds)
        record.update(
            rounds=len(walls),
            round_s=walls,
            wall_s=statistics.median(walls),
            item_s_p50=statistics.median(runner.item_times),
            items=len(runner.item_times),
            item_medians={k: statistics.median(v) for k, v in runner.by_item.items()},
            peak_rss_mb=peak_rss_mb(),
            attempted=runner.attempted,
            failed=runner.failed,
            bad_checks=runner.bad_checks,
            correct=not runner.bad_checks,
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""lazytwist benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each pass over the workload's items runs
in a fresh worker process (perfbench/worker.py), one item at a time, with
the checkout's `src` on PYTHONPATH; passes repeat while the next one is
expected to end within S seconds. Every item's output is checked.

With --trace 0 the last line of stdout holds the end-to-end metrics:
pass_s (median seconds of one pass, outputs checked), slowest_item_s (the
largest per-item median), setup_s (median seconds from spawning a worker
to having its inputs built: interpreter start, `import lazytwist`, groups
and tensors), and peak_rss_mb (median peak RSS of a pass worker).
With --trace 1 the run makes one untraced pass and two traced passes and
reports the per-layer metrics; every count must repeat exactly between the
two traced passes. The line before the last is a stamp: git rev, Python,
nproc, CPU model, seed, per-item medians and failures. Metric names and
units are read from BENCHMARK.json.

Exits 2 without a result when the checkout has no program to run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

RUN_DEADLINE_S = 170.0   # no run lasts longer, whatever --seconds says
# setup_s is the median of the set-ups of every worker of a run: a few
# set-up-only workers are spawned before the first pass and after each
# pass, so that set-up samples the same stretch of a drifting machine as
# the passes, and the run tops them up to at least MIN_SETUPS
SETUPS_PER_GAP = 3
MIN_SETUPS = 15
TRACED_PASSES = 2

# metric names and units; a per-layer name is "<layer>.<field>"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class WorkerFailed(RuntimeError):
    pass


class Run:
    """Spawns the workers of one run and keeps to its deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = perf_counter()
        self.workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.setups: list[float] = []

    def spawn(self, trace: int = 0, setup_only: bool = False) -> dict:
        argv = [sys.executable, str(HERE / "worker.py"),
                "--workload", self.workload, "--seed", str(self.seed),
                "--workdir", str(self.workdir), "--trace", str(trace)]
        if setup_only:
            argv.append("--setup-only")
        remaining = RUN_DEADLINE_S - (perf_counter() - self.start)
        if remaining <= 1:
            raise WorkerFailed("run deadline reached")
        spawned = perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise WorkerFailed("worker killed at the run deadline")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise WorkerFailed(f"worker exited with {proc.returncode}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        self.setups.append(report["setup_done"] - spawned)
        return report


def _pass_seconds(report) -> float:
    return sum(seconds for _, seconds, _ in report["items"])


def _item_medians(reports) -> dict[str, float]:
    times: dict[str, list[float]] = {}
    for report in reports:
        for item_id, seconds, _ in report["items"]:
            times.setdefault(item_id, []).append(seconds)
    return {k: statistics.median(v) for k, v in times.items()}


def _layer_values(layers) -> dict:
    values = {}
    for name, unit in PER_LAYER.items():
        layer, field = name.rsplit(".", 1)
        values[name] = layers.get(layer, {}).get(
            field, 0 if unit == "count" else 0.0)
    return values


def _counts(values) -> dict:
    return {k: v for k, v in values.items() if isinstance(v, int)}


def stamp(seed: int) -> dict:
    try:
        # the ceiling keeps git from reporting a repository above the checkout
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        rev = "unknown"
    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"git_rev": rev, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "seed": seed}


def summarize(workload: str, trace: int, passes: list, traced: list,
              n_items: int, lost_passes: int, run: Run) -> tuple[dict, dict]:
    """The result line and the stamp line of one run; at least one pass
    was attempted, so `attempted` is positive."""
    reports = passes + traced
    attempted = n_items * (len(reports) + lost_passes)
    failures = [(item_id, error) for report in reports
                for item_id, _, error in report["items"] if error]
    failed = len(failures) + n_items * lost_passes
    medians = _item_medians(passes)
    slowest = max(medians, key=medians.get) if medians else None
    info = dict(stamp(run.seed), workload=workload, trace=trace,
                passes=len(passes), traced_passes=len(traced),
                lost_passes=lost_passes, setups=len(run.setups),
                failed_ratio=failed / attempted,
                slowest_item=slowest, item_median_s=medians,
                failures=failures[:20])
    correct = failed == 0 and bool(passes)
    metrics = {}
    if not trace and passes:
        values = {
            "pass_s": statistics.median(_pass_seconds(r) for r in passes),
            "slowest_item_s": medians[slowest],
            "setup_s": statistics.median(run.setups),
            "peak_rss_mb": statistics.median(r["rss_kib"] / 1024
                                             for r in passes),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    elif trace and passes and len(traced) == TRACED_PASSES:
        per_pass = [_layer_values(r["layers"]) for r in traced]
        if _counts(per_pass[0]) != _counts(per_pass[1]):
            correct = False
            info["count_mismatch"] = sorted(
                k for k, v in _counts(per_pass[0]).items()
                if per_pass[1][k] != v)
        values = {k: v if isinstance(v, int)
                  else statistics.median(p[k] for p in per_pass)
                  for k, v in per_pass[0].items()}
        calls = values["pontryagin.invariant_cocycle_search.calls"]
        values["pontryagin.invariant_cocycle_search.witness_ratio"] = (
            values["pontryagin.invariant_cocycle_search.witnesses"] / calls
            if calls else 0.0)
        traced_pass = statistics.median(_pass_seconds(r) for r in traced)
        values["trace.pass_s"] = traced_pass
        values["trace.overhead_s"] = traced_pass - _pass_seconds(passes[0])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        correct = False
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lazytwist" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'lazytwist'}; run from the root "
              "of a lazytwist checkout", file=sys.stderr)
        return 2
    # byte-compile once, so that no run's set-up pays for it
    compileall.compile_dir(SRC / "lazytwist", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    run = Run(args.workload, args.seed)
    try:
        try:
            n_items = len(run.spawn(setup_only=True)["item_ids"])
        except WorkerFailed as exc:
            print(f"error: the workload could not be set up: {exc}",
                  file=sys.stderr)
            return 2
        passes, traced, lost = [], [], 0

        def one_pass(trace: int) -> bool:
            nonlocal lost
            try:
                (traced if trace else passes).append(run.spawn(trace=trace))
                return True
            except WorkerFailed as exc:
                print(f"pass lost: {exc}", file=sys.stderr)
                lost += 1
                return False

        def set_up_only(count: int) -> None:
            for _ in range(count):
                try:
                    run.spawn(setup_only=True)
                except WorkerFailed as exc:
                    print(f"set-up lost: {exc}", file=sys.stderr)
                    return

        if args.trace:
            for trace in [0] + [1] * TRACED_PASSES:
                if not one_pass(trace):
                    break
        else:
            # closed loop: start another pass while it should end in time
            set_up_only(SETUPS_PER_GAP - 1)
            begin = perf_counter()
            while True:
                started = perf_counter()
                if not one_pass(0):
                    break
                set_up_only(SETUPS_PER_GAP)
                now = perf_counter()
                if now - begin + (now - started) > args.seconds:
                    break
            set_up_only(MIN_SETUPS - len(run.setups))
        result, info = summarize(args.workload, args.trace, passes, traced,
                                 n_items, lost, run)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps({"stamp": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One fresh process: set up a workload, run one pass over its items, and
print the pass as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR
                                [--trace 0|1] [--setup-only]

run.py starts it with the checkout's `src` on PYTHONPATH. The line holds
`setup_done` (perf_counter, a system-wide monotonic clock on Linux, so the
parent can subtract its own spawn time), one [id, seconds, error] triple
per item, the peak RSS in KiB and, when traced, the per-layer totals.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (the benchmark's own module, found via sys.path)

# An item that runs longer than this is stopped and counted as failed.
ITEM_BUDGET_S = 60.0


class ItemBudgetExceeded(BaseException):
    """Raised from the alarm handler; a BaseException so that no
    `except Exception` in the program swallows it."""


def _on_alarm(signum, frame):
    raise ItemBudgetExceeded(f"item exceeded its {ITEM_BUDGET_S:.0f} s budget")


def run_pass(items, tracer=None) -> list:
    """Time each item's operation, then check its output.

    Returns [id, seconds, error-or-None] per item. Only the operation is
    timed; the check runs after the clock stops, with tracing off.
    """
    results = []
    old = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for item in items:
            error = None
            signal.setitimer(signal.ITIMER_REAL, ITEM_BUDGET_S)
            start = perf_counter()
            try:
                if tracer is None:
                    out = item.run()
                else:
                    out = tracer.run_item(item.id, item.run)
            except ItemBudgetExceeded as exc:
                out, error = None, str(exc)
            except Exception as exc:  # a raising item is a failed item
                out, error = None, f"raised {type(exc).__name__}: {exc}"
            finally:
                seconds = perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
            if error is None:
                try:
                    error = item.check(out)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            results.append([item.id, seconds, error])
    finally:
        signal.signal(signal.SIGALRM, old)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    items = workloads.build_items(args.workload, args.seed, Path(args.workdir))
    setup_done = perf_counter()
    import lazytwist

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(lazytwist.__file__).resolve().parents:
        print(f"lazytwist was imported from {lazytwist.__file__}, not from "
              f"{src}", file=sys.stderr)
        return 2
    report = {"setup_done": setup_done, "item_ids": [i.id for i in items]}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        report["items"] = run_pass(items, tracer)
        if tracer is not None:
            tracer.uninstall()
            report["layers"] = tracer.layer_totals()
        report["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)

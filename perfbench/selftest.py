"""Tests of the benchmark itself: relabelling, oracle, gate and tracing.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes a few seconds. It is not
collected by the repository's pytest run, so the program's test suite and
its timing stay as they are.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# items cheap enough to run several times here
SLOW = {"h2:C27sd", "h2:Wr_3"}


class Failure(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise Failure(message)


def _items(workload, seed, workdir, golden=None, skip=SLOW):
    items = workloads.build_items(workload, seed, workdir, golden)
    return [i for i in items if i.id not in skip]


def _summary(reports, n_items):
    bench = run.Run("paper-suite", 1)
    bench.setups = [0.1]
    return run.summarize("paper-suite", 0, reports, [], n_items, 0, bench)


def test_relabelling(golden, workdir):
    tables = dict(golden["tables"])
    for name, factors in workloads.EVEN_GROUPS:
        tables[name] = workloads.direct_product(
            [golden["tables"][f] for f in factors])
    for name, table in tables.items():
        gens = workloads.greedy_generators(table)
        new_of = workloads.relabelling(table, random.Random(f"7/{name}"))
        expect(new_of[0] == 0, f"{name}: identity moved")
        expect(sorted(new_of) == list(range(len(table))),
               f"{name}: not a permutation")
        moved = workloads.relabel_table(table, new_of)
        expect(workloads.greedy_generators(moved) == [new_of[g] for g in gens],
               f"{name}: greedy generators not preserved")
        again = workloads.relabelling(table, random.Random(f"7/{name}"))
        expect(again == new_of, f"{name}: same seed, other labels")
    big = tables["Wr_3"]
    expect(workloads.relabelling(big, random.Random("1/Wr_3"))
           != workloads.relabelling(big, random.Random("2/Wr_3")),
           "seeds 1 and 2 give the same labels")


def test_abelian_oracle(golden, workdir):
    cases = {(2, 2, 2, 2): (64, [2] * 6), (2, 4, 4): (16, [2, 2, 4]),
             (6, 6): (6, [6]), (3, 9): (3, [3]), (3, 3, 3): (27, [3, 3, 3]),
             (4, 6): (2, [2]), (5,): (1, [])}
    for ds, want in cases.items():
        got = workloads.abelian_oracle(ds)
        expect(got == want, f"oracle {ds}: {got} != {want}")


def test_wrong_verdict_is_counted(golden, workdir):
    import lazytwist.cli as cli

    items = _items("paper-suite", 3, workdir)
    orig = cli.h2_compute

    def wrong(*args, **kwargs):
        rep = orig(*args, **kwargs)
        if rep.group == "S4":
            rep.exact_order = 2
        return rep

    cli.h2_compute = wrong
    try:
        results = worker.run_pass(items)
    finally:
        cli.h2_compute = orig
    bad = [item_id for item_id, _, error in results if error]
    expect(bad == ["h2:S4"], f"wrong S4 verdict flagged {bad}")
    result, info = _summary([{"items": results, "rss_kib": 1}], len(items))
    expect(not result["correct"] and result["failed"] == 1
           and result["attempted"] == len(items),
           f"result line {result}")
    expect(info["failed_ratio"] == 1 / len(items), "failed_ratio")


def test_independent_checks(golden, workdir):
    # record a wrong verdict as the reference: the byte comparison then
    # passes, and the paper-suite values and the closed form must object
    forged = json.loads(json.dumps(golden))
    for item_id in ("h2:S4", "h2:C2^4"):
        rep = json.loads(forged["outputs"][item_id])
        rep["exact_order"] += 1
        forged["outputs"][item_id] = json.dumps(rep, separators=(",", ":")) \
            + "\n"
    for workload, item_id in (("paper-suite", "h2:S4"),
                              ("abelian-oracle", "h2:C2^4")):
        item = next(i for i in _items(workload, 4, workdir, forged)
                    if i.id == item_id)
        error = item.check((0, forged["outputs"][item_id]))
        expect(error is not None, f"{item_id}: forged verdict accepted")


def test_item_budget(golden, workdir):
    items = [i for i in _items("paper-suite", 5, workdir) if i.id == "h2:S4"]
    saved = worker.ITEM_BUDGET_S
    worker.ITEM_BUDGET_S = 0.01
    try:
        results = worker.run_pass(items)
    finally:
        worker.ITEM_BUDGET_S = saved
    expect(results[0][2] and "budget" in results[0][2],
           f"over-budget item not failed: {results}")


def test_tracing(golden, workdir):
    import lazytwist.hopf as hopf
    import lazytwist.lazy as lazy

    items = _items("paper-suite", 6, workdir)
    totals = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            expect(lazy.r_from_form is hopf.r_from_form
                   and hasattr(lazy.r_from_form, "__wrapped__"),
                   "lazy's r_from_form is not wrapped")
            results = worker.run_pass(items, tracer)
        finally:
            tracer.uninstall()
        expect(all(error is None for _, _, error in results),
               f"traced pass failed: {results}")
        totals.append(run._layer_values(tracer.layer_totals()))
    expect(lazy.r_from_form is hopf.r_from_form, "uninstall left a wrapper")
    counts = [run._counts(t) for t in totals]
    expect(counts[0] == counts[1], "counts differ between traced passes")
    expect(counts[0]["lazy.bg_element_order.calls"] > 0
           and counts[0]["hopf.r_from_form.calls"] > 0
           and counts[0]["cyclo.ops"] > 0, f"layers not seen: {counts[0]}")


def test_empty_checkout(golden, workdir):
    empty = workdir / "empty"
    empty.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", empty)
    shutil.copytree(HERE, empty / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=empty, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and not proc.stdout,
           f"empty checkout gave {proc.returncode}: {proc.stdout!r}")


TESTS = [test_relabelling, test_abelian_oracle, test_wrong_verdict_is_counted,
         test_independent_checks, test_item_budget, test_tracing,
         test_empty_checkout]


def main() -> int:
    golden = workloads.load_golden()
    failed = 0
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for test in TESTS:
            workdir = Path(tmp) / test.__name__
            workdir.mkdir()
            try:
                test(golden, workdir)
                print(f"ok   {test.__name__}")
            except Failure as exc:
                failed += 1
                print(f"FAIL {test.__name__}: {exc}")
    try:
        run.WORK.rmdir()
    except OSError:
        pass
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

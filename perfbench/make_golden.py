"""Record golden.json: the benchmark's base inputs and expected outputs.

    PYTHONPATH=src python3 perfbench/make_golden.py

Run from the root of a checkout of the commit whose outputs are the
reference (the commit that added this benchmark). It stores the base
tables of the builtin groups, the shipped tensors, the paper suite's
expected values, the CLI output of every h2/autc/twist-verify item on the
base labels, and the socle and bicharacter tensor of every theta item. It
then runs every workload on CHECK_SEEDS and requires each item to pass its
check, which shows that the recorded outputs do not depend on the labels.
Regenerating it on a later commit would make that commit the reference;
do so only with a change that is allowed to change outputs.
"""

from __future__ import annotations

import json
import sys
import tempfile
from collections import defaultdict
from importlib import resources
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from worker import run_pass  # noqa: E402

CHECK_SEEDS = (1, 2)


def record() -> dict:
    from lazytwist.cli import _EXPECTED_SUITE
    from lazytwist.fixtures import builtin_group
    from lazytwist.hopf import GTensor, r_from_form, theta
    from lazytwist.lazy import bg_enumerate

    names = sorted(set(_EXPECTED_SUITE) | {"Wr_2"})
    tables = {n: [list(row) for row in builtin_group(n).table] for n in names}
    tensors = {n: json.loads(resources.files("lazytwist.data")
                             .joinpath(f"{n}.json").read_text())
               for n in workloads.TENSOR_GROUP}
    theta_rec = {}
    for name in ("A4_twist", "Wall_F"):
        G = builtin_group(workloads.TENSOR_GROUP[name])
        value = theta(GTensor.from_json(tensors[name], G))
        theta_rec[name] = {
            "socle": list(value.socle.elements),
            "r": workloads.canonical(r_from_form(value.socle, value.form))}
    x = bg_enumerate(builtin_group("C27sd"))[1]
    theta_rec["odd"] = {"socle": list(x.subgroup.elements),
                        "r": workloads.canonical(x.canonical_r)}
    golden = {
        "tables": tables,
        "tensors": tensors,
        "expected_suite": _EXPECTED_SUITE,
        "theta": theta_rec,
        "outputs": {},
    }

    # CLI outputs on the base labels; items are built with a placeholder for
    # the output they will be checked against, and only run here
    outputs = defaultdict(str)
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for workload in workloads.WORKLOADS:
            items = workloads.build_items(workload, None, Path(tmp),
                                          dict(golden, outputs=outputs))
            for item in items:
                if item.id.split(":")[0] in ("h2", "autc", "twist-verify"):
                    code, text = item.run()
                    if code != 0:
                        raise SystemExit(f"{item.id}: exit code {code}")
                    golden["outputs"][item.id] = text
                    print(f"recorded {item.id}", file=sys.stderr)
    return golden


def check_seeds(golden: dict, seeds) -> bool:
    ok = True
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for seed in seeds:
            for workload in workloads.WORKLOADS:
                items = workloads.build_items(workload, seed, Path(tmp), golden)
                for item_id, seconds, error in run_pass(items):
                    print(f"seed {seed} {item_id}: {seconds:.3f} s "
                          f"{error or 'ok'}", file=sys.stderr)
                    ok = ok and error is None
    return ok


def main() -> int:
    golden = record()
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, separators=(",", ":"))
                                     + "\n")
    return 0 if check_seeds(golden, CHECK_SEEDS) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: group inspection, twist verification, verdicts.

All output is JSON on stdout with deterministic key order; diagnostics go
to stderr.  Exit codes: 0 ok, 1 expectation mismatch in paper-suite,
2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from .groups import (
    NotAGroup,
    OrderLimitExceeded,
    center,
    class_preserving_auts,
    from_permutations,
    from_table,
)
from .fixtures import builtin_group, builtin_names
from .hopf import (
    GTensor,
    NotATwist,
    NotInvariant,
    is_invariant,
    is_normalized,
    is_twist,
    theta,
)
from .lazy import bg_enumerate, h2_compute, lie_complex_check

_EXPECTED_SUITE = {
    "A4": {"exact_order": 2, "structure": [2], "int_mod_inn": 1, "bg_size": 2,
           "status": "exact"},
    "D8": {"exact_order": 1, "structure": [], "int_mod_inn": 1, "bg_size": 3,
           "status": "exact"},
    "Q8": {"exact_order": 1, "structure": [], "int_mod_inn": 1, "bg_size": 1,
           "status": "exact"},
    "S3": {"exact_order": 1, "structure": [], "int_mod_inn": 1, "bg_size": 1,
           "status": "exact"},
    "S4": {"exact_order": 1, "structure": [], "int_mod_inn": 1, "bg_size": 2,
           "status": "exact"},
    "Wr_3": {"exact_order": 3, "structure": [3], "int_mod_inn": 1,
             "bg_size": 3, "status": "exact"},
    "C27sd": {"exact_order": 9, "structure": [3, 3], "int_mod_inn": 1,
              "bg_size": 9, "status": "exact"},
    "Wall32": {"exact_order": None, "structure": None, "int_mod_inn": 2,
               "bg_size": 2, "status": "undetermined",
               "order_bounds": [2, 4]},
    "V4": {"exact_order": 2, "structure": [2], "int_mod_inn": 1, "bg_size": 2,
           "status": "exact"},
}
for _n in range(2, 9):
    _EXPECTED_SUITE[f"C{_n}"] = {"exact_order": 1, "structure": [],
                                 "int_mod_inn": 1, "bg_size": 1,
                                 "status": "exact"}


def _emit(obj, pretty: bool):
    if pretty:
        print(json.dumps(obj, indent=2))
    else:
        print(json.dumps(obj, separators=(",", ":")))


def _exists(path: Path) -> bool:
    """Path.exists, reading a name the OS rejects (too long, say) as no
    file: inline JSON specs are often longer than a file name may be."""
    try:
        return path.exists()
    except OSError:
        return False


def _load_group(spec: str, limit: int):
    """Resolve a builtin name, a JSON file path, or inline JSON."""
    try:
        return builtin_group(spec, limit)
    except KeyError:
        pass
    except OrderLimitExceeded:
        raise
    path = Path(spec)
    if _exists(path):
        obj = json.loads(path.read_text())
    else:
        try:
            obj = json.loads(spec)
        except json.JSONDecodeError:
            raise ValueError(
                f"unknown group {spec!r}: not a file, inline JSON, or one of "
                + ", ".join(builtin_names()))
    return _group_from_json(obj, limit)


class MalformedGroup(ValueError):
    pass


def _is_int_list(x) -> bool:
    return isinstance(x, list) and all(type(i) is int for i in x)


def _group_from_json(obj, limit: int):
    """Read a group object: a `table` (a list of lists) or `perm_generators`
    (nonempty lists of integers), and an optional string `name`."""
    if not isinstance(obj, dict):
        raise MalformedGroup("group JSON is not an object")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise MalformedGroup(f"group name {name!r} is not a string")
    if "table" in obj:
        table = obj["table"]
        if not isinstance(table, list) or not all(
                isinstance(row, list) for row in table):
            raise MalformedGroup("'table' is not a list of lists")
        return from_table(table, name=name)
    if "perm_generators" in obj:
        gens = obj["perm_generators"]
        if not isinstance(gens, list) or not all(
                _is_int_list(g) and g for g in gens):
            raise MalformedGroup("'perm_generators' is not a list of "
                                 "nonempty integer lists")
        degree = max((max(g) for g in gens), default=1)
        return from_permutations(degree, gens, limit=max(limit * 2, 256),
                                 name=name)
    raise MalformedGroup("group JSON needs 'table' or 'perm_generators'")


def _load_tensor(spec: str, G, fixture_dir):
    path = Path(spec)
    if not _exists(path) and fixture_dir is not None:
        alt = Path(fixture_dir) / spec
        if _exists(alt):
            path = alt
        elif _exists(Path(fixture_dir) / f"{spec}.json"):
            path = Path(fixture_dir) / f"{spec}.json"
    if not _exists(path):
        try:
            text = resources.files("lazytwist.data").joinpath(
                f"{spec}.json").read_text()
            obj = json.loads(text)
            return GTensor.from_json(obj, G), obj.get("group")
        except OSError:
            raise ValueError(f"tensor file {spec!r} not found")
    obj = json.loads(path.read_text())
    return GTensor.from_json(obj, G), obj.get("group")


def packaged_tensor(name: str, G) -> GTensor:
    """Load one of the shipped fixture tensors (A4_twist, Wall_a, Wall_F)."""
    text = resources.files("lazytwist.data").joinpath(
        f"{name}.json").read_text()
    return GTensor.from_json(json.loads(text), G)


def _cmd_group_info(args):
    G = _load_group(args.group, args.max_order)
    classes = G.conjugacy_classes()
    _emit({
        "name": G.name or args.group,
        "order": G.order,
        "abelian": G.is_abelian(),
        "exponent": G.exponent(),
        "class_sizes": sorted(len(c) for c in classes),
        "center_order": center(G).order,
    }, args.pretty)
    return 0


def _cmd_autc(args):
    G = _load_group(args.group, args.max_order)
    auts, inn_index = class_preserving_auts(G, args.max_order)
    _emit({
        "group": G.name or args.group,
        "autc_order": len(auts),
        "inn_order": len(auts) // inn_index,
        "inn_index": inn_index,
    }, args.pretty)
    return 0


def _cmd_bg(args):
    G = _load_group(args.group, args.max_order)
    bg = bg_enumerate(G, args.max_order)
    _emit({
        "group": G.name or args.group,
        "bg_size": len(bg),
        "elements": [{"subgroup_order": x.subgroup.order,
                      **x.form.to_json()} for x in bg],
    }, args.pretty)
    return 0


def _cmd_h2(args):
    G = _load_group(args.group, args.max_order)
    rep = h2_compute(G, args.max_order, name=G.name or args.group)
    _emit(rep.to_json(), args.pretty)
    return 0


def _cmd_twist_verify(args):
    G = _load_group(args.group, args.max_order)
    F, _ = _load_tensor(args.tensor, G, args.fixture_dir)
    _emit({
        "twist": is_twist(F),
        "invariant": is_invariant(F),
        "normalized": is_normalized(F),
    }, args.pretty)
    return 0


def _cmd_twist_theta(args):
    G = _load_group(args.group, args.max_order)
    F, _ = _load_tensor(args.tensor, G, args.fixture_dir)
    value = theta(F)
    _emit({
        "group": G.name or args.group,
        "socle": list(value.socle.elements),
        "socle_order": value.socle.order,
        "form": value.form.to_json(),
    }, args.pretty)
    return 0


def _cmd_liecheck(args):
    G = _load_group(args.group, args.max_order)
    injective, exact, kernel_dim = lie_complex_check(G, limit=args.max_order)
    _emit({
        "group": G.name or args.group,
        "injective": injective,
        "exact": exact,
        "kernel_dim": kernel_dim,
    }, args.pretty)
    return 0


def _cmd_paper_suite(args):
    reports = []
    checks = []
    failed = []
    for name in sorted(_EXPECTED_SUITE):
        G = builtin_group(name)
        rep = h2_compute(G, max(args.max_order, G.order),
                         name=name).to_json()
        reports.append(rep)
        expected = _EXPECTED_SUITE[name]
        mismatches = [k for k, v in expected.items() if rep.get(k) != v]
        checks.append({"group": name, "ok": not mismatches,
                       "mismatches": mismatches})
        if mismatches:
            failed.append(name)
    _emit({
        "reports": reports,
        "checks": checks,
        "summary": {"total": len(checks), "passed": len(checks) - len(failed),
                    "failed": failed},
    }, args.pretty)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lazytwist",
        description="Exact computation of the group of invariant twist "
                    "classes on finite group algebras.")
    parser.add_argument("--max-order", type=int, default=128,
                        help="bound guarding exponential searches")
    parser.add_argument("--fixture-dir", default=None,
                        help="directory searched for named tensor files")
    parser.add_argument("--pretty", action="store_true",
                        help="indent JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group-info", help="order, classes, centre")
    p.add_argument("group")
    p.set_defaults(fn=_cmd_group_info)

    p = sub.add_parser("autc", help="class-preserving automorphisms")
    p.add_argument("group")
    p.set_defaults(fn=_cmd_autc)

    p = sub.add_parser("bg", help="socle-form pairs")
    p.add_argument("group")
    p.set_defaults(fn=_cmd_bg)

    p = sub.add_parser("h2", help="verdict on the twist class group")
    p.add_argument("group")
    p.set_defaults(fn=_cmd_h2)

    p = sub.add_parser("twist-verify", help="twist/invariant/normalized flags")
    p.add_argument("group")
    p.add_argument("tensor")
    p.set_defaults(fn=_cmd_twist_verify)

    p = sub.add_parser("twist-theta", help="socle and braiding form")
    p.add_argument("group")
    p.add_argument("tensor")
    p.set_defaults(fn=_cmd_twist_theta)

    p = sub.add_parser("liecheck", help="tangent-complex exactness")
    p.add_argument("group")
    p.set_defaults(fn=_cmd_liecheck)

    p = sub.add_parser("paper-suite",
                       help="run the whole battery against expected values")
    p.set_defaults(fn=_cmd_paper_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (NotAGroup, NotATwist, NotInvariant, OrderLimitExceeded,
            ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

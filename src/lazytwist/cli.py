"""Command-line surface: group inspection, twist verification, verdicts.

All output is JSON on stdout with deterministic key order; diagnostics go
to stderr.  Exit codes: 0 ok, 1 expectation mismatch in paper-suite,
2 input error.  The command line is read by `_read_argv`, one pass over
argv against the flag table `_FLAGS` and the command table `_COMMANDS`.
"""

from __future__ import annotations

import json
import re
import sys
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

from .groups import (
    OrderLimitExceeded,
    center,
    class_preserving_auts,
    from_permutations,
    from_table,
)
from .fixtures import builtin_group, builtin_names
from .hopf import (
    GTensor,
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


def _load_tensor(spec: str, G, fixture_dir) -> GTensor:
    """Resolve a tensor file path, a name in --fixture-dir (with or without
    .json), or a shipped fixture name."""
    path = Path(spec)
    if not _exists(path) and fixture_dir is not None:
        alt = Path(fixture_dir) / spec
        if _exists(alt):
            path = alt
        elif _exists(Path(fixture_dir) / f"{spec}.json"):
            path = Path(fixture_dir) / f"{spec}.json"
    if _exists(path):
        return GTensor.from_json(json.loads(path.read_text()), G)
    try:
        return packaged_tensor(spec, G)
    except OSError:
        raise ValueError(f"tensor file {spec!r} not found")


def packaged_tensor(name: str, G) -> GTensor:
    """Load one of the shipped fixture tensors (A4_twist, Wall_a, Wall_F)."""
    text = resources.files("lazytwist.data").joinpath(
        f"{name}.json").read_text()
    return GTensor.from_json(json.loads(text), G)


# Each handler takes the parsed arguments, the loaded group and its display
# name (None for a command without operands) and returns the JSON object.


def _group_info(args, G, name):
    classes = G.conjugacy_classes()
    return {
        "name": name,
        "order": G.order,
        "abelian": G.is_abelian(),
        "exponent": G.exponent(),
        "class_sizes": sorted(len(c) for c in classes),
        "center_order": center(G).order,
    }


def _autc(args, G, name):
    _, inn_index = class_preserving_auts(G, args.max_order)
    inn_order = G.order // center(G).order
    return {
        "group": name,
        "autc_order": inn_order * inn_index,
        "inn_order": inn_order,
        "inn_index": inn_index,
    }


def _bg(args, G, name):
    bg = bg_enumerate(G, args.max_order)
    return {
        "group": name,
        "bg_size": len(bg),
        "elements": [{"subgroup_order": x.subgroup.order,
                      **x.form.to_json()} for x in bg],
    }


def _h2(args, G, name):
    return h2_compute(G, args.max_order, name=name).to_json()


def _twist_verify(args, G, name):
    F = _load_tensor(args.tensor, G, args.fixture_dir)
    return {
        "twist": is_twist(F),
        "invariant": is_invariant(F),
        "normalized": is_normalized(F),
    }


def _twist_theta(args, G, name):
    value = theta(_load_tensor(args.tensor, G, args.fixture_dir))
    return {
        "group": name,
        "socle": list(value.socle.elements),
        "socle_order": value.socle.order,
        "form": value.form.to_json(),
    }


def _liecheck(args, G, name):
    injective, exact, kernel_dim = lie_complex_check(G, limit=args.max_order)
    return {
        "group": name,
        "injective": injective,
        "exact": exact,
        "kernel_dim": kernel_dim,
    }


def _paper_suite(args, G, name):
    reports = []
    checks = []
    failed = []
    for name in sorted(_EXPECTED_SUITE):
        G = builtin_group(name)
        rep = h2_compute(G, args.max_order, name=name).to_json()
        reports.append(rep)
        expected = _EXPECTED_SUITE[name]
        mismatches = [k for k, v in expected.items() if rep.get(k) != v]
        checks.append({"group": name, "ok": not mismatches,
                       "mismatches": mismatches})
        if mismatches:
            failed.append(name)
    return {
        "reports": reports,
        "checks": checks,
        "summary": {"total": len(checks), "passed": len(checks) - len(failed),
                    "failed": failed},
    }


# command -> (handler, operand names, help line)
_COMMANDS = {
    "group-info": (_group_info, ("group",), "order, classes, centre"),
    "autc": (_autc, ("group",), "class-preserving automorphisms"),
    "bg": (_bg, ("group",), "socle-form pairs"),
    "h2": (_h2, ("group",), "verdict on the twist class group"),
    "twist-verify": (_twist_verify, ("group", "tensor"),
                     "twist/invariant/normalized flags"),
    "twist-theta": (_twist_theta, ("group", "tensor"),
                    "socle and braiding form"),
    "liecheck": (_liecheck, ("group",), "tangent-complex exactness"),
    "paper-suite": (_paper_suite, (),
                    "run the whole battery against expected values"),
}


def _usage(command: str) -> str:
    return " ".join([command, *(op.upper() for op in _COMMANDS[command][1])])


def _max_order(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"expected an integer of at least 1, not {text!r}")
    return n


# flag -> (attribute, default, conversion of its value or None for a
# switch, name of its value, help line)
_FLAGS = {
    "--max-order": ("max_order", 128, _max_order, "N",
                    "bound guarding exponential searches (default 128)"),
    "--fixture-dir": ("fixture_dir", None, str, "DIR",
                      "directory searched for named tensor files"),
    "--pretty": ("pretty", False, None, "", "indent JSON output"),
}
_NAMES = ("--help", *_FLAGS)
# a word that reads as a negative number (-5, -.5) is an operand
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")

_USAGE = "usage: lazytwist [-h] " + " ".join(
    f"[{flag} {value}]" if value else f"[{flag}]"
    for flag, (_, _, _, value, _) in _FLAGS.items()) + " command [operand ...]"
_HELP = "\n".join([
    _USAGE, "",
    "Exact computation of the group of invariant twist",
    "classes on finite group algebras.", "",
    "flags (before, between or after the words; a unique prefix will do;",
    "-- ends them):",
    f"  {'-h, --help':<27} show this help and exit",
    *(f"  {(flag + ' ' + value).rstrip():<27} {h}"
      for flag, (_, _, _, value, h) in _FLAGS.items()),
    "", "commands:",
    *(f"  {_usage(c):<27} {h}" for c, (_, _, h) in _COMMANDS.items()),
    ""])


def _refuse(reason: str):
    sys.stderr.write(f"{_USAGE}\nlazytwist: error: {reason}\n")
    raise SystemExit(2)


def _flag(arg: str):
    """(flag, value glued to it or None) when arg names a flag, and (None,
    None) for a word; an unknown flag names itself.  A flag is named in
    full or by a unique prefix, its value glued by "="; -h is the one short
    flag, and whatever follows it is glued."""
    if arg[:1] != "-" or arg == "-":
        return None, None
    if arg[:2] == "-h":
        return "--help", arg[2:] or None
    if arg[1] == "-":
        name, eq, glued = arg.partition("=")
        found = ([name] if name in _NAMES
                 else [f for f in _NAMES if f.startswith(name)])
        if len(found) > 1:
            _refuse(f"ambiguous flag {arg}: {', '.join(found)}")
        if found:
            return found[0], glued if eq else None
    if _NUMBER.match(arg) or " " in arg:
        return None, None
    return arg, None


def _read_argv(argv) -> SimpleNamespace:
    """Read argv in one pass against _FLAGS: flags go before, between or
    after the command and its operands; a flag's value is glued by "=" or
    is the next word; the last of a repeated flag wins; "--" ends the
    flags.  -h/--help prints _HELP and exits 0; a refusal prints the
    usage and the reason to stderr and exits 2."""
    args = SimpleNamespace(**{attr: default for attr, default, *_
                              in _FLAGS.values()})
    words, unknown = [], []
    rest = iter(argv)
    for arg in rest:
        if arg == "--":
            words.extend(rest)
            break
        flag, glued = _flag(arg)
        if flag is None:
            words.append(arg)
        elif flag == "--help":
            if glued is not None:
                _refuse(f"-h/--help takes no value, got {glued!r}")
            # a flag named ambiguously is refused even after -h
            for later in rest:
                if later == "--":
                    break
                _flag(later)
            sys.stdout.write(_HELP)
            raise SystemExit(0)
        elif flag not in _FLAGS:
            unknown.append(arg)
        else:
            attr, _, convert, _, _ = _FLAGS[flag]
            if convert is None:
                if glued is not None:
                    _refuse(f"{flag} takes no value, got {glued!r}")
                setattr(args, attr, True)
                continue
            if glued is None:
                glued = next(rest, "--")
                if glued == "--" or _flag(glued)[0] is not None:
                    _refuse(f"{flag} expects a value")
            try:
                setattr(args, attr, convert(glued))
            except ValueError as exc:
                _refuse(f"{flag}: {exc}")
    if not words:
        _refuse("missing command")
    args.command, *args.operands = words
    if args.command not in _COMMANDS:
        _refuse(f"unknown command {args.command!r}; choose from "
                + ", ".join(_COMMANDS))
    if unknown:
        _refuse(f"unknown flags: {' '.join(unknown)}")
    return args


def main(argv=None) -> int:
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    handler, names, _ = _COMMANDS[args.command]
    if len(args.operands) != len(names):
        _refuse(f"expected {_usage(args.command)}")
    vars(args).update(zip(names, args.operands))
    try:
        G = name = None
        if names:
            G = _load_group(args.group, args.max_order)
            name = G.name or args.group
        obj = handler(args, G, name)
    except (ValueError, OrderLimitExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.pretty:
        print(json.dumps(obj, indent=2))
    else:
        print(json.dumps(obj, separators=(",", ":")))
    # only paper-suite has a summary: it lists the groups that failed
    return 1 if obj.get("summary", {}).get("failed") else 0


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads: seeded inputs, their items, and each item's check.

Every group is a multiplication table relabelled at random from the run's
seed (identity kept at 0), and every shipped tensor is transported along
with it. Outputs are checked against `golden.json`, which holds the base
tables, the shipped tensors and the outputs recorded on the base labels;
see NOTES.md for why each workload is here and how the relabelling is
drawn.

Importing this module does not import lazytwist; `build_items` does, so a
checkout without the program fails there with an ImportError.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Any, Callable, Optional

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# Direct products of base groups, in the order they run.
EVEN_GROUPS = (
    ("D8xC2", ("D8", "C2")),
    ("D8xC4", ("D8", "C4")),
    ("D8xC6", ("D8", "C6")),
    ("Wr_2xC2", ("Wr_2", "C2")),
    ("Q8xC2xC2", ("Q8", "C2", "C2")),
    ("A4xS3", ("A4", "S3")),
    ("S4xC2", ("S4", "C2")),
    ("D8xS3", ("D8", "S3")),
)

# Abelian groups by the orders of their cyclic factors.
ABELIAN_GROUPS = (
    ("C2^4", (2, 2, 2, 2)),
    ("C2xC4xC4", (2, 4, 4)),
    ("C6xC6", (6, 6)),
    ("C3xC9", (3, 9)),
    ("C3^3", (3, 3, 3)),
)

# The twist workload's groups and the shipped tensors that live on them.
TWIST_GROUPS = ("A4", "Wall32", "C27sd")
TENSOR_GROUP = {"A4_twist": "A4", "Wall_a": "Wall32", "Wall_F": "Wall32"}


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


# -- tables -------------------------------------------------------------------


def cyclic_table(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def direct_product(tables) -> list[list[int]]:
    """Table of the direct product, elements in lexicographic tuple order."""
    els = list(itertools.product(*(range(len(t)) for t in tables)))
    index = {e: i for i, e in enumerate(els)}
    return [[index[tuple(t[x][y] for t, x, y in zip(tables, a, b))]
             for b in els] for a in els]


def _closure(table, elements) -> set[int]:
    out = set(elements) | {0}
    frontier = list(out)
    while frontier:
        new = []
        for a in frontier:
            for b in list(out):
                for c in (table[a][b], table[b][a]):
                    if c not in out:
                        out.add(c)
                        new.append(c)
        frontier = new
    return out


def greedy_generators(table) -> list[int]:
    """The first element outside the span so far, repeatedly: the rule by
    which the program picks the generators its automorphism searches run
    over."""
    gens: list[int] = []
    span = {0}
    while len(span) < len(table):
        g = next(a for a in range(len(table)) if a not in span)
        gens.append(g)
        span = _closure(table, span | {g})
    return gens


def relabelling(table, rng: Optional[random.Random]) -> list[int]:
    """A random permutation new_of[old] with new_of[0] == 0.

    Drawn uniformly among the labellings under which the greedy generators
    are the images of the base table's greedy generators: the generators
    take the labels their rule finds first, and the elements each one adds
    to the span take the following labels in random order. A uniform
    relabelling would change the size of the automorphism searches a
    thousandfold from one seed to the next (NOTES.md); this one keeps it
    while still scrambling every row and column. `rng=None` is the
    identity.
    """
    n = len(table)
    if rng is None:
        return list(range(n))
    order = [0]
    span = {0}
    for g in greedy_generators(table):
        order.append(g)
        new_span = _closure(table, span | {g})
        rest = sorted(new_span - span - {g})
        rng.shuffle(rest)
        order.extend(rest)
        span = new_span
    new_of = [0] * n
    for new, old in enumerate(order):
        new_of[old] = new
    return new_of


def relabel_table(table, new_of) -> list[list[int]]:
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        row = table[a]
        for b in range(n):
            out[new_of[a]][new_of[b]] = new_of[row[b]]
    return out


def transport_terms(terms, new_of) -> list:
    """Tensor terms [[indices...], coefficient] moved along a relabelling,
    in sorted order."""
    return sorted([[new_of[i] for i in g], c] for g, c in terms)


def _rng(seed: Optional[int], name: str) -> Optional[random.Random]:
    # string seeds hash through SHA-512, so they do not depend on PYTHONHASHSEED
    return None if seed is None else random.Random(f"{seed}/{name}")


# -- oracles computed without the program --------------------------------------


def abelian_oracle(ds) -> tuple[int, list[int]]:
    """Order and invariant factors of the alternating forms on the dual of
    Z/d_1 x ... x Z/d_r: the sum of Z/gcd(d_i, d_j) over i < j."""
    cyclics = [gcd(ds[i], ds[j]) for i in range(len(ds))
               for j in range(i + 1, len(ds))]
    order = 1
    for m in cyclics:
        order *= m
    powers: dict[int, list[int]] = {}
    for m in cyclics:
        p = 2
        while m > 1:
            if m % p == 0:
                q = 1
                while m % p == 0:
                    m //= p
                    q *= p
                powers.setdefault(p, []).append(q)
            p += 1
    # invariant factors: multiply the largest powers of each prime, then the
    # next largest, and so on; listed smallest first
    for qs in powers.values():
        qs.sort(reverse=True)
    rank = max((len(qs) for qs in powers.values()), default=0)
    factors = []
    for k in range(rank):
        d = 1
        for qs in powers.values():
            if k < len(qs):
                d *= qs[k]
        factors.append(d)
    return order, sorted(factors)


# -- items ---------------------------------------------------------------------


@dataclass
class Item:
    """One user operation: `run` is timed, `check` returns None when the
    output is correct and a reason otherwise."""

    id: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


def _cli_call(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_item(lt, item_id, argv, expected, extra=None) -> Item:
    def run():
        return _cli_call(lt.cli, argv)

    def check(out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        if text != expected:
            return "stdout differs from the recorded output"
        return extra(json.loads(text)) if extra else None

    return Item(item_id, run, check)


def canonical(tensor) -> list:
    """A GTensor's terms as sorted [indices, coefficient JSON] pairs."""
    return sorted([list(t), c.to_json()] for t, c in tensor.terms.items())


class Inputs:
    """Relabelled tables and tensors for one seed; files for the CLI go to
    `workdir`."""

    def __init__(self, golden: dict, seed: Optional[int], workdir: Path):
        self.golden = golden
        self.seed = seed
        self.workdir = workdir
        self.relabellings: dict[str, list[int]] = {}

    def group_file(self, name: str, table) -> str:
        new_of = relabelling(table, _rng(self.seed, name))
        self.relabellings[name] = new_of
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(
            {"table": relabel_table(table, new_of), "name": name},
            separators=(",", ":")))
        return str(path)

    def tensor_file(self, name: str) -> str:
        obj = self.golden["tensors"][name]
        new_of = self.relabellings[TENSOR_GROUP[name]]
        terms = transport_terms([(t["g"], t["c"]) for t in obj["terms"]],
                                new_of)
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(
            {"group": obj["group"], "degree": obj["degree"],
             "terms": [{"g": g, "c": c} for g, c in terms]},
            separators=(",", ":")))
        return str(path)

    def transported(self, group: str, recorded: dict) -> tuple[list, list]:
        """A recorded socle and bicharacter tensor on this seed's labels."""
        new_of = self.relabellings[group]
        return (sorted(new_of[x] for x in recorded["socle"]),
                transport_terms(recorded["r"], new_of))


def _paper_items(lt, inputs: Inputs) -> list[Item]:
    golden = inputs.golden
    expected_suite = golden["expected_suite"]
    items = []
    for name in sorted(expected_suite):
        path = inputs.group_file(name, golden["tables"][name])

        def suite_check(rep, want=expected_suite[name]):
            bad = [k for k, v in want.items() if rep.get(k) != v]
            return f"differs from the paper suite in {bad}" if bad else None

        items.append(_cli_item(lt, f"h2:{name}", ["h2", path],
                               golden["outputs"][f"h2:{name}"], suite_check))
    return items


def _even_items(lt, inputs: Inputs) -> list[Item]:
    golden = inputs.golden
    items = []
    for name, factors in EVEN_GROUPS:
        table = direct_product([golden["tables"][f] for f in factors])
        path = inputs.group_file(name, table)
        for cmd in ("h2", "autc"):
            item_id = f"{cmd}:{name}"
            items.append(_cli_item(lt, item_id, [cmd, path],
                                   golden["outputs"][item_id]))
    return items


def _abelian_items(lt, inputs: Inputs) -> list[Item]:
    golden = inputs.golden
    items = []
    for name, ds in ABELIAN_GROUPS:
        path = inputs.group_file(
            name, direct_product([cyclic_table(d) for d in ds]))
        order, factors = abelian_oracle(ds)

        def oracle_check(rep, order=order, factors=factors):
            got = (rep["exact_order"], rep["bg_size"], rep["structure"],
                   rep["status"])
            want = (order, order, factors, "exact")
            if got != want:
                return f"(exact_order, bg_size, structure, status) = {got}, " \
                       f"closed form gives {want}"
            if "R0" not in [c["rule"] for c in rep["certificates"]]:
                return "verdict does not go through R0"
            return None

        items.append(_cli_item(lt, f"h2:{name}", ["h2", path],
                               golden["outputs"][f"h2:{name}"], oracle_check))
    return items


def _twist_items(lt, inputs: Inputs) -> list[Item]:
    golden = inputs.golden
    groups, hopf, pontryagin = lt.groups, lt.hopf, lt.pontryagin
    G = {}
    paths = {}
    for name in TWIST_GROUPS:
        paths[name] = inputs.group_file(name, golden["tables"][name])
        G[name] = groups.from_table(
            json.loads(Path(paths[name]).read_text())["table"], name=name)

    def tensor(name):
        path = inputs.tensor_file(name)
        return hopf.GTensor.from_json(json.loads(Path(path).read_text()),
                                      G[TENSOR_GROUP[name]]), path

    F_A4, path_A4 = tensor("A4_twist")
    F_W, path_W = tensor("Wall_F")
    a_W, _ = tensor("Wall_a")

    # the odd-order pair: the socle of bg_enumerate(C27sd)[1] on the base
    # labels and the form on it whose bicharacter tensor is the recorded one
    odd_socle, odd_r = inputs.transported("C27sd", golden["theta"]["odd"])
    A = groups.Subgroup(G["C27sd"], odd_socle)
    b = next(f for f in pontryagin.alternating_forms(A)
             if canonical(hopf.r_from_form(A, f)) == odd_r)

    def odd_twist():
        return hopf.twist_from_cocycle(
            A, pontryagin.cocycle_from_form_odd(A, b))

    def theta_check(group, recorded):
        def check(out):
            code, text = out
            if code != 0:
                return f"exit code {code}"
            rep = json.loads(text)
            socle, r = inputs.transported(group, recorded)
            if rep["socle"] != socle or rep["socle_order"] != len(socle):
                return "socle differs from the recorded one"
            form = rep["form"]
            S = groups.Subgroup(G[group], rep["socle"])
            basis = S.abelian_structure()
            if form["subgroup"] != socle or \
                    form["generators"] != [g for g, _ in basis] or \
                    form["orders"] != [d for _, d in basis]:
                return "form is not stated on the socle's basis"
            bform = pontryagin.AltForm(S, tuple(map(tuple, form["matrix"])))
            if canonical(hopf.r_from_form(S, bform)) != r:
                return "bicharacter tensor of the form differs"
            return None
        return check

    def verify(group, path, name):
        return _cli_item(lt, f"twist-verify:{name}",
                         ["twist-verify", paths[group], path],
                         golden["outputs"][f"twist-verify:{name}"])

    def theta_cli(group, path, name):
        argv = ["twist-theta", paths[group], path]
        return Item(f"twist-theta:{name}", lambda: _cli_call(lt.cli, argv),
                    theta_check(group, golden["theta"][name]))

    def delta1_check(out):
        return None if out == F_W else "delta1(Wall_a) is not Wall_F"

    def drinfeld():
        return [hopf.drinfeld_element(hopf.r_matrix(F))
                for F in (F_A4, F_W, odd_twist())]

    def drinfeld_check(out):
        units = [hopf.GTensor.unit(G[g], 1) for g in ("A4", "Wall32", "C27sd")]
        return None if out == units else "a Drinfeld element is not trivial"

    def odd_theta():
        return hopf.theta(odd_twist())

    def odd_check(value):
        if list(value.socle.elements) != odd_socle:
            return "theta returned another socle"
        if canonical(hopf.r_from_form(value.socle, value.form)) != odd_r:
            return "theta returned another form"
        return None

    return [
        verify("A4", path_A4, "A4_twist"),
        theta_cli("A4", path_A4, "A4_twist"),
        verify("Wall32", path_W, "Wall_F"),
        theta_cli("Wall32", path_W, "Wall_F"),
        Item("delta1:Wall_a", lambda: hopf.delta1(a_W), delta1_check),
        Item("theta:odd-C27sd", odd_theta, odd_check),
        Item("drinfeld:A4_twist,Wall_F,odd-C27sd", drinfeld, drinfeld_check),
    ]


_BUILDERS = {
    "paper-suite": _paper_items,
    "twist-theta": _twist_items,
    "even-search": _even_items,
    "abelian-oracle": _abelian_items,
}
WORKLOADS = tuple(_BUILDERS)


def build_items(workload: str, seed: Optional[int], workdir: Path,
                golden: Optional[dict] = None) -> list[Item]:
    """Import the program, write the seed's inputs and return the items."""
    import lazytwist.cli
    import lazytwist.groups
    import lazytwist.hopf
    import lazytwist.pontryagin

    lt = lazytwist
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(golden if golden is not None else load_golden(), seed,
                    workdir)
    return _BUILDERS[workload](lt, inputs)

"""Builtin named groups used throughout the test battery and the CLI."""

from __future__ import annotations

import itertools

from .groups import FiniteGroup, OrderLimitExceeded, from_permutations, from_table

__all__ = ["builtin_group", "builtin_names", "wall_named_elements"]

_CONSTRUCTION_CAP = 512


def _group_from_elements(elements, mul, label, name) -> FiniteGroup:
    elements = list(elements)
    index = {el: i for i, el in enumerate(elements)}
    table = [[index[mul(a, b)] for b in elements] for a in elements]
    return from_table(table, labels=[label(e) for e in elements], name=name)


def cyclic(n: int, cap: int = _CONSTRUCTION_CAP) -> FiniteGroup:
    """Z/n from its n x n table, refused before the table is built when n
    exceeds cap."""
    if n < 1:
        raise ValueError(f"cyclic group of order {n}: the order must be "
                         "positive")
    if n > cap:
        raise OrderLimitExceeded(
            f"cyclic group of order {n} exceeds the construction cap {cap}")
    return _group_from_elements(
        range(n), lambda a, b: (a + b) % n,
        lambda a: f"g^{a}" if a else "1", name=f"C{n}")


def klein_four() -> FiniteGroup:
    els = list(itertools.product(range(2), range(2)))
    return _group_from_elements(
        els, lambda a, b: ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2),
        lambda e: {(0, 0): "1", (1, 0): "a", (0, 1): "b", (1, 1): "ab"}[e],
        name="V4")


def symmetric(n: int) -> FiniteGroup:
    gens = [[2, 1] + list(range(3, n + 1))]
    if n >= 3:
        gens.append(list(range(2, n + 1)) + [1])
    return from_permutations(n, gens, name=f"S{n}")


def alternating4() -> FiniteGroup:
    # generated by (1 2)(3 4) and (1 2 3)
    return from_permutations(4, [[2, 1, 4, 3], [2, 3, 1, 4]], name="A4")


def quaternion8() -> FiniteGroup:
    # elements (s, w): s in {+1,-1}, w in {1,i,j,k}
    units = ["1", "i", "j", "k"]
    mul_units = {
        ("1", x): (1, x) for x in units
    }
    for x in units:
        mul_units[(x, "1")] = (1, x)
    mul_units.update({
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
        ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
    })

    def mul(a, b):
        s, w = mul_units[(a[1], b[1])]
        return (a[0] * b[0] * s, w)

    els = [(1, "1"), (-1, "1"), (1, "i"), (-1, "i"),
           (1, "j"), (-1, "j"), (1, "k"), (-1, "k")]
    return _group_from_elements(
        els, mul, lambda e: ("" if e[0] == 1 else "-") + e[1], name="Q8")


def wreath(p: int) -> FiniteGroup:
    """Z/p wr Z/p: base F_p^p shifted cyclically by the top Z/p."""

    def shift(v, s):
        return tuple(v[(i - s) % p] for i in range(p))

    def mul(a, b):
        v, s = a
        w, t = b
        return (tuple((x + y) % p for x, y in zip(v, shift(w, s))), (s + t) % p)

    els = [(v, s) for s in range(p)
           for v in itertools.product(range(p), repeat=p)]
    els.sort(key=lambda e: (e[1], e[0]))
    return _group_from_elements(
        els, mul, lambda e: f"v{e[0]}s^{e[1]}", name=f"Wr_{p}")


def order27_semidirect() -> FiniteGroup:
    """(Z/3 x Z/3) semidirect Z/3 with unipotent one-Jordan-block action."""

    def act(v, w):
        a, b = v
        for _ in range(w % 3):
            a, b = (a + b) % 3, b
        return (a, b)

    def mul(x, y):
        v, w = x
        v2, w2 = y
        av = act(v2, w)
        return (((v[0] + av[0]) % 3, (v[1] + av[1]) % 3), (w + w2) % 3)

    els = [((a, b), w) for w in range(3) for a in range(3) for b in range(3)]
    return _group_from_elements(
        els, mul, lambda e: f"e1^{e[0][0]}e2^{e[0][1]}c^{e[1]}", name="C27sd")


def wall32() -> FiniteGroup:
    """Wall's group of order 32: u of order 8, s, t of order 2, with
    s u s = u^3 and t u t = u^5.  Elements are u^k s^i t^j."""

    def mul(x, y):
        k, i, j = x
        k2, i2, j2 = y
        return ((k + pow(3, i, 8) * pow(5, j, 8) * k2) % 8,
                (i + i2) % 2, (j + j2) % 2)

    def label(e):
        k, i, j = e
        parts = []
        if k:
            parts.append(f"u^{k}" if k > 1 else "u")
        if i:
            parts.append("s")
        if j:
            parts.append("t")
        return "*".join(parts) or "1"

    els = [(k, i, j) for k in range(8) for i in range(2) for j in range(2)]
    return _group_from_elements(els, mul, label, name="Wall32")


def wall_named_elements(G: FiniteGroup) -> dict[str, int]:
    return {"u": G.label_index("u"), "s": G.label_index("s"),
            "t": G.label_index("t"), "u4": G.label_index("u^4")}


_BUILDERS = {
    "V4": klein_four,
    "S3": lambda: symmetric(3),
    "S4": lambda: symmetric(4),
    "A4": alternating4,
    "D8": lambda: wreath(2),
    "Q8": quaternion8,
    "C27sd": order27_semidirect,
    "Wall32": wall32,
    "Wr_2": lambda: wreath(2),
    "Wr_3": lambda: wreath(3),
}


def builtin_names() -> list[str]:
    return sorted(_BUILDERS) + [f"C{n}" for n in range(1, 9)]


def builtin_group(name: str, limit: int = _CONSTRUCTION_CAP) -> FiniteGroup:
    """A named group; C<n> is built up to the larger of limit and the
    construction cap."""
    if name in _BUILDERS:
        G = _BUILDERS[name]()
        G.name = name
        return G
    if name.startswith("C") and name[1:].isdigit():
        return cyclic(int(name[1:]), max(limit, _CONSTRUCTION_CAP))
    raise KeyError(f"unknown builtin group {name!r}")

"""Finite group core: tables, classes, subgroups, automorphism searches.

Groups are multiplication tables over element indices 0..n-1 with the
identity at index 0.  Everything here is exact and desk-scale; exponential
searches are guarded by an order bound.

Class-preserving automorphisms, Aut(G) and the isomorphism test share one
pruned backtrack over generator images (Holt, Eick and O'Brien, Handbook of
Computational Group Theory, 2005).  Certifying checks raise
`VerdictInconsistent`, so they hold under `python -O`.
"""

from __future__ import annotations

import itertools
from math import gcd

__all__ = [
    "ORDER_LIMIT_DEFAULT",
    "NotAGroup",
    "NotAbelian",
    "OrderLimitExceeded",
    "VerdictInconsistent",
    "FiniteGroup",
    "Subgroup",
    "GroupMap",
    "from_table",
    "from_permutations",
    "conjugacy_classes",
    "center",
    "normal_abelian_subgroups",
    "class_preserving_auts",
    "automorphism_group",
    "find_isomorphism",
    "abelian_structure",
]

ORDER_LIMIT_DEFAULT = 128


class NotAGroup(ValueError):
    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAbelian(ValueError):
    pass


class OrderLimitExceeded(RuntimeError):
    pass


class VerdictInconsistent(RuntimeError):
    """Two certified computations disagree; the verdict cannot be trusted."""


class FiniteGroup:
    """A finite group given by its multiplication table, identity at index 0."""

    def __init__(self, table, labels=None, name=None):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.name = name
        self.labels = tuple(labels) if labels is not None else tuple(
            str(i) for i in range(self.order))
        inv = [None] * self.order
        for a in range(self.order):
            for b in range(self.order):
                if self.table[a][b] == 0 and self.table[b][a] == 0:
                    inv[a] = b
                    break
        if any(v is None for v in inv):
            raise NotAGroup("element without a two-sided inverse",
                            witness=inv.index(None))
        self.inverses = tuple(inv)
        self._classes = None
        self._generators = None

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def conjugate(self, g: int, x: int) -> int:
        return self.table[self.table[g][x]][self.inverses[g]]

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.table[x][a]
            k += 1
        return k

    def exponent(self) -> int:
        e = 1
        for a in range(self.order):
            o = self.element_order(a)
            e = e * o // gcd(e, o)
        return e

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a]
                   for a in range(self.order) for b in range(a + 1, self.order))

    def label_index(self, label: str) -> int:
        return self.labels.index(label)

    def conjugacy_classes(self):
        if self._classes is None:
            self._classes = conjugacy_classes(self)
        return self._classes

    def generating_set(self) -> tuple[int, ...]:
        # greedy: extend by the first element that enlarges the span
        if self._generators is None:
            gens: list[int] = []
            span = {0}
            while len(span) < self.order:
                for a in range(1, self.order):
                    if a not in span:
                        gens.append(a)
                        span = self.closure(span | {a})
                        break
            self._generators = tuple(gens)
        return self._generators

    def closure(self, elements) -> set[int]:
        out = set(elements) | {0}
        frontier = list(out)
        while frontier:
            new = []
            for a in frontier:
                for b in list(out):
                    for c in (self.table[a][b], self.table[b][a]):
                        if c not in out:
                            out.add(c)
                            new.append(c)
            frontier = new
        return out

    def subgroup(self, elements) -> "Subgroup":
        return Subgroup(self, elements)

    def whole_subgroup(self) -> "Subgroup":
        return Subgroup(self, range(self.order))

    def __repr__(self):
        return f"FiniteGroup({self.name or ''} order={self.order})"


def from_table(table, labels=None, name=None) -> FiniteGroup:
    """Validate a multiplication table; relocate the identity to index 0."""
    n = len(table)
    if n == 0 or any(len(row) != n for row in table):
        raise NotAGroup("table is not square")
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            if not isinstance(v, int) or not (0 <= v < n):
                raise NotAGroup(f"entry out of range at ({i},{j})",
                                witness=(i, j, v))
    ident = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            ident = e
            break
    if ident is None:
        raise NotAGroup("no two-sided identity")
    if ident != 0:
        # swap 0 <-> ident; the swap is an involution so it is its own inverse
        perm = list(range(n))
        perm[0], perm[ident] = ident, 0
        table = [[perm[table[perm[a]][perm[b]]] for b in range(n)]
                 for a in range(n)]
        if labels is not None:
            labels = [labels[perm[a]] for a in range(n)]
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    raise NotAGroup("associativity fails",
                                    witness=(a, b, c))
    for a in range(n):
        if 0 not in table[a]:
            raise NotAGroup("row without identity (no inverse)", witness=a)
    return FiniteGroup(table, labels=labels, name=name)


def _perm_compose(p, q):
    # (p*q)(i) = p(q(i))
    return tuple(p[q[i]] for i in range(len(p)))


def _cycle_label(p) -> str:
    seen, out = set(), []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cyc = [i]
        j = p[i]
        while j != i:
            seen.add(j)
            cyc.append(j)
            j = p[j]
        out.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(out) or "()"


def from_permutations(degree: int, generators, limit: int = 256,
                      name=None) -> FiniteGroup:
    """Group generated by permutations of {1..degree}, elements in BFS order."""
    gens = []
    for g in generators:
        p = tuple(int(x) - 1 for x in g)
        if sorted(p) != list(range(degree)):
            raise NotAGroup(f"not a permutation of 1..{degree}: {g}")
        gens.append(p)
    ident = tuple(range(degree))
    elements = [ident]
    index = {ident: 0}
    queue = [ident]
    while queue:
        cur = queue.pop(0)
        for g in gens:
            nxt = _perm_compose(cur, g)
            if nxt not in index:
                if len(elements) >= limit:
                    raise OrderLimitExceeded(
                        f"closure exceeds the configured bound {limit}")
                index[nxt] = len(elements)
                elements.append(nxt)
                queue.append(nxt)
    table = [[index[_perm_compose(a, b)] for b in elements] for a in elements]
    return FiniteGroup(table, labels=[_cycle_label(p) for p in elements],
                       name=name)


def conjugacy_classes(G: FiniteGroup):
    """Sorted conjugation orbits, identity class first."""
    seen = set()
    classes = []
    for x in range(G.order):
        if x in seen:
            continue
        orbit = sorted({G.conjugate(g, x) for g in range(G.order)})
        seen.update(orbit)
        classes.append(tuple(orbit))
    ident = [c for c in classes if 0 in c]
    rest = sorted((c for c in classes if 0 not in c), key=min)
    return [ident[0]] + rest


def center(G: FiniteGroup) -> "Subgroup":
    t = G.table
    elems = [z for z in range(G.order)
             if all(t[z][g] == t[g][z] for g in range(G.order))]
    return Subgroup(G, elems)


class Subgroup:
    """A subgroup of a FiniteGroup, stored as a sorted element tuple."""

    def __init__(self, parent: FiniteGroup, elements):
        self.parent = parent
        self.elements = tuple(sorted(set(elements) | {0}))
        t = parent.table
        es = set(self.elements)
        for a in self.elements:
            if parent.inverses[a] not in es:
                raise NotAGroup(f"subgroup not closed under inverse: {a}")
            for b in self.elements:
                if t[a][b] not in es:
                    raise NotAGroup(f"subgroup not closed: {a}*{b}")
        self._structure = None
        self._coords = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in set(self.elements)

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and other.parent is self.parent
                and other.elements == self.elements)

    def __hash__(self):
        return hash((id(self.parent), self.elements))

    def __repr__(self):
        return f"Subgroup(order={self.order}, elements={self.elements})"

    def is_abelian(self) -> bool:
        t = self.parent.table
        return all(t[a][b] == t[b][a]
                   for a in self.elements for b in self.elements)

    def is_normal(self) -> bool:
        es = set(self.elements)
        return all(self.parent.conjugate(g, a) in es
                   for g in range(self.parent.order) for a in self.elements)

    def abelian_structure(self):
        if self._structure is None:
            self._structure = abelian_structure(self)
        return self._structure

    def element_coordinates(self):
        """Map element -> exponent tuple over the abelian_structure generators."""
        if self._coords is None:
            basis = self.abelian_structure()
            G = self.parent
            coords = {}
            for tup in itertools.product(*(range(d) for _, d in basis)):
                x = 0
                for (g, _), e in zip(basis, tup):
                    for _ in range(e):
                        x = G.table[x][g]
                coords.setdefault(x, tup)
            if len(coords) != self.order:
                raise VerdictInconsistent("generators do not span the subgroup")
            self._coords = coords
        return self._coords


def abelian_structure(A: Subgroup):
    """Independent generators of an abelian subgroup, orders d1 | d2 | ...

    Greedy construction: repeatedly pick an element of maximal order in the
    quotient by the span so far, corrected to a direct complement.
    """
    if not A.is_abelian():
        raise NotAbelian("subgroup is not abelian")
    G = A.parent
    span = {0}
    picked = []
    while len(span) < A.order:
        qords = {}
        for x in A.elements:
            if x in span:
                continue
            k, y = 1, x
            while y not in span:
                y = G.table[y][x]
                k += 1
            qords[x] = k
        m = max(qords.values())
        found = None
        for x in sorted(x for x, k in qords.items() if k == m):
            for h in sorted(span):
                cand = G.table[x][h]
                if G.element_order(cand) == m:
                    found = cand
                    break
            if found is not None:
                break
        if found is None:
            raise VerdictInconsistent("no direct lift exists (not abelian?)")
        picked.append((found, m))
        span = G.closure(span | {found}) & set(A.elements)
    picked.reverse()
    for (_, d1), (_, d2) in zip(picked, picked[1:]):
        if d2 % d1:
            raise VerdictInconsistent("invariant factor chain broken")
    return picked


def normal_abelian_subgroups(G: FiniteGroup,
                             limit: int = ORDER_LIMIT_DEFAULT):
    """All abelian subgroups that are unions of conjugacy classes.

    A union of classes closed under multiplication is automatically a
    normal subgroup, so the search walks the lattice of class-closed
    abelian subsets: grow each one found by one commuting class at a time
    and re-close.  Each subgroup is visited once, which stays cheap even
    when every class is a singleton.
    """
    if G.order > limit:
        raise OrderLimitExceeded(f"|G| = {G.order} exceeds bound {limit}")
    classes = G.conjugacy_classes()
    t = G.table
    class_of = {}
    for ci, c in enumerate(classes):
        for x in c:
            class_of[x] = ci

    def commuting(c1, c2):
        return all(t[a][b] == t[b][a] for a in c1 for b in c2)

    cand = [ci for ci in range(1, len(classes))
            if commuting(classes[ci], classes[ci])]
    cand_set = set(cand)
    compat = {}

    def compatible(i, j):
        key = (i, j) if i <= j else (j, i)
        if key not in compat:
            compat[key] = commuting(classes[key[0]], classes[key[1]])
        return compat[key]

    def close(class_ids):
        # close the union under multiplication; None once it leaves the
        # abelian candidates
        current = set(class_ids)
        while True:
            union = {0}
            for ci in current:
                union.update(classes[ci])
            new = set()
            for a in union:
                for b in union:
                    ci = class_of[t[a][b]]
                    if ci != 0 and ci not in current:
                        new.add(ci)
            if not new:
                return frozenset(current)
            for ci in new:
                if ci not in cand_set:
                    return None
                if not all(compatible(ci, cj) for cj in current | new):
                    return None
            current |= new

    seen = {frozenset()}
    queue = [frozenset()]
    found = []
    while queue:
        S = queue.pop()
        found.append(S)
        for ci in cand:
            if ci in S:
                continue
            if not all(compatible(ci, cj) for cj in S):
                continue
            T = close(S | {ci})
            if T is not None and T not in seen:
                seen.add(T)
                queue.append(T)
    subs = []
    for S in found:
        union = {0}
        for ci in S:
            union.update(classes[ci])
        subs.append(Subgroup(G, union))
    subs.sort(key=lambda s: (s.order, s.elements))
    return subs


class GroupMap:
    """A homomorphism between index groups, stored as an image array."""

    def __init__(self, source: FiniteGroup, target: FiniteGroup, images):
        self.source = source
        self.target = target
        self.images = tuple(images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def is_homomorphism(self) -> bool:
        s, t = self.source.table, self.target.table
        im = self.images
        return all(im[s[a][b]] == t[im[a]][im[b]]
                   for a in range(self.source.order)
                   for b in range(self.source.order))

    def is_bijective(self) -> bool:
        return sorted(self.images) == list(range(self.target.order))

    def compose(self, other: "GroupMap") -> "GroupMap":
        # self after other
        return GroupMap(other.source, self.target,
                        [self.images[other.images[x]]
                         for x in range(other.source.order)])

    def inverse(self) -> "GroupMap":
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images):
            inv[y] = x
        return GroupMap(self.target, self.source, inv)

    def __eq__(self, other):
        return isinstance(other, GroupMap) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"GroupMap({self.images})"


def _hom_search(G: FiniteGroup, H: FiniteGroup, candidates, first=False):
    """Sorted image tuples of the injective homomorphisms G -> H sending
    the i-th generator of G into candidates[i]; with `first`, at most one.

    A map compatible on every edge x -> x*g of a set closed under right
    multiplication by the generators is a homomorphism on their span, so
    each branch extends over the span and is cut at the first edge with
    im[x*g] != im[x]*im[g], or at an image already taken.
    """
    gens, tG, tH = G.generating_set(), G.table, H.table
    im = [0] + [None] * (G.order - 1)
    used = [True] + [False] * (H.order - 1)
    span, found = [0], []

    def edge(x, h):
        # check, or extend along, x -> x*h; False on a conflict
        y, want = tG[x][h], tH[im[x]][im[h]]
        if im[y] is None:
            if used[want]:
                return False
            im[y], used[want] = want, True
            span.append(y)
            return True
        return im[y] == want

    def extend(k):
        if k == len(gens):
            found.append(tuple(im))
            return
        g, fixed, start = gens[k], gens[:k + 1], len(span)
        for c in candidates[k]:
            if used[c]:
                continue
            im[g], used[c] = c, True
            span.append(g)
            # unchecked edges: old elements times g, then each new element
            # (those added here included) times every fixed generator
            i, ok = start, all(edge(x, g) for x in span[:start])
            while ok and i < len(span):
                ok, i = all(edge(span[i], h) for h in fixed), i + 1
            if ok:
                extend(k + 1)
            for y in span[start:]:
                used[im[y]], im[y] = False, None
            del span[start:]
            if first and found:
                return

    extend(0)
    return sorted(found)


def _inner_automorphisms(G: FiniteGroup):
    return {tuple(G.conjugate(g, x) for x in range(G.order))
            for g in range(G.order)}


def class_preserving_auts(G: FiniteGroup, limit: int = ORDER_LIMIT_DEFAULT):
    """All automorphisms preserving every conjugacy class, and [Aut_c : Inn].

    The search draws each generator's image from its own class.
    """
    if G.order > limit:
        raise OrderLimitExceeded(f"|G| = {G.order} exceeds bound {limit}")
    classes = G.conjugacy_classes()
    class_of = {x: ci for ci, c in enumerate(classes) for x in c}
    found = _hom_search(G, G, [classes[class_of[g]]
                               for g in G.generating_set()])
    auts = [GroupMap(G, G, im) for im in found
            if all(class_of[im[x]] == class_of[x] for x in range(G.order))]
    inner = _inner_automorphisms(G)
    if not inner <= {a.images for a in auts} or len(auts) % len(inner):
        raise VerdictInconsistent("Inn(G) is not a subgroup of Aut_c(G)")
    return auts, len(auts) // len(inner)


def _same_order_candidates(G: FiniteGroup, H: FiniteGroup):
    # for each generator of G, the elements of H of its order
    by_order = {}
    for x in range(H.order):
        by_order.setdefault(H.element_order(x), []).append(x)
    return [by_order[G.element_order(g)] for g in G.generating_set()]


def automorphism_group(G: FiniteGroup, limit: int = ORDER_LIMIT_DEFAULT):
    """The full automorphism group, sorted by image tuple."""
    if G.order > limit:
        raise OrderLimitExceeded(f"|G| = {G.order} exceeds bound {limit}")
    return [GroupMap(G, G, im)
            for im in _hom_search(G, G, _same_order_candidates(G, G))]


def find_isomorphism(G: FiniteGroup, H: FiniteGroup,
                     limit: int = ORDER_LIMIT_DEFAULT):
    """An isomorphism G -> H, or None."""
    if G.order != H.order:
        return None
    if G.order > limit:
        raise OrderLimitExceeded(f"|G| = {G.order} exceeds bound {limit}")
    if sorted(G.element_order(x) for x in range(G.order)) != \
       sorted(H.element_order(x) for x in range(H.order)) or \
       sorted(map(len, G.conjugacy_classes())) != \
       sorted(map(len, H.conjugacy_classes())):
        return None
    found = _hom_search(G, H, _same_order_candidates(G, H), first=True)
    return GroupMap(G, H, found[0]) if found else None

"""Finite group core: tables, classes, subgroups, automorphism searches.

Groups are multiplication tables over element indices 0..n-1 with the
identity at index 0.  Everything here is exact and desk-scale; exponential
searches are guarded by an order bound.

Class-preserving automorphisms, Aut(G) and the isomorphism test share one
pruned backtrack over generator images (Holt, Eick and O'Brien, Handbook of
Computational Group Theory, 2005).  It takes one label per element of each
group, kept by every map it looks for, and cuts a branch as soon as any
element, not only a generator, gets an image with another label.  Aut(G)
and the isomorphism test label each element by its signature (order, class
size, numbers of square and cube roots); class-preserving automorphisms by
its class.  Generators of Aut(G) and of Aut_c(G), with their orders, come
from one stabilizer chain, `_chain`, with one first-hit search per
candidate image outside the orbit found so far, and list neither group.
[Aut_c : Inn] is |Aut_c| |Z(G)| / |G|, certified by sifting conjugation by
each generator of G through the chain.  Every closure and orbit walk, here
and in `hopf` and `lazy`, goes through one breadth-first orbit routine,
`_orbit`; `_orbits` cuts a point set into such orbits, the conjugacy
classes among them.  The subgroups generated by conjugacy classes, the
normal subgroups behind the direct-factor split and the abelian normal
subgroups alike, come from one such orbit, `_class_subgroups`, walked on
class masks: a normal subgroup is a union of classes, so it is an int
with one bit per class, and joining a class's normal closure N to S is
the OR of the masks of the cosets x_k N over S's classes k, read from
tables built once per group (`_ClassMasks`).  The abelian walk admits a
class only where its commuting mask covers S, and only `_direct_factors`
walks the full lattice.  Certifying checks raise `VerdictInconsistent`,
so they hold under `python -O`.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import gcd, lcm
from operator import itemgetter

from .cyclo import _prime_factors

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
    "automorphism_generators",
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


def _check_order(G: FiniteGroup, limit: int) -> None:
    """Refuse a group of more than `limit` elements."""
    if G.order > limit:
        raise OrderLimitExceeded(f"|G| = {G.order} exceeds bound {limit}")


def _orbit(start, gens, act, limit=None) -> list:
    """Everything reached from `start` by applying the generators, in
    breadth-first order: act(x, g) for each element x in turn and each g
    in `gens`.  Raises OrderLimitExceeded once more than `limit` elements
    are reached.  With start the identity and act right multiplication,
    this is the subgroup the generators span (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005, 4.1)."""
    out, seen = [start], {start}
    for x in out:
        for g in gens:
            y = act(x, g)
            if y not in seen:
                if limit is not None and len(out) >= limit:
                    raise OrderLimitExceeded(
                        f"closure exceeds the configured bound {limit}")
                seen.add(y)
                out.append(y)
    return out


def _orbits(points, gens, act) -> list[list]:
    """The orbits of the generators through `points`, each sorted, in the
    order of their first points."""
    seen, orbits = set(), []
    for p in points:
        if p not in seen:
            orbit = _orbit(p, gens, act)
            seen.update(orbit)
            orbits.append(sorted(orbit))
    return orbits


def _right_generators(table) -> tuple[int, ...]:
    """Greedy generators of a table with identity 0: extend by the first
    element outside the right-multiplication orbit of the identity under
    those picked so far, until that orbit is everything."""
    gens: list[int] = []
    span = {0}
    while len(span) < len(table):
        gens.append(next(a for a in range(1, len(table)) if a not in span))
        span = set(_orbit(0, gens, lambda x, g: table[x][g]))
    return tuple(gens)


class FiniteGroup:
    """A finite group given by its multiplication table, identity at index 0."""

    def __init__(self, table, labels=None, name=None):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.name = name
        self.labels = tuple(labels) if labels is not None else tuple(
            str(i) for i in range(self.order))
        inv = []
        for a, row in enumerate(self.table):
            # the first b with ab = 0 = ba, among the zeros of a's row
            try:
                b = row.index(0)
                while self.table[b][a]:
                    b = row.index(0, b + 1)
            except ValueError:
                raise NotAGroup("element without a two-sided inverse",
                                witness=a) from None
            inv.append(b)
        self.inverses = tuple(inv)
        self._classes = None
        self._masks = None
        self._generators = None
        self._abelian_normal = None

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
        """Whether the generators commute pairwise."""
        t, gens = self.table, self.generating_set()
        return all(t[a][b] == t[b][a]
                   for a, b in itertools.combinations(gens, 2))

    def label_index(self, label: str) -> int:
        return self.labels.index(label)

    def conjugacy_classes(self):
        if self._classes is None:
            self._classes = conjugacy_classes(self)
        return self._classes

    def class_masks(self) -> "_ClassMasks":
        """The class-mask tables of the normal subgroup walks, built once."""
        if self._masks is None:
            self._masks = _ClassMasks(self)
        return self._masks

    def generating_set(self) -> tuple[int, ...]:
        if self._generators is None:
            self._generators = _right_generators(self.table)
        return self._generators

    def closure(self, elements) -> set[int]:
        """The subgroup generated by the elements."""
        t = self.table
        return set(_orbit(0, list(elements), lambda x, g: t[x][g]))

    def subgroup(self, elements) -> "Subgroup":
        return Subgroup(self, elements)

    def whole_subgroup(self) -> "Subgroup":
        return Subgroup(self, range(self.order))

    def __repr__(self):
        return f"FiniteGroup({self.name or ''} order={self.order})"


def from_table(table, labels=None, name=None) -> FiniteGroup:
    """Validate a multiplication table; relocate the identity to index 0.

    Each check runs on whole rows at C speed, and scans a row entry by
    entry only where it fails, to name the first bad entry.
    """
    n = len(table)
    if n == 0 or any(len(row) != n for row in table):
        raise NotAGroup("table is not square")
    table = [tuple(row) for row in table]
    points = tuple(range(n))
    in_range = set(points).issuperset
    for i, row in enumerate(table):
        if set(map(type, row)) != {int} or not in_range(row):
            j, v = next((j, v) for j, v in enumerate(row)
                        if type(v) is not int or not (0 <= v < n))
            raise NotAGroup(f"entry out of range at ({i},{j})",
                            witness=(i, j, v))
    ident = next((e for e in points if table[e] == points and all(
        row[e] == x for x, row in enumerate(table))), None)
    if ident is None:
        raise NotAGroup("no two-sided identity")
    if ident != 0:
        # swap 0 <-> ident; the swap is an involution so it is its own inverse
        perm = list(points)
        perm[0], perm[ident] = ident, 0
        table = [tuple(perm[table[perm[a]][perm[b]]] for b in points)
                 for a in points]
        if labels is not None:
            labels = [labels[perm[a]] for a in points]
    # Light's test: the elements s with (x*s)*y = x*(s*y) for all x, y are
    # closed under products, so checking generators of the table suffices.
    # Row (x*s)*. is compared whole with x*(s*.), read off row x by s's row
    gens = _right_generators(table)
    for s in gens:
        row_s = table[s]
        times_s = itemgetter(*row_s)
        for x, row_x in enumerate(table):
            row_xs = table[row_x[s]]
            if row_xs != times_s(row_x):
                y = next(y for y in points if row_xs[y] != row_x[row_s[y]])
                raise NotAGroup("associativity fails", witness=(x, s, y))
    for a in points:
        if 0 not in table[a]:
            raise NotAGroup("row without identity (no inverse)", witness=a)
    G = FiniteGroup(table, labels=labels, name=name)
    G._generators = gens
    return G


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
    elements = _orbit(tuple(range(degree)), gens, _perm_compose, limit)
    index = {p: i for i, p in enumerate(elements)}
    table = [[index[_perm_compose(a, b)] for b in elements] for a in elements]
    return FiniteGroup(table, labels=[_cycle_label(p) for p in elements],
                       name=name)


def conjugacy_classes(G: FiniteGroup):
    """Sorted conjugation orbits by least element, so the identity's first."""
    return [tuple(c) for c in _orbits(range(G.order), G.generating_set(),
                                      lambda x, g: G.conjugate(g, x))]


def center(G: FiniteGroup) -> "Subgroup":
    """The elements that commute with G's generators."""
    t, gens = G.table, G.generating_set()
    elems = [z for z in range(G.order)
             if all(t[z][g] == t[g][z] for g in gens)]
    return Subgroup(G, elems)


class Subgroup:
    """A subgroup of a FiniteGroup, stored as a sorted element tuple."""

    def __init__(self, parent: FiniteGroup, elements):
        self.parent = parent
        self.elements = tuple(sorted(set(elements) | {0}))
        t = parent.table
        # one set per subgroup, for membership tests
        self._members = es = frozenset(self.elements)
        for a in self.elements:
            if parent.inverses[a] not in es:
                raise NotAGroup(f"subgroup not closed under inverse: {a}")
            row = t[a]
            if not es.issuperset(map(row.__getitem__, self.elements)):
                b = next(b for b in self.elements if row[b] not in es)
                raise NotAGroup(f"subgroup not closed: {a}*{b}")
        self._structure = None
        self._factors = None
        self._coords = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self._members

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
        """Closed under conjugation by G's generators: each maps the
        finite subgroup into itself injectively, hence onto it."""
        es = self._members
        return all(self.parent.conjugate(g, a) in es
                   for g in self.parent.generating_set()
                   for a in self.elements)

    def abelian_structure(self):
        if self._structure is None:
            self._structure = abelian_structure(self)
        return self._structure

    def invariant_factors(self) -> tuple[int, ...]:
        """The orders d1 | d2 | ... of abelian_structure's generators."""
        if self._factors is None:
            self._factors = tuple(d for _, d in self.abelian_structure())
        return self._factors

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
        span = G.closure(g for g, _ in picked)
    picked.reverse()
    for (_, d1), (_, d2) in zip(picked, picked[1:]):
        if d2 % d1:
            raise VerdictInconsistent("invariant factor chain broken")
    return picked


def _group_structure(count, exponent: int) -> list[int] | None:
    """Invariant factors d1 | d2 | ... of a finite abelian group of the given
    exponent with count(q) = #{x : x^q = 1}, or None when no group has these
    counts.

    For a prime p, count(p^k) / count(p^(k-1)) is p to the number of
    p-primary cyclic factors of order at least p^k; the t-th largest
    invariant factor takes p once for each k at which that number exceeds
    t.  Only these counts are needed, not a Cayley table.
    """
    factors: list[int] = []
    for p in _prime_factors(exponent):
        pk, below = 1, 1
        while exponent % p == 0:
            exponent //= p
            pk *= p
            n = count(pk)
            at_least, q = 0, n // below
            while q > 1:
                q //= p
                at_least += 1
            if below * p ** at_least != n:
                return None
            factors.extend([1] * (at_least - len(factors)))
            for t in range(at_least):
                factors[t] *= p
            below = n
    return sorted(factors)


def _orders_structure(orders: list[int]) -> list[int] | None:
    """_group_structure of the group with these element orders."""
    return _group_structure(
        lambda q: sum(1 for o in orders if q % o == 0), lcm(*orders))


class _ClassMasks:
    """G's conjugacy classes as the bits of an int, so that a union of
    classes, a normal subgroup among them, is one mask (Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 2005, 3.3).

    Built at most once per group, beside its classes: each element's
    class bit and each class's size.  Three tables are filled as a walk
    first asks for an entry, each entry once: for a class k with
    representative x_k, its least element, the mask `comm(k)` of the
    classes whose elements all commute with x_k (conjugating, then every
    element of class k commutes with every element of those classes);
    the mask `closure(k)` of the normal subgroup the class generates; and
    for the closure N of a class, `row(N)[k]`, the mask of the coset
    x_k N.
    """

    def __init__(self, G: FiniteGroup):
        self.classes = classes = G.conjugacy_classes()
        self.bit = bit = [0] * G.order
        for k, c in enumerate(classes):
            for x in c:
                bit[x] = 1 << k
        self.sizes = [len(c) for c in classes]
        self._table = G.table
        self._comm: dict[int, int] = {}
        self._closures: dict[int, int] = {}
        self._rows: dict[int, _CosetRow] = {}

    def mask(self, elements) -> int:
        # the distinct class bits, whose sum is their OR
        return sum(set(map(self.bit.__getitem__, elements)))

    def elements(self, S: int) -> tuple[int, ...]:
        """The sorted elements of the classes in S."""
        return tuple(sorted(itertools.chain.from_iterable(
            self.classes[k] for k in _bits(S))))

    def order(self, S: int) -> int:
        return sum(self.sizes[k] for k in _bits(S))

    def commutes_with_itself(self, k: int) -> bool:
        """Whether the elements of class k commute pairwise: whether x_k
        commutes with each of them, by conjugation."""
        t, c = self._table, self.classes[k]
        row = t[c[0]]
        return all(row[y] == t[y][c[0]] for y in c)

    def comm(self, k: int) -> int:
        if k not in self._comm:
            t, x = self._table, self.classes[k][0]
            self._comm[k] = (1 << len(self.classes)) - 1 - self.mask(
                y for y, (a, row) in enumerate(zip(t[x], t)) if a != row[x])
        return self._comm[k]

    def closure(self, k: int) -> int:
        if k not in self._closures:
            t = self._table
            self._closures[k] = self.mask(
                _orbit(0, self.classes[k], lambda x, g: t[x][g]))
        return self._closures[k]

    def row(self, N: int) -> "_CosetRow":
        if N not in self._rows:
            self._rows[N] = _CosetRow(self, self.elements(N))
        return self._rows[N]


class _CosetRow(dict):
    """row[k], the class mask of the coset x_k N for a normal subgroup N,
    built on first lookup.  It is the mask of every coset sN with s in
    class k: s = g x_k g^-1 and N is normal, so sN = g (x_k N) g^-1."""

    def __init__(self, masks: _ClassMasks, members):
        super().__init__()
        self._masks, self._members = masks, members

    def __missing__(self, k):
        m = self._masks
        x = m.classes[k][0]
        self[k] = out = m.mask(map(m._table[x].__getitem__, self._members))
        return out


def _bits(m: int) -> list[int]:
    """The indices of the set bits of m, lowest first."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _class_subgroups(G: FiniteGroup, abelian: bool = False) -> list[int]:
    """The subgroups generated by conjugacy classes, as class masks; with
    `abelian`, those generated by classes that commute with each other.

    They form the orbit of the trivial subgroup under growing a subgroup S
    by the closure N = <c> of one class c not in S, classes in order.
    Both S and N are normal, so <S, c> = SN, the union of the cosets sN,
    and the mask of sN is row(N)[k] for s in class k: SN is the OR of the
    rows of S's classes, skipping a class already in the OR, whose coset
    is a conjugate of one taken.  Classes with equal closures give equal
    joins, so each closure joins once.  Adding the classes of such a
    subgroup one at a time reaches it.  With `abelian`, only classes that
    commute with themselves are added, and only to an S they commute
    with, so each step stays abelian.
    """
    masks = G.class_masks()
    steps, seen = [], set()
    for k in range(1, len(masks.classes)):
        if abelian and not masks.commutes_with_itself(k):
            continue
        N = masks.closure(k)
        if N not in seen:
            seen.add(N)
            steps.append((N, masks.row(N), masks.comm(k) if abelian else 0))

    def grow(S, step):
        N, row, comm = step
        if not N & ~S or abelian and S & ~comm:
            return S
        T, rest = N, S & ~N
        while rest:
            low = rest & -rest
            T |= row[low.bit_length() - 1]
            rest &= ~(T | low)
        return T

    return _orbit(1, steps, grow)


def normal_abelian_subgroups(G: FiniteGroup,
                             limit: int = ORDER_LIMIT_DEFAULT):
    """All abelian normal subgroups, sorted by (order, elements).

    Each one is generated by the conjugacy classes it holds, so they are
    the subgroups grown from classes that commute with themselves, one
    class at a time, admitting a class only if it commutes with the
    subgroup so far: each step then stays abelian.  G keeps them from the
    first walk, and each call returns a list of its own.
    """
    _check_order(G, limit)
    if G._abelian_normal is None:
        masks = G.class_masks()
        subs = [Subgroup(G, masks.elements(S))
                for S in _class_subgroups(G, abelian=True)]
        subs.sort(key=lambda s: (s.order, s.elements))
        G._abelian_normal = tuple(subs)
    return list(G._abelian_normal)


def _direct_factors(G: FiniteGroup) -> list[tuple[int, ...]]:
    """Indecomposable direct factors of G, as sorted element tuples whose
    direct product is G, smallest first.

    A nontrivial normal N with a normal M, N & M = 1 and |N| |M| = |R|, both
    inside R, is a direct factor of R.  The smallest one is indecomposable:
    a factor of N would be a smaller one, since the factors of a direct
    factor of G are normal in G.  So the split takes it and goes on in M,
    and G's normal subgroups suffice at every step.  Subsets and
    intersections are read on class masks, the trivial subgroup's being 1.
    """
    masks = G.class_masks()
    order = {S: masks.order(S) for S in _class_subgroups(G)}
    normal = sorted(order, key=order.__getitem__)
    by_order: dict[int, list] = {}
    for S in normal:
        by_order.setdefault(order[S], []).append(S)
    factors, rest = [], (1 << len(masks.classes)) - 1
    while order[rest] > 1:
        for N in normal[1:]:
            if order[rest] % order[N] or N & ~rest:
                continue
            M = next((M for M in by_order.get(order[rest] // order[N], ())
                      if M & N == 1 and not M & ~rest), None)
            if M is not None:
                break
        factors.append(masks.elements(N))
        rest = M
    return factors


class GroupMap:
    """A homomorphism between index groups, stored as an image array."""

    def __init__(self, source: FiniteGroup, target: FiniteGroup, images):
        self.source = source
        self.target = target
        self.images = tuple(images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __eq__(self, other):
        return isinstance(other, GroupMap) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"GroupMap({self.images})"


def _hom_search(G: FiniteGroup, H: FiniteGroup, labels_G, labels_H,
                pinned=(), first=False):
    """Sorted image tuples of the injective homomorphisms G -> H that keep
    every label (labels_H[im[x]] == labels_G[x] for each x) and send the
    first generators of G to `pinned`; with `first`, at most one.

    A map compatible on every edge x -> x*g of a set closed under right
    multiplication by the generators is a homomorphism on their span, so
    each branch extends over the span and is cut at the first edge with
    im[x*g] != im[x]*im[g], at an image already taken, or at an image
    whose label differs from its preimage's.  Each generator's images are
    the elements of H with its label, in increasing order.
    """
    gens, tG, tH = G.generating_set(), G.table, H.table
    by_label: dict = {}
    for y, lab in enumerate(labels_H):
        by_label.setdefault(lab, []).append(y)
    candidates = [[c] for c in pinned] + [by_label.get(labels_G[g], [])
                                          for g in gens[len(pinned):]]
    im = [0] + [None] * (G.order - 1)
    used = [True] + [False] * (H.order - 1)
    span, found = [0], []

    def edge(x, h):
        # check, or extend along, x -> x*h; False on a conflict
        y, want = tG[x][h], tH[im[x]][im[h]]
        if im[y] is None:
            if used[want] or labels_H[want] != labels_G[y]:
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
            if used[c] or labels_H[c] != labels_G[g]:
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


def _chain(G: FiniteGroup, labels):
    """Generators of the group K of automorphisms keeping every label, and
    |K|, from a stabilizer chain.

    Level i holds the automorphisms in K fixing the generators g_1..g_{i-1}
    of G.  Each image c of g_i outside the orbit found so far costs one
    search for an automorphism in K with g_j -> g_j (j < i) and g_i -> c;
    a hit joins the level and widens the orbit.  The levels' automorphisms
    generate K, and |K| is the product of the orbit lengths (Schreier-Sims
    by backtrack; Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, 2005, ch. 4).
    """
    gens = G.generating_set()
    found, order = [], 1
    for i, g in enumerate(gens):
        level, orbit = [], {g}
        for c in range(G.order):
            if labels[c] != labels[g] or c in orbit:
                continue
            hit = _hom_search(G, G, labels, labels, gens[:i] + (c,),
                              first=True)
            if hit:
                level.append(hit[0])
                orbit = set(_orbit(g, level, lambda x, phi: phi[x]))
        found.extend(level)
        order *= len(orbit)
    return [GroupMap(G, G, im) for im in found], order


def _chain_contains(G: FiniteGroup, chain, autos) -> bool:
    """Whether every automorphism in `autos` (image tuples) lies in the
    group the chain's automorphisms generate.  Each is sifted: at level i,
    phi(g_i) is walked back to g_i along the breadth-first orbit tree of
    the chain's automorphisms fixing g_1..g_(i-1), composing phi with the
    inverse of each tree edge's automorphism; phi lies in the group iff
    every walk ends at g_i and phi ends as the identity."""
    gens = G.generating_set()
    trees = []
    for i, g in enumerate(gens):
        level = [a.images for a in chain if all(a(h) == h for h in gens[:i])]
        # sorting the points by their images inverts a permutation
        inverse = {a: sorted(range(G.order), key=a.__getitem__)
                   for a in level}
        parent: dict = {}

        def act(x, a):
            parent.setdefault(a[x], (x, inverse[a]))
            return a[x]

        _orbit(g, level, act)
        trees.append(parent)
    identity = tuple(range(G.order))
    for phi in autos:
        for g, parent in zip(gens, trees):
            c = phi[g]
            while c != g:
                if c not in parent:
                    return False
                c, back = parent[c]
                phi = tuple(back[y] for y in phi)
        if phi != identity:
            return False
    return True


def class_preserving_auts(G: FiniteGroup, limit: int = ORDER_LIMIT_DEFAULT):
    """Generators of Aut_c(G), the automorphisms preserving every conjugacy
    class, and [Aut_c : Inn].

    The generators come from the stabilizer chain labelled by class, so
    Aut_c(G) is counted, never listed.  Each generator is checked to keep
    every class, and conjugation by each generator of G to lie in the
    group the chain generates, so |Inn| = |G| / |Z(G)| divides |Aut_c|.
    """
    _check_order(G, limit)
    classes = G.conjugacy_classes()
    class_of = [0] * G.order
    for ci, c in enumerate(classes):
        for x in c:
            class_of[x] = ci
    auts, order = _chain(G, class_of)
    if any(class_of[a(x)] != class_of[x]
           for a in auts for x in range(G.order)):
        raise VerdictInconsistent("an automorphism of Aut_c(G) moves a class")
    if not _chain_contains(G, auts, [
            tuple(G.conjugate(g, x) for x in range(G.order))
            for g in G.generating_set()]):
        raise VerdictInconsistent("Inn(G) is not a subgroup of Aut_c(G)")
    # Z(G) is the union of the classes of one element
    return auts, order // (G.order // sum(len(c) == 1 for c in classes))


def _signatures(G: FiniteGroup) -> list[tuple[int, int, int, int]]:
    """Per element: its order, the size of its class and its numbers of
    square and cube roots, all kept by every isomorphism."""
    t, n = G.table, G.order
    size = {x: len(c) for c in G.conjugacy_classes() for x in c}
    squares = Counter(t[y][y] for y in range(n))
    cubes = Counter(t[t[y][y]][y] for y in range(n))
    return [(G.element_order(x), size[x], squares[x], cubes[x])
            for x in range(n)]


def _signature_labels(G: FiniteGroup, H: FiniteGroup):
    """Per element of G and of H, an integer id of its signature, equal
    across the two groups where the signatures are; None when the
    signatures of G and H differ as multisets, so that no isomorphism
    G -> H exists."""
    sig_G = _signatures(G)
    sig_H = sig_G if H is G else _signatures(H)
    if sorted(sig_G) != sorted(sig_H):
        return None
    ids = {s: i for i, s in enumerate(sorted(set(sig_G)))}
    return [ids[s] for s in sig_G], [ids[s] for s in sig_H]


def automorphism_group(G: FiniteGroup, limit: int = ORDER_LIMIT_DEFAULT):
    """The full automorphism group, sorted by image tuple."""
    _check_order(G, limit)
    return [GroupMap(G, G, im)
            for im in _hom_search(G, G, *_signature_labels(G, G))]


def automorphism_generators(G: FiniteGroup,
                            limit: int = ORDER_LIMIT_DEFAULT):
    """Generators of Aut(G), and its order, from the stabilizer chain
    labelled by signature; Aut(G) is never listed."""
    _check_order(G, limit)
    return _chain(G, _signature_labels(G, G)[0])


def find_isomorphism(G: FiniteGroup, H: FiniteGroup,
                     limit: int = ORDER_LIMIT_DEFAULT):
    """An isomorphism G -> H, or None."""
    if G.order != H.order:
        return None
    _check_order(G, limit)
    labels = _signature_labels(G, H)
    if labels is None:
        return None
    found = _hom_search(G, H, *labels, first=True)
    return GroupMap(G, H, found[0]) if found else None

"""Characters of finite abelian groups, alternating forms, and cocycles.

Characters and forms are stored by integer exponents over the generators
returned by abelian_structure; all values are roots of unity, so most of
the work here is modular integer arithmetic, materialized as CycNum only
at the edges.  A form is posed by its upper entries, one per pair of
`_coordinates`, and every condition on a form, and on a cocycle that
realizes it, is Z-linear in them, so the invariant forms, non-degeneracy
and the invariant-cocycle decision are read off Smith normal forms
(`_smith`); the forms realized on a socle are one kernel
(`RealizableForms`).  These conditions read only the dual as a G-module,
its invariant factors and the distinct matrices of G's generators on it,
not which subgroup it is the dual of, so they are posed once per
dual-action type (`_DualTypes`).  Forms move only by pushing, never by
descent.  All forms and the invariant ones are one span, `_forms`.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from operator import mul
from typing import Optional

from ._smith import back_substitute, injective, kernel, smith, span
from .cyclo import CycNum, root_of_unity
from .groups import (FiniteGroup, NotAbelian, OrderLimitExceeded, Subgroup,
                     VerdictInconsistent, _orders_structure)

__all__ = [
    "NotInSubgroup",
    "NotNormalSubgroup",
    "EvenOrder",
    "Character",
    "AltForm",
    "DualAction",
    "alternating_forms",
    "is_nondegenerate",
    "invariant_forms",
    "is_symmetric_type",
    "cocycle_from_form_odd",
    "cocycle_identity_holds",
    "invariant_cocycle_search",
    "CocycleSearch",
    "RealizableForms",
]


class NotInSubgroup(ValueError):
    pass


class NotNormalSubgroup(ValueError):
    pass


class EvenOrder(ValueError):
    pass


_Coordinates = namedtuple("_Coordinates", "ds L pairs moduli duals")


@lru_cache(maxsize=None)
def _coordinates(ds: tuple[int, ...]) -> _Coordinates:
    """The coordinates of forms on the dual of (+) Z/d_i, built once per
    type: the d_i, their exponent L, the pairs i < j in order with their
    moduli gcd(d_i, d_j), and the dual's points, exponent tuples in
    lexicographic order."""
    pairs = tuple(itertools.combinations(range(len(ds)), 2))
    return _Coordinates(ds, lcm(*ds), pairs,
                        tuple(gcd(ds[i], ds[j]) for i, j in pairs),
                        tuple(itertools.product(*map(range, ds))))


def _space(A: Subgroup) -> _Coordinates:
    """The coordinates on the dual of A, over its invariant factors."""
    return _coordinates(A.invariant_factors())


@dataclass(frozen=True)
class Character:
    """A character of an abelian subgroup, chi(g_i) = zeta_{d_i}^{a_i}."""

    group: Subgroup
    exponents: tuple[int, ...]

    def value_exponent(self, a: int) -> tuple[int, int]:
        """chi(a) as (t, L) meaning zeta_L^t, L the exponent of the group."""
        coords = self.group.element_coordinates()
        if a not in coords:
            raise NotInSubgroup(f"element {a} not in the subgroup")
        c = _space(self.group)
        t = sum(e * x * (c.L // d)
                for d, e, x in zip(c.ds, self.exponents, coords[a]))
        return t % c.L, c.L

    def kernel(self) -> tuple[int, ...]:
        return tuple(a for a in self.group.elements
                     if self.value_exponent(a)[0] == 0)


@dataclass(frozen=True)
class AltForm:
    """Alternating bilinear form on the dual of an abelian subgroup.

    matrix[i][j] is the exponent e_ij with b(chi_i, chi_j) = zeta_{m_ij}^{e_ij}
    on the dual generators, m_ij = gcd(d_i, d_j); the matrix is skew with
    zero diagonal, entries reduced mod m_ij.  `upper` holds the e_ij, i < j,
    in the order of the pairs of `_coordinates`, where every Z-linear
    condition on a form is posed.
    """

    group: Subgroup
    matrix: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_upper(A: Subgroup, entries) -> "AltForm":
        """The form with upper entries `entries`, one per pair i < j in
        order, each reduced mod its modulus."""
        c = _space(A)
        mat = [[0] * len(c.ds) for _ in c.ds]
        for (i, j), m, e in zip(c.pairs, c.moduli, entries, strict=True):
            mat[i][j], mat[j][i] = e % m, -e % m
        return AltForm(A, tuple(map(tuple, mat)))

    @staticmethod
    def trivial(A: Subgroup) -> "AltForm":
        return AltForm.from_upper(A, [0] * len(_space(A).pairs))

    @cached_property
    def upper(self) -> tuple[int, ...]:
        """The entries e_ij, i < j, in pair order."""
        return tuple(self.matrix[i][j] for i, j in _space(self.group).pairs)

    @cached_property
    def _scaled(self) -> tuple[int, tuple[tuple[int, int, int], ...]]:
        """(L, ((i, j, e_ij L / m_ij), ...)) over the nonzero upper entries,
        L the exponent of the dual; computed once per form."""
        c = _space(self.group)
        return c.L, tuple((i, j, e * (c.L // m)) for (i, j), m, e in
                          zip(c.pairs, c.moduli, self.upper) if e)

    def value_exponent(self, rho, sigma) -> tuple[int, int]:
        """b(rho, sigma) as (t, L): zeta_L^t for exponent tuples rho, sigma."""
        L, upper = self._scaled
        return sum(w * (rho[i] * sigma[j] - rho[j] * sigma[i])
                   for i, j, w in upper) % L, L

    def mul(self, other: "AltForm") -> "AltForm":
        return AltForm.from_upper(self.group, [
            a + b for a, b in zip(self.upper, other.upper, strict=True)])

    def inv(self) -> "AltForm":
        return AltForm.from_upper(self.group, [-e for e in self.upper])

    def order(self) -> int:
        return lcm(*(m // gcd(e, m) for e, m in
                     zip(self.upper, _space(self.group).moduli)))

    def is_trivial(self) -> bool:
        return not any(self.upper)

    def _pairing(self):
        """(M, ds, ds): rho -> (b(rho, chi_j))_j as a map of exponents, from
        the dual (+) Z/d_i to (+) Z/d_j."""
        ds = _space(self.group).ds
        return [[self.matrix[i][j] * (d // gcd(ds[i], d))
                 for i in range(len(ds))] for j, d in enumerate(ds)], ds, ds

    def push(self, B: Subgroup, rows) -> "AltForm":
        """The form on the dual of B with value b(rows[i], rows[j]) on B's
        dual generators i, j.  For rows = _dual_matrix(A, B, psi) it is
        (chi, chi') -> b(chi o psi, chi' o psi), of tensor (psi x psi)R(A, b).
        """
        c = _space(B)
        entries = []
        for (i, j), m in zip(c.pairs, c.moduli):
            t, L = self.value_exponent(rows[i], rows[j])
            if t * m % L:
                raise VerdictInconsistent("form value order mismatch")
            entries.append(t * m // L)
        return AltForm.from_upper(B, entries)

    def to_json(self):
        basis = self.group.abelian_structure()
        return {"subgroup": list(self.group.elements),
                "generators": [g for g, _ in basis],
                "orders": [d for _, d in basis],
                "matrix": [list(row) for row in self.matrix]}


# the most forms alternating_forms and invariant_forms list
FORM_LIMIT = 1 << 20


def _forms(A: Subgroup, gens, orders) -> list[AltForm]:
    """The forms whose upper entries in (+)_{i<j} Z/gcd(d_i, d_j) are the
    span of `gens` of these orders, sorted by entries: in the order of
    their matrices, which begin each row with that row's upper entries."""
    if prod(orders) > FORM_LIMIT:
        raise OrderLimitExceeded("too many alternating forms to enumerate")
    return sorted((AltForm.from_upper(A, x) for x in
                   span(gens, orders, _space(A).moduli)),
                  key=lambda b: b.upper)


def alternating_forms(A: Subgroup) -> list[AltForm]:
    """All alternating bilinear forms on the dual of A, sorted by matrix.

    These are exactly the admissible skew matrices; the count is the
    product of gcd(d_i, d_j) over i < j.
    """
    s = _space(A).moduli
    return _forms(A, _units(len(s)), s)


def is_nondegenerate(b: AltForm) -> bool:
    """True iff rho -> b(rho, .) is injective on the dual group, read off
    the order of its image: one Smith form, also when b is degenerate."""
    return injective(*b._pairing())


def is_symmetric_type(A: Subgroup) -> bool:
    """True iff the abelian A is a square: every invariant factor occurs an
    even number of times.  The factors are read off A's element orders
    (`groups._orders_structure`), so no basis is built; a non-abelian A
    with an abelian group's element orders (Q8 has C4 x C2's) passes."""
    ds = _orders_structure([A.parent.element_order(a) for a in A.elements])
    if ds is None or prod(ds) != A.order:
        raise NotAbelian("element orders of no abelian group of this order")
    return len(ds) % 2 == 0 and ds[::2] == ds[1::2]


def _units(r: int) -> list[tuple[int, ...]]:
    """Exponent tuples of the r dual generators."""
    return [tuple(int(k == i) for k in range(r)) for i in range(r)]


def _dual_matrix(A: Subgroup, B: Subgroup, psi) -> tuple[tuple[int, ...], ...]:
    """The dual map chi -> chi o psi of a homomorphism psi: A -> B given on
    elements: row i is the image of B's i-th dual generator, in exponents
    over A's dual generators."""
    coords = B.element_coordinates()
    es = _space(B).ds
    basis = A.abelian_structure()
    rows = [[0] * len(basis) for _ in es]
    for j, (a, d) in enumerate(basis):
        image = coords.get(psi(a))
        if image is None:
            raise NotInSubgroup(f"image of {a} not in the target subgroup")
        # chi_i(psi(a)) = zeta_{e_i}^{c_i} has order dividing d = ord(a)
        for i, (c, e) in enumerate(zip(image, es)):
            if c * d % e:
                raise VerdictInconsistent("character image order mismatch")
            rows[i][j] = c * d // e % d
    return tuple(tuple(row) for row in rows)


def _dual_apply(rows, exponents, orders) -> tuple[int, ...]:
    """A character's image under a dual matrix, reduced by target `orders`."""
    return tuple(sum(x * row[j] for x, row in zip(exponents, rows)) % d
                 for j, d in enumerate(orders))


class DualAction:
    """The action of G on characters of a normal abelian subgroup,
    (g.chi)(a) = chi(g^-1 a g)."""

    def __init__(self, G: FiniteGroup, A: Subgroup):
        if A.parent is not G:
            raise NotNormalSubgroup("subgroup of another group")
        if not A.is_normal():
            raise NotNormalSubgroup("dual action needs a normal subgroup")
        self.G, self.A, self.space = G, A, _space(A)
        self._mats: dict[int, tuple] = {}
        self._moving: Optional[tuple] = None

    def _matrix(self, g: int):
        """The dual matrix of a -> g^-1 a g, built when g is first asked
        for: the verdict path asks only for G's generators."""
        if g not in self._mats:
            h = self.G.inverses[g]
            self._mats[g] = _dual_matrix(
                self.A, self.A, lambda a: self.G.conjugate(h, a))
        return self._mats[g]

    def on_exponents(self, g: int, exponents) -> tuple[int, ...]:
        return _dual_apply(self._matrix(g), exponents, self.space.ds)

    def matrices(self) -> tuple:
        """The distinct dual matrices of G's generators other than the
        identity, sorted.  G acts on the dual through the group they
        generate, so every invariance condition reads these alone, and
        with the invariant factors they fix the dual module's type."""
        if self._moving is None:
            one = tuple(_units(len(self.space.ds)))
            self._moving = tuple(sorted({
                self._matrix(g) for g in self.G.generating_set()} - {one}))
        return self._moving

    def invariance_map(self):
        """(M, s, t): b is invariant iff M x = 0 mod t for its upper entries
        x in (+) Z/s, s_kl = gcd(d_k, d_l).  Row (P, i, j) is b(P e_i,
        P e_j) - b(e_i, e_j) in exponents over the dual exponent L, for
        each of the distinct matrices P of `matrices`."""
        c = self.space
        M = []
        for P in self.matrices():
            for i, j in c.pairs:
                M.append([(P[i][k] * P[j][l] - P[i][l] * P[j][k]
                           - ((k, l) == (i, j))) * (c.L // m)
                          for (k, l), m in zip(c.pairs, c.moduli)])
        return M, c.moduli, [c.L] * len(M)

    def is_invariant_form(self, b: AltForm) -> bool:
        M, _, t = self.invariance_map()
        return not any(sum(map(mul, row, b.upper)) % L
                       for row, L in zip(M, t))


def invariant_forms(A: Subgroup, action: DualAction) -> list[AltForm]:
    """G-invariant alternating forms on the dual of A, in the order of
    their matrices: the kernel of the invariance map."""
    return _forms(A, *kernel(*action.invariance_map()))


# ---------------------------------------------------------------------------
# Cocycles on the dual group: dense tables over exponent-tuple pairs.


def cocycle_from_form_odd(A: Subgroup, b: AltForm) -> dict:
    """The square-root cocycle of b for odd |A|: c(rho, sigma) = b(sigma/2, rho).

    Halving is rho -> rho^((L+1)/2) on the dual of exponent L.  The slots are
    arranged so that the associated form c(sigma, rho)/c(rho, sigma) is b
    itself, not its inverse.
    """
    if A.order % 2 == 0:
        raise EvenOrder("square-root cocycle needs odd order")
    ds, L, _, _, duals = _space(A)
    half = (L + 1) // 2
    roots = [root_of_unity(L, k) for k in range(L)]
    halves = {sigma: tuple(x * half % d for x, d in zip(sigma, ds))
              for sigma in duals}
    return {(rho, sigma): roots[b.value_exponent(halves[sigma], rho)[0]]
            for rho in duals for sigma in duals}


# c(x, y) c(xy, z) = c(y, z) c(x, yz), as word pairs for _products_agree
_COCYCLE_IDENTITY = (((0, 1), (3, 2)), ((1, 2), (0, 4)))


def _products_agree(A: Subgroup, c: dict, left, right) -> bool:
    """Whether, for every triple (x, y, z) of elements of the dual of A,
    the product of the values c[(u, v)] over the word pairs (u, v) of left
    equals the product over those of right, all values in k*.  c is keyed
    by pairs of dual exponent tuples; a word pair names two of (x, y, z,
    xy, yz) by their positions 0..4.  A zero value answers False.

    The middle point y runs over the dual generators only (the identity
    when there are none), n^2 r lookups for r generators, not n^3: for the
    identities checked here the y at which it holds for all x, z are
    closed under products, and in a finite group the products of the
    generators are every element.
    - R(xy, z) = R(x, z) R(y, z) at y1 and y2 gives R(x y1 y2, z) =
      R(x y1, z) R(y2, z) = R(x, z) R(y1, z) R(y2, z), and R(y1 y2, z) =
      R(y1, z) R(y2, z); R(x, yz) = R(x, y) R(x, z) likewise.
    - For the cocycle identity, f = dc, f(x, y, z) = c(x, y) c(xy, z) /
      (c(y, z) c(x, yz)), is a 3-cocycle (dd = 1 on inhomogeneous cochains,
      K. S. Brown, Cohomology of Groups, ch. III), so f(y1, y2, z) f(x, y1
      y2, z) f(x, y1, y2) = f(x y1, y2, z) f(x, y1, y2 z), and f = 1 at the
      middle points y1 and y2 gives f(x, y1 y2, z) = 1.  This needs the
      values in k*.

    The distinct values are interned by key and their pairwise products
    cached, so the sweep is list lookups rather than field arithmetic.  c
    keeps its values alive, so each of its objects is keyed once, by its
    id; a product is a temporary whose id may be reused, so it is interned
    by key alone.
    """
    ds, _, _, _, duals = _space(A)
    index = {x: i for i, x in enumerate(duals)}
    ids: dict = {}
    vals: list = []

    def intern(v):
        k = v.key()
        if k not in ids:
            ids[k] = len(vals)
            vals.append(v)
        return ids[k]

    objects: dict = {}

    def cell(v):
        i = objects.get(id(v))
        if i is None:
            i = objects[id(v)] = intern(v)
        return i

    table = [[cell(c[(x, y)]) for y in duals] for x in duals]
    if any(v.is_zero() for v in vals):
        return False
    cache: dict = {}

    def side(pairs, w):
        i = None
        for u, v in pairs:
            j = table[w[u]][w[v]]
            if i is not None:
                key = (i, j) if i <= j else (j, i)
                if key not in cache:
                    cache[key] = intern(vals[i] * vals[j])
                j = cache[key]
            i = j
        return i

    n = range(len(duals))
    for u in _units(len(ds)) or [duals[0]]:
        y = index[u]
        # xy and yz, as the dual is abelian
        plus = [index[tuple((a + b) % d for a, b, d in zip(x, u, ds))]
                for x in duals]
        for x in n:
            for z in n:
                w = (x, y, z, plus[x], plus[z])
                if side(left, w) != side(right, w):
                    return False
    return True


def cocycle_identity_holds(A: Subgroup, c: dict) -> bool:
    """Check normalization and the full 2-cocycle identity, with every
    value in k*: a table with a zero value is no cocycle."""
    one, *_ = duals = _space(A).duals
    cn = CycNum.one()
    if any(c[(one, rho)] != cn or c[(rho, one)] != cn for rho in duals):
        return False
    return _products_agree(A, c, *_COCYCLE_IDENTITY)


@dataclass(frozen=True)
class CocycleSearch:
    """Decision on an invariant cocycle: a checked witness table and
    "witness", or None and "contradiction" when a checked obstruction row
    (see RealizableForms) shows that no k*-valued one with the form exists.
    """

    witness: Optional[dict]
    argument: str


def _is_cocycle(c, add, Q) -> bool:
    """Whether the exponent table c mod Q, over a group with addition table
    add and identity 0, is a cocycle with c(0, 0) = 0, hence normalized."""
    n = range(len(c))
    return not c[0][0] % Q and not any(
        (c[x][y] + c[add[x][y]][z] - c[y][z] - c[x][add[y][z]]) % Q
        for x in n for y in n for z in n)


class RealizableForms:
    """The forms b on the dual X of a normal abelian subgroup A that a
    G-invariant normalized 2-cocycle on X realizes, decided once per
    dual-action type: the conditions read only A's invariant factors and
    the distinct matrices P of `DualAction.matrices`, in exponents over
    A's basis, so every socle of one type (`_DualTypes`) shares them.

    H^2(X, k*) is the group of alternating forms of X (Karpilovsky,
    Projective Representations of Finite Groups, 1985): every normalized
    cocycle with form b is c = beta_b d(lambda), lambda(1) = 1, beta_b(rho,
    sigma) = prod_{i<j} b(chi_i, chi_j)^(rho_j sigma_i).  For a matrix g,
    f = c(g., g.)/c is a normalized cocycle, and f = 1 once f = 1 on X x
    {dual generators}.  So invariance is M lambda = Y x / L over Q/Z, one
    row per (g, rho, e = chi_i), x b's upper entries: M does not depend on
    b, and Y_ij(rho, g, e) = (rho_j e_i - (g rho)_j (g e)_i) L / gcd(d_i,
    d_j); with no matrix, one zero row stands for the empty system.  With
    one Smith form U M V = D, b is realized iff (U Y x)_i = 0 mod L on
    each row i without a pivot (u M = 0 is checked for each): the
    realized forms are a kernel, `gens` of `orders`.  The checks of a
    cocycle (identity, invariance, form) are Z-linear in its exponents mod
    Q, so a checked cocycle per generator certifies every realized form.
    """

    def __init__(self, action: DualAction):
        self.A, self.space = action.A, action.space
        ds, L, pairs, moduli, duals = self.space
        index = {rho: k for k, rho in enumerate(duals)}
        self.add = add = [[index[tuple((u + v) % d for u, v, d in
                                       zip(x, y, ds))] for y in duals]
                          for x in duals]
        self.moves = [[index[_dual_apply(P, rho, ds)] for rho in duals]
                      for P in action.matrices()]
        rows = {} if self.moves else {
            ((0,) * (len(duals) - 1), (0,) * len(pairs)): None}
        for move, e, rho in itertools.product(
                self.moves, [index[u] for u in _units(len(ds))],
                range(len(duals))):
            grho, ge, row = move[rho], move[e], [0] * len(duals)
            # c(g rho, g e) - c(rho, e), beta moved to the right
            for k, sign in ((grho, 1), (ge, 1), (add[grho][ge], -1),
                            (rho, -1), (e, -1), (add[rho][e], 1)):
                row[k] += sign
            y = tuple((duals[rho][j] * duals[e][i] - duals[grho][j]
                       * duals[ge][i]) * (L // m)
                      for (i, j), m in zip(pairs, moduli))
            rows[tuple(row[1:]), y] = None
        self.M, self.Y = [list(row) for row, _ in rows], [y for _, y in rows]
        U, self.D, self.V = smith(self.M)
        self.UY = [[sum(u * y[k] for u, y in zip(row, self.Y))
                    for k in range(len(pairs))] for row in U]
        # the rows without a pivot, one per value mod L
        n = len(duals) - 1
        free = {tuple(v % L for v in self.UY[i]): U[i] for i in range(len(U))
                if i >= n or not self.D[i][i]}
        if any(sum(a * row[k] for a, row in zip(u, self.M))
               for u in free.values() for k in range(n)):
            raise VerdictInconsistent("obstruction vector fails its check")
        self.free, self.cocycles = list(free), None
        self.gens, self.orders = kernel(self.free, moduli, [L] * len(free))

    def realizes(self, b: AltForm) -> bool:
        """Whether b's upper entries are in the kernel; the first yes checks
        one cocycle per generator (`cocycles`), certifying every yes."""
        if any(sum(map(mul, row, b.upper)) % self.space.L
               for row in self.free):
            return False
        if self.cocycles is None:
            self.cocycles = [self.cocycle(x) for x in self.gens]
        return True

    def cocycle(self, x) -> tuple[int, list[list[int]]]:
        """(Q, c), c[rho][sigma] mod Q: a checked cocycle of form x."""
        _, L, _, _, duals = self.space
        add, n = self.add, range(len(duals))
        lam = back_substitute(self.M, self.D, self.V, *(
            [sum(a * v for a, v in zip(row, x)) for row in T]
            for T in (self.UY, self.Y)), L)
        Q = lcm(L, *(v.denominator for v in lam))
        ell = [0] + [int(v * Q) for v in lam]
        b = AltForm.from_upper(self.A, x)
        c = [[(sum(w * rho[j] * sigma[i] for i, j, w in b._scaled[1])
               * (Q // L) + ell[r] + ell[t] - ell[add[r][t]]) % Q
              for t, sigma in enumerate(duals)] for r, rho in enumerate(duals)]
        if any(c[m[r]][m[t]] != c[r][t] for m in self.moves for r in n
               for t in n) or any(
                   (c[t][r] - c[r][t] - b.value_exponent(duals[r], duals[t])[0]
                    * (Q // L)) % Q for r in n for t in n) \
                or not _is_cocycle(c, add, Q):
            raise VerdictInconsistent("invariant cocycle fails its check")
        return Q, c


class _FormSpaces:
    """The form spaces of one dual-action type, posed on its first socle's
    action and each computed when first asked for.  Every socle of the
    type has the same conditions in exponents over its own basis, so it
    reads them as upper entries there."""

    def __init__(self, action: DualAction):
        self.action = action

    @cached_property
    def nondegenerate(self) -> list[tuple[int, ...]]:
        """The upper entries of the invariant non-degenerate forms, in the
        order of their matrices."""
        return [b.upper for b in invariant_forms(self.action.A, self.action)
                if is_nondegenerate(b)]

    @cached_property
    def realizable(self) -> RealizableForms:
        return RealizableForms(self.action)

    @cached_property
    def form_factors(self) -> list[int]:
        """The invariant factors of the group of invariant forms, read off
        the Smith form of the invariance map's kernel."""
        return kernel(*self.action.invariance_map())[1]


class _DualTypes:
    """The duals of one group's normal abelian subgroups as G-modules, keyed
    by type: the invariant factors and `DualAction.matrices`.  Each type's
    form spaces (`_FormSpaces`) are computed at most once, however many
    subgroups share it.  A table lives for one verdict or listing and is
    never kept on the group, so each call runs every check anew."""

    def __init__(self, G: FiniteGroup):
        self.G = G
        self._types: dict = {}

    def __getitem__(self, A: Subgroup) -> _FormSpaces:
        action = DualAction(self.G, A)
        key = action.space.ds, action.matrices()
        if key not in self._types:
            self._types[key] = _FormSpaces(action)
        return self._types[key]


def invariant_cocycle_search(A: Subgroup, b: AltForm,
                             action: DualAction) -> CocycleSearch:
    """Decide whether a normalized action-invariant two-cocycle with form b
    exists on the dual of A, by `RealizableForms`."""
    forms = RealizableForms(action)
    if not forms.realizes(b):
        return CocycleSearch(None, "contradiction")
    Q, c = forms.cocycle(b.upper)
    duals = forms.space.duals
    return CocycleSearch({(rho, sigma): root_of_unity(Q, c[r][t])
                          for r, rho in enumerate(duals)
                          for t, sigma in enumerate(duals)}, "witness")

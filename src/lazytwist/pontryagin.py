"""Characters of finite abelian groups, alternating forms, and cocycles.

Characters and forms are stored by integer exponents over the generators
returned by abelian_structure; all values are roots of unity, so most of
the work here is modular integer arithmetic, materialized as CycNum only
at the edges.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Optional

from .cyclo import CycNum, root_of_unity
from .groups import (FiniteGroup, OrderLimitExceeded, Subgroup,
                     VerdictInconsistent)

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
    "cocycle_form",
    "invariant_cocycle_search",
    "CocycleSearch",
]


class NotInSubgroup(ValueError):
    pass


class NotNormalSubgroup(ValueError):
    pass


class EvenOrder(ValueError):
    pass


def _lcm(values) -> int:
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out


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
        basis = self.group.abelian_structure()
        L = _lcm([d for _, d in basis]) if basis else 1
        t = 0
        for (_, d), e, c in zip(basis, self.exponents, coords[a]):
            t += e * c * (L // d)
        return t % L, L

    def eval(self, a: int) -> CycNum:
        t, L = self.value_exponent(a)
        return root_of_unity(L, t)

    def mul(self, other: "Character") -> "Character":
        basis = self.group.abelian_structure()
        exps = tuple((x + y) % d for (_, d), x, y in
                     zip(basis, self.exponents, other.exponents))
        return Character(self.group, exps)

    def inv(self) -> "Character":
        basis = self.group.abelian_structure()
        return Character(self.group,
                         tuple((-x) % d for (_, d), x in
                               zip(basis, self.exponents)))

    def is_trivial(self) -> bool:
        return not any(self.exponents)

    def kernel(self) -> tuple[int, ...]:
        return tuple(a for a in self.group.elements
                     if self.value_exponent(a)[0] == 0)


@dataclass(frozen=True)
class AltForm:
    """Alternating bilinear form on the dual of an abelian subgroup.

    matrix[i][j] is the exponent e_ij with b(chi_i, chi_j) = zeta_{m_ij}^{e_ij}
    on the dual generators, m_ij = gcd(d_i, d_j); the matrix is skew with
    zero diagonal, entries reduced mod m_ij.
    """

    group: Subgroup
    matrix: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_upper(A: Subgroup, upper: dict[tuple[int, int], int]) -> "AltForm":
        basis = A.abelian_structure()
        r = len(basis)
        mat = [[0] * r for _ in range(r)]
        for (i, j), e in upper.items():
            m = gcd(basis[i][1], basis[j][1])
            mat[i][j] = e % m
            mat[j][i] = (-e) % m
        return AltForm(A, tuple(tuple(row) for row in mat))

    @staticmethod
    def trivial(A: Subgroup) -> "AltForm":
        return AltForm.from_upper(A, {})

    def _orders(self):
        return [d for _, d in self.group.abelian_structure()]

    def value_exponent(self, rho, sigma) -> tuple[int, int]:
        """b(rho, sigma) as (t, L): zeta_L^t for exponent tuples rho, sigma."""
        ds = self._orders()
        L = _lcm(ds) if ds else 1
        t = 0
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                e = self.matrix[i][j]
                if e:
                    m = gcd(ds[i], ds[j])
                    t += e * (L // m) * (rho[i] * sigma[j] - rho[j] * sigma[i])
        return t % L, L

    def eval(self, rho, sigma) -> CycNum:
        t, L = self.value_exponent(rho, sigma)
        return root_of_unity(L, t)

    def mul(self, other: "AltForm") -> "AltForm":
        ds = self._orders()
        r = len(ds)
        return AltForm.from_upper(self.group, {
            (i, j): self.matrix[i][j] + other.matrix[i][j]
            for i in range(r) for j in range(i + 1, r)})

    def inv(self) -> "AltForm":
        r = len(self._orders())
        return AltForm.from_upper(self.group, {
            (i, j): -self.matrix[i][j]
            for i in range(r) for j in range(i + 1, r)})

    def order(self) -> int:
        ds = self._orders()
        out = 1
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                m = gcd(ds[i], ds[j])
                e = self.matrix[i][j]
                o = m // gcd(e, m) if e else 1
                out = out * o // gcd(out, o)
        return out

    def is_trivial(self) -> bool:
        return all(not e for row in self.matrix for e in row)

    def radical(self) -> list[tuple[int, ...]]:
        """The characters rho with b(rho, .) = 1, as exponent tuples."""
        ds = self._orders()
        units = _units(len(ds))
        return [rho for rho in itertools.product(*(range(d) for d in ds))
                if all(self.value_exponent(rho, u)[0] == 0 for u in units)]

    def push(self, B: Subgroup, rows) -> "AltForm":
        """The form on the dual of B with value b(rows[i], rows[j]) on B's
        dual generators i, j.  For rows = _dual_matrix(A, B, psi) it is
        (chi, chi') -> b(chi o psi, chi' o psi), of tensor (psi x psi)R(A, b).
        """
        es = [e for _, e in B.abelian_structure()]
        upper = {}
        for i, j in itertools.combinations(range(len(es)), 2):
            t, L = self.value_exponent(rows[i], rows[j])
            m = gcd(es[i], es[j])
            if t * m % L:
                raise VerdictInconsistent("form value order mismatch")
            upper[(i, j)] = t * m // L
        return AltForm.from_upper(B, upper)

    def descend(self, D: Subgroup) -> "AltForm":
        """The form on the dual of D <= A whose push along D <= A is b, read
        off lifts of D's dual generators; b must vanish on D's annihilator.
        """
        restrict = _dual_matrix(D, self.group, lambda a: a)
        fs = [f for _, f in D.abelian_structure()]
        lifts = {}
        for rho in itertools.product(*(range(d) for d in self._orders())):
            lifts.setdefault(_dual_apply(restrict, rho, fs), rho)
        out = self.push(D, [lifts[u] for u in _units(len(fs))])
        if out.push(self.group, restrict) != self:
            raise VerdictInconsistent("form does not descend to the subgroup")
        return out

    def to_json(self):
        basis = self.group.abelian_structure()
        return {"subgroup": list(self.group.elements),
                "generators": [g for g, _ in basis],
                "orders": [d for _, d in basis],
                "matrix": [list(row) for row in self.matrix]}


def alternating_forms(A: Subgroup, limit: int = 1 << 20) -> list[AltForm]:
    """All alternating bilinear forms on the dual of A.

    These are exactly the admissible skew matrices; the count is the
    product of gcd(d_i, d_j) over i < j.
    """
    basis = A.abelian_structure()
    r = len(basis)
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    total = 1
    for i, j in pairs:
        total *= gcd(basis[i][1], basis[j][1])
        if total > limit:
            raise OrderLimitExceeded("too many alternating forms to enumerate")
    out = []
    for combo in itertools.product(*(range(gcd(basis[i][1], basis[j][1]))
                                     for i, j in pairs)):
        out.append(AltForm.from_upper(A, dict(zip(pairs, combo))))
    return out


def is_nondegenerate(b: AltForm) -> bool:
    """True iff rho -> b(rho, .) is injective on the dual group."""
    return len(b.radical()) == 1


def is_symmetric_type(A: Subgroup) -> bool:
    """True iff A is a square: every invariant factor occurs an even number
    of times."""
    ds = [d for _, d in A.abelian_structure()]
    if len(ds) % 2:
        return False
    return all(ds[i] == ds[i + 1] for i in range(0, len(ds), 2))


def _units(r: int) -> list[tuple[int, ...]]:
    """Exponent tuples of the r dual generators."""
    return [tuple(int(k == i) for k in range(r)) for i in range(r)]


def _dual_matrix(A: Subgroup, B: Subgroup, psi) -> tuple[tuple[int, ...], ...]:
    """The dual map chi -> chi o psi of a homomorphism psi: A -> B given on
    elements: row i is the image of B's i-th dual generator, in exponents
    over A's dual generators."""
    coords = B.element_coordinates()
    es = [e for _, e in B.abelian_structure()]
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
        self.G = G
        self.A = A
        self._orders = [d for _, d in A.abelian_structure()]
        # per group element g: the dual matrix of a -> g^-1 a g
        self._mats = [_dual_matrix(A, A, lambda a, h=G.inverses[g]:
                                   G.conjugate(h, a))
                      for g in range(G.order)]

    def on_exponents(self, g: int, exponents) -> tuple[int, ...]:
        return _dual_apply(self._mats[g], exponents, self._orders)

    def on_character(self, g: int, chi: Character) -> Character:
        return Character(self.A, self.on_exponents(g, chi.exponents))

    def on_form(self, g: int, b: AltForm) -> AltForm:
        """The transported form (g.b)(rho, sigma) = b(g^-1.rho, g^-1.sigma):
        the push along a -> g a g^-1."""
        return b.push(self.A, self._mats[self.G.inverses[g]])

    def is_invariant_form(self, b: AltForm) -> bool:
        return all(self.on_form(g, b) == b for g in self.G.generating_set())


def invariant_forms(A: Subgroup, action: DualAction,
                    only_nondegenerate: bool = False) -> list[AltForm]:
    """G-invariant alternating forms on the dual of A, optionally filtered."""
    out = [b for b in alternating_forms(A) if action.is_invariant_form(b)]
    if only_nondegenerate:
        out = [b for b in out if is_nondegenerate(b)]
    return out


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
    basis = A.abelian_structure()
    ds = [d for _, d in basis]
    L = _lcm(ds) if ds else 1
    half = (L + 1) // 2
    duals = list(itertools.product(*(range(d) for d in ds)))
    table = {}
    for rho in duals:
        for sigma in duals:
            sigma_half = tuple(x * half % d for x, d in zip(sigma, ds))
            t, LL = b.value_exponent(sigma_half, rho)
            table[(rho, sigma)] = root_of_unity(LL, t)
    return table


def cocycle_identity_holds(A: Subgroup, c: dict) -> bool:
    """Check normalization and the full 2-cocycle identity.

    The distinct values are interned and their pairwise products cached,
    so the cubic sweep is dictionary lookups rather than field arithmetic.
    """
    ds = [d for _, d in A.abelian_structure()]
    duals = list(itertools.product(*(range(d) for d in ds)))
    one = tuple(0 for _ in ds)
    cn = CycNum.one()
    if any(c[(one, rho)] != cn or c[(rho, one)] != cn for rho in duals):
        return False

    ids: dict = {}
    vals: list = []

    def intern(v):
        k = v.key()
        if k not in ids:
            ids[k] = len(vals)
            vals.append(v)
        return ids[k]

    table = {pair: intern(v) for pair, v in c.items()}
    group_mul = {}
    for x in duals:
        for y in duals:
            group_mul[(x, y)] = tuple((a + b) % d for a, b, d in zip(x, y, ds))
    prod_cache: dict = {}

    def prod(i, j):
        key = (i, j) if i <= j else (j, i)
        if key not in prod_cache:
            prod_cache[key] = intern(vals[key[0]] * vals[key[1]])
        return prod_cache[key]

    for rho in duals:
        for sigma in duals:
            rs = group_mul[(rho, sigma)]
            left = table[(rho, sigma)]
            for tau in duals:
                if prod(left, table[(rs, tau)]) != \
                   prod(table[(sigma, tau)], table[(rho, group_mul[(sigma, tau)])]):
                    return False
    return True


def cocycle_form(A: Subgroup, c: dict) -> AltForm:
    """The alternating form b(rho, sigma) = c(sigma, rho) / c(rho, sigma)."""
    ds = [d for _, d in A.abelian_structure()]
    units = _units(len(ds))
    upper = {}
    for i, j in itertools.combinations(range(len(ds)), 2):
        v = c[(units[j], units[i])] / c[(units[i], units[j])]
        m = gcd(ds[i], ds[j])
        e = next((k for k in range(m) if root_of_unity(m, k) == v), None)
        if e is None:
            raise VerdictInconsistent(
                "form value is not a root of unity of the right order")
        upper[(i, j)] = e
    return AltForm.from_upper(A, upper)


@dataclass(frozen=True)
class CocycleSearch:
    """Search outcome: witness table (or None) plus which argument decided.

    argument is "witness" when a table was found, "contradiction" when the
    forced relations are inconsistent for any k*-valued cocycle (a
    range-independent non-existence proof), or "range-exhausted" when the
    bounded value range was searched without success.
    """

    witness: Optional[dict]
    argument: str


def invariant_cocycle_search(A: Subgroup, b: AltForm, action: DualAction,
                             assignment_cap: int = 1 << 20) -> CocycleSearch:
    """Search for a normalized action-invariant two-cocycle with form b.

    Values are restricted to roots of unity of order dividing twice the
    dual exponent; relations forced by normalization, invariance and the
    prescribed form are propagated first, so a clash is a range-independent
    proof that no cocycle exists at all.
    """
    if A.order > 16:
        raise OrderLimitExceeded("cocycle search capped at |A| <= 16")
    ds = [d for _, d in A.abelian_structure()]
    duals = list(itertools.product(*(range(d) for d in ds)))
    one = tuple(0 for _ in ds)
    M = 2 * (_lcm(ds) if ds else 1)

    # union-find over ordered pairs with multiplicative offsets in Z_M
    parent: dict = {}
    offset: dict = {}

    def find(x):
        if parent[x] == x:
            return x, 0
        root, off = find(parent[x])
        parent[x] = root
        offset[x] = (offset[x] + off) % M
        return root, offset[x]

    def union(x, y, delta) -> bool:
        # impose value(x) = zeta_M^delta * value(y)
        rx, ox = find(x)
        ry, oy = find(y)
        if rx == ry:
            return (ox - oy) % M == delta % M
        parent[rx] = ry
        offset[rx] = (oy + delta - ox) % M
        return True

    ONE = "one"
    parent[ONE] = ONE
    offset[ONE] = 0
    for rho in duals:
        for sigma in duals:
            key = (rho, sigma)
            parent[key] = key
            offset[key] = 0

    ok = True
    for rho in duals:
        ok = ok and union((one, rho), ONE, 0) and union((rho, one), ONE, 0)
    gens = action.G.generating_set()
    for rho in duals:
        for sigma in duals:
            t, L = b.value_exponent(rho, sigma)
            # c(sigma, rho) = b(rho, sigma) c(rho, sigma)
            ok = ok and union((sigma, rho), (rho, sigma), t * (M // L))
            for g in gens:
                moved = (action.on_exponents(g, rho),
                         action.on_exponents(g, sigma))
                ok = ok and union(moved, (rho, sigma), 0)
            if not ok:
                return CocycleSearch(None, "contradiction")

    root_one, off_one = find(ONE)
    roots = sorted({find(key)[0] for key in parent
                    if key != ONE and find(key)[0] != root_one})
    count = M ** len(roots)
    if count > assignment_cap:
        raise OrderLimitExceeded("cocycle search space too large")

    for combo in itertools.product(range(M), repeat=len(roots)):
        values = dict(zip(roots, combo))
        values[root_one] = (-off_one) % M
        table = {}
        for rho in duals:
            for sigma in duals:
                root, off = find((rho, sigma))
                base = values.get(root, 0)
                table[(rho, sigma)] = root_of_unity(M, (base + off) % M)
        if cocycle_identity_holds(A, table):
            return CocycleSearch(table, "witness")
    return CocycleSearch(None, "range-exhausted")

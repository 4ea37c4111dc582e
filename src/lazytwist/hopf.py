"""Group-algebra tensor calculus: twists, gauge action, R-matrices, socles.

A GTensor is a sparse element of k[G]^(tensor d) for d = 1, 2, 3 with
cyclotomic coefficients on tuples of element indices.

One abelian test, `_abelian_support`, picks the path for `tensor_inv`,
`is_twist` and `r_matrix`: whether x was built on the dual of an abelian
A, or else whether the elements in the support of x commute, so that
they generate an abelian subgroup A; either way x lies in k[A^d].  The
Fourier transform k[A^d] -> k^(dual of A)^d is an algebra isomorphism
(Movshev 1993; Etingof-Gelaki 1998), so on the dual x is
inverted pointwise, and on the table F^(rho, sigma) = (rho x sigma)(F) of
a degree-2 F, F is invertible iff no value is 0, satisfies the twist
equation iff F^ is a 2-cocycle (not normalized), R^(rho, sigma) =
F^(sigma, rho) / F^(rho, sigma), and the R-matrix axioms say R^ is a
bicharacter.  `r_matrix` reads R^ as an integer exponent matrix K,
R^(rho, sigma) = zeta_L^(rho^T K sigma), checked at every point in one
sweep, and `theta` reads the socle, the annihilator of K's radical, and
the form on it off K, with no transform.  Otherwise all three keep to
tensors in k[G]^(tensor 3): a dense solve inside the span of the support,
under its 200-element cap, `delta2_left`/`delta2_right` and products.

Every character sum, forward or inverse and of any degree, goes through
one routine, `_transform`: character values come from an integer exponent
table, terms are added leg by leg as exponent counts over one root of
unity, and each distinct count vector is normalized once.  A tensor
built from a table on the dual of an abelian A (`_from_dual`:
`twist_from_cocycle`, `r_from_form`, the R of `r_matrix`, the Drinfeld
element of such an R, `tensor_inv`'s inverse) is that table: its
group-basis terms are the inverse transform, computed on the first read
of `terms` and kept.  Every forward transform onto A's dual reads the
table (`_on_dual`) instead of summing again, the checks run on it all
the same, and `tensor_inv`, `is_twist` and `r_matrix` take A as the
abelian subgroup of their path, `is_invariant` (A normal) and
`drinfeld_element` work on the table, so none of them reads the terms.
Products and coefficient sums add the same way: the coefficients are
lifted to one zeta_M as integer exponent counts over one common
denominator, products of terms convolve those counts into their output
cell, and each output cell is normalized once, not once per product term.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from operator import getitem, mul

from .cyclo import CycNum, from_counts, lift, root_of_unity
from .groups import FiniteGroup, Subgroup, _orbit
from .pontryagin import (AltForm, DualAction, _COCYCLE_IDENTITY,
                         _dual_apply, _dual_matrix, _products_agree, _space,
                         _units, cocycle_identity_holds, is_nondegenerate)

__all__ = [
    "DegreeMismatch",
    "NotInvertible",
    "NotATwist",
    "NotInvariant",
    "NotACocycle",
    "NotSupported",
    "ThetaContractViolated",
    "MalformedTensor",
    "GTensor",
    "ThetaValue",
    "tensor_inv",
    "coproduct",
    "counit",
    "antipode",
    "delta1",
    "delta2_left",
    "delta2_right",
    "is_twist",
    "is_invariant",
    "is_normalized",
    "normalize_twist",
    "gauge",
    "r_matrix",
    "drinfeld_element",
    "socle",
    "theta",
    "twist_from_cocycle",
    "cocycle_from_twist",
    "r_from_form",
    "form_from_r",
    "fourier",
]

_DENSE_SOLVE_CAP = 200


class DegreeMismatch(ValueError):
    pass


class NotInvertible(ValueError):
    pass


class NotATwist(ValueError):
    pass


class NotInvariant(ValueError):
    pass


class NotACocycle(ValueError):
    pass


class NotSupported(ValueError):
    pass


class ThetaContractViolated(RuntimeError):
    pass


class MalformedTensor(ValueError):
    pass


def _check_degree(x: "GTensor", degree: int):
    if x.degree != degree:
        raise DegreeMismatch(f"degree {x.degree}, expected {degree}")


def _counts(terms: dict, L: int = 1):
    """(M, d, {t: {e: q}}): M the lcm of L and the conductors of the
    coefficients of terms, and each coefficient as integer counts q of the
    exponents e of zeta_M, all over one common denominator d.  Each
    distinct coefficient object is lifted once (the terms keep it alive,
    so its id is its own), and the terms that share it share its counts,
    which no caller mutates."""
    distinct = {id(c): c for c in terms.values()}
    M, raws = lift(distinct.values(), L)
    d = lcm(*(q.denominator for raw in raws for q in raw.values()))
    counts = {i: {e: q.numerator * (d // q.denominator)
                  for e, q in raw.items()}
              for i, raw in zip(distinct, raws)}
    return M, d, {t: counts[id(c)] for t, c in terms.items()}


def _sum_by(terms: dict, key) -> dict:
    """{k: sum of the coefficients of the terms t with key(t) = k}, each
    sum normalized once (zero sums included; GTensor drops them)."""
    M, d, counts = _counts(terms)
    cells: dict = {}
    for t, raw in counts.items():
        cell = cells.setdefault(key(t), {})
        for e, q in raw.items():
            cell[e] = cell.get(e, 0) + q
    return {k: from_counts(M, cell, d) for k, cell in cells.items()}


class GTensor:
    """Sparse element of k[G]^(tensor degree); zero coefficients never stored.

    A tensor built from a table on the dual of an abelian subgroup A
    (`_from_dual`) is that table: it carries it as `dual` = (A's elements,
    table), and A itself, and its `terms` are the table's inverse
    transform, computed when first read and then kept.  Every forward
    transform onto A's dual reads the table (`_on_dual`); any other tensor
    has `dual` None.  Equality and hashing read the terms only."""

    __slots__ = ("group", "degree", "terms", "dual", "_subgroup")

    def __init__(self, group: FiniteGroup, degree: int, terms: dict):
        self.group = group
        self.degree = degree
        self.dual = self._subgroup = None
        clean = {}
        for tup, c in terms.items():
            if not isinstance(c, CycNum):
                c = CycNum.rational(c)
            if not c.is_zero():
                if len(tup) != degree:
                    raise DegreeMismatch(f"term {tup} in degree {degree}")
                clean[tuple(tup)] = c
        self.terms = clean

    def __getattr__(self, name):
        # reached only for an unset slot: the terms of a tensor built on a
        # dual, read for the first time
        if name != "terms" or self._subgroup is None:
            raise AttributeError(name)
        A = self._subgroup
        self.terms = {t: c for t, c in _transform(
            _char_table(A), self.dual[1], self.degree, inverse=True).items()
            if not c.is_zero()}
        return self.terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def unit(group: FiniteGroup, degree: int) -> "GTensor":
        return GTensor(group, degree, {(0,) * degree: CycNum.one()})

    @staticmethod
    def basis(group: FiniteGroup, tup) -> "GTensor":
        return GTensor(group, len(tup), {tuple(tup): CycNum.one()})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        if self._subgroup is not None:
            # the transform is a bijection: zero iff every value is
            return all(v.is_zero() for v in self.dual[1].values())
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, GTensor) and self.group is other.group
                and self.degree == other.degree and self.terms == other.terms)

    def __hash__(self):
        return hash(self.key())

    def key(self):
        return (self.degree,
                tuple(sorted((t, c.key()) for t, c in self.terms.items())))

    def __repr__(self):
        items = sorted(self.terms.items())[:6]
        body = " + ".join(f"({c!r})*{t}" for t, c in items)
        more = "" if len(self.terms) <= 6 else f" ... ({len(self.terms)} terms)"
        return f"GTensor[deg {self.degree}]({body}{more})"

    # -- linear operations ---------------------------------------------------

    def add(self, other: "GTensor") -> "GTensor":
        self._check_compatible(other)
        out = dict(self.terms)
        for t, c in other.terms.items():
            v = out.get(t, CycNum.zero()) + c
            if v.is_zero():
                out.pop(t, None)
            else:
                out[t] = v
        return GTensor(self.group, self.degree, out)

    def scale(self, c) -> "GTensor":
        c = c if isinstance(c, CycNum) else CycNum.rational(c)
        return GTensor(self.group, self.degree,
                       {t: v * c for t, v in self.terms.items()})

    def _check_compatible(self, other: "GTensor"):
        if self.group is not other.group:
            raise DegreeMismatch("tensors over different groups")
        if self.degree != other.degree:
            raise DegreeMismatch(
                f"degree {self.degree} vs {other.degree}")

    # -- multiplicative operations -----------------------------------------

    def mul(self, other: "GTensor") -> "GTensor":
        # both operands as integer counts over one zeta_M; each pair of
        # terms convolves its counts into the cell of its product tuple
        self._check_compatible(other)
        table = self.group.table
        M, d1, a = _counts(self.terms,
                           lcm(*(c.n for c in other.terms.values())))
        _, d2, b = _counts(other.terms, M)
        cells: dict = {}
        for t1, r1 in a.items():
            rows = [table[g] for g in t1]
            for t2, r2 in b.items():
                t = tuple(map(getitem, rows, t2))
                cell = cells.setdefault(t, {})
                for e1, q1 in r1.items():
                    for e2, q2 in r2.items():
                        e = (e1 + e2) % M
                        cell[e] = cell.get(e, 0) + q1 * q2
        return GTensor(self.group, self.degree, {
            t: from_counts(M, cell, d1 * d2) for t, cell in cells.items()})

    def flip(self) -> "GTensor":
        _check_degree(self, 2)
        return GTensor(self.group, 2,
                       {(b, a): c for (a, b), c in self.terms.items()})

    def conjugate_diagonal(self, g: int) -> "GTensor":
        """(g x ... x g) T (g^-1 x ... x g^-1)."""
        G = self.group
        return GTensor(G, self.degree,
                       {tuple(G.conjugate(g, a) for a in t): c
                        for t, c in self.terms.items()})

    def apply_map(self, phi) -> "GTensor":
        return GTensor(self.group, self.degree,
                       {tuple(phi(a) for a in t): c
                        for t, c in self.terms.items()})

    def embed(self, slots, degree: int) -> "GTensor":
        """Place legs into the given slots of a degree-d tensor, identity
        elsewhere (e.g. F x 1 or 1 x F)."""
        out = {}
        for t, c in self.terms.items():
            full = [0] * degree
            for s, a in zip(slots, t):
                full[s] = a
            out[tuple(full)] = c
        return GTensor(self.group, degree, out)

    def outer(self, other: "GTensor") -> "GTensor":
        if self.group is not other.group:
            raise DegreeMismatch("tensors over different groups")
        out = {}
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                out[t1 + t2] = c1 * c2
        return GTensor(self.group, self.degree + other.degree, out)

    def support_elements(self) -> set[int]:
        out = set()
        for t in self.terms:
            out.update(t)
        return out

    def supported_in(self, A: Subgroup) -> bool:
        return all(a in A for a in self.support_elements())

    # -- serialization -------------------------------------------------------

    def to_json(self, group_name=None):
        terms = sorted(self.terms.items())
        return {"group": group_name or self.group.name,
                "degree": self.degree,
                "terms": [{"g": list(t), "c": c.to_json()} for t, c in terms]}

    @staticmethod
    def from_json(obj, group: FiniteGroup) -> "GTensor":
        """Read a tensor file: an object with a positive integer `degree`
        and a list of `terms`, each with `degree` indices in range(|G|)."""
        if not isinstance(obj, dict) or not isinstance(obj.get("terms"), list):
            raise MalformedTensor("a tensor is an object with a list 'terms'")
        degree, n = obj.get("degree"), group.order
        if type(degree) is not int or degree < 1:
            raise MalformedTensor(f"degree {degree!r} is not positive")
        terms = {}
        for item in obj["terms"]:
            if not isinstance(item, dict):
                raise MalformedTensor(f"term {item!r} is not an object")
            t = item.get("g")
            if not isinstance(t, list) or len(t) != degree or not all(
                    type(i) is int and 0 <= i < n for i in t):
                raise MalformedTensor(
                    f"term {t!r} needs {degree} indices in range({n})")
            if tuple(t) in terms:
                raise MalformedTensor(f"term {t!r} is listed twice")
            terms[tuple(t)] = CycNum.from_json(item.get("c"))
        return GTensor(group, degree, terms)


def _tuple_group(G: FiniteGroup, degree: int, tuples):
    """Subgroup of G^degree generated by the given tuples, with its table.

    Raises OrderLimitExceeded when the subgroup has more than
    _DENSE_SOLVE_CAP elements, also when the tuples already are it."""
    t = G.table

    def times(a, b):
        return tuple(t[x][y] for x, y in zip(a, b))

    order = sorted(_orbit((0,) * degree, list(tuples), times,
                          _DENSE_SOLVE_CAP))
    index = {a: i for i, a in enumerate(order)}
    table = [[index[times(a, b)] for b in order] for a in order]
    return FiniteGroup(table, name=None), order, index


def tensor_inv(x: GTensor) -> GTensor:
    """Inverse in k[G]^(tensor d): pointwise on the dual when the support
    generates an abelian subgroup A (x lies in k[A^d], which holds the
    inverse if there is one), else by a dense solve inside the span of
    the support."""
    if x.is_zero():
        raise NotInvertible("zero tensor")
    G, degree = x.group, x.degree
    A = _abelian_support(x)
    if A is not None:
        hat = _on_dual(A, x)
        if any(v.is_zero() for v in hat.values()):
            raise NotInvertible("singular element")
        return _from_dual(A, {s: v.inv() for s, v in hat.items()}, degree)
    H, order, index = _tuple_group(G, degree, x.terms.keys())
    coeffs = [CycNum.zero()] * len(order)
    for t, c in x.terms.items():
        coeffs[index[t]] = c
    inv_coeffs = _dense_invert(H, coeffs)
    if inv_coeffs is None:
        raise NotInvertible("singular element")
    return GTensor(G, degree, dict(zip(order, inv_coeffs)))


def _dense_invert(H: FiniteGroup, coeffs):
    # solve (left multiplication by x) y = e_0 in the regular representation
    n = H.order
    rows = [[CycNum.zero()] * (n + 1) for _ in range(n)]
    for a, c in enumerate(coeffs):
        if c.is_zero():
            continue
        for b in range(n):
            rows[H.table[a][b]][b] = rows[H.table[a][b]][b] + c
    rows[0][n] = CycNum.one()
    r = 0
    pivots = []
    for col in range(n):
        pr = next((i for i in range(r, n) if not rows[i][col].is_zero()), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][col].inv()
        rows[r] = [v * pv for v in rows[r]]
        for i in range(n):
            if i != r and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == n:
            break
    for i in range(r, n):
        if not rows[i][n].is_zero():
            return None
    if r < n:
        return None
    out = [CycNum.zero()] * n
    for i, col in enumerate(pivots):
        out[col] = rows[i][n]
    return out


# -- Hopf structure maps on k[G] --------------------------------------------


def coproduct(x: GTensor) -> GTensor:
    _check_degree(x, 1)
    return GTensor(x.group, 2, {(t[0], t[0]): c for t, c in x.terms.items()})


def _coefficient_sum(x: GTensor) -> CycNum:
    # the counit applied to every leg
    return _sum_by(x.terms, lambda t: ()).get((), CycNum.zero())


def counit(x: GTensor) -> CycNum:
    _check_degree(x, 1)
    return _coefficient_sum(x)


def antipode(x: GTensor) -> GTensor:
    _check_degree(x, 1)
    inv = x.group.inverses
    return GTensor(x.group, 1, {(inv[t[0]],): c for t, c in x.terms.items()})


def delta1(a: GTensor) -> GTensor:
    """(a x a) Delta(a^-1)."""
    ainv = tensor_inv(a)
    return a.outer(a).mul(coproduct(ainv))


def _coproduct_leg(F: GTensor, which: int) -> GTensor:
    # (Delta x id)(F) for which=0, (id x Delta)(F) for which=1
    _check_degree(F, 2)
    if which == 0:
        return GTensor(F.group, 3,
                       {(g, g, h): c for (g, h), c in F.terms.items()})
    return GTensor(F.group, 3,
                   {(g, h, h): c for (g, h), c in F.terms.items()})


def delta2_left(F: GTensor) -> GTensor:
    """(F x 1)(Delta x id)(F)."""
    return F.embed((0, 1), 3).mul(_coproduct_leg(F, 0))


def delta2_right(F: GTensor) -> GTensor:
    """(1 x F)(id x Delta)(F)."""
    return F.embed((1, 2), 3).mul(_coproduct_leg(F, 1))


def _twist_inverse(F: GTensor):
    """F^-1 when F is a twist, else None."""
    if F.degree != 2:
        return None
    try:
        Finv = tensor_inv(F)
    except NotInvertible:
        return None
    return Finv if delta2_left(F) == delta2_right(F) else None


def _abelian_support(x: GTensor):
    """An abelian subgroup A with x in k[A^d], else None: the A whose dual
    x was built on, or the subgroup generated by the support of x when
    that subgroup is abelian (its generators commute).  Invertibility,
    the twist equation and the R-matrix axioms read the same on the dual
    of any abelian A that holds the support."""
    if x._subgroup is not None:
        return x._subgroup
    G, support = x.group, x.support_elements()
    t = G.table
    if any(t[a][b] != t[b][a] for a in support for b in support):
        return None
    return Subgroup(G, G.closure(support))


def _dual_twist(A: Subgroup, F: GTensor):
    """hat[(rho, sigma)] = (rho x sigma)(F) on the dual of A when F,
    supported in k[A] x k[A], is a twist, else None.  F is invertible iff
    no value of hat is 0, and satisfies the twist equation iff hat
    satisfies the 2-cocycle identity (not normalized); the identity check
    refuses a zero value."""
    if F.degree != 2:
        return None
    hat = _on_dual(A, F)
    if not _products_agree(A, hat, *_COCYCLE_IDENTITY):
        return None
    return hat


def is_twist(F: GTensor) -> bool:
    A = _abelian_support(F)
    if A is None:
        return _twist_inverse(F) is not None
    return _dual_twist(A, F) is not None


def is_invariant(F: GTensor) -> bool:
    """Commutes with Delta(g) for the group generators (hence for all g).

    Conjugation by g x ... x g sends e_rho to e_(g.rho) in k[A] for a
    normal abelian A, so a tensor built on A's dual is invariant iff its
    table is: F^(g.rho, g.sigma, ...) = F^(rho, sigma, ...).  Otherwise
    each term is looked up at its conjugate, a bijection on tuples."""
    G, A = F.group, F._subgroup
    if A is not None and A.is_normal():
        action, hat = DualAction(G, A), F.dual[1]
        # hat keeps its values alive, so each object is keyed once, by its id
        distinct = {id(v): v for v in hat.values()}
        keys = {i: v.key() for i, v in distinct.items()}
        key = {p: keys[id(v)] for p, v in hat.items()}
        duals = _space(A).duals
        for g in G.generating_set():
            image = {s: action.on_exponents(g, s) for s in duals}
            if any(key[tuple(map(image.__getitem__, p))] != k
                   for p, k in key.items()):
                return False
        return True
    terms, table, inv = F.terms, G.table, G.inverses
    for g in G.generating_set():
        conj = [table[row][inv[g]] for row in table[g]]
        if any(terms.get(tuple(map(conj.__getitem__, t))) != c
               for t, c in terms.items()):
            return False
    return True


def is_normalized(F: GTensor) -> bool:
    return _coefficient_sum(F) == CycNum.one()


def normalize_twist(F: GTensor) -> GTensor:
    total = _coefficient_sum(F)
    if total.is_zero():
        raise NotATwist("counit-degenerate tensor")
    return F.scale(total.inv())


def gauge(a: GTensor, F: GTensor) -> GTensor:
    """a . F = (a x a) F Delta(a^-1)."""
    ainv = tensor_inv(a)
    return a.outer(a).mul(F).mul(coproduct(ainv))


# R(xy, z) = R(x, z) R(y, z) and R(x, yz) = R(x, y) R(x, z), the dual
# forms of (Delta x id)(R) = R13 R23 and (id x Delta)(R) = R13 R12
_R_AXIOMS = ((((3, 2),), ((0, 2), (1, 2))), (((0, 4),), ((0, 1), (0, 2))))


def _r_on_tensors(F: GTensor):
    """(R, axioms) for R = F_21 F^-1 in k[G] x k[G], axioms telling whether
    (Delta x id)(R) = R13 R23 and (id x Delta)(R) = R13 R12; None when F
    is not a twist."""
    Finv = _twist_inverse(F)
    if Finv is None:
        return None
    R = F.flip().mul(Finv)
    R13 = R.embed((0, 2), 3)
    return R, (_coproduct_leg(R, 0) == R13.mul(R.embed((1, 2), 3)),
               _coproduct_leg(R, 1) == R13.mul(R.embed((0, 1), 3)))


@lru_cache(maxsize=None)
def _roots(L: int):
    """(zeta_L^k for k < L, the map back from each to k), built once per L;
    no caller mutates them."""
    roots = tuple(root_of_unity(L, k) for k in range(L))
    return roots, {v: k for k, v in enumerate(roots)}


def _bicharacter(A: Subgroup, value):
    """The alternating form beta on the dual of A with beta(chi_i, chi_j) =
    value((chi_i, chi_j)) on the dual generators i < j, when each value is
    zeta_L^k of order dividing gcd(d_i, d_j), L the exponent of A; else
    None.  beta(rho, sigma) = zeta_L^(rho^T K sigma) for the skew exponent
    matrix K with K_ij = k, well defined on exponents mod d_i as K_ij d_i =
    0 mod L."""
    c = _space(A)
    exponent, unit = _roots(c.L)[1], _units(len(c.ds))
    entries = []
    for (i, j), m in zip(c.pairs, c.moduli):
        k = exponent.get(value((unit[i], unit[j])))
        if k is None or k * m % c.L:
            return None
        entries.append(k * m // c.L)
    return AltForm.from_upper(A, entries)


def _exponent_rows(b: AltForm, points) -> dict:
    """{rho: w} over the given points rho of the dual b is a form on, with
    b(rho, sigma) = zeta_L^(w . sigma): w_j = sum_i rho_i K_ij for the
    skew exponent matrix K of b over the exponent L of its group."""
    unit = _units(len(_space(b.group).ds))
    cols = [[b.value_exponent(u, v)[0] for u in unit] for v in unit]
    return {rho: [sum(map(mul, rho, col)) for col in cols] for rho in points}


def _r_on_dual(A: Subgroup, F: GTensor):
    """(R, axioms) as _r_on_tensors, read on the dual of the abelian A that
    the support of F generates: R^(rho, sigma) = F^(sigma, rho) /
    F^(rho, sigma), and the axioms say that R^ is a bicharacter.

    The quotients at the pairs of dual generators give the form beta
    (`_bicharacter`), and F^(sigma, rho) = beta(rho, sigma) F^(rho, sigma)
    is checked at every point, one product per distinct value object and
    exponent, compared by key.  When both hold, R^ = beta, so both axioms
    hold by construction: rho^T K sigma is bilinear, so beta(rho sigma,
    tau) = beta(rho, tau) beta(sigma, tau), and beta(rho, sigma tau) =
    beta(rho, sigma) beta(rho, tau).  Conversely a bicharacter R^ has
    values at the generators of order dividing gcd(d_i, d_j), so it is such
    a beta; otherwise the quotient at every point is swept for the axioms,
    and the first that fails is reported."""
    hat = _dual_twist(A, F)
    if hat is None:
        return None
    # hat keeps its values alive, so each object is keyed once, by its id
    distinct = {id(v): v for v in hat.values()}
    keys = {i: v.key() for i, v in distinct.items()}
    c = _space(A)
    beta = _bicharacter(A, lambda p: hat[p[::-1]] / hat[p])
    if beta is not None:
        roots, w = _roots(c.L)[0], _exponent_rows(beta, c.duals)
        products: dict = {}
        r = {}
        for (rho, sigma), v in hat.items():
            e = sum(map(mul, w[rho], sigma)) % c.L
            k = (id(v), e)
            if k not in products:
                products[k] = (roots[e] * v).key() if e else keys[id(v)]
            if products[k] != keys[id(hat[sigma, rho])]:
                break
            r[rho, sigma] = roots[e]
        else:
            return _from_dual(A, r, 2), (True, True)
    # one quotient per distinct pair of values
    quotients: dict = {}
    r = {}
    for (rho, sigma), v in hat.items():
        k = (keys[id(hat[sigma, rho])], keys[id(v)])
        if k not in quotients:
            quotients[k] = hat[sigma, rho] / v
        r[rho, sigma] = quotients[k]
    return _from_dual(A, r, 2), \
        tuple(_products_agree(A, r, *axiom) for axiom in _R_AXIOMS)


def r_matrix(F: GTensor) -> GTensor:
    """R_F = F_21 F^-1 for an invariant twist; checks the braiding axioms."""
    if not is_invariant(F):
        raise NotInvariant("twist does not commute with coproducts")
    A = _abelian_support(F)
    found = _r_on_tensors(F) if A is None else _r_on_dual(A, F)
    if found is None:
        raise NotATwist("not a twist")
    R, axioms = found
    for leg, holds in zip(("(Delta x id)", "(id x Delta)"), axioms):
        if not holds:
            raise ThetaContractViolated(f"R-matrix axiom {leg} failed")
    return R


def drinfeld_element(R: GTensor) -> GTensor:
    """u_R = sum S(t_i) s_i over the terms s_i x t_i of R.

    For R built on the dual of A, R = sum R^(sigma, tau) e_sigma x e_tau,
    and S(e_tau) = e_(tau^-1), e_sigma e_tau = delta_(sigma tau) e_sigma
    give u_R = sum_sigma R^(sigma, sigma^-1) e_sigma, built on the same
    dual."""
    _check_degree(R, 2)
    A = R._subgroup
    if A is not None:
        ds, _, _, _, duals = _space(A)
        hat = R.dual[1]
        return _from_dual(A, {(s,): hat[s, tuple(-x % d for x, d in zip(
            s, ds))] for s in duals}, 1)
    G = R.group
    return GTensor(G, 1, _sum_by(
        R.terms, lambda st: (G.table[G.inverses[st[1]]][st[0]],)))


def socle(R: GTensor) -> Subgroup:
    """Subgroup generated by the support of either leg."""
    G = R.group
    return Subgroup(G, G.closure(R.support_elements()))


@dataclass(frozen=True)
class ThetaValue:
    socle: Subgroup
    form: AltForm

    def is_trivial(self) -> bool:
        return self.socle.order == 1


def theta(F: GTensor) -> ThetaValue:
    """Socle and braiding form of an invariant twist, contract-checked.

    When R is built on the dual of an abelian A, R^ is the bicharacter of
    the alternating form beta read off its values at the dual generators
    (`_r_on_dual`, `_bicharacter`), and no transform runs: the socle is
    read off beta (`_beta_socle`) and the form through the restriction
    from A's dual onto the socle's (`_restricted_form`).  Otherwise the
    socle is the span of R's terms and the form is `form_from_r`."""
    R = r_matrix(F)
    A = R._subgroup
    if A is None:
        S = socle(R)
    else:
        beta = _bicharacter(A, R.dual[1].__getitem__)
        if beta is None:
            raise ThetaContractViolated(
                "pairing value is not a root of unity of the right order")
        S = _beta_socle(beta)
    if not S.is_normal():
        raise ThetaContractViolated("socle is not normal")
    if not S.is_abelian():
        raise ThetaContractViolated("socle is not abelian")
    b = form_from_r(S, R) if A is None else _restricted_form(beta, S)
    if not is_nondegenerate(b):
        raise ThetaContractViolated("braiding form degenerate on the socle")
    action = DualAction(S.parent, S)
    if not action.is_invariant_form(b):
        raise ThetaContractViolated("braiding form is not conjugation-invariant")
    return ThetaValue(S, b)


def _beta_socle(beta: AltForm) -> Subgroup:
    """The socle of R = R(A, beta), read off beta.

    sigma -> beta(sigma, tau) is a character of A's dual, evaluation at one
    a_tau in A, so R = sum_tau (sum_sigma beta(sigma, tau) e_sigma) x e_tau
    = sum_tau a_tau x e_tau.  The support of either leg is the image of
    tau -> a_tau, the annihilator of beta's radical (left and right
    radicals coincide, as beta(rho, rho) = 1).  It is generated by the
    inverses of the a_tau at the dual generators chi_k: chi_j(a_k^-1) =
    beta(chi_k, chi_j), so their coordinates are the columns of beta's
    pairing matrix."""
    A = beta.group
    M, ds, _ = beta._pairing()
    element = {c: a for a, c in A.element_coordinates().items()}
    G = A.parent
    S = G.closure(element[tuple(row[k] for row in M)] for k in range(len(ds)))
    # A itself, with its structure built, when beta is non-degenerate
    return A if len(S) == A.order else Subgroup(G, S)


def _restricted_form(beta: AltForm, S: Subgroup) -> AltForm:
    """The form b on the dual of S = `_beta_socle(beta)` with b(rho|S,
    sigma|S) = beta(rho, sigma): the restriction from A's dual onto S's
    (`_dual_matrix`) is onto and has beta's radical for kernel, so beta is
    read at lifts of S's dual generators (`AltForm.push`, which checks each
    entry's order), and then checked at every point of S's dual, all in
    exponents."""
    A, c = beta.group, _space(S)
    _, L, _, _, duals = _space(A)
    restrict = _dual_matrix(S, A, lambda a: a)
    lifts: dict = {}
    for rho in duals:
        lifts.setdefault(_dual_apply(restrict, rho, c.ds), rho)
    b = beta.push(S, [lifts[u] for u in _units(len(c.ds))])
    scale = L // c.L
    w, u = _exponent_rows(beta, lifts.values()), _exponent_rows(b, lifts)
    if any((sum(map(mul, w[rho], sigma)) - scale * sum(map(mul, u[x], y)))
           % L for x, rho in lifts.items() for y, sigma in lifts.items()):
        raise ThetaContractViolated("R-matrix is not the bicharacter of a form")
    return b


def form_from_r(A: Subgroup, R: GTensor) -> AltForm:
    """The form b with R = R(A, b): b(sigma, tau) = (sigma x tau)(R) read
    off the dual generators, then checked at every point of the dual."""
    if R.degree != 2 or not R.supported_in(A):
        raise NotSupported("tensor not supported in the subgroup square")
    hat = _on_dual(A, R)
    b = _bicharacter(A, hat.__getitem__)
    if b is None:
        raise ThetaContractViolated(
            "pairing value is not a root of unity of the right order")
    roots = _roots(_space(A).L)[0]
    if any(v != roots[b.value_exponent(*pair)[0]] for pair, v in hat.items()):
        raise ThetaContractViolated("R-matrix is not the bicharacter of a form")
    return b


# -- character sums, cocycle dictionary, Fourier ------------------------------


def _char_table(A: Subgroup):
    """(L, E) for the abelian subgroup A of exponent L: chi_s(a) =
    zeta_L^E[s][a] for every dual exponent tuple s (the keys of E, in
    lexicographic order) and every a in A, read off the coordinates c(a)
    of a as E[s][a] = sum s_i c_i(a) L/d_i mod L."""
    ds, L, _, _, duals = _space(A)
    coords = A.element_coordinates()
    scaled = {a: [c * (L // d) for c, d in zip(coords[a], ds)]
              for a in A.elements}
    return L, {s: {a: sum(map(mul, s, w)) % L for a, w in scaled.items()}
               for s in duals}


def _transform(table, terms: dict, degree: int, inverse: bool = False) -> dict:
    """The Fourier transform between k[A^d] and functions on the d-th power
    of the dual of A, for the character table (L, E) of A.

    Forward, T = sum v * t over the terms {t: v} with t in A^d goes to
    {(s1, ..., sd): (chi_s1 x ... x chi_sd)(T)}.  Inverse, the function
    {(s1, ..., sd): v} goes to the coefficients of sum v e_s1 x ... x e_sd
    in the group basis: {(a1, ..., ad): |A|^-d sum v chi_s1(a1^-1) ...
    chi_sd(ad^-1)}.  Either way every point gets a value, zero included.

    The values are lifted to integer exponent counts over one zeta_M (see
    _counts) and summed one leg at a time: leg i groups the cells by the
    rest of their tuple, and each group adds zeta_L^E[p][x] times its
    counts into the cell of each point p.  Each distinct count vector is
    normalized once, through from_counts, and its cells share the value."""
    L, E = table
    if inverse:
        # chi_s(a^-1) = zeta_L^-E[s][a], keyed by the output point a first
        E = {a: {s: -Es[a] % L for s, Es in E.items()}
             for a in next(iter(E.values()))}
    M, d, cells = _counts(terms, L)
    step = M // L
    for i in range(degree):
        legs: dict = {}
        for t, raw in cells.items():
            legs.setdefault(t[:i] + t[i + 1:], []).append((raw, t[i]))
        cells = {}
        for rest, col in legs.items():
            for p, Ep in E.items():
                acc: dict = {}
                for raw, x in col:
                    e = Ep[x] * step
                    for k, q in raw.items():
                        k = (k + e) % M
                        acc[k] = acc.get(k, 0) + q
                cells[rest[:i] + (p,) + rest[i:]] = {
                    k: q for k, q in acc.items() if q}
    if inverse:
        d *= len(E) ** degree
    # cells with equal counts share one value
    values: dict = {}
    out = {}
    for t in itertools.product(E, repeat=degree):
        cell = cells.get(t, {})
        k = tuple(sorted(cell.items()))
        if k not in values:
            values[k] = from_counts(M, cell, d)
        out[t] = values[k]
    return out


def _from_dual(A: Subgroup, hat: dict, degree: int) -> GTensor:
    """The tensor in k[A^d] whose transform on the d-th power of the dual
    of A is hat, carrying hat (see GTensor); its terms are built when first
    read.  The transform is a bijection and exact, so hat is what a
    forward transform would give again."""
    x = GTensor.__new__(GTensor)
    x.group, x.degree = A.parent, degree
    x.dual, x._subgroup = (A.elements, hat), A
    return x


def _on_dual(A: Subgroup, x: GTensor) -> dict:
    """{(s1, ..., sd): (chi_s1 x ... x chi_sd)(x)} on the d-th power of the
    dual of A, for x in k[A^d]: the table x carries when it was built on
    the dual of A, else the forward transform.  Callers do not mutate it."""
    if x.dual is not None and x.group is A.parent \
            and x.dual[0] == A.elements:
        return x.dual[1]
    return _transform(_char_table(A), x.terms, x.degree)


def twist_from_cocycle(A: Subgroup, c: dict) -> GTensor:
    """F = sum c(rho, sigma) e_rho x e_sigma over the dual of A."""
    if not cocycle_identity_holds(A, c):
        raise NotACocycle("table fails normalization or the cocycle identity")
    # a copy, so that the caller's table can change without F's
    return _from_dual(A, dict(c), 2)


def cocycle_from_twist(A: Subgroup, F: GTensor) -> dict:
    """c(rho, sigma) = (rho x sigma)(F) for a twist supported in k[A] x k[A]."""
    if F.degree != 2 or not F.supported_in(A):
        raise NotSupported("tensor not supported in the subgroup square")
    return dict(_on_dual(A, F))


def r_from_form(A: Subgroup, b: AltForm) -> GTensor:
    """R(A, b) = sum b(sigma, tau) e_sigma x e_tau over the dual of A."""
    _, L, _, _, duals = _space(A)
    roots = _roots(L)[0]
    return _from_dual(A, {pair: roots[b.value_exponent(*pair)[0]]
                          for pair in itertools.product(duals, repeat=2)}, 2)


def fourier(A: Subgroup, x: GTensor) -> dict:
    """Fourier table chi -> sum lambda_g chi(g^-1) on the dual of A."""
    if x.degree != 1 or not x.supported_in(A):
        raise NotSupported("tensor not supported in the subgroup")
    table = _char_table(A)
    # sum lambda_g chi(g^-1) is chi evaluated on the antipode of x
    hat = _transform(table, antipode(x).terms, 1)
    return {s: hat[(s,)] for s in table[1]}

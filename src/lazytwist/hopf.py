"""Group-algebra tensor calculus: twists, gauge action, R-matrices, socles.

A GTensor is a sparse element of k[G]^(tensor d) for d = 1, 2, 3 with
cyclotomic coefficients on tuples of element indices.  Inversion works
inside the subalgebra spanned by the subgroup generated by the support:
Fourier inversion when that subgroup is abelian, a dense linear solve
otherwise.

Every Fourier sum goes through one character-sum routine: character values
come from an integer exponent table, terms are added as exponent counts
over one root of unity, and each output value is normalized once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .cyclo import CycNum, lift, root_of_unity
from .groups import FiniteGroup, OrderLimitExceeded, Subgroup
from .pontryagin import (AltForm, Character, DualAction,
                         cocycle_identity_holds, is_nondegenerate)

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
    "tensor_mul",
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


class GTensor:
    """Sparse element of k[G]^(tensor degree); zero coefficients never stored."""

    __slots__ = ("group", "degree", "terms")

    def __init__(self, group: FiniteGroup, degree: int, terms: dict):
        self.group = group
        self.degree = degree
        clean = {}
        for tup, c in terms.items():
            if not isinstance(c, CycNum):
                c = CycNum.rational(c)
            if not c.is_zero():
                if len(tup) != degree:
                    raise DegreeMismatch(f"term {tup} in degree {degree}")
                clean[tuple(tup)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def unit(group: FiniteGroup, degree: int) -> "GTensor":
        return GTensor(group, degree, {(0,) * degree: CycNum.one()})

    @staticmethod
    def basis(group: FiniteGroup, tup) -> "GTensor":
        return GTensor(group, len(tup), {tuple(tup): CycNum.one()})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
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

    def sub(self, other: "GTensor") -> "GTensor":
        return self.add(other.scale(-1))

    def _check_compatible(self, other: "GTensor"):
        if self.group is not other.group:
            raise DegreeMismatch("tensors over different groups")
        if self.degree != other.degree:
            raise DegreeMismatch(
                f"degree {self.degree} vs {other.degree}")

    # -- multiplicative operations -----------------------------------------

    def mul(self, other: "GTensor") -> "GTensor":
        self._check_compatible(other)
        table = self.group.table
        out: dict = {}
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                t = tuple(table[a][b] for a, b in zip(t1, t2))
                v = out.get(t, CycNum.zero()) + c1 * c2
                if v.is_zero():
                    out.pop(t, None)
                else:
                    out[t] = v
        return GTensor(self.group, self.degree, out)

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


def tensor_mul(x: GTensor, y: GTensor) -> GTensor:
    return x.mul(y)


def _tuple_group(G: FiniteGroup, degree: int, tuples,
                 cap: int = _DENSE_SOLVE_CAP):
    """Subgroup of G^degree generated by the given tuples, with its table."""
    ident = (0,) * degree
    elems = {ident} | {tuple(t) for t in tuples}
    changed = True
    while changed:
        changed = False
        current = list(elems)
        for a in current:
            for b in current:
                c = tuple(G.table[x][y] for x, y in zip(a, b))
                if c not in elems:
                    elems.add(c)
                    changed = True
                    if len(elems) > cap:
                        raise OrderLimitExceeded(
                            f"support generates a subgroup beyond {cap} elements")
    order = sorted(elems)
    index = {t: i for i, t in enumerate(order)}
    table = [[index[tuple(G.table[x][y] for x, y in zip(a, b))] for b in order]
             for a in order]
    H = FiniteGroup(table, name=None)
    return H, order, index


def tensor_inv(x: GTensor) -> GTensor:
    """Inverse in k[G]^(tensor d), computed inside the span of the support."""
    if x.is_zero():
        raise NotInvertible("zero tensor")
    G = x.group
    H, order, index = _tuple_group(G, x.degree, x.terms.keys())
    coeffs = [CycNum.zero()] * len(order)
    for t, c in x.terms.items():
        coeffs[index[t]] = c
    if H.is_abelian():
        inv_coeffs = _fourier_invert(H, coeffs)
    else:
        inv_coeffs = _dense_invert(H, coeffs)
    if inv_coeffs is None:
        raise NotInvertible("singular element")
    terms = {order[i]: c for i, c in enumerate(inv_coeffs) if not c.is_zero()}
    return GTensor(G, x.degree, terms)


def _fourier_invert(H: FiniteGroup, coeffs):
    L, E = table = _char_table(H.whole_subgroup())
    hat = _evaluate({(a,): c for a, c in enumerate(coeffs) if not c.is_zero()},
                    table, [(s,) for s in E])
    if any(v.is_zero() for v in hat):
        return None
    M, raws = lift([v.inv() for v in hat], L)
    return [CycNum(M, _accumulate(((raw, -Es[a])
                                   for raw, Es in zip(raws, E.values())),
                                  L, M, Fraction(1, H.order)))
            for a in range(H.order)]


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
    total = CycNum.zero()
    for c in x.terms.values():
        total = total + c
    return total


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


def is_twist(F: GTensor) -> bool:
    if F.degree != 2:
        return False
    try:
        tensor_inv(F)
    except NotInvertible:
        return False
    return delta2_left(F) == delta2_right(F)


def is_invariant(F: GTensor) -> bool:
    """Commutes with Delta(g) for the group generators (hence for all g)."""
    return all(F.conjugate_diagonal(g) == F
               for g in F.group.generating_set())


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


def r_matrix(F: GTensor) -> GTensor:
    """R_F = F_21 F^-1 for an invariant twist; checks the braiding axioms."""
    if not is_invariant(F):
        raise NotInvariant("twist does not commute with coproducts")
    if not is_twist(F):
        raise NotATwist("not a twist")
    R = F.flip().mul(tensor_inv(F))
    if _coproduct_leg(R, 0) != R.embed((0, 2), 3).mul(R.embed((1, 2), 3)):
        raise ThetaContractViolated("R-matrix axiom (Delta x id) failed")
    if _coproduct_leg(R, 1) != R.embed((0, 2), 3).mul(R.embed((0, 1), 3)):
        raise ThetaContractViolated("R-matrix axiom (id x Delta) failed")
    return R


def drinfeld_element(R: GTensor) -> GTensor:
    """u_R = sum S(t_i) s_i over the terms s_i x t_i of R."""
    _check_degree(R, 2)
    G = R.group
    out: dict = {}
    for (s, t), c in R.terms.items():
        g = (G.table[G.inverses[t]][s],)
        v = out.get(g, CycNum.zero()) + c
        if v.is_zero():
            out.pop(g, None)
        else:
            out[g] = v
    return GTensor(G, 1, out)


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
    """Socle and braiding form of an invariant twist, contract-checked."""
    R = r_matrix(F)
    A = socle(R)
    if not A.is_normal():
        raise ThetaContractViolated("socle is not normal")
    if not A.is_abelian():
        raise ThetaContractViolated("socle is not abelian")
    b = form_from_r(A, R)
    if r_from_form(A, b) != R:
        raise ThetaContractViolated("R-matrix is not the bicharacter of a form")
    if not is_nondegenerate(b):
        raise ThetaContractViolated("braiding form degenerate on the socle")
    action = DualAction(A.parent, A)
    if not action.is_invariant_form(b):
        raise ThetaContractViolated("braiding form is not conjugation-invariant")
    return ThetaValue(A, b)


def form_from_r(A: Subgroup, R: GTensor) -> AltForm:
    """Read b(sigma, tau) = (sigma x tau)(R) off the dual generators."""
    if R.degree != 2 or not R.supported_in(A):
        raise NotSupported("tensor not supported in the subgroup square")
    basis = A.abelian_structure()
    r = len(basis)
    unit = [tuple(int(k == i) for k in range(r)) for i in range(r)]
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    values = _evaluate(R.terms, _char_table(A),
                       [(unit[i], unit[j]) for i, j in pairs])
    upper = {}
    for (i, j), v in zip(pairs, values):
        m = gcd(basis[i][1], basis[j][1])
        e = next((k for k in range(m) if root_of_unity(m, k) == v), None)
        if e is None:
            raise ThetaContractViolated(
                "pairing value is not a root of unity of the right order")
        upper[(i, j)] = e
    return AltForm.from_upper(A, upper)


# -- character sums, cocycle dictionary, Fourier ------------------------------


def _char_table(A: Subgroup):
    """(L, E) for the abelian subgroup A of exponent L: chi_s(a) =
    zeta_L^E[s][a] for every dual exponent tuple s (the keys of E, in
    lexicographic order) and every a in A."""
    ds = [d for _, d in A.abelian_structure()]
    E = {}
    for s in itertools.product(*(range(d) for d in ds)):
        chi = Character(A, s)
        E[s] = {a: chi.value_exponent(a)[0] for a in A.elements}
    return lcm(*ds), E


def _accumulate(terms, L: int, M: int, scale=1) -> dict:
    """scale * sum of raw * zeta_L^e over the (raw, e) pairs, for raw
    exponent dicts over zeta_M: integer exponent arithmetic, so a caller
    normalizes once per output value, through CycNum(M, result)."""
    t = M // L
    acc: dict = {}
    for raw, e in terms:
        for k, q in raw.items():
            k = (k + e * t) % M
            acc[k] = acc.get(k, 0) + q
    return {k: q * scale for k, q in acc.items() if q}


def _evaluate(terms: dict, table, at) -> list[CycNum]:
    """(chi_s1 x ... x chi_sd)(T) for T = sum of v * t over the terms
    {t: v}, at each tuple (s1, ..., sd) of dual exponent tuples in at."""
    L, E = table
    M, raws = lift(terms.values(), L)
    lifted = list(zip(raws, terms))
    return [CycNum(M, _accumulate(
        ((raw, sum(E[s][a] for s, a in zip(ss, t))) for raw, t in lifted),
        L, M)) for ss in at]


def _from_dual_square(A: Subgroup, table, c: dict, M: int) -> GTensor:
    """sum c(rho, sigma) e_rho x e_sigma over the dual of A, for c given as
    raw exponent dicts over zeta_M, in two one-dimensional stages."""
    L, E = table
    # stage[g][sigma] = sum_rho c(rho, sigma) rho(g^-1)
    stage = {g: {sigma: _accumulate(((c[(rho, sigma)], -E[rho][g])
                                     for rho in E), L, M)
                 for sigma in E}
             for g in A.elements}
    scale = Fraction(1, A.order * A.order)
    return GTensor(A.parent, 2, {
        (g, h): CycNum(M, _accumulate(((raw, -E[sigma][h])
                                       for sigma, raw in stage[g].items()),
                                      L, M, scale))
        for g in A.elements for h in A.elements})


def twist_from_cocycle(A: Subgroup, c: dict) -> GTensor:
    """F = sum c(rho, sigma) e_rho x e_sigma over the dual of A."""
    if not cocycle_identity_holds(A, c):
        raise NotACocycle("table fails normalization or the cocycle identity")
    table = _char_table(A)
    M, raws = lift(c.values(), table[0])
    return _from_dual_square(A, table, dict(zip(c, raws)), M)


def cocycle_from_twist(A: Subgroup, F: GTensor) -> dict:
    """c(rho, sigma) = (rho x sigma)(F) for a twist supported in k[A] x k[A]."""
    if F.degree != 2 or not F.supported_in(A):
        raise NotSupported("tensor not supported in the subgroup square")
    table = _char_table(A)
    pairs = list(itertools.product(table[1], repeat=2))
    return dict(zip(pairs, _evaluate(F.terms, table, pairs)))


def r_from_form(A: Subgroup, b: AltForm) -> GTensor:
    """R(A, b) = sum b(sigma, tau) e_sigma x e_tau, on integer counts of
    the exponents of the roots of unity b(sigma, tau)."""
    L, E = table = _char_table(A)
    c = {}
    for pair in itertools.product(E, repeat=2):
        t, LL = b.value_exponent(*pair)
        c[pair] = {t * (L // LL) % L: 1}
    return _from_dual_square(A, table, c, L)


def fourier(A: Subgroup, x: GTensor) -> dict:
    """Fourier table chi -> sum lambda_g chi(g^-1) on the dual of A."""
    if x.degree != 1 or not x.supported_in(A):
        raise NotSupported("tensor not supported in the subgroup")
    table = _char_table(A)
    # sum lambda_g chi(g^-1) is chi evaluated on the antipode of x
    return dict(zip(table[1], _evaluate(antipode(x).terms, table,
                                        [(s,) for s in table[1]])))

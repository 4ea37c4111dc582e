"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are stored in the power basis {zeta_n^e : 0 <= e < phi(n)} after
reduction modulo the n-th cyclotomic polynomial, with the conductor lowered
to the minimal one.  Two values represent the same field element iff their
stored forms are identical, so equality is syntactic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

__all__ = [
    "CycNum",
    "CyclotomicInconsistent",
    "DivisionByZero",
    "NotOddRoot",
    "cyc_arith",
    "cyc_inv",
    "root_of_unity",
    "sqrt_odd_root",
]


class DivisionByZero(ZeroDivisionError):
    pass


class NotOddRoot(ValueError):
    pass


class CyclotomicInconsistent(ArithmeticError):
    """An internal invariant of the normal form failed."""


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # exact division of integer polynomials, den monic
    num = list(num)
    deg_n, deg_d = len(num) - 1, len(den) - 1
    quot = [0] * (deg_n - deg_d + 1)
    for i in range(deg_n - deg_d, -1, -1):
        c = num[i + deg_d]
        quot[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num):
        raise CyclotomicInconsistent("non-exact polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficient tuple of the n-th cyclotomic polynomial (low degree first)."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n):
        if d < n:
            poly = _poly_div_exact(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi(n: int) -> int:
    return len(cyclotomic_poly(n)) - 1


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    # zeta_n^e as an integer vector on the reduced basis, for 0 <= e < 2n
    phi = _phi(n)
    mod = cyclotomic_poly(n)
    table = []
    for e in range(phi):
        row = [0] * phi
        row[e] = 1
        table.append(tuple(row))
    for e in range(phi, 2 * n):
        prev = table[e - 1]
        lead = prev[phi - 1]
        row = [0] + list(prev[:-1])
        if lead:
            for j in range(phi):
                row[j] -= lead * mod[j]
        table.append(tuple(row[:phi]))
    return tuple(table)


def _kernel_exponents(n: int, m: int) -> list[int]:
    # Galois substitutions zeta -> zeta^j fixing Q(zeta_m) inside Q(zeta_n)
    return [j for j in range(2, n + 1) if gcd(j, n) == 1 and j % m == 1 % m]


@lru_cache(maxsize=None)
def _subfield_basis(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    # reduced vectors of zeta_n^((n/m)*i) for i < phi(m)
    t = n // m
    table = _power_table(n)
    return tuple(table[(t * i) % n] for i in range(_phi(m)))


def _apply_substitution(n: int, coeffs: dict[int, Fraction], j: int) -> dict[int, Fraction]:
    table = _power_table(n)
    out: dict[int, Fraction] = {}
    for e, q in coeffs.items():
        for k, c in enumerate(table[(j * e) % n]):
            if c:
                v = out.get(k, Fraction(0)) + q * c
                if v:
                    out[k] = v
                elif k in out:
                    del out[k]
    return out


def _rewrite_to_subfield(n: int, m: int, coeffs: dict[int, Fraction]) -> dict[int, Fraction]:
    # solve for coordinates of x on the Q(zeta_m) power basis inside Q(zeta_n)
    basis = _subfield_basis(n, m)
    phi_n, phi_m = _phi(n), _phi(m)
    rows = [[Fraction(basis[i][r]) for i in range(phi_m)] + [coeffs.get(r, Fraction(0))]
            for r in range(phi_n)]
    sol: dict[int, Fraction] = {}
    r = 0
    pivots = []
    for col in range(phi_m):
        pr = None
        for i in range(r, phi_n):
            if rows[i][col]:
                pr = i
                break
        if pr is None:
            raise CyclotomicInconsistent("subfield rewrite lost rank")
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][col]
        rows[r] = [c / pv for c in rows[r]]
        for i in range(phi_n):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append((r, col))
        r += 1
    for rr in range(r, phi_n):
        if rows[rr][phi_m]:
            raise CyclotomicInconsistent("element not in claimed subfield")
    for rr, cc in pivots:
        v = rows[rr][phi_m]
        if v:
            sol[cc] = v
    return sol


def _normalize(n: int, raw: dict[int, Fraction]) -> tuple[int, dict[int, Fraction]]:
    # fold exponents through the reduction table, then lower the conductor
    table = _power_table(n)
    phi = _phi(n)
    dense = [Fraction(0)] * phi
    for e, q in raw.items():
        if not q:
            continue
        for k, c in enumerate(table[e % n]):
            if c:
                dense[k] += q * c
    coeffs = {e: q for e, q in enumerate(dense) if q}
    if not coeffs:
        return 1, {}
    changed = True
    while changed and n > 1:
        changed = False
        for p in _prime_factors(n):
            m = n // p
            if all(_apply_substitution(n, coeffs, j) == coeffs
                   for j in _kernel_exponents(n, m)):
                coeffs = _rewrite_to_subfield(n, m, coeffs)
                n = m
                changed = True
                break
    return n, coeffs


class CycNum:
    """An element of some cyclotomic field, kept in canonical normal form."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: dict[int, Fraction], *, _normalized: bool = False):
        if not _normalized:
            n, coeffs = _normalize(n, {e: Fraction(q) for e, q in coeffs.items()})
        self.n = n
        self.coeffs = coeffs

    @staticmethod
    def rational(q) -> CycNum:
        q = Fraction(q)
        return CycNum(1, {0: q} if q else {}, _normalized=True)

    @staticmethod
    def zero() -> CycNum:
        return CycNum.rational(0)

    @staticmethod
    def one() -> CycNum:
        return CycNum.rational(1)

    @staticmethod
    def zeta(n: int, e: int = 1) -> CycNum:
        if n < 1:
            raise ValueError("conductor must be positive")
        return CycNum(n, {e % n: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.n == 1 and self.coeffs.get(0) == 1

    def is_rational(self) -> bool:
        return self.n == 1

    def as_rational(self) -> Fraction:
        if self.n != 1:
            raise ValueError("not a rational number")
        return self.coeffs.get(0, Fraction(0))

    def _lift(self, L: int) -> dict[int, Fraction]:
        # embed into Q(zeta_L) without final conductor descent
        if L == self.n:
            return dict(self.coeffs)
        t = L // self.n
        table = _power_table(L)
        dense: dict[int, Fraction] = {}
        for e, q in self.coeffs.items():
            for k, c in enumerate(table[(e * t) % L]):
                if c:
                    v = dense.get(k, Fraction(0)) + q * c
                    if v:
                        dense[k] = v
                    elif k in dense:
                        del dense[k]
        return dense

    def __add__(self, other) -> CycNum:
        other = _coerce(other)
        L = self.n * other.n // gcd(self.n, other.n)
        a = self._lift(L)
        for e, q in other._lift(L).items():
            v = a.get(e, Fraction(0)) + q
            if v:
                a[e] = v
            elif e in a:
                del a[e]
        return CycNum(*_normalize(L, a), _normalized=True)

    __radd__ = __add__

    def __neg__(self) -> CycNum:
        return CycNum(self.n, {e: -q for e, q in self.coeffs.items()}, _normalized=True)

    def __sub__(self, other) -> CycNum:
        return self + (-_coerce(other))

    def __rsub__(self, other) -> CycNum:
        return _coerce(other) + (-self)

    def __mul__(self, other) -> CycNum:
        other = _coerce(other)
        if self.n == 1 or other.n == 1:
            if self.n == 1:
                scalar, big = self.coeffs.get(0, Fraction(0)), other
            else:
                scalar, big = other.coeffs.get(0, Fraction(0)), self
            if not scalar:
                return CycNum.zero()
            return CycNum(big.n, {e: q * scalar for e, q in big.coeffs.items()},
                          _normalized=True)
        L = self.n * other.n // gcd(self.n, other.n)
        a, b = self._lift(L), other._lift(L)
        conv: dict[int, Fraction] = {}
        for e1, q1 in a.items():
            for e2, q2 in b.items():
                e = e1 + e2
                v = conv.get(e, Fraction(0)) + q1 * q2
                if v:
                    conv[e] = v
                elif e in conv:
                    del conv[e]
        return CycNum(*_normalize(L, conv), _normalized=True)

    __rmul__ = __mul__

    def inv(self) -> CycNum:
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.n == 1:
            return CycNum.rational(1 / self.coeffs[0])
        phi = _phi(self.n)
        mod = [Fraction(c) for c in cyclotomic_poly(self.n)]
        a = [self.coeffs.get(e, Fraction(0)) for e in range(phi)]
        # extended Euclid: u*a + v*mod = g, g a nonzero constant
        r0, r1 = mod, a
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while _poly_deg(r1) > 0:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if _poly_deg(r1) != 0 or not r1[0]:
            raise CyclotomicInconsistent("cyclotomic polynomial not coprime")
        g = r1[0]
        u = {e: c / g for e, c in enumerate(s1) if c}
        return CycNum(self.n, u)

    def __truediv__(self, other) -> CycNum:
        return self * _coerce(other).inv()

    def __rtruediv__(self, other) -> CycNum:
        return _coerce(other) * self.inv()

    def __pow__(self, k: int) -> CycNum:
        if k < 0:
            return self.inv() ** (-k)
        acc = CycNum.one()
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base if k > 1 else base
            k >>= 1
        return acc

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycNum.rational(other)
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self.coeffs.items()))))

    def key(self):
        return (self.n, tuple(sorted(self.coeffs.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            q = self.coeffs[e]
            if e == 0:
                parts.append(str(q))
            elif e == 1:
                parts.append(f"{q}*z{self.n}")
            else:
                parts.append(f"{q}*z{self.n}^{e}")
        return " + ".join(parts)

    def to_json(self):
        return {"n": self.n,
                "terms": [[e, str(self.coeffs[e])] for e in sorted(self.coeffs)]}

    @staticmethod
    def from_json(obj) -> CycNum:
        n = int(obj["n"])
        if n < 1:
            raise ValueError("conductor must be positive")
        return CycNum(n,
                      {int(e): Fraction(s) for e, s in obj["terms"]})


def _coerce(x) -> CycNum:
    if isinstance(x, CycNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycNum.rational(x)
    raise TypeError(f"cannot coerce {type(x)!r} into a cyclotomic number")


def _poly_deg(p: list[Fraction]) -> int:
    d = len(p) - 1
    while d > 0 and not p[d]:
        d -= 1
    return d


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    dd = _poly_deg(den)
    dn = _poly_deg(num)
    lead = den[dd]
    quot = [Fraction(0)] * max(dn - dd + 1, 1)
    for i in range(dn - dd, -1, -1):
        c = num[i + dd] / lead
        quot[i] = c
        if c:
            for j in range(dd + 1):
                num[i + j] -= c * den[j]
    rem = num[:dd] if dd else [Fraction(0)]
    if not rem:
        rem = [Fraction(0)]
    return quot, rem[: max(_poly_deg(rem) + 1, 1)]


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out


def cyc_arith(x: CycNum, y: CycNum, op: str) -> CycNum:
    """Exact field arithmetic after embedding both operands into Q(zeta_lcm)."""
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    raise ValueError(f"unknown operation {op!r}")


def cyc_inv(x: CycNum) -> CycNum:
    return x.inv()


def root_of_unity(n: int, e: int) -> CycNum:
    """zeta_n^(e mod n) in normal form."""
    if n < 1:
        raise ValueError("order must be positive")
    return CycNum.zeta(n, e)


def sqrt_odd_root(x: CycNum, m: int) -> CycNum:
    """The unique square root of x among roots of unity of odd order m.

    Concretely x^((m+1)/2); requires x^m = 1.
    """
    if m < 1 or m % 2 == 0:
        raise NotOddRoot(f"{m} is not an odd positive integer")
    if x ** m != CycNum.one():
        raise NotOddRoot("not a root of unity of order dividing m")
    return x ** ((m + 1) // 2)

"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are stored in the power basis {zeta_n^e : 0 <= e < phi(n)} after
reduction modulo the n-th cyclotomic polynomial, with the conductor lowered
to the minimal one.  Two values represent the same field element iff their
stored forms are identical, so equality is syntactic.

The conductor is lowered one prime p at a time, from Q(zeta_n) to
Q(zeta_m), m = n/p, by reading the exponents (Washington, Introduction to
Cyclotomic Fields, ch. 2).  When p^2 divides n, 1, zeta_n, ..., zeta_n^(p-1)
is a basis of Q(zeta_n) over Q(zeta_m), so the value descends iff every
exponent is a multiple of p.  When p divides n once, zeta_n^e =
zeta_m^(e*t) zeta_p^(e*s) splits the value over the basis zeta_p, ...,
zeta_p^(p-1) of Q(zeta_n) over Q(zeta_m), and it descends iff its
coordinates there are all equal.  Values are lifted to a common conductor
by scaling exponents; the normal form folds them.  A sum built from integer
exponent counts over one common denominator (`from_counts`) is normalized
on the integers and divided by the denominator once.  The inverse is the
product of the other Galois conjugates over the norm, a non-zero rational.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

__all__ = [
    "CycNum",
    "CyclotomicInconsistent",
    "DivisionByZero",
    "MalformedNumber",
    "from_counts",
    "lift",
    "root_of_unity",
]


class DivisionByZero(ZeroDivisionError):
    pass


class MalformedNumber(ValueError):
    pass


class CyclotomicInconsistent(ArithmeticError):
    """An internal invariant of the normal form failed."""


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
    for d in range(1, n):
        if n % d == 0:
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


def _fold(n: int, raw: dict) -> dict[int, Fraction]:
    # coordinates of sum q * zeta_n^e over raw {e: q} on the reduced basis
    table = _power_table(n)
    out: dict[int, Fraction] = {}
    for e, q in raw.items():
        for k, c in enumerate(table[e % n]):
            if c:
                v = q if c == 1 else q * c
                out[k] = out[k] + v if k in out else v
    return {k: q for k, q in out.items() if q}


def _descend(n: int, p: int, coeffs: dict[int, Fraction]):
    """Coordinates in Q(zeta_m), m = n/p, of the element of Q(zeta_n) with
    reduced coordinates coeffs, or None when it does not lie in Q(zeta_m)."""
    m = n // p
    if m % p == 0:
        # Phi_n(x) = Phi_m(x^p): 1, zeta_n, ..., zeta_n^(p-1) is a basis
        # over Q(zeta_m), and zeta_n^(p*i) = zeta_m^i
        if any(e % p for e in coeffs):
            return None
        return {e // p: q for e, q in coeffs.items()}
    # zeta_n^e = zeta_m^(e*t) zeta_p^(e*s) (t = 0 when m = 1), a bijection
    # of exponents mod n onto pairs, so x = sum_j b_j zeta_p^j with b_j in
    # Q(zeta_m).  In the basis zeta_p, ..., zeta_p^(p-1) of Q(zeta_n) over
    # Q(zeta_m), 1 = -(zeta_p + ... + zeta_p^(p-1)), so x has coordinates
    # a_j = b_j - b_0: it descends iff b_1 = ... = b_(p-1), to b_0 - b_1.
    s, t = pow(m, -1, p), pow(p, -1, m)
    parts: list[dict] = [{} for _ in range(p)]
    for e, q in coeffs.items():
        parts[e * s % p][e * t % m] = q
    b = [_fold(m, part) for part in parts]
    if any(bj != b[1] for bj in b[2:]):
        return None
    out = dict(b[0])
    for k, q in b[1].items():
        out[k] = out[k] - q if k in out else -q
    return {k: q for k, q in out.items() if q}


def _normalize(n: int, raw: dict[int, Fraction]) -> tuple[int, dict[int, Fraction]]:
    # fold exponents through the reduction table, then lower the conductor
    coeffs = _fold(n, raw)
    if not coeffs:
        return 1, {}
    while True:
        for p in _prime_factors(n):
            down = _descend(n, p, coeffs)
            if down is not None:
                n, coeffs = n // p, down
                break
        else:
            return n, coeffs


def lift(values, L: int = 1) -> tuple[int, list[dict[int, Fraction]]]:
    """(M, raws): M the lcm of L and the conductors of the values, and each
    value as a raw exponent dict {e: q} over zeta_M, unfolded (the normal
    form folds raw exponents)."""
    M = lcm(L, *(v.n for v in values))
    return M, [{e * (M // v.n): q for e, q in v.coeffs.items()}
               for v in values]


def from_counts(n: int, counts: dict[int, int], d: int = 1) -> "CycNum":
    """sum q * zeta_n^e over the integer counts {e: q}, divided by d: the
    normal form is computed on the integers and divided by d once."""
    n, coeffs = _normalize(n, counts)
    return CycNum(n, {e: Fraction(q, d) for e, q in coeffs.items()},
                  _normalized=True)


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

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other) -> CycNum:
        L, (a, b) = lift((self, _coerce(other)))
        for e, q in b.items():
            a[e] = a[e] + q if e in a else q
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
        L, (a, b) = lift((self, other))
        conv: dict[int, Fraction] = {}
        for e1, q1 in a.items():
            for e2, q2 in b.items():
                e, v = (e1 + e2) % L, q1 * q2
                conv[e] = conv[e] + v if e in conv else v
        return CycNum(*_normalize(L, conv), _normalized=True)

    __rmul__ = __mul__

    def inv(self) -> CycNum:
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.n == 1:
            return CycNum.rational(1 / self.coeffs[0])
        # x times its other Galois conjugates zeta -> zeta^k, k in (Z/n)^*,
        # is the norm of x, a non-zero rational
        others = CycNum.one()
        for k in range(2, self.n):
            if gcd(k, self.n) == 1:
                others = others * CycNum(self.n, {e * k % self.n: q for e, q
                                                  in self.coeffs.items()})
        norm = self * others
        if norm.n != 1 or norm.is_zero():
            raise CyclotomicInconsistent("norm is not a non-zero rational")
        return others * (1 / norm.coeffs[0])

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
        # the tensor code compares CycNums: that test comes before the
        # instance check against Fraction's ABC, which costs far more
        if type(other) is not CycNum:
            if isinstance(other, (int, Fraction)):
                other = CycNum.rational(other)
            elif not isinstance(other, CycNum):
                return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.key())

    def key(self):
        """(n, ((e, numerator, denominator), ...)) in increasing e: equal
        values have equal keys, and hashing one hashes only integers."""
        return (self.n, tuple((e, q.numerator, q.denominator)
                              for e, q in sorted(self.coeffs.items())))

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
        """Read {"n": n, "terms": [[e, "p/q"], ...]}: an integer conductor
        n >= 1 and integer exponents, each listed once."""
        if not isinstance(obj, dict):
            raise MalformedNumber(
                f"{obj!r} is not an object with 'n' and 'terms'")
        n, terms = obj.get("n"), obj.get("terms")
        if type(n) is not int or n < 1:
            raise MalformedNumber(f"conductor {n!r} is not a positive integer")
        if not isinstance(terms, list):
            raise MalformedNumber(f"terms {terms!r} is not a list")
        coeffs = {}
        for term in terms:
            if not (isinstance(term, list) and len(term) == 2
                    and type(term[0]) is int and isinstance(term[1], str)):
                raise MalformedNumber(
                    f"term {term!r} is not an [integer, rational string] pair")
            e, s = term
            if e in coeffs:
                raise MalformedNumber(f"exponent {e} is listed twice")
            try:
                coeffs[e] = Fraction(s)
            except (ValueError, ZeroDivisionError):
                raise MalformedNumber(f"coefficient {s!r} is not a rational")
        return CycNum(n, coeffs)


def _coerce(x) -> CycNum:
    if isinstance(x, CycNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycNum.rational(x)
    raise TypeError(f"cannot coerce {type(x)!r} into a cyclotomic number")


def root_of_unity(n: int, e: int) -> CycNum:
    """zeta_n^(e mod n) in normal form."""
    if n < 1:
        raise ValueError("order must be positive")
    return CycNum(n, {e % n: Fraction(1)})

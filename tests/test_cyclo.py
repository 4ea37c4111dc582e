import random
from fractions import Fraction

import pytest

from lazytwist import cyclo
from lazytwist.cyclo import (
    CycNum,
    CyclotomicInconsistent,
    DivisionByZero,
    NotOddRoot,
    cyc_arith,
    cyc_inv,
    root_of_unity,
    sqrt_odd_root,
)


def test_arith_examples():
    z4 = root_of_unity(4, 1)
    assert cyc_arith(z4, z4, "mul") == CycNum.rational(-1)
    z8 = root_of_unity(8, 1)
    s2 = z8 + z8 ** 7
    assert cyc_arith(s2, s2, "mul") == CycNum.rational(2)
    z3 = root_of_unity(3, 1)
    assert cyc_arith(z3, z3 ** 2, "add") == CycNum.rational(-1)
    assert cyc_arith(CycNum.rational(1), z3, "sub") == CycNum.one() - z3
    with pytest.raises(ValueError):
        cyc_arith(z3, z3, "div")


def test_inverse_examples():
    assert cyc_inv(CycNum.rational(2)) == CycNum.rational(Fraction(1, 2))
    z8 = root_of_unity(8, 1)
    assert cyc_inv(z8) == z8 ** 7
    z4 = root_of_unity(4, 1)
    x = CycNum.one() + z4
    assert x * cyc_inv(x) == CycNum.one()
    assert cyc_inv(x) == (CycNum.one() - z4) * Fraction(1, 2)


def test_inverse_of_zero():
    with pytest.raises(DivisionByZero):
        cyc_inv(CycNum.zero())


def test_root_of_unity_examples():
    assert root_of_unity(1, 0) == CycNum.one()
    assert root_of_unity(2, 1) == CycNum.rational(-1)
    assert root_of_unity(6, 3) == CycNum.rational(-1)


def test_sqrt_odd_root_examples():
    z3 = root_of_unity(3, 1)
    assert sqrt_odd_root(z3, 3) == z3 ** 2
    assert sqrt_odd_root(CycNum.one(), 5) == CycNum.one()
    z9 = root_of_unity(9, 1)
    y = sqrt_odd_root(z9 ** 4, 9)
    assert y == z9 ** 2
    assert y * y == z9 ** 4


def test_sqrt_odd_root_rejects():
    with pytest.raises(NotOddRoot):
        sqrt_odd_root(root_of_unity(4, 1), 3)
    with pytest.raises(NotOddRoot):
        sqrt_odd_root(CycNum.one(), 4)


def test_sqrt_odd_root_exhaustive():
    for m in range(1, 16, 2):
        for e in range(m):
            x = root_of_unity(m, e)
            y = sqrt_odd_root(x, m)
            assert y * y == x
            assert y ** m == CycNum.one()


def _random_value(rng):
    n = rng.choice([1, 2, 3, 4, 5, 6, 8, 12, 15, 16, 24])
    out = CycNum.zero()
    for _ in range(rng.randrange(4)):
        q = Fraction(rng.randrange(-4, 5), rng.randrange(1, 5))
        out = out + root_of_unity(n, rng.randrange(n)) * q
    return out


def test_field_axioms_random():
    rng = random.Random(7)
    for _ in range(60):
        x, y, z = (_random_value(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
        if not x.is_zero():
            assert x * x.inv() == CycNum.one()


def test_normal_form_canonical():
    rng = random.Random(11)
    for _ in range(60):
        x = _random_value(rng)
        y = _random_value(rng)
        s = x + y
        again = y + x
        assert s.key() == again.key()
        d = s - x - y
        assert d.is_zero() and d.key() == CycNum.zero().key()


def test_conductor_embedding_independence():
    # the same element reached through different common conductors
    z3 = root_of_unity(3, 1)
    via6 = root_of_unity(6, 2)
    via12 = root_of_unity(12, 4)
    assert z3 == via6 == via12
    assert z3.n == 3
    # arithmetic across conductors lowers back down
    z8 = root_of_unity(8, 1)
    v = (z8 * z3) * (z8 ** 7 * z3 ** 2)
    assert v == CycNum.one() and v.n == 1


def test_minimal_conductor():
    assert root_of_unity(2, 1).n == 1
    assert root_of_unity(6, 1).n == 3
    assert (root_of_unity(8, 1) ** 2).n == 4
    s2 = root_of_unity(8, 1) + root_of_unity(8, 7)
    assert s2.n == 8  # sqrt(2) genuinely needs conductor 8


def test_json_roundtrip():
    z8 = root_of_unity(8, 1)
    x = z8 * Fraction(3, 7) + CycNum.rational(Fraction(-1, 2))
    assert CycNum.from_json(x.to_json()) == x
    assert x.to_json()["terms"] == sorted(x.to_json()["terms"])
    for n in (0, -3):
        with pytest.raises(ValueError):
            CycNum.from_json({"n": n, "terms": [[0, "1"]]})


def test_internal_checks_raise(monkeypatch):
    # the normal-form invariants are checked without assert (python -O)
    with pytest.raises(CyclotomicInconsistent, match="non-exact"):
        # z^2 + 1 = (z + 1)(z - 1) + 2
        cyclo._poly_div_exact([1, 0, 1], [1, 1])
    with pytest.raises(CyclotomicInconsistent, match="not in claimed"):
        cyclo._rewrite_to_subfield(4, 2, {1: Fraction(1)})  # i is not rational
    with pytest.raises(CyclotomicInconsistent, match="lost rank"):
        # Q(zeta_3) is not a subfield of Q(zeta_2) = Q
        cyclo._rewrite_to_subfield(2, 3, {0: Fraction(1)})
    x = CycNum(3, {0: Fraction(1), 1: Fraction(1)}, _normalized=True)
    monkeypatch.setattr(cyclo, "cyclotomic_poly", lambda n: (1, 2, 1))
    with pytest.raises(CyclotomicInconsistent, match="not coprime"):
        x.inv()  # 1 + z divides the substituted modulus (1 + z)^2

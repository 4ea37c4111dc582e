import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lazytwist import cyclo
from lazytwist.cyclo import (
    CycNum,
    CyclotomicInconsistent,
    DivisionByZero,
    MalformedNumber,
    root_of_unity,
)
from tests_helpers import galois_normalize


def test_arith_examples():
    z4 = root_of_unity(4, 1)
    assert z4 * z4 == CycNum.rational(-1)
    z8 = root_of_unity(8, 1)
    s2 = z8 + z8 ** 7
    assert s2 * s2 == CycNum.rational(2)
    z3 = root_of_unity(3, 1)
    assert z3 + z3 ** 2 == CycNum.rational(-1)
    assert CycNum.rational(1) - z3 == CycNum.one() - z3
    assert 1 - z3 == -(z3 - 1)


def test_inverse_examples():
    assert CycNum.rational(2).inv() == CycNum.rational(Fraction(1, 2))
    z8 = root_of_unity(8, 1)
    assert z8.inv() == z8 ** 7
    z4 = root_of_unity(4, 1)
    x = CycNum.one() + z4
    assert x * x.inv() == CycNum.one()
    assert x.inv() == (CycNum.one() - z4) * Fraction(1, 2)
    assert 1 / x == x.inv() and z8 / x == z8 * x.inv()


def test_inverse_of_zero():
    with pytest.raises(DivisionByZero):
        CycNum.zero().inv()


def test_root_of_unity_examples():
    assert root_of_unity(1, 0) == CycNum.one()
    assert root_of_unity(2, 1) == CycNum.rational(-1)
    assert root_of_unity(6, 3) == CycNum.rational(-1)
    assert root_of_unity(5, 1) == root_of_unity(5, 6)
    for n in (0, -2):
        with pytest.raises(ValueError):
            root_of_unity(n, 1)


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
    assert CycNum.from_json({"n": 4, "terms": [[-1, "2"]]}) == \
        root_of_unity(4, 3) * 2
    malformed = [
        {"n": 0, "terms": [[0, "1"]]},
        {"n": -3, "terms": [[0, "1"]]},
        {"n": None, "terms": [[0, "1"]]},
        {"n": "3", "terms": [[0, "1"]]},
        {"n": True, "terms": [[0, "1"]]},
        {"terms": [[0, "1"]]},
        {"n": 3, "terms": 5},
        {"n": 3},
        {"n": 3, "terms": [[0, None]]},
        {"n": 3, "terms": [[0, 1]]},
        {"n": 3, "terms": [[0, "1/0"]]},
        {"n": 3, "terms": [[0, "one"]]},
        {"n": 3, "terms": [[0.5, "1"]]},
        {"n": 3, "terms": [[0, "1", 2]]},
        {"n": 3, "terms": [5]},
        {"n": 3, "terms": [[1, "1"], [1, "2"]]},
        [3, [[0, "1"]]],
        None,
    ]
    for obj in malformed:
        with pytest.raises(MalformedNumber):
            CycNum.from_json(obj)
    assert issubclass(MalformedNumber, ValueError)


def test_internal_checks_raise(monkeypatch):
    # the normal-form invariants are checked without assert (python -O)
    with pytest.raises(CyclotomicInconsistent, match="non-exact"):
        # z^2 + 1 = (z + 1)(z - 1) + 2
        cyclo._poly_div_exact([1, 0, 1], [1, 1])
    x = CycNum(3, {0: Fraction(1), 1: Fraction(1)}, _normalized=True)
    monkeypatch.setattr(cyclo, "cyclotomic_poly", lambda n: (1, 2, 1))
    with pytest.raises(CyclotomicInconsistent, match="not coprime"):
        x.inv()  # 1 + z divides the substituted modulus (1 + z)^2


# -- the normal form against Galois-fixed tests and a subfield solve ----------

CONDUCTORS = list(range(1, 61)) + [72, 84, 90, 108, 120, 180, 210]


@st.composite
def subfield_sums(draw, n):
    """A raw exponent dict {e: q} over zeta_n: terms from one or two
    subfields Q(zeta_d), d | n, written at conductor n, with exponents up
    to 2n so that folding modulo n is exercised."""
    raw = {}
    for d in draw(st.lists(st.sampled_from(
            [d for d in range(1, n + 1) if n % d == 0]),
            min_size=1, max_size=2)):
        for e, q in draw(st.lists(st.tuples(
                st.integers(0, 2 * d - 1),
                st.fractions(-3, 3, max_denominator=4)), max_size=6)):
            raw[e * (n // d)] = raw.get(e * (n // d), 0) + q
    return raw


@pytest.mark.parametrize("n", CONDUCTORS)
def test_normal_form_matches_galois_oracle(n):
    # zero, a rational spread over the exponents 0 and n, a value of the
    # whole field, and zeta_d plus a rational for every divisor d > 1
    cases = [{}, {0: Fraction(0)}, {0: 3, n: Fraction(-1, 2)},
             {0: 1, 1: 1, n - 1: -1}]
    cases += [{n // d: 1, 0: Fraction(2, 3)} for d in range(2, n + 1)
              if n % d == 0]
    for raw in cases:
        assert cyclo._normalize(n, dict(raw)) == galois_normalize(n, raw)

    @settings(max_examples=25, deadline=None, database=None,
              derandomize=True)
    @given(subfield_sums(n))
    def check(raw):
        assert cyclo._normalize(n, dict(raw)) == galois_normalize(n, raw)

    check()

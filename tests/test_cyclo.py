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


def test_keys_are_integers_equal_exactly_for_equal_values():
    # one value by several routes: from_counts with a divisor, rational,
    # products of roots of unity; its key holds integers only
    half_z3 = [
        cyclo.from_counts(6, {2: 3}, 6),              # 3 zeta_6^2 / 6
        cyclo.from_counts(3, {0: 1, 1: 2, 2: 1}, 2),  # 1 + z + z^2 = 0
        root_of_unity(4, 1) * root_of_unity(12, 1) * Fraction(1, 2),
        CycNum.rational(Fraction(1, 2)) * root_of_unity(12, 4),
    ]
    half = [cyclo.from_counts(3, {0: 2, 1: 1, 2: 1}, 2),
            CycNum.rational(Fraction(1, 2)),
            CycNum.rational(Fraction(2, 4)),
            root_of_unity(4, 1) * root_of_unity(4, 3) / 2]
    for same in (half_z3, half):
        assert len({id(v) for v in same}) == len(same)
        keys = {v.key() for v in same}
        assert len(keys) == 1
        assert len({hash(v) for v in same}) == 1
        n, terms = keys.pop()
        assert type(n) is int and all(
            type(x) is int for term in terms for x in term)
    assert half_z3[0].key() == (3, ((1, 1, 2),))
    # unequal values, also with the same coefficients in other places
    # (1/2 against 2, zeta_3 / 2 against zeta_3^2 / 2), differ in key
    rng = random.Random(25)
    values = [half[0], half_z3[0], CycNum.rational(2),
              root_of_unity(3, 2) * Fraction(1, 2), CycNum.zero(),
              root_of_unity(6, 1) * Fraction(1, 2)] + [
        _random_value(rng) for _ in range(80)]
    for x in values:
        for y in values:
            assert (x.key() == y.key()) == (x == y)
    assert len({v.key() for v in values}) > 40


def test_equality_with_rationals_and_foreign_types():
    # ints and Fractions compare as the rationals they are, either side of
    # ==; other types are left to the other operand
    half, z3 = CycNum.rational(Fraction(1, 2)), root_of_unity(3, 1)
    assert CycNum.rational(3) == 3 and 3 == CycNum.rational(3)
    assert half == Fraction(1, 2) and Fraction(2, 4) == half
    assert CycNum.one() == True and CycNum.zero() == 0  # noqa: E712
    assert z3 != 1 and 1 != z3 and half != 2 and half != Fraction(1, 3)
    for other in ("1", 1.0, 0.5, None, [1], (1, {0: 1})):
        assert CycNum.one().__eq__(other) is NotImplemented
        assert half.__eq__(other) is NotImplemented
        assert (CycNum.one() == other) is False
        assert (CycNum.one() != other) is True
    # equal values hash alike, whatever route built them
    values = [half, cyclo.from_counts(3, {0: 2, 1: 1, 2: 1}, 2),
              root_of_unity(4, 1) * root_of_unity(4, 3) / 2, z3,
              root_of_unity(6, 2), root_of_unity(3, 4), z3 * z3 * z3,
              CycNum.one(), CycNum.rational(Fraction(3, 3))]
    for x in values:
        for y in values:
            assert (x == y) == (y == x) == (x.key() == y.key())
            if x == y:
                assert hash(x) == hash(y)
    # three values, each reached three ways
    assert sum(x == y for x in values for y in values) == 3 * 3 ** 2


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
    # the inverse divides by the norm, the product of the Galois conjugates
    # zeta -> zeta^k over k coprime to n; a wrong set of k gives a norm that
    # is not a non-zero rational: (1 + z8)(1 + z8^3) = z8 + z8^3 = i sqrt 2
    # for k = 3 alone, and 0 once k = 4 (1 + z8^4 = 0) is taken
    x = CycNum(8, {0: Fraction(1), 1: Fraction(1)})
    for fake_gcd in (lambda k, n: 1 if k == 3 else 2, lambda k, n: 1):
        monkeypatch.setattr(cyclo, "gcd", fake_gcd)
        with pytest.raises(CyclotomicInconsistent,
                           match="norm is not a non-zero rational"):
            x.inv()


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

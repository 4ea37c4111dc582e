"""Acceptance gate: one test per criterion, each printing a PASS line.

Criteria with stated runtime budgets assert wall time; all numeric checks
are exact (no tolerances anywhere).
"""

import json
import time

from lazytwist.cyclo import CycNum
from lazytwist.groups import normal_abelian_subgroups
from lazytwist.fixtures import builtin_group, wall_named_elements
from lazytwist.hopf import GTensor, delta1, drinfeld_element, r_matrix, theta
from lazytwist.cli import main, packaged_tensor
from lazytwist.lazy import bg_enumerate, has_no_multiplicities
from tests_helpers import characters


def _cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_criterion_1_a4(capsys):
    start = time.monotonic()
    flags = _cli_json(capsys, "twist-verify", "A4", "A4_twist")
    assert flags == {"twist": True, "invariant": True, "normalized": True}

    A4 = builtin_group("A4")
    F = packaged_tensor("A4_twist", A4)
    value = theta(F)
    V = next(s for s in normal_abelian_subgroups(A4) if s.order == 4)
    assert value.socle == V
    e1 = A4.label_index("(1 2)(3 4)")
    e2 = A4.label_index("(1 3)(2 4)")
    chars = characters(V)
    h1 = next(c for c in chars if set(c.kernel()) == {0, e1})
    h2 = next(c for c in chars if set(c.kernel()) == {0, e2})
    assert value.form.eval(h1.exponents, h2.exponents) == CycNum.rational(-1)

    rep = _cli_json(capsys, "h2", "A4")
    assert rep["exact_order"] == 2 and rep["status"] == "exact"
    elapsed = time.monotonic() - start
    assert elapsed < 30
    print(f"PASS criterion 1: A4 twist verified, socle-form correct, "
          f"exact order 2 ({elapsed:.1f}s)")


def test_criterion_2_wall(capsys):
    start = time.monotonic()
    W = builtin_group("Wall32")
    a = packaged_tensor("Wall_a", W)
    assert a.mul(a) == GTensor.unit(W, 1)

    ne = wall_named_elements(W)
    u = ne["u"]

    def alpha(x):
        # alpha(u^k s^i t^j) = u^(k+4(i+j)) s^i t^j; read i, j off the label
        label = W.labels[x]
        shift = ("s" in label) + ("t" in label)
        out = x
        for _ in range(4 * shift % 8):
            out = W.table[u][out]
        return out

    for x in range(W.order):
        lhs = a.mul(GTensor.basis(W, (x,)))
        rhs = GTensor.basis(W, (alpha(x),)).mul(a)
        assert lhs == rhs

    F = packaged_tensor("Wall_F", W)
    assert delta1(a) == F

    rep = _cli_json(capsys, "h2", "Wall32")
    assert rep["int_mod_inn"] == 2
    assert rep["bg_size"] == 2
    assert rep["order_bounds"] == [2, 4]
    assert rep["status"] == "undetermined"
    elapsed = time.monotonic() - start
    assert elapsed < 600
    print(f"PASS criterion 2: Wall element verified, delta1(a) matches the "
          f"shipped tensor, verdict undetermined in [2,4] ({elapsed:.1f}s)")


def test_criterion_3_d8(capsys):
    start = time.monotonic()
    D8 = builtin_group("D8")
    assert len(bg_enumerate(D8)) == 3
    assert has_no_multiplicities(D8)
    rep = _cli_json(capsys, "h2", "D8")
    assert rep["exact_order"] == 1 and rep["status"] == "exact"
    elapsed = time.monotonic() - start
    assert elapsed < 30
    print(f"PASS criterion 3: D8 bg=3, multiplicity-free, exact order 1 "
          f"({elapsed:.1f}s)")


def test_criterion_4_wreath3(capsys):
    start = time.monotonic()
    rep = _cli_json(capsys, "h2", "Wr_3")
    assert rep["exact_order"] == 3
    assert rep["structure"] == [3]
    assert rep["status"] == "exact"
    assert "R3" in [c["rule"] for c in rep["certificates"]]
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(f"PASS criterion 4: Z/3 wr Z/3 exact structure Z/3 via R3 "
          f"({elapsed:.1f}s)")


def test_criterion_5_order27(capsys):
    start = time.monotonic()
    rep = _cli_json(capsys, "h2", "C27sd")
    assert rep["bg_size"] == 9
    assert rep["exact_order"] == 9
    assert rep["structure"] == [3, 3]
    assert rep["status"] == "exact"
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(f"PASS criterion 5: order-27 group bg=9, structure Z/3 x Z/3 "
          f"({elapsed:.1f}s)")


def test_criterion_6_triviality_suite(capsys):
    for name in ["Q8", "S3", "S4"] + [f"C{n}" for n in range(2, 9)]:
        rep = _cli_json(capsys, "h2", name)
        assert rep["exact_order"] == 1, name
        assert rep["status"] == "exact", name
    rep = _cli_json(capsys, "h2", "V4")
    assert rep["exact_order"] == 2 and rep["structure"] == [2]
    assert "R0" in [c["rule"] for c in rep["certificates"]]
    print("PASS criterion 6: Q8, S3, S4, C2..C8 trivial; Klein four has "
          "order 2 via the abelian rule")


def test_criterion_7_property_suites(groups):
    # (a) products of invariant twists are invariant twists
    from test_hopf import test_z2_closed_under_multiplication
    test_z2_closed_under_multiplication(groups)

    # (b) the braiding of an invariant twist has trivial distinguished element
    A4 = groups("A4")
    W = groups("Wall32")
    fixture_twists = [packaged_tensor("A4_twist", A4),
                      packaged_tensor("Wall_F", W)]
    from lazytwist.pontryagin import cocycle_from_form_odd
    from lazytwist.hopf import twist_from_cocycle
    C27 = groups("C27sd")
    x = bg_enumerate(C27)[1]
    fixture_twists.append(
        twist_from_cocycle(x.subgroup,
                           cocycle_from_form_odd(x.subgroup, x.form)))
    for F in fixture_twists:
        assert drinfeld_element(r_matrix(F)) == GTensor.unit(F.group, 1)

    # (c) restriction coherence of bicharacter tensors, order <= 16
    from test_hopf import test_r_from_form_pullback_coherence_exhaustive
    test_r_from_form_pullback_coherence_exhaustive()

    # (d) nondegenerate forms force symmetric type, order <= 16
    from test_pontryagin import test_nondegenerate_implies_symmetric_type_exhaustive
    test_nondegenerate_implies_symmetric_type_exhaustive()

    # (e) the odd-order construction splits the socle-form map
    from test_lazy import test_theta_surjective_construction_odd
    test_theta_surjective_construction_odd(groups)

    # (f) tangent complex exact with kernel dimension |G| for |G| <= 12
    from test_lazy import test_lie_complex_all_small_fixtures
    test_lie_complex_all_small_fixtures(groups)

    print("PASS criterion 7: twist-group closure, trivial distinguished "
          "elements, restriction coherence, symmetric-type constraint, "
          "odd-order splitting, tangent-complex exactness")


def test_criterion_8_oracle_cross_checks(groups):
    from test_lazy import test_orbit_dimension_against_burnside
    test_orbit_dimension_against_burnside(groups)
    from test_hopf import test_cocycle_twist_roundtrips
    test_cocycle_twist_roundtrips(groups)
    print("PASS criterion 8: orbit dimension matches the independent "
          "counting oracle; cocycle/twist dictionaries are mutually inverse")

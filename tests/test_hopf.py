import random
from fractions import Fraction

import pytest

from lazytwist.cyclo import CycNum
from lazytwist.groups import normal_abelian_subgroups
from lazytwist.pontryagin import (
    DualAction,
    alternating_forms,
    cocycle_from_form_odd,
    invariant_cocycle_search,
    invariant_forms,
)
from lazytwist.hopf import (
    DegreeMismatch,
    GTensor,
    NotInvertible,
    NotSupported,
    antipode,
    cocycle_from_twist,
    coproduct,
    counit,
    delta1,
    delta2_left,
    delta2_right,
    drinfeld_element,
    fourier,
    gauge,
    is_invariant,
    is_normalized,
    is_twist,
    r_from_form,
    r_matrix,
    socle,
    tensor_inv,
    tensor_mul,
    theta,
    twist_from_cocycle,
)
from lazytwist.cli import packaged_tensor
from tests_helpers import characters, idempotent


def _klein(groups):
    A4 = groups("A4")
    return next(s for s in normal_abelian_subgroups(A4) if s.order == 4)


def _a4_twist(groups):
    return packaged_tensor("A4_twist", groups("A4"))


def _wall_a(groups):
    return packaged_tensor("Wall_a", groups("Wall32"))


def _wall_f(groups):
    return packaged_tensor("Wall_F", groups("Wall32"))


# -- basic tensor algebra ----------------------------------------------------


def test_tensor_mul_examples(groups):
    A4 = groups("A4")
    g, h = 1, 2
    gp, hp = 3, 4
    x = GTensor.basis(A4, (g, h))
    y = GTensor.basis(A4, (gp, hp))
    assert tensor_mul(x, y) == GTensor.basis(
        A4, (A4.table[g][gp], A4.table[h][hp]))
    F = _a4_twist(groups)
    assert tensor_mul(GTensor.unit(A4, 2), F) == F
    C2 = groups("C2")
    e = GTensor(C2, 1, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    assert e.mul(e) == e


def test_tensor_mul_degree_mismatch(groups):
    A4 = groups("A4")
    with pytest.raises(DegreeMismatch):
        tensor_mul(GTensor.unit(A4, 1), GTensor.unit(A4, 2))


def test_tensor_inv_examples(groups):
    A4 = groups("A4")
    g, h = 1, 5
    x = GTensor.basis(A4, (g, h))
    assert tensor_inv(x) == GTensor.basis(A4, (A4.inverses[g], A4.inverses[h]))
    a = _wall_a(groups)
    assert tensor_inv(a) == a
    C2 = groups("C2")
    e = GTensor(C2, 1, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    with pytest.raises(NotInvertible):
        tensor_inv(e)


def test_tensor_inv_dense_path(groups):
    # support generating a nonabelian subgroup exercises the linear solve
    S3 = groups("S3")
    x = GTensor(S3, 1, {(g,): Fraction(1) for g in range(6)})
    x = x.add(GTensor.unit(S3, 1))  # 2 + sum of the rest
    y = tensor_inv(x)
    assert x.mul(y) == GTensor.unit(S3, 1)
    assert y.mul(x) == GTensor.unit(S3, 1)


def test_hopf_structure_maps(groups):
    A4 = groups("A4")
    g = 7
    x = GTensor.basis(A4, (g,))
    assert coproduct(x) == GTensor.basis(A4, (g, g))
    two_g_minus_h = GTensor(A4, 1, {(1,): 2, (2,): -1})
    assert counit(two_g_minus_h) == CycNum.one()
    assert antipode(antipode(two_g_minus_h)) == two_g_minus_h
    assert antipode(x) == GTensor.basis(A4, (A4.inverses[g],))


def test_hopf_axioms_on_basis(groups):
    G = groups("S3")
    for g in range(G.order):
        x = GTensor.basis(G, (g,))
        d = coproduct(x)
        # coassociativity on the group-like basis
        left = GTensor(G, 3, {(a, a, b): c for (a, b), c in d.terms.items()})
        right = GTensor(G, 3, {(a, b, b): c for (a, b), c in d.terms.items()})
        assert left == right
        # counit and antipode identities
        assert counit(x) == CycNum.one()
        m = GTensor(G, 1, {(G.table[g][G.inverses[g]],): CycNum.one()})
        assert m == GTensor.unit(G, 1)


def test_delta1_examples(groups):
    A4 = groups("A4")
    lam = CycNum.rational(Fraction(3, 5))
    scalar = GTensor(A4, 1, {(0,): lam})
    assert delta1(scalar) == GTensor(A4, 2, {(0, 0): lam})
    for g in [1, 4, 7]:
        assert delta1(GTensor.basis(A4, (g,))) == GTensor.unit(A4, 2)


def test_delta1_wall_matches_shipped_tensor(groups):
    assert delta1(_wall_a(groups)) == _wall_f(groups)


def test_is_twist_examples(groups):
    A4 = groups("A4")
    unit = GTensor.unit(A4, 2)
    assert is_twist(unit) and is_invariant(unit) and is_normalized(unit)
    F = _a4_twist(groups)
    assert is_twist(F) and is_invariant(F) and is_normalized(F)
    g = next(x for x in range(A4.order) if A4.element_order(x) == 2)
    h = next(x for x in range(A4.order) if A4.element_order(x) == 3
             and A4.table[g][x] != A4.table[x][g])
    assert not is_twist(GTensor.basis(A4, (g, h)))


def test_twist_equation_is_delta2_equality(groups):
    F = _a4_twist(groups)
    assert delta2_left(F) == delta2_right(F)


def test_normalize_twist(groups):
    from lazytwist.hopf import normalize_twist

    F = _a4_twist(groups)
    scaled = F.scale(3)
    assert is_twist(scaled) and not is_normalized(scaled)
    assert normalize_twist(scaled) == F


def test_z2_closed_under_multiplication(groups):
    A4 = groups("A4")
    F = _a4_twist(groups)
    FF = tensor_mul(F, F)
    assert is_twist(FF) and is_invariant(FF)
    # a central invertible element: 3 + (sum of the double transpositions)
    V = _klein(groups)
    central = GTensor(A4, 1, dict(
        [((0,), CycNum.rational(3))] +
        [((a,), CycNum.one()) for a in V.elements if a != 0]))
    D = delta1(central)
    assert is_twist(D) and is_invariant(D)
    assert is_twist(tensor_mul(F, D)) and is_invariant(tensor_mul(F, D))
    W = groups("Wall32")
    Fw = _wall_f(groups)
    assert is_twist(tensor_mul(Fw, Fw)) and is_invariant(tensor_mul(Fw, Fw))


def test_gauge_examples(groups):
    A4 = groups("A4")
    F = _a4_twist(groups)
    for g in [0, 3, 9]:
        assert gauge(GTensor.basis(A4, (g,)), F) == F
    a = GTensor(A4, 1, {(0,): 2, (3,): 1})
    assert gauge(a, GTensor.unit(A4, 2)) == delta1(a)


def test_gauge_action_law_random(groups):
    rng = random.Random(5)
    A4 = groups("A4")
    F = _a4_twist(groups)
    for _ in range(5):
        g, h = rng.randrange(12), rng.randrange(12)
        a = GTensor.basis(A4, (g,)).scale(2).add(GTensor.basis(A4, (h,)))
        try:
            tensor_inv(a)
        except NotInvertible:
            continue
        b = GTensor.basis(A4, (rng.randrange(12),))
        assert gauge(a, gauge(b, F)) == gauge(a.mul(b), F)


def test_r_matrix_examples(groups):
    A4 = groups("A4")
    assert r_matrix(GTensor.unit(A4, 2)) == GTensor.unit(A4, 2)
    Fw = _wall_f(groups)
    assert r_matrix(Fw) == GTensor.unit(groups("Wall32"), 2)
    F = _a4_twist(groups)
    V = _klein(groups)
    act = DualAction(A4, V)
    b = invariant_forms(V, act, only_nondegenerate=True)[0]
    assert r_matrix(F) == r_from_form(V, b)


def test_drinfeld_element(groups):
    A4 = groups("A4")
    assert drinfeld_element(GTensor.unit(A4, 2)) == GTensor.unit(A4, 1)
    F = _a4_twist(groups)
    assert drinfeld_element(r_matrix(F)) == GTensor.unit(A4, 1)
    V = _klein(groups)
    for b in alternating_forms(V):
        assert drinfeld_element(r_from_form(V, b)) == GTensor.unit(A4, 1)


def test_socle(groups):
    A4 = groups("A4")
    assert socle(GTensor.unit(A4, 2)).order == 1
    F = _a4_twist(groups)
    V = _klein(groups)
    assert socle(r_matrix(F)) == V
    act = DualAction(A4, V)
    b = invariant_forms(V, act, only_nondegenerate=True)[0]
    assert socle(r_from_form(V, b)) == V


def test_theta(groups):
    A4 = groups("A4")
    tv = theta(GTensor.unit(A4, 2))
    assert tv.is_trivial()
    F = _a4_twist(groups)
    tv = theta(F)
    V = _klein(groups)
    assert tv.socle == V
    # b(e1^, e2^) = -1 on the kernel-labelled characters
    chars = characters(V)
    e1, e2 = V.elements[1], V.elements[2]
    h1 = next(c for c in chars if set(c.kernel()) == {0, e1})
    h2 = next(c for c in chars if set(c.kernel()) == {0, e2})
    assert tv.form.eval(h1.exponents, h2.exponents) == CycNum.rational(-1)
    # the symmetric Wall twist has trivial socle
    assert theta(_wall_f(groups)).is_trivial()


def test_idempotents(groups):
    C2 = groups("C2")
    A = C2.whole_subgroup()
    triv, sign = characters(A)
    assert idempotent(A, triv) == GTensor(
        C2, 1, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    assert idempotent(A, sign) == GTensor(
        C2, 1, {(0,): Fraction(1, 2), (1,): Fraction(-1, 2)})
    V = _klein(groups)
    total = GTensor(V.parent, 1, {})
    for chi in characters(V):
        e = idempotent(V, chi)
        assert e.mul(e) == e
        total = total.add(e)
    assert total == GTensor.unit(V.parent, 1)


def test_twist_from_cocycle_matches_shipped_tensor(groups):
    # the invariant cocycle with lambda = -1, mu = 1 yields the shipped twist
    A4 = groups("A4")
    V = _klein(groups)
    act = DualAction(A4, V)
    b = invariant_forms(V, act, only_nondegenerate=True)[0]
    chars = characters(V)
    e1 = A4.label_index("(1 2)(3 4)")
    e2 = A4.label_index("(1 3)(2 4)")
    e3 = A4.label_index("(1 4)(2 3)")
    h = {a: next(c for c in chars if set(c.kernel()) == {0, a}).exponents
         for a in (e1, e2, e3)}
    one = (0, 0)
    minus, plus = CycNum.rational(-1), CycNum.one()
    c = {(one, x): plus for x in [one, h[e1], h[e2], h[e3]]}
    c.update({(x, one): plus for x in [h[e1], h[e2], h[e3]]})
    for x in (h[e1], h[e2], h[e3]):
        c[(x, x)] = minus
    sigma = next(g for g in range(A4.order)
                 if act.on_exponents(g, h[e1]) == h[e2]
                 and act.on_exponents(g, h[e2]) == h[e3])
    pair = (h[e1], h[e2])
    for _ in range(3):
        c[pair] = plus
        c[(pair[1], pair[0])] = b.eval(*pair)
        pair = (act.on_exponents(sigma, pair[0]),
                act.on_exponents(sigma, pair[1]))
    F = twist_from_cocycle(V, c)
    assert F == _a4_twist(groups)


def _constant_cocycle(A):
    exps = [chi.exponents for chi in characters(A)]
    return {(x, y): CycNum.one() for x in exps for y in exps}


def test_cocycle_twist_roundtrips(groups):
    for name in ["C2", "C3", "V4", "C6"]:
        G = groups(name)
        A = G.whole_subgroup()
        for b in alternating_forms(A):
            if A.order % 2 == 1:
                c = cocycle_from_form_odd(A, b)
            elif b.is_trivial():
                c = _constant_cocycle(A)
            else:
                act = DualAction(G, A)
                c = invariant_cocycle_search(A, b, act).witness
                assert c is not None
            F = twist_from_cocycle(A, c)
            back = cocycle_from_twist(A, F)
            assert back == c
    # constant cocycle gives the unit tensor
    C3 = groups("C3")
    A = C3.whole_subgroup()
    trivial = cocycle_from_form_odd(A, alternating_forms(A)[0])
    assert twist_from_cocycle(A, trivial) == GTensor.unit(C3, 2)


def test_cocycle_from_twist_not_supported(groups):
    A4 = groups("A4")
    V = _klein(groups)
    outside = next(x for x in range(A4.order) if x not in V)
    with pytest.raises(NotSupported):
        cocycle_from_twist(V, GTensor.basis(A4, (outside, 0)))


def test_r_from_form_examples(groups):
    A4 = groups("A4")
    V = _klein(groups)
    assert r_from_form(V, alternating_forms(V)[0]) == GTensor.unit(A4, 2)
    # brute-force expansion of the Klein R-matrix
    b = alternating_forms(V)[1]
    chars = characters(V)
    expected = GTensor(A4, 2, {})
    for sigma in chars:
        for tau in chars:
            coeff = b.eval(sigma.exponents, tau.exponents)
            expected = expected.add(
                idempotent(V, sigma).outer(idempotent(V, tau)).scale(coeff))
    assert r_from_form(V, b) == expected


def test_r_from_form_pullback_coherence_exhaustive():
    # restriction lemma on all abelian groups of order <= 16
    from lazytwist.pontryagin import AltForm, _dual_matrix
    from tests_helpers import abelian_types, all_subgroups, product_group, restrict_character

    for order in range(1, 17):
        for ds in abelian_types(order):
            G = product_group(ds)
            A = G.whole_subgroup()
            chars_A = characters(A)
            for elems in all_subgroups(G):
                B = G.subgroup(elems)
                for bp in alternating_forms(B):
                    # pull back along restriction to a form on the big dual
                    basis = A.abelian_structure()
                    r = len(basis)
                    upper = {}
                    for i in range(r):
                        ei = tuple(1 if k == i else 0 for k in range(r))
                        chi_i = restrict_character(chars_A, ei, B)
                        for j in range(i + 1, r):
                            ej = tuple(1 if k == j else 0 for k in range(r))
                            chi_j = restrict_character(chars_A, ej, B)
                            t, L = bp.value_exponent(chi_i, chi_j)
                            from math import gcd
                            m = gcd(basis[i][1], basis[j][1])
                            assert t * m % L == 0
                            upper[(i, j)] = t * m // L % m
                    pulled = AltForm.from_upper(A, upper)
                    assert r_from_form(B, bp) == r_from_form(A, pulled)
                    # the same push through the dual map of B <= A
                    inclusion = _dual_matrix(B, A, lambda a: a)
                    assert bp.push(A, inclusion) == pulled


def test_fourier(groups):
    A4 = groups("A4")
    V = _klein(groups)
    table = fourier(V, GTensor.unit(A4, 1))
    assert all(v == CycNum.one() for v in table.values())
    chars = characters(V)
    for chi in chars:
        table = fourier(V, idempotent(V, chi))
        for exps, v in table.items():
            assert v == (CycNum.one() if exps == chi.exponents else CycNum.zero())
    # multiplicativity on random supported tensors
    rng = random.Random(3)
    for _ in range(5):
        x = GTensor(A4, 1, {(rng.choice(V.elements),): rng.randrange(1, 5)})
        y = GTensor(A4, 1, {(rng.choice(V.elements),): rng.randrange(1, 5)})
        fx, fy, fxy = fourier(V, x), fourier(V, y), fourier(V, x.mul(y))
        assert all(fxy[k] == fx[k] * fy[k] for k in fx)


def test_fourier_not_supported(groups):
    A4 = groups("A4")
    V = _klein(groups)
    outside = next(x for x in range(A4.order) if x not in V)
    with pytest.raises(NotSupported):
        fourier(V, GTensor.basis(A4, (outside,)))


# -- gauge and braiding properties -------------------------------------------


def test_gauge_covariance_of_r(groups):
    # R of a gauged twist is the diagonal conjugate of R
    A4 = groups("A4")
    F = _a4_twist(groups)
    R = r_matrix(F)
    for g in [1, 5, 9]:
        a = GTensor.basis(A4, (g,))
        lhs = r_matrix(gauge(a, F))
        conj = a.outer(a)
        rhs = conj.mul(R).mul(tensor_inv(conj))
        assert lhs == rhs
    W = groups("Wall32")
    a = _wall_a(groups)
    Fw = _wall_f(groups)
    lhs = r_matrix(gauge(a, Fw))
    conj = a.outer(a)
    assert lhs == conj.mul(r_matrix(Fw)).mul(tensor_inv(conj))


def test_gauge_preserves_invariance_iff_normalizer(groups):
    # group elements and the Wall normalizer element keep invariance
    W = groups("Wall32")
    Fw = _wall_f(groups)
    a = _wall_a(groups)
    assert is_invariant(gauge(a, Fw))
    for g in [3, 17]:
        assert is_invariant(gauge(GTensor.basis(W, (g,)), Fw))
    # an invertible element outside the normalizer breaks invariance
    A4 = groups("A4")
    F = _a4_twist(groups)
    sigma = next(x for x in range(A4.order) if A4.element_order(x) == 3)
    a = GTensor(A4, 1, {(0,): 2, (sigma,): 1})
    tensor_inv(a)  # invertible
    assert not is_invariant(gauge(a, F))


def test_r_determined_by_gauge_orbit(groups):
    # if F^-1 = a . F'^-1 with a in the normalizer, then R_F = R_F'
    A4 = groups("A4")
    Fp = _a4_twist(groups)
    for g in [2, 6, 11]:
        a = GTensor.basis(A4, (g,))
        F = tensor_inv(gauge(a, tensor_inv(Fp)))
        assert is_twist(F) and is_invariant(F)
        assert r_matrix(F) == r_matrix(Fp)
    W = groups("Wall32")
    Fw = _wall_f(groups)
    a = _wall_a(groups)
    F = tensor_inv(gauge(a, tensor_inv(Fw)))
    assert r_matrix(F) == r_matrix(Fw)


def test_r_multiplicative_on_common_socle(groups):
    # R_{FF'} = R_F R_{F'} for twists supported in one abelian normal subgroup
    C27 = groups("C27sd")
    E = next(s for s in normal_abelian_subgroups(C27) if s.order == 9)
    act = DualAction(C27, E)
    b1, b2 = invariant_forms(E, act, only_nondegenerate=True)
    F1 = twist_from_cocycle(E, cocycle_from_form_odd(E, b1))
    F2 = twist_from_cocycle(E, cocycle_from_form_odd(E, b2))
    assert r_matrix(F1.mul(F2)) == r_matrix(F1).mul(r_matrix(F2))


def test_delta1_central_lands_in_z2(groups):
    C4 = groups("C4")
    a = GTensor(C4, 1, {(0,): 1, (1,): 2})  # 1 + 2g, invertible, central
    D = delta1(a)
    assert is_twist(D) and is_invariant(D)
    S3 = groups("S3")
    # central invertible: 3 + sum of the 3-cycles
    cyc3 = [x for x in range(6) if S3.element_order(x) == 3]
    a = GTensor(S3, 1, dict([((0,), CycNum.rational(3))] +
                            [((x,), CycNum.one()) for x in cyc3]))
    D = delta1(a)
    assert is_twist(D) and is_invariant(D)


def test_cocycle_twist_roundtrip_on_nine_group():
    # square-root cocycle on (Z/3)^2: dictionary is the identity both ways
    from tests_helpers import product_group

    G = product_group((3, 3))
    A = G.whole_subgroup()
    for b in alternating_forms(A):
        c = cocycle_from_form_odd(A, b)
        F = twist_from_cocycle(A, c)
        assert cocycle_from_twist(A, F) == c
        assert twist_from_cocycle(A, cocycle_from_twist(A, F)) == F


def test_r_matrix_and_theta_reject_bad_input(groups):
    from lazytwist.hopf import NotATwist, NotInvariant

    A4 = groups("A4")
    F = _a4_twist(groups)
    sigma = next(x for x in range(A4.order) if A4.element_order(x) == 3)
    a = GTensor(A4, 1, {(0,): 2, (sigma,): 1})
    skew = gauge(a, F)  # still a twist, no longer invariant
    with pytest.raises(NotInvariant):
        r_matrix(skew)
    # invariant and invertible, but the pair table is not a cocycle
    V = _klein(groups)
    T = GTensor(A4, 2, {})
    for x in characters(V):
        for y in characters(V):
            coeff = 2 if (x.exponents == y.exponents and any(x.exponents)) else 1
            T = T.add(idempotent(V, x).outer(idempotent(V, y)).scale(coeff))
    assert is_invariant(T) and not is_twist(T)
    with pytest.raises(NotATwist):
        r_matrix(T)


# -- the character-sum transform against the CycNum loops --------------------


def _pair_cocycles(groups):
    """(A, c) for the cocycles of every socle-form pair: square roots on the
    odd groups, invariant-cocycle-search witnesses on A4 and D8."""
    from lazytwist.lazy import bg_enumerate

    out = []
    for name in ["C27sd", "Wr_3"]:
        for x in bg_enumerate(groups(name)):
            out.append((x.subgroup, cocycle_from_form_odd(x.subgroup, x.form)))
    for name in ["A4", "D8"]:
        G = groups(name)
        for x in bg_enumerate(G):
            act = DualAction(G, x.subgroup)
            found = invariant_cocycle_search(x.subgroup, x.form, act).witness
            if found is not None:
                out.append((x.subgroup, found))
    return out


def test_twist_from_cocycle_matches_loop(groups):
    from tests_helpers import loop_twist_from_cocycle

    cases = _pair_cocycles(groups)
    assert {A.parent.name for A, _ in cases} == {"C27sd", "Wr_3", "A4", "D8"}
    assert max(A.order for A, _ in cases) >= 9
    for A, c in cases:
        F = twist_from_cocycle(A, c)
        assert F == loop_twist_from_cocycle(A, c)
        assert cocycle_from_twist(A, F) == c


def _random_value(rng, n):
    """A random element of Q(zeta_n) with small coefficients."""
    from lazytwist.cyclo import root_of_unity

    v = CycNum.rational(Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)))
    for _ in range(2):
        v = v + root_of_unity(n, rng.randrange(n)) * rng.randrange(-2, 3)
    return v


def _abelian_groups():
    from tests_helpers import product_group

    return [product_group(ds) for ds in [(2, 2), (3, 3), (4, 2), (6,), (9,)]]


def test_fourier_and_inversion_match_loops(groups):
    from lazytwist.hopf import _fourier_invert
    from tests_helpers import loop_fourier, loop_fourier_invert

    rng = random.Random(11)
    for H in _abelian_groups() + [groups("C8")]:
        A = H.whole_subgroup()
        for _ in range(4):
            coeffs = [CycNum.zero()] * H.order
            for a in rng.sample(range(H.order), 3):
                coeffs[a] = _random_value(rng, H.exponent())
            assert _fourier_invert(H, coeffs) == loop_fourier_invert(H, coeffs)
            x = GTensor(H, 1, {(a,): c for a, c in enumerate(coeffs)})
            assert fourier(A, x) == loop_fourier(A, x)
        # the sum over a nontrivial cyclic subgroup is singular
        g = next(a for a in range(H.order) if H.element_order(a) in (2, 3))
        coeffs = [CycNum.zero()] * H.order
        for a in H.closure({g}):
            coeffs[a] = CycNum.one()
        assert _fourier_invert(H, coeffs) is None
        assert loop_fourier_invert(H, coeffs) is None
    # a subgroup of a nonabelian group, cyclotomic coefficients (Wall's a)
    a = _wall_a(groups)
    A = socle(GTensor(a.group, 1, {(g,): 1 for (g,) in a.terms}))
    assert fourier(A, a) == loop_fourier(A, a)


def test_tensor_inv_fourier_path_matches_dense(groups, monkeypatch):
    from lazytwist import hopf

    rng = random.Random(7)
    cases = []
    for H in _abelian_groups()[:3]:
        for degree in (1, 2):
            for _ in range(3):
                terms = {(0,) * degree: _random_value(rng, H.exponent())}
                for _ in range(2):
                    t = tuple(rng.randrange(H.order) for _ in range(degree))
                    terms[t] = _random_value(rng, H.exponent())
                cases.append(GTensor(H, degree, terms))
            g = next(a for a in range(1, H.order) if H.element_order(a) <= 3)
            pad = (0,) * (degree - 1)
            cases.append(GTensor(H, degree, {
                (a,) + pad: 1 for a in H.closure({g})}))

    def invert(x):
        try:
            return tensor_inv(x)
        except NotInvertible:
            return None

    fourier_side = [invert(x) for x in cases]
    monkeypatch.setattr(hopf, "_fourier_invert", hopf._dense_invert)
    dense_side = [invert(x) for x in cases]
    assert fourier_side == dense_side
    assert sum(y is None for y in dense_side) == 6
    for x, y in zip(cases, dense_side):
        if y is not None:
            assert x.mul(y) == GTensor.unit(x.group, x.degree)


# -- degree checks that survive python -O ------------------------------------


def test_degree_checks_raise(groups):
    from lazytwist.hopf import _coproduct_leg

    A4 = groups("A4")
    one, two = GTensor.unit(A4, 1), GTensor.unit(A4, 2)
    with pytest.raises(DegreeMismatch):
        GTensor(A4, 2, {(1,): 1})
    for fn, x in [(GTensor.flip, one), (coproduct, two), (counit, two),
                  (antipode, two), (drinfeld_element, one)]:
        with pytest.raises(DegreeMismatch):
            fn(x)
    with pytest.raises(DegreeMismatch):
        _coproduct_leg(one, 0)

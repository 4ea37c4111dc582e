import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lazytwist.cyclo import CycNum, root_of_unity
from lazytwist.groups import OrderLimitExceeded, normal_abelian_subgroups
from lazytwist.pontryagin import (
    DualAction,
    alternating_forms,
    cocycle_from_form_odd,
    invariant_cocycle_search,
    invariant_forms,
    is_nondegenerate,
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
    form_from_r,
    fourier,
    gauge,
    is_invariant,
    is_normalized,
    is_twist,
    r_from_form,
    r_matrix,
    socle,
    tensor_inv,
    theta,
    twist_from_cocycle,
    _tuple_group,
)
from lazytwist.cli import packaged_tensor
from tests_helpers import (characters, form_value, idempotent,
                           loop_tuple_group, named_group)


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
    assert x.mul(y) == GTensor.basis(
        A4, (A4.table[g][gp], A4.table[h][hp]))
    F = _a4_twist(groups)
    assert GTensor.unit(A4, 2).mul(F) == F
    C2 = groups("C2")
    e = GTensor(C2, 1, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    assert e.mul(e) == e


PRODUCT_GROUPS = ["S3", "A4", "Wall32", "C27sd"]
RATIONALS = st.fractions(-3, 3, max_denominator=6).filter(
    lambda q: q.denominator > 1)


@st.composite
def coefficients(draw):
    """A non-integral rational plus up to two rational multiples of roots
    of unity of one conductor n in 1, 3, 4, 8, 9, 12."""
    n = draw(st.sampled_from([1, 3, 4, 8, 9, 12]))
    v = CycNum.rational(draw(RATIONALS))
    for e, q in draw(st.lists(st.tuples(st.integers(0, n - 1), RATIONALS),
                              max_size=2)):
        v = v + root_of_unity(n, e) * q
    return v


@st.composite
def tensor_pairs(draw, Gs, degrees=(1, 2, 3)):
    """(mode, x, y): two tensors of one degree on one of the groups Gs, each
    coefficient of its own conductor.  In mode "zero", x = a sum_i g^i and
    y = b sum_i zeta_k^i g^i on the drawn legs, for g of order k > 1, so
    every cell of x y sums all k-th roots of unity and cancels; "partial"
    adds random terms to that x."""
    G = draw(st.sampled_from(Gs))
    degree = draw(st.sampled_from(degrees))
    elements = st.integers(0, G.order - 1)

    def tensor():
        return GTensor(G, degree, draw(st.dictionaries(
            st.tuples(*[elements] * degree), coefficients(),
            min_size=1, max_size=5)))

    mode = draw(st.sampled_from(["random", "zero", "partial"]))
    if mode == "random":
        return mode, tensor(), tensor()
    g = draw(elements.filter(lambda a: a != 0))
    legs = draw(st.permutations([True] + draw(st.lists(
        st.booleans(), min_size=degree - 1, max_size=degree - 1))))
    powers = [0]
    while len(powers) < G.element_order(g):
        powers.append(G.table[powers[-1]][g])

    def leg_tuple(p):
        return tuple(p if leg else 0 for leg in legs)

    a, b = draw(RATIONALS), draw(RATIONALS)
    k = len(powers)
    x = GTensor(G, degree, {leg_tuple(p): a for p in powers})
    y = GTensor(G, degree, {leg_tuple(p): b * root_of_unity(k, i)
                            for i, p in enumerate(powers)})
    if mode == "partial":
        x = x.add(tensor())
    return mode, x, y


def test_mul_matches_loop(groups):
    # the exponent-count product against one CycNum product and sum per
    # pair of terms, cancelling products included
    from tests_helpers import loop_mul

    Gs = [groups(name) for name in PRODUCT_GROUPS]
    zeros = []

    @settings(max_examples=80, deadline=None, database=None,
              derandomize=True)
    @given(tensor_pairs(Gs))
    def check(case):
        mode, x, y = case
        z, want = x.mul(y), loop_mul(x, y)
        assert z == want
        assert z.key() == want.key()
        if mode == "zero":
            assert z.is_zero()
            zeros.append(len(x.terms))

    check()
    assert zeros


def test_drinfeld_element_and_counit_match_loops(groups):
    from tests_helpers import loop_drinfeld_element

    Gs = [groups(name) for name in PRODUCT_GROUPS]
    cancelled = []

    @settings(max_examples=40, deadline=None, database=None,
              derandomize=True)
    @given(tensor_pairs(Gs, degrees=(2,)))
    def check(case):
        _, x, y = case
        for R in (x, y, x.mul(y)):
            u, want = drinfeld_element(R), loop_drinfeld_element(R)
            assert u == want and u.key() == want.key()
            assert counit(u) == sum(u.terms.values(), CycNum.zero())
            # y = b sum_i zeta_k^i g^i x g^i has u = b sum_i zeta_k^i = 0
            if u.is_zero() and not R.is_zero():
                cancelled.append(R)

    check()
    assert cancelled


def test_tensor_mul_degree_mismatch(groups):
    A4 = groups("A4")
    with pytest.raises(DegreeMismatch):
        GTensor.unit(A4, 1).mul(GTensor.unit(A4, 2))


def test_tuple_group_matches_loop(groups):
    # the shipped supports, and random ones on small powers of groups
    supports = [(F.group, F.degree, list(F.terms)) for F in
                (_a4_twist(groups), _wall_f(groups), _wall_a(groups))]
    rng = random.Random(8)
    for name, degree in [("S3", 2), ("D8", 2), ("C6", 3), ("Q8xC2", 2),
                         ("S4", 2)]:
        G = named_group(groups, name)
        for k in (1, 2, 3):
            supports.append((G, degree, [
                tuple(rng.randrange(G.order) for _ in range(degree))
                for _ in range(k)]))
    raised = 0
    for G, degree, tuples in supports:
        try:
            want = loop_tuple_group(G, degree, tuples)
        except OrderLimitExceeded:
            raised += 1
            with pytest.raises(OrderLimitExceeded):
                _tuple_group(G, degree, tuples)
            continue
        H, order, index = _tuple_group(G, degree, tuples)
        assert order == want
        assert all(H.table[index[a]][index[b]] == index[tuple(
            G.table[x][y] for x, y in zip(a, b))] for a in order for b in order)
    assert 0 < raised < len(supports)


def test_tuple_group_caps_closed_supports(groups):
    # C12 x C12 x C2 in C12^3 has 288 elements, over the cap of 200; the
    # old loop checked the cap only on adding an element, so the closed
    # support passed while its generators were refused
    C12 = groups("C12")
    closed = [(a, b, c) for a in range(12) for b in range(12) for c in (0, 6)]
    assert len(loop_tuple_group(C12, 3, closed)) == 288
    for tuples in (closed, [(1, 0, 0), (0, 1, 0), (0, 0, 6)]):
        with pytest.raises(OrderLimitExceeded):
            _tuple_group(C12, 3, tuples)


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
    FF = F.mul(F)
    assert is_twist(FF) and is_invariant(FF)
    # a central invertible element: 3 + (sum of the double transpositions)
    V = _klein(groups)
    central = GTensor(A4, 1, dict(
        [((0,), CycNum.rational(3))] +
        [((a,), CycNum.one()) for a in V.elements if a != 0]))
    D = delta1(central)
    assert is_twist(D) and is_invariant(D)
    assert is_twist(F.mul(D)) and is_invariant(F.mul(D))
    W = groups("Wall32")
    Fw = _wall_f(groups)
    assert is_twist(Fw.mul(Fw)) and is_invariant(Fw.mul(Fw))


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
    b = next(f for f in invariant_forms(V, act) if is_nondegenerate(f))
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
    b = next(f for f in invariant_forms(V, act) if is_nondegenerate(f))
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
    assert form_value(tv.form, h1.exponents,
                      h2.exponents) == CycNum.rational(-1)
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
    b = next(f for f in invariant_forms(V, act) if is_nondegenerate(f))
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
        c[(pair[1], pair[0])] = form_value(b, *pair)
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
            coeff = form_value(b, sigma.exponents, tau.exponents)
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
                    upper = []
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
                            upper.append(t * m // L % m)
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
    b1, b2 = [f for f in invariant_forms(E, act) if is_nondegenerate(f)]
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


def _non_cocycle(groups):
    """Invariant and invertible on A4, but its pair table on the Klein dual
    is not a cocycle."""
    V = _klein(groups)
    T = GTensor(groups("A4"), 2, {})
    for x in characters(V):
        for y in characters(V):
            coeff = 2 if (x.exponents == y.exponents and any(x.exponents)) else 1
            T = T.add(idempotent(V, x).outer(idempotent(V, y)).scale(coeff))
    return T


def test_r_matrix_and_theta_reject_bad_input(groups):
    from lazytwist.hopf import NotATwist, NotInvariant

    A4 = groups("A4")
    F = _a4_twist(groups)
    sigma = next(x for x in range(A4.order) if A4.element_order(x) == 3)
    a = GTensor(A4, 1, {(0,): 2, (sigma,): 1})
    skew = gauge(a, F)  # still a twist, no longer invariant
    with pytest.raises(NotInvariant):
        r_matrix(skew)
    T = _non_cocycle(groups)
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
    v = CycNum.rational(Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)))
    for _ in range(2):
        v = v + root_of_unity(n, rng.randrange(n)) * rng.randrange(-2, 3)
    return v


def _abelian_groups():
    from tests_helpers import product_group

    return [product_group(ds) for ds in [(2, 2), (3, 3), (4, 2), (6,), (9,)]]


def _invert(x):
    try:
        return tensor_inv(x)
    except NotInvertible:
        return None


def test_fourier_and_inversion_match_loops(groups):
    from tests_helpers import (flat_fourier_invert, loop_fourier,
                               loop_fourier_invert)

    def loop_invert(H, coeffs):
        inv = loop_fourier_invert(H, coeffs)
        return None if inv is None else \
            GTensor(H, 1, {(a,): c for a, c in enumerate(inv)})

    rng = random.Random(11)
    for H in _abelian_groups() + [groups("C8")]:
        A = H.whole_subgroup()
        for _ in range(4):
            coeffs = [CycNum.zero()] * H.order
            for a in rng.sample(range(H.order), 3):
                coeffs[a] = _random_value(rng, H.exponent())
            x = GTensor(H, 1, {(a,): c for a, c in enumerate(coeffs)})
            assert _invert(x) == loop_invert(H, coeffs)
            assert flat_fourier_invert(H, coeffs) == \
                loop_fourier_invert(H, coeffs)
            assert fourier(A, x) == loop_fourier(A, x)
        # the sum over a nontrivial cyclic subgroup is singular
        g = next(a for a in range(H.order) if H.element_order(a) in (2, 3))
        coeffs = [CycNum.zero()] * H.order
        for a in H.closure({g}):
            coeffs[a] = CycNum.one()
        x = GTensor(H, 1, {(a,): c for a, c in enumerate(coeffs)})
        assert _invert(x) is None
        assert loop_fourier_invert(H, coeffs) is None
        assert flat_fourier_invert(H, coeffs) is None
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

    fourier_side = [_invert(x) for x in cases]
    monkeypatch.setattr(hopf, "_abelian_support", lambda x: None)
    dense_side = [_invert(x) for x in cases]
    assert fourier_side == dense_side
    assert sum(y is None for y in dense_side) == 6
    for x, y in zip(cases, dense_side):
        if y is not None:
            assert x.mul(y) == GTensor.unit(x.group, x.degree)


def test_transform_of_the_zero_tensor_has_every_point(groups):
    # the zero tensor has no terms, yet its transform is 0 at every point
    # of the dual: so it is no twist, not a cocycle table with holes
    from lazytwist.hopf import NotATwist

    A4, V = groups("A4"), _klein(groups)
    zero = GTensor(A4, 2, {})
    assert not is_twist(zero)
    with pytest.raises(NotATwist, match="not a twist"):
        r_matrix(zero)
    duals = [chi.exponents for chi in characters(V)]
    assert cocycle_from_twist(V, zero) == {
        (rho, sigma): CycNum.zero() for rho in duals for sigma in duals}
    assert fourier(V, GTensor(A4, 1, {})) == {
        rho: CycNum.zero() for rho in duals}


def test_transform_normalizes_each_count_vector_once(groups, monkeypatch):
    # on the shipped tensors, forward and back, every point gets the value
    # of its own character sum, and no count vector is normalized twice
    from lazytwist import hopf
    from tests_helpers import cellwise_transform

    calls = []
    from_counts = hopf.from_counts
    monkeypatch.setattr(hopf, "from_counts", lambda M, counts, d=1: (
        calls.append(tuple(sorted(counts.items()))) or from_counts(M, counts, d)))
    points = normalized = 0
    for F in (_a4_twist(groups), _wall_f(groups), _wall_a(groups)):
        table = hopf._char_table(hopf._abelian_support(F))
        terms = F.terms
        for inverse in (False, True):
            calls.clear()
            out = hopf._transform(table, terms, F.degree, inverse)
            assert out == cellwise_transform(table, terms, F.degree, inverse)
            assert len(set(calls)) == len(calls)
            points, normalized = points + len(out), normalized + len(calls)
            terms = out
    # the twists' tables on the dual take few values
    assert normalized < points / 2


def test_tensor_inv_of_legs_that_do_not_commute(groups):
    # 2 + t x c in k[S3 x S3], t a transposition and c a 3-cycle: each leg
    # is abelian and the tuples span a cyclic group of order 6, but t and c
    # do not commute, so the dense path inverts it; the inverse is the
    # Fourier inverse on that cyclic tuple group
    from lazytwist import hopf
    from tests_helpers import flat_fourier_invert

    S3 = groups("S3")
    t = next(g for g in range(S3.order) if S3.element_order(g) == 2)
    c = next(g for g in range(S3.order) if S3.element_order(g) == 3)
    x = GTensor(S3, 2, {(0, 0): 2, (t, c): 1})
    assert hopf._abelian_support(x) is None
    H, order, index = _tuple_group(S3, 2, x.terms)
    assert H.order == 6 and H.is_abelian()
    coeffs = [CycNum.zero()] * H.order
    for tup, v in x.terms.items():
        coeffs[index[tup]] = v
    y = tensor_inv(x)
    assert y == GTensor(S3, 2, dict(zip(order,
                                        flat_fourier_invert(H, coeffs))))
    assert x.mul(y) == GTensor.unit(S3, 2)


# -- twist checks on the dual of an abelian support --------------------------


def _dual_path_corpus(groups):
    """Tensors with an abelian support: the A4 and Wall twists, a multiple
    and a square, two invariant non-twists (a table that is no cocycle, and
    the A4 twist with its value at the trivial pair set to 0), and the
    twists of `_pair_cocycles`."""
    F = _a4_twist(groups)
    V = _klein(groups)
    # e_1 x e_1 is central, so the twist with a hole stays invariant
    e1 = idempotent(V, characters(V)[0])
    one = characters(V)[0].exponents
    hole = F.add(e1.outer(e1).scale(-cocycle_from_twist(V, F)[(one, one)]))
    return [F, _wall_f(groups), F.scale(3), F.mul(F), _non_cocycle(groups),
            hole] + [twist_from_cocycle(A, c)
                     for A, c in _pair_cocycles(groups)]


def test_twist_checks_on_the_dual_match_the_tensor_path(groups, monkeypatch):
    from lazytwist import hopf
    from lazytwist.hopf import NotATwist, NotInvariant, ThetaContractViolated
    from tests_helpers import flat_fourier_invert

    corpus = _dual_path_corpus(groups)
    assert all(hopf._abelian_support(x) is not None for x in corpus)

    def outcome(x):
        try:
            R = r_matrix(x)
        except (NotATwist, NotInvariant, ThetaContractViolated) as e:
            R = (type(e), str(e))
        return is_twist(x), R

    dual = [outcome(x) for x in corpus]
    # the tensor path inverts inside the span of the support, an abelian
    # tuple group of up to 81 elements for every tensor here; the flat
    # Fourier oracle inverts there many times faster than the dense solve
    monkeypatch.setattr(hopf, "_abelian_support", lambda x: None)
    monkeypatch.setattr(hopf, "_dense_invert", flat_fourier_invert)
    assert [outcome(x) for x in corpus] == dual
    assert [twist for twist, _ in dual].count(False) == 2
    assert dual[4][1] == dual[5][1] == (NotATwist, "not a twist")


def test_r_matrix_on_a_non_abelian_support(groups, monkeypatch):
    # a = 2 + (sum of the transpositions) is central and invertible in
    # k[S3] and its support generates S3, so a . 1 = delta1(a) is an
    # invariant twist that takes the tensor path; R does not change,
    # because a x a is central
    from lazytwist import hopf

    S3 = groups("S3")
    a = GTensor(S3, 1, {(0,): 2, **{(x,): 1 for x in range(S3.order)
                                    if S3.element_order(x) == 2}})
    F = gauge(a, GTensor.unit(S3, 2))
    assert hopf._abelian_support(F) is None and is_invariant(F)
    calls = []
    on_tensors = hopf._r_on_tensors
    monkeypatch.setattr(hopf, "_r_on_tensors",
                        lambda x: calls.append(x) or on_tensors(x))
    assert r_matrix(F) == r_matrix(GTensor.unit(S3, 2))
    assert calls == [F]


def test_abelian_supports_have_no_order_cap():
    # a twist on C4 x C4 with all 256 terms: the span of its support in
    # G x G is over the cap of 200, so only the dual path can invert and
    # decide it
    from tests_helpers import product_group

    G = product_group((4, 4))
    A = G.whole_subgroup()
    b = next(f for f in alternating_forms(A) if is_nondegenerate(f))
    c = invariant_cocycle_search(A, b, DualAction(G, A)).witness
    # times the coboundary of a random f with f(1) = 1
    rng = random.Random(4)
    one, *rest = [x.exponents for x in characters(A)]
    f = {x: CycNum.rational(rng.randrange(1, 6)) * root_of_unity(
        4, rng.randrange(4)) for x in rest}
    f[one] = CycNum.one()

    def add(x, y):
        return tuple((p + q) % 4 for p, q in zip(x, y))

    F = twist_from_cocycle(A, {(x, y): v * f[x] * f[y] / f[add(x, y)]
                               for (x, y), v in c.items()})
    assert len(F.terms) == 256
    with pytest.raises(OrderLimitExceeded):
        _tuple_group(G, 2, F.terms)
    assert F.mul(tensor_inv(F)) == GTensor.unit(G, 2)
    assert is_twist(F)
    tv = theta(F)
    assert tv.socle == A and tv.form == b


# -- tables carried from the dual --------------------------------------------


def _forward(A, x):
    from lazytwist import hopf

    return hopf._transform(hopf._char_table(A), x.terms, x.degree)


def _built_on_a_dual(groups):
    """(kind, A, x) for tensors x built on the dual of A by each constructor
    that does so: twists, their R-matrices and Drinfeld elements, R(A, b),
    and inverses of degree 1 and 2."""
    from lazytwist import hopf
    from tests_helpers import product_group

    built = []
    for A, c in _pair_cocycles(groups):
        F = twist_from_cocycle(A, c)
        R = r_matrix(F)
        built += [("twist", A, F), ("R", A, R),
                  ("Drinfeld element", A, drinfeld_element(R))]
    V = _klein(groups)
    built += [("R(A, b)", V, r_from_form(V, b)) for b in alternating_forms(V)]
    rng = random.Random(25)
    for H in _abelian_groups()[:3] + [product_group((4, 4))]:
        for degree in (1, 2):
            x = GTensor(H, degree, {(0,) * degree: 3})
            for _ in range(3):
                t = tuple(rng.randrange(H.order) for _ in range(degree))
                x = x.add(GTensor(H, degree, {t: _random_value(
                    rng, H.exponent())}))
            y = _invert(x)
            if y is not None:
                built.append((f"inverse, degree {degree}",
                              hopf._abelian_support(x), y))
    return built


def test_tensors_built_on_a_dual_carry_its_table(groups):
    # each constructor that inverts a table on the dual of A carries it,
    # and it is the forward transform of the tensor's terms
    built = _built_on_a_dual(groups)
    kinds = [kind for kind, _, _ in built]
    assert min(kinds.count(k) for k in ("twist", "R", "inverse, degree 1",
                                        "inverse, degree 2")) >= 4
    assert kinds.count("R(A, b)") == 2
    assert max(A.order for _, A, _ in built) == 16
    for _, A, x in built:
        elements, table = x.dual
        assert elements == A.elements
        assert table == _forward(A, x)
    # a tensor not built on a dual carries nothing
    assert _a4_twist(groups).dual is None
    assert r_matrix(_a4_twist(groups)).dual is not None
    assert _a4_twist(groups).mul(GTensor.unit(groups("A4"), 2)).dual is None


def test_terms_built_on_first_read_are_the_inverse_transform(groups,
                                                             monkeypatch):
    # a tensor built on a dual transforms its table back to the group basis
    # when its terms are first read, once, and keeps them
    from lazytwist import hopf

    built = _built_on_a_dual(groups)
    assert {kind for kind, _, _ in built} == {
        "twist", "R", "Drinfeld element", "R(A, b)", "inverse, degree 1",
        "inverse, degree 2"}
    calls = []
    transform = hopf._transform
    monkeypatch.setattr(hopf, "_transform", lambda *a, inverse=False: (
        calls.append(inverse) or transform(*a, inverse=inverse)))
    for _, A, x in built:
        _, table = x.dual
        want = GTensor(A.parent, x.degree, transform(
            hopf._char_table(A), table, x.degree, inverse=True))
        del calls[:]
        assert x.terms == want.terms and x.terms is x.terms
        assert x == want and hash(x) == hash(want)
        assert x.to_json() == want.to_json() and repr(x) == repr(want)
        assert x.support_elements() == want.support_elements()
        assert calls == [True]


def test_a_carried_table_is_read_on_its_own_subgroup_only(groups):
    # on a subgroup with other elements, or on another group with the same
    # element indices, the tensor is transformed as if it carried nothing
    from lazytwist import hopf
    from tests_helpers import product_group

    G = product_group((2, 4))
    whole = G.whole_subgroup()
    C4 = next(s for s in normal_abelian_subgroups(G) if s.order == 4
              and len(s.abelian_structure()) == 1)
    b = alternating_forms(C4)[0]
    R = r_from_form(C4, b)
    assert hopf._on_dual(C4, R) is R.dual[1]
    on_whole = hopf._on_dual(whole, R)
    assert on_whole == _forward(whole, R)
    assert len(on_whole) == 64 != len(R.dual[1])
    assert cocycle_from_twist(whole, R) == on_whole
    # a planted table of the wrong values is read on its subgroup only
    planted = GTensor(G, 2, R.terms)
    planted.dual = (whole.elements, {p: CycNum.zero() for p in on_whole})
    assert cocycle_from_twist(whole, planted) == planted.dual[1]
    assert cocycle_from_twist(C4, planted) == R.dual[1]
    # same element indices, another group
    H = product_group((8,))
    assert H.whole_subgroup().elements == whole.elements
    assert hopf._on_dual(H.whole_subgroup(), planted) == \
        _forward(H.whole_subgroup(), planted)
    # the carried table is the caller's no longer: changing either side
    # leaves the other as it was
    V = _klein(groups)
    c = dict(next(c for A, c in _pair_cocycles(groups) if A == V))
    F = twist_from_cocycle(V, c)
    c[next(iter(c))] = CycNum.zero()
    got = cocycle_from_twist(V, F)
    assert got == _forward(V, F)
    got[next(iter(got))] = CycNum.zero()
    assert cocycle_from_twist(V, F) == _forward(V, F)


def test_equality_and_hash_ignore_the_carried_table(groups):
    V = _klein(groups)
    for b in alternating_forms(V):
        R = r_from_form(V, b)
        plain = GTensor(R.group, 2, R.terms)
        assert R.dual is not None and plain.dual is None
        assert R == plain and hash(R) == hash(plain)
        assert R.key() == plain.key()


def test_theta_of_a_realized_cocycle_on_an_order_16_socle(groups,
                                                         monkeypatch):
    # D8 x C2^3: the twist of a witnessed invariant cocycle on an order-16
    # socle is a twist whose theta is the pair back; it reads the tables it
    # carries, while from its terms alone is_twist and theta each transform
    # it forward once (theta reads the socle and form off R's exponents)
    from lazytwist import hopf
    from lazytwist.lazy import bg_enumerate

    G = named_group(groups, "D8xC2xC2xC2")
    x = next(x for x in bg_enumerate(G) if x.subgroup.order == 16
             and invariant_cocycle_search(
                 x.subgroup, x.form, DualAction(G, x.subgroup)).witness)
    A, b = x.subgroup, x.form
    c = invariant_cocycle_search(A, b, DualAction(G, A)).witness
    F = twist_from_cocycle(A, c)
    plain = GTensor(G, 2, F.terms)
    forward = []
    transform = hopf._transform
    monkeypatch.setattr(hopf, "_transform", lambda *a, inverse=False: (
        forward.append(a) if not inverse else None) or transform(
            *a, inverse=inverse))
    assert is_twist(F) and is_invariant(F)
    value = theta(F)
    assert value.socle == A and value.form == b
    assert is_nondegenerate(b)
    assert forward == []
    # the same verdicts from the terms alone
    assert is_twist(plain)
    assert theta(plain) == value
    assert len(forward) == 2
    assert cocycle_from_twist(A, plain) == c


def _carried_twists(groups):
    """Twists built on the dual of every abelian normal A of A4, D8, Q8, S4
    and Wall32: for the trivial cocycle and each invariant-cocycle-search
    witness beta_b on A, F(c) and F(c d(lambda)) for a random lambda on
    A's dual with lambda(1) = 1; the coboundary mostly breaks invariance."""
    from lazytwist.lazy import bg_enumerate

    rng = random.Random(28)
    out = []
    for name in ["A4", "D8", "Q8", "S4", "Wall32"]:
        G = groups(name)
        witnessed = [(x.subgroup, invariant_cocycle_search(
            x.subgroup, x.form, DualAction(G, x.subgroup)).witness)
            for x in bg_enumerate(G)]
        for A in normal_abelian_subgroups(G):
            one, *rest = duals = [x.exponents for x in characters(A)]
            ds = A.invariant_factors()
            cocycles = [{(x, y): CycNum.one() for x in duals for y in duals}]
            cocycles += [c for B, c in witnessed if B == A and c is not None]
            lam = {x: root_of_unity(4, rng.randrange(4)) * rng.randrange(1, 4)
                   for x in rest}
            lam[one] = CycNum.one()
            for c in cocycles:
                out.append(twist_from_cocycle(A, c))
                out.append(twist_from_cocycle(A, {
                    (x, y): v * lam[x] * lam[y] / lam[tuple(
                        (p + q) % d for p, q, d in zip(x, y, ds))]
                    for (x, y), v in c.items()}))
    return out


def test_is_invariant_on_the_table_matches_the_terms(groups, monkeypatch):
    # a twist built on the dual of a normal A is decided on its table, and
    # agrees with the lookup of each term at its conjugate; an inverse built
    # on a non-normal abelian support is decided on its terms
    from lazytwist import hopf

    twists = _carried_twists(groups)
    assert all(F._subgroup.is_normal() for F in twists)
    S3, A4 = groups("S3"), groups("A4")
    t = next(x for x in range(S3.order) if S3.element_order(x) == 2)
    c3 = next(x for x in range(A4.order) if A4.element_order(x) == 3)
    inverses = [tensor_inv(GTensor(S3, 2, {(0, 0): 2, (t, 0): 1})),
                tensor_inv(GTensor(S3, 1, {(0,): 3, (t,): 1})),
                tensor_inv(GTensor(A4, 2, {(0, 0): 2, (c3, c3): 1}))]
    assert not any(x._subgroup.is_normal() for x in inverses)
    transform = hopf._transform
    inverse_transforms = []
    monkeypatch.setattr(hopf, "_transform", lambda *a, inverse=False: (
        inverse_transforms.append(a[2]) if inverse else None) or transform(
            *a, inverse=inverse))
    on_table = [is_invariant(F) for F in twists]
    assert inverse_transforms == []
    on_terms = [is_invariant(x) for x in inverses]
    assert inverse_transforms == [x.degree for x in inverses]
    plain = [GTensor(x.group, x.degree, x.terms) for x in twists + inverses]
    assert [is_invariant(x) for x in plain] == on_table + on_terms
    assert on_table.count(True) >= 30 and on_table.count(False) >= 10
    assert on_terms == [False] * 3
    # the term path builds no conjugated tensor
    monkeypatch.setattr(GTensor, "conjugate_diagonal", None)
    assert [is_invariant(x) for x in plain] == on_table + on_terms


def test_drinfeld_element_on_the_table_matches_the_loop(groups):
    from lazytwist.lazy import bg_enumerate
    from tests_helpers import loop_drinfeld_element

    Rs = [r_from_form(x.subgroup, x.form)
          for name in ["A4", "D8xC2", "C27sd", "Wall32"]
          for x in bg_enumerate(named_group(groups, name))]
    Rs += [r_matrix(twist_from_cocycle(A, c))
           for A, c in _pair_cocycles(groups)]
    assert len(Rs) >= 30 and all(R.dual is not None for R in Rs)
    # R^(sigma, sigma^-1) = R^(sigma, sigma) = 1 on a bicharacter of an
    # alternating form: twists and inverses built on a dual tell the two
    # apart
    others = [x for kind, _, x in _built_on_a_dual(groups)
              if x.degree == 2 and kind != "R"]
    units = []
    for R in Rs + others:
        u = drinfeld_element(R)
        assert u.dual is not None and u.degree == 1
        want = loop_drinfeld_element(GTensor(R.group, 2, R.terms))
        assert u == want and u.key() == want.key()
        units.append(u == GTensor.unit(R.group, 1))
    assert all(units[:len(Rs)]) and not all(units)


def test_drinfeld_element_of_a_carried_twist_builds_no_terms(groups,
                                                             monkeypatch):
    # from a cocycle to the Drinfeld element of its twist's R, everything
    # is read on the dual: no transform runs and neither F nor R builds its
    # terms, until they are read, once each
    from lazytwist import hopf
    from tests_helpers import loop_drinfeld_element

    calls = []
    transform = hopf._transform
    monkeypatch.setattr(hopf, "_transform", lambda *a, inverse=False: (
        calls.append((a[2], inverse)) or transform(*a, inverse=inverse)))
    cases = _pair_cocycles(groups)
    assert len(cases) >= 10
    for A, c in cases:
        del calls[:]
        F = twist_from_cocycle(A, c)
        R = r_matrix(F)
        u = drinfeld_element(R)
        assert calls == []
        F.terms, F.terms, R.terms
        assert calls == [(2, True), (2, True)]
        assert u == loop_drinfeld_element(GTensor(R.group, 2, R.terms))
        assert calls == [(2, True), (2, True), (1, True)]


# -- R as an exponent matrix, and theta read off it --------------------------


def _degenerate_twists():
    """Twists on the whole of C2^3, C2 x C4 and C4 x C4 for every form,
    realized by invariant-cocycle-search witnesses: a degenerate form gives
    a socle strictly between 1 and the support's span."""
    from tests_helpers import product_group

    out = []
    for ds in [(2, 2, 2), (2, 4), (4, 4)]:
        G = product_group(ds)
        A = G.whole_subgroup()
        for b in alternating_forms(A):
            c = invariant_cocycle_search(A, b, DualAction(G, A)).witness
            out.append(twist_from_cocycle(A, c))
    return out


def _in_two_labellings(corpus, seed):
    """The corpus, then each tensor's terms moved to its group relabelled
    by `relabelled(G, seed)`: tensors that carry no table."""
    from tests_helpers import relabelling, relabelled

    moved = {}
    out = list(corpus)
    for x in corpus:
        G = x.group
        if id(G) not in moved:
            moved[id(G)] = relabelled(G, seed), relabelling(G.order, seed)
        H, new_of = moved[id(G)]
        out.append(GTensor(H, x.degree, {tuple(new_of[a] for a in t): c
                                         for t, c in x.terms.items()}))
    return out


def _r_corpus(groups):
    return _in_two_labellings(_dual_path_corpus(groups) + _carried_twists(
        groups) + _degenerate_twists(), 29)


def _outcome(fn, x):
    from lazytwist.hopf import NotATwist, NotInvariant, ThetaContractViolated

    try:
        return fn(x)
    except (NotATwist, NotInvariant, ThetaContractViolated) as e:
        return type(e), str(e)


def test_r_matrix_exponents_match_the_quotient_sweep(groups, monkeypatch):
    # R^ read as the bicharacter of an exponent matrix is the table of
    # quotients the axiom sweep checks, with the same verdict, on tensors
    # built on a dual and on the same terms under another labelling
    from lazytwist import hopf
    from lazytwist.hopf import NotATwist, NotInvariant

    corpus = _r_corpus(groups)

    def table(x):
        R = r_matrix(x)
        return R._subgroup, R.dual[1]

    exponents = [_outcome(table, x) for x in corpus]
    built = [t for t in exponents if type(t[0]) is not type]
    # each R of the exponent path has a root of unity of _roots as a value
    for A, hat in built:
        roots = hopf._roots(hopf._space(A).L)[0]
        assert set(map(id, hat.values())) <= set(map(id, roots))
    assert len(built) >= 60
    assert sum(t[0] is NotInvariant for t in exponents) >= 20
    assert sum(t[0] is NotATwist for t in exponents) == 4
    assert {A.order for A, _ in built} >= {1, 4, 8, 9, 16}
    # the quotient and axiom sweep, with the exponent path refused
    monkeypatch.setattr(hopf, "_bicharacter", lambda A, value: None)
    assert [_outcome(table, x) for x in corpus] == exponents


def _doctored_twist(ds, point, value):
    """The tensor on the whole of (+) C_d whose table is 1 but for `value`
    at `point`: its R^ is antisymmetric and no bicharacter."""
    from lazytwist import hopf
    from tests_helpers import product_group

    A = product_group(ds).whole_subgroup()
    hat = {(rho, sigma): CycNum.one()
           for rho in itertools.product(*map(range, ds))
           for sigma in itertools.product(*map(range, ds))}
    hat[point] = value
    return hopf._from_dual(A, hat, 2)


def test_r_that_is_no_bicharacter_fails_as_the_sweep_says(monkeypatch):
    # a table that is no cocycle, let through the twist check: its R^ is
    # antisymmetric, as every quotient F^(sigma, rho) / F^(rho, sigma) is,
    # but no bicharacter, off the generators (C3 x C3) and at the
    # generators, with a value of the wrong order (C2 x C2, C2 x C4) or of
    # no root of unity (C2 x C4)
    from lazytwist import hopf
    from lazytwist.hopf import ThetaContractViolated

    monkeypatch.setattr(hopf, "_dual_twist",
                        lambda A, F: hopf._on_dual(A, F))
    cases = [
        ((3, 3), ((1, 1), (1, 2)), root_of_unity(3, 1)),
        ((2, 2), ((0, 1), (1, 0)), root_of_unity(4, 1)),
        ((2, 4), ((1, 0), (0, 1)), CycNum.rational(2)),
        ((2, 4), ((1, 0), (0, 1)), root_of_unity(4, 1)),
        ((2, 4), ((1, 1), (1, 2)), root_of_unity(4, 1)),
    ]
    twists = [_doctored_twist(*case) for case in cases]
    assert all(is_invariant(F) for F in twists)

    def raised(fn, F):
        with pytest.raises(ThetaContractViolated) as e:
            fn(F)
        return str(e.value)

    by_exponents = [raised(r_matrix, F) for F in twists]
    assert by_exponents == [raised(theta, F) for F in twists]
    assert set(by_exponents) <= {"R-matrix axiom (Delta x id) failed",
                                 "R-matrix axiom (id x Delta) failed"}
    # read as an R, the table of zeta_4 at the generator pair of C2 x C4
    # has a value of order 4 where gcd(2, 4) = 2 allows 2
    with pytest.raises(ThetaContractViolated, match="^pairing value is not"
                       " a root of unity of the right order$"):
        form_from_r(twists[3]._subgroup, twists[3])
    monkeypatch.setattr(hopf, "_bicharacter", lambda A, value: None)
    assert [raised(r_matrix, F) for F in twists] == by_exponents


def test_theta_reads_the_socle_and_form_that_r_terms_give(groups,
                                                         monkeypatch):
    # theta on the exponent matrix gives what socle(R) and form_from_r read
    # off R's terms, with the same verdict, wherever the socle sits in the
    # span of the support
    from lazytwist import hopf

    corpus = _r_corpus(groups)

    def pair(x):
        value = theta(x)
        return value.socle, value.form

    exponents = [_outcome(pair, x) for x in corpus]
    r_of = hopf.r_matrix
    monkeypatch.setattr(hopf, "r_matrix", lambda F: (
        lambda R: GTensor(R.group, 2, R.terms))(r_of(F)))
    assert [_outcome(pair, x) for x in corpus] == exponents
    spans = [(S.order, hopf._abelian_support(x).order)
             for x, (S, _) in zip(corpus, exponents) if type(S) is not type]
    assert len(spans) >= 60
    assert {(1, 8), (4, 4), (9, 9), (16, 16), (4, 8), (4, 16)} <= set(spans)


def test_theta_runs_one_forward_transform_at_most(groups, monkeypatch):
    # theta of a twist built on a dual runs no transform; from terms alone
    # it runs the forward transform onto the support's span once
    from lazytwist import hopf

    calls = []
    transform = hopf._transform
    monkeypatch.setattr(hopf, "_transform", lambda *a, inverse=False: (
        calls.append((a[2], inverse)) or transform(*a, inverse=inverse)))
    carried = [twist_from_cocycle(A, c) for A, c in _pair_cocycles(groups)]
    carried += _degenerate_twists()
    del calls[:]
    for F in carried:
        theta(F)
    assert calls == []
    for name, group in [("A4_twist", "A4"), ("Wall_F", "Wall32")]:
        F = packaged_tensor(name, groups(group))
        del calls[:]
        theta(F)
        assert calls == [(2, False)]


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

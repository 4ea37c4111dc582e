import itertools

import pytest

from lazytwist.cyclo import CycNum, root_of_unity
from lazytwist.groups import VerdictInconsistent, normal_abelian_subgroups
from lazytwist.fixtures import builtin_group
from lazytwist.hopf import r_from_form
from lazytwist.pontryagin import (
    AltForm,
    DualAction,
    NotInSubgroup,
    NotNormalSubgroup,
    EvenOrder,
    _dual_matrix,
    alternating_forms,
    cocycle_form,
    cocycle_from_form_odd,
    cocycle_identity_holds,
    invariant_cocycle_search,
    invariant_forms,
    is_nondegenerate,
    is_symmetric_type,
)
from tests_helpers import characters


def _klein_in(groups, name="A4"):
    G = groups(name)
    return next(s for s in normal_abelian_subgroups(G) if s.order == 4
                and len(s.abelian_structure()) == 2)


def test_characters_counts(groups):
    triv = groups("C1").whole_subgroup()
    assert len(characters(triv)) == 1
    C2 = groups("C2").whole_subgroup()
    vals = sorted(repr(chi.eval(1)) for chi in characters(C2))
    assert vals == ["-1", "1"]
    V = _klein_in(groups)
    assert len(characters(V)) == 4
    # each nontrivial element generates the kernel of exactly one character
    for a in V.elements[1:]:
        kernels = [chi for chi in characters(V)
                   if set(chi.kernel()) == {0, a}]
        assert len(kernels) == 1


def test_characters_form_group(groups):
    for name in ["V4", "C6", "C8"]:
        A = groups(name).whole_subgroup()
        chars = characters(A)
        keys = {chi.exponents for chi in chars}
        for x in chars:
            for y in chars:
                assert x.mul(y).exponents in keys
        # multiplicativity chi(ab) = chi(a)chi(b), exhaustively
        G = A.parent
        for chi in chars:
            for a in A.elements:
                for b in A.elements:
                    assert chi.eval(G.table[a][b]) == chi.eval(a) * chi.eval(b)


def test_eval_character_examples(groups):
    V = _klein_in(groups)
    triv = characters(V)[0]
    assert all(triv.eval(a) == CycNum.one() for a in V.elements)
    C2 = groups("C2").whole_subgroup()
    nontriv = characters(C2)[1]
    assert nontriv.eval(1) == CycNum.rational(-1)
    W3 = groups("Wr_3")
    nine = next(s for s in normal_abelian_subgroups(W3) if s.order == 9)
    chi = characters(nine)[3]  # exponents (1, 0)
    assert chi.exponents == (1, 0)
    g1 = nine.abelian_structure()[0][0]
    g2 = nine.abelian_structure()[1][0]
    prod = W3.table[g1][g2]
    assert chi.eval(prod) == root_of_unity(3, 1)


def test_eval_character_outside(groups):
    A4 = groups("A4")
    V = _klein_in(groups)
    chi = characters(V)[1]
    outside = next(x for x in range(A4.order) if x not in V)
    with pytest.raises(NotInSubgroup):
        chi.eval(outside)


def test_alternating_forms_counts(groups):
    V = _klein_in(groups)
    assert len(alternating_forms(V)) == 2
    nine = next(s for s in normal_abelian_subgroups(groups("C27sd"))
                if s.order == 9)
    assert len(alternating_forms(nine)) == 3
    C8 = groups("C8").whole_subgroup()
    forms = alternating_forms(C8)
    assert len(forms) == 1 and forms[0].is_trivial()


def test_alternating_forms_group_closure(groups):
    from math import gcd
    for name in ["V4", "C27sd", "Wall32"]:
        G = groups(name)
        for A in normal_abelian_subgroups(G):
            if A.order > 16:
                continue
            forms = alternating_forms(A)
            ds = [d for _, d in A.abelian_structure()]
            expected = 1
            for i in range(len(ds)):
                for j in range(i + 1, len(ds)):
                    expected *= gcd(ds[i], ds[j])
            assert len(forms) == expected
            keys = {f.matrix for f in forms}
            for f in forms:
                assert f.inv().matrix in keys
                for g in forms:
                    assert f.mul(g).matrix in keys


def test_alternating_forms_against_function_enumeration(groups):
    # brute force: all functions Ahat x Ahat -> roots of unity that are
    # bilinear and alternating, for small duals where enumeration is feasible
    for name in ["C2", "C3", "V4"]:
        A = builtin_group(name).whole_subgroup()
        ds = [d for _, d in A.abelian_structure()]
        duals = list(itertools.product(*(range(d) for d in ds)))
        L = 1
        for d in ds:
            L = L * d // __import__("math").gcd(L, d)

        def add(x, y):
            return tuple((a + b) % d for a, b, d in zip(x, y, ds))

        count = 0
        for table in itertools.product(range(L), repeat=len(duals) ** 2):
            vals = {pair: t for pair, t in
                    zip(itertools.product(duals, duals), table)}
            if any(vals[(x, x)] % L for x in duals):
                continue
            ok = True
            for x in duals:
                for y in duals:
                    for z in duals:
                        if (vals[(add(x, y), z)] - vals[(x, z)] - vals[(y, z)]) % L:
                            ok = False
                            break
                        if (vals[(x, add(y, z))] - vals[(x, y)] - vals[(x, z)]) % L:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if ok:
                count += 1
        assert count == len(alternating_forms(A))


def test_is_nondegenerate(groups):
    V = _klein_in(groups)
    forms = alternating_forms(V)
    assert not is_nondegenerate(forms[0]) and is_nondegenerate(forms[1])
    C4 = groups("C4").whole_subgroup()
    assert not is_nondegenerate(alternating_forms(C4)[0])
    triv = groups("C1").whole_subgroup()
    assert is_nondegenerate(AltForm.trivial(triv))


def test_radical_against_all_pairings():
    from tests_helpers import abelian_types, product_group
    for order in range(1, 17):
        for ds in abelian_types(order):
            A = product_group(ds).whole_subgroup()
            duals = list(itertools.product(
                *(range(d) for _, d in A.abelian_structure())))
            for b in alternating_forms(A):
                assert b.radical() == [
                    rho for rho in duals
                    if all(b.value_exponent(rho, sigma)[0] == 0
                           for sigma in duals)], (ds, b.matrix)


def test_is_symmetric_type(groups):
    assert is_symmetric_type(groups("V4").whole_subgroup())
    assert not is_symmetric_type(groups("C4").whole_subgroup())
    W = groups("Wall32")
    z4xz2 = next(s for s in normal_abelian_subgroups(W)
                 if [d for _, d in s.abelian_structure()] == [2, 4])
    assert not is_symmetric_type(z4xz2)


def test_nondegenerate_implies_symmetric_type_exhaustive():
    from tests_helpers import abelian_types, product_group
    # all abelian groups of order <= 16
    specs = []
    for order in range(1, 17):
        specs.extend(abelian_types(order))
    for ds in specs:
        A = product_group(ds).whole_subgroup()
        for b in alternating_forms(A):
            if is_nondegenerate(b) and A.order > 1:
                assert is_symmetric_type(A), (ds, b.matrix)




def test_invariant_forms(groups):
    A4 = groups("A4")
    V = _klein_in(groups)
    assert len(invariant_forms(V, DualAction(A4, V),
                               only_nondegenerate=True)) == 1
    C27 = groups("C27sd")
    for E in (s for s in normal_abelian_subgroups(C27) if s.order == 9):
        act = DualAction(C27, E)
        assert len(invariant_forms(E, act, only_nondegenerate=True)) == 2
    W3 = groups("Wr_3")
    Vw = next(s for s in normal_abelian_subgroups(W3) if s.order == 27)
    assert len(invariant_forms(Vw, DualAction(W3, Vw))) == 3


def test_dual_action_is_by_automorphisms(groups):
    A4 = groups("A4")
    V = _klein_in(groups)
    act = DualAction(A4, V)
    chars = characters(V)
    for g in range(A4.order):
        images = {act.on_exponents(g, chi.exponents) for chi in chars}
        assert len(images) == len(chars)
        for x in chars:
            for y in chars:
                assert act.on_character(g, x.mul(y)).exponents == \
                    act.on_character(g, x).mul(act.on_character(g, y)).exponents


def test_on_form_matches_conjugated_tensor(groups):
    # g.b is the push along a -> g a g^-1, so its bicharacter tensor is
    # R(A, b) conjugated diagonally by g; on C2^3 inside A4xC2 the action
    # on forms tells g from g^-1
    from tests_helpers import named_group
    for name in ["A4", "D8", "S4", "C27sd", "A4xC2"]:
        G = named_group(groups, name)
        for A in normal_abelian_subgroups(G):
            if A.order > 9:
                continue
            act = DualAction(G, A)
            for b in alternating_forms(A):
                R = r_from_form(A, b)
                for g in range(G.order):
                    assert r_from_form(A, act.on_form(g, b)) == \
                        R.conjugate_diagonal(g), (name, A, g)


def test_dual_action_rejects_bad_subgroups(groups):
    V = _klein_in(groups)
    with pytest.raises(NotNormalSubgroup):
        DualAction(builtin_group("A4"), V)
    S3 = groups("S3")
    transposition = next(x for x in range(S3.order)
                         if S3.element_order(x) == 2)
    with pytest.raises(NotNormalSubgroup):
        DualAction(S3, S3.subgroup({transposition}))


def test_dual_maps_check_orders(groups):
    # a generator of order 2 sent to one of order 4 is not a homomorphism
    C2, C4 = groups("C2").whole_subgroup(), groups("C4").whole_subgroup()
    gen4 = C4.abelian_structure()[0][0]
    with pytest.raises(VerdictInconsistent):
        _dual_matrix(C2, C4, lambda a: gen4 if a else 0)
    with pytest.raises(NotInSubgroup):
        _dual_matrix(C4, C4.parent.subgroup({C4.parent.table[gen4][gen4]}),
                     lambda a: a)
    # a form with values of order 3 has no push to a dual of exponent 2
    C3xC3 = next(s for s in normal_abelian_subgroups(groups("C27sd"))
                 if s.order == 9)
    b = next(f for f in alternating_forms(C3xC3) if not f.is_trivial())
    V4 = groups("V4").whole_subgroup()
    with pytest.raises(VerdictInconsistent):
        b.push(V4, [(1, 0), (0, 1)])
    # a non-degenerate form does not descend to a proper subgroup
    b = next(f for f in alternating_forms(V4) if not f.is_trivial())
    with pytest.raises(VerdictInconsistent):
        b.descend(V4.parent.subgroup({V4.elements[1]}))


def test_cocycle_form_rejects_non_roots(groups):
    V = groups("V4").whole_subgroup()
    one = CycNum.one()
    c = {((1, 0), (0, 1)): one, ((0, 1), (1, 0)): CycNum.rational(2)}
    with pytest.raises(VerdictInconsistent):
        cocycle_form(V, c)


def test_cocycle_from_form_odd(groups):
    C27 = groups("C27sd")
    E = next(s for s in normal_abelian_subgroups(C27) if s.order == 9)
    act = DualAction(C27, E)
    for b in invariant_forms(E, act, only_nondegenerate=True):
        c = cocycle_from_form_odd(E, b)
        assert cocycle_identity_holds(E, c)
        assert cocycle_form(E, c) == b
        # invariance is inherited from the form
        for g in C27.generating_set():
            for (rho, sigma), v in c.items():
                moved = (act.on_exponents(g, rho), act.on_exponents(g, sigma))
                assert c[moved] == v
    # trivial form gives the constant cocycle
    c = cocycle_from_form_odd(E, alternating_forms(E)[0])
    assert all(v == CycNum.one() for v in c.values())


def test_cocycle_from_form_odd_rejects_even(groups):
    V = _klein_in(groups)
    with pytest.raises(EvenOrder):
        cocycle_from_form_odd(V, alternating_forms(V)[0])


def test_odd_roundtrip_exhaustive():
    from tests_helpers import abelian_types, product_group
    # every alternating form on every abelian group of odd order <= 27
    for order in [1, 3, 5, 7, 9, 11, 13, 15, 25, 27]:
        for ds in abelian_types(order):
            A = product_group(ds).whole_subgroup()
            for b in alternating_forms(A):
                c = cocycle_from_form_odd(A, b)
                assert cocycle_identity_holds(A, c)
                assert cocycle_form(A, c) == b


def test_invariant_cocycle_search_a4(groups):
    A4 = groups("A4")
    V = _klein_in(groups)
    act = DualAction(A4, V)
    b = invariant_forms(V, act, only_nondegenerate=True)[0]
    res = invariant_cocycle_search(V, b, act)
    assert res.argument == "witness"
    assert cocycle_identity_holds(V, res.witness)
    assert cocycle_form(V, res.witness) == b


def test_invariant_cocycle_search_explicit_witness(groups):
    # the explicit table with c(e1^, e1^) = -1 and c(e1^, e2^) = 1 is a
    # valid invariant cocycle for the nondegenerate form
    A4 = groups("A4")
    V = _klein_in(groups)
    act = DualAction(A4, V)
    b = invariant_forms(V, act, only_nondegenerate=True)[0]
    chars = characters(V)
    lookup = {}
    for a in V.elements[1:]:
        chi = next(x for x in chars if set(x.kernel()) == {0, a})
        lookup[a] = chi.exponents
    e1, e2, e3 = V.elements[1:]
    h1, h2, h3 = lookup[e1], lookup[e2], lookup[e3]
    one = (0, 0)
    minus, plus = CycNum.rational(-1), CycNum.one()
    c = {(one, x): plus for x in [one, h1, h2, h3]}
    c.update({(x, one): plus for x in [h1, h2, h3]})
    for x in (h1, h2, h3):
        c[(x, x)] = minus
    # off-diagonal values forced around the orbit of (h1, h2)
    ordered = {}
    sigma = next(g for g in range(A4.order)
                 if act.on_exponents(g, h1) == h2
                 and act.on_exponents(g, h2) == h3)
    pair = (h1, h2)
    for _ in range(3):
        ordered[pair] = plus
        pair = (act.on_exponents(sigma, pair[0]),
                act.on_exponents(sigma, pair[1]))
    for (x, y), v in list(ordered.items()):
        c[(x, y)] = v
        c[(y, x)] = v * b.eval(x, y)
    assert cocycle_identity_holds(V, c)
    assert cocycle_form(V, c) == b


def test_invariant_cocycle_search_negative(groups):
    # swap action on the Klein four inside the order-8 wreath product
    D8 = groups("D8")
    for K in (s for s in normal_abelian_subgroups(D8)
              if s.order == 4 and is_symmetric_type(s)):
        act = DualAction(D8, K)
        b = invariant_forms(K, act, only_nondegenerate=True)[0]
        res = invariant_cocycle_search(K, b, act)
        assert res.witness is None
        assert res.argument == "contradiction"


def test_invariant_cocycle_search_trivial(groups):
    V4 = groups("V4")
    A = V4.whole_subgroup()
    act = DualAction(V4, A)
    res = invariant_cocycle_search(A, alternating_forms(A)[0], act)
    assert res.argument == "witness"
    assert all(v == CycNum.one() for v in res.witness.values())

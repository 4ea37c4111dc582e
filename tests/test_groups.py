import pytest

import lazytwist.groups as groups_module
from lazytwist.groups import (
    NotAGroup,
    OrderLimitExceeded,
    Subgroup,
    VerdictInconsistent,
    automorphism_group,
    center,
    class_preserving_auts,
    find_isomorphism,
    from_permutations,
    from_table,
    normal_abelian_subgroups,
)
from lazytwist.fixtures import _group_from_elements, wall_named_elements
from tests_helpers import (
    brute_force_homs,
    named_group,
    relabelled,
)


def test_from_table_trivial_and_z2():
    G = from_table([[0]])
    assert G.order == 1
    G = from_table([[0, 1], [1, 0]])
    assert G.order == 2 and G.inverses == (0, 1)


def test_from_table_identity_relocation():
    # identity sits at index 1 here
    G = from_table([[1, 0], [0, 1]])
    assert G.order == 2
    assert G.table[0][0] == 0


def test_from_table_broken_associativity():
    # a quasigroup that is not a group: rows/cols are permutations but
    # association fails
    t = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]
    with pytest.raises(NotAGroup) as err:
        from_table(t)
    assert err.value.witness is not None


def test_from_permutations_examples():
    A4 = from_permutations(4, [[2, 1, 4, 3], [2, 3, 1, 4]])
    assert A4.order == 12
    S3 = from_permutations(3, [[2, 1, 3], [2, 3, 1]])
    assert S3.order == 6
    triv = from_permutations(2, [])
    assert triv.order == 1


def test_from_permutations_limit():
    with pytest.raises(OrderLimitExceeded):
        from_permutations(8, [[2, 3, 4, 5, 6, 7, 8, 1], [2, 1, 3, 4, 5, 6, 7, 8]],
                          limit=100)


def test_from_permutations_passes_validation(groups):
    for name in ["A4", "S3", "S4"]:
        G = groups(name)
        assert from_table([list(r) for r in G.table]).order == G.order


def test_conjugacy_classes(groups):
    assert sorted(len(c) for c in groups("A4").conjugacy_classes()) == [1, 3, 4, 4]
    assert sorted(len(c) for c in groups("S3").conjugacy_classes()) == [1, 2, 3]
    C6 = groups("C6")
    assert [len(c) for c in C6.conjugacy_classes()] == [1] * 6
    # identity class first
    assert groups("A4").conjugacy_classes()[0] == (0,)


def test_center(groups):
    assert center(groups("A4")).order == 1
    W = groups("Wall32")
    z = center(W)
    assert z.order == 2
    assert wall_named_elements(W)["u4"] in z
    C8 = groups("C8")
    assert center(C8).order == 8


def test_normal_abelian_subgroups_a4(groups):
    subs = normal_abelian_subgroups(groups("A4"))
    assert [s.order for s in subs] == [1, 4]
    V = subs[1]
    assert V.is_normal() and V.is_abelian()


def test_normal_abelian_subgroups_d8(groups):
    subs = normal_abelian_subgroups(groups("D8"))
    assert [s.order for s in subs] == [1, 2, 4, 4, 4]
    structures = sorted(tuple(d for _, d in s.abelian_structure())
                        for s in subs if s.order == 4)
    assert structures == [(2, 2), (2, 2), (4,)]


def test_normal_abelian_subgroups_order27(groups):
    subs = normal_abelian_subgroups(groups("C27sd"))
    assert [s.order for s in subs] == [1, 3, 9, 9, 9, 9]
    for s in subs:
        if s.order == 9:
            assert [d for _, d in s.abelian_structure()] == [3, 3]


def test_normal_subgroups_conjugation_stable(groups):
    for name in ["A4", "D8", "Q8", "S4", "Wall32"]:
        G = groups(name)
        for s in normal_abelian_subgroups(G):
            els = set(s.elements)
            assert all(G.conjugate(g, a) in els
                       for g in range(G.order) for a in els)


def test_class_preserving_auts_a4(groups):
    auts, idx = class_preserving_auts(groups("A4"))
    assert idx == 1
    assert len(auts) == 12


def test_class_preserving_auts_wall(groups):
    W = groups("Wall32")
    auts, idx = class_preserving_auts(W)
    assert idx == 2
    ne = wall_named_elements(W)
    u4 = ne["u4"]
    # the outer coset contains alpha: s -> u^4 s, t -> u^4 t, u -> u
    target = {ne["s"]: W.table[u4][ne["s"]],
              ne["t"]: W.table[u4][ne["t"]],
              ne["u"]: ne["u"]}
    assert any(all(phi(k) == v for k, v in target.items()) for phi in auts)


def test_class_preserving_auts_cyclic(groups):
    for n in [3, 5, 8]:
        auts, idx = class_preserving_auts(groups(f"C{n}"))
        assert idx == 1 and len(auts) == 1


def test_autc_is_group_and_class_preserving(groups):
    for name in ["S3", "D8", "Wall32"]:
        G = groups(name)
        auts, _ = class_preserving_auts(G)
        images = {a.images for a in auts}
        classes = G.conjugacy_classes()
        class_of = {x: i for i, c in enumerate(classes) for x in c}
        for a in auts:
            inverse = [0] * G.order
            for x, y in enumerate(a.images):
                inverse[y] = x
            assert tuple(inverse) in images
            assert all(class_of[a(x)] == class_of[x] for x in range(G.order))
            for b in auts:
                assert tuple(a(b(x)) for x in range(G.order)) in images
        inner = {tuple(G.conjugate(g, x) for x in range(G.order))
                 for g in range(G.order)}
        assert inner <= images


def test_abelian_structure_examples(groups):
    assert [d for _, d in groups("V4").whole_subgroup().abelian_structure()] \
        == [2, 2]
    assert [d for _, d in groups("C6").whole_subgroup().abelian_structure()] \
        == [6]
    W = groups("Wall32")
    sub8 = [s for s in normal_abelian_subgroups(W)
            if s.order == 8 and len(s.abelian_structure()) == 2]
    assert sub8 and [d for _, d in sub8[0].abelian_structure()] == [2, 4]


def test_abelian_structure_is_bijective(groups):
    for name in ["V4", "C8", "C27sd", "Wall32"]:
        G = groups(name)
        for s in normal_abelian_subgroups(G):
            coords = s.element_coordinates()
            assert len(coords) == s.order
            orders = [d for _, d in s.abelian_structure()]
            total = 1
            for d in orders:
                total *= d
            assert total == s.order


def test_subgroup_rejects_non_closed(groups):
    A4 = groups("A4")
    three_cycle = next(x for x in range(A4.order) if A4.element_order(x) == 3)
    with pytest.raises(NotAGroup):
        Subgroup(A4, [0, three_cycle])


def test_order_limit(groups):
    with pytest.raises(OrderLimitExceeded):
        normal_abelian_subgroups(groups("Wall32"), limit=16)
    with pytest.raises(OrderLimitExceeded):
        class_preserving_auts(groups("Wall32"), limit=16)


SEARCH_GROUPS = ["S3", "D8", "Q8", "V4", "A4", "S4", "Wall32", "C27sd",
                 "D8xC2", "S4xC2"]


def test_searches_match_brute_force(groups):
    for name in SEARCH_GROUPS:
        G = named_group(groups, name)
        by_order = {}
        for x in range(G.order):
            by_order.setdefault(G.element_order(x), []).append(x)
        gens = G.generating_set()
        expected = brute_force_homs(
            G, G, [by_order[G.element_order(g)] for g in gens])
        assert [a.images for a in automorphism_group(G)] == expected, name

        classes = G.conjugacy_classes()
        class_of = {x: ci for ci, c in enumerate(classes) for x in c}
        expected_c = [im for im in brute_force_homs(
            G, G, [classes[class_of[g]] for g in gens])
            if all(class_of[im[x]] == class_of[x] for x in range(G.order))]
        auts, index = class_preserving_auts(G)
        assert [a.images for a in auts] == expected_c, name
        inner = {tuple(G.conjugate(g, x) for x in range(G.order))
                 for g in range(G.order)}
        assert index == len(expected_c) // len(inner), name


def test_automorphism_group_orders(groups):
    expected = {"D8": 8, "Q8": 24, "A4": 24, "S4": 24, "C2xC2xC2": 168,
                "D8xS3": 96}
    for name, order in expected.items():
        auts = automorphism_group(named_group(groups, name))
        assert len(auts) == order, name
        assert all(a.is_homomorphism() and a.is_bijective() for a in auts)


def test_find_isomorphism(groups):
    for name, seed in [("S4", 1), ("Wall32", 2), ("D8xC2", 3)]:
        G = named_group(groups, name)
        H = relabelled(G, seed)
        phi = find_isomorphism(G, H)
        assert phi is not None and phi.is_homomorphism() and phi.is_bijective()
    # C4 x| C4 and Q8 x C2 share element orders and class sizes, so only
    # the search itself can tell them apart
    c4_c4 = _group_from_elements(
        [(a, b) for a in range(4) for b in range(4)],
        lambda x, y: ((x[0] + (-1) ** x[1] * y[0]) % 4, (x[1] + y[1]) % 4),
        str, name="C4sdC4")
    q8_c2 = named_group(groups, "Q8xC2")
    assert sorted(map(len, c4_c4.conjugacy_classes())) == \
        sorted(map(len, q8_c2.conjugacy_classes()))
    assert sorted(c4_c4.element_order(x) for x in range(16)) == \
        sorted(q8_c2.element_order(x) for x in range(16))
    assert find_isomorphism(c4_c4, q8_c2) is None
    assert find_isomorphism(groups("S3"), groups("C6")) is None


def test_class_preserving_auts_certifies_inner(groups, monkeypatch):
    # the trivial endomorphism is no automorphism, so Inn is not inside Aut_c
    monkeypatch.setattr(groups_module, "_inner_automorphisms",
                        lambda G: {tuple(range(G.order)), (0,) * G.order})
    with pytest.raises(VerdictInconsistent):
        class_preserving_auts(groups("S3"))

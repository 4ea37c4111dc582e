import functools
import random
import time
from collections import Counter
from itertools import combinations
from math import prod

import pytest

import lazytwist.groups as groups_module
from lazytwist.groups import (
    NotAGroup,
    OrderLimitExceeded,
    Subgroup,
    VerdictInconsistent,
    _direct_factors,
    _orbit,
    _signatures,
    automorphism_generators,
    automorphism_group,
    center,
    class_preserving_auts,
    conjugacy_classes,
    find_isomorphism,
    from_permutations,
    from_table,
    normal_abelian_subgroups,
)
from lazytwist.lazy import h2_compute
from lazytwist.fixtures import (_group_from_elements, builtin_group,
                                builtin_names, wall_named_elements)
from tests_helpers import (
    SPLIT_GROUPS,
    all_subgroups,
    brute_force_homs,
    class_preserving_listing,
    cubic_associativity_witness,
    element_class_walks,
    element_direct_factors,
    entrywise_from_table,
    generated_automorphisms,
    generator_pruned_chain,
    generator_pruned_homs,
    is_bijective,
    is_homomorphism,
    lattice_normal_abelian_subgroups,
    loop_inverses,
    named_group,
    order_only_automorphisms,
    queue_permutations,
    random_loop,
    relabelled,
    signature_candidates,
    sweep_conjugacy_classes,
)


def test_from_table_trivial_and_z2():
    G = from_table([[0]])
    assert G.order == 1
    G = from_table([[0, 1], [1, 0]])
    assert G.order == 2 and G.inverses == (0, 1)


def test_from_table_hands_its_generators_over(monkeypatch):
    # Light's test and the group share one greedy generating set
    right = groups_module._right_generators
    calls = []
    monkeypatch.setattr(groups_module, "_right_generators",
                        lambda table: calls.append(1) or right(table))
    for name in ("D8", "A4", "C27sd"):
        table = builtin_group(name).table
        calls.clear()
        G = from_table(table)
        assert G.generating_set() == right(G.table)
        assert calls == [1], name


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
    a, b, c = err.value.witness
    assert t[t[a][b]][c] != t[a][t[b][c]]


def test_from_table_associativity_matches_cubic_check(groups):
    # the generator check against every triple, on random loops, on C2
    # times each loop and on relabelled groups; in C2 x L, with (c, q) at
    # index 2q + c, the first generator (1, e) associates with everything,
    # so the loop's failures show only at later generators
    rng = random.Random(9)
    tables = []
    for k in range(60):
        L = random_loop(4 + k % 5, rng)
        m = 2 * len(L)
        tables += [L, [[2 * L[x // 2][y // 2] + (x + y) % 2
                        for y in range(m)] for x in range(m)]]
    for name, seed in [("S4", 1), ("Wall32", 2), ("D8xS3", 3),
                       ("C27sd", 4)]:
        tables.append(relabelled(named_group(groups, name), seed).table)
    outcomes = set()
    for t in tables:
        oracle = cubic_associativity_witness(t)
        outcomes.add(oracle is None)
        if oracle is None:
            assert from_table(t).order == len(t)
            continue
        with pytest.raises(NotAGroup, match="associativity fails") as err:
            from_table(t)
        a, b, c = err.value.witness
        assert t[t[a][b]][c] != t[a][t[b][c]]
    assert outcomes == {True, False}


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
    # the bound is the largest order allowed
    S4 = [[2, 1, 3, 4], [2, 3, 4, 1]]
    assert from_permutations(4, S4, limit=24).order == 24
    with pytest.raises(OrderLimitExceeded):
        from_permutations(4, S4, limit=23)


def test_from_permutations_keeps_queue_order():
    # element indices fix every label and every JSON output
    for degree, gens in [(3, [[2, 1, 3], [2, 3, 1]]),
                         (4, [[2, 1, 4, 3], [2, 3, 1, 4]]),
                         (4, [[2, 1, 3, 4], [2, 3, 4, 1]])]:
        G = from_permutations(degree, gens)
        assert G.labels == tuple(groups_module._cycle_label(p)
                                 for p in queue_permutations(degree, gens))


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
    # the orbit walk gives the classes of the sweep over all of G, tuples
    # and order, on the builtins and the eight even-search products, in
    # their own and two other labellings
    for name in builtin_names() + SPLIT_GROUPS[:8]:
        G = named_group(groups, name)
        for H in (G, relabelled(G, 1), relabelled(G, 2)):
            assert conjugacy_classes(H) == sweep_conjugacy_classes(H), name


def test_center(groups):
    assert center(groups("A4")).order == 1
    W = groups("Wall32")
    z = center(W)
    assert z.order == 2
    assert wall_named_elements(W)["u4"] in z
    C8 = groups("C8")
    assert center(C8).order == 8
    # center and is_abelian test only G's generators: against commutation
    # with every element, on the builtins and the split products, in two
    # labellings
    for name in builtin_names() + SPLIT_GROUPS:
        G = named_group(groups, name)
        for H in (G, relabelled(G, 1)):
            n, t = H.order, H.table
            z = [a for a in range(n) if all(t[a][b] == t[b][a]
                                            for b in range(n))]
            assert center(H).elements == tuple(z), name
            assert H.is_abelian() == (len(z) == n), name


def test_is_normal_matches_conjugation_by_every_element(groups):
    seen = set()
    for name in ["S3", "D8", "Q8", "A4", "S4"]:
        G = groups(name)
        for s in all_subgroups(G):
            closed = all(G.conjugate(g, a) in s
                         for g in range(G.order) for a in s)
            assert Subgroup(G, s).is_normal() == closed, (name, s)
            seen.add(closed)
    assert seen == {True, False}


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


def test_normal_abelian_subgroups_match_oracles(groups):
    # the old lattice walk, and every subgroup filtered by normal and abelian
    for name in ["C2xC2xC2xC2", "C2xC4xC4", "C6xC6", "C3xC3xC3", "S4",
                 "Wall32", "C27sd", "D8xC2", "Q8xC2xC2", "D8xS3"]:
        G = named_group(groups, name)
        found = [s.elements for s in normal_abelian_subgroups(G)]
        assert found == lattice_normal_abelian_subgroups(G), name
        assert found == [s for s in all_subgroups(G)
                         if Subgroup(G, s).is_normal()
                         and Subgroup(G, s).is_abelian()], name


def test_direct_factors(groups):
    for name in SPLIT_GROUPS + ["S4", "Wall32", "C27sd", "Q8", "C8"]:
        G = named_group(groups, name)
        orders = None
        for seed in (None, 1, 2):
            H = G if seed is None else relabelled(G, seed)
            t, factors = H.table, _direct_factors(H)
            assert prod(map(len, factors)) == H.order, (name, seed)
            for F1, F2 in combinations(factors, 2):
                assert set(F1) & set(F2) == {0}, (name, seed)
                assert all(t[a][b] == t[b][a] for a in F1 for b in F2)
            span = {0}
            for F in factors:
                span = {t[x][f] for x in span for f in F}
            assert len(span) == H.order, (name, seed)
            # Krull-Remak-Schmidt: the factors are unique up to isomorphism
            if orders is None:
                orders, base = sorted(map(len, factors)), factors
            assert sorted(map(len, factors)) == orders, (name, seed)
        if "x" not in name:
            assert len(base) == 1, name
        for F in base:
            # no factor has two normal subgroups that split it
            K = _group_from_elements(F, lambda a, b: G.table[a][b], str,
                                     name=None)
            assert K.order <= 32
            normal = [set(s) for s in all_subgroups(K)
                      if 1 < len(s) < K.order and Subgroup(K, s).is_normal()]
            assert not any(A & B == {0} and len(A) * len(B) == K.order
                           for A, B in combinations(normal, 2)), (name, F)


# the class-mask walks against the element-set oracle: the builtins, the
# split products (the eight even-search products first) and three groups
# with hundreds of normal subgroups, each in two labellings
LATTICE_GROUPS = builtin_names() + SPLIT_GROUPS + [
    "D8xC2xC2xC2", "D8xD8", "Q8xC2xC2xC2"]


def test_class_mask_walks_match_the_element_walk(groups):
    for name in LATTICE_GROUPS:
        G = named_group(groups, name)
        for H in (G, relabelled(G, 5)):
            full, abelian = element_class_walks(H)
            masks = H.class_masks()
            for flag, oracle in ((False, full), (True, abelian)):
                walk = groups_module._class_subgroups(H, abelian=flag)
                assert [frozenset(masks.elements(S)) for S in walk] \
                    == oracle, (name, flag)
                assert [masks.order(S) for S in walk] \
                    == [len(S) for S in oracle], (name, flag)
            assert _direct_factors(H) == element_direct_factors(H), name


def test_one_class_precompute_per_h2(groups, monkeypatch):
    # both walks of one h2 share the class tables; groups whose R5 gate
    # stays shut (Wr_3, A4xS3) never walk the full lattice.  G keeps its
    # abelian normal subgroups, so each h2 runs on a new copy of the group
    built, walks = [], []
    tables, walk = groups_module._ClassMasks, groups_module._class_subgroups

    class Counted(tables):
        def __init__(self, G):
            built.append(G)
            super().__init__(G)

    def counted_walk(G, abelian=False):
        walks.append(abelian)
        return walk(G, abelian)

    monkeypatch.setattr(groups_module, "_ClassMasks", Counted)
    monkeypatch.setattr(groups_module, "_class_subgroups", counted_walk)
    report = h2_compute(named_group(groups, "D8xC6"))
    assert report.exact_order == 2
    assert len(built) == 1 and sorted(walks) == [False, True]
    for name in ["Wr_3", "A4xS3"]:
        del walks[:]
        h2_compute(groups_module.FiniteGroup(named_group(groups, name).table))
        assert walks == [True], name


def test_from_table_keeps_messages_and_witnesses(groups):
    # mutated tables give the entry-by-entry checks' message and witness,
    # and valid ones, the identity anywhere, the same relocated table
    rng = random.Random(23)
    cases = []
    for name, seed in [("S4", 1), ("D8xC2", 2), ("Wr_3", 3)]:
        G = relabelled(named_group(groups, name), seed)
        n, gens = G.order, set(G.generating_set())
        base = [list(row) for row in G.table]
        for bad in (1.0, "1", True, False, None, n, -1, n + 5):
            for _ in range(2):
                t = [list(row) for row in base]
                i, j = rng.randrange(n), rng.randrange(n)
                t[i][j] = bad
                if rng.random() < 0.5:
                    # a second bad entry further on is never named
                    t[n - 1][n - 1] = bad
                cases.append(t)
        # the identity moved away from 0, alone and with a broken row
        new_of = list(range(n))
        rng.shuffle(new_of)
        moved = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                moved[new_of[a]][new_of[b]] = new_of[base[a][b]]
        cases.append(moved)
        # associativity broken by swapping two entries of a row that is
        # neither the identity's nor a generator's, off the identity's
        # column
        for t0, e, ids in ((base, 0, gens), (moved, new_of[0],
                                             {new_of[g] for g in gens})):
            for _ in range(3):
                t = [list(row) for row in t0]
                x = rng.choice([x for x in range(n) if x != e
                                and x not in ids])
                a, b = rng.sample([y for y in range(n) if y != e], 2)
                t[x][a], t[x][b] = t[x][b], t[x][a]
                cases.append(t)
        # a monoid: G with an absorbing element, whose row has no identity
        cases.append([row + [n] for row in base] + [[n] * (n + 1)])
    outcomes = Counter()
    for t in cases:
        expected = entrywise_from_table(t)
        if isinstance(expected[0], str):
            outcomes[expected[0].split(" at ")[0]] += 1
            with pytest.raises(NotAGroup) as err:
                from_table(t)
            assert (str(err.value), err.value.witness) == expected
            if expected[0] == "associativity fails":
                assert cubic_associativity_witness(t) is not None
                if all(t[0][y] == y == t[y][0] for y in range(len(t))):
                    x, g, y = err.value.witness
                    assert t[t[x][g]][y] != t[x][t[g][y]]
        else:
            outcomes["group"] += 1
            G = from_table(t, labels=[str(v) for v in range(len(t))])
            assert G.table == tuple(map(tuple, expected[0]))
            assert G.labels == tuple(str(v) for v in expected[1])
    assert set(outcomes) == {"entry out of range", "associativity fails",
                             "row without identity (no inverse)", "group"}


def test_inverses_are_the_first_two_sided_ones(groups):
    # FiniteGroup takes, per element, the first two-sided inverse, also
    # where an earlier b has ab = 0 only on one side, and names the first
    # element that has none
    rng = random.Random(4)
    tables = [[[0, 1, 2, 3], [1, 2, 0, 0], [2, 3, 1, 0], [3, 0, 2, 1]],
              [[0, 1, 2], [1, 2, 1], [2, 1, 2]],
              [list(row) for row in relabelled(groups("S4"), 6).table]]
    tables += [random_loop(4 + k % 5, rng) for k in range(40)]
    seen = set()
    for t in tables:
        inverses, missing = loop_inverses(t)
        if missing is None:
            assert groups_module.FiniteGroup(t).inverses == inverses
            seen.add("found")
            continue
        with pytest.raises(NotAGroup,
                           match="element without a two-sided inverse") as err:
            groups_module.FiniteGroup(t)
        assert err.value.witness == missing
        seen.add("missing")
    assert seen == {"found", "missing"}


def test_subgroup_names_the_first_failing_product(groups):
    # the row-wise closure check names the pair the element loop names
    rng = random.Random(8)
    seen = set()
    for name in ["S4", "D8xC2"]:
        G = named_group(groups, name)
        t, inv = G.table, G.inverses
        for _ in range(60):
            es = sorted(set(rng.sample(range(G.order), rng.randrange(1, 6)))
                        | {0})
            expected = next((
                f"subgroup not closed under inverse: {a}" if inv[a] not in es
                else f"subgroup not closed: {a}*{b}"
                for a in es for b in es
                if inv[a] not in es or t[a][b] not in es), None)
            if expected is None:
                assert Subgroup(G, es).elements == tuple(es)
                seen.add(True)
                continue
            with pytest.raises(NotAGroup) as err:
                Subgroup(G, es)
            assert str(err.value) == expected
            seen.add(False)
    assert seen == {True, False}


def test_normal_subgroups_conjugation_stable(groups):
    for name in ["A4", "D8", "Q8", "S4", "Wall32"]:
        G = groups(name)
        for s in normal_abelian_subgroups(G):
            els = set(s.elements)
            assert all(G.conjugate(g, a) in els
                       for g in range(G.order) for a in els)


def test_class_preserving_auts_a4(groups):
    A4 = groups("A4")
    auts, idx = class_preserving_auts(A4)
    assert idx == 1
    assert len(generated_automorphisms(A4, auts)) == 12


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
    assert any(all(phi[k] == v for k, v in target.items())
               for phi in generated_automorphisms(W, auts))


def test_class_preserving_auts_cyclic(groups):
    for n in [3, 5, 8]:
        auts, idx = class_preserving_auts(groups(f"C{n}"))
        assert idx == 1 and auts == []


def test_autc_is_group_and_class_preserving(groups):
    for name in ["S3", "D8", "Wall32"]:
        G = groups(name)
        auts, _ = class_preserving_auts(G)
        classes = G.conjugacy_classes()
        class_of = {x: i for i, c in enumerate(classes) for x in c}
        for a in auts:
            assert is_homomorphism(a) and is_bijective(a), name
            assert all(class_of[a(x)] == class_of[x] for x in range(G.order))
        images = generated_automorphisms(G, auts)
        assert images == class_preserving_listing(G), name
        inner = {tuple(G.conjugate(g, x) for x in range(G.order))
                 for g in range(G.order)}
        assert inner <= set(images)


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


def test_invariant_factors_are_built_once(groups):
    # _space keys its coordinates by the invariant factors, which each
    # subgroup builds once
    from lazytwist.pontryagin import _space

    for s in normal_abelian_subgroups(groups("Wall32")):
        factors = s.invariant_factors()
        assert factors == tuple(d for _, d in s.abelian_structure())
        assert _space(s).ds == factors and s.invariant_factors() is factors


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

        expected_c = class_preserving_listing(G)
        auts, index = class_preserving_auts(G)
        assert generated_automorphisms(G, auts) == expected_c, name
        inner = {tuple(G.conjugate(g, x) for x in range(G.order))
                 for g in range(G.order)}
        assert index == len(expected_c) // len(inner), name


def test_automorphism_group_orders(groups):
    expected = {"D8": 8, "Q8": 24, "A4": 24, "S4": 24, "C2xC2xC2": 168,
                "D8xS3": 96}
    for name, order in expected.items():
        auts = automorphism_group(named_group(groups, name))
        assert len(auts) == order, name
        assert all(is_homomorphism(a) and is_bijective(a) for a in auts)


def test_find_isomorphism(groups):
    # uniform relabellings, so the signatures of G and H are matched
    # across different labels
    for name in ["S3", "Q8", "A4", "S4", "Wall32", "C27sd", "D8xC2", "D8xS3",
                 "D8xQ8"]:
        G = named_group(groups, name)
        for seed in (1, 2, 3):
            phi = find_isomorphism(G, relabelled(G, seed))
            assert phi is not None and is_homomorphism(phi) and \
                is_bijective(phi), (name, seed)
    # C4 x| C4 and Q8 x C2 share element orders and class sizes; the
    # numbers of square roots in their signatures tell them apart
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
    for seed in (1, 2):
        assert find_isomorphism(c4_c4, relabelled(q8_c2, seed)) is None
        assert find_isomorphism(relabelled(c4_c4, seed), q8_c2) is None
        assert find_isomorphism(groups("S3"),
                                relabelled(groups("C6"), seed)) is None


# every builtin, the even-search products and three products with
# thousands of automorphisms
AUT_GROUPS = ["A4", "C27sd", "D8", "Q8", "S3", "S4", "V4", "Wall32", "Wr_2",
              "Wr_3"] + [f"C{n}" for n in range(1, 9)] + SPLIT_GROUPS[:8] + [
              "D8xD8", "C2xC2xD8", "D8xQ8"]


@functools.cache
def _listing(name):
    G = named_group(builtin_group, name)
    return G, order_only_automorphisms(G)


def test_automorphism_generators_match_listing():
    for name in AUT_GROUPS:
        G, listing = _listing(name)
        gens, order = automorphism_generators(G)
        assert generated_automorphisms(G, gens) == listing, name
        assert order == len(listing), name


def test_automorphism_generators_widen_each_orbit():
    # a level's automorphisms fix the generators before g and move g, each
    # one to an image outside the orbit of g under those before it
    for name in AUT_GROUPS:
        G, _ = _listing(name)
        gens = G.generating_set()
        found, order = automorphism_generators(G)
        levels = {}
        for phi in found:
            i = next(i for i, g in enumerate(gens) if phi(g) != g)
            assert i >= max(levels, default=0), name  # level by level
            levels.setdefault(i, []).append(phi.images)
        product = 1
        for i, level in levels.items():
            for k, im in enumerate(level):
                assert all(im[h] == h for h in gens[:i]), name
                orbit = _orbit(gens[i], level[:k], lambda x, phi: phi[x])
                assert im[gens[i]] not in orbit, name
            product *= len(_orbit(gens[i], level, lambda x, phi: phi[x]))
        assert product == order, name


def test_automorphisms_preserve_signature():
    for name in AUT_GROUPS:
        G, listing = _listing(name)
        t, n = G.table, G.order
        expected = [
            (G.element_order(x),
             len({G.conjugate(g, x) for g in range(n)}),
             sum(1 for y in range(n) if t[y][y] == x),
             sum(1 for y in range(n) if t[t[y][y]][y] == x))
            for x in range(n)]
        signature = _signatures(G)
        assert signature == expected, name
        for im in listing:
            assert all(signature[im[x]] == signature[x]
                       for x in range(n)), name


def test_class_preserving_auts_certifies_inner(groups, monkeypatch):
    # a chain that loses the hits of its first level misses every
    # automorphism moving g_1, so conjugation by some generator of G does
    # not sift through it
    search, dropped = groups_module._hom_search, []

    def drop_first_level(G, H, labels_G, labels_H, pinned=(), first=False):
        found = search(G, H, labels_G, labels_H, pinned, first)
        if len(pinned) == 1 and found:
            dropped.append(found)
            return []
        return found

    monkeypatch.setattr(groups_module, "_hom_search", drop_first_level)
    for name in ["S3", "D8", "Wall32"]:
        dropped.clear()
        with pytest.raises(VerdictInconsistent,
                           match=r"Inn\(G\) is not a subgroup of Aut_c\(G\)"):
            class_preserving_auts(groups(name))
        assert dropped, name


# the search groups and the even-search products, each with two
# relabellings
PRUNING_GROUPS = SEARCH_GROUPS + [name for name in SPLIT_GROUPS[:8]
                                  if name not in SEARCH_GROUPS]


def test_pruning_changes_no_answer(groups):
    # labels at every element cut only subtrees without an automorphism
    # or isomorphism: the listing, the chain's generators in order and the
    # first isomorphism match the search that prunes only at generators
    for name in PRUNING_GROUPS:
        G = named_group(groups, name)
        variants = [G, relabelled(G, 1), relabelled(G, 2)]
        for X, Y in zip(variants, variants[1:] + variants[:1]):
            candidates = signature_candidates(X, X)
            assert [a.images for a in automorphism_group(X)] == \
                generator_pruned_homs(X, X, candidates), name
            gens, order = automorphism_generators(X)
            assert ([a.images for a in gens], order) == \
                generator_pruned_chain(X), name
            assert find_isomorphism(X, Y).images == generator_pruned_homs(
                X, Y, signature_candidates(X, Y), first=True)[0], name


def test_automorphism_generators_cross_the_d8_cliff():
    # |Aut(D8 x C2^k)| = |Aut D8| |GL_k(2)| |Hom(C2^k, Z(D8))| |Hom(D8, C2^k)|
    # (Bidwell, Curran and McCaughan, 2006)
    for k, expected in [(3, 688128), (4, 660602880)]:
        G = named_group(builtin_group, "D8" + "xC2" * k)
        start = time.perf_counter()
        _, order = automorphism_generators(G)
        assert order == expected, k
        assert time.perf_counter() - start < 2, k

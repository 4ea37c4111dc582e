import itertools
import json
import random
import sys
from collections import Counter
from math import gcd

import pytest

import lazytwist.groups as groups_module
from lazytwist import _smith, hopf, lazy
from lazytwist.cli import _EXPECTED_SUITE, main
from lazytwist.cyclo import CycNum
from lazytwist.fixtures import builtin_names
from lazytwist.groups import (
    OrderLimitExceeded,
    VerdictInconsistent,
    _orbits,
    _orders_structure,
    automorphism_generators,
    automorphism_group,
    class_preserving_auts,
    from_table,
    normal_abelian_subgroups,
)
from lazytwist.hopf import GTensor, r_from_form
from lazytwist.lazy import (
    _aut_orbits,
    _candidate_image_sizes,
    _is_abelian_orders,
    _maximal,
    _pair_orbits,
    bg_element_order,
    bg_enumerate,
    bg_product,
    h2_compute,
    has_no_multiplicities,
    lie_complex_check,
)
from lazytwist._smith import kernel
from lazytwist.pontryagin import (AltForm, DualAction, _dual_matrix,
                                  alternating_forms, invariant_cocycle_search,
                                  invariant_forms)
from tests_helpers import (
    RW_PRODUCTS,
    SPLIT_GROUPS,
    abelian_order_multisets,
    abelian_types,
    basis_symmetric_type,
    characters,
    convolution_no_multiplicities,
    descent_bg_product,
    invariant_orbit_dimension,
    listing_pair_orbits,
    metacyclic,
    named_group,
    order_only_automorphisms,
    product_group,
    relabelled,
    relabelling,
    stack_pair_orbits,
    subset_image_sizes,
    tensor_bg_product,
    transport,
    whole_group_no_multiplicities,
)


def test_bg_enumerate_builds_bases_only_on_symmetric_types(groups,
                                                           monkeypatch):
    # the type is read off element orders, so of D8xC6's 28 abelian normal
    # subgroups only the five non-trivial ones that can carry a
    # non-degenerate form get an invariant-factor basis, after the trivial
    # pair's own
    built, structure = [], groups_module.abelian_structure
    monkeypatch.setattr(groups_module, "abelian_structure",
                        lambda A: built.append(A.elements) or structure(A))
    G = named_group(groups, "D8xC6")
    nas = normal_abelian_subgroups(G)
    bg_enumerate(G)
    monkeypatch.undo()
    symmetric = [A.elements for A in nas
                 if A.order > 1 and basis_symmetric_type(A)]
    assert len(nas) == 28 and len(symmetric) == 5
    assert built == [(0,)] + symmetric, built


def test_bg_sizes(groups):
    assert len(bg_enumerate(groups("A4"))) == 2
    assert len(bg_enumerate(groups("D8"))) == 3
    assert len(bg_enumerate(groups("C27sd"))) == 9
    assert len(bg_enumerate(groups("Wall32"))) == 2
    assert len(bg_enumerate(groups("Wr_3"))) == 3
    assert len(bg_enumerate(groups("S4"))) == 2
    assert len(bg_enumerate(groups("Q8"))) == 1
    assert len(bg_enumerate(groups("V4"))) == 2


def test_bg_trivial_element_first(groups):
    for name in ["A4", "D8", "C27sd"]:
        bg = bg_enumerate(groups(name))
        assert bg[0].is_trivial()
        assert bg[0].canonical_r == GTensor.unit(groups(name), 2)


def tensor_power_order(x):
    """Order of x by taking tensor powers R(A, b)^k until the unit: the
    reference for bg_element_order, which reads it off the form."""
    acc, k = x, 1
    while not acc.is_trivial():
        acc = tensor_bg_product(acc, x)
        assert acc is not None, "powers on a fixed socle are always defined"
        k += 1
        assert k <= x.subgroup.order ** 2, "runaway element order"
    return k


def test_bg_element_order_matches_tensor_powers(groups):
    for name in ["A4", "D8", "V4", "S4", "Wr_3", "C27sd", "Wall32", "C3xC9"]:
        G = product_group((3, 9)) if name == "C3xC9" else groups(name)
        for x in bg_enumerate(G):
            assert bg_element_order(x) == tensor_power_order(x)


def test_bg_equality_by_canonical_r(groups):
    # the (socle, form) key is injective exactly when the bicharacter
    # tensors are: R(A, b) determines A as its socle and b on A's dual
    for name in ["A4", "D8", "C27sd", "Wall32", "Wr_3", "V4"]:
        G = groups(name)
        pairs = bg_enumerate(G)
        if name == "C27sd":
            pairs += [p for x in pairs for y in pairs
                      if (p := bg_product(x, y)) is not None]
        for x in pairs:
            for y in pairs:
                assert (x.key() == y.key()) == (x.canonical_r == y.canonical_r)


def test_bg_product_identity_and_square(groups):
    G = groups("A4")
    bg = bg_enumerate(G)
    triv, x = bg
    assert bg_product(x, triv) == x
    # b has order two on a 2-group socle
    assert bg_product(x, x).is_trivial()
    assert bg_element_order(x) == 2


def test_bg_product_undefined_across_disjoint_socles(groups):
    G = groups("C27sd")
    bg = bg_enumerate(G)
    by_subgroup = {}
    for x in bg[1:]:
        by_subgroup.setdefault(x.subgroup.elements, []).append(x)
    reps = [v[0] for v in by_subgroup.values()]
    assert len(reps) == 4
    # distinct E_i never share an abelian normal overgroup
    assert bg_product(reps[0], reps[1]) is None
    # same E_i: defined, with order-3 powers
    same = by_subgroup[reps[0].subgroup.elements]
    assert bg_product(same[0], same[1]) is not None
    assert bg_element_order(reps[0]) == 3


def test_bg_product_independent_of_witness(groups):
    # recompute the product through every valid containing subgroup C:
    # pull both forms to the dual of C, multiply there, expand the
    # bicharacter tensor, and compare with the direct product
    from math import gcd
    from tests_helpers import restrict_character

    for name in ["Wall32", "C27sd", "A4"]:
        G = groups(name)
        nas = normal_abelian_subgroups(G)
        bg = bg_enumerate(G)
        for x in bg:
            for y in bg:
                witnesses = [C for C in nas
                             if set(x.subgroup.elements) | set(y.subgroup.elements)
                             <= set(C.elements)]
                direct = bg_product(x, y)
                if not witnesses:
                    assert direct is None
                    continue
                for C in witnesses:
                    chars_C = characters(C)
                    basis = C.abelian_structure()
                    r = len(basis)
                    upper = []
                    for i in range(r):
                        ei = tuple(1 if k == i else 0 for k in range(r))
                        for j in range(i + 1, r):
                            ej = tuple(1 if k == j else 0 for k in range(r))
                            t = 0
                            L = 1
                            for z in (x, y):
                                ri = restrict_character(chars_C, ei, z.subgroup)
                                rj = restrict_character(chars_C, ej, z.subgroup)
                                tz, Lz = z.form.value_exponent(ri, rj)
                                L2 = L * Lz // gcd(L, Lz)
                                t = t * (L2 // L) + tz * (L2 // Lz)
                                L = L2
                            m = gcd(basis[i][1], basis[j][1])
                            assert t * m % L == 0
                            upper.append(t * m // L % m)
                    via_c = r_from_form(C, AltForm.from_upper(C, upper))
                    assert via_c == direct.canonical_r


def test_bg_product_matches_tensor_product(groups):
    # the lookup of a pushed sum against the product by descent (the
    # radical and the lifts swept over the dual) and against tensors
    # multiplied in k[G] x k[G], their socle and the form read back there:
    # defined in the same places, same pairs, on every ordered pair of
    # pairs
    for name in builtin_names() + SPLIT_GROUPS[:8] + [
            "D8xQ8", "C2xC2xD8", "C27sdxC3"]:
        G = named_group(groups, name)
        bg = bg_enumerate(G)
        defined = 0
        for x in bg:
            for y in bg:
                direct = bg_product(x, y)
                descent = descent_bg_product(x, y)
                oracle = tensor_bg_product(x, y)
                assert (direct is None) == (descent is None) == \
                    (oracle is None), name
                if direct is not None:
                    defined += 1
                    assert direct.key() == descent.key() == oracle.key(), \
                        name
        assert defined >= 2 * len(bg) - 1, name


def test_transport_matches_tensor_apply_map(groups):
    # R(phi(A), b pushed along phi) = (phi x phi) R(A, b)
    for name in ["A4", "S4", "D8xC2", "Wall32"]:
        G = named_group(groups, name)
        by_elements = {A.elements: A for A in normal_abelian_subgroups(G)}
        tensors = {}
        for x in bg_enumerate(G):
            for phi in automorphism_group(G):
                moved = transport(x, phi, by_elements)
                if moved.key() not in tensors:
                    tensors[moved.key()] = moved.canonical_r
                assert tensors[moved.key()] == x.canonical_r.apply_map(phi), \
                    name


def test_no_tensor_on_verdict_path(groups, capsys, monkeypatch):
    # lazy holds no hopf name but r_from_form, for canonical_r only
    assert {n for n, v in vars(lazy).items()
            if getattr(v, "__module__", None) == "lazytwist.hopf"} \
        == {"r_from_form"}
    names = list(_EXPECTED_SUITE) + ["D8xC2", "Q8xC2xC2", "S4xC2"]
    assert len(names) == 19

    def h2_outputs():
        out = {}
        for name in names:
            G = named_group(groups, name)
            spec = json.dumps({"table": [list(r) for r in G.table],
                               "name": name})
            assert main(["h2", spec]) == 0
            out[name] = capsys.readouterr().out
        return out

    def refuse(*args, **kwargs):
        raise AssertionError("a tensor was built on the verdict path")

    expected = h2_outputs()
    holders = [(module, attr) for mod_name, module in list(sys.modules.items())
               if mod_name.split(".")[0] == "lazytwist"
               for attr, value in list(vars(module).items())
               if value is hopf.r_from_form]
    assert (lazy, "r_from_form") in holders
    for module, attr in holders:
        monkeypatch.setattr(module, attr, refuse)
    monkeypatch.setattr(hopf.GTensor, "mul", refuse)
    assert h2_outputs() == expected


def test_h2_cliff_groups_pinned(groups, capsys):
    # reports recorded through the tensor partial product (D8xD8,
    # C2xC2xD8) or while R5 listed all 3072 automorphisms (D8xQ8), pinned
    # as an independent record of rule R5 on groups with many pairs or
    # automorphisms
    tail = [
        {"rule": "RW", "ref": "explicit invariant cocycles on the socle "
                              "realize {} non-trivial socle-form pair(s) as "
                              "twists"},
        {"rule": "R4", "ref": "class-preserving outer automorphisms act "
                              "freely on twist classes with orbit set inside "
                              "the socle-form pairs"},
        {"rule": "R5", "ref": "multiplicity-free tensor products force an "
                              "abelian class group; the only automorphism-"
                              "stable candidate image has this size"},
    ]
    for name, bg_size, order, structure, witnessed in [
            ("D8xD8", 18, 2, [2], 1), ("C2xC2xD8", 24, 8, None, 7),
            ("D8xQ8", 6, 2, [2], 1)]:
        certificates = [dict(c) for c in tail]
        certificates[0]["ref"] = certificates[0]["ref"].format(witnessed)
        expected = {"group": name, "int_mod_inn": 1, "bg_size": bg_size,
                    "order_bounds": [order, order], "exact_order": order,
                    "structure": structure, "status": "exact",
                    "certificates": certificates}
        G = named_group(groups, name)
        spec = json.dumps({"table": [list(r) for r in G.table], "name": name})
        assert main(["h2", spec]) == 0
        assert capsys.readouterr().out == \
            json.dumps(expected, separators=(",", ":")) + "\n"


def test_r5_orbits_match_listing(groups):
    # the orbits along Aut(G)'s generators are those along every
    # automorphism of the order-only listing
    for name in SPLIT_GROUPS[:8] + ["C2xC2xD8", "D8xQ8"]:
        G = named_group(groups, name)
        bg = bg_enumerate(G)
        gens, _ = automorphism_generators(G)
        expected = listing_pair_orbits(bg, normal_abelian_subgroups(G),
                                       order_only_automorphisms(G))
        assert _aut_orbits(bg, gens) == expected, name
        assert sorted(i for orbit in expected for i in orbit) == \
            list(range(1, len(bg))), name


def test_aut_orbits_build_one_dual_matrix_per_socle_and_generator(
        groups, monkeypatch):
    # the pairs on one socle share the dual matrix of each generator, and
    # the orbits stay those along the generators one pair at a time
    built, dual = [], lazy._dual_matrix
    monkeypatch.setattr(lazy, "_dual_matrix", lambda A, B, psi: (
        built.append(A.elements) or dual(A, B, psi)))
    shared = False
    for name in SPLIT_GROUPS[:8] + ["C2xC2xD8"]:
        G = named_group(groups, name)
        bg = bg_enumerate(G)
        gens, _ = automorphism_generators(G)
        by_elements = {A.elements: A for A in normal_abelian_subgroups(G)}
        del built[:]
        orbits = _aut_orbits(bg, gens)
        per_socle = Counter(x.subgroup.elements for x in bg[1:])
        assert set(built) == set(per_socle), name
        assert max(Counter(built).values()) <= len(gens), name
        shared |= max(per_socle.values()) > 1
        # the same orbits, moving each pair with its own dual matrix
        by_key = {x.key(): i for i, x in enumerate(bg)}
        assert orbits == _orbits(
            range(1, len(bg)), gens, lambda i, phi: by_key[transport(
                bg[i], phi, by_elements).key()]), name
    assert shared


def test_r5_sizes_match_subset_loop(groups, monkeypatch):
    # the closure checked on one representative per orbit gives the sizes
    # of the loop over every pair of every chosen subset, with the
    # products by descent, with the witnessed pairs RW finds and with
    # none, visiting the maximal abelian normal subgroups in either order:
    # on C2xC2xD8 the last alone gives too few products
    maximal = lazy._maximal
    for name in ["D8", "D8xC2", "D8xC4", "D8xC6", "Wr_2xC2", "Q8xC2xC2",
                 "D8xS3", "C2xC2xD8", "D8xQ8"]:
        G = named_group(groups, name)
        bg = bg_enumerate(G)
        orbits = _aut_orbits(bg, automorphism_generators(G)[0])
        witnessed = [i for i, x in enumerate(bg) if i and
                     invariant_cocycle_search(x.subgroup, x.form, DualAction(
                         G, x.subgroup)).witness]
        for pairs in (witnessed, []):
            expected = subset_image_sizes(bg, orbits, pairs)
            for step in (1, -1):
                monkeypatch.setattr(
                    lazy, "_maximal", lambda nas, s=step: maximal(nas)[::s])
                assert _candidate_image_sizes(G, bg, pairs) == \
                    expected, (name, pairs, step)


def pushed(x, C):
    """The form of the pair x pushed to the dual of C, x's socle in C."""
    return x.form.push(C, _dual_matrix(x.subgroup, C, lambda a: a))


def test_pairs_in_a_maximal_subgroup_are_its_invariant_forms(groups):
    # pushing to the dual of a maximal abelian normal C maps the pairs with
    # socle in C one to one onto C's invariant forms, and the partial
    # product of each orbit representative with each such pair onto the
    # sum of their pushed forms
    for name in ["D8xC2", "C2xC2xD8", "D8xD8", "D8xQ8", "Q8xC2xC2",
                 "A4xC2xC2"]:
        G = named_group(groups, name)
        bg = bg_enumerate(G)
        reps = [bg[orbit[0]] for orbit in _aut_orbits(
            bg, automorphism_generators(G)[0])]
        for C in _maximal(normal_abelian_subgroups(G)):
            forms = {x: pushed(x, C) for x in bg
                     if set(x.subgroup.elements) <= set(C.elements)}
            matrices = {b.matrix for b in forms.values()}
            assert len(matrices) == len(forms), (name, C.elements)
            assert matrices == {b.matrix for b in invariant_forms(
                C, DualAction(G, C))}, (name, C.elements)
            for x in (x for x in reps if x in forms):
                for y in forms:
                    product = bg_product(x, y)
                    assert product is not None, (name, C.elements)
                    assert pushed(product, C).matrix == \
                        forms[x].mul(forms[y]).matrix, (name, C.elements)


def test_r5_refuses_a_product_outside_the_pair_set(groups, monkeypatch):
    # D8xC2's pair 1 is fixed by Aut(G) and the product of two other
    # pairs; with it dropped from the pair list, R5's table misses, and the
    # miss is refused, also under -O
    G = named_group(groups, "D8xC2")
    bg = bg_enumerate(G)
    assert any(bg_product(x, y) == bg[1] for x in bg[2:] for y in bg[2:])
    monkeypatch.setattr(lazy, "bg_enumerate",
                        lambda G, limit: bg[:1] + bg[2:])
    with pytest.raises(VerdictInconsistent,
                       match="partial product left the pair set"):
        h2_compute(G)


def test_abelian_normal_subgroups_walked_once_per_group(groups,
                                                         monkeypatch):
    # G keeps its abelian normal subgroups: h2, the pair listing and
    # several partial products walk its class masks once, and a caller
    # that changes the list it was given changes no later answer
    walks, walk = [], groups_module._class_subgroups
    monkeypatch.setattr(groups_module, "_class_subgroups",
                        lambda H, abelian=False: walks.append((H, abelian))
                        or walk(H, abelian))
    for name in ["D8xC2", "Q8xC2xC2", "C27sd"]:
        G = groups_module.FiniteGroup(named_group(groups, name).table,
                                      name=name)
        report = h2_compute(G).to_json()
        bg = bg_enumerate(G)
        products = [bg_product(x, y) for x in bg[:4] for y in bg[-4:]]
        assert any(p is not None and not p.is_trivial() for p in products)
        assert walks.count((G, True)) == 1, name
        nas = normal_abelian_subgroups(G)
        kept = [A.elements for A in nas]
        nas.reverse()
        del nas[1:]
        assert [A.elements for A in normal_abelian_subgroups(G)] == kept
        assert h2_compute(G).to_json() == report, name
        assert bg_enumerate(G) == bg, name
        assert [bg_product(x, y) for x in bg[:4] for y in bg[-4:]] == \
            products, name
        assert walks.count((G, True)) == 1, name


def test_has_no_multiplicities(groups):
    for n in [2, 5, 8]:
        G = groups(f"C{n}")
        assert has_no_multiplicities(G)
        assert invariant_orbit_dimension(G) == n * n
    assert has_no_multiplicities(groups("D8"))
    assert has_no_multiplicities(groups("S3"))
    assert invariant_orbit_dimension(groups("S3")) == 11
    assert not has_no_multiplicities(groups("A4"))
    assert has_no_multiplicities(groups("S4"))


def test_orbit_dimension_against_burnside(groups):
    # independent oracle: number of orbits = average number of fixed points
    for name in ["C4", "V4", "S3", "D8", "Q8", "A4", "S4", "Wall32", "Wr_3",
                 "C27sd"]:
        G = groups(name)
        total = 0
        for g in range(G.order):
            cent = sum(1 for x in range(G.order)
                       if G.table[g][x] == G.table[x][g])
            total += cent * cent
        assert invariant_orbit_dimension(G) == total // G.order


def test_lie_complex_check(groups):
    assert lie_complex_check(groups("C1")) == (True, True, 1)
    assert lie_complex_check(groups("S3")) == (True, True, 6)
    assert lie_complex_check(groups("A4")) == (True, True, 12)
    with pytest.raises(OrderLimitExceeded):
        lie_complex_check(groups("Wall32"))


def test_lie_complex_all_small_fixtures(groups):
    for name in ["C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "V4", "S3",
                 "D8", "Q8", "A4"]:
        G = groups(name)
        injective, exact, kernel_dim = lie_complex_check(G)
        assert injective and exact and kernel_dim == G.order


def test_h2_reports(groups):
    expected = {
        "A4": (2, [2]),
        "D8": (1, []),
        "Q8": (1, []),
        "S3": (1, []),
        "S4": (1, []),
        "V4": (2, [2]),
        "C27sd": (9, [3, 3]),
        "Wr_3": (3, [3]),
    }
    for name, (order, struct) in expected.items():
        rep = h2_compute(groups(name), name=name)
        assert rep.status == "exact"
        assert rep.exact_order == order
        assert rep.structure == struct
        assert rep.order_lower == rep.order_upper == order
        assert rep.order_lower % rep.int_mod_inn == 0


def test_h2_abelian_closed_form():
    # for abelian G every twist is invariant and the classes are the
    # alternating forms on the character group: prod_{i<j} gcd(d_i, d_j);
    # the closed form is checked against the enumerated pairs, outer
    # automorphisms and forms, in three labellings; C6xC6 has the
    # composite invariant factor 6
    cases = [ds for n in range(1, 33) for ds in abelian_types(n)]
    for ds in cases + [(4, 4, 4), (6, 6)]:
        G = product_group(ds)
        forms = alternating_forms(G.whole_subgroup())
        expected = 1
        for i, j in itertools.combinations(range(len(ds)), 2):
            expected *= gcd(ds[i], ds[j])
        assert len(forms) == expected, ds
        rules = ["R0", "R3", "R4"] if G.order % 2 else ["R0", "R4"]
        rep = h2_compute(G)
        assert (rep.bg_size, rep.int_mod_inn, rep.exact_order,
                rep.structure, rep.status) == \
            (len(bg_enumerate(G)), class_preserving_auts(G)[1], expected,
             _orders_structure([f.order() for f in forms]), "exact"), ds
        assert [c["rule"] for c in rep.certificates] == rules, ds
        for seed in [1, 2]:
            assert h2_compute(relabelled(G, seed)).to_json() == \
                rep.to_json(), (ds, seed)


def test_h2_abelian_lists_no_pairs(monkeypatch):
    # on abelian input every number comes from the invariant factors: the
    # pair, form and automorphism listings are never called, and C2^6 and
    # C2^7 (2^15 and 2^21 forms) answer through R0
    refused = ["normal_abelian_subgroups", "bg_enumerate",
               "class_preserving_auts", "alternating_forms",
               "invariant_forms"]

    def refuse(*args, **kwargs):
        raise AssertionError("a listing ran on abelian input")

    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] == "lazytwist":
            for attr in refused:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    for ds, exact, structure in [((2,) * 6, 2 ** 15, [2] * 15),
                                 ((2,) * 7, 2 ** 21, [2] * 21),
                                 ((4, 4, 4), 64, [4, 4, 4]),
                                 ((3, 3, 3), 27, [3, 3, 3])]:
        rep = h2_compute(product_group(ds))
        rules = ["R0", "R3", "R4"] if ds[0] == 3 else ["R0", "R4"]
        assert (rep.bg_size, rep.int_mod_inn, rep.order_lower,
                rep.order_upper, rep.exact_order, rep.structure,
                rep.status) == (exact, 1, exact, exact, exact, structure,
                                "exact"), ds
        assert [c["rule"] for c in rep.certificates] == rules, ds


def test_h2_cyclic_trivial(groups):
    for n in range(2, 9):
        rep = h2_compute(groups(f"C{n}"))
        assert rep.exact_order == 1 and rep.structure == []


def test_h2_wall_undetermined(groups):
    rep = h2_compute(groups("Wall32"), name="Wall32")
    assert rep.exact_order is None
    assert rep.status == "undetermined"
    assert rep.int_mod_inn == 2
    assert rep.bg_size == 2
    assert (rep.order_lower, rep.order_upper) == (2, 4)


def test_h2_rule_certificates(groups):
    rules = lambda rep: [c["rule"] for c in rep.certificates]
    assert "R0" in rules(h2_compute(groups("V4")))
    assert "R1" in rules(h2_compute(groups("Q8")))
    r27 = h2_compute(groups("C27sd"))
    assert "R2" in rules(r27)
    rw3 = h2_compute(groups("Wr_3"))
    assert "R2" in rules(rw3) and "R3" in rules(rw3)
    ra4 = h2_compute(groups("A4"))
    assert "RW" in rules(ra4) and "R4" in rules(ra4)
    assert "R5" in rules(h2_compute(groups("D8")))
    assert "RT" in rules(h2_compute(groups("S4")))


def test_h2_bounds_bracket_exact(groups):
    for name in ["A4", "D8", "Q8", "S3", "S4", "V4", "C27sd", "Wr_3",
                 "Wall32", "C2", "C6"]:
        rep = h2_compute(groups(name), name=name)
        assert rep.order_lower <= rep.order_upper
        if rep.exact_order is not None:
            assert rep.order_lower <= rep.exact_order <= rep.order_upper


def test_theta_surjective_construction_odd(groups):
    # the odd-order construction hits every socle-form pair
    from lazytwist.pontryagin import cocycle_from_form_odd
    from lazytwist.hopf import theta, twist_from_cocycle

    for name in ["C27sd", "Wr_3", "C3", "C7"]:
        G = groups(name)
        for x in bg_enumerate(G):
            if x.is_trivial():
                continue
            F = twist_from_cocycle(
                x.subgroup, cocycle_from_form_odd(x.subgroup, x.form))
            tv = theta(F)
            assert tv.socle == x.subgroup
            assert tv.form == x.form


@pytest.fixture(scope="module")
def verdict_cases(groups):
    """The builtins and RW's oracle products, with their h2 reports."""
    cases = [groups(name) for name in builtin_names()] + [
        named_group(groups, name) for name in RW_PRODUCTS]
    return cases, [h2_compute(G).to_json() for G in cases]


def test_no_verdict_builds_a_cycnum(verdict_cases, monkeypatch):
    # RW decides on integer exponents, so every report of the builtins and
    # RW's oracle products comes out the same with CycNum refused
    cases, reports = verdict_cases

    def refuse(self, *args, **kwargs):
        raise RuntimeError("a verdict built a CycNum")

    monkeypatch.setattr(CycNum, "__init__", refuse)
    assert [h2_compute(G).to_json() for G in cases] == reports


def test_no_verdict_descends_a_form(verdict_cases, monkeypatch):
    # R5 tabulates the partial products on each maximal abelian normal
    # subgroup, so every report comes out the same with the pair-by-pair
    # product refused; the library holds no descent and no Q/Z solver
    cases, reports = verdict_cases

    def refuse(*args, **kwargs):
        raise RuntimeError("a verdict called the pair product")

    monkeypatch.setattr(lazy, "bg_product", refuse)
    assert [h2_compute(G).to_json() for G in cases] == reports
    assert not hasattr(AltForm, "descend") and not hasattr(
        AltForm, "radical") and not hasattr(_smith, "solve_qz")


def test_h2_structure_must_multiply_to_exact_order(groups, monkeypatch):
    # a structure that does not multiply to the exact order is refused,
    # also under -O: V4's forms forged as order 4 with structure [2], then
    # as order 1 with structure [3]
    for forged in [(4, [2]), (1, [3])]:
        monkeypatch.setattr(lazy, "_alternating_form_group",
                            lambda A, forged=forged: forged)
        with pytest.raises(VerdictInconsistent):
            h2_compute(groups("V4"))


def test_h2_refuses_empty_r5_candidate_set(groups, monkeypatch):
    # under R5's premises the image of the socle-form map is a candidate,
    # so no candidate at all is refused, also under -O: D8 reaches R5, and
    # with no element orders read as abelian every candidate is dropped
    monkeypatch.setattr(lazy, "_is_abelian_orders", lambda orders: False)
    with pytest.raises(VerdictInconsistent, match="no candidate image"):
        h2_compute(groups("D8"))


def test_order_limit(groups):
    with pytest.raises(OrderLimitExceeded):
        h2_compute(groups("Wr_3"), limit=64)


def test_pair_orbits_match_stack_walk(groups):
    for name in ["C6", "S3", "D8", "Q8", "A4", "S4", "Wall32", "C27sd",
                 "D8xC2", "Q8xC2xC2"]:
        G = named_group(groups, name)
        assert _pair_orbits(G) == stack_pair_orbits(G), name


def test_has_no_multiplicities_matches_convolution(groups):
    answers = {}
    for name in [f"C{n}" for n in range(2, 9)] + [
            "S3", "D8", "Q8", "A4", "S4", "Wall32", "C27sd", "D8xC2",
            "Q8xC2xC2"]:
        G = named_group(groups, name)
        answers[name] = has_no_multiplicities(G)
        assert answers[name] == convolution_no_multiplicities(
            G, _pair_orbits(G)), name
    assert set(answers.values()) == {True, False}


def test_has_no_multiplicities_matches_whole_group(groups):
    # the per-factor test against the orbit count on all of G x G, in the
    # base labelling and two relabellings; A4 x C2 fails through A4 beside
    # an abelian factor, A4 x S3 beside a multiplicity-free one
    answers = {}
    for name in SPLIT_GROUPS:
        G = named_group(groups, name)
        answers[name] = whole_group_no_multiplicities(G)
        for seed in (None, 1, 2):
            H = G if seed is None else relabelled(G, seed)
            assert has_no_multiplicities(H) == answers[name], (name, seed)
    assert not answers["A4xC2"] and not answers["A4xS3"]
    assert answers["D8xS3"] and answers["S3xS3xC2"]


# C_m x|_r C_n as (m, n, r): D16, where Gelfand's trick decides; eight
# multiplicity-free groups with an orbit not closed under inversion; five
# groups with multiplicities
METACYCLIC_TRICK = {"D16": (8, 2, 7)}
METACYCLIC_COUNT = {"C3x|C4": (3, 4, 2), "SD16": (8, 2, 3),
                    "M16": (8, 2, 5), "C4x|C4": (4, 4, 3),
                    "C5x|C4": (5, 4, 4), "C3x|C8": (3, 8, 2),
                    "M32": (16, 2, 9), "SD32": (16, 2, 7)}
METACYCLIC_FALSE = {"F20": (5, 4, 2), "F21": (7, 3, 2), "C9x|C3": (9, 3, 4),
                    "F42": (7, 6, 3), "C13x|C3": (13, 3, 3)}


def test_has_no_multiplicities_matches_whole_group_on_metacyclics(groups):
    # the split products are compared in the test above
    for name in builtin_names():
        G = groups(name)
        assert has_no_multiplicities(G) == \
            whole_group_no_multiplicities(G), name
    for expected, table in [(True, METACYCLIC_TRICK),
                            (True, METACYCLIC_COUNT),
                            (False, METACYCLIC_FALSE)]:
        for name, mnr in table.items():
            G = metacyclic(*mnr)
            assert whole_group_no_multiplicities(G) == expected, name
            assert has_no_multiplicities(G) == expected, name


def test_gelfand_trick_decides_without_the_count(groups, monkeypatch):
    class Counted(Exception):
        pass

    def refuse(*args):
        raise Counted

    monkeypatch.setattr(lazy, "Counter", refuse)
    for G in [groups(name) for name in ["D8", "Q8", "S3", "S4"]] + [
            metacyclic(*METACYCLIC_TRICK["D16"])]:
        assert has_no_multiplicities(G), G
    # a multiplicity-free group whose orbits inversion does not fix still
    # reaches the count
    with pytest.raises(Counted):
        has_no_multiplicities(metacyclic(*METACYCLIC_COUNT["C3x|C4"]))


def cayley_table_structure(forms):
    """Invariant factors of a group of forms through its Cayley table: the
    reference for the Smith form of the invariance map's kernel."""
    index = {f.matrix: i for i, f in enumerate(forms)}
    H = from_table([[index[f.mul(g).matrix] for g in forms] for f in forms])
    return [d for _, d in H.whole_subgroup().abelian_structure()]


def invariant_factors(cyclic_orders):
    """Invariant factors of a product of cyclic groups: for each prime,
    its powers sorted, then combined from the largest down."""
    by_prime = {}
    for d in cyclic_orders:
        p = 2
        while d > 1:
            q = 1
            while d % p == 0:
                d //= p
                q *= p
            if q > 1:
                by_prime.setdefault(p, []).append(q)
            p += 1
    rank = max((len(v) for v in by_prime.values()), default=0)
    out = [1] * rank
    for powers in by_prime.values():
        for t, q in enumerate(sorted(powers, reverse=True)):
            out[t] *= q
    return sorted(out)


def form_group_structure(G, A):
    """R3's structure: the invariant factors of the invariant forms, read
    from the Smith form of the invariance map's kernel."""
    return kernel(*DualAction(G, A).invariance_map())[1]


def test_form_group_structure_closed_form():
    # the alternating forms on the dual of prod Z/d_i are
    # (+)_{i<j} Z/gcd(d_i, d_j); an abelian group acts trivially
    for ds in [(2, 2, 2, 2, 2), (2, 4, 4), (6, 6), (3, 3, 3)]:
        G = product_group(ds)
        gcds = [gcd(ds[i], ds[j])
                for i, j in itertools.combinations(range(len(ds)), 2)]
        assert form_group_structure(G, G.whole_subgroup()) == \
            invariant_factors(gcds), ds


def test_form_group_structure_matches_cayley_table(groups):
    cases = [("Wr_3", groups("Wr_3")), ("C3", groups("C3")),
             ("C27sd", groups("C27sd")), ("C3^3", product_group((3, 3, 3))),
             ("C2x6x6", product_group((2, 6, 6)))]
    for name, G in cases:
        for A in normal_abelian_subgroups(G):
            assert form_group_structure(G, A) == cayley_table_structure(
                invariant_forms(A, DualAction(G, A))), (name, A)


def test_abelian_orders_match_enumerator():
    # every abelian group's element orders are recognised with its type,
    # and perturbed multisets are recognised exactly when the enumerator
    # of all abelian groups of that order lists them
    rng = random.Random(5)
    for order in range(1, 65):
        divisors = [d for d in range(1, order + 1) if order % d == 0]
        realizable = set(abelian_order_multisets(order))
        for ds, mset in zip(abelian_types(order),
                            abelian_order_multisets(order)):
            assert _is_abelian_orders(list(mset)), ds
            assert _orders_structure(list(mset)) == \
                invariant_factors(ds), ds
            for _ in range(10):
                orders = list(mset)
                orders[rng.randrange(1, order) if order > 1 else 0] = \
                    rng.choice(divisors)
                assert _is_abelian_orders(orders) == \
                    (tuple(sorted(orders)) in realizable), orders
        for _ in range(20):
            orders = [1] + [rng.choice(divisors) for _ in range(order - 1)]
            assert _is_abelian_orders(orders) == \
                (tuple(sorted(orders)) in realizable), orders


def test_relabelling_invariance(groups, capsys):
    for name in ["A4", "D8", "S4", "Wall32", "C27sd", "D8xC2", "S4xC2",
                 "D8xS3"]:
        G = named_group(groups, name)
        outputs = []
        for seed in [None, 1, 2]:
            H = G if seed is None else relabelled(G, seed)
            spec = json.dumps({"table": [list(r) for r in H.table],
                               "name": name})
            for cmd in ["h2", "autc"]:
                assert main([cmd, spec]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0], name


def test_twist_theta_and_bg_relabelling_invariance(groups, tmp_path, capsys):
    # twist-theta's socle and R(socle, form), and bg's set of (socle, R),
    # carried back to the original labels, do not depend on the labelling
    from lazytwist.cli import packaged_tensor
    from lazytwist.pontryagin import cocycle_from_form_odd

    odd = bg_enumerate(groups("C27sd"))[1]
    assert odd.subgroup.order == 9
    cases = [
        ("A4", packaged_tensor("A4_twist", groups("A4"))),
        ("Wall32", packaged_tensor("Wall_F", groups("Wall32"))),
        ("C27sd", hopf.twist_from_cocycle(
            odd.subgroup, cocycle_from_form_odd(odd.subgroup, odd.form))),
    ]
    for name, F in cases:
        G = groups(name)
        outputs = []
        for seed in [None, 1, 2]:
            new_of = (list(range(G.order)) if seed is None
                      else relabelling(G.order, seed))
            old_of = sorted(range(G.order), key=new_of.__getitem__)
            H = G if seed is None else relabelled(G, seed)
            group_path = tmp_path / f"{name}-{seed}.json"
            group_path.write_text(json.dumps(
                {"table": [list(r) for r in H.table], "name": name}))
            moved = GTensor(H, 2, {tuple(new_of[a] for a in t): c
                                   for t, c in F.terms.items()})
            tensor_path = tmp_path / f"{name}-{seed}-twist.json"
            tensor_path.write_text(json.dumps(moved.to_json()))

            def back(form):
                S = H.subgroup(form["subgroup"])
                assert form["generators"] == [g for g, _ in
                                              S.abelian_structure()]
                R = r_from_form(S, AltForm(S, tuple(map(tuple,
                                                        form["matrix"]))))
                R = GTensor(G, 2, {tuple(old_of[a] for a in t): c
                                   for t, c in R.terms.items()})
                return tuple(sorted(old_of[a] for a in S.elements)), R.key()

            assert main(["twist-theta", str(group_path),
                         str(tensor_path)]) == 0
            rep = json.loads(capsys.readouterr().out)
            assert rep["socle"] == rep["form"]["subgroup"]
            assert main(["bg", str(group_path)]) == 0
            pairs = json.loads(capsys.readouterr().out)["elements"]
            outputs.append((back(rep["form"]), {back(x) for x in pairs}))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0], name
        assert outputs[0][0] in outputs[0][1]

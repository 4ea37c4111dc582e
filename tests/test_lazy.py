import itertools
import json
import random
import sys
from math import gcd

import pytest

from lazytwist import hopf, lazy
from lazytwist.cli import _EXPECTED_SUITE, main
from lazytwist.groups import (
    OrderLimitExceeded,
    automorphism_group,
    from_table,
    normal_abelian_subgroups,
)
from lazytwist.fixtures import builtin_group
from lazytwist.hopf import GTensor, r_from_form
from lazytwist.lazy import (
    _form_group_structure,
    _group_structure,
    _is_abelian_orders,
    _pair_orbits,
    _transport,
    bg_element_order,
    bg_enumerate,
    bg_product,
    h2_compute,
    has_no_multiplicities,
    lie_complex_check,
)
from lazytwist.pontryagin import DualAction, alternating_forms, invariant_forms
from tests_helpers import (
    abelian_order_multisets,
    abelian_types,
    characters,
    convolution_no_multiplicities,
    invariant_orbit_dimension,
    named_group,
    product_group,
    relabelled,
    relabelling,
    tensor_bg_product,
)


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


def tensor_power_order(x, nas):
    """Order of x by taking tensor powers R(A, b)^k until the unit: the
    reference for bg_element_order, which reads it off the form."""
    acc, k = x, 1
    while not acc.is_trivial():
        acc = tensor_bg_product(acc, x, nas)
        assert acc is not None, "powers on a fixed socle are always defined"
        k += 1
        assert k <= x.subgroup.order ** 2, "runaway element order"
    return k


def test_bg_element_order_matches_tensor_powers(groups):
    for name in ["A4", "D8", "V4", "S4", "Wr_3", "C27sd", "Wall32", "C3xC9"]:
        G = product_group((3, 9)) if name == "C3xC9" else groups(name)
        nas = normal_abelian_subgroups(G)
        for x in bg_enumerate(G, nas=nas):
            assert bg_element_order(x, nas) == tensor_power_order(x, nas)


def test_bg_equality_by_canonical_r(groups):
    # the (socle, form) key is injective exactly when the bicharacter
    # tensors are: R(A, b) determines A as its socle and b on A's dual
    for name in ["A4", "D8", "C27sd", "Wall32", "Wr_3", "V4"]:
        G = groups(name)
        nas = normal_abelian_subgroups(G)
        pairs = bg_enumerate(G, nas=nas)
        if name == "C27sd":
            pairs += [p for x in pairs for y in pairs
                      if (p := bg_product(x, y, nas)) is not None]
        for x in pairs:
            for y in pairs:
                assert (x.key() == y.key()) == (x.canonical_r == y.canonical_r)


def test_bg_product_identity_and_square(groups):
    G = groups("A4")
    nas = normal_abelian_subgroups(G)
    bg = bg_enumerate(G)
    triv, x = bg
    assert bg_product(x, triv, nas) == x
    # b has order two on a 2-group socle
    assert bg_product(x, x, nas).is_trivial()
    assert bg_element_order(x, nas) == 2


def test_bg_product_undefined_across_disjoint_socles(groups):
    G = groups("C27sd")
    nas = normal_abelian_subgroups(G)
    bg = bg_enumerate(G)
    by_subgroup = {}
    for x in bg[1:]:
        by_subgroup.setdefault(x.subgroup.elements, []).append(x)
    reps = [v[0] for v in by_subgroup.values()]
    assert len(reps) == 4
    # distinct E_i never share an abelian normal overgroup
    assert bg_product(reps[0], reps[1], nas) is None
    # same E_i: defined, with order-3 powers
    same = by_subgroup[reps[0].subgroup.elements]
    assert bg_product(same[0], same[1], nas) is not None
    assert bg_element_order(reps[0], nas) == 3


def test_bg_product_independent_of_witness(groups):
    # recompute the product through every valid containing subgroup C:
    # pull both forms to the dual of C, multiply there, expand the
    # bicharacter tensor, and compare with the direct product
    from math import gcd
    from lazytwist.pontryagin import AltForm
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
                direct = bg_product(x, y, nas)
                if not witnesses:
                    assert direct is None
                    continue
                for C in witnesses:
                    chars_C = characters(C)
                    basis = C.abelian_structure()
                    r = len(basis)
                    upper = {}
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
                            upper[(i, j)] = t * m // L % m
                    via_c = r_from_form(C, AltForm.from_upper(C, upper))
                    assert via_c == direct.canonical_r


def test_bg_product_matches_tensor_product(groups):
    # the form path against tensors multiplied in k[G] x k[G], their socle
    # and the form read back there: defined in the same places, same pairs
    for name in ["A4", "D8", "V4", "S4", "Wr_3", "C27sd", "Wall32", "D8xC2",
                 "Q8xC2xC2", "D8xS3"]:
        G = named_group(groups, name)
        nas = normal_abelian_subgroups(G)
        bg = bg_enumerate(G, nas=nas)
        defined = 0
        for x in bg:
            for y in bg:
                direct = bg_product(x, y, nas)
                oracle = tensor_bg_product(x, y, nas)
                assert (direct is None) == (oracle is None), name
                if direct is not None:
                    defined += 1
                    assert direct.key() == oracle.key(), name
        assert defined >= 2 * len(bg) - 1, name


def test_transport_matches_tensor_apply_map(groups):
    # R(phi(A), b pushed along phi) = (phi x phi) R(A, b)
    for name in ["A4", "S4", "D8xC2", "Wall32"]:
        G = named_group(groups, name)
        nas = normal_abelian_subgroups(G)
        by_elements = {A.elements: A for A in nas}
        tensors = {}
        for x in bg_enumerate(G, nas=nas):
            for phi in automorphism_group(G):
                moved = _transport(x, phi, by_elements)
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
    # reports recorded through the tensor partial product, pinned as an
    # independent record of rule R5 on two groups with many pairs
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
            ("D8xD8", 18, 2, [2], 1), ("C2xC2xD8", 24, 8, None, 7)]:
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
    # alternating forms on the character group: prod_{i<j} gcd(d_i, d_j)
    for ds in [(2, 2, 2, 2), (2, 4, 4), (6, 6), (3, 9), (3, 3, 3)]:
        rep = h2_compute(product_group(ds))
        expected = 1
        for i, j in itertools.combinations(range(len(ds)), 2):
            expected *= gcd(ds[i], ds[j])
        assert rep.bg_size == rep.exact_order == expected, ds
        assert rep.status == "exact"
        assert "R0" in [c["rule"] for c in rep.certificates]


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


def test_order_limit(groups):
    with pytest.raises(OrderLimitExceeded):
        h2_compute(groups("Wr_3"), limit=64)
    with pytest.raises(OrderLimitExceeded):
        builtin_group("Wr_5")


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


def cayley_table_structure(forms):
    """Invariant factors of a group of forms through its Cayley table: the
    reference for _form_group_structure."""
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


def test_form_group_structure_closed_form():
    # the alternating forms on the dual of prod Z/d_i are
    # (+)_{i<j} Z/gcd(d_i, d_j)
    for ds in [(2, 2, 2, 2, 2), (2, 4, 4), (6, 6), (3, 3, 3)]:
        forms = alternating_forms(product_group(ds).whole_subgroup())
        gcds = [gcd(ds[i], ds[j])
                for i, j in itertools.combinations(range(len(ds)), 2)]
        assert _form_group_structure(forms) == invariant_factors(gcds), ds


def test_form_group_structure_matches_cayley_table(groups):
    cases = [("Wr_3", groups("Wr_3")), ("C3", groups("C3")),
             ("C27sd", groups("C27sd")), ("C3^3", product_group((3, 3, 3))),
             ("C2x6x6", product_group((2, 6, 6)))]
    for name, G in cases:
        for A in normal_abelian_subgroups(G):
            forms = invariant_forms(A, DualAction(G, A))
            assert _form_group_structure(forms) == \
                cayley_table_structure(forms), (name, A)


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
            assert _group_structure(list(mset)) == invariant_factors(ds), ds
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
    from lazytwist.pontryagin import AltForm, cocycle_from_form_odd

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

"""Verdict engine for the group of invariant-twist classes.

bg_enumerate lists the socle-form pairs (abelian normal subgroup with a
conjugation-invariant non-degenerate alternating form on its dual);
h2_compute assembles certified rules into an exact order/structure verdict,
bounds, or an honest "undetermined".

Pairs are compared by (socle elements, form matrix): the map
(A, b) -> R(A, b) is injective, so this is the same equality as comparing
bicharacter tensors.  Since R(A, b)^k = R(A, b^k), the order of a pair is
the order of its form.  The partial product and the Aut(G) orbits of rule
R5 act on the forms too, by pushing them along homomorphisms of socles
(R(B, psi_* b) = (psi x psi) R(A, b)), so no verdict builds R(A, b).
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Optional

from .groups import (
    ORDER_LIMIT_DEFAULT,
    FiniteGroup,
    OrderLimitExceeded,
    Subgroup,
    VerdictInconsistent,
    automorphism_group,
    class_preserving_auts,
    find_isomorphism,
    normal_abelian_subgroups,
)
from .fixtures import symmetric
from .pontryagin import (
    AltForm,
    Character,
    DualAction,
    _dual_matrix,
    _lcm,
    alternating_forms,
    cocycle_from_form_odd,
    invariant_cocycle_search,
    invariant_forms,
    is_symmetric_type,
)
from .hopf import r_from_form

__all__ = [
    "BGElement",
    "H2Report",
    "VerdictInconsistent",
    "bg_enumerate",
    "bg_product",
    "bg_element_order",
    "has_no_multiplicities",
    "lie_complex_check",
    "h2_compute",
]


@dataclass(frozen=True)
class BGElement:
    """A socle-form pair, compared by (socle elements, form matrix).

    The form's matrix is written on the socle's own invariant-factor basis,
    which depends only on the socle's elements, so the key is canonical.
    """

    subgroup: Subgroup
    form: AltForm

    @staticmethod
    def trivial(G: FiniteGroup) -> "BGElement":
        A = Subgroup(G, [0])
        return BGElement(A, AltForm.trivial(A))

    @functools.cached_property
    def canonical_r(self):
        """The bicharacter tensor R(A, b), built on first use.  No verdict
        path builds it; it is there for callers comparing with tensors."""
        return r_from_form(self.subgroup, self.form)

    def key(self):
        return (self.subgroup.elements, self.form.matrix)

    def is_trivial(self) -> bool:
        return self.subgroup.order == 1

    def __eq__(self, other):
        return isinstance(other, BGElement) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def bg_enumerate(G: FiniteGroup, limit: int = ORDER_LIMIT_DEFAULT,
                 nas=None) -> list[BGElement]:
    """All socle-form pairs, deduplicated by (socle, form).

    Only subgroups of symmetric type can carry a non-degenerate alternating
    form, so the rest are pruned before form enumeration.
    """
    if G.order > limit:
        raise OrderLimitExceeded(f"|G| = {G.order} exceeds bound {limit}")
    if nas is None:
        nas = normal_abelian_subgroups(G, limit)
    out = [BGElement.trivial(G)]
    seen = {out[0].key()}
    for A in nas:
        if A.order == 1 or not is_symmetric_type(A):
            continue
        action = DualAction(G, A)
        for b in invariant_forms(A, action, only_nondegenerate=True):
            el = BGElement(A, b)
            if el.key() not in seen:
                seen.add(el.key())
                out.append(el)
    out.sort(key=lambda e: (e.subgroup.order, e.subgroup.elements,
                            e.form.matrix))
    return out


def _inclusion(A: Subgroup, C: Subgroup):
    return _dual_matrix(A, C, lambda a: a)


def bg_product(x: BGElement, y: BGElement, nas) -> Optional[BGElement]:
    """Partial product: defined when one abelian normal subgroup C contains
    both socles.  Both forms are pushed to the dual of C and multiplied
    there; the product's socle D is the annihilator of its radical, and the
    product descends to a non-degenerate form on the dual of D."""
    need = set(x.subgroup.elements) | set(y.subgroup.elements)
    C = next((C for C in nas if need <= set(C.elements)), None)
    if C is None:
        return None
    b = x.form.push(C, _inclusion(x.subgroup, C)).mul(
        y.form.push(C, _inclusion(y.subgroup, C)))
    radical = b.radical()
    socle = tuple(sorted(set(C.elements).intersection(
        *(Character(C, rho).kernel() for rho in radical))))
    D = next((A for A in nas if A.elements == socle), None)
    if D is None or D.order * len(radical) != C.order:
        raise VerdictInconsistent(
            "product socle is not the annihilator of its radical")
    return BGElement(D, b.descend(D))


def bg_element_order(x: BGElement, nas) -> int:
    """Order of x under the partial product: R(A, b)^k = R(A, b^k), so it
    is the order of the form b."""
    return x.form.order()


# ---------------------------------------------------------------------------
# Multiplicity-freeness via commutativity of the diagonal-conjugation
# invariant subalgebra of k[G] x k[G]; no character table is computed.


def _pair_orbits(G: FiniteGroup):
    n = G.order
    gens = G.generating_set()
    seen = [[False] * n for _ in range(n)]
    orbits = []
    for x in range(n):
        for y in range(n):
            if seen[x][y]:
                continue
            orbit = []
            stack = [(x, y)]
            seen[x][y] = True
            while stack:
                p = stack.pop()
                orbit.append(p)
                for g in gens:
                    q = (G.conjugate(g, p[0]), G.conjugate(g, p[1]))
                    if not seen[q[0]][q[1]]:
                        seen[q[0]][q[1]] = True
                        stack.append(q)
            orbits.append(sorted(orbit))
    return orbits


def has_no_multiplicities(G: FiniteGroup,
                          limit: int = ORDER_LIMIT_DEFAULT) -> bool:
    """True iff all orbit sums of the diagonal conjugation action on
    G x G commute pairwise.

    Both products of two orbit sums O_i, O_j are invariant under diagonal
    conjugation, so they are compared only at one representative r of
    each orbit, where the coefficient of O_i O_j is
    #{a in O_i : a^-1 r in O_j}.  One pass over a in G x G counts these
    for every (i, j) at once.
    """
    if G.order > limit:
        raise OrderLimitExceeded(f"|G| = {G.order} exceeds bound {limit}")
    n, table, inv = G.order, G.table, G.inverses
    orbits = _pair_orbits(G)
    orbit_id = [0] * (n * n)
    for i, orbit in enumerate(orbits):
        for x, y in orbit:
            orbit_id[x * n + y] = i
    for r0, r1 in (orbit[0] for orbit in orbits):
        # a^-1 r for every a = (a0, a1), in the order of orbit_id
        left = [table[inv[a]][r0] * n for a in range(n)]
        right = [table[inv[a]][r1] for a in range(n)]
        counts = Counter(zip(orbit_id, [orbit_id[u + v] for u in left
                                        for v in right]))
        if any(counts.get((j, i), 0) != c for (i, j), c in counts.items()):
            return False
    return True


# ---------------------------------------------------------------------------
# Exactness of the tangent complex k[G] -> k[G]^2 -> k[G]^3.


def _sparse_rank(columns) -> int:
    """Rank of a set of sparse rational vectors (dict coordinate -> value)."""
    pivots: dict = {}
    rank = 0
    for col in columns:
        vec = {k: Fraction(v) for k, v in col.items() if v}
        while vec:
            lead = min(vec)
            if lead in pivots:
                pv = pivots[lead]
                f = vec[lead] / pv[lead]
                for k, v in pv.items():
                    w = vec.get(k, Fraction(0)) - f * v
                    if w:
                        vec[k] = w
                    else:
                        vec.pop(k, None)
            else:
                pivots[lead] = vec
                rank += 1
                break
    return rank


def lie_complex_check(G: FiniteGroup, limit: int = 24):
    """Injectivity and exactness of the tangent complex, plus the kernel
    dimension of the second map (expected |G|)."""
    if G.order > limit:
        raise OrderLimitExceeded(f"|G| = {G.order} exceeds bound {limit}")
    n = G.order

    def d1_column(g):
        col = {}
        for key, v in (((g, 0), 1), ((0, g), 1), ((g, g), -1)):
            col[key] = col.get(key, 0) + v
        return {k: v for k, v in col.items() if v}

    def d2_column(g, h):
        # (Lie d2R - Lie d2L)(g x h)
        col = {}
        for key, v in (((0, g, h), 1), ((g, h, h), 1),
                       ((g, h, 0), -1), ((g, g, h), -1)):
            col[key] = col.get(key, 0) + v
        return {k: v for k, v in col.items() if v}

    d1_cols = [d1_column(g) for g in range(n)]
    rank1 = _sparse_rank(d1_cols)
    injective = rank1 == n

    # composite must vanish: apply d2 to each d1 column
    composite_zero = True
    for g in range(n):
        acc: dict = {}
        for (a, b), v in d1_cols[g].items():
            for k, w in d2_column(a, b).items():
                acc[k] = acc.get(k, 0) + v * w
        if any(acc.values()):
            composite_zero = False
    rank2 = _sparse_rank(d2_column(g, h) for g in range(n) for h in range(n))
    kernel_dim = n * n - rank2
    exact = injective and composite_zero and kernel_dim == rank1
    return injective, exact, kernel_dim


# ---------------------------------------------------------------------------
# The rule engine.


@dataclass
class H2Report:
    group: str
    int_mod_inn: int
    bg_size: int
    order_lower: int
    order_upper: int
    exact_order: Optional[int]
    structure: Optional[list[int]]
    status: str
    certificates: list[dict] = field(default_factory=list)

    def to_json(self):
        return {
            "group": self.group,
            "int_mod_inn": self.int_mod_inn,
            "bg_size": self.bg_size,
            "order_bounds": [self.order_lower, self.order_upper],
            "exact_order": self.exact_order,
            "structure": self.structure,
            "status": self.status,
            "certificates": self.certificates,
        }


def _group_structure(orders: list[int]) -> Optional[list[int]]:
    """Invariant factors d1 | d2 | ... of a finite abelian group with the
    given element orders, or None when no group has these counts.

    For a prime p, #{o : o | p^k} / #{o : o | p^(k-1)} is p to the number
    of p-primary cyclic factors of order at least p^k; the t-th largest
    invariant factor takes p once for each k at which that number exceeds
    t.  Only the element orders are needed, not a Cayley table.
    """
    exponent = _lcm(orders)
    factors: list[int] = []
    p = 2
    while exponent > 1:
        pk, below = 1, 1
        while exponent % p == 0:
            exponent //= p
            pk *= p
            count = sum(1 for o in orders if pk % o == 0)
            at_least, q = 0, count // below
            while q > 1:
                q //= p
                at_least += 1
            if below * p ** at_least != count:
                return None
            factors.extend([1] * (at_least - len(factors)))
            for t in range(at_least):
                factors[t] *= p
            below = count
        p += 1
    return sorted(factors)


def _form_group_structure(forms: list[AltForm]) -> list[int]:
    """Invariant factors of a finite group of alternating forms."""
    factors = _group_structure([f.order() for f in forms])
    if factors is None:
        raise VerdictInconsistent("form orders are not a group's")
    return factors


def _is_abelian_orders(orders: list[int]) -> bool:
    """True iff the element orders are those of an abelian group: the
    group rebuilt from the invariant factors they imply has them."""
    factors = _group_structure(orders)
    if factors is None:
        return False
    rebuilt = [_lcm(d // gcd(e, d) for e, d in zip(tup, factors))
               for tup in itertools.product(*(range(d) for d in factors))]
    return sorted(rebuilt) == sorted(orders)


def _structure_from_order_and_exponent(order, element_orders):
    """Invariant factors when they are forced by order and element orders."""
    if order == 1:
        return []
    dist = sorted(set(element_orders) - {1})
    if len(dist) != 1:
        return None
    p = dist[0]
    k = 0
    n = order
    while n % p == 0:
        n //= p
        k += 1
    if n != 1:
        return None
    if order == p:
        return [p]
    if order == p * p:
        return [p, p]
    return None


def h2_compute(G: FiniteGroup, limit: int = ORDER_LIMIT_DEFAULT,
               name: Optional[str] = None) -> H2Report:
    """Apply the certified rules in order and assemble the verdict."""
    if G.order > limit:
        raise OrderLimitExceeded(f"|G| = {G.order} exceeds bound {limit}")
    name = name or G.name or f"order-{G.order}"
    certs: list[dict] = []
    nas = normal_abelian_subgroups(G, limit)
    bg = bg_enumerate(G, limit, nas=nas)
    _, int_mod_inn = class_preserving_auts(G, limit)
    exact: Optional[int] = None
    structure: Optional[list[int]] = None
    excluded_any = False

    def conclude(order, struct, rule, ref):
        nonlocal exact, structure
        certs.append({"rule": rule, "ref": ref})
        if exact is not None and exact != order:
            raise VerdictInconsistent(
                f"rule {rule} gives order {order}, earlier rules {exact}")
        exact = order
        if struct is not None:
            if structure is not None and structure != struct:
                raise VerdictInconsistent(
                    f"rule {rule} gives structure {struct}, earlier rules "
                    f"{structure}")
            structure = struct

    # R0: abelian groups are answered by the full group of alternating forms
    if G.is_abelian():
        A = G.whole_subgroup()
        forms = alternating_forms(A)
        struct = _form_group_structure(forms)
        conclude(len(forms), struct, "R0",
                 "abelian group: twist classes = alternating bilinear forms "
                 "on the character group")

    # R1: trivial pair set
    if exact is None and len(bg) == 1:
        struct = [] if int_mod_inn == 1 else (
            [int_mod_inn] if _is_prime(int_mod_inn) else None)
        conclude(int_mod_inn, struct, "R1",
                 "trivial socle-form set: twist classes = class-preserving "
                 "outer automorphisms")

    element_orders = None
    if exact is None and G.order % 2 == 1 and int_mod_inn == 1:
        element_orders = sorted(bg_element_order(x, nas) for x in bg)

    # R2: odd order with trivial class-preserving outer part
    if element_orders is not None:
        struct = _structure_from_order_and_exponent(len(bg), element_orders)
        conclude(len(bg), struct, "R2",
                 "odd order and class-preserving outer part trivial: the "
                 "socle-form map is a bijection")

    # R3: unique maximal abelian normal subgroup at odd order
    if G.order % 2 == 1 and int_mod_inn == 1:
        maximal = [A for A in nas
                   if not any(set(A.elements) < set(B.elements) for B in nas)]
        if len(maximal) == 1:
            A = maximal[0]
            forms = invariant_forms(A, DualAction(G, A))
            struct = _form_group_structure(forms)
            conclude(len(forms), struct, "R3",
                     "unique maximal abelian normal subgroup at odd order: "
                     "twist classes = invariant alternating forms on its dual")

    # RW: explicit invariant-cocycle witnesses realize socle-form pairs
    witnessed = 0
    witness_keys = set()
    if exact is None:
        for x in bg:
            if x.is_trivial():
                continue
            if x.subgroup.order % 2 == 1:
                cocycle_from_form_odd(x.subgroup, x.form)
                witnessed += 1
                witness_keys.add(x.key())
            else:
                try:
                    result = invariant_cocycle_search(
                        x.subgroup, x.form, DualAction(G, x.subgroup))
                except OrderLimitExceeded:
                    continue
                if result.witness is not None:
                    witnessed += 1
                    witness_keys.add(x.key())
        if witnessed:
            certs.append({
                "rule": "RW",
                "ref": "explicit invariant cocycles on the socle realize "
                       f"{witnessed} non-trivial socle-form pair(s) as twists"})

    # R4: the free coset action brackets the order
    lower = int_mod_inn * (1 + witnessed) if exact is None else exact
    upper = int_mod_inn * len(bg) if exact is None else exact
    if exact is None and lower == upper:
        struct = _structure_from_order_and_exponent(
            lower, [1] + [bg_element_order(x, nas) for x in bg
                          if not x.is_trivial()]) if int_mod_inn == 1 else None
        if lower == 1:
            struct = []
        elif struct is None and _is_prime(lower):
            struct = [lower]
        conclude(lower, struct, "R4",
                 "bounds from the free coset action coincide: every "
                 "socle-form pair is witnessed")
    else:
        certs.append({
            "rule": "R4",
            "ref": "class-preserving outer automorphisms act freely on twist "
                   "classes with orbit set inside the socle-form pairs"})

    # R5: even-order exclusion through multiplicity-freeness
    if exact is None and int_mod_inn == 1 and G.order <= 64 \
            and has_no_multiplicities(G, limit):
        sizes = _candidate_image_sizes(G, bg, nas, witness_keys, limit)
        all_sizes = set(range(1 + witnessed, len(bg) + 1))
        if sizes and len(sizes) == 1:
            size = sizes.pop()
            struct = [] if size == 1 else None
            conclude(size * int_mod_inn, struct, "R5",
                     "multiplicity-free tensor products force an abelian "
                     "class group; the only automorphism-stable candidate "
                     "image has this size")
            excluded_any = True
        elif sizes and sizes != all_sizes:
            lower = max(lower, int_mod_inn * min(sizes))
            upper = min(upper, int_mod_inn * max(sizes))
            excluded_any = True
            certs.append({
                "rule": "R5",
                "ref": "automorphism-stable image candidates narrow the "
                       f"possible sizes to {sorted(sizes)}"})

    # RT: fixed small symmetric groups have trivial twist class group
    if exact is None:
        n_fact = _symmetric_degree(G.order)
        if n_fact is not None and G.order <= 64 and \
                find_isomorphism(G, symmetric(n_fact), limit) is not None:
            if int_mod_inn != 1:
                raise VerdictInconsistent(
                    "symmetric groups have no outer class-preserving "
                    "automorphisms")
            conclude(1, [], "RT",
                     f"isomorphic to the symmetric group on {n_fact} letters, "
                     "whose twist class group is trivial")

    if exact is not None:
        lower = upper = exact
        status = "exact"
        if structure is None and _is_prime(exact):
            structure = [exact]
        if exact == 1:
            structure = []
    else:
        status = "bounded" if excluded_any else "undetermined"

    if not (lower <= upper and lower % int_mod_inn == 0):
        raise VerdictInconsistent(
            f"bounds [{lower}, {upper}] are not ordered multiples of "
            f"|Int/Inn| = {int_mod_inn}")
    return H2Report(group=name, int_mod_inn=int_mod_inn, bg_size=len(bg),
                    order_lower=lower, order_upper=upper, exact_order=exact,
                    structure=structure, status=status, certificates=certs)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _symmetric_degree(order: int) -> Optional[int]:
    f, n = 1, 1
    while f < order:
        n += 1
        f *= n
    return n if f == order and n >= 2 else None


def _transport(x: BGElement, phi, nas_by_elements) -> BGElement:
    """The pair (phi(A), b pushed along phi|A) for an automorphism phi;
    phi(A) is looked up among the abelian normal subgroups by elements."""
    B = nas_by_elements.get(tuple(sorted(phi(a) for a in x.subgroup.elements)))
    if B is None:
        raise VerdictInconsistent("automorphism left the pair set")
    return BGElement(B, x.form.push(B, _dual_matrix(x.subgroup, B, phi)))


def _candidate_image_sizes(G, bg, nas, witness_keys, limit):
    """Sizes of subsets of the socle-form pairs that could be the image of
    the socle-form map: automorphism-stable, closed under the partial
    product and inverses, containing the witnessed pairs, with element
    orders realizable by an abelian group."""
    try:
        auts = automorphism_group(G, limit)
    except OrderLimitExceeded:
        return None
    by_key = {x.key(): i for i, x in enumerate(bg)}
    nas_by_elements = {A.elements: A for A in nas}
    nontrivial = [i for i, x in enumerate(bg) if not x.is_trivial()]

    # orbits of Aut(G) on the non-trivial pairs, via transported forms
    orbits = []
    for i in nontrivial:
        if any(i in orbit for orbit in orbits):
            continue
        orbit = {by_key.get(_transport(bg[i], phi, nas_by_elements).key())
                 for phi in auts}
        if None in orbit:
            raise VerdictInconsistent("automorphism left the pair set")
        orbits.append(sorted(orbit))

    inverse_of = {}
    order_of = {}
    for i in nontrivial:
        inv_key = BGElement(bg[i].subgroup, bg[i].form.inv()).key()
        if inv_key not in by_key:
            raise VerdictInconsistent("inverse left the pair set")
        inverse_of[i] = by_key[inv_key]
        order_of[i] = bg_element_order(bg[i], nas)

    sizes = set()
    for pick in itertools.product((False, True), repeat=len(orbits)):
        chosen = {j for oi, take in enumerate(pick) if take
                  for j in orbits[oi]}
        if not witness_keys <= {bg[j].key() for j in chosen} | {bg[0].key()}:
            continue
        ok = True
        for i in chosen:
            if inverse_of[i] not in chosen:
                ok = False
                break
            for j in chosen:
                p = bg_product(bg[i], bg[j], nas)
                if p is None:
                    continue
                k = by_key.get(p.key())
                if k is None:
                    raise VerdictInconsistent(
                        "partial product left the pair set")
                if k != 0 and k not in chosen:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        if _is_abelian_orders([1] + [order_of[i] for i in chosen]):
            sizes.add(1 + len(chosen))
    return sizes

"""Verdict engine for the group of invariant-twist classes.

bg_enumerate lists the socle-form pairs (abelian normal subgroup with a
conjugation-invariant non-degenerate alternating form on its dual);
h2_compute assembles certified rules into an exact order/structure verdict,
bounds, or an honest "undetermined"; an abelian group is answered from its
invariant factors alone, with no pair listed.  Each rule gives an order,
and a structure only where it says more: R0 and R3 read invariant
factors, R2 and R4 read [p, p] off the pair orders.  The final block
alone turns an exact order of 1 or a prime into [] or [p], and refuses a
structure that does not multiply to the exact order.

Pairs are compared by (socle elements, form entries): the map
(A, b) -> R(A, b) is injective, so this is the same equality as comparing
bicharacter tensors.  Since R(A, b)^k = R(A, b^k), the order of a pair is
the order of its form.  The Aut(G) orbits of rule R5 act on the forms,
by pushing them along homomorphisms of socles (R(B, psi_* b) = (psi x
psi) R(A, b)), so no verdict builds R(A, b).  The partial product is a
sum of forms pushed to an abelian normal C holding both socles, looked up
among the pushed pairs (`_pushed_pairs`), as `bg_product` and R5 do.
RW decides for every non-trivial pair, odd or even, whether an invariant
cocycle realizes it, from one kernel per socle (`RealizableForms`); R4
counts the witnessed pairs, and R5 takes their indices in the pair list.
R5's premise, that G is multiplicity-free, is decided on the orbit sums
of diagonal conjugation on G x G, by Gelfand's lemma where every orbit is
closed under inversion and by multiplying them otherwise.
R5 walks each Aut(G) orbit along generators from a stabilizer chain
(`groups.automorphism_generators`), checks closure under the partial
product on one representative per orbit, and refuses an empty candidate
set.  R3 reads the invariant factors of the invariant forms off the Smith
form of the invariance map's kernel.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Optional

from .groups import (
    ORDER_LIMIT_DEFAULT,
    FiniteGroup,
    Subgroup,
    VerdictInconsistent,
    _check_order,
    _direct_factors,
    _group_structure,
    _orbits,
    _orders_structure,
    automorphism_generators,
    class_preserving_auts,
    find_isomorphism,
    normal_abelian_subgroups,
)
from ._smith import kernel
from .cyclo import _prime_factors
from .fixtures import _group_from_elements, symmetric
from .pontryagin import (
    AltForm,
    DualAction,
    RealizableForms,
    _dual_matrix,
    _space,
    invariant_forms,
    is_nondegenerate,
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
    """A socle-form pair, compared by (socle elements, form entries).

    The form's entries are on the socle's own invariant-factor basis,
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
        return (self.subgroup.elements, self.form.upper)

    def is_trivial(self) -> bool:
        return self.subgroup.order == 1

    def __eq__(self, other):
        return isinstance(other, BGElement) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def bg_enumerate(G: FiniteGroup,
                 limit: int = ORDER_LIMIT_DEFAULT) -> list[BGElement]:
    """All socle-form pairs, sorted by (socle order, socle, form).

    The subgroups are distinct and so are the forms on each, so no pair
    repeats.  Only subgroups of symmetric type can carry a non-degenerate
    alternating form, so the rest are pruned before form enumeration.
    """
    return _pairs_on(G, normal_abelian_subgroups(G, limit))


def _pairs_on(G: FiniteGroup, subgroups) -> list[BGElement]:
    """The pairs with socle among the abelian normal `subgroups`, sorted as
    in `bg_enumerate`, the trivial pair first."""
    out = [BGElement.trivial(G)]
    for A in subgroups:
        if A.order == 1 or not is_symmetric_type(A):
            continue
        out.extend(BGElement(A, b) for b in invariant_forms(
            A, DualAction(G, A)) if is_nondegenerate(b))
    out.sort(key=lambda e: (e.subgroup.order, e.subgroup.elements,
                            e.form.upper))
    return out


def _pushed(x: BGElement, C: Subgroup) -> AltForm:
    """The form of x pushed along the inclusion of its socle in C."""
    return x.form.push(C, _dual_matrix(x.subgroup, C, lambda a: a))


def _pushed_pairs(pairs, C: Subgroup):
    """(upper_of, product) on the pairs with socle in the abelian normal C:
    upper_of[i], the upper entries of pairs[i]'s form pushed to C's dual,
    and product(u, v), the index of the pair whose push is u + v, refusing
    a miss.  Pushing maps these pairs one to one onto the invariant forms
    on C's dual (a form descends to the annihilator of its radical), and
    the partial product onto the sum of forms."""
    inside, moduli = set(C.elements).issuperset, _space(C).moduli
    by_upper = {_pushed(x, C).upper: i for i, x in enumerate(pairs)
                if inside(x.subgroup.elements)}

    def product(u, v):
        k = by_upper.get(tuple((a + b) % m for a, b, m in zip(u, v, moduli)))
        if k is None:
            raise VerdictInconsistent("partial product left the pair set")
        return k

    return {i: u for u, i in by_upper.items()}, product


def bg_product(x: BGElement, y: BGElement) -> Optional[BGElement]:
    """Partial product: defined when an abelian normal subgroup C holds
    both socles.  Both forms are pushed to the dual of C and added there,
    and the product is the pair with socle in C whose push is the sum
    (`_pushed_pairs`)."""
    G = x.subgroup.parent
    nas = normal_abelian_subgroups(G, G.order)
    need = set(x.subgroup.elements) | set(y.subgroup.elements)
    C = next((C for C in nas if need <= set(C.elements)), None)
    if C is None:
        return None
    inside = set(C.elements).issuperset
    pairs = _pairs_on(G, [A for A in nas if inside(A.elements)])
    _, product = _pushed_pairs(pairs, C)
    return pairs[product(_pushed(x, C).upper, _pushed(y, C).upper)]


def bg_element_order(x: BGElement) -> int:
    """Order of x under the partial product: R(A, b)^k = R(A, b^k), so it
    is the order of the form b."""
    return x.form.order()


# ---------------------------------------------------------------------------
# Multiplicity-freeness via commutativity of the diagonal-conjugation
# invariant subalgebra of k[G] x k[G]; no character table is computed.


def _pair_orbits(G: FiniteGroup):
    """The orbits of diagonal conjugation on G x G, each sorted, in the
    order of their least pairs."""
    conj = G.conjugate

    def act(p, g):
        return conj(g, p[0]), conj(g, p[1])

    return _orbits(itertools.product(range(G.order), repeat=2),
                   G.generating_set(), act)


def _orbit_sums_commute(G: FiniteGroup) -> bool:
    """True iff all orbit sums of the diagonal conjugation action on
    G x G commute pairwise.

    Gelfand's trick decides first (`has_no_multiplicities`): inversion
    maps each orbit onto an orbit, so one lookup per orbit tells whether
    it fixes every orbit sum.  Where it does not, which happens also in
    multiplicity-free groups such as C3 x| C4, both products of two orbit
    sums O_i, O_j are compared.  They are invariant under diagonal
    conjugation, so only at one representative r of each orbit, where
    the coefficient of O_i O_j is #{a in O_i : a^-1 r in O_j}.  One pass
    over a in G x G counts these for every (i, j) at once.
    """
    n, table, inv = G.order, G.table, G.inverses
    orbits = _pair_orbits(G)
    orbit_id = [0] * (n * n)
    for i, orbit in enumerate(orbits):
        for x, y in orbit:
            orbit_id[x * n + y] = i
    if all(orbit_id[inv[x] * n + inv[y]] == i
           for i, ((x, y), *_) in enumerate(orbits)):
        return True
    for r0, r1 in (orbit[0] for orbit in orbits):
        # a^-1 r for every a = (a0, a1), in the order of orbit_id
        left = [table[inv[a]][r0] * n for a in range(n)]
        right = [table[inv[a]][r1] for a in range(n)]
        counts = Counter(zip(orbit_id, [orbit_id[u + v] for u in left
                                        for v in right]))
        if any(counts.get((j, i), 0) != c for (i, j), c in counts.items()):
            return False
    return True


def has_no_multiplicities(G: FiniteGroup,
                          limit: int = ORDER_LIMIT_DEFAULT) -> bool:
    """True iff every tensor product of irreducible representations of G
    is multiplicity-free: iff the orbit sums of diagonal conjugation on
    G x G commute.

    The irreducible characters of H x K are the chi x chi', and
    <(chi x chi')(psi x psi'), w x w'> = <chi psi, w> <chi' psi', w'>
    (Isaacs, Character Theory of Finite Groups, Thm 4.21), so G is
    multiplicity-free iff each of its direct factors is.  The orbit sums
    are compared on each non-abelian indecomposable factor alone; abelian
    groups pass at once, as all their irreducibles are linear.

    Gelfand's lemma (Ceccherini-Silberstein, Scarabotti and Tolli,
    Harmonic Analysis on Finite Groups, CUP 2008) answers most factors
    without a product: inversion iota(a, b) = (a^-1, b^-1) is an
    anti-automorphism of k[G x G], and if it fixes every orbit sum then
    XY = iota(XY) = iota(Y) iota(X) = YX for any two invariant X, Y.  The
    orbit sums are multiplied only where some orbit is not closed under
    inversion.
    """
    _check_order(G, limit)
    if G.is_abelian():
        return True
    factors = _direct_factors(G)
    if len(factors) == 1:
        return _orbit_sums_commute(G)
    # each factor as a group of its own, on its sorted elements
    return all(_orbit_sums_commute(H) for H in (
        _group_from_elements(f, lambda a, b: G.table[a][b], str, None)
        for f in factors) if not H.is_abelian())


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
    _check_order(G, limit)
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


def _alternating_form_group(A: Subgroup) -> tuple[int, list[int]]:
    """Order and invariant factors of the alternating forms on the dual of
    A = (+) Z/d_i, which are (+)_{i<j} Z/gcd(d_i, d_j) (Karpilovsky,
    Projective Representations of Finite Groups, 1985); the forms of order
    dividing q number prod gcd(d_i, d_j, q), so none is listed."""
    gcds = _space(A).moduli
    return prod(gcds), _group_structure(
        lambda q: prod(gcd(g, q) for g in gcds), lcm(*gcds))


def _is_abelian_orders(orders: list[int]) -> bool:
    """True iff the element orders are those of an abelian group: the
    group rebuilt from the invariant factors they imply has them."""
    factors = _orders_structure(orders)
    if factors is None:
        return False
    rebuilt = [lcm(*(d // gcd(e, d) for e, d in zip(tup, factors)))
               for tup in itertools.product(*(range(d) for d in factors))]
    return sorted(rebuilt) == sorted(orders)


def _structure_from_order_and_exponent(order, bg):
    """[p, p] when the order is p^2 and every non-trivial pair has order p,
    read through `bg_element_order`; else None.  No element of order p^2
    means the group is not cyclic."""
    orders = {bg_element_order(x) for x in bg} - {1}
    if len(orders) == 1 and order == min(orders) ** 2:
        return [min(orders)] * 2
    return None


def h2_compute(G: FiniteGroup, limit: int = ORDER_LIMIT_DEFAULT,
               name: Optional[str] = None) -> H2Report:
    """Apply the certified rules in order and assemble the verdict."""
    _check_order(G, limit)
    name = name or G.name or f"order-{G.order}"
    certs: list[dict] = []
    abelian = G.is_abelian()
    if abelian:
        # Every subgroup is normal and G acts trivially on its dual, so each
        # alternating form b on the dual is one pair (radical(b)^perp, b
        # descended), and k[G] is commutative, so Int(G) = Inn(G): the
        # closed form gives every number, and no pair is listed.
        forms_order, forms_struct = _alternating_form_group(
            G.whole_subgroup())
        bg = None
        bg_size, int_mod_inn = forms_order, 1
    else:
        bg = bg_enumerate(G, limit)
        bg_size = len(bg)
        _, int_mod_inn = class_preserving_auts(G, limit)
    odd_outer_trivial = G.order % 2 == 1 and int_mod_inn == 1
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
    if abelian:
        conclude(forms_order, forms_struct, "R0",
                 "abelian group: twist classes = alternating bilinear forms "
                 "on the character group")

    # R1: trivial pair set
    if exact is None and bg_size == 1:
        conclude(int_mod_inn, None, "R1",
                 "trivial socle-form set: twist classes = class-preserving "
                 "outer automorphisms")

    # R2: odd order with trivial class-preserving outer part
    if exact is None and odd_outer_trivial:
        conclude(bg_size,
                 _structure_from_order_and_exponent(bg_size, bg), "R2",
                 "odd order and class-preserving outer part trivial: the "
                 "socle-form map is a bijection")

    # R3: unique maximal abelian normal subgroup at odd order
    if odd_outer_trivial:
        r3 = None
        if abelian:
            # G is its own unique maximal abelian normal subgroup, and it
            # acts trivially on its dual
            r3 = forms_order, forms_struct
        else:
            maximal = _maximal(normal_abelian_subgroups(G, limit))
            if len(maximal) == 1:
                # the invariant forms are the kernel of the invariance map,
                # and its Smith form gives their invariant factors
                _, factors = kernel(
                    *DualAction(G, maximal[0]).invariance_map())
                r3 = prod(factors), factors
        if r3 is not None:
            conclude(*r3, "R3",
                     "unique maximal abelian normal subgroup at odd order: "
                     "twist classes = invariant alternating forms on its dual")

    # RW: explicit invariant-cocycle witnesses realize socle-form pairs
    witnessed: list[int] = []
    if exact is None:
        # bg is sorted by socle, so each socle's pairs are one run
        for _, run in itertools.groupby(range(1, bg_size),
                                        lambda i: bg[i].subgroup.elements):
            run = list(run)
            forms = RealizableForms(DualAction(G, bg[run[0]].subgroup))
            witnessed += [i for i in run if forms.realizes(bg[i].form)]
        if witnessed:
            certs.append({
                "rule": "RW",
                "ref": "explicit invariant cocycles on the socle realize "
                       f"{len(witnessed)} non-trivial socle-form pair(s) as "
                       "twists"})

    # R4: the free coset action brackets the order
    lower, upper = int_mod_inn * (1 + len(witnessed)), int_mod_inn * bg_size
    if exact is None and lower == upper:
        conclude(lower, _structure_from_order_and_exponent(lower, bg)
                 if int_mod_inn == 1 else None, "R4",
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
        sizes = _candidate_image_sizes(G, bg, witnessed)
        if not sizes:
            # under R5's premises the image of the socle-form map is one
            raise VerdictInconsistent("no candidate image for R5")
        if len(sizes) == 1:
            conclude(sizes.pop() * int_mod_inn, None, "R5",
                     "multiplicity-free tensor products force an abelian "
                     "class group; the only automorphism-stable candidate "
                     "image has this size")
            excluded_any = True
        elif sizes != set(range(1 + len(witnessed), bg_size + 1)):
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
            conclude(1, None, "RT",
                     f"isomorphic to the symmetric group on {n_fact} letters, "
                     "whose twist class group is trivial")

    if exact is not None:
        lower = upper = exact
        status = "exact"
        # the one place where an order alone gives a structure
        if structure is None:
            structure = [] if exact == 1 else (
                [exact] if _prime_factors(exact) == [exact] else None)
        if structure is not None and prod(structure) != exact:
            raise VerdictInconsistent(
                f"structure {structure} does not multiply to the exact "
                f"order {exact}")
    else:
        status = "bounded" if excluded_any else "undetermined"

    if not (lower <= upper and lower % int_mod_inn == 0):
        raise VerdictInconsistent(
            f"bounds [{lower}, {upper}] are not ordered multiples of "
            f"|Int/Inn| = {int_mod_inn}")
    return H2Report(group=name, int_mod_inn=int_mod_inn, bg_size=bg_size,
                    order_lower=lower, order_upper=upper, exact_order=exact,
                    structure=structure, status=status, certificates=certs)


def _symmetric_degree(order: int) -> Optional[int]:
    f, n = 1, 1
    while f < order:
        n += 1
        f *= n
    return n if f == order and n >= 2 else None


def _maximal(nas) -> list[Subgroup]:
    """The subgroups of `nas` that lie in no other, in `nas`'s order."""
    sets = [set(A.elements) for A in nas]
    return [A for A, a in zip(nas, sets) if not any(a < b for b in sets)]


def _aut_orbits(bg, auts) -> list[list[int]]:
    """The orbits of the group generated by the automorphisms `auts` on the
    non-trivial pairs, as sorted index lists in the order of their least
    pairs.  Each pair (A, b) is moved along one generator phi at a time,
    to (phi(A), b pushed along phi|A), phi(A) looked up by elements among
    the socles of `bg`, which automorphisms permute; the dual matrix of
    phi|A is built once per socle and generator, and serves every form on
    that socle."""
    by_key = {x.key(): i for i, x in enumerate(bg)}
    socles = {x.subgroup.elements: x.subgroup for x in bg}
    pushes: dict = {}

    def act(i, k):
        A, phi = bg[i].subgroup, auts[k]
        if (A.elements, k) not in pushes:
            B = socles.get(tuple(sorted(map(phi, A.elements))))
            if B is None:
                raise VerdictInconsistent("automorphism left the pair set")
            pushes[A.elements, k] = B, _dual_matrix(A, B, phi)
        B, rows = pushes[A.elements, k]
        j = by_key.get((B.elements, bg[i].form.push(B, rows).upper))
        if j is None:
            raise VerdictInconsistent("automorphism left the pair set")
        return j

    return _orbits((i for i, x in enumerate(bg) if not x.is_trivial()),
                   range(len(auts)), act)


def _candidate_image_sizes(G, bg, witnessed):
    """Sizes of subsets of the socle-form pairs that could be the image of
    the socle-form map: automorphism-stable, closed under the partial
    product, containing the pairs bg[i] for i in `witnessed`, with element
    orders realizable by an abelian group.  A finite set closed under the
    product holds each pair's powers, so its inverses too.

    Two pairs have a product iff a maximal abelian normal C holds both
    socles, and each product is a lookup of a sum among the pushed pairs
    (`_pushed_pairs`, as in `bg_product`); a miss is refused.  The product
    is Aut(G)-equivariant, so a union of orbits is closed iff it holds the
    products of one representative of each chosen orbit with every chosen
    pair; these are tabulated once."""
    orbits = _aut_orbits(bg, automorphism_generators(G)[0])
    orbit_of = {i: oi for oi, orbit in enumerate(orbits) for i in orbit}
    # reach[o][o']: the orbits of the non-trivial products rep * y, y in
    # orbit o'
    reach = [[set() for _ in orbits] for _ in orbits]
    for C in _maximal(normal_abelian_subgroups(G, G.order)):
        upper_of, product = _pushed_pairs(bg, C)
        for oi, orbit in enumerate(orbits):
            if orbit[0] not in upper_of:
                continue
            for j, u in upper_of.items():
                k = product(upper_of[orbit[0]], u)
                if j and k:
                    reach[oi][orbit_of[j]].add(orbit_of[k])
    needed = {orbit_of[i] for i in witnessed}
    order_of = {i: bg_element_order(bg[i]) for i in orbit_of}

    sizes = set()
    for pick in itertools.product((False, True), repeat=len(orbits)):
        chosen = {oi for oi, take in enumerate(pick) if take}
        if not needed <= chosen or not all(
                reach[oi][oj] <= chosen for oi in chosen for oj in chosen):
            continue
        members = [i for oi in chosen for i in orbits[oi]]
        if _is_abelian_orders([1] + [order_of[i] for i in members]):
            sizes.add(1 + len(members))
    return sizes

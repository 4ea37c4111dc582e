"""Shared oracles for the test suite: abelian group types, subgroup
lattices, characters and their idempotents, character restriction, direct
products and relabellings, the pair-orbit count, and the brute-force
automorphism, multiplicity, abelian-type and tensor-product checks, the
CycNum-loop tensor product, Drinfeld element and character sums, the
Galois-substitution normal form, the closure loops, the whole-group
multiplicity test, the entry-by-entry table checks and inverse search,
the element-set walk over the subgroups generated by conjugacy classes
and the direct-factor split on it, R5's pair transport with a dual
matrix per pair, the n^3 associativity check, the n^3 sweep of a
product identity over the dual and the per-cell character sum of the
memoized transform, the order-only listing of
Aut(G) and the R5 pair orbits along that listing the library replaced,
the homomorphism search and Aut(G) chain that prune only at generators,
the listing of the class-preserving automorphisms, random loops, the
enumerations that integer linear algebra replaced (the filtered
alternating forms, the radical over the whole dual, descent through
enumerated lifts, the union-find cocycle search, the per-pair
invariant-cocycle system and R5's per-subset closure loop), the
per-subgroup pair listing and per-socle RW decision that the dual-action
types replaced, and the
test-only API moved out of the library: character products, the dual
action on characters, the form of a cocycle and the homomorphism and
bijection checks of a map, the argparse parser that the command line's
flag reader replaced, the solver over Q/Z, and the partial product by
radical and descent that the lookup of a pushed sum replaced."""

import argparse
import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

from lazytwist.cyclo import (CycNum, _phi, _power_table, _prime_factors,
                             from_counts, lift, root_of_unity)
from lazytwist import _smith
from lazytwist._smith import back_substitute
from lazytwist.cli import _COMMANDS, _usage
from lazytwist.fixtures import _group_from_elements
from lazytwist.groups import (FiniteGroup, OrderLimitExceeded,
                              VerdictInconsistent, _hom_search, _orbit,
                              _right_generators, _signatures,
                              normal_abelian_subgroups)
from lazytwist.hopf import GTensor, _counts, form_from_r, socle
from lazytwist.lazy import BGElement, _is_abelian_orders, _pair_orbits
from lazytwist.pontryagin import (AltForm, Character, CocycleSearch,
                                  DualAction, RealizableForms, _dual_apply,
                                  _dual_matrix, _units,
                                  cocycle_identity_holds, invariant_forms,
                                  is_nondegenerate, is_symmetric_type)


def abelian_types(order):
    """Invariant-factor-free list of cyclic decompositions of each abelian
    group of the given order (one tuple per isomorphism type)."""

    def factor(n):
        out = {}
        d = 2
        while d * d <= n:
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
            d += 1
        if n > 1:
            out[n] = out.get(n, 0) + 1
        return out

    def partitions(k):
        if k == 0:
            yield ()
            return
        for first in range(k, 0, -1):
            for rest in partitions(k - first):
                if not rest or first >= rest[0]:
                    yield (first,) + rest

    primes = factor(order)
    per = []
    for p, k in primes.items():
        per.append([tuple(p ** e for e in part) for part in partitions(k)])
    out = []
    for combo in itertools.product(*per):
        out.append(tuple(sorted(d for grp in combo for d in grp)))
    return out or [()]


def abelian_order_multisets(order):
    """Sorted element orders of every abelian group of the given order, one
    tuple per isomorphism type."""
    out = []
    for ds in abelian_types(order):
        orders = []
        for tup in itertools.product(*(range(d) for d in ds)):
            o = 1
            for e, d in zip(tup, ds):
                oo = d // gcd(e, d)
                o = o * oo // gcd(o, oo)
            orders.append(o)
        out.append(tuple(sorted(orders)))
    return out


def product_group(ds):
    els = list(itertools.product(*(range(d) for d in ds)))
    return _group_from_elements(
        els,
        lambda a, b: tuple((x + y) % d for x, y, d in zip(a, b, ds)),
        str, name=f"ab{ds}")


def metacyclic(m, n, r):
    """C_m x|_r C_n: pairs (a, b) for x^a y^b, with y x y^-1 = x^r, so
    (a, b)(c, d) = (a + r^b c, b + d); r^n must be 1 mod m."""
    if pow(r, n, m) != 1 % m:
        raise ValueError(f"{r}^{n} is not 1 mod {m}")
    return _group_from_elements(
        itertools.product(range(m), range(n)),
        lambda x, y: ((x[0] + pow(r, x[1], m) * y[0]) % m, (x[1] + y[1]) % n),
        str, name=f"C{m}x|C{n}")


def pairwise_closure(G, elements):
    """The subgroup generated by the elements, closed by multiplying each
    new element with every element found so far, on both sides."""
    out = set(elements) | {0}
    frontier = list(out)
    while frontier:
        new = []
        for a in frontier:
            for b in list(out):
                for c in (G.table[a][b], G.table[b][a]):
                    if c not in out:
                        out.add(c)
                        new.append(c)
        frontier = new
    return out


def all_subgroups(G):
    """Every subgroup of a small group, as sorted element tuples: the
    joins of its cyclic subgroups, closed by pairwise_closure."""
    cyclics = {tuple(sorted(pairwise_closure(G, {x}))) for x in range(G.order)}
    subs = set(cyclics)
    frontier = set(cyclics)
    while frontier:
        new = set()
        for s in frontier:
            for c in cyclics:
                if set(c) <= set(s):
                    continue
                j = tuple(sorted(pairwise_closure(G, set(s) | set(c))))
                if j not in subs:
                    subs.add(j)
                    new.add(j)
        frontier = new
    return sorted(subs, key=lambda s: (len(s), s))


def lattice_normal_abelian_subgroups(G):
    """The abelian normal subgroups as sorted element tuples, by the walk
    over class-closed abelian unions of classes: grow each one found by
    one commuting class at a time and close the union under
    multiplication, abandoning it once it leaves the abelian candidates."""
    classes = G.conjugacy_classes()
    t = G.table
    class_of = {}
    for ci, c in enumerate(classes):
        for x in c:
            class_of[x] = ci

    def commuting(c1, c2):
        return all(t[a][b] == t[b][a] for a in c1 for b in c2)

    cand = [ci for ci in range(1, len(classes))
            if commuting(classes[ci], classes[ci])]
    cand_set = set(cand)
    compat = {}

    def compatible(i, j):
        key = (i, j) if i <= j else (j, i)
        if key not in compat:
            compat[key] = commuting(classes[key[0]], classes[key[1]])
        return compat[key]

    def close(class_ids):
        current = set(class_ids)
        while True:
            union = {0}
            for ci in current:
                union.update(classes[ci])
            new = set()
            for a in union:
                for b in union:
                    ci = class_of[t[a][b]]
                    if ci != 0 and ci not in current:
                        new.add(ci)
            if not new:
                return frozenset(current)
            for ci in new:
                if ci not in cand_set:
                    return None
                if not all(compatible(ci, cj) for cj in current | new):
                    return None
            current |= new

    seen = {frozenset()}
    queue = [frozenset()]
    found = []
    while queue:
        S = queue.pop()
        found.append(S)
        for ci in cand:
            if ci in S:
                continue
            if not all(compatible(ci, cj) for cj in S):
                continue
            T = close(S | {ci})
            if T is not None and T not in seen:
                seen.add(T)
                queue.append(T)
    subs = [tuple(sorted({0}.union(*(classes[ci] for ci in S))))
            for S in found]
    return sorted(subs, key=lambda s: (len(s), s))


def queue_permutations(degree, generators, limit=256):
    """The permutations generated by the given ones (1-based images), as
    0-based tuples in the order a first-in first-out queue reaches them."""
    gens = [tuple(int(x) - 1 for x in g) for g in generators]
    ident = tuple(range(degree))
    elements = [ident]
    index = {ident: 0}
    queue = [ident]
    while queue:
        cur = queue.pop(0)
        for g in gens:
            nxt = tuple(cur[g[i]] for i in range(degree))
            if nxt not in index:
                if len(elements) >= limit:
                    raise OrderLimitExceeded(f"closure exceeds {limit}")
                index[nxt] = len(elements)
                elements.append(nxt)
                queue.append(nxt)
    return elements


def loop_tuple_group(G, degree, tuples, cap=200):
    """Sorted elements of the subgroup of G^degree generated by the tuples,
    closed by multiplying every pair again on each round; the cap is
    checked only when an element is added."""
    elems = {(0,) * degree} | {tuple(t) for t in tuples}
    changed = True
    while changed:
        changed = False
        current = list(elems)
        for a in current:
            for b in current:
                c = tuple(G.table[x][y] for x, y in zip(a, b))
                if c not in elems:
                    elems.add(c)
                    changed = True
                    if len(elems) > cap:
                        raise OrderLimitExceeded(f"beyond {cap} elements")
    return sorted(elems)


def element_class_subgroups(G, classes, admissible=None):
    """The subgroups generated by classes from `classes`, as frozensets of
    elements, in the order of the breadth-first walk that grows a subgroup
    S by one class c not in S at a time: S<c> is the union of the cosets
    Sx for x in <c>, and with `admissible`, S grows by c only where
    admissible(S's generators, c)."""
    t = G.table
    gens_of = {frozenset({0}): ()}
    spans = {}

    def grow(S, c):
        gens = gens_of[S]
        if c[0] in S or (admissible is not None
                         and not admissible(gens, c)):
            return S
        if c not in spans:
            spans[c] = _orbit(0, c, lambda x, g: t[x][g])
        T = set(S)
        for x in spans[c]:
            if x not in T:
                T.update(t[s][x] for s in S)
        T = frozenset(T)
        gens_of.setdefault(T, gens + c)
        return T

    return _orbit(frozenset({0}), classes, grow)


def element_class_walks(G):
    """The oracle's full walk over every non-identity class, and its
    abelian walk over the classes that commute with themselves, admitting
    a class where it commutes with the generators so far."""
    t = G.table

    def commute(xs, ys):
        return all(t[a][b] == t[b][a] for a in xs for b in ys)

    classes = G.conjugacy_classes()[1:]
    return (element_class_subgroups(G, classes),
            element_class_subgroups(
                G, [c for c in classes if commute(c, c)],
                lambda gens, c: commute(c, gens)))


def element_direct_factors(G):
    """The direct factors of G, split as `groups._direct_factors` does, on
    the element sets of the oracle's full walk."""
    normal = sorted(element_class_walks(G)[0], key=len)
    by_order = {}
    for S in normal:
        by_order.setdefault(len(S), []).append(S)
    factors, rest = [], frozenset(range(G.order))
    while len(rest) > 1:
        for N in normal[1:]:
            if len(rest) % len(N) or not N <= rest:
                continue
            M = next((M for M in by_order.get(len(rest) // len(N), ())
                      if len(M & N) == 1 and M <= rest), None)
            if M is not None:
                break
        factors.append(tuple(sorted(N)))
        rest = M
    return factors


def sweep_conjugacy_classes(G):
    """Conjugacy classes by conjugating each new element by all of G,
    identity class first, the rest by least element."""
    seen, classes = set(), []
    for x in range(G.order):
        if x not in seen:
            orbit = sorted({G.conjugate(g, x) for g in range(G.order)})
            seen.update(orbit)
            classes.append(tuple(orbit))
    ident = [c for c in classes if 0 in c]
    return ident + sorted((c for c in classes if 0 not in c), key=min)


def stack_pair_orbits(G):
    """Sorted diagonal-conjugation orbits on G x G, each walked with a
    stack from its least pair."""
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


def characters(A):
    """All |A| characters of an abelian subgroup, in lexicographic
    exponent order."""
    return [Character(A, exps) for exps in itertools.product(
        *(range(d) for _, d in A.abelian_structure()))]


def char_mul(x, y):
    """The product of two characters of one abelian subgroup."""
    return Character(x.group, tuple(
        (a + b) % d for (_, d), a, b in
        zip(x.group.abelian_structure(), x.exponents, y.exponents)))


def on_character(action, g, chi):
    """The character g.chi under a DualAction."""
    return Character(action.A, action.on_exponents(g, chi.exponents))


def cocycle_form(A, c):
    """The alternating form b(rho, sigma) = c(sigma, rho) / c(rho, sigma)
    of a cocycle table; VerdictInconsistent when a value is not a root of
    unity of the right order."""
    ds = [d for _, d in A.abelian_structure()]
    units = _units(len(ds))
    upper = []
    for i, j in itertools.combinations(range(len(ds)), 2):
        v = c[(units[j], units[i])] / c[(units[i], units[j])]
        m = gcd(ds[i], ds[j])
        e = next((k for k in range(m) if root_of_unity(m, k) == v), None)
        if e is None:
            raise VerdictInconsistent(
                "form value is not a root of unity of the right order")
        upper.append(e)
    return AltForm.from_upper(A, upper)


def is_homomorphism(phi):
    """Whether a GroupMap respects every product of its source."""
    s, t, im = phi.source.table, phi.target.table, phi.images
    return all(im[s[a][b]] == t[im[a]][im[b]]
               for a in range(phi.source.order)
               for b in range(phi.source.order))


def is_bijective(phi):
    """Whether a GroupMap hits every element of its target once."""
    return sorted(phi.images) == list(range(phi.target.order))


def char_value(chi, a):
    """chi(a) as a CycNum, read off chi.value_exponent."""
    t, L = chi.value_exponent(a)
    return root_of_unity(L, t)


def form_value(b, rho, sigma):
    """b(rho, sigma) as a CycNum, read off b.value_exponent."""
    t, L = b.value_exponent(rho, sigma)
    return root_of_unity(L, t)


def idempotent(A, chi):
    """e_chi = |A|^-1 sum chi(a^-1) a."""
    G = A.parent
    scale = CycNum.rational(Fraction(1, A.order))
    return GTensor(G, 1, {(a,): char_value(chi, G.inverses[a]) * scale
                          for a in A.elements})


def invariant_orbit_dimension(G):
    """Dimension of the conjugation-invariant subalgebra of k[G] x k[G]:
    the number of diagonal-conjugation orbits on G x G."""
    return len(_pair_orbits(G))


def restrict_character(chars_A, exponents, B):
    """Restrict the character of A with the given exponents to the
    subgroup B, returning B-exponents."""
    chi = next(c for c in chars_A if c.exponents == tuple(exponents))
    out = []
    for g, d in B.abelian_structure():
        t, L = chi.value_exponent(g)
        if t * d % L:
            raise AssertionError("restricted value order mismatch")
        out.append(t * d // L % d)
    return tuple(out)


def direct_product(*factors):
    """Direct product of FiniteGroups, elements in lexicographic order."""
    els = list(itertools.product(*(range(F.order) for F in factors)))
    return _group_from_elements(
        els, lambda a, b: tuple(F.table[x][y]
                                for F, x, y in zip(factors, a, b)),
        str, name="x".join(F.name for F in factors))


# Direct products the multiplicity test splits: the eight even-search
# groups, then products whose answer is False (through A4 or C27sd) or
# with three or more factors.
SPLIT_GROUPS = ["D8xC2", "D8xC4", "D8xC6", "Wr_2xC2", "Q8xC2xC2", "A4xS3",
                "S4xC2", "D8xS3", "A4xC2", "S3xS3xC2", "C27sdxC2",
                "C2xC2xD8"]


# RW's oracle products: the eight even-search groups, A4xC2, D8xC3xC3,
# Wall32xC2, D8xD8xC2, D8xC2^3 and Q8xC2^3
RW_PRODUCTS = ["D8xC2", "D8xC4", "D8xC6", "Wr_2xC2", "Q8xC2xC2", "A4xS3",
               "S4xC2", "D8xS3", "A4xC2", "D8xC3xC3", "Wall32xC2",
               "D8xD8xC2", "D8xC2xC2xC2", "Q8xC2xC2xC2"]


def named_group(groups, name):
    """A builtin group from the `groups` fixture, or the direct product of
    builtins for a name like "D8xS3"."""
    if "x" in name:
        return direct_product(*(groups(f) for f in name.split("x")))
    return groups(name)


def relabelling(n, seed):
    """new_of[old] for a uniform random relabelling of 0..n-1 fixing 0."""
    rest = list(range(1, n))
    random.Random(seed).shuffle(rest)
    return [0] + rest


def relabelled(G, seed):
    """G under relabelling(G.order, seed): the identity stays at 0."""
    new_of = relabelling(G.order, seed)
    old_of = [0] * G.order
    for old, new in enumerate(new_of):
        old_of[new] = old
    table = [[new_of[G.table[old_of[a]][old_of[b]]] for b in range(G.order)]
             for a in range(G.order)]
    return FiniteGroup(table, name=G.name)


def brute_force_homs(G, H, candidates):
    """Image tuples of the bijective homomorphisms G -> H sending the i-th
    generator of G into candidates[i]: every tuple of generator images is
    extended along words and then checked on all |G|^2 products."""
    gens = G.generating_set()
    parent = {0: None}
    queue = [0]
    while queue:
        cur = queue.pop(0)
        for pos, g in enumerate(gens):
            nxt = G.table[cur][g]
            if nxt not in parent:
                parent[nxt] = (cur, pos)
                queue.append(nxt)
    out = []
    for images in itertools.product(*candidates):
        im = [0] * G.order
        for x in list(parent)[1:]:  # BFS order: each parent comes first
            prev, pos = parent[x]
            im[x] = H.table[im[prev]][images[pos]]
        if sorted(im) != list(range(H.order)):
            continue
        if all(im[G.table[a][b]] == H.table[im[a]][im[b]]
               for a in range(G.order) for b in range(G.order)):
            out.append(tuple(im))
    return sorted(out)


def order_only_automorphisms(G):
    """Sorted image tuples of every automorphism of G, found by the search
    labelling each element by its order."""
    orders = [G.element_order(x) for x in range(G.order)]
    return _hom_search(G, G, orders, orders)


def generator_pruned_homs(G, H, candidates, first=False):
    """Sorted image tuples of the injective homomorphisms G -> H sending
    the i-th generator of G into candidates[i], with `first` at most one:
    the backtrack that checks each element's image only for injectivity
    and the product rule, with no label at any element."""
    gens, tG, tH = G.generating_set(), G.table, H.table
    im = [0] + [None] * (G.order - 1)
    used = [True] + [False] * (H.order - 1)
    span, found = [0], []

    def edge(x, h):
        y, want = tG[x][h], tH[im[x]][im[h]]
        if im[y] is None:
            if used[want]:
                return False
            im[y], used[want] = want, True
            span.append(y)
            return True
        return im[y] == want

    def extend(k):
        if k == len(gens):
            found.append(tuple(im))
            return
        g, fixed, start = gens[k], gens[:k + 1], len(span)
        for c in candidates[k]:
            if used[c]:
                continue
            im[g], used[c] = c, True
            span.append(g)
            i, ok = start, all(edge(x, g) for x in span[:start])
            while ok and i < len(span):
                ok, i = all(edge(span[i], h) for h in fixed), i + 1
            if ok:
                extend(k + 1)
            for y in span[start:]:
                used[im[y]], im[y] = False, None
            del span[start:]
            if first and found:
                return

    extend(0)
    return sorted(found)


def signature_candidates(G, H):
    """For each generator of G, the elements of H with its signature, or
    None when the signatures of G and H differ as multisets."""
    sig_G, sig_H = _signatures(G), _signatures(H)
    if sorted(sig_G) != sorted(sig_H):
        return None
    return [[y for y, s in enumerate(sig_H) if s == sig_G[g]]
            for g in G.generating_set()]


def generator_pruned_chain(G):
    """Generators of Aut(G) and its order from the stabilizer chain run on
    `generator_pruned_homs`: level i pins g_1..g_(i-1), and each signature
    candidate of g_i outside the level's orbit costs one first-hit search."""
    gens, candidates = G.generating_set(), signature_candidates(G, G)
    found, order = [], 1
    for i, g in enumerate(gens):
        level, orbit = [], {g}
        for c in candidates[i]:
            if c in orbit:
                continue
            hit = generator_pruned_homs(
                G, G, [[h] for h in gens[:i]] + [[c]] + candidates[i + 1:],
                first=True)
            if hit:
                level.append(hit[0])
                orbit = set(_orbit(g, level, lambda x, phi: phi[x]))
        found.extend(level)
        order *= len(orbit)
    return found, order


def class_preserving_listing(G):
    """Sorted image tuples of every class-preserving automorphism of G:
    the brute-force homomorphisms drawing each generator's images from its
    class, kept when every element stays in its class."""
    classes = G.conjugacy_classes()
    class_of = {x: ci for ci, c in enumerate(classes) for x in c}
    return [im for im in brute_force_homs(
        G, G, [classes[class_of[g]] for g in G.generating_set()])
        if all(class_of[im[x]] == class_of[x] for x in range(G.order))]


def generated_automorphisms(G, maps):
    """Sorted image tuples of the group the automorphisms generate."""
    return sorted(_orbit(tuple(range(G.order)), [phi.images for phi in maps],
                         lambda im, phi: tuple(phi[x] for x in im)))


def transport(x, phi, nas_by_elements):
    """The pair (phi(A), b pushed along phi|A) for an automorphism phi;
    phi(A) is looked up among the abelian normal subgroups by elements,
    and the dual matrix of phi|A is built for this pair alone."""
    B = nas_by_elements.get(tuple(sorted(phi(a) for a in x.subgroup.elements)))
    if B is None:
        raise VerdictInconsistent("automorphism left the pair set")
    return BGElement(B, x.form.push(B, _dual_matrix(x.subgroup, B, phi)))


def listing_pair_orbits(bg, nas, auts):
    """Orbits of the listed automorphisms (image tuples) on the non-trivial
    pairs: each orbit is the first pair left over pushed along every one."""
    by_key = {x.key(): i for i, x in enumerate(bg)}
    by_elements = {A.elements: A for A in nas}
    orbits = []
    for i, x in enumerate(bg):
        if x.is_trivial() or any(i in orbit for orbit in orbits):
            continue
        orbit = {by_key.get(transport(x, im.__getitem__, by_elements).key())
                 for im in auts}
        if None in orbit:
            raise VerdictInconsistent("automorphism left the pair set")
        orbits.append(sorted(orbit))
    return orbits


def convolution_no_multiplicities(G, orbits):
    """Whether the orbit sums of the given diagonal-conjugation orbits on
    G x G commute, by convolving every pair in full."""
    table = G.table

    def convolve(s1, s2):
        out = {}
        for a in s1:
            for b in s2:
                t = (table[a[0]][b[0]], table[a[1]][b[1]])
                out[t] = out.get(t, 0) + 1
        return out

    return all(convolve(orbits[i], orbits[j]) == convolve(orbits[j], orbits[i])
               for i in range(len(orbits)) for j in range(i + 1, len(orbits)))


def whole_group_no_multiplicities(G):
    """Whether the orbit sums of diagonal conjugation on the whole of
    G x G commute, compared at one representative of each orbit: the
    multiplicity test before it split G into direct factors."""
    n, table, inv = G.order, G.table, G.inverses
    orbits = _pair_orbits(G)
    orbit_id = [0] * (n * n)
    for i, orbit in enumerate(orbits):
        for x, y in orbit:
            orbit_id[x * n + y] = i
    for r0, r1 in (orbit[0] for orbit in orbits):
        left = [table[inv[a]][r0] * n for a in range(n)]
        right = [table[inv[a]][r1] for a in range(n)]
        counts = Counter(zip(orbit_id, [orbit_id[u + v] for u in left
                                        for v in right]))
        if any(counts.get((j, i), 0) != c for (i, j), c in counts.items()):
            return False
    return True


def cubic_associativity_witness(table):
    """The first triple (a, b, c) with (ab)c != a(bc), over all n^3
    triples, or None."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    return (a, b, c)
    return None


def entrywise_from_table(table):
    """`groups.from_table`'s checks entry by entry, in its order: the
    (message, witness) of the first one that fails, or the table with its
    identity moved to 0 and the moving permutation."""
    n = len(table)
    if n == 0 or any(len(row) != n for row in table):
        return "table is not square", None
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            if type(v) is not int or not (0 <= v < n):
                return f"entry out of range at ({i},{j})", (i, j, v)
    ident = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            ident = e
            break
    if ident is None:
        return "no two-sided identity", None
    perm = list(range(n))
    perm[0], perm[ident] = ident, 0
    table = [[perm[table[perm[a]][perm[b]]] for b in range(n)]
             for a in range(n)]
    for s in _right_generators(table):
        row_s = table[s]
        for x in range(n):
            row_x = table[x]
            row_xs = table[row_x[s]]
            for y in range(n):
                if row_xs[y] != row_x[row_s[y]]:
                    return "associativity fails", (x, s, y)
    for a in range(n):
        if 0 not in table[a]:
            return "row without identity (no inverse)", a
    return table, perm


def loop_inverses(table):
    """(inverses, None), each element's first b with ab = 0 = ba, or
    (None, a) for the first element a that has none."""
    n, inv = len(table), []
    for a in range(n):
        b = next((b for b in range(n)
                  if table[a][b] == 0 and table[b][a] == 0), None)
        if b is None:
            return None, a
        inv.append(b)
    return tuple(inv), None


def random_loop(n, rng):
    """A random Latin square of order n with identity 0 in its first row
    and column: each cell takes a random value its row and column leave
    free, backtracking where none is left."""
    table = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]

    def fill(k):
        if k == (n - 1) * (n - 1):
            return True
        i, j = 1 + k // (n - 1), 1 + k % (n - 1)
        used = set(table[i][:j]) | {table[r][j] for r in range(i)}
        options = [v for v in range(n) if v not in used]
        rng.shuffle(options)
        for v in options:
            table[i][j] = v
            if fill(k + 1):
                return True
        table[i][j] = None
        return False

    fill(0)
    return table


def loop_mul(x, y):
    """x y in k[G]^(tensor d) with one normalized CycNum product and one
    normalized addition per pair of terms."""
    table = x.group.table
    out = {}
    for t1, c1 in x.terms.items():
        for t2, c2 in y.terms.items():
            t = tuple(table[a][b] for a, b in zip(t1, t2))
            v = out.get(t, CycNum.zero()) + c1 * c2
            if v.is_zero():
                out.pop(t, None)
            else:
                out[t] = v
    return GTensor(x.group, x.degree, out)


def loop_drinfeld_element(R):
    """u_R = sum S(t) s over the terms s x t of R, one normalized addition
    per term."""
    G = R.group
    out = {}
    for (s, t), c in R.terms.items():
        g = (G.table[G.inverses[t]][s],)
        out[g] = out.get(g, CycNum.zero()) + c
    return GTensor(G, 1, out)


def _common_overgroup(x, y):
    """The least abelian normal subgroup that holds the socles of both
    pairs, or None."""
    G = x.subgroup.parent
    need = set(x.subgroup.elements) | set(y.subgroup.elements)
    return next((C for C in normal_abelian_subgroups(G, G.order)
                 if need <= set(C.elements)), None)


def tensor_bg_product(x, y):
    """Partial product of socle-form pairs through group-algebra tensors:
    R(A, b) R(A', b') in k[G] x k[G], its socle, and the form read back on
    that socle.  None when no abelian normal subgroup holds both socles."""
    if _common_overgroup(x, y) is None:
        return None
    R = x.canonical_r.mul(y.canonical_r)
    D = socle(R)
    out = BGElement(D, form_from_r(D, R))
    if out.canonical_r != R:
        raise AssertionError("product tensor is not a bicharacter")
    return out


# -- character sums one CycNum addition at a time -----------------------------


def loop_fourier_invert(H, coeffs):
    """Inverse of sum coeffs[a] a in k[H], H abelian, through char_value
    and one normalized addition per term; None when singular."""
    chars = characters(H.whole_subgroup())
    n = H.order
    hat = []
    for chi in chars:
        v = CycNum.zero()
        for a, c in enumerate(coeffs):
            if not c.is_zero():
                v = v + c * char_value(chi, a)
        if v.is_zero():
            return None
        hat.append(v.inv())
    scale = CycNum.rational(Fraction(1, n))
    out = []
    for a in range(n):
        v = CycNum.zero()
        ainv = H.inverses[a]
        for chi, hv in zip(chars, hat):
            v = v + hv * char_value(chi, ainv)
        out.append(v * scale)
    return out


def flat_fourier_invert(H, coeffs):
    """loop_fourier_invert with each Fourier value summed in one pass: the
    terms are lifted once to integer exponent counts over one zeta_M and a
    common denominator, added there, and normalized once by the CycNum
    constructor."""
    L = H.exponent()
    exps = [[chi.value_exponent(a)[0] for a in range(H.order)]
            for chi in characters(H.whole_subgroup())]

    def counts(values):
        M, raws = lift(values, L)
        d = lcm(*(q.denominator for raw in raws for q in raw.values()))
        return M, d, [{k: int(q * d) for k, q in raw.items()} for raw in raws]

    def fourier_sum(lifted, row, sign):
        M, d, raws = lifted
        acc = {}
        for raw, e in zip(raws, row):
            e = sign * e * (M // L)
            for k, q in raw.items():
                k = (k + e) % M
                acc[k] = acc.get(k, 0) + q
        return CycNum(M, {k: Fraction(q, d) for k, q in acc.items()})

    support = [a for a, c in enumerate(coeffs) if not c.is_zero()]
    lifted = counts([coeffs[a] for a in support])
    hat = [fourier_sum(lifted, [row[a] for a in support], 1) for row in exps]
    if any(v.is_zero() for v in hat):
        return None
    lifted = counts([v.inv() for v in hat])
    scale = CycNum.rational(Fraction(1, H.order))
    return [fourier_sum(lifted, [row[a] for row in exps], -1) * scale
            for a in range(H.order)]


def loop_twist_from_cocycle(A, c):
    """sum c(rho, sigma) e_rho x e_sigma over the dual of A, in two stages
    of char_value sums; no cocycle check."""
    G = A.parent
    chars = {chi.exponents: chi for chi in characters(A)}
    inv = G.inverses
    stage = {}
    for g in A.elements:
        row = {}
        for sigma in chars:
            v = CycNum.zero()
            for rho in chars:
                v = v + c[(rho, sigma)] * char_value(chars[rho], inv[g])
            row[sigma] = v
        stage[g] = row
    scale = CycNum.rational(Fraction(1, A.order * A.order))
    terms = {}
    for g in A.elements:
        for h in A.elements:
            v = CycNum.zero()
            for sigma in chars:
                v = v + stage[g][sigma] * char_value(chars[sigma], inv[h])
            terms[(g, h)] = v * scale
    return GTensor(G, 2, terms)


def loop_fourier(A, x):
    """Fourier table chi -> sum lambda_g chi(g^-1) through char_value."""
    G = A.parent
    out = {}
    for chi in characters(A):
        v = CycNum.zero()
        for (g,), c in x.terms.items():
            v = v + c * char_value(chi, G.inverses[g])
        out[chi.exponents] = v
    return out


def cubic_products_agree(A, c, left, right):
    """pontryagin._products_agree over every triple (x, y, z) of the dual
    of A, with no generator argument: whether the product of the values
    c[(u, v)] over the word pairs of left equals that over the word pairs
    of right, a word pair naming two of (x, y, z, xy, yz)."""
    ds = [d for _, d in A.abelian_structure()]
    duals = list(itertools.product(*(range(d) for d in ds)))
    index = {x: i for i, x in enumerate(duals)}
    mul = [[index[tuple((a + b) % d for a, b, d in zip(x, y, ds))]
            for y in duals] for x in duals]
    ids, vals, cache = {}, [], {}

    def intern(v):
        k = v.key()
        if k not in ids:
            ids[k] = len(vals)
            vals.append(v)
        return ids[k]

    table = [[intern(c[(x, y)]) for y in duals] for x in duals]

    def side(pairs, w):
        i = None
        for u, v in pairs:
            j = table[w[u]][w[v]]
            if i is not None:
                if (i, j) not in cache:
                    cache[i, j] = intern(vals[i] * vals[j])
                j = cache[i, j]
            i = j
        return i

    n = range(len(duals))
    return all(side(left, w) == side(right, w)
               for w in ((x, y, z, mul[x][y], mul[y][z])
                         for x in n for y in n for z in n))


def cellwise_transform(table, terms, degree, inverse=False):
    """hopf._transform with one character sum per output point: the
    exponent counts of every term, shifted by its character value, summed
    into that point and normalized by their own from_counts call."""
    L, E = table
    if inverse:
        E = {a: {s: -Es[a] % L for s, Es in E.items()}
             for a in next(iter(E.values()))}
    M, d, cells = _counts(terms, L)
    if inverse:
        d *= len(E) ** degree
    out = {}
    for p in itertools.product(E, repeat=degree):
        acc = Counter()
        for t, raw in cells.items():
            e = sum(E[s][x] for s, x in zip(p, t)) * (M // L)
            for k, q in raw.items():
                acc[(k + e) % M] += q
        out[p] = from_counts(M, {k: q for k, q in acc.items() if q}, d)
    return out


# -- the cyclotomic normal form through Galois substitutions ------------------


def _substitute(n, coeffs, j):
    """The image of sum q zeta_n^e under zeta_n -> zeta_n^j, reduced."""
    table = _power_table(n)
    out = {}
    for e, q in coeffs.items():
        for k, c in enumerate(table[(j * e) % n]):
            if c:
                out[k] = out.get(k, Fraction(0)) + q * c
    return {k: q for k, q in out.items() if q}


def _subfield_coordinates(n, m, coeffs):
    """Coordinates of x in Q(zeta_n) on the power basis of Q(zeta_m), by
    Gauss-Jordan elimination on the vectors of zeta_n^((n/m) i)."""
    table = _power_table(n)
    phi_n, phi_m = _phi(n), _phi(m)
    basis = [table[(n // m * i) % n] for i in range(phi_m)]
    rows = [[Fraction(basis[i][r]) for i in range(phi_m)]
            + [coeffs.get(r, Fraction(0))] for r in range(phi_n)]
    pivots = []
    for col in range(phi_m):
        r = len(pivots)
        pr = next(i for i in range(r, phi_n) if rows[i][col])
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [c / rows[r][col] for c in rows[r]]
        for i in range(phi_n):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    if any(rows[r][phi_m] for r in range(phi_m, phi_n)):
        raise AssertionError("x is not in the subfield")
    return {col: rows[r][phi_m] for r, col in enumerate(pivots)
            if rows[r][phi_m]}


def galois_normalize(n, raw):
    """(conductor, coordinates) of sum q zeta_n^e over raw {e: q}: fold
    through the reduction table, then, one prime p at a time, descend to
    Q(zeta_(n/p)) while every substitution zeta_n -> zeta_n^j with
    j = 1 mod n/p fixes the value."""
    coeffs = _substitute(n, {e: Fraction(q) for e, q in raw.items() if q}, 1)
    if not coeffs:
        return 1, {}
    changed = True
    while changed and n > 1:
        changed = False
        for p in _prime_factors(n):
            m = n // p
            fixing = [j for j in range(2, n + 1)
                      if gcd(j, n) == 1 and j % m == 1 % m]
            if all(_substitute(n, coeffs, j) == coeffs for j in fixing):
                coeffs = _subfield_coordinates(n, m, coeffs)
                n = m
                changed = True
                break
    return n, coeffs


# -- the enumerations integer linear algebra replaced -------------------------


def on_form(action, g, b):
    """The transported form (g.b)(rho, sigma) = b(g^-1.rho, g^-1.sigma):
    the push along a -> g a g^-1."""
    return b.push(action.A, _dual_matrix(
        action.A, action.A, lambda a: action.G.conjugate(g, a)))


def basis_symmetric_type(A):
    """Whether every invariant factor of A occurs an even number of times,
    read off its invariant-factor basis (`abelian_structure`)."""
    ds = [d for _, d in A.abelian_structure()]
    if len(ds) % 2:
        return False
    return all(ds[i] == ds[i + 1] for i in range(0, len(ds), 2))


def _entrywise(A, matrices, f):
    """The form on the dual of A with matrix entries f(x_ij, y_ij, ...) mod
    gcd(d_i, d_j), from the entries of the given matrices."""
    ds = [d for _, d in A.abelian_structure()]
    return AltForm(A, tuple(
        tuple(f(*es) % gcd(ds[i], ds[j]) for j, es in enumerate(zip(*rows)))
        for i, rows in enumerate(zip(*matrices))))


def entrywise_mul(b, c):
    """b c by entrywise matrix sums mod gcd(d_i, d_j)."""
    return _entrywise(b.group, (b.matrix, c.matrix), lambda x, y: x + y)


def entrywise_inv(b):
    """b^-1 by entrywise negation mod gcd(d_i, d_j)."""
    return _entrywise(b.group, (b.matrix,), lambda x: -x)


def is_skew(b):
    """Whether b's matrix is skew with zero diagonal, entrywise mod
    gcd(d_i, d_j)."""
    transpose = tuple(zip(*b.matrix))
    return not any(row[i] for i, row in enumerate(b.matrix)) and not any(
        map(any, _entrywise(b.group, (b.matrix, transpose),
                            lambda x, y: x + y).matrix))


def entrywise_order(b):
    """The least k >= 1 with b^k trivial, by entrywise multiples."""
    k = 1
    while any(map(any, _entrywise(b.group, (b.matrix,),
                                  lambda x: k * x).matrix)):
        k += 1
    return k


def enumerated_radical(b):
    """The radical of b by sweeping the whole dual: every rho with
    b(rho, chi_j) = 1 on the dual generators."""
    ds = [d for _, d in b.group.abelian_structure()]
    units = _units(len(ds))
    return [rho for rho in itertools.product(*(range(d) for d in ds))
            if all(b.value_exponent(rho, u)[0] == 0 for u in units)]


def product_alternating_forms(A):
    """Every alternating form on the dual of A, one per choice of upper
    entries in the itertools.product of the ranges Z/gcd(d_i, d_j)."""
    ds = [d for _, d in A.abelian_structure()]
    pairs = list(itertools.combinations(range(len(ds)), 2))
    return [AltForm.from_upper(A, combo)
            for combo in itertools.product(
                *(range(gcd(ds[i], ds[j])) for i, j in pairs))]


def filtered_invariant_forms(A, action, only_nondegenerate=False):
    """Every alternating form on the dual of A, kept when its push along
    each generator of G is itself (and, optionally, its enumerated radical
    is trivial)."""
    gens = action.G.generating_set()
    return [b for b in product_alternating_forms(A)
            if all(on_form(action, g, b) == b for g in gens)
            and (not only_nondegenerate or len(enumerated_radical(b)) == 1)]


class EveryGeneratorAction(DualAction):
    """The dual action with one matrix per generator of G, identities and
    repeats included, as the invariance conditions were posed before they
    read the distinct matrices."""

    def matrices(self):
        return tuple(self._matrix(g) for g in self.G.generating_set())


def per_subgroup_pairs(G):
    """The pair listing before dual-action types: one invariance kernel per
    abelian normal subgroup of symmetric type and one non-degeneracy Smith
    form per invariant form, sorted as `bg_enumerate` sorts."""
    out = [BGElement.trivial(G)]
    for A in normal_abelian_subgroups(G):
        if A.order > 1 and is_symmetric_type(A):
            out.extend(BGElement(A, b) for b in invariant_forms(
                A, EveryGeneratorAction(G, A)) if is_nondegenerate(b))
    out.sort(key=lambda e: (e.subgroup.order, e.subgroup.elements,
                            e.form.upper))
    return out


def per_socle_witnessed(G, bg):
    """RW's witnessed indices before dual-action types: one
    `RealizableForms` per socle of the pairs `bg`."""
    witnessed = []
    for _, run in itertools.groupby(range(1, len(bg)),
                                    lambda i: bg[i].subgroup.elements):
        run = list(run)
        forms = RealizableForms(EveryGeneratorAction(G, bg[run[0]].subgroup))
        witnessed += [i for i in run if forms.realizes(bg[i].form)]
    return witnessed


def enumerated_descend(b, D):
    """b descended to D <= A through lifts of D's dual generators found by
    sweeping the whole dual of A."""
    restrict = _dual_matrix(D, b.group, lambda a: a)
    fs = [f for _, f in D.abelian_structure()]
    lifts = {}
    for rho in itertools.product(
            *(range(d) for _, d in b.group.abelian_structure())):
        lifts.setdefault(_dual_apply(restrict, rho, fs), rho)
    out = b.push(D, [lifts[u] for u in _units(len(fs))])
    if out.push(b.group, restrict) != b:
        raise VerdictInconsistent("form does not descend to the subgroup")
    return out


def descent_bg_product(x, y):
    """The partial product by descent, as the library computed it before
    the lookup of a pushed sum: both forms pushed to the dual of the least
    abelian normal C holding both socles and added there, the product's
    socle D the annihilator of the sum's radical swept over the dual, and
    the sum descended to D through enumerated lifts.  None when no such C
    exists."""
    C = _common_overgroup(x, y)
    if C is None:
        return None
    b = x.form.push(C, _dual_matrix(x.subgroup, C, lambda a: a)).mul(
        y.form.push(C, _dual_matrix(y.subgroup, C, lambda a: a)))
    radical = enumerated_radical(b)
    socle = tuple(sorted(set(C.elements).intersection(
        *(Character(C, rho).kernel() for rho in radical))))
    G = C.parent
    D = next((A for A in normal_abelian_subgroups(G, G.order)
              if A.elements == socle), None)
    if D is None or D.order * len(radical) != C.order:
        raise VerdictInconsistent(
            "product socle is not the annihilator of its radical")
    return BGElement(D, enumerated_descend(b, D))


def solve_qz(A, ys):
    """Solve A x = y over Q/Z, over one Smith form of the integer rows A,
    for each rational y in ys: (x, None) with x a list of Fractions in
    [0, 1), or (None, u) with u an integer row vector such that u A = 0 and
    u.y is not an integer, which proves that no solution exists: Q/Z is
    divisible, so with U A V = D the system D z = U y is solvable iff
    (U y)_i is an integer wherever d_i = 0.
    """
    n = len(A[0]) if A else 0
    U, D, V = _smith.smith(A)
    out = []
    for y in ys:
        N = lcm(*(Fraction(v).denominator for v in y))
        Y = [int(Fraction(v) * N) for v in y]
        Uy = [sum(u * v for u, v in zip(row, Y) if u) for row in U]
        u = next((U[i] for i, r in enumerate(Uy)
                  if r % N and (i >= n or D[i][i] == 0)), None)
        if u is not None and (any(sum(a * row[j] for a, row in zip(u, A) if a)
                                  for j in range(n))
                              or not sum(a * v for a, v in zip(u, Y)) % N):
            raise VerdictInconsistent("obstruction vector fails its check")
        out.append((None, u) if u is not None
                   else (back_substitute(A, D, V, Uy, Y, N), None))
    return out


def union_find_cocycle_search(A, b, action, assignment_cap=1 << 20):
    """The bounded invariant-cocycle search: values are roots of unity of
    order dividing twice the dual exponent; normalization, invariance and
    the form are propagated by union-find with offsets, a clash proves that
    no cocycle exists ("contradiction"), and otherwise every assignment of
    the free classes is tried ("witness" or "range-exhausted").  Raises
    OrderLimitExceeded beyond |A| = 16 or assignment_cap assignments."""
    if A.order > 16:
        raise OrderLimitExceeded("cocycle search capped at |A| <= 16")
    ds = [d for _, d in A.abelian_structure()]
    duals = list(itertools.product(*(range(d) for d in ds)))
    one = tuple(0 for _ in ds)
    M = 2 * lcm(*ds)
    parent, offset = {}, {}

    def find(x):
        if parent[x] == x:
            return x, 0
        root, off = find(parent[x])
        parent[x] = root
        offset[x] = (offset[x] + off) % M
        return root, offset[x]

    def union(x, y, delta):
        # impose value(x) = zeta_M^delta * value(y)
        rx, ox = find(x)
        ry, oy = find(y)
        if rx == ry:
            return (ox - oy) % M == delta % M
        parent[rx] = ry
        offset[rx] = (oy + delta - ox) % M
        return True

    for key in ["one"] + [(r, s) for r in duals for s in duals]:
        parent[key], offset[key] = key, 0
    ok = all(union((one, r), "one", 0) and union((r, one), "one", 0)
             for r in duals)
    gens = action.G.generating_set()
    for rho in duals:
        for sigma in duals:
            t, L = b.value_exponent(rho, sigma)
            # c(sigma, rho) = b(rho, sigma) c(rho, sigma)
            ok = ok and union((sigma, rho), (rho, sigma), t * (M // L))
            for g in gens:
                moved = (action.on_exponents(g, rho),
                         action.on_exponents(g, sigma))
                ok = ok and union(moved, (rho, sigma), 0)
            if not ok:
                return CocycleSearch(None, "contradiction")
    root_one, off_one = find("one")
    roots = sorted({find(key)[0] for key in parent
                    if key != "one" and find(key)[0] != root_one})
    if M ** len(roots) > assignment_cap:
        raise OrderLimitExceeded("cocycle search space too large")
    for combo in itertools.product(range(M), repeat=len(roots)):
        values = dict(zip(roots, combo))
        values[root_one] = (-off_one) % M
        table = {}
        for rho in duals:
            for sigma in duals:
                root, off = find((rho, sigma))
                table[(rho, sigma)] = root_of_unity(
                    M, (values.get(root, 0) + off) % M)
        if cocycle_identity_holds(A, table):
            return CocycleSearch(table, "witness")
    return CocycleSearch(None, "range-exhausted")


def per_pair_cocycle_search(A, b, action):
    """The invariant-cocycle decision for one pair, as RW made it before
    the per-socle system: the linear system over Q/Z in the exponents of
    lambda, built and solved for this b alone, with a CycNum witness table
    checked by the cubic sweep.

    Every normalized cocycle with form b is c = beta * d(lambda), beta the
    bilinear beta(rho, sigma) = prod_{i<j} b(chi_i, chi_j)^(rho_j sigma_i)
    and lambda: X -> k* with lambda(1) = 1; invariance is one row per (g,
    rho, chi_i).
    """
    ds = [d for _, d in A.abelian_structure()]
    L = lcm(*ds)
    W = [[b.matrix[i][j] * (L // gcd(ds[i], ds[j])) if i < j else 0
          for j in range(len(ds))] for i in range(len(ds))]
    duals = list(itertools.product(*(range(d) for d in ds)))
    zero = duals[0]
    unknown = {rho: k for k, rho in enumerate(duals[1:])}

    def add(x, y):
        return tuple((u + v) % d for u, v, d in zip(x, y, ds))

    def beta(rho, sigma):
        return sum(W[i][j] * rho[j] * sigma[i] for i in range(len(ds))
                   for j in range(i + 1, len(ds)))

    # each generator's action on the dual, as a map of exponent tuples
    moves = [{rho: action.on_exponents(g, rho) for rho in duals}
             for g in action.G.generating_set()]
    rows = {}
    for move in moves:
        for e in _units(len(ds)):
            for rho in duals:
                grho, ge = move[rho], move[e]
                row = [0] * len(unknown)
                # c(g rho, g e) - c(rho, e), beta moved to the right
                for x, sign in ((grho, 1), (ge, 1), (add(grho, ge), -1),
                                (rho, -1), (e, -1), (add(rho, e), 1)):
                    if x != zero:
                        row[unknown[x]] += sign
                rows[tuple(row), (beta(rho, e) - beta(grho, ge)) % L] = None
    [(lam, _)] = solve_qz([list(row) for row, _ in rows],
                          [[Fraction(y, L) for _, y in rows]])
    if lam is None:
        return CocycleSearch(None, "contradiction")

    Q = lcm(L, *(v.denominator for v in lam))
    ell = dict(zip(duals, [0] + [int(v * Q) for v in lam]))
    c = {(rho, sigma): (beta(rho, sigma) * (Q // L) + ell[rho] + ell[sigma]
                        - ell[add(rho, sigma)]) % Q
         for rho in duals for sigma in duals}
    table = {pair: root_of_unity(Q, e) for pair, e in c.items()}
    if any(c[move[rho], move[sigma]] != e
           for move in moves for (rho, sigma), e in c.items()) or any(
               (c[sigma, rho] - e - b.value_exponent(rho, sigma)[0]
                * (Q // L)) % Q for (rho, sigma), e in c.items()) \
            or not cocycle_identity_holds(A, table):
        raise VerdictInconsistent("invariant cocycle witness fails its check")
    return CocycleSearch(table, "witness")


def subset_image_sizes(bg, orbits, witnessed):
    """R5's candidate image sizes by checking, for each union of orbits
    holding the pairs bg[i], i in `witnessed`, the inverse and the partial
    product by descent of every chosen pair with every chosen pair, from a
    table of the products of all pairs."""
    by_key = {x.key(): i for i, x in enumerate(bg)}
    product = {(i, j): descent_bg_product(x, y)
               for i, x in enumerate(bg) for j, y in enumerate(bg)}
    sizes = set()
    for pick in itertools.product((False, True), repeat=len(orbits)):
        chosen = {j for take, orbit in zip(pick, orbits) if take
                  for j in orbit}
        if not set(witnessed) <= chosen:
            continue
        if all(by_key[BGElement(bg[i].subgroup, bg[i].form.inv()).key()]
               in chosen for i in chosen) and all(
                   p is None or by_key[p.key()] in chosen | {0}
                   for i in chosen for j in chosen
                   for p in [product[i, j]]) and \
                _is_abelian_orders([1] + [bg[i].form.order()
                                          for i in chosen]):
            sizes.add(1 + len(chosen))
    return sizes


def build_parser() -> argparse.ArgumentParser:
    """The command line as argparse read it, with parse_intermixed_args:
    the reference for cli._read_argv."""
    parser = argparse.ArgumentParser(
        prog="lazytwist",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Exact computation of the group of invariant twist\n"
                    "classes on finite group algebras.",
        epilog="commands:\n" + "\n".join(
            f"  {_usage(c):<27} {h}" for c, (_, _, h) in _COMMANDS.items()))
    parser.add_argument("--max-order", type=int, default=128,
                        help="bound guarding exponential searches")
    parser.add_argument("--fixture-dir", default=None,
                        help="directory searched for named tensor files")
    parser.add_argument("--pretty", action="store_true",
                        help="indent JSON output")
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="one of the commands listed below")
    parser.add_argument("operands", nargs="*", metavar="operand",
                        help="the command's GROUP and TENSOR")
    return parser

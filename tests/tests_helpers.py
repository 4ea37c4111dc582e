"""Shared oracles for the test suite: abelian group types, subgroup
lattices, characters and their idempotents, character restriction, direct
products and relabellings, the pair-orbit count, and the brute-force
automorphism, multiplicity, abelian-type and tensor-product checks, the
CycNum-loop tensor product, Drinfeld element and character sums, and the
Galois-substitution normal form the library replaced."""

import itertools
import random
from fractions import Fraction
from math import gcd

from lazytwist.cyclo import (CycNum, _phi, _power_table, _prime_factors,
                             root_of_unity)
from lazytwist.fixtures import _group_from_elements
from lazytwist.groups import FiniteGroup
from lazytwist.hopf import GTensor, form_from_r, socle
from lazytwist.lazy import BGElement, _pair_orbits
from lazytwist.pontryagin import Character


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


def all_subgroups(G):
    """Every subgroup of a small abelian group, as sorted element tuples."""
    cyclics = {tuple(sorted(G.closure({x}))) for x in range(G.order)}
    subs = set(cyclics)
    frontier = set(cyclics)
    while frontier:
        new = set()
        for s in frontier:
            for c in cyclics:
                j = tuple(sorted(G.closure(set(s) | set(c))))
                if j not in subs:
                    subs.add(j)
                    new.add(j)
        frontier = new
    return sorted(subs, key=lambda s: (len(s), s))


def characters(A):
    """All |A| characters of an abelian subgroup, in lexicographic
    exponent order."""
    return [Character(A, exps) for exps in itertools.product(
        *(range(d) for _, d in A.abelian_structure()))]


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
        assert t * d % L == 0
        out.append(t * d // L % d)
    return tuple(out)


def direct_product(*factors):
    """Direct product of FiniteGroups, elements in lexicographic order."""
    els = list(itertools.product(*(range(F.order) for F in factors)))
    return _group_from_elements(
        els, lambda a, b: tuple(F.table[x][y]
                                for F, x, y in zip(factors, a, b)),
        str, name="x".join(F.name for F in factors))


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


def tensor_bg_product(x, y, nas):
    """Partial product of socle-form pairs through group-algebra tensors:
    R(A, b) R(A', b') in k[G] x k[G], its socle, and the form read back on
    that socle.  None when no abelian normal subgroup holds both socles."""
    need = set(x.subgroup.elements) | set(y.subgroup.elements)
    if not any(need <= set(C.elements) for C in nas):
        return None
    R = x.canonical_r.mul(y.canonical_r)
    D = socle(R)
    out = BGElement(D, form_from_r(D, R))
    assert out.canonical_r == R, "product tensor is not a bicharacter"
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
    assert not any(rows[r][phi_m] for r in range(phi_m, phi_n))
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

"""Integer linear algebra for finite abelian groups.

`smith` is the Smith normal form with its transforms (Cohen, A Course in
Computational Algebraic Number Theory, GTM 138, 1993, section 2.4).  Thin
helpers sit on it: the kernel of a Z-linear map between finite abelian
groups, from two Smith forms, its injectivity, from one, and the back
substitution to a solution over Q/Z of a system shown solvable.
Matrices are lists of integer rows; every helper checks its answer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .groups import VerdictInconsistent


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x*a + y*b, for a, b > 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def smith(A):
    """(U, D, V) with U A V = D for an m x n integer matrix A: U and V are
    unimodular, D is diagonal with d_1 | d_2 | ... >= 0, zeros last.

    Each pivot is an entry of least absolute value in its column; the rows
    below and the columns to its right are reduced against it until both
    are zero.  The diagonal is then made a divisibility chain pairwise,
    (a, b) -> (gcd, lcm).  U is built as sparse rows, because the systems
    here are tall and sparse.
    """
    m, n = len(A), len(A[0]) if A else 0
    D = [list(row) for row in A]
    U = [{i: 1} for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def combine(x, a, y, b):
        """The sparse row a*x + b*y."""
        out = {c: a * v for c, v in x.items()} if a else {}
        for c, v in y.items():
            w = out.get(c, 0) + b * v
            if w:
                out[c] = w
            else:
                out.pop(c, None)
        return out

    def swap_columns(j, k):
        for M in (D, V):
            for row in M:
                row[j], row[k] = row[k], row[j]

    rank = 0
    for k in range(min(m, n)):
        j = next((j for j in range(k, n)
                  if any(D[i][j] for i in range(k, m))), None)
        if j is None:
            break
        swap_columns(j, k)
        while True:
            i = min((i for i in range(k, m) if D[i][k]),
                    key=lambda i: abs(D[i][k]))
            D[i], D[k], U[i], U[k] = D[k], D[i], U[k], U[i]
            p = D[k][k]
            for i in range(k + 1, m):
                q = D[i][k] // p
                if q:
                    D[i] = [a - q * b for a, b in zip(D[i], D[k])]
                    U[i] = combine(U[k], -q, U[i], 1)
            if any(D[i][k] for i in range(k + 1, m)):
                continue
            # column k is zero off the pivot, so a column operation
            # changes only row k of D
            for j in range(k + 1, n):
                q = D[k][j] // p
                if q:
                    D[k][j] -= q * p
                    for row in V:
                        row[j] -= q * row[k]
            rest = [j for j in range(k + 1, n) if D[k][j]]
            if not rest:
                break
            swap_columns(min(rest, key=lambda j: abs(D[k][j])), k)
        rank += 1

    for k in range(rank):
        if D[k][k] < 0:
            D[k][k] = -D[k][k]
            U[k] = {c: -v for c, v in U[k].items()}
    for i in range(rank):
        for j in range(i + 1, rank):
            a, b = D[i][i], D[j][j]
            if b % a:
                g, x, y = _xgcd(a, b)
                U[i], U[j] = (combine(U[i], x, U[j], y),
                              combine(U[i], -(b // g), U[j], a // g))
                for row in V:
                    row[i], row[j] = (row[i] + row[j],
                                      -y * (b // g) * row[i]
                                      + x * (a // g) * row[j])
                D[i][i], D[j][j] = g, a // g * b
    return [[row.get(c, 0) for c in range(m)] for row in U], D, V


def _image_orders(M, s, t) -> list[int]:
    """The orders e_k of the cyclic summands of the image of x -> M x mod t
    on (+) Z/s_j, from one Smith form: B, the rows of M scaled to N =
    lcm(t), has U B V = D, and the image is (+) Z/e_k, e_k = N /
    gcd(d_k, N)."""
    n, N = len(s), lcm(*t)
    B = [[a * (N // ti) for a in row] for row, ti in zip(M, t)] or [[0] * n]
    _, D, _ = smith(B)
    return [N // gcd(D[k][k], N) if k < len(D) else 1 for k in range(n)]


def injective(M, s, t) -> bool:
    """Whether x -> M x mod t on (+) Z/s_j (as in `kernel`) is injective:
    whether its image, read off one Smith form, has order prod(s)."""
    return not s or prod(_image_orders(M, s, t)) == prod(s)


def kernel(M, s, t) -> tuple[list[tuple[int, ...]], list[int]]:
    """The kernel of x -> M x mod t on (+) Z/s_j, for an integer matrix M
    with one row per modulus t_i and s_j M[i][j] = 0 mod t_i.

    Returns (gens, orders): gens[k] has order orders[k], the orders are the
    invariant factors d_1 | d_2 | ... > 1, and the kernel is the direct sum
    of the cyclic groups the gens generate.  The image is (+) Z/e_k
    (`_image_orders`), so an injective map costs one Smith form.  With
    x_j = s_j y_j, y in (Q/Z)^n, the kernel is
    {y : C y = 0 mod 1} for C the rows s_j M[i][j] / t_i over diag(s); if
    U2 C V2 = D2 it is V2 (+) (1/d2_k)Z/Z, and the k-th generator is
    diag(s) V2 e_k / d2_k, of order d2_k.
    """
    n = len(s)
    if n == 0:
        return [], []
    e = _image_orders(M, s, t)
    if prod(e) == prod(s):                      # the map is injective
        return [], []
    if any(a * sj % ti for row, ti in zip(M, t) for a, sj in zip(row, s)):
        raise VerdictInconsistent("map is not defined on the source")
    _, D2, V2 = smith([[a * sj // ti for a, sj in zip(row, s)]
                       for row, ti in zip(M, t)]
                      + [[sj * (j == k) for j, sj in enumerate(s)]
                         for k in range(n)])
    gens, orders = [], []
    for k in range(n):
        d = D2[k][k]
        if d > 1:
            gens.append(tuple(sj * V2[j][k] // d % sj
                              for j, sj in enumerate(s)))
            orders.append(d)
    if prod(orders) * prod(e) != prod(s) or any(
            sum(a * x for a, x in zip(row, g)) % ti
            for g in gens for row, ti in zip(M, t)):
        raise VerdictInconsistent("kernel generators fail their check")
    return gens, orders


def span(gens, orders, moduli) -> list[tuple[int, ...]]:
    """Every element sum c_k gens[k], 0 <= c_k < orders[k], reduced by the
    moduli, in lexicographic order of the coefficients."""
    out = [tuple(0 for _ in moduli)]
    for g, d in zip(gens, orders):
        out = [tuple((x + c * y) % q for x, y, q in zip(v, g, moduli))
               for v in out for c in range(d)]
    return out


def back_substitute(A, D, V, Uy, Y, N) -> list[Fraction]:
    """The solution x in [0, 1)^n of A x = Y / N over Q/Z, checked, from a
    Smith form U A V = D and Uy = U Y, 0 mod N on rows without a pivot."""
    pivots = [D[k][k] for k in range(min(len(D), len(V))) if D[k][k]]
    Q = N * lcm(*pivots)
    # z = D^-1 U y over the common denominator Q, and x = V z
    z = [Uy[k] * (Q // (N * d)) for k, d in enumerate(pivots)]
    X = [sum(a * b for a, b in zip(row, z)) % Q for row in V]
    if any((sum(a * b for a, b in zip(row, X)) - v * (Q // N)) % Q
           for row, v in zip(A, Y)):
        raise VerdictInconsistent("solution fails its check")
    return [Fraction(v, Q) for v in X]

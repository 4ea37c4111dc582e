import itertools
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from lazytwist import _smith
from lazytwist._smith import kernel, smith, span
from tests_helpers import solve_qz


def matrices(rows, cols, entries):
    return st.integers(*rows).flatmap(lambda m: st.integers(*cols).flatmap(
        lambda n: st.lists(st.lists(st.integers(*entries), min_size=n,
                                    max_size=n), min_size=m, max_size=m)))


def det(M):
    """Determinant by Gaussian elimination over Q."""
    M = [[Fraction(v) for v in row] for row in M]
    out = Fraction(1)
    for k in range(len(M)):
        p = next((i for i in range(k, len(M)) if M[i][k]), None)
        if p is None:
            return 0
        if p != k:
            M[k], M[p] = M[p], M[k]
            out = -out
        out *= M[k][k]
        for i in range(k + 1, len(M)):
            f = M[i][k] / M[k][k]
            M[i] = [a - f * b for a, b in zip(M[i], M[k])]
    return out


def matmul(X, Y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*Y)]
            for row in X]


@settings(max_examples=200, deadline=None)
@given(matrices((1, 6), (1, 6), (-9, 9)))
def test_smith_decomposition(A):
    m, n = len(A), len(A[0])
    U, D, V = smith(A)
    assert matmul(matmul(U, A), V) == D
    assert abs(det(U)) == 1 and abs(det(V)) == 1
    assert all(D[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    diag = [D[k][k] for k in range(min(m, n))]
    assert all(d >= 0 for d in diag)
    # d_1 | d_2 | ..., and 0 is divisible by everything
    assert all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))


@settings(max_examples=50, deadline=None)
@given(matrices((1, 5), (1, 5), (-9, 9)))
def test_smith_matches_sympy(A):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    S = smith_normal_form(sympy.Matrix(A), domain=sympy.ZZ)
    _, D, _ = smith(A)
    ours = [D[k][k] for k in range(min(len(A), len(A[0])))]
    theirs = [abs(int(S[k, k])) for k in range(min(S.shape))]
    assert sorted(d for d in ours if d) == sorted(d for d in theirs if d)


@st.composite
def abelian_maps(draw):
    """(M, s, t) for a well-defined map (+) Z/s_j -> (+) Z/t_i: entry
    (i, j) is a multiple of t_i / gcd(t_i, s_j)."""
    s = draw(st.lists(st.integers(1, 6), min_size=0, max_size=4))
    t = draw(st.lists(st.integers(1, 6), min_size=0, max_size=3))
    M = [[draw(st.integers(-4, 4)) * (ti // gcd(ti, sj)) for sj in s]
         for ti in t]
    return M, s, t


@settings(max_examples=200, deadline=None)
@given(abelian_maps())
def test_kernel_matches_enumeration(case):
    M, s, t = case
    gens, orders = kernel(M, s, t)
    brute = [x for x in itertools.product(*(range(q) for q in s))
             if all(sum(a * v for a, v in zip(row, x)) % ti == 0
                    for row, ti in zip(M, t))]
    assert sorted(span(gens, orders, s)) == brute
    assert prod(orders) == len(brute)
    assert all(d > 1 for d in orders)
    assert all(b % a == 0 for a, b in zip(orders, orders[1:]))
    for g, d in zip(gens, orders):
        # g has order exactly d
        assert [c for c in range(1, d + 1)
                if all(c * v % q == 0 for v, q in zip(g, s))][0] == d


def test_kernel_smith_form_count(monkeypatch):
    # one Smith form decides that x -> x on Z/4 is injective; x -> 2x takes
    # one more for the generator of its kernel {0, 2}
    calls = []

    def counted(A):
        calls.append(A)
        return smith(A)

    monkeypatch.setattr(_smith, "smith", counted)
    for M, expected, count in [([[1]], ([], []), 1),
                               ([[2]], ([(2,)], [2]), 2)]:
        calls.clear()
        assert kernel(M, [4], [4]) == expected
        assert len(calls) == count


def _minor_gcd(A, r):
    """gcd of the r x r minors of A (1 for r = 0)."""
    g = 0 if r else 1
    for rows in itertools.combinations(range(len(A)), r):
        for cols in itertools.combinations(range(len(A[0])), r):
            g = gcd(g, int(det([[A[i][j] for j in cols] for i in rows])))
    return g


@settings(max_examples=200, deadline=None)
@given(matrices((1, 4), (1, 2), (-2, 2)),
       st.sampled_from([1, 2, 3, 4, 6]), st.integers(1, 3), st.data())
def test_solve_qz_matches_enumeration(A, N, count, data):
    # several right-hand sides over one Smith form, each decided on its own
    ys = [[Fraction(data.draw(st.integers(0, N - 1)), N) for _ in A]
          for _ in range(count)]
    results = solve_qz(A, ys)
    assert len(results) == count
    # if the system is solvable, d_1 ... d_r = gcd of the r x r minors
    # bounds the denominators of the solution solve_qz builds, so the grid
    # of step 1/Q holds one
    rank = max(r for r in range(3) if _minor_gcd(A, r))
    Q = N * _minor_gcd(A, rank)
    for y, (x, u) in zip(ys, results):
        solvable = any(
            all((sum(a * Fraction(v, Q) for a, v in zip(row, grid)) - yi) % 1
                == 0 for row, yi in zip(A, y))
            for grid in itertools.product(range(Q), repeat=len(A[0])))
        assert (x is not None) == solvable
        if x is not None:
            assert u is None
            assert all((sum(a * v for a, v in zip(row, x)) - yi) % 1 == 0
                       for row, yi in zip(A, y))
        else:
            assert all(sum(a * row[j] for a, row in zip(u, A)) == 0
                       for j in range(len(A[0])))
            assert sum(a * v for a, v in zip(u, y)) % 1 != 0

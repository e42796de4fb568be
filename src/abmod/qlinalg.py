"""Dense exact linear algebra over the rationals.

Matrices are tuples of tuples of Fraction; vectors are tuples of Fraction.
Everything here is plain Gaussian elimination, which is all the ranks in
play (<= a few dozen) ever need.
"""

from __future__ import annotations

from fractions import Fraction

from .series import rat


def identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    return tuple(
        tuple(sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0))
              for j in range(m))
        for i in range(n))


def mat_vec(a, v):
    return tuple(sum((a[i][j] * v[j] for j in range(len(v))), Fraction(0))
                 for i in range(len(a)))


def mat_scale(a, c):
    c = rat(c)
    return tuple(tuple(c * x for x in row) for row in a)


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def trace(a):
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def rref(a):
    """Reduced row echelon form; returns (rref_matrix, pivot_columns)."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return tuple(tuple(row) for row in m), tuple(pivots)


def nullspace(a):
    """Basis of the right kernel, as a tuple of vectors."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if rows == 0:
        return tuple(tuple(Fraction(int(i == j)) for i in range(cols))
                     for j in range(cols))
    red, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return tuple(basis)


def solve(a, b):
    """One solution of a x = b, or None if inconsistent."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [list(a[i]) + [b[i]] for i in range(rows)]
    red, pivots = rref(aug)
    for row in red:
        if all(x == 0 for x in row[:cols]) and row[cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        if pc == cols:
            return None
        x[pc] = red[r][cols]
    return tuple(x)


def inverse(a):
    n = len(a)
    aug = [list(a[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    red, pivots = rref(aug)
    if tuple(pivots[:n]) != tuple(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(red[i][n:]) for i in range(n))

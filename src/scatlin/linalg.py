"""Exact dense linear algebra over a Field (no tolerances, first-pivot rule).

Matrices are lists of lists of FieldElem, or numpy integers over F_p in
nullspace_mod_p.  All are tiny (at most 6 columns of FieldElem, or 24s x 12s
over F_p for q = p^s), so clarity beats asymptotics.
"""

from __future__ import annotations

import numpy as np

from .gf import Field, FieldElem


def det(ctx: Field, mat) -> FieldElem:
    """Determinant by Gaussian elimination.

    Pivot rule: the first nonzero entry in row order (exact arithmetic needs
    no pivoting strategy; determinism helps golden tests).
    """
    n = len(mat)
    a = [list(row) for row in mat]
    sign = 1
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not a[r][col].is_zero():
                piv = r
                break
        if piv is None:
            return ctx.zero()
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        inv = a[col][col].inv()
        for r in range(col + 1, n):
            if a[r][col].is_zero():
                continue
            factor = a[r][col] * inv
            for c in range(col, n):
                a[r][c] = a[r][c] - factor * a[col][c]
    out = ctx.one()
    for i in range(n):
        out = out * a[i][i]
    if sign < 0:
        out = -out
    return out


def rref(ctx: Field, mat) -> tuple[list[list[FieldElem]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    The output is canonical: two row spaces are equal iff their rrefs are
    equal entry for entry.
    """
    rows = [list(r) for r in mat]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if not rows[i][col].is_zero():
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][col].inv()
        rows[r] = [inv * v for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][col].is_zero():
                factor = rows[i][col]
                rows[i] = [rows[i][c] - factor * rows[r][c] for c in range(ncols)]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def nullspace(ctx: Field, mat, ncols: int) -> list[list[FieldElem]]:
    """Basis of {v : mat @ v = 0}, canonicalised through rref."""
    if not mat:
        rows = []
        pivots = []
    else:
        rows, pivots = rref(ctx, mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ctx.zero()] * ncols
        v[fc] = ctx.one()
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    if basis:
        basis, _ = rref(ctx, basis)
    return basis


def nullspace_mod_p(A, p: int) -> np.ndarray:
    """nullspace over F_p of an integer matrix A, as the rows of an int64
    array.  The reduced echelon form of [A^T | I] ends in the rows whose
    A^T part is zero, and their I parts are the canonical basis."""
    A = np.asarray(A, dtype=np.int64)
    m, n = A.shape
    M = np.hstack([A.T % p, np.eye(n, dtype=np.int64)])
    pivots: list[int] = []
    for col in range(m + n):
        r = len(pivots)
        nz = np.flatnonzero(M[r:, col])
        if nz.size == 0:
            continue
        pivot = M[r + nz[0]] * pow(int(M[r + nz[0], col]), -1, p) % p
        M[r + nz[0]] = M[r]  # the swap: row r is the pivot row after the clearing
        M -= np.outer(M[:, col], pivot)  # entries stay below p^2
        M %= p
        M[r] = pivot
        pivots.append(col)
        if len(pivots) == n:
            break
    return M[sum(c < m for c in pivots):, m:]

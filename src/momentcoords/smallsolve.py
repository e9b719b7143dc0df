"""Dense square solves (sizes 3-16) with pivoting and singularity detection.

The hexahedral coordinates (8 x 8) bottom out in one of these solves.
Quadrilaterals (4 x 4, coords2d) and intervals (n x n, folded to 3 x 3 in
coords1d) are solved in closed form, and their tests use these solves as
the reference.

There is one elimination, an LU with partial (row) pivoting, written over
entries: n rows of n entries, each a Python float for one system (faster
there than numpy calls) or an (m,) array for a stack of m systems, in which
a float stands for the same number in all m.  Every step is the same
elementwise IEEE operation on the same operands in the same order on
either kind, so a system gives the same bits alone and in any stack.  Four
steps differ by kind: max|A| (max, or np.maximum), the pivot choice (a
branch, or a mask where v > big), the row swap (a list swap, or np.where
where a system picked the row) and a pivot below the floor (SingularMatrix,
or ok cleared).  An update builds a new entry, so no entry handed in is
written into.  _solve runs it and checks the residual contract, once for
both kinds, against the rows it was handed; solve_dense and
solve_dense_many validate and convert their input for it, and coords3d
hands it the hexahedral rows as it assembles them.
"""

from __future__ import annotations

from contextlib import nullcontext
from itertools import chain
from operator import mul

import numpy as np

from .errors import SingularMatrix

# Pivot acceptance threshold, relative to the largest entry of the input
# matrix.  Below it the geometry is degenerate or a sign-pattern assumption
# was violated.
PIVOT_RTOL = 1e-13
# Post-solve residual contract: |Ax - b|_inf <= RESIDUAL_RTOL * (1 + |b|_inf).
RESIDUAL_RTOL = 1e-10
# The contract for a right-hand side of inf-norm 1, which the closed forms
# of coords1d and coords2d hold their residuals to.
_RESIDUAL_BOUND = 2.0 * RESIDUAL_RTOL


def active_backend() -> str:
    """Name of the solver implementation; there is only the pure-Python one."""
    return "python"


def _largest(values, m):
    """The largest of nonnegative values: a float for one system (m None),
    or elementwise over a stack of m, an (m,) array."""
    if m is None:
        return max(values)
    big = np.zeros(m)
    for v in values:
        np.maximum(big, v, out=big)
    return big


def _eliminate(a, b, m):
    """LU with partial pivoting on the rows a against b, entries as _solve
    takes them; returns x (n entries) and ok.

    The pivot of column k is the first row holding the largest |entry| at or
    below the diagonal.  One system raises SingularMatrix where a pivot falls
    below PIVOT_RTOL * max|A|; a stack clears ok there, and its x is NaN.
    """
    one = m is None
    n = len(b)
    floor = PIVOT_RTOL * _largest(map(abs, chain.from_iterable(a)), m)
    if one and floor == 0.0:
        raise SingularMatrix("matrix is identically zero")
    ok = floor != 0.0
    a = [list(row) for row in a]
    b = list(b)
    for k in range(n):
        p = k
        big = abs(a[k][k])
        for i in range(k + 1, n):
            v = abs(a[i][k])
            if one:
                if v > big:
                    p, big = i, v
            else:
                better = v > big
                p, big = np.where(better, i, p), np.where(better, v, big)
        if one:
            if big < floor:
                raise SingularMatrix(
                    f"pivot {big:.3e} below threshold {floor:.3e} at column {k}"
                )
            if p != k:
                a[k], a[p] = a[p], a[k]
                b[k], b[p] = b[p], b[k]
        else:
            ok = ok & ~(big < floor)
            # Exchange rows k and i where a system picked row i, from column
            # k on: the columns left of k are never read again.
            for i in range(k + 1, n):
                swap = p == i
                if swap.any():
                    row_k, row_i = a[k], a[i]
                    for j in range(k, n):
                        row_k[j], row_i[j] = (
                            np.where(swap, row_i[j], row_k[j]),
                            np.where(swap, row_k[j], row_i[j]),
                        )
                    b[k], b[i] = np.where(swap, b[i], b[k]), np.where(swap, b[k], b[i])
        row_k = a[k]
        pivot = row_k[k]
        b_k = b[k]
        for i in range(k + 1, n):
            row_i = a[i]
            mult = row_i[k] / pivot
            for j in range(k + 1, n):
                row_i[j] = row_i[j] - mult * row_k[j]
            b[i] = b[i] - mult * b_k
    x = [0.0] * n
    for k in range(n - 1, -1, -1):
        row_k = a[k]
        dot = 0.0
        for j in range(k + 1, n):
            dot += row_k[j] * x[j]
        x[k] = (b[k] - dot) / row_k[k]
    if not one:
        x = [np.where(ok, x_k, np.nan) for x_k in x]
    return x, ok


def _solve(a, b, m=None):
    """Solve the rows a (n rows of n entries) against b (n entries).

    With m None every entry is a Python float: one system, returned as x
    (n,) and ok True, or SingularMatrix.  Otherwise the entries are floats
    or (m,) arrays, a stack of m systems: returns x (m, n), NaN where ok
    (m,) is False, which is exactly where the system alone would raise
    SingularMatrix.  The inputs are never written into.  Under __debug__
    the residual contract is checked against the rows a.
    """
    with nullcontext() if m is None else np.errstate(divide="ignore", invalid="ignore"):
        x, ok = _eliminate(a, b, m)
        if __debug__:
            resid = _largest((abs(sum(map(mul, row, x)) - b_i) for row, b_i in zip(a, b)), m)
            held = resid <= RESIDUAL_RTOL * (1.0 + _largest(map(abs, b), m))
            assert held if m is None else (held | ~ok).all(), (
                f"solve residual {np.max(np.where(ok, resid, 0.0)):.3e} exceeds contract"
            )
    return (np.array(x), ok) if m is None else (np.stack(x, axis=1), ok)


def solve_dense(matrix, rhs) -> np.ndarray:
    """Solve matrix @ x = rhs for a small dense square system.

    matrix is n rows of n numbers, as lists or a 2D array, which is
    converted once by tolist; rhs is n numbers.  Inputs are copied, never
    modified.  Raises SingularMatrix when partial pivoting meets a pivot
    below PIVOT_RTOL relative to the largest matrix entry.  Deterministic:
    identical inputs give bitwise identical results, whichever form they
    come in, and the same bits as the system in a stack of solve_dense_many.
    """
    if isinstance(matrix, np.ndarray):
        matrix = matrix.tolist()
    if isinstance(rhs, np.ndarray):
        rhs = rhs.tolist()
    try:
        a = [list(map(float, row)) for row in matrix]
        b = list(map(float, rhs))
    except TypeError:
        raise ValueError("need rows of numbers and a right-hand side of numbers") from None
    n = len(b)
    if len(a) != n or any(len(row) != n for row in a):
        raise ValueError(
            f"need {n} rows of {n} entries to match rhs, got rows of {[len(row) for row in a]}"
        )
    return _solve(a, b)[0]


def solve_dense_many(matrices, rhs) -> tuple[np.ndarray, np.ndarray]:
    """Solve a stack of systems matrices[s] @ x[s] = rhs[s]; returns (x, ok).

    matrices is (m, n, n) and rhs (m, n), in any memory order.  Each system
    goes through the elimination of solve_dense, so every solution is
    bitwise equal to solve_dense's.  ok[s] is False exactly where
    solve_dense would raise SingularMatrix (the pivot floor is taken from
    each system's own max|A|); x[s] is then NaN.  Inputs are never modified.
    """
    a = np.asarray(matrices, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or b.shape != a.shape[:2]:
        raise ValueError(
            f"need (m, n, n) matrices and (m, n) rhs, got {a.shape} / {b.shape}"
        )
    # Entry (i, j) of all m systems as one contiguous run of m floats.
    a = np.ascontiguousarray(np.moveaxis(a, 0, -1))
    b = np.ascontiguousarray(b.T)
    return _solve([list(row) for row in a], list(b), b.shape[1])

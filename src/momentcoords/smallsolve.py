"""Dense square solves (sizes 3-16) with pivoting and singularity detection.

The hexahedral coordinates (8 x 8) bottom out in one of these solves.
Quadrilaterals (4 x 4, coords2d) and intervals (n x n, folded to 3 x 3 in
coords1d) are solved in closed form, and their tests use these solves as
the reference.  There is one elimination, an LU with partial (row)
pivoting, written twice.  solve_dense runs it on plain Python lists of
floats, and takes its rows as lists: for a single system each numpy call
costs more than the arithmetic it does, so a row-vectorized numpy LU
spends most of its time in per-call overhead, while the list LU runs the
same elimination three to four times faster on 4 x 4 and 8 x 8.

solve_dense_many runs it over a stack of systems, one numpy operation per
step for the whole stack, on a copy with the stack index last and
contiguous: a (n, n, m) and b (n, m), the "interleaved" layout of batched
BLAS for tiny matrices.  Entry (i, j) of all m systems is then one run of
m floats, so the pivot search, the row swap, the rank-1 update and the
back-substitution stream through memory instead of gathering one float
per system from a (m, n, n) stack.  No step gathers by index: the pivot
search is _lu_solve's strict running max (v > big) over the rows below
the diagonal, one row at a time, and the swap exchanges rows k and i
where the pivot is row i, skipping the rows no system picked.  The rank-1
update goes row by row too, with no (n, n, m) temporary, and the residual
contract is checked elementwise on the stack-last view of the input.  The results are bitwise
equal to solve_dense's in any layout: every step is an elementwise IEEE
operation on the same operands in the same order, and only where the
operands sit in memory differs.
"""

from __future__ import annotations

from operator import mul

import numpy as np

from .errors import SingularMatrix

# Pivot acceptance threshold, relative to the largest entry of the input
# matrix.  Below it the geometry is degenerate or a sign-pattern assumption
# was violated.
PIVOT_RTOL = 1e-13
# Post-solve residual contract: |Ax - b|_inf <= RESIDUAL_RTOL * (1 + |b|_inf).
RESIDUAL_RTOL = 1e-10


def active_backend() -> str:
    """Name of the solver implementation; there is only the pure-Python one."""
    return "python"


def _lu_solve(a: list, b: list) -> list:
    """In-place LU with partial pivoting on lists; returns x as a list.

    The pivot of column k is the first row holding the largest |entry| at or
    below the diagonal.  a (n rows of n floats) and b are overwritten.
    """
    n = len(b)
    floor = PIVOT_RTOL * max(max(map(abs, row)) for row in a)
    if floor == 0.0:
        raise SingularMatrix("matrix is identically zero")
    for k in range(n):
        p = k
        big = abs(a[k][k])
        for i in range(k + 1, n):
            v = abs(a[i][k])
            if v > big:
                p, big = i, v
        if big < floor:
            raise SingularMatrix(
                f"pivot {big:.3e} below threshold {floor:.3e} at column {k}"
            )
        if p != k:
            a[k], a[p] = a[p], a[k]
            b[k], b[p] = b[p], b[k]
        row_k = a[k]
        pivot = row_k[k]
        b_k = b[k]
        for i in range(k + 1, n):
            row_i = a[i]
            mult = row_i[k] / pivot
            for j in range(k + 1, n):
                row_i[j] -= mult * row_k[j]
            b[i] -= mult * b_k
    x = [0.0] * n
    for k in range(n - 1, -1, -1):
        row_k = a[k]
        dot = 0.0
        for j in range(k + 1, n):
            dot += row_k[j] * x[j]
        x[k] = (b[k] - dot) / row_k[k]
    return x


def solve_dense(matrix, rhs) -> np.ndarray:
    """Solve matrix @ x = rhs for a small dense square system.

    matrix is n rows of n numbers, as lists (the form the hexahedral
    assembly builds) or a 2D array, which is converted once by tolist;
    rhs is n numbers.  Inputs are copied, never modified.  Raises
    SingularMatrix when partial pivoting meets a pivot below PIVOT_RTOL
    relative to the largest matrix entry.  Deterministic: identical inputs
    give bitwise identical results, whichever form they come in.  The
    residual contract is checked in Python floats.
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
    x = _lu_solve([row[:] for row in a], b[:])
    if __debug__:
        resid = max(abs(sum(map(mul, row, x)) - b_i) for row, b_i in zip(a, b))
        assert resid <= RESIDUAL_RTOL * (1.0 + max(map(abs, b))), (
            f"solve residual {resid:.3e} exceeds contract"
        )
    return np.array(x)


def solve_dense_many(matrices, rhs) -> tuple[np.ndarray, np.ndarray]:
    """Solve a stack of systems matrices[s] @ x[s] = rhs[s]; returns (x, ok).

    matrices is (m, n, n) and rhs (m, n), in any memory order.  The
    elimination runs on a stack-last copy, a (n, n, m) and b (n, m), in
    which entry (i, j) of every system is one contiguous run of m floats:
    a C-ordered (n, n, m) stack passed as its transposed view
    (stack.transpose(2, 0, 1)) is copied straight.  Each system goes
    through the same elimination as solve_dense, in the same order, as
    elementwise numpy operations on those runs, so every solution is
    bitwise equal to solve_dense's.  No matmul is used to eliminate or
    back-substitute: a stacked product rounds differently from the per-row
    one.  ok[s] is False exactly where solve_dense would raise
    SingularMatrix (the pivot floor is taken from each system's own
    max|A|); x[s] is then NaN.  Inputs are copied, never modified.
    """
    a0 = np.asarray(matrices, dtype=float)
    b0 = np.asarray(rhs, dtype=float)
    if a0.ndim != 3 or a0.shape[1] != a0.shape[2] or b0.shape != a0.shape[:2]:
        raise ValueError(
            f"need (m, n, n) matrices and (m, n) rhs, got {a0.shape} / {b0.shape}"
        )
    m, n = b0.shape
    a = np.moveaxis(a0, 0, -1).copy()
    b = b0.T.copy()
    # max|A| without an |A| temporary.
    floor = PIVOT_RTOL * np.maximum(a.max(axis=(0, 1)), -a.min(axis=(0, 1)))
    ok = floor != 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n):
            # The pivot is the first row holding the largest |entry|: a
            # strict running max, as in _lu_solve.
            col = np.abs(a[k:, k])
            big, p = col[0], np.full(m, k)
            for i in range(k + 1, n):
                better = col[i - k] > big
                np.copyto(big, col[i - k], where=better)
                np.copyto(p, i, where=better)
            ok &= ~(big < floor)
            # Swap rows k and p from column k on, one candidate row at a
            # time: the columns left of k are never read again.
            for i in range(k + 1, n):
                swap = p == i
                if swap.any():
                    for row_k, row_i in ((a[k, k:], a[i, k:]), (b[k], b[i])):
                        held = row_k.copy()
                        np.copyto(row_k, row_i, where=swap)
                        np.copyto(row_i, held, where=swap)
            mult = a[k + 1 :, k] / a[k, k]
            for i in range(k + 1, n):
                a[i, k + 1 :] -= mult[i - k - 1] * a[k, k + 1 :]
            b[k + 1 :] -= mult * b[k]
        x = np.zeros((n, m))
        for k in range(n - 1, -1, -1):
            dot = np.zeros(m)
            for j in range(k + 1, n):
                dot += a[k, j] * x[j]
            x[k] = (b[k] - dot) / a[k, k]
        np.copyto(x, np.nan, where=~ok)
        if __debug__:
            # Elementwise on the stack-last view of the input, like the solve.
            a_in, b_in = a0.transpose(1, 2, 0), b0.T
            r = a_in[:, 0] * x[0]
            for j in range(1, n):
                r += a_in[:, j] * x[j]
            resid = np.abs(r - b_in).max(axis=0)
            bound = RESIDUAL_RTOL * (1.0 + np.abs(b_in).max(axis=0))
            assert np.all((resid <= bound) | ~ok), (
                f"solve residual {float((resid / bound)[ok].max()):.3e} x the contract bound"
            )
    x = np.ascontiguousarray(x.T)
    return x, ok


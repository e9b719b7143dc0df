"""Dense square solves (sizes 3-16) with pivoting and singularity detection.

The hexahedral coordinates (8 x 8) bottom out in one of these solves.
Quadrilaterals (4 x 4, coords2d) and intervals (n x n, folded to 3 x 3 in
coords1d) are solved in closed form, and their tests use these solves as
the reference.

There is one elimination, an LU with partial (row) pivoting, written over
entries: n rows of n entries, each a Python float for one system (faster
there than numpy calls) or an (m,) array for a stack of m systems, in which
a float stands for the same number in all m.  The elimination is a
template (_source), written out as straight-line code once per size and
kind on first use: every entry is a local name and every loop step a line
with literal indices, which takes the loop overhead off one system.  Every
step is the same elementwise IEEE operation on the same operands in the
same order on either kind, so a system gives the same bits alone and in
any stack.  Four steps differ by kind: max|A| (max, or np.maximum), the
pivot choice (a branch, or a mask where v > big), the row swap (a branch
per candidate row, or np.where where a system picked the row) and a pivot
below the floor (SingularMatrix, or ok cleared).  An update builds a new
entry, so no entry handed in is written into.  _solve runs it and checks
the residual contract, once for both kinds, against the rows it was
handed; solve_dense validates and converts one system for it, and coords3d
hands it each stack of hexahedral rows as it assembles them.

_residual_held states the residual contract once, for this solve and the
closed forms of coords1d and coords2d, checked on every evaluation in
either interpreter mode: one system beyond it raises ResidualExceeded, and
a stack clears ok (x NaN) in those rows alone.
"""

from __future__ import annotations

import linecache
from contextlib import nullcontext

import numpy as np

from .errors import ResidualExceeded, SingularMatrix
from .tolerances import PIVOT_RTOL, RESIDUAL_RTOL
# The sizes the kernels are written out for.
_SIZES = range(3, 17)


def active_backend() -> str:
    """Name of the solver implementation; there is only the pure-Python one."""
    return "python"


def _largest(values, m):
    """The largest of nonnegative values elementwise over a stack of m,
    an (m,) array."""
    big = np.zeros(m)
    for v in values:
        np.maximum(big, v, out=big)
    return big


def _swapped(swap, row_k, row_i):
    """The entries of rows k and i, exchanged where swap (m,) is set."""
    return [np.where(swap, e_i, e_k) for e_k, e_i in zip(row_k, row_i)] + [
        np.where(swap, e_k, e_i) for e_k, e_i in zip(row_k, row_i)
    ]


def _source(n: int, one: bool) -> str:
    """The kernels for n x n systems of one kind, as Python source.

    eliminate(a, b, m) is the LU with partial pivoting on the rows a against
    b; it returns x (a list of n entries) and ok.  The pivot of column k is
    the first row holding the largest |entry| at or below the diagonal.
    One system (one) raises SingularMatrix where a pivot falls below
    PIVOT_RTOL * max|A|; a stack clears ok there, and its x is NaN.
    residual(a, b, x, m) returns max_i |sum_j a_ij x_j - b_i|, each sum
    taken left to right, and max_i |b_i|.
    """
    a = [[f"a{i}_{j}" for j in range(n)] for i in range(n)]
    b = [f"b{i}" for i in range(n)]
    x = [f"x{i}" for i in range(n)]

    def names(values):
        return ", ".join(values)

    def largest_abs(values):
        if one:
            return f"max({names(f'abs({v})' for v in values)})"
        return f"_largest(map(abs, ({names(values)})), m)"

    unpack = [
        "    (", *(f"        ({names(row)})," for row in a), "    ) = a", f"    {names(b)}, = b"
    ]
    out = ["def eliminate(a, b, m):", *unpack]
    out.append(f"    floor = PIVOT_RTOL * {largest_abs(e for row in a for e in row)}")
    if one:
        out += [
            "    if floor == 0.0:",
            '        raise SingularMatrix("matrix is identically zero")',
        ]
    else:
        out.append("    ok = floor != 0.0")
    for k in range(n):
        below = range(k + 1, n)
        out.append(f"    # column {k}")
        if below:
            out.append(f"    p = {k}")
        out.append(f"    big = abs({a[k][k]})")
        for i in below:
            out.append(f"    v = abs({a[i][k]})")
            if one:
                out += ["    if v > big:", f"        p, big = {i}, v"]
            else:
                out += [
                    "    better = v > big",
                    f"    p, big = np.where(better, {i}, p), np.where(better, v, big)",
                ]
        # Only the columns from k on are read again.
        row_k = [*a[k][k:], b[k]]
        if one:
            message = f"pivot {{big:.3e}} below threshold {{floor:.3e}} at column {k}"
            out += ["    if big < floor:", f'        raise SingularMatrix(f"{message}")']
            if below:
                out.append(f"    if p != {k}:")
                for i in below:
                    row_i = [*a[i][k:], b[i]]
                    out += [
                        f"        {'if' if i == k + 1 else 'elif'} p == {i}:",
                        f"            {names(row_k)}, {names(row_i)}"
                        f" = {names(row_i)}, {names(row_k)}",
                    ]
        else:
            out.append("    ok = ok & ~(big < floor)")
            for i in below:
                row_i = [*a[i][k:], b[i]]
                out += [
                    f"    swap = p == {i}",
                    "    if swap.any():",
                    f"        {names(row_k)}, {names(row_i)}"
                    f" = _swapped(swap, ({names(row_k)}), ({names(row_i)}))",
                ]
        for i in below:
            out.append(f"    mult = {a[i][k]} / {a[k][k]}")
            out += [f"    {a[i][j]} = {a[i][j]} - mult * {a[k][j]}" for j in below]
            out.append(f"    {b[i]} = {b[i]} - mult * {b[k]}")
    # Each back-substitution sum starts at 0.0, as a loop's does: 0.0 + -0.0
    # is 0.0, which a zero solution's sign can turn on.
    for k in reversed(range(n)):
        dot = " + ".join(["0.0", *(f"{a[k][j]} * {x[j]}" for j in range(k + 1, n))])
        if k < n - 1:
            dot = f"({dot})"
        out.append(f"    {x[k]} = ({b[k]} - {dot}) / {a[k][k]}")
    if one:
        out.append(f"    return [{names(x)}], True")
    else:
        out.append(f"    return [{names(f'np.where(ok, {e}, np.nan)' for e in x)}], ok")
    out += ["", "", "def residual(a, b, x, m):", *unpack, f"    {names(x)}, = x"]
    rows = (
        f"{' + '.join(f'{e} * {x_j}' for e, x_j in zip(row, x))} - {b_i}" for row, b_i in zip(a, b)
    )
    out.append(f"    return {largest_abs(rows)}, {largest_abs(b)}")
    return "\n".join(out) + "\n"


# The compiled kernels (eliminate, residual) by (n, one), each written out
# on its first use.
_KERNELS: dict = {}


def _kernels(n: int, one: bool):
    """The kernels for n x n systems of one kind, compiled from _source on
    first use under a file name that tracebacks show with their lines."""
    kernels = _KERNELS.get((n, one))
    if kernels is None:
        name = f"<smallsolve n={n} {'one' if one else 'many'}>"
        source = _source(n, one)
        linecache.cache[name] = (len(source), None, source.splitlines(True), name)
        namespace: dict = {}
        exec(compile(source, name, "exec"), globals(), namespace)
        kernels = _KERNELS[n, one] = namespace["eliminate"], namespace["residual"]
    return kernels


def _eliminate(a, b, m):
    """LU with partial pivoting on the rows a against b, entries as _solve
    takes them; returns x (n entries) and ok.  Runs the eliminate kernel of
    the size and kind (_source)."""
    return _kernels(len(b), m is None)[0](a, b, m)


def _residual_held(resid, scale, what: str):
    """The residual contract, resid <= RESIDUAL_RTOL * (1 + scale), with
    RESIDUAL_RTOL read at each call.

    resid is max_i |sum_j a_ij x_j - b_i| and scale max_i |b_i|; the closed
    forms of coords1d and coords2d pass scale 1.0, their right-hand side's.
    One system (resid a float) raises ResidualExceeded where the contract
    fails, naming what was solved; a stack (resid (m,)) returns where it
    holds, which is nowhere that resid is NaN.
    """
    held = resid <= RESIDUAL_RTOL * (1.0 + scale)
    if isinstance(resid, float) and not held:
        raise ResidualExceeded(f"{what} residual {resid:.3e} exceeds contract")
    return held


def _solve(a, b, m=None):
    """Solve the rows a (n rows of n entries) against b (n entries); returns
    (x, ok, over).

    With m None every entry is a Python float: one system, returned as x
    (n,), ok True and over False, or SingularMatrix, or ResidualExceeded
    where x misses the rows a by more than the residual contract allows.
    Otherwise the entries are floats or (m,) arrays, a stack of m systems:
    x (m, n) is NaN where ok (m,) is False, which is exactly where the
    system alone would raise, and over (m,) marks the rows among them that
    would raise ResidualExceeded.  The inputs are never written into.
    """
    with nullcontext() if m is None else np.errstate(divide="ignore", invalid="ignore"):
        x, ok = _eliminate(a, b, m)
        resid, scale = _kernels(len(b), m is None)[1](a, b, x, m)
        held = _residual_held(resid, scale, "solve")
    if m is None:
        return np.array(x), True, False
    x = np.stack(x, axis=1)
    x[~held] = np.nan
    return x, ok & held, ok & ~held


def _check_size(n: int) -> None:
    if n not in _SIZES:
        raise ValueError(f"solves sizes {_SIZES.start}-{_SIZES.stop - 1}, got {n} x {n}")


def solve_dense(matrix, rhs) -> np.ndarray:
    """Solve matrix @ x = rhs for a small dense square system.

    matrix is n rows of n numbers, as lists or a 2D array, which is
    converted once by tolist; rhs is n numbers, n from 3 to 16.  Inputs are
    copied, never modified.  Raises SingularMatrix when partial pivoting
    meets a pivot below PIVOT_RTOL relative to the largest matrix entry.
    Raises ResidualExceeded when the solution misses the rows by more than
    the residual contract allows.
    Deterministic: identical inputs give bitwise identical results,
    whichever form they come in, and the same bits as the system in a
    stack of _solve.
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
    _check_size(n)
    return _solve(a, b)[0]

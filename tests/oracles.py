"""The paper's system forms, which the tests check the closed forms against,
and the loop form of the LU, which the tests check the solver against.

The coordinates are solved in closed form (coords2d, coords1d), and the
package calls none of these: the quadrilateral weight rows of the moment
and Wachspress systems, the triangle coordinates, and the full relabeled
n x n interval system.  They take the package's own helpers, so a row here
is the row the closed form is built from.  smallsolve writes its
elimination out per size and kind; eliminate_loops is the same elimination
as loops over the rows, the bitwise reference for it.  axiom_errors is
checks._axiom_errors in row form, numpy's axis reductions over each row, the
reference for the column form the package runs.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from momentcoords.coords1d import _locate
from momentcoords.coords2d import _moment_weights, _tri_bary, _unit_offsets, _wachspress_weights
from momentcoords.errors import NotConvex, SingularMatrix
from momentcoords.geometry import NodeSet1D, Quadrilateral
from momentcoords.smallsolve import PIVOT_RTOL


def moment_row(quad: Quadrilateral, p) -> np.ndarray:
    """Alternating-sign vertex distances (d1, -d2, d3, -d4)."""
    row = _moment_weights(*_unit_offsets(quad, float(p[0]), float(p[1])))
    return np.array(row) / quad.reproducing_kernel[3]


def wachspress_row(quad: Quadrilateral, p) -> np.ndarray:
    """Alternating-sign products of incident edge lengths and edge distances.

    rho_i = l(i-1) * l(i) * h(i-1) * h(i) where edge i joins vertices i and
    i+1; rho_i vanishes exactly when p lies on an edge incident to vertex i.
    """
    if not quad.is_convex:
        raise NotConvex("Wachspress weights require a convex quadrilateral")
    s = quad.reproducing_kernel[3]
    return np.array(_wachspress_weights(*_unit_offsets(quad, float(p[0]), float(p[1])))) / s**4


def triangle_barycentric(tri, p) -> np.ndarray:
    """Affine coordinates of p w.r.t. a triangle, signed outside it."""
    a, b, c = ((float(q[0]), float(q[1])) for q in tri)
    return np.array(_tri_bary(a, b, c, float(p[0]), float(p[1])))


def build_system_1d(nodes: NodeSet1D, x: float):
    """Assemble the relabeled n x n moment system for query x.

    Returns (matrix, rhs, permutation): permutation[j] is the original index
    of permuted position j, so the containing interval is permutation[0].
    The coordinates solve its folded 3 x 3 form instead.
    """
    k, xq, _ = _locate(nodes, float(x))
    n = len(nodes)
    perm = np.concatenate(([k, k + 1], np.arange(k), np.arange(k + 2, n)))
    d = nodes.nodes[perm] - xq
    matrix = np.zeros((n, n))
    matrix[0] = 1.0
    matrix[1] = d
    # Distance-row signs alternate with the *original* sorted index; keying
    # them to the permuted position instead makes the row a multiple of the
    # centered-node row whenever the containing interval index is even.
    matrix[2] = np.where(perm % 2 == 0, 1.0, -1.0) * np.abs(d)
    for r in range(3, n):
        matrix[r, r - 1 : r + 1] = 1.0
    rhs = np.zeros(n)
    rhs[0] = 1.0
    return matrix, rhs, perm


def _largest(values, m):
    """The largest of nonnegative values: a float for one system (m None),
    or elementwise over a stack of m, an (m,) array."""
    if m is None:
        return max(values)
    big = np.zeros(m)
    for v in values:
        np.maximum(big, v, out=big)
    return big


def eliminate_loops(a, b, m):
    """smallsolve._eliminate as loops: LU with partial pivoting on the rows
    a against b, entries Python floats for one system (m None) or floats
    and (m,) arrays for a stack of m; returns x (n entries) and ok.

    The pivot of column k is the first row holding the largest |entry| at or
    below the diagonal.  One system raises SingularMatrix where a pivot falls
    below PIVOT_RTOL * max|A|; a stack clears ok there, and its x is NaN.
    A stack divides by zero there: run it under np.errstate.
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


def axiom_errors(weights, vertices, points):
    """checks._axiom_errors in row form: |sum - 1|, -min and the linear
    precision error of each row of weights (m, n) at points (m, dim), by
    axis reductions; the reconstruction adds each vertex's term to a zero
    array, vertex by vertex."""
    c = vertices.mean(axis=0)
    centred = vertices - c
    recon = np.zeros(points.shape)
    for i in range(centred.shape[0]):
        recon += weights[:, i, None] * centred[i]
    return (
        np.abs(weights.sum(axis=1) - 1.0),
        -weights.min(axis=1),
        np.abs(recon - (points - c)).max(axis=1),
    )

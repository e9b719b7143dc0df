"""The paper's system forms, which the tests check the closed forms against.

The coordinates are solved in closed form (coords2d, coords1d), and the
package calls none of these: the quadrilateral weight rows of the moment
and Wachspress systems, the triangle coordinates, and the full relabeled
n x n interval system.  They take the package's own helpers, so a row here
is the row the closed form is built from.
"""

from __future__ import annotations

import numpy as np

from momentcoords.coords1d import _locate
from momentcoords.coords2d import _moment_weights, _tri_bary, _unit_offsets, _wachspress_weights
from momentcoords.errors import NotConvex
from momentcoords.geometry import NodeSet1D, Quadrilateral


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

"""Moment coordinates on an interval and the piecewise-linear hat oracle.

The n-node system stacks a ones row, a centered-node row, an
alternating-sign distance row, and n - 3 adjacency rows with two unit
entries each.  The node set is relabeled so that the interval containing
the query occupies positions 1 and 2; the adjacency rows then pair the
remaining positions (3,4), (4,5), ..., keeping the expected two-nonzero
hat solution out of every adjacency constraint.

moment_coords_1d_many and hat_oracle_many evaluate a batch of queries with
the same arithmetic, the systems as one stack.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OutOfDomain
from .geometry import NodeSet1D
from .smallsolve import solve_dense, solve_dense_many

DOMAIN_RTOL = 1e-12


def _locate(nodes: NodeSet1D, x: float):
    """Containing interval index for x; exact node hits take the lower interval.

    Returns (k, x) with x clamped into [nodes[0], nodes[-1]]; raises
    OutOfDomain when x is not finite or lies outside beyond a span-relative
    tolerance.
    """
    xs = nodes.nodes
    lo, hi = float(xs[0]), float(xs[-1])
    x = float(x)
    tol = DOMAIN_RTOL * nodes.span
    if not math.isfinite(x) or x < lo - tol or x > hi + tol:
        raise OutOfDomain(f"x={x!r} outside [{lo!r}, {hi!r}]")
    x = min(max(x, lo), hi)
    idx = int(np.searchsorted(xs, x, side="left"))
    if idx < len(xs) and xs[idx] == x:
        k = max(idx - 1, 0)
    else:
        k = idx - 1
    return k, x


def _locate_many(nodes: NodeSet1D, x):
    """_locate at each query of x (any shape, flattened): (k, x, ok).

    ok[s] is False where _locate raises OutOfDomain; k[s] is then 0.  The
    clamp and the exact-node test run as _locate's, so k and x are the
    same numbers.
    """
    xs = nodes.nodes
    lo, hi = float(xs[0]), float(xs[-1])
    x = np.asarray(x, dtype=float).reshape(-1)
    tol = DOMAIN_RTOL * nodes.span
    ok = np.isfinite(x) & ~(x < lo - tol) & ~(x > hi + tol)
    x = np.where(lo > x, lo, x)  # max(x, lo), then min(x, hi)
    x = np.where(hi < x, hi, x)
    idx = np.searchsorted(xs, x, side="left")
    hit = xs[np.minimum(idx, len(xs) - 1)] == x
    k = np.where(hit, np.maximum(idx - 1, 0), idx - 1)
    k[~ok] = 0
    return k, x, ok


def build_system_1d(nodes: NodeSet1D, x: float):
    """Assemble the relabeled n x n moment system for query x.

    Returns (matrix, rhs, permutation): permutation[j] is the original index
    of permuted position j, so the containing interval is permutation[0].
    """
    k, xq = _locate(nodes, x)
    xs = nodes.nodes
    n = len(xs)
    perm = np.concatenate(([k, k + 1], np.arange(0, k), np.arange(k + 2, n))).astype(int)
    y = xs[perm]
    m = np.zeros((n, n))
    m[0] = 1.0
    m[1] = y - xq
    # Distance-row signs alternate with the *original* sorted index; keying
    # them to the permuted position instead makes the row a multiple of the
    # centered-node row whenever the containing interval index is even.
    signs = np.where(perm % 2 == 0, 1.0, -1.0)
    m[2] = signs * np.abs(y - xq)
    for r in range(n - 3):
        m[3 + r, r + 2] = 1.0
        m[3 + r, r + 3] = 1.0
    rhs = np.zeros(n)
    rhs[0] = 1.0
    return m, rhs, perm


def moment_coords_1d(nodes: NodeSet1D, x: float) -> np.ndarray:
    """Coordinates of x in the node basis via the moment system.

    Nonnegative, partition of unity, linear precision; coincides with the
    hat-function coordinates of the containing interval.
    """
    matrix, rhs, perm = build_system_1d(nodes, x)
    phi = np.empty(len(nodes))
    phi[perm] = solve_dense(matrix, rhs)
    return phi


def moment_coords_1d_many(nodes: NodeSet1D, x) -> tuple[np.ndarray, np.ndarray]:
    """moment_coords_1d at each query of x (m,) or (m, 1); returns (phi, ok).

    The relabeled systems are assembled as build_system_1d assembles one
    and solved as one stack by solve_dense_many, so phi[s] is bitwise equal
    to moment_coords_1d(nodes, x[s]) where ok[s] is set.  ok[s] is False
    (and phi[s] NaN) where the single-point function raises: a query
    outside the nodes or not finite, or a singular system.
    """
    k, xq, ok = _locate_many(nodes, x)
    xs = nodes.nodes
    n = len(xs)
    phi = np.full((len(xq), n), np.nan)
    k, xq = k[ok], xq[ok]
    j = np.arange(n)
    perm = np.where(j < k[:, None] + 2, j - 2, j)
    perm[:, 0] = k
    perm[:, 1] = k + 1
    y = xs[perm]
    m = np.zeros((len(k), n, n))
    m[:, 0] = 1.0
    m[:, 1] = y - xq[:, None]
    m[:, 2] = np.where(perm % 2 == 0, 1.0, -1.0) * np.abs(y - xq[:, None])
    for r in range(n - 3):
        m[:, 3 + r, r + 2] = 1.0
        m[:, 3 + r, r + 3] = 1.0
    rhs = np.zeros((len(k), n))
    rhs[:, 0] = 1.0
    sol, solved = solve_dense_many(m, rhs)
    rows = np.flatnonzero(ok)
    phi[rows[:, None], perm] = sol
    ok[rows] = solved
    return phi, ok


def hat_oracle(nodes: NodeSet1D, x: float) -> np.ndarray:
    """Standard piecewise-linear nodal basis evaluated at x."""
    k, xq = _locate(nodes, x)
    xs = nodes.nodes
    phi = np.zeros(len(xs))
    phi[k] = (xs[k + 1] - xq) / (xs[k + 1] - xs[k])
    phi[k + 1] = 1.0 - phi[k]
    return phi


def hat_oracle_many(nodes: NodeSet1D, x) -> tuple[np.ndarray, np.ndarray]:
    """hat_oracle at each query of x (m,) or (m, 1); returns (phi, ok).

    phi[s] is bitwise equal to hat_oracle(nodes, x[s]) where ok[s] is set;
    ok[s] is False (and phi[s] NaN) where hat_oracle raises OutOfDomain.
    """
    k, xq, ok = _locate_many(nodes, x)
    xs = nodes.nodes
    rows = np.arange(len(xq))
    phi = np.zeros((len(xq), len(xs)))
    phi[rows, k] = (xs[k + 1] - xq) / (xs[k + 1] - xs[k])
    phi[rows, k + 1] = 1.0 - phi[rows, k]
    phi[~ok] = np.nan
    return phi, ok

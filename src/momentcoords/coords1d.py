"""Moment coordinates on an interval and the piecewise-linear hat oracle.

The n-node system stacks a ones row, a centered-node row, an
alternating-sign distance row, and n - 3 adjacency rows with two unit
entries each.  The node set is relabeled so that the interval containing
the query occupies positions 1 and 2; the adjacency rows then pair the
remaining positions (3,4), (4,5), ..., keeping the expected two-nonzero
hat solution out of every adjacency constraint.

moment_coords_1d_many and hat_oracle_many evaluate a batch of queries.  The
relabeled assembly and the hat weights are written once, for one query or a
stack; each path keeps its own locator and solver.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=64)
def _layout(n: int):
    """The parts of the n x n system that no query changes, read-only: the
    positions 0..n-1, the distance-row signs by original node index, and
    the n - 3 adjacency rows, with unit entries at positions (2, 3), ..."""
    j = np.arange(n)
    # Distance-row signs alternate with the *original* sorted index; keying
    # them to the permuted position instead makes the row a multiple of the
    # centered-node row whenever the containing interval index is even.
    parts = j, np.where(j % 2 == 0, 1.0, -1.0), (np.eye(n, k=2) + np.eye(n, k=3))[: n - 3]
    for part in parts:
        part.flags.writeable = False
    return parts


def _relabeled_system(xs, k, xq):
    """The relabeled n x n system (matrix, rhs, permutation) of one query
    (k an int, xq a float) or of a stack of them (arrays (m,)) on nodes xs;
    permutation[..., j] is the original index of permuted position j."""
    n = len(xs)
    j, signs, adjacency = _layout(n)
    k, xq = np.asarray(k)[..., None], np.asarray(xq)[..., None]
    perm = np.where(j < k + 2, j - 2, j)
    perm[..., :2] = k + (0, 1)
    d = xs[perm] - xq
    m = np.empty(perm.shape[:-1] + (n, n))
    m[..., 0, :] = 1.0
    m[..., 1, :] = d
    m[..., 2, :] = signs[perm] * np.abs(d)
    m[..., 3:, :] = adjacency
    rhs = np.zeros(perm.shape)
    rhs[..., 0] = 1.0
    return m, rhs, perm


def build_system_1d(nodes: NodeSet1D, x: float):
    """Assemble the relabeled n x n moment system for query x.

    Returns (matrix, rhs, permutation): permutation[j] is the original index
    of permuted position j, so the containing interval is permutation[0].
    """
    k, xq = _locate(nodes, x)
    return _relabeled_system(nodes.nodes, k, xq)


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

    The relabeled systems are solved as one stack by solve_dense_many, so
    phi[s] is bitwise equal to moment_coords_1d(nodes, x[s]) where ok[s] is
    set.  ok[s] is False (and phi[s] NaN) where the single-point function
    raises: a query outside the nodes or not finite, or a singular system.
    """
    k, xq, ok = _locate_many(nodes, x)
    phi = np.full((len(xq), len(nodes)), np.nan)
    rows = np.flatnonzero(ok)
    matrix, rhs, perm = _relabeled_system(nodes.nodes, k[ok], xq[ok])
    phi[rows[:, None], perm], ok[rows] = solve_dense_many(matrix, rhs)
    return phi, ok


def _hat(xs, k, xq) -> np.ndarray:
    """The hat functions of nodes xs at xq in interval k: a row (n,) for one
    query (k an int, xq a float), rows (m, n) for a stack (arrays (m,))."""
    left = np.asarray((xs[k + 1] - xq) / (xs[k + 1] - xs[k]))[..., None]
    k, j = np.asarray(k)[..., None], np.arange(len(xs))
    return np.where(j == k, left, np.where(j == k + 1, 1.0 - left, 0.0))


def hat_oracle(nodes: NodeSet1D, x: float) -> np.ndarray:
    """Standard piecewise-linear nodal basis evaluated at x."""
    return _hat(nodes.nodes, *_locate(nodes, x))


def hat_oracle_many(nodes: NodeSet1D, x) -> tuple[np.ndarray, np.ndarray]:
    """hat_oracle at each query of x (m,) or (m, 1); returns (phi, ok).

    phi[s] is bitwise equal to hat_oracle(nodes, x[s]) where ok[s] is set;
    ok[s] is False (and phi[s] NaN) where hat_oracle raises OutOfDomain.
    """
    k, xq, ok = _locate_many(nodes, x)
    return np.where(ok[:, None], _hat(nodes.nodes, k, xq), np.nan), ok

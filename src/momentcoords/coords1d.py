"""Moment coordinates on an interval and the piecewise-linear hat oracle.

The n-node system stacks a ones row, a centered-node row, an
alternating-sign distance row, and n - 3 adjacency rows with two unit
entries each.  The node set is relabeled so that the interval containing
the query occupies positions 1 and 2; the adjacency rows then pair the
remaining positions (3,4), (4,5), ..., keeping the expected two-nonzero
hat solution out of every adjacency constraint.  The tests assemble that
n x n system (tests/oracles.py) and solve it as the reference.

The coordinates do not solve it.  The adjacency rows are a bidiagonal
chain over the nodes outside the containing interval [k, k+1], taken in
index order, so eliminating them leaves phi_j = (-1)**j t for every such
node j, and (-1)**j is also node j's sign in the distance row.  What is
left is a 3 x 3 system in (phi_k, phi_(k+1), t):

    [[1,   1,       c0],      [phi_k    ]   [1]
     [d_k, d_(k+1), c1],   .  [phi_(k+1)] = [0]
     [e_k, e_(k+1), c2]]      [t        ]   [0]

with d_j the offset x_j - x, e_j = (-1)**j |d_j|, and c0 = sum (-1)**j
(n mod 2, since the two inside signs cancel), c1 = sum (-1)**j d_j and
c2 = sum |d_j| over the outside nodes in index order.  It is solved in
closed form by expanding along its first row.  The offsets are taken in
units of a power of two next to the span (NodeSet1D.unit_scale), which is
exact and leaves the weights unchanged, so every node set that validation
accepts evaluates, whatever its size.  A determinant at or below
tolerances.PIVOT_RTOL times the sum of its six expansion terms is refused
as SingularMatrix, and the residual of all n rows, in units of L, is held
to the contract of smallsolve.solve_dense at every evaluation
(smallsolve._residual_held): one query beyond it raises ResidualExceeded,
and a batch leaves that row blank with the cause residual.

moment_coords_1d_many and hat_oracle_many evaluate a batch of queries and
return the location as a geometry.BatchInfo with the weights.  The
locator, the fold and the hat weights are written once, on Python floats
for one query and as elementwise numpy over a stack, in the same order, so
the two agree bit for bit; the locator's search alone branches, bisect for
one query and searchsorted for a stack.
"""

from __future__ import annotations

import bisect
import math
from operator import add, mul

import numpy as np

from .errors import OutOfDomain, SingularMatrix
from .geometry import EXTERIOR, RESIDUAL, SINGULAR, BatchInfo, NodeSet1D
from .smallsolve import _residual_held
from .tolerances import DOMAIN_RTOL, PIVOT_RTOL


def _locate(nodes: NodeSet1D, x):
    """(k, x, ok): the containing interval index k of x, with exact node
    hits taking the lower interval, and x clamped into [nodes[0],
    nodes[-1]].

    Takes one query as a Python float or a stack as an array (m,), with the
    same domain test and clamp.  ok is where x is finite and inside the
    nodes up to a span-relative tolerance; one query raises OutOfDomain
    where it fails, and a stack has k = 0 there.
    """
    xs = nodes.node_tuple
    lo, hi = xs[0], xs[-1]
    tol = DOMAIN_RTOL * nodes.span
    ok = (lo - tol <= x) & (x <= hi + tol) & (abs(x) < math.inf)
    # The first node >= x closes interval idx - 1; a hit on it (or on
    # nodes[0]) takes the lower interval, so k never reaches len - 1.
    if isinstance(x, float):
        if not ok:
            raise OutOfDomain(f"x={x!r} outside [{lo!r}, {hi!r}]")
        x = min(max(x, lo), hi)
        return max(bisect.bisect_left(xs, x) - 1, 0), x, ok
    x = np.where(hi < x, hi, np.where(lo > x, lo, x))
    k = np.maximum(np.searchsorted(nodes.nodes, x, side="left") - 1, 0)
    return np.where(ok, k, 0), x, ok


def _fold(dk, dk1, sk, c0, c1, c2):
    """(phi_k, phi_(k+1), t, singular) of the folded 3 x 3 system, floats
    for one query or arrays (m,) for a stack.

    dk and dk1 are the offsets of the interval's nodes, sk = (-1)**k, and
    c0, c1, c2 the folded outside columns.  The determinant is expanded
    along the ones row; its three cofactors are the numerators.  singular
    is where |det| <= PIVOT_RTOL times the sum of the expansion's six |terms|.
    """
    ek, ek1 = sk * abs(dk), -sk * abs(dk1)
    p1, p2, p3, p4 = dk1 * c2, c1 * ek1, dk * c2, c1 * ek
    p5, p6 = dk * ek1, dk1 * ek
    num_k, num_k1, num_t = p1 - p2, p4 - p3, p5 - p6
    det = num_k + num_k1 + c0 * num_t
    terms = abs(p1) + abs(p2) + abs(p3) + abs(p4) + c0 * (abs(p5) + abs(p6))
    floor = PIVOT_RTOL * terms
    singular = abs(det) <= floor
    if isinstance(det, float) and singular:
        raise SingularMatrix(f"folded determinant {det:.3e} below threshold {floor:.3e}")
    return num_k / det, num_k1 / det, num_t / det, singular


def _residual_rows(d, phi, chain) -> list:
    """The residuals of the n rows of the relabeled system, in units of L:
    ones, offsets, signed distances, then the adjacency pairs along chain
    (phi at the outside nodes in index order).  Entries are floats for one
    query, arrays (m,) for a stack."""
    e = [abs(dj) if j % 2 == 0 else -abs(dj) for j, dj in enumerate(d)]
    ones = sum(phi) - 1.0
    return [ones, sum(map(mul, d, phi)), sum(map(mul, e, phi)), *map(add, chain, chain[1:])]


def moment_coords_1d(nodes: NodeSet1D, x: float) -> np.ndarray:
    """Coordinates of x in the node basis via the moment system.

    Nonnegative, partition of unity, linear precision; coincides with the
    hat-function coordinates of the containing interval.
    """
    k, xq, _ = _locate(nodes, float(x))
    s = nodes.unit_scale
    d = [(xj - xq) * s for xj in nodes.node_tuple]
    n = len(d)
    c1 = c2 = 0.0
    for j in (*range(k), *range(k + 2, n)):
        c1 += d[j] if j % 2 == 0 else -d[j]
        c2 += abs(d[j])
    a, b, t, _ = _fold(d[k], d[k + 1], -1.0 if k % 2 else 1.0, float(n % 2), c1, c2)
    # Adding to +0.0 (or taking from it) makes a zero weight +0.0 and
    # changes no other value.
    phi = [t + 0.0, 0.0 - t] * (n // 2) + [t + 0.0] * (n % 2)
    phi[k], phi[k + 1] = a + 0.0, b + 0.0
    _residual_held(max(map(abs, _residual_rows(d, phi, phi[:k] + phi[k + 2 :]))), 1.0, "folded")
    return np.array(phi)


def moment_coords_1d_many(nodes: NodeSet1D, x):
    """moment_coords_1d at each query of x (m,) or (m, 1); returns (phi, ok,
    info), info the BatchInfo of _locate's result (code its ok,
    geometry.LOC_EXTERIOR or LOC_INTERIOR; index its k; causes exterior,
    singular and residual).

    The fold runs over the stack as moment_coords_1d runs it on one query,
    so phi[s] is bitwise equal to moment_coords_1d(nodes, x[s]) where ok[s]
    is set.  ok[s] is False (and phi[s] NaN) where the single-point function
    raises: a query outside the nodes or not finite, a singular system, or
    a solution beyond the residual contract, which holds each row to it
    alone.
    """
    k, xq, ok = _locate(nodes, np.asarray(x, dtype=float).reshape(-1))
    code, index = ok.astype(np.int8), k
    rows = np.flatnonzero(ok)
    k, m, n = k[rows], len(rows), len(nodes)
    d = (nodes.nodes - xq[rows, None]) * nodes.unit_scale
    col, j = k[:, None], np.arange(n)
    outside = (j != col) & (j != col + 1)
    c1 = c2 = np.zeros(m)
    # Inside nodes add +0.0, which leaves a sum that started at +0.0 as it is.
    for i in range(n):
        c1 = c1 + np.where(outside[:, i], d[:, i] if i % 2 == 0 else -d[:, i], 0.0)
        c2 = c2 + np.where(outside[:, i], abs(d[:, i]), 0.0)
    dk, dk1 = d[np.arange(m), k], d[np.arange(m), k + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b, t, singular = _fold(dk, dk1, np.where(k % 2, -1.0, 1.0), float(n % 2), c1, c2)
    a, b, t = a[:, None] + 0.0, b[:, None] + 0.0, t[:, None]
    w = np.where(j == col, a, np.where(j == col + 1, b, np.where(j % 2 == 0, t + 0.0, 0.0 - t)))
    w[singular] = np.nan
    order = np.where(j[: n - 2] < col, j[: n - 2], j[: n - 2] + 2)  # the outside nodes
    chain = np.take_along_axis(w, order, axis=1)
    resid = np.abs(_residual_rows(list(d.T), list(w.T), list(chain.T))).max(axis=0)
    held = _residual_held(resid, 1.0, "folded")
    w[~held] = np.nan
    phi = np.full((len(xq), n), np.nan)
    phi[rows] = w
    ok[rows] = held
    failure = np.full(len(xq), SINGULAR)
    failure[rows[~held & ~singular]] = RESIDUAL
    return phi, ok, BatchInfo.of(code, index, ok, failure)


def _hat(xs, k, xq) -> np.ndarray:
    """The hat functions of nodes xs at xq in interval k: a row (n,) for one
    query (k an int, xq a float), rows (m, n) for a stack (arrays (m,))."""
    left = np.asarray((xs[k + 1] - xq) / (xs[k + 1] - xs[k]))[..., None]
    k, j = np.asarray(k)[..., None], np.arange(len(xs))
    return np.where(j == k, left, np.where(j == k + 1, 1.0 - left, 0.0))


def hat_oracle(nodes: NodeSet1D, x: float) -> np.ndarray:
    """Standard piecewise-linear nodal basis evaluated at x."""
    return _hat(nodes.nodes, *_locate(nodes, float(x))[:2])


def hat_oracle_many(nodes: NodeSet1D, x):
    """hat_oracle at each query of x (m,) or (m, 1); returns (phi, ok, info)
    as moment_coords_1d_many does (cause exterior only).

    phi[s] is bitwise equal to hat_oracle(nodes, x[s]) where ok[s] is set;
    ok[s] is False (and phi[s] NaN) where hat_oracle raises OutOfDomain.
    """
    k, xq, ok = _locate(nodes, np.asarray(x, dtype=float).reshape(-1))
    phi = np.where(ok[:, None], _hat(nodes.nodes, k, xq), np.nan)
    return phi, ok, BatchInfo.of(ok.astype(np.int8), k, ok, EXTERIOR)

"""Finite-difference gradients of coordinate fields.

Derivatives are central where both offset points stay inside the domain
and one-sided next to the boundary; the relative step follows the geometry
diameter, and each difference divides by the step its rounded offsets
span, so a far-translated geometry keeps its digits.  grid --derivatives
takes them for hexahedra, intervals and the oracle methods, at the rows
that have weights.  The quadrilateral moment and Wachspress coordinates have
closed-form gradients instead (coords2d.moment_gradient_quad_many and
wachspress_gradient_quad_many): grad phi = grad tau + grad alpha nu of
phi = tau + alpha nu, exact at every point of the closed domain.  An edge
point takes that formula at the point, its one-sided limit from the
interior; a vertex takes it at the vertex itself, where the moment row's
vanishing distance has the unit inward bisector as its gradient, the limit
along the bisector.  A finite difference is not a limit at a vertex: at the
sharp corners it has no admissible step at all, and elsewhere it differs
from the closed form by up to 0.28 on the builtin grids.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .geometry import EXTERIOR

# Relative finite-difference step (times the geometry diameter).
FD_STEP_RTOL = 1e-6


def finite_difference_gradient(evaluate, inside, p, h: float) -> np.ndarray:
    """Gradient of a vector field of weights at p.

    evaluate(point) returns the (n,) weight vector, inside(point) says
    whether a point may be evaluated, h is the absolute step.  Returns an
    (n, dim) array with entry (i, j) = d w_i / d x_j.

    Each difference divides by the step its rounded offsets span: (p + h)
    - (p - h) for a central difference, (p + h) - p or p - (p - h) for a
    one-sided one.  Far from the origin p +- h rounds to the ulp of p, and
    the nominal 2h or h would be off by up to that ulp.  An offset that
    rounds back onto p spans no step and is not admissible.
    """
    p = np.asarray(p, dtype=float)
    dim = p.shape[0]
    base = None
    cols = []
    for j in range(dim):
        step = np.zeros(dim)
        step[j] = h
        up = p + step
        dn = p - step
        up_ok = up[j] != p[j] and inside(up)
        dn_ok = dn[j] != p[j] and inside(dn)
        if up_ok and dn_ok:
            cols.append((evaluate(up) - evaluate(dn)) / (up[j] - dn[j]))
        elif up_ok:
            if base is None:
                base = evaluate(p)
            cols.append((evaluate(up) - base) / (up[j] - p[j]))
        elif dn_ok:
            if base is None:
                base = evaluate(p)
            cols.append((base - evaluate(dn)) / (p[j] - dn[j]))
        else:
            # At a sharp corner both offsets can leave the domain.
            raise DomainError(f"no admissible finite-difference step along axis {j}")
    return np.column_stack(cols)


def finite_difference_gradient_many(evaluate_many, points, base, h: float):
    """finite_difference_gradient at each row of points (m, dim) at once.

    evaluate_many(points) returns (weights (k, n), ok (k,), info), as the
    batch evaluators do; an offset point may be evaluated where its
    info.cause is not EXTERIOR and it does not round back onto its point.
    The 2 * dim offset stacks are evaluated one call per offset stack, so
    each offset is located once and no call holds more than m points.
    base (m, n) holds the weights at points themselves.  Each row takes
    the same central or one-sided difference as the single-point function,
    with the same arithmetic, over the same realized step.  Returns
    (grad (m, n, dim), ok (m,), no_step (m,)); ok is False (and the row
    NaN) where the single-point function raises: no admissible step along
    some axis (no_step set), or an offset point that fails to evaluate.
    """
    points = np.asarray(points, dtype=float)
    m, dim = points.shape
    n = base.shape[1]
    offsets = []
    for j in range(dim):
        step = np.zeros(dim)
        step[j] = h
        offsets += [points + step, points - step]
    w, good, info = zip(*map(evaluate_many, offsets))
    # Not reshape(..., -1): a stack with no points has m = 0.
    w = np.reshape(w, (2 * dim, m, n))
    # Offset k moves along axis k // 2, unless it rounds back onto its point.
    moved = np.array([o[:, k // 2] != points[:, k // 2] for k, o in enumerate(offsets)])
    inside = np.array([i.cause != EXTERIOR for i in info])
    admissible = inside.reshape(2 * dim, m) & moved.reshape(2 * dim, m)
    ok = ~(admissible & ~np.reshape(good, (2 * dim, m))).any(axis=0)
    no_step = ~(admissible[0::2] | admissible[1::2]).all(axis=0)
    grad = np.full((m, n, dim), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(dim):
            up_ok, dn_ok = admissible[2 * j], admissible[2 * j + 1]
            up, dn = w[2 * j], w[2 * j + 1]
            pu, pd = offsets[2 * j][:, j], offsets[2 * j + 1][:, j]
            p = points[:, j]
            grad[:, :, j] = np.where(
                (up_ok & dn_ok)[:, None],
                (up - dn) / (pu - pd)[:, None],
                np.where(
                    up_ok[:, None], (up - base) / (pu - p)[:, None], (base - dn) / (p - pd)[:, None]
                ),
            )
    ok &= ~no_step
    grad[~ok] = np.nan
    return grad, ok, no_step

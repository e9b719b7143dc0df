"""Every threshold the package judges by, in one table.

The paper's nonnegativity argument rests on strict inequalities (the sign
pattern, nonzero pivots, a point inside or on a facet); in floating point
each becomes a threshold.  The constant block below has one line per
threshold: its value, its unit and the rule that reads it.  A diameter is
the largest pairwise vertex distance (an interval's span); max|A| and
1 + |b| refer to the system solved; absolute values are weights or
products of unit vectors.  Each module binds the names it reads with
``from .tolerances import ...``, so a test patches a name in the module
that reads it, and each expression keeps its operation order, so no
output bit depends on where a value is defined.

Left out, because they judge no result: sampling's margins and generator
filters, which choose inputs; csvfmt's bounds, which say where its
formatting is exact; Frame3.is_identity's atol, the benchmark tracer's
diagnostic (ROADMAP item 6 retires it); and perfbench/workloads.py's gate
tolerances, the benchmark's own copies, which only a change to the
benchmark moves (tests/test_benchmark_contract.py holds them no tighter
than this table).

tests/test_tolerances.py asserts the orderings that hold.  Three that fail
today are asserted by the changes that mend them (ROADMAP): the band
strictly inside the row check's bound, CLASSIFY_RTOL < PRECISION_RTOL
(item 7); the validation slacks PLANARITY_RTOL and CONVEXITY_RTOL no
coarser than the band (item 21); and one coincidence rule and one band for
all three kinds, where MIN_EDGE_LENGTH has an absolute floor and intervals
locate by DOMAIN_RTOL (item 10).

Each check tolerance's line gives its headroom, the smallest tol / worst of
its properties on the four builtins at seeds 0, 7, 23 and 101 with 200 and
2,000 samples.  It is there for far and degenerate elements (ROADMAP items
3 and 10): no check tolerance is tight.
"""

# Validation and location (geometry).
CLASSIFY_RTOL = 1e-10  # x diameter: the facet band of _locate_quad and _locate_hex
PLANARITY_RTOL = 1e-9  # x diameter: a face corner off its plane, a flat solid (_check_hex)
CONVEXITY_RTOL = 1e-9  # x diameter: a vertex beyond a face's plane (_check_hex)
SLACK_FLOOR_ULPS = 4.0  # x eps x max|coordinate|: both slacks' floor (_check_hex; Shewchuk 1997)
MIN_EDGE_LENGTH = 1e-13  # x max(diameter, 1): coincident vertices (_check_quad, _check_hex)
ZERO_AREA_RTOL = 1e-12  # x diameter**2: zero area (_check_quad, _face_is_simple)
CONVEX_CORNER_RTOL = 1e-12  # x diameter**2: a corner cross below minus this is reflex (_convex)
PARALLEL_TOL = 1e-9  # absolute, |n_a x n_b|: a face pair without a line (Hexahedron.pair_lines)
# Intervals (coords1d).
DOMAIN_RTOL = 1e-12  # x span: a query this far beyond an end node is on it (_locate)
# The frame rule (coords3d).
PATTERN_ZERO_RTOL = 1e-12  # x diameter: a frame coordinate misses its strict sign (_frame)
WEDGE_DISTANCE_RTOL = 1e-12  # x diameter: a point this close to a pair's line has no wedge
WEDGE_NORMAL_RTOL = 1e-14  # x diameter: nor has a wedge normal this short (_functionals)
FRAME_INDEPENDENCE_TOL = 1e-12  # absolute, |det| of the unit functionals (_unit_frame)
FRAME_DET_MIN = 1e-8  # absolute, |det| of the unit frame basis (_frame)
# Solves (smallsolve, and the closed forms of coords1d and coords2d).
PIVOT_RTOL = 1e-13  # x max|A|, x the sum of a closed form's |terms|: a singular system
RESIDUAL_RTOL = 1e-10  # x (1 + |b|): the residual contract (smallsolve._residual_held)
FLAT_TRIANGLE_RTOL = 2e-13  # x longest edge**2: a triangle too flat for Cramer's rule (_tri_area2)
CRAMER_SINGULAR_RTOL = 2e-14  # x (diameter / L)**3: the Cramer expansion is singular (_cramer)
# Finite differences (gradients).
FD_STEP_RTOL = 1e-6  # x diameter: the step of grid --derivatives' finite differences
# The check suites (checks); PARTITION_TOL, NONNEG_TOL, PRECISION_RTOL also judge each written row.
PARTITION_TOL = 1e-12  # absolute, |sum phi - 1|; headroom 4.5e3
NONNEG_TOL = 1e-12  # absolute, -min phi; every worst 0
PRECISION_RTOL = 1e-10  # x diameter, |sum phi_i v_i - p|; headroom 3.5e5
ORACLE_TOL = 1e-10  # absolute, against each oracle; headroom 2.25e5
KRONECKER_TOL = 1e-10  # absolute, at the vertices or nodes; every worst 0
BOUNDARY_TOL = 1e-10  # absolute, the weights off a boundary point's edge or face; headroom 4.5e5
FACET_TOL = 1e-9  # absolute, the edge and facet reduction of hexahedra; headroom 2.25e6
COVARIANCE_TOL = 1e-9  # absolute, against the weights at a mapped point; headroom 1.39e5
EVALUATES_TOL = 0.5  # count: one failed row fails (evaluates, sign pattern verified); worst 0

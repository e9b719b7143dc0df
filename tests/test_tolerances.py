"""The tolerance table: one object per threshold, and the orderings between
the thresholds that the package's rules rely on.

The orderings that fail today (ROADMAP items 7, 21 and 10, named in the
table's docstring) are added here by the changes that mend them.
"""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import momentcoords
from momentcoords import tolerances as T

SRC = pathlib.Path(momentcoords.__file__).resolve().parent
MODULES = sorted(
    m.name for m in pkgutil.iter_modules([str(SRC)]) if m.name not in ("tolerances", "__main__")
)
TABLE = {name for name in vars(T) if name.isupper()}
TOLERANCE_NAME = re.compile(r"^[A-Z0-9_]*_R?TOL$|^MIN_EDGE_LENGTH$|^FRAME_DET_MIN$")

# The names each module reads; each binds the table's object.
READERS = {
    "geometry": ["CLASSIFY_RTOL", "PLANARITY_RTOL", "CONVEXITY_RTOL", "SLACK_FLOOR_ULPS",
                 "MIN_EDGE_LENGTH", "ZERO_AREA_RTOL", "CONVEX_CORNER_RTOL", "PARALLEL_TOL"],
    "checks": ["PARTITION_TOL", "NONNEG_TOL", "PRECISION_RTOL", "ORACLE_TOL", "KRONECKER_TOL",
               "BOUNDARY_TOL", "FACET_TOL", "COVARIANCE_TOL", "EVALUATES_TOL"],
    "coords1d": ["DOMAIN_RTOL", "PIVOT_RTOL"],
    "coords2d": ["PIVOT_RTOL", "FLAT_TRIANGLE_RTOL", "CRAMER_SINGULAR_RTOL"],
    "coords3d": ["PATTERN_ZERO_RTOL", "WEDGE_DISTANCE_RTOL", "WEDGE_NORMAL_RTOL",
                 "FRAME_INDEPENDENCE_TOL", "FRAME_DET_MIN"],
    "smallsolve": ["PIVOT_RTOL", "RESIDUAL_RTOL"],
    "gradients": ["FD_STEP_RTOL"],
    "cli": ["FD_STEP_RTOL"],
}

# The small float literals outside the table, each one the table's
# docstring leaves out: sampling's margins and generator filters, csvfmt's
# bounds of exact formatting and Frame3.is_identity's atol.
LEFT_OUT = {
    ("sampling", "interior_points_quad", 1e-5),
    ("sampling", "interior_points_hex", 1e-7),
    ("sampling", "random_simple_quad", 1e-3),
    ("sampling", "random_nodes", 1e-4),
    ("csvfmt", "format17", 1e-29),
    ("csvfmt", "format17", 1e-4),
    ("coords3d", "is_identity", 1e-14),
}


def _small_literals(module: str):
    """(module, enclosing function, value) of each float literal in (0, 1e-3]."""
    found = set()

    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Constant) and type(node.value) is float and 0 < node.value <= 1e-3:
            found.add((module, scope, node.value))
        for child in ast.iter_child_nodes(node):
            walk(child, scope)

    walk(ast.parse((SRC / f"{module}.py").read_text()), None)
    return found


def test_every_module_reads_the_tables_objects():
    for module, names in READERS.items():
        mod = importlib.import_module(f"momentcoords.{module}")
        for name in names:
            assert getattr(mod, name) is getattr(T, name), (module, name)


@pytest.mark.parametrize("module", MODULES)
def test_no_module_but_the_table_assigns_a_tolerance(module):
    mod = importlib.import_module(f"momentcoords.{module}")
    for name, value in vars(mod).items():
        if TOLERANCE_NAME.match(name) or name in TABLE:
            assert name in TABLE and value is getattr(T, name), (module, name)


def test_no_threshold_is_a_bare_literal():
    found = set().union(*map(_small_literals, MODULES))
    assert found == LEFT_OUT


def test_solver_orderings():
    # The LU refuses a pivot only far below what its residual contract
    # resolves.
    assert T.PIVOT_RTOL < T.RESIDUAL_RTOL
    # The unit functionals' independence test guards the cofactor division;
    # the determinant bound on the unit basis is the stricter frame test.
    assert T.FRAME_INDEPENDENCE_TOL < T.FRAME_DET_MIN


def test_location_orderings():
    # The strict sign test's zero band lies inside the location band.
    assert T.PATTERN_ZERO_RTOL < T.CLASSIFY_RTOL
    # A point snapped onto a facet moves at most the band, which the row
    # check's linear-precision bound admits (ROADMAP item 7 makes it strict).
    assert T.CLASSIFY_RTOL <= T.PRECISION_RTOL
    # A finite-difference offset leaves the band of the point it is taken at.
    assert T.CLASSIFY_RTOL < T.FD_STEP_RTOL
    # Coincident vertices are decided below the band (the relative part).
    assert T.MIN_EDGE_LENGTH < T.CLASSIFY_RTOL


def test_check_tolerance_chain():
    # The axioms of one row are held tightest, agreement with an oracle or
    # at a vertex or boundary point looser, and the facet and covariance
    # properties, which compare two evaluations, loosest.
    assert T.PARTITION_TOL == T.NONNEG_TOL
    middle = (T.ORACLE_TOL, T.KRONECKER_TOL, T.BOUNDARY_TOL)
    assert all(T.NONNEG_TOL <= tol <= T.FACET_TOL for tol in middle)
    assert T.FACET_TOL == T.COVARIANCE_TOL
    # One failed row fails a counted property.
    assert 0 < T.EVALUATES_TOL < 1

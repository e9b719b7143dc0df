import json
import linecache
import os
import pathlib
import re
import subprocess
import sys
import traceback

import numpy as np
import oracles
import pytest

import momentcoords
from momentcoords import coords1d, coords2d, coords3d, geometry, sampling, shapes, smallsolve
from momentcoords.errors import ResidualExceeded, SingularMatrix
from momentcoords.smallsolve import solve_dense


def test_identity():
    x = solve_dense(np.eye(3), [1.0, 2.0, 3.0])
    assert np.array_equal(x, [1.0, 2.0, 3.0])


def test_diagonal_padded():
    a = np.diag([2.0, 4.0, 1.0])
    x = solve_dense(a, [2.0, 4.0, 5.0])
    assert np.allclose(x, [1.0, 1.0, 5.0], atol=1e-14)


def test_recovers_known_solution():
    # b is constructed from a known x*, so recovery is the oracle.
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = 8
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        x_true = rng.normal(size=n)
        x = solve_dense(a, a @ x_true)
        assert np.abs(x - x_true).max() <= 1e-10 * (1 + np.abs(x_true).max())


def test_residual_contract():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(3, 13))
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        x = solve_dense(a, b)
        assert np.abs(a @ x - b).max() <= 1e-10 * (1 + np.abs(b).max())


def test_row_permutation_invariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(3, 10))
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        x = solve_dense(a, b)
        perm = rng.permutation(n)
        xp = solve_dense(a[perm], b[perm])
        assert np.abs(x - xp).max() <= 1e-12 * (1 + np.abs(x).max())


def test_deterministic():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 6)) + 6 * np.eye(6)
    b = rng.normal(size=6)
    assert np.array_equal(solve_dense(a, b), solve_dense(a, b))


def test_singular_zero_matrix():
    with pytest.raises(SingularMatrix):
        solve_dense(np.zeros((3, 3)), np.ones(3))


def test_singular_relative_threshold():
    # The tiny pivot is below 1e-13 relative to the largest entry.
    a = np.diag([1.0, 1e-20, 1.0])
    with pytest.raises(SingularMatrix):
        solve_dense(a, np.ones(3))


def test_singular_dependent_rows():
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.5, 1.0, 2.0]])
    with pytest.raises(SingularMatrix):
        solve_dense(a, np.ones(3))


def test_inputs_not_modified():
    a = np.arange(9, dtype=float).reshape(3, 3) + 9 * np.eye(3)
    b = np.array([1.0, 2.0, 3.0])
    a0, b0 = a.copy(), b.copy()
    solve_dense(a, b)
    assert np.array_equal(a, a0) and np.array_equal(b, b0)


def test_agrees_with_numpy_oracle():
    rng = np.random.default_rng(21)
    for n in range(3, 17):
        for _ in range(20):
            a = rng.normal(size=(n, n)) + n * np.eye(n)
            b = rng.normal(size=n)
            x_ref = np.linalg.solve(a, b)
            x = solve_dense(a, b)
            assert np.abs(x - x_ref).max() <= 1e-12 * (1 + np.abs(x_ref).max())


def test_row_swap_at_first_column():
    # A zero leading entry forces a row exchange before the first elimination.
    a = np.array([[0.0, 1.0, 2.0], [3.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    x_true = np.array([1.0, -2.0, 0.5])
    x = solve_dense(a, a @ x_true)
    assert np.abs(x - x_true).max() <= 1e-14


def test_singular_message_names_column():
    with pytest.raises(SingularMatrix, match="at column 1"):
        solve_dense(np.diag([1.0, 1e-20, 1.0]), np.ones(3))


def test_residual_check_runs(monkeypatch):
    # With a negative tolerance no residual passes, so the check must fire,
    # in either interpreter mode: it is a library error, not an assert.
    monkeypatch.setattr(smallsolve, "RESIDUAL_RTOL", -1.0)
    with pytest.raises(ResidualExceeded, match="^solve residual 0.000e[+]00 exceeds contract$"):
        solve_dense(np.eye(3), np.ones(3))


def test_solve_dense_shape_validation():
    with pytest.raises(ValueError):
        solve_dense(np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        solve_dense(np.eye(3), np.zeros(4))
    # Sizes 3-16 only, each named in the message.
    for n in (2, 17):
        with pytest.raises(ValueError, match="3-16"):
            solve_dense(np.eye(n), np.ones(n))



def _scalar_oracle(a, b):
    """solve_dense over a stack: (x, ok) with ok False where it raises."""
    x = np.full(b.shape, np.nan)
    ok = np.zeros(len(b), dtype=bool)
    for s in range(len(b)):
        try:
            x[s] = solve_dense(a[s], b[s])
        except SingularMatrix:
            continue
        ok[s] = True
    return x, ok


def _solve_many(a, b):
    """_solve on the stack a (m, n, n), b (m, n): (x, ok).  Each entry is
    handed in as the (m,) run of its values over the stack, a view of a or
    b with their memory layout's stride."""
    rows = [list(row) for row in np.moveaxis(a, 0, -1)]
    return smallsolve._solve(rows, list(b.T), len(a))[:2]


def _special_stack(n):
    """40 seeded n x n systems, the first nine of them special: six edge
    cases, then three pivot ties."""
    rng = np.random.default_rng(100 + n)
    a = rng.normal(size=(40, n, n)) + rng.uniform(0, n) * np.eye(n)
    b = rng.normal(size=(40, n))
    a[0] = np.eye(n)[::-1]  # a row swap at column 0 and at every later one
    a[1, 0, 0] = 0.0  # a row swap at column 0 only
    a[2] = 0.0  # the zero matrix
    a[3] = np.diag([1.0] * (n - 1) + [1e-20])  # a sub-floor last pivot
    a[4, :, 1] = 2.0 * a[4, :, 0]  # dependent columns
    a[5] *= 1e-200  # tiny but nonsingular: the floor follows max|A|
    # Pivot ties, equal |entries| of both signs: the pivot is the first row
    # holding the largest |entry|.
    signs = (-1.0) ** np.arange(n)[:, None]
    a[6, :, :1] = 2.0 * signs  # rows 1, 2, ... tie at column 0
    a[6, 0, 0] = 0.5
    a[7] = (np.tril(np.ones((n, n))) - np.triu(np.ones((n, n)), 1)) * signs  # nonsingular
    a[8] = rng.choice([-1.0, 1.0], size=(n, n))  # ties in every column
    return a, b


@pytest.mark.parametrize("n", range(3, 17))
def test_many_bitwise_equal_to_solve_dense(n):
    a, b = _special_stack(n)
    a0, b0 = a.copy(), b.copy()
    x, ok = _solve_many(a, b)
    x_ref, ok_ref = _scalar_oracle(a, b)
    assert np.array_equal(ok, ok_ref)
    assert not ok[2] and not ok[3] and not ok[4] and ok[0] and ok[1] and ok[5]
    assert ok[6] and ok[7]
    assert np.array_equal(x, x_ref, equal_nan=True)
    assert np.array_equal(a, a0) and np.array_equal(b, b0)


def _stack_last_view(a):
    """a (m, ...) as a view of a C-ordered copy with the stack axis last,
    for matrices the transpose(2, 0, 1) of an (n, n, m) array."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0)


_LAYOUTS = {
    "C-ordered": np.ascontiguousarray,
    "stack-last view": _stack_last_view,
    "Fortran-ordered": np.asfortranarray,
}


@pytest.mark.parametrize("layout", _LAYOUTS)
@pytest.mark.parametrize("n", [3, 4, 8, 16])
def test_many_bitwise_equal_in_every_memory_layout(n, layout):
    # Whatever the stride of the entries, x and ok are bitwise the same, and
    # the inputs are untouched.
    a, b = _special_stack(n)
    x_ref, ok_ref = _solve_many(a, b)
    a_in, b_in = _LAYOUTS[layout](a), _LAYOUTS[layout](b)
    assert np.array_equal(a_in, a) and np.array_equal(b_in, b)
    a0, b0 = a_in.copy(), b_in.copy()
    x, ok = _solve_many(a_in, b_in)
    assert x.shape == (40, n) and ok.shape == (40,)
    assert x.tobytes() == x_ref.tobytes() and ok.tobytes() == ok_ref.tobytes()
    assert np.array_equal(a_in, a0) and np.array_equal(b_in, b0)


@pytest.mark.parametrize("layout", _LAYOUTS)
@pytest.mark.parametrize("s", range(9))
def test_many_stack_of_one(s, layout):
    # A stack of one special system, as the last chunk of a grid may be.
    a, b = _special_stack(8)
    a, b = _LAYOUTS[layout](a[s : s + 1]), _LAYOUTS[layout](b[s : s + 1])
    a0, b0 = a.copy(), b.copy()
    x, ok = _solve_many(a, b)
    x_ref, ok_ref = _scalar_oracle(a, b)
    assert x.shape == (1, 8) and ok.shape == (1,)
    assert np.array_equal(ok, ok_ref) and np.array_equal(x, x_ref, equal_nan=True)
    assert np.array_equal(a, a0) and np.array_equal(b, b0)


def test_many_sub_floor_pivots_match_singular_matrix():
    # Pivots straddling PIVOT_RTOL relative to max|A|: ok is False exactly
    # where solve_dense raises.
    scales = np.logspace(-15, -11, 41)
    a = np.array([np.diag([1.0, s, 1.0, 1.0]) for s in scales])
    b = np.ones((len(scales), 4))
    x, ok = _solve_many(a, b)
    x_ref, ok_ref = _scalar_oracle(a, b)
    assert np.array_equal(ok, ok_ref) and ok.any() and not ok.all()
    assert np.array_equal(x, x_ref, equal_nan=True)


def test_many_empty_stack():
    x, ok = _solve_many(np.zeros((0, 4, 4)), np.zeros((0, 4)))
    assert x.shape == (0, 4) and ok.shape == (0,)


def test_many_residual_check_runs(monkeypatch):
    # A stack raises nothing: every system the elimination solved misses the
    # contract, so each clears ok with NaN and is marked over the bound; the
    # singular systems stay singular.
    a, b = _special_stack(8)
    _, ok_ref = _solve_many(a, b)
    monkeypatch.setattr(smallsolve, "RESIDUAL_RTOL", -1.0)
    x, ok = _solve_many(a, b)
    assert not ok.any() and np.isnan(x).all()
    rows, rhs = [list(row) for row in np.moveaxis(a, 0, -1)], list(b.T)
    _, ok, over = smallsolve._solve(rows, rhs, len(a))
    assert not ok.any() and np.array_equal(over, ok_ref)


def _systems():
    """Seeded well-posed systems of sizes 3 to 16, with a row swap at the
    first column in every other one."""
    rng = np.random.default_rng(31)
    for n in range(3, 17):
        for k in range(4):
            a = rng.normal(size=(n, n)) + rng.uniform(0, n) * np.eye(n)
            if k % 2:
                a[0, 0] = 0.0
            yield a, rng.normal(size=n)


def test_list_and_array_inputs_give_bitwise_equal_solutions():
    for a, b in _systems():
        x = solve_dense(a, b)
        as_lists = (a.tolist(), b.tolist())
        as_tuples = ([tuple(r) for r in a.tolist()], tuple(b.tolist()))
        for rows, rhs in (as_lists, as_tuples):
            assert solve_dense(rows, rhs).tobytes() == x.tobytes()


def test_list_inputs_not_modified():
    a = (np.arange(9, dtype=float).reshape(3, 3) + 9 * np.eye(3)).tolist()
    b = [1.0, 2.0, 3.0]
    a0, b0 = [row[:] for row in a], b[:]
    solve_dense(a, b)
    assert a == a0 and b == b0


@pytest.mark.parametrize(
    "a",
    [
        np.zeros((3, 3)),
        np.diag([1.0, 1e-20, 1.0]),
        np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.5, 1.0, 2.0]]),
    ],
    ids=["zero", "sub-floor pivot", "dependent rows"],
)
def test_list_and_array_inputs_raise_singular_alike(a):
    messages = []
    for rows in (a, a.tolist()):
        with pytest.raises(SingularMatrix) as info:
            solve_dense(rows, np.ones(3))
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_list_input_shape_validation():
    with pytest.raises(ValueError):
        solve_dense(np.zeros((3, 3, 1)), np.zeros(3))
    with pytest.raises(ValueError):
        solve_dense(np.eye(3), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        solve_dense([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        solve_dense([[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]], [1.0, 2.0, 3.0])


def _bump(value):
    """value off by 1e-6: one float, or every third entry of an array (m,)."""
    if isinstance(value, float):
        return value + 1e-6
    return np.where(_every_third(len(value)), value + 1e-6, value)


def _every_third(m):
    """The rows _bump moves in a stack of m."""
    return np.arange(m) % 3 == 0


def _bump_first(fn):
    """fn with the first item of its result bumped (_bump): the last entry
    where it is a list (a solution, entry by entry), else the item."""

    def bumped(*args):
        first, *rest = fn(*args)
        first = [*first[:-1], _bump(first[-1])] if isinstance(first, list) else _bump(first)
        return (first, *rest)

    return bumped


def test_residual_check_trips_on_a_perturbed_solution(monkeypatch):
    # The contract is checked against the input rows, not against whatever
    # the elimination returns: an x off by more than the contract allows
    # raises for list and array inputs, and in a stack clears ok with NaN in
    # the perturbed systems alone, every other system keeping its bits.
    a, b = _special_stack(8)
    x_ref, ok_ref = _solve_many(a, b)
    monkeypatch.setattr(smallsolve, "_eliminate", _bump_first(smallsolve._eliminate))
    for rows, rhs in ((a[0], b[0]), (a[0].tolist(), b[0].tolist())):
        with pytest.raises(ResidualExceeded, match="^solve residual .* exceeds contract$"):
            solve_dense(rows, rhs)
    chosen = _every_third(len(a))
    x, ok = _solve_many(a, b)
    assert np.array_equal(ok, ok_ref & ~chosen)
    assert np.isnan(x[chosen]).all()
    assert x[~chosen].tobytes() == x_ref[~chosen].tobytes()


def _residual_case(case):
    """(single, many, geometry, interior points, the module and name of the
    function whose first result _bump_first perturbs, the residual's name
    in the message) for one family of evaluators."""
    rng = np.random.default_rng(36)
    if case == "hex":
        hexa = shapes.convex_hex()
        points = sampling.interior_points_hex(hexa, 30, rng)
        return (coords3d.moment_coords_hex, coords3d.moment_coords_hex_many, hexa, points,
                smallsolve, "_eliminate", "solve")
    if case == "interval":
        nodes = sampling.random_nodes(rng, 7)
        points = rng.uniform(nodes.nodes[0], nodes.nodes[-1], 30)
        return (coords1d.moment_coords_1d, coords1d.moment_coords_1d_many, nodes, points,
                coords1d, "_fold", "folded")
    family, builtin = case.split(" on ")
    quad = shapes.BUILTINS[builtin]()
    points = sampling.interior_points_quad(quad, 30, rng)
    single = getattr(coords2d, f"{family}_coords_quad")
    many = getattr(coords2d, f"{family}_coords_quad_many")
    return single, many, quad, points, coords2d, "_closed_form", "closed-form"


RESIDUAL_CASES = ["hex", "interval", "moment on nonconv-quad", "wachspress on conv-quad"]


@pytest.mark.parametrize("case", RESIDUAL_CASES)
def test_perturbed_rows_carry_the_residual_cause(monkeypatch, case):
    # Each of the five checks (the LU, both closed forms, both folds) is the
    # one contract: a perturbed point raises ResidualExceeded, and a batch
    # blanks the perturbed rows alone under the residual cause, every other
    # row keeping its bits.
    single, many, geom, points, module, name, what = _residual_case(case)
    phi_ref, ok_ref, _ = many(geom, points)
    assert ok_ref.all()
    monkeypatch.setattr(module, name, _bump_first(getattr(module, name)))
    with pytest.raises(ResidualExceeded, match=f"^{what} residual .* exceeds contract$"):
        single(geom, points[0])
    chosen = _every_third(len(points))
    phi, ok, info = many(geom, points)
    assert np.array_equal(ok, ~chosen)
    assert np.array_equal(info.cause, np.where(chosen, geometry.RESIDUAL, geometry.OK))
    assert np.isnan(phi[chosen]).all()
    assert phi[~chosen].tobytes() == phi_ref[~chosen].tobytes()


@pytest.mark.parametrize("case", RESIDUAL_CASES)
def test_one_bound_moves_every_check(monkeypatch, case):
    # smallsolve.RESIDUAL_RTOL is read at every check: patching that one
    # name fails every point and every solved row of every family.
    single, many, geom, points, _, _, what = _residual_case(case)
    monkeypatch.setattr(smallsolve, "RESIDUAL_RTOL", -1.0)
    with pytest.raises(ResidualExceeded, match=f"^{what} residual "):
        single(geom, points[0])
    phi, ok, info = many(geom, points)
    assert not ok.any() and np.isnan(phi).all()
    assert (info.cause == geometry.RESIDUAL).all()


# Runs cli.main on each argv of the JSON list argv[1] with the residual
# bound forced to fail, and prints the interpreter's optimize flag and the
# exit codes.
_FORCED = """
import json, sys
from momentcoords import cli, smallsolve
smallsolve.RESIDUAL_RTOL = -1.0
print(json.dumps([sys.flags.optimize, [cli.main(a) for a in json.loads(sys.argv[1])]]))
"""


def test_forced_bound_alike_under_python_O(tmp_path):
    # pytest drops the asserts of its own tests under -O, so a subprocess
    # shows the contract holds there: eval exits 3 naming the residual, and
    # grid blanks its rows as residual and exits 0, with the same codes and
    # the same stderr as without -O.
    out = str(tmp_path / "grid.csv")
    argvs = [
        ["eval", "--geometry", "conv-hex", "--point", "0.1,0.5,0.2", "--method", "moment"],
        ["grid", "--geometry", "conv-hex", "--resolution", "5", "--method", "moment", "--out", out],
    ]
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(momentcoords.__file__).parents[1])}
    runs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _FORCED, json.dumps(argvs)],
            capture_output=True, text=True, env=env, check=True,
        )
        runs.append((json.loads(proc.stdout), proc.stderr))
    (plain, err), (optimized, err_o) = runs
    assert plain == [0, [3, 0]] and optimized == [1, [3, 0]] and err == err_o
    assert "Traceback" not in err
    eval_line, grid_line = err.splitlines()
    assert re.fullmatch(r"domain error: solve residual \S+ exceeds contract", eval_line)
    assert re.fullmatch(r"warning: (\d+) grid points failed to evaluate \(\1 residual\)", grid_line)


def _entry_rows(a, b):
    """The stack a (m, n, n), b (m, n) as the entries coords3d hands to
    _solve: the first row and the first rhs entry as Python floats (the
    ones row), every other entry a read-only (m,) array."""
    def entry(column):
        column = column.copy()
        column.flags.writeable = False
        return column

    n = a.shape[1]
    rows = [[1.0] * n] + [[entry(a[:, i, j]) for j in range(n)] for i in range(1, n)]
    return rows, [1.0] + [entry(b[:, i]) for i in range(1, n)]


@pytest.mark.parametrize("n", range(3, 17))
def test_entry_solve_bitwise_equal_to_solve_dense(n):
    # Mixed float and array entries through the pivot ties, row swaps and
    # sub-floor pivots of the special stack: x and ok are solve_dense's per
    # system, and no entry handed in changes (writing into a read-only
    # array would raise).
    a, b = _special_stack(n)
    a[:, 0], b[:, 0] = 1.0, 1.0
    rows, rhs = _entry_rows(a, b)
    x, ok, over = smallsolve._solve(rows, rhs, len(a))
    x_ref, ok_ref = _scalar_oracle(a, b)
    assert not over.any()
    assert x.shape == (40, n) and ok.shape == (40,)
    assert x.tobytes() == x_ref.tobytes() and ok.tobytes() == ok_ref.tobytes()
    # The same bits as the loop form of the elimination on the same entries.
    with np.errstate(divide="ignore", invalid="ignore"):
        x_loop, ok_loop = oracles.eliminate_loops(rows, rhs, len(a))
    assert x.tobytes() == np.stack(x_loop, axis=1).tobytes() and ok.tobytes() == ok_loop.tobytes()
    assert ok.any() and not ok.all()
    assert rows[0] == [1.0] * n and rhs[0] == 1.0
    kept_rows, kept_rhs = _entry_rows(a, b)
    for got, kept in zip([*rows[1:], rhs[1:]], [*kept_rows[1:], kept_rhs[1:]]):
        assert all(e.tobytes() == e0.tobytes() for e, e0 in zip(got, kept))


def _signed_zeros(n):
    """A system whose x[-2] is -0.0: the back-substitution sum for it, of
    0.0 * -0.0, is +0.0 only when it starts at 0.0, as a loop's does."""
    a = np.eye(n)
    a[-1, -2] = -0.0
    b = np.zeros(n)
    b[-2:] = -0.0
    return a, b


def _kernel_inputs(n):
    """The special stack of n x n systems, _systems()'s of size n and the
    signed zeros."""
    a, b = _special_stack(n)
    more = [(a_s, b_s) for a_s, b_s in _systems() if len(b_s) == n] + [_signed_zeros(n)]
    a_more, b_more = zip(*more)
    return np.concatenate([a, a_more]), np.concatenate([b, b_more])


def _one_outcome(eliminate, a, b):
    """x's bytes and ok of one system, or its SingularMatrix message."""
    try:
        x, ok = eliminate(a, b, None)
    except SingularMatrix as err:
        return str(err)
    return np.array(x).tobytes(), ok


@pytest.mark.parametrize("one", [True, False], ids=["one", "many"])
@pytest.mark.parametrize("n", range(3, 17))
def test_kernel_bitwise_equal_to_loop_reference(n, one):
    # The elimination written out for size n against its loop form, through
    # pivot ties, row swaps, sub-floor pivots, the zero matrix, 1e-200
    # scaling and signed zeros: the same x to the bit and the same ok, and
    # for one system the same SingularMatrix message.
    a, b = _kernel_inputs(n)
    if not one:
        rows = [list(row) for row in np.ascontiguousarray(np.moveaxis(a, 0, -1))]
        rhs = list(b.T.copy())
        with np.errstate(divide="ignore", invalid="ignore"):
            x, ok = smallsolve._eliminate(rows, rhs, len(a))
            x_ref, ok_ref = oracles.eliminate_loops(rows, rhs, len(a))
        assert np.stack(x).tobytes() == np.stack(x_ref).tobytes()
        assert ok.tobytes() == ok_ref.tobytes() and ok.any() and not ok.all()
        return
    messages = []
    for a_s, b_s in zip(a.tolist(), b.tolist()):
        outcome = _one_outcome(smallsolve._eliminate, a_s, b_s)
        assert outcome == _one_outcome(oracles.eliminate_loops, a_s, b_s)
        if isinstance(outcome, str):
            messages.append(outcome)
    assert messages[0] == "matrix is identically zero"
    assert messages[1].endswith(f"at column {n - 1}")
    assert all(m.startswith("pivot") for m in messages[1:])


def test_kernel_tracebacks_show_their_source():
    # A kernel's frames name the size and kind, with the line that raised.
    with pytest.raises(SingularMatrix) as info:
        solve_dense(np.diag([1.0, 1e-20, 1.0]), np.ones(3))
    frame = traceback.extract_tb(info.tb)[-1]
    assert frame.filename == "<smallsolve n=3 one>"
    assert "at column 1" in linecache.getline(frame.filename, frame.lineno)

import numpy as np
import pytest

from momentcoords import smallsolve
from momentcoords.errors import SingularMatrix
from momentcoords.smallsolve import solve_dense, solve_dense_many


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


@pytest.mark.skipif(not __debug__, reason="the residual check runs only under __debug__")
def test_residual_check_runs(monkeypatch):
    # With a negative tolerance no residual passes, so the check must fire.
    monkeypatch.setattr(smallsolve, "RESIDUAL_RTOL", -1.0)
    with pytest.raises(AssertionError, match="residual"):
        solve_dense(np.eye(3), np.ones(3))


def test_solve_dense_shape_validation():
    with pytest.raises(ValueError):
        solve_dense(np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        solve_dense(np.eye(3), np.zeros(4))



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
    x, ok = solve_dense_many(a, b)
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
    # Whatever the input's memory order, x and ok are bitwise the same, and
    # the inputs are untouched.
    a, b = _special_stack(n)
    x_ref, ok_ref = solve_dense_many(a, b)
    a_in, b_in = _LAYOUTS[layout](a), _LAYOUTS[layout](b)
    assert np.array_equal(a_in, a) and np.array_equal(b_in, b)
    a0, b0 = a_in.copy(), b_in.copy()
    x, ok = solve_dense_many(a_in, b_in)
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
    x, ok = solve_dense_many(a, b)
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
    x, ok = solve_dense_many(a, b)
    x_ref, ok_ref = _scalar_oracle(a, b)
    assert np.array_equal(ok, ok_ref) and ok.any() and not ok.all()
    assert np.array_equal(x, x_ref, equal_nan=True)


def test_many_empty_stack():
    x, ok = solve_dense_many(np.zeros((0, 4, 4)), np.zeros((0, 4)))
    assert x.shape == (0, 4) and ok.shape == (0,)


def test_many_shape_validation():
    with pytest.raises(ValueError):
        solve_dense_many(np.zeros((2, 3, 4)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        solve_dense_many(np.zeros((2, 3, 3)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        solve_dense_many(np.eye(3), np.zeros(3))


@pytest.mark.skipif(not __debug__, reason="the residual check runs only under __debug__")
def test_many_residual_check_runs(monkeypatch):
    monkeypatch.setattr(smallsolve, "RESIDUAL_RTOL", -1.0)
    with pytest.raises(AssertionError, match="residual"):
        solve_dense_many(np.eye(3)[None], np.ones((1, 3)))


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


@pytest.mark.skipif(not __debug__, reason="the residual check runs only under __debug__")
def test_residual_check_trips_on_a_perturbed_solution(monkeypatch):
    # The contract is checked against the input rows, not against whatever
    # the elimination returns: an x off by more than the contract allows
    # fails for list and array inputs and for a stack alike.
    eliminate = smallsolve._eliminate

    def perturbed(a, b, m):
        x, ok = eliminate(a, b, m)
        x[-1] = x[-1] + 1e-6
        return x, ok

    monkeypatch.setattr(smallsolve, "_eliminate", perturbed)
    a, b = next(_systems())
    for rows, rhs in ((a, b), (a.tolist(), b.tolist())):
        with pytest.raises(AssertionError, match="residual"):
            solve_dense(rows, rhs)
    for stack, rhs in ((a[None], b[None]), _special_stack(8)):
        with pytest.raises(AssertionError, match="residual"):
            solve_dense_many(stack, rhs)


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
    x, ok = smallsolve._solve(rows, rhs, len(a))
    x_ref, ok_ref = _scalar_oracle(a, b)
    assert x.shape == (40, n) and ok.shape == (40,)
    assert x.tobytes() == x_ref.tobytes() and ok.tobytes() == ok_ref.tobytes()
    assert ok.any() and not ok.all()
    assert rows[0] == [1.0] * n and rhs[0] == 1.0
    kept_rows, kept_rhs = _entry_rows(a, b)
    for got, kept in zip([*rows[1:], rhs[1:]], [*kept_rows[1:], kept_rhs[1:]]):
        assert all(e.tobytes() == e0.tobytes() for e, e0 in zip(got, kept))

"""Truncated two-mode Fock layer: indexing, ladder matrices, the grid-map
algebra against dense arithmetic, interior deviations."""

import numpy as np
import pytest

from pseudoboson.fock import GridMap, TruncationSpec, build_ladder_ops, interior_deviation
from pseudoboson.linalg import norm2


def _flat(trunc, m, n):
    """Row-major flat index of |m, n>."""
    return np.ravel_multi_index((m, n), trunc.shape)


def _dense_ladders(trunc):
    return [x.dense() for x in build_ladder_ops(trunc)]


def _identity(trunc):
    return GridMap(trunc, ((1.0, 0, 0),))


def _basis_grid(trunc, m, n):
    grid = np.zeros(trunc.shape, dtype=complex)
    grid[m, n] = 1.0
    return grid


def test_index_is_row_major():
    trunc = TruncationSpec(3, 2)
    assert trunc.dim == 12
    assert trunc.shape == (4, 3)
    assert list(np.ndindex(trunc.shape)) == [(m, n) for m in range(4) for n in range(3)]


def test_single_quantum_matrix_elements():
    trunc = TruncationSpec(1, 0)
    a, _, a_dag, _ = _dense_ladders(trunc)
    assert a.entries[_flat(trunc, 0, 0), _flat(trunc, 1, 0)] == 1.0
    assert a_dag.entries[_flat(trunc, 1, 0), _flat(trunc, 0, 0)] == 1.0


def test_sqrt_two_matrix_element():
    trunc = TruncationSpec(3, 3)
    a, b, _, _ = _dense_ladders(trunc)
    assert (a.entries[_flat(trunc, 1, 0), _flat(trunc, 2, 0)]
            == pytest.approx(np.sqrt(2)))
    assert (b.entries[_flat(trunc, 0, 1), _flat(trunc, 0, 2)]
            == pytest.approx(np.sqrt(2)))


def test_truncated_commutator_diagonal():
    # [a, a_dag] on the cut space is diag(1, ..., 1, -n_max) in the mode-a
    # occupation: the projection eats one unit at the boundary row
    n_max = 5
    trunc = TruncationSpec(n_max, 0)
    a, _, a_dag, _ = build_ladder_ops(trunc)
    comm = (a @ a_dag - a_dag @ a).dense().entries
    expected = np.diag([1.0] * n_max + [-float(n_max)])
    assert np.abs(comm - expected).max() < 1e-12


def test_interior_commutator_is_identity():
    trunc = TruncationSpec(6, 6)
    a, b, a_dag, b_dag = build_ladder_ops(trunc)
    for low, high in ((a, a_dag), (b, b_dag)):
        dev = low @ high - high @ low - _identity(trunc)
        assert interior_deviation(dev, margin=1) < 1e-12


def test_cross_mode_commutators_vanish_exactly():
    trunc = TruncationSpec(4, 4)
    a, b, a_dag, b_dag = build_ladder_ops(trunc)
    for x, y in ((a, b), (a, b_dag), (a_dag, b_dag)):
        assert np.abs((x @ y - y @ x).dense().entries).max() == 0.0
        assert interior_deviation(x @ y - y @ x, margin=0) == 0.0


def test_adjoint_is_conjugate_transpose():
    trunc = TruncationSpec(3, 3)
    a, _, a_dag, _ = _dense_ladders(trunc)
    assert np.array_equal(a_dag.entries, a.entries.conj().T)


def test_vacuum_annihilated_exactly():
    trunc = TruncationSpec(5, 5)
    a, b, _, _ = build_ladder_ops(trunc)
    vac = _basis_grid(trunc, 0, 0)
    assert norm2(a(vac)) == 0.0
    assert norm2(b(vac)) == 0.0
    assert norm2(vac) == 1.0


def test_raising_builds_basis_states():
    trunc = TruncationSpec(4, 4)
    _, _, a_dag, b_dag = build_ladder_ops(trunc)
    one_one = a_dag(b_dag(_basis_grid(trunc, 0, 0)))
    assert np.abs(one_one - _basis_grid(trunc, 1, 1)).max() == 0.0


def _shell_weight(trunc, da, db):
    """5 on the target window of shift (da, db) where the target or the
    source state has m = n_max_a or n = n_max_b, 0 elsewhere."""
    na, nb = trunc.shape
    m = np.arange(max(0, -da), na - max(0, da))[:, None]
    n = np.arange(max(0, -db), nb - max(0, db))
    shell = (m == na - 1) | (n == nb - 1) | (m + da == na - 1) | (n + db == nb - 1)
    return np.where(shell, 5.0, 0.0)


def test_interior_deviation_drops_boundary_shell():
    # nonzero only where a target or a source state has m = 3 or n = 2:
    # margin 1 excludes every such entry, margin 0 sees them
    trunc = TruncationSpec(3, 2)
    shifts = [(0, 0), (1, 0), (-2, 1), (3, -2)]
    shell = GridMap(trunc, tuple((_shell_weight(trunc, da, db), da, db) for da, db in shifts))
    assert interior_deviation(shell, margin=1) == 0.0
    assert interior_deviation(shell, margin=0) == 5.0
    # one interior entry (|2,1> to |0,0>) is seen at margin 1, as the sum of
    # the weights of its shift
    corner = np.zeros((2, 2))
    corner[0, 0] = -3.0
    inside = GridMap(trunc, ((corner, 2, 1), (-4.0, 2, 1)))
    assert interior_deviation(shell + inside, margin=1) == 7.0


def test_interior_deviation_rejects_overdeep_margin():
    x = _identity(TruncationSpec(2, 3))
    assert interior_deviation(x, margin=2) == 1.0
    with pytest.raises(ValueError, match="exceeds"):
        interior_deviation(x, margin=3)
    with pytest.raises(ValueError, match="nonnegative"):
        interior_deviation(x, margin=-1)


def test_operator_algebra_shapes():
    trunc = TruncationSpec(2, 2)
    a, b, a_dag, b_dag = build_ladder_ops(trunc)
    combo = (a_dag @ a) + (b_dag @ b) - _identity(trunc) * 0.5
    assert combo.dense().entries.shape == (trunc.dim, trunc.dim)
    other = build_ladder_ops(TruncationSpec(3, 3))[0]
    for mixed in (lambda: a @ other, lambda: a + other, lambda: a - other):
        with pytest.raises(ValueError, match="truncation mismatch"):
            mixed()


def _two_term_map(trunc, seed=3):
    rng = np.random.default_rng(seed)
    na, nb = trunc.shape
    w1 = rng.normal(size=(na - 1, nb)) + 1j * rng.normal(size=(na - 1, nb))
    w2 = rng.normal(size=(na, nb - 2))
    return GridMap(trunc, ((w1, 1, 0), (w2, 0, -2)))


def test_grid_map_acts_on_stacks_as_its_matrix():
    trunc = TruncationSpec(5, 3)
    op = _two_term_map(trunc)
    rng = np.random.default_rng(4)
    stack = rng.normal(size=(2, 3) + trunc.shape) + 1j * rng.normal(size=(2, 3) + trunc.shape)
    images = op(stack)
    flat = stack.reshape(6, trunc.dim)
    by_matrix = (op.dense().entries @ flat.T).T.reshape(images.shape)
    assert np.abs(images - by_matrix).max() < 1e-14
    # a member's image does not depend on the stack it was mapped in
    assert np.array_equal(op(stack[1, 2]), images[1, 2])


def test_grid_map_adjoint_is_the_conjugate_transpose():
    trunc = TruncationSpec(5, 3)
    op = _two_term_map(trunc)
    assert np.array_equal(op.adjoint().dense().entries, op.dense().entries.conj().T)


def test_grid_map_rejects_a_grid_of_another_shape():
    with pytest.raises(ValueError, match="grid shape"):
        build_ladder_ops(TruncationSpec(3, 2))[0](np.zeros((3, 4)))


def test_composition_is_the_matrix_product():
    trunc = TruncationSpec(5, 3)
    x, y = _two_term_map(trunc), _two_term_map(trunc, seed=5).adjoint()
    a, _, a_dag, b_dag = build_ladder_ops(trunc)
    # shifts of +-2 and +-4 along b and mixed-sign sums, real and complex
    for left, right in ((x, y), (y, x), (x, x), (a_dag @ b_dag, x), (x, a)):
        product = left @ right
        expected = left.dense().entries @ right.dense().entries
        assert np.abs(product.dense().entries - expected).max() < 1e-14
        # one term per distinct shift
        shifts = [(da, db) for _, da, db in product.terms]
        assert len(shifts) == len(set(shifts))


def test_sums_and_scalar_multiples_are_the_matrix_arithmetic():
    trunc = TruncationSpec(5, 3)
    x, y = _two_term_map(trunc), _two_term_map(trunc, seed=5).adjoint()
    xd, yd = x.dense().entries, y.dense().entries
    assert np.array_equal((x + y).dense().entries, xd + yd)
    assert np.array_equal((x - y).dense().entries, xd - yd)
    assert np.array_equal((x * (0.5 - 2j)).dense().entries, xd * (0.5 - 2j))
    assert np.array_equal((-1.5 * y).dense().entries, -1.5 * yd)


def test_interior_deviation_is_the_dense_interior_maximum():
    trunc = TruncationSpec(5, 3)
    x, y = _two_term_map(trunc), _two_term_map(trunc, seed=5).adjoint()
    ka = trunc.n_max_a + 1
    kb = trunc.n_max_b + 1
    for op in (x, y, x @ y - y @ x, x + 2.0 * y.adjoint(), _identity(trunc) - x @ x):
        grid = op.dense().entries.reshape(trunc.shape + trunc.shape)
        for margin in range(4):
            inner = grid[:ka - margin, :kb - margin, :ka - margin, :kb - margin]
            assert interior_deviation(op, margin) == np.abs(inner).max()


def test_shift_past_the_axis_maps_to_zero():
    # a shift at least as long as the axis has an empty window
    trunc = TruncationSpec(1, 1)
    grid = np.arange(4.0).reshape(trunc.shape)
    for da, db in ((3, 0), (2, 0), (0, -2), (-5, 4)):
        assert np.array_equal(GridMap(trunc, ((1.0, da, db),))(grid), np.zeros(trunc.shape))
    a = build_ladder_ops(trunc)[0]
    dense = a.dense().entries
    assert np.array_equal((a @ a @ a).dense().entries, dense @ dense @ dense)

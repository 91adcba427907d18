"""Truncated two-mode Fock layer: indexing, ladder matrices, interior
deviations."""

import numpy as np
import pytest

from pseudoboson.fock import (
    FockVector,
    GridMap,
    Operator,
    TruncationSpec,
    build_ladder_ops,
    commutator,
    identity_op,
    interior_deviation,
)
from pseudoboson.linalg import norm2


def _dense_ladders(trunc):
    return [x.dense() for x in build_ladder_ops(trunc)]


def _basis_grid(trunc, m, n):
    grid = np.zeros(trunc.shape, dtype=complex)
    grid[m, n] = 1.0
    return grid


def test_index_is_row_major():
    trunc = TruncationSpec(3, 2)
    assert trunc.dim == 12
    assert trunc.index(0, 0) == 0
    assert trunc.index(0, 2) == 2
    assert trunc.index(1, 0) == 3
    assert trunc.index(3, 2) == 11
    assert list(trunc.states()) == [(m, n) for m in range(4) for n in range(3)]


def test_index_rejects_out_of_range():
    trunc = TruncationSpec(2, 2)
    with pytest.raises(ValueError):
        trunc.index(3, 0)


def test_single_quantum_matrix_elements():
    trunc = TruncationSpec(1, 0)
    a, _, a_dag, _ = _dense_ladders(trunc)
    assert a.entries[trunc.index(0, 0), trunc.index(1, 0)] == 1.0
    assert a_dag.entries[trunc.index(1, 0), trunc.index(0, 0)] == 1.0


def test_sqrt_two_matrix_element():
    trunc = TruncationSpec(3, 3)
    a, b, _, _ = _dense_ladders(trunc)
    assert a.entries[trunc.index(1, 0), trunc.index(2, 0)] == pytest.approx(np.sqrt(2))
    assert b.entries[trunc.index(0, 1), trunc.index(0, 2)] == pytest.approx(np.sqrt(2))


def test_truncated_commutator_diagonal():
    # [a, a_dag] on the cut space is diag(1, ..., 1, -n_max) in the mode-a
    # occupation: the projection eats one unit at the boundary row
    n_max = 5
    trunc = TruncationSpec(n_max, 0)
    a, _, a_dag, _ = _dense_ladders(trunc)
    comm = commutator(a, a_dag).entries
    expected = np.diag([1.0] * n_max + [-float(n_max)])
    assert np.abs(comm - expected).max() < 1e-12


def test_interior_commutator_is_identity():
    trunc = TruncationSpec(6, 6)
    a, b, a_dag, b_dag = _dense_ladders(trunc)
    for low, high in ((a, a_dag), (b, b_dag)):
        dev = commutator(low, high) - identity_op(trunc)
        assert interior_deviation(dev, margin=1) < 1e-12


def test_cross_mode_commutators_vanish_exactly():
    trunc = TruncationSpec(4, 4)
    a, b, a_dag, b_dag = _dense_ladders(trunc)
    for x, y in ((a, b), (a, b_dag), (a_dag, b_dag)):
        assert np.abs(commutator(x, y).entries).max() == 0.0


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


def test_interior_deviation_drops_boundary_shell():
    # nonzero only where a row or a column state has m = 3 or n = 2: margin 1
    # excludes every such entry, margin 0 sees them
    trunc = TruncationSpec(3, 2)
    shell = np.array([m == 3 or n == 2 for m, n in trunc.states()])
    entries = np.where(shell[:, None] | shell[None, :], 5.0, 0.0)
    assert interior_deviation(Operator(trunc, entries), margin=1) == 0.0
    assert interior_deviation(Operator(trunc, entries), margin=0) == 5.0
    # one interior entry (|2,1> to |0,0>) is seen at margin 1
    entries[trunc.index(0, 0), trunc.index(2, 1)] = -7.0
    assert interior_deviation(Operator(trunc, entries), margin=1) == 7.0


def test_interior_deviation_rejects_overdeep_margin():
    x = identity_op(TruncationSpec(2, 3))
    assert interior_deviation(x, margin=2) == 1.0
    with pytest.raises(ValueError, match="exceeds"):
        interior_deviation(x, margin=3)
    with pytest.raises(ValueError, match="nonnegative"):
        interior_deviation(x, margin=-1)


def test_operator_algebra_shapes():
    trunc = TruncationSpec(2, 2)
    a, b, a_dag, b_dag = _dense_ladders(trunc)
    combo = (a_dag @ a) + (b_dag @ b) - identity_op(trunc) * 0.5
    assert combo.entries.shape == (trunc.dim, trunc.dim)
    with pytest.raises(ValueError):
        commutator(a, _dense_ladders(TruncationSpec(3, 3))[0])


def _two_term_map(trunc):
    rng = np.random.default_rng(3)
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


def test_grid_is_a_view_of_the_coefficients():
    trunc = TruncationSpec(3, 2)
    v = FockVector(trunc, np.arange(12.0) + 0j)
    assert v.grid.shape == (4, 3)
    assert v.grid[1, 2] == v.coeffs[trunc.index(1, 2)]
    assert np.shares_memory(v.grid, v.coeffs)
    with pytest.raises(ValueError, match="grid shape"):
        build_ladder_ops(trunc)[0](np.zeros((3, 4)))

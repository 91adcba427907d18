"""Equation-of-motion layer: adjoint-action matrix, closed-form eigenpairs,
symplectic pairing, and the reduced three-operator secular problem."""

import numpy as np
import pytest

from pseudoboson.emm import (
    EmmSolution,
    QuadraticHamiltonian,
    adjoint_action_matrix,
    model_emm_eigenpairs,
    model_emm_matrix,
    model_quadratic,
    su11_secular,
    su11_secular_matrix,
    symplectic_pairing,
)
from pseudoboson.fock import TruncationSpec, build_ladder_ops, interior_deviation
from pseudoboson.linalg import eig_dense, multiset_distance, residual
from pseudoboson.model import ModelParams, build_hamiltonian, build_pseudoboson_ops

P = ModelParams(beta=0.5, gamma=0.75)


def test_model_matrix_entries():
    t = model_emm_matrix(P)
    expected = np.array([
        [1.5, 0.0, 0.0, -0.75],
        [0.0, 0.5, -0.75, 0.0],
        [0.0, -0.75, -1.5, 0.0],
        [-0.75, 0.0, 0.0, -0.5],
    ])
    assert np.abs(t - expected).max() == 0.0
    assert np.array_equal(t, t.T)


def test_model_matrix_decoupled_limit():
    t = model_emm_matrix(ModelParams(0.0, 0.0))
    assert np.abs(t - np.diag([1.0, 1.0, -1.0, -1.0])).max() == 0.0


def test_single_mode_number_operator():
    omega = 2.5
    h = QuadraticHamiltonian(number_block=np.array([[omega]]),
                             creation_block=np.zeros((1, 1)),
                             annihilation_block=np.zeros((1, 1)))
    assert np.abs(adjoint_action_matrix(h) - np.diag([omega, -omega])).max() == 0.0


def test_constant_term_does_not_move_ladders():
    # a Hamiltonian that is only a constant commutes with every ladder, so its
    # quadratic blocks are all zero and so is its adjoint action
    h = QuadraticHamiltonian(number_block=np.zeros((2, 2)),
                             creation_block=np.zeros((2, 2)),
                             annihilation_block=np.zeros((2, 2)))
    assert np.abs(adjoint_action_matrix(h)).max() == 0.0


def test_quadratic_validates_blocks():
    with pytest.raises(ValueError):
        QuadraticHamiltonian(number_block=np.zeros((2, 3)),
                             creation_block=np.zeros((2, 2)),
                             annihilation_block=np.zeros((2, 2)))


def test_adjoint_action_matches_fock_commutators():
    # the abstract 4x4 must reproduce [H, ladder] computed with the Fock maps;
    # columns are checked through the commutator of H with each ladder op
    trunc = TruncationSpec(7, 7)
    h = build_hamiltonian(P, trunc)[0]
    a, b, a_dag, b_dag = build_ladder_ops(trunc)
    t = model_emm_matrix(P)
    basis = [a_dag, b_dag, a, b]
    for col, op in enumerate(basis):
        combo = h @ op - op @ h
        for row, unit in enumerate(basis):
            combo = combo - unit * t[row, col]
        assert interior_deviation(combo, margin=1) < 1e-12


def test_closed_form_eigenpairs_solve_the_matrix():
    for beta, gamma in ((0.5, 0.75), (0.0, 0.25), (1.3, 2.0), (-0.7, 1.0)):
        p = ModelParams(beta, gamma)
        t = model_emm_matrix(p)
        sol = model_emm_eigenpairs(p)
        assert np.array_equal(sol.matrix, t)
        assert len(sol.pairs) == 4
        for val, vec in sol.pairs:
            assert residual(t, val, vec) < 1e-12
        closed = [val for val, _ in sol.pairs]
        assert multiset_distance(eig_dense(t).values, closed) < 1e-10


def test_top_eigenvector_components():
    sol = model_emm_eigenpairs(P)
    val, vec = max(sol.pairs, key=lambda pair: pair[0].real)
    assert val == pytest.approx(1.75)
    assert np.allclose(vec, [2.25, 0.0, 0.0, -0.75])


def test_pairing_of_elementary_ladders():
    a_op = np.array([0.0, 0.0, 1.0, 0.0])
    a_dag_op = np.array([1.0, 0.0, 0.0, 0.0])
    b_dag_op = np.array([0.0, 1.0, 0.0, 0.0])
    assert symplectic_pairing(a_op, a_dag_op) == 1.0
    assert symplectic_pairing(a_dag_op, a_op) == -1.0
    assert symplectic_pairing(a_op, b_dag_op) == 0.0
    assert symplectic_pairing(a_op, a_op) == 0.0
    # a stacked vector holds one creation and one annihilation part of equal
    # length, and both sides must live on the same modes
    with pytest.raises(ValueError):
        symplectic_pairing(np.ones(3), np.ones(3))
    with pytest.raises(ValueError):
        symplectic_pairing(a_op, np.ones(6))
    with pytest.raises(ValueError):
        symplectic_pairing(np.ones((2, 2)), np.ones((2, 2)))


def test_pairing_vanishes_off_the_antidiagonal():
    # (lambda + lambda') [f, g] = 0: only pairs with opposite eigenvalues
    # may couple
    for beta, gamma in ((0.5, 0.75), (0.2, 1.5)):
        sol = model_emm_eigenpairs(ModelParams(beta, gamma))
        for val_f, f in sol.pairs:
            for val_g, g in sol.pairs:
                product = (val_f + val_g) * symplectic_pairing(f, g)
                assert abs(product) < 1e-12


def test_normalized_combinations_pair_to_unity():
    # after the pseudo-boson normalization the (lowering, raising) pairs
    # close a unit commutator, matching the operator-level construction
    scale = P.norm_scale
    rho = P.rho
    gamma = P.gamma
    c_comb = scale * np.array([0.0, -1.0 + rho, gamma, 0.0])
    c_ddag_comb = scale * np.array([1.0 + rho, 0.0, 0.0, -gamma])
    d_comb = scale * np.array([-1.0 + rho, 0.0, 0.0, gamma])
    d_ddag_comb = scale * np.array([0.0, 1.0 + rho, -gamma, 0.0])
    assert symplectic_pairing(c_comb, c_ddag_comb) == pytest.approx(1.0)
    assert symplectic_pairing(d_comb, d_ddag_comb) == pytest.approx(1.0)
    assert symplectic_pairing(c_comb, d_ddag_comb) == pytest.approx(0.0)


def test_eigenvector_coefficients_build_the_operators():
    # the adjoint-action eigenvector coefficients, normalized, are exactly the
    # pseudo-boson ladder definitions used at operator level
    trunc = TruncationSpec(5, 5)
    a, b, a_dag, b_dag = build_ladder_ops(trunc)
    ops = build_pseudoboson_ops(P, trunc)
    basis = [a_dag, b_dag, a, b]
    sol = model_emm_eigenpairs(P)
    by_value = {round(val.real, 9): vec for val, vec in sol.pairs}
    scale = P.norm_scale
    # value beta + rho pairs with the c_ddag direction
    vec = by_value[1.75]
    built = sum((basis[i] * (scale * vec[i]) for i in range(1, 4)),
                basis[0] * (scale * vec[0]))
    assert np.abs(built.dense().entries - ops.c_ddag.dense().entries).max() < 1e-12
    # value beta - rho pairs with the d direction (annihilation side)
    vec = by_value[-0.75]
    built = sum((basis[i] * (scale * vec[i]) for i in range(1, 4)),
                basis[0] * (scale * vec[0]))
    assert np.abs(built.dense().entries - ops.d.dense().entries).max() < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_repeated_values_flag_at_coincidence():
    # beta = rho makes beta - rho and -beta + rho both vanish
    p = ModelParams(beta=1.25, gamma=0.75)
    sol = model_emm_eigenpairs(p)
    assert sol.repeated_values
    assert not model_emm_eigenpairs(P).repeated_values
    # at |beta| = 1.7e308, beta +- rho rounds to +-beta, so the values repeat
    # in pairs; the gap between the pairs, 2 |beta|, is past the largest
    # double and must not warn
    for beta in (1.7e308, -1.7e308):
        sol = model_emm_eigenpairs(ModelParams(beta, 0.75))
        assert sol.repeated_values
        values = [val.real for val, _ in sol.pairs]
        assert values == [-abs(beta), -abs(beta), abs(beta), abs(beta)]


def test_degenerate_limit_uses_coordinate_axes():
    # at gamma = 0 the matrix is diag(1+beta, 1-beta, -(1+beta), -(1-beta)),
    # so each axis must carry the value on its own diagonal entry
    for beta in (-1.0, -0.5, 0.5, 1.0):
        p = ModelParams(beta, 0.0)
        sol = model_emm_eigenpairs(p)
        assert sol.degenerate
        stacked = np.array([vec for _, vec in sol.pairs])
        assert np.abs(np.abs(stacked).sum(axis=1) - 1.0).max() == 0.0
        matrix = model_emm_matrix(p)
        for val, vec in sol.pairs:
            assert residual(matrix, val, vec) < 1e-14


def test_secular_matrix_shape_and_asymmetry():
    s = su11_secular_matrix(0.75)
    expected = np.array([
        [2.0, 0.0, -1.5],
        [0.0, -2.0, -1.5],
        [-0.75, -0.75, 0.0],
    ])
    assert np.abs(s - expected).max() == 0.0
    assert np.abs(s - s.T).max() > 0.5


def test_secular_eigenpairs():
    sec = su11_secular(ModelParams(0.0, 0.75))
    values = [val.real for val, _ in sec.pairs]
    assert values == pytest.approx([-2.5, 0.0, 2.5])
    for val, vec in sec.pairs:
        assert residual(sec.matrix, val, vec) < 1e-12
    top = sec.pairs[-1][1]
    assert top[0] / top[2] == pytest.approx(-3.0)
    assert top[1] / top[2] == pytest.approx(-1.0 / 3.0)
    assert not sec.degenerate
    assert not sec.repeated_values


def test_secular_decoupled_limit():
    sec = su11_secular(ModelParams(0.0, 0.0))
    assert sec.degenerate
    values = [val.real for val, _ in sec.pairs]
    assert values == pytest.approx([-2.0, 0.0, 2.0])
    for val, vec in sec.pairs:
        assert residual(sec.matrix, val, vec) == 0.0


def test_both_closed_forms_share_one_record():
    # one record and one pair shape for the model's 4 x 4 and the secular
    # 3 x 3: complex values sorted by real part, with complex vectors
    for sol, size in ((model_emm_eigenpairs(ModelParams(-0.7, 1.0)), 4),
                      (su11_secular(ModelParams(-0.7, 1.0)), 3)):
        assert isinstance(sol, EmmSolution)
        assert sol.matrix.shape == (size, size)
        values = [val for val, _ in sol.pairs]
        assert all(isinstance(val, complex) for val in values)
        assert [val.real for val in values] == sorted(val.real for val in values)
        for _, vec in sol.pairs:
            assert vec.dtype == np.complex128 and vec.shape == (size,)

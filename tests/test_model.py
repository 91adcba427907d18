"""Model assembly, pseudo-boson algebra, vacua, eigenstates, biorthogonality,
and the diagonal phase similarity."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudoboson.fock import TruncationSpec, build_ladder_ops
from pseudoboson.linalg import eig_dense, norm2
from pseudoboson.model import (
    ModelParams,
    biorthogonality_matrix,
    block_layout,
    build_hamiltonian,
    build_pseudoboson_ops,
    build_vacua,
    commutation_report,
    eigen_residuals,
    eigenvector_families,
    energy,
    energy_grid,
    similarity_check,
)
from pseudoboson.model import _occupation_phases

P = ModelParams(beta=0.5, gamma=0.75)


def _flat(trunc, m, n):
    """Row-major flat index of |m, n>."""
    return np.ravel_multi_index((m, n), trunc.shape)


def _basis(trunc, m, n):
    v = np.zeros(trunc.dim, dtype=complex)
    v[_flat(trunc, m, n)] = 1.0
    return v


def _dense_hamiltonian(p, trunc):
    return [x.dense() for x in build_hamiltonian(p, trunc)]


def test_params_derived_quantities():
    assert P.rho == pytest.approx(1.25)
    assert P.alpha == pytest.approx(1.0 / 3.0)
    assert P.norm_scale == pytest.approx(0.7302967433402214)
    # the two closed forms for alpha agree
    assert P.alpha == pytest.approx((P.rho - 1.0) / P.gamma)


def test_params_reject_negative_coupling():
    with pytest.raises(ValueError, match="nonnegative"):
        ModelParams(beta=0.5, gamma=-0.1)


def test_decoupled_hamiltonian_is_diagonal():
    trunc = TruncationSpec(4, 4)
    h, h_adj = _dense_hamiltonian(ModelParams(0.0, 0.0), trunc)
    assert np.abs(h.entries - np.diag(np.diag(h.entries))).max() == 0.0
    assert np.array_equal(h.entries, h_adj.entries)
    for m, n in np.ndindex(trunc.shape):
        v = _basis(trunc, m, n)
        assert np.vdot(v, h.entries @ v) == pytest.approx(m + n + 1)


def test_decoupled_level_splitting():
    # beta shifts the two modes oppositely: H|1,0> = (1 + beta + 1)|1,0>
    trunc = TruncationSpec(3, 3)
    h, _ = _dense_hamiltonian(ModelParams(0.5, 0.0), trunc)
    v = _basis(trunc, 1, 0)
    assert np.vdot(v, h.entries @ v) == pytest.approx(2.5)
    w = _basis(trunc, 0, 1)
    assert np.vdot(w, h.entries @ w) == pytest.approx(1.5)


def test_pair_coupling_matrix_element():
    trunc = TruncationSpec(3, 3)
    h, _ = _dense_hamiltonian(P, trunc)
    bra = _basis(trunc, 2, 1)
    ket = _basis(trunc, 1, 0)
    assert np.vdot(bra, h.entries @ ket) == pytest.approx(P.gamma * np.sqrt(2))


def test_hamiltonian_not_normal():
    trunc = TruncationSpec(4, 4)
    h, h_adj = _dense_hamiltonian(P, trunc)
    assert np.abs(h.entries - h_adj.entries).max() > 0.5


def test_pseudoboson_ops_differ_from_adjoints():
    # c_ddag is NOT the adjoint of c once gamma is on; that gap is the point
    trunc = TruncationSpec(4, 4)
    ops = build_pseudoboson_ops(ModelParams(0.5, 1.0), trunc)
    gap = np.abs(ops.c_ddag.dense().entries - ops.c.adjoint().dense().entries).max()
    assert gap > 0.4


def test_pseudoboson_ops_collapse_at_zero_coupling():
    trunc = TruncationSpec(3, 3)
    ops = build_pseudoboson_ops(ModelParams(0.5, 0.0), trunc)
    assert np.abs(ops.c_ddag.dense().entries - ops.c.adjoint().dense().entries).max() == 0.0


def _kron_reference(p, trunc):
    """Ladder matrices, H, H' and c, d, c", d" assembled from Kronecker
    products of single-mode matrices, with the operator algebra written out."""
    def lowering(n_max):
        return np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1) if n_max > 0 \
            else np.zeros((1, 1))
    a = np.kron(lowering(trunc.n_max_a), np.eye(trunc.n_max_b + 1))
    b = np.kron(np.eye(trunc.n_max_a + 1), lowering(trunc.n_max_b))
    a_dag, b_dag = a.T, b.T
    h = ((1.0 + p.beta) * (a_dag @ a) + (1.0 - p.beta) * (b_dag @ b)
         + np.eye(trunc.dim) + p.gamma * ((a_dag @ b_dag) - (a @ b)))
    ladders = [a, b, a_dag, b_dag]
    if p.gamma == 0:
        return ladders, [h, h.T], ladders
    n, rho, g = p.norm_scale, p.rho, p.gamma
    pseudo = [n * ((g * g / (1.0 + rho)) * b_dag + g * a),
              n * ((g * g / (1.0 + rho)) * a_dag + g * b),
              n * ((1.0 + rho) * a_dag - g * b),
              n * ((1.0 + rho) * b_dag - g * a)]
    return ladders, [h, h.T], pseudo


@pytest.mark.parametrize("gamma", [0.75, 0.0, 1e-100])
@pytest.mark.parametrize("shape", [(6, 6), (8, 8), (10, 10), (7, 4)])
def test_maps_give_the_kron_matrices_bit_for_bit(shape, gamma):
    # every weight is rounded as the matching entry of the matrix algebra,
    # so the matrices built from the maps carry the same bits
    p = ModelParams(0.5, gamma)
    trunc = TruncationSpec(*shape)
    ladders, hamiltonians, pseudo = _kron_reference(p, trunc)
    ops = build_pseudoboson_ops(p, trunc)
    pairs = [*zip(build_ladder_ops(trunc), ladders),
             *zip(build_hamiltonian(p, trunc), hamiltonians),
             *zip([ops.c, ops.d, ops.c_ddag, ops.d_ddag], pseudo),
             (ops.c.adjoint(), pseudo[0].T), (ops.d.adjoint(), pseudo[1].T)]
    assert len(pairs) == 12
    for op, reference in pairs:
        assert np.array_equal(op.dense().entries, reference)


def test_commutation_report_interior_clean():
    report = commutation_report(P, TruncationSpec(8, 8))
    assert len(report) == 15
    assert list(report)[-5:] == ["[H,c_ddag]", "[H,d_ddag]", "[H,c]", "[H,d]",
                                 "diagonal_form"]
    for name, dev in report.items():
        tol = 1e-9 if name.startswith("[H,") else 1e-10
        assert dev < tol, name


def test_diagonal_form_parameter_sweep():
    for beta, gamma, trunc in ((0.5, 0.75, TruncationSpec(8, 8)),
                               (0.0, 0.0, TruncationSpec(6, 6)),
                               (2.0, 1.0, TruncationSpec(6, 6))):
        report = commutation_report(ModelParams(beta, gamma), trunc)
        assert report["diagonal_form"] < 1e-10


def test_vacua_geometric_profiles():
    trunc = TruncationSpec(20, 20)
    vac, vac_adj = build_vacua(P, trunc)
    assert vac.shape == vac_adj.shape == trunc.shape
    for n, expected in ((0, 1.0), (1, -1.0 / 3.0), (2, 1.0 / 9.0), (3, -1.0 / 27.0)):
        ratio = vac[n, n] / vac[0, 0]
        assert ratio == pytest.approx(expected)
        assert vac_adj[n, n] / vac_adj[0, 0] == pytest.approx(abs(expected))
    # off-diagonal occupations never appear
    for m, n in np.ndindex(trunc.shape):
        if m != n:
            assert vac[m, n] == 0.0


def test_vacua_mutual_overlap():
    trunc = TruncationSpec(40, 40)
    vac, vac_adj = build_vacua(P, trunc)
    overlap = np.vdot(vac_adj, vac)
    assert overlap == pytest.approx(0.9, abs=1e-12)
    assert overlap == pytest.approx(1.0 / (1.0 + P.alpha ** 2), abs=1e-12)


def test_vacua_annihilated_by_lowering_pair():
    trunc = TruncationSpec(40, 40)
    ops = build_pseudoboson_ops(P, trunc)
    vac, vac_adj = build_vacua(P, trunc)
    assert norm2(ops.c(vac)) < 1e-12
    assert norm2(ops.d(vac)) < 1e-12
    assert norm2(ops.d_ddag.adjoint()(vac_adj)) < 1e-12
    assert norm2(ops.c_ddag.adjoint()(vac_adj)) < 1e-12


def test_eigen_residuals_deep_truncation():
    rows = eigen_residuals(P, TruncationSpec(40, 40), 3, 3)
    assert len(rows) == 16
    for row in rows:
        assert row["residual"] < 1e-8
        assert row["adjoint_residual"] < 1e-8
        assert row["energy"] == pytest.approx(energy(P, row["m"], row["n"]))


def test_eigen_residuals_at_tiny_gamma():
    # the members' entries reach 1e300 and 1e-400: their squares over- and
    # underflow, but their scaled norms do not
    rows = eigen_residuals(ModelParams(0.5, 1e-100), TruncationSpec(20, 20), 3, 3)
    assert len(rows) == 16
    for row in rows:
        assert row["residual"] < 1e-8
        assert row["adjoint_residual"] < 1e-8


def test_families_reject_an_overflowing_member():
    # (3,4) is the first member in (m, n) order whose raising powers of the
    # 1e50-sized ladder normalization overflow
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match=r"eigenvector \(3,4\) overflows"):
        eigenvector_families(ModelParams(0.5, 1e-100), TruncationSpec(20, 20), 4, 4)


def test_eigenstate_rejects_occupation_beyond_cutoff():
    with pytest.raises(ValueError, match="too shallow"):
        eigenvector_families(P, TruncationSpec(4, 4), 5, 3)


@pytest.mark.parametrize("m_max, n_max", [(-1, 3), (2, -2)])
def test_grids_reject_negative_sizes(m_max, n_max):
    with pytest.raises(ValueError, match="m_max and n_max must be nonnegative"):
        energy_grid(P, m_max, n_max)
    with pytest.raises(ValueError, match="m_max and n_max must be nonnegative"):
        eigenvector_families(P, TruncationSpec(4, 4), m_max, n_max)


def test_families_are_ladder_powers_on_the_vacua():
    trunc = TruncationSpec(12, 12)
    ops = build_pseudoboson_ops(P, trunc)
    vac, vac_adj = build_vacua(P, trunc)
    states, adj_states = eigenvector_families(P, trunc, 2, 3)
    assert states.shape == adj_states.shape == (3, 4, 13, 13)
    v, w = vac.ravel(), vac_adj.ravel()
    for _ in range(3):
        v = ops.d_ddag.dense().entries @ v
        w = ops.d.adjoint().dense().entries @ w
    for _ in range(2):
        v = ops.c_ddag.dense().entries @ v
        w = ops.c.adjoint().dense().entries @ w
    # raised d first, then c, as the grid does; the matrix products sum in
    # another order, so the chain agrees to rounding, not to the bit
    eps = np.finfo(float).eps
    for member, chain in ((states[2, 3], v), (adj_states[2, 3], w)):
        assert np.abs(member.ravel() - chain).max() <= 4 * eps * norm2(member)
    # a member does not depend on the size of the grid it was built in
    small, small_adj = eigenvector_families(P, trunc, 1, 1)
    assert np.array_equal(small[1, 1], states[1, 1])
    assert np.array_equal(small_adj[1, 1], adj_states[1, 1])


@pytest.mark.parametrize("grid_check", [
    lambda trunc: eigen_residuals(P, trunc, 3, 3),
    lambda trunc: biorthogonality_matrix(P, 4, 4, trunc),
], ids=["eigen_residuals", "biorthogonality_matrix"])
def test_grid_checks_build_the_ladder_set_once(monkeypatch, grid_check):
    calls = []

    def counted(p, trunc):
        calls.append(trunc)
        return build_pseudoboson_ops(p, trunc)

    monkeypatch.setattr("pseudoboson.model.build_pseudoboson_ops", counted)
    grid_check(TruncationSpec(34, 34))
    assert len(calls) == 1


def test_biorthogonality_gram_values():
    report = biorthogonality_matrix(P, 2, 2, TruncationSpec(40, 40))
    labels = {lbl: i for i, lbl in enumerate(report.labels)}
    g = report.gram
    assert g[labels[(0, 0)], labels[(0, 0)]] == pytest.approx(0.9, abs=1e-10)
    assert g[labels[(1, 1)], labels[(1, 1)]] == pytest.approx(0.9, abs=1e-10)
    assert g[labels[(2, 0)], labels[(2, 0)]] == pytest.approx(1.8, abs=1e-10)
    assert g[labels[(2, 2)], labels[(2, 2)]] == pytest.approx(3.6, abs=1e-9)
    assert report.max_offdiag < 1e-10
    assert report.scale == pytest.approx(0.9, abs=1e-12)


def test_biorthogonality_needs_depth():
    with pytest.raises(ValueError, match="truncation too shallow"):
        biorthogonality_matrix(P, 4, 4, TruncationSpec(12, 12))


def test_phase_similarity_exact():
    trunc = TruncationSpec(6, 6)
    assert similarity_check(P, trunc) == 0.0
    phases = _occupation_phases(np.ndindex(trunc.shape))
    # unimodular, so the diagonal phase operator is unitary
    assert np.array_equal(phases * phases.conj(), np.ones(trunc.dim))
    # period-four phase pattern (-i)^(m + n) along the states
    assert phases[0] == 1.0
    assert phases[_flat(trunc, 0, 1)] == -1.0j
    assert phases[_flat(trunc, 1, 1)] == -1.0
    assert phases[_flat(trunc, 2, 1)] == 1.0j
    assert phases[_flat(trunc, 4, 0)] == 1.0
    # S H S^-1 with S = diag(phases) is the adjoint, entry by entry
    h, h_adj = _dense_hamiltonian(P, trunc)
    conjugated = np.outer(phases, phases.conj()) * h.entries
    assert np.abs(conjugated - h_adj.entries).max() == 0.0


def test_phase_similarity_trivial_when_self_adjoint():
    assert similarity_check(ModelParams(0.5, 0.0), TruncationSpec(5, 5)) == 0.0


def test_energy_closed_form():
    assert energy(P, 0, 0) == pytest.approx(1.25)
    assert energy(P, 1, 0) == pytest.approx(3.0)
    assert energy(P, 0, 1) == pytest.approx(2.0)
    assert energy(P, 2, 3) == pytest.approx(7.0)
    p0 = ModelParams(0.0, 0.0)
    for m in range(4):
        for n in range(4):
            assert energy(p0, m, n) == pytest.approx(1 + m + n)


def test_energy_grid_and_blocks():
    grid = energy_grid(P, 1, 1)
    assert grid == [(0, 0, 1.25), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 3.75)]
    blocks = block_layout(P, 1, 1)
    assert blocks == [[1.25, 2.0], [3.0, 3.75]]


def test_spectrum_matches_adjoint_spectrum():
    trunc = TruncationSpec(12, 12)
    h, h_adj = _dense_hamiltonian(P, trunc)
    direct = np.sort_complex(eig_dense(h.entries).values)[:10]
    adjoint = np.sort_complex(eig_dense(h_adj.entries).values)[:10]
    assert np.abs(direct - adjoint.conj()).max() < 1e-6


def test_ground_level_is_spectral_minimum():
    # frozen parameter set; the invariant needs the geometric tail alpha^N to
    # be converged at this truncation, which these points satisfy
    trunc = TruncationSpec(12, 12)
    tight = [(0.5, 0.75), (0.9, 0.75), (-0.5, 0.75), (0.0, 0.25),
             (0.3, 0.5), (-0.8, 0.4)]
    loose = [(0.5, 1.0), (0.0, 1.0)]
    for pts, tol in ((tight, 1e-8), (loose, 1e-6)):
        for beta, gamma in pts:
            p = ModelParams(beta, gamma)
            h, _ = _dense_hamiltonian(p, trunc)
            values = eig_dense(h.entries).values
            assert abs(values.real.min() - p.rho) < tol, (beta, gamma)


@settings(max_examples=40)
@given(t=st.floats(-1.5, 1.5), gamma=st.one_of(st.just(0.0), st.floats(1e-8, 1.5)))
@example(t=1.0, gamma=0.75)
@example(t=-1.0, gamma=0.75)
@example(t=1.0, gamma=1e-8)
@example(t=-1.0, gamma=1e-8)
@example(t=0.4, gamma=1e-8)
@example(t=1.0, gamma=0.0)
@example(t=-1.0, gamma=0.0)
@example(t=0.4, gamma=0.0)
def test_model_invariants_across_the_plane(t, gamma):
    # beta = t rho, so t = +-1 puts beta at +-rho, where one ladder step of
    # the spectrum vanishes; trunc 50 holds the vacuum tail alpha^46 below
    # 1e-12 up to gamma 1.5
    p = ModelParams(t * ModelParams(0.0, gamma).rho, gamma)
    trunc = TruncationSpec(50, 50)
    for row in eigen_residuals(p, trunc, 2, 2):
        assert row["residual"] < 1e-8
        assert row["adjoint_residual"] < 1e-8
    # Gram diagonal m! n! <vacuum', vacuum>, the overlap in closed form
    report = biorthogonality_matrix(p, 2, 2, trunc)
    overlap = 1.0 / (1.0 + p.alpha ** 2)
    for i, (m, n) in enumerate(report.labels):
        expected = math.factorial(m) * math.factorial(n) * overlap
        assert abs(report.gram[i, i] - expected) < 1e-9 * expected
    assert report.max_offdiag < 1e-9
    # [H, .] acts on each ladder operator as multiplication by its step
    for name, dev in commutation_report(p, TruncationSpec(8, 8)).items():
        assert dev < (1e-9 if name.startswith("[H,") else 1e-10), name

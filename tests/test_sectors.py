"""Sector decomposition: su(1,1) ladders, the tridiagonal sector matrices,
their spectra, the tilted generator triple, and the Hermitian cousin."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from pseudoboson import sectors
from pseudoboson.emm import su11_secular
from pseudoboson.fock import TruncationSpec, build_ladder_ops
from pseudoboson.linalg import (EigenReport, eig_dense, eig_sym_tridiag,
                                tridiag_rayleigh_iteration)
from pseudoboson.model import ModelParams, build_hamiltonian, energy
from pseudoboson.sectors import (
    SectorSpec,
    Su11Generators,
    casimir_check,
    casimir_matrix,
    casimir_reduction_check,
    converged_sector_spectrum,
    full_vs_sector_check,
    hermitian_lowest,
    hermitian_sector_tridiag,
    hermitian_variant_scan,
    lowest_weight_residuals,
    lowest_weight_vector,
    predicted_hermitian_lowest,
    pseudo_jacobi,
    pseudo_jacobi_diagonals,
    pseudo_su11_generators,
    sector_basis,
    sector_phase_vector,
    sector_sizes,
    sector_spectrum,
    su11_commutation_check,
    su11_generators,
    transpose_similarity_check,
)

P = ModelParams(beta=0.5, gamma=0.75)


def test_sector_basis_orderings():
    assert sector_basis(SectorSpec(0, 3)) == [(0, 0), (1, 1), (2, 2)]
    assert sector_basis(SectorSpec(2, 2)) == [(2, 0), (3, 1)]
    assert sector_basis(SectorSpec(-1, 3)) == [(0, 1), (1, 2), (2, 3)]


def test_sector_sizes_partition_the_space():
    trunc = TruncationSpec(4, 3)
    sizes = sector_sizes(trunc)
    assert sum(sizes.values()) == trunc.dim
    assert sizes[0] == 4
    assert sizes[4] == 1
    assert sizes[-3] == 1


def test_casimir_commutes_with_hamiltonian():
    # the occupation difference a'a - b'b labels the sectors; the box keeps
    # sectors intact, so the commutator sits at rounding level everywhere,
    # the boundary included
    trunc = TruncationSpec(6, 6)
    h = build_hamiltonian(P, trunc)[0]
    a, b, a_dag, b_dag = build_ladder_ops(trunc)
    d = (a_dag @ a) - (b_dag @ b)
    assert np.abs((d @ h - h @ d).dense().entries).max() < 1e-12


def test_su11_raising_matrix_elements():
    gens = su11_generators(SectorSpec(1, 3))
    assert np.allclose(np.diag(gens.plus, -1), [np.sqrt(2.0), np.sqrt(6.0)])
    assert np.array_equal(gens.minus, gens.plus.T)


def test_su11_diagonal_generator():
    gens = su11_generators(SectorSpec(0, 4))
    assert np.allclose(np.diag(gens.zero), [1.0, 3.0, 5.0, 7.0])
    assert np.abs(gens.zero - np.diag(np.diag(gens.zero))).max() == 0.0


def test_su11_commutation_interior():
    for k in (-3, -1, 0, 2):
        gens = su11_generators(SectorSpec(k, 12))
        assert su11_commutation_check(gens, margin=1) < 1e-12


def test_su11_commutation_keeps_a_nan():
    # a NaN deviation after the 0.0 a running max starts from is dropped by
    # max(0.0, nan); the check must return it
    zero = np.zeros((4, 4))
    zero[0, 0] = np.nan
    gens = Su11Generators(plus=np.zeros((4, 4)), minus=np.zeros((4, 4)), zero=zero)
    assert math.isnan(su11_commutation_check(gens))


def test_su11_commutation_boundary_row_breaks():
    # the [minus, plus] product loses sqrt(depth (|k|+depth)) at the last row,
    # so the unmasked deviation is large
    gens = su11_generators(SectorSpec(0, 6))
    assert su11_commutation_check(gens, margin=0) > 1.0


def test_primed_variant_relations():
    gens = su11_generators(SectorSpec(1, 8), variant="highest")
    base = su11_generators(SectorSpec(1, 8))
    assert np.array_equal(gens.plus, base.minus)
    assert np.array_equal(gens.zero, -base.zero)
    # the top of the primed ladder annihilates the first basis vector
    e0 = np.zeros(8)
    e0[0] = 1.0
    assert np.abs(gens.plus @ e0).max() == 0.0
    assert su11_commutation_check(gens, margin=1) < 1e-12


def test_su11_rejects_unknown_variant():
    with pytest.raises(ValueError):
        su11_generators(SectorSpec(0, 4), variant="middle")


def test_pseudo_jacobi_small_block():
    m = pseudo_jacobi(SectorSpec(2, 2), P)
    assert m[0, 0] == pytest.approx(4.0)
    assert m[1, 1] == pytest.approx(6.0)
    assert m[0, 1] == pytest.approx(-0.75 * np.sqrt(3.0))
    assert m[1, 0] == pytest.approx(+0.75 * np.sqrt(3.0))


def test_pseudo_jacobi_assembles_from_generators():
    for k in (-2, 0, 3):
        spec = SectorSpec(k, 9)
        gens = su11_generators(spec)
        built = (gens.zero + P.beta * spec.k * np.eye(spec.depth)
                 + P.gamma * (gens.plus - gens.minus))
        assert np.abs(pseudo_jacobi(spec, P) - built).max() == 0.0
        # the continuation reads the diagonals without the dense matrix
        sub, diag, sup = pseudo_jacobi_diagonals(spec, P)
        assert np.array_equal(sub, np.diag(built, -1))
        assert np.array_equal(diag, np.diag(built))
        assert np.array_equal(sup, np.diag(built, 1))


def test_pseudo_jacobi_symmetric_without_coupling():
    m = pseudo_jacobi(SectorSpec(1, 6), ModelParams(0.5, 0.0))
    assert np.array_equal(m, m.T)
    assert np.array_equal(m, np.diag(np.diag(m)))


def test_transpose_similarity_per_sector():
    for k in (1, -3):
        assert transpose_similarity_check(SectorSpec(k, 20), P) < 1e-13
    assert transpose_similarity_check(SectorSpec(2, 10), ModelParams(0.5, 0.0)) == 0.0


def test_sector_spectrum_symmetric_under_transpose():
    # the diagonal phase similarity forces sigma(M) = sigma(M^T), which holds
    # for any matrix, but also sigma(M) real here at moderate coupling
    spec = SectorSpec(2, 40)
    m = pseudo_jacobi(spec, P)
    from pseudoboson.linalg import eig_dense, multiset_distance
    assert multiset_distance(eig_dense(m).values,
                             eig_dense(m.T.copy()).values) < 1e-8


def test_tilted_generators_close_the_algebra():
    for gamma in (0.25, 0.75, 2.0):
        for k in range(-3, 4):
            gens = pseudo_su11_generators(SectorSpec(k, 8), ModelParams(0.0, gamma))
            assert su11_commutation_check(gens, margin=1) < 1e-10


def test_tilted_zero_is_scaled_coupled_matrix():
    spec = SectorSpec(1, 10)
    p = ModelParams(0.0, 0.75)
    gens = pseudo_su11_generators(spec, p)
    coupled = pseudo_jacobi(spec, p)
    assert np.abs(gens.zero - coupled / p.rho).max() < 1e-14
    assert np.abs(gens.zero - gens.zero.T).max() > 0.1


@pytest.mark.parametrize("gamma", [1e-300, 1e-8, 0.2, 0.75, 3.0, 1e150])
def test_tilted_ladders_are_the_secular_eigenvectors(gamma):
    # plus and minus are (gamma / 2 rho) (v . (R, L, Z)) for v the +2 rho
    # and -2 rho eigenvectors of the su(1,1) secular matrix, bit for bit;
    # the vectors meet their eigen-equation and alpha = gamma / (1 + rho)
    p = ModelParams(0.0, gamma)
    rho = np.sqrt(1.0 + gamma ** 2)
    secular = su11_secular(p)
    (low, v_minus), _, (high, v_plus) = secular.pairs
    assert (low, high) == (-2.0 * rho, 2.0 * rho)
    for value, v in ((low, v_minus), (high, v_plus)):
        res = secular.matrix @ v - value * v
        assert np.abs(res).max() <= 1e-15 * np.abs(value * v).max()
    alpha = gamma / (1.0 + rho)
    eps = np.finfo(float).eps
    assert np.allclose(v_plus, [1.0 / alpha, alpha, -1.0], rtol=4 * eps, atol=0)
    assert np.allclose(v_minus, [alpha, 1.0 / alpha, 1.0], rtol=4 * eps, atol=0)
    for k, depth in ((-3, 5), (0, 30), (2, 30)):
        spec = SectorSpec(k, depth)
        base = su11_generators(spec)
        gens = pseudo_su11_generators(spec, p)
        front = gamma / (2.0 * rho)
        for got, v in ((gens.plus, v_plus), (gens.minus, v_minus)):
            a, b, c = v.real
            assert np.array_equal(got, front * (a * base.plus + b * base.minus
                                                + c * base.zero))


def test_tilted_generators_at_zero_coupling_are_the_self_adjoint_triple():
    # the gamma -> 0 limit of the tilt: plus -> R, minus -> L, zero -> Z
    for k, depth in ((-3, 5), (0, 30), (2, 30)):
        spec = SectorSpec(k, depth)
        tilted = pseudo_su11_generators(spec, ModelParams(0.5, 0.0))
        base = su11_generators(spec)
        for name in ("plus", "minus", "zero"):
            assert np.array_equal(getattr(tilted, name), getattr(base, name))


def test_casimir_values():
    for k in (-2, 0, 1, 3):
        gens = su11_generators(SectorSpec(k, 12))
        assert casimir_check(gens, k, margin=2) < 1e-12
        c = casimir_matrix(gens)
        assert c[0, 0] == pytest.approx(k * k - 1)
    tilted_dev, plain_dev = casimir_reduction_check(SectorSpec(1, 30), P)
    assert tilted_dev < 1e-9
    assert plain_dev < 1e-12


def test_lowest_weight_vector_components():
    v = lowest_weight_vector(SectorSpec(1, 4), P)
    assert v[0] == pytest.approx(1.0)
    assert v[1] == pytest.approx(-0.4714045207910317)
    assert v[2] == pytest.approx(0.19245008972987526)
    assert v[3] == pytest.approx(-0.07407407407407407)
    # k = 0: plain geometric profile in -alpha
    w = lowest_weight_vector(SectorSpec(0, 5), P)
    assert np.allclose(w, [(-1.0 / 3.0) ** j for j in range(5)])


def test_lowest_weight_is_annihilated():
    for k in (-1, 0, 2):
        lowering_res, diagonal_res = lowest_weight_residuals(SectorSpec(k, 30), P)
        assert lowering_res < 1e-8
        assert diagonal_res < 1e-8


def test_sector_spectrum_closed_form():
    spectrum = sector_spectrum(SectorSpec(2, 60), P)
    assert np.allclose(spectrum.targets, [4.75, 7.25, 9.75])
    assert np.abs(spectrum.values - spectrum.targets).max() < 1e-10
    assert max(spectrum.residuals) < 1e-8


def test_sector_spectrum_decoupled_exact():
    spectrum = sector_spectrum(SectorSpec(1, 20), ModelParams(0.5, 0.0))
    rho0 = 1.0
    targets = [0.5 + rho0 * (2 + 2 * j) for j in range(3)]
    assert np.allclose(spectrum.targets, targets)
    assert np.abs(spectrum.values - spectrum.targets).max() < 1e-12


def test_deep_sector_matches_closed_form_and_oracle():
    # at depth 240 most upper eigenpairs are too non-normal for the residual
    # contract; only the kept levels are held to it
    spec = SectorSpec(1, 240)
    spectrum = sector_spectrum(spec, P)
    assert np.abs(spectrum.values - spectrum.targets).max() < 1e-12
    assert max(spectrum.residuals) < 1e-8
    oracle = np.linalg.eigvals(pseudo_jacobi(spec, P))
    for value in spectrum.values:
        assert np.abs(oracle - value).min() < 1e-10


@pytest.mark.parametrize("beta,gamma", [(0.5, 0.75), (0.2, 2.0)])
def test_ground_level_condition_number_closed_form(beta, gamma):
    # kappa_0 = rho^(|k|+1): the left/right overlap of the lowest level
    p = ModelParams(beta, gamma)
    for k in (-2, 0, 1, 3):
        spectrum = sector_spectrum(SectorSpec(k, 60), p)
        assert spectrum.conditions[0] == pytest.approx(p.rho ** (abs(k) + 1),
                                                       rel=1e-6)


def test_sector_spectrum_validates_n_eigs():
    with pytest.raises(ValueError):
        sector_spectrum(SectorSpec(0, 4), P, n_eigs=9)


def test_convergence_protocol():
    conv = converged_sector_spectrum(1, P, n_eigs=3, start_depth=15, tol=1e-8)
    assert conv.depths == [15, 30, 60]
    assert len(conv.history) == 3
    assert conv.converged
    assert conv.max_step < 1e-8
    assert np.abs(conv.values - conv.targets).max() < 1e-6


def test_sector_spectra_run_no_dense_qr(monkeypatch):
    # the start depth and a single deep section are solved by complex
    # symmetric QL, and the deeper sections are continued on their
    # tridiagonals; sectors runs dense QR only in full_vs_sector_check
    dims = []

    def counted(m, *args, **kwargs):
        dims.append(len(m))
        return eig_dense(m, *args, **kwargs)

    monkeypatch.setattr(sectors, "eig_dense", counted)
    conv = converged_sector_spectrum(1, P, n_eigs=3, start_depth=60)
    assert dims == []
    assert conv.continued == [False, True, True]
    assert conv.max_step < 1e-14
    assert np.abs(conv.values - conv.targets).max() < 1e-14
    sector_spectrum(SectorSpec(1, 240), P)
    assert dims == []


def test_section_values_restore_conjugate_symmetry():
    # QL gives the ill-conditioned real values in the middle of this section
    # imaginary parts far above n eps ||J||_F; the section values are the
    # spectrum of a real matrix again, with as many real values as dense QR
    spec = SectorSpec(2, 60)
    sub, diag, _ = diagonals = pseudo_jacobi_diagonals(spec, P)
    m = pseudo_jacobi(spec, P)
    raw = eig_sym_tridiag(diag, 1j * sub).values
    spurious = np.abs(raw.imag[np.abs(raw.imag) < 1e-3])
    assert spurious.max() > 1000 * 60 * np.finfo(float).eps * np.sqrt(np.sum(m ** 2))
    values = sectors._section_values(diagonals)
    assert np.array_equal(values, values[np.lexsort((values.imag, values.real))])
    assert np.array_equal(np.sort_complex(values), np.sort_complex(values.conj()))
    dense = eig_dense(m).values
    assert np.sum(values.imag == 0) == np.sum(dense.imag == 0)
    assert np.abs(values[:10] - dense[:10]).max() < 1e-8


def test_section_values_pair_only_near_conjugates(monkeypatch):
    # 7 + 0.1i and 7.2 - 0.1i are 0.2 apart after conjugation, more than
    # half of their 0.1 from the axis, so both become real
    values = np.array([1 + 1e-9j, 2 - 3e-9j, 5 + 2j, 5.0002 - 2.0002j,
                       7 + 0.1j, 7.2 - 0.1j, 9 - 1j])
    monkeypatch.setattr(sectors, "eig_sym_tridiag",
                        lambda diag, offdiag: EigenReport(values=values))
    cleaned = sectors._section_values(pseudo_jacobi_diagonals(SectorSpec(0, 7), P))
    assert np.array_equal(cleaned.real[[0, 1, 4, 5, 6]], [1, 2, 7, 7.2, 9])
    assert np.all(cleaned.imag[[0, 1, 4, 5, 6]] == 0)
    assert cleaned[3] == cleaned[2].conjugate()
    assert abs(cleaned[3] - (5.0001 + 2.0001j)) < 1e-14


def test_section_values_propagate_a_ql_failure(monkeypatch):
    # QL is the one whole-section solver: when it fails, its RuntimeError
    # reaches the caller, and no dense QR runs in its place
    dims = []

    def counted(m, *args, **kwargs):
        dims.append(len(m))
        return eig_dense(m, *args, **kwargs)

    monkeypatch.setattr(sectors, "eig_dense", counted)

    def poisoned(diag, offdiag):
        # QL itself, on the section with a NaN first diagonal entry: QL
        # scales its input, so no accepted model point makes it fail
        return eig_sym_tridiag(np.r_[np.nan, diag[1:]], offdiag)

    monkeypatch.setattr(sectors, "eig_sym_tridiag", poisoned)
    with pytest.raises(RuntimeError, match=r"^QL did not converge on a 16x16 "
                       r"tridiagonal after \d+ sweeps \(non-finite value\)$"):
        sectors._section_values(pseudo_jacobi_diagonals(SectorSpec(0, 16), P))
    with pytest.raises(RuntimeError, match=r"^QL did not converge on a 4x4 "):
        converged_sector_spectrum(0, P, n_eigs=3, start_depth=4)

    def failing(diag, offdiag):
        raise RuntimeError("QL did not converge (forced)")

    monkeypatch.setattr(sectors, "eig_sym_tridiag", failing)
    for gamma in (0.75, 3.0):
        with pytest.raises(RuntimeError, match=r"^QL did not converge \(forced\)$"):
            sector_spectrum(SectorSpec(1, 30), ModelParams(0.5, gamma))
    assert dims == []


@settings(max_examples=100)
@given(beta=st.floats(-1e3, 1e3), log_gamma=st.floats(-12, 150),
       k=st.integers(-10, 10), depth=st.integers(1, 120))
@example(beta=0.0, log_gamma=0.0, k=0, depth=2)
@example(beta=0.5, log_gamma=150.0, k=10, depth=120)
def test_section_values_solve_every_section_of_the_guarded_range(beta, log_gamma,
                                                                 k, depth):
    # QL on the phase-similar section returns all D values, closed under
    # conjugation and sorted, and never raises or warns for beta in
    # [-1e3, 1e3], gamma in 10^[-12, 150], |k| <= 10 and D <= 120 (the lowest
    # QL failure seen over wider draws sat at gamma = 3.4e151); the first
    # example is the defective 2x2 section, whose rotation breaks down
    diagonals = pseudo_jacobi_diagonals(SectorSpec(k, depth),
                                        ModelParams(beta, 10.0 ** log_gamma))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = sectors._section_values(diagonals)
    assert values.shape == (depth,)
    assert np.all(np.isfinite(values))
    assert np.array_equal(values, values[np.lexsort((values.imag, values.real))])
    assert np.array_equal(np.sort_complex(values), np.sort_complex(values.conj()))


@settings(max_examples=30)
@given(beta=st.floats(-1.5, 1.5), gamma=st.floats(0.05, 3.0),
       k=st.integers(-3, 3), start_depth=st.integers(3, 30),
       n_eigs=st.sampled_from([3, 4]))
@example(beta=0.5, gamma=3.0, k=0, start_depth=3, n_eigs=3)
@example(beta=0.5, gamma=0.75, k=1, start_depth=15, n_eigs=4)
def test_continued_levels_match_dense_qr(beta, gamma, k, start_depth, n_eigs):
    # every depth's kept values, continued or not, are the lowest n_eigs of
    # values-only QR on the same section, up to the first-order bound
    # kappa * (backward error 100 n eps ||J||_F); the draws take both the
    # continuation and the dense fallback (complex start values at large
    # gamma and shallow depth)
    assume(n_eigs <= start_depth)
    p = ModelParams(beta, gamma)
    conv = converged_sector_spectrum(k, p, n_eigs=n_eigs, start_depth=start_depth)
    if all(conv.continued[1:]):
        event("continued")
    for previous, continued in zip(conv.history, conv.continued[1:]):
        if not continued:
            event("complex-shift refusal" if np.any(previous.imag != 0)
                  else "moved-value fallback")
    eps = np.finfo(float).eps
    for depth, values in zip(conv.depths, conv.history):
        spec = SectorSpec(k, depth)
        m = pseudo_jacobi(spec, p)
        dense = eig_dense(m).values[:n_eigs]
        w, vecs = np.linalg.eig(m)
        phases = sector_phase_vector(spec)
        backward = 100 * depth * eps * np.sqrt(np.sum(m ** 2))
        for value, lam in zip(values, dense):
            x = vecs[:, np.argmin(np.abs(w - lam))]
            kappa = np.sum(np.abs(x) ** 2) / abs(np.sum(phases * x * x))
            assert abs(value - lam) <= kappa * backward


def test_continuation_from_a_shallow_section_meets_the_contract():
    # from the depth-8 values, the third 0.26 off, the quotient loop reaches
    # the depth-16 eigenpairs within its round cap
    p = ModelParams(beta=1.5, gamma=0.75)
    shifts = eig_dense(pseudo_jacobi(SectorSpec(1, 8), p)).values[:3]
    spec = SectorSpec(1, 16)
    dense = eig_dense(pseudo_jacobi(spec, p)).values[:3]
    assert np.abs(shifts - dense).max() > 0.25
    report = tridiag_rayleigh_iteration(*pseudo_jacobi_diagonals(spec, p),
                                        sector_phase_vector(spec), shifts)
    assert report.converged
    assert np.abs(report.values - dense).max() < 1e-10


def test_continuation_falls_back_on_complex_shifts():
    # at depth 3 and gamma 3 the kept values include a complex pair, so no
    # deeper depth may take them as shifts
    conv = converged_sector_spectrum(0, ModelParams(0.5, 3.0), n_eigs=3,
                                     start_depth=3)
    assert np.any(conv.history[0].imag != 0)
    assert conv.continued[1] is False


def test_full_space_decomposes_into_sectors():
    assert full_vs_sector_check(P, TruncationSpec(10, 10)) < 1e-8
    assert sum(sector_sizes(TruncationSpec(10, 10)).values()) == 121


def test_sector_and_ladder_energies_agree():
    # state (m, n) lives in sector k = m - n at ladder position j = min(m, n)
    for m in range(7):
        for n in range(7):
            k = m - n
            j = min(m, n)
            sector_e = P.beta * k + P.rho * (abs(k) + 1 + 2 * j)
            assert abs(sector_e - energy(P, m, n)) < 1e-12


def test_hermitian_tridiagonal_entries():
    diag, off = hermitian_sector_tridiag(SectorSpec(1, 3), 0.5, 0.6)
    assert np.allclose(diag, [2.5, 4.5, 6.5])
    assert np.allclose(off, [0.6 * np.sqrt(2.0), 0.6 * np.sqrt(6.0)])


@pytest.mark.parametrize("lam", [1.7e308, -1e307])
def test_hermitian_tridiagonal_rejects_an_overflowing_coupling(lam):
    # the largest off-diagonal entry is about 30 |lam| at depth 30
    with pytest.raises(ValueError, match=r"^lam = .* is too large: the "
                       r"off-diagonal .* overflows at depth 30$"):
        hermitian_sector_tridiag(SectorSpec(0, 30), 0.5, lam)
    assert np.isfinite(hermitian_sector_tridiag(SectorSpec(0, 30), 0.5, 1e306)[1]).all()


@pytest.mark.parametrize("beta, k", [(1.7e308, 2), (-1e308, -2)])
def test_hermitian_tridiagonal_rejects_an_overflowing_diagonal(beta, k):
    with pytest.raises(ValueError, match=r"^beta = .* is too large: the "
                       r"diagonal .* overflows at k = -?2$"):
        hermitian_sector_tridiag(SectorSpec(k, 30), beta, 0.6)
    assert np.isfinite(hermitian_sector_tridiag(SectorSpec(0, 30), 1.7e308, 0.6)[0]).all()


@pytest.mark.parametrize("lam, depth", [(3e306, 60), (5e306, 30)])
def test_hermitian_lowest_rejects_an_overflowing_value(lam, depth):
    # finite entries whose lowest eigenvalue lies below -1.8e308
    assert np.isfinite(hermitian_sector_tridiag(SectorSpec(0, depth), 0.5, lam)[1]).all()
    with pytest.raises(ValueError, match=rf"^lam = {re.escape(f'{lam:g}')} is "
                       rf"too large: the lowest eigenvalue .* overflows at "
                       rf"depth {depth}$"):
        hermitian_lowest(SectorSpec(0, depth), 0.5, lam)


def test_hermitian_lowest_converges_below_unit_coupling():
    assert hermitian_lowest(SectorSpec(0, 60), 0.0, 0.6) == pytest.approx(0.8, abs=1e-6)
    assert predicted_hermitian_lowest(0, 0.0, 0.6) == pytest.approx(0.8)
    # the full low spectrum contracts by sqrt(1 - lam^2)
    diag, off = hermitian_sector_tridiag(SectorSpec(0, 80), 0.0, 0.6)
    low = eig_sym_tridiag(diag, off).values.real[:4]
    assert np.allclose(low, [0.8 * (1 + 2 * j) for j in range(4)], atol=1e-6)


def test_hermitian_scan_flags_unbounded_regime():
    scan = hermitian_variant_scan(0, 0.0, 1.2, [40, 80])
    assert scan.predicted is None
    assert not scan.bounded
    assert scan.final_drop > 1.0
    bounded = hermitian_variant_scan(0, 0.0, 0.6, [30, 60])
    assert bounded.bounded
    assert abs(bounded.lowest[-1] - bounded.predicted) < 1e-6

"""Acceptance gate: ten criteria, one test and one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` to get the per-criterion lines.
Tolerances are pinned in the assertions; parameter points and truncations are
part of the contract and must not be weakened.
"""

import time

import numpy as np
import pytest

from pseudoboson.emm import model_emm_matrix
from pseudoboson.fock import TruncationSpec
from pseudoboson.linalg import eig_dense, multiset_distance
from pseudoboson.model import (
    ModelParams,
    biorthogonality_matrix,
    commutation_report,
    eigen_residuals,
    energy,
    similarity_check,
)
from pseudoboson.sectors import (
    SectorSpec,
    casimir_reduction_check,
    full_vs_sector_check,
    hermitian_variant_scan,
    lowest_weight_residuals,
    pseudo_su11_generators,
    sector_spectrum,
    su11_commutation_check,
    su11_generators,
    transpose_similarity_check,
)
from pseudoboson.similarity import verify_similarity

P = ModelParams(beta=0.5, gamma=0.75)


def test_criterion_01_adjoint_action_spectrum():
    """20 random parameter draws: the 4x4 adjoint-action eigenvalues equal
    {+-beta +- rho} to 1e-10, each solve under a second."""
    rng = np.random.default_rng(101)
    for _ in range(20):
        beta = rng.uniform(-2.0, 2.0)
        gamma = rng.uniform(0.0, 3.0) or 1.0e-3
        p = ModelParams(beta, gamma)
        t = model_emm_matrix(p)
        tic = time.perf_counter()
        report = eig_dense(t)
        elapsed = time.perf_counter() - tic
        expected = [beta + p.rho, beta - p.rho, -beta + p.rho, -beta - p.rho]
        assert multiset_distance(report.values, expected) < 1e-10
        assert elapsed < 1.0


def test_criterion_02_pseudoboson_commutators():
    """Pairwise ladder commutators are delta-like to 1e-10 on the margin-1
    interior of trunc(8, 8), and H moves each ladder by its closed-form
    coefficient to 1e-9, for gamma in {0.25, 0.75, 1, 2}."""
    trunc = TruncationSpec(8, 8)
    for gamma in (0.25, 0.75, 1.0, 2.0):
        report = commutation_report(ModelParams(0.5, gamma), trunc)
        for name, dev in report.items():
            tol = 1e-9 if name.startswith("[H,") else 1e-10
            assert dev < tol, (gamma, name, dev)


def test_criterion_03_diagonal_form():
    """H rebuilt from the pseudo-boson number operators matches the direct
    assembly to 1e-10 on the margin-1 interior of trunc(8, 8), at three
    parameter points including the decoupled and strong-coupling ones."""
    trunc = TruncationSpec(8, 8)
    for beta, gamma in ((0.5, 0.75), (0.0, 0.0), (2.0, 1.0)):
        report = commutation_report(ModelParams(beta, gamma), trunc)
        assert report["diagonal_form"] < 1e-10


def test_criterion_04_eigenstate_residuals():
    """Ladder-built eigenstates of H and of its adjoint have relative
    residuals under 1e-8 at trunc(40, 40) for m, n <= 3, and each energy
    matches the converged sector eigenvalue to 1e-6."""
    rows = eigen_residuals(P, TruncationSpec(40, 40), 3, 3)
    assert len(rows) == 16
    for row in rows:
        assert row["residual"] < 1e-8, (row["m"], row["n"])
        assert row["adjoint_residual"] < 1e-8, (row["m"], row["n"])
    spectra = {k: sector_spectrum(SectorSpec(k, 90), P, n_eigs=4)
               for k in range(-3, 4)}
    for row in rows:
        k = row["m"] - row["n"]
        level = min(row["m"], row["n"])
        sector_value = complex(spectra[k].values[level])
        assert abs(sector_value - row["energy"]) < 1e-6


def test_criterion_05_biorthogonality_grid():
    """The mutual Gram matrix of the two eigenvector families over
    m, n, p, q <= 4 equals m! n! delta delta times the vacuum overlap 0.9,
    entrywise to 1e-9, at trunc(40, 40)."""
    report = biorthogonality_matrix(P, 4, 4, TruncationSpec(40, 40))
    assert report.scale == pytest.approx(0.9, abs=1e-12)
    assert report.max_offdiag < 1e-9
    assert report.max_diag_error < 1e-9


def test_criterion_06_phase_similarity():
    """The diagonal fourth-root-of-unity phase matrix conjugates H to its
    adjoint within 1e-13 at trunc(6, 6), and does the same for every sector
    matrix (transpose form) at depth 30."""
    assert similarity_check(P, TruncationSpec(6, 6)) <= 1e-13
    for k in range(-2, 3):
        assert transpose_similarity_check(SectorSpec(k, 30), P) <= 1e-13


def test_criterion_07_sector_spectra_converge():
    """Lowest three sector eigenvalues for k in -2..2 at depths 30, 60, 120
    agree with beta k + rho (|k| + 1 + 2n) to 1e-6 and are depth-stable; the
    full trunc(10, 10) spectrum equals the union of sector spectra to 1e-8."""
    for k in range(-2, 3):
        previous = None
        for depth in (30, 60, 120):
            spectrum = sector_spectrum(SectorSpec(k, depth), P, n_eigs=3)
            assert spectrum.errors.max() < 1e-6, (k, depth)
            if previous is not None:
                step = np.abs(spectrum.values - previous).max()
                assert step < 1e-6, (k, depth)
            previous = spectrum.values
    assert full_vs_sector_check(P, TruncationSpec(10, 10)) < 1e-8


def test_criterion_08_su11_structure():
    """Plain and tilted sector triples close the commutation relations to
    1e-10 (margin 1); the Casimir combination is (k^2 - 1) times the identity
    to 1e-9 (margin 2); the sector ground vector is annihilated by the tilted
    lowering operator and reproduced by the tilted diagonal one to 1e-8."""
    for k in range(-2, 3):
        spec = SectorSpec(k, 30)
        assert su11_commutation_check(su11_generators(spec), margin=1) < 1e-10
        tilted = pseudo_su11_generators(spec, P.gamma)
        assert su11_commutation_check(tilted, margin=1) < 1e-10
        tilted_dev, plain_dev = casimir_reduction_check(spec, P.gamma)
        assert tilted_dev < 1e-9
        assert plain_dev < 1e-9
        lowering_res, diagonal_res = lowest_weight_residuals(spec, P.gamma)
        assert lowering_res < 1e-8
        assert diagonal_res < 1e-8


def test_criterion_09_hermitian_stability_contrast():
    """The Hermitian cousin at coupling 0.6 has lowest eigenvalue 0.8 within
    1e-6 by depth 60; at coupling 1.2 the lowest eigenvalue drops by more
    than 1.0 between depths 40 and 80 (no lower bound)."""
    bounded = hermitian_variant_scan(0, 0.0, 0.6, [30, 60])
    assert bounded.predicted == pytest.approx(0.8)
    assert abs(bounded.lowest[-1] - 0.8) < 1e-6
    unbounded = hermitian_variant_scan(0, 0.0, 1.2, [40, 80])
    assert unbounded.final_drop > 1.0


def test_criterion_10_similarity_construction():
    """20 random conjugated-diagonal 5x5 matrices: the constructed transform
    conjugates each matrix to its adjoint with relative error at most 1e-8
    and biorthogonality defect at most 1e-10; the worked 2x2 example yields
    the pinned transform up to phase and a visibly non-unitary defect."""
    rng = np.random.default_rng(211)
    for _ in range(20):
        r = rng.uniform(-1.0, 1.0, (5, 5)) / np.sqrt(5.0)
        v = np.eye(5) + 0.25 * r
        d = np.diag(np.arange(5) + 0.2 * rng.uniform(0.0, 1.0, 5))
        m = v @ d @ np.linalg.inv(v)
        report = verify_similarity(m)
        assert report.similarity_error <= 1e-8
        assert report.biorth_error <= 1e-10
    hand = verify_similarity(np.array([[1.0, 1.0], [0.0, 2.0]]))
    target = np.array([[1.0, -1.0], [-1.0, 2.0]])
    phase = hand.transform[0, 0] / target[0, 0]
    assert abs(abs(phase) - 1.0) < 1e-10
    assert np.abs(hand.transform - phase * target).max() < 1e-10
    assert hand.unitarity_defect > 1.0

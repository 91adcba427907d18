"""Similarity-to-adjoint construction for matrices with real simple spectra."""

import numpy as np
import pytest

from pseudoboson import similarity
from pseudoboson.linalg import eig_dense, multiset_distance
from pseudoboson.model import ModelParams
from pseudoboson.sectors import SectorSpec, pseudo_jacobi
from pseudoboson.similarity import verify_similarity


def _random_real_spectrum_matrix(rng, size):
    v = np.eye(size) + 0.25 * rng.uniform(-1.0, 1.0, (size, size)) / np.sqrt(size)
    d = np.arange(size) + 0.2 * rng.uniform(0.0, 1.0, size)
    return v @ np.diag(d) @ np.linalg.inv(v)


def test_hand_worked_two_by_two():
    m = np.array([[1.0, 1.0], [0.0, 2.0]])
    report = verify_similarity(m)
    assert report.spectrum_real
    assert report.max_imag < 1e-12
    target = np.array([[1.0, -1.0], [-1.0, 2.0]])
    assert np.abs(report.transform - target).max() < 1e-10
    assert report.similarity_error < 1e-12
    assert report.biorth_error < 1e-12
    # the transform is genuinely non-unitary; its defect is pinned by the
    # entries: || S^H S - I ||_F = sqrt(35)
    assert report.unitarity_defect == pytest.approx(np.sqrt(35.0), abs=1e-9)


def test_self_adjoint_input_gives_identity():
    report = verify_similarity(np.diag([1.0, 2.0, 4.0]))
    assert np.abs(report.transform - np.eye(3)).max() < 1e-12
    assert report.similarity_error < 1e-14
    assert report.unitarity_defect < 1e-12


def test_transform_conjugates_to_the_adjoint():
    rng = np.random.default_rng(41)
    m = _random_real_spectrum_matrix(rng, 6)
    report = verify_similarity(m)
    s = report.transform
    conjugated = s @ m @ np.linalg.inv(s)
    scale = np.sqrt((np.abs(m) ** 2).sum())
    assert np.abs(m.conj().T - conjugated).max() < 1e-8 * scale


def test_transform_maps_eigenvectors_across():
    # S phi_i is an eigenvector of the adjoint with the same (real) eigenvalue
    rng = np.random.default_rng(43)
    m = _random_real_spectrum_matrix(rng, 5)
    report = verify_similarity(m)
    direct = eig_dense(np.asarray(m, dtype=complex), want_vectors=True)
    adj = m.conj().T
    for i, lam in enumerate(direct.values):
        mapped = report.transform @ direct.vectors[:, i]
        res = np.abs(adj @ mapped - lam.real * mapped).max()
        assert res < 1e-7 * np.abs(mapped).max()


def test_random_batch_meets_tolerances():
    rng = np.random.default_rng(47)
    for _ in range(20):
        m = _random_real_spectrum_matrix(rng, 5)
        report = verify_similarity(m)
        assert report.spectrum_match < 1e-8
        assert report.similarity_error < 1e-8
        assert report.biorth_error < 1e-10


def test_similarity_error_is_scale_invariant():
    rng = np.random.default_rng(53)
    m = _random_real_spectrum_matrix(rng, 4)
    base = verify_similarity(m)
    scaled = verify_similarity(1e6 * m)
    assert np.abs(scaled.transform - base.transform).max() < 1e-6
    assert abs(scaled.similarity_error - base.similarity_error) < 1e-8


def test_relative_errors_keep_their_bits_at_any_power_of_two_scale():
    # spectrum_match and similarity_error are relative to ||M||_F, and QR and
    # norm2 scale by powers of two exactly, so M at 2^-600, 1 and 2^600 gives
    # the same bits: the absolute distance failed theorem1's 1e-8 on rounding
    # at 2^600 and passed vacuously at 2^-600
    m = np.array([[1.0, 2.0, 0.5], [0.3, 2.0, 1.0], [0.0, 0.7, 3.0]])
    reports = [verify_similarity(np.ldexp(m, k)) for k in (-600, 0, 600)]
    for name in ("spectrum_match", "similarity_error", "biorth_error"):
        assert len({getattr(r, name).hex() for r in reports}) == 1
    assert 0.0 < reports[1].spectrum_match < 1e-15
    assert all(np.array_equal(r.transform, reports[1].transform) for r in reports)


def test_spectrum_matches_adjoint():
    rng = np.random.default_rng(59)
    m = _random_real_spectrum_matrix(rng, 6)
    report = verify_similarity(m)
    assert report.spectrum_match < 1e-8
    assert multiset_distance(eig_dense(m).values,
                             eig_dense(m.conj().T).values) < 1e-8


def test_rejects_complex_spectrum():
    # the coupled sector matrix at shallow depth has a complex pair; the
    # verifier must refuse rather than force the construction
    m = pseudo_jacobi(SectorSpec(0, 5), ModelParams(0.0, 0.75))
    with pytest.raises(ValueError, match="spectrum not real"):
        verify_similarity(m)


def test_preconditions_run_before_the_adjoint_qr(monkeypatch):
    # a failing matrix costs one QR; a passing one hands the adjoint QR its
    # validated spectrum as shift estimates
    calls = []

    def counted(*args, **kwargs):
        report = eig_dense(*args, **kwargs)
        calls.append((kwargs.get("shifts"), report.values))
        return report

    monkeypatch.setattr(similarity, "eig_dense", counted)
    m = pseudo_jacobi(SectorSpec(0, 5), ModelParams(0.0, 0.75))
    with pytest.raises(ValueError, match="spectrum not real"):
        verify_similarity(m)
    assert len(calls) == 1
    calls.clear()
    verify_similarity(_random_real_spectrum_matrix(np.random.default_rng(61), 6))
    (first, values), (second, _) = calls
    assert first is None and np.array_equal(second, values.real)


def test_gap_test_does_not_overflow_at_the_largest_floats():
    # the gap between 1e308 and -1e308 overflows, and pytest raises numpy's
    # warning; between the halved values it does not, so both preconditions
    # pass, and both QRs run on the matrix scaled into [0.5, 1), so the
    # similarity is built exactly: S = [[1, 1/2], [1/2, 5/4]]
    report = verify_similarity(np.array([[1e308, 1e308], [0.0, -1e308]]))
    assert report.spectrum_match == 0.0
    assert report.similarity_error == 0.0
    assert report.biorth_error < 1e-30
    assert np.array_equal(report.transform, [[1.0, 0.5], [0.5, 1.25]])


def test_rejects_degenerate_spectrum():
    with pytest.raises(ValueError, match="not simple"):
        verify_similarity(np.eye(2))


def test_rejects_nonsquare_and_empty():
    with pytest.raises(ValueError):
        verify_similarity(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        verify_similarity(np.zeros((0, 0)))


def test_weakly_coupled_sector_matrix_passes():
    # at gamma = 0.2 the depth-5 sector matrix keeps a real simple spectrum
    m = pseudo_jacobi(SectorSpec(0, 5), ModelParams(0.0, 0.2))
    report = verify_similarity(m)
    assert report.spectrum_real
    assert report.similarity_error < 1e-8
    assert report.unitarity_defect > 1e-3

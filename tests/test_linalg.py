"""Kernel checks against numpy.linalg as an independent oracle.

The library itself never imports numpy.linalg; these tests are the one place
where the hand-rolled QR/QL/LU routines are compared against it.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoboson import linalg
from pseudoboson.linalg import (
    _lu_factor,
    _lu_solve,
    norm2,
    _tridiag_lu_factor,
    _tridiag_lu_solve,
    biorthonormalize,
    eig_dense,
    eig_sym_tridiag,
    multiset_distance,
    residual,
    solve_matrix,
    tridiag_rayleigh_iteration,
)


def test_eig_dense_matches_lapack_on_random_real():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = rng.standard_normal((6, 6))
        ours = eig_dense(m)
        assert ours.converged
        theirs = np.linalg.eigvals(m)
        assert multiset_distance(ours.values, theirs) < 1e-8


def test_eig_dense_matches_lapack_on_random_complex():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        ours = eig_dense(m)
        assert ours.converged
        assert multiset_distance(ours.values, np.linalg.eigvals(m)) < 1e-8


def test_eig_dense_conjugate_transpose_spectrum():
    rng = np.random.default_rng(13)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    direct = eig_dense(m).values
    adjoint = eig_dense(m.conj().T).values
    assert multiset_distance(direct, adjoint.conj()) < 1e-8


def test_eig_dense_invariant_under_permutation_similarity():
    rng = np.random.default_rng(17)
    m = rng.standard_normal((7, 7))
    perm = rng.permutation(7)
    p = np.eye(7)[perm]
    assert multiset_distance(eig_dense(m).values,
                             eig_dense(p @ m @ p.T).values) < 1e-8


def test_eig_dense_counts_and_sorts():
    m = np.diag([3.0, 1.0, 2.0])
    report = eig_dense(m)
    assert report.values.shape == (3,)
    assert np.allclose(report.values, [1.0, 2.0, 3.0])


def test_eig_dense_emm_example():
    # equation-of-motion matrix at beta = 0.5, gamma = 0.75: the spectrum is
    # {+-beta +- rho} with rho = 1.25
    t = np.array([
        [1.5, 0.0, 0.0, -0.75],
        [0.0, 0.5, -0.75, 0.0],
        [0.0, -0.75, -1.5, 0.0],
        [-0.75, 0.0, 0.0, -0.5],
    ])
    got = eig_dense(t).values
    assert multiset_distance(got, [-1.75, -0.75, 0.75, 1.75]) < 1e-10


def test_eig_dense_vectors_satisfy_residual_contract():
    rng = np.random.default_rng(19)
    m = rng.standard_normal((8, 8))
    report = eig_dense(m, want_vectors=True)
    assert report.converged
    scale = np.sqrt((np.abs(m) ** 2).sum())
    for i, lam in enumerate(report.values):
        v = report.vectors[:, i]
        assert abs(np.sqrt((np.abs(v) ** 2).sum()) - 1.0) < 1e-12
        assert residual(m, lam, v) < 1e-8 * scale
        assert report.residuals[i] < 1e-8 * scale


def _test_matrix(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "complex":
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = rng.standard_normal((n, n))
    if kind == "hessenberg":
        # some subdiagonal entries zero, so the matrix splits into blocks
        sub = np.arange(n - 1)
        m = np.triu(m, -1)
        m[sub + 1, sub] *= rng.integers(0, 2, n - 1)
    elif kind == "pseudo_jacobi":
        off = rng.uniform(0.1, 2.0, n - 1)
        m = np.diag(m.diagonal()) + np.diag(off, -1) - np.diag(off, 1)
    elif kind == "graded":
        grade = 10.0 ** -rng.uniform(0.0, 1.5)
        m = m * np.outer(grade ** np.arange(n), grade ** np.arange(n))
    return m


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["real", "complex", "hessenberg", "pseudo_jacobi",
                             "graded"]),
       n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_eig_dense_values_have_small_backward_error(kind, n, seed):
    # judged by the backward error sigma_min(A - lambda I), which a backward
    # stable QR keeps at eps ||A|| however ill-conditioned the eigenvalue
    m = _test_matrix(kind, n, seed)
    values = eig_dense(m).values
    assert values.shape == (n,)
    bound = 100 * n * np.finfo(float).eps * np.sqrt((np.abs(m) ** 2).sum())
    for lam in values:
        sigma = np.linalg.svd(m - lam * np.eye(n), compute_uv=False)
        assert sigma[-1] <= bound


@pytest.mark.parametrize("dtype, split", [(float, 1), (complex, 2)])
def test_eig_dense_raises_at_the_sweep_cap(monkeypatch, dtype, split):
    # a zero subdiagonal splits off a block that still needs sweeps; at the
    # cap both paths raise instead of returning undeflated diagonal entries
    rng = np.random.default_rng(47)
    m = np.triu(rng.standard_normal((4, 4)), -1).astype(dtype)
    if dtype is complex:
        m += 1j * np.triu(rng.standard_normal((4, 4)), -1)
    m[split, split - 1] = 0.0
    monkeypatch.setattr(linalg, "MAX_SWEEPS_PER_DIM", 0)
    with pytest.raises(RuntimeError, match="4x4 matrix after 0 sweeps"):
        eig_dense(m)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_norm2_rescales_past_under_and_overflow(scale):
    assert norm2([3.0 * scale, 4.0 * scale]) == pytest.approx(5.0 * scale,
                                                              rel=1e-15, abs=0.0)
    assert norm2(np.zeros(3)) == 0.0
    # row norms of a block: only the row whose sum under- or overflows is
    # rescaled, and a zero row stays zero
    block = np.array([[3.0 * scale, 4.0 * scale], [3.0, 4.0], [0.0, 0.0]])
    assert norm2(block, axis=-1) == pytest.approx([5.0 * scale, 5.0, 0.0],
                                                  rel=1e-15, abs=0.0)


@pytest.mark.parametrize("entries", [
    [math.nextafter(1e150, 0.0), 0.0],
    [1e150, 0.0],
    [6e149, 8e149, 1e-300],
    [math.nextafter(1e-150, 1.0), 0.0, 0.0],
    [6e-151, 8e-151],
    [1.0, 1e-16, 1e-16],
])
def test_norm2_short_list_matches_the_array_path(entries):
    # a bulge column reaches norm2 as a list of floats; on either side of the
    # rescale bounds it gives the array path's bits
    assert norm2(entries) == norm2(np.array(entries))


# Reference copy of the bulge step as it was before the chase ran on floats:
# numpy arrays and scalars throughout, a unit Householder vector, 2.0 * np.outer
# updates and a Givens rotation from copied rows and columns. The sweeps must
# give the same bits.

def _reference_reflector(B, k, col, m):
    x = np.array(col)
    xnorm = norm2(x)
    if xnorm == 0.0:
        return
    v = x.copy()
    v[0] += (v[0] / abs(v[0]) if v[0] != 0 else 1.0) * xnorm
    v = v / norm2(v)
    w, r0, r1 = len(v), max(k - 1, 0), min(k + len(v) + 1, m)
    B[k:k + w, r0:] -= 2.0 * np.outer(v, v.conj() @ B[k:k + w, r0:])
    B[:r1, k:k + w] -= 2.0 * np.outer(B[:r1, k:k + w] @ v, v.conj())


def _reference_francis_sweep(H, lo, hi, stall):
    if stall % 11 == 0:
        w = abs(H[hi, hi - 1]) + abs(H[hi - 1, hi - 2])
        shifts = 1.75 * w, 0.0, -0.25 * w, 0.0
    else:
        shifts = linalg._shift_pair(H[hi - 1, hi - 1], H[hi - 1, hi],
                                    H[hi, hi - 1], H[hi, hi])
    diagonals = H.diagonal(), H.diagonal(-1), H.diagonal(1)
    start = lo
    for k in range(hi - 2, lo, -1):
        x, y, z = linalg._first_column(*diagonals, k, *shifts)
        s = abs(x) + abs(y) + abs(z)
        if s != 0.0:
            x, y, z = x / s, y / s, z / s
        anchor = abs(x) * (abs(H[k - 1, k - 1]) + abs(H[k, k]) + abs(H[k + 1, k + 1]))
        if anchor + abs(H[k, k - 1]) * (abs(y) + abs(z)) == anchor:
            start = k
            break
    B = H[start:hi + 1, start:hi + 1]
    m = B.shape[0]
    col = linalg._first_column(*diagonals, start, *shifts)
    for k in range(m - 1):
        _reference_reflector(B, k, col, m)
        col = B[k + 1:k + 4, k]


def _reference_wilkinson_sweep(H, lo, hi, stall):
    B = H[lo:hi + 1, lo:hi + 1]
    m = B.shape[0]
    if stall % 11 == 0:
        sigma = B[m - 1, m - 1] + 0.75 * abs(B[m - 1, m - 2])
    else:
        e1, e2 = linalg._eig2_complex(B[m - 2, m - 2], B[m - 2, m - 1],
                                      B[m - 1, m - 2], B[m - 1, m - 1])
        corner = B[m - 1, m - 1]
        sigma = e1 if abs(e1 - corner) <= abs(e2 - corner) else e2
    x, z = B[0, 0] - sigma, B[1, 0]
    for k in range(m - 1):
        c, s = linalg._givens(x, z)
        r0, r1 = max(k - 1, 0), min(k + 2, m - 1)
        rk, rk1 = B[k, r0:].copy(), B[k + 1, r0:].copy()
        B[k, r0:] = c * rk + s * rk1
        B[k + 1, r0:] = -np.conj(s) * rk + c * rk1
        ck, ck1 = B[:r1 + 1, k].copy(), B[:r1 + 1, k + 1].copy()
        B[:r1 + 1, k] = c * ck + np.conj(s) * ck1
        B[:r1 + 1, k + 1] = -s * ck + c * ck1
        if k < m - 2:
            x, z = B[k + 1, k], B[k + 2, k]


@pytest.mark.parametrize("stall", [1, 11])
@pytest.mark.parametrize("case", ["graded", "1e+120", "1e-120", "split"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_sweeps_match_the_reference_step_bit_for_bit(dtype, case, stall):
    # one sweep on the unreduced block 1..12 of a seeded 14x14 Hessenberg
    # matrix; "split" has two small consecutive subdiagonals, below which the
    # Francis bulge starts under the exceptional shift (stall 11)
    rng = np.random.default_rng(53)
    n = 14
    m = rng.standard_normal((n, n))
    if dtype is complex:
        m = m + 1j * rng.standard_normal((n, n))
    m = np.triu(m, -1)
    if case == "graded":
        grade = 0.3 ** np.arange(n)
        m *= np.outer(grade, grade)
    elif case == "split":
        m[6, 5] = m[7, 6] = 1e-9
    else:
        m *= float(case)
    m[1, 0] = m[13, 12] = 0.0
    ours, ref = m.copy(), m.copy()
    if dtype is float:
        linalg._francis_sweep(ours, 1, 12, stall)
        _reference_francis_sweep(ref, 1, 12, stall)
    else:
        linalg._wilkinson_sweep(ours, 1, 12, stall)
        _reference_wilkinson_sweep(ref, 1, 12, stall)
    assert not np.array_equal(ours, m)
    assert np.array_equal(ours, ref)


def test_eig_dense_rejects_nonsquare():
    with pytest.raises(ValueError):
        eig_dense(np.zeros((2, 3)))


def test_solve_hilbert_recovers_ones():
    n = 4
    h = np.array([[1.0 / (i + j + 1) for j in range(n)] for i in range(n)])
    x = solve_matrix(h, h @ np.ones(n))
    assert x.shape == (n,)
    assert np.abs(x - 1.0).max() < 1e-8


def test_solve_matches_lapack_on_complex_system():
    rng = np.random.default_rng(23)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    rhs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    assert np.abs(solve_matrix(m, rhs) - np.linalg.solve(m, rhs)).max() < 1e-10
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_matrix(m, rhs[:5])


def test_solve_matrix_matches_lapack_on_a_wide_complex_block():
    rng = np.random.default_rng(53)
    m = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    rhs = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    ours = solve_matrix(m, rhs)
    assert ours.shape == (7, 3)
    assert np.abs(ours - np.linalg.solve(m, rhs)).max() < 1e-10
    # every column goes through the same sweep as a single right-hand side
    assert all(np.array_equal(ours[:, j], solve_matrix(m, rhs[:, j])) for j in range(3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_matrix(m, rhs[:6])
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(ValueError, match="singular"):
        solve_matrix(singular, np.eye(2))


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("per_block", [1, 2])
def test_eig_dense_vectors_do_not_depend_on_the_block_size(monkeypatch, kind,
                                                           per_block):
    # tier-1 matrices fit in one block of stacked factors; a budget of one or
    # two values per block splits a 12x12 into 12 or 6 blocks
    m = _test_matrix(kind, 12, 59)
    whole = eig_dense(m, want_vectors=True)
    monkeypatch.setattr(linalg, "STACK_BYTES", 16 * 12 * 12 * per_block)
    split = eig_dense(m, want_vectors=True)
    assert split.vectors.tobytes() == whole.vectors.tobytes()
    assert split.residuals.tobytes() == whole.residuals.tobytes()
    assert split.converged == whole.converged


def _near_pair_upper_triangular() -> np.ndarray:
    # diagonal 1, 2, 3, 3 + delta, 5 with delta the first inverse-iteration
    # shift offset: shifting by 3 + delta leaves an exactly zero fourth pivot
    m = np.triu(np.ones((5, 5)), 1) + np.diag([1.0, 2.0, 3.0, 3.0, 5.0])
    for _ in range(3):
        m[3, 3] = 3.0 + linalg.INVERSE_ITER_SHIFT * norm2(m)
    return m


@pytest.mark.parametrize("m", [
    pytest.param(np.array([[2.0, 1.0], [0.0, 2.0]]), id="jordan"),
    pytest.param(np.zeros((3, 3)), id="zero"),
    pytest.param(np.diag([1.0, 1.0, 3.0]), id="repeated"),
    pytest.param(_near_pair_upper_triangular(), id="tiny-pivot"),
])
def test_stacked_inverse_iteration_edge_cases(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = eig_dense(m, want_vectors=True)
    n = m.shape[0]
    assert report.vectors.shape == (n, n) and np.all(np.isfinite(report.vectors))
    bound = linalg.RESIDUAL_TOL * max(norm2(m), np.finfo(float).eps)
    assert report.converged == bool(np.all(report.residuals <= bound))
    for i, lam in enumerate(report.values):
        assert report.residuals[i] == pytest.approx(
            residual(m, lam, report.vectors[:, i]), rel=1e-12, abs=1e-300)
    if n == 5:
        # the fallback fires in the stack item for 3 and in no other
        delta = linalg.INVERSE_ITER_SHIFT * norm2(m)
        shifted = m - (report.values + delta)[:, None, None] * np.eye(n)
        lu, _ = _lu_factor(shifted, fix_singular=True)
        tiny = 8 * n * np.finfo(float).eps * np.abs(shifted).max(axis=(1, 2))
        pivots = np.abs(np.diagonal(lu, axis1=1, axis2=2))
        assert list(np.any(pivots == tiny[:, None], axis=1)) == [
            False, False, True, False, False]


def _dense_tridiag(sub, diag, sup):
    return np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)


def test_tridiag_solve_matches_dense_solve():
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 8, 12):
        for sub_scale in (0.1, 10.0):
            # a large subdiagonal forces row swaps and fill in the second
            # superdiagonal of U; it also makes the condition number grow
            # like sub_scale^n, hence the small sizes
            sub = sub_scale * rng.standard_normal(n - 1)
            diag = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            sup = rng.standard_normal(n - 1)
            rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            factor = _tridiag_lu_factor(sub, diag, sup)
            if n > 2 and sub_scale > 1.0:
                assert any(factor[4])
                assert np.abs(factor[3]).max() > 0.0
            ours = _tridiag_lu_solve(factor, rhs)
            m = _dense_tridiag(sub, diag, sup)
            dense = solve_matrix(m, rhs)
            # both are backward stable, so they agree to eps times the
            # condition number
            bound = 1e-13 * np.linalg.cond(m) * np.abs(dense).max()
            assert np.abs(ours - dense).max() < bound


def test_tridiag_solve_at_an_eigenvalue_uses_tiny_pivot():
    # [[2,1,0],[1,2,1],[0,1,2]] has eigenvalue 2 with vector (1, 0, -1);
    # shifting by it leaves an exactly zero last pivot
    sub = sup = np.ones(2)
    shifted = np.zeros(3)
    with pytest.raises(ValueError, match="singular"):
        solve_matrix(_dense_tridiag(sub, shifted, sup), np.ones(3))
    w = _tridiag_lu_solve(_tridiag_lu_factor(sub, shifted, sup),
                          np.ones(3) + 1e-3 * np.arange(3))
    assert np.all(np.isfinite(w))
    v = w / np.sqrt((np.abs(w) ** 2).sum())
    assert residual(_dense_tridiag(sub, 2.0 * np.ones(3), sup), 2.0, v) < 1e-10


def test_tridiag_tiny_pivot_fallback_matches_dense():
    # both candidates of the first pivot are below the tiny threshold and the
    # subdiagonal one is larger: the dense LU raises it and swaps the rows,
    # and so must the tridiagonal one
    sub = np.array([1e-20, 1.0])
    diag = np.array([0.0, 1.0, 1.0])
    sup = np.array([1.0, 1.0])
    rhs = np.array([1.0, 2.0, 3.0])
    factor = _tridiag_lu_factor(sub, diag, sup)
    assert factor[4][0]
    ours = _tridiag_lu_solve(factor, rhs)
    dense = _lu_solve(_lu_factor(_dense_tridiag(sub, diag, sup), fix_singular=True),
                      rhs)
    assert np.abs(ours - dense).max() <= 1e-12 * np.abs(dense).max()


def test_tridiag_rayleigh_iteration_settles_on_the_eigenvalues():
    # pseudo-Jacobi: J^T = D J D^-1 with D = diag((-1)^j), so y = D x is the
    # left eigenvector; from shifts off by 1e-4 the quotient settles on the
    # eigenvalues, real shifts stay real and the residuals are at the final values
    rng = np.random.default_rng(5)
    n = 40
    off = rng.uniform(0.2, 0.6, n - 1)
    sub, diag, sup = off, 2.0 * np.arange(n) + rng.uniform(0, 0.2, n), -off
    m = _dense_tridiag(sub, diag, sup)
    exact = np.sort_complex(np.linalg.eigvals(m))[:3]
    assert np.all(exact.imag == 0)
    left = (-1.0) ** np.arange(n)
    report = tridiag_rayleigh_iteration(sub, diag, sup, left, exact.real + 1e-4)
    assert report.converged
    assert 1 < report.iterations <= linalg.QUOTIENT_ROUNDS
    assert np.all(report.values.imag == 0)
    assert np.abs(report.values - exact).max() < 1e-12
    for i, lam in enumerate(report.values):
        # at the shifts the residuals would be about 1e-4
        assert report.residuals[i] == pytest.approx(
            residual(m, lam, report.vectors[:, i]), abs=1e-12)
    with pytest.raises(ValueError):
        tridiag_rayleigh_iteration(sub + 0j, diag, sup, left, exact)


def test_tridiag_eigenvectors_meet_residual_contract():
    # random sections whose lowest values are complex pairs or real, started
    # at their QR values: unit vectors that meet the residual contract
    rng = np.random.default_rng(43)
    for n in (2, 9, 30):
        off = rng.uniform(0.5, 1.5, n - 1)
        sub, diag, sup = off, rng.standard_normal(n), -off
        m = _dense_tridiag(sub, diag, sup)
        values = eig_dense(m).values[:3]
        report = tridiag_rayleigh_iteration(sub, diag, sup, (-1.0) ** np.arange(n),
                                            values)
        assert report.converged
        assert report.vectors.shape == (n, len(values))
        assert np.all(report.values[values.imag == 0].imag == 0)
        exact = np.linalg.eigvals(m)
        scale = np.sqrt((np.abs(m) ** 2).sum())
        for i, lam in enumerate(report.values):
            v = report.vectors[:, i]
            assert np.abs(exact - lam).min() < 1e-12
            assert abs(np.sqrt((np.abs(v) ** 2).sum()) - 1.0) < 1e-12
            assert residual(m, lam, v) < 1e-8 * scale
            assert report.residuals[i] < 1e-8 * scale


def test_tridiag_rayleigh_iteration_factors_once_per_value_and_round(monkeypatch):
    # one LU of J - s I at each current value s, unperturbed, per round
    rng = np.random.default_rng(5)
    n = 40
    off = rng.uniform(0.2, 0.6, n - 1)
    sub, diag, sup = off, 2.0 * np.arange(n) + rng.uniform(0, 0.2, n), -off
    shifts = np.array([0.01, 2.0, 4.3])
    shifted = []
    factor = linalg._tridiag_lu_factor

    def counted(lower, d, upper):
        shifted.append(d)
        return factor(lower, d, upper)

    monkeypatch.setattr(linalg, "_tridiag_lu_factor", counted)
    report = tridiag_rayleigh_iteration(sub, diag, sup, (-1.0) ** np.arange(n),
                                        shifts)
    assert report.iterations > 1
    assert len(shifted) == report.iterations * len(shifts)
    for d, shift in zip(shifted, shifts):
        assert np.array_equal(d, diag - shift)


def test_tridiag_rayleigh_iteration_keeps_the_iterate_past_a_failed_solve():
    # J - 0 I is a nilpotent upper bidiagonal: every pivot is raised to the
    # tiny value and back substitution overflows to inf - inf; the round
    # keeps the previous unit iterate instead of a nan vector
    n = 60
    report = tridiag_rayleigh_iteration(np.zeros(n - 1), np.zeros(n), np.ones(n - 1),
                                        np.ones(n), [0.0])
    assert np.all(np.isfinite(report.vectors))
    assert np.all(np.isfinite(report.residuals))
    assert not report.converged


def test_tridiag_rayleigh_iteration_rejects_mismatched_diagonals():
    with pytest.raises(ValueError):
        tridiag_rayleigh_iteration(np.ones(3), np.ones(3), np.ones(2), [1.0],
                                   [1.0])


def test_sym_tridiag_trivial_diagonal():
    report = eig_sym_tridiag([1.0, 3.0, 5.0], [0.0, 0.0])
    assert np.allclose(report.values.real, [1.0, 3.0, 5.0])
    assert np.abs(report.values.imag).max() == 0.0


def test_sym_tridiag_two_by_two_coupling():
    report = eig_sym_tridiag([0.0, 0.0], [1.0])
    assert np.allclose(report.values.real, [-1.0, 1.0])


def test_sym_tridiag_matches_eigvalsh():
    rng = np.random.default_rng(29)
    for n in (5, 12, 40):
        d = rng.standard_normal(n)
        e = rng.standard_normal(n - 1)
        full = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        ours = eig_sym_tridiag(d, e)
        assert np.abs(ours.values.real - np.linalg.eigvalsh(full)).max() < 1e-9


def test_biorthonormalize_identity_gram():
    # matched left/right eigenvector families of a matrix with a real simple
    # spectrum give the full identity after rescaling
    rng = np.random.default_rng(31)
    v = np.eye(5) + 0.2 * rng.standard_normal((5, 5))
    m = v @ np.diag([1.0, 2.0, 3.0, 4.0, 5.0]) @ np.linalg.inv(v)
    vals, phi = np.linalg.eig(m)
    adj_vals, psi = np.linalg.eig(m.T.conj())
    phi = phi[:, np.argsort(vals.real)]
    psi = psi[:, np.argsort(adj_vals.real)]
    _, _, gram = biorthonormalize(phi, psi)
    assert np.abs(gram - np.eye(5)).max() < 1e-8


def test_biorthonormalize_hand_case():
    phi = np.array([[1.0, 0.0], [0.0, 2.0]])
    psi = np.array([[2.0, 0.0], [0.0, 1.0]])
    p, q, gram = biorthonormalize(phi, psi)
    assert np.allclose(gram, np.eye(2))
    assert np.allclose(p, phi)
    assert np.allclose(q, [[1.0, 0.0], [0.0, 0.5]])


def test_biorthonormalize_compensates_right_rescaling():
    # only the diagonal of the gram is normalized for arbitrary families, and
    # rescaling a right column shows up as the inverse scale on the left one
    rng = np.random.default_rng(37)
    phi = rng.standard_normal((4, 4)) + np.eye(4) * 3
    psi = rng.standard_normal((4, 4)) + np.eye(4) * 3
    _, q_base, _ = biorthonormalize(phi, psi)
    scaled = phi.copy()
    scaled[:, 2] *= 5.0
    _, q_scaled, gram = biorthonormalize(scaled, psi)
    assert np.abs(np.diag(gram) - 1.0).max() < 1e-12
    assert np.allclose(q_scaled[:, 2], q_base[:, 2] / 5.0)


def test_biorthonormalize_rejects_orthogonal_pair():
    phi = np.array([[1.0, 0.0], [0.0, 1.0]])
    psi = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="Gram"):
        biorthonormalize(phi, psi)


def test_multiset_distance_is_order_free():
    assert multiset_distance([1.0, 2.0, 3.0], [3.0, 1.0, 2.0]) == 0.0
    assert multiset_distance([1.0, 1.0], [1.0, 1.1]) == pytest.approx(0.1)


def test_multiset_distance_rejects_size_mismatch():
    with pytest.raises(ValueError):
        multiset_distance([1.0], [1.0, 2.0])

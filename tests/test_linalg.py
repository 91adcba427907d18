"""Kernel checks against numpy.linalg as an independent oracle.

The library itself never imports numpy.linalg; these tests are the one place
where the hand-rolled QR/QL/LU routines are compared against it.
"""

import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoboson import linalg
from pseudoboson.linalg import (
    norm2,
    _tridiag_solve,
    biorthonormalize,
    eig_dense,
    eig_sym_tridiag,
    multiset_distance,
    residual,
    solve_matrix,
    tridiag_rayleigh_iteration,
)
from pseudoboson.model import ModelParams
from pseudoboson.sectors import (
    SectorSpec,
    hermitian_sector_tridiag,
    pseudo_jacobi,
    pseudo_jacobi_diagonals,
)
from pseudoboson.similarity import verify_similarity

TRIDIAG_SOLVE_CORPUS_SHA256 = (
    "939ceda9910834e4a3e0162d0d0a5e7f21e5326207e1777604bcd28ad67d8f16")
QL_CORPUS_SHA256 = (
    "86ec848eddf79f4ad6117f02e004daf58362a41d2ec681596fb17a4af96519f2")


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


@pytest.mark.parametrize("f, g", [(1.3e308 + 1.3e308j, 1.0 + 0j),
                                  (1.0 + 0j, 1.3e308 - 1.3e308j),
                                  (0j, 1.3e308 + 1.3e308j)])
def test_givens_past_overflow_gives_a_nan_or_zero_rotation(f, g):
    # a pair with finite parts whose modulus overflows, where Python's abs()
    # raises OverflowError: the rotation turns nan or zero, as it does on
    # numpy scalars, so QR stalls and raises at its sweep cap instead
    c, s = linalg._givens(f, g)
    assert math.isnan(c) or (c == 0.0 and s == 0)


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
# updates and each Givens rotation as one 2x2 product per side on copied rows
# and columns. Each works on H = W[nz:]; with Z stacked above H (nz = n) the
# rows run to the last column and the columns start at Z's first row. The
# sweeps must give the same bits.

def _reference_extents(W, nz, lo, k, w, r1, m):
    """Row block and column block of a step at block rows lo + k .. lo + k +
    w - 1: the rows from column lo + max(k - 1, 0), the columns down to block
    row r1 - 1."""
    end = W.shape[1] if nz else lo + m
    first = 0 if nz else lo
    rows = (slice(nz + lo + k, nz + lo + k + w), slice(lo + max(k - 1, 0), end))
    cols = (slice(first, nz + lo + r1), slice(lo + k, lo + k + w))
    return rows, cols


def _reference_reflector(W, nz, lo, k, col, m):
    x = np.array(col)
    xnorm = norm2(x)
    if xnorm == 0.0:
        return None
    v = x.copy()
    v[0] += (v[0] / abs(v[0]) if v[0] != 0 else 1.0) * xnorm
    v = v / norm2(v)
    rows, cols = _reference_extents(W, nz, lo, k, len(v), min(k + len(v) + 1, m), m)
    W[rows] -= 2.0 * np.outer(v, v.conj() @ W[rows])
    W[cols] -= 2.0 * np.outer(W[cols] @ v, v.conj())
    return v


def _reference_francis_sweep(W, lo, hi, stall, nz=0):
    H = W[nz:]
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
    m = hi - start + 1
    col = linalg._first_column(*diagonals, start, *shifts)
    for k in range(m - 1):
        v = _reference_reflector(W, nz, start, k, col, m)
        if k == 0 and nz and start > lo and v is not None:
            # the entry left of the first reflector, outside its rows
            H[start, start - 1] *= 1.0 - 2.0 * v[0] * v[0]
        col = H[start + k + 1:start + k + 4, start + k]


def _reference_wilkinson_sweep(W, lo, hi, stall, nz=0):
    B = W[nz + lo:nz + hi + 1, lo:hi + 1]
    m = B.shape[0]
    if stall % 11 == 0:
        sigma = B[m - 1, m - 1] + 0.75 * abs(B[m - 1, m - 2])
    else:
        e1, e2 = linalg._eig2_complex(B[m - 2, m - 2], B[m - 2, m - 1],
                                      B[m - 1, m - 2], B[m - 1, m - 1])
        corner = B[m - 1, m - 1]
        sigma = e1 if abs(e1 - corner) <= abs(e2 - corner) else e2
    x, z = complex(B[0, 0] - sigma), complex(B[1, 0])
    for k in range(m - 1):
        c, s = linalg._givens(x, z)
        G = np.array([[c, s], [-np.conj(s), c]])
        rows, cols = _reference_extents(W, nz, lo, k, 2, min(k + 3, m), m)
        W[rows] = G @ W[rows].copy()
        W[cols] = W[cols].copy() @ G.conj().T
        if k < m - 2:
            x, z = complex(B[k + 1, k]), complex(B[k + 2, k])


@pytest.mark.parametrize("stall", [1, 11])
@pytest.mark.parametrize("case", ["graded", "1e+120", "1e-120", "split", "vector"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_sweeps_match_the_reference_step_bit_for_bit(dtype, case, stall):
    # one sweep on the unreduced block 1..12 of a seeded 14x14 Hessenberg
    # matrix; "split" has two small consecutive subdiagonals, below which the
    # Francis bulge starts under the exceptional shift (stall 11); "vector"
    # is the split matrix in vector mode, W = [I; H] with nz = n, whose rows
    # run to the last column and whose columns start at Z's first row
    rng = np.random.default_rng(53)
    n = 14
    m = rng.standard_normal((n, n))
    if dtype is complex:
        m = m + 1j * rng.standard_normal((n, n))
    m = np.triu(m, -1)
    if case == "graded":
        grade = 0.3 ** np.arange(n)
        m *= np.outer(grade, grade)
    elif case in ("split", "vector"):
        m[6, 5] = m[7, 6] = 1e-9
    else:
        m *= float(case)
    m[1, 0] = m[13, 12] = 0.0
    nz = n if case == "vector" else 0
    if nz:
        m = np.vstack([np.eye(n, dtype=m.dtype), m])
    ours, ref = m.copy(), m.copy()
    if dtype is float:
        linalg._francis_sweep(ours, 1, 12, stall, nz)
        _reference_francis_sweep(ref, 1, 12, stall, nz)
    else:
        linalg._wilkinson_sweep(ours, 1, 12, stall, nz)
        _reference_wilkinson_sweep(ref, 1, 12, stall, nz)
    assert not np.array_equal(ours, m)
    if nz:
        # the Schur vectors took the transform, and H outside the block did
        assert not np.array_equal(ours[:n], m[:n])
        assert not np.array_equal(ours[n:, 13], m[n:, 13])
    assert np.array_equal(ours, ref)


@pytest.mark.parametrize("n, graded", [(8, False), (24, True), (48, False)])
def test_complex_schur_form_at_theorem1_sizes(n, graded):
    # vector-mode Wilkinson QR on W = [I; A] leaves the Schur form
    # A = Z T Z^H; the residue each rotation leaves where it annihilates its
    # bulge entry stays below T's subdiagonal, which deflation zeroes
    rng = np.random.default_rng(71 + n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if graded:
        grade = 0.5 ** np.arange(n)
        a *= np.outer(grade, grade)
    W = np.vstack([np.eye(n, dtype=complex), a])
    linalg._hessenberg(W, n)
    eigs, _ = linalg._qr_eigenvalues(W, linalg.MAX_SWEEPS_PER_DIM * n,
                                     linalg._wilkinson_sweep, nz=n)
    Z, T = W[:n], W[n:]
    eps = np.finfo(float).eps
    assert norm2(Z.conj().T @ Z - np.eye(n)) <= 8 * n * eps
    assert norm2(Z @ T @ Z.conj().T - a) <= 8 * n * eps * norm2(a)
    assert not np.any(T.diagonal(-1))
    assert norm2(np.tril(T, -2)) <= 8 * n * eps * norm2(a)
    assert np.array_equal(np.sort_complex(eigs), np.sort_complex(T.diagonal()))


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


def test_eig_dense_raises_on_a_missed_residual_contract(monkeypatch):
    # no residual is below a zero tolerance, so every pair misses it
    monkeypatch.setattr(linalg, "RESIDUAL_TOL", 0.0)
    m = np.random.default_rng(19).standard_normal((8, 8))
    assert eig_dense(m).values.shape == (8,)
    with pytest.raises(RuntimeError, match=r"^Schur eigenvectors missed the "
                       r"residual contract on a 8x8 matrix \(worst residual "):
        eig_dense(m, want_vectors=True)


def test_eig_dense_vectors_of_a_subnormal_matrix():
    # T is scaled up by 2^1062, past the largest power of two a float holds
    report = eig_dense(np.diag([1e-320, 2e-320]), want_vectors=True)
    assert np.array_equal(report.values, [1e-320, 2e-320])
    assert np.array_equal(report.residuals, [0.0, 0.0])


def test_eig_dense_nan_residuals_miss_the_contract():
    # the values come out wrong here and the unit vectors nan (ROADMAP item
    # 6); a nan residual is a miss, never a pass
    m = np.array([[4e-320, 1e-320], [1e-320, 2e-320]])
    with np.errstate(all="ignore"), pytest.raises(
            RuntimeError, match="missed the residual contract"):
        eig_dense(m, want_vectors=True)


def _near_pair_upper_triangular() -> np.ndarray:
    # diagonal 1, 2, 3, 3 + delta, 5 with delta = 1e-10 ||m||_F: two values
    # closer than RESIDUAL_TOL ||m||_F, whose vectors take no refinement step
    # along each other
    m = np.triu(np.ones((5, 5)), 1) + np.diag([1.0, 2.0, 3.0, 3.0, 5.0])
    for _ in range(3):
        m[3, 3] = 3.0 + 1e-10 * norm2(m)
    return m


@pytest.mark.parametrize("m", [
    pytest.param(np.array([[2.0, 1.0], [0.0, 2.0]]), id="jordan"),
    pytest.param(np.zeros((3, 3)), id="zero"),
    pytest.param(np.diag([1.0, 1.0, 3.0]), id="repeated"),
    pytest.param(_near_pair_upper_triangular(), id="near-pair"),
    # two values, each a Jordan chain of four: the refinement step, inaccurate
    # in so ill-conditioned a basis, must be refused column by column
    pytest.param(np.triu(np.random.default_rng(0).standard_normal((8, 8)), 1)
                 + np.diag([-0.8, -0.8, -0.8, -0.8, 0.4, 0.4, 0.4, 0.4]),
                 id="two-chains"),
    # nilpotent: the back substitution's columns grow like (1/eps)^k and must
    # be scaled before they overflow
    pytest.param(np.triu(np.random.default_rng(67).standard_normal((40, 40)), 1),
                 id="nilpotent"),
])
def test_schur_eigenvector_edge_cases(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = eig_dense(m, want_vectors=True)
    n = m.shape[0]
    assert report.vectors.shape == (n, n) and np.all(np.isfinite(report.vectors))
    bound = linalg.RESIDUAL_TOL * max(norm2(m), np.finfo(float).eps)
    assert np.all(report.residuals <= bound)
    for i, lam in enumerate(report.values):
        assert report.residuals[i] == pytest.approx(
            residual(m, lam, report.vectors[:, i]), rel=1e-12, abs=1e-300)


def test_eig_dense_repeated_eigenvalue_gets_a_basis():
    # each copy of 1 gets its own Schur vector, so the two span its eigenspace
    report = eig_dense(np.diag([1.0, 1.0, 3.0]), want_vectors=True)
    assert np.linalg.matrix_rank(report.vectors) == 3


def _real_spectrum_matrix(rng, n, complex_basis=False):
    # V D V^-1 with V = I + 0.25 R / sqrt(n) and distinct real D, as the
    # theorem1 inputs of the benchmark are drawn
    r = rng.uniform(-1.0, 1.0, (n, n))
    if complex_basis:
        r = r + 1j * rng.uniform(-1.0, 1.0, (n, n))
    v = np.eye(n) + 0.25 * r / np.sqrt(n)
    d = np.arange(n) + 0.2 * rng.uniform(0.0, 1.0, n)
    return np.linalg.solve(v.T, (v * d).T).T


def test_vector_mode_francis_start_below_the_block_top(monkeypatch):
    # a Francis sweep that starts below its block top must scale the entry
    # left of its first reflector once it transforms H whole; without that
    # this matrix's vector-mode values drift and its vectors miss the
    # residual contract
    m = _real_spectrum_matrix(np.random.default_rng(0), 16)
    sweeps = []
    sweep, slabs = linalg._francis_sweep, linalg._slabs

    def recorded_sweep(W, lo, hi, stall, nz=0):
        sweeps.append([nz, lo])
        return sweep(W, lo, hi, stall, nz)

    def recorded_slabs(W, nz, top, hi):
        sweeps[-1].append(top)
        return slabs(W, nz, top, hi)

    monkeypatch.setattr(linalg, "_francis_sweep", recorded_sweep)
    monkeypatch.setattr(linalg, "_slabs", recorded_slabs)
    report = eig_dense(m, want_vectors=True)
    assert any(nz and top > lo for nz, lo, top in sweeps)
    values = eig_dense(m).values
    bound = 64 * 16 * np.finfo(float).eps * norm2(m)
    assert np.abs(report.values - values).max() <= bound
    assert report.residuals.max() <= bound


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 24), complex_basis=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_schur_eigenvectors_build_the_similarity_to_rounding(n, complex_basis, seed):
    m = _real_spectrum_matrix(np.random.default_rng(seed), n, complex_basis)
    contract = linalg.RESIDUAL_TOL * norm2(m)
    for matrix in (m, m.conj().T):
        assert eig_dense(matrix, want_vectors=True).residuals.max() <= contract
    similarity = verify_similarity(m)
    bound = 64 * n * np.finfo(float).eps
    assert similarity.biorth_error <= bound
    assert similarity.similarity_error <= bound


def test_vector_mode_rotates_an_undeflated_real_pair():
    # the 2x2 block with subdiagonal 2.1e-11 stays undeflated, and its
    # rotation to triangular form must use the root farther from its (2,2)
    # entry: the nearer one cancels and leaves a Schur error near 1e-3
    m = np.triu(np.random.default_rng(61).uniform(-1.0, 1.0, (6, 6)))
    m[2:4, 2:4] = [[12.12, 0.2449], [2.1e-11, 20.11]]
    report = eig_dense(m, want_vectors=True)
    n = m.shape[0]
    bound = 64 * n * np.finfo(float).eps * norm2(m)
    assert report.residuals.max() <= bound
    assert multiset_distance(report.values, np.linalg.eigvals(m)) <= bound
    assert multiset_distance(report.values, eig_dense(m).values) <= bound
    for i, lam in enumerate(report.values):
        assert residual(m, lam, report.vectors[:, i]) <= bound


def _dense_tridiag(sub, diag, sup):
    return np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)


def test_tridiag_solve_matches_dense_solve():
    rng = np.random.default_rng(41)
    # a zero first pivot: only the row swap, with its fill in the second
    # superdiagonal of U and the swap of the right-hand side, solves this
    ones = np.ones(3)
    rhs = np.array([1.0, -2.0, 0.5, 4.0])
    exact = np.linalg.solve(_dense_tridiag(ones, np.arange(4.0), ones), rhs)
    assert np.abs(_tridiag_solve(ones, np.arange(4.0), ones, rhs) - exact).max() < 1e-14
    for n in (1, 2, 3, 8, 12):
        for sub_scale in (0.1, 10.0):
            # a large subdiagonal forces row swaps and fill in the second
            # superdiagonal of U; it also makes the condition number grow
            # like sub_scale^n, hence the small sizes
            sub = sub_scale * rng.standard_normal(n - 1)
            diag = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            sup = rng.standard_normal(n - 1)
            rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            ours = _tridiag_solve(sub, diag, sup, rhs)
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
    w = _tridiag_solve(sub, shifted, sup, np.ones(3) + 1e-3 * np.arange(3))
    assert np.all(np.isfinite(w))
    v = w / np.sqrt((np.abs(w) ** 2).sum())
    assert residual(_dense_tridiag(sub, 2.0 * np.ones(3), sup), 2.0, v) < 1e-10


def test_tridiag_tiny_pivot_fallback_matches_dense():
    # both candidates of the first pivot are below tiny = 8 n eps and the
    # subdiagonal one is larger: it is raised to tiny and the rows swap, so
    # the solve is that of the matrix with tiny written in its place
    sub = np.array([1e-20, 1.0])
    diag = np.array([0.0, 1.0, 1.0])
    sup = np.array([1.0, 1.0])
    rhs = np.array([1.0, 2.0, 3.0])
    ours = _tridiag_solve(sub, diag, sup, rhs)
    raised = _dense_tridiag(sub, diag, sup)
    raised[1, 0] = 8 * 3 * np.finfo(float).eps
    dense = np.linalg.solve(raised, rhs)
    assert np.abs(ours - dense).max() <= 1e-12 * np.abs(dense).max()


def _tridiag_solve_corpus() -> list:
    """97 (sub, diag, sup, rhs) systems: for n in 1, 2, 3, 4, 8, 17, 40, 120,
    240 and subdiagonal scale 0.01, 0.3, 1, 10, 100, a real and a complex
    diagonal, then seven edge cases (a zero matrix, a zero shifted diagonal,
    the both-candidates-tiny first pivot, the 60-row nilpotent bidiagonal,
    diag [0, 1, 2, 3] with unit off-diagonals and two 1x1 systems)."""
    rng = np.random.default_rng(2024)
    systems = []
    for n, scale, cplx in itertools.product((1, 2, 3, 4, 8, 17, 40, 120, 240),
                                            (0.01, 0.3, 1.0, 10.0, 100.0),
                                            (False, True)):
        sub = scale * rng.standard_normal(n - 1)
        diag = rng.standard_normal(n) + (1j * rng.standard_normal(n) if cplx else 0)
        sup = rng.standard_normal(n - 1)
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        systems.append((sub, diag, sup, rhs))
    ones = np.ones(3)
    systems += [
        (np.zeros(3), np.zeros(4), np.zeros(3), np.ones(4)),
        (np.ones(2), np.zeros(3), np.ones(2), np.ones(3) + 1e-3 * np.arange(3)),
        (np.array([1e-20, 1.0]), np.array([0.0, 1.0, 1.0]), np.ones(2),
         np.array([1.0, 2.0, 3.0])),
        (np.zeros(59), np.zeros(60), np.ones(59), np.ones(60)),
        (ones, np.arange(4.0), ones, np.array([1.0, -2.0, 0.5, 4.0])),
        (np.zeros(0), np.array([0.0]), np.zeros(0), np.array([2.0])),
        (np.zeros(0), np.array([-1.5 + 2j]), np.zeros(0), np.array([3.0 - 1j])),
    ]
    return systems


def _ql_corpus() -> list:
    """(diag, offdiag) inputs of `eig_sym_tridiag`: the Hermitian cousin at
    depths 30 to 80 on both sides of |lam| = 1, the phase-similar complex
    symmetric pseudo-Jacobi sections of k = -2..2 at depths 30 to 240, and
    seeded random complex symmetric tridiagonals."""
    inputs = []
    for depth, k, lam in itertools.product((30, 45, 60, 80), (-1, 0, 2),
                                           (0.3, 0.99, 1.2)):
        inputs.append(hermitian_sector_tridiag(SectorSpec(k, depth), 0.5, lam))
    for depth, k in itertools.product((30, 60, 120, 240), range(-2, 3)):
        sub, diag, _ = pseudo_jacobi_diagonals(SectorSpec(k, depth),
                                               ModelParams(0.5, 0.75))
        inputs.append((diag, 1j * sub))
    rng = np.random.default_rng(1996)
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 55):
        for _ in range(3):
            inputs.append((rng.standard_normal(n) + 1j * rng.standard_normal(n),
                           rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)))
    return inputs


def test_tridiag_solve_keeps_its_bits_on_a_corpus():
    # sha256 of the solutions, recorded from the element-wise solver: every
    # operand and its order must stay, so that no bit moves
    digest = hashlib.sha256()
    for system in _tridiag_solve_corpus():
        digest.update(_tridiag_solve(*system).tobytes())
    assert digest.hexdigest() == TRIDIAG_SOLVE_CORPUS_SHA256


def test_sym_tridiag_keeps_its_bits_on_a_corpus():
    # sha256 of the values and sweep counts, recorded from the scan that took
    # two diagonal moduli per row: every operand and its order must stay
    digest = hashlib.sha256()
    for diag, offdiag in _ql_corpus():
        report = eig_sym_tridiag(diag, offdiag)
        digest.update(report.values.tobytes() + str(report.iterations).encode())
    assert digest.hexdigest() == QL_CORPUS_SHA256


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
    # one solve of J - s I at each current value s, unperturbed, per round
    rng = np.random.default_rng(5)
    n = 40
    off = rng.uniform(0.2, 0.6, n - 1)
    sub, diag, sup = off, 2.0 * np.arange(n) + rng.uniform(0, 0.2, n), -off
    shifts = np.array([0.01, 2.0, 4.3])
    shifted = []
    solve = linalg._tridiag_solve

    def counted(lower, d, upper, rhs):
        shifted.append(d)
        return solve(lower, d, upper, rhs)

    monkeypatch.setattr(linalg, "_tridiag_solve", counted)
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


def _assert_near_oracle(d, e, values, factor):
    # each value within the first-order bound kappa * (backward error
    # factor n eps ||S||_F) of an eigenvalue of the complex symmetric S that
    # numpy.linalg.eig finds; the left eigenvector of S is x itself, so
    # kappa = ||x||^2 / |x^T x|
    s = np.diag(d).astype(complex) + np.diag(e, 1) + np.diag(e, -1)
    w, vecs = np.linalg.eig(s)
    backward = (factor * len(d) * np.finfo(float).eps
                * np.sqrt(np.sum(np.abs(s) ** 2)))
    for value in values:
        j = np.argmin(np.abs(w - value))
        x = vecs[:, j]
        kappa = np.sum(np.abs(x) ** 2) / abs(np.sum(x * x))
        assert abs(value - w[j]) <= kappa * backward


@pytest.mark.parametrize("depth", [8, 15, 30, 60])
def test_complex_symmetric_ql_matches_eigvals_on_pseudo_jacobi_sections(depth):
    # with E = diag(i^j), E^-1 J E has J's diagonal and i sub on both
    # off-diagonals; its four lowest values meet the first-order bound with
    # backward error 10 n eps ||S||_F (they reach 0.17 of it), and at depth
    # <= 15 the whole multiset agrees with the eigenvalues of the real J to
    # 1e-11 (they reach 1.2e-12)
    for beta, gamma, k in itertools.product((-1.2, 0.5), (0.2, 0.75, 1.5, 3.0),
                                            (-1, 0, 3)):
        spec, p = SectorSpec(k, depth), ModelParams(beta, gamma)
        sub, diag, _ = pseudo_jacobi_diagonals(spec, p)
        report = eig_sym_tridiag(diag, 1j * sub)
        assert report.converged
        assert np.array_equal(report.values, np.sort_complex(report.values))
        _assert_near_oracle(diag, 1j * sub, report.values[:4], 10)
        if depth <= 15:
            oracle = np.linalg.eigvals(pseudo_jacobi(spec, p))
            assert multiset_distance(report.values, oracle) < 1e-11


def test_complex_symmetric_ql_matches_eigvals_on_random_tridiagonals():
    # complex orthogonal rotations are not unitary, so no backward error
    # bound holds in general: over 400 random draws of n < 40 the worst value
    # sat at a median of 1.3, a 99th percentile of 136 and a maximum of 3.1e3
    # times kappa n eps ||S||_F. These seeded draws stay within 100 times it.
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 5, 8, 13, 21, 34):
        for _ in range(3):
            d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            e = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
            report = eig_sym_tridiag(d, e)
            assert report.converged
            assert len(report.values) == n
            _assert_near_oracle(d, e, report.values, 100)


def _quiet_ql(diag, offdiag):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return eig_sym_tridiag(diag, offdiag)


def test_complex_ql_breakdown_raises():
    # a rotation with f^2 + g^2 = 0 and f, g != 0: in a 3x3 block the first
    # rotation of the first sweep, f = 1 and g = i, meets it although the
    # matrix has three distinct eigenvalues
    with pytest.raises(RuntimeError, match=r"^QL did not converge on a 3x3 "
                       r"tridiagonal after 1 sweeps \(breakdown\)$"):
        _quiet_ql(np.array([0, 0, -1 + 1j]), np.array([1 + 0j, 1]))
    # at gamma 1e154 the squares of the off-diagonal reach the overflow
    # threshold and QL stalls on the first value
    for depth in (4, 16):
        sub, diag, _ = pseudo_jacobi_diagonals(SectorSpec(0, depth),
                                               ModelParams(0.5, 1e154))
        with pytest.raises(RuntimeError, match=rf"^QL did not converge on a "
                           rf"{depth}x{depth} tridiagonal after 51 sweeps$"):
            _quiet_ql(diag, 1j * sub)


@pytest.mark.parametrize("diag, offdiag, expected", [
    # [[1, i], [i, -1]] is nilpotent and [[1, i], [i, 3]] has the double
    # eigenvalue 2; the rotation of either breaks down in the first sweep
    ([1.0, -1.0], [1j], 0.0),
    ([1.0, 3.0], [1j], 2.0),
])
def test_complex_ql_defective_two_by_two_gives_its_double_eigenvalue(
        diag, offdiag, expected):
    report = _quiet_ql(diag, offdiag)
    assert np.array_equal(report.values, [expected, expected])
    assert report.iterations == 1


@pytest.mark.parametrize("diag, offdiag", [
    ([np.nan, 1.0], [0.0]),
    ([np.nan, 1.0], [1.0]),
    ([np.inf, 1.0], [1.0]),
    ([np.nan + 0j, 1.0], [1j]),
    ([np.inf + 0j, 1.0], [0j]),
    # finite entries whose modulus overflows: abs() would raise
    ([1.5e308 + 1.5e308j, 1.0], [1e308j]),
    ([1.0, 2.0, 3.0], [1e200 + 1e200j, 1e200j]),
])
def test_ql_on_non_finite_values_is_unconverged(diag, offdiag):
    with pytest.raises(RuntimeError, match=rf"^QL did not converge on a "
                       rf"{len(diag)}x{len(diag)} tridiagonal after \d+ "
                       rf"sweeps \(non-finite value\)$"):
        _quiet_ql(diag, offdiag)


@settings(max_examples=300)
@given(st.sampled_from([st.floats(), st.complex_numbers()]).flatmap(
    lambda entry: st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.lists(entry, min_size=n, max_size=n),
        st.lists(entry, min_size=n - 1, max_size=n - 1)))))
def test_ql_raises_only_runtime_error(entries):
    # any real or complex entries, huge, tiny, infinite or NaN: finite
    # sorted values, or a RuntimeError that names QL; never another
    # exception or a warning
    diag, offdiag = entries
    try:
        report = _quiet_ql(np.array(diag),
                           np.array(offdiag, dtype=np.array(diag).dtype))
    except RuntimeError as exc:
        assert str(exc).startswith(f"QL did not converge on a {len(diag)}x{len(diag)} ")
        return
    assert len(report.values) == len(diag)
    assert np.all(np.isfinite(report.values))
    assert np.array_equal(report.values, np.sort_complex(report.values))


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

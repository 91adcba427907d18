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
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoboson import linalg
from pseudoboson.emm import model_emm_matrix
from pseudoboson.fock import TruncationSpec
from pseudoboson.linalg import (
    norm2,
    _tridiag_solve,
    biorthonormalize,
    eig_dense,
    eig_sym_tridiag,
    multiset_distance,
    residual,
    solve_matrix,
    sym_tridiag_lowest,
    tridiag_rayleigh_iteration,
)
from pseudoboson.model import ModelParams, build_hamiltonian
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
    "4743fa0d21415b2a359d43394893cee6b8096fb5f12474d95ef5da7a7d49f5e5")
DENSE_QR_CORPUS_SHA256 = {
    "real": "d2eff6cf48c657dbb758c9c570f456a346662306bd322f5b7532e391bf5c424c",
    "complex": "c1d6e65d1d5ae706a43e3173b288e9c6ebe1039bada0e9933acb65d8584cc339",
}


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


@pytest.mark.parametrize("dtype, split", [(float, 1), (complex, 1)])
def test_eig_dense_raises_at_the_sweep_cap(monkeypatch, dtype, split):
    # a zero subdiagonal splits off a 3-row block that still needs sweeps (a
    # 2x2 block closes without one); at the cap both paths raise instead of
    # returning undeflated diagonal entries
    rng = np.random.default_rng(47)
    m = np.triu(rng.standard_normal((4, 4)), -1).astype(dtype)
    if dtype is complex:
        m += 1j * np.triu(rng.standard_normal((4, 4)), -1)
    m[split, split - 1] = 0.0
    monkeypatch.setattr(linalg, "MAX_SWEEPS_PER_DIM", 0)
    with pytest.raises(RuntimeError, match="4x4 matrix after 0 sweeps"):
        eig_dense(m)


@pytest.mark.parametrize("col", [[1.3e308 + 1.3e308j, 1.0 + 0j, 0j],
                                 [1.0 + 0j, 1.3e308 - 1.3e308j],
                                 [0j, 1.3e308 + 1.3e308j, 0j]],
                         ids=["huge-head", "huge-tail", "zero-head"])
def test_complex_reflector_past_overflow_gives_a_nan_step(col):
    # a bulge column with finite parts whose modulus overflows, where Python's
    # abs() raises OverflowError: the reflector turns nan, and the complex
    # bulge step forms and applies it raising nothing and warning of
    # nothing; dense QR scales its input so that no such column arises there
    block = np.zeros((4, 4), dtype=complex)
    block[:len(col), 0] = col
    block[:len(col), 1] = col[::-1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tau = linalg._bulge_step(block, block, 0, 0, col, 4)
    assert math.isnan(tau.real) or math.isnan(tau.imag)
    assert not np.all(np.isfinite(block))


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


# Reference copies of the bulge steps in array code: numpy arrays and
# scalars, LAPACK's reflector I - tau u u^H with u[0] = 1 (zlarfg) and u[1:]
# built by division. The real step builds U = np.outer(tau u, u) and updates
# rows -= U rows and cols -= cols U in place; the complex step builds
# P = I - np.outer(tau u, u^H) and applies it as one product per side on
# copied rows and columns. Its column, u and P are object arrays of Python
# complex scalars, so that each entry rounds as the sweep's scalar arithmetic
# does: numpy's vectorized complex multiply may fuse its multiply-adds, and
# its complex division multiplies by a reciprocal. Each works on
# H = W[nz:], with Z stacked above H (nz = n) or without it (nz = 0); either
# way the rows run to the last column and the columns start at W's first
# row. The sweeps must give the same bits.

def _reference_extents(W, nz, lo, k, w, r1):
    """Row block and column block of a step at block rows lo + k .. lo + k +
    w - 1: the rows from column lo + max(k - 1, 0) to the last, the columns
    from the first row of W down to block row r1 - 1."""
    rows = (slice(nz + lo + k, nz + lo + k + w), slice(lo + max(k - 1, 0), None))
    cols = (slice(0, nz + lo + r1), slice(lo + k, lo + k + w))
    return rows, cols


def _reference_reflector(W, nz, lo, k, col, m):
    x = np.array(col)
    alpha = x[0]
    if not np.any(x[1:]) and np.imag(alpha) == 0:
        return None
    beta = norm2(x) if np.real(alpha) < 0 else -norm2(x)
    u = x / (alpha - beta)
    u[0] = 1.0
    tau = (beta - alpha) / beta
    U = np.outer(tau * u, u)
    rows, cols = _reference_extents(W, nz, lo, k, len(u), min(k + len(u) + 1, m))
    W[rows] -= U @ W[rows]
    W[cols] -= W[cols] @ U
    return tau


def _reference_snap(estimates, computed):
    """Each computed shift in turn takes the nearest estimate not yet taken;
    with fewer estimates than shifts, the shifts stay as computed."""
    if len(estimates) < len(computed):
        return computed
    free = list(estimates)
    snapped = []
    for shift in computed:
        nearest = min(free, key=lambda e: abs(e - shift))
        free.remove(nearest)
        snapped.append(nearest)
    return snapped


def _reference_francis_sweep(W, lo, hi, stall, nz=0, estimates=None):
    H = W[nz:]
    if stall % 11 == 0:
        # a real double shift, as LAPACK's zlaqr0 places it
        shifts = 2 * [H[hi, hi] + 0.75 * abs(H[hi, hi - 1])]
    else:
        rt1, rt2 = linalg._eig2(H[hi - 1, hi - 1], H[hi - 1, hi],
                                H[hi, hi - 1], H[hi, hi])
        if estimates is not None and rt1.imag == 0 and rt2.imag == 0:
            rt1, rt2 = (complex(e) for e in _reference_snap(estimates,
                                                           [rt1.real, rt2.real]))
        shifts = rt1, rt2
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
        tau = _reference_reflector(W, nz, start, k, col, m)
        if k == 0 and start > lo and tau is not None:
            # the entry left of the first reflector, outside its rows
            H[start, start - 1] *= 1.0 - tau
        col = H[start + k + 1:start + k + 4, start + k]


def _reference_complex_reflector(W, nz, lo, k, col, m):
    x = np.array(col, dtype=object)
    alpha = x[0]
    if not np.any(x[1:]) and alpha.imag == 0:
        return None
    beta = norm2(np.array(col, dtype=complex).view(float))
    beta = beta if alpha.real < 0 else -beta
    u = x / (alpha - beta)
    u[0] = 1 + 0j
    tau = (beta - alpha) / beta
    P = (np.eye(len(u)) - np.outer(tau * u, u.conj())).astype(complex)
    rows, cols = _reference_extents(W, nz, lo, k, len(u), min(k + len(u) + 1, m))
    W[rows] = P.conj().T @ W[rows].copy()
    W[cols] = W[cols].copy() @ P
    return tau


def _reference_complex_francis_sweep(W, lo, hi, stall, nz=0, estimates=None):
    H = W[nz:]

    def h(i, j):
        # a Python complex: numpy's scalar division rounds otherwise
        return complex(H[i, j])

    if stall % 11 == 0:
        s1 = s2 = h(hi, hi) + 0.75 * abs(h(hi, hi - 1))
    else:
        s1, s2 = linalg._eig2(h(hi - 1, hi - 1), h(hi - 1, hi), h(hi, hi - 1),
                              h(hi, hi))
        if estimates is not None:
            s1, s2 = (complex(e) for e in _reference_snap(estimates, [s1, s2]))

    def first_column(k):
        # (H - s1)(H - s2) e_k, factored and scaled as in LAPACK's zlaqr1
        s = abs(h(k, k) - s2) + abs(h(k + 1, k))
        if s == 0.0:
            return [0j, 0j, 0j]
        h21s = h(k + 1, k) / s
        return [(h(k, k) - s1) * ((h(k, k) - s2) / s) + h(k, k + 1) * h21s,
                h21s * (h(k, k) + h(k + 1, k + 1) - s1 - s2),
                h21s * h(k + 2, k + 1)]

    start = lo
    for k in range(hi - 2, lo, -1):
        x, y, z = first_column(k)
        s = abs(x) + abs(y) + abs(z)
        if s != 0.0:
            x, y, z = x / s, y / s, z / s
        anchor = abs(x) * (abs(h(k - 1, k - 1)) + abs(h(k, k)) + abs(h(k + 1, k + 1)))
        if anchor + abs(h(k, k - 1)) * (abs(y) + abs(z)) == anchor:
            start = k
            break
    m = hi - start + 1
    col = first_column(start)
    for k in range(m - 1):
        tau = _reference_complex_reflector(W, nz, start, k, col, m)
        if k == 0 and start > lo and tau is not None:
            H[start, start - 1] *= 1.0 - np.conj(tau)
        col = H[start + k + 1:min(start + k + 4, hi + 1), start + k].tolist()


@pytest.mark.parametrize("stall", [1, 11])
@pytest.mark.parametrize("case", ["graded", "1e+120", "1e-120", "split", "vector",
                                  "hinted", "one-estimate"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_sweeps_match_the_reference_step_bit_for_bit(dtype, case, stall):
    # one sweep on the unreduced block 1..12 of a seeded 14x14 Hessenberg
    # matrix, whose rows run to the last column and whose columns start at
    # W's first row; "split" has two small consecutive subdiagonals, below
    # which the Francis bulge starts under both the computed and the
    # exceptional shifts (stall 11), so H[1, 1] stays as it is; "vector" is
    # the split matrix in vector mode, W = [I; H] with nz = n; "hinted" is a
    # vector-mode sweep given eigenvalue estimates, with a symmetric trailing
    # corner, whose two real roots a real block snaps (a complex block snaps
    # both its roots); "one-estimate" is hinted with one estimate, fewer than
    # the two shifts, so it snaps neither
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
        m[6, 5] = m[7, 6] = 1e-10
    elif case in ("hinted", "one-estimate"):
        m[12, 11] = m[11, 12]
    else:
        m *= float(case)
    m[1, 0] = m[13, 12] = 0.0
    nz = n if case in ("vector", "hinted", "one-estimate") else 0
    if nz:
        m = np.vstack([np.eye(n, dtype=m.dtype), m])
    estimates = None
    if case == "hinted":
        estimates = np.linspace(-2.0, 2.0, 9) + (0.25j if dtype is complex else 0.0)
    elif case == "one-estimate":
        estimates = np.array([0.5])
    sweep = linalg._francis_sweep
    if dtype is float:
        reference = _reference_francis_sweep
    else:
        reference = _reference_complex_francis_sweep
    ours, ref = m.copy(), m.copy()
    sweep(ours, 1, 12, stall, nz, estimates)
    reference(ref, 1, 12, stall, nz, estimates)
    # H outside the block took the transform, and so did the block's top
    # row where the bulge starts below it; in vector mode, the Schur vectors
    assert not np.array_equal(ours[nz:, 13], m[nz:, 13])
    assert ours[nz + 1, 12] != m[nz + 1, 12]
    if nz:
        assert not np.array_equal(ours[:n], m[:n])
    assert np.array_equal(ours, ref)
    assert (ours[nz + 1, 1] == m[nz + 1, 1]) == (case in ("split", "vector"))
    if estimates is not None:
        # the estimates move the computed shifts, never the exceptional ones
        plain = m.copy()
        sweep(plain, 1, 12, stall, nz)
        assert np.array_equal(ours, plain) == (stall == 11 or case == "one-estimate")


@pytest.mark.parametrize("nz, dtype", [(0, float), (9, float), (0, complex), (9, complex)],
                         ids=["values", "vectors", "values-complex", "vectors-complex"])
@pytest.mark.parametrize("d", [1, 2], ids=["0-y-0", "0-0-z"])
def test_real_bulge_step_keeps_an_exact_signed_swap(d, nz, dtype):
    # a bulge column [0, y, 0] or [0, 0, z] with a real nonzero y or z, d
    # rows below its zero head, gives tau = 1 and u = (1, +-1) at rows k and
    # k + d: the step is the signed swap of those rows and columns, on a real
    # and on a complex block. Where the two rows, and the two columns, never
    # hold two nonzeros in one place, the real step's rows -= U rows and
    # cols -= cols U add a zero to each entry they subtract, and the complex
    # step's products P^H rows and cols P add zeros to one exact signed copy,
    # so every zero stays an exact zero and every moved entry an exact signed
    # copy; with Z = I stacked above H, Z becomes the signed swap itself
    n, k = 9, 2
    rng = np.random.default_rng(290 + d)
    i, j = np.indices((n, n))
    # upper Hessenberg with a bulge in column k - 1 down to row k + 2, and
    # nonzeros only where i // d + j // d is even
    mask = (i <= j + 1) | ((j == k - 1) & (i <= k + 2))
    mask &= (i // d + j // d) % 2 == 0
    h = np.where(mask, rng.uniform(0.5, 2.0, (n, n)) * rng.choice([-1.0, 1.0], (n, n)),
                 0.0)
    # 49 (1 / 49) rounds below 1: a u[1:] formed with the reciprocal would
    # not swap exactly
    h[k + d, k - 1] = 49.0 * (-1) ** d
    h = h.astype(dtype)
    col = h[k:k + 3, k - 1].tolist()
    assert col[0] == 0.0 and col[3 - d] == 0.0 and col[d] != 0.0
    s = math.copysign(1.0, col[d].real)
    perm = np.arange(n)
    perm[[k, k + d]] = k + d, k
    sign = np.ones(n)
    sign[[k, k + d]] = -s
    swapped = (sign[:, None] * h[perm])[:, perm] * sign
    W = np.vstack([np.eye(n, dtype=dtype), h]) if nz else h.copy()
    R, C, top = linalg._slabs(W, nz, 0, n - 1)
    assert linalg._bulge_step(R, C, top, k, col, n) == 1.0
    assert np.array_equal(W[nz:], swapped)
    assert W[nz:][k:k + 3, k - 1].tolist() == [-abs(col[d]), 0.0, 0.0]
    if nz:
        assert np.array_equal(W[:nz], np.eye(n)[:, perm] * sign)


@pytest.mark.parametrize("n, graded", [(8, False), (24, True), (48, False)])
def test_complex_schur_form_at_theorem1_sizes(n, graded):
    # vector-mode complex QR on W = [I; A] leaves the quasi-triangular Schur
    # form A = Z T Z^H: each deflated 2x2 block stays in place, so T's nonzero
    # subdiagonal entries stand apart, and the residue each reflector leaves
    # where it annihilates its bulge entries stays below T's subdiagonal,
    # which deflation zeroes; the finisher of `_schur_eigenpairs` then
    # rotates each block into triangular form, on the roots QR reported
    rng = np.random.default_rng(71 + n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if graded:
        grade = 0.5 ** np.arange(n)
        a *= np.outer(grade, grade)
    W = np.vstack([np.eye(n, dtype=complex), a])
    linalg._hessenberg(W, n)
    eigs, _ = linalg._qr_eigenvalues(W, linalg.MAX_SWEEPS_PER_DIM * n, nz=n)
    Z, T = W[:n], W[n:]
    eps = np.finfo(float).eps

    def assert_schur_form():
        assert norm2(Z.conj().T @ Z - np.eye(n)) <= 8 * n * eps
        assert norm2(Z @ T @ Z.conj().T - a) <= 8 * n * eps * norm2(a)
        assert norm2(np.tril(T, -2)) <= 8 * n * eps * norm2(a)

    assert_schur_form()
    blocks = np.flatnonzero(T.diagonal(-1))
    assert blocks.size and not np.any(np.diff(blocks) == 1)
    for i in blocks:
        linalg._triangularize_2x2(W, n, i, *T[i:i + 2, i:i + 2].ravel().tolist())
    assert_schur_form()
    assert not np.any(T.diagonal(-1))
    assert np.array_equal(np.sort_complex(eigs), np.sort_complex(T.diagonal()))


@pytest.mark.parametrize("entry", [2.5, -3e-320, 1e300, 0.0, 1 + 2j, 7e-200j])
def test_eig_dense_solves_a_1x1_exactly(entry):
    # the general path, at any scale the power-of-two rule reaches: no sweep,
    # the entry itself, the unit vector and a zero residual
    m = np.array([[entry]])
    values, pairs = eig_dense(m), eig_dense(m, want_vectors=True)
    for report in (values, pairs):
        assert report.values.tolist() == [complex(entry)]
        assert report.iterations == 0
    assert pairs.vectors.tolist() == [[1.0]]
    assert pairs.residuals.tolist() == [0.0]


@pytest.mark.parametrize("entry", [np.inf, np.nan, complex(np.inf, 0.0)])
def test_eig_dense_on_a_nonfinite_1x1_acts_as_on_larger_input(entry):
    # values only, the entry comes back as it is; with vectors the residual
    # is not finite, so the contract raises, as on a 2x2 with that entry
    # (numpy's floating-point warnings on the way are not what is pinned)
    with np.errstate(all="ignore"):
        value = eig_dense(np.array([[entry]])).values[0]
        assert value == entry or (np.isnan(entry) and np.isnan(value))
        for m in (np.array([[entry]]), np.array([[entry, 0.0], [0.0, 1.0]])):
            with pytest.raises(RuntimeError, match="residual contract"):
                eig_dense(m, want_vectors=True)


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
    with pytest.raises(RuntimeError, match="singular"):
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


def test_eig_dense_solves_a_subnormal_pair():
    # every entry subnormal, where the discriminant of the unscaled 2x2 would
    # underflow to 0: scaled into [0.5, 1), both modes give
    # 3e-320 +- sqrt(2) 1e-320 to the last subnormal bit, with unit vectors
    # whose residuals are exact
    m = np.array([[4e-320, 1e-320], [1e-320, 2e-320]])
    exact = np.ldexp(np.linalg.eigvalsh(np.ldexp(m, 1070)), -1070)
    assert exact == pytest.approx([3e-320 - math.sqrt(2.0) * 1e-320,
                                   3e-320 + math.sqrt(2.0) * 1e-320], rel=1e-3)
    for want_vectors in (False, True):
        report = eig_dense(m, want_vectors=want_vectors)
        assert np.array_equal(report.values, exact)
    assert np.array_equal(report.residuals, [0.0, 0.0])
    assert np.allclose(norm2(report.vectors.T, axis=-1), 1.0, rtol=1e-15, atol=0)


_THREE = np.array([[1.0, 2.0, 0.5], [0.3, 2.0, 1.0], [0.0, 0.7, 3.0]])
# all six powers of two lie outside [2^-500, 2^500]; at 1e-310 every entry
# is subnormal, and rounding the entries alone moves 0.3 by 7e-14 relative
_OUT_OF_RANGE_SCALES = [2.0 ** e for e in (-1000, -600, -560, 520, 600, 1000)]


@pytest.mark.parametrize("want_vectors", [False, True])
def test_eig_dense_is_right_at_every_scale(want_vectors):
    # the 3x3 and seeded V D V^-1 matrices scaled far outside the range where
    # QR runs on its input as given: each is scaled into [0.5, 1), so the
    # powers of two give the same bits up to that power (but at 2^-1000,
    # where rounding-level imaginary parts scale back to subnormals), and the
    # values lie within 64 n eps of the exact spectrum, relative to its radius
    eps = np.finfo(float).eps
    cases = [(_THREE, np.linalg.eigvals(_THREE))]
    for i, complex_basis in itertools.product((0, 5, 13, 26), (False, True)):
        cases.append(_real_spectrum_matrix(np.random.default_rng(5000 + i), 4 + i,
                                           complex_basis))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m, exact in cases:
            exact = np.sort(exact.real)
            bound = 64 * m.shape[0] * eps * np.abs(exact).max()
            unscaled = set()
            for scale in _OUT_OF_RANGE_SCALES + [1e-310]:
                values = eig_dense(m * scale, want_vectors=want_vectors).values
                back = np.array([complex(z.real / scale, z.imag / scale)
                                 for z in values.tolist()])
                assert np.abs(back - exact).max() <= bound
                if 2.0 ** -1000 < scale:
                    unscaled.add(back.tobytes())
            assert len(unscaled) == 1


def test_eig_dense_keeps_the_3x3_bits_at_every_power_of_two():
    # scaling by a power of two is exact, and QR's steps are homogeneous in
    # the entries, so the scaled 3x3 takes the same steps as the unscaled one
    for want_vectors in (False, True):
        values = eig_dense(_THREE, want_vectors=want_vectors).values
        for scale in _OUT_OF_RANGE_SCALES:
            scaled = eig_dense(_THREE * scale, want_vectors=want_vectors).values
            assert np.array_equal(scaled / scale, values)


def test_eig_dense_value_past_the_largest_float_is_inf():
    # the eigenvalues are 0 and 3e308; QR on the scaled matrix finds both,
    # and the larger scales back to inf, with no warning
    m = np.full((2, 2), 1.5e308)
    for want_vectors in (False, True):
        assert np.array_equal(eig_dense(m, want_vectors=want_vectors).values,
                              [0.0, math.inf])


def test_residual_contract_is_relative_below_eps(monkeypatch):
    # ||A||_F near 5e-30 lies below eps, and in range, so QR runs on A as
    # given; the contract stays relative to ||A||_F there, so Schur vectors
    # that are not eigenvectors miss it
    m = _THREE * 1e-30
    assert eig_dense(m, want_vectors=True).residuals.max() <= (
        64 * 3 * np.finfo(float).eps * norm2(m))
    monkeypatch.setattr(linalg, "_triangular_eigenvectors",
                        lambda T: (np.eye(T.shape[0], dtype=complex), False))
    with pytest.raises(RuntimeError, match="missed the residual contract"):
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
    # theorem1 inputs of the benchmark are drawn; returns the matrix and D
    r = rng.uniform(-1.0, 1.0, (n, n))
    if complex_basis:
        r = r + 1j * rng.uniform(-1.0, 1.0, (n, n))
    v = np.eye(n) + 0.25 * r / np.sqrt(n)
    d = np.arange(n) + 0.2 * rng.uniform(0.0, 1.0, n)
    return np.linalg.solve(v.T, (v * d).T).T, d


def test_francis_start_below_the_block_top(monkeypatch):
    # a Francis sweep that starts below its block top must scale the entry
    # left of its first reflector, by 1 - conj(tau), since it transforms H
    # whole with or without Z; without that these matrices' values drift and
    # their vectors miss the residual contract, on a real and on a complex
    # basis. Each matrix has such a sweep in both modes
    sweep, slabs = linalg._francis_sweep, linalg._slabs

    def recorded_sweep(W, lo, hi, stall, nz, shifts):
        sweeps.append([nz, lo])
        return sweep(W, lo, hi, stall, nz, shifts)

    def recorded_slabs(W, nz, top, hi):
        sweeps[-1].append(top)
        return slabs(W, nz, top, hi)

    monkeypatch.setattr(linalg, "_francis_sweep", recorded_sweep)
    monkeypatch.setattr(linalg, "_slabs", recorded_slabs)
    for seed, complex_basis in ((0, False), (8, True)):
        m, _ = _real_spectrum_matrix(np.random.default_rng(seed), 16, complex_basis)
        sweeps = []
        report = eig_dense(m, want_vectors=True)
        values = eig_dense(m).values
        assert any(nz and top > lo for nz, lo, top in sweeps)
        assert any(not nz and top > lo for nz, lo, top in sweeps)
        bound = 64 * 16 * np.finfo(float).eps * norm2(m)
        assert np.abs(report.values - values).max() <= bound
        assert report.residuals.max() <= bound


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 24), complex_basis=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_schur_eigenvectors_build_the_similarity_to_rounding(n, complex_basis, seed):
    m, d = _real_spectrum_matrix(np.random.default_rng(seed), n, complex_basis)
    contract = linalg.RESIDUAL_TOL * norm2(m)
    for matrix in (m, m.conj().T):
        assert eig_dense(matrix, want_vectors=True).residuals.max() <= contract
    # the adjoint QR as theorem1 runs it, steered by exact and by wrong values
    for estimates in (d, d + 0.37):
        report = eig_dense(m.conj().T, want_vectors=True, shifts=estimates)
        assert report.residuals.max() <= contract
    similarity = verify_similarity(m)
    bound = 64 * n * np.finfo(float).eps
    assert similarity.biorth_error <= bound
    assert similarity.similarity_error <= bound


def test_shift_estimates_steer_qr_but_never_move_a_value():
    # the adjoint of V D V^-1 as theorem1 builds it, hinted with its exact
    # values, with values 1e-6 off, with zeros and with the values reversed
    # and 0.5 off: every run keeps its values within backward error of
    # numpy's, each scaled by its condition number, and exact estimates
    # deflate in at most 0.6 times the sweeps of unhinted QR
    eps = np.finfo(float).eps
    plain = exact = 0
    for n, complex_basis in itertools.product((4, 9, 17, 30, 48), (False, True)):
        m, d = _real_spectrum_matrix(np.random.default_rng(100 + n), n,
                                     complex_basis)
        a = m.conj().T
        w, x = np.linalg.eig(a)
        kappa = norm2(x.T, axis=-1) * norm2(np.linalg.inv(x), axis=-1)
        order = np.argsort(w.real)
        bound = 64 * n * eps * norm2(a) * kappa[order]
        plain += eig_dense(a, want_vectors=True).iterations
        for estimates in (d, d + 1e-6, np.zeros(n), d[::-1] + 0.5):
            report = eig_dense(a, want_vectors=True, shifts=estimates)
            assert report.residuals.max() <= linalg.RESIDUAL_TOL * norm2(a)
            assert np.all(np.abs(report.values - w[order]) <= bound)
            if estimates is d:
                exact += report.iterations
    assert exact <= 0.6 * plain


def test_complex_qr_meets_the_oracle_at_theorem1_shapes():
    # complex-basis V D V^-1 at three of theorem1's benchmark sizes: each
    # value of values-only and vector-mode QR lies within
    # C n eps ||M||_F kappa_i of numpy's, verify_similarity passes, and the
    # double-shift sweeps (values, vectors and the hinted adjoint QR that
    # theorem1 runs) stay below the 463 that single-shift QR took
    c = 4
    eps = np.finfo(float).eps
    sweeps = 0
    for n in (8, 24, 48):
        m, _ = _real_spectrum_matrix(np.random.default_rng(2800 + n), n, True)
        w, x = np.linalg.eig(m)
        kappa = norm2(x.T, axis=-1) * norm2(np.linalg.inv(x), axis=-1)
        order = np.argsort(w.real)
        bound = c * n * eps * norm2(m) * kappa[order]
        values = eig_dense(m)
        direct = eig_dense(m, want_vectors=True)
        adjoint = eig_dense(m.conj().T, want_vectors=True, shifts=direct.values.real)
        for report in (values, direct):
            assert np.all(np.abs(report.values - w[order]) <= bound)
        sweeps += values.iterations + direct.iterations + adjoint.iterations
        similarity = verify_similarity(m)
        assert similarity.similarity_error <= 64 * n * eps
        assert similarity.spectrum_match <= 1e-8
    assert sweeps < 463


@pytest.mark.parametrize("complex_basis", [False, True])
def test_eig_dense_bits_do_not_depend_on_memory_layout(complex_basis):
    # a Fortran-order matrix is copied to C order on entry, so it gives the
    # bits of its C-order copy in both modes
    m, _ = _real_spectrum_matrix(np.random.default_rng(5000), 17, complex_basis)
    fortran, c_order = np.asfortranarray(m), np.ascontiguousarray(m)
    assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
    for want_vectors in (False, True):
        ours = eig_dense(fortran, want_vectors=want_vectors)
        theirs = eig_dense(c_order, want_vectors=want_vectors)
        assert ours.values.tobytes() == theirs.values.tobytes()
        if want_vectors:
            assert ours.vectors.tobytes() == theirs.vectors.tobytes()


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
    with pytest.raises(RuntimeError, match="singular"):
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


def _box_hamiltonian(beta: float, gamma: float, trunc: int):
    return build_hamiltonian(ModelParams(beta, gamma),
                             TruncationSpec(trunc, trunc))[0].dense().entries


def _dense_qr_corpus(group: str) -> list:
    """Square inputs of values-only `eig_dense`. The real group holds the
    121 x 121 box-truncated H at three model points, the emm 4 x 4 from
    gamma 0 to 1e100, pseudo-Jacobi sections of k = -2..2 and seeded random
    dense matrices, graded and scaled by 1e+-120; the complex group holds
    seeded random complex matrices in the same three forms and a
    phase-rotated 36 x 36 truncated H."""
    rng = np.random.default_rng(18 if group == "real" else 19)

    def draw(n):
        m = rng.standard_normal((n, n))
        return m + 1j * rng.standard_normal((n, n)) if group == "complex" else m

    inputs = []
    if group == "real":
        inputs += [_box_hamiltonian(b, g, 10) for b, g in ((0.5, 0.75), (0.5, 0.2),
                                                            (0.3, 1.5))]
        inputs += [model_emm_matrix(ModelParams(0.5, g))
                   for g in (0.0, 1e-5, 0.2, 0.75, 1e10, 1e50, 1e100)]
        inputs += [pseudo_jacobi(SectorSpec(k, depth), ModelParams(0.5, 0.75))
                   for k, depth in itertools.product(range(-2, 3), (8, 11, 30))]
    else:
        h = build_hamiltonian(ModelParams(0.5, 0.75), TruncationSpec(5, 5))[0]
        inputs.append(np.exp(0.3j) * h.dense().entries)
    for n in (3, 7, 16, 33):
        grade = 0.3 ** np.arange(n)
        inputs += [draw(n), draw(n) * np.outer(grade, grade),
                   draw(n) * 1e120, draw(n) * 1e-120]
    return inputs


@pytest.mark.parametrize("group", ["real", "complex"])
def test_dense_qr_keeps_its_bits_on_a_corpus(group):
    # sha256 of the values-only values and sweep counts, recorded from
    # Hessenberg reduction and Francis steps by LAPACK-form reflectors
    # (u[0] = 1, tau): every operand and its order must stay
    digest = hashlib.sha256()
    for m in _dense_qr_corpus(group):
        report = eig_dense(m)
        digest.update(report.values.tobytes() + str(report.iterations).encode())
    assert digest.hexdigest() == DENSE_QR_CORPUS_SHA256[group]


def _eigenvalue_bounds(a, values, c):
    """c n eps ||a||_2 kappa for each of values, kappa the condition number
    ||x|| ||y|| / |y^H x| of the eigenvalue of a nearest to it, from scipy's
    right and left eigenvectors x and y."""
    w, left, right = scipy.linalg.eig(a, left=True)
    kappa = (norm2(left.T, axis=-1) * norm2(right.T, axis=-1)
             / np.abs(np.sum(left.conj() * right, axis=0)))
    nearest = np.abs(values[:, None] - w).argmin(axis=1)
    return c * len(a) * np.finfo(float).eps * np.linalg.norm(a, 2) * kappa[nearest]


def _worst_ratio(xs, ys, bounds):
    """Largest |x - y| / bound over the pairing of xs with ys of least total
    distance, bounds aligned with xs."""
    rows, cols = scipy.optimize.linear_sum_assignment(np.abs(xs[:, None] - ys))
    return float(np.max(np.abs(xs[rows] - ys[cols]) / bounds[rows]))


def test_eig_dense_keeps_its_metamorphic_relations():
    # relations of the eigenvalues that need no oracle: values-only QR and
    # the values of P A P^T, P a seeded permutation of the whole matrix,
    # each lie within C n eps ||A||_2 kappa of the vector-mode values, and A
    # scaled by 2^-3 gives the values scaled by 2^-3 bit for bit. Seeded
    # random real and complex matrices, and the trunc-8 H across the plane,
    # out to beta = 1e8. The worst ratio here is 0.31; on seeded random
    # matrices of n = 5 to 16, numpy's own values lie up to 1.3 such bounds
    # from ours, so the random ones take n = 30 and 48
    c = 1
    rng = np.random.default_rng(1800)
    draw = np.random.default_rng(24)
    points = [(0.0, 0.15), (0.5, 0.75), (-1.376621, 0.698179)]
    points += [(float(np.round(draw.uniform(-2.0, 2.0), 6)),
                float(np.round(draw.uniform(0.05, 1.5), 6))) for _ in range(3)]
    points += [(1e6, 0.75), (1e8, 0.05)]
    matrices = [_box_hamiltonian(beta, gamma, 8) for beta, gamma in points]
    for n in (30, 48):
        matrices.append(rng.standard_normal((n, n)))
        matrices.append(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    ratios = []
    for a in matrices:
        vectors = eig_dense(a, want_vectors=True).values
        bounds = _eigenvalue_bounds(a, vectors, c)
        values = eig_dense(a).values
        perm = rng.permutation(len(a))
        permuted = eig_dense(a[np.ix_(perm, perm)]).values
        ratios += [_worst_ratio(vectors, values, bounds),
                   _worst_ratio(vectors, permuted, bounds)]
        assert np.array_equal(eig_dense(a * 2.0 ** -3).values * 8.0, values)
    assert max(ratios) <= 1.0, max(ratios)


def test_dense_qr_meets_the_oracle_on_the_model_plane():
    # values-only QR on the trunc-8 H against numpy, within C n eps ||H||_2
    # kappa for each value: on the beta = 0 line every eigenvalue is double
    # (sectors k and -k coincide), 16 points are drawn over the plane as the
    # benchmark's plane sweep draws them, and 12 run out the beta axis to
    # 1e8, at gamma 0.75 and, with beta negative, at gamma 0.05
    c = 1
    rng = np.random.default_rng(24)
    points = [(0.0, float(g)) for g in np.linspace(0.05, 2.0, 16)]
    points += [(float(np.round(rng.uniform(-1.5, 1.5), 6)),
                float(np.round(rng.uniform(0.05, 2.0), 6))) for _ in range(16)]
    for beta in (1e3, 1e4, 1e5, 1e6, 1e7, 1e8):
        points += [(beta, 0.75), (-beta, 0.05)]
    ratios = {}
    for beta, gamma in points:
        h = _box_hamiltonian(beta, gamma, 8)
        values = eig_dense(h).values
        ratios[beta, gamma] = _worst_ratio(values, np.linalg.eigvals(h),
                                           _eigenvalue_bounds(h, values, c))
    worst = max(ratios, key=ratios.get)
    assert ratios[worst] <= 1.0, (worst, ratios[worst])


def test_hessenberg_keeps_the_zeros_of_a_decoupled_hamiltonian():
    # H conserves m - n, so its Krylov space from e_1 closes after 11
    # vectors: a reflector of a column with one nonzero below its first
    # entry is an exact signed swap, and the reduced H[11, 10] is 0, not the
    # eps-sized leak that Arnoldi would grow about tenfold per column
    W = np.array(_box_hamiltonian(0.5, 0.2, 10), dtype=float)
    linalg._hessenberg(W)
    assert W[11, 10] == 0.0
    assert np.flatnonzero(W.diagonal(-1) == 0.0).tolist() == [10, 20, 22, 32, 40, 119]


def test_householder_is_lapacks_reflector():
    # (u[1:], tau) with u[0] = 1 and (I - tau u u^H)^H x = beta e_1, beta
    # real with the sign opposite to Re x[0] (a zero counts as positive), on
    # columns as short as a bulge's and as long as the Hessenberg
    # reduction's; an x already along e_1 with a real first entry gives None,
    # and one with a complex first entry a phase
    rng = np.random.default_rng(5)
    long_real = rng.standard_normal(40)
    long_complex = long_real + 1j * rng.standard_normal(40)
    eps = np.finfo(float).eps
    # the short columns to 1e-15 absolute, the long ones (|beta| near 6 and 9)
    # to 2 eps |beta|
    for x, atol in (([0.0, -2.5], 1e-15), ([3.0, 4.0, 0.0], 1e-15),
                    ([1j, 2.0, -1 + 1j], 1e-15), ([-2j, 0j, 0j], 1e-15),
                    (long_real.tolist(), None), (long_complex.tolist(), None)):
        tail, tau = linalg._reflector(x)
        u = np.array([1.0, *tail])
        x = np.asarray(x, dtype=complex)
        image = x - np.conj(tau) * u * np.vdot(u, x)
        beta = np.linalg.norm(x) * (-1.0 if x[0].real >= 0.0 else 1.0)
        if atol is None:
            atol = 2 * eps * abs(beta)
        assert np.allclose(image, beta * np.eye(len(x))[0], rtol=0, atol=atol)
    # one nonzero below the first entry, short or long: an exact signed swap
    assert linalg._reflector([0.0, -2.5]) == ([-1.0], 1.0)
    column = [0.0] * 40
    column[17] = 49.0
    tail, tau = linalg._reflector(column)
    assert tau == 1.0 and tail == [1.0 if i == 16 else 0.0 for i in range(39)]
    assert linalg._reflector([-2.0, 0.0, 0.0]) is None
    assert linalg._reflector([3.0 + 0j, 0j]) is None


def test_tridiag_solve_keeps_its_bits_on_a_corpus():
    # sha256 of the solutions, recorded from the element-wise solver: every
    # operand and its order must stay, so that no bit moves
    digest = hashlib.sha256()
    for system in _tridiag_solve_corpus():
        digest.update(_tridiag_solve(*system).tobytes())
    assert digest.hexdigest() == TRIDIAG_SOLVE_CORPUS_SHA256


def test_sym_tridiag_keeps_its_bits_on_a_corpus():
    # sha256 of the values and sweep counts, recorded from the one complex
    # symmetric QL, real input cast to complex: every operand and its order
    # must stay
    digest = hashlib.sha256()
    for diag, offdiag in _ql_corpus():
        report = eig_sym_tridiag(diag, offdiag)
        digest.update(report.values.tobytes() + str(report.iterations).encode())
    assert digest.hexdigest() == QL_CORPUS_SHA256


def test_real_symmetric_ql_is_the_complex_symmetric_ql():
    # one QL path: a real symmetric input gives the values and sweep count
    # of the same input cast to complex, bit for bit, on the Hermitian
    # cousins of the corpus and on seeded random draws
    rng = np.random.default_rng(1985)
    draws = [(rng.standard_normal(n), rng.standard_normal(n - 1))
             for n in (1, 2, 3, 7, 20, 50)]
    for diag, offdiag in _ql_corpus()[:36] + draws:
        real = eig_sym_tridiag(diag, offdiag)
        cast = eig_sym_tridiag(np.asarray(diag, dtype=complex),
                               np.asarray(offdiag, dtype=complex))
        assert real.values.tobytes() == cast.values.tobytes()
        assert real.iterations == cast.iterations


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


def _oracle_lowest(d, e) -> float:
    # the Rayleigh quotient of numpy.linalg.eigh's lowest eigenvector, formed
    # in extended precision on the unit-scaled matrix: an eigenvector error
    # theta moves it by about theta^2 ||T||, so it lies within 0.73 eps
    # max|entry| of a 50-digit Sturm bisection on the draws below, where
    # eigvalsh's own value is up to 18 eps max|entry| off
    p = math.frexp(max(np.abs(d).max(), np.abs(e).max(initial=0.0)))[1]
    d, e = np.ldexp(d, -p), np.ldexp(e, -p)
    full = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    x = np.linalg.eigh(full)[1][:, 0].astype(np.longdouble)
    tx = d.astype(np.longdouble) * x
    tx[:-1] += e * x[1:]
    tx[1:] += e * x[:-1]
    return math.ldexp(float((x @ tx) / (x @ x)), p)


def _lowest_draws() -> list:
    """(diag, offdiag) draws for `sym_tridiag_lowest`: sizes 1 to 120 at
    scales 2^-1000 to 2^1000, with repeated diagonals, zero, partly zero and
    tiny off-diagonals, and a third of them shifted so that the lowest
    eigenvalue lies near 0."""
    rng = np.random.default_rng(1967)
    draws = []
    for i in range(300):
        n = int(rng.integers(1, 121))
        d = rng.standard_normal(n)
        if i % 5 == 1:
            d[:] = d[0]
        e = rng.standard_normal(n - 1)
        if i % 7 == 2:
            e[:] = 0.0
        elif i % 7 == 3:
            e *= 1e-150
        elif i % 7 == 4:
            e[rng.random(n - 1) < 0.3] = 0.0
        if i % 3 == 0:
            d -= _oracle_lowest(d, e)
        scale = int(rng.integers(-1000, 1001))
        draws.append((np.ldexp(d, scale), np.ldexp(e, scale)))
    return draws


def test_sym_tridiag_lowest_matches_numpy():
    # within 8 eps max|entry| of the numpy.linalg oracle; the worst draw
    # reaches 0.21 of that bound, and 1.4 eps max|entry| from the 50-digit
    # bisection
    for d, e in _lowest_draws():
        bound = 8 * np.finfo(float).eps * max(np.abs(d).max(), np.abs(e).max(initial=0.0))
        assert abs(sym_tridiag_lowest(d, e) - _oracle_lowest(d, e)) <= bound


def test_sym_tridiag_lowest_matches_ql_on_the_hermitian_cousins():
    # the QL corpus's 36 Hermitian cousins: the Sturm and QL routes, and
    # numpy.linalg.eigvalsh, agree within 8 eps max|entry|
    for d, e in _ql_corpus()[:36]:
        bound = 8 * np.finfo(float).eps * max(np.abs(d).max(), np.abs(e).max())
        full = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        lowest = sym_tridiag_lowest(d, e)
        assert abs(lowest - eig_sym_tridiag(d, e).values[0].real) <= bound
        assert abs(lowest - np.linalg.eigvalsh(full)[0]) <= bound


def test_sym_tridiag_lowest_edge_cases():
    assert sym_tridiag_lowest([2.5], []) == 2.5
    assert sym_tridiag_lowest([0.0, 0.0, 0.0], [0.0, 0.0]) == 0.0
    assert sym_tridiag_lowest([3.0, -1.0, 2.0], [0.0, 0.0]) == -1.0
    assert sym_tridiag_lowest([5e-324, 5e-324], [0.0]) == 5e-324
    # eigenvalues -1.5e308 +- 1.5e308: the lower one overflows
    assert sym_tridiag_lowest([-1.5e308, -1.5e308], [1.5e308]) == -math.inf
    assert sym_tridiag_lowest([-0.25e308, -0.25e308], [1.5e308]) == -1.75e308
    for diag, offdiag in (([], []), ([1.0, 2.0], []), ([1.0], [1.0]),
                          ([np.nan, 1.0], [1.0]), ([1.0, 2.0], [np.inf])):
        with pytest.raises(ValueError):
            sym_tridiag_lowest(diag, offdiag)


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


@pytest.mark.parametrize("shift", [-600, 600])
def test_ql_out_of_range_input_takes_the_in_range_steps(shift):
    # entries scaled by 2^shift leave [2^-500, 2^500], so QL scales them back
    # into [0.5, 1); every QL step is homogeneous in the entries, so the
    # values are the in-range values times 2^shift, bit for bit, after the
    # same number of sweeps (on the corpus inputs up to 80 x 80)
    for diag, offdiag in _ql_corpus():
        if len(diag) > 80:
            continue
        d, e = np.asarray(diag), np.asarray(offdiag)
        ref = eig_sym_tridiag(d, e)
        report = _quiet_ql(d * 2.0 ** shift, e * 2.0 ** shift)
        assert np.array_equal(report.values, ref.values * 2.0 ** shift)
        assert report.iterations == ref.iterations


def test_ql_no_longer_stalls_on_an_overflowing_section():
    # at gamma 1e154 the squares of the off-diagonal reach the overflow
    # threshold; unscaled, QL stalled on the first value after 51 sweeps
    for depth in (4, 16):
        sub, diag, _ = pseudo_jacobi_diagonals(SectorSpec(0, depth),
                                               ModelParams(0.5, 1e154))
        report = _quiet_ql(diag, 1j * sub)
        _assert_near_oracle(diag * 2.0 ** -512, 1j * sub * 2.0 ** -512,
                            report.values * 2.0 ** -512, 10)


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
    ([1.0, 2.0, 3.0], [1.5e308 + 1.5e308j, 1e308j]),
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
    with pytest.raises(RuntimeError, match="Gram"):
        biorthonormalize(phi, psi)


def test_multiset_distance_is_order_free():
    assert multiset_distance([1.0, 2.0, 3.0], [3.0, 1.0, 2.0]) == 0.0
    assert multiset_distance([1.0, 1.0], [1.0, 1.1]) == pytest.approx(0.1)


def test_multiset_distance_keeps_a_non_finite_distance():
    # a NaN that does not come first, and one followed by a finite distance,
    # both survive; a distance past the largest float is inf, with no warning
    assert math.isnan(multiset_distance([1.0, math.nan], [1.0, 2.0]))
    assert math.isnan(multiset_distance([1.0, math.nan, 3.0], [1.0, 2.0, 3.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert multiset_distance([1e308], [-1e308]) == math.inf
        assert multiset_distance([1e308, 2.0], [2.0, 1e308]) == 0.0


def test_multiset_distance_rejects_size_mismatch():
    with pytest.raises(ValueError):
        multiset_distance([1.0], [1.0, 2.0])

"""Self-contained dense linear algebra kernel.

Provides the numerical backends used by every other module: a nonsymmetric
eigensolver (Householder Hessenberg reduction followed by shifted QR
iteration, Francis double shift for real matrices and Wilkinson single shift
for complex ones, with eigenvectors from the Schur form), a symmetric
tridiagonal eigensolver (implicit-shift QL, for real symmetric and complex
symmetric input alike), a partial-pivoting LU solver, two-sided
Rayleigh-quotient iteration for selected eigenpairs of a real tridiagonal in
O(n) per value and round, residual and biorthonormalization utilities, and
`norm2`, the package's one Euclidean norm, which rescales where the plain
sum of squares would under- or overflow.

At the sizes used here QR time goes to Python and numpy calls, not to flops,
so each step makes few calls. A 3-row Francis bulge step builds its
Householder vector from Python floats and applies it with two matrix-vector
products and two broadcast rank-one updates: 16 numpy calls in all, indexing
included, where array code makes 57. Every floating-point operation keeps its
operands and their order, so it gives the same bits as array code. It stays
at 16: one 3x3 product per side would make fewer calls, but it rounds
differently and moved verify-all's full-versus-sector distance. The deflation
scan of the driver and the start-row scan of the Francis sweep read
Python-float copies of the diagonals, so they make no numpy call per row. A
Wilkinson step computes its rotation G on Python complex scalars and applies
it as one 2x2 product per side, G on the two rows and G^H on the two
columns, each written back in place: 10 numpy calls, the read of the next
bulge pair included. A product may round its two-term sums otherwise than
four elementwise updates would, so this path is pinned by a reference of
the same products rather than by array code.

Eigenvectors run the same sweeps on wider slabs. The Schur vectors Z are
stacked above H in one array, so each column update transforms Z and H in
the same numpy call, and each row update runs to the last column; QR then
ends in the Schur form A = Z T Z^H, with no more numpy calls per step. The
eigenvectors of the triangular T come from one back substitution over rows
for all values at once, map back by Z, and take one first-order refinement
step whose residual is formed in numpy's extended precision (Dongarra,
Moler and Wilkinson, SIAM J. Numer. Anal. 20, 1983). Values-only calls keep
the block-local slabs and their bits.

`solve_matrix` runs one partial-pivoting LU and one forward and one back
substitution, each over all right-hand sides at once. A tridiagonal is
solved in O(n) on Python scalars, each input array converted once, by
pivoted elimination applied to the right-hand side as it runs (LAPACK's
gtsv). Its eigenpairs come from one Rayleigh-quotient loop: each round
solves J - s I at each current value s and moves s to the two-sided quotient.

QL runs on Python scalars with one loop for both tridiagonal families, and
its deflation scan takes each modulus once. Real input takes hypot
rotations and keeps the textbook bits. Complex symmetric input takes complex
orthogonal rotations, sqrt(f^2 + g^2) in place of hypot (Cullum and
Willoughby, SIAM J. Matrix Anal. Appl. 17, 1996), which the sector spectra
use on the phase-similar form of the pseudo-Jacobi matrices. These rotations
are not unitary, and QL raises RuntimeError on a breakdown, a stall or a
non-finite value, as dense QR does at its sweep cap and dense eigenvectors
do on a pair that misses the residual contract.

numpy is used as the array substrate only; no factorizations or eigensolvers
of numpy's linear-algebra module are called here, so results can be
cross-checked against an independent library route in the test suite.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "EigenReport",
    "eig_dense",
    "eig_sym_tridiag",
    "tridiag_rayleigh_iteration",
    "residual",
    "biorthonormalize",
    "multiset_distance",
]

#: relative subdiagonal deflation threshold for QR iteration
DEFLATION_TOL = 1e-14
#: total QR sweep cap, in units of the matrix dimension
MAX_SWEEPS_PER_DIM = 40
#: residual contract: ||A v - lambda v|| for unit v, relative to ||A||_F
RESIDUAL_TOL = 1e-8
#: cap on the rounds of `tridiag_rayleigh_iteration`
QUOTIENT_ROUNDS = 4
#: hard cap on accepted matrix dimension
DIM_CAP = 4096

_EPS = float(np.finfo(np.float64).eps)


@dataclass
class EigenReport:
    """Eigensolver output.

    values are sorted by (real part, imaginary part), except from
    `tridiag_rayleigh_iteration`, which keeps the order of its shifts. residuals,
    when computed, are two-norm residuals ||M v - lambda v|| for unit-norm v,
    aligned with values; the convergence contract compares them against
    RESIDUAL_TOL times the matrix norm. Only `tridiag_rayleigh_iteration`
    reports a miss, as converged = False; `eig_dense` and `eig_sym_tridiag`
    raise RuntimeError instead of returning a report that failed. iterations
    counts QR sweeps (QL sweeps from `eig_sym_tridiag`, quotient rounds from
    `tridiag_rayleigh_iteration`).
    """

    values: NDArray[np.complex128]
    vectors: NDArray[np.complex128] | None = None
    residuals: NDArray[np.float64] | None = None
    iterations: int = 0
    converged: bool = True


def _as_square(M) -> NDArray:
    A = np.asarray(M)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] > DIM_CAP:
        raise ValueError(f"dimension {A.shape[0]} exceeds cap {DIM_CAP}")
    return A


def norm2(x, axis=None):
    """Euclidean norm, or with axis=-1 the norm of each row of a 2-D x: the
    plain sum of squares, rescaled by the largest entry of the row where that
    sum under- or overflows, the remedy of J. L. Blue (ACM TOMS 4, 1978) and
    LAPACK's dnrm2 taken only where the plain sum fails. The package's only
    Euclidean norm; squares that overflow raise no warning.

    A list of fewer than 8 real floats, such as the two or three entries of a
    bulge column, is summed on Python floats. numpy sums fewer than 8 entries
    left to right too, so both paths give the same bits; a list that needs
    the rescale takes the array path."""
    if isinstance(x, list) and len(x) < 8:
        sq = 0.0
        for t in x:
            sq += t * t
        norm = math.sqrt(sq)
        if 1e-150 < norm < 1e150:
            return norm
    a = np.abs(np.asarray(x))
    with np.errstate(over="ignore"):
        norm = np.sqrt((a ** 2).sum(axis=axis))
    if axis is None:
        if 1e-150 < norm < 1e150:
            return float(norm)
        a, norm = np.ravel(a, "K")[None], np.array([norm])
    for i in np.flatnonzero((norm <= 1e-150) | (norm >= 1e150)):
        big = float(a[i].max(initial=0.0))
        if big != 0.0 and math.isfinite(big):
            norm[i] = big * float(np.sqrt(((a[i] / big) ** 2).sum()))
    return float(norm[0]) if axis is None else norm


def _householder(x) -> NDArray | None:
    """Unit v with (I - 2 v v^H) x along e_1, or None when x is zero. x is an
    array, or a list of real floats whose vector is built on floats."""
    xnorm = norm2(x)
    if xnorm == 0.0:
        return None
    v = x.copy()
    phase = v[0] / abs(v[0]) if v[0] != 0 else 1.0
    v[0] += phase * xnorm
    vnorm = norm2(v)
    return np.array([t / vnorm for t in v]) if isinstance(v, list) else v / vnorm


def _slabs(W: NDArray, nz: int, lo: int, hi: int):
    """Row view, column view and the column view's rows above the block, for
    the QR block lo..hi of H = W[nz:]. Values only (nz = 0), both views are
    the block itself. With the n x n Z stacked above H (nz = n), the rows run
    to the last column of H and the columns from the first row of Z, so one
    update transforms H whole and accumulates into Z (LAPACK's wantt and
    wantz)."""
    if not nz:
        B = W[lo:hi + 1, lo:hi + 1]
        return B, B, 0
    return W[nz + lo:nz + hi + 1, lo:], W[:nz + hi + 1, lo:hi + 1], nz + lo


def _apply_reflector(R: NDArray, C: NDArray, top: int, k: int, col, m: int):
    """Apply, on rows and columns k .. k + len(col) - 1 of an m x m block, the
    Householder similarity that maps col onto its first axis; R and C are the
    block's row and column views and top the rows of C above the block (see
    `_slabs`). Returns the unit reflector vector, or None when col is zero
    and nothing was applied. Each side is one matrix-vector product and one
    broadcast rank-one update."""
    v = _householder(col)
    if v is None:
        return None
    vc = v.conj()
    w = len(v)
    rows = R[k:k + w, max(k - 1, 0):]
    rows -= 2.0 * (v[:, None] * (vc @ rows))
    cols = C[:top + min(k + w + 1, m), k:k + w]
    cols -= 2.0 * ((cols @ v)[:, None] * vc)
    return v


def _hessenberg(W: NDArray, nz: int = 0) -> NDArray:
    """In-place reduction of H = W[nz:] to upper Hessenberg form by Householder
    reflectors, accumulated into the Z = W[:nz] stacked above it, if any."""
    H = W[nz:]
    n = H.shape[0]
    for k in range(n - 2):
        if _apply_reflector(H, W, nz, k + 1, H[k + 1:, k], n) is not None:
            H[k + 2:, k] = 0.0
    return W


def _eig2_real(a: float, b: float, c: float, d: float) -> list[complex]:
    """Eigenvalues of a real 2x2 block, complex pair when the discriminant is negative."""
    half_tr = 0.5 * (a + d)
    det = a * d - b * c
    disc = half_tr * half_tr - det
    if disc >= 0.0:
        sq = math.sqrt(disc)
        big = half_tr + sq if half_tr >= 0.0 else half_tr - sq
        if big != 0.0:
            return [complex(big), complex(det / big)]
        return [complex(half_tr + sq), complex(half_tr - sq)]
    sq = math.sqrt(-disc)
    return [complex(half_tr, sq), complex(half_tr, -sq)]


def _eig2_complex(a, b, c, d) -> tuple[complex, complex]:
    half_tr = 0.5 * (a + d)
    det = a * d - b * c
    sq = np.sqrt(complex(half_tr * half_tr - det))
    l1 = half_tr + sq
    l2 = half_tr - sq
    if abs(l1) >= abs(l2) and l1 != 0:
        l2 = det / l1
    elif l2 != 0:
        l1 = det / l2
    return complex(l1), complex(l2)


def _shift_pair(a: float, b: float, c: float, d: float):
    """Eigenvalues of a real 2x2 as (rt1r, rt1i, rt2r, rt2i); complex
    conjugates share the real part."""
    half_tr = 0.5 * (a + d)
    disc = 0.25 * (a - d) * (a - d) + b * c
    if disc >= 0.0:
        sq = math.sqrt(disc)
        return half_tr + sq, 0.0, half_tr - sq, 0.0
    sq = math.sqrt(-disc)
    return half_tr, sq, half_tr, -sq


def _first_column(d, sub, sup, k: int, rt1r, rt1i, rt2r, rt2i) -> list:
    """First column of the double-shift polynomial at row k of the Hessenberg
    matrix with diagonal d, subdiagonal sub and superdiagonal sup, in
    factored form; a list, so that `_householder` builds on floats.

    The expanded polynomial (H - s1)(H - s2) e_k cancels catastrophically for
    eigenvalue clusters tight relative to eps * |H|; keeping the differences
    (H[k, k] - rt) explicit preserves the bulge direction there.
    """
    s = abs(d[k] - rt2r) + abs(rt2i) + abs(sub[k])
    if s == 0.0:
        return [0.0, 0.0, 0.0]
    h21s = sub[k] / s
    x = (h21s * sup[k]
         + (d[k] - rt1r) * ((d[k] - rt2r) / s)
         - rt1i * (rt2i / s))
    y = h21s * (d[k] + d[k + 1] - rt1r - rt2r)
    z = h21s * sub[k + 1]
    return [x, y, z]


def _qr_eigenvalues(W: NDArray, max_sweeps: int, sweep, block2=None,
                    nz: int = 0) -> tuple[list[complex], int]:
    """Eigenvalues of the upper Hessenberg H = W[nz:] by shifted QR, in place.

    Deflates 1x1 blocks from the bottom, and 2x2 blocks through block2 when
    given; otherwise sweep(W, lo, hi, stall, nz) runs one QR sweep on the
    unreduced block lo..hi, stall counting sweeps since the last deflation.
    With nz = 0 a sweep transforms the block alone; with the n x n Z stacked
    above H (nz = n) it transforms H whole and Z with it, which leaves H in
    Schur form, upper triangular but for the 2x2 blocks of complex or
    undeflated real pairs, and W[:nz] the Schur vectors. Deflated
    subdiagonal entries are set to zero. Raises RuntimeError when max_sweeps
    sweeps leave values undeflated.

    The deflation scan reads copies of the diagonal and subdiagonal, Python
    floats for a real H, and each sweep recopies only its block. Complex
    entries stay numpy scalars, whose abs overflows to inf where Python's
    raises.
    """
    H = W[nz:]
    n = H.shape[0]
    copy = np.ndarray.tolist if H.dtype.kind == "f" else list
    views = H.diagonal(), H.diagonal(-1)
    d, sub = copy(views[0]), copy(views[1])
    eigs: list[complex] = []
    hi = n - 1
    sweeps = 0
    stall = 0
    while hi >= 0:
        lo = hi
        while lo > 0:
            s = abs(d[lo - 1]) + abs(d[lo])
            if s == 0.0:
                s = 1.0
            if abs(sub[lo - 1]) <= DEFLATION_TOL * s:
                H[lo, lo - 1] = sub[lo - 1] = 0.0
                break
            lo -= 1
        if lo == hi:
            eigs.append(complex(d[hi]))
            hi -= 1
            stall = 0
            continue
        if block2 is not None and lo == hi - 1:
            eigs.extend(block2(d[hi - 1], H[hi - 1, hi], sub[hi - 1], d[hi]))
            hi -= 2
            stall = 0
            continue
        if sweeps >= max_sweeps:
            raise RuntimeError(
                f"QR iteration did not converge on a {n}x{n} matrix after "
                f"{sweeps} sweeps")
        sweeps += 1
        stall += 1
        sweep(W, lo, hi, stall, nz)
        d[lo:hi + 1] = copy(views[0][lo:hi + 1])
        sub[lo:hi] = copy(views[1][lo:hi])
    return eigs, sweeps


def _francis_sweep(W: NDArray, lo: int, hi: int, stall: int, nz: int = 0) -> None:
    """One Francis implicit double-shift sweep on the real Hessenberg block
    lo..hi of H = W[nz:], with the slabs of `_slabs`.

    The shift and start-row scans read Python-float copies of the block's
    three diagonals, and each bulge step reads its column as floats. A sweep
    that starts below the block top leaves H[start, start - 1] out of its
    first reflector; with Z stacked above H that entry takes the reflector's
    factor 1 - 2 v0^2, as in LAPACK's dlahqr, so that the transform applied
    to H whole is a similarity. The values-only sweep leaves it as it is."""
    B = W[nz + lo:nz + hi + 1, lo:hi + 1]
    d, sub, sup = (B.diagonal(i).tolist() for i in (0, -1, 1))
    b = hi - lo
    if stall % 11 == 0:
        # exceptional shift pair after repeated stalls (ad hoc EISPACK choice)
        w = abs(sub[b - 1]) + abs(sub[b - 2])
        rt1r, rt1i, rt2r, rt2i = 1.75 * w, 0.0, -0.25 * w, 0.0
    else:
        rt1r, rt1i, rt2r, rt2i = _shift_pair(d[b - 1], sup[b - 1], sub[b - 1], d[b])
    # a tiny interior subdiagonal kills the bulge as it passes, so the
    # shifts never reach the bottom; start below any such entry instead
    # (two-consecutive-small-subdiagonals test)
    start = 0
    k = b - 2
    while k > 0:
        x, y, z = _first_column(d, sub, sup, k, rt1r, rt1i, rt2r, rt2i)
        s = abs(x) + abs(y) + abs(z)
        if s != 0.0:
            x, y, z = x / s, y / s, z / s
        anchor = abs(x) * (abs(d[k - 1]) + abs(d[k]) + abs(d[k + 1]))
        if anchor + abs(sub[k - 1]) * (abs(y) + abs(z)) == anchor:
            start = k
            break
        k -= 1
    top = lo + start
    R, C, above = _slabs(W, nz, top, hi)
    m = hi - top + 1
    # the bulge column is three long until the last step, which takes two
    col = _first_column(d, sub, sup, start, rt1r, rt1i, rt2r, rt2i)
    v = _apply_reflector(R, C, above, 0, col, m)
    if nz and start and v is not None:
        W[nz + top, top - 1] *= 1.0 - 2.0 * v[0] * v[0]
    for k in range(1, m - 1):
        _apply_reflector(R, C, above, k, R[k:k + 3, k - 1].tolist(), m)


def _givens(f: complex, g: complex) -> tuple[float, complex]:
    """Return (c, s) with c real so that [[c, s], [-conj(s), c]] @ (f, g) = (r, 0).
    f and g are Python complex scalars, so no numpy call is made; a modulus
    that overflows is inf, and the rotation then turns nan, as numpy's would."""
    if g == 0:
        return 1.0, 0j
    if f == 0:
        return 0.0, g.conjugate() / _modulus(g)
    af = _modulus(f)
    d = math.hypot(af, _modulus(g))
    return af / d, (f / af) * g.conjugate() / d


def _wilkinson_sweep(W: NDArray, lo: int, hi: int, stall: int, nz: int = 0) -> None:
    """One implicit single-shift sweep with a Wilkinson shift on the complex
    Hessenberg block lo..hi of H = W[nz:], by Givens rotations on the slabs
    of `_slabs`. Each rotation G is one 2x2 product per side, G on the two
    rows and G^H on the two columns, each written back in place; with the
    read of the next bulge pair as Python complex, a step makes 10 numpy
    calls. The entry a rotation annihilates keeps its rounding residue, below
    the subdiagonal, where later rotations carry it along."""
    B = W[nz + lo:nz + hi + 1, lo:hi + 1]
    m = B.shape[0]
    if stall % 11 == 0:
        sigma = B[m - 1, m - 1] + 0.75 * abs(B[m - 1, m - 2])
    else:
        e1, e2 = _eig2_complex(B[m - 2, m - 2], B[m - 2, m - 1],
                               B[m - 1, m - 2], B[m - 1, m - 1])
        corner = B[m - 1, m - 1]
        sigma = e1 if abs(e1 - corner) <= abs(e2 - corner) else e2
    R, C, top = _slabs(W, nz, lo, hi)
    x, z = B[:2, 0].tolist()
    x -= complex(sigma)
    for k in range(m - 1):
        c, s = _givens(x, z)
        sh = s.conjugate()
        rows = R[k:k + 2, max(k - 1, 0):]
        rows[:] = np.array([[c, s], [-sh, c]]) @ rows
        cols = C[:top + min(k + 3, m), k:k + 2]
        cols[:] = cols @ np.array([[c, -s], [sh, c]])
        if k < m - 2:
            x, z = B[k + 1:k + 3, k].tolist()


def solve_matrix(M, B) -> NDArray[np.complex128]:
    """Solve M X = B, for a vector or a matrix B, by one partial-pivoting LU
    of M and one forward and one back substitution; each substitution step
    is one stacked row product (1, 1, k) @ (m, k, 1) over all m columns of B.

    Raises ValueError when M is singular to working precision (zero, or with
    a pivot of at most 8 n eps max|M|) or B has the wrong number of rows.
    """
    A = _as_square(M)
    b = np.asarray(B)
    if b.shape[0] != A.shape[0]:
        raise ValueError(f"dimension mismatch: matrix {A.shape}, rhs {b.shape}")
    LU = np.array(A, dtype=complex)
    n = LU.shape[0]
    piv = np.arange(n)
    scale = np.abs(LU).max(initial=0.0)
    tiny = 8.0 * n * _EPS * scale
    singular = ValueError("matrix is singular to working precision")
    if scale == 0.0:
        raise singular
    for k in range(n):
        col = np.abs(LU[k:, k])
        p = k + np.argmax(col)
        if col[p - k] <= tiny:
            raise singular
        LU[[k, p]] = LU[[p, k]]
        piv[[k, p]] = piv[[p, k]]
        LU[k + 1:, k] /= LU[k, k]
        LU[k + 1:, k + 1:] -= LU[k + 1:, k, None] * LU[k, None, k + 1:]
    # x holds one right-hand side per row, in C order: Fortran-order rows
    # take another matmul loop and round differently
    x = np.take_along_axis(np.atleast_2d(np.asarray(b.T, dtype=complex)),
                           piv[None], axis=1)
    for k in range(1, n):
        x[:, k] -= (LU[None, k:k + 1, :k] @ x[:, :k, None])[:, 0, 0]
    for k in range(n - 1, -1, -1):
        x[:, k] = ((x[:, k] - (LU[None, k:k + 1, k + 1:] @ x[:, k + 1:, None])[:, 0, 0])
                   / LU[k, k])
    return np.ascontiguousarray((x[0] if b.ndim == 1 else x).T)


def residual(M, lam, v) -> float:
    """Relative eigenpair residual ||M v - lam v|| / ||v||."""
    A = _as_square(M)
    vec = np.asarray(v)
    nv = norm2(vec)
    if nv == 0.0:
        raise ValueError("residual of a zero vector is undefined")
    return norm2(A @ vec - lam * vec) / nv


def _tridiag_solve(sub, diag, sup, rhs) -> NDArray:
    """Solve a tridiagonal system in O(n) by partial-pivoting elimination
    that updates rhs as it runs, as LAPACK's gtsv does, on Python complex
    scalars from one tolist() per input array; each row takes the modulus
    of each pivot candidate once. A row swap leaves fill in a second
    superdiagonal, so U has three diagonals (d, du, du2).

    Where both pivot candidates are at most tiny = 8 n eps max|entry| (eps
    for a zero matrix), the larger is raised to tiny, keeping its phase and
    the row swap it implies, so a shift at an eigenvalue divides by no zero.
    """
    d, dl, du, x = (np.asarray(a, dtype=complex).tolist()
                    for a in (diag, sub, sup, rhs))
    n = len(d)
    du2 = [0j] * max(n - 2, 0)
    scale = max(max(map(abs, a), default=0.0) for a in (d, dl, du))
    tiny = 8.0 * n * _EPS * scale if scale > 0.0 else _EPS
    for i in range(n):
        here = abs(d[i])
        below = abs(dl[i]) if i < n - 1 else 0.0
        swap = below > here
        if max(here, below) <= tiny:
            if swap:
                dl[i] = dl[i] / below * tiny
            else:
                d[i] = tiny if d[i] == 0 else d[i] / here * tiny
        if i == n - 1:
            break
        if not swap:
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            x[i + 1] -= fact * x[i]
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            du[i], d[i + 1] = d[i + 1], du[i] - fact * d[i + 1]
            if i < n - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -fact * du[i + 1]
            x[i], x[i + 1] = x[i + 1], x[i] - fact * x[i + 1]
    x[n - 1] /= d[n - 1]
    if n > 1:
        x[n - 2] = (x[n - 2] - du[n - 2] * x[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (x[i] - du[i] * x[i + 1] - du2[i] * x[i + 2]) / d[i]
    return np.array(x, dtype=complex)


def _tridiag_matvec(sub: NDArray, diag: NDArray, sup: NDArray, x: NDArray) -> NDArray:
    y = diag * x
    y[1:] += sub * x[:-1]
    y[:-1] += sup * x[1:]
    return y


def _start_vector(n: int) -> NDArray:
    """The fixed unit start vector of quotient iteration."""
    start = np.ones(n, dtype=complex) + 1e-3 * np.arange(n)
    return start / norm2(start)


def _triangularize_2x2(W: NDArray, nz: int, i: int) -> None:
    """Make the real 2x2 diagonal block at rows i, i + 1 of the complex Schur
    form T = W[nz:] upper triangular by one unitary rotation, applied to T
    and to the Schur vectors W[:nz] (LAPACK's rsf2csf step).

    The rotation's first column is the block's eigenvector (lambda - d, c)
    for the root lambda farther from the (2,2) entry d: the nearer root would
    cancel in lambda - d. The roots are those `_eig2_real` gives the QR
    driver, and they are written onto the diagonal, lambda first."""
    T = W[nz:]
    a, b, c, d = (float(T[r, q].real) for r, q in ((i, i), (i, i + 1),
                                                    (i + 1, i), (i + 1, i + 1)))
    far, near = sorted(_eig2_real(a, b, c, d), key=lambda r: -abs(r - d))
    x = np.array([far - d, c])
    x /= norm2(x)
    G = np.array([[x[0], -x[1].conjugate()], [x[1], x[0].conjugate()]])
    rows = T[i:i + 2, i:]
    rows[:] = G.conj().T @ rows
    cols = W[:nz + i + 2, i:i + 2]
    cols[:] = cols @ G
    T[i, i], T[i + 1, i], T[i + 1, i + 1] = far, 0.0, near


def _triangular_eigenvectors(T: NDArray) -> tuple[NDArray, bool]:
    """Right eigenvectors of an upper triangular T, column j for the value
    T[j, j], by one back substitution over rows for all values at once.

    X is unit upper triangular. A denominator T[i, i] - T[j, j] below
    smin = eps ||T||_F is replaced by smin, as in LAPACK's ztrevc, so a
    repeated value never divides by zero: where T couples its copies, their
    vectors lean onto the head of the Jordan chain. T is first scaled by a power of two, which leaves
    the vectors' bits alone and keeps the differences of entries near the
    overflow threshold finite; a column whose entries grow past the point
    where the next row step could overflow is scaled down, and the flag
    returned is False when any column was, since X is then no longer unit
    triangular."""
    n = T.shape[0]
    big = float(np.abs(T).max())
    if big > 0.0:
        # two exact steps: 2^e alone overflows once big is subnormal
        e = -math.frexp(big)[1]
        T = T * 2.0 ** (e // 2) * 2.0 ** (e - e // 2)
    lam = T.diagonal().copy()
    smin = max(_EPS * norm2(T), np.finfo(float).tiny)
    # the next row step sums at most n products with |T| < 1, then divides
    # by at least smin
    limit = smin * np.finfo(float).max / (2 * n)
    X = np.eye(n, dtype=complex)
    unit = True
    for i in range(n - 2, -1, -1):
        den = T[i, i] - lam[i + 1:]
        den[np.abs(den) < smin] = smin
        row = X[i, i + 1:]
        row[:] = -(T[i, i + 1:] @ X[i + 1:, i + 1:]) / den
        size = np.abs(row)
        if size.max() > limit:
            grown = i + 1 + np.flatnonzero(size > limit)
            X[:, grown] /= np.abs(X[:, grown]).max(axis=0)
            unit = False
    return X, unit


def _unit_triangular_inverse(X: NDArray) -> NDArray:
    """Inverse of a unit upper triangular X, one row step each."""
    n = X.shape[0]
    Y = np.eye(n, dtype=X.dtype)
    for i in range(n - 2, -1, -1):
        Y[i, i + 1:] = -(X[i, i + 1:] @ Y[i + 1:, i + 1:])
    return Y


def _unit_pairs(A: NDArray, phi: NDArray, lam: NDArray) -> tuple[NDArray, NDArray]:
    """The columns of phi scaled to unit norm, and the residual of each with
    its value, by one stacked matrix-vector product per column so that each
    residual has the bits of `residual` on that column."""
    vectors = phi / norm2(phi.T, axis=-1)
    rows = vectors.T
    res = norm2((A @ rows[:, :, None])[:, :, 0] - lam[:, None] * rows, axis=-1)
    return vectors, res


def _schur_eigenpairs(A: NDArray, W: NDArray) -> tuple[NDArray, NDArray, NDArray]:
    """Eigenvalues, unit eigenvectors and residuals of A from its Schur
    factors: W stacks the Schur vectors Z above the quasi-triangular T that
    QR left, with Z^H A Z = T. Values pair with vectors by their position on
    T's diagonal.

    The vectors of T map back by Z to Phi = Z X, which then takes one first
    order step in its own eigenbasis (Dongarra, Moler and Wilkinson, SIAM J.
    Numer. Anal. 20, 1983): with Psi^H = X^-1 Z^H and the residual
    R = A Phi - Phi Lambda formed in numpy's extended precision, Phi becomes
    Phi + Phi ((Psi^H R) o G), where G[i, j] = 1 / (lambda_j - lambda_i) for
    pairs farther apart than RESIDUAL_TOL ||A||_F and 0 otherwise, so a
    repeated value or a Jordan block takes no step along its own chain. Where
    the platform's long double is the working double, the step runs at
    working precision. In an ill-conditioned eigenbasis the step itself can
    be inaccurate, so a column keeps it only where its residual stays within
    n eps ||A||_F of the unrefined one; a non-finite step keeps none, and
    none is taken when X had to be scaled against overflow. Raises
    RuntimeError when a unit pair misses the residual contract."""
    n = A.shape[0]
    W = W.astype(complex)
    Z, T = W[:n], W[n:]
    for i in np.flatnonzero(T.diagonal(-1)):
        _triangularize_2x2(W, n, i)
    T = np.triu(T)
    lam = T.diagonal().copy()
    X, unit = _triangular_eigenvectors(T)
    phi = Z @ X
    norm_scale = norm2(A)
    vectors, res = _unit_pairs(A, phi, lam)
    if unit:
        with np.errstate(over="ignore", invalid="ignore"):
            gap = lam[None, :] - lam[:, None]
            close = np.abs(gap) <= max(RESIDUAL_TOL * norm_scale, 0.0)
            G = np.divide(1.0, gap, out=np.zeros_like(gap), where=~close)
            wide = phi.astype(np.clongdouble)
            R = (A.astype(np.clongdouble) @ wide - wide * lam).astype(complex)
            step = phi @ (((_unit_triangular_inverse(X) @ Z.conj().T) @ R) * G)
            refined, refined_res = _unit_pairs(A, phi + step, lam)
        # the step is first order in an eigenbasis that may be ill conditioned
        # (a Jordan chain's vectors grow like (1/eps)^k); a column keeps it
        # only where its residual stays at the rounding level of the old one
        keep = refined_res <= res + n * _EPS * norm_scale
        vectors[:, keep] = refined[:, keep]
        res[keep] = refined_res[keep]
    if not np.all(res <= RESIDUAL_TOL * max(norm_scale, _EPS)):
        raise RuntimeError(
            f"Schur eigenvectors missed the residual contract on a {n}x{n} "
            f"matrix (worst residual {res.max():.3g})")
    return lam, vectors, res


def eig_dense(M, want_vectors: bool = False) -> EigenReport:
    """All eigenvalues of a dense square matrix, and on request their unit
    eigenvectors.

    Real input goes through Francis double-shift QR (complex pairs come out of
    irreducible 2x2 blocks of the real Schur form); complex input through
    single-shift Wilkinson QR, each with few numpy calls per step (see the
    module docstring). Values only, each sweep transforms its block alone.

    With want_vectors the same sweeps run on W = [Z; H], the Schur vectors Z
    stacked above H, and on wide slabs: each row update runs to the last
    column and each column update covers Z and H from their first rows, in
    one numpy call, so QR ends in the Schur form A = Z T Z^H (T upper
    triangular once each real 2x2 block is rotated into complex triangular
    form). The values are T's diagonal; they lie within backward error of
    the values-only ones but need not share their bits. The vectors are
    those of T by back substitution, mapped back by Z and refined by one
    first-order step whose residual is formed in extended precision (see
    `_schur_eigenpairs`). A repeated eigenvalue of a diagonalizable matrix
    gets independent vectors, a basis of its eigenspace. Every reported pair
    satisfies the residual contract (relative residual <= 1e-8 times the
    matrix norm). Raises RuntimeError when QR needs more than
    MAX_SWEEPS_PER_DIM sweeps per dimension, and when a pair misses the
    residual contract.
    """
    A0 = _as_square(M)
    n = A0.shape[0]
    if n == 0:
        return EigenReport(values=np.zeros(0, complex))
    is_real = not np.iscomplexobj(A0) or not np.any(A0.imag)
    if n == 1:
        values = np.array([complex(A0[0, 0])])
        vectors = np.ones((1, 1), complex) if want_vectors else None
        res = np.zeros(1) if want_vectors else None
        return EigenReport(values=values, vectors=vectors, residuals=res)
    max_sweeps = MAX_SWEEPS_PER_DIM * n
    W = np.array(A0.real if is_real else A0, dtype=float if is_real else complex)
    nz = n if want_vectors else 0
    if want_vectors:
        W = np.vstack([np.eye(n, dtype=W.dtype), W])
    _hessenberg(W, nz)
    if is_real:
        eigs, sweeps = _qr_eigenvalues(W, max_sweeps, _francis_sweep, _eig2_real,
                                       nz)
    else:
        # near the overflow threshold the 2x2 shift overflows to inf and the
        # rotations turn nan; QR then stalls and raises at its sweep cap, so
        # numpy's warnings would only repeat that failure
        with np.errstate(over="ignore", invalid="ignore"):
            eigs, sweeps = _qr_eigenvalues(W, max_sweeps, _wilkinson_sweep, nz=nz)
    if not want_vectors:
        values = np.array(eigs, dtype=complex)
        order = np.lexsort((values.imag, values.real))
        return EigenReport(values=values[order], iterations=sweeps)
    values, vectors, res = _schur_eigenpairs(np.array(A0, dtype=complex), W)
    order = np.lexsort((values.imag, values.real))
    return EigenReport(values=values[order], vectors=vectors[:, order],
                       residuals=res[order], iterations=sweeps)


def tridiag_rayleigh_iteration(sub, diag, sup, left, shifts) -> EigenReport:
    """Eigenpairs of a real tridiagonal J near the given shifts, by two-sided
    Rayleigh-quotient iteration in O(n) per value and round.

    sub, diag and sup are the three diagonals of J. left is the diagonal of a
    D with J^T = D J D^-1, so y = D x is a left eigenvector for every right
    eigenvector x, and the two-sided quotient y^T J x / y^T x has an error
    quadratic in that of x (Parlett, Math. Comp. 28, 1974). Each round takes,
    for each value s, one `_tridiag_solve` of J - s I from the value's
    previous unit iterate, a fixed start vector in the first round; it then
    replaces s by its quotient. The rounds stop once no value moves by more
    than eps times its size, or after QUOTIENT_ROUNDS. The quotient is
    summed in numpy's extended precision where the platform has one, so a
    settled value is a fixed point rather than a walk over its last digits.
    A real shift keeps its value real: a real eigenvalue of a real J has a
    real eigenvector. The report carries the final values, their unit
    vectors column-wise, the residuals at the final values and the rounds
    run; converged is False when a pair misses the residual contract of
    `eig_dense`. Raises ValueError on complex or mismatched diagonals.
    """
    d = np.asarray(diag)
    lower = np.asarray(sub)
    upper = np.asarray(sup)
    n = d.shape[0]
    if n == 0 or lower.shape != (n - 1,) or upper.shape != (n - 1,):
        raise ValueError(
            f"expected a diagonal of length n >= 1 and off-diagonals of length "
            f"n - 1, got {d.shape}, {lower.shape}, {upper.shape}")
    if np.iscomplexobj(lower) or np.iscomplexobj(d) or np.iscomplexobj(upper):
        raise ValueError("tridiag_rayleigh_iteration expects a real tridiagonal")
    wide = [np.asarray(a, dtype=np.longdouble)[:, None] for a in (lower, d, upper)]
    left_diag = np.asarray(left, dtype=np.clongdouble)[:, None]
    values = np.asarray(shifts, dtype=complex)
    real = values.imag == 0
    vectors = np.tile(_start_vector(n)[:, None], (1, len(values)))
    for rounds in range(1, QUOTIENT_ROUNDS + 1):
        for i, shift in enumerate(values):
            w = _tridiag_solve(lower, d - shift, upper, vectors[:, i])
            wn = norm2(w)
            if wn != 0.0 and math.isfinite(wn):
                vectors[:, i] = w / wn
        x = vectors.astype(np.clongdouble)
        jx = _tridiag_matvec(*wide, x)
        y = left_diag * x
        quotient = (np.sum(y * jx, axis=0) / np.sum(y * x, axis=0)).astype(complex)
        quotient = np.where(real, quotient.real + 0j, quotient)
        settled = np.all(np.abs(quotient - values) <= _EPS * np.abs(quotient))
        values = quotient
        if settled:
            break
    res = np.array([norm2(col) for col in (jx - values * x).T], dtype=float)
    norm_scale = norm2([norm2(a) for a in (d, lower, upper)])
    return EigenReport(values=values, vectors=vectors, residuals=res,
                       iterations=rounds,
                       converged=bool(np.all(res <= RESIDUAL_TOL * max(norm_scale, _EPS))))


def _modulus(z: complex) -> float:
    """|z| for a Python complex, inf where abs() would raise OverflowError."""
    return math.hypot(z.real, z.imag)


def _complex_radius(f: complex, g: complex) -> complex:
    """A square root of f^2 + g^2: the complex orthogonal analogue of hypot."""
    return cmath.sqrt(f * f + g * g)


def _away_real(g: float, r: float) -> float:
    return g + math.copysign(r, g)


def _away_complex(g: complex, r: complex) -> complex:
    """g + r or g - r, whichever has the larger modulus: |g + r|^2 - |g - r|^2
    is 4 Re(g conj(r)), so no modulus is formed."""
    return g + r if g.real * r.real + g.imag * r.imag >= 0.0 else g - r


def _ql_failure(n: int, sweeps: int, why: str = "") -> RuntimeError:
    return RuntimeError(
        f"QL did not converge on a {n}x{n} tridiagonal after {sweeps} sweeps{why}")


def _implicit_ql(d: list, e: list, size, radius, away) -> int:
    """Implicit-shift QL sweeps on the Python-scalar diagonal d and
    off-diagonal e (padded with a trailing 0), in place, until every value
    deflates. size is the modulus, radius(f, g) a square root of f^2 + g^2 and
    away(g, r) the shift denominator g +- r of larger modulus. The deflation
    scan takes each modulus once, carrying that of d[mm + 1] to the next row.
    Returns the sweep count. Raises RuntimeError after 50 sweeps on one value
    without deflation, and on a breakdown: a rotation with r == 0 while
    (f, g) != 0, which exists only for complex f and g, in a block larger
    than 2x2, or a non-finite value. A final value whose modulus overflows
    counts as non-finite, since an infinite modulus makes every deflation
    test beside it pass."""
    n = len(d)
    total = 0
    for l in range(n):
        it = 0
        while True:
            m, lower = n - 1, size(d[l])
            for mm in range(l, n - 1):
                upper, lower = lower, size(d[mm + 1])
                if size(e[mm]) <= _EPS * (upper + lower):
                    m = mm
                    break
            if m == l:
                break
            it += 1
            total += 1
            if it > 50:
                raise _ql_failure(n, total)
            if e[l] == 0.0:
                # an undeflated zero sits beside a NaN diagonal entry
                raise _ql_failure(n, total, " (non-finite value)")
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            g = d[m] - d[l] + e[l] / away(g, radius(g, 1.0))
            s = c = 1.0
            p = 0.0
            early = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = radius(f, g)
                e[i + 1] = r
                if r == 0.0:
                    if f != 0.0 or g != 0.0:
                        if m > l + 1:
                            raise _ql_failure(n, total, " (breakdown)")
                        # a 2x2 block breaks down only where it is defective,
                        # with its double eigenvalue at its mean diagonal
                        d[l] = d[m] = 0.5 * (d[l] + d[m])
                        e[l] = 0.0
                    else:
                        d[i + 1] -= p
                    e[m] = 0.0
                    early = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            if early:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0
            if not (cmath.isfinite(p) and cmath.isfinite(g)):
                raise _ql_failure(n, total, " (non-finite value)")
    if not all(size(x) < math.inf for x in d):
        raise _ql_failure(n, total, " (non-finite value)")
    return total


def eig_sym_tridiag(diag, offdiag) -> EigenReport:
    """All eigenvalues of a symmetric tridiagonal matrix, real or complex.

    Implicit-shift QL iteration on the (diagonal, offdiagonal) arrays, run on
    Python scalars; values are sorted by (real part, imaginary part). Real
    input is the textbook real symmetric case, with hypot rotations and the
    shift sign of g. Complex input is complex symmetric (equal, not
    conjugate, off-diagonals), handled by the same loop with complex
    orthogonal rotations c^2 + s^2 = 1: sqrt(f^2 + g^2) replaces hypot(f, g)
    and the shift denominator g +- r takes the sign of larger modulus
    (Cullum and Willoughby, SIAM J. Matrix Anal. Appl. 17, 1996). Such
    rotations are not unitary, so no backward stability is guaranteed, and
    a rotation breaks down where f^2 + g^2 = 0 with (f, g) != 0. A 2x2 block
    does so only where it is defective ([[1, i], [i, -1]], say), and then
    gives its double eigenvalue, the mean of its diagonal. Moduli are taken
    by hypot, so a value past the overflow threshold gives inf rather than
    raising. Raises RuntimeError, naming the size and the sweep count, on a
    stall (50 sweeps without deflation), on a breakdown in a larger block,
    and on any non-finite value or modulus; finite or not, entries of the
    right shapes raise nothing else and warn of nothing.
    """
    kind = complex if np.iscomplexobj(diag) or np.iscomplexobj(offdiag) else float
    d_in = np.asarray(diag, dtype=kind)
    e_in = np.asarray(offdiag, dtype=kind)
    n = d_in.shape[0]
    if e_in.shape[0] != max(n - 1, 0):
        raise ValueError(
            f"offdiagonal length {e_in.shape[0]} does not match diagonal length {n}")
    if n == 0:
        return EigenReport(values=np.zeros(0, complex))
    if kind is float:
        size, radius, away = abs, math.hypot, _away_real
    else:
        size, radius, away = _modulus, _complex_radius, _away_complex
    # the loop runs on Python scalars, which round as float64 and complex128
    # scalars do
    d = d_in.tolist()
    e = e_in.tolist() + [0.0]
    total_iter = _implicit_ql(d, e, size, radius, away)
    values = np.sort(np.array(d)).astype(complex)
    return EigenReport(values=values, iterations=total_iter)


def biorthonormalize(Phi, Psi):
    """Scale left vectors so the mutual Gram matrix becomes the identity.

    Phi holds right vectors column-wise, Psi left vectors; pairs are matched by
    column index. The inner product is antilinear in the left slot. Only Psi
    columns are rescaled (by 1/conj of the diagonal Gram entry), so a caller
    rescaling a Phi column sees the inverse-conjugate compensation in Psi.
    Raises ValueError on a vanishing diagonal Gram entry, which signals an
    eigenvalue collision or a defective pair.
    """
    P = np.array(Phi, dtype=complex, copy=True)
    Q = np.array(Psi, dtype=complex, copy=True)
    if P.shape != Q.shape:
        raise ValueError(f"shape mismatch: {P.shape} vs {Q.shape}")
    for i in range(P.shape[1]):
        g = np.vdot(Q[:, i], P[:, i])
        scale = norm2(Q[:, i]) * norm2(P[:, i])
        if abs(g) <= 1e-12 * max(scale, _EPS):
            raise ValueError(
                f"vanishing diagonal Gram entry at column {i}: "
                "eigenvalue collision or defective pair")
        Q[:, i] = Q[:, i] / np.conj(g)
    gram = Q.conj().T @ P
    return P, Q, gram


def multiset_distance(xs, ys) -> float:
    """Greedy matching distance between two equal-size multisets of scalars.

    Each element of xs is matched to the nearest unused element of ys; the
    largest matched distance is returned.
    """
    a = list(np.asarray(xs, dtype=complex))
    b = list(np.asarray(ys, dtype=complex))
    if len(a) != len(b):
        raise ValueError(f"multiset sizes differ: {len(a)} vs {len(b)}")
    worst = 0.0
    for x in a:
        best_j = min(range(len(b)), key=lambda j: abs(x - b[j]))
        worst = max(worst, abs(x - b[best_j]))
        b.pop(best_j)
    return worst

"""Self-contained dense linear algebra kernel.

Provides the numerical backends used by every other module: a nonsymmetric
eigensolver (Householder Hessenberg reduction followed by implicit
double-shift QR iteration, a real or conjugate shift pair for real matrices
and two complex shifts for complex ones, with eigenvectors from the Schur
form), a
complex symmetric tridiagonal eigensolver (implicit-shift QL), Sturm
bisection for the lowest eigenvalue of a real symmetric tridiagonal, a
partial-pivoting LU
solver, two-sided Rayleigh-quotient iteration for selected eigenpairs of a
real tridiagonal in O(n) per value and round, residual and
biorthonormalization utilities, and `norm2`, the package's one Euclidean
norm, which rescales where the plain sum of squares would under- or
overflow.

At the sizes used here QR time goes to Python and numpy calls, not to flops,
so each step makes few calls, and to the number of steps, so QR must deflate
wherever the matrix decouples. The Hessenberg reduction and the Francis
bulge steps share one reflector, LAPACK's P = I - tau u u^H with u[0] = 1
(zlarfg), built on Python scalars by `_reflector` and applied as the
similarity P^H A P of zgehd2. u[1:] is x[1:] divided by x[0] - beta, so a
column with one nonzero below its first entry gives an exact signed swap,
and the reduction keeps the exact zeros of a matrix whose Krylov space from
e_1 closes early. The Hamiltonian conserves m - n, so the Hessenberg form of
its 121 x 121 box truncation splits into blocks of 11, 10, 2, 10, 8, 79 and
1 rows; the unit-vector form I - 2 v v^H leaks eps-sized entries there,
which Arnoldi grows about tenfold per column, and QR then chases its bulges
across all 121 rows. Real and complex QR run one double-shift sweep,
`_francis_sweep`: a 3-row bulge with both roots of the trailing 2x2 as
shifts, as LAPACK's dlaqr5 and zlaqr5 chase one shift pair. Two things
follow the dtype: the bulge's first column, in dlaqr1's float form for real
input and zlaqr1's form for complex input (one complex formula would move
every real bit), and the form in which a step, `_bulge_step`, applies its
reflector, built as one 3x3 (or 2x2) array and taken as one product per
side. A real step keeps the subtraction, rows -= U rows and cols -= cols U
with U = tau u u^T, as the refsum update of dlaqr5 (Braman, Byers and
Mathias, SIAM J. Matrix Anal. Appl. 23, 2002): 9 numpy calls, the read of
the bulge column included, where two matrix-vector products and two rank-one
updates took 15; on the trunc-10 H the product P rows had moved the
full-versus-sector distance of verify-all from 2.64e-13 to 3.30e-13. A
complex step writes rows = P^H rows and cols = cols P back in place, 11
calls; there the refsum form made the backward error larger on most
matrices. Array references of the same products pin both. The rank-one form
serves the Hessenberg reduction, whose columns are long. The deflation scan
of `_qr_eigenvalues` and the start-row scan of the sweep read Python-scalar
copies of the diagonals, so they make no numpy call per row. Complex
double-shift QR takes 1,705 sweeps on the 45 complex-basis theorem1 matrices
of the plane-sweep benchmark (n = 9 to 48), where a single-shift Givens
sweep took 3,029. QR deflates 2x2 blocks, since a double-shift bulge needs 3
rows, and leaves them in place for either dtype; with eigenvectors, one
unitary rotation after QR, `_triangularize_2x2`, makes each block of the
Schur form triangular. The shift pair, the roots of a deflated 2x2 block and
its rotation into triangular form take one 2x2 formula, `_eig2`: half the
trace plus and minus sqrt(((a - d)/2)^2 + bc). The form (tr/2)^2 - det
cancels for two close real roots, as at the double eigenvalues of the
Hamiltonian at beta = 0.

Eigenvectors run the same sweeps on wider slabs. The Schur vectors Z are
stacked above H in one array, so each column update transforms Z and H in
the same numpy call, and each row update runs to the last column; QR then
ends in the Schur form A = Z T Z^H, with no more numpy calls per step. The
eigenvectors of the triangular T come from one back substitution over rows
for all values at once, map back by Z, and take one first-order refinement
step whose residual is formed in numpy's extended precision (Dongarra,
Moler and Wilkinson, SIAM J. Numer. Anal. 20, 1983). Values-only calls keep
the block-local slabs and their bits.

A caller that knows estimates of the eigenvalues, as theorem1 knows those of
M^H from the QR of M, passes them as `shifts`. The first HINTED_SWEEPS
sweeps after each deflation snap their computed shifts to the nearest
estimates, since a shift at an eigenvalue deflates it in one sweep in exact
arithmetic (D. S. Watkins, The Matrix Eigenvalue Problem, SIAM 2007); later
sweeps take the computed shifts, for the reason given at HINTED_SWEEPS. The
estimates choose the shifts only: every value and vector comes from the
Schur form of the matrix itself.

`solve_matrix` runs one partial-pivoting LU and one forward and one back
substitution, each over all right-hand sides at once. A tridiagonal is
solved in O(n) on Python scalars, each input array converted once, by
pivoted elimination applied to the right-hand side as it runs (LAPACK's
gtsv). Its eigenpairs come from one Rayleigh-quotient loop: each round
solves J - s I at each current value s and moves s to the two-sided quotient.

QL runs on Python complex scalars, and its deflation scan takes each modulus
once. It takes complex orthogonal rotations, sqrt(f^2 + g^2) in place of
hypot (Cullum and Willoughby, SIAM J. Matrix Anal. Appl. 17, 1996), which
the sector spectra use on the phase-similar form of the pseudo-Jacobi
matrices; a real symmetric input is solved as the complex symmetric matrix
it also is. These rotations are not unitary, and QL raises RuntimeError on a
breakdown, a stall or a non-finite value, as dense QR does at its sweep cap
and dense eigenvectors do on a pair that misses the residual contract.

A caller that needs only the lowest eigenvalue of a real symmetric
tridiagonal takes `sym_tridiag_lowest`: bisection on Sturm counts, O(n) per
count and about 53 counts, where QL costs O(n^2) for every value. A value
past the overflow threshold rounds to -inf, not to a wrong finite number.

All four eigensolvers take one power-of-two scaling rule, the scaling step
of LAPACK's dgeev (`_power_of_two_exponent`): dense QR and QL scale input
whose largest part lies outside [2^-500, 2^500] into [0.5, 1), Sturm
bisection and the triangular eigenvectors always, so no square near the
overflow or underflow threshold stalls a solver or makes a wrong value.

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
    "sym_tridiag_lowest",
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
#: sweeps after each deflation that snap their shifts to the caller's
#: eigenvalue estimates. An exact shift deflates in one sweep in exact
#: arithmetic, but in floating point it can fail to (Parlett and Le, SIAM J.
#: Matrix Anal. Appl. 14, 1993), and wrong estimates snapped on every sweep
#: can stall QR at its sweep cap; from the next sweep on the computed shifts
#: run again, so a wrong estimate costs sweeps and cannot stall QR
HINTED_SWEEPS = 2

_EPS = float(np.finfo(np.float64).eps)
#: smallest normal float: the floor of Sturm pivots and of ||A||_F in the residual contract
_PIVMIN = float(np.finfo(np.float64).tiny)


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
    plain sum of squares, rescaled where that sum under- or overflows, the
    remedy of J. L. Blue (ACM TOMS 4, 1978) and LAPACK's dnrm2 taken only
    where the plain sum fails. The rescale divides the row by the power of
    two of its largest entry, exactly, so that x 2^k has the norm of x times
    2^k, bit for bit, wherever neither under- nor overflows. The package's
    only Euclidean norm; squares that overflow raise no warning.

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
            p = math.frexp(big)[1]
            with np.errstate(over="ignore"):
                norm[i] = np.ldexp(np.sqrt((np.ldexp(a[i], -p) ** 2).sum()), p)
    return float(norm[0]) if axis is None else norm


def _reflector(col: list) -> tuple[list, float | complex] | None:
    """LAPACK's elementary reflector (zlarfg) of a column x of Python floats
    or Python complex scalars: (u[1:], tau), with u[0] = 1 and
    (I - tau u u^H)^H x = beta e_1, where beta = -sign(Re x[0]) ||x|| is real,
    tau = (beta - x[0]) / beta and u[1:] = x[1:] / (x[0] - beta). Returns
    None when x[1:] is zero and x[0] is real, where the reflector is I. The
    Hessenberg reduction and every bulge step take it.

    u[1:] is a quotient, not a product with the reciprocal, so a column with
    one nonzero, below its first entry, gives u = (1, +-1) and tau = 1
    exactly: an exact signed swap, which keeps the exact zeros of a matrix
    that decouples. beta is the norm of the column's real and imaginary
    parts, as zlarfg's dznrm2 takes it, so a column whose parts are finite
    but whose modulus overflows gives an infinite beta and a nan tau, and
    raises nothing."""
    alpha = col[0]
    tail = col[1:]
    if alpha.imag == 0.0 and not any(tail):
        return None
    if isinstance(alpha, complex):
        beta = norm2([part for z in col for part in (z.real, z.imag)])
    else:
        beta = norm2(col)
    if alpha.real >= 0.0:
        beta = -beta
    scale = alpha - beta
    return [t / scale for t in tail], (beta - alpha) / beta


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


def _hessenberg(W: NDArray, nz: int = 0) -> NDArray:
    """In-place reduction of H = W[nz:] to upper Hessenberg form, accumulated
    into the Z = W[:nz] stacked above it, if any: for each column, the
    similarity P^H H P by the reflector P = I - tau u u^H of `_reflector` that
    maps the column's part below the diagonal onto its first axis, as LAPACK's
    zgehd2 does. Each side is one matrix-vector product and one broadcast
    rank-one update, rows -= conj(tau) u (u^H rows) and
    cols -= (cols u) (tau u^H), the cheap form for long columns. A real tau
    is a Python float, so it adds no numpy call."""
    H = W[nz:]
    n = H.shape[0]
    for k in range(1, n - 1):
        reflector = _reflector(H[k:, k - 1].tolist())
        if reflector is None:
            continue
        tail, tau = reflector
        u = np.array([1.0, *tail])
        uc = u.conj() if isinstance(tau, complex) else u
        rows = H[k:, k - 1:]
        rows -= u[:, None] * (tau.conjugate() * (uc @ rows))
        cols = W[:, k:]
        cols -= (cols @ u)[:, None] * (tau * uc)
        H[k + 1:, k - 1] = 0.0
    return W


def _eig2(a, b, c, d) -> tuple[complex, complex]:
    """Eigenvalues of the 2x2 [[a, b], [c, d]], real or complex, as half the
    trace plus and minus sqrt(((a - d) / 2)^2 + b c): a real pair, a
    conjugate pair or a complex pair. The discriminant never subtracts the
    determinant from the squared half trace, so two close real roots do not
    cancel there."""
    half_tr = 0.5 * (a + d)
    sq = cmath.sqrt(0.25 * (a - d) * (a - d) + b * c)
    return half_tr + sq, half_tr - sq


def _first_column(d, sub, sup, k: int, s1, s2) -> list:
    """First column of the double-shift polynomial (H - s1)(H - s2) e_k at
    row k of the Hessenberg matrix with diagonal d, subdiagonal sub and
    superdiagonal sup, Python floats or Python complex scalars, in factored
    form; a list, so that `_reflector` builds on scalars. Real d takes the
    float form of LAPACK's dlaqr1, scaled by
    s = |H[k, k] - Re s2| + |Im s2| + |H[k + 1, k]|, with a conjugate pair
    entering through its parts; complex d takes zlaqr1's, scaled by
    s = |H[k, k] - s2| + |H[k + 1, k]|. A zero s gives a zero column.

    The expanded polynomial cancels catastrophically for eigenvalue clusters
    tight relative to eps * |H|; keeping the differences H[k, k] - s
    explicit preserves the bulge direction there.
    """
    a, h21 = d[k], sub[k]
    if isinstance(a, complex):
        h = a - s2
        s = abs(h) + abs(h21)
        if s == 0.0:
            return [0.0, 0.0, 0.0]
        h21s = h21 / s
        x = (a - s1) * (h / s) + sup[k] * h21s
    else:
        i1, i2 = s1.imag, s2.imag
        s1, s2 = s1.real, s2.real
        s = abs(a - s2) + abs(i2) + abs(h21)
        if s == 0.0:
            return [0.0, 0.0, 0.0]
        h21s = h21 / s
        x = h21s * sup[k] + (a - s1) * ((a - s2) / s) - i1 * (i2 / s)
    return [x, h21s * (a + d[k + 1] - s1 - s2), h21s * sub[k + 1]]


def _qr_eigenvalues(W: NDArray, max_sweeps: int, nz: int = 0,
                    shifts=None) -> tuple[list[complex], int]:
    """Eigenvalues of the upper Hessenberg H = W[nz:] by shifted QR, in place.

    Deflates 1x1 and 2x2 blocks from the bottom, the roots of a 2x2 block by
    `_eig2`, and leaves a 2x2 block in place; otherwise one double-shift
    sweep, `_francis_sweep` for real and complex W alike, runs on the
    unreduced block lo..hi as _francis_sweep(W, lo, hi, stall, nz, hint),
    stall counting sweeps since the last deflation. hint is shifts, an array
    of eigenvalue estimates or None, on the first HINTED_SWEEPS sweeps after
    each deflation, and the sweep snaps its computed shifts to those
    estimates; later sweeps get None and take the computed shifts, so a
    wrong estimate costs sweeps but cannot stall QR.
    With nz = 0 a sweep transforms the block alone; with the n x n Z stacked
    above H (nz = n) it transforms H whole and Z with it, which leaves W[:nz]
    the Schur vectors and H in quasi-triangular Schur form, upper triangular
    but for its deflated 2x2 blocks, which `_schur_eigenpairs` rotates into
    triangular form for either dtype. Deflated subdiagonal entries are set to
    zero.
    Raises RuntimeError when max_sweeps sweeps leave values undeflated.

    The deflation scan reads Python-scalar copies of the diagonal and
    subdiagonal, and each sweep recopies only its block.
    """
    H = W[nz:]
    n = H.shape[0]
    views = H.diagonal(), H.diagonal(-1)
    d, sub = views[0].tolist(), views[1].tolist()
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
        if lo == hi - 1:
            eigs.extend(_eig2(d[hi - 1], H[hi - 1, hi], sub[hi - 1], d[hi]))
            hi -= 2
            stall = 0
            continue
        if sweeps >= max_sweeps:
            raise RuntimeError(
                f"QR iteration did not converge on a {n}x{n} matrix after "
                f"{sweeps} sweeps")
        sweeps += 1
        stall += 1
        _francis_sweep(W, lo, hi, stall, nz,
                       shifts if stall <= HINTED_SWEEPS else None)
        d[lo:hi + 1] = views[0][lo:hi + 1].tolist()
        sub[lo:hi] = views[1][lo:hi].tolist()
    return eigs, sweeps


def _snapped(shifts: NDArray, computed: list) -> list:
    """Each computed shift replaced by the entry of shifts nearest to it, in
    turn, no entry taken twice; computed as it is where shifts has fewer
    entries."""
    if len(shifts) < len(computed):
        return computed
    dist = np.abs(shifts[:, None] - np.array(computed))
    snapped = []
    for j in range(len(computed)):
        i = int(np.argmin(dist[:, j]))
        snapped.append(shifts[i].item())
        dist[i] = np.inf
    return snapped


def _francis_sweep(W: NDArray, lo: int, hi: int, stall: int, nz: int = 0,
                   shifts=None) -> None:
    """One Francis implicit double-shift sweep on the Hessenberg block lo..hi,
    at least 3 rows, of the real or complex H = W[nz:], with the slabs of
    `_slabs`: the 3-row bulge that LAPACK's dlaqr5 and zlaqr5 chase with one
    shift pair (D. S. Watkins, The Matrix Eigenvalue Problem, SIAM 2007).
    The shifts are both roots of the trailing 2x2, a real or a conjugate
    pair for real W. Given an array of eigenvalue estimates, each root is
    replaced by a distinct estimate nearest to it (see `_snapped`); real W
    snaps only a pair of real roots, to real estimates. Every eleventh sweep
    since the last deflation takes the exceptional double shift
    H[hi, hi] + 0.75 |H[hi, hi - 1]| of LAPACK's zlaqr0 instead, real for
    real W.

    The shift and start-row scans read Python-scalar copies of the block's
    three diagonals, and each bulge step reads its column as Python scalars.
    A sweep that starts below the block top leaves H[start, start - 1] out
    of its first reflector; with Z stacked above H that entry takes the
    reflector's factor 1 - conj(tau), as in LAPACK's dlahqr, so that the
    transform applied to H whole is a similarity. The values-only sweep
    leaves it as it is."""
    B = W[nz + lo:nz + hi + 1, lo:hi + 1]
    d, sub, sup = (B.diagonal(i).tolist() for i in (0, -1, 1))
    b = hi - lo
    if stall % 11 == 0:
        # exceptional double shift after repeated stalls (ad hoc, as zlaqr0)
        s1 = s2 = d[b] + 0.75 * abs(sub[b - 1])
    else:
        s1, s2 = _eig2(d[b - 1], sup[b - 1], sub[b - 1], d[b])
        if shifts is not None and (isinstance(d[b], complex)
                                   or s1.imag == s2.imag == 0.0):
            s1, s2 = _snapped(shifts, [s1, s2])
    # a tiny interior subdiagonal kills the bulge as it passes, so the
    # shifts never reach the bottom; start below any such entry instead
    # (two-consecutive-small-subdiagonals test)
    start = 0
    for k in range(b - 2, 0, -1):
        x, y, z = _first_column(d, sub, sup, k, s1, s2)
        x, y, z = abs(x), abs(y), abs(z)
        s = x + y + z
        if s != 0.0:
            x, y, z = x / s, y / s, z / s
        anchor = x * (abs(d[k - 1]) + abs(d[k]) + abs(d[k + 1]))
        if anchor + abs(sub[k - 1]) * (y + z) == anchor:
            start = k
            break
    top = lo + start
    R, C, above = _slabs(W, nz, top, hi)
    m = hi - top + 1
    # the bulge column is three long until the last step, which takes two
    col = _first_column(d, sub, sup, start, s1, s2)
    tau = _bulge_step(R, C, above, 0, col, m)
    if nz and start and tau is not None:
        W[nz + top, top - 1] *= 1.0 - tau.conjugate()
    for k in range(1, m - 1):
        _bulge_step(R, C, above, k, R[k:k + 3, k - 1].tolist(), m)


def _bulge_step(R: NDArray, C: NDArray, top: int, k: int, col: list,
                m: int) -> float | complex | None:
    """One bulge step of `_francis_sweep`: the similarity P^H A P on rows and
    columns k .. k + len(col) - 1 of an m x m block, with R, C and top the
    row view, column view and rows above the block of `_slabs`, by the
    reflector P = I - tau u u^H of the column col of Python floats or Python
    complex scalars, from `_reflector`. Returns tau, or None when P is I.

    One 2x2 or 3x3 array is built from the same scalars, its entries
    written out for each size (a comprehension over them took about four
    times as long), and taken as one product per side, in the form of the
    dtype (see the module docstring): a real step builds U = tau u u^T and
    takes rows -= U rows and cols -= cols U; a complex step builds P and
    writes rows = P^H rows and cols = cols P back in place."""
    reflector = _reflector(col)
    if reflector is None:
        return None
    tail, tau = reflector
    u1 = tail[0]
    t1 = tau * u1
    if len(tail) == 2:
        u2 = tail[1]
        t2 = tau * u2
    w = len(col)
    rows = R[k:k + w, max(k - 1, 0):]
    cols = C[:top + min(k + w + 1, m), k:k + w]
    if isinstance(tau, complex):
        c1 = u1.conjugate()
        if w == 2:
            P = np.array([[1 - tau, -tau * c1], [-t1, 1 - t1 * c1]])
        else:
            c2 = u2.conjugate()
            P = np.array([[1 - tau, -tau * c1, -tau * c2],
                          [-t1, 1 - t1 * c1, -t1 * c2],
                          [-t2, -t2 * c1, 1 - t2 * c2]])
        rows[:] = P.conj().T @ rows
        cols[:] = cols @ P
        return tau
    if w == 2:
        U = np.array([[tau, t1], [t1, t1 * u1]])
    else:
        U = np.array([[tau, t1, t2], [t1, t1 * u1, t1 * u2], [t2, t2 * u1, t2 * u2]])
    rows -= U @ rows
    cols -= cols @ U
    return tau


def solve_matrix(M, B) -> NDArray[np.complex128]:
    """Solve M X = B, for a vector or a matrix B, by one partial-pivoting LU
    of M and one forward and one back substitution; each substitution step
    is one stacked row product (1, 1, k) @ (m, k, 1) over all m columns of B.

    Raises RuntimeError when M is singular to working precision (zero, or
    with a pivot of at most 8 n eps max|M|), and ValueError when B has the
    wrong number of rows.
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
    singular = RuntimeError("matrix is singular to working precision")
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
    """Relative eigenpair residual ||M v - lam v|| / ||v||.

    M and lam are scaled by one power of two and v by another, each by the
    module's rule (`_power_of_two_exponent`), so that neither the product nor
    the norms overflow or lose digits to underflow; the result is scaled
    back, inf past overflow. Input whose largest parts lie in
    [2^-500, 2^500] keeps its bits."""
    # float64 or complex128 parts, which the power-of-two rule reads
    A, lam, vec = (np.asarray(x) for x in (_as_square(M), lam, v))
    A, lam, vec = (x.astype(np.result_type(x, np.float64), copy=False)
                   for x in (A, lam, vec))
    if norm2(vec) == 0.0:
        raise ValueError("residual of a zero vector is undefined")
    if p := _power_of_two_exponent((A, lam), always=False):
        A, lam = _ldexp(A, -p), _ldexp(lam, -p)
    if q := _power_of_two_exponent((vec,), always=False):
        vec = _ldexp(vec, -q)
    res = norm2(A @ vec - lam * vec) / norm2(vec)
    try:
        return math.ldexp(res, p)
    except OverflowError:
        return math.inf


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


def _triangularize_2x2(W: NDArray, nz: int, i: int, a, b, c, d) -> None:
    """Make the 2x2 diagonal block [[a, b], [c, d]] at rows i, i + 1 of the
    complex Schur form T = W[nz:] upper triangular by one unitary rotation,
    applied to T and to the Schur vectors W[:nz] (LAPACK's rsf2csf step). The
    entries are Python scalars read from the Schur form QR left, before a
    real W was cast to complex, so that a real block's roots take real
    arithmetic.

    The rotation's first column is the block's eigenvector (lambda - d, c)
    for the root lambda farther from the (2,2) entry d: the nearer root would
    cancel in lambda - d. The roots are those `_eig2` gives the QR driver,
    and they are written onto the diagonal, lambda first."""
    T = W[nz:]
    far, near = sorted(_eig2(a, b, c, d), key=lambda r: -_modulus(r - d))
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
    vectors lean onto the head of the Jordan chain. T is first scaled by the
    power of two of `_power_of_two_exponent`, which leaves the vectors' bits
    alone and keeps the differences of entries near the overflow threshold
    finite; a column whose entries grow past the point where the next row
    step could overflow is scaled down, and the flag returned is False when
    any column was, since X is then no longer unit triangular."""
    n = T.shape[0]
    T = _ldexp(T, -_power_of_two_exponent((T,), always=True))
    lam = T.diagonal().copy()
    smin = max(_EPS * norm2(T), np.finfo(float).tiny)
    # T's parts lie below 1, so |T| < sqrt 2; the 2 n in limit keeps a row
    # step's n products below smin times the largest float, then divides by
    # at least smin
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
    QR left, with Z^H A Z = T. Each 2x2 block of T, real or complex, is first
    rotated into triangular form by `_triangularize_2x2`. Values pair with
    vectors by their position on T's diagonal.

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
    blocks = [(i, W[n + i:n + i + 2, i:i + 2].ravel().tolist())
              for i in np.flatnonzero(W[n:].diagonal(-1))]
    W = W.astype(complex)
    Z, T = W[:n], W[n:]
    for i, block in blocks:
        _triangularize_2x2(W, n, i, *block)
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
    if not np.all(res <= RESIDUAL_TOL * max(norm_scale, _PIVMIN)):
        raise RuntimeError(
            f"Schur eigenvectors missed the residual contract on a {n}x{n} "
            f"matrix (worst residual {res.max():.3g})")
    return lam, vectors, res


def eig_dense(M, want_vectors: bool = False, shifts=None) -> EigenReport:
    """All eigenvalues of a dense square matrix, and on request their unit
    eigenvectors.

    Real and complex input go through one Francis double-shift QR sweep,
    with a real or a conjugate shift pair for real input (complex pairs come
    out of irreducible 2x2 blocks of the real Schur form) and two complex
    shifts for complex input, each step a few numpy calls (see the module
    docstring). QR deflates 2x2 blocks by `_eig2`. Values only, each sweep
    transforms its block alone.

    With want_vectors the same sweeps run on W = [Z; H], the Schur vectors Z
    stacked above H, and on wide slabs: each row update runs to the last
    column and each column update covers Z and H from their first rows, in
    one numpy call, so QR ends in the Schur form A = Z T Z^H (T upper
    triangular once each 2x2 block, real or complex, is rotated into complex
    triangular form after QR). The values are T's diagonal; they lie within
    backward error of the values-only ones but need not share their bits.
    The vectors are those of T by back substitution, mapped back by Z and
    refined by one first-order step whose residual is formed in extended
    precision (see `_schur_eigenpairs`). A repeated eigenvalue of a
    diagonalizable matrix gets independent vectors, a basis of its
    eigenspace. Every reported pair satisfies the residual contract
    (relative residual <= 1e-8 times the matrix norm). All of this runs on
    the input scaled by the module's power-of-two rule, with the values,
    shifts and residuals scaled to match; input whose largest part lies in
    [2^-500, 2^500] keeps its bits. The input is copied to C order first, so
    the results do not depend on its memory layout.

    shifts, a sequence of eigenvalue estimates, steers QR: on the first
    HINTED_SWEEPS sweeps after each deflation a computed shift is replaced by
    the nearest estimate (real input snaps only a real root pair, to two
    real estimates), and later sweeps take the computed shifts. Estimates
    near the eigenvalues save sweeps and wrong ones cost sweeps; the values
    and vectors are those of M's own Schur form either way, and a call
    without shifts keeps every bit. Raises RuntimeError when QR needs more
    than MAX_SWEEPS_PER_DIM sweeps per dimension, and when a pair misses the
    residual contract.
    """
    A0 = _as_square(M)
    n = A0.shape[0]
    if n == 0:
        return EigenReport(values=np.zeros(0, complex))
    is_real = not np.iscomplexobj(A0) or not np.any(A0.imag)
    max_sweeps = MAX_SWEEPS_PER_DIM * n
    # C order: matmul on Fortran-order slabs takes other kernels, whose bits
    # differ, so the input's layout would reach the values
    A = np.array(A0, dtype=complex, order="C")
    if p := _power_of_two_exponent((A,), always=False):
        A = _ldexp(A, -p)
    W = np.array(A.real if is_real else A)
    nz = n if want_vectors else 0
    if want_vectors:
        W = np.vstack([np.eye(n, dtype=W.dtype), W])
    hint = None
    if shifts is not None:
        hint = _ldexp(np.asarray(shifts, dtype=complex), -p)
        if is_real:
            # a real double shift is a real or a conjugate pair
            hint = hint.real[hint.imag == 0.0]
    _hessenberg(W, nz)
    eigs, sweeps = _qr_eigenvalues(W, max_sweeps, nz, hint)
    if not want_vectors:
        values = _ldexp(np.array(eigs, dtype=complex), p)
        order = np.lexsort((values.imag, values.real))
        return EigenReport(values=values[order], iterations=sweeps)
    values, vectors, res = _schur_eigenpairs(A, W)
    values, res = _ldexp(values, p), np.ldexp(res, p)
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
                       converged=bool(np.all(res <= RESIDUAL_TOL * max(norm_scale, _PIVMIN))))


def _modulus(z: complex) -> float:
    """|z| for a Python complex, inf where abs() would raise OverflowError."""
    return math.hypot(z.real, z.imag)


def _complex_radius(f: complex, g: complex) -> complex:
    """A square root of f^2 + g^2: the complex orthogonal analogue of hypot."""
    return cmath.sqrt(f * f + g * g)


def _away_complex(g: complex, r: complex) -> complex:
    """g + r or g - r, whichever has the larger modulus: |g + r|^2 - |g - r|^2
    is 4 Re(g conj(r)), so no modulus is formed."""
    return g + r if g.real * r.real + g.imag * r.imag >= 0.0 else g - r


def _power_of_two_exponent(arrays, always: bool) -> int:
    """The exponent p for which 2^-p puts the largest real or imaginary part
    of any entry of the arrays in [0.5, 1); 0 where every entry is
    0 or the largest part is not finite. Unless always, p is 0 as well where
    the largest part lies in [2^-500, 2^500], so that input in that range
    keeps its bits. Scaling by 2^-p is exact away from underflow, and a
    solver whose steps are homogeneous in the entries takes the same
    decisions on the scaled entries, with every value scaled by 2^-p."""
    big = max(float(np.abs(a.ravel("K").view(float)).max(initial=0.0)) for a in arrays)
    if not always and 2.0 ** -500 <= big <= 2.0 ** 500:
        return 0
    return math.frexp(big)[1]


def _ldexp(a: NDArray, p: int) -> NDArray:
    """a 2^p for a real or complex array, part by part, in C order; inf past overflow."""
    with np.errstate(over="ignore"):
        return np.ldexp(np.ascontiguousarray(a).view(float), p).view(a.dtype)


def _ql_failure(n: int, sweeps: int, why: str = "") -> RuntimeError:
    return RuntimeError(
        f"QL did not converge on a {n}x{n} tridiagonal after {sweeps} sweeps{why}")


def _implicit_ql(d: list, e: list) -> int:
    """Implicit-shift QL sweeps on the Python-complex diagonal d and
    off-diagonal e (padded with a trailing 0) of a complex symmetric
    tridiagonal, in place, until every value deflates. The deflation scan
    takes each modulus once, carrying that of d[mm + 1] to the next row.
    Returns the sweep count. Raises RuntimeError after 50 sweeps on one value
    without deflation, and on a breakdown: a rotation with r == 0 while
    (f, g) != 0 in a block larger than 2x2, or a non-finite value. A final
    value whose modulus overflows counts as non-finite, since an infinite
    modulus makes every deflation test beside it pass."""
    # local names, so the inner loop pays no global lookups
    size, radius, away = _modulus, _complex_radius, _away_complex
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
    """All eigenvalues of a complex symmetric tridiagonal matrix (equal, not
    conjugate, off-diagonals); real symmetric input is cast to complex.

    Implicit-shift QL iteration on the (diagonal, offdiagonal) arrays, run on
    Python complex scalars; values are sorted by (real part, imaginary part).
    Its rotations are complex orthogonal, c^2 + s^2 = 1: sqrt(f^2 + g^2)
    replaces hypot(f, g) and the shift denominator g +- r takes the sign of
    larger modulus (Cullum and Willoughby, SIAM J. Matrix Anal. Appl. 17,
    1996). Such rotations are not unitary, so no backward stability is
    guaranteed, and a rotation breaks down where f^2 + g^2 = 0 with
    (f, g) != 0. A 2x2 block does so only where it is defective
    ([[1, i], [i, -1]], say), and then gives its double eigenvalue, the mean
    of its diagonal. Moduli are taken by hypot, so a value past the overflow
    threshold gives inf rather than raising. QL runs on the entries scaled
    by the module's power-of-two rule, and the values are scaled back. Raises
    RuntimeError, naming the size and the sweep count, on a stall (50 sweeps
    without deflation), on a breakdown in a larger block, and on any
    non-finite value or modulus, scaled back or not; finite or not, entries
    of the right shapes raise nothing else and warn of nothing.
    """
    d_in = np.ascontiguousarray(diag, dtype=complex)
    e_in = np.ascontiguousarray(offdiag, dtype=complex)
    n = d_in.shape[0]
    if e_in.shape[0] != max(n - 1, 0):
        raise ValueError(
            f"offdiagonal length {e_in.shape[0]} does not match diagonal length {n}")
    if n == 0:
        return EigenReport(values=np.zeros(0, complex))
    p = _power_of_two_exponent((d_in, e_in), always=False)
    if p:
        d_in, e_in = _ldexp(d_in, -p), _ldexp(e_in, -p)
    # the loop runs on Python scalars, which round as complex128 scalars do
    d = d_in.tolist()
    e = e_in.tolist() + [0.0]
    total_iter = _implicit_ql(d, e)
    values = np.sort(np.array(d, dtype=complex))
    if p:
        values = _ldexp(values, p)
        if not all(_modulus(z) < math.inf for z in values.tolist()):
            raise _ql_failure(n, total_iter, " (non-finite value)")
    return EigenReport(values=values, iterations=total_iter)


def sym_tridiag_lowest(diag, offdiag) -> float:
    """Lowest eigenvalue of a real symmetric tridiagonal matrix, by bisection
    on Sturm counts (Barth, Martin and Wilkinson, Numer. Math. 9, 1967): O(n)
    per count, where QL pays O(n^2) for every value.

    The entries are scaled by the power of two that puts the largest in
    [0.5, 1). The value lies between the Gershgorin lower bound, widened by
    2.1 n eps ||T|| as in LAPACK's dstebz, and min(diag), the Rayleigh
    quotient of a unit vector. Each midpoint x moves one end of the bracket
    by whether T - x I has a negative pivot q_i = d_i - x - e_{i-1}^2 / q_{i-1},
    so a count stops at the first one. A pivot below the smallest normal
    number counts as negative, as dstebz replaces it by -pivmin. Bisection
    ends when the midpoint equals an end, after about 53 counts, or when the
    scaled bracket is narrower than eps^2, which ends a value near 0 after
    about 105. Returns the upper end, scaled back; a value below the most
    negative float rounds to -inf. Raises ValueError on mismatched lengths,
    an empty matrix or a non-finite entry.
    """
    d_in = np.ascontiguousarray(diag, dtype=float)
    e_in = np.ascontiguousarray(offdiag, dtype=float)
    n = d_in.shape[0]
    if n == 0 or e_in.shape[0] != n - 1:
        raise ValueError(f"expected n >= 1 diagonal and n - 1 off-diagonal "
                         f"entries, got {n} and {e_in.shape[0]}")
    if not (np.isfinite(d_in).all() and np.isfinite(e_in).all()):
        raise ValueError("tridiagonal entries must be finite")
    p = _power_of_two_exponent((d_in, e_in), always=True)
    d = np.ldexp(d_in, -p).tolist()
    e = np.ldexp(e_in, -p).tolist()
    radii = [abs(a) + abs(b) for a, b in zip([0.0] + e, e + [0.0])]
    low = min(x - r for x, r in zip(d, radii))
    norm = max(abs(low), max(x + r for x, r in zip(d, radii)))
    lo, hi = low - 2.1 * n * _EPS * norm, min(d)
    d0, steps = d[0], list(zip(d[1:], [t * t for t in e]))

    def negative_pivot(x: float) -> bool:
        q = d0 - x
        if q < _PIVMIN:
            return True
        for di, e2 in steps:
            q = di - x - e2 / q
            if q < _PIVMIN:
                return True
        return False

    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi or hi - lo <= _EPS * _EPS:
            break
        if negative_pivot(mid):
            hi = mid
        else:
            lo = mid
    try:
        return math.ldexp(hi, p)
    except OverflowError:
        return -math.inf


def biorthonormalize(Phi, Psi):
    """Scale left vectors so the mutual Gram matrix becomes the identity.

    Phi holds right vectors column-wise, Psi left vectors; pairs are matched by
    column index. The inner product is antilinear in the left slot. Only Psi
    columns are rescaled (by 1/conj of the diagonal Gram entry), so a caller
    rescaling a Phi column sees the inverse-conjugate compensation in Psi.
    Raises RuntimeError on a vanishing diagonal Gram entry, which signals an
    eigenvalue collision or a defective pair, and ValueError on a shape
    mismatch.
    """
    P = np.array(Phi, dtype=complex, copy=True)
    Q = np.array(Psi, dtype=complex, copy=True)
    if P.shape != Q.shape:
        raise ValueError(f"shape mismatch: {P.shape} vs {Q.shape}")
    for i in range(P.shape[1]):
        g = np.vdot(Q[:, i], P[:, i])
        scale = norm2(Q[:, i]) * norm2(P[:, i])
        if abs(g) <= 1e-12 * max(scale, _EPS):
            raise RuntimeError(
                f"vanishing diagonal Gram entry at column {i}: "
                "eigenvalue collision or defective pair")
        Q[:, i] = Q[:, i] / np.conj(g)
    gram = Q.conj().T @ P
    return P, Q, gram


def multiset_distance(xs, ys) -> float:
    """Greedy matching distance between two equal-size multisets of scalars.

    Each element of xs is matched to the nearest unused element of ys; the
    largest matched distance is returned, or at once the first that is not
    finite: max would drop a NaN, and an overflow is inf with no warning.
    """
    a = np.asarray(xs, dtype=complex).tolist()
    b = np.asarray(ys, dtype=complex).tolist()
    if len(a) != len(b):
        raise ValueError(f"multiset sizes differ: {len(a)} vs {len(b)}")
    worst = 0.0
    for x in a:
        d, j = min((_modulus(x - y), j) for j, y in enumerate(b))
        if not math.isfinite(d):
            return d
        worst = max(worst, d)
        b.pop(j)
    return worst

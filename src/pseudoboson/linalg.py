"""Self-contained dense linear algebra kernel.

Provides the numerical backends used by every other module: a nonsymmetric
eigensolver (Householder Hessenberg reduction followed by shifted QR
iteration, Francis double shift for real matrices and Wilkinson single shift
for complex ones), a symmetric tridiagonal eigensolver (implicit-shift QL),
a partial-pivoting LU solver, inverse iteration for dense eigenvectors,
two-sided Rayleigh-quotient iteration for selected eigenpairs of a real
tridiagonal in O(n) per value and round, residual and biorthonormalization
utilities, and `norm2`, the package's one Euclidean norm, which rescales
where the plain sum of squares would under- or overflow.

At the sizes used here QR time goes to Python and numpy calls, not to flops,
so each step makes few calls. A 3-row Francis bulge step builds its
Householder vector from Python floats and applies it with two matrix-vector
products and two broadcast rank-one updates: 16 numpy calls in all, indexing
included, where array code makes 57. The deflation scan of the driver and the
start-row scan of the Francis sweep read Python-float copies of the
diagonals, so they make no numpy call per row. A Wilkinson step computes its
two new rows and columns from views. Every floating-point operation keeps its
operands and their order, so these paths give the same bits as array code.

Dense inverse iteration runs all values of a block together: every value
keeps its own shift schedule, and the shifted matrices of a block are
factored as one (b, n, n) stacked LU. `solve_matrix` and the inverse
iteration share one forward and back substitution, which sweeps all
right-hand sides at once. A tridiagonal has its own O(n) pivoted LU, and
its eigenpairs come from one Rayleigh-quotient loop: each round factors
J - s I once at each current value s, takes one solve, and moves s to the
two-sided quotient.

numpy is used as the array substrate only; no factorizations or eigensolvers
of numpy's linear-algebra module are called here, so results can be
cross-checked against an independent library route in the test suite.
"""

from __future__ import annotations

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
#: relative shift offset for inverse iteration
INVERSE_ITER_SHIFT = 1e-10
#: residual contract: ||A v - lambda v|| for unit v, relative to ||A||_F
RESIDUAL_TOL = 1e-8
#: byte budget of one block of stacked dense LU factors in eigenvector
#: inverse iteration: max(1, STACK_BYTES // (16 n^2)) values per block
STACK_BYTES = 2 ** 18
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
    RESIDUAL_TOL times the matrix norm, and converged is False when a pair
    misses it (from `eig_sym_tridiag`, when QL stalls). iterations counts QR
    sweeps (quotient rounds from `tridiag_rayleigh_iteration`); QR that does
    not converge raises RuntimeError instead.
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


def _apply_reflector(B: NDArray, k: int, col, m: int) -> bool:
    """Apply, on rows and columns k .. k + len(col) - 1 of the m x m block B,
    the Householder similarity that maps col onto its first axis; False when
    col is zero and nothing was applied. Each side is one matrix-vector
    product and one broadcast rank-one update."""
    v = _householder(col)
    if v is None:
        return False
    vc = v.conj()
    w = len(v)
    R = B[k:k + w, max(k - 1, 0):]
    R -= 2.0 * (v[:, None] * (vc @ R))
    C = B[:min(k + w + 1, m), k:k + w]
    C -= 2.0 * ((C @ v)[:, None] * vc)
    return True


def _hessenberg(A: NDArray) -> NDArray:
    """In-place reduction to upper Hessenberg form by Householder reflectors."""
    n = A.shape[0]
    for k in range(n - 2):
        if _apply_reflector(A, k + 1, A[k + 1:, k], n):
            A[k + 2:, k] = 0.0
    return A


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


def _qr_eigenvalues(H: NDArray, max_sweeps: int, sweep,
                    block2=None) -> tuple[list[complex], int]:
    """Eigenvalues of an upper Hessenberg matrix by shifted QR, in place.

    Deflates 1x1 blocks from the bottom, and 2x2 blocks through block2 when
    given; otherwise sweep(H, lo, hi, stall) runs one QR sweep on the
    unreduced block lo..hi, stall counting sweeps since the last deflation.
    Raises RuntimeError when max_sweeps sweeps leave values undeflated.

    The deflation scan reads copies of the diagonal and subdiagonal, Python
    floats for a real H, and each sweep recopies only its block. Complex
    entries stay numpy scalars, whose abs overflows to inf where Python's
    raises.
    """
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
        sweep(H, lo, hi, stall)
        d[lo:hi + 1] = copy(views[0][lo:hi + 1])
        sub[lo:hi] = copy(views[1][lo:hi])
    return eigs, sweeps


def _francis_sweep(H: NDArray, lo: int, hi: int, stall: int) -> None:
    """One Francis implicit double-shift sweep on a real Hessenberg block.

    The shift and start-row scans read Python-float copies of the block's
    three diagonals, and each bulge step reads its column as floats."""
    B = H[lo:hi + 1, lo:hi + 1]
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
    B = B[start:, start:]
    m = B.shape[0]
    # the bulge column is three long until the last step, which takes two
    col = _first_column(d, sub, sup, start, rt1r, rt1i, rt2r, rt2i)
    for k in range(m - 1):
        _apply_reflector(B, k, col, m)
        col = B[k + 1:k + 4, k].tolist()


def _givens(f, g) -> tuple[float, complex]:
    """Return (c, s) with c real so that [[c, s], [-conj(s), c]] @ (f, g) = (r, 0)."""
    if g == 0:
        return 1.0, 0.0 + 0.0j
    if f == 0:
        return 0.0, complex(np.conj(g) / abs(g))
    af = abs(f)
    d = math.hypot(af, abs(g))
    c = af / d
    s = (f / af) * np.conj(g) / d
    return c, complex(s)


def _wilkinson_sweep(H: NDArray, lo: int, hi: int, stall: int) -> None:
    """One implicit single-shift sweep with a Wilkinson shift on a complex
    Hessenberg block, by Givens rotations."""
    B = H[lo:hi + 1, lo:hi + 1]
    m = B.shape[0]
    if stall % 11 == 0:
        sigma = B[m - 1, m - 1] + 0.75 * abs(B[m - 1, m - 2])
    else:
        e1, e2 = _eig2_complex(B[m - 2, m - 2], B[m - 2, m - 1],
                               B[m - 1, m - 2], B[m - 1, m - 1])
        corner = B[m - 1, m - 1]
        sigma = e1 if abs(e1 - corner) <= abs(e2 - corner) else e2
    x = B[0, 0] - sigma
    z = B[1, 0]
    for k in range(m - 1):
        c, s = _givens(x, z)
        sh = s.conjugate()
        # both new rows, then both new columns, from views of the old ones
        rk, rk1 = B[k, max(k - 1, 0):], B[k + 1, max(k - 1, 0):]
        rk[:], rk1[:] = c * rk + s * rk1, -sh * rk + c * rk1
        ck, ck1 = B[:min(k + 3, m), k], B[:min(k + 3, m), k + 1]
        ck[:], ck1[:] = c * ck + sh * ck1, -s * ck + c * ck1
        if k < m - 2:
            x = B[k + 1, k]
            z = B[k + 2, k]


def _lu_factor(A: NDArray, fix_singular: bool = False):
    """Partial-pivoting LU of a matrix, or of each matrix of a (b, n, n)
    stack with one Python step per column for the whole stack.

    Raises on a pivot that is singular to working precision, unless
    fix_singular is set, in which case the pivot is replaced by a tiny value
    (the standard inverse-iteration fallback). Returns the (b, n, n) factors
    and the (b, n) row permutations.
    """
    LU = np.array(A, dtype=complex, copy=True, ndmin=3)
    b, n = LU.shape[0], LU.shape[-1]
    items = np.arange(b)
    piv = np.tile(np.arange(n), (b, 1))
    scale = np.abs(LU).max(axis=(1, 2), initial=0.0)
    if not fix_singular and np.any(scale == 0.0):
        raise ValueError("matrix is singular to working precision")
    tiny = np.where(scale == 0.0, _EPS, 8.0 * n * _EPS * scale)
    for k in range(n):
        p = k + np.argmax(np.abs(LU[:, k:, k]), axis=1)
        for i in np.flatnonzero(np.abs(LU[items, p, k]) <= tiny):
            if not fix_singular:
                raise ValueError("matrix is singular to working precision")
            pivot = LU[i, p[i], k]
            LU[i, p[i], k] = (float(tiny[i]) if pivot == 0
                              else pivot / abs(pivot) * float(tiny[i]))
        LU[items, k], LU[items, p] = LU[items, p], LU[items, k]
        piv[items, k], piv[items, p] = piv[items, p], piv[items, k]
        LU[:, k + 1:, k] /= LU[:, k, k, None]
        LU[:, k + 1:, k + 1:] -= LU[:, k + 1:, k, None] * LU[:, k, None, k + 1:]
    return LU, piv


def _lu_solve(factor, rhs) -> NDArray:
    """Forward and back substitution with the factors of `_lu_factor`, for a
    single vector or for a stack of row vectors, one per factor or all for
    one factor. Each step is one stacked row product (b, 1, k) @ (b, k, 1)
    for every right-hand side at once."""
    LU, piv = factor
    rhs = np.asarray(rhs, dtype=complex)
    x = np.take_along_axis(np.atleast_2d(rhs), piv, axis=1)
    n = x.shape[1]
    for k in range(1, n):
        x[:, k] -= (LU[:, k:k + 1, :k] @ x[:, :k, None])[:, 0, 0]
    for k in range(n - 1, -1, -1):
        x[:, k] = ((x[:, k] - (LU[:, k:k + 1, k + 1:] @ x[:, k + 1:, None])[:, 0, 0])
                   / LU[:, k, k])
    return x[0] if rhs.ndim == 1 else x


def solve_matrix(M, B) -> NDArray[np.complex128]:
    """Solve M X = B by partial-pivoting LU, for a vector or a matrix B, with
    a single factorization; each substitution step sweeps all columns of B
    at once.

    Raises ValueError when M is singular to working precision or B has the
    wrong number of rows.
    """
    A = _as_square(M)
    b = np.asarray(B)
    if b.shape[0] != A.shape[0]:
        raise ValueError(f"dimension mismatch: matrix {A.shape}, rhs {b.shape}")
    return np.ascontiguousarray(_lu_solve(_lu_factor(A), b.T).T)


def residual(M, lam, v) -> float:
    """Relative eigenpair residual ||M v - lam v|| / ||v||."""
    A = _as_square(M)
    vec = np.asarray(v)
    nv = norm2(vec)
    if nv == 0.0:
        raise ValueError("residual of a zero vector is undefined")
    return norm2(A @ vec - lam * vec) / nv


def _tridiag_lu_factor(sub, diag, sup):
    """Partial-pivoting LU of a tridiagonal matrix in O(n), LAPACK gttrf style.

    A row swap at step i moves the superdiagonal of row i + 1 up and leaves
    fill in a second superdiagonal, so U has three diagonals (d, du, du2).
    Pivots are chosen as in `_lu_factor`, and a pivot that is singular to
    working precision gets the fallback of `_lu_factor(fix_singular=True)`:
    the larger of the two candidates is raised to a tiny value, keeping its
    phase, and the row swap it implies is kept.
    """
    d = [complex(x) for x in diag]
    dl = [complex(x) for x in sub]
    du = [complex(x) for x in sup]
    n = len(d)
    du2 = [0j] * max(n - 2, 0)
    swapped = [False] * max(n - 1, 0)
    scale = max(max(map(abs, d), default=0.0), max(map(abs, dl), default=0.0),
                max(map(abs, du), default=0.0))
    tiny = 8.0 * n * _EPS * scale if scale > 0.0 else _EPS
    for i in range(n):
        below = abs(dl[i]) if i < n - 1 else 0.0
        swap = below > abs(d[i])
        if max(abs(d[i]), below) <= tiny:
            if swap:
                dl[i] = dl[i] / abs(dl[i]) * tiny
            else:
                d[i] = tiny if d[i] == 0 else d[i] / abs(d[i]) * tiny
        if i == n - 1:
            break
        if not swap:
            fact = dl[i] / d[i]
            dl[i] = fact
            d[i + 1] -= fact * du[i]
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            dl[i] = fact
            du[i], d[i + 1] = d[i + 1], du[i] - fact * d[i + 1]
            if i < n - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -fact * du[i + 1]
            swapped[i] = True
    return dl, d, du, du2, swapped


def _tridiag_lu_solve(factor, rhs) -> NDArray:
    dl, d, du, du2, swapped = factor
    n = len(d)
    x = [complex(v) for v in rhs]
    for i in range(n - 1):
        if swapped[i]:
            x[i], x[i + 1] = x[i + 1], x[i] - dl[i] * x[i + 1]
        else:
            x[i + 1] -= dl[i] * x[i]
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
    """The fixed unit start vector of inverse and quotient iteration."""
    start = np.ones(n, dtype=complex) + 1e-3 * np.arange(n)
    return start / norm2(start)


def _inverse_iteration(A: NDArray, lams: NDArray,
                       norm_scale: float) -> tuple[NDArray, NDArray]:
    """Best unit vector for each value of lams, as rows, and its residual.

    Every value runs its own schedule of slightly perturbed shifts, and all
    values run it together: the shifted matrices are factored as one stacked
    LU, and each substitution step serves every value still iterating. A
    value leaves the inner steps on a vanishing or non-finite iterate or a
    small enough residual, and the shift schedule once its residual meets
    the looser bound.
    """
    n = A.shape[0]
    eye = np.eye(n)
    start = _start_vector(n)
    best = np.tile(start, (len(lams), 1))
    best_res = np.full(len(lams), math.inf)
    delta = INVERSE_ITER_SHIFT * max(norm_scale, 1.0)
    todo = np.arange(len(lams))
    for _ in range(4):
        if not todo.size:
            break
        LU, piv = _lu_factor(A - (lams[todo] + delta)[:, None, None] * eye,
                             fix_singular=True)
        v = np.tile(start, (todo.size, 1))
        live = np.arange(todo.size)
        for _ in range(5):
            w = _lu_solve((LU[live], piv[live]), v[live])
            wn = norm2(w, axis=-1)
            ok = (wn != 0.0) & np.isfinite(wn)
            live = live[ok]
            if not live.size:
                break
            v[live] = unit = w[ok] / wn[ok, None]
            idx = todo[live]
            res = norm2((A @ unit[:, :, None])[:, :, 0] - lams[idx, None] * unit,
                        axis=-1)
            better = res < best_res[idx]
            best_res[idx[better]] = res[better]
            best[idx[better]] = unit[better]
            live = live[best_res[idx] > 1e-13 * max(norm_scale, 1.0)]
            if not live.size:
                break
        todo = todo[best_res[todo] > 1e-9 * max(norm_scale, 1.0)]
        delta *= 100.0
    return best, best_res


def eig_dense(M, want_vectors: bool = False) -> EigenReport:
    """All eigenvalues of a dense square matrix.

    Real input goes through Francis double-shift QR (complex pairs come out of
    irreducible 2x2 blocks of the real Schur form); complex input through
    single-shift Wilkinson QR. Eigenvectors, when requested, are recovered by
    inverse iteration with a slightly perturbed shift, all values of a block
    together: the shifted matrices of up to max(1, STACK_BYTES // (16 n^2))
    values are factored as one stacked LU, and every substitution step
    serves the whole block. A repeated eigenvalue gets repeated vectors,
    since each copy starts from the same vector at the same shift; callers
    that need a basis of its eigenspace must not ask for one
    (`verify_similarity` rejects repeated spectra before it does). A 3-row
    Francis bulge step makes 16 numpy calls, and the deflation and start-row
    scans run on Python floats (see the module docstring). Every reported
    pair satisfies the residual contract (relative residual <= 1e-8 times
    the matrix norm) or the report is flagged converged=False. Raises
    RuntimeError when QR needs more than MAX_SWEEPS_PER_DIM sweeps per
    dimension.
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
    if is_real:
        H = _hessenberg(np.array(A0.real, dtype=float, copy=True))
        eigs, sweeps = _qr_eigenvalues(H, max_sweeps, _francis_sweep, _eig2_real)
    else:
        H = _hessenberg(np.array(A0, dtype=complex, copy=True))
        # near the overflow threshold the 2x2 shift overflows to inf and the
        # rotations turn nan; QR then stalls and raises at its sweep cap, so
        # numpy's warnings would only repeat that failure
        with np.errstate(over="ignore", invalid="ignore"):
            eigs, sweeps = _qr_eigenvalues(H, max_sweeps, _wilkinson_sweep)
    values = np.array(eigs, dtype=complex)
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    report = EigenReport(values=values, iterations=sweeps)
    if want_vectors:
        A = np.array(A0, dtype=complex)
        norm_scale = norm2(A)
        block = max(1, STACK_BYTES // (16 * n * n))
        report.vectors = np.zeros((n, n), dtype=complex)
        report.residuals = np.zeros(n)
        for lo in range(0, n, block):
            rows, report.residuals[lo:lo + block] = _inverse_iteration(
                A, values[lo:lo + block], norm_scale)
            report.vectors[:, lo:lo + block] = rows.T
        report.converged = not np.any(
            report.residuals > RESIDUAL_TOL * max(norm_scale, _EPS))
    return report


def tridiag_rayleigh_iteration(sub, diag, sup, left, shifts) -> EigenReport:
    """Eigenpairs of a real tridiagonal J near the given shifts, by two-sided
    Rayleigh-quotient iteration in O(n) per value and round.

    sub, diag and sup are the three diagonals of J. left is the diagonal of a
    D with J^T = D J D^-1, so y = D x is a left eigenvector for every right
    eigenvector x, and the two-sided quotient y^T J x / y^T x has an error
    quadratic in that of x (Parlett, Math. Comp. 28, 1974). Each round takes,
    for each value s, one partially pivoted tridiagonal LU of J - s I (a
    pivot singular to working precision is raised to a tiny value) and one
    solve from the value's previous unit iterate, a fixed start vector in
    the first round; it then replaces s by its quotient. The rounds stop
    once no value moves by more than eps times its size, or after
    QUOTIENT_ROUNDS. The quotient is summed in numpy's extended precision
    where the platform has one, so a settled value is a fixed point rather
    than a walk over its last digits. A real shift keeps its value real: a
    real eigenvalue of a real J has a real eigenvector. The report carries
    the final values, their unit vectors column-wise, the residuals at the
    final values and the rounds run; converged is False when a pair misses
    the residual contract of `eig_dense`. Raises ValueError on complex or
    mismatched diagonals.
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
            w = _tridiag_lu_solve(_tridiag_lu_factor(lower, d - shift, upper),
                                  vectors[:, i])
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


def eig_sym_tridiag(diag, offdiag) -> EigenReport:
    """All eigenvalues of a real symmetric tridiagonal matrix.

    Implicit-shift QL iteration on the (diagonal, offdiagonal) arrays; output
    is real and sorted ascending.
    """
    d_in = np.asarray(diag, dtype=float)
    e_in = np.asarray(offdiag, dtype=float)
    n = d_in.shape[0]
    if e_in.shape[0] != max(n - 1, 0):
        raise ValueError(
            f"offdiagonal length {e_in.shape[0]} does not match diagonal length {n}")
    if n == 0:
        return EigenReport(values=np.zeros(0, complex))
    # the loop runs on Python floats, which round as float64 scalars do
    d = d_in.tolist()
    e = e_in.tolist() + [0.0]
    total_iter = 0
    converged = True
    for l in range(n):
        it = 0
        while True:
            m = n - 1
            for mm in range(l, n - 1):
                dd = abs(d[mm]) + abs(d[mm + 1])
                if abs(e[mm]) <= _EPS * dd:
                    m = mm
                    break
            if m == l:
                break
            it += 1
            total_iter += 1
            if it > 50:
                converged = False
                break
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            early = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
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
    values = np.sort(np.array(d)).astype(complex)
    return EigenReport(values=values, iterations=total_iter, converged=converged)


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

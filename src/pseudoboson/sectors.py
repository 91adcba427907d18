"""Symmetry sectors of the model and their su(1,1) structure.

The occupation difference a'a - b'b commutes with the Hamiltonian, so the
model splits into sectors of fixed difference k. Inside sector k the states
are |j + max(k,0), j + max(-k,0)> for j = 0, 1, ..., and three bilinear
combinations of the ladder operators close an su(1,1) algebra:

    raising  a'b'   ->  subdiagonal  sqrt(j (|k| + j))
    lowering a b    ->  its transpose
    diagonal a'a + b'b + 1  ->  diag(|k| + 1 + 2j)

with [lowering, raising] = diagonal and [diagonal, raising] = 2 raising. The
sector Hamiltonian is then a real tridiagonal matrix (a pseudo-Jacobi matrix:
sub- and superdiagonal carry opposite signs, so it is non-self-adjoint but
similar to its transpose by a diagonal phase). A gamma-dependent tilt of the
su(1,1) triple produces a second, non-self-adjoint representation whose
diagonal generator is the shifted sector Hamiltonian divided by rho; its
lowest-weight vector is the sector slice of the pseudo-boson vacuum and the
Casimir element reduces to the same (k^2 - 1) scalar as for the self-adjoint
triple.

Truncation at depth D corrupts the last row and column of operator products
(the large-j tail), never the j = 0 end, so interior checks here trim trailing
indices. A Hermitian cousin of the sector matrix (same diagonal, symmetric
off-diagonal lam sqrt((j+1)(|k|+j+1))) is included as a stability contrast:
for |lam| < 1 its spectrum is bounded below with lowest point
beta k + sqrt(1-lam^2) (|k|+1), while for |lam| > 1 the finite sections sink
without bound as the depth grows.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .emm import su11_secular
from .fock import TruncationSpec
from .linalg import (eig_dense, eig_sym_tridiag, multiset_distance, norm2,
                     sym_tridiag_lowest, tridiag_rayleigh_iteration)
from .model import ModelParams, _occupation_phases, build_hamiltonian

__all__ = [
    "SectorSpec",
    "Su11Generators",
    "SectorSpectrum",
    "SectorConvergence",
    "HermitianScan",
    "sector_basis",
    "sector_sizes",
    "casimir_reduction_check",
    "su11_generators",
    "su11_commutation_check",
    "casimir_matrix",
    "casimir_check",
    "pseudo_jacobi_diagonals",
    "pseudo_jacobi",
    "sector_phase_vector",
    "transpose_similarity_check",
    "pseudo_su11_generators",
    "lowest_weight_vector",
    "lowest_weight_residuals",
    "sector_spectrum",
    "converged_sector_spectrum",
    "full_vs_sector_check",
    "hermitian_sector_tridiag",
    "hermitian_lowest",
    "predicted_hermitian_lowest",
    "hermitian_variant_scan",
]

@dataclass(frozen=True)
class SectorSpec:
    """One symmetry sector: occupation difference k, kept at `depth` levels."""

    k: int
    depth: int

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("sector depth must be at least 1")


@dataclass(frozen=True)
class Su11Generators:
    """An su(1,1) triple as depth x depth matrices, with [minus, plus] = zero
    and [zero, plus] = 2 plus.

    `su11_generators` builds the self-adjoint sector representation and its
    mirror, `pseudo_su11_generators` the tilted, non-self-adjoint one.
    """

    plus: NDArray[np.float64]
    minus: NDArray[np.float64]
    zero: NDArray[np.float64]


def sector_basis(spec: SectorSpec) -> list[tuple[int, int]]:
    """Occupation pairs (n_a, n_b) spanning the sector, j = 0 first."""
    up = max(spec.k, 0)
    down = max(-spec.k, 0)
    return [(j + up, j + down) for j in range(spec.depth)]


def sector_sizes(trunc: TruncationSpec) -> dict:
    """Depth of each sector inside a box truncation, keyed by k."""
    sizes = {}
    for k in range(-trunc.n_max_b, trunc.n_max_a + 1):
        depth = min(trunc.n_max_a - max(k, 0), trunc.n_max_b - max(-k, 0)) + 1
        sizes[k] = depth
    return sizes


def _interior_max(x: NDArray, margin: int) -> float:
    """Max magnitude over the matrix with `margin` trailing rows/cols dropped
    (truncation damage lives at the large-j end)."""
    n = x.shape[0]
    if margin < 0 or margin >= n:
        raise ValueError("margin must satisfy 0 <= margin < depth")
    limit = n - margin
    return float(np.abs(x[:limit, :limit]).max()) if limit > 0 else 0.0


def su11_generators(spec: SectorSpec, variant: str = "lowest") -> Su11Generators:
    """The sector su(1,1) triple.

    variant "lowest" is the self-adjoint sector representation (raising is the
    transpose of lowering, diagonal positive, annihilated from below);
    variant "highest" swaps raising with lowering and negates the diagonal,
    giving the mirrored representation whose raising operator kills the j = 0
    state.
    """
    j = np.arange(1, spec.depth, dtype=float)
    coeff = np.sqrt(j * (abs(spec.k) + j))
    raising = np.diag(coeff, -1)
    lowering = raising.T.copy()
    diagonal = np.diag(abs(spec.k) + 1.0 + 2.0 * np.arange(spec.depth, dtype=float))
    if variant == "lowest":
        return Su11Generators(plus=raising, minus=lowering, zero=diagonal)
    if variant == "highest":
        return Su11Generators(plus=lowering, minus=raising, zero=-diagonal)
    raise ValueError(f"unknown variant {variant!r}; expected 'lowest' or 'highest'")


def su11_commutation_check(gens, margin: int = 1) -> float:
    """Max interior deviation of the three su(1,1) commutation relations
    [zero, plus] - 2 plus, [zero, minus] + 2 minus, [minus, plus] - zero.

    Works for the self-adjoint, mirrored, and tilted triples alike. The
    default margin of 1 hides the single boundary row where the truncated
    product [minus, plus] is cut short. The first non-finite deviation is the
    result, since max would drop a NaN that does not come first.
    """
    devs = [_interior_max(gens.zero @ gens.plus - gens.plus @ gens.zero
                          - 2.0 * gens.plus, margin),
            _interior_max(gens.zero @ gens.minus - gens.minus @ gens.zero
                          + 2.0 * gens.minus, margin),
            _interior_max(gens.minus @ gens.plus - gens.plus @ gens.minus
                          - gens.zero, margin)]
    return next((d for d in devs if not math.isfinite(d)), max(devs))


def casimir_matrix(gens) -> NDArray:
    """The quadratic Casimir element zero^2 - 2 zero - 4 plus minus."""
    return gens.zero @ gens.zero - 2.0 * gens.zero - 4.0 * (gens.plus @ gens.minus)


def casimir_check(gens, k: int, margin: int = 0) -> float:
    """Max interior deviation of the Casimir element from (k^2 - 1) times the
    identity. Exact for the self-adjoint triple (margin 0); the tilted triple
    needs margin 2 because plus and zero each reach one step off-diagonal."""
    c = casimir_matrix(gens)
    target = (k * k - 1.0) * np.eye(c.shape[0])
    return _interior_max(c - target, margin)


def casimir_reduction_check(spec: SectorSpec, p: ModelParams) -> tuple[float, float]:
    """Casimir deviations from (k^2 - 1) for the tilted triple (margin 2, the
    products widen the corrupted boundary) and the self-adjoint triple
    (margin 2 as well, for a like-for-like comparison; it is exact even at
    margin 0). Returned as (tilted, self_adjoint)."""
    tilted = casimir_check(pseudo_su11_generators(spec, p), spec.k, margin=2)
    plain = casimir_check(su11_generators(spec), spec.k, margin=2)
    return tilted, plain


def pseudo_jacobi_diagonals(spec: SectorSpec,
                            p: ModelParams) -> tuple[NDArray, NDArray, NDArray]:
    """(sub, diag, sup) of the sector Hamiltonian, a real tridiagonal
    pseudo-Jacobi matrix: diag_j = beta k + |k| + 1 + 2j and
    sub_j = -sup_j = gamma sqrt((j+1)(|k|+j+1)), the Hermitian cousin's
    entries at lam = gamma with the superdiagonal negated. Built entrywise;
    the identity with diagonal + beta k + gamma (raising - lowering) from the
    su(1,1) triple is checked in tests rather than assumed.
    """
    diag, off = hermitian_sector_tridiag(spec, p.beta, p.gamma)
    return off, diag, -off


def pseudo_jacobi(spec: SectorSpec, p: ModelParams) -> NDArray[np.float64]:
    """The sector Hamiltonian as a dense matrix, from `pseudo_jacobi_diagonals`."""
    sub, diag, sup = pseudo_jacobi_diagonals(spec, p)
    return np.diag(diag) + np.diag(sup, 1) + np.diag(sub, -1)


def sector_phase_vector(spec: SectorSpec) -> NDArray[np.complex128]:
    """Diagonal phases (-i)^(n_a + n_b) restricted to the sector: the sector
    slice of the full-space phase similarity."""
    return _occupation_phases(sector_basis(spec))


def transpose_similarity_check(spec: SectorSpec, p: ModelParams) -> float:
    """Max entrywise |J^T - D J D^-1| for the sector phase diagonal D; exact
    at any depth since diagonal conjugation respects the finite section."""
    m = pseudo_jacobi(spec, p)
    phases = sector_phase_vector(spec)
    conjugated = np.outer(phases, phases.conj()) * m
    return float(np.abs(m.T - conjugated).max())


def pseudo_su11_generators(spec: SectorSpec, p: ModelParams) -> Su11Generators:
    """The tilted su(1,1) triple of sector k at coupling p.gamma.

    Same commutation relations and Casimir value as the self-adjoint triple,
    but raising and lowering are no longer transposes of each other and the
    diagonal generator is full tridiagonal: zero = (sector Hamiltonian at
    beta = 0) / rho. With rho = sqrt(1 + gamma^2), alpha = gamma / (1 + rho)
    and the self-adjoint triple (R, L, Z):

        plus  = (gamma / 2 rho) ( R / alpha + alpha L - Z )
        minus = (gamma / 2 rho) ( alpha R + L / alpha + Z )
        zero  = (1/rho) ( Z + gamma (R - L) )

    The coefficient triples of plus and minus are not formed here: they are
    the +2 rho and -2 rho eigenvectors of the sector secular matrix, read
    from `emm.su11_secular`, whose alpha is `ModelParams.alpha`, free of the
    cancellation of (rho - 1) / gamma, so small gamma stays accurate.
    At gamma = 0 it is the self-adjoint triple, the gamma -> 0 limit of these
    formulas.
    """
    gamma, rho = p.gamma, p.rho
    base = su11_generators(spec)
    if gamma == 0:
        return base
    r, el, z = base.plus, base.minus, base.zero
    front = gamma / (2.0 * rho)
    pairs = su11_secular(p).pairs
    plus, minus = (front * (a * r + b * el + c * z)
                   for a, b, c in (pairs[2][1].real, pairs[0][1].real))
    zero = (z + gamma * (r - el)) / rho
    return Su11Generators(plus=plus, minus=minus, zero=zero)


def lowest_weight_vector(spec: SectorSpec, p: ModelParams) -> NDArray[np.float64]:
    """Sector slice of the pseudo-boson vacuum: components
    (-alpha)^j sqrt(binom(|k|+j, j)) with alpha = gamma / (1 + rho).

    Annihilated by the tilted `minus` and an eigenvector of the tilted `zero`
    with eigenvalue |k| + 1, up to the geometric truncation tail.
    """
    alpha = p.alpha
    a = abs(spec.k)
    return np.array([(-alpha) ** j * math.sqrt(math.comb(a + j, j))
                     for j in range(spec.depth)])


def lowest_weight_residuals(spec: SectorSpec, p: ModelParams) -> tuple[float, float]:
    """Relative residuals (|minus v| / |v|, |zero v - (|k|+1) v| / |v|) for the
    lowest-weight vector of the tilted triple."""
    gens = pseudo_su11_generators(spec, p)
    v = lowest_weight_vector(spec, p)
    scale = norm2(v)
    shifted = gens.zero @ v - (abs(spec.k) + 1.0) * v
    return norm2(gens.minus @ v) / scale, norm2(shifted) / scale


@dataclass(frozen=True)
class SectorSpectrum:
    """Lowest eigenvalues of one sector finite section against closed form.

    residuals are the residuals ||J x - lambda x|| / max(||J||_F, 1) of the
    kept pairs for unit x, taken at the final (refined) values, and
    conditions their eigenvalue condition numbers ||x|| ||y|| / |y^T x| with
    the left eigenvector y = D x; both are aligned with `values`.
    """

    k: int
    depth: int
    values: NDArray[np.complex128]
    targets: NDArray[np.float64]
    residuals: NDArray[np.float64]
    conditions: NDArray[np.float64]


def _refined_spectrum(spec: SectorSpec, p: ModelParams, diagonals,
                      shifts) -> tuple[SectorSpectrum, bool]:
    """Kept levels from `shifts` by two-sided Rayleigh-quotient iteration on
    the section's diagonals, with the free left eigenvector y = D x of the
    phase similarity J^T = D J D^-1; also whether every final pair meets the
    residual contract."""
    sub, diag, sup = diagonals
    phases = sector_phase_vector(spec)
    report = tridiag_rayleigh_iteration(sub, diag, sup, phases, shifts)
    x = report.vectors
    conditions = (np.sum(np.abs(x) ** 2, axis=0)
                  / np.abs(np.sum(phases[:, None] * x * x, axis=0)))
    norm = norm2([norm2(a) for a in diagonals])
    j = np.arange(len(shifts), dtype=float)
    targets = p.beta * spec.k + p.rho * (abs(spec.k) + 1.0 + 2.0 * j)
    spectrum = SectorSpectrum(
        k=spec.k, depth=spec.depth, values=report.values, targets=targets,
        residuals=report.residuals / max(norm, 1.0), conditions=conditions)
    return spectrum, report.converged


def _section_values(diagonals) -> NDArray[np.complex128]:
    """Every eigenvalue of the real pseudo-Jacobi section with these (sub,
    diag, sup) diagonals, sorted by (real part, imaginary part).

    With E = diag(i^j), E^-1 J E keeps J's diagonal and carries i sub on both
    off-diagonals, a complex symmetric tridiagonal that `eig_sym_tridiag`
    solves by complex orthogonal QL in O(n) per sweep. This is the one
    whole-section solver: when QL breaks down or stalls, its RuntimeError
    propagates.

    QL does not see that J is real, so its values are made the spectrum of a
    real matrix again. A value keeps an imaginary part only when a partner
    on the other side of the real axis lies nearer to its conjugate than
    half of either value's distance to the axis; the pair then shares one
    real part, with opposite imaginary parts. Every other value becomes
    exactly real. A fixed eps threshold would not do: the ill-conditioned
    real values in the middle of a deep section come out of QL with
    imaginary parts far above n eps ||J||. The partners of each value in the
    upper half-plane are looked up by bisection among the lower values
    sorted by real part, so the cost is O(n log n) plus the values that
    share a window.
    """
    sub, diag, _ = diagonals
    report = eig_sym_tridiag(diag, 1j * sub)
    re, im = report.values.real.tolist(), report.values.imag.tolist()
    lower = sorted((j for j, y in enumerate(im) if y < 0), key=re.__getitem__)
    lower_re = [re[j] for j in lower]
    paired = [0.0] * len(re)
    taken = set()
    for i in (j for j, y in enumerate(im) if y > 0):
        reach = im[i] / 2
        window = lower[bisect.bisect_right(lower_re, re[i] - reach):
                       bisect.bisect_left(lower_re, re[i] + reach)]
        best, best_dist = None, math.inf
        for j in window:
            dist = math.hypot(re[j] - re[i], im[j] + im[i])
            near = dist < min(reach, -im[j] / 2) and dist < best_dist
            if near and j not in taken:
                best, best_dist = j, dist
        if best is not None:
            taken.add(best)
            re[i] = re[best] = 0.5 * (re[i] + re[best])
            paired[i] = 0.5 * (im[i] - im[best])
            paired[best] = -paired[i]
    values = np.array(re, dtype=complex)
    values.imag = paired
    return values[np.lexsort((values.imag, values.real))]


def _solved_levels(spec: SectorSpec, p: ModelParams, n_eigs: int,
                   diagonals) -> tuple[SectorSpectrum, NDArray[np.float64]]:
    """`sector_spectrum` from every eigenvalue of the section
    (`_section_values`), and the distance from each kept value to the
    nearest other eigenvalue of the section."""
    if n_eigs < 1 or n_eigs > spec.depth:
        raise ValueError("n_eigs must be between 1 and the sector depth")
    everything = _section_values(diagonals)
    kept = everything[:n_eigs]
    spectrum, converged = _refined_spectrum(spec, p, diagonals, kept)
    if not converged:
        raise RuntimeError(
            f"Rayleigh-quotient iteration missed the residual contract on "
            f"sector k={spec.k} depth {spec.depth} (worst residual "
            f"{spectrum.residuals.max():.3g})")
    distances = np.abs(everything[None, :] - kept[:, None])
    distances[np.arange(n_eigs), np.arange(n_eigs)] = np.inf
    return spectrum, distances.min(axis=1)


def sector_spectrum(spec: SectorSpec, p: ModelParams, n_eigs: int = 3) -> SectorSpectrum:
    """Lowest n_eigs eigenvalues of the sector matrix (by real part) next to
    the closed-form targets beta k + rho (|k| + 1 + 2j).

    The whole spectrum comes from complex symmetric QL on the phase-similar
    tridiagonal (`_section_values`), in O(n) per sweep. The kept values then
    seed a two-sided Rayleigh-quotient iteration on the tridiagonal
    (`linalg.tridiag_rayleigh_iteration`). Each round takes one
    O(n) LU of J - s I at each kept value s and one solve, so only the kept
    vectors x are computed; the phase similarity J^T = D J D^-1 makes y = D x
    a left eigenvector for free, and s moves to y^T J x / y^T x, whose error
    is quadratic in that of x, until it stops moving. Only the kept pairs are
    held to the residual contract, at the refined values: the upper spectrum
    of a deep section is too non-normal for its vectors to meet it. Raises
    RuntimeError when QL fails on the section or a kept pair misses the
    contract.

    Finite-section eigenvalues converge to the closed form from within as the
    depth grows; shallow sections can also show complex artifact pairs, which
    land at large real part and stay clear of the lowest levels.
    """
    return _solved_levels(spec, p, n_eigs, pseudo_jacobi_diagonals(spec, p))[0]


@dataclass(frozen=True)
class SectorConvergence:
    """Depth-doubling record for one sector's lowest eigenvalues; continued
    marks, per depth, the values continued from the depth before rather
    than found by solving the whole section (`_section_values`)."""

    k: int
    depths: list
    history: list
    values: NDArray[np.complex128]
    targets: NDArray[np.float64]
    max_step: float
    converged: bool
    continued: list


def converged_sector_spectrum(k: int, p: ModelParams, n_eigs: int = 3,
                              start_depth: int = 30,
                              tol: float = 1e-8) -> SectorConvergence:
    """Compute the sector's lowest eigenvalues at start_depth, 2 start_depth
    and 4 start_depth; converged means the last two depths agree to tol on
    every kept eigenvalue.

    Only the start depth solves the whole section, as `sector_spectrum` does
    (QL, which raises RuntimeError when it fails). Each deeper depth takes
    the previous depth's values as shifts, never the closed form, and
    refines them by the same two-sided Rayleigh-quotient iteration on its
    tridiagonal, one O(n) LU and solve per kept value and round, without
    forming the dense matrix. A depth falls back to solving its whole
    section when a shift is non-real, a value moves by more than a quarter
    of its gap (the distance to the nearest other eigenvalue at the latest
    depth that was solved whole), the values lose their order, or a final
    pair misses the residual contract.
    """
    depths = [start_depth, 2 * start_depth, 4 * start_depth]
    history = []
    continued = []
    gaps = None
    for depth in depths:
        spec = SectorSpec(k=k, depth=depth)
        diagonals = pseudo_jacobi_diagonals(spec, p)
        trusted = False
        if history and np.all(history[-1].imag == 0):
            spectrum, converged = _refined_spectrum(spec, p, diagonals, history[-1])
            moved = np.abs(spectrum.values - history[-1])
            trusted = bool(converged and np.all(moved <= gaps / 4.0)
                           and np.all(np.diff(spectrum.values.real) > 0.0))
        continued.append(trusted)
        if not trusted:
            spectrum, gaps = _solved_levels(spec, p, n_eigs, diagonals)
        history.append(spectrum.values)
    max_step = float(np.abs(history[-1] - history[-2]).max())
    return SectorConvergence(k=k, depths=depths, history=history,
                             values=history[-1], targets=spectrum.targets,
                             max_step=max_step, converged=max_step < tol,
                             continued=continued)


def full_vs_sector_check(p: ModelParams, trunc: TruncationSpec) -> float:
    """Diagonalize the full truncated Hamiltonian and, independently, every
    sector finite section it contains, and return the greedy matching
    distance between the two eigenvalue multisets. They agree exactly (the box
    truncation is permutation-similar to the direct sum of sector sections),
    so the distance sits at solver accuracy.
    """
    full_vals = eig_dense(build_hamiltonian(p, trunc)[0].dense().entries).values
    pieces = [eig_dense(pseudo_jacobi(SectorSpec(k=k, depth=depth), p)).values
              for k, depth in sorted(sector_sizes(trunc).items())]
    return multiset_distance(full_vals, np.concatenate(pieces))


def hermitian_sector_tridiag(spec: SectorSpec, beta: float,
                             lam: float) -> tuple[NDArray, NDArray]:
    """Diagonal and off-diagonal of the Hermitian cousin: same diagonal as the
    sector matrix, symmetric off-diagonal lam sqrt((j+1)(|k|+j+1)). Raises
    ValueError when the diagonal or the off-diagonal overflows."""
    j = np.arange(spec.depth, dtype=float)
    diag = beta * spec.k + abs(spec.k) + 1.0 + 2.0 * j
    if not np.all(np.isfinite(diag)):
        raise ValueError(f"beta = {beta:g} is too large: the diagonal "
                         f"beta k + |k| + 1 + 2 j overflows at k = {spec.k}")
    with np.errstate(over="ignore"):
        off = lam * np.sqrt((j[:-1] + 1.0) * (abs(spec.k) + j[:-1] + 1.0))
    if not np.all(np.isfinite(off)):
        raise ValueError(f"lam = {lam:g} is too large: the off-diagonal "
                         f"lam sqrt((j+1)(|k|+j+1)) overflows at depth {spec.depth}")
    return diag, off


def hermitian_lowest(spec: SectorSpec, beta: float, lam: float) -> float:
    """Lowest eigenvalue of the Hermitian cousin at this depth, by Sturm
    bisection (`sym_tridiag_lowest`). Raises ValueError naming the parameter
    when an entry overflows (see `hermitian_sector_tridiag`), and naming lam
    when the lowest eigenvalue lies below the most negative float."""
    diag, off = hermitian_sector_tridiag(spec, beta, lam)
    lowest = sym_tridiag_lowest(diag, off)
    if lowest == -math.inf:
        raise ValueError(f"lam = {lam:g} is too large: the lowest eigenvalue "
                         f"of the Hermitian cousin overflows at depth {spec.depth}")
    return lowest


def predicted_hermitian_lowest(k: int, beta: float, lam: float):
    """Infinite-depth lowest point beta k + sqrt(1 - lam^2) (|k| + 1) for
    |lam| < 1; None for |lam| >= 1, where the operator is unbounded below."""
    if abs(lam) >= 1.0:
        return None
    return beta * k + math.sqrt(1.0 - lam * lam) * (abs(k) + 1.0)


@dataclass(frozen=True)
class HermitianScan:
    """Lowest eigenvalue of the Hermitian cousin across depths."""

    k: int
    lam: float
    depths: list
    lowest: list
    predicted: object
    final_drop: float

    @property
    def bounded(self) -> bool:
        return self.predicted is not None


def hermitian_variant_scan(k: int, beta: float, lam: float,
                           depths) -> HermitianScan:
    """Track the lowest eigenvalue over a list of depths. In the bounded
    regime it settles onto the predicted value; in the unbounded regime the
    final_drop (last decrease between consecutive depths) stays large."""
    depths = list(depths)
    if len(depths) < 2:
        raise ValueError("need at least two depths to track a trend")
    lowest = [hermitian_lowest(SectorSpec(k=k, depth=d), beta, lam)
              for d in depths]
    final_drop = lowest[-2] - lowest[-1]
    return HermitianScan(k=k, lam=lam, depths=depths, lowest=lowest,
                         predicted=predicted_hermitian_lowest(k, beta, lam),
                         final_drop=final_drop)

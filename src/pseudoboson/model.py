"""The two-boson model Hamiltonian and its pseudo-boson diagonalization.

The model on two bosonic modes (a, b) with real parameters (beta, gamma):

    H = a'a + b b' + beta (a'a - b'b) + gamma (a'b' - a b)

where a prime denotes the adjoint. H is not self-adjoint for gamma != 0, yet
its spectrum is real:

    E(m, n) = rho + m (beta + rho) + n (rho - beta),    rho = sqrt(1 + gamma^2).

The diagonalizing structure is a pair of pseudo-boson ladder operators (c, c")
and (d, d"): each pair satisfies the canonical commutation relation but the
raising partner is not the adjoint of the lowering one. Eigenvectors of H are
built by raising the c/d vacuum, eigenvectors of the adjoint H' by raising a
second vacuum with the adjoints of c and d; the two families are biorthogonal.

Conventions. The basis here is orthonormal (unit-norm number states), not the
unnormalized polynomial basis sometimes used for the same model; with raw
operator powers (no 1/sqrt(m! n!)) the biorthogonality constant is
m! n! <vacuum', vacuum>, which is what `biorthogonality_matrix` reports.
H is assembled as the finite section of the full-space operator, using the
exact reordering b b' = b'b + 1: a literal product of truncated factors would
zero the (n = n_max_b) boundary diagonal and pollute the spectrum with
spurious eigenvalues. The additive constant from the reordering is part of
the model and is kept.

States are grids and H, H' and the ladder operators `fock.GridMap`s. The
eigenvector families, their residuals and their Gram apply maps to grids, and
the commutator, diagonal-form and phase-similarity checks compose, subtract
and scale maps, so nothing here builds a matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .fock import GridMap, TruncationSpec, build_ladder_ops, interior_deviation
from .linalg import norm2

__all__ = [
    "ModelParams",
    "PseudoBosonSet",
    "BiorthReport",
    "build_hamiltonian",
    "build_pseudoboson_ops",
    "commutation_report",
    "eigen_residuals",
    "build_vacua",
    "eigenvector_families",
    "energy",
    "biorthogonality_matrix",
    "similarity_check",
    "energy_grid",
    "block_layout",
]

#: exact phase table for (-i)^p, indexed by p mod 4
_PHASES = np.array([1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j])


@dataclass(frozen=True)
class ModelParams:
    """Model parameters (beta, gamma) with derived quantities.

    rho = sqrt(1 + gamma^2) >= 1, alpha = gamma / (1 + rho) in [0, 1), and the
    pseudo-boson normalization norm_scale = (2 gamma rho)^(-1/2), defined only
    for gamma > 0. Negative gamma is rejected: the normalization would be
    imaginary, and the model at -gamma is unitarily equivalent anyway (negate
    gamma and conjugate by the diagonal phase used in `similarity_check`). So
    is a gamma whose square overflows, and a positive gamma for which 2 / gamma
    does.
    """

    beta: float
    gamma: float

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError(
                "gamma must be nonnegative; for a negative coupling negate gamma "
                "and conjugate states by the diagonal phase similarity")
        if not math.isfinite(self.gamma * self.gamma):
            raise ValueError(f"gamma = {self.gamma:g} is too large: gamma^2 "
                             "overflows in rho = sqrt(1 + gamma^2)")
        if self.gamma > 0 and not math.isfinite(2.0 / self.gamma):
            raise ValueError(f"gamma = {self.gamma:g} is too small: "
                             "(1 + rho) / gamma overflows")

    @property
    def rho(self) -> float:
        return math.sqrt(1.0 + self.gamma ** 2)

    @property
    def rho_minus_one(self) -> float:
        """rho - 1 as gamma^2 / (1 + rho), free of cancellation at small gamma."""
        return self.gamma * self.gamma / (1.0 + self.rho)

    @property
    def alpha(self) -> float:
        return self.gamma / (1.0 + self.rho)

    @property
    def entry_scale(self) -> float:
        """max(1, |beta|, gamma): the rounding of an identity that holds the
        entries of H grows with it, so deviations are divided by it."""
        return max(1.0, abs(self.beta), self.gamma)

    @property
    def norm_scale(self) -> float:
        if self.gamma == 0:
            raise ValueError("normalization undefined at gamma = 0 (degenerate case)")
        product = 2.0 * self.gamma * self.rho
        if math.isinf(product):
            # gamma near sqrt of the float maximum: 2 gamma rho overflows
            return (2.0 * self.gamma) ** -0.5 * self.rho ** -0.5
        return product ** -0.5


@dataclass(frozen=True)
class PseudoBosonSet:
    """Two pseudo-boson ladder-map pairs: lowering (c, d), raising (c_ddag, d_ddag).

    The raising partners are not adjoints of the lowering ones whenever
    gamma != 0; at gamma = 0 they are the ordinary bosons.
    """

    c: GridMap
    d: GridMap
    c_ddag: GridMap
    d_ddag: GridMap


@dataclass(frozen=True)
class BiorthReport:
    """Gram matrix of the two eigenvector families against each other.

    gram[(m,n) row, (p,q) column] = <adjoint-family (p,q), family (m,n)>,
    flattened row-major over the (m, n) grid. The expected value is
    m! n! delta_mp delta_nq times scale, scale = <vacuum', vacuum>.
    """

    gram: NDArray[np.complex128]
    scale: complex
    max_offdiag: float
    max_diag_error: float
    labels: list = field(default_factory=list)


def build_hamiltonian(p: ModelParams, trunc: TruncationSpec) -> tuple[GridMap, GridMap]:
    """H and its adjoint as maps: the finite section of the full-space
    H = (1+beta) a'a + (1-beta) b'b + 1 + gamma (a'b' - a b) (see the module
    docstring), each weight rounded as the entry of the ladder-matrix algebra
    is, the number term as (1+beta) (sqrt(m) sqrt(m)). Raises ValueError,
    naming beta, where that term overflows."""
    root_a = np.sqrt(np.arange(trunc.n_max_a + 1.0))[:, None]
    root_b = np.sqrt(np.arange(trunc.n_max_b + 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        number = (1.0 + p.beta) * (root_a * root_a) + (1.0 - p.beta) * (root_b * root_b) + 1.0
    if not np.all(np.isfinite(number)):
        raise ValueError(f"beta = {p.beta:g} is too large: the number diagonal "
                         f"(1 + beta) m + (1 - beta) n + 1 overflows")
    pair = p.gamma * (root_a[1:] * root_b[1:])
    H = GridMap(trunc, ((number, 0, 0), (pair, -1, -1), (-pair, 1, 1)))
    return H, H.adjoint()


def build_pseudoboson_ops(p: ModelParams, trunc: TruncationSpec) -> PseudoBosonSet:
    """The pseudo-boson ladder maps for the model.

    c = N ((rho-1) b' + gamma a),  d = N ((rho-1) a' + gamma b),
    d" = N ((rho+1) b' - gamma a),  c" = N ((rho+1) a' - gamma b),
    with N = (2 gamma rho)^(-1/2) folded into each weight as N (coef sqrt(k)),
    as in the matrix entries; scaling a raised state by N afterwards would
    underflow at tiny gamma. rho - 1 is `ModelParams.rho_minus_one`. At
    gamma = 0 the construction degenerates (N diverges) and the ordinary
    bosons are returned.
    """
    a, b, a_dag, b_dag = build_ladder_ops(trunc)
    if p.gamma == 0:
        return PseudoBosonSet(c=a, d=b, c_ddag=a_dag, d_ddag=b_dag)
    N = p.norm_scale
    g = p.gamma
    low, high = p.rho_minus_one, 1.0 + p.rho

    def combine(*pairs) -> GridMap:
        return GridMap(trunc, tuple((N * (coef * w), da, db)
                                    for coef, op in pairs for w, da, db in op.terms))

    return PseudoBosonSet(c=combine((low, b_dag), (g, a)), d=combine((low, a_dag), (g, b)),
                          c_ddag=combine((high, a_dag), (-g, b)),
                          d_ddag=combine((high, b_dag), (-g, a)))


def commutation_report(p: ModelParams, trunc: TruncationSpec) -> dict:
    """Named interior deviations (margin 1) of the pseudo-boson algebra,
    from one build of H and of the ladder maps.

    All ten pairwise commutators among {c, d, c", d"} against the
    Weyl-Heisenberg pattern ([c, c"] = [d, d"] = identity, the rest zero),
    then the adjoint action of H on each ladder operator against its
    closed-form multiple: [H, c"] = (beta+rho) c", [H, d"] = (rho-beta) d",
    [H, c] = -(beta+rho) c, [H, d] = -(rho-beta) d, and last, as
    "diagonal_form", H against its diagonal form
    beta (c"c - d"d) + rho (c"c + d d"). Every identity is exact on the full
    space; truncated operator products corrupt only boundary occupations, so
    the deviations sit at rounding level.

    The ladder operators carry the normalization norm_scale, which grows like
    gamma^(-1/2) at small gamma, and the adjoint-action deviations grow with
    it; those four are divided by max(1, norm_scale), so they stay relative
    to the operators they measure. H's entries grow like |beta| and gamma,
    and so does the rounding of every identity that holds H; those four and
    "diagonal_form" are divided by `ModelParams.entry_scale` as well.

    Products of two raising maps reach (1 + rho)^2 n N^2, about 2 n / gamma
    at small gamma for cutoff n; a gamma for which that overflows raises
    ValueError. So does a beta for which H's largest weight, about |beta| n,
    times the largest ladder weight overflows.
    """
    H = build_hamiltonian(p, trunc)[0]
    ops = build_pseudoboson_ops(p, trunc)
    # the raising maps hold the largest ladder weights, and no product weight
    # exceeds the square of the largest
    top = max(float(np.abs(w).max()) for op in (ops.c_ddag, ops.d_ddag)
              for w, _, _ in op.terms)
    if not math.isfinite(top * top):
        raise ValueError(f"gamma = {p.gamma:g} is too small: products of the "
                         f"raising maps, of size 2 n / gamma, overflow at "
                         f"cutoff n = {max(trunc.n_max_a, trunc.n_max_b)}")
    # nor does a product with H exceed H's largest weight times that one
    if not math.isfinite(max(float(np.abs(w).max()) for w, _, _ in H.terms) * top):
        raise ValueError(f"beta = {p.beta:g} is too large at gamma = {p.gamma:g}: "
                         f"products of H, of size |beta| n, with the ladder "
                         f"maps overflow at cutoff n = {max(trunc.n_max_a, trunc.n_max_b)}")
    named = [(name, getattr(ops, name)) for name in ("c", "d", "c_ddag", "d_ddag")]
    unit_pairs = {("c", "c_ddag"), ("d", "d_ddag")}
    report = {}
    for i, (ni, xi) in enumerate(named):
        for nj, xj in named[i:]:
            comm = xi @ xj - xj @ xi
            if (ni, nj) in unit_pairs:
                comm = comm - GridMap(trunc, ((1.0, 0, 0),))
            report[f"[{ni},{nj}]"] = interior_deviation(comm, margin=1)
    up = p.beta + p.rho
    down = p.rho - p.beta
    scale = 1.0 if p.gamma == 0 else max(1.0, p.norm_scale)
    for name, coeff in [("c_ddag", up), ("d_ddag", down), ("c", -up), ("d", -down)]:
        op = getattr(ops, name)
        diff = H @ op - op @ H - coeff * op
        report[f"[H,{name}]"] = interior_deviation(diff, margin=1) / scale / p.entry_scale
    cc = ops.c_ddag @ ops.c
    expr = p.beta * (cc - ops.d_ddag @ ops.d) + p.rho * (cc + ops.d @ ops.d_ddag)
    report["diagonal_form"] = interior_deviation(H - expr, margin=1) / p.entry_scale
    return report


def build_vacua(p: ModelParams, trunc: TruncationSpec) -> tuple[NDArray, NDArray]:
    """The pseudo-boson vacuum and the adjoint-family vacuum, as grids.

    In the orthonormal basis, exp(-alpha a'b')|0,0> = sum_n (-alpha)^n |n,n>
    and the adjoint-family vacuum carries (+alpha)^n. The first is annihilated
    by c and d (exactly, in truncation, up to the projected tail), the second
    by the adjoints of c" and d".
    """
    vac, vac_p = np.zeros(trunc.shape, complex), np.zeros(trunc.shape, complex)
    for n in range(min(trunc.shape)):
        vac[n, n], vac_p[n, n] = (-p.alpha) ** n, (+p.alpha) ** n
    return vac, vac_p


def eigenvector_families(p: ModelParams, trunc: TruncationSpec, m_max: int,
                         n_max: int) -> tuple[NDArray, NDArray]:
    """Eigenvectors of H and of its adjoint over the (m, n) grid, as two stacks
    of grids, shape (m_max + 1, n_max + 1, n_max_a + 1, n_max_b + 1).

    Member [m, n] of the first is c"^m d"^n applied to the vacuum, an
    eigenvector of H with eigenvalue energy(p, m, n); member [m, n] of the
    second applies the adjoints of c and d to the adjoint-family vacuum and is
    an eigenvector of the adjoint. Raw raising powers, no factorial
    normalization. d" raises the vacuum along row 0, then each call of c"
    raises a whole row, so a member's bits do not depend on the grid size.
    Raising warns of no overflow; instead a ValueError names the first member
    in (m, n) order that underflows to zero or overflows, as members do at
    tiny gamma, where the normalization is large.
    """
    _check_grid(m_max, n_max)
    if m_max > trunc.n_max_a or n_max > trunc.n_max_b:
        raise ValueError(
            f"truncation too shallow for a ({m_max},{n_max}) grid: "
            f"need n_max_a >= {m_max} and n_max_b >= {n_max}")
    ops = build_pseudoboson_ops(p, trunc)

    def family(raise_m: GridMap, raise_n: GridMap, vacuum: NDArray) -> NDArray:
        stack = np.empty((m_max + 1, n_max + 1) + trunc.shape, dtype=complex)
        stack[0, 0] = vacuum
        for n in range(n_max):
            stack[0, n + 1] = raise_n(stack[0, n])
        for m in range(m_max):
            stack[m + 1] = raise_m(stack[m])
        return stack

    vac, vac_p = build_vacua(p, trunc)
    with np.errstate(over="ignore", invalid="ignore"):
        states = family(ops.c_ddag, ops.d_ddag, vac)
        adj_states = family(ops.c.adjoint(), ops.d.adjoint(), vac_p)
    for m, n in np.ndindex(m_max + 1, n_max + 1):
        for member in (states[m, n], adj_states[m, n]):
            if not np.all(np.isfinite(member)):
                raise ValueError(f"gamma too small: eigenvector ({m},{n}) overflows")
            if not np.any(member):
                raise ValueError(f"gamma too small: eigenvector ({m},{n}) underflows")
    return states, adj_states


def energy(p: ModelParams, m: int, n: int) -> float:
    """Closed-form eigenvalue E(m, n) = rho + m (beta + rho) + n (rho - beta)."""
    if m < 0 or n < 0:
        raise ValueError("quantum numbers must be nonnegative")
    return p.rho + m * (p.beta + p.rho) + n * (p.rho - p.beta)


def eigen_residuals(p: ModelParams, trunc: TruncationSpec,
                    m_max: int, n_max: int) -> list:
    """Relative eigen-residuals of both families over the (m, n) grid.

    Rows {"m", "n", "energy", "residual", "adjoint_residual"} where residual
    is ||H psi - E psi|| / ||psi|| for the raising-power eigenvector and
    adjoint_residual the same for the adjoint family under H', the H and H'
    maps applied to the stacks of grids of `eigenvector_families`. Both decay
    with the geometric truncation tail, so a deep enough truncation is the
    caller's responsibility (see `biorthogonality_matrix` for the heuristic).
    `linalg.norm2` keeps the norm of a member with tiny or huge entries finite.
    """
    grid = energy_grid(p, m_max, n_max)
    energies = np.array([e for _, _, e in grid])[:, None]
    residuals = []
    for op, stack in zip(build_hamiltonian(p, trunc),
                         eigenvector_families(p, trunc, m_max, n_max)):
        flat = stack.reshape(len(grid), -1)
        gap = op(stack).reshape(flat.shape) - energies * flat
        residuals.append(norm2(gap, axis=-1) / norm2(flat, axis=-1))
    return [{"m": m, "n": n, "energy": e, "residual": float(r),
             "adjoint_residual": float(r_a)}
            for (m, n, e), r, r_a in zip(grid, *residuals)]


def biorthogonality_matrix(p: ModelParams, m_max: int, n_max: int,
                           trunc: TruncationSpec) -> BiorthReport:
    """Mutual Gram matrix of the eigenvector families up to (m_max, n_max).

    The Gram is one product of the two flattened stacks. Precondition: the
    geometric tail alpha^(min cutoff - m_max - n_max) must be below 1e-12,
    otherwise truncation error would contaminate the grid and a ValueError
    asks for a deeper truncation.
    """
    _check_grid(m_max, n_max)
    depth_budget = min(trunc.n_max_a, trunc.n_max_b) - m_max - n_max
    if p.alpha > 0:
        if depth_budget <= 0 or p.alpha ** depth_budget >= 1e-12:
            if p.alpha == 1.0:
                raise ValueError(f"gamma = {p.gamma:g} is too large: alpha rounds "
                                 "to 1, so no truncation holds the vacuum tail")
            need = m_max + n_max + max(1, math.ceil(-12.0 / math.log10(p.alpha)))
            raise ValueError(
                f"truncation too shallow for a ({m_max},{n_max}) grid: "
                f"need both cutoffs >= {need}")
    labels = [(m, n) for m in range(m_max + 1) for n in range(n_max + 1)]
    states, adj_states = eigenvector_families(p, trunc, m_max, n_max)
    size = len(labels)
    gram = states.reshape(size, -1) @ adj_states.reshape(size, -1).conj().T
    # the (0, 0) members are the two vacua
    scale = complex(gram[0, 0])
    diag = np.diag(gram)
    expected = [math.factorial(m) * math.factorial(n) * scale for m, n in labels]
    return BiorthReport(gram=gram, scale=scale,
                        max_offdiag=float(np.abs(gram - np.diag(diag)).max()),
                        max_diag_error=float(np.abs(diag - expected).max()),
                        labels=labels)


def _occupation_phases(states) -> NDArray[np.complex128]:
    """(-i)^(m + n) for each occupation pair (m, n), read from an exact table."""
    return np.array([_PHASES[(m + n) % 4] for m, n in states])


def similarity_check(p: ModelParams, trunc: TruncationSpec) -> float:
    """Max entrywise |H_adj - S H S^-1| for the diagonal phase S with
    (-i)^(m+n) on |m, n>, which is unitary and conjugates H into its adjoint
    by flipping the sign of the coupling.

    S H S^-1 multiplies the weight of a (da, db) shift by (-i)^-(da+db), an
    exact table entry; diagonal conjugation commutes with the finite section,
    so this is exact at any truncation.
    """
    H, H_adj = build_hamiltonian(p, trunc)
    conjugated = GridMap(trunc, tuple((w * _PHASES[-(da + db) % 4], da, db)
                                      for w, da, db in H.terms))
    return interior_deviation(H_adj - conjugated, margin=0)


def _check_grid(m_max: int, n_max: int) -> None:
    if m_max < 0 or n_max < 0:
        raise ValueError(f"m_max and n_max must be nonnegative, got {m_max} and {n_max}")


def energy_grid(p: ModelParams, m_max: int, n_max: int) -> list[tuple[int, int, float]]:
    """The closed-form eigenvalue grid as (m, n, E) rows in row-major order;
    ValueError on a negative size."""
    _check_grid(m_max, n_max)
    return [(m, n, energy(p, m, n))
            for m in range(m_max + 1) for n in range(n_max + 1)]


def block_layout(p: ModelParams, m_max: int, n_max: int) -> list[list[float]]:
    """Kronecker-sum layout of the diagonal representation: block m holds the
    diagonal entries E(m, 0..n_max), starting at m (beta + rho) + rho with
    step rho - beta."""
    return [[energy(p, m, n) for n in range(n_max + 1)] for m in range(m_max + 1)]

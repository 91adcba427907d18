"""Equation-of-motion method for quadratic boson Hamiltonians.

For H = sum_ij w_ij a'_i a_j + sum_ij u_ij a'_i a'_j + sum_ij v_ij a_i a_j + c
(u, v symmetric) the adjoint action X -> [H, X] closes on the span of the
ladder operators; the constant c commutes with everything and drops out. In
the ordered basis (a'_1 .. a'_N, a_1 .. a_N) its matrix is

    M = [[ W, -2U ],
         [ 2V, -W^T ]]

read column-wise: column k of the left block carries [H, a'_k], of the right
block [H, a_k]. A ladder combination L = sum_i x_i a'_i + sum_i y_i a_i is
stored as its stacked coefficient vector (x, y), so an eigenvector of M with
eigenvalue lambda is an L with [H, L] = lambda L, and the level spacings of H
come from the small 2N x 2N matrix instead of a Fock-space diagonalization.
For the two-mode model this matrix is 4 x 4, real symmetric, with eigenvalues
{+-beta +- rho} matching the closed-form spectrum. Both closed forms here, the
model's 4 x 4 and the 3 x 3 su(1,1) secular problem, return an `EmmSolution`:
the matrix with its (value, eigenvector) pairs sorted by real part.

The symplectic pairing [f, g] = sum_i (y_i^f x_i^g - x_i^f y_i^g) of two
stacked vectors is the scalar commutator of their ladder combinations;
eigenvectors whose eigenvalues do not sum to zero have vanishing pairing,
which is what makes the eigenvalue pattern come in +-lambda pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .model import ModelParams

__all__ = [
    "QuadraticHamiltonian",
    "EmmSolution",
    "adjoint_action_matrix",
    "model_quadratic",
    "model_emm_matrix",
    "model_emm_eigenpairs",
    "symplectic_pairing",
    "su11_secular_matrix",
    "su11_secular",
]

_SYM_TOL = 1e-12


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Coefficient blocks of a quadratic boson Hamiltonian.

    number_block w_ij multiplies a'_i a_j, creation_block u_ij multiplies
    a'_i a'_j, annihilation_block v_ij multiplies a_i a_j. The u and v blocks
    must be symmetric (only the symmetric part of a quadratic form is
    observable) and all three must share one square shape.
    """

    number_block: NDArray[np.float64]
    creation_block: NDArray[np.float64]
    annihilation_block: NDArray[np.float64]

    def __post_init__(self):
        w = np.asarray(self.number_block, dtype=float)
        u = np.asarray(self.creation_block, dtype=float)
        v = np.asarray(self.annihilation_block, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("number_block must be square")
        if u.shape != w.shape or v.shape != w.shape:
            raise ValueError("all coefficient blocks must share one shape")
        for name, blk in (("creation_block", u), ("annihilation_block", v)):
            if np.abs(blk - blk.T).max() > _SYM_TOL:
                raise ValueError(f"{name} must be symmetric")
        object.__setattr__(self, "number_block", w)
        object.__setattr__(self, "creation_block", u)
        object.__setattr__(self, "annihilation_block", v)


@dataclass(frozen=True)
class EmmSolution:
    """A small adjoint-action matrix with its closed-form eigenpairs.

    pairs holds (value, eigenvector) tuples, both complex, sorted by the real
    part of the value; for the model the eigenvector is a stacked (x, y).
    degenerate marks the gamma = 0 fallback (eigenvectors collapse to the
    coordinate axes); repeated_values marks a numerically detected eigenvalue
    collision (the model's beta = +-rho), in which case no canonical
    eigenvector choice inside the multiplet is attempted.
    """

    matrix: NDArray[np.float64]
    pairs: list
    degenerate: bool
    repeated_values: bool


def _solution(matrix: NDArray[np.float64], raw: list, degenerate: bool) -> EmmSolution:
    """Sort the (value, vector) pairs by real part, flag repeated values and
    cast both to complex."""
    raw = sorted(raw, key=lambda pair: pair[0].real)
    # a gap within 1e-12 max(1, |values|) is a repeat; it is taken between
    # halved values, so the gap between two finite values cannot overflow
    half = np.array([val for val, _ in raw], dtype=complex) / 2.0
    bound = 1e-12 * max(0.5, float(np.abs(half).max()))
    repeated = bool(np.any(np.abs(np.diff(half)) <= bound))
    pairs = [(complex(val), np.asarray(vec, dtype=complex)) for val, vec in raw]
    return EmmSolution(matrix=matrix, pairs=pairs, degenerate=degenerate,
                       repeated_values=repeated)


def adjoint_action_matrix(h: QuadraticHamiltonian) -> NDArray[np.float64]:
    """Matrix of X -> [H, X] on (creations, annihilations).

    From the canonical commutation relations,
    [H, a'_k] = sum_i w_ik a'_i + 2 sum_i v_ki a_i and
    [H, a_k] = -2 sum_i u_ki a'_i - sum_i w_ki a_i, which packs into the
    block form [[W, -2U], [2V, -W^T]].
    """
    w = h.number_block
    u = h.creation_block
    v = h.annihilation_block
    top = np.hstack([w, -2.0 * u])
    bottom = np.hstack([2.0 * v, -w.T])
    return np.vstack([top, bottom])


def model_quadratic(p: ModelParams) -> QuadraticHamiltonian:
    """The two-mode model as coefficient blocks: W = diag(1+beta, 1-beta),
    U = (gamma/2) offdiag, V = -(gamma/2) offdiag. The constant 1 from the
    reordering b b' = b'b + 1 commutes with everything and is left out."""
    w = np.diag([1.0 + p.beta, 1.0 - p.beta])
    u = np.array([[0.0, p.gamma / 2.0], [p.gamma / 2.0, 0.0]])
    v = -u
    return QuadraticHamiltonian(number_block=w, creation_block=u,
                                annihilation_block=v)


def model_emm_matrix(p: ModelParams) -> NDArray[np.float64]:
    """The model's 4 x 4 adjoint-action matrix in the (creation a, creation b,
    annihilation a, annihilation b) basis; real symmetric."""
    return adjoint_action_matrix(model_quadratic(p))


def model_emm_eigenpairs(p: ModelParams) -> EmmSolution:
    """Closed-form eigenpairs of the model adjoint action.

    With rho = sqrt(1 + gamma^2): -beta-rho with (0, rho-1, gamma, 0),
    beta-rho with (rho-1, 0, 0, gamma), -beta+rho with (0, 1+rho, -gamma, 0),
    beta+rho with (1+rho, 0, 0, -gamma); vectors unnormalized (the
    pseudo-boson normalization is applied only when building operators).
    The eigenvectors mix one creation with the opposite annihilation and are
    exactly the pseudo-boson ladder directions; rho - 1 is evaluated as
    gamma^2 / (1 + rho), free of cancellation. At gamma = 0 each vector is
    the gamma -> 0 limit of its direction, a coordinate axis: e3 for
    -beta-rho, e4 for beta-rho, e2 for -beta+rho, e1 for beta+rho.
    """
    rho = p.rho
    beta = p.beta
    gamma = p.gamma
    if gamma == 0:
        raw = [
            (-beta - rho, np.array([0.0, 0.0, 1.0, 0.0])),
            (beta - rho, np.array([0.0, 0.0, 0.0, 1.0])),
            (-beta + rho, np.array([0.0, 1.0, 0.0, 0.0])),
            (beta + rho, np.array([1.0, 0.0, 0.0, 0.0])),
        ]
    else:
        raw = [
            (-beta - rho, np.array([0.0, gamma * gamma / (1.0 + rho), gamma, 0.0])),
            (beta - rho, np.array([gamma * gamma / (1.0 + rho), 0.0, 0.0, gamma])),
            (-beta + rho, np.array([0.0, 1.0 + rho, -gamma, 0.0])),
            (beta + rho, np.array([1.0 + rho, 0.0, 0.0, -gamma])),
        ]
    return _solution(model_emm_matrix(p), raw, degenerate=(gamma == 0))


def symplectic_pairing(f: NDArray, g: NDArray) -> complex:
    """[f, g] = sum_i (y_i^f x_i^g - x_i^f y_i^g) for stacked vectors
    f = (x^f, y^f) and g = (x^g, y^g); the commutator of the two ladder
    combinations, a scalar. Antisymmetric, and zero between adjoint action
    eigenvectors unless their eigenvalues sum to zero. Raises ValueError
    unless f and g are 1-D with one even length."""
    f = np.asarray(f)
    g = np.asarray(g)
    if f.ndim != 1 or f.shape != g.shape or f.size % 2:
        raise ValueError("stacked ladder vectors must be 1-D with one even length")
    n = f.size // 2
    return complex(np.sum(f[n:] * g[:n]) - np.sum(f[:n] * g[n:]))


def su11_secular_matrix(gamma: float) -> NDArray[np.float64]:
    """Adjoint action of the model on the sector su(1,1) triple (raising,
    lowering, diagonal): a 3 x 3 non-symmetric matrix, again read
    column-wise."""
    return np.array([
        [2.0, 0.0, -2.0 * gamma],
        [0.0, -2.0, -2.0 * gamma],
        [-gamma, -gamma, 0.0],
    ])


def su11_secular(gamma: float) -> EmmSolution:
    """Eigenpairs of the secular matrix: -2 rho, 0, 2 rho with vectors
    (alpha, 1/alpha, 1), (gamma, -gamma, 1) and (1/alpha, alpha, -1) for
    gamma != 0, where alpha = gamma/(1+rho) = (rho-1)/gamma; the first form
    avoids the cancellation in rho - 1 at small gamma. At gamma = 0 the
    vectors would divide by gamma, so they are coordinate axes and the
    solution is marked degenerate.

    The +-2 rho vectors are the coefficient triples of the tilted sector
    ladder operators. The matrix is not symmetric, so left and right
    eigenvectors differ; these are the right ones.
    """
    m = su11_secular_matrix(gamma)
    if gamma == 0:
        raw = [
            (-2.0, np.array([0.0, 1.0, 0.0])),
            (0.0, np.array([0.0, 0.0, 1.0])),
            (2.0, np.array([1.0, 0.0, 0.0])),
        ]
    else:
        rho = float(np.sqrt(1.0 + gamma ** 2))
        raw = [
            (-2.0 * rho, np.array([gamma / (1.0 + rho), (1.0 + rho) / gamma, 1.0])),
            (0.0, np.array([gamma, -gamma, 1.0])),
            (2.0 * rho, np.array([(1.0 + rho) / gamma, gamma / (1.0 + rho), -1.0])),
        ]
    return _solution(m, raw, degenerate=(gamma == 0))

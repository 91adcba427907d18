"""Equation-of-motion method for quadratic boson Hamiltonians.

For H = sum_ij w_ij a'_i a_j + sum_ij u_ij a'_i a'_j + sum_ij v_ij a_i a_j + c
(u, v symmetric) the adjoint action X -> [H, X] closes on the span of the
ladder operators. In the ordered basis (a'_1 .. a'_N, a_1 .. a_N) its matrix is

    M = [[ W, -2U ],
         [ 2V, -W^T ]]

read column-wise: column k of the left block carries [H, a'_k], of the right
block [H, a_k]. An eigenvector of M with eigenvalue lambda is a ladder
combination L with [H, L] = lambda L, so the level spacings of H come from the
small 2N x 2N matrix instead of a Fock-space diagonalization. For the
two-mode model this matrix is 4 x 4, real symmetric, with eigenvalues
{+-beta +- rho} matching the closed-form spectrum.

The symplectic pairing [f, g] = sum_i (y_i^f x_i^g - x_i^f y_i^g) (x = creation
part, y = annihilation part) is the scalar commutator of two ladder
combinations; eigenvectors whose eigenvalues do not sum to zero have vanishing
pairing, which is what makes the eigenvalue pattern come in +-lambda pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .model import ModelParams

__all__ = [
    "QuadraticHamiltonian",
    "LadderCombination",
    "EmmEigenpair",
    "EmmSolution",
    "Su11Secular",
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
    constant: float = 0.0

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
class LadderCombination:
    """A linear combination sum_i x_i a'_i + sum_i y_i a_i of ladder operators,
    stored as the creation coefficients x and annihilation coefficients y."""

    creation: NDArray[np.complex128]
    annihilation: NDArray[np.complex128]

    @classmethod
    def from_stacked(cls, vec: NDArray) -> "LadderCombination":
        vec = np.asarray(vec)
        if vec.ndim != 1 or vec.size % 2:
            raise ValueError("stacked coefficient vector must have even length")
        half = vec.size // 2
        return cls(creation=vec[:half].astype(complex),
                   annihilation=vec[half:].astype(complex))

    @property
    def stacked(self) -> NDArray[np.complex128]:
        return np.concatenate([self.creation, self.annihilation])


@dataclass(frozen=True)
class EmmEigenpair:
    """One eigenvalue of the adjoint action with its ladder combination."""

    value: complex
    combination: LadderCombination


@dataclass(frozen=True)
class EmmSolution:
    """Closed-form adjoint-action eigenpairs of the model, sorted by value.

    degenerate marks the gamma = 0 fallback (eigenvectors collapse to the
    coordinate axes); repeated_values marks a numerically detected eigenvalue
    collision (happens at beta = +-rho), in which case no canonical
    eigenvector choice inside the multiplet is attempted.
    """

    pairs: list
    degenerate: bool = False
    repeated_values: bool = False


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
    U = (gamma/2) offdiag, V = -(gamma/2) offdiag, constant 1 from the
    reordering b b' = b'b + 1."""
    w = np.diag([1.0 + p.beta, 1.0 - p.beta])
    u = np.array([[0.0, p.gamma / 2.0], [p.gamma / 2.0, 0.0]])
    v = -u
    return QuadraticHamiltonian(number_block=w, creation_block=u,
                                annihilation_block=v, constant=1.0)


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
    raw.sort(key=lambda t: t[0])
    values = np.array([val for val, _ in raw])
    gaps = np.diff(values)
    repeated = bool(np.any(np.abs(gaps) <= 1e-12 * max(1.0, float(np.abs(values).max()))))
    pairs = [EmmEigenpair(value=complex(val),
                          combination=LadderCombination.from_stacked(vec))
             for val, vec in raw]
    return EmmSolution(pairs=pairs, degenerate=(gamma == 0),
                       repeated_values=repeated)


def symplectic_pairing(f: LadderCombination, g: LadderCombination) -> complex:
    """[f, g] = sum_i (y_i^f x_i^g - x_i^f y_i^g); the commutator of the two
    ladder combinations, a scalar. Antisymmetric, and zero between adjoint
    action eigenvectors unless their eigenvalues sum to zero."""
    if f.creation.shape != g.creation.shape:
        raise ValueError("ladder combinations live on different mode counts")
    return complex(np.sum(f.annihilation * g.creation)
                   - np.sum(f.creation * g.annihilation))


def su11_secular_matrix(gamma: float) -> NDArray[np.float64]:
    """Adjoint action of the model on the sector su(1,1) triple (raising,
    lowering, diagonal): a 3 x 3 non-symmetric matrix, again read
    column-wise."""
    return np.array([
        [2.0, 0.0, -2.0 * gamma],
        [0.0, -2.0, -2.0 * gamma],
        [-gamma, -gamma, 0.0],
    ])


@dataclass(frozen=True)
class Su11Secular:
    """The 3 x 3 secular problem: matrix, eigenpairs sorted by real part, and
    the gamma = 0 degeneracy flag (the closed-form eigenvectors divide by
    gamma, so the degenerate case returns coordinate-axis vectors)."""

    matrix: NDArray[np.float64]
    pairs: list
    degenerate: bool = False


def su11_secular(gamma: float) -> Su11Secular:
    """Eigenpairs of the secular matrix: -2 rho, 0, 2 rho with vectors
    (alpha, 1/alpha, 1), (gamma, -gamma, 1) and (1/alpha, alpha, -1) for
    gamma != 0, where alpha = gamma/(1+rho) = (rho-1)/gamma; the first form
    avoids the cancellation in rho - 1 at small gamma.

    The +-2 rho vectors are the coefficient triples of the tilted sector
    ladder operators. The matrix is not symmetric, so left and right
    eigenvectors differ; these are the right ones.
    """
    m = su11_secular_matrix(gamma)
    if gamma == 0:
        pairs = [
            (complex(-2.0), np.array([0.0, 1.0, 0.0], dtype=complex)),
            (complex(0.0), np.array([0.0, 0.0, 1.0], dtype=complex)),
            (complex(2.0), np.array([1.0, 0.0, 0.0], dtype=complex)),
        ]
        return Su11Secular(matrix=m, pairs=pairs, degenerate=True)
    rho = float(np.sqrt(1.0 + gamma ** 2))
    pairs = [
        (complex(-2.0 * rho),
         np.array([gamma / (1.0 + rho), (1.0 + rho) / gamma, 1.0], dtype=complex)),
        (complex(0.0), np.array([gamma, -gamma, 1.0], dtype=complex)),
        (complex(2.0 * rho),
         np.array([(1.0 + rho) / gamma, gamma / (1.0 + rho), -1.0], dtype=complex)),
    ]
    return Su11Secular(matrix=m, pairs=pairs, degenerate=False)

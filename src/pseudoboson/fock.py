"""Truncated two-mode Fock space.

Basis indexing, ladder-operator matrices, commutators and the inner-product
convention. States |m, n> carry the occupation of mode a first and mode b
second, stored row-major: index = m * (n_max_b + 1) + n. The basis is
orthonormal; ladder actions that would leave the truncation map to zero
(projection truncation). Boundary artifacts of truncated operator products
are excluded by measuring deviations on the interior only.

All containers are treated as immutable after construction and every
operation is a pure function, so concurrent evaluation needs no coordination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "TruncationSpec",
    "Operator",
    "FockVector",
    "build_ladder_ops",
    "identity_op",
    "commutator",
    "inner_product",
    "apply",
    "basis_state",
    "interior_deviation",
]


@dataclass(frozen=True)
class TruncationSpec:
    """Truncation geometry: highest retained occupation of each mode."""

    n_max_a: int
    n_max_b: int

    def __post_init__(self):
        if self.n_max_a < 0 or self.n_max_b < 0:
            raise ValueError("occupation cutoffs must be nonnegative")

    @property
    def dim(self) -> int:
        return (self.n_max_a + 1) * (self.n_max_b + 1)

    def index(self, m: int, n: int) -> int:
        """Flat basis index of |m, n>."""
        if not (0 <= m <= self.n_max_a and 0 <= n <= self.n_max_b):
            raise ValueError(f"state |{m},{n}> outside truncation {self}")
        return m * (self.n_max_b + 1) + n

    def occupations(self, idx: int) -> tuple[int, int]:
        """Inverse of index()."""
        if not 0 <= idx < self.dim:
            raise ValueError(f"index {idx} outside dimension {self.dim}")
        return divmod(idx, self.n_max_b + 1)

    def states(self):
        """Iterate (m, n) in flat-index order."""
        for m in range(self.n_max_a + 1):
            for n in range(self.n_max_b + 1):
                yield m, n


@dataclass(frozen=True)
class Operator:
    """A dense matrix on the truncated space, tagged with its geometry."""

    trunc: TruncationSpec
    entries: NDArray

    def __post_init__(self):
        if self.entries.shape != (self.trunc.dim, self.trunc.dim):
            raise ValueError(
                f"entries shape {self.entries.shape} inconsistent with dim {self.trunc.dim}")

    def adjoint(self) -> "Operator":
        return Operator(self.trunc, self.entries.conj().T)

    def _check(self, other: "Operator"):
        if self.trunc != other.trunc:
            raise ValueError(f"truncation mismatch: {self.trunc} vs {other.trunc}")

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check(other)
        return Operator(self.trunc, self.entries @ other.entries)

    def __add__(self, other: "Operator") -> "Operator":
        self._check(other)
        return Operator(self.trunc, self.entries + other.entries)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check(other)
        return Operator(self.trunc, self.entries - other.entries)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.trunc, self.entries * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return Operator(self.trunc, -self.entries)


@dataclass(frozen=True)
class FockVector:
    """Complex coefficient vector over the truncated basis."""

    trunc: TruncationSpec
    coeffs: NDArray

    def __post_init__(self):
        if self.coeffs.shape != (self.trunc.dim,):
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} inconsistent with dim {self.trunc.dim}")


def _single_mode_lowering(n_max: int) -> NDArray[np.float64]:
    """Single-mode annihilation matrix: <n-1| A |n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1) if n_max > 0 \
        else np.zeros((1, 1))


def build_ladder_ops(trunc: TruncationSpec):
    """Ladder matrices (a, b, a_dag, b_dag) on the truncated space.

    a|m,n> = sqrt(m)|m-1,n>, a_dag|m,n> = sqrt(m+1)|m+1,n> with projection to
    zero at the truncation boundary; analogously for mode b. a_dag is exactly
    the conjugate transpose of a.
    """
    A1 = _single_mode_lowering(trunc.n_max_a)
    B1 = _single_mode_lowering(trunc.n_max_b)
    a = Operator(trunc, np.kron(A1, np.eye(trunc.n_max_b + 1)))
    b = Operator(trunc, np.kron(np.eye(trunc.n_max_a + 1), B1))
    return a, b, a.adjoint(), b.adjoint()


def identity_op(trunc: TruncationSpec) -> Operator:
    return Operator(trunc, np.eye(trunc.dim))


def commutator(X: Operator, Y: Operator) -> Operator:
    """XY - YX. Both factors must share a truncation."""
    if X.trunc != Y.trunc:
        raise ValueError(f"truncation mismatch: {X.trunc} vs {Y.trunc}")
    return Operator(X.trunc, X.entries @ Y.entries - Y.entries @ X.entries)


def inner_product(v: FockVector, w: FockVector) -> complex:
    """Inner product, antilinear in the first argument."""
    if v.trunc != w.trunc:
        raise ValueError(f"truncation mismatch: {v.trunc} vs {w.trunc}")
    return complex(np.vdot(v.coeffs, w.coeffs))


def apply(X: Operator, v: FockVector) -> FockVector:
    """Matrix-vector product X v."""
    if X.trunc != v.trunc:
        raise ValueError(f"truncation mismatch: {X.trunc} vs {v.trunc}")
    return FockVector(X.trunc, X.entries @ v.coeffs)


def basis_state(trunc: TruncationSpec, m: int, n: int) -> FockVector:
    coeffs = np.zeros(trunc.dim, dtype=complex)
    coeffs[trunc.index(m, n)] = 1.0
    return FockVector(trunc, coeffs)


def interior_deviation(X: Operator, margin: int) -> float:
    """Largest entry magnitude of X restricted to the interior states
    m <= n_max_a - margin, n <= n_max_b - margin, in rows and columns alike.

    Truncation-boundary artifacts of operator products are thereby excluded
    from the measurement. The margin must lie between 0 and the smaller
    cutoff.
    """
    t = X.trunc
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    if margin > min(t.n_max_a, t.n_max_b):
        raise ValueError(f"margin {margin} exceeds truncation {t}")
    shape = (t.n_max_a + 1, t.n_max_b + 1)
    grid = X.entries.reshape(shape + shape)
    ka, kb = shape[0] - margin, shape[1] - margin
    return float(np.abs(grid[:ka, :kb, :ka, :kb]).max())

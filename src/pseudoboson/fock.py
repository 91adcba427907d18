"""Truncated two-mode Fock space.

States |m, n> of the orthonormal basis, mode a first, form a grid of shape
(n_max_a + 1, n_max_b + 1), stored flat row-major: index m (n_max_b + 1) + n.
Operators are `GridMap`s, weighted shifts of the last two axes of a stack of
grids; ladder actions that would leave the truncation map to zero (projection
truncation). A dense `Operator` is a map applied to the identity stack.
Truncated operator products are judged on the interior only.

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
    "GridMap",
    "build_ladder_ops",
    "identity_op",
    "commutator",
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
    def shape(self) -> tuple[int, int]:
        return self.n_max_a + 1, self.n_max_b + 1

    @property
    def dim(self) -> int:
        return (self.n_max_a + 1) * (self.n_max_b + 1)

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


@dataclass(frozen=True)
class FockVector:
    """Complex coefficient vector over the truncated basis."""

    trunc: TruncationSpec
    coeffs: NDArray

    def __post_init__(self):
        if self.coeffs.shape != (self.trunc.dim,):
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} inconsistent with dim {self.trunc.dim}")

    @property
    def grid(self) -> NDArray:
        return self.coeffs.reshape(self.trunc.shape)


def _window(shift: int, length: int) -> slice:
    """The indices i of an axis of this length for which i + shift is one too."""
    return slice(max(0, -shift), length - max(0, shift))


@dataclass(frozen=True, eq=False)
class GridMap:
    """A linear map on stacks of states, a sum of weighted shifts: term
    (w, da, db) adds w * x[..., m + da, n + db] to entry (m, n) of the image
    wherever both lie in the box, w broadcast to that target window."""

    trunc: TruncationSpec
    terms: tuple

    def __call__(self, x: NDArray) -> NDArray:
        if x.shape[-2:] != self.trunc.shape:
            raise ValueError(f"grid shape {x.shape[-2:]} inconsistent with {self.trunc}")
        out = np.zeros(x.shape, np.result_type(x, *(w for w, _, _ in self.terms)))
        na, nb = self.trunc.shape
        for w, da, db in self.terms:
            out[..., _window(da, na), _window(db, nb)] += \
                w * x[..., _window(-da, na), _window(-db, nb)]
        return out

    def adjoint(self) -> "GridMap":
        """The conjugate transpose: each shift reversed, its weights conjugated
        in place, as a shift's source window is the reverse shift's target."""
        return GridMap(self.trunc, tuple((np.conj(w), -da, -db)
                                         for w, da, db in self.terms))

    def dense(self) -> Operator:
        """The matrix whose column j is the image of basis state j; each entry
        is one weight times 1 plus zeros, so it has the weight's bits."""
        dim = self.trunc.dim
        images = self(np.eye(dim).reshape((dim,) + self.trunc.shape))
        return Operator(self.trunc, np.ascontiguousarray(images.reshape(dim, dim).T))


def build_ladder_ops(trunc: TruncationSpec):
    """Ladder maps (a, b, a_dag, b_dag) on the truncated space.

    a|m,n> = sqrt(m)|m-1,n>, a_dag|m,n> = sqrt(m+1)|m+1,n> with projection to
    zero at the truncation boundary; analogously for mode b.
    """
    a = GridMap(trunc, ((np.sqrt(np.arange(1.0, trunc.n_max_a + 1))[:, None], 1, 0),))
    b = GridMap(trunc, ((np.sqrt(np.arange(1.0, trunc.n_max_b + 1)), 0, 1),))
    return a, b, a.adjoint(), b.adjoint()


def identity_op(trunc: TruncationSpec) -> Operator:
    return Operator(trunc, np.eye(trunc.dim))


def commutator(X: Operator, Y: Operator) -> Operator:
    """XY - YX. Both factors must share a truncation."""
    if X.trunc != Y.trunc:
        raise ValueError(f"truncation mismatch: {X.trunc} vs {Y.trunc}")
    return Operator(X.trunc, X.entries @ Y.entries - Y.entries @ X.entries)


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
    grid = X.entries.reshape(t.shape + t.shape)
    ka, kb = t.n_max_a + 1 - margin, t.n_max_b + 1 - margin
    return float(np.abs(grid[:ka, :kb, :ka, :kb]).max())

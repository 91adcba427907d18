"""Truncated two-mode Fock space.

States |m, n> of the orthonormal basis, mode a first, form a grid of shape
(n_max_a + 1, n_max_b + 1), stored flat row-major: index m (n_max_b + 1) + n.
Operators are `GridMap`s, weighted shifts of the last two axes of a stack of
grids; ladder actions that would leave the truncation map to zero (projection
truncation). Maps compose, add, subtract and scale into maps, so operator
identities are checked without a matrix; truncated products are judged on the
interior only (`interior_deviation`). `GridMap.dense` returns the matrix, the
map applied to the identity stack, as an `Operator` record.

All containers are treated as immutable after construction and every
operation is a pure function, so concurrent evaluation needs no coordination.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "TruncationSpec",
    "Operator",
    "GridMap",
    "build_ladder_ops",
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


@dataclass(frozen=True)
class Operator:
    """A dense matrix on the truncated space, tagged with its geometry: the
    record `GridMap.dense` returns."""

    trunc: TruncationSpec
    entries: NDArray

    def __post_init__(self):
        if self.entries.shape != (self.trunc.dim, self.trunc.dim):
            raise ValueError(
                f"entries shape {self.entries.shape} inconsistent with dim {self.trunc.dim}")


# map products ask for several windows per term pair; a cached slice is
# several times cheaper than building one
@functools.lru_cache(maxsize=1024)
def _window(shift: int, length: int) -> slice:
    """The indices i of an axis of this length for which i + shift is one too."""
    return slice(max(0, -shift), max(0, length - max(0, shift)))


@dataclass(frozen=True, eq=False)
class GridMap:
    """A linear map on stacks of states, a sum of weighted shifts: term
    (w, da, db) adds w * x[..., m + da, n + db] to entry (m, n) of the image
    wherever both lie in the box, w broadcast to that target window.

    Maps on one truncation form an algebra: `X @ Y` is the truncated product,
    `X + Y`, `X - Y` and scalar multiples act termwise."""

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

    def _same_trunc(self, other: "GridMap"):
        if self.trunc != other.trunc:
            raise ValueError(f"truncation mismatch: {self.trunc} vs {other.trunc}")

    def __matmul__(self, other: "GridMap") -> "GridMap":
        """x -> self(other(x)), the product of the truncated factors. A pair of
        terms shifts by the sum of its shifts; its weight at target (m, n) is
        the first weight there times the second weight at the intermediate
        state (m + da, n + db), zero where that leaves the box. The pairs of
        one shift are summed into one term."""
        self._same_trunc(other)
        na, nb = self.trunc.shape
        inner = other._weight_grids
        grids = np.zeros((len(self.terms),) + inner.shape,
                         np.result_type(inner, *(w for w, _, _ in self.terms)))
        pairs = []
        for pair_grids, (w, da, db) in zip(grids, self.terms):
            pair_grids[:, _window(da, na), _window(db, nb)] = \
                w * inner[:, _window(-da, na), _window(-db, nb)]
            pairs += [(grid, da + da2, db + db2)
                      for grid, (_, da2, db2) in zip(pair_grids, other.terms)]
        return GridMap(self.trunc, tuple((w[_window(da, na), _window(db, nb)], da, db)
                                         for (da, db), w in _sum_by_shift(pairs).items()))

    def __add__(self, other: "GridMap") -> "GridMap":
        self._same_trunc(other)
        return GridMap(self.trunc, self.terms + other.terms)

    def __sub__(self, other: "GridMap") -> "GridMap":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "GridMap":
        return GridMap(self.trunc, tuple((scalar * w, da, db) for w, da, db in self.terms))

    __rmul__ = __mul__

    @functools.cached_property
    def _weight_grids(self) -> NDArray:
        """Each term's weight on the whole box, zero off its target window;
        kept, as a ladder map is the right factor of many products."""
        na, nb = self.trunc.shape
        grids = np.zeros((len(self.terms), na, nb),
                         np.result_type(float, *(w for w, _, _ in self.terms)))
        for grid, (w, da, db) in zip(grids, self.terms):
            grid[_window(da, na), _window(db, nb)] = w
        return grids

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


def _sum_by_shift(terms) -> dict:
    """(da, db) -> the sum of the weights of that shift, added in order, as
    `GridMap.dense` adds them."""
    sums = {}
    for w, da, db in terms:
        sums[da, db] = sums[da, db] + w if (da, db) in sums else w
    return sums


def build_ladder_ops(trunc: TruncationSpec):
    """Ladder maps (a, b, a_dag, b_dag) on the truncated space.

    a|m,n> = sqrt(m)|m-1,n>, a_dag|m,n> = sqrt(m+1)|m+1,n> with projection to
    zero at the truncation boundary; analogously for mode b.
    """
    a = GridMap(trunc, ((np.sqrt(np.arange(1.0, trunc.n_max_a + 1))[:, None], 1, 0),))
    b = GridMap(trunc, ((np.sqrt(np.arange(1.0, trunc.n_max_b + 1)), 0, 1),))
    return a, b, a.adjoint(), b.adjoint()


def interior_deviation(X: GridMap, margin: int) -> float:
    """Largest entry magnitude of the map X restricted to the interior states
    m <= n_max_a - margin, n <= n_max_b - margin, targets and sources alike.

    The weights of each distinct shift are summed first, so the value is the
    entry magnitude of X's matrix. Truncation-boundary artifacts of map
    products are thereby excluded from the measurement. The margin must lie
    between 0 and the smaller cutoff.
    """
    t = X.trunc
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    if margin > min(t.n_max_a, t.n_max_b):
        raise ValueError(f"margin {margin} exceeds truncation {t}")
    na, nb = t.shape
    ka, kb = na - margin, nb - margin
    # one reduction over every shift's interior, so a NaN anywhere shows
    interior = [np.zeros(0)]
    for (da, db), w in _sum_by_shift(X.terms).items():
        # the interior is the leading corner of the shift's target window; a
        # weight broadcast over that window (a column, a scalar) is spread first
        window = (max(0, na - abs(da)), max(0, nb - abs(db)))
        if np.shape(w) != window:
            w = np.broadcast_to(w, window)
        interior.append(w[:max(0, ka - abs(da)), :max(0, kb - abs(db))].ravel())
    return float(np.abs(np.concatenate(interior)).max(initial=0.0))

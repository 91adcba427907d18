"""Constructive check that a matrix with real simple spectrum is similar to
its adjoint.

Any square matrix whose eigenvalues are real and distinct satisfies
M^H = S M S^-1 for an invertible S built from eigenvectors: if phi_i are
eigenvectors of M and psi_i eigenvectors of M^H for the same eigenvalue,
normalized to be biorthonormal (<psi_i, phi_j> = delta_ij), then S maps
phi_i to psi_i. S is self-adjoint and generally far from unitary; the
distance of S^H S from the identity is reported, never asserted, because it
measures the non-normality of M rather than any error.

`verify_similarity` carries this out numerically with a deterministic
eigenvector convention (largest-magnitude component scaled to exactly 1, then
the adjoint family rescaled for biorthonormality), so the returned transform
is reproducible and hand-checkable on small examples. Preconditions (real
spectrum, simple spectrum) are enforced up front with named errors: feeding a
matrix with a complex eigenvalue pair - a shallow strongly-coupled sector
matrix, say - fails loudly instead of returning a meaningless transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .linalg import biorthonormalize, eig_dense, multiset_distance, norm2, solve_matrix

__all__ = ["SimilarityReport", "verify_similarity"]


@dataclass(frozen=True)
class SimilarityReport:
    """Outcome of the similarity construction.

    similarity_error is ||M^H - S M S^-1||_F / ||M||_F; spectrum_match the
    greedy matching distance between the spectrum of M and the conjugated
    spectrum of M^H, divided by ||M||_F as well; both are scale free, and M
    scaled by a power of two away from under- and overflow gives their bits
    (each norm has a floor of 1e-300). biorth_error is the largest
    off-diagonal |<psi_i, phi_j>| after normalization; unitarity_defect the
    Frobenius distance of S^H S from the identity (informational only).
    """

    spectrum_real: bool
    max_imag: float
    spectrum_match: float
    biorth_error: float
    similarity_error: float
    unitarity_defect: float
    transform: NDArray[np.complex128]


def _largest_component_one(vectors: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """The columns of vectors, each divided by its largest-magnitude entry."""
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    if np.any(pivots == 0):
        raise RuntimeError("eigenvector is numerically zero")
    return vectors / pivots


def verify_similarity(m: NDArray, real_tol: float = 1e-8) -> SimilarityReport:
    """Build S with M^H = S M S^-1 from the two eigenvector families.

    Preconditions, checked in order on the values of M, with ValueError on
    failure and before the second QR runs, so a failing matrix costs one QR:
    the spectrum must be real within real_tol (absolute imaginary parts),
    and simple with minimum gap above 1e-8 ||M||_F. The QR of M^H takes M's
    real values, the conjugates of its own, as shift estimates (see
    `eig_dense`) and deflates in about half the sweeps; its values and
    vectors still come from its own Schur form, so spectrum_match compares
    two factorizations. Eigenvectors are scaled so the largest-magnitude
    component is exactly 1; the adjoint family is then divided by the
    conjugate of the mutual inner product, making the pairing exactly
    biorthonormal. S = Psi Phi^-1 follows from one LU factorization. A
    solver step that fails past the preconditions, a zero eigenvector, a
    vanishing Gram entry or a singular LU, raises RuntimeError, as QR does.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    n = m.shape[0]
    if n == 0:
        raise ValueError("matrix must be nonempty")
    norm = norm2(m)

    direct = eig_dense(m, want_vectors=True)

    max_imag = float(np.abs(direct.values.imag).max())
    if max_imag > real_tol:
        raise ValueError(
            f"precondition failed: spectrum not real (max |imag| = {max_imag:.3e} "
            f"> {real_tol:.1e}); the similarity construction needs a real spectrum")
    if n > 1:
        # gaps between halved values, so the gap between two finite values
        # cannot overflow; compared with the norm itself, which no floor
        # replaces, so a matrix at any scale keeps a relative test, and a
        # zero matrix, with its zero gap, fails it
        half_gap = float(np.diff(np.sort(0.5 * direct.values.real)).min())
        if half_gap <= 0.5e-8 * norm:
            raise ValueError(
                f"precondition failed: spectrum not simple (min gap = "
                f"{2.0 * half_gap:.3e} relative to matrix norm {norm:.3e}); "
                f"eigenvalues must be distinct")

    adjoint = eig_dense(m.conj().T, want_vectors=True, shifts=direct.values.real)

    # Both solvers sort by (real, imag); with a real simple spectrum the i-th
    # adjoint eigenvalue is the conjugate of the i-th direct one.
    spectrum_match = (multiset_distance(direct.values, adjoint.values.conj())
                      / max(norm, 1e-300))

    both = _largest_component_one(np.hstack([direct.vectors, adjoint.vectors]))
    phi, psi, gram = biorthonormalize(both[:, :n], both[:, n:])
    off = gram - np.diag(np.diag(gram))
    biorth_error = float(np.abs(off).max())

    transform = psi @ solve_matrix(phi, np.eye(n, dtype=complex))
    # S M S^-1 without forming S^-1: solve S^T X^T = (S M)^T for X.
    conjugated = solve_matrix(transform.T, (transform @ m).T).T
    defect = m.conj().T - conjugated
    similarity_error = norm2(defect) / max(norm, 1e-300)
    unitarity_defect = norm2(transform.conj().T @ transform - np.eye(n))

    return SimilarityReport(spectrum_real=True, max_imag=max_imag,
                            spectrum_match=spectrum_match,
                            biorth_error=biorth_error,
                            similarity_error=similarity_error,
                            unitarity_defect=unitarity_defect,
                            transform=transform)

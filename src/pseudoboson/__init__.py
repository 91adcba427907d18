"""Non-self-adjoint two-boson model: construction, pseudo-boson
diagonalization, biorthogonal eigenbases, sector reduction, and the
similarity-to-adjoint machinery, all in truncated Fock spaces."""

from .fock import Operator, TruncationSpec
from .linalg import EigenReport, eig_dense, eig_sym_tridiag, multiset_distance
from .model import (
    BiorthReport,
    ModelParams,
    PseudoBosonSet,
    build_hamiltonian,
    build_pseudoboson_ops,
    build_vacua,
    energy,
)
from .sectors import SectorSpec, pseudo_jacobi, sector_spectrum, su11_generators
from .similarity import SimilarityReport, verify_similarity

__version__ = "0.1.0"

__all__ = [
    "BiorthReport",
    "EigenReport",
    "ModelParams",
    "Operator",
    "PseudoBosonSet",
    "SectorSpec",
    "SimilarityReport",
    "TruncationSpec",
    "build_hamiltonian",
    "build_pseudoboson_ops",
    "build_vacua",
    "eig_dense",
    "eig_sym_tridiag",
    "energy",
    "multiset_distance",
    "pseudo_jacobi",
    "sector_spectrum",
    "su11_generators",
    "verify_similarity",
]

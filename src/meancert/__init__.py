"""Certified scalar, operator and Hilbert-Schmidt mean inequalities."""

__version__ = "0.1.0"

from .linalg import (CERT_PSD_TOL, DomainError, HERMITIAN_TOL, PSD_TOL, Powers, eigh,
                     hermitianize, is_psd, validate_hermitian)
from .scalar import (SCALAR_TOL, ScalarCase, ScalarTrial, alpha_of_nu,
                     evaluate, heinz, heron, weighted_arith, weighted_geom)
from .opmeans import (LinkCheck, OperatorCase, OperatorTrial, PairContext,
                      certify_operator, geom)
from .hsnorm import ORACLE_TOL, HsCase, HsContext, HsTrial, certify_hs
from .randgen import DEFAULT_LAW, derive_seed, parse_law
from .runner import case_by_id

__all__ = [
    "__version__",
    "CERT_PSD_TOL", "DomainError", "HERMITIAN_TOL", "PSD_TOL", "Powers",
    "eigh", "hermitianize", "is_psd", "validate_hermitian",
    "SCALAR_TOL", "ScalarCase", "ScalarTrial", "alpha_of_nu", "evaluate",
    "heinz", "heron", "weighted_arith", "weighted_geom",
    "LinkCheck", "OperatorCase", "OperatorTrial", "PairContext",
    "certify_operator", "geom",
    "ORACLE_TOL", "HsCase", "HsContext", "HsTrial", "certify_hs",
    "DEFAULT_LAW", "derive_seed", "parse_law",
    "case_by_id",
]

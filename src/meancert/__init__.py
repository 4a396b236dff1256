"""Certified scalar, operator and Hilbert-Schmidt mean inequalities."""

__version__ = "0.1.0"

from .linalg import (CERT_PSD_TOL, DomainError, HERMITIAN_TOL, PSD_TOL, Powers,
                     PsdCheck, eigh, hermitianize, hs_norm, is_psd, mat_pow,
                     spectral_norm, validate_hermitian)
from .scalar import (SCALAR_TOL, ScalarCase, ScalarTrial, alpha_of_nu,
                     evaluate, heinz, heron, weighted_arith, weighted_geom)
from .scalar import case_by_id as scalar_case_by_id
from .scalar import registry as scalar_registry
from .opmeans import (LinkCheck, OperatorCase, OperatorTrial, PairContext,
                      certify_operator, geom, nabla)
from .opmeans import case_by_id as operator_case_by_id
from .opmeans import registry as operator_registry
from .hsnorm import (ORACLE_TOL, HsCase, HsContext, HsTrial, certify_hs,
                     heinz_block)
from .hsnorm import case_by_id as hs_case_by_id
from .hsnorm import registry as hs_registry
from .randgen import (DEFAULT_LAW, derive_seed, parse_law, sample_spectrum,
                      trial_rng)

__all__ = [
    "__version__",
    "CERT_PSD_TOL", "DomainError", "HERMITIAN_TOL", "PSD_TOL", "Powers",
    "PsdCheck", "eigh", "hermitianize", "hs_norm", "is_psd", "mat_pow",
    "spectral_norm", "validate_hermitian",
    "SCALAR_TOL", "ScalarCase", "ScalarTrial", "alpha_of_nu", "evaluate",
    "heinz", "heron", "weighted_arith", "weighted_geom", "scalar_case_by_id",
    "scalar_registry",
    "LinkCheck", "OperatorCase", "OperatorTrial", "PairContext",
    "certify_operator", "geom", "nabla", "operator_case_by_id",
    "operator_registry",
    "ORACLE_TOL", "HsCase", "HsContext", "HsTrial",
    "certify_hs", "heinz_block", "hs_case_by_id", "hs_registry",
    "DEFAULT_LAW", "derive_seed", "parse_law", "sample_spectrum", "trial_rng",
]

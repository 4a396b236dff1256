"""Certified scalar, operator and Hilbert-Schmidt mean inequalities."""

__version__ = "0.1.0"

from .linalg import (DomainError, HERMITIAN_TOL, PSD_TOL, Powers, PsdCheck,
                     eigh, hermitianize, hs_norm, is_psd, mat_pow,
                     spectral_norm, validate_hermitian)
from .scalar import (SCALAR_TOL, ScalarCase, ScalarTrial, alpha_of_nu,
                     evaluate, find_non_dominance, heinz, heron,
                     upper_slack, weighted_arith, weighted_geom)
from .scalar import case_by_id as scalar_case_by_id
from .scalar import registry as scalar_registry
from .opmeans import (CERT_PSD_TOL, LinkCheck, OperatorCase, OperatorTrial,
                      PairContext, certify_operator, geom, harmonic, nabla)
from .opmeans import heinz as operator_heinz
from .opmeans import heron as operator_heron
from .opmeans import case_by_id as operator_case_by_id
from .opmeans import registry as operator_registry
from .hsnorm import (CERT_HS_TOL, ORACLE_TOL, HsCase, HsContext, HsTrial,
                     certify_hs, heinz_block)
from .hsnorm import case_by_id as hs_case_by_id
from .hsnorm import registry as hs_registry
from .randgen import (DEFAULT_LAW, GenSpec, derive_seed, gen_general,
                      gen_ordered_pair, gen_pd, parse_law, sample_basis,
                      sample_spectrum, trial_rng)

__all__ = [
    "__version__",
    "DomainError", "HERMITIAN_TOL", "PSD_TOL", "Powers", "PsdCheck", "eigh",
    "hermitianize", "hs_norm", "is_psd", "mat_pow", "spectral_norm",
    "validate_hermitian",
    "SCALAR_TOL", "ScalarCase", "ScalarTrial", "alpha_of_nu", "evaluate",
    "find_non_dominance", "heinz", "heron", "upper_slack", "weighted_arith",
    "weighted_geom", "scalar_case_by_id", "scalar_registry",
    "CERT_PSD_TOL", "LinkCheck", "OperatorCase", "OperatorTrial",
    "PairContext", "certify_operator", "geom", "harmonic", "nabla",
    "operator_heinz", "operator_heron", "operator_case_by_id",
    "operator_registry",
    "CERT_HS_TOL", "ORACLE_TOL", "HsCase", "HsContext", "HsTrial",
    "certify_hs", "heinz_block", "hs_case_by_id", "hs_registry",
    "DEFAULT_LAW", "GenSpec", "derive_seed", "gen_general",
    "gen_ordered_pair", "gen_pd", "parse_law", "sample_basis",
    "sample_spectrum", "trial_rng",
]

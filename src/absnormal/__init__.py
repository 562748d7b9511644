"""Exact verification of kink and complementarity constraint qualifications.

Builds the four formulations of a nonsmooth program in abs-normal form (the
inequality- and slack-based forms and their complementarity counterparts),
computes their tangent/linearized/dual cones as exact polyhedral objects, and
decides Abadie/Guignard-type qualifications and M-/B-stationarity of candidate
points, emitting machine-checkable certificates.
"""

__version__ = "0.1.0"

from .anf import AbsNormalProgram, EvalResult, QuadraticFunc, evaluate, validate
from .cones import PolyCone, dual_cone, dual_union, linearize_anf, linearize_mpcc
from .cq import analyze_point, check_branch_cq, decide_kink_cq, verify_relations
from .problemfile import ProblemFile, load_corpus, load_corpus_problem, parse_problem
from .stationarity import check_b_stationary, check_m_stationary_anf, check_m_stationary_mpcc
from .transforms import phi, phi_inv, to_mpcc, to_slack

__all__ = [
    "AbsNormalProgram",
    "EvalResult",
    "PolyCone",
    "ProblemFile",
    "QuadraticFunc",
    "__version__",
    "analyze_point",
    "check_b_stationary",
    "check_branch_cq",
    "check_m_stationary_anf",
    "check_m_stationary_mpcc",
    "decide_kink_cq",
    "dual_cone",
    "dual_union",
    "evaluate",
    "linearize_anf",
    "linearize_mpcc",
    "load_corpus",
    "load_corpus_problem",
    "parse_problem",
    "phi",
    "phi_inv",
    "to_mpcc",
    "to_slack",
    "validate",
    "verify_relations",
]

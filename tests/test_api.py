"""The decided public API: the names the package and ``ratmath`` export."""

import absnormal
import absnormal.ratmath

PACKAGE_API = [
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

RATMATH_API = [
    "FEASIBLE",
    "INFEASIBLE",
    "KIND_FARKAS",
    "KIND_POINT",
    "ONE",
    "LpCertificate",
    "LpError",
    "LpProblem",
    "LpResult",
    "RatMatrix",
    "Vec",
    "ZERO",
    "cone_generators",
    "dot",
    "generators_to_hrep",
    "integer_dot",
    "is_zero_vec",
    "lp_solve",
    "primitive",
    "primitive_integer",
    "rat",
    "unit_vec",
    "vec",
    "vec_add",
    "vec_neg",
    "verify_certificate",
    "zero_vec",
]


def test_package_exports_the_decided_names():
    assert absnormal.__all__ == PACKAGE_API
    for name in PACKAGE_API:
        assert getattr(absnormal, name) is not None


def test_ratmath_exports_the_decided_names():
    assert absnormal.ratmath.__all__ == RATMATH_API
    for name in RATMATH_API:
        assert getattr(absnormal.ratmath, name) is not None

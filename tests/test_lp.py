import dataclasses
import random
from fractions import Fraction

from absnormal.ratmath import (
    FEASIBLE,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LpProblem,
    lp_solve,
    vec,
    verify_certificate,
)


def feasibility(n, eq=(), eq_rhs=(), ineq=(), ineq_rhs=()):
    return LpProblem(
        n_vars=n,
        eq_rows=tuple(vec(r) for r in eq),
        eq_rhs=vec(eq_rhs),
        ineq_rows=tuple(vec(r) for r in ineq),
        ineq_rhs=vec(ineq_rhs),
    )


def test_trivial_feasibility():
    # x >= 0 and -x >= 0 pin x = 0
    p = feasibility(1, ineq=[[1], [-1]], ineq_rhs=[0, 0])
    res = lp_solve(p)
    assert res.status == FEASIBLE
    assert res.certificate.point == vec([0])
    assert verify_certificate(p, res) == []


def test_infeasible_with_farkas_ray():
    # x >= 1 and -x >= 0: hand Farkas ray (1, 1) proves infeasibility
    p = feasibility(1, ineq=[[1], [-1]], ineq_rhs=[1, 0])
    res = lp_solve(p)
    assert res.status == INFEASIBLE
    assert res.certificate.kind == "farkas-infeasibility-ray"
    assert verify_certificate(p, res) == []
    y = res.certificate.dual_ineq
    assert y[0] * 1 + y[1] * (-1) == 0 and y[0] * 1 + y[1] * 0 > 0


def test_infeasible_verdict_rests_on_a_farkas_ray_alone():
    # an optimal primal-dual pair proves no infeasibility, whatever it holds
    p = feasibility(1, ineq=[[1], [-1]], ineq_rhs=[1, 0])
    res = lp_solve(p)
    pair = dataclasses.replace(res.certificate, kind="optimal-primal-dual-pair", point=vec([0]))
    assert verify_certificate(p, dataclasses.replace(res, certificate=pair)) == [
        "unexpected certificate kind 'optimal-primal-dual-pair' for infeasible"
    ]


def test_bounded_maximization():
    # max x s.t. x <= 3 (written -x >= -3), x >= 0
    p = LpProblem(
        n_vars=1,
        objective=vec([1]),
        sense="max",
        ineq_rows=(vec([-1]), vec([1])),
        ineq_rhs=vec([-3, 0]),
    )
    res = lp_solve(p)
    assert res.status == OPTIMAL
    assert res.value == 3
    assert verify_certificate(p, res) == []


def test_minimization_with_equalities():
    # min x1 + x2 s.t. x1 + x2 = 2, x1 >= 0, x2 >= 0
    p = LpProblem(
        n_vars=2,
        objective=vec([1, 1]),
        eq_rows=(vec([1, 1]),),
        eq_rhs=vec([2]),
        ineq_rows=(vec([1, 0]), vec([0, 1])),
        ineq_rhs=vec([0, 0]),
    )
    res = lp_solve(p)
    assert res.status == OPTIMAL and res.value == 2
    assert verify_certificate(p, res) == []


def test_unbounded_with_ray():
    # min -x s.t. x >= 0
    p = LpProblem(n_vars=1, objective=vec([-1]), ineq_rows=(vec([1]),), ineq_rhs=vec([0]))
    res = lp_solve(p)
    assert res.status == UNBOUNDED
    assert verify_certificate(p, res) == []
    assert res.certificate.ray[0] > 0


def test_certificate_vectors_of_the_wrong_length_are_named():
    # each vector is checked against the problem before any product
    problems = [
        feasibility(1, ineq=[[1], [-1]], ineq_rhs=[0, 0]),
        feasibility(1, ineq=[[1], [-1]], ineq_rhs=[1, 0]),
        LpProblem(n_vars=2, objective=vec([1, 1]), eq_rows=(vec([1, 1]),), eq_rhs=vec([2]),
                  ineq_rows=(vec([1, 0]), vec([0, 1])), ineq_rhs=vec([0, 0])),
        LpProblem(n_vars=1, objective=vec([-1]), ineq_rows=(vec([1]),), ineq_rhs=vec([0])),
    ]
    checked = set()
    for p in problems:
        res = lp_solve(p)
        cert = res.certificate
        for name in ("point", "ray", "dual_eq", "dual_ineq"):
            good = getattr(cert, name)
            if good is None:
                continue
            for bad in (good + (Fraction(1),), good[1:])[: 1 + bool(good)]:
                tampered = dataclasses.replace(res, certificate=dataclasses.replace(cert, **{name: bad}))
                assert verify_certificate(p, tampered) == [
                    f"{name} has {len(bad)} entries, expected {len(good)}"
                ]
            checked.add((res.status, name))
    assert {name for _, name in checked} == {"point", "ray", "dual_eq", "dual_ineq"}


def test_degenerate_redundant_equalities():
    # Duplicated equality rows must not confuse the dual extraction.
    p = LpProblem(
        n_vars=2,
        objective=vec([1, 0]),
        eq_rows=(vec([1, 1]), vec([1, 1]), vec([2, 2])),
        eq_rhs=vec([1, 1, 2]),
        ineq_rows=(vec([1, 0]), vec([0, 1])),
        ineq_rhs=vec([0, 0]),
    )
    res = lp_solve(p)
    assert res.status == OPTIMAL and res.value == 0
    assert verify_certificate(p, res) == []


def test_farkas_never_coexists_with_feasible_point():
    # Farkas exclusivity on random systems: whichever verdict comes back, its
    # certificate re-validates, and a valid Farkas ray contradicts any feasible
    # point by substitution, so the two can never both verify.
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-3, 3) for _ in range(m)]
        p = feasibility(n, ineq=rows, ineq_rhs=rhs)
        res = lp_solve(p)
        assert res.status in (FEASIBLE, INFEASIBLE)
        assert verify_certificate(p, res) == []
        if res.status == INFEASIBLE:
            y = res.certificate.dual_ineq
            # y certifies emptiness: y >= 0, y^T A = 0, y^T b > 0
            assert all(a >= 0 for a in y)
            combo = [sum(y[i] * Fraction(rows[i][j]) for i in range(m)) for j in range(n)]
            assert all(c == 0 for c in combo)
            assert sum(y[i] * rhs[i] for i in range(m)) > 0


def test_zero_variable_problem():
    p = feasibility(0, eq=[[]], eq_rhs=[0])
    assert lp_solve(p).status == FEASIBLE
    p_bad = feasibility(0, eq=[[]], eq_rhs=[1])
    res = lp_solve(p_bad)
    assert res.status == INFEASIBLE
    assert verify_certificate(p_bad, res) == []

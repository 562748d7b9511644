import dataclasses
import random
from fractions import Fraction
from operator import mul

from absnormal.ratmath import (
    FEASIBLE,
    INFEASIBLE,
    KIND_FARKAS,
    LpCertificate,
    LpProblem,
    LpResult,
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
    # a point proves no infeasibility, whatever it holds
    p = feasibility(1, ineq=[[1], [-1]], ineq_rhs=[1, 0])
    res = lp_solve(p)
    point = dataclasses.replace(res.certificate, kind="feasible-point", point=vec([0]))
    assert verify_certificate(p, dataclasses.replace(res, certificate=point)) == [
        "unexpected certificate kind 'feasible-point' for infeasible"
    ]


def test_certificate_vectors_of_the_wrong_length_are_named():
    # each vector is checked against the problem before any product
    problems = [
        feasibility(1, ineq=[[1], [-1]], ineq_rhs=[0, 0]),
        feasibility(1, ineq=[[1], [-1]], ineq_rhs=[1, 0]),
        feasibility(2, eq=[[1, 1]], eq_rhs=[2], ineq=[[1, 0], [0, 1]], ineq_rhs=[0, 0]),
        feasibility(2, eq=[[1, 1]], eq_rhs=[2], ineq=[[-1, 0], [0, -1]], ineq_rhs=[0, 0]),
    ]
    checked = set()
    for p in problems:
        res = lp_solve(p)
        cert = res.certificate
        for name in ("point", "dual_eq", "dual_ineq"):
            good = getattr(cert, name)
            if good is None:
                continue
            for bad in (good + (Fraction(1),), good[1:])[: 1 + bool(good)]:
                tampered = dataclasses.replace(res, certificate=dataclasses.replace(cert, **{name: bad}))
                assert verify_certificate(p, tampered) == [
                    f"{name} has {len(bad)} entries, expected {len(good)}"
                ]
            checked.add((res.status, name, bool(good)))
    assert {(status, name) for status, name, nonempty in checked if nonempty} == {
        (FEASIBLE, "point"),
        (INFEASIBLE, "dual_eq"),
        (INFEASIBLE, "dual_ineq"),
    }


def test_degenerate_redundant_equalities():
    # Duplicated equality rows must not confuse the eviction of artificials
    # (consistent copies) or the Farkas ray (an inconsistent copy).
    eq = [[1, 1], [1, 1], [2, 2]]
    for eq_rhs, status in (([1, 1, 2], FEASIBLE), ([1, 1, 3], INFEASIBLE)):
        p = feasibility(2, eq=eq, eq_rhs=eq_rhs, ineq=[[1, 0], [0, 1]], ineq_rhs=[0, 0])
        res = lp_solve(p)
        assert res.status == status
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


# -- the per-term certificate checks, kept as references ---------------------


def term_dot(a, b):
    return sum(map(mul, a, b), Fraction(0))


def reference_check_farkas(p, cert):
    """Farkas check with one Fraction per matrix entry, column by column."""
    errors = []
    y_eq, y_in = cert.dual_eq, cert.dual_ineq
    if y_eq is None or y_in is None:
        return ["farkas certificate incomplete"]
    if any(lam < 0 for lam in y_in):
        errors.append("negative inequality weight in Farkas ray")
    for j in range(p.n_vars):
        combo = sum((y_eq[k] * p.eq_rows[k][j] for k in range(len(p.eq_rows))), Fraction(0))
        combo += sum((y_in[i] * p.ineq_rows[i][j] for i in range(len(p.ineq_rows))), Fraction(0))
        if combo != 0:
            errors.append(f"Farkas combination is nonzero at column {j}")
            break
    if term_dot(y_eq, p.eq_rhs) + term_dot(y_in, p.ineq_rhs) <= 0:
        errors.append("Farkas ray does not witness a positive right-hand side")
    return errors


def reference_check_point(p, cert):
    """Feasible point check with one Fraction per matrix entry."""
    feasible = all(term_dot(row, cert.point) == b for row, b in zip(p.eq_rows, p.eq_rhs)) and all(
        term_dot(row, cert.point) >= b for row, b in zip(p.ineq_rows, p.ineq_rhs)
    )
    return [] if feasible else ["claimed feasible point violates a constraint"]


def random_fraction(rng):
    """Zero about a third of the time, so rows are sparse and a combination
    can first fail at a later column."""
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.7 else Fraction(0)


def random_fractional_lp(rng):
    """A small LP with fractional rows; some have no equality rows, some no
    rows at all."""
    n = rng.randint(1, 3)
    n_eq = rng.choice((0, 0, 1, 2))
    n_in = rng.choice((0, 1, 2, 3, 4)) if n_eq else rng.choice((0, 0, 1, 2, 3, 4))

    def rows(m):
        return tuple(tuple(random_fraction(rng) for _ in range(n)) for _ in range(m))

    return LpProblem(
        n_vars=n,
        eq_rows=rows(n_eq),
        eq_rhs=tuple(random_fraction(rng) for _ in range(n_eq)),
        ineq_rows=rows(n_in),
        ineq_rhs=tuple(random_fraction(rng) for _ in range(n_in)),
    )


def corrupted(rng, cert, name):
    """``cert`` with one entry of its vector ``name`` changed."""
    vector = getattr(cert, name)
    i = rng.randrange(len(vector))
    changed = vector[i] + rng.choice((1, -1)) * Fraction(1, rng.randint(1, 4))
    return dataclasses.replace(cert, **{name: vector[:i] + (changed,) + vector[i + 1 :]})


def test_certificate_checks_by_columns_equal_the_per_term_checks():
    rng = random.Random(2718)
    seen = set()
    failing_columns = set()
    for _ in range(1500):
        p = random_fractional_lp(rng)
        res = lp_solve(p)
        cert = res.certificate
        if res.status == INFEASIBLE:
            candidates = [cert]
        else:
            # weights that need not be a ray, as a recheck may be handed
            m_eq, m_in = len(p.eq_rows), len(p.ineq_rows)
            candidates = [
                LpCertificate(
                    KIND_FARKAS,
                    dual_eq=tuple(random_fraction(rng) for _ in range(m_eq)),
                    dual_ineq=tuple(abs(random_fraction(rng)) for _ in range(m_in)),
                )
            ]
        candidates += [
            corrupted(rng, candidates[0], name) for name in ("dual_eq", "dual_ineq") if getattr(candidates[0], name)
        ]
        for farkas in candidates:
            want = reference_check_farkas(p, farkas)
            assert verify_certificate(p, LpResult(INFEASIBLE, farkas)) == want
            seen.add(("farkas", bool(p.eq_rows), bool(p.ineq_rows), bool(want)))
            failing_columns.update(msg for msg in want if "at column" in msg)
        if res.status == FEASIBLE:
            for point in (cert, corrupted(rng, cert, "point")):
                want = reference_check_point(p, point)
                assert verify_certificate(p, LpResult(FEASIBLE, point)) == want
                seen.add(("point", bool(p.eq_rows), bool(p.ineq_rows), bool(want)))
    # each kind with and without equality rows and with no rows at all, valid
    # and not, except a valid Farkas ray of no rows, which witnesses nothing,
    # and a point that violates no rows
    kinds = {
        (kind, has_eq, has_in, bad)
        for kind in ("farkas", "point")
        for has_eq, has_in in ((True, True), (False, True), (False, False))
        for bad in (False, True)
    }
    assert kinds - seen == {("farkas", False, False, False), ("point", False, False, True)}
    assert failing_columns == {f"Farkas combination is nonzero at column {j}" for j in range(3)}

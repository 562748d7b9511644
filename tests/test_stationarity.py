import itertools
import random
from dataclasses import fields, replace
from fractions import Fraction
from operator import mul

import pytest

from absnormal import stationarity
from absnormal.anf import AbsNormalProgram, QuadraticFunc, evaluate
from absnormal.cq import FAILS, HOLDS
from absnormal.ratmath import ZERO, KIND_POINT, LpCertificate, LpResult, dot, lp_solve, vec, verify_certificate, zero_vec
from absnormal.stationarity import (
    CASE_BOTH_POSITIVE,
    CASES,
    SIDES,
    CaseOutcome,
    MultiplierSet,
    build_case_problem,
    check_b_stationary,
    check_m_stationary_anf,
    check_m_stationary_mpcc,
    multiplier_system,
    translate_m_verdict,
    uncovered_case,
    verify_stationarity_verdict,
    verify_multipliers,
)
from absnormal.problemfile import load_corpus, load_corpus_problem, parse_problem_data
from absnormal.transforms import (
    MpccProgram,
    mpcc_point_from_eval,
    parse_branch_label,
    slack_point,
    to_mpcc,
    to_slack,
)

from branch_oracles import (
    anf_branches,
    lin_cone_branch,
    mpcc_branches,
    multiplier_system_oracle,
)
from conftest import (
    affine,
    bench_kinks,
    fallback_kinks_problem,
    kinks_like_program,
    make_e1,
    qkinks_problem,
    random_affine_program,
)


def with_objective(p: AbsNormalProgram, linear) -> AbsNormalProgram:
    return AbsNormalProgram(
        n_t=p.n_t,
        s=p.s,
        m1=p.m1,
        m2=p.m2,
        f=affine(p.n_t, 0, linear),
        c_e=p.c_e,
        c_i=p.c_i,
        c_z=p.c_z,
    )


def test_m_stationary_mpcc_e1_holds(e1):
    # hand multipliers: lam_e = -1, lam_z = 0, pair multipliers (1, 1)
    e = evaluate(e1, [0, 0])
    mp = to_mpcc(e1)
    verdict = check_m_stationary_mpcc(mp, mpcc_point_from_eval(e))
    assert verdict.status == HOLDS
    ms = verdict.multipliers
    assert ms.lam_e == vec([-1])
    assert ms.mu_u[0] > 0 and ms.mu_v[0] > 0


def test_m_stationary_zero_gradient_all_zero_multipliers(e1):
    p = with_objective(e1, [0, 0])
    e = evaluate(p, [0, 0])
    verdict = check_m_stationary_anf(p, e)
    assert verdict.status == HOLDS
    ms = verdict.multipliers
    assert ms.lam_e == vec([0]) and ms.lam_z == vec([0])


def test_m_stationary_fails_for_reversed_objective(e1):
    p = with_objective(e1, [0, -1])  # minimize -t2: descent along the kink
    e = evaluate(p, [0, 0])
    mp = to_mpcc(p)
    v_mpcc = check_m_stationary_mpcc(mp, mpcc_point_from_eval(e))
    v_anf = check_m_stationary_anf(p, e)
    assert v_mpcc.status == FAILS
    assert v_anf.status == FAILS
    # every multiplier case carries its own refutation certificate
    assert len(v_mpcc.closed_cases) == 3
    for outcome in v_mpcc.closed_cases:
        assert outcome.certificate is not None


def test_m_stationary_anf_e1_holds_and_translates(e1):
    e = evaluate(e1, [0, 0])
    mp = to_mpcc(e1)
    point = mpcc_point_from_eval(e)
    v = check_m_stationary_anf(e1, e)
    assert v.status == HOLDS
    sys_anf, sys_mpcc = multiplier_system(e1, e), multiplier_system(mp, point)
    translated = translate_m_verdict(v, sys_mpcc, "m-mpcc")
    assert verify_multipliers(sys_mpcc, translated.multipliers) == []
    back = translate_m_verdict(translated, sys_anf, "m-anf")
    assert back.multipliers == v.multipliers  # round trip is the identity


def test_m_stationarity_agrees_across_forms_on_corpus(e1, e2, e3, e4):
    cases = [(e1, [0, 0]), (e1, [2, 2]), (e2, [0, 0]), (e2, [1, 0]), (e3, [0, 0]), (e4, [0, 0])]
    for p, t in cases:
        e = evaluate(p, t)
        mp = to_mpcc(p)
        v_anf = check_m_stationary_anf(p, e)
        v_mpcc = check_m_stationary_mpcc(mp, mpcc_point_from_eval(e))
        assert v_anf.status == v_mpcc.status


def test_m_stationary_smooth_point_reduces_to_kkt(e1):
    # definite signature, no disjunctions: plain KKT of the smooth branch;
    # minimizing t2 on t2 = |t1| away from the kink is not stationary
    e = evaluate(e1, [2, 2])
    assert check_m_stationary_anf(e1, e).status == FAILS
    p = with_objective(e1, [1, 1])  # gradient (1,1): stationary at (.,.)? t1-descent exists
    assert check_m_stationary_anf(p, evaluate(p, [2, 2])).status == FAILS
    # objective t2 - t1 has a one-sided minimum along the positive branch
    p2 = with_objective(e1, [-1, 1])
    assert check_m_stationary_anf(p2, evaluate(p2, [2, 2])).status == HOLDS


def test_b_stationary_e1_holds(e1):
    e = evaluate(e1, [0, 0])
    v = check_b_stationary(e1, e)
    assert v.status == HOLDS
    # strong stationarity decides it: the root prefix closes both branches,
    # with no multipliers listed and no branch built
    assert v.multipliers is None and [outcome.assignment for outcome in v.closed_cases] == [()]
    assert verify_stationarity_verdict(multiplier_system(e1, e), v) == []
    assert b_by_generators(anf_branches(e1, e)) == (HOLDS, None)


def test_b_stationary_zero_gradient_trivial(e1):
    p = with_objective(e1, [0, 0])
    e = evaluate(p, [0, 0])
    assert check_b_stationary(p, e).status == HOLDS


def test_b_stationary_fails_with_descent(e1):
    # minimizing t1 at the kink: the negative branch admits d = (-1, 1, -1),
    # and its case LP's Farkas ray reads as a descent there
    p = with_objective(e1, [1, 0])
    e = evaluate(p, [0, 0])
    v = check_b_stationary(p, e)
    assert v.status == FAILS
    assert v.failing_branch == "σ=-"
    gradient = vec([1, 0, 0])
    assert dot(gradient, descent_of(v, multiplier_system(p, e), p)) < 0


def test_b_stationarity_agrees_across_forms(e1, e2, e3, e4):
    cases = [(e1, [0, 0]), (e1, [2, 2]), (e2, [0, 0]), (e2, [1, 0]), (e3, [0, 0]), (e4, [0, 0])]
    for p, t in cases:
        e = evaluate(p, t)
        mp = to_mpcc(p)
        v_anf = check_b_stationary(p, e)
        v_mpcc = check_b_stationary(mp, mpcc_point_from_eval(e))
        assert v_anf.status == v_mpcc.status
        if v_anf.status == FAILS:
            assert v_anf.failing_branch.startswith("σ")
            assert v_mpcc.failing_branch.startswith("P")


def test_checks_at_an_infeasible_point_raise_in_both_forms(e1):
    # E1 at t = (1, 5) misses its equality; a negative c_i misses an
    # inequality.  No check returns a verdict there, in either form.
    below = AbsNormalProgram(
        n_t=1,
        s=1,
        m1=0,
        m2=1,
        f=affine(1, 0, [1]),
        c_e=(),
        c_i=(affine(2, 0, [1, 0]),),
        c_z=(affine(2, 0, [1, 0]),),
    )
    # Each form's multiplier system is its linearization's transpose, so the
    # linearization's guard names the anchor's first branch in that form.
    for p, t, signature in ((e1, [1, 5], "σ=+"), (below, [-1], "σ=-")):
        e = evaluate(p, t)
        assert not e.is_feasible()
        mp, point = to_mpcc(p), mpcc_point_from_eval(e)
        checks = [
            (signature, lambda: check_m_stationary_anf(p, e)),
            ("P={}", lambda: check_m_stationary_mpcc(mp, point)),
            (signature, lambda: check_b_stationary(p, e)),
            ("P={}", lambda: check_b_stationary(mp, point)),
            (signature, lambda: multiplier_system(p, e)),
            ("P={}", lambda: multiplier_system(mp, point)),
        ]
        for label, check in checks:
            with pytest.raises(ValueError) as raised:
                check()
            assert str(raised.value) == f"anchor is infeasible for branch {label}"


def test_b_stationary_unconstrained_kink_needs_no_qualification():
    # pure unconstrained kink minimization: branches are affine, so the check
    # is always decisive
    p = AbsNormalProgram(
        n_t=1,
        s=1,
        m1=0,
        m2=0,
        f=affine(1, 0, [0]),
        c_e=(),
        c_i=(),
        c_z=(affine(2, 0, [1, 0]),),
    )
    e = evaluate(p, [0])
    assert check_b_stationary(p, e).status == HOLDS
    mp = to_mpcc(p)
    assert check_b_stationary(mp, mpcc_point_from_eval(e)).status == HOLDS


def test_minimizers_with_akq_are_m_stationary(e1, e2):
    # necessity at the annotated minimizers (origins) where AKQ holds
    for p in (e1, e2):
        e = evaluate(p, [0, 0])
        assert check_m_stationary_anf(p, e).status == HOLDS
        assert check_b_stationary(p, e).status == HOLDS


def test_translate_rejects_invalid_multipliers(e1):
    from absnormal.stationarity import MultiplierSet, StationarityVerdict

    e = evaluate(e1, [0, 0])
    mp = to_mpcc(e1)
    point = mpcc_point_from_eval(e)
    bogus = MultiplierSet(vec([5]), vec([]), vec([0]), vec([0]), vec([0]))
    verdict = StationarityVerdict("m-anf", HOLDS, multipliers=bogus)
    with pytest.raises(RuntimeError, match="target system"):
        translate_m_verdict(verdict, multiplier_system(mp, point), "m-mpcc")


def flat_case_enumeration(system):
    """Reference: every full case assignment in itertools.product order, each
    solved from scratch; returns (status, first feasible case, its LP point)."""
    for assignment in itertools.product(CASES, repeat=len(system.degenerate)):
        res = lp_solve(build_case_problem(system, assignment))
        if res.status == "feasible":
            return HOLDS, assignment, res.certificate.point
    return FAILS, None, None


def test_case_tree_agrees_with_flat_enumeration_on_random_programs():
    rng = random.Random(424242)
    seen = set()
    deepest_failed_prefix = 0
    checked = 0
    while checked < 60:
        p = random_affine_program(rng, max_s=3)
        e = evaluate(p, zero_vec(p.n_t))
        if not e.is_feasible():
            continue
        mp, point = to_mpcc(p), mpcc_point_from_eval(e)
        for verdict, system in (
            (check_m_stationary_anf(p, e), multiplier_system(p, e)),
            (check_m_stationary_mpcc(mp, point), multiplier_system(mp, point)),
        ):
            k = len(system.degenerate)
            status, case, lam = flat_case_enumeration(system)
            assert verdict.status == status
            seen.add((k, status))
            if status == HOLDS:
                ms = verdict.multipliers
                assert verdict.case == case
                assert ms.lam_e + ms.lam_i + ms.lam_z == lam
                assert verify_multipliers(system, ms) == []
            else:
                prefixes = [outcome.assignment for outcome in verdict.closed_cases]
                assert uncovered_case(prefixes, k, CASES) is None
                for outcome in verdict.closed_cases:
                    problem = build_case_problem(system, outcome.assignment)
                    result = LpResult("infeasible", outcome.certificate)
                    assert verify_certificate(problem, result) == []
                deepest_failed_prefix = max(deepest_failed_prefix, *map(len, prefixes))
        checked += 1
    assert {(3, HOLDS), (3, FAILS)} <= seen
    assert deepest_failed_prefix >= 2  # some subtree is closed below the top level


def test_uncovered_case_names_the_first_hole():
    u, v, both = CASES
    assert uncovered_case([(u,), (v,), (both,)], 2, CASES) is None
    assert uncovered_case([(u,), (v,), (both, u), (both, both)], 2, CASES) == (both, v)
    assert uncovered_case([(u,), (v,), (both, u), (both, v), (both, both)], 2, CASES) is None
    assert uncovered_case([()], 3, CASES) is None
    assert uncovered_case([], 0, CASES) == ()
    # the two sides of a B branch
    plus, minus = SIDES
    assert uncovered_case([(plus,), (minus, plus)], 2, SIDES) == (minus, minus)
    assert uncovered_case([(plus,), (minus, plus), (minus, minus)], 2, SIDES) is None
    assert uncovered_case([(u,), (v,)], 1, SIDES) == (plus,)


def test_case_cap_counts_solved_case_lps(e2, monkeypatch):
    # E2 at the origin, minimizing -t1 - t2: four unknowns (lam_e, both
    # lam_i, lam_z) against two stationary rows, so the multipliers are not
    # unique and the case search decides.  k = 1 and M fails, so it solves
    # and closes u=0, v=0 and both>0: three case LPs.
    p = with_objective(e2, [-1, -1])
    e = evaluate(p, [0, 0])
    monkeypatch.setattr(stationarity, "DEFAULT_CASE_CAP", 3)
    assert len(check_m_stationary_anf(p, e).closed_cases) == 3
    monkeypatch.setattr(stationarity, "DEFAULT_CASE_CAP", 2)
    with pytest.raises(stationarity.CaseLimitError, match="cap of 2 case LPs"):
        check_m_stationary_anf(p, e)


def test_unique_route_lp_counts_against_the_case_cap(e1, monkeypatch):
    # E1 fixes its two multipliers by its two stationary rows.  At the origin
    # the root LP alone decides; minimizing -t2, the one lam it finds has
    # mu_u = mu_v = -1, so the search then closes the three cases: 1 + 3 LPs.
    e = evaluate(e1, [0, 0])
    monkeypatch.setattr(stationarity, "DEFAULT_CASE_CAP", 1)
    assert check_m_stationary_anf(e1, e).case == ("pair-both>0",)
    monkeypatch.setattr(stationarity, "DEFAULT_CASE_CAP", 0)
    with pytest.raises(stationarity.CaseLimitError, match="cap of 0 case LPs"):
        check_m_stationary_anf(e1, e)
    p = with_objective(e1, [0, -1])
    e = evaluate(p, [0, 0])
    monkeypatch.setattr(stationarity, "DEFAULT_CASE_CAP", 4)
    assert len(check_m_stationary_anf(p, e).closed_cases) == 3
    monkeypatch.setattr(stationarity, "DEFAULT_CASE_CAP", 3)
    with pytest.raises(stationarity.CaseLimitError, match="cap of 3 case LPs"):
        check_m_stationary_anf(p, e)


@pytest.mark.parametrize("k", range(2, 12))
def test_unique_multipliers_decide_m_with_one_lp_on_kinks(k, monkeypatch):
    # kinks{k} fixes lam_e = sign/c and lam_z = 0 (bench/kinks.py); the
    # minimizer's pairs sign*b_i/c are positive, the maximizer's negative,
    # so the maximizer's search closes the three cases of its first switch
    kinks = bench_kinks()
    calls = []

    def counted(problem):
        calls.append(problem)
        return lp_solve(problem)

    monkeypatch.setattr(stationarity, "lp_solve", counted)
    for sign, lps in ((1, 1), (-1, 1 + 3)):
        inst = kinks.draw(random.Random(k), k, sign)
        p = parse_problem_data(kinks.problem_data(inst)).program
        calls.clear()
        verdict = check_m_stationary_anf(p, evaluate(p, zero_vec(p.n_t)))
        assert len(calls) == lps
        assert verdict.status == kinks.stationarity_status(inst)
        if sign > 0:
            assert verdict.case == (CASE_BOTH_POSITIVE,) * k
            expected = kinks.expected_multipliers(inst)
            assert [str(x) for x in verdict.multipliers.mu_u] == expected["mu_u"]
        else:
            assert [c.assignment for c in verdict.closed_cases] == [(case,) for case in CASES]


def unique_route_equals_case_search(p, e, seen):
    """Compare ``_solve_system`` with ``_case_search`` in both forms: the same
    status and case, and the same closed prefixes unless the unique route's
    root LP is infeasible, when the root prefix alone closes every case and
    rechecks clean.  Record in ``seen`` what the unique route found where it
    applies, and whether its root closed every case."""
    mp, point = to_mpcc(p), mpcc_point_from_eval(e)
    for system, kind in ((multiplier_system(p, e), "m-anf"), (multiplier_system(mp, point), "m-mpcc")):
        verdict = stationarity._solve_system(system, kind)
        searched = stationarity._case_search(system, kind)
        assert (verdict.status, verdict.case) == (searched.status, searched.case)
        unique = bool(system.degenerate) and system.fixes_multipliers
        closed_by_root = unique and lp_solve(system.root).status != "feasible"
        if closed_by_root:
            assert [outcome.assignment for outcome in verdict.closed_cases] == [()]
            assert verify_stationarity_verdict(system, verdict) == []
        else:
            assert verdict == searched
        if unique:
            seen.add((kind, verdict.status, verdict.case, closed_by_root))


def test_unique_route_equals_case_search_on_kinks_like_programs():
    rng = random.Random(2468)
    seen = set()
    for _ in range(120):
        p = kinks_like_program(rng, rng.randint(1, 6))
        unique_route_equals_case_search(p, evaluate(p, zero_vec(p.n_t)), seen)
    for kind in ("m-anf", "m-mpcc"):
        cases = {case for seen_kind, status, case, _ in seen if seen_kind == kind and status == HOLDS}
        assert {c for case in cases for c in case} == set(CASES)
        assert (kind, FAILS, None, False) in seen  # a unique lam broke the disjunction


def test_unique_route_equals_case_search_on_random_programs():
    seen = set()
    for seed in range(300):
        p = random_affine_program(random.Random(seed), max_s=3)
        e = evaluate(p, zero_vec(p.n_t))
        if e.is_feasible():
            unique_route_equals_case_search(p, e, seen)
    statuses = {(kind, status) for kind, status, _, _ in seen}
    assert statuses == {(kind, status) for kind in ("m-anf", "m-mpcc") for status in (HOLDS, FAILS)}
    assert {kind for kind, _, _, closed_by_root in seen if closed_by_root} == {"m-anf", "m-mpcc"}


def test_holds_self_check_raises_instead_of_asserting(e1, monkeypatch):
    monkeypatch.setattr(stationarity, "verify_multipliers", lambda system, ms: ["tampered"])
    with pytest.raises(RuntimeError, match="self-check"):
        check_m_stationary_anf(e1, evaluate(e1, [0, 0]))


def base_and_slack_forms(p, e):
    """The program at a feasible point, then its slack form at the lifted point."""
    slack = to_slack(p)
    return [(p, e), (slack, evaluate(slack, slack_point(e)))]


def translated_equals_direct_search(p, e):
    """Translate the abs-normal verdict to the counterpart, compare it with the
    counterpart's own case search as a whole verdict, and return it."""
    mp, point = to_mpcc(p), mpcc_point_from_eval(e)
    translated = translate_m_verdict(check_m_stationary_anf(p, e), multiplier_system(mp, point), "m-mpcc")
    assert translated == check_m_stationary_mpcc(mp, point)
    return translated


def test_translated_m_verdict_equals_direct_search_on_corpus():
    statuses = set()
    for pf in load_corpus():
        for pt in pf.points:
            for p, e in base_and_slack_forms(pf.program, evaluate(pf.program, pt.t)):
                statuses.add(translated_equals_direct_search(p, e).status)
    assert statuses == {HOLDS, FAILS}


def test_translated_m_verdict_equals_direct_search_on_random_programs():
    rng = random.Random(90210)
    seen = set()
    checked = 0
    while checked < 60:
        p = random_affine_program(rng, max_s=3)
        e = evaluate(p, zero_vec(p.n_t))
        if not e.is_feasible():
            continue
        for q, qe in base_and_slack_forms(p, e):
            verdict = translated_equals_direct_search(q, qe)
            seen.add((verdict.status, len(qe.alpha) > 0))
        checked += 1
    assert seen == {(HOLDS, True), (HOLDS, False), (FAILS, True), (FAILS, False)}


def b_by_generators(branches):
    """Reference without an LP: the gradient admits no descent on a branch
    exactly when it is nonnegative on every ray and zero on every lineality
    vector of the branch's linearized cone, whose generators come by double
    description from the built branch's rows.  Gives the status and the first
    branch, in order, where it fails."""
    for b in branches:
        gradient = b.objective.gradient(b.anchor)
        rays, lineality = lin_cone_branch(b).generators()
        if any(sum(map(mul, gradient, r)) < 0 for r in rays) or any(sum(map(mul, gradient, v)) for v in lineality):
            return FAILS, b.label
    return HOLDS, None


def descent_of(verdict, system, program) -> tuple:
    """The descent direction read off a B Fails ray, the primal side of its
    Farkas certificate: the weights on the stationary rows, then for each
    pair ``du_i`` and ``dv_i``, the weight on the row of ``pair_u[i]`` or
    ``pair_v[i]`` where the failing branch's case LP has one, else 0; the
    abs-normal form reads ``dz = du - dv``."""
    kind = "partition" if isinstance(program, MpccProgram) else "signature"
    spec = parse_branch_label(verdict.failing_branch, kind, system.base_signature)
    sides = tuple(SIDES[0] if spec.signs[i] > 0 else SIDES[1] for i in system.degenerate)
    problem = build_case_problem(system, sides)
    ray = verdict.ray
    n = len(system.stationary_rows)
    du, dv = [ZERO] * system.s, [ZERO] * system.s
    # the rows of build_case_problem: the stationary rows, each fixed pair's
    # row and the inactive inequalities' as equalities, the m2 inequality
    # multipliers, then one row per degenerate pair, of the side it takes
    eq_rows = [(du, i, system.pair_u[i]) for i in system.fixed_pair_u_zero]
    eq_rows += [(dv, i, system.pair_v[i]) for i in system.fixed_pair_v_zero]
    ineq_rows = [
        (du, i, system.pair_u[i]) if spec.signs[i] > 0 else (dv, i, system.pair_v[i]) for i in system.degenerate
    ]
    for rows, weights, problem_rows in (
        (eq_rows, ray.dual_eq[n:], problem.eq_rows[n:]),
        (ineq_rows, ray.dual_ineq[system.m2 :], problem.ineq_rows[system.m2 :]),
    ):
        for (target, i, (coeffs, _)), weight, row in zip(rows, weights, problem_rows):
            assert row == coeffs
            target[i] = weight
    if isinstance(program, MpccProgram):
        return ray.dual_eq[:n] + tuple(du) + tuple(dv)
    return ray.dual_eq[:n] + tuple(a - b for a, b in zip(du, dv))


def assert_descends(verdict, branches, system, program):
    """The direction read off a B Fails ray (``descent_of``) lies in the
    linearized cone of the oracle-built failing branch, and the gradient
    decreases along it: checked by substitution."""
    b = next(b for b in branches if b.label == verdict.failing_branch)
    d = descent_of(verdict, system, program)
    assert lin_cone_branch(b).contains(d)
    assert dot(b.objective.gradient(b.anchor), d) < 0


def counted_lps(monkeypatch) -> list:
    """The LPs the stationarity checks solve from now on, one entry each."""
    calls = []

    def counted(problem):
        calls.append(problem)
        return lp_solve(problem)

    monkeypatch.setattr(stationarity, "lp_solve", counted)
    return calls


def m_verdict_of(program, point, system):
    """The point's M verdict in the form of ``program``, from ``system``."""
    return stationarity._solve_system(system, "m-mpcc" if isinstance(program, MpccProgram) else "m-anf")


def assert_b_matches_reference(verdict, program, point, system):
    """B status and failing branch are the generator reference's, and the
    verdict rechecks clean in ``system``; a Fails's ray reads as a descent on
    its failing branch."""
    branches = (mpcc_branches if isinstance(program, MpccProgram) else anf_branches)(program, point)
    assert (verdict.status, verdict.failing_branch) == b_by_generators(branches)
    assert verify_stationarity_verdict(system, verdict) == []
    if verdict.status == FAILS:
        assert_descends(verdict, branches, system, program)


def test_b_prefix_search_agrees_with_the_generator_reference_on_random_programs():
    rng = random.Random(31337)
    seen = set()
    checked = 0
    while checked < 80:
        p = random_affine_program(rng, max_s=3)
        e = evaluate(p, zero_vec(p.n_t))
        if not e.is_feasible():
            continue
        for q, qe in base_and_slack_forms(p, e):
            for program, point in ((q, qe), (to_mpcc(q), mpcc_point_from_eval(qe))):
                system = multiplier_system(program, point)
                m_verdict = m_verdict_of(program, point, system)
                verdict = check_b_stationary(program, point, m_verdict=m_verdict, system=system)
                alone = check_b_stationary(program, point)
                assert (alone.status, alone.failing_branch, alone.ray) == (
                    verdict.status,
                    verdict.failing_branch,
                    verdict.ray,
                )
                assert_b_matches_reference(verdict, program, point, system)
                assert_b_matches_reference(alone, program, point, multiplier_system(program, point))
                # linearized B implies M
                assert verdict.status == FAILS or m_verdict.status == HOLDS
                depth = max((len(outcome.assignment) for outcome in verdict.closed_cases), default=None)
                seen.add((verdict.status, depth, len(qe.alpha) > 0))
        checked += 1
    # strong multipliers (the root closes every branch), a Holds closed
    # below the root, and a Fails at a degenerate point
    assert {(HOLDS, 0, True), (FAILS, None, True)} <= seen
    assert any(status == HOLDS and depth for status, depth, _ in seen)


def test_strong_multipliers_reuse_the_m_certificate_without_an_lp(e1, e2, monkeypatch):
    e = evaluate(e1, [0, 0])
    m_verdict = check_m_stationary_anf(e1, e)
    ms = m_verdict.multipliers
    assert ms.mu_u[0] > 0 and ms.mu_v[0] > 0

    def no_lp(problem):
        raise AssertionError("no LP expected")

    monkeypatch.setattr(stationarity, "lp_solve", no_lp)
    verdict = check_b_stationary(e1, e, m_verdict=m_verdict)
    # the M certificate closes the root prefix, so every branch
    root = CaseOutcome((), LpCertificate(KIND_POINT, point=ms.lam_e + ms.lam_i + ms.lam_z))
    assert verdict.status == HOLDS and verdict.closed_cases == (root,)
    monkeypatch.undo()
    # a failed M verdict rules out the root with no LP, since S implies M:
    # E2 minimizing -t1 - t2 does not fix its multipliers, and B solves the
    # LP of its first branch, which is infeasible, and whose Farkas ray is
    # the certificate: one LP fewer than without the M verdict
    p = with_objective(e2, [-1, -1])
    e = evaluate(p, [0, 0])
    m_fails = check_m_stationary_anf(p, e)
    assert m_fails.status == FAILS and not multiplier_system(p, e).fixes_multipliers
    calls = counted_lps(monkeypatch)
    fails = check_b_stationary(p, e, m_verdict=m_fails)
    assert fails.status == FAILS and len(calls) == 1
    calls.clear()
    assert check_b_stationary(p, e) == fails and len(calls) == 2


def test_unique_m_multipliers_with_a_negative_pair_rule_out_strong_ones(monkeypatch):
    # this kinks-like program fixes its multipliers, and the one M
    # certificate has mu_u[2] = -4/3, so its signs decide every prefix with
    # no LP: the B check solves only the first open branch's case LP, for
    # its Farkas ray
    p = kinks_like_program(random.Random(5), 3)
    e = evaluate(p, zero_vec(p.n_t))
    m_verdict = check_m_stationary_anf(p, e)
    assert m_verdict.status == HOLDS and m_verdict.multipliers.mu_u[2] < 0
    calls = counted_lps(monkeypatch)
    verdict = check_b_stationary(p, e, m_verdict=m_verdict)
    assert verdict.status == FAILS and len(calls) == 1
    # without the M verdict the root LP finds the same candidate, to the same end
    calls.clear()
    assert check_b_stationary(p, e) == verdict and len(calls) == 2


def b_translation_matches_direct_check(p, e):
    """Translate b-anf to the counterpart and compare it with the counterpart's
    own check and with the reference over the counterpart branches."""
    mp, point = to_mpcc(p), mpcc_point_from_eval(e)
    sys_anf, sys_mpcc = multiplier_system(p, e), multiplier_system(mp, point)
    m_anf = check_m_stationary_anf(p, e, system=sys_anf)
    b_anf = check_b_stationary(p, e, m_verdict=m_anf, system=sys_anf)
    translated = translate_m_verdict(b_anf, sys_mpcc, "b-mpcc")
    m_mpcc = translate_m_verdict(m_anf, sys_mpcc, "m-mpcc")
    direct = check_b_stationary(mp, point, m_verdict=m_mpcc, system=sys_mpcc)
    assert translated.kind == direct.kind == "b-mpcc"
    assert (translated.status, translated.failing_branch) == (direct.status, direct.failing_branch)
    assert_b_matches_reference(translated, mp, point, sys_mpcc)
    assert_b_matches_reference(direct, mp, point, sys_mpcc)
    assert_b_matches_reference(b_anf, p, e, sys_anf)
    if translated.status == HOLDS:
        # the same closed prefixes and points, lam being the same unknowns
        assert translated == replace(b_anf, kind="b-mpcc")
        if m_anf.status == HOLDS and all(
            m_anf.multipliers.mu_u[i] >= 0 and m_anf.multipliers.mu_v[i] >= 0 for i in e.alpha
        ):
            assert translated == direct  # the M certificate closes the root on both sides
    return translated


def test_translated_b_verdict_matches_direct_check_on_corpus():
    statuses = set()
    for pf in load_corpus():
        for pt in pf.points:
            for p, e in base_and_slack_forms(pf.program, evaluate(pf.program, pt.t)):
                statuses.add(b_translation_matches_direct_check(p, e).status)
    assert statuses == {HOLDS, FAILS}


def test_translated_b_verdict_matches_direct_check_on_random_programs():
    rng = random.Random(8086)
    seen = set()
    checked = 0
    while checked < 60:
        p = random_affine_program(rng, max_s=3)
        e = evaluate(p, zero_vec(p.n_t))
        if not e.is_feasible():
            continue
        for q, qe in base_and_slack_forms(p, e):
            seen.add(b_translation_matches_direct_check(q, qe).status)
        checked += 1
    assert seen == {HOLDS, FAILS}


def assert_ray_descends_in_both_forms(p, e) -> bool:
    """An abs-normal B Fails ray verifies in both forms' systems, and the
    direction read off it in each form lies in that form's oracle-built
    failing branch and descends.  Returns whether B fails."""
    mp, point = to_mpcc(p), mpcc_point_from_eval(e)
    sys_anf, sys_mpcc = multiplier_system(p, e), multiplier_system(mp, point)
    b_anf = check_b_stationary(p, e, system=sys_anf)
    if b_anf.status == HOLDS:
        return False
    b_mpcc = translate_m_verdict(b_anf, sys_mpcc, "b-mpcc")
    assert b_mpcc.ray == b_anf.ray
    assert_descends(b_anf, anf_branches(p, e), sys_anf, p)
    assert_descends(b_mpcc, mpcc_branches(mp, point), sys_mpcc, mp)
    return True


def test_b_fails_rays_read_as_descents_in_both_forms():
    # the corpus, seeded kinks-like programs and random programs with up to
    # four switches, each at its feasible points
    points = [(pf.program, evaluate(pf.program, pt.t)) for pf in load_corpus() for pt in pf.points]
    rng = random.Random(4711)
    points += [(p, evaluate(p, zero_vec(p.n_t))) for p in (kinks_like_program(rng, rng.randint(1, 4)) for _ in range(200))]
    for seed in range(400):
        p = random_affine_program(random.Random(seed), max_s=4)
        points.append((p, evaluate(p, zero_vec(p.n_t))))
    fails = [(p, e) for p, e in points if e.is_feasible() and assert_ray_descends_in_both_forms(p, e)]
    assert len(fails) == 340
    assert {len(e.alpha) for _, e in fails} == {0, 1, 2, 3, 4}


def typed(x):
    """``x`` with the type of each leaf beside it, so that ``==`` tells ``1``
    from ``Fraction(1)``."""
    return tuple(map(typed, x)) if isinstance(x, tuple) else (type(x), x)


def test_multiplier_system_of_either_form_is_the_jacobian_oracle():
    # each form's system transposes its own linearization; the oracle reads
    # the abs-normal Jacobian blocks, as the package once did.  The corpus,
    # qkinks1-3, fallback1-3, seeded kinks-like and random programs, each
    # also on its slack form, at their feasible points
    programs = [(pf.program, pt.t) for pf in load_corpus() for pt in pf.points]
    for k in (1, 2, 3):
        for data in (qkinks_problem(k, False), fallback_kinks_problem(k)):
            pf = parse_problem_data(data)
            programs.append((pf.program, pf.points[0].t))
    rng = random.Random(4711)
    programs += [(kinks_like_program(rng, rng.randint(1, 4)), None) for _ in range(200)]
    programs += [(random_affine_program(random.Random(seed), max_s=4), None) for seed in range(400)]
    compared = 0
    for p, t in programs:
        e = evaluate(p, zero_vec(p.n_t) if t is None else t)
        if not e.is_feasible():
            continue
        slack = to_slack(p)
        for q, qe in ((p, e), (slack, evaluate(slack, slack_point(e)))):
            oracle = multiplier_system_oracle(q, qe)
            for system in (multiplier_system(q, qe), multiplier_system(to_mpcc(q), mpcc_point_from_eval(qe))):
                for field in fields(system):
                    assert typed(getattr(system, field.name)) == typed(getattr(oracle, field.name)), field.name
                compared += 1
    assert compared == 2448


def forms_at_origin(p):
    """The program's evaluation at the origin, its counterpart and point, and
    the multiplier systems of both forms."""
    e = evaluate(p, zero_vec(p.n_t))
    mp, point = to_mpcc(p), mpcc_point_from_eval(e)
    return e, mp, point, multiplier_system(p, e), multiplier_system(mp, point)


def test_b_translation_rejects_a_disagreeing_counterpart(e1):
    # a Holds closed below the root: a forged point, or a counterpart system
    # that disagrees, fails the check in the target system
    p = parse_problem_data(fallback_kinks_problem(1)).program
    e, mp, point, sys_anf, sys_mpcc = forms_at_origin(p)
    verdict = check_b_stationary(p, e)
    first = verdict.closed_cases[0]
    assert first.assignment == (SIDES[0],)
    forged = replace(first, certificate=replace(first.certificate, point=tuple(x + 1 for x in first.certificate.point)))
    with pytest.raises(RuntimeError, match="target system"):
        translate_m_verdict(replace(verdict, closed_cases=(forged,) + verdict.closed_cases[1:]), sys_mpcc, "b-mpcc")
    coeffs, offset = sys_mpcc.pair_v[0]
    shifted = replace(sys_mpcc, pair_v=((coeffs, offset - 1),))
    with pytest.raises(RuntimeError, match="target system"):
        translate_m_verdict(verdict, shifted, "b-mpcc")
    # a Fails: a branch label of the other form, a ray with its sign
    # flipped, or a counterpart system that disagrees
    p = with_objective(e1, [1, 0])
    e, mp, point, sys_anf, sys_mpcc = forms_at_origin(p)
    fails = check_b_stationary(p, e)
    with pytest.raises(ValueError, match="names no abs-normal branch"):
        translate_m_verdict(replace(fails, failing_branch="P={}"), sys_mpcc, "b-mpcc")
    ray = fails.ray
    flipped = replace(ray, dual_eq=tuple(-y for y in ray.dual_eq), dual_ineq=tuple(-y for y in ray.dual_ineq))
    with pytest.raises(RuntimeError, match="target system: .*Farkas ray"):
        translate_m_verdict(replace(fails, ray=flipped), sys_mpcc, "b-mpcc")
    coeffs, offset = sys_mpcc.pair_v[0]
    negated = replace(sys_mpcc, pair_v=((tuple(-x for x in coeffs), offset),))
    with pytest.raises(RuntimeError, match="target system: .*Farkas combination is nonzero"):
        translate_m_verdict(fails, negated, "b-mpcc")


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_strong_certificates_map_onto_every_branch_on_kinks(k, monkeypatch):
    # seed-1 kinks{k}: the minimizer of +t_{k+1} is strongly stationary in
    # both forms, by its M certificate; the maximizer of -t_{k+1} fixes its
    # multipliers, whose pairs are negative.  With the shared system neither
    # solves a multiplier LP in B: the minimizer none at all, the maximizer
    # only its first branch's case LP, whose Farkas ray is the certificate
    kinks = bench_kinks()
    calls = counted_lps(monkeypatch)
    for sign in (1, -1):
        inst = kinks.draw(random.Random(1), k, sign)
        p = parse_problem_data(kinks.problem_data(inst)).program
        e, mp, point, sys_anf, sys_mpcc = forms_at_origin(p)
        m_anf = check_m_stationary_anf(p, e, system=sys_anf)
        calls.clear()
        b_anf = check_b_stationary(p, e, m_verdict=m_anf, system=sys_anf)
        assert len(calls) == (0 if sign > 0 else 1)
        b_mpcc = translate_m_verdict(b_anf, sys_mpcc, "b-mpcc")
        assert b_anf.status == b_mpcc.status == kinks.stationarity_status(inst)
        assert_b_matches_reference(b_mpcc, mp, point, sys_mpcc)
        if sign > 0:
            # the root prefix, closed by the M certificate, is the whole certificate in both forms
            assert [outcome.assignment for outcome in b_mpcc.closed_cases] == [()]
            assert b_mpcc.closed_cases == b_anf.closed_cases


def test_m_and_b_solve_the_root_lp_once(monkeypatch):
    # E1's shoulder: the root LP decides M, and with k = 0 its Farkas ray is
    # B's certificate too, with no LP; kinks4-eq-max: the root LP and three
    # case LPs for M, the failing branch's case LP for B
    kinks = bench_kinks()
    e1 = load_corpus_problem("E1")
    maximizer = parse_problem_data(kinks.problem_data(kinks.draw(random.Random(1), 4, -1))).program
    calls = counted_lps(monkeypatch)
    for p, t, lps in ((e1.program, e1.point("shoulder").t, 1), (maximizer, zero_vec(maximizer.n_t), 5)):
        e = evaluate(p, t)
        system = multiplier_system(p, e)
        calls.clear()
        m_verdict = check_m_stationary_anf(p, e, system=system)
        assert check_b_stationary(p, e, m_verdict=m_verdict, system=system).status == FAILS
        assert len(calls) == lps


def test_b_holds_below_the_root_takes_one_lp_per_open_prefix(monkeypatch):
    # fallbackK needs every pair fixed: its root and inner prefixes are
    # infeasible and each of its 2^K branches feasible, and the M certificate
    # closes one branch with no LP, so 2^(K+1) - 2 LPs; its slack form's
    # slack switches are closed with their first side
    calls = counted_lps(monkeypatch)
    for k in range(1, 5):
        p = parse_problem_data(fallback_kinks_problem(k)).program
        for q, qe in base_and_slack_forms(p, evaluate(p, zero_vec(p.n_t))):
            system = multiplier_system(q, qe)
            m_verdict = check_m_stationary_anf(q, qe, system=system)
            calls.clear()
            verdict = check_b_stationary(q, qe, m_verdict=m_verdict, system=system)
            assert verdict.status == HOLDS and len(calls) == 2 ** (k + 1) - 2, (k, len(qe.alpha))


def reference_pair_value(expr, lam):
    """An affine row's value with one Fraction per term."""
    coeffs, offset = expr
    return sum(map(mul, coeffs, lam), Fraction(0)) + offset


def reference_multipliers_from_lam(system, lam):
    return MultiplierSet(
        *system.lam_slice(lam),
        tuple(reference_pair_value(system.pair_u[i], lam) for i in range(system.s)),
        tuple(reference_pair_value(system.pair_v[i], lam) for i in range(system.s)),
    )


def reference_verify_multipliers(system, ms):
    """``verify_multipliers`` with one Fraction per term."""
    lengths = [len(ms.lam_e), len(ms.lam_i), len(ms.lam_z), len(ms.mu_u), len(ms.mu_v)]
    if lengths != [system.m1, system.m2, system.s, system.s, system.s]:
        return [f"multiplier lengths {lengths} do not fit the system's {system.m1}, {system.m2} and {system.s}"]
    lam = ms.lam_e + ms.lam_i + ms.lam_z
    errors = []
    if any(reference_pair_value(row, lam) != 0 for row in system.stationary_rows):
        errors.append("Lagrangian gradient row does not vanish")
    for i in range(system.s):
        if reference_pair_value(system.pair_u[i], lam) != ms.mu_u[i]:
            errors.append(f"pair multiplier u[{i}] mismatch")
        if reference_pair_value(system.pair_v[i], lam) != ms.mu_v[i]:
            errors.append(f"pair multiplier v[{i}] mismatch")
    for i in system.fixed_pair_u_zero:
        if ms.mu_u[i] != 0:
            errors.append(f"pair multiplier u[{i}] must vanish (strictly positive side)")
    for i in system.fixed_pair_v_zero:
        if ms.mu_v[i] != 0:
            errors.append(f"pair multiplier v[{i}] must vanish (strictly negative side)")
    for i in system.degenerate:
        a, b = ms.mu_u[i], ms.mu_v[i]
        if not ((a > 0 and b > 0) or a * b == 0):
            errors.append(f"degenerate pair {i} violates the sign disjunction")
    if any(x < 0 for x in ms.lam_i):
        errors.append("negative inequality multiplier")
    for k in system.inactive_i:
        if ms.lam_i[k] != 0:
            errors.append(f"inactive inequality {k} has a nonzero multiplier")
    return errors


def reference_verify_case_point(system, assignment, lam):
    """``stationarity._verify_case_point`` with one Fraction per term: the
    rows of ``reference_verify_multipliers`` at the pair multipliers of lam,
    less the M sign disjunction, then each one the B case prefix keeps
    nonnegative."""
    ms = reference_multipliers_from_lam(system, lam)
    errors = [msg for msg in reference_verify_multipliers(system, ms) if not msg.endswith("sign disjunction")]
    plus, minus = SIDES
    for j, i in enumerate(system.degenerate):
        side = assignment[j] if j < len(assignment) else None
        if side != minus and ms.mu_u[i] < 0:
            errors.append(f"pair multiplier u[{i}] must be nonnegative")
        if side != plus and ms.mu_v[i] < 0:
            errors.append(f"pair multiplier v[{i}] must be nonnegative")
    return errors


def nudged(rng, vector):
    """``vector`` with one entry moved by a small fraction."""
    i = rng.randrange(len(vector))
    return vector[:i] + (vector[i] + Fraction(rng.choice((1, -1)), rng.randint(2, 5)),) + vector[i + 1 :]


def test_integer_multiplier_checks_equal_plain_fraction_ones():
    # rational coefficients give rows with several denominators; exact and
    # nudged lam, and nudged pair multipliers, must read the same lists in
    # the same order as the per-term reference, as must lam read as the
    # point of a random B case prefix
    rng = random.Random(1618)
    prefixes = random.Random(2718)
    messages = set()
    denominators = set()
    checked = 0
    while checked < 80:
        p = random_affine_program(rng, max_s=3, rational=True)
        e = evaluate(p, zero_vec(p.n_t))
        if not e.is_feasible():
            continue
        checked += 1
        mp, point = to_mpcc(p), mpcc_point_from_eval(e)
        for verdict, system in (
            (check_m_stationary_anf(p, e), multiplier_system(p, e)),
            (check_m_stationary_mpcc(mp, point), multiplier_system(mp, point)),
        ):
            denominators.update(x.denominator for row, _ in system.stationary_rows for x in row)
            if verdict.status == HOLDS:
                ms = verdict.multipliers
                lam = ms.lam_e + ms.lam_i + ms.lam_z
            else:
                lam = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(system.n_unknowns))
            lams = [lam, nudged(rng, lam)] if lam else [lam]
            for x in lams:
                ms = stationarity._multipliers_from_lam(system, x)
                assert ms == reference_multipliers_from_lam(system, x)
                k = len(system.degenerate)
                prefix = tuple(prefixes.choice(SIDES) for _ in range(prefixes.randint(0, k)))
                want = reference_verify_case_point(system, prefix, x)
                assert stationarity._verify_case_point(system, prefix, x) == want
                messages.update(want)
                candidates = [ms]
                if system.s:
                    candidates += [replace(ms, mu_u=nudged(rng, ms.mu_u)), replace(ms, mu_v=nudged(rng, ms.mu_v))]
                for candidate in candidates:
                    want = reference_verify_multipliers(system, candidate)
                    assert verify_multipliers(system, candidate) == want
                    messages.update(want or ["clean"])
    assert max(denominators) > 1
    for start in ("clean", "Lagrangian gradient", "pair multiplier u[", "pair multiplier v[", "degenerate pair"):
        assert any(msg.startswith(start) for msg in messages), start
    assert any(msg.endswith("must be nonnegative") for msg in messages)

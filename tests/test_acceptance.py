"""Acceptance criteria, one test per criterion, zero tolerance throughout.

Each test prints a single PASS line on success (pytest -s shows them); any
assertion failure is the corresponding FAIL.  Randomized criteria use fixed
seeds so the suite is reproducible.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from absnormal.anf import evaluate
from absnormal.cli import main
from absnormal.cones import (
    PolyCone,
    dual_cone,
    linearize_anf,
    linearize_mpcc,
    union_covers,
)
from absnormal.cq import (
    ABS_E,
    ABS_I,
    FAILS,
    HOLDS,
    MPCC_E,
    MPCC_I,
    analyze_point,
    decide_kink_cq,
    verify_relations,
)
from absnormal.problemfile import load_corpus
from absnormal.ratmath import (
    LpProblem,
    dot,
    lp_solve,
    vec,
    verify_certificate,
)
from absnormal.stationarity import (
    check_b_stationary,
    check_m_stationary_anf,
    check_m_stationary_mpcc,
    multiplier_system,
    translate_m_verdict,
)
from absnormal.transforms import (
    mpcc_point_from_eval,
    phi,
    slack_point,
    to_mpcc,
    to_slack,
)

from branch_oracles import (
    anf_branches,
    branch_union,
    cone_equal,
    cone_image,
    lin_cone_abs_direct,
    lin_cone_mpcc_direct,
    merge_direction_matrix,
    mpcc_branches,
    mpcc_feasible,
    split_direction_matrix,
    union_from_branches,
)


def _corpus_cases():
    """(problem file, point, analysis) for every corpus problem/point."""
    out = []
    for pf in load_corpus():
        for point in pf.points:
            pa = analyze_point(pf.program, point.t, pf.annotations)
            out.append((pf, point, pa))
    return out


CASES = _corpus_cases()


# -- criterion 1 -------------------------------------------------------------


def _oracle_solve(rows, rhs, n):
    """Independent exact Gaussian solve of a square system; None if singular."""
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return tuple(a[i][n] for i in range(n))


def _oracle_feasible_bounded(eq, eq_rhs, ineq, ineq_rhs, n):
    """Brute-force vertex enumeration for a bounded region: feasible iff some
    basic solution (all equalities plus enough active inequalities) satisfies
    every constraint.  The equalities must be independent once zero rows are
    gone: a zero row is dropped when it reads 0 = 0 and is infeasible when
    it does not."""
    if any(not any(r) and b for r, b in zip(eq, eq_rhs)):
        return False
    eq_rhs = [b for r, b in zip(eq, eq_rhs) if any(r)]
    eq = [r for r in eq if any(r)]
    k = len(eq)
    need = n - k
    if need < 0:
        return False
    for combo in itertools.combinations(range(len(ineq)), need):
        rows = list(eq) + [ineq[i] for i in combo]
        rhs = list(eq_rhs) + [ineq_rhs[i] for i in combo]
        x = _oracle_solve(rows, rhs, n)
        if x is None:
            continue
        ok = all(dot(vec(r), x) == b for r, b in zip(eq, eq_rhs)) and all(
            dot(vec(r), x) >= b for r, b in zip(ineq, ineq_rhs)
        )
        if ok:
            return True
    return False


def test_criterion_1_kernel_soundness():
    start = time.monotonic()
    rng = random.Random(20260810)
    oracle_checked = 0
    for trial in range(1000):
        bounded_instance = trial % 2 == 0
        n = rng.randint(1, 3) if bounded_instance else rng.randint(1, 8)
        m_eq = rng.randint(0, 1)
        m_in = rng.randint(1, 5)
        eq = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m_eq)]
        eq_rhs = [Fraction(rng.randint(-4, 4)) for _ in range(m_eq)]
        ineq = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m_in)]
        ineq_rhs = [Fraction(rng.randint(-4, 4)) for _ in range(m_in)]
        if bounded_instance:
            # box rows make the feasible region bounded by construction
            for j in range(n):
                unit = [Fraction(0)] * n
                unit[j] = Fraction(1)
                ineq.append(list(unit))
                ineq_rhs.append(Fraction(-5))
                ineq.append([-x for x in unit])
                ineq_rhs.append(Fraction(-5))
        p = LpProblem(
            n_vars=n,
            eq_rows=tuple(vec(r) for r in eq),
            eq_rhs=vec(eq_rhs),
            ineq_rows=tuple(vec(r) for r in ineq),
            ineq_rhs=vec(ineq_rhs),
        )
        res = lp_solve(p)
        assert verify_certificate(p, res) == [], f"trial {trial}: certificate invalid"
        if bounded_instance:
            oracle = _oracle_feasible_bounded(eq, eq_rhs, ineq, ineq_rhs, n)
            observed = res.status == "feasible"
            assert oracle == observed, f"trial {trial}: oracle disagrees"
            oracle_checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"kernel soundness took {elapsed:.1f}s"
    assert oracle_checked == 500
    print(
        f"\nACCEPTANCE 1 PASS: 1000 random LPs certificate-verified, "
        f"{oracle_checked} bounded instances agree with the vertex-enumeration oracle "
        f"({elapsed:.1f}s)"
    )


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_double_description_biduality():
    start = time.monotonic()
    rng = random.Random(31337)
    for trial in range(200):
        dim = rng.randint(1, 5)
        n_rows = rng.randint(0, 8)
        n_eq = rng.randint(0, min(2, n_rows))
        rows = [
            vec([rng.randint(-3, 3) for _ in range(dim)]) for _ in range(n_rows)
        ]
        cone = PolyCone(dim, tuple(rows[:n_eq]), tuple(rows[n_eq:]))
        double = dual_cone(dual_cone(cone))
        assert cone_equal(double, cone), f"trial {trial}: biduality violated"
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"biduality took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 PASS: 200 random cones satisfy dual(dual(C)) = C ({elapsed:.1f}s)")


# -- criterion 3 -------------------------------------------------------------


def _unions_equal_as_sets(u1, u2) -> bool:
    for _, piece in u1.members:
        ok, _ = union_covers(u2.cones, piece)
        if not ok:
            return False
    for _, piece in u2.members:
        ok, _ = union_covers(u1.cones, piece)
        if not ok:
            return False
    return True


def test_criterion_3_decomposition_into_branches():
    for pf, point, pa in CASES:
        e = pa.point_eval
        direct = lin_cone_abs_direct(pf.program, e)
        built = union_from_branches(anf_branches(pf.program, e))
        assert _unions_equal_as_sets(direct, built), f"{pf.name}/{point.label}: abs-form"
        # the package's one linearization gives the built branches' cones, row for row
        assert branch_union(linearize_anf(pf.program, e)) == built, f"{pf.name}/{point.label}: abs-form"
        mp, mpoint = pa.anchor(MPCC_I)
        direct_m = lin_cone_mpcc_direct(mp, mpoint)
        built_m = union_from_branches(mpcc_branches(mp, mpoint))
        assert _unions_equal_as_sets(direct_m, built_m), f"{pf.name}/{point.label}: counterpart"
        assert branch_union(linearize_mpcc(mp, mpoint)) == built_m, f"{pf.name}/{point.label}: counterpart"
    print(
        "\nACCEPTANCE 3 PASS: linearized-cone decomposition (defining rows vs branch "
        f"union) verified on {len(CASES)} corpus points, both forms, zero tolerance"
    )


# -- criterion 4 -------------------------------------------------------------


def _feasible_samples(name, count=101):
    """Deterministic exact feasible points per corpus problem."""
    qs = [Fraction(k - count // 2, 7) for k in range(count)]
    if name == "E1":
        return [(q, abs(q)) for q in qs]
    if name == "E2":
        return [(abs(q), Fraction(0)) if k % 2 else (Fraction(0), abs(q)) for k, q in enumerate(qs)]
    if name == "E3":
        return [(Fraction(0), q) for q in qs]
    if name == "E4":
        return [(q, Fraction(0)) if k % 2 else (Fraction(0), q) for k, q in enumerate(qs)]
    raise AssertionError(name)


def test_criterion_4_homeomorphism_suite():
    total_points = 0
    for pf in load_corpus():
        mp = to_mpcc(pf.program)
        slack = to_slack(pf.program)
        mp_e = to_mpcc(slack)
        for t in _feasible_samples(pf.name):
            e = evaluate(pf.program, t)
            assert e.is_feasible(), f"{pf.name}: sampler produced an infeasible point"
            point = mpcc_point_from_eval(e)
            assert mpcc_feasible(mp, point)
            assert phi(point) == e.point  # phi(phi_inv(x)) = x exactly
            se = evaluate(slack, slack_point(e))
            assert se.is_feasible()
            e_point = mpcc_point_from_eval(se)
            assert mpcc_feasible(mp_e, e_point)
            assert phi(e_point) == se.point
            total_points += 1
    # direction maps carry branch-cone generators bijectively, all corpus points
    pair_count = 0
    for pf, point, pa in CASES:
        for slack_form in (False, True):
            # both enumerations refine the same base signature in the same order
            anf_key, mpcc_key = (ABS_E, MPCC_E) if slack_form else (ABS_I, MPCC_I)
            for anf_ba, mpcc_ba in zip(
                pa.formulation(anf_key).branches, pa.formulation(mpcc_key).branches, strict=True
            ):
                mp = pa.anchor(mpcc_key)[0]
                split = split_direction_matrix(mp.n_x, mp.s, mpcc_ba.spec)
                merge = merge_direction_matrix(mp.n_x, mp.s)
                assert cone_equal(cone_image(anf_ba.lin, split), mpcc_ba.lin)
                assert cone_equal(cone_image(mpcc_ba.lin, merge), anf_ba.lin)
                if anf_ba.tangent_known and mpcc_ba.tangent_known:
                    for a_piece, m_piece in zip(
                        anf_ba.tangent_pieces, mpcc_ba.tangent_pieces, strict=True
                    ):
                        assert cone_equal(cone_image(a_piece, split), m_piece)
                        assert cone_equal(cone_image(m_piece, merge), a_piece)
                pair_count += 1
    print(
        f"\nACCEPTANCE 4 PASS: point-map round trips on {total_points} feasible points "
        f"(>= 101 per problem, both liftings) and generator-exact direction maps on "
        f"{pair_count} branch pairs, zero tolerance"
    )


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_theorem_cross_checks():
    arrows_checked = 0
    for pf, point, pa in CASES:
        report, kink, branch_verdicts = verify_relations(pa)
        bad = [a for a in report.arrows if not a.consistent]
        assert not bad, f"{pf.name}/{point.label}: inconsistent arrows {bad}"
        arrows_checked += len(report.arrows)
        # the named equivalences, asserted directly
        assert kink[("abadie", ABS_I)].status == kink[("abadie", MPCC_I)].status
        assert kink[("abadie", ABS_I)].status == kink[("abadie", ABS_E)].status
        assert kink[("abadie", MPCC_I)].status == kink[("abadie", MPCC_E)].status
        for key_pair in (((ABS_I, MPCC_I)), ((ABS_E, MPCC_E))):
            a_key, m_key = key_pair
            for (a_acq, a_gcq), (m_acq, m_gcq) in zip(
                branch_verdicts[a_key], branch_verdicts[m_key], strict=True
            ):
                assert a_acq.status == m_acq.status
                assert a_gcq.status == m_gcq.status
        # proved one-sided direction: counterpart Guignard implies kink Guignard
        if kink[("guignard", MPCC_I)].status == HOLDS:
            assert kink[("guignard", ABS_I)].status == HOLDS
        if kink[("guignard", MPCC_E)].status == HOLDS:
            assert kink[("guignard", ABS_E)].status == HOLDS
    print(
        f"\nACCEPTANCE 5 PASS: every proved implication consistent on all "
        f"{len(CASES)} corpus points ({arrows_checked} arrows), no bug detector fired"
    )


# -- criterion 6 -------------------------------------------------------------


def test_criterion_6_counterexample_behavior():
    by_name = {pf.name: (pf, point, pa) for pf, point, pa in CASES if point.label == "origin"}

    pf, point, pa = by_name["E3"]
    akq = decide_kink_cq(pa.formulation(ABS_I), "abadie")
    gkq = decide_kink_cq(pa.formulation(ABS_I), "guignard")
    assert akq.status == FAILS and akq.witness is not None
    assert gkq.status == FAILS and gkq.witness is not None
    # the witnesses are explicit and re-checkable: the Abadie witness is a
    # linearized direction outside every tangent piece, the Guignard witness a
    # dual vector of the tangent union violating the linearized dual
    w = akq.witness
    fa = pa.formulation(ABS_I)
    assert any(ba.lin.contains(w) for ba in fa.branches)
    for ba in fa.branches:
        for piece in ba.tangent_pieces:
            assert not piece.contains(w)

    pf, point, pa = by_name["E4"]
    assert decide_kink_cq(pa.formulation(ABS_I), "abadie").status == FAILS
    assert decide_kink_cq(pa.formulation(ABS_I), "guignard").status == HOLDS

    for name in ("E1", "E2"):
        pf, point, pa = by_name[name]
        for key in (ABS_I, ABS_E, MPCC_I, MPCC_E):
            assert decide_kink_cq(pa.formulation(key), "abadie").status == HOLDS
            assert decide_kink_cq(pa.formulation(key), "guignard").status == HOLDS
    print(
        "\nACCEPTANCE 6 PASS: E3 fails Abadie+Guignard with explicit witnesses, "
        "E4 fails Abadie / holds Guignard, E1-E2 hold across the board"
    )


# -- criterion 7 -------------------------------------------------------------


def test_criterion_7_stationarity_equivalences():
    minimizers = 0
    for pf, point, pa in CASES:
        e = pa.point_eval
        mp, mpoint = pa.anchor(MPCC_I)
        m_anf = check_m_stationary_anf(pf.program, e)
        m_mpcc = check_m_stationary_mpcc(mp, mpoint)
        assert m_anf.status == m_mpcc.status, f"{pf.name}/{point.label}: M-verdicts differ"
        if m_anf.status == HOLDS:
            sys_anf = multiplier_system(pf.program, e)
            sys_mpcc = multiplier_system(mp, mpoint)
            there = translate_m_verdict(m_anf, sys_mpcc, "m-mpcc")
            back = translate_m_verdict(there, sys_anf, "m-anf")
            assert back.multipliers == m_anf.multipliers  # certificate round trip
        b_anf = check_b_stationary(pf.program, e)
        b_mpcc = check_b_stationary(mp, mpoint)
        assert b_anf.status == b_mpcc.status, f"{pf.name}/{point.label}: B-verdicts differ"
        # slack forms, as instances of the same machinery
        m_slack = check_m_stationary_anf(*pa.anchor(ABS_E))
        m_slack_mpcc = check_m_stationary_mpcc(*pa.anchor(MPCC_E))
        assert m_slack.status == m_slack_mpcc.status
        if point.minimizer:
            akq = decide_kink_cq(pa.formulation(ABS_I), "abadie")
            if akq.status == HOLDS:
                assert m_anf.status == HOLDS, f"{pf.name}: minimizer with AKQ not M-stationary"
                minimizers += 1
    assert minimizers >= 2  # E1 and E2 origins
    print(
        f"\nACCEPTANCE 7 PASS: M-/B-verdicts agree across forms on all {len(CASES)} "
        f"corpus points, certificates round-trip, necessity verified at {minimizers} "
        "annotated minimizers with the Abadie kink qualification"
    )


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_determinism(tmp_path, capsys):
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    assert main(["corpus", "run", "--out", str(out1)]) == 0
    assert main(["corpus", "run", "--out", str(out2)]) == 0
    b1 = out1.read_bytes()
    b2 = out2.read_bytes()
    assert b1 == b2, "corpus reports differ between consecutive runs"
    report = json.loads(b1.decode("utf-8"))
    assert report["summary"]["all_matched"] is True
    print(f"\nACCEPTANCE 8 PASS: consecutive corpus runs byte-identical ({len(b1)} bytes)")

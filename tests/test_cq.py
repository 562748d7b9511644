import pytest

from absnormal.anf import AbsNormalProgram, QuadraticFunc, evaluate
from absnormal.cones import PolyCone, linearize_anf
from absnormal.cq import (
    ABS_E,
    ABS_I,
    FAILS,
    HOLDS,
    MPCC_E,
    MPCC_I,
    UNKNOWN,
    AnnotationError,
    analyze_branch,
    analyze_point,
    check_branch_cq,
    decide_kink_cq,
    verify_relations,
)
from absnormal.ratmath import vec
from absnormal.transforms import mpcc_point_from_eval, to_mpcc

from branch_oracles import cone_equal
from conftest import e3_annotations, e4_annotations


def branch_analyses(p, e, annotations=None):
    """Each branch at the point with its cone from the point's linearization."""
    lin = linearize_anf(p, e)
    annotations = annotations or {}
    return [analyze_branch(lin, spec, annotations.get(spec.label)) for spec in lin.specs()]


def kink_cq(p, e, which, annotations=None):
    """The kink-level verdict ``which`` on the inequality form at the point."""
    return decide_kink_cq(analyze_point(p, e.t, annotations).formulations[ABS_I], which)


def kink_statuses(pa):
    report, kink, branch_verdicts = verify_relations(pa)
    return report, kink, branch_verdicts


def test_branch_acq_holds_on_affine_branches(e1):
    e = evaluate(e1, [0, 0])
    for ba in branch_analyses(e1, e):
        v = check_branch_cq(ba, "acq")
        assert v.status == HOLDS
        assert "affine" in v.note
        assert check_branch_cq(ba, "gcq").status == HOLDS


def test_branch_acq_unknown_without_annotation(e3):
    e = evaluate(e3, [0, 0])
    ba = branch_analyses(e3, e)[0]
    v = check_branch_cq(ba, "acq")
    assert v.status == UNKNOWN
    assert v.blocking == (ba.label,)


def test_branch_acq_fails_with_annotation(e3):
    e = evaluate(e3, [0, 0])
    ba = branch_analyses(e3, e, e3_annotations())[0]
    v = check_branch_cq(ba, "acq")
    assert v.status == FAILS
    # witness: a linearized direction with dt1 = dz = 1 escaping the tangent line
    assert v.witness is not None and v.witness[0] != 0


def test_branch_gcq_fails_with_annotation(e3):
    # duals: tangent line dual {w2 = 0} strictly contains lin dual {w2 = 0, w1 + w3 >= 0}
    e = evaluate(e3, [0, 0])
    ba = branch_analyses(e3, e, e3_annotations())[0]
    v = check_branch_cq(ba, "gcq")
    assert v.status == FAILS
    assert v.witness is not None


def test_branch_gcq_holds_on_e4_branches(e4):
    # hand duals: both the annotated tangent union and the lin cone dualize to
    # {w2 = 0, w1 + w3 >= 0} on the positive branch
    e = evaluate(e4, [0, 0])
    ba = branch_analyses(e4, e, e4_annotations())[0]
    assert check_branch_cq(ba, "acq").status == FAILS
    assert check_branch_cq(ba, "gcq").status == HOLDS


def test_annotation_must_sit_inside_lin_cone(e3):
    e = evaluate(e3, [0, 0])
    bogus = (PolyCone.from_rows(3, eq=[[0, 1, 0]]),)  # contains (1,0,0), not in lin cone
    with pytest.raises(AnnotationError):
        branch_analyses(e3, e, {"σ=+": bogus})


def test_akq_holds_e1(e1):
    e = evaluate(e1, [0, 0])
    assert kink_cq(e1, e, "abadie").status == HOLDS
    assert kink_cq(e1, e, "guignard").status == HOLDS


def test_akq_holds_e2(e2):
    e = evaluate(e2, [0, 0])
    assert kink_cq(e2, e, "abadie").status == HOLDS
    assert kink_cq(e2, e, "guignard").status == HOLDS


def test_akq_unknown_then_fails_with_annotations(e3):
    # trusted tangent information only ever resolves Unknown, never flips
    e = evaluate(e3, [0, 0])
    assert kink_cq(e3, e, "abadie").status == UNKNOWN
    assert kink_cq(e3, e, "abadie", e3_annotations()).status == FAILS
    assert kink_cq(e3, e, "guignard").status == UNKNOWN
    assert kink_cq(e3, e, "guignard", e3_annotations()).status == FAILS


def test_akq_fails_gkq_holds_e4(e4):
    e = evaluate(e4, [0, 0])
    akq = kink_cq(e4, e, "abadie", e4_annotations())
    gkq = kink_cq(e4, e, "guignard", e4_annotations())
    assert akq.status == FAILS
    assert gkq.status == HOLDS
    assert akq.witness is not None


def test_mpcc_cq_matches_kink_cq(e1, e3, e4):
    # equivalence of the Abadie conditions across formulations, exercised via
    # the full four-formulation analysis
    for p, annotations in ((e1, None), (e3, e3_annotations()), (e4, e4_annotations())):
        pa = analyze_point(p, [0, 0], annotations)
        akq = decide_kink_cq(pa.formulations[ABS_I], "abadie")
        macq = decide_kink_cq(pa.formulations[MPCC_I], "abadie")
        assert akq.status == macq.status


def test_mpcc_gcq_e4_holds_while_acq_fails(e4):
    pa = analyze_point(e4, [0, 0], e4_annotations())
    assert decide_kink_cq(pa.formulations[MPCC_I], "abadie").status == FAILS
    assert decide_kink_cq(pa.formulations[MPCC_I], "guignard").status == HOLDS


def test_check_mpcc_cq_standalone(e1):
    e = evaluate(e1, [0, 0])
    pa = analyze_point(e1, e.t)
    # the counterpart formulation is the counterpart of the program at the point
    assert pa.anchor(MPCC_I) == (to_mpcc(e1), mpcc_point_from_eval(e))
    fa = pa.formulations[MPCC_I]
    assert decide_kink_cq(fa, "abadie").status == HOLDS
    assert decide_kink_cq(fa, "guignard").status == HOLDS


def test_verify_relations_consistent_everywhere(e1, e2, e3, e4):
    cases = (
        (e1, [0, 0], None),
        (e1, [2, 2], None),
        (e2, [0, 0], None),
        (e2, [1, 0], None),
        (e3, [0, 0], e3_annotations()),
        (e4, [0, 0], e4_annotations()),
    )
    for p, t, annotations in cases:
        pa = analyze_point(p, t, annotations)
        report, kink, _ = verify_relations(pa)
        assert report.consistent, report.inconsistencies()


def test_relations_one_sided_converse_is_logged_not_asserted(e4):
    pa = analyze_point(e4, [0, 0], e4_annotations())
    report, _, _ = verify_relations(pa)
    one_sided = [a for a in report.arrows if a.converse_observation is not None]
    assert one_sided
    for a in one_sided:
        assert a.converse_observation in ("agrees", "disagrees", "untestable")
        assert a.consistent


def test_relations_e_form_verdicts_match_i_form(e2):
    pa = analyze_point(e2, [0, 0])
    _, kink, _ = verify_relations(pa)
    assert kink[("abadie", ABS_I)].status == kink[("abadie", ABS_E)].status == HOLDS
    assert kink[("abadie", MPCC_I)].status == kink[("abadie", MPCC_E)].status == HOLDS


def test_slack_representative_independence(e2):
    # verdicts do not depend on the sign choice of the slack representative
    for signs in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        pa = analyze_point(e2, [1, 0], w_signs=signs)
        _, kink, _ = verify_relations(pa)
        assert kink[("abadie", ABS_E)].status == HOLDS
        assert kink[("guignard", ABS_E)].status == HOLDS


def test_annotation_lift_through_slack_form():
    # a degenerate quadratic program with an inequality: the slack branches
    # cannot self-certify, so the trusted inequality-form tangent must lift
    from fractions import Fraction

    from absnormal.ratmath import RatMatrix

    quad = RatMatrix.from_rows([[0] * 3, [0] * 3, [0, 0, 1]])
    p = AbsNormalProgram(
        n_t=2,
        s=1,
        m1=1,
        m2=1,
        f=QuadraticFunc.affine(2, 0, [1, 0]),
        c_e=(QuadraticFunc(3, Fraction(0), vec([0, 0, 0]), quad),),
        c_i=(QuadraticFunc.affine(3, 0, [0, 1, 0]),),
        c_z=(QuadraticFunc.affine(3, 0, [1, 0, 0]),),
    )
    # feasible set: t1 = 0, t2 >= 0; at the origin the inequality is active.
    # tangent cone of both branches: {dt1 = 0, dz = 0} (t2 free but >= 0 is
    # inactive in the branch since... it *is* active: tangent is
    # {dt1 = 0, dz = 0, dt2 >= 0}
    piece = PolyCone.from_rows(3, eq=[[1, 0, 0], [0, 0, 1]], ineq=[[0, 1, 0]])
    annotations = {"σ=+": (piece,), "σ=-": (piece,)}
    pa = analyze_point(p, [0, 0], annotations)
    report, kink, _ = verify_relations(pa)
    assert report.consistent, report.inconsistencies()
    assert kink[("abadie", ABS_I)].status == FAILS
    assert kink[("abadie", ABS_E)].status == FAILS
    assert kink[("abadie", MPCC_E)].status == FAILS
    for ba in pa.formulations[ABS_E].branches:
        assert ba.tangent_known
        assert ba.tangent_source.startswith("lift:")


def test_tangent_pieces_are_carried_only_to_branches_that_cannot_certify(e2, e3, monkeypatch):
    import absnormal.cq

    carried = []
    for name in ("lift_tangent_piece", "cone_image"):
        real = getattr(absnormal.cq, name)

        def counted(*args, real=real, name=name, **kwargs):
            carried.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(absnormal.cq, name, counted)
    # E2: every branch is affine, so no piece is lifted or transported
    pa = analyze_point(e2, [0, 0])
    assert carried == []
    assert all(ba.tangent_source == "affine" for fa in pa.formulations.values() for ba in fa.branches)
    # E3: no branch certifies itself, so each takes the annotation along its map
    pa = analyze_point(e3, [0, 0], e3_annotations())
    assert sorted(carried) == ["cone_image"] * 4 + ["lift_tangent_piece"] * 2
    sources = {key: {ba.tangent_source for ba in fa.branches} for key, fa in pa.formulations.items()}
    assert sources == {
        ABS_I: {"annotation"},
        ABS_E: {"lift:annotation"},
        MPCC_I: {"transport:annotation"},
        MPCC_E: {"transport:lift:annotation"},
    }

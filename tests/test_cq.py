import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest

from absnormal.anf import AbsNormalProgram, ProgramError, QuadraticFunc, evaluate
from absnormal.cones import TANGENT_LICQ, PolyCone, linearize_anf
from absnormal.cq import (
    ABS_E,
    ABS_I,
    FAILS,
    FORMULATIONS,
    HOLDS,
    MPCC_E,
    MPCC_I,
    UNKNOWN,
    AnnotationError,
    PointAnalysis,
    analyze_branch,
    analyze_point,
    check_branch_cq,
    decide_kink_cq,
    verify_relations,
)
from absnormal.problemfile import load_corpus_problem, parse_problem_data
from absnormal.ratmath import RatMatrix, generators_to_hrep, vec, zero_vec
from absnormal.transforms import mpcc_point_from_eval, slack_point, to_mpcc, to_slack

from branch_oracles import cone_equal, cone_image, lift_tangent_piece, on_rational_rows, split_direction_matrix
from conftest import e3_annotations, e4_annotations, kinks_like_program, qkinks_problem, random_affine_program


def branch_analyses(p, e, annotations=None):
    """Each branch at the point with its cone from the point's linearization."""
    lin = linearize_anf(p, e)
    annotations = annotations or {}
    return [analyze_branch(lin, spec, annotations.get(spec.label)) for spec in lin.specs()]


def kink_cq(p, e, which, annotations=None):
    """The kink-level verdict ``which`` on the inequality form at the point."""
    return decide_kink_cq(analyze_point(p, e.t, annotations).formulation(ABS_I), which)


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
    bogus = (PolyCone(3, [[0, 1, 0]]),)  # contains (1,0,0), not in lin cone
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
        akq = decide_kink_cq(pa.formulation(ABS_I), "abadie")
        macq = decide_kink_cq(pa.formulation(MPCC_I), "abadie")
        assert akq.status == macq.status


def test_mpcc_gcq_e4_holds_while_acq_fails(e4):
    pa = analyze_point(e4, [0, 0], e4_annotations())
    assert decide_kink_cq(pa.formulation(MPCC_I), "abadie").status == FAILS
    assert decide_kink_cq(pa.formulation(MPCC_I), "guignard").status == HOLDS


def test_check_mpcc_cq_standalone(e1):
    e = evaluate(e1, [0, 0])
    pa = analyze_point(e1, e.t)
    # the counterpart formulation is the counterpart of the program at the point
    assert pa.anchor(MPCC_I) == (to_mpcc(e1), mpcc_point_from_eval(e))
    fa = pa.formulation(MPCC_I)
    assert decide_kink_cq(fa, "abadie").status == HOLDS
    assert decide_kink_cq(fa, "guignard").status == HOLDS


def test_anchors_are_built_once_each_from_its_source(e1, e2, monkeypatch):
    import absnormal.cq

    built = []

    def counted(name, real):
        def build(p):
            built.append((name, p))
            return real(p)

        return build

    for name in ("to_slack", "to_mpcc"):
        monkeypatch.setattr(absnormal.cq, name, counted(name, getattr(absnormal.cq, name)))
    pa = analyze_point(e2, [0, 0])
    for _ in range(2):
        for key in FORMULATIONS:
            pa.anchor(key)
            pa.formulation(key)
    assert built == [("to_slack", e2), ("to_mpcc", e2), ("to_mpcc", pa.anchor(ABS_E)[0])]
    # the slack counterpart first: its source, the slack form, is anchored on the way
    built.clear()
    pa = analyze_point(e2, [0, 0])
    mp, point = pa.anchor(MPCC_E)
    slack, se = pa.anchor(ABS_E)
    assert built == [("to_slack", e2), ("to_mpcc", slack)]
    assert (slack, mp) == (to_slack(e2), to_mpcc(to_slack(e2)))
    assert point == mpcc_point_from_eval(se)
    # without inequalities each slack form is anchored as its inequality form:
    # no slack lifting, and one counterpart for both
    built.clear()
    pa = analyze_point(e1, [0, 0])
    anchors = dict(zip(FORMULATIONS, map(pa.anchor, FORMULATIONS)))
    assert built == [("to_mpcc", e1)]
    assert anchors[ABS_E] == anchors[ABS_I] == (to_slack(e1), pa.point_eval)
    assert anchors[MPCC_E] == anchors[MPCC_I] == (to_mpcc(e1), mpcc_point_from_eval(pa.point_eval))


def test_slack_point_needs_one_sign_per_inequality(e1, e2):
    e = evaluate(e2, [0, 0])
    with pytest.raises(ProgramError, match="need one sign per inequality"):
        slack_point(e, (1,))
    with pytest.raises(ProgramError, match="need one sign per inequality"):
        analyze_point(e2, [0, 0], w_signs=(1,)).anchor(ABS_E)
    # a program without inequalities takes no sign: its slack forms are not
    # read as their inequality forms then, so the signs are refused
    for key in (ABS_E, MPCC_E):
        with pytest.raises(ProgramError, match="need one sign per inequality"):
            analyze_point(e1, [0, 0], w_signs=(1,)).anchor(key)
        with pytest.raises(ProgramError, match="need one sign per inequality"):
            analyze_point(e1, [0, 0], w_signs=(1,)).formulation(key)


class GeneralPath(PointAnalysis):
    """A point analysis that derives every formulation from its source."""

    def _twin(self, key):
        return None


def branch_fields(fa):
    return [
        (ba.spec, ba.lin.eq_rows, ba.lin.ineq_rows, ba.tangent_pieces, ba.tangent_source, ba.certificate)
        for ba in fa.branches
    ]


def test_slack_forms_without_inequalities_are_their_inequality_forms(monkeypatch):
    # a program without inequalities reads abs-e and mpcc-e as abs-i and
    # mpcc-i under their own keys: each equals what the derivation from its
    # source builds, field by field, and so does every verdict
    rng = random.Random(40)
    cases = [(pf.program, point.t) for pf in [load_corpus_problem("E1")] for point in pf.points]
    at_origin = []
    while len(at_origin) < 60:
        p = random_affine_program(rng, max_s=3)
        if p.m2 == 0:
            at_origin.append(p)
    at_origin += [kinks_like_program(rng, rng.randint(1, 4)) for _ in range(40)]
    at_origin += [parse_problem_data(qkinks_problem(k, False)).program for k in (1, 2, 3)]
    cases += [(p, zero_vec(p.n_t)) for p in at_origin]
    twins, certified = {ABS_E: ABS_I, MPCC_E: MPCC_I}, 0
    for p, t in cases:
        pa, general = analyze_point(p, t), GeneralPath(p, evaluate(p, t))
        for key, twin in twins.items():
            fa, built = pa.formulation(key), general.formulation(key)
            assert pa.anchor(key) == general.anchor(key)
            assert (fa.key, fa.lin, fa.branches) == (key, pa.formulation(twin).lin, pa.formulation(twin).branches)
            assert fa.lin == built.lin
            assert branch_fields(fa) == branch_fields(built)
            certified += sum(ba.certificate.status == TANGENT_LICQ for ba in fa.branches)
        report, kink, branches = verify_relations(pa)
        assert (report, kink, branches) == verify_relations(general)
        for (which, key), v in kink.items():
            if key in twins:
                assert v == dataclasses.replace(kink[(which, twins[key])], formulation=key)
        assert (branches[ABS_E], branches[MPCC_E]) == (branches[ABS_I], branches[MPCC_I])
    # the qkinks branches are not affine: each certifies its tangent cone by rank
    assert certified == 2 * (2 + 4 + 8)
    # with inequalities, or with annotations, every formulation is derived
    built = []
    analyze = PointAnalysis._analyze

    def counted(pa, key):
        built.append(key)
        return analyze(pa, key)

    monkeypatch.setattr(PointAnalysis, "_analyze", counted)
    for pf in map(load_corpus_problem, ("E2", "E3")):
        for point in pf.points:
            built.clear()
            pa = analyze_point(pf.program, point.t, pf.annotations)
            verify_relations(pa)
            assert sorted(built) == sorted(FORMULATIONS), (pf.name, point.label)


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
        assert report.consistent, [a for a in report.arrows if not a.consistent]


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


def lift_program() -> AbsNormalProgram:
    """``zeta^2 = 0`` with ``z = t1``, and the inequality ``t2 >= 0``."""
    quad = RatMatrix.from_rows([[0] * 3, [0] * 3, [0, 0, 1]])
    return AbsNormalProgram(
        n_t=2,
        s=1,
        m1=1,
        m2=1,
        f=QuadraticFunc.affine(2, 0, [1, 0]),
        c_e=(QuadraticFunc(3, Fraction(0), vec([0, 0, 0]), quad),),
        c_i=(QuadraticFunc.affine(3, 0, [0, 1, 0]),),
        c_z=(QuadraticFunc.affine(3, 0, [1, 0, 0]),),
    )


def lift_annotations() -> dict[str, tuple[PolyCone, ...]]:
    """The tangent cone of both branches at the origin: ``{dt1 = 0, dz = 0, dt2 >= 0}``."""
    piece = PolyCone(3, [[1, 0, 0], [0, 0, 1]], [[0, 1, 0]])
    return {"σ=+": (piece,), "σ=-": (piece,)}


def test_annotation_lift_through_slack_form():
    # a degenerate quadratic program with an inequality: the slack branches
    # cannot self-certify, so the trusted inequality-form tangent must lift
    p = lift_program()
    # feasible set: t1 = 0, t2 >= 0; at the origin the inequality is active.
    # tangent cone of both branches: {dt1 = 0, dz = 0} (t2 free but >= 0 is
    # inactive in the branch since... it *is* active: tangent is
    # {dt1 = 0, dz = 0, dt2 >= 0}
    pa = analyze_point(p, [0, 0], lift_annotations())
    report, kink, _ = verify_relations(pa)
    assert report.consistent, [a for a in report.arrows if not a.consistent]
    assert kink[("abadie", ABS_I)].status == FAILS
    assert kink[("abadie", ABS_E)].status == FAILS
    assert kink[("abadie", MPCC_E)].status == FAILS
    for ba in pa.formulation(ABS_E).branches:
        assert ba.tangent_known
        assert ba.tangent_source.startswith("lift:")


def test_tangent_pieces_are_carried_only_to_branches_that_cannot_certify(e2, e3, monkeypatch):
    import absnormal.cq

    carried = []
    real = absnormal.cq._carry

    def counted(ba, source, how, compose):
        out = real(ba, source, how, compose)
        if out is not ba:
            carried.extend([how] * len(out.tangent_pieces))
        return out

    monkeypatch.setattr(absnormal.cq, "_carry", counted)
    # each formulation is analyzed, and its pieces carried, when first read
    # E2: every branch is affine, so no piece is lifted or transported
    analyses = list(map(analyze_point(e2, [0, 0]).formulation, FORMULATIONS))
    assert carried == []
    assert all(ba.tangent_source == "affine" for fa in analyses for ba in fa.branches)
    # E3: no branch certifies itself, so each takes the annotation along its map
    analyses = list(map(analyze_point(e3, [0, 0], e3_annotations()).formulation, FORMULATIONS))
    assert sorted(carried) == ["lift"] * 2 + ["transport"] * 4
    sources = {fa.key: {ba.tangent_source for ba in fa.branches} for fa in analyses}
    assert sources == {
        ABS_I: {"annotation"},
        ABS_E: {"lift:annotation"},
        MPCC_I: {"transport:annotation"},
        MPCC_E: {"transport:lift:annotation"},
    }


def carried_against_references(p: AbsNormalProgram, pa) -> Counter:
    """Assert that every carried piece of ``pa`` equals its reference, made the
    independent way: ``lift_tangent_piece`` from the constraint Jacobians, or
    ``cone_image`` of the source piece under the branch's split map.  Returns
    the number of pieces checked per kind."""
    checked = Counter()
    i_by_signs = {ba.spec.signs: ba for ba in pa.formulation(ABS_I).branches}
    for ba in pa.formulation(ABS_E).branches:
        if ba.tangent_source.startswith("lift:"):
            z_signs, w_signs = ba.spec.signs[: p.s], ba.spec.signs[p.s :]
            base = i_by_signs[z_signs]
            references = [lift_tangent_piece(p, pa.point_eval, piece, z_signs, w_signs) for piece in base.tangent_pieces]
            assert len(ba.tangent_pieces) == len(references)
            assert all(map(cone_equal, ba.tangent_pieces, references)), ba.label
            checked["lift"] += len(references)
    for anf_key, mpcc_key in ((ABS_I, MPCC_I), (ABS_E, MPCC_E)):
        fa = pa.formulation(mpcc_key)
        for anf_ba, ba in zip(pa.formulation(anf_key).branches, fa.branches, strict=True):
            if ba.tangent_source.startswith("transport:"):
                s = len(ba.spec.signs)
                split = split_direction_matrix(fa.lin.dim - 2 * s, s, ba.spec)
                references = [cone_image(piece, split) for piece in anf_ba.tangent_pieces]
                assert len(ba.tangent_pieces) == len(references)
                assert all(map(cone_equal, ba.tangent_pieces, references)), (mpcc_key, ba.label)
                checked["transport"] += len(references)
    return checked


def test_carried_pieces_equal_their_references(e3, e4):
    for p, annotations, counts in (
        (e3, e3_annotations(), {"lift": 2, "transport": 4}),
        (e4, e4_annotations(), {"lift": 4, "transport": 8}),
        (lift_program(), lift_annotations(), {"lift": 4, "transport": 6}),
    ):
        pa = analyze_point(p, zero_vec(p.n_t), annotations)
        assert carried_against_references(p, pa) == counts


def uncertifiable_program(rng: random.Random) -> AbsNormalProgram:
    """A random affine program plus the equality ``(l . t)^2 = 0`` for a random
    nonzero row ``l``: its gradient vanishes at ``t = 0``, so no branch of any
    formulation is affine or has a full-rank or strictly feasible certificate."""
    p = random_affine_program(rng, rational=True)
    block = p.n_t + p.s
    l = [Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3)) for _ in range(p.n_t)] + [Fraction(0)] * p.s
    square = RatMatrix.from_rows([[a * b for b in l] for a in l])
    return dataclasses.replace(p, m1=p.m1 + 1, c_e=p.c_e + (QuadraticFunc(block, Fraction(0), zero_vec(block), square),))


def random_annotations(p: AbsNormalProgram, rng: random.Random) -> dict[str, tuple[PolyCone, ...]]:
    """One or two pieces of each inequality-form branch's linearized cone:
    the cone cut by a random row, or the hull of some of its generators,
    whose rows need not include the cone's own."""
    lin = linearize_anf(p, evaluate(p, zero_vec(p.n_t)))
    annotations = {}
    for spec in lin.specs():
        cone = lin.cone(spec.signs)
        pieces = []
        for _ in range(rng.randint(1, 2)):
            rays, lineality = cone.generators()
            if rng.random() < 0.5 and rays:
                kept = [vec(r) for r in rays if rng.random() < 0.7]
                eq, ineq = on_rational_rows(generators_to_hrep, cone.dim, kept, lineality)
                pieces.append(PolyCone(cone.dim, tuple(eq), tuple(ineq)))
            else:
                row = [rng.randint(-1, 1) for _ in range(cone.dim)]
                pieces.append(cone.with_rows(**{rng.choice(["eq", "ineq"]): [row]}))
        annotations[spec.label] = tuple(pieces)
    return annotations


def test_carried_pieces_equal_their_references_on_random_programs():
    rng = random.Random(171717)
    total = Counter()
    programs = 0
    while programs < 30:
        p = uncertifiable_program(rng)
        if not evaluate(p, zero_vec(p.n_t)).is_feasible():
            continue
        pa = analyze_point(p, zero_vec(p.n_t), random_annotations(p, rng))
        assert not any(ba.certificate.certified for fa in map(pa.formulation, FORMULATIONS) for ba in fa.branches)
        total += carried_against_references(p, pa)
        programs += 1
    assert total["lift"] >= 100 and total["transport"] >= 200, total

"""Cross-check of the Guignard deciders against a dual H-representation reference.

The reference reads the definition literally: it builds the duals by double
description on the polar and compares them by generator containment.  The
deciders under test compare conic hulls instead.  Both must agree in status,
and every Fails witness must pass the report recheck.
"""

import dataclasses
import functools
import random
import types

from absnormal.cli import _reader, _ser
from absnormal.cones import PolyCone, cone_contains, dual_cone
from absnormal.cq import (
    FAILS,
    CQVerdict,
    FORMULATIONS,
    HOLDS,
    UNKNOWN,
    analyze_point,
    check_branch_cq,
    decide_kink_cq,
    verify_cq_verdict,
)
from absnormal.anf import evaluate
from absnormal.problemfile import load_corpus, parse_problem_data
from absnormal.ratmath import zero_vec

from conftest import qkinks_problem, random_affine_program


@functools.lru_cache(maxsize=None)
def _dual_of_rows(dim: int, eq_rows, ineq_rows) -> PolyCone:
    return dual_cone(PolyCone(dim, eq_rows, ineq_rows))


def _dual(cone: PolyCone) -> PolyCone:
    """``dual_cone``, built once per test run for each distinct cone."""
    return _dual_of_rows(cone.dim, cone.eq_rows, cone.ineq_rows)


def dual_union(cones, dim: int) -> PolyCone:
    """``cones.dual_union``, with each member dual built once per test run."""
    return functools.reduce(PolyCone.intersect, map(_dual, cones), PolyCone.full_space(dim))


def reference_kink_guignard(fa) -> str:
    lin_dual = dual_union([ba.lin for ba in fa.branches], fa.lin.dim)
    if cone_contains(lin_dual, dual_union(fa.lower_members(), fa.lin.dim)):
        return HOLDS
    if not cone_contains(lin_dual, dual_union(fa.upper_members(), fa.lin.dim)):
        return FAILS
    return UNKNOWN


def reference_branch_guignard(ba) -> str:
    if not ba.tangent_known:
        return UNKNOWN
    tangent_dual = dual_union(ba.tangent_pieces, ba.lin.dim)
    return HOLDS if cone_contains(_dual(ba.lin), tangent_dual) else FAILS


def recheck(key: str, verdict, pa) -> list[str]:
    """The recheck errors of ``verdict`` on formulation ``key`` of ``pa``,
    read back from its report entry."""
    entry = _reader(CQVerdict)(_ser(verdict))
    assert entry == verdict
    return verify_cq_verdict(entry, key, pa.formulation)


def assert_agrees(pa, seen: set) -> None:
    for key in FORMULATIONS:
        fa = pa.formulation(key)
        verdict = decide_kink_cq(fa, "guignard")
        assert verdict.status == reference_kink_guignard(fa), (key, verdict)
        assert recheck(key, verdict, pa) == []
        seen.add(("kink", verdict.status))
        branch_verdicts = [check_branch_cq(ba, "gcq") for ba in fa.branches]
        for ba, branch_verdict in zip(fa.branches, branch_verdicts):
            assert branch_verdict.status == reference_branch_guignard(ba), (key, ba.label, branch_verdict)
            assert recheck(key, branch_verdict, pa) == []
            seen.add(("branch", branch_verdict.status))
        # given the branch verdicts, the kink decider skips each branch that
        # holds, with the same verdict and witness
        assert decide_kink_cq(fa, "guignard", branch_verdicts) == verdict, key


def _small_row(rng: random.Random, dim: int):
    return [rng.randint(-1, 1) for _ in range(dim)]


def with_trusted_knowledge(pa, rng: random.Random):
    """The same point with some branches uncertified and some annotated by
    pieces of their linearized cone (cut by a hyperplane or a halfspace each),
    as a stand-in that reads only ``formulation(key)``."""
    formulations = {}
    for key in FORMULATIONS:
        fa = pa.formulation(key)
        branches = []
        for ba in fa.branches:
            roll = rng.random()
            if roll < 0.25:
                ba = dataclasses.replace(ba, tangent_pieces=None, tangent_source=None)
            elif roll < 0.6:
                pieces = []
                for _ in range(rng.randint(1, 2)):
                    row = _small_row(rng, fa.lin.dim)
                    cut = {"eq": [row]} if rng.random() < 0.5 else {"ineq": [row]}
                    pieces.append(ba.lin.with_rows(**cut))
                ba = dataclasses.replace(ba, tangent_pieces=tuple(pieces), tangent_source="annotation")
            branches.append(ba)
        formulations[key] = dataclasses.replace(fa, branches=tuple(branches))
    return types.SimpleNamespace(formulation=formulations.__getitem__)


def test_guignard_agrees_with_dual_reference_on_corpus():
    seen: set = set()
    for pf in load_corpus():
        for point in pf.points:
            assert_agrees(analyze_point(pf.program, point.t, pf.annotations), seen)
    assert {("kink", HOLDS), ("kink", FAILS), ("branch", HOLDS), ("branch", FAILS)} <= seen


def test_guignard_agrees_with_dual_reference_on_random_affine_programs():
    rng = random.Random(737373)
    seen: set = set()
    checked = 0
    while checked < 60:
        p = random_affine_program(rng)
        t0 = zero_vec(p.n_t)
        if not evaluate(p, t0).is_feasible():
            continue
        pa = analyze_point(p, t0)
        assert_agrees(pa, seen)
        assert_agrees(with_trusted_knowledge(pa, rng), seen)
        checked += 1
    for level in ("kink", "branch"):
        assert {(level, HOLDS), (level, FAILS), (level, UNKNOWN)} <= seen


def test_guignard_agrees_with_dual_reference_on_qkinks():
    # no formulation is affine, so every branch certifies its own tangent cone
    seen: set = set()
    for inequalities in (False, True):
        pf = parse_problem_data(qkinks_problem(2, inequalities))
        assert_agrees(analyze_point(pf.program, pf.points[0].t), seen)
    assert seen == {("kink", HOLDS), ("branch", HOLDS)}

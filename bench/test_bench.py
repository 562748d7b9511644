"""Tests of the benchmark itself: generated inputs, hand answers, failure
accounting and tracer bindings.

Run from the repository root:  PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import pytest

import absnormal.cli
import absnormal.cq
import absnormal.ratmath
import absnormal.stationarity
import kinks
import run
import workloads
from absnormal.problemfile import parse_problem
from speed import Speed
from tracer import Tracer


def _all_variants(rng: random.Random):
    for k in (1, 2, 3, 4, 5):
        for sign in (1, -1):
            for inequalities in (False, True):
                yield kinks.draw(rng, k, sign, inequalities)


@pytest.mark.parametrize("inst", list(_all_variants(random.Random(0))), ids=lambda inst: inst.name)
def test_generated_files_load(tmp_path, inst):
    pf = parse_problem(workloads.write_problem(inst, tmp_path))
    p = pf.program
    assert (p.n_t, p.s, p.m1, p.m2) == (inst.k + 1, inst.k, 1, 2 if inst.inequalities else 0)
    assert [point.label for point in pf.points] == ["origin"]
    assert all(x == 0 for x in pf.points[0].t)


def test_same_seed_same_instances(tmp_path):
    def names(seed):
        w = workloads.Workload("kinks-cq", seed, run.SRC, tmp_path)
        return [op.argv[1] for op in w.cycle(0) + w.cycle(1)]

    assert names(5) == names(5)
    assert names(5) != names(6)
    assert len(set(names(5))) == 2 * len(workloads.KINKS_CQ_CYCLE)


def test_hand_answers_k1():
    # c*t2 = b*|z| with z = a*t1: lam_e = sign/c, lam_z = 0, mu_u = mu_v = sign*b/c
    inst = kinks.Kinks(a=(2,), b=(3,), c=2, sign=1, inequalities=False)
    assert kinks.expected_multipliers(inst) == {
        "lam_e": ["1/2"],
        "lam_i": [],
        "lam_z": ["0"],
        "mu_u": ["3/2"],
        "mu_v": ["3/2"],
    }
    assert kinks.stationarity_status(inst) == "holds"
    maximize = kinks.Kinks(a=(2,), b=(3,), c=2, sign=-1, inequalities=True)
    assert kinks.expected_multipliers(maximize) is None
    assert kinks.expected_multipliers(kinks.Kinks((2,), (3,), 2, -1, False))["mu_u"] == ["-3/2"]
    assert kinks.stationarity_status(maximize) == "fails"
    assert kinks.expected_branch_counts(maximize) == {"abs-i": 2, "mpcc-i": 2, "abs-e": 8, "mpcc-e": 8}


K1_CASES = [
    (command, sign, inequalities)
    for command in ("check-cq", "verify-relations", "check-stationarity")
    for sign in (1, -1)
    for inequalities in (False, True)
]


@pytest.mark.parametrize("command,sign,inequalities", K1_CASES)
def test_k1_answers_match_the_tool(tmp_path, command, sign, inequalities):
    inst = kinks.Kinks(a=(-3,), b=(2,), c=3, sign=sign, inequalities=inequalities)
    op = workloads.kinks_op(command, inst, workloads.write_problem(inst, tmp_path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = absnormal.cli.main(list(op.argv))
    assert code == op.exit_code
    assert op.check(json.loads(out.getvalue())) == []


def test_checks_reject_a_wrong_verdict(tmp_path):
    inst = kinks.Kinks(a=(1,), b=(1,), c=1, sign=1, inequalities=False)
    op = workloads.kinks_op("check-stationarity", inst, workloads.write_problem(inst, tmp_path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        absnormal.cli.main(list(op.argv))
    report = json.loads(out.getvalue())
    report["points"][0]["stationarity"]["b-mpcc"]["status"] = "fails"
    report["recheck"]["errors"] = ["forged"]
    assert op.check(report) == ["recheck: forged", "b-mpcc: got 'fails', expected 'holds'"]


class _Raising:
    @staticmethod
    def main(argv):
        raise RuntimeError("3^20 multiplier case combinations exceed the cap")


class _WrongExit:
    @staticmethod
    def main(argv):
        print("{}")
        return 2


def test_failures_are_counted_not_raised():
    op = workloads.Op(("check-stationarity", "x.json"), 0, lambda report: [])
    loop = run.Loop(_Raising, Speed())
    assert loop.run_op(op) == b""
    loop.cli = _WrongExit
    loop.run_op(op)
    assert len(loop.timings) == 2
    assert loop.failures == [
        ("check-stationarity x", "raised RuntimeError: 3^20 multiplier case combinations exceed the cap"),
        ("check-stationarity x", "exit 2, expected 0"),
    ]


def test_tracer_rebinds_import_site_copies():
    original = absnormal.ratmath.lp_solve
    tracer = Tracer()
    tracer.install()
    try:
        # stationarity and cones hold their own copies of lp_solve
        assert absnormal.stationarity.lp_solve is not original
        assert absnormal.cq.dual_cone is absnormal.cones.dual_cone
    finally:
        tracer.uninstall()
    assert absnormal.stationarity.lp_solve is original
    assert tracer.idle_layers("kinks-stat") == ["lp"]

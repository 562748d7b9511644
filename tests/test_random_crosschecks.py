"""Randomized bug hunting: theorem cross-checks on generated affine programs.

Random affine programs keep every branch certificate decidable, so the
relation checker and the stationarity equivalences must be fully decisive on
them; any Unknown or inconsistency here is an implementation bug.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from absnormal.anf import evaluate
from absnormal.cones import PolyCone, dual_cone
from absnormal.cq import MPCC_I, UNKNOWN, analyze_point, verify_relations
from absnormal.ratmath import vec, zero_vec
from absnormal.stationarity import (
    check_b_stationary,
    check_m_stationary_anf,
    check_m_stationary_mpcc,
)
from absnormal.transforms import to_mpcc

from branch_oracles import cone_equal
from conftest import random_affine_program


def test_relations_and_stationarity_on_random_affine_programs():
    rng = random.Random(424242)
    checked = 0
    while checked < 40:
        p = random_affine_program(rng)
        t0 = zero_vec(p.n_t)
        e = evaluate(p, t0)
        if not e.is_feasible():
            continue
        pa = analyze_point(p, t0)
        report, kink, branch_verdicts = verify_relations(pa)
        assert report.consistent, [a for a in report.arrows if not a.consistent]
        for verdicts in kink.values():
            assert verdicts.status != UNKNOWN  # affine: always decisive
        mp, mpcc_point = pa.anchor(MPCC_I)
        m_anf = check_m_stationary_anf(p, e)
        m_mpcc = check_m_stationary_mpcc(mp, mpcc_point)
        assert m_anf.status == m_mpcc.status
        b_anf = check_b_stationary(p, e)
        b_mpcc = check_b_stationary(mp, mpcc_point)
        assert b_anf.status == b_mpcc.status
        checked += 1


def test_slack_sign_choice_never_changes_verdicts():
    rng = random.Random(515151)
    checked = 0
    while checked < 10:
        p = random_affine_program(rng)
        if p.m2 == 0:
            continue
        t0 = zero_vec(p.n_t)
        e = evaluate(p, t0)
        if not e.is_feasible():
            continue
        baselines = None
        for trial in range(3):
            signs = tuple(rng.choice([1, -1]) for _ in range(p.m2))
            pa = analyze_point(p, t0, w_signs=signs)
            _, kink, _ = verify_relations(pa)
            statuses = {key: v.status for key, v in kink.items()}
            if baselines is None:
                baselines = statuses
            else:
                assert statuses == baselines
        checked += 1


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=0, max_size=5
    ),
    st.integers(min_value=0, max_value=2),
)
def test_biduality_property(rows, n_eq):
    n_eq = min(n_eq, len(rows))
    cone = PolyCone(3, rows[:n_eq], rows[n_eq:])
    assert cone_equal(dual_cone(dual_cone(cone)), cone)

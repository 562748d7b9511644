from fractions import Fraction

import pytest

from absnormal.anf import (
    AbsNormalProgram,
    ProgramError,
    QuadraticFunc,
    evaluate,
    validate,
)
from absnormal.ratmath import RatMatrix, rat, vec
from absnormal.transforms import branch_specs, parse_branch_label

from branch_oracles import constraint_jacobians, jacobian_z
from conftest import affine, make_e1, make_e2, make_e3


def test_validate_corpus_program_clean(e1):
    assert validate(e1) == []


def test_validate_flags_triangularity_violation():
    # c_z[0] depending on zeta[0] breaks the strictly-lower-triangular solve
    p = AbsNormalProgram(
        n_t=1,
        s=1,
        m1=0,
        m2=0,
        f=affine(1, 0, [0]),
        c_e=(),
        c_i=(),
        c_z=(affine(2, 0, [1, 1]),),
    )
    issues = validate(p)
    assert any("triangularity" in msg for msg in issues)


def test_validate_flags_asymmetric_quadratic():
    quad = RatMatrix.from_rows([[0, 1], [0, 0]])
    p = AbsNormalProgram(
        n_t=1,
        s=1,
        m1=1,
        m2=0,
        f=affine(1, 0, [0]),
        c_e=(QuadraticFunc(2, Fraction(0), vec([0, 0]), quad),),
        c_i=(),
        c_z=(affine(2, 0, [1, 0]),),
    )
    assert any("asymmetric" in msg for msg in validate(p))


def test_eval_e1_origin(e1):
    e = evaluate(e1, [0, 0])
    assert e.z == vec([0])
    assert e.sigma == (0,)
    assert e.alpha == (0,)
    assert e.is_feasible()


def test_eval_e1_definite_point(e1):
    e = evaluate(e1, [2, 2])
    assert e.z == vec([2])
    assert e.sigma == (1,)
    assert e.alpha == ()
    assert e.residual_e == vec([0])  # t2 - |z| = 2 - 2


def test_eval_e2_origin(e2):
    e = evaluate(e2, [0, 0])
    assert e.z == vec([0])
    assert e.alpha == (0,)
    assert e.active_i == (0, 1)


def test_eval_solves_switching_system_exactly(e1, e2, e3):
    for p, pts in (
        (e1, [[2, 2], ["-1/3", "1/3"], [5, 7]]),
        (e2, [[1, 0], ["2/7", "2/7"]]),
        (e3, [[0, 4]]),
    ):
        for t in pts:
            e = evaluate(p, t)
            block = e.t + e.abs_z
            for i in range(p.s):
                assert p.c_z[i].value(block) == e.z[i]


def test_chained_switching_forward_substitution():
    # z1 = t1, z2 = zeta1: at t1 > 0 both - the triangular solve chains values
    p = AbsNormalProgram(
        n_t=1,
        s=2,
        m1=0,
        m2=0,
        f=affine(1, 0, [0]),
        c_e=(),
        c_i=(),
        c_z=(affine(3, 0, [1, 0, 0]), affine(3, 0, [0, 1, 0])),
    )
    e = evaluate(p, [3])
    assert e.z == vec([3, 3])
    jac = jacobian_z(p, e, (1, 1))
    assert jac.rows[1] == jac.rows[0]  # second row repeats the first


def test_jacobian_z_e1(e1):
    e = evaluate(e1, [0, 0])
    jac = jacobian_z(e1, e, (1,))
    assert jac.rows == (vec([1, 0]),)


def test_jacobian_z_requires_dominating_definite_signature(e1):
    e = evaluate(e1, [2, 2])  # sigma = (+1)
    with pytest.raises(ProgramError):
        jacobian_z(e1, e, (-1,))
    e0 = evaluate(e1, [0, 0])
    with pytest.raises(ProgramError):
        jacobian_z(e1, e0, (0,))


def test_constraint_jacobians_e1_origin(e1):
    e = evaluate(e1, [0, 0])
    jac = constraint_jacobians(e1, e)
    assert jac.d1_ce.rows == (vec([0, 1]),)
    assert jac.d2_ce.rows == (vec([-1]),)


def test_constraint_jacobians_affine_point_independent(e2):
    j0 = constraint_jacobians(e2, evaluate(e2, [0, 0]))
    j1 = constraint_jacobians(e2, evaluate(e2, [3, 0]))
    assert j0 == j1


def test_constraint_jacobians_quadratic_vanishes_at_origin(e3):
    e = evaluate(e3, [0, 0])
    jac = constraint_jacobians(e3, e)
    assert jac.d2_ce.rows == (vec([0]),)  # derivative 2*zeta at zeta = 0


def test_jacobian_matches_difference_quotient_on_affine_program(e2):
    # affine switching: the fixed-signature solve is linear, so the Jacobian
    # equals the difference quotient along any rational direction exactly
    e = evaluate(e2, [3, 1])  # sigma = (+1)
    jac = jacobian_z(e2, e, e.sigma)
    h = rat("1/7")
    for direction in ([1, 0], [0, 1], [2, "1/3"]):
        d = vec(direction)
        shifted = evaluate(e2, tuple(a + h * b for a, b in zip(e.t, d)))
        quotient = tuple((zn - zo) / h for zn, zo in zip(shifted.z, e.z))
        assert quotient == jac.mat_vec(d)


def test_signature_constant_on_box_around_definite_point(e1):
    # at a definite point some rational box keeps the signature constant
    e = evaluate(e1, [2, 2])
    eps = rat("1/2")
    for dx in (-eps, 0, eps):
        for dy in (-eps, 0, eps):
            shifted = evaluate(e1, (e.t[0] + dx, e.t[1] + dy))
            assert shifted.sigma == e.sigma


def test_abs_z_equals_signed_z_for_dominating_signature(e1):
    for t in ([2, 2], ["-3/2", "3/2"], [0, 0]):
        e = evaluate(e1, t)
        for spec in branch_specs("signature", e.sigma):
            assert all(
                Fraction(sg) * z == abs_z
                for sg, z, abs_z in zip(spec.signs, e.z, e.abs_z)
            )


def test_signature_partial_order():
    # the branches at an anchor are the definite signatures dominating it
    base = (0, 1, -1)
    assert [spec.signs for spec in branch_specs("signature", base)] == [(1, 1, -1), (-1, 1, -1)]
    assert parse_branch_label("σ=+--", "signature", base) is None

import dataclasses
import random
from fractions import Fraction

import pytest

from absnormal import cones as cones_module
from absnormal.anf import AbsNormalProgram, QuadraticFunc, evaluate
from absnormal.cones import (
    PolyCone,
    TANGENT_AFFINE,
    TANGENT_LICQ,
    TANGENT_MFCQ,
    TANGENT_UNKNOWN,
    cone_contains,
    dual_cone,
    dual_union,
    linearize_anf,
    linearize_mpcc,
    tangent_cone_branch,
    union_covers,
)
from absnormal.cq import FORMULATIONS, analyze_point
from absnormal.problemfile import parse_problem_data
from absnormal.ratmath import RatMatrix, primitive_integer, vec, zero_vec
from absnormal.transforms import (
    mpcc_point_from_eval,
    phi_inv,
    slack_point,
    to_mpcc,
    to_slack,
)

from branch_oracles import (
    UnionCone,
    anf_branches,
    branch_is_affine,
    branch_union,
    compl_cone,
    cone_equal,
    cone_image,
    eager_branch_rows,
    lin_cone_abs_direct,
    lin_cone_branch,
    lin_cone_mpcc_direct,
    mpcc_branches,
    split_direction,
    split_direction_matrix,
    union_from_branches,
)
from conftest import affine, make_e2, make_e3, make_e4, qkinks_problem, random_affine_program


def cone(dim, eq=(), ineq=()):
    return PolyCone(dim, map(vec, eq), map(vec, ineq))


def zero_cone(dim):
    return PolyCone(dim, [[int(i == j) for j in range(dim)] for i in range(dim)])


def test_lin_cone_e1_positive_branch(e1):
    e = evaluate(e1, [0, 0])
    plus = anf_branches(e1, e)[0]
    c = lin_cone_branch(plus)
    # {dt2 - dz = 0, dt1 - dz = 0 (as dz - dt1 = 0 up to sign), dz >= 0}
    expected = cone(3, eq=[[0, 1, -1], [1, 0, -1]], ineq=[[0, 0, 1]])
    assert cone_equal(c, expected)


def test_lin_cone_unconstrained_branch_is_full_space():
    from absnormal.anf import AbsNormalProgram

    from conftest import affine

    p = AbsNormalProgram(n_t=2, s=0, m1=0, m2=0, f=affine(2, 0, [1, 0]), c_e=(), c_i=(), c_z=())
    e = evaluate(p, [1, 2])
    (b,) = anf_branches(p, e)
    c = lin_cone_branch(b)
    assert cone_equal(c, PolyCone.full_space(2))


def test_lin_cone_e3_quadratic_row_vanishes(e3):
    e = evaluate(e3, [0, 0])
    for b in anf_branches(e3, e):
        c = lin_cone_branch(b)
        sign = 1 if b.label == "σ=+" else -1
        expected = cone(3, eq=[[0, 0, 0], [1, 0, -1]], ineq=[[0, 0, sign]])
        assert cone_equal(c, expected)


def test_lin_cone_abs_direct_matches_branch_union(e1, e2, e3, e4):
    for p, t in ((e1, [0, 0]), (e1, [2, 2]), (e2, [0, 0]), (e3, [0, 0]), (e4, [0, 0])):
        e = evaluate(p, t)
        direct = lin_cone_abs_direct(p, e)
        via_branches = union_from_branches(anf_branches(p, e))
        for (_, a), (_, b) in zip(direct.members, via_branches.members, strict=True):
            assert cone_equal(a, b)
        assert branch_union(linearize_anf(p, e)) == via_branches


def test_lin_cone_mpcc_direct_matches_branch_union(e1, e2, e3, e4):
    for p, t in ((e1, [0, 0]), (e2, [0, 0]), (e3, [0, 0]), (e4, [0, 0])):
        e = evaluate(p, t)
        mp = to_mpcc(p)
        point = mpcc_point_from_eval(e)
        direct = lin_cone_mpcc_direct(mp, point)
        via_branches = union_from_branches(mpcc_branches(mp, point))
        for (_, a), (_, b) in zip(direct.members, via_branches.members, strict=True):
            assert cone_equal(a, b)
        assert branch_union(linearize_mpcc(mp, point)) == via_branches


def test_compl_cone_l_shape():
    point = phi_inv(vec([]), vec([0]))
    u = compl_cone(point)
    assert [label for label, _ in u.members] == ["P={}", "P={1}"]
    first, second = u.cones
    assert cone_equal(first, cone(2, eq=[[0, 1]], ineq=[[1, 0]]))
    assert cone_equal(second, cone(2, eq=[[1, 0]], ineq=[[0, 1]]))


def test_compl_cone_inactive_pair_single_piece():
    point = phi_inv(vec([]), vec([3]))
    u = compl_cone(point)
    assert len(u.members) == 1
    # du free, dv = 0
    assert cone_equal(u.cones[0], cone(2, eq=[[0, 1]]))


def test_tangent_affine_branches(e1):
    e = evaluate(e1, [0, 0])
    lin = linearize_anf(e1, e)
    for b in anf_branches(e1, e):
        c, cert = tangent_cone_branch(lin.cone(b.spec.signs), branch_is_affine(b))
        assert cert.status == TANGENT_AFFINE
        assert cone_equal(c, lin_cone_branch(b))


def test_tangent_unknown_for_degenerate_quadratic(e3):
    e = evaluate(e3, [0, 0])
    for b in anf_branches(e3, e):
        c, cert = tangent_cone_branch(lin_cone_branch(b), branch_is_affine(b))
        assert c is None
        assert cert.status == TANGENT_UNKNOWN


def test_tangent_licq_branch():
    from absnormal.anf import AbsNormalProgram, QuadraticFunc
    from absnormal.ratmath import RatMatrix
    from fractions import Fraction

    from conftest import affine

    # c_e = t1 + t2^2 = 0 (gradient (1, 2 t2) independent at the origin)
    quad = RatMatrix.from_rows([[0, 0], [0, 1]])
    p = AbsNormalProgram(
        n_t=2,
        s=0,
        m1=1,
        m2=0,
        f=affine(2, 0, [0, 1]),
        c_e=(QuadraticFunc(2, Fraction(0), vec([1, 0]), quad),),
        c_i=(),
        c_z=(),
    )
    e = evaluate(p, [0, 0])
    (b,) = anf_branches(p, e)
    c, cert = tangent_cone_branch(lin_cone_branch(b), branch_is_affine(b))
    assert cert.status == TANGENT_LICQ
    assert c is not None


def test_tangent_mfcq_branch():
    from absnormal.anf import AbsNormalProgram, QuadraticFunc
    from absnormal.ratmath import RatMatrix
    from fractions import Fraction

    from conftest import affine

    # two active inequalities t1 - t2^2 >= 0 and t1 + t2^2 >= 0: gradients both
    # (1, 0) at the origin (rank 1 of 2 rows, LICQ fails) but d = (1, 0) is a
    # strictly feasible direction
    qplus = RatMatrix.from_rows([[0, 0], [0, 1]])
    qminus = RatMatrix.from_rows([[0, 0], [0, -1]])
    p = AbsNormalProgram(
        n_t=2,
        s=0,
        m1=0,
        m2=2,
        f=affine(2, 0, [1, 0]),
        c_e=(),
        c_i=(
            QuadraticFunc(2, Fraction(0), vec([1, 0]), qminus),
            QuadraticFunc(2, Fraction(0), vec([1, 0]), qplus),
        ),
        c_z=(),
    )
    e = evaluate(p, [0, 0])
    (b,) = anf_branches(p, e)
    c, cert = tangent_cone_branch(lin_cone_branch(b), branch_is_affine(b))
    assert cert.status == TANGENT_MFCQ
    assert cert.strict_point is not None
    assert c is not None


def test_tangent_cone_branch_skips_the_rank_test_of_a_tall_branch(monkeypatch):
    # a branch with more rows than columns cannot have full row rank, so no
    # rank test runs on all its rows; the strict LP certifies it all the same
    real = cones_module.integer_rank
    ranked = []

    def recorded(work, cols):
        ranked.append(len(work))
        return real(work, cols)

    monkeypatch.setattr(cones_module, "integer_rank", recorded)
    pf = parse_problem_data(qkinks_problem(2, True))
    pa = analyze_point(pf.program, pf.points[0].t)
    tall = 0
    for key in FORMULATIONS:
        lin = pa.formulation(key).lin
        for spec in lin.specs():
            branch = lin.cone(spec.signs)
            rows = len(branch.eq_rows) + len(branch.ineq_rows)
            ranked.clear()
            _, cert = tangent_cone_branch(branch, lin.affine)
            assert cert.status == TANGENT_MFCQ, (key, spec.label)
            if rows > branch.dim:
                tall += 1
                assert ranked == [len(branch.eq_rows)], (key, spec.label)
    assert tall


def test_dual_of_full_space_is_zero():
    assert cone_equal(dual_cone(PolyCone.full_space(3)), zero_cone(3))


def test_dual_of_orthant_is_orthant():
    orthant = cone(2, ineq=[[1, 0], [0, 1]])
    assert cone_equal(dual_cone(orthant), orthant)


def test_dual_of_l_shaped_union_is_orthant():
    leg_a = cone(2, eq=[[0, 1]], ineq=[[1, 0]])  # {(a, 0): a >= 0}
    leg_b = cone(2, eq=[[1, 0]], ineq=[[0, 1]])  # {(0, b): b >= 0}
    union = UnionCone((("a", leg_a), ("b", leg_b)))
    orthant = cone(2, ineq=[[1, 0], [0, 1]])
    assert cone_equal(dual_union(union.cones, union.dim), orthant)


def test_dual_union_contained_in_member_duals():
    leg_a = cone(2, eq=[[0, 1]], ineq=[[1, 0]])
    leg_b = cone(2, eq=[[1, 0]], ineq=[[0, 1]])
    du = dual_union([leg_a, leg_b], 2)
    for member in (leg_a, leg_b):
        assert cone_contains(dual_cone(member), du)


def test_biduality_on_small_cones():
    cones = [
        cone(2, ineq=[[1, 0], [0, 1]]),
        cone(3, eq=[[1, 1, -1]], ineq=[[1, 0, 0]]),
        cone(2, eq=[[1, 0], [0, 1]]),
        PolyCone.full_space(4),
        cone(3, ineq=[[1, 2, 3], [-1, 0, 1], [0, 1, 0]]),
    ]
    for c in cones:
        assert cone_equal(dual_cone(dual_cone(c)), c)


def test_cone_contains_self_and_union_covers_self():
    c = cone(2, ineq=[[1, 0], [0, 1], [1, -1]])
    assert cone_contains(c, c)
    ok, witness = union_covers([c], c)
    assert ok and witness is None


def test_union_covers_orthant_by_l_shape_fails_with_witness():
    leg_a = cone(2, eq=[[0, 1]], ineq=[[1, 0]])
    leg_b = cone(2, eq=[[1, 0]], ineq=[[0, 1]])
    orthant = cone(2, ineq=[[1, 0], [0, 1]])
    ok, witness = union_covers([leg_a, leg_b], orthant)
    assert not ok
    # witness must be in the orthant and outside both legs; (1,1) works
    assert orthant.contains(witness)
    assert not leg_a.contains(witness) and not leg_b.contains(witness)


def test_union_covers_by_deciding_both_halves_of_a_split():
    # no member holds the target, and the first half of a split is covered,
    # so the second half decides
    halves = [cone(2, ineq=[[1, 0]]), cone(2, ineq=[[-1, 0]])]
    assert union_covers(halves, cone(2)) == (True, None)
    sectors = [
        cone(2, ineq=[[0, 1], [1, -1]]),
        cone(2, ineq=[[-1, 1], [1, 1]]),
        cone(2, ineq=[[0, 1], [-1, -1]]),
    ]
    assert union_covers(sectors, cone(2, ineq=[[0, 1]])) == (True, None)


def test_union_covers_member_containment(e1):
    e = evaluate(e1, [0, 0])
    union = union_from_branches(anf_branches(e1, e))
    # the half-plane {dt2 = dt1 >= 0, dz = dt1} is the first member itself
    target = cone(3, eq=[[1, -1, 0], [1, 0, -1]], ineq=[[1, 0, 0]])
    ok, _ = union_covers(union.cones, target)
    assert ok


def test_union_covers_whole_lin_cone_by_tangent_lines_fails(e4):
    # hand computation: branch lin cone {dt1 = dz >= 0} is not covered by the
    # two tangent lines/rays, witness direction (1, 1, 1)
    from conftest import e4_annotations

    pieces = list(e4_annotations()["σ=+"]) + list(e4_annotations()["σ=-"])
    target = cone(3, eq=[[1, 0, -1]], ineq=[[1, 0, 0]])
    ok, witness = union_covers(pieces, target)
    assert not ok
    assert target.contains(witness)
    for piece in pieces:
        assert not piece.contains(witness)


def test_cone_image_maps_branch_cone_between_forms(e1):
    # the split-direction matrix carries the abs-form branch cone onto the
    # counterpart branch cone (generator transport both ways)
    e = evaluate(e1, [0, 0])
    mp = to_mpcc(e1)
    point = mpcc_point_from_eval(e)
    for ab, mb in zip(anf_branches(e1, e), mpcc_branches(mp, point)):
        anf_cone = lin_cone_branch(ab)
        mpcc_cone = lin_cone_branch(mb)
        m = split_direction_matrix(mp.n_x, mp.s, mb.spec)
        assert cone_equal(cone_image(anf_cone, m), mpcc_cone)
        for d in (vec([1, 2, -3]), vec(["1/2", 0, "5/3"])):
            # on a definite signature the piecewise linear split is the matrix's
            dx, du, dv = split_direction(d[: mp.n_x], d[mp.n_x :], mb.spec.signs)
            assert dx + du + dv == m.mat_vec(d)


def test_generators_call_the_module_kernel_once_per_distinct_cone(monkeypatch):
    # the benchmark tracer counts double descriptions by rebinding the module
    # attribute cones.cone_generators, so the generator cache must call that
    # attribute on every miss and nothing on a hit
    calls = []
    kernel = cones_module.cone_generators

    def counting(dim, eq, ineq):
        calls.append(dim)
        return kernel(dim, eq, ineq)

    monkeypatch.setattr(cones_module, "cone_generators", counting)
    cones_module._generators_cached.cache_clear()
    first = cone(3, eq=[[1, 1, 0]], ineq=[[1, 0, 0], [0, "1/2", 1]])
    generators = first.generators()
    assert calls == [3]
    second = cone(3, eq=[[1, 1, 0]], ineq=[[1, 0, 0], [0, "1/2", 1]])
    assert second is not first and second == first
    assert second.generators() == generators
    assert calls == [3]


def test_zero_cone_is_covered_by_anything():
    z = zero_cone(3)
    c = cone(3, ineq=[[1, 1, 1]])
    ok, witness = union_covers([c], z)
    assert ok and witness is None
    assert z.generators() == ((), ())


# -- the per-point linearization against the built branch problems ------------


def linearizations(p, e):
    """Both forms' linearizations at the point, each with the branch problems
    that ``transforms`` builds for it."""
    mp, point = to_mpcc(p), mpcc_point_from_eval(e)
    return [
        (linearize_anf(p, e), anf_branches(p, e)),
        (linearize_mpcc(mp, point), mpcc_branches(mp, point)),
    ]


def assert_rows_of_built_branches(p, e) -> int:
    """Every branch cone and the objective gradient of each linearization
    equal, as tuples, those read off the built branch problem; returns the
    number of branches compared."""
    count = 0
    for lin, branches in linearizations(p, e):
        specs = list(lin.specs())
        assert specs == [b.spec for b in branches]
        for spec, b in zip(specs, branches):
            ref = lin_cone_branch(b)
            got = lin.cone(spec.signs)
            assert (got.dim, got.eq_rows, got.ineq_rows) == (ref.dim, ref.eq_rows, ref.ineq_rows), b.label
            assert lin.gradient == b.objective.gradient(b.anchor)
            assert (lin.n_eq, lin.n_ineq) == (len(ref.eq_rows), len(ref.ineq_rows))
            assert lin.affine == branch_is_affine(b), b.label
            count += 1
    return count


def with_slack_form(p, e):
    slack = to_slack(p)
    return [(p, e), (slack, evaluate(slack, slack_point(e)))]


def with_random_quadratics(rng, p):
    """``p`` with a random symmetric quadratic term on each equality and
    inequality row, shifted so that every row keeps its value at t = 0."""
    base = zero_vec(p.n_t) + evaluate(p, zero_vec(p.n_t)).abs_z
    dim = p.block_dim

    def bump(func):
        entries = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                entries[i][j] = entries[j][i] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        quad = RatMatrix.from_rows(entries, dim)
        shift = sum(x * y for x, y in zip(base, quad.mat_vec(base)))
        return QuadraticFunc(dim, func.constant - shift, func.linear, quad)

    return dataclasses.replace(p, c_e=tuple(map(bump, p.c_e)), c_i=tuple(map(bump, p.c_i)))


def test_linearization_rows_equal_built_branches_on_corpus_and_quadratic_points():
    from absnormal.problemfile import load_corpus

    points = [(pf.program, pt.t) for pf in load_corpus() for pt in pf.points]
    # E3/E4 away from the origin, where their quadratic rows have nonzero gradients
    e3, e4 = make_e3(), make_e4()
    points += [(e3, [0, 5]), (e3, [0, -2]), (e4, [0, 3]), (e4, [2, 0]), (e4, [-2, 0])]
    compared = 0
    for p, t in points:
        for q, qe in with_slack_form(p, evaluate(p, t)):
            compared += assert_rows_of_built_branches(q, qe)
    assert compared >= 60


def test_linearization_rows_equal_built_branches_on_random_programs():
    rng = random.Random(271828)
    checked = degenerate = quadratic = 0
    while checked < 60:
        p = random_affine_program(rng, max_s=3)
        if checked % 2:
            p = with_random_quadratics(rng, p)
        e = evaluate(p, zero_vec(p.n_t))
        if not e.is_feasible():
            continue
        for q, qe in with_slack_form(p, e):
            assert_rows_of_built_branches(q, qe)
        checked += 1
        degenerate += len(e.alpha) > 0
        quadratic += any(not f.is_affine() for f in p.c_e + p.c_i)
    assert degenerate >= 20 and quadratic >= 20


def assert_rows_made_on_first_read(p, e) -> int:
    """Every branch cone of both forms' linearizations at the point, against
    the eager builder: its rows, made on first read, are the primitive
    integer rows of the eager rows, plain ints, and equal those of a cone
    built from the eager rows; ``BranchLinearization.rows`` are the eager
    rows, types included.  Returns the number of rows with a fraction."""
    fractional = 0
    for lin, _ in linearizations(p, e):
        for spec in lin.specs():
            ref = eager_branch_rows(lin, spec.signs)
            primitive = tuple(tuple(map(primitive_integer, rows)) for rows in ref)
            cone = lin.cone(spec.signs)
            assert (cone.eq_rows, cone.ineq_rows) == primitive, spec.label
            assert all(type(x) is int for rows in primitive for row in rows for x in row)
            assert repr(lin.rows(spec.signs)) == repr(ref), spec.label
            assert cone == PolyCone(lin.dim, *ref)
            fractional += sum(any(x.denominator > 1 for x in row) for row in ref[0] + ref[1])
    return fractional


def test_rows_made_on_first_read_equal_the_eager_rows_at_fractional_gradients():
    # E2 has the coefficients 1/2; E4's quadratic 1/2 gives fractional
    # gradients away from the origin
    e2, e4 = make_e2(), make_e4()
    points = [(e2, [0, 0]), (e2, [0, 2]), (e2, [3, 0])]
    points += [(e4, [0, Fraction(1, 3)]), (e4, [Fraction(1, 2), 0]), (e4, [0, 0])]
    fractional = 0
    for p, t in points:
        for q, qe in with_slack_form(p, evaluate(p, t)):
            fractional += assert_rows_made_on_first_read(q, qe)
    rng = random.Random(1616)
    checked = 0
    while checked < 60:
        p = random_affine_program(rng, max_s=3, rational=True)
        e = evaluate(p, zero_vec(p.n_t))
        if not e.is_feasible():
            continue
        for q, qe in with_slack_form(p, e):
            fractional += assert_rows_made_on_first_read(q, qe)
        checked += 1
    assert fractional >= 1000, fractional


def test_linearization_rejects_an_infeasible_anchor_like_the_branch_cone(e1):
    e = evaluate(e1, [1, 0])  # t2 = 0 != |t1|
    with pytest.raises(ValueError) as from_lin:
        linearize_anf(e1, e)
    with pytest.raises(ValueError) as from_branch:
        lin_cone_branch(anf_branches(e1, e)[0])
    assert str(from_lin.value) == str(from_branch.value) == "anchor is infeasible for branch σ=+"
    mp, point = to_mpcc(e1), mpcc_point_from_eval(e)
    with pytest.raises(ValueError) as from_lin:
        linearize_mpcc(mp, point)
    with pytest.raises(ValueError) as from_branch:
        lin_cone_branch(mpcc_branches(mp, point)[0])
    assert str(from_lin.value) == str(from_branch.value) == "anchor is infeasible for branch P={}"

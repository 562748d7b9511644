import random
from dataclasses import replace
from fractions import Fraction

import pytest

from absnormal.anf import AbsNormalProgram, QuadraticFunc, evaluate, validate
from absnormal.problemfile import load_corpus
from absnormal.ratmath import ZERO, RatMatrix, rat, unit_vec, vec, vec_neg
from absnormal.transforms import (
    BranchLimitError,
    BranchSpec,
    MpccProgram,
    branch_specs,
    enumerate_branches,
    enumerate_mpcc_branches,
    parse_branch_label,
    mpcc_point_from_eval,
    phi,
    phi_inv,
    slack_point,
    to_mpcc,
    to_slack,
)

from branch_oracles import (
    SmoothBranchProblem,
    anf_branches,
    compose_linear,
    flip_signs,
    merge_direction,
    mpcc_branches,
    mpcc_feasible,
    split_direction,
)
from conftest import make_e1, make_e2


def test_slack_of_program_without_inequalities_is_identity_shaped(e1):
    sp = to_slack(e1)
    assert sp.n_t == e1.n_t
    assert sp.s == e1.s
    assert sp.m1 == e1.m1
    assert sp.m2 == 0


def test_slack_of_e2_structure(e2):
    lifted = to_slack(e2)
    assert lifted.s == 3  # one original switch plus two slack switches
    assert lifted.m1 == 3 and lifted.m2 == 0
    assert validate(lifted) == []
    # the new equality rows read c_i_k(t, |z|) - zeta_w_k
    e = evaluate(e2, ["1/2", 0])
    point = slack_point(e)
    se = evaluate(lifted, point)
    assert se.is_feasible()
    assert se.z == vec(["1/2", "1/2", 0])  # (z, w1, w2) with w = c_i values


def test_slack_lift_any_sign_choice_is_feasible(e2):
    e = evaluate(e2, [2, 0])
    sp = to_slack(e2)
    for signs in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        se = evaluate(sp, slack_point(e, signs))
        assert se.is_feasible()
        assert tuple(abs(w) for w in se.z[1:]) == e.value_i


def test_mpcc_of_e1_constraints(e1):
    mp = to_mpcc(e1)
    assert mp.dim == 4  # (t1, t2, u1, v1)
    # equality rows: t2 - (u + v) = 0 and t1 - (u - v) = 0
    assert mp.ce_funcs[0].linear == vec([0, 1, -1, -1])
    assert mp.cz_funcs[0].linear == vec([1, 0, -1, 1])
    assert mp.m2 == 0 and not mp.ci_funcs


def test_mpcc_with_no_switches_is_smooth():
    from absnormal.anf import AbsNormalProgram

    from conftest import affine

    p = AbsNormalProgram(
        n_t=1, s=0, m1=0, m2=1, f=affine(1, 0, [1]), c_e=(), c_i=(affine(1, 0, [1]),), c_z=()
    )
    mp = to_mpcc(p)
    assert mp.s == 0 and mp.dim == 1
    assert not mp.cz_funcs


def test_mpcc_of_slack_e2_has_three_pairs(e2):
    mp = to_mpcc(to_slack(e2))
    assert mp.s == 3
    assert mp.dim == 4 + 6  # (t, w) plus three (u, v) pairs


def test_phi_roundtrip(e1):
    # positive part split: z = 3 -> (u, v) = (3, 0); z = 0 -> (0, 0); (u,v) = (0,2) -> z = -2
    pt = phi_inv(vec([1, 3]), vec([3]))
    assert pt.u == vec([3]) and pt.v == vec([0])
    assert phi(pt) == vec([1, 3, 3])
    pt0 = phi_inv(vec([0, 0]), vec([0]))
    assert pt0.u == vec([0]) and pt0.v == vec([0])
    pt2 = phi_inv(vec([0, 0]), vec([-2]))
    assert (pt2.u, pt2.v) == (vec([0]), vec([2]))
    assert phi(pt2)[-1] == rat(-2)


def test_phi_preserves_feasibility(e1, e2):
    for p, t in ((e1, [-5, 5]), (e2, [0, 3])):
        e = evaluate(p, t)
        assert e.is_feasible()
        mp = to_mpcc(p)
        point = mpcc_point_from_eval(e)
        assert mpcc_feasible(mp, point)
        assert phi(point) == e.t + e.z


def test_index_sets():
    pt = phi_inv(vec([0]), vec([2, -3, 0]))
    assert pt.degenerate == (2,)
    assert pt.base_signature == (1, -1, 0)


def test_branch_count_at_kink(e1):
    e = evaluate(e1, [0, 0])
    branches = anf_branches(e1, e)
    assert len(branches) == 2
    assert [b.label for b in branches] == ["σ=+", "σ=-"]
    for b in branches:
        assert b.anchor_feasible()


def test_branch_count_definite_point(e1):
    e = evaluate(e1, [2, 2])
    branches = anf_branches(e1, e)
    assert len(branches) == 1


def test_branch_count_slack_mpcc_e2(e2):
    # |alpha| = 1 and both inequalities active: 2^3 = 8 branches in the slack counterpart
    sp = to_slack(e2)
    se = evaluate(sp, slack_point(evaluate(e2, [0, 0])))
    mp = to_mpcc(sp)
    point = mpcc_point_from_eval(se)
    branches = mpcc_branches(mp, point)
    assert len(branches) == 8
    for b in branches:
        assert b.anchor_feasible()


def test_branch_cap_refused(e2):
    sp = to_slack(e2)
    se = evaluate(sp, slack_point(evaluate(e2, [0, 0])))
    point = mpcc_point_from_eval(se)
    with pytest.raises(BranchLimitError):
        enumerate_mpcc_branches(point, cap=4)


def test_branch_problem_rows_e1_plus(e1):
    e = evaluate(e1, [0, 0])
    plus = anf_branches(e1, e)[0]
    # equalities: t2 - z = 0 and t1 - z = 0; inequality: z >= 0
    assert [f.linear for f in plus.eqs] == [vec([0, 1, -1]), vec([1, 0, -1])]
    assert [f.linear for f in plus.ineqs] == [vec([0, 0, 1])]


def test_branch_correspondence_labels():
    # the counterpart branch is the same spec of the other kind
    spec = BranchSpec("signature", (1,), (0,))
    assert spec.label == "σ=+"
    assert replace(spec, kind="partition").label == "P={}"
    spec = BranchSpec("signature", (-1, -1), (0, 0))
    assert replace(spec, kind="partition").label == "P={1,2}"
    # first switch fixed positive by the anchor, second resolved negative
    spec = BranchSpec("signature", (1, -1), (1, 0))
    assert replace(spec, kind="partition").label == "P={2}"
    # a switch fixed negative by the anchor is no member of the partition
    spec = BranchSpec("signature", (-1, -1), (-1, 0))
    assert replace(spec, kind="partition").label == "P={2}"
    assert replace(replace(spec, kind="partition"), kind="signature") == spec


def test_mpcc_branch_fixings(e1):
    e = evaluate(e1, [0, 0])
    mp = to_mpcc(e1)
    branches = mpcc_branches(mp, mpcc_point_from_eval(e))
    assert [b.label for b in branches] == ["P={}", "P={1}"]
    plus = branches[0]
    # P = {}: v fixed to zero, u kept nonnegative
    assert vec([0, 0, 0, 1]) in [f.linear for f in plus.eqs]
    assert vec([0, 0, 1, 0]) in [f.linear for f in plus.ineqs]


def test_direction_split_cases():
    # inactive positive index keeps the direction on the u side
    dx, du, dv = split_direction(vec([0]), vec([-4]), (1,))
    assert (du, dv) == (vec([-4]), vec([0]))
    # degenerate index splits by sign: -4 goes to the v side
    dx, du, dv = split_direction(vec([0]), vec([-4]), (0,))
    assert (du, dv) == (vec([0]), vec([4]))
    dx, du, dv = split_direction(vec([0]), vec([3]), (0,))
    assert (du, dv) == (vec([3]), vec([0]))


def test_direction_split_merge_roundtrip():
    for signs, dz in (((1,), ["5/3"]), ((-1,), [-2]), ((0,), [7]), ((0,), [-7])):
        dx, du, dv = split_direction(vec([1, 2]), vec(dz), signs)
        merged = merge_direction(dx + du + dv, 2, 1)
        assert merged == vec([1, 2] + dz)


def branch_signature_matrix(p: AbsNormalProgram, signs: tuple[int, ...]) -> RatMatrix:
    """Reference: the block map (t, z) -> (t, Sigma z) that substitutes zeta = Sigma z."""
    dim = p.block_dim
    rows = [unit_vec(dim, i) for i in range(p.n_t)]
    for i in range(p.s):
        rows.append(tuple(Fraction(signs[i]) if j == p.n_t + i else ZERO for j in range(dim)))
    return RatMatrix.from_rows(rows, dim)


def composed_anf_branch(p: AbsNormalProgram, e, spec: BranchSpec) -> SmoothBranchProblem:
    """Reference: the branch problem by dense composition with the signature matrix."""
    dim = p.block_dim
    subs = branch_signature_matrix(p, spec.signs)
    eqs = [compose_linear(func, subs) for func in p.c_e]
    for i, func in enumerate(p.c_z):
        eqs.append(compose_linear(func, subs).add_linear(vec_neg(unit_vec(dim, p.n_t + i))))
    ineqs = [compose_linear(func, subs) for func in p.c_i]
    for i in range(p.s):
        row = tuple(Fraction(spec.signs[i]) if j == p.n_t + i else ZERO for j in range(dim))
        ineqs.append(QuadraticFunc.affine(dim, 0, row))
    return SmoothBranchProblem(
        n_vars=dim,
        objective=p.f.embed(dim, tuple(range(p.n_t))),
        eqs=tuple(eqs),
        ineqs=tuple(ineqs),
        spec=spec,
        anchor=e.t + e.z,
        form="anf",
    )


def random_quadratic(rng: random.Random, dim: int) -> QuadraticFunc:
    def coeff():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    quad = None
    if rng.random() < 0.7:
        rows = [[ZERO] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                rows[i][j] = rows[j][i] = coeff() if rng.random() < 0.6 else ZERO
        quad = RatMatrix.from_rows(rows, dim)
    return QuadraticFunc(dim, coeff(), tuple(coeff() for _ in range(dim)), quad)


def test_flip_signs_equals_composition_with_the_sign_matrix():
    rng = random.Random(7171)
    nonzero_quadratic = 0
    for _ in range(300):
        n_t, s = rng.randint(0, 3), rng.randint(1, 3)
        p = AbsNormalProgram(n_t, s, 0, 0, QuadraticFunc.zero(n_t), (), (), ())
        func = random_quadratic(rng, p.block_dim)
        signs = tuple(rng.choice((1, -1)) for _ in range(s))
        flipped = flip_signs(func, (1,) * n_t + signs)
        assert flipped == compose_linear(func, branch_signature_matrix(p, signs))
        nonzero_quadratic += not flipped.is_affine()
    assert nonzero_quadratic > 100


def composed_mpcc(p: AbsNormalProgram) -> MpccProgram:
    """Reference: the counterpart by dense composition with the block map
    (x, u, v) -> (x, u + v)."""
    n_x, s = p.n_t, p.s
    dim = n_x + 2 * s
    rows = [unit_vec(dim, i) for i in range(n_x)]
    rows += [tuple(Fraction(j in (n_x + i, n_x + s + i)) for j in range(dim)) for i in range(s)]
    subs = RatMatrix.from_rows(rows, dim)
    cz = []
    for i, func in enumerate(p.c_z):
        extra = [ZERO] * dim
        extra[n_x + i], extra[n_x + s + i] = Fraction(-1), Fraction(1)
        cz.append(compose_linear(func, subs).add_linear(tuple(extra)))
    return MpccProgram(
        n_x=n_x,
        s=s,
        m1=p.m1,
        m2=p.m2,
        objective=p.f.embed(dim, tuple(range(n_x))),
        ce_funcs=tuple(compose_linear(func, subs) for func in p.c_e),
        ci_funcs=tuple(compose_linear(func, subs) for func in p.c_i),
        cz_funcs=tuple(cz),
    )


def random_quadratic_program(rng: random.Random) -> AbsNormalProgram:
    """A random valid program with quadratic rows: each switching row ``c_z[i]``
    reads only ``t`` and ``zeta_0 .. zeta_{i-1}``."""
    n_t, s, m1, m2 = rng.randint(0, 3), rng.randint(1, 3), rng.randint(0, 2), rng.randint(0, 2)
    block = n_t + s
    c_z = tuple(random_quadratic(rng, n_t + i).embed(block, tuple(range(n_t + i))) for i in range(s))
    return AbsNormalProgram(
        n_t=n_t,
        s=s,
        m1=m1,
        m2=m2,
        f=random_quadratic(rng, n_t),
        c_e=tuple(random_quadratic(rng, block) for _ in range(m1)),
        c_i=tuple(random_quadratic(rng, block) for _ in range(m2)),
        c_z=c_z,
    )


def test_to_mpcc_equals_the_dense_composition():
    # zeta_i's coefficients placed at u_i and v_i, against y -> f(M y) with
    # the dense substitution matrix M, on each program and its slack form
    rng = random.Random(2020)
    nonzero_quadratic = 0
    for _ in range(250):
        p = random_quadratic_program(rng)
        for program in (p, to_slack(p)):
            assert to_mpcc(program) == composed_mpcc(program)
        nonzero_quadratic += any(not func.is_affine() for func in p.c_e + p.c_i + p.c_z)
    assert nonzero_quadratic >= 200, nonzero_quadratic


def test_anf_branches_equal_the_composed_reference():
    # the corpus mixes affine rows with E3's zeta^2 and E4's t2*zeta
    for pf in load_corpus():
        for pt in pf.points:
            e = evaluate(pf.program, pt.t)
            for b in anf_branches(pf.program, e):
                assert b == composed_anf_branch(pf.program, e, b.spec)


def test_enumerations_return_lists(e1):
    # callers take len() of the enumerations; only branch_specs is lazy
    e = evaluate(e1, [0, 0])
    assert isinstance(enumerate_branches(e), list)
    assert isinstance(enumerate_mpcc_branches(mpcc_point_from_eval(e)), list)


def test_branch_specs_check_the_cap_before_making_a_spec(e2):
    e = evaluate(e2, [0, 0])
    with pytest.raises(BranchLimitError):
        branch_specs("signature", e.sigma, cap=1)
    with pytest.raises(BranchLimitError):
        enumerate_branches(e, cap=1)


def test_branch_labels_parse_back_to_their_specs():
    base = (0, 1, 0)
    for signs in ((1, 1, 1), (1, 1, -1), (-1, 1, 1), (-1, 1, -1)):
        spec = BranchSpec("signature", signs, base)
        assert parse_branch_label(spec.label, "signature", base) == spec
        other = replace(spec, kind="partition")
        assert parse_branch_label(other.label, "partition", base) == other
    for label, kind in (
        ("σ=+++", "partition"),  # right label, wrong form
        ("P={}", "signature"),
        ("σ=++", "signature"),  # too short
        ("σ=+-+", "signature"),  # does not dominate the anchor signature
        ("σ=+0+", "signature"),
        ("P={2}", "partition"),  # not a degenerate switch
        ("P={3,1}", "partition"),  # not in canonical order
        ("P={01}", "partition"),
        ("P={1,}", "partition"),
        ("P={4}", "partition"),
        (None, "signature"),
    ):
        assert parse_branch_label(label, kind, base) is None, label


def test_parse_branch_label_accepts_exactly_the_enumerated_labels():
    # the one check of a label from outside: it parses iff branch_specs
    # enumerates a spec of that kind and label, and then to that spec
    rng = random.Random(23)
    kinds = ("signature", "partition")
    parsed = rejected = 0
    for _ in range(400):
        base = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(0, 6)))
        s = len(base)
        enumerated = {(spec.kind, spec.label): spec for kind in kinds for spec in branch_specs(kind, base)}
        candidates = {label for _, label in enumerated}
        for _ in range(12):
            # wrong lengths, 0 entries and signs that leave the anchor
            length = rng.choice((s, s, max(s - 1, 0), s + 1))
            candidates.add("σ=" + "".join(rng.choice("+-+-0") for _ in range(length)))
            # members unsorted, duplicated, out of range (0 and s + 1) or not degenerate
            members = [rng.randint(0, s + 1) for _ in range(rng.randint(0, 3))]
            if rng.random() < 0.5:
                members.sort()
            candidates.add("P={" + ",".join(map(str, members)) + "}")
        for label in candidates:
            for kind in kinds:
                spec = parse_branch_label(label, kind, base)
                assert spec == enumerated.get((kind, label)), (base, kind, label)
                parsed += spec is not None
                rejected += spec is None
    assert parsed > 2000 and rejected > 10000, (parsed, rejected)

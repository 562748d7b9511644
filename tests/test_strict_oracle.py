"""An independent oracle for the strict systems that the package poses with
no strict row.

``strict_point`` decides ``A x = a, B x >= b, C x > c`` by homogenizing it
into ``(x, tau)``: ``A x - a tau = 0``, ``B x - b tau >= 0``,
``C x - c tau >= 1`` and ``tau >= 1``, one plain LP.  A solution gives the
strict point ``x / tau``, checked here by substitution; conversely, a strict
point ``x`` gives the solution ``(t x, t)`` for every large enough ``t``.

Against it:

* the M verdict and case of ``_solve_system`` equal those of a flat 3^k
  enumeration in ``itertools.product`` order whose both-positive case is
  strict, as the paper states it, in both forms, on random and kinks-like
  programs;
* the tangent strict-direction LP and ``hull_escape`` decide as the oracle
  does on seeded cones, and as the cones' generators and duals say.
"""

import itertools
import random
from fractions import Fraction

from absnormal.anf import evaluate
from absnormal.cones import (
    TANGENT_LICQ,
    TANGENT_MFCQ,
    TANGENT_UNKNOWN,
    PolyCone,
    cone_contains,
    dual_cone,
    dual_union,
    hull_escape,
    tangent_cone_branch,
)
from absnormal.cq import FAILS, HOLDS
from absnormal.ratmath import FEASIBLE, ONE, ZERO, LpProblem, lp_solve, verify_certificate, zero_vec
from absnormal.ratmath.matrix import integer_rank
from absnormal.stationarity import CASE_BOTH_POSITIVE, CASE_U_ZERO, CASE_V_ZERO, CASES, _solve_system, multiplier_system
from absnormal.transforms import mpcc_point_from_eval, to_mpcc

from conftest import kinks_like_program, random_affine_program


def value(row, x) -> Fraction:
    return sum((Fraction(a) * b for a, b in zip(row, x, strict=True)), ZERO)


def strict_point(n: int, eq=(), ineq=(), strict=()):
    """A point with ``row . x = rhs`` on ``eq``, ``>= rhs`` on ``ineq`` and
    ``> rhs`` on ``strict`` (each a list of ``(row, rhs)``), or None when
    there is none."""

    def lifted(rows):
        return tuple(tuple(map(Fraction, row)) + (-Fraction(rhs),) for row, rhs in rows)

    problem = LpProblem(
        n_vars=n + 1,
        eq_rows=lifted(eq),
        eq_rhs=zero_vec(len(eq)),
        ineq_rows=lifted(ineq) + lifted(strict) + (zero_vec(n) + (ONE,),),
        ineq_rhs=zero_vec(len(ineq)) + (ONE,) * (len(strict) + 1),
    )
    res = lp_solve(problem)
    assert verify_certificate(problem, res) == []
    if res.status != FEASIBLE:
        return None
    *x, tau = res.certificate.point
    point = tuple(xi / tau for xi in x)
    assert all(value(row, point) == rhs for row, rhs in eq)
    assert all(value(row, point) >= rhs for row, rhs in ineq)
    assert all(value(row, point) > rhs for row, rhs in strict)
    return point


# ---------------------------------------------------------------------------
# M-stationarity with the strict both-positive case


def strict_case_system(system, assignment):
    """The M system of the full case ``assignment`` as the paper states it:
    ``(eq, ineq, strict)`` rows in the multipliers ``(lam_e, lam_i, lam_z)``,
    each an affine expression ``coeffs . lam + offset`` compared with 0."""
    n = system.n_unknowns

    def row(expr):
        coeffs, offset = expr
        return coeffs, -offset

    def unit(k):
        return tuple(ONE if j == k else ZERO for j in range(n)), ZERO

    eq = [row(expr) for expr in system.stationary_rows]
    eq += [row(system.pair_u[i]) for i in system.fixed_pair_u_zero]
    eq += [row(system.pair_v[i]) for i in system.fixed_pair_v_zero]
    eq += [unit(system.m1 + k) for k in system.inactive_i]
    ineq = [unit(system.m1 + k) for k in range(system.m2)]
    strict = []
    for i, case in zip(system.degenerate, assignment, strict=True):
        if case == CASE_U_ZERO:
            eq.append(row(system.pair_u[i]))
        elif case == CASE_V_ZERO:
            eq.append(row(system.pair_v[i]))
        else:
            strict += [row(system.pair_u[i]), row(system.pair_v[i])]
    return eq, ineq, strict


def flat_strict_verdict(system):
    """(status, case) of the first full case assignment, in
    ``itertools.product`` order, whose strict system is feasible."""
    for assignment in itertools.product(CASES, repeat=len(system.degenerate)):
        if strict_point(system.n_unknowns, *strict_case_system(system, assignment)) is not None:
            return HOLDS, assignment
    return FAILS, None


def assert_m_matches_the_strict_enumeration(p, seen):
    e = evaluate(p, zero_vec(p.n_t))
    mp, point = to_mpcc(p), mpcc_point_from_eval(e)
    for system, kind in ((multiplier_system(p, e), "m-anf"), (multiplier_system(mp, point), "m-mpcc")):
        verdict = _solve_system(system, kind)
        assert (verdict.status, verdict.case) == flat_strict_verdict(system)
        seen.add((kind, verdict.status, CASE_BOTH_POSITIVE in (verdict.case or ())))


def test_m_verdicts_match_the_strict_enumeration_on_random_programs():
    seen = set()
    for seed in range(300):
        p = random_affine_program(random.Random(seed), max_s=3)
        if evaluate(p, zero_vec(p.n_t)).is_feasible():
            assert_m_matches_the_strict_enumeration(p, seen)
    # both statuses, and Holds cases with a both-positive pair, in each form
    assert seen >= {(kind, s, b) for kind in ("m-anf", "m-mpcc") for s, b in ((HOLDS, True), (FAILS, False))}


def test_m_verdicts_match_the_strict_enumeration_on_kinks_like_programs():
    rng = random.Random(2468)
    seen = set()
    for _ in range(120):
        assert_m_matches_the_strict_enumeration(kinks_like_program(rng, rng.randint(1, 4)), seen)
    assert seen >= {(kind, s, b) for kind in ("m-anf", "m-mpcc") for s, b in ((HOLDS, True), (FAILS, False))}


# ---------------------------------------------------------------------------
# homogeneous cone systems


def random_rows(rng: random.Random, count: int, dim: int):
    return [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(count)]


def random_cone(rng: random.Random, dim: int, max_eq: int, max_ineq: int) -> PolyCone:
    return PolyCone(dim, random_rows(rng, rng.randint(0, max_eq), dim), random_rows(rng, rng.randint(0, max_ineq), dim))


def signed_generators(cone: PolyCone):
    rays, lineality = cone.generators()
    return list(rays) + [g for l in lineality for g in (l, tuple(-x for x in l))]


def test_tangent_strict_direction_matches_the_oracle():
    rng = random.Random(31337)
    seen = {TANGENT_LICQ: 0, TANGENT_MFCQ: 0, TANGENT_UNKNOWN: 0}
    for _ in range(400):
        dim = rng.randint(1, 4)
        cone = PolyCone(dim, random_rows(rng, rng.randint(0, 2), dim), random_rows(rng, rng.randint(1, 4), dim))
        eq, ineq = cone.eq_rows, cone.ineq_rows
        _, cert = tangent_cone_branch(cone, affine=False)
        seen[cert.status] += 1
        if cert.status == TANGENT_LICQ:
            continue
        point = strict_point(dim, eq=[(r, 0) for r in eq], strict=[(r, 0) for r in ineq])
        # a direction with every inequality row positive exists exactly when
        # each inequality row is positive on some ray of the cone
        rays, _ = cone.generators()
        assert (point is not None) == all(any(value(r, g) > 0 for g in rays) for r in ineq)
        eq_independent = integer_rank([list(r) for r in eq], dim) == len(eq)
        assert (cert.status == TANGENT_MFCQ) == (eq_independent and point is not None)
        if cert.status == TANGENT_MFCQ:
            d = cert.strict_point
            assert all(value(r, d) == 0 for r in eq) and all(value(r, d) > 0 for r in ineq)
    assert min(seen.values()) >= 40, seen


def test_hull_escape_matches_the_oracle():
    rng = random.Random(2718)
    seen = {True: 0, False: 0}
    for _ in range(200):
        dim = rng.randint(1, 3)
        members = [random_cone(rng, dim, 1, 3) for _ in range(rng.randint(1, 3))]
        target = random_cone(rng, dim, 1, 2)
        w = hull_escape(members, target)
        rays = [g for m in members for g in m.generators()[0]]
        lineality = [l for m in members for l in m.generators()[1]]
        escapes = [
            strict_point(dim, eq=[(l, 0) for l in lineality], ineq=[(r, 0) for r in rays], strict=[(g, 0)])
            for g in (tuple(-x for x in g) for g in signed_generators(target))
        ]
        assert (w is None) == all(point is None for point in escapes)
        # by biduality: the members' conic hull holds the target exactly when
        # the dual of their union lies in the target's dual
        assert (w is None) == cone_contains(dual_cone(target), dual_union(members, dim))
        if w is not None:
            assert all(value(r, w) >= 0 for r in rays) and all(value(l, w) == 0 for l in lineality)
            assert any(value(g, w) < 0 for g in signed_generators(target))
        seen[w is None] += 1
    assert min(seen.values()) >= 40, seen

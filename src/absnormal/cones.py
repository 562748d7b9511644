"""Exact polyhedral cones: linearized, tangent (certified), dual, unions.

All cones are closed convex polyhedra in H-representation
``{d : eq_rows . d = 0, ineq_rows . d >= 0}``; the nonconvex objects of the
theory (abs-normal-linearized and complementarity-linearized cones) are kept
as finite labeled unions of such pieces, which the branch decomposition makes
canonical.

Tangent cones of branch problems are only ever asserted together with a
certificate: affine constraints, a linear-independence rank test, or a
strict-feasibility argument.  Anything else stays Unknown here; trusted
annotations are layered on top by the qualification checker.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .anf import AbsNormalProgram, EvalResult, constraint_jacobians
from .ratmath import (
    FEASIBLE,
    ONE,
    ZERO,
    LpCertificate,
    LpProblem,
    RatMatrix,
    Vec,
    cone_generators,
    dot,
    generators_to_hrep,
    is_zero_vec,
    lp_solve,
    primitive,
    rank_rows,
    unit_vec,
    vec,
    vec_neg,
    zero_vec,
)
from .transforms import (
    DEFAULT_BRANCH_CAP,
    MpccPoint,
    MpccProgram,
    SmoothBranchProblem,
    enumerate_branches,
    enumerate_mpcc_branches,
)

DEFAULT_SPLIT_DEPTH = 32

TANGENT_AFFINE = "affine"
TANGENT_LICQ = "branch-licq"
TANGENT_MFCQ = "branch-mfcq"
TANGENT_UNKNOWN = "unknown"


class SubdivisionDepthExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class PolyCone:
    dim: int
    eq_rows: tuple[Vec, ...] = ()
    ineq_rows: tuple[Vec, ...] = ()

    def __post_init__(self) -> None:
        for r in itertools.chain(self.eq_rows, self.ineq_rows):
            if len(r) != self.dim:
                raise ValueError("cone row length does not match dimension")

    @staticmethod
    def from_rows(dim: int, eq=(), ineq=()) -> "PolyCone":
        return PolyCone(dim, tuple(vec(r) for r in eq), tuple(vec(r) for r in ineq))

    @staticmethod
    def full_space(dim: int) -> "PolyCone":
        return PolyCone(dim)

    @staticmethod
    def zero(dim: int) -> "PolyCone":
        return PolyCone(dim, tuple(unit_vec(dim, i) for i in range(dim)), ())

    def contains_point(self, d: Vec) -> bool:
        return all(dot(r, d) == 0 for r in self.eq_rows) and all(
            dot(r, d) >= 0 for r in self.ineq_rows
        )

    def intersect(self, other: "PolyCone") -> "PolyCone":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return PolyCone(self.dim, self.eq_rows + other.eq_rows, self.ineq_rows + other.ineq_rows)

    def with_rows(self, eq=(), ineq=()) -> "PolyCone":
        return PolyCone(
            self.dim,
            self.eq_rows + tuple(vec(r) for r in eq),
            self.ineq_rows + tuple(vec(r) for r in ineq),
        )

    def __hash__(self) -> int:
        # the generator cache hashes a cone on every lookup; hashing its
        # Fractions once is enough for an immutable cone
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.dim, self.eq_rows, self.ineq_rows))
            object.__setattr__(self, "_hash", h)
        return h

    def generators(self) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
        """(rays, lineality basis) whose conic hull is the cone."""
        return _generators_cached(self)

    def is_zero_cone(self) -> bool:
        rays, lin = self.generators()
        return not rays and not lin


@functools.lru_cache(maxsize=4096)
def _generators_cached(cone: PolyCone) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    rays, lin = cone_generators(cone.dim, cone.eq_rows, cone.ineq_rows)
    return tuple(rays), tuple(lin)


@dataclass(frozen=True)
class UnionCone:
    """A finite union of polyhedral cones, labeled by branch."""

    members: tuple[tuple[str, PolyCone], ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a union needs at least one member")
        dims = {cone.dim for _, cone in self.members}
        if len(dims) != 1:
            raise ValueError("union members must share a dimension")

    @property
    def dim(self) -> int:
        return self.members[0][1].dim

    @property
    def cones(self) -> tuple[PolyCone, ...]:
        return tuple(cone for _, cone in self.members)

    def contains_point(self, d: Vec) -> bool:
        return any(cone.contains_point(d) for cone in self.cones)


def dd_vrep_to_hrep(dim: int, rays, lineality) -> PolyCone:
    eq, ineq = generators_to_hrep(dim, [vec(r) for r in rays], [vec(l) for l in lineality])
    return PolyCone(dim, tuple(eq), tuple(ineq))


def dual_cone(cone: PolyCone) -> PolyCone:
    """Dual {w : w.d >= 0 on the cone}; generated by the inequality normals plus
    the equality normals as lineality, then converted back to an H-representation.

    Only report output (``cones --dual``) builds duals; the Guignard deciders
    test conic-hull membership with ``hull_escape`` instead."""
    return dd_vrep_to_hrep(cone.dim, cone.ineq_rows, cone.eq_rows)


def dual_union(u: UnionCone | list[PolyCone], dim: int | None = None) -> PolyCone:
    """Dual of a union: the intersection of the member duals."""
    cones = u.cones if isinstance(u, UnionCone) else tuple(u)
    if not cones:
        if dim is None:
            raise ValueError("dimension required for an empty union")
        return PolyCone.full_space(dim)  # dual of {0}
    out = dual_cone(cones[0])
    for cone in cones[1:]:
        out = out.intersect(dual_cone(cone))
    return out


def _signed_generators(cone: PolyCone):
    rays, lin = cone.generators()
    yield from rays
    for l in lin:
        yield l
        yield vec_neg(l)


def cone_contains(outer: PolyCone, inner: PolyCone) -> bool:
    """Set containment, decided on the generators of the inner cone."""
    if outer.dim != inner.dim:
        raise ValueError("dimension mismatch")
    return all(outer.contains_point(g) for g in _signed_generators(inner))


def cone_equal(a: PolyCone, b: PolyCone) -> bool:
    return cone_contains(a, b) and cone_contains(b, a)


def _signed_rows(cone: PolyCone):
    for r in cone.eq_rows:
        yield r
        yield vec_neg(r)
    yield from cone.ineq_rows


def union_covers(
    members: UnionCone | list[PolyCone],
    target: PolyCone,
) -> tuple[bool, Vec | None]:
    """Decide ``target subset-of union(members)`` by recursive hyperplane subdivision.

    Returns (True, None) or (False, witness ray in the target outside every
    member).  Raises SubdivisionDepthExceeded past ``DEFAULT_SPLIT_DEPTH`` splits.
    """
    cones = members.cones if isinstance(members, UnionCone) else list(members)
    if not cones:
        raise ValueError("empty union")
    return _covers(cones, target, DEFAULT_SPLIT_DEPTH)


def _covers(members: list[PolyCone], target: PolyCone, depth: int) -> tuple[bool, Vec | None]:
    for m in members:
        if cone_contains(m, target):
            return True, None
    gens = list(_signed_generators(target))
    if not gens:
        # the zero cone lies in every member
        return True, None
    if depth <= 0:
        raise SubdivisionDepthExceeded("hyperplane subdivision exceeded the depth cap")
    for m in members:
        for h in _signed_rows(m):
            vals = [dot(h, g) for g in gens]
            if any(v > 0 for v in vals) and any(v < 0 for v in vals):
                ok, witness = _covers(members, target.with_rows(ineq=[h]), depth - 1)
                if not ok:
                    return False, witness
                return _covers(members, target.with_rows(ineq=[vec_neg(h)]), depth - 1)
    # No member hyperplane separates the generators strictly, so the sum of all
    # generators violates, for every member, some row on which no generator is
    # positive; it is therefore a single ray escaping the whole union.
    witness = gens[0]
    for g in gens[1:]:
        witness = tuple(a + b for a, b in zip(witness, g))
    witness = primitive(witness)
    if is_zero_vec(witness) or any(m.contains_point(witness) for m in members):
        raise RuntimeError("subdivision invariant violated")
    return False, witness


def hull_escape(members, target: PolyCone, first=()) -> Vec | None:
    """A vector ``w`` pairing nonnegatively with every member and negatively
    with some generator of ``target``, or None when ``target`` lies in the
    closed conic hull of the members.

    By biduality, None means that the dual of the union of the members lies in
    the dual of ``target``; no H-representation of either dual is built.  A
    generator inside a single member (those in ``first`` are tried first) is
    accepted by substitution; any other costs one exact LP in ``w``.
    """
    rows = None
    for g in _signed_generators(target):
        if any(m.contains_point(g) for m in itertools.chain(first, members)):
            continue
        if rows is None:
            eq, ineq = {}, {}
            for m in members:
                rays, lin = m.generators()
                eq.update(dict.fromkeys(lin))
                ineq.update(dict.fromkeys(rays))
            rows = tuple(eq), tuple(ineq)
        eq_rows, ineq_rows = rows
        res = lp_solve(
            LpProblem(
                n_vars=target.dim,
                eq_rows=eq_rows,
                eq_rhs=zero_vec(len(eq_rows)),
                ineq_rows=ineq_rows + (vec_neg(g),),
                ineq_rhs=zero_vec(len(ineq_rows) + 1),
                strict=frozenset([len(ineq_rows)]),
            )
        )
        if res.status == FEASIBLE:
            return primitive(res.certificate.point)
    return None


def cone_image(cone: PolyCone, m: RatMatrix) -> PolyCone:
    """Image of the cone under the linear map with matrix ``m`` (rows = output coords)."""
    if m.cols != cone.dim:
        raise ValueError("matrix width must match cone dimension")
    rays, lin = cone.generators()
    return dd_vrep_to_hrep(m.n_rows, [m.mat_vec(r) for r in rays], [m.mat_vec(l) for l in lin])


# ---------------------------------------------------------------------------
# linearized cones


def lin_cone_branch(b: SmoothBranchProblem) -> PolyCone:
    """Gradients of equalities as equations, of anchor-active inequalities as
    inequalities; each constraint is evaluated once at the anchor."""
    anchor = b.anchor
    values = [func.value(anchor) for func in b.ineqs]
    if any(v < 0 for v in values) or any(func.value(anchor) != 0 for func in b.eqs):
        raise ValueError(f"anchor is infeasible for branch {b.label}")
    eq = tuple(func.gradient(anchor) for func in b.eqs)
    ineq = tuple(func.gradient(anchor) for func, v in zip(b.ineqs, values) if v == 0)
    return PolyCone(b.n_vars, eq, ineq)


def union_from_branches(branches) -> UnionCone:
    return UnionCone(tuple((b.label, lin_cone_branch(b)) for b in branches))


def lin_cone_abs(p: AbsNormalProgram, e: EvalResult, cap: int = DEFAULT_BRANCH_CAP) -> UnionCone:
    """The abs-normal-linearized cone as its canonical branch union."""
    return union_from_branches(enumerate_branches(p, e, cap))


def lin_cone_mpcc(mp: MpccProgram, point: MpccPoint, cap: int = DEFAULT_BRANCH_CAP) -> UnionCone:
    """The complementarity-linearized cone as its canonical branch union."""
    return union_from_branches(enumerate_mpcc_branches(mp, point, cap))


def lin_cone_abs_direct(p: AbsNormalProgram, e: EvalResult) -> UnionCone:
    """The abs-normal-linearized cone from its defining rows, split by the sign
    pattern of the active switching directions (no branch problems involved).

    Each piece fixes signs on the active entries, replaces the zeta-directions
    by the signed z-directions, and adds the matching sign conditions.
    """
    jac = constraint_jacobians(p, e)
    dim = p.n_t + p.s
    pieces = []
    for refined in e.sigma.refinements():
        signs = refined.entries
        eq = []
        ineq = []

        def direction_row(d1_row: Vec, d2_row: Vec) -> Vec:
            return d1_row + tuple(Fraction(signs[i]) * d2_row[i] for i in range(p.s))

        for k in range(p.m1):
            eq.append(direction_row(jac.d1_ce.row(k), jac.d2_ce.row(k)))
        for i in range(p.s):
            row = direction_row(jac.d1_cz.row(i), jac.d2_cz.row(i))
            row = tuple(x - (ONE if j == p.n_t + i else ZERO) for j, x in enumerate(row))
            eq.append(row)
        for k in e.active_i:
            ineq.append(direction_row(jac.d1_ci.row(k), jac.d2_ci.row(k)))
        for i in e.alpha:
            ineq.append(
                tuple(Fraction(signs[i]) if j == p.n_t + i else ZERO for j in range(dim))
            )
        pieces.append((refined.label(), PolyCone(dim, tuple(eq), tuple(ineq))))
    return UnionCone(tuple(pieces))


def lin_cone_mpcc_direct(mp: MpccProgram, point: MpccPoint) -> UnionCone:
    """The complementarity-linearized cone from its defining rows: Jacobians of
    the substituted constraints plus one complementarity-cone piece per
    resolution of the degenerate pairs."""
    coords = point.coords
    dim = mp.dim
    eq_base = [func.gradient(coords) for func in mp.eq_funcs]
    ineq_base = [
        func.gradient(coords) for func in mp.ci_funcs if func.value(coords) == 0
    ]
    compl = compl_cone(point)
    pad = zero_vec(mp.n_x)
    pieces = []
    for label, piece in compl.members:
        eq = tuple(eq_base) + tuple(pad + r for r in piece.eq_rows)
        ineq = tuple(ineq_base) + tuple(pad + r for r in piece.ineq_rows)
        pieces.append((label, PolyCone(dim, eq, ineq)))
    return UnionCone(tuple(pieces))


def compl_cone(point: MpccPoint) -> UnionCone:
    """Tangent (= linearized) cone of the complementarity set at the point, in
    (du, dv) coordinates: a union over resolutions of the degenerate pairs."""
    s = len(point.u)
    dim = 2 * s
    base = point.base_signature
    pieces = []
    for refined in base.refinements():
        eq = []
        ineq = []
        for i, sg in enumerate(refined.entries):
            u_row = unit_vec(dim, i)
            v_row = unit_vec(dim, s + i)
            if sg > 0:
                eq.append(v_row)
                if base.entries[i] == 0:
                    ineq.append(u_row)
            else:
                eq.append(u_row)
                if base.entries[i] == 0:
                    ineq.append(v_row)
        spec_label = "P={" + ",".join(
            str(i + 1) for i in point.degenerate if refined.entries[i] == -1
        ) + "}"
        pieces.append((spec_label, PolyCone(dim, tuple(eq), tuple(ineq))))
    return UnionCone(tuple(pieces))


# ---------------------------------------------------------------------------
# certified tangent cones


@dataclass(frozen=True)
class TangentCertificate:
    """Why a branch tangent cone is known (or not): affine constraints, a
    full-rank active Jacobian, or a strictly feasible linearized direction."""

    status: str
    active_rank: int | None = None
    active_rows: int | None = None
    strict_point: Vec | None = None
    lp_certificate: LpCertificate | None = None

    @property
    def certified(self) -> bool:
        return self.status != TANGENT_UNKNOWN


def tangent_cone_branch(
    b: SmoothBranchProblem, lin: PolyCone | None = None
) -> tuple[PolyCone | None, TangentCertificate]:
    """The branch tangent cone when certifiable, else (None, unknown-certificate).

    Affine constraints, linear independence of active gradients, or a strictly
    feasible direction for the linearized system each certify that the tangent
    cone equals the linearized cone, which is then returned itself.  ``lin`` is
    the branch linearized cone when the caller has already built it.
    """
    if lin is None:
        lin = lin_cone_branch(b)
    if b.all_affine():
        return lin, TangentCertificate(TANGENT_AFFINE)
    active_rows = list(lin.eq_rows) + list(lin.ineq_rows)
    r = rank_rows(active_rows, b.n_vars)
    if r == len(active_rows):
        return lin, TangentCertificate(TANGENT_LICQ, active_rank=r, active_rows=len(active_rows))
    eq_rank = rank_rows(list(lin.eq_rows), b.n_vars)
    if eq_rank == len(lin.eq_rows) and lin.ineq_rows:
        n_ineq = len(lin.ineq_rows)
        problem = LpProblem(
            n_vars=b.n_vars,
            eq_rows=lin.eq_rows,
            eq_rhs=zero_vec(len(lin.eq_rows)),
            ineq_rows=lin.ineq_rows,
            ineq_rhs=zero_vec(n_ineq),
            strict=frozenset(range(n_ineq)),
        )
        res = lp_solve(problem)
        if res.status == "feasible":
            return lin, TangentCertificate(
                TANGENT_MFCQ,
                active_rank=r,
                active_rows=len(active_rows),
                strict_point=res.certificate.point,
                lp_certificate=res.certificate,
            )
    return None, TangentCertificate(TANGENT_UNKNOWN, active_rank=r, active_rows=len(active_rows))

"""Exact polyhedral cones: linearized, tangent (certified), dual, unions.

All cones are closed convex polyhedra in H-representation
``{d : eq_rows . d = 0, ineq_rows . d >= 0}``; the nonconvex objects of the
theory (abs-normal-linearized and complementarity-linearized cones) are kept
as finite labeled unions of such pieces, which the branch decomposition makes
canonical.  Every branch linearized cone comes from one linearization of its
formulation at the point (``linearize_anf``, ``linearize_mpcc``), which
evaluates each constraint gradient once for all branches.

Tangent cones of branch problems are only ever asserted together with a
certificate: affine constraints, a linear-independence rank test, or a
strict-feasibility argument.  Anything else stays Unknown here; trusted
annotations are layered on top by the qualification checker.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .anf import AbsNormalProgram, EvalResult, SignatureVector
from .ratmath import (
    FEASIBLE,
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
    BranchSpec,
    MpccPoint,
    MpccProgram,
    SmoothBranchProblem,
    branch_specs,
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


@dataclass(frozen=True)
class BranchLinearization:
    """The linearization of one formulation at one point, shared by its branches.

    A branch problem substitutes its definite signature into the same
    constraint functions, so every branch linearized cone is made from the
    gradients evaluated once here:

    * abs-normal form, variables ``(t, z)``: ``eq_grads`` are the gradients of
      ``c_e`` and ``c_z`` at ``(t, |z|)``, ``ineq_grads`` those of the active
      ``c_i``.  A branch flips the zeta columns where its signature is
      negative, subtracts from each switching row its own ``z`` unit, and
      adds the sign row ``sigma_i dz_i >= 0`` of each degenerate switch.
    * counterpart, variables ``(x, u, v)``: ``eq_grads`` are the gradients of
      ``eq_funcs``, ``ineq_grads`` those of the active ``ci_funcs``.  A branch
      adds one row per pair pinning the side it leaves to zero, and the row
      of the resolved side of each degenerate pair.

    ``cone`` has exactly the rows, in the same order, of the linearized cone
    of the branch problem that ``transforms`` builds for the same signature.
    """

    form: str  # "anf" | "mpcc"
    n_x: int  # columns before the switching block
    base: SignatureVector
    gradient: Vec  # of the objective, at the anchor
    eq_grads: tuple[Vec, ...]
    ineq_grads: tuple[Vec, ...]
    degenerate: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.gradient)

    @property
    def n_eq(self) -> int:
        pins = len(self.base.entries) if self.form == "mpcc" else 0
        return len(self.eq_grads) + pins

    @property
    def n_ineq(self) -> int:
        return len(self.ineq_grads) + len(self.degenerate)

    def specs(self, cap: int = DEFAULT_BRANCH_CAP):
        """The branches at the point, lazily, in enumeration order; the cap is
        checked at the call."""
        return branch_specs("signature" if self.form == "anf" else "partition", self.base, cap)

    def _negated(self, signs: tuple[int, ...]) -> list[int]:
        if self.form == "mpcc":
            return []
        return [self.n_x + i for i, sg in enumerate(signs) if sg < 0]

    def _units(self, signs: tuple[int, ...]):
        """The branch's unit terms ``(row, column, coefficient)``, rows indexed
        over its equalities and its active inequalities."""
        s = len(signs)
        if self.form == "anf":
            # the switching rows close the equality rows
            first = len(self.eq_grads) - s
            eq = [(first + i, self.n_x + i, -1) for i in range(s)]
            ineq = [(len(self.ineq_grads) + j, self.n_x + i, signs[i]) for j, i in enumerate(self.degenerate)]
        else:
            u, v = self.n_x, self.n_x + s
            eq = [(len(self.eq_grads) + i, v + i if sg > 0 else u + i, 1) for i, sg in enumerate(signs)]
            ineq = [
                (len(self.ineq_grads) + j, u + i if signs[i] > 0 else v + i, 1)
                for j, i in enumerate(self.degenerate)
            ]
        return eq, ineq

    def cone(self, signs: tuple[int, ...]) -> PolyCone:
        """The linearized cone of the branch with definite signature ``signs``."""
        negated = self._negated(signs)
        eq_units, ineq_units = self._units(signs)

        def rows(grads, units, count):
            out = [list(g) for g in grads] + [list(zero_vec(self.dim)) for _ in range(count - len(grads))]
            for row in out[: len(grads)]:
                for c in negated:
                    row[c] = -row[c]
            for r, c, coeff in units:
                out[r][c] += coeff
            return tuple(tuple(row) for row in out)

        return PolyCone(
            self.dim,
            rows(self.eq_grads, eq_units, self.n_eq),
            rows(self.ineq_grads, ineq_units, self.n_ineq),
        )

    def combination(self, signs: tuple[int, ...], dual_eq: Vec, dual_ineq: Vec, memo: dict) -> Vec:
        """``E^T dual_eq + I^T dual_ineq`` over the rows of the branch ``signs``.

        The sum over the gradient rows does not depend on the branch, only on
        their weights: ``memo``, a dict the caller keeps for this
        linearization, holds it keyed by those weights.  The branch's column
        flip and unit terms are then applied in O(s).
        """
        if len(dual_eq) != self.n_eq or len(dual_ineq) != self.n_ineq:
            raise ValueError(
                f"{len(dual_eq)} + {len(dual_ineq)} weights for {self.n_eq} + {self.n_ineq} cone rows"
            )
        key = tuple(dual_eq[: len(self.eq_grads)]) + tuple(dual_ineq[: len(self.ineq_grads)])
        shared = memo.get(key)
        if shared is None:
            terms = [(w, g) for w, g in zip(key, self.eq_grads + self.ineq_grads) if w]
            if terms:
                weights, grads = zip(*terms)
                shared = tuple(dot(weights, column) for column in zip(*grads))
            else:
                shared = zero_vec(self.dim)
            memo[key] = shared
        out = list(shared)
        for c in self._negated(signs):
            out[c] = -out[c]
        eq_units, ineq_units = self._units(signs)
        for weights, units in ((dual_eq, eq_units), (dual_ineq, ineq_units)):
            for r, c, coeff in units:
                w = weights[r]
                if w:
                    out[c] += w if coeff > 0 else -w
        return tuple(out)


def _infeasible_anchor(kind: str, base: SignatureVector) -> ValueError:
    # every branch has the anchor's constraint values, so the first one names it
    first = BranchSpec(kind, next(base.refinements()).entries, base.entries)
    return ValueError(f"anchor is infeasible for branch {first.label}")


def linearize_anf(p: AbsNormalProgram, e: EvalResult) -> BranchLinearization:
    """The abs-normal branch linearization at the evaluated point."""
    if not e.is_feasible():
        raise _infeasible_anchor("signature", e.sigma)
    block = e.t + e.abs_z
    return BranchLinearization(
        form="anf",
        n_x=p.n_t,
        base=e.sigma,
        gradient=p.f.gradient(e.t) + zero_vec(p.s),
        eq_grads=tuple(func.gradient(block) for func in p.c_e + p.c_z),
        ineq_grads=tuple(p.c_i[k].gradient(block) for k in e.active_i),
        degenerate=e.alpha,
    )


def linearize_mpcc(mp: MpccProgram, point: MpccPoint) -> BranchLinearization:
    """The counterpart branch linearization at the point."""
    coords = point.coords
    values_i = [func.value(coords) for func in mp.ci_funcs]
    if any(func.value(coords) != 0 for func in mp.eq_funcs) or any(v < 0 for v in values_i):
        raise _infeasible_anchor("partition", point.base_signature)
    return BranchLinearization(
        form="mpcc",
        n_x=mp.n_x,
        base=point.base_signature,
        gradient=mp.objective.gradient(coords),
        eq_grads=tuple(func.gradient(coords) for func in mp.eq_funcs),
        ineq_grads=tuple(func.gradient(coords) for func, v in zip(mp.ci_funcs, values_i) if v == 0),
        degenerate=point.degenerate,
    )


def _branch_union(lin: BranchLinearization, cap: int) -> UnionCone:
    return UnionCone(tuple((spec.label, lin.cone(spec.signs)) for spec in lin.specs(cap)))


def lin_cone_abs(p: AbsNormalProgram, e: EvalResult, cap: int = DEFAULT_BRANCH_CAP) -> UnionCone:
    """The abs-normal-linearized cone as its canonical branch union."""
    return _branch_union(linearize_anf(p, e), cap)


def lin_cone_mpcc(mp: MpccProgram, point: MpccPoint, cap: int = DEFAULT_BRANCH_CAP) -> UnionCone:
    """The complementarity-linearized cone as its canonical branch union."""
    return _branch_union(linearize_mpcc(mp, point), cap)


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
    b: SmoothBranchProblem, lin: PolyCone
) -> tuple[PolyCone | None, TangentCertificate]:
    """The branch tangent cone when certifiable, else (None, unknown-certificate).

    Affine constraints, linear independence of active gradients, or a strictly
    feasible direction for the linearized system each certify that the tangent
    cone equals the linearized cone ``lin`` of the branch, which is then
    returned itself.
    """
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

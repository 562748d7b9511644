"""Exact polyhedral cones: linearized, tangent (certified), dual, unions.

All cones are closed convex polyhedra in H-representation
``{d : eq_rows . d = 0, ineq_rows . d >= 0}``, each row held as a primitive
integer row; the nonconvex objects of the theory (abs-normal-linearized and
complementarity-linearized cones) are kept as lists of such pieces, one per
branch, which the branch decomposition makes canonical.  Every branch
linearized cone comes from one linearization of its formulation at the point
(``linearize_anf``, ``linearize_mpcc``), which evaluates each constraint
gradient once for all branches and also gives each branch's exact, unscaled
rows (``BranchLinearization.rows``) for printing.  The same linearization,
transposed, is the point's multiplier system
(``stationarity.multiplier_system``), so the cones and the stationarity
checks read one derivation of the first-order data.

Tangent cones of branch problems are only ever asserted together with a
certificate: affine constraints, a linear-independence rank test, or a
strictly feasible direction, found by one plain LP.  Anything else stays
Unknown here; trusted annotations are layered on top by the qualification
checker.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import lcm

from .anf import AbsNormalProgram, EvalResult
from .ratmath import (
    FEASIBLE,
    ONE,
    ZERO,
    LpProblem,
    Vec,
    cone_generators,
    generators_to_hrep,
    integer_dot,
    lp_solve,
    primitive,
    primitive_integer,
    vec,
    vec_neg,
    zero_vec,
)
from .ratmath.matrix import coprime_integer, integer_rank
from .transforms import DEFAULT_BRANCH_CAP, BranchSpec, MpccPoint, MpccProgram, branch_specs

DEFAULT_SPLIT_DEPTH = 32

TANGENT_AFFINE = "affine"
TANGENT_LICQ = "branch-licq"
TANGENT_MFCQ = "branch-mfcq"
TANGENT_UNKNOWN = "unknown"

IntVec = tuple[int, ...]


class SubdivisionDepthExceeded(RuntimeError):
    pass


class PolyCone:
    """The cone ``{d : eq_rows . d = 0, ineq_rows . d >= 0}`` in ``dim`` variables.

    A cone's H-representation is fixed only up to a positive scale of each
    row, so a cone holds each row in one canonical form: the primitive integer
    row, a tuple of ints with coprime entries, that is a positive multiple of
    the exact row it was given.  The rows are given, or made when first read
    (``on_first_read``).  Two cones are equal when their dimensions and their
    rows, in order, are; a cone is not changed once made.
    """

    __slots__ = ("dim", "_rows")

    def __init__(self, dim: int, eq_rows=(), ineq_rows=()) -> None:
        rows = (tuple(map(primitive_integer, eq_rows)), tuple(map(primitive_integer, ineq_rows)))
        for r in itertools.chain(*rows):
            if len(r) != dim:
                raise ValueError("cone row length does not match dimension")
        self.dim = dim
        self._rows = rows

    @staticmethod
    def on_first_read(dim: int, rows) -> "PolyCone":
        """The cone whose primitive integer ``(eq_rows, ineq_rows)`` are
        ``rows()``, called at most once, when first read."""
        cone = object.__new__(PolyCone)
        cone.dim, cone._rows = dim, rows
        return cone

    def _read_rows(self) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
        rows = self._rows
        if callable(rows):
            rows = self._rows = rows()
        return rows

    @property
    def eq_rows(self) -> tuple[IntVec, ...]:
        return self._read_rows()[0]

    @property
    def ineq_rows(self) -> tuple[IntVec, ...]:
        return self._read_rows()[1]

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not PolyCone:
            return NotImplemented
        return self.dim == other.dim and self._read_rows() == other._read_rows()

    def __repr__(self) -> str:
        return f"PolyCone(dim={self.dim}, eq_rows={self.eq_rows!r}, ineq_rows={self.ineq_rows!r})"

    @staticmethod
    def full_space(dim: int) -> "PolyCone":
        return PolyCone(dim)

    def contains(self, d) -> bool:
        """Whether the exact vector ``d`` lies in the cone.  Exact for ints and
        rationals alike; a rational ``d`` is tested faster through its
        ``primitive_integer`` multiple, which pairs with each row in the same sign."""
        eq, ineq = self._read_rows()
        return all(integer_dot(r, d) == 0 for r in eq) and all(integer_dot(r, d) >= 0 for r in ineq)

    def intersect(self, other: "PolyCone") -> "PolyCone":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return PolyCone(self.dim, self.eq_rows + other.eq_rows, self.ineq_rows + other.ineq_rows)

    def with_rows(self, eq=(), ineq=()) -> "PolyCone":
        return PolyCone(self.dim, self.eq_rows + tuple(eq), self.ineq_rows + tuple(ineq))

    def generators(self) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
        """(rays, lineality basis) whose conic hull is the cone, as primitive
        integer vectors."""
        return _generators_cached(self.dim, *self._read_rows())


@functools.lru_cache(maxsize=4096)
def _generators_cached(
    dim: int, eq: tuple[IntVec, ...], ineq: tuple[IntVec, ...]
) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
    """The generators of the cone with primitive integer rows ``eq`` and
    ``ineq``: keyed by the rows, equal cones share one double description.
    ``cone_generators`` is read at each call, so a rebinding sees every miss."""
    return cone_generators(dim, eq, ineq)


def dual_cone(cone: PolyCone) -> PolyCone:
    """Dual {w : w.d >= 0 on the cone}; generated by the inequality normals plus
    the equality normals as lineality, then converted back to an H-representation.

    Only report output (``cones --dual``) builds duals; the Guignard deciders
    test conic-hull membership with ``hull_escape`` instead."""
    return PolyCone(cone.dim, *generators_to_hrep(cone.dim, cone.ineq_rows, cone.eq_rows))


def dual_union(cones: list[PolyCone], dim: int) -> PolyCone:
    """Dual of the union of the cones (of dimension ``dim``): the
    intersection of the member duals."""
    if not cones:
        return PolyCone.full_space(dim)  # dual of {0}
    out = dual_cone(cones[0])
    for cone in cones[1:]:
        out = out.intersect(dual_cone(cone))
    return out


def _signed_generators(cone: PolyCone):
    """The integer generators of the cone, each lineality vector both ways."""
    rays, lin = cone.generators()
    yield from rays
    for l in lin:
        yield l
        yield vec_neg(l)


def cone_contains(outer: PolyCone, inner: PolyCone) -> bool:
    """Set containment ``inner`` in ``outer``, exact.

    Decided from the rows first, with no generator: a cone lies in itself,
    and ``inner`` lies in ``outer`` when, on the primitive integer rows, every
    eq row of ``outer`` is an eq row of ``inner`` in either sign and every
    ineq row of ``outer`` an ineq row of ``inner`` or an eq row in either
    sign.  Otherwise decided on the generators of ``inner``."""
    if outer.dim != inner.dim:
        raise ValueError("dimension mismatch")
    if outer is inner or _rows_contain(outer, inner):
        return True
    return all(outer.contains(g) for g in _signed_generators(inner))


def _rows_contain(outer: PolyCone, inner: PolyCone) -> bool:
    """Whether every row of ``outer`` is a row of ``inner`` (the sufficient row test of ``cone_contains``)."""
    outer_eq, outer_ineq = outer.eq_rows, outer.ineq_rows
    inner_eq, inner_ineq = inner.eq_rows, inner.ineq_rows
    eq = set(inner_eq).union(map(vec_neg, inner_eq))
    return all(r in eq for r in outer_eq) and all(r in eq or r in inner_ineq for r in outer_ineq)


def _signed_rows(cone: PolyCone):
    """The rows of the cone: each equality both ways, then the inequalities."""
    for r in cone.eq_rows:
        yield r
        yield vec_neg(r)
    yield from cone.ineq_rows


def union_covers(members: list[PolyCone], target: PolyCone) -> tuple[bool, Vec | None]:
    """Decide ``target subset-of union(members)`` by recursive hyperplane subdivision.

    Returns (True, None) or (False, witness ray in the target outside every
    member).  Raises SubdivisionDepthExceeded past ``DEFAULT_SPLIT_DEPTH`` splits.
    """
    if not members:
        raise ValueError("empty union")
    return _covers(list(members), target, DEFAULT_SPLIT_DEPTH)


def _covers(members: list[PolyCone], target: PolyCone, depth: int) -> tuple[bool, Vec | None]:
    for m in members:
        if cone_contains(m, target):
            return True, None
    gens = list(_signed_generators(target))
    if depth <= 0:
        raise SubdivisionDepthExceeded("hyperplane subdivision exceeded the depth cap")
    for m in members:
        for h in _signed_rows(m):
            vals = [integer_dot(h, g) for g in gens]
            if any(v > 0 for v in vals) and any(v < 0 for v in vals):
                ok, witness = _covers(members, target.with_rows(ineq=[h]), depth - 1)
                if not ok:
                    return False, witness
                return _covers(members, target.with_rows(ineq=[vec_neg(h)]), depth - 1)
    # No member hyperplane separates the generators strictly, so the sum of all
    # generators violates, for every member, some row on which no generator is
    # positive; it is therefore a single ray escaping the whole union.
    witness = primitive_integer([sum(column) for column in zip(*gens)])
    if not any(witness) or any(m.contains(witness) for m in members):
        raise RuntimeError("subdivision invariant violated")
    return False, vec(witness)


def hull_escape(members, target: PolyCone, first=()) -> Vec | None:
    """A vector ``w`` pairing nonnegatively with every member and negatively
    with some generator of ``target``, or None when ``target`` lies in the
    closed conic hull of the members.

    By biduality, None means that the dual of the union of the members lies in
    the dual of ``target``; no H-representation of either dual is built.  A
    generator inside a single member (those in ``first`` are tried first) is
    accepted by substitution; any other costs one exact LP in ``w``.  The
    system is homogeneous, so ``w . g < 0`` is posed as ``-w . g >= 1``.
    """
    rows = None
    for g in _signed_generators(target):
        if any(m.contains(g) for m in itertools.chain(first, members)):
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
                ineq_rhs=zero_vec(len(ineq_rows)) + (ONE,),
            )
        )
        if res.status == FEASIBLE:
            return primitive(res.certificate.point)
    return None


# ---------------------------------------------------------------------------
# linearized cones


@dataclass(frozen=True)
class BranchLinearization:
    """The linearization of one formulation at one point, shared by its branches.

    A branch problem substitutes its definite signature into the same
    constraint functions, so every branch linearized cone is made from the
    gradients evaluated once here:

    * abs-normal form, variables ``(t, z)``: ``eq_grads`` are the gradients of
      ``c_e`` and ``c_z`` at ``(t, |z|)``, ``ci_grads`` those of ``c_i``.  A
      branch flips the zeta columns where its signature is
      negative, subtracts from each switching row its own ``z`` unit, and
      adds the sign row ``sigma_i dz_i >= 0`` of each degenerate switch.
    * counterpart, variables ``(x, u, v)``: ``eq_grads`` are the gradients of
      ``eq_funcs``, ``ci_grads`` those of ``ci_funcs``.  A branch
      adds one row per pair pinning the side it leaves to zero, and the row
      of the resolved side of each degenerate pair.

    A branch's rows read the active inequalities alone (``ineq_grads``); the
    multiplier system of the point (``stationarity.multiplier_system``) is
    the transpose of the same gradients, every inequality included.

    ``cone`` has exactly the rows, in the same order, of the linearized cone
    of the branch problem built for the same signature by the test oracles
    (``build_anf_branch``/``build_mpcc_branch`` in ``tests/branch_oracles.py``).
    ``affine`` says whether every constraint function of the formulation is
    affine (inactive inequalities included), which makes each branch
    linearized cone its tangent cone.
    """

    form: str  # "anf" | "mpcc"
    n_x: int  # columns before the switching block
    base: tuple[int, ...]  # the anchor signature
    gradient: Vec  # of the objective, at the anchor
    eq_grads: tuple[Vec, ...]
    ci_grads: tuple[Vec, ...]  # of every inequality, active or not
    active_i: tuple[int, ...]  # the active inequalities
    degenerate: tuple[int, ...]
    affine: bool

    @functools.cached_property
    def ineq_grads(self) -> tuple[Vec, ...]:
        """The gradients of the active inequalities."""
        return tuple(self.ci_grads[k] for k in self.active_i)

    @property
    def dim(self) -> int:
        return len(self.gradient)

    @property
    def n_eq(self) -> int:
        pins = len(self.base) if self.form == "mpcc" else 0
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
        """The linearized cone of the branch with definite signature ``signs``,
        whose rows are made when first read.

        The rows come from the gradient rows scaled to integers once per
        linearization: the branch's column flips and unit terms act on
        integers, and one gcd per row makes it primitive.
        """
        return PolyCone.on_first_read(self.dim, functools.partial(self._integer_rows, signs))

    @functools.cached_property
    def _integer_grads(self) -> tuple[list[tuple[IntVec, int]], list[tuple[IntVec, int]]]:
        """Each (eq, ineq) gradient row times the lcm of its denominators, with that scale."""

        def scaled(g: Vec) -> tuple[IntVec, int]:
            scale = lcm(*(x.denominator for x in g))
            return tuple(x.numerator * (scale // x.denominator) for x in g), scale

        return [scaled(g) for g in self.eq_grads], [scaled(g) for g in self.ineq_grads]

    def _branch_rows(self, signs: tuple[int, ...], eq_grads, ineq_grads, zero) -> tuple[list[list], list[list]]:
        """The branch's (eq, ineq) rows from gradient rows given as ``(row,
        scale)``: the negated columns flipped, each unit term added times the
        scale of its row, and the rows past the gradients made of ``zero``."""
        negated = self._negated(signs)

        def rows(grads, units, count):
            padding = count - len(grads)
            out = [list(g) for g, _ in grads] + [[zero] * self.dim for _ in range(padding)]
            scales = [scale for _, scale in grads] + [1] * padding
            for row in out[: len(grads)]:
                for c in negated:
                    row[c] = -row[c]
            for r, c, coeff in units:
                out[r][c] += coeff * scales[r]
            return out

        eq_units, ineq_units = self._units(signs)
        return rows(eq_grads, eq_units, self.n_eq), rows(ineq_grads, ineq_units, self.n_ineq)

    def rows(self, signs: tuple[int, ...]) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
        """The exact (eq, ineq) rows of the branch ``signs``, unscaled, for
        printing."""
        eq, ineq = self._branch_rows(
            signs, [(g, 1) for g in self.eq_grads], [(g, 1) for g in self.ineq_grads], ZERO
        )
        return tuple(map(tuple, eq)), tuple(map(tuple, ineq))

    def _integer_rows(self, signs: tuple[int, ...]) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
        eq, ineq = self._branch_rows(signs, *self._integer_grads, 0)
        return tuple(map(coprime_integer, eq)), tuple(map(coprime_integer, ineq))


def _infeasible_anchor(kind: str, base: tuple[int, ...]) -> ValueError:
    # every branch has the anchor's constraint values, so the first one names it
    first = BranchSpec(kind, tuple(sg or 1 for sg in base), base)
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
        ci_grads=tuple(func.gradient(block) for func in p.c_i),
        active_i=e.active_i,
        degenerate=e.alpha,
        affine=all(func.is_affine() for func in p.c_e + p.c_z + p.c_i),
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
        ci_grads=tuple(func.gradient(coords) for func in mp.ci_funcs),
        active_i=tuple(k for k, v in enumerate(values_i) if v == 0),
        degenerate=point.degenerate,
        affine=all(func.is_affine() for func in mp.eq_funcs + mp.ci_funcs),
    )


# ---------------------------------------------------------------------------
# certified tangent cones


@dataclass(frozen=True)
class TangentCertificate:
    """Why a branch tangent cone is known (or not): affine constraints, a
    full-rank active Jacobian, or a strictly feasible linearized direction."""

    status: str
    strict_point: Vec | None = None

    @property
    def certified(self) -> bool:
        return self.status != TANGENT_UNKNOWN


def tangent_cone_branch(lin: PolyCone, affine: bool) -> tuple[PolyCone | None, TangentCertificate]:
    """The branch tangent cone when certifiable, else (None, unknown-certificate).

    Affine constraints (``affine``, decided once per formulation), linear
    independence of active gradients, or a strictly feasible direction for
    the linearized system each certify that the tangent cone equals the
    linearized cone ``lin`` of the branch, which is then returned itself.
    The direction system is homogeneous, so ``E d = 0, I d > 0`` is posed as
    ``E d = 0, I d >= 1``.
    """
    if affine:
        return lin, TangentCertificate(TANGENT_AFFINE)
    eq, ineq = lin.eq_rows, lin.ineq_rows
    rows = len(eq) + len(ineq)
    # more rows than columns cannot have full row rank
    if rows <= lin.dim and integer_rank(list(map(list, eq + ineq)), lin.dim) == rows:
        return lin, TangentCertificate(TANGENT_LICQ)
    if ineq and integer_rank(list(map(list, eq)), lin.dim) == len(eq):
        problem = LpProblem(
            n_vars=lin.dim,
            eq_rows=eq,
            eq_rhs=zero_vec(len(eq)),
            ineq_rows=ineq,
            ineq_rhs=(ONE,) * len(ineq),
        )
        res = lp_solve(problem)
        if res.status == FEASIBLE:
            return lin, TangentCertificate(TANGENT_MFCQ, strict_point=res.certificate.point)
    return None, TangentCertificate(TANGENT_UNKNOWN)

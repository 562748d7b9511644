"""Reference constructions of branch linearized cones, for cross-checks.

The package builds every branch linearized cone from one linearization per
formulation and point (``cones.linearize_anf``/``linearize_mpcc``), and the
``branches`` report from the branch specs and the formulation's shape.  These
oracles build the branch problems themselves: ``SmoothBranchProblem``, a
smooth quadratic NLP built by ``build_anf_branch`` (substituting
``zeta = Sigma z`` with ``flip_signs``) and ``build_mpcc_branch``, one per
branch spec (``anf_branches``, ``mpcc_branches``).  From them the same cones
come the slow, independent ways: from a built branch problem's own functions
(``lin_cone_branch`` from the rows ``lin_rows_branch``, with
``branch_is_affine`` for the affine certificate),
or from the defining rows of
the nonconvex linearized cones (``lin_cone_abs_direct``,
``lin_cone_mpcc_direct``).
``cone_equal`` is set equality of two cones, by containment both ways.
``on_rational_rows`` runs an integer kernel of ``ratmath.dd`` on rational
rows and reads its output back as ``Fraction`` vectors, the form the kernel
took and gave before it worked on integers at its boundary.
``compose_linear`` substitutes a dense matrix into a quadratic function, by
the dense products ``transpose``, ``vec_mat`` and ``mat_mul``: the reference
for the position substitution ``transforms.to_mpcc`` makes.
``cone_image`` (by double description on the polar) and ``lift_tangent_piece``
(from the constraint Jacobians) carry a tangent piece along the branch maps
the slow, independent ways: the references for the pieces ``cq._carry`` makes
from the target branch's own rows.
``eager_branch_rows`` are the branch cone's rows built eagerly in ``Fraction``
rows, the reference for ``BranchLinearization.rows`` and, scaled to
primitive integer rows, for the rows a branch cone makes on first read.
``UnionCone`` labels the pieces of a nonconvex cone by branch;
``branch_union`` gives the package's own union from one linearization, to be
compared with the oracle unions.

The rest are maps the package no longer needs: the feasibility test of a
counterpart point (``mpcc_feasible``), the direction maps between the
abs-normal and the counterpart coordinates (``merge_direction``,
``merge_direction_matrix``, ``split_direction_matrix``, ``split_direction``),
the Jacobian of the fixed-signature switching solve (``jacobian_z``), the
constraint Jacobians split into t- and zeta-columns
(``constraint_jacobians``, ``JacobianBlocks``) and the multiplier system
read off them (``multiplier_system_oracle``), the reference for
``stationarity.multiplier_system``, which transposes a linearization.
"""

from dataclasses import dataclass
from fractions import Fraction

from absnormal.anf import (
    AbsNormalProgram,
    EvalResult,
    ProgramError,
    QuadraticFunc,
)
from absnormal.cones import BranchLinearization, PolyCone, cone_contains
from absnormal.ratmath import (
    ONE,
    ZERO,
    RatMatrix,
    Vec,
    generators_to_hrep,
    primitive_integer,
    unit_vec,
    vec,
    vec_add,
    vec_neg,
    zero_vec,
)
from absnormal.stationarity import _MultiplierSystem
from absnormal.transforms import DEFAULT_BRANCH_CAP, BranchSpec, MpccPoint, MpccProgram, branch_specs


@dataclass(frozen=True)
class JacobianBlocks:
    """All constraint Jacobians at (t, |z|), split into t- and zeta-columns."""

    d1_ce: RatMatrix
    d2_ce: RatMatrix
    d1_ci: RatMatrix
    d2_ci: RatMatrix
    d1_cz: RatMatrix
    d2_cz: RatMatrix


def constraint_jacobians(p: AbsNormalProgram, e: EvalResult) -> JacobianBlocks:
    block = e.t + e.abs_z

    def split(funcs) -> tuple[RatMatrix, RatMatrix]:
        grads = [func.gradient(block) for func in funcs]
        d1 = RatMatrix.from_rows([g[: p.n_t] for g in grads], p.n_t)
        d2 = RatMatrix.from_rows([g[p.n_t :] for g in grads], p.s)
        return d1, d2

    d1_ce, d2_ce = split(p.c_e)
    d1_ci, d2_ci = split(p.c_i)
    d1_cz, d2_cz = split(p.c_z)
    return JacobianBlocks(d1_ce, d2_ce, d1_ci, d2_ci, d1_cz, d2_cz)


def multiplier_system_oracle(p: AbsNormalProgram, e: EvalResult) -> _MultiplierSystem:
    """The multiplier system read off the abs-normal Jacobian blocks: the
    stationary rows are the t-columns of ``(c_e, -c_i, c_z)``, and the pair
    multipliers the row combination of the zeta-Jacobians shifted by -/+ the
    switching multiplier of the index.  Raises ``ValueError`` when the point
    is not feasible."""
    if not e.is_feasible():
        raise ValueError("point is not feasible")
    jac = constraint_jacobians(p, e)
    n_t, s, m1, m2 = p.n_t, p.s, p.m1, p.m2
    grad_f = p.f.gradient(e.t)

    def t_column(c: int) -> Vec:
        return (
            tuple(jac.d1_ce.entry(k, c) for k in range(m1))
            + tuple(-jac.d1_ci.entry(k, c) for k in range(m2))
            + tuple(jac.d1_cz.entry(i, c) for i in range(s))
        )

    def zeta_column(i: int) -> Vec:
        return (
            tuple(jac.d2_ce.entry(k, i) for k in range(m1))
            + tuple(-jac.d2_ci.entry(k, i) for k in range(m2))
            + tuple(jac.d2_cz.entry(j, i) for j in range(s))
        )

    stationary = tuple((t_column(c), grad_f[c]) for c in range(n_t))
    pair_u = []
    pair_v = []
    for i in range(s):
        col = list(zeta_column(i))
        col_u = list(col)
        col_u[m1 + m2 + i] -= ONE  # subtract the switching multiplier itself
        col_v = list(col)
        col_v[m1 + m2 + i] += ONE
        pair_u.append((tuple(col_u), ZERO))
        pair_v.append((tuple(col_v), ZERO))
    return _MultiplierSystem(
        m1=m1,
        m2=m2,
        s=s,
        stationary_rows=stationary,
        pair_u=tuple(pair_u),
        pair_v=tuple(pair_v),
        inactive_i=tuple(k for k, v in enumerate(e.value_i) if v != 0),
        degenerate=e.alpha,
        fixed_pair_u_zero=tuple(i for i, sg in enumerate(e.sigma) if sg > 0),
        fixed_pair_v_zero=tuple(i for i, sg in enumerate(e.sigma) if sg < 0),
    )


@dataclass(frozen=True)
class SmoothBranchProblem:
    """A smooth quadratic NLP: min objective s.t. eqs = 0, ineqs >= 0, anchored at a feasible point."""

    n_vars: int
    objective: QuadraticFunc
    eqs: tuple[QuadraticFunc, ...]
    ineqs: tuple[QuadraticFunc, ...]
    spec: BranchSpec
    anchor: Vec
    form: str  # "anf" | "mpcc"

    @property
    def label(self) -> str:
        return self.spec.label

    def anchor_feasible(self) -> bool:
        return all(func.value(self.anchor) == 0 for func in self.eqs) and all(
            func.value(self.anchor) >= 0 for func in self.ineqs
        )


def transpose(m: RatMatrix) -> RatMatrix:
    return RatMatrix(tuple(tuple(r[j] for r in m.rows) for j in range(m.cols)), m.n_rows)


def vec_mat(v: Vec, m: RatMatrix) -> Vec:
    """The row vector ``v`` times ``m``."""
    if len(v) != m.n_rows:
        raise ValueError("vector length does not match row count")
    return transpose(m).mat_vec(v)


def mat_mul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    if a.cols != b.n_rows:
        raise ValueError("inner dimensions do not match")
    return RatMatrix(tuple(vec_mat(r, b) for r in a.rows), b.cols)


def compose_linear(func: QuadraticFunc, m: RatMatrix) -> QuadraticFunc:
    """The function ``y -> func(m y)`` (m has ``func.dim`` rows)."""
    if m.n_rows != func.dim:
        raise ProgramError("substitution matrix must have one row per variable")
    mt = transpose(m)
    linear = mt.mat_vec(func.linear)
    quad = None
    if func.quadratic is not None and not func.quadratic.is_zero():
        quad = mat_mul(mat_mul(mt, func.quadratic), m)
    return QuadraticFunc(m.cols, func.constant, linear, quad)


def flip_signs(func: QuadraticFunc, signs: tuple[int, ...]) -> QuadraticFunc:
    """The function ``y -> func(S y)`` for the diagonal matrix ``S = diag(signs)``
    of entries +1/-1: ``compose_linear`` through ``S``, negating only the
    nonzero entries in a flipped column (and row)."""
    if len(signs) != func.dim:
        raise ProgramError("need one sign per variable")
    linear = tuple(-x if sg < 0 and x else x for sg, x in zip(signs, func.linear))
    quad = None
    if func.quadratic is not None and not func.quadratic.is_zero():
        rows = tuple(
            tuple(-x if x and si != sj else x for sj, x in zip(signs, row))
            for si, row in zip(signs, func.quadratic.rows)
        )
        quad = RatMatrix(rows, func.dim)
    return QuadraticFunc(func.dim, func.constant, linear, quad)


def build_anf_branch(p: AbsNormalProgram, e: EvalResult, spec: BranchSpec) -> SmoothBranchProblem:
    """The branch problem over (t, z): substitute zeta = Sigma z, which flips
    the signs of the zeta columns where the signature is negative."""
    dim = p.block_dim
    signs = (1,) * p.n_t + spec.signs
    eqs = [flip_signs(func, signs) for func in p.c_e]
    for i, func in enumerate(p.c_z):
        eqs.append(flip_signs(func, signs).add_linear(vec_neg(unit_vec(dim, p.n_t + i))))
    ineqs = [flip_signs(func, signs) for func in p.c_i]
    for i in range(p.s):
        row = tuple(Fraction(spec.signs[i]) if j == p.n_t + i else ZERO for j in range(dim))
        ineqs.append(QuadraticFunc(dim, ZERO, row))
    return SmoothBranchProblem(
        n_vars=dim,
        objective=p.f.embed(dim, tuple(range(p.n_t))),
        eqs=tuple(eqs),
        ineqs=tuple(ineqs),
        spec=spec,
        anchor=e.t + e.z,
        form="anf",
    )


def build_mpcc_branch(mp: MpccProgram, point: MpccPoint, spec: BranchSpec) -> SmoothBranchProblem:
    """The counterpart branch problem over (x, u, v): each pair pins the side
    the branch leaves to zero and keeps the other nonnegative."""
    dim = mp.dim
    eqs = list(mp.eq_funcs)
    ineqs = list(mp.ci_funcs)
    for i, sg in enumerate(spec.signs):
        u_row = unit_vec(dim, mp.u_index(i))
        v_row = unit_vec(dim, mp.v_index(i))
        if sg > 0:
            eqs.append(QuadraticFunc(dim, ZERO, v_row))
            ineqs.append(QuadraticFunc(dim, ZERO, u_row))
        else:
            eqs.append(QuadraticFunc(dim, ZERO, u_row))
            ineqs.append(QuadraticFunc(dim, ZERO, v_row))
    return SmoothBranchProblem(
        n_vars=dim,
        objective=mp.objective,
        eqs=tuple(eqs),
        ineqs=tuple(ineqs),
        spec=spec,
        anchor=point.coords,
        form="mpcc",
    )


def anf_branches(p: AbsNormalProgram, e: EvalResult, cap: int = DEFAULT_BRANCH_CAP) -> list[SmoothBranchProblem]:
    """The branch problem of every branch at the point, in ``branch_specs`` order."""
    return [build_anf_branch(p, e, spec) for spec in branch_specs("signature", e.sigma, cap)]


def mpcc_branches(mp: MpccProgram, point: MpccPoint, cap: int = DEFAULT_BRANCH_CAP) -> list[SmoothBranchProblem]:
    """The counterpart branch problems, aligned with ``anf_branches``."""
    return [build_mpcc_branch(mp, point, spec) for spec in branch_specs("partition", point.base_signature, cap)]


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
        return any(cone.contains(d) for cone in self.cones)


def branch_union(lin: BranchLinearization) -> UnionCone:
    """The package's branch cones (``BranchLinearization.cone``) of every
    branch of the linearization, labeled by branch."""
    return UnionCone(tuple((spec.label, lin.cone(spec.signs)) for spec in lin.specs()))


def eager_branch_rows(lin: BranchLinearization, signs: tuple[int, ...]) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """The (eq, ineq) rows of the branch linearized cone of ``lin`` as
    ``BranchLinearization.cone`` built them before its rows were made on
    first read: dense ``Fraction`` rows, the gradient rows with the negated
    columns flipped, padded with zero rows, and each unit term added in
    place."""
    negated = lin._negated(signs)
    eq_units, ineq_units = lin._units(signs)

    def rows(grads, units, count):
        out = [list(g) for g in grads] + [list(zero_vec(lin.dim)) for _ in range(count - len(grads))]
        for row in out[: len(grads)]:
            for c in negated:
                row[c] = -row[c]
        for r, c, coeff in units:
            out[r][c] += coeff
        return tuple(tuple(row) for row in out)

    return rows(lin.eq_grads, eq_units, lin.n_eq), rows(lin.ineq_grads, ineq_units, lin.n_ineq)


def lin_rows_branch(b: SmoothBranchProblem) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """Gradients of equalities as equations, of anchor-active inequalities as
    inequalities; each constraint is evaluated once at the anchor."""
    anchor = b.anchor
    values = [func.value(anchor) for func in b.ineqs]
    if any(v < 0 for v in values) or any(func.value(anchor) != 0 for func in b.eqs):
        raise ValueError(f"anchor is infeasible for branch {b.label}")
    eq = tuple(func.gradient(anchor) for func in b.eqs)
    ineq = tuple(func.gradient(anchor) for func, v in zip(b.ineqs, values) if v == 0)
    return eq, ineq


def lin_cone_branch(b: SmoothBranchProblem) -> PolyCone:
    """The linearized cone of the built branch problem, with the rows of ``lin_rows_branch``."""
    return PolyCone(b.n_vars, *lin_rows_branch(b))


def branch_is_affine(b: SmoothBranchProblem) -> bool:
    """Whether every constraint function of the built branch problem is
    affine: the reference for ``BranchLinearization.affine``."""
    return all(func.is_affine() for func in b.eqs + b.ineqs)


def cone_equal(a: PolyCone, b: PolyCone) -> bool:
    """Set equality of two cones, by containment both ways."""
    return cone_contains(a, b) and cone_contains(b, a)


def cone_image(cone: PolyCone, m: RatMatrix) -> PolyCone:
    """Image of the cone under the linear map with matrix ``m`` (rows = output
    coords), by double description on the polar: the reference for the rows
    ``cq._carry`` gives a transported tangent piece."""
    if m.cols != cone.dim:
        raise ValueError("matrix width must match cone dimension")
    rays, lin = cone.generators()
    eq, ineq = on_rational_rows(generators_to_hrep, m.n_rows, map(m.mat_vec, rays), map(m.mat_vec, lin))
    return PolyCone(m.n_rows, tuple(eq), tuple(ineq))


def on_rational_rows(kernel, dim: int, first, second) -> tuple[list[Vec], list[Vec]]:
    """``kernel(dim, first, second)``, for ``cone_generators`` or
    ``generators_to_hrep`` of ``ratmath.dd``, on rational rows: each input
    row scaled to its primitive integer row, and the two outputs as lists of
    ``Fraction`` vectors."""
    out = kernel(dim, [primitive_integer(r) for r in first], [primitive_integer(r) for r in second])
    return tuple([vec(v) for v in part] for part in out)


def lift_tangent_piece(
    base: AbsNormalProgram,
    base_eval: EvalResult,
    piece: PolyCone,
    z_signs: tuple[int, ...],
    w_signs: tuple[int, ...],
) -> PolyCone:
    """Tangent piece of a slack-form branch from the base-form piece.

    On the branch, the slack switching block solves to
    ``z_w = Sigma_w c_i(t, Sigma z)``, so the lifted feasible set is the graph
    of a smooth map over the base branch and its tangent cone is the graph of
    the differential over the base tangent cone.
    """
    n_t, s, m2 = base.n_t, base.s, base.m2
    new_dim = n_t + m2 + s + m2
    jac = constraint_jacobians(base, base_eval)

    def embed(row: Vec) -> Vec:
        out = [Fraction(0)] * new_dim
        for j in range(n_t):
            out[j] = row[j]
        for i in range(s):
            out[n_t + m2 + i] = row[n_t + i]
        return tuple(out)

    eq = [embed(r) for r in piece.eq_rows]
    ineq = [embed(r) for r in piece.ineq_rows]
    for k in range(m2):
        row = [Fraction(0)] * new_dim
        for j in range(n_t):
            row[j] = w_signs[k] * jac.d1_ci.entry(k, j)
        for i in range(s):
            row[n_t + m2 + i] = w_signs[k] * jac.d2_ci.entry(k, i) * z_signs[i]
        row[n_t + m2 + s + k] = Fraction(-1)
        eq.append(tuple(row))
    for k in range(m2):
        row = [Fraction(0)] * new_dim
        row[n_t + k] = Fraction(1)
        row[n_t + m2 + s + k] = Fraction(-1)
        eq.append(tuple(row))
    return PolyCone(new_dim, tuple(eq), tuple(ineq))


def union_from_branches(branches) -> UnionCone:
    return UnionCone(tuple((b.label, lin_cone_branch(b)) for b in branches))


def lin_cone_abs_direct(p: AbsNormalProgram, e: EvalResult) -> UnionCone:
    """The abs-normal-linearized cone from its defining rows, split by the sign
    pattern of the active switching directions (no branch problems involved).

    Each piece fixes signs on the active entries, replaces the zeta-directions
    by the signed z-directions, and adds the matching sign conditions.
    """
    jac = constraint_jacobians(p, e)
    dim = p.n_t + p.s
    pieces = []
    for spec in branch_specs("signature", e.sigma):
        signs = spec.signs
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
        pieces.append((spec.label, PolyCone(dim, tuple(eq), tuple(ineq))))
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
    for spec in branch_specs("partition", base):
        eq = []
        ineq = []
        for i, sg in enumerate(spec.signs):
            u_row = unit_vec(dim, i)
            v_row = unit_vec(dim, s + i)
            if sg > 0:
                eq.append(v_row)
                if base[i] == 0:
                    ineq.append(u_row)
            else:
                eq.append(u_row)
                if base[i] == 0:
                    ineq.append(v_row)
        spec_label = "P={" + ",".join(
            str(i + 1) for i in point.degenerate if spec.signs[i] == -1
        ) + "}"
        pieces.append((spec_label, PolyCone(dim, tuple(eq), tuple(ineq))))
    return UnionCone(tuple(pieces))


def mpcc_residuals(mp: MpccProgram, point: MpccPoint) -> tuple[Vec, Vec]:
    coords = point.coords
    eq = tuple(func.value(coords) for func in mp.eq_funcs)
    ineq = tuple(func.value(coords) for func in mp.ci_funcs)
    return eq, ineq


def mpcc_feasible(mp: MpccProgram, point: MpccPoint) -> bool:
    eq, ineq = mpcc_residuals(mp, point)
    return all(r == 0 for r in eq) and all(v >= 0 for v in ineq)


def merge_direction_matrix(n_x: int, s: int) -> RatMatrix:
    """(dx, du, dv) -> (dx, du - dv)."""
    dim = n_x + 2 * s
    rows = [unit_vec(dim, i) for i in range(n_x)]
    for i in range(s):
        row = [ZERO] * dim
        row[n_x + i] = ONE
        row[n_x + s + i] = -ONE
        rows.append(tuple(row))
    return RatMatrix.from_rows(rows, dim)


def split_direction_matrix(n_x: int, s: int, spec: BranchSpec) -> RatMatrix:
    """(dx, dz) -> (dx, du, dv) restricted to one branch, where it is linear:
    the matrix of ``transforms.split_direction``, for ``cone_image``.

    On the branch with signature ``spec.signs``, positive indices carry the
    whole direction in the u-part and negative indices in the v-part.
    """
    dim_in = n_x + s
    rows = [unit_vec(dim_in, i) for i in range(n_x)]
    for i in range(s):
        rows.append(unit_vec(dim_in, n_x + i) if spec.signs[i] > 0 else zero_vec(dim_in))
    for i in range(s):
        rows.append(vec_neg(unit_vec(dim_in, n_x + i)) if spec.signs[i] < 0 else zero_vec(dim_in))
    return RatMatrix.from_rows(rows, dim_in)


def split_direction(
    direction_x: Vec, direction_z: Vec, base_signs: tuple[int, ...]
) -> tuple[Vec, Vec, Vec]:
    """The inverse direction map on the full nonconvex cones (piecewise linear).

    Inactive indices keep their sign, degenerate ones are split into positive
    and negative parts.
    """
    du = []
    dv = []
    for i, sg in enumerate(base_signs):
        d = direction_z[i]
        if sg > 0:
            du.append(d)
            dv.append(ZERO)
        elif sg < 0:
            du.append(ZERO)
            dv.append(-d)
        else:
            du.append(max(d, ZERO))
            dv.append(max(-d, ZERO))
    return vec(direction_x), tuple(du), tuple(dv)


def merge_direction(direction: Vec, n_x: int, s: int) -> Vec:
    """(dx, du, dv) -> (dx, du - dv) applied to a concrete vector."""
    if len(direction) != n_x + 2 * s:
        raise ProgramError("direction has the wrong dimension")
    dx = direction[:n_x]
    du = direction[n_x : n_x + s]
    dv = direction[n_x + s :]
    return dx + tuple(a - b for a, b in zip(du, dv))


def jacobian_z(p: AbsNormalProgram, e: EvalResult, signs: tuple[int, ...]) -> RatMatrix:
    """Jacobian of the fixed-signature switching solve: (I - d2 Sigma)^(-1) d1.

    The inverse exists because ``d2 Sigma`` is strictly lower triangular, so the
    system solves row by row.
    """
    if 0 in signs or any(b and sg != b for sg, b in zip(signs, e.sigma, strict=True)):
        raise ProgramError("signature must be definite and dominate the signature at the point")
    jac = constraint_jacobians(p, e)
    rows: list[Vec] = []
    for i in range(p.s):
        row = jac.d1_cz.row(i)
        for j in range(i):
            coeff = jac.d2_cz.entry(i, j) * signs[j]
            if coeff:
                row = vec_add(row, tuple(coeff * x for x in rows[j]))
        rows.append(row)
    return RatMatrix.from_rows(rows, p.n_t) if rows else RatMatrix.zeros(0, p.n_t)

"""M- and B-stationarity checks with exact multiplier certificates.

M-stationarity asks for multipliers making the Lagrangian gradient vanish
while the pair multipliers of each degenerate switch satisfy the disjunction
"both strictly positive, or product zero".  The disjunction splits into three
convex cases per degenerate index: ``mu_u = 0``, ``mu_v = 0``, and both
``>= 0``, which with the other two covers the same union, so no case LP has a
strict row.  When the stationarity equations fix the multipliers (their rows
have full column rank, which MPCC-LICQ implies; Scheel & Scholtes 2000), one
LP decides: infeasible, its Farkas ray closes all 3^k assignments at once;
feasible, it finds the only candidate and each degenerate index takes the
first case in ``CASES`` that it satisfies.  Otherwise, or when that candidate
breaks the disjunction, the 3^k case assignments form a tree searched depth
first in ``CASES`` order.  Each node is a prefix: it fixes the cases of the
first degenerate indices and leaves the later pairs free in sign, so its
feasibility LP relaxes every assignment below it.  An infeasible prefix
closes its whole subtree with one Farkas certificate; the first feasible full
assignment is the Holds case, the same one a flat enumeration with strict
both-positive cases in ``itertools.product`` order would find
(``build_case_problem``), and the same one the single LP reads off when the
multipliers are unique.  A Fails verdict lists the closed prefixes, and a
recheck verifies each certificate and that the prefixes cover all 3^k
assignments (``uncovered_case``).  The case cap bounds the LPs solved, the
single LP included: at most 1 + (3^(k+1) - 3)/2.

Both problem forms give the same system, derived separately from each form's
data (``_anf_system``, ``_mpcc_system``).  The M check runs once;
``translate_m_verdict`` re-checks its certificate by substitution in the other
form's system, so a disagreement is a RuntimeError, never a verdict.

B-stationarity (the linearized variant) asks that no branch linearized cone
contains a first-order descent direction.  Strong stationarity implies it
(Scheel & Scholtes 2000), so strong-stationary multipliers -- the M
certificate itself when its degenerate pair multipliers are nonnegative, none
when it is the only candidate and they are not, else one LP -- are a Holds
certificate on their own, checked once by substitution
and by those signs (``verify_multiplier_verdict``); no branch is enumerated.
Only without them does the check solve one descent LP per branch, the
feasibility of ``E d = 0, I d >= 0, -gradient . d >= 1``, stopping at the
first feasible one, whose point is the descent.  A Holds then carries one
dual-cone membership certificate per branch, read off each Farkas ray.  As for M, the counterpart's verdict is the
abs-normal one translated and re-checked there (``translate_b_verdict``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction

from .anf import AbsNormalProgram, EvalResult, constraint_jacobians
from .cones import BranchLinearization, linearize_anf, linearize_mpcc
from .cq import FAILS, HOLDS
from .ratmath import (
    FEASIBLE,
    INFEASIBLE,
    KIND_FARKAS,
    ONE,
    ZERO,
    LpCertificate,
    LpProblem,
    LpResult,
    Vec,
    dot,
    integer_dot,
    lp_solve,
    primitive_integer,
    vec_neg,
    verify_certificate,
    zero_vec,
)
from .ratmath.matrix import integer_rank, integer_row
from .transforms import (
    DEFAULT_BRANCH_CAP,
    BranchSpec,
    MpccPoint,
    MpccProgram,
    parse_branch_label,
    split_direction,
)

DEFAULT_CASE_CAP = 3**10

CASE_U_ZERO = "pair-u=0"
CASE_V_ZERO = "pair-v=0"
CASE_BOTH_POSITIVE = "pair-both>0"
CASES = (CASE_U_ZERO, CASE_V_ZERO, CASE_BOTH_POSITIVE)


class CaseLimitError(RuntimeError):
    pass


@dataclass(frozen=True)
class MultiplierSet:
    """Multipliers (lam_e, lam_i, lam_z) plus the derived pair multipliers.

    ``mu_u``/``mu_v`` are determined by the stationarity rows of the
    complementarity variables; in abs-normal language the same two vectors are
    the plus/minus switching multipliers.
    """

    lam_e: Vec
    lam_i: Vec
    lam_z: Vec
    mu_u: Vec
    mu_v: Vec


@dataclass(frozen=True)
class CaseOutcome:
    assignment: tuple[str, ...]
    certificate: LpCertificate


@dataclass(frozen=True)
class BranchDualCertificate:
    branch: str
    dual_eq: Vec
    dual_ineq: Vec


@dataclass(frozen=True)
class StationarityVerdict:
    # the report writes the fields by name, in this order
    kind: str  # "m-anf" | "m-mpcc" | "b-anf" | "b-mpcc"
    status: str
    multipliers: MultiplierSet | None = None
    case: tuple[str, ...] | None = None
    failing_branch: str | None = None
    descent: Vec | None = None
    branch_certificates: tuple[BranchDualCertificate, ...] = ()
    failed_cases: tuple[CaseOutcome, ...] = ()


# ---------------------------------------------------------------------------
# shared multiplier system assembly


@dataclass(frozen=True)
class _MultiplierSystem:
    """Linear data of the stationarity system in the unknowns (lam_e, lam_i, lam_z).

    All rows are affine expressions ``(coeffs, offset)`` with value
    ``coeffs . lam + offset``: ``stationary_rows`` must vanish, while
    ``pair_u``/``pair_v`` evaluate to the pair multipliers of each switching
    index.  Substitution runs on integers: each row scaled by the lcm of its
    denominators (``integer_rows``) against ``lam`` over one denominator.
    """

    m1: int
    m2: int
    s: int
    stationary_rows: tuple[tuple[Vec, Fraction], ...]
    pair_u: tuple[tuple[Vec, Fraction], ...]
    pair_v: tuple[tuple[Vec, Fraction], ...]
    inactive_i: tuple[int, ...]
    degenerate: tuple[int, ...]
    fixed_pair_u_zero: tuple[int, ...]
    fixed_pair_v_zero: tuple[int, ...]

    @property
    def n_unknowns(self) -> int:
        return self.m1 + self.m2 + self.s

    def lam_slice(self, lam: Vec) -> tuple[Vec, Vec, Vec]:
        return lam[: self.m1], lam[self.m1 : self.m1 + self.m2], lam[self.m1 + self.m2 :]

    @functools.cached_property
    def integer_rows(self) -> tuple[tuple[tuple[list[int], int], ...], ...]:
        """``stationary_rows``, ``pair_u`` and ``pair_v``, each row ``(coeffs,
        offset)`` as ``integer_row(coeffs + (offset,))``: the integers ``d *
        (coeffs, offset)`` and their scale ``d``.  With ``h, den =
        integer_row(lam + (ONE,))``, the row's value at ``lam`` is
        ``integer_dot(row, h) / (d * den)``."""
        return tuple(
            tuple(integer_row(coeffs + (offset,)) for coeffs, offset in rows)
            for rows in (self.stationary_rows, self.pair_u, self.pair_v)
        )

    def pair_values(self, lam: Vec) -> tuple[Vec, Vec]:
        """The pair multipliers ``(mu_u, mu_v)`` at ``lam``, one ``Fraction`` each."""
        h, den = integer_row(lam + (ONE,))
        _, pair_u, pair_v = self.integer_rows
        return tuple(
            tuple(Fraction(integer_dot(row, h), d * den) for row, d in rows) for rows in (pair_u, pair_v)
        )

    @functools.cached_property
    def root(self) -> LpProblem:
        """The case LP of the empty prefix, which relaxes every assignment."""
        return build_case_problem(self, ())

    @functools.cached_property
    def fixes_multipliers(self) -> bool:
        """Whether the root's equality rows have full column rank, so that at
        most one multiplier vector solves the system."""
        rows, n = self.root.eq_rows, self.n_unknowns
        return len(rows) >= n and integer_rank([list(primitive_integer(r)) for r in rows], n) == n


def _mpcc_system(mp: MpccProgram, point: MpccPoint) -> _MultiplierSystem:
    """Stationarity of f + lam_e.c_e - lam_i.c_i + lam_z.(switching rows) minus
    the pair terms, over the full (x, u, v) gradient."""
    coords = point.coords
    n_x, s, m1, m2 = mp.n_x, mp.s, mp.m1, mp.m2
    grad_f = mp.objective.gradient(coords)
    grads_e = [func.gradient(coords) for func in mp.ce_funcs]
    grads_i = [func.gradient(coords) for func in mp.ci_funcs]
    grads_z = [func.gradient(coords) for func in mp.cz_funcs]

    def column(coord: int) -> Vec:
        return (
            tuple(g[coord] for g in grads_e)
            + tuple(-g[coord] for g in grads_i)
            + tuple(g[coord] for g in grads_z)
        )

    stationary = tuple((column(c), grad_f[c]) for c in range(n_x))
    pair_u = tuple((column(mp.u_index(i)), grad_f[mp.u_index(i)]) for i in range(s))
    pair_v = tuple((column(mp.v_index(i)), grad_f[mp.v_index(i)]) for i in range(s))
    values_i = tuple(func.value(coords) for func in mp.ci_funcs)
    inactive = tuple(k for k, v in enumerate(values_i) if v != 0)
    return _MultiplierSystem(
        m1=m1,
        m2=m2,
        s=s,
        stationary_rows=stationary,
        pair_u=pair_u,
        pair_v=pair_v,
        inactive_i=inactive,
        degenerate=point.degenerate,
        fixed_pair_u_zero=point.u_plus,
        fixed_pair_v_zero=point.v_plus,
    )


def _anf_system(p: AbsNormalProgram, e: EvalResult) -> _MultiplierSystem:
    """The same system read off the abs-normal data: the pair multipliers are
    the row combination of the zeta-Jacobians shifted by -/+ the switching
    multiplier of the index."""
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
    inactive = tuple(k for k, v in enumerate(e.value_i) if v != 0)
    u_plus = tuple(i for i, sg in enumerate(e.sigma) if sg > 0)
    v_plus = tuple(i for i, sg in enumerate(e.sigma) if sg < 0)
    return _MultiplierSystem(
        m1=m1,
        m2=m2,
        s=s,
        stationary_rows=stationary,
        pair_u=tuple(pair_u),
        pair_v=tuple(pair_v),
        inactive_i=inactive,
        degenerate=e.alpha,
        fixed_pair_u_zero=u_plus,
        fixed_pair_v_zero=v_plus,
    )


def build_case_problem(system: _MultiplierSystem, assignment: tuple[str, ...]) -> LpProblem:
    """The feasibility LP of one case prefix.

    ``assignment`` fixes the cases of the first ``len(assignment)`` degenerate
    indices; the pairs of the later ones stay free in sign, so the LP relaxes
    every full assignment extending the prefix.  Every row is an affine
    expression (coeffs, offset); as a constraint it reads coeffs . lam =
    -offset (resp. >= -offset).

    The both-positive case is posed closed, as ``pair_u >= 0`` and
    ``pair_v >= 0``; with the two zero cases it covers the same union, so the
    verdict is that of the strict case.  So is the Holds case: the search
    returns the first feasible full assignment A* in ``CASES`` order.  If a
    point of A*'s LP had ``mu_u = 0`` (or ``mu_v = 0``) at an index where A*
    takes both-positive, the same assignment with ``pair-u=0`` (or
    ``pair-v=0``) there would be feasible too, and it comes earlier.  So every
    point of A*'s LP has both pair multipliers strictly positive there, and A*
    is also the first assignment feasible with the strict case.  ``_holds``
    checks the disjunction of the point found all the same.
    """
    if len(assignment) > len(system.degenerate):
        raise ValueError(
            f"case assignment of length {len(assignment)} exceeds the "
            f"{len(system.degenerate)} degenerate indices"
        )
    n = system.n_unknowns
    eq: list[tuple[Vec, Fraction]] = list(system.stationary_rows)
    for i in system.fixed_pair_u_zero:
        eq.append(system.pair_u[i])
    for i in system.fixed_pair_v_zero:
        eq.append(system.pair_v[i])
    for k in system.inactive_i:
        row = [ZERO] * n
        row[system.m1 + k] = ONE
        eq.append((tuple(row), ZERO))
    ineq: list[tuple[Vec, Fraction]] = []
    for k in range(system.m2):
        row = [ZERO] * n
        row[system.m1 + k] = ONE
        ineq.append((tuple(row), ZERO))
    for i, case in zip(system.degenerate, assignment):
        if case == CASE_U_ZERO:
            eq.append(system.pair_u[i])
        elif case == CASE_V_ZERO:
            eq.append(system.pair_v[i])
        elif case == CASE_BOTH_POSITIVE:
            ineq += (system.pair_u[i], system.pair_v[i])
        else:
            raise ValueError(f"unknown case {case!r}")
    return LpProblem(
        n_vars=n,
        eq_rows=tuple(r for r, _ in eq),
        eq_rhs=tuple(-b for _, b in eq),
        ineq_rows=tuple(r for r, _ in ineq),
        ineq_rhs=tuple(-b for _, b in ineq),
    )


def _solve_system(system: _MultiplierSystem, kind: str) -> StationarityVerdict:
    """The M verdict of ``system``, at most ``DEFAULT_CASE_CAP`` case LPs.

    When the root equations fix the multipliers (full column rank), one LP
    decides.  If it is infeasible, its Farkas ray closes the root prefix,
    which covers all 3^k assignments.  If not, it finds the only candidate
    ``lam``, and each degenerate index takes the first case in ``CASES``
    that ``lam`` satisfies.  Every prefix LP's feasible set is then ``{lam}``
    or empty, so this is the case search's own Holds, found without it.  A
    ``lam`` that breaks the disjunction is left to ``_case_search``.
    """
    if not system.degenerate or not system.fixes_multipliers:
        return _case_search(system, kind)  # with k == 0 its only LP is the root
    _check_case_cap(0, system)
    res = lp_solve(system.root)
    if res.status != FEASIBLE:
        return StationarityVerdict(kind, FAILS, failed_cases=(CaseOutcome((), res.certificate),))
    ms = _multipliers_from_lam(system, res.certificate.point)
    assignment = tuple(_first_case(ms.mu_u[i], ms.mu_v[i]) for i in system.degenerate)
    if None not in assignment:
        return _holds(system, kind, assignment, ms)
    return _case_search(system, kind, solved=1)


def _first_case(u: Fraction, v: Fraction) -> str | None:
    """The first case in ``CASES`` that a degenerate index with pair
    multipliers ``u`` and ``v`` satisfies, or None when they violate the
    disjunction."""
    if u == 0:
        return CASE_U_ZERO
    if v == 0:
        return CASE_V_ZERO
    if u > 0 and v > 0:
        return CASE_BOTH_POSITIVE
    return None


def _check_case_cap(solved: int, system: _MultiplierSystem) -> None:
    if solved >= DEFAULT_CASE_CAP:
        raise CaseLimitError(
            f"the multiplier case search over {len(system.degenerate)} degenerate switches needs "
            f"more than the cap of {DEFAULT_CASE_CAP} case LPs"
        )


def _holds(
    system: _MultiplierSystem, kind: str, assignment: tuple[str, ...], ms: MultiplierSet
) -> StationarityVerdict:
    errors = verify_multipliers(system, ms)
    if errors:
        raise RuntimeError(f"holds certificate failed self-check: {errors}")
    return StationarityVerdict(kind, HOLDS, multipliers=ms, case=assignment)


def _case_search(system: _MultiplierSystem, kind: str, solved: int = 0) -> StationarityVerdict:
    """The depth-first case search; ``solved`` case LPs count against the cap
    already."""
    k = len(system.degenerate)
    failed: list[CaseOutcome] = []

    def first_feasible(prefix: tuple[str, ...]) -> tuple[tuple[str, ...], Vec] | None:
        """Solve ``prefix``; return the first feasible full assignment below it."""
        nonlocal solved
        _check_case_cap(solved, system)
        solved += 1
        res = lp_solve(build_case_problem(system, prefix))
        if res.status != "feasible":
            failed.append(CaseOutcome(prefix, res.certificate))
            return None
        if len(prefix) == k:
            return prefix, res.certificate.point
        return first_feasible_child(prefix)

    def first_feasible_child(prefix: tuple[str, ...]) -> tuple[tuple[str, ...], Vec] | None:
        for case in CASES:
            found = first_feasible(prefix + (case,))
            if found is not None:
                return found
        return None

    # the root LP relaxes every case, so it decides nothing unless k == 0
    found = first_feasible(()) if k == 0 else first_feasible_child(())
    if found is None:
        return StationarityVerdict(kind, FAILS, failed_cases=tuple(failed))
    assignment, lam = found
    return _holds(system, kind, assignment, _multipliers_from_lam(system, lam))


def uncovered_case(prefixes, k: int) -> tuple[str, ...] | None:
    """The first full case assignment over ``k`` degenerate indices that no
    prefix in ``prefixes`` covers, or None when they cover all 3^k."""
    closed = set(prefixes)

    def hole(prefix: tuple[str, ...]) -> tuple[str, ...] | None:
        if prefix in closed:
            return None
        if len(prefix) == k:
            return prefix
        for case in CASES:
            found = hole(prefix + (case,))
            if found is not None:
                return found
        return None

    return hole(())


def _multipliers_from_lam(system: _MultiplierSystem, lam: Vec) -> MultiplierSet:
    return MultiplierSet(*system.lam_slice(lam), *system.pair_values(lam))


def verify_multipliers(system: _MultiplierSystem, ms: MultiplierSet) -> list[str]:
    """Re-check an M-stationarity certificate by substitution."""
    lengths = [len(ms.lam_e), len(ms.lam_i), len(ms.lam_z), len(ms.mu_u), len(ms.mu_v)]
    if lengths != [system.m1, system.m2, system.s, system.s, system.s]:
        return [f"multiplier lengths {lengths} do not fit the system's {system.m1}, {system.m2} and {system.s}"]
    h, den = integer_row(ms.lam_e + ms.lam_i + ms.lam_z + (ONE,))
    stationary, pair_u, pair_v = system.integer_rows
    errors = []
    if any(integer_dot(row, h) for row, _ in stationary):
        errors.append("Lagrangian gradient row does not vanish")
    for i, ((row_u, d_u), (row_v, d_v), mu_u, mu_v) in enumerate(zip(pair_u, pair_v, ms.mu_u, ms.mu_v)):
        # row . h / (d * den) == mu, cross-multiplied
        if integer_dot(row_u, h) * mu_u.denominator != mu_u.numerator * d_u * den:
            errors.append(f"pair multiplier u[{i}] mismatch")
        if integer_dot(row_v, h) * mu_v.denominator != mu_v.numerator * d_v * den:
            errors.append(f"pair multiplier v[{i}] mismatch")
    for i in system.fixed_pair_u_zero:
        if ms.mu_u[i] != 0:
            errors.append(f"pair multiplier u[{i}] must vanish (strictly positive side)")
    for i in system.fixed_pair_v_zero:
        if ms.mu_v[i] != 0:
            errors.append(f"pair multiplier v[{i}] must vanish (strictly negative side)")
    for i in system.degenerate:
        a, b = ms.mu_u[i], ms.mu_v[i]
        if not ((a > 0 and b > 0) or a * b == 0):
            errors.append(f"degenerate pair {i} violates the sign disjunction")
    if any(x < 0 for x in ms.lam_i):
        errors.append("negative inequality multiplier")
    for k in system.inactive_i:
        if ms.lam_i[k] != 0:
            errors.append(f"inactive inequality {k} has a nonzero multiplier")
    return errors


def check_m_stationary_mpcc(mp: MpccProgram, point: MpccPoint) -> StationarityVerdict:
    """M-stationarity of the counterpart, within ``DEFAULT_CASE_CAP`` case LPs."""
    return _solve_system(_mpcc_system(mp, point), "m-mpcc")


def check_m_stationary_anf(
    p: AbsNormalProgram, e: EvalResult, system: _MultiplierSystem | None = None
) -> StationarityVerdict:
    """M-stationarity of the abs-normal form, with the case cap as above.
    ``system`` is ``multiplier_system(p, e)`` when the caller already has it."""
    return _solve_system(_anf_system(p, e) if system is None else system, "m-anf")


def multiplier_system(program, point) -> _MultiplierSystem:
    """The linear stationarity system at a point: of an ``MpccProgram`` at an
    ``MpccPoint``, else of an ``AbsNormalProgram`` at an ``EvalResult``."""
    if isinstance(program, MpccProgram):
        return _mpcc_system(program, point)
    return _anf_system(program, point)


def verify_multiplier_verdict(system: _MultiplierSystem, verdict: StationarityVerdict) -> list[str]:
    """Re-check a verdict that rests on the multiplier system, in ``system``
    by substitution: the multipliers of an M Holds, and of a B Holds by strong
    stationarity, whose degenerate pair multipliers must also be
    nonnegative; for an M Fails each prefix's LP certificate (messages start
    ``case [...]``) and that the prefixes cover all 3^k assignments."""
    if verdict.status == HOLDS:
        ms = verdict.multipliers
        if ms is None:
            return ["holds without multipliers"]
        errors = verify_multipliers(system, ms)
        if verdict.kind.startswith("b-") and not errors:
            errors = [
                f"degenerate pair {i} has a negative multiplier, so it is not strongly stationary"
                for i in system.degenerate
                if ms.mu_u[i] < 0 or ms.mu_v[i] < 0
            ]
        return errors
    if verdict.status != FAILS:
        return [f"an M-stationarity verdict holds or fails, not {verdict.status!r}"]
    errors = []
    closed = []
    for outcome in verdict.failed_cases:
        where = f"case {list(outcome.assignment)}"
        try:
            problem = build_case_problem(system, outcome.assignment)
        except ValueError as exc:
            errors.append(f"{where}: {exc}")
            continue
        closed.append(outcome.assignment)
        result = LpResult(INFEASIBLE, outcome.certificate)
        errors.extend(f"{where}: {msg}" for msg in verify_certificate(problem, result))
    hole = uncovered_case(closed, len(system.degenerate))
    if hole is not None:
        errors.append(f"no failed case covers the case assignment {list(hole)}")
    return errors


def translate_m_verdict(
    verdict: StationarityVerdict,
    system_from: _MultiplierSystem,
    system_to: _MultiplierSystem,
    kind: str,
) -> StationarityVerdict:
    """The other form's verdict from this form's multiplier certificate (an M
    verdict, or a B Holds by strong stationarity): Holds keeps lam and
    re-derives the pair multipliers in ``system_to``, Fails keeps its
    prefixes.  Invalid in ``system_from`` is a ValueError; invalid in
    ``system_to`` means the two derivations disagree, a RuntimeError."""
    errors = verify_multiplier_verdict(system_from, verdict)
    if errors:
        raise ValueError("source certificate is not valid: " + "; ".join(errors))
    out = replace(verdict, kind=kind)
    if verdict.status == HOLDS:
        ms = verdict.multipliers
        out = replace(out, multipliers=_multipliers_from_lam(system_to, ms.lam_e + ms.lam_i + ms.lam_z))
    errors = verify_multiplier_verdict(system_to, out)
    if errors:
        raise RuntimeError("translated certificate failed the target system: " + "; ".join(errors))
    return out


# ---------------------------------------------------------------------------
# B-stationarity on the branch linearized cones


def _strong_multipliers(
    system: _MultiplierSystem, m_verdict: StationarityVerdict | None
) -> MultiplierSet | None:
    """Strong-stationary multipliers, or None when there are none.

    An M certificate whose degenerate pair multipliers are all >= 0 is one and
    costs no LP; a failed M verdict rules them out, since S implies M, and so
    does any other M certificate when the system fixes the multipliers, since
    it is then the only candidate.  Otherwise one LP decides: strong
    stationarity (Scheel & Scholtes 2000) is the case with both pair
    multipliers of every degenerate switch nonnegative.
    """
    if m_verdict is not None:
        if m_verdict.status != HOLDS:
            return None
        ms = m_verdict.multipliers
        if all(ms.mu_u[i] >= 0 and ms.mu_v[i] >= 0 for i in system.degenerate):
            return ms
        if system.fixes_multipliers:
            return None
    res = lp_solve(build_case_problem(system, (CASE_BOTH_POSITIVE,) * len(system.degenerate)))
    if res.status != FEASIBLE:
        return None
    return _multipliers_from_lam(system, res.certificate.point)


def _branch_descent_lp(lin: BranchLinearization, signs: tuple[int, ...]) -> LpProblem:
    """The descent directions of the branch ``signs``: ``E d = 0, I d >= 0,
    -gradient . d >= 1`` on the branch's exact rows
    (``BranchLinearization.rows``).

    By Farkas' lemma (Schrijver 1986, ch. 7) this system is infeasible
    exactly when ``gradient = E^T y + I^T lam`` for some ``lam >= 0``: its
    Farkas ray ``(y, (lam, mu))`` has ``mu > 0``, and ``(y / mu, lam / mu)``
    is the branch's certificate."""
    eq, ineq = lin.rows(signs)
    return LpProblem(
        n_vars=lin.dim,
        eq_rows=eq,
        eq_rhs=zero_vec(len(eq)),
        ineq_rows=ineq + (vec_neg(lin.gradient),),
        ineq_rhs=zero_vec(len(ineq)) + (ONE,),
    )


def _check_b_over_branches(lin: BranchLinearization, specs, kind: str) -> StationarityVerdict:
    """One descent LP per branch, in order; stops at the first descent, so
    ``specs`` may be a generator that makes each branch on demand."""
    certificates = []
    for spec in specs:
        res = lp_solve(_branch_descent_lp(lin, spec.signs))
        cert = res.certificate
        if res.status == FEASIBLE:
            if dot(lin.gradient, cert.point) >= 0:
                raise RuntimeError(f"branch {spec.label}: the descent LP's point does not descend")
            return StationarityVerdict(kind, FAILS, failing_branch=spec.label, descent=cert.point)
        *lam, mu = cert.dual_ineq
        if mu <= 0:
            raise RuntimeError(f"branch {spec.label}: the Farkas ray's descent-row weight {mu} is not positive")
        certificates.append(
            BranchDualCertificate(spec.label, tuple(y / mu for y in cert.dual_eq), tuple(x / mu for x in lam))
        )
    return StationarityVerdict(kind, HOLDS, branch_certificates=tuple(certificates))


def check_b_stationary(
    program,
    point,
    branch_cap: int = DEFAULT_BRANCH_CAP,
    m_verdict: StationarityVerdict | None = None,
    system: _MultiplierSystem | None = None,
) -> StationarityVerdict:
    """No-descent check over every branch linearized cone.

    ``program`` is an ``MpccProgram`` at an ``MpccPoint`` (verdict ``b-mpcc``)
    or an ``AbsNormalProgram`` at an ``EvalResult`` (``b-anf``); ``m_verdict``
    is the point's M-stationarity verdict in the same form, when already
    known, and ``system`` its ``multiplier_system``, when already built.

    A Holds carries strong-stationary multipliers when there are any, checked
    by ``verify_multiplier_verdict`` with no branch built.  Only when none
    exist does the check solve one descent LP per branch
    (``_branch_descent_lp``), making the branches lazily and stopping at the
    first descent: a Holds then carries one dual-cone membership certificate
    per branch, a Fails the violating branch and an explicit descent
    direction.  Every branch cone comes from one
    linearization; the branch cap applies on either route.
    """
    linearize = linearize_mpcc if isinstance(program, MpccProgram) else linearize_anf
    lin = linearize(program, point)
    specs = lin.specs(branch_cap)
    kind = "b-" + lin.form
    if system is None:
        system = multiplier_system(program, point)
    ms = _strong_multipliers(system, m_verdict)
    if ms is None:
        return _check_b_over_branches(lin, specs, kind)
    verdict = StationarityVerdict(kind, HOLDS, multipliers=ms)
    errors = verify_multiplier_verdict(system, verdict)
    if errors:
        raise RuntimeError(f"strong-stationarity certificate failed self-check: {errors}")
    return verdict


def translate_b_verdict(
    verdict: StationarityVerdict,
    system_from: _MultiplierSystem,
    system_to: _MultiplierSystem,
    mp: MpccProgram,
    point: MpccPoint,
) -> StationarityVerdict:
    """The counterpart's B verdict from the abs-normal one, re-checked by
    substitution in the counterpart.

    ``system_from`` and ``system_to`` are the multiplier systems of the
    abs-normal form and of ``mp`` at ``point``.  Strong multipliers translate
    as an M certificate does (``translate_m_verdict``).  A branch certificate
    keeps its weights of the constraint rows, which give (lam_e, lam_i,
    lam_z); the pair multipliers re-derived from them in ``system_to`` weight
    the pair rows of the corresponding counterpart branch.  Fails: the descent
    direction is split (``split_direction``) on the failing branch.
    A source that is not valid or names no branch is a ValueError; a
    translation that fails its check means the two forms disagree, a
    RuntimeError.
    """
    if verdict.multipliers is not None:
        return translate_m_verdict(verdict, system_from, system_to, "b-mpcc")
    lin = linearize_mpcc(mp, point)
    base = point.base_signature

    def counterpart_spec(label: str) -> BranchSpec:
        spec = parse_branch_label(label, "signature", base)
        if spec is None:
            raise ValueError(f"source verdict names no abs-normal branch: {label!r}")
        return replace(spec, kind="partition")

    if verdict.status == FAILS:
        spec = counterpart_spec(verdict.failing_branch)
        descent = split_direction(mp.n_x, spec.signs, verdict.descent)
        if not lin.cone(spec.signs).contains(primitive_integer(descent)) or dot(lin.gradient, descent) >= 0:
            raise RuntimeError(f"translated descent direction fails on branch {spec.label}")
        return replace(verdict, kind="b-mpcc", failing_branch=spec.label, descent=descent)
    m1 = system_to.m1
    active = [k for k in range(system_to.m2) if k not in system_to.inactive_i]
    certificates = []
    for cert in verdict.branch_certificates:
        if len(cert.dual_eq) != m1 + system_to.s or len(cert.dual_ineq) != len(active) + len(lin.degenerate):
            raise ValueError(f"source certificate of branch {cert.branch} has the wrong length")
        spec = counterpart_spec(cert.branch)
        active_weights = dict(zip(active, cert.dual_ineq))
        lam_i = tuple(active_weights.get(k, ZERO) for k in range(system_to.m2))
        ms = _multipliers_from_lam(system_to, vec_neg(cert.dual_eq[:m1]) + lam_i + vec_neg(cert.dual_eq[m1:]))
        signs = spec.signs
        mapped = BranchDualCertificate(
            spec.label,
            cert.dual_eq + tuple(ms.mu_v[i] if sg > 0 else ms.mu_u[i] for i, sg in enumerate(signs)),
            cert.dual_ineq[: len(active)] + tuple(ms.mu_u[i] if signs[i] > 0 else ms.mu_v[i] for i in lin.degenerate),
        )
        errors = verify_branch_certificate(lin, signs, mapped)
        if errors:
            raise RuntimeError(f"translated B certificate failed the counterpart: branch {spec.label}: {errors}")
        certificates.append(mapped)
    return replace(verdict, kind="b-mpcc", branch_certificates=tuple(certificates))


def verify_branch_certificate(
    lin: BranchLinearization, signs: tuple[int, ...], cert: BranchDualCertificate
) -> list[str]:
    """Substitution check of the dual certificate of the branch ``signs`` of
    ``lin``: gradient = E^T y + I^T lam with lam >= 0 over that branch's rows,
    that is ``(y, (lam, 1))`` is a Farkas ray of ``_branch_descent_lp``."""
    if len(cert.dual_eq) != lin.n_eq or len(cert.dual_ineq) != lin.n_ineq:
        return [
            f"{len(cert.dual_eq)} + {len(cert.dual_ineq)} weights for "
            f"{lin.n_eq} + {lin.n_ineq} cone rows"
        ]
    ray = LpCertificate(KIND_FARKAS, dual_eq=cert.dual_eq, dual_ineq=cert.dual_ineq + (ONE,))
    findings = verify_certificate(_branch_descent_lp(lin, signs), LpResult(INFEASIBLE, ray))
    # the ray's right-hand side is its descent-row weight 1, so a finding is a negative weight or a nonzero column
    negative = "negative inequality weight"
    return [negative if msg.startswith(negative) else "dual combination does not reproduce the gradient" for msg in findings]

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

Both problem forms give the same system, each the transpose of its own
form's linearization (``multiplier_system`` on ``cones.linearize_anf`` or
``linearize_mpcc``, the first-order data the branch cones are made from), so
the two are still derived separately, from each form's data.  The M check
runs once, and ``translate_m_verdict`` carries its certificate to the other
form's system.
One function decides whether a verdict is valid, by substitution:
``verify_stationarity_verdict``.  Each decider self-checks what it returns
through it, each translation checks its result in the target system, and
``--recheck`` re-validates a report entry; a failed self-check is a
RuntimeError, never a verdict.

B-stationarity (the linearized variant) asks that no branch linearized cone
contains a first-order descent direction.  By Farkas' lemma a branch has none
exactly when the system has multipliers whose pair multiplier is nonnegative
on the side the branch resolves each degenerate pair to (``pair-u>=0``,
``pair-v>=0``); strong stationarity (Scheel & Scholtes 2000) has both
nonnegative and so covers every branch.  B is one depth-first search over
prefixes of the degenerate pairs, the branching of LPCC branch-and-bound (Hu,
Mitchell, Pang, Bennett & Kunapuli 2008): a prefix fixes the sides of its
pairs and keeps both pair multipliers of the later ones nonnegative, so a
feasible prefix closes its subtree.  A Holds lists the closed prefixes with
their points; the first open branch fails with the Farkas ray of its case
LP.  B's case LPs count against the same case cap as M's.  Both are
rechecked and translated as an M Fails's prefixes are
(``verify_stationarity_verdict``, ``translate_m_verdict``): every verdict
lives in the multiplier system, and the three walks over case prefixes (the
M search, the B search and the coverage check) are one, ``first_open``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace
from fractions import Fraction

from .anf import AbsNormalProgram, EvalResult
from .cones import linearize_anf, linearize_mpcc
from .cq import FAILS, HOLDS
from .ratmath import (
    FEASIBLE,
    INFEASIBLE,
    KIND_POINT,
    ONE,
    ZERO,
    LpCertificate,
    LpProblem,
    LpResult,
    Vec,
    integer_dot,
    lp_solve,
    primitive_integer,
    vec_neg,
    verify_certificate,
)
from .ratmath.matrix import integer_rank, integer_row
from .transforms import BranchSpec, MpccPoint, MpccProgram, parse_branch_label

DEFAULT_CASE_CAP = 3**10

CASE_U_ZERO = "pair-u=0"
CASE_V_ZERO = "pair-v=0"
CASE_BOTH_POSITIVE = "pair-both>0"
CASES = (CASE_U_ZERO, CASE_V_ZERO, CASE_BOTH_POSITIVE)
# the sides of a B branch, + then -: that pair multiplier >= 0, the other free
CASE_U_NONNEGATIVE = "pair-u>=0"
CASE_V_NONNEGATIVE = "pair-v>=0"
SIDES = (CASE_U_NONNEGATIVE, CASE_V_NONNEGATIVE)


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
class StationarityVerdict:
    # the report writes the fields by name, in this order
    kind: str  # "m-anf" | "m-mpcc" | "b-anf" | "b-mpcc"
    status: str
    multipliers: MultiplierSet | None = None
    case: tuple[str, ...] | None = None
    failing_branch: str | None = None
    ray: LpCertificate | None = None
    closed_cases: tuple[CaseOutcome, ...] = ()


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

    def pair_multiples(self, h: list[int]) -> tuple[list[int], list[int]]:
        """The pair multipliers at the ``lam`` of ``h, _ = integer_row(lam +
        (ONE,))``, each as its positive multiple ``row . h``: their signs."""
        _, pair_u, pair_v = self.integer_rows
        return tuple([integer_dot(row, h) for row, _ in rows] for rows in (pair_u, pair_v))

    @functools.cached_property
    def base_signature(self) -> tuple[int, ...]:
        """The anchor signature, which branch labels are read against: + where
        the pair multiplier u is fixed to zero, - where v is, 0 at a
        degenerate pair."""
        u, v = set(self.fixed_pair_u_zero), set(self.fixed_pair_v_zero)
        return tuple(1 if i in u else -1 if i in v else 0 for i in range(self.s))

    @functools.cached_property
    def root(self) -> LpProblem:
        """The case LP of the empty prefix, which relaxes every assignment."""
        return build_case_problem(self, ())

    @functools.cached_property
    def root_result(self) -> LpResult:
        """The root LP's result, solved once for the M and the B check."""
        return lp_solve(self.root)

    @functools.cached_property
    def fixes_multipliers(self) -> bool:
        """Whether the root's equality rows have full column rank, so that at
        most one multiplier vector solves the system."""
        rows, n = self.root.eq_rows, self.n_unknowns
        return len(rows) >= n and integer_rank([list(primitive_integer(r)) for r in rows], n) == n


def multiplier_system(program, point) -> _MultiplierSystem:
    """The linear stationarity system of an ``MpccProgram`` at an
    ``MpccPoint``, else of an ``AbsNormalProgram`` at an ``EvalResult``: the
    transpose of the form's linearization (``cones.linearize_mpcc``,
    ``linearize_anf``), whose guard raises ``ValueError`` at a point that is
    not feasible.

    Column c of the gradients of ``(c_e, -c_i, c_z)``, every inequality
    included, is the row of unknowns (lam_e, lam_i, lam_z) whose offset is
    the objective's c-th partial.  The x columns are the stationary rows.
    The pair rows of the counterpart are its u and v columns; those of the
    abs-normal form are the zeta column of each switch, less (u) or plus (v)
    the unit of its own switching multiplier.  The fixed pairs are the
    signed switches of the anchor signature."""
    mpcc = isinstance(program, MpccProgram)
    lin = (linearize_mpcc if mpcc else linearize_anf)(program, point)
    n_x, s = lin.n_x, len(lin.base)
    m1, m2 = len(lin.eq_grads) - s, len(lin.ci_grads)
    grads = lin.eq_grads[:m1] + tuple(map(vec_neg, lin.ci_grads)) + lin.eq_grads[m1:]

    def row(c: int, own: Fraction = ZERO) -> tuple[Vec, Fraction]:
        """Column ``c``, plus ``own`` on the switching multiplier of the zeta
        column it is."""
        coeffs = tuple(g[c] for g in grads)
        if own:
            j = m1 + m2 + c - n_x
            coeffs = coeffs[:j] + (coeffs[j] + own,) + coeffs[j + 1 :]
        return coeffs, lin.gradient[c]

    u, v, own = (n_x, n_x + s, ZERO) if mpcc else (n_x, n_x, ONE)
    return _MultiplierSystem(
        m1=m1,
        m2=m2,
        s=s,
        stationary_rows=tuple(map(row, range(n_x))),
        pair_u=tuple(row(u + i, -own) for i in range(s)),
        pair_v=tuple(row(v + i, own) for i in range(s)),
        inactive_i=tuple(k for k in range(m2) if k not in lin.active_i),
        degenerate=lin.degenerate,
        fixed_pair_u_zero=tuple(i for i, sg in enumerate(lin.base) if sg > 0),
        fixed_pair_v_zero=tuple(i for i, sg in enumerate(lin.base) if sg < 0),
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
    is also the first assignment feasible with the strict case.  The
    self-check (``_checked``) checks the disjunction of the point found and
    its case all the same.
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
        elif case == CASE_U_NONNEGATIVE:
            ineq.append(system.pair_u[i])
        elif case == CASE_V_NONNEGATIVE:
            ineq.append(system.pair_v[i])
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
    res = system.root_result
    if res.status != FEASIBLE:
        return StationarityVerdict(kind, FAILS, closed_cases=(CaseOutcome((), res.certificate),))
    ms = _multipliers_from_lam(system, res.certificate.point)
    assignment = tuple(_first_case(ms.mu_u[i], ms.mu_v[i]) for i in system.degenerate)
    if None not in assignment:
        return StationarityVerdict(kind, HOLDS, multipliers=ms, case=assignment)
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


def _case_search(system: _MultiplierSystem, kind: str, solved: int = 0) -> StationarityVerdict:
    """The depth-first case search; ``solved`` case LPs count against the cap
    already."""
    k = len(system.degenerate)
    failed: list[CaseOutcome] = []
    lam = None  # the point of the last feasible prefix, which is the found leaf's

    def closes(prefix: tuple[str, ...]) -> bool:
        """Whether ``prefix``'s case LP is infeasible, its Farkas ray recorded
        if so.  The root LP relaxes every case, so it decides nothing unless
        k == 0."""
        nonlocal solved, lam
        if not prefix and k:
            return False
        _check_case_cap(solved, system)
        solved += 1
        res = lp_solve(build_case_problem(system, prefix)) if prefix else system.root_result
        if res.status != FEASIBLE:
            failed.append(CaseOutcome(prefix, res.certificate))
            return True
        lam = res.certificate.point
        return False

    assignment = first_open(k, CASES, closes)
    if assignment is None:
        return StationarityVerdict(kind, FAILS, closed_cases=tuple(failed))
    return StationarityVerdict(kind, HOLDS, multipliers=_multipliers_from_lam(system, lam), case=assignment)


def first_open(k: int, cases: tuple[str, ...], closes) -> tuple[str, ...] | None:
    """The first full assignment of ``cases`` over ``k`` degenerate indices,
    depth first in ``cases`` order, that no prefix closes, or None.  The
    walk asks ``closes(prefix)`` of each prefix it reaches, in that order,
    and enters no prefix that closes."""

    def walk(prefix: tuple[str, ...]) -> tuple[str, ...] | None:
        if closes(prefix):
            return None
        if len(prefix) == k:
            return prefix
        # a child prefix is never empty, so never falsy
        return next(filter(None, (walk(prefix + (case,)) for case in cases)), None)

    return walk(())


def uncovered_case(prefixes, k: int, cases: tuple[str, ...]) -> tuple[str, ...] | None:
    """The first full assignment of ``cases`` over ``k`` degenerate indices
    that no prefix in ``prefixes`` covers, or None when they cover them all."""
    return first_open(k, cases, set(prefixes).__contains__)


def _multipliers_from_lam(system: _MultiplierSystem, lam: Vec) -> MultiplierSet:
    return MultiplierSet(*system.lam_slice(lam), *system.pair_values(lam))


def verify_multipliers(system: _MultiplierSystem, ms: MultiplierSet) -> list[str]:
    """Re-check an M-stationarity certificate by substitution on the integer
    rows: the Lagrangian gradient vanishes, the pair multipliers are those of
    lam, the fixed pairs vanish, each degenerate pair meets the sign
    disjunction and lam_i is an inequality multiplier."""
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
    errors += _fixed_pair_errors(system, ms.mu_u, ms.mu_v)
    for i in system.degenerate:
        a, b = ms.mu_u[i], ms.mu_v[i]
        if not ((a > 0 and b > 0) or a * b == 0):
            errors.append(f"degenerate pair {i} violates the sign disjunction")
    return errors + _inequality_errors(system, ms.lam_i)


def _fixed_pair_errors(system: _MultiplierSystem, mu_u, mu_v) -> list[str]:
    """The pair multipliers that a strictly signed switch fixes to zero and
    that are not; ``mu_u`` and ``mu_v`` may be positive multiples of them."""
    errors = [f"pair multiplier u[{i}] must vanish (strictly positive side)" for i in system.fixed_pair_u_zero if mu_u[i]]
    return errors + [f"pair multiplier v[{i}] must vanish (strictly negative side)" for i in system.fixed_pair_v_zero if mu_v[i]]


def _inequality_errors(system: _MultiplierSystem, lam_i: Vec) -> list[str]:
    """Whether ``lam_i`` fails to be an inequality multiplier: nonnegative,
    and zero on each inactive inequality."""
    errors = ["negative inequality multiplier"] if any(x < 0 for x in lam_i) else []
    return errors + [f"inactive inequality {k} has a nonzero multiplier" for k in system.inactive_i if lam_i[k]]


def _verify_case_point(system: _MultiplierSystem, assignment: tuple[str, ...], lam: Vec) -> list[str]:
    """A point of the B case prefix ``assignment``, on the integer rows: the
    rows of ``verify_multipliers`` that every case shares, and the pair
    multipliers the prefix keeps nonnegative (``_sign_violations``)."""
    h, _ = integer_row(lam + (ONE,))
    mu_u, mu_v = system.pair_multiples(h)
    stationary = system.integer_rows[0]
    errors = ["Lagrangian gradient row does not vanish"] if any(integer_dot(row, h) for row, _ in stationary) else []
    errors += _fixed_pair_errors(system, mu_u, mu_v) + _inequality_errors(system, system.lam_slice(lam)[1])
    return errors + [f"pair multiplier {name} must be nonnegative" for name in _sign_violations(system, assignment, mu_u, mu_v)]


def check_m_stationary_mpcc(mp: MpccProgram, point: MpccPoint) -> StationarityVerdict:
    """M-stationarity of the counterpart, within ``DEFAULT_CASE_CAP`` case LPs."""
    system = multiplier_system(mp, point)
    return _checked(system, _solve_system(system, "m-mpcc"), "self-check")


def check_m_stationary_anf(
    p: AbsNormalProgram, e: EvalResult, system: _MultiplierSystem | None = None
) -> StationarityVerdict:
    """M-stationarity of the abs-normal form, with the case cap as above.
    ``system`` is ``multiplier_system(p, e)`` when the caller already has it."""
    if system is None:
        system = multiplier_system(p, e)
    return _checked(system, _solve_system(system, "m-anf"), "self-check")


# the fields that a verdict writes besides its kind and status, by whether it
# is an M verdict and by its status
_WRITTEN = {
    (True, HOLDS): ("multipliers", "case"),
    (True, FAILS): ("closed_cases",),
    (False, HOLDS): ("closed_cases",),
    (False, FAILS): ("failing_branch", "ray"),
}


def verify_stationarity_verdict(system: _MultiplierSystem, verdict: StationarityVerdict) -> list[str]:
    """Re-check a stationarity verdict by substitution in the point's
    multiplier system, the one check of its validity: its status, and that it
    sets no field its kind and status never write.  An M Holds: its
    multipliers and the case of each degenerate pair (``_holds_case_errors``).
    An M Fails or a B Holds: its closed case prefixes, each with its case
    LP's Farkas ray or with a point (``_verify_case_point``), and that they
    cover every full assignment of their cases.  A B Fails: its failing
    branch, a label of its form at the system's anchor, and the Farkas ray of
    the case LP of that branch's sides.  A message about one case names it
    first (``case [...]: ...``)."""
    m_kind = verdict.kind.startswith("m-")
    what = "an M-stationarity verdict" if m_kind else "a B-stationarity verdict"
    if verdict.status not in (HOLDS, FAILS):
        return [f"{what} holds or fails, not {verdict.status!r}"]
    written = _WRITTEN[m_kind, verdict.status]
    errors = [
        f"{what} that {verdict.status} writes no {field.name}"
        for field in fields(StationarityVerdict)[2:]  # the fields after kind and status
        if field.name not in written and getattr(verdict, field.name) != field.default
    ]
    if m_kind and verdict.status == HOLDS:
        ms = verdict.multipliers
        if ms is None or verdict.case is None:
            return errors + ["holds without multipliers" if ms is None else "holds without a case"]
        return errors + (verify_multipliers(system, ms) or _holds_case_errors(system, verdict.case, ms))
    if not m_kind and verdict.status == FAILS:
        label = verdict.failing_branch
        spec = parse_branch_label(label, "signature" if verdict.kind == "b-anf" else "partition", system.base_signature)
        if spec is None:
            return errors + [f"unknown failing branch {label!r}"]
        if verdict.ray is None:
            return errors + ["fails without a ray"]
        sides = tuple(CASE_U_NONNEGATIVE if spec.signs[i] > 0 else CASE_V_NONNEGATIVE for i in system.degenerate)
        return errors + _farkas_errors(system, sides, verdict.ray)
    cases, noun = (CASES, "failed") if m_kind else (SIDES, "closed")
    k = len(system.degenerate)
    for outcome in verdict.closed_cases:
        assignment, cert = outcome.assignment, outcome.certificate
        where = f"case {list(assignment)}"
        unknown = next((case for case in assignment if case not in cases), None)
        if len(assignment) > k:
            errors.append(f"{where}: case assignment of length {len(assignment)} exceeds the {k} degenerate indices")
        elif unknown is not None:
            errors.append(f"{where}: unknown case {unknown!r}")
        elif m_kind:
            errors += _farkas_errors(system, assignment, cert)
        elif cert.kind != KIND_POINT or cert.point is None:
            errors.append(f"{where}: feasible verdict without a point certificate")
        elif len(cert.point) != system.n_unknowns:
            errors.append(f"{where}: point has {len(cert.point)} entries, expected {system.n_unknowns}")
        else:
            errors.extend(f"{where}: {msg}" for msg in _verify_case_point(system, assignment, cert.point))
    # a prefix that is too long or names another case covers no assignment
    hole = uncovered_case([outcome.assignment for outcome in verdict.closed_cases], k, cases)
    if hole is not None:
        errors.append(f"no {noun} case covers the case assignment {list(hole)}")
    return errors


def _farkas_errors(system: _MultiplierSystem, assignment: tuple[str, ...], cert: LpCertificate) -> list[str]:
    """Why ``cert`` is not a Farkas ray of the case LP of ``assignment``, each
    message naming the case."""
    result = LpResult(INFEASIBLE, cert)
    return [f"case {list(assignment)}: {msg}" for msg in verify_certificate(build_case_problem(system, assignment), result)]


def _holds_case_errors(system: _MultiplierSystem, case: tuple[str, ...], ms: MultiplierSet) -> list[str]:
    """The degenerate pairs of an M Holds whose multipliers, of the right
    lengths, miss the case that ``case`` names for them: ``pair-u=0`` has
    mu_u = 0, ``pair-v=0`` mu_v = 0 and ``pair-both>0`` both positive."""
    k = len(system.degenerate)
    if len(case) != k:
        return [f"holds case has {len(case)} entries, expected {k}"]
    errors = []
    for i, name in zip(system.degenerate, case):
        u, v = ms.mu_u[i], ms.mu_v[i]
        met = {CASE_U_ZERO: u == 0, CASE_V_ZERO: v == 0, CASE_BOTH_POSITIVE: u > 0 and v > 0}.get(name)
        if met is None:
            errors.append(f"holds case names the unknown case {name!r}")
        elif not met:
            errors.append(f"degenerate pair {i} is not in its holds case {name!r}")
    return errors


def _checked(system: _MultiplierSystem, verdict: StationarityVerdict, check: str):
    """``verdict``, once ``verify_stationarity_verdict`` finds it valid; an
    invalid one is the tool's own fault, a RuntimeError naming ``check``."""
    errors = verify_stationarity_verdict(system, verdict)
    if errors:
        raise RuntimeError(f"{verdict.kind} certificate failed {check}: {errors}")
    return verdict


def translate_m_verdict(verdict: StationarityVerdict, system_to: _MultiplierSystem, kind: str) -> StationarityVerdict:
    """The other form's verdict from this form's multiplier certificate: an M
    Holds keeps lam and re-derives the pair multipliers in ``system_to``, the
    closed prefixes and a B Fails's ray stay as they are, lam being the same
    unknowns in both systems.  A B Fails goes from the abs-normal form to the
    counterpart, its branch ``σ=...`` relabeled ``P={...}``; a label that
    names no abs-normal branch is a ValueError.  The result is checked in
    ``system_to`` alone: invalid there, the source is wrong or the two
    derivations disagree, a RuntimeError."""
    out = replace(verdict, kind=kind)
    ms = verdict.multipliers
    if ms is not None:
        out = replace(out, multipliers=_multipliers_from_lam(system_to, ms.lam_e + ms.lam_i + ms.lam_z))
    if verdict.failing_branch is not None:
        spec = parse_branch_label(verdict.failing_branch, "signature", system_to.base_signature)
        if spec is None:
            raise ValueError(f"source verdict names no abs-normal branch: {verdict.failing_branch!r}")
        out = replace(out, failing_branch=replace(spec, kind="partition").label)
    return _checked(system_to, out, "self-check in the target system")


# ---------------------------------------------------------------------------
# B-stationarity on the branch linearized cones


def _sign_violations(system: _MultiplierSystem, assignment: tuple[str, ...], mu_u: Vec, mu_v: Vec):
    """The pair multipliers, as ``u[i]``/``v[i]``, that a point of the B case
    prefix ``assignment`` keeps nonnegative but that are negative: the side
    each fixed pair resolves to, and both sides of every later pair."""
    for j, i in enumerate(system.degenerate):
        side = assignment[j] if j < len(assignment) else None
        if side != CASE_V_NONNEGATIVE and mu_u[i] < 0:
            yield f"u[{i}]"
        if side != CASE_U_NONNEGATIVE and mu_v[i] < 0:
            yield f"v[{i}]"


def check_b_stationary(
    program,
    point,
    m_verdict: StationarityVerdict | None = None,
    system: _MultiplierSystem | None = None,
) -> StationarityVerdict:
    """No-descent check over every branch linearized cone.

    ``program`` is an ``MpccProgram`` at an ``MpccPoint`` (verdict ``b-mpcc``)
    or an ``AbsNormalProgram`` at an ``EvalResult`` (``b-anf``); ``m_verdict``
    is the point's M-stationarity verdict in the same form, when already
    known, and ``system`` its ``multiplier_system``, when already built.

    The prefix search of the module docstring takes + before - and the
    first pair slowest, which is branch order.  Each prefix first tries the
    known candidate, which solves the root's rows, by its signs: the M
    certificate, or the root LP's point when the system fixes the
    multipliers, which then decides every prefix with no LP.  A failed M
    verdict closes no root, as S implies M.  The first open branch fails
    with the Farkas ray of its case LP: the search's own LP of that leaf,
    the root's when k == 0, else solved once.  The case LPs count against
    ``DEFAULT_CASE_CAP``, as M's do; the 2^k branches are never listed.
    """
    kind, label_kind = ("b-mpcc", "partition") if isinstance(program, MpccProgram) else ("b-anf", "signature")
    if system is None:
        system = multiplier_system(program, point)
    base = system.base_signature
    k = len(system.degenerate)
    solved = 0
    m_failed = m_verdict is not None and m_verdict.status != HOLDS
    known = None  # the candidate, which solves the root's rows
    if m_verdict is not None and not m_failed:
        ms = m_verdict.multipliers
        known = LpCertificate(KIND_POINT, point=ms.lam_e + ms.lam_i + ms.lam_z)
    elif system.fixes_multipliers and system.root_result.status == FEASIBLE:
        known = system.root_result.certificate
    pairs = known and system.pair_multiples(integer_row(known.point + (ONE,))[0])
    closed: list[CaseOutcome] = []

    @functools.cache
    def relaxed(prefix: tuple[str, ...]) -> LpResult:
        """The result of ``prefix``'s case LP, both pair multipliers of each
        later pair kept nonnegative: a leaf's is its branch's own."""
        nonlocal solved
        if not k:
            return system.root_result
        _check_case_cap(solved, system)
        solved += 1
        return lp_solve(build_case_problem(system, prefix + (CASE_BOTH_POSITIVE,) * (k - len(prefix))))

    def closes(prefix: tuple[str, ...]) -> bool:
        """Whether ``prefix``'s case LP is feasible, its point recorded if so."""
        if known and next(_sign_violations(system, prefix, *pairs), None) is None:
            res = LpResult(FEASIBLE, known)
        elif system.fixes_multipliers or (m_failed and not prefix):
            return False
        else:
            res = relaxed(prefix)
        if res.status == FEASIBLE:
            closed.append(CaseOutcome(prefix, res.certificate))
        return res.status == FEASIBLE

    branch = first_open(k, SIDES, closes)
    if branch is None:
        return _checked(system, StationarityVerdict(kind, HOLDS, closed_cases=tuple(closed)), "self-check")
    sides = iter(branch)
    spec = BranchSpec(label_kind, tuple(sg or (1 if next(sides) == CASE_U_NONNEGATIVE else -1) for sg in base), base)
    res = relaxed(branch)
    if res.status == FEASIBLE:
        raise RuntimeError(f"branch {spec.label}: no prefix closes it, yet its case LP is feasible")
    verdict = StationarityVerdict(kind, FAILS, failing_branch=spec.label, ray=res.certificate)
    return _checked(system, verdict, "self-check")

"""Exact linear feasibility with re-checkable certificates.

Phase one of the tableau simplex with Bland's rule (anti-cycling, so
termination needs no perturbation) decides whether a system of equality and
``>=`` rows has a solution.  The tableau is fraction-free (Edmonds 1967,
Bareiss 1968): its rows are primitive integer lists, and ``Fraction`` appears
only in the problem and in the returned results.  Each verdict carries a
certificate that re-validates by pure substitution: a feasible system a point
satisfying all rows, an infeasible one a Farkas ray.

No LP has an objective.  An optimization question is posed as the
feasibility of its improving directions, whose Farkas ray is the dual
certificate (Farkas; Schrijver 1986, ch. 7).  Nor are there strict rows: a
homogeneous system with a strict row is feasible exactly when the same system
with that row written ``>= 1`` is, since any solution can be scaled (Gordan,
Motzkin), so callers pose it that way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .matrix import ZERO, Vec, dot

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

KIND_POINT = "feasible-point"
KIND_FARKAS = "farkas-infeasibility-ray"


class LpError(ValueError):
    pass


@dataclass(frozen=True)
class LpProblem:
    """Is there an ``x`` with ``eq_rows . x = eq_rhs`` and ``ineq_rows . x >= ineq_rhs``?"""

    n_vars: int
    eq_rows: tuple[Vec, ...] = ()
    eq_rhs: Vec = ()
    ineq_rows: tuple[Vec, ...] = ()
    ineq_rhs: Vec = ()

    def __post_init__(self) -> None:
        if len(self.eq_rows) != len(self.eq_rhs) or len(self.ineq_rows) != len(self.ineq_rhs):
            raise LpError("row/rhs counts do not match")
        for r in itertools.chain(self.eq_rows, self.ineq_rows):
            if len(r) != self.n_vars:
                raise LpError("constraint row length does not match variable count")


@dataclass(frozen=True)
class LpCertificate:
    kind: str
    point: Vec | None = None
    dual_eq: Vec | None = None
    dual_ineq: Vec | None = None


@dataclass(frozen=True)
class LpResult:
    status: str
    certificate: LpCertificate


def lp_solve(p: LpProblem) -> LpResult:
    """Phase one: a feasible point, or a Farkas ray proving there is none."""
    tab = _Tableau(p)
    farkas = tab.phase_one()
    if farkas is not None:
        return LpResult(INFEASIBLE, LpCertificate(KIND_FARKAS, dual_eq=farkas[0], dual_ineq=farkas[1]))
    return LpResult(FEASIBLE, LpCertificate(KIND_POINT, point=tab.primal_point()))


class _Tableau:
    """Fraction-free standard-form tableau: free variables split, slacks on >= rows, artificial basis.

    Row ``i`` is stored as a primitive integer list equal to the rational
    tableau row times the positive integer in its basic column, so that entry
    is the row's scale.  The objective row is the integer list ``obj`` over the
    positive integer ``obj_den``.  Positive scales preserve every sign, and a
    ratio of two rows compares by cross-multiplication, so Bland's rule takes
    exactly the pivots of the rational simplex.  Fractions are formed only when
    a point or a Farkas ray is read out.
    """

    def __init__(self, p: LpProblem) -> None:
        self.p = p
        n = p.n_vars
        self.n_split = 2 * n
        self.n_ineq = len(p.ineq_rows)
        self.n_struct = self.n_split + self.n_ineq
        n_eq = len(p.eq_rows)
        self.m_orig = n_eq + self.n_ineq
        # artificial columns: n_struct + k for original row k
        self.total = self.n_struct + self.m_orig
        rows: list[list[int]] = []
        flips: list[int] = []
        scales: list[int] = []
        for k, (row, b) in enumerate(
            zip(itertools.chain(p.eq_rows, p.ineq_rows), itertools.chain(p.eq_rhs, p.ineq_rhs))
        ):
            # Scale by the lcm d of the row's denominators; the artificial
            # entry d is the scale, and the row is primitive already.
            d = lcm(b.denominator, *(x.denominator for x in row))
            flip = -1 if b < 0 else 1
            body = [flip * x.numerator * (d // x.denominator) for x in row]
            rhs = flip * b.numerator * (d // b.denominator)
            out = body + [-x for x in body] + [0] * (self.n_ineq + self.m_orig) + [rhs]
            if k >= n_eq:
                out[self.n_split + k - n_eq] = -flip * d
            out[self.n_struct + k] = d
            rows.append(out)
            flips.append(flip)
            scales.append(d)
        self.flips = flips
        self.rows = rows
        self.basis = [self.n_struct + k for k in range(self.m_orig)]
        # Phase one costs 1 on each artificial, all of them basic: obj /
        # obj_den is that cost minus the sum of the rational rows, row / d.
        den = lcm(*scales)
        obj = [0] * self.n_struct + [den] * self.m_orig + [0]
        for row, d in zip(rows, scales):
            obj = [a - (den // d) * x for a, x in zip(obj, row)]
        self._set_obj(obj, den)

    # -- pivoting ---------------------------------------------------------

    def _set_obj(self, obj: list[int], den: int) -> None:
        g = gcd(den, *obj)
        if g > 1:
            obj = [a // g for a in obj]
            den //= g
        self.obj = obj
        self.obj_den = den

    def _pivot(self, r: int, c: int) -> None:
        """Pivot on the positive entry ``rows[r][c]``, so every row keeps a
        positive scale."""
        row = self.rows[r]
        piv = row[c]
        for i, other in enumerate(self.rows):
            f = other[c]
            if i != r and f:
                new = [piv * a - f * b for a, b in zip(other, row)]
                g = gcd(*new)
                if g > 1:
                    new = [a // g for a in new]
                self.rows[i] = new
        if self.obj[c]:
            f = self.obj[c]
            self._set_obj([piv * a - f * b for a, b in zip(self.obj, row)], piv * self.obj_den)
        self.basis[r] = c

    def _iterate(self) -> None:
        """Bland pivoting until no column has a negative reduced cost.  The
        phase-one objective is bounded below by zero, so some row always
        leaves."""
        while True:
            enter = None
            for j in range(self.total):
                if self.obj[j] < 0:
                    enter = j
                    break
            if enter is None:
                return
            leave = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    if leave is None:
                        leave = i
                        continue
                    # row[-1] / a against best[-1] / best[enter]; both divisors are positive.
                    best = self.rows[leave]
                    lhs = row[-1] * best[enter]
                    rhs = best[-1] * a
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leave]):
                        leave = i
            self._pivot(leave, enter)

    # -- phase one --------------------------------------------------------

    def phase_one(self) -> tuple[Vec, Vec] | None:
        """Drive artificials to zero; on infeasibility return the Farkas ray (dual_eq, dual_ineq).

        On feasibility, every artificial still basic has value 0, so the
        basic structural values are a point as they stand."""
        self._iterate()
        if self.obj[-1] < 0:
            den = self.obj_den
            y = [Fraction(flip * (den - self.obj[self.n_struct + k]), den) for k, flip in enumerate(self.flips)]
            n_eq = len(self.p.eq_rows)
            return tuple(y[:n_eq]), tuple(y[n_eq:])
        return None

    # -- extraction --------------------------------------------------------

    def primal_point(self) -> Vec:
        x_std = [ZERO] * self.n_struct
        for i, b in enumerate(self.basis):
            if b < self.n_struct:
                row = self.rows[i]
                x_std[b] = Fraction(row[-1], row[b])
        n = self.p.n_vars
        return tuple(x_std[j] - x_std[n + j] for j in range(n))


# -- certificate validation -------------------------------------------------


def _point_feasible(p: LpProblem, x: Vec) -> bool:
    return all(dot(row, x) == b for row, b in zip(p.eq_rows, p.eq_rhs)) and all(
        dot(row, x) >= b for row, b in zip(p.ineq_rows, p.ineq_rhs)
    )


def verify_certificate(p: LpProblem, result: LpResult) -> list[str]:
    """Re-check a verdict by substitution only; returns a list of violations (empty = valid).

    Every certificate vector must fit the problem before any product is
    taken."""
    cert = result.certificate
    sizes = {"point": p.n_vars, "dual_eq": len(p.eq_rows), "dual_ineq": len(p.ineq_rows)}
    errors = [
        f"{name} has {len(v)} entries, expected {n}"
        for name, n in sizes.items()
        if (v := getattr(cert, name)) is not None and len(v) != n
    ]
    if errors:
        return errors
    if result.status == FEASIBLE:
        if cert.kind != KIND_POINT or cert.point is None:
            return ["feasible verdict without a point certificate"]
        return [] if _point_feasible(p, cert.point) else ["claimed feasible point violates a constraint"]
    if result.status == INFEASIBLE:
        if cert.kind != KIND_FARKAS:
            return [f"unexpected certificate kind {cert.kind!r} for infeasible"]
        return _check_farkas(p, cert)
    return [f"unknown status {result.status!r}"]


def _columns(p: LpProblem):
    """The columns of the constraint matrix, equality rows first: ``y . column
    j`` is entry ``j`` of the row combination with weights ``y``."""
    rows = p.eq_rows + p.ineq_rows
    return zip(*rows) if rows else itertools.repeat((), p.n_vars)


def _check_farkas(p: LpProblem, cert: LpCertificate) -> list[str]:
    errors: list[str] = []
    y_eq, y_in = cert.dual_eq, cert.dual_ineq
    if y_eq is None or y_in is None:
        return ["farkas certificate incomplete"]
    if any(lam < 0 for lam in y_in):
        errors.append("negative inequality weight in Farkas ray")
    weights = y_eq + y_in
    for j, column in enumerate(_columns(p)):
        if dot(weights, column):
            errors.append(f"Farkas combination is nonzero at column {j}")
            break
    if dot(y_eq, p.eq_rhs) + dot(y_in, p.ineq_rhs) <= 0:
        errors.append("Farkas ray does not witness a positive right-hand side")
    return errors

"""Exact linear programming with re-checkable certificates.

Two-phase tableau simplex with Bland's rule (anti-cycling, so termination
needs no perturbation).  The tableau is fraction-free (Edmonds 1967, Bareiss
1968): its rows are primitive integer lists, and ``Fraction`` appears only in
the problem and in the returned results.  Every verdict carries a certificate
that re-validates by pure substitution:

* feasible      -- a point satisfying all rows,
* infeasible    -- a Farkas ray,
* optimal       -- a primal point and dual multipliers with equal objective
                   values (duals are stated for the canonical minimization),
* unbounded     -- a feasible point plus an improving recession ray.

There are no strict rows.  A homogeneous system with a strict row is feasible
exactly when the same system with that row written ``>= 1`` is, since any
solution can be scaled (Gordan, Motzkin; Schrijver 1986, ch. 7), so callers
pose it that way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .matrix import ONE, ZERO, Vec, dot, zero_vec

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

KIND_POINT = "feasible-point"
KIND_FARKAS = "farkas-infeasibility-ray"
KIND_PAIR = "optimal-primal-dual-pair"
KIND_RAY = "unbounded-ray"


class LpError(ValueError):
    pass


@dataclass(frozen=True)
class LpProblem:
    """``min/max objective . x`` subject to ``eq_rows . x = eq_rhs`` and
    ``ineq_rows . x >= ineq_rhs``; without an objective, a feasibility query."""

    n_vars: int
    objective: Vec | None = None
    sense: str = "min"
    eq_rows: tuple[Vec, ...] = ()
    eq_rhs: Vec = ()
    ineq_rows: tuple[Vec, ...] = ()
    ineq_rhs: Vec = ()

    def __post_init__(self) -> None:
        if self.sense not in ("min", "max"):
            raise LpError(f"unknown sense {self.sense!r}")
        if self.objective is not None and len(self.objective) != self.n_vars:
            raise LpError("objective length does not match variable count")
        if len(self.eq_rows) != len(self.eq_rhs) or len(self.ineq_rows) != len(self.ineq_rhs):
            raise LpError("row/rhs counts do not match")
        for r in itertools.chain(self.eq_rows, self.ineq_rows):
            if len(r) != self.n_vars:
                raise LpError("constraint row length does not match variable count")

    def min_objective(self) -> Vec:
        """Objective of the canonical minimization (negated when sense is max)."""
        if self.objective is None:
            return zero_vec(self.n_vars)
        if self.sense == "min":
            return self.objective
        return tuple(-c for c in self.objective)


@dataclass(frozen=True)
class LpCertificate:
    kind: str
    point: Vec | None = None
    ray: Vec | None = None
    dual_eq: Vec | None = None
    dual_ineq: Vec | None = None


@dataclass(frozen=True)
class LpResult:
    status: str
    value: Fraction | None
    certificate: LpCertificate


def lp_solve(p: LpProblem) -> LpResult:
    tab = _Tableau(p)
    farkas = tab.phase_one()
    if farkas is not None:
        return LpResult(INFEASIBLE, None, LpCertificate(KIND_FARKAS, dual_eq=farkas[0], dual_ineq=farkas[1]))
    if p.objective is None:
        return LpResult(FEASIBLE, None, LpCertificate(KIND_POINT, point=tab.primal_point()))
    outcome = tab.phase_two(p.min_objective())
    if outcome == OPTIMAL:
        point = tab.primal_point()
        dual_eq, dual_ineq = tab.dual_solution()
        value = dot(p.objective, point)
        return LpResult(
            OPTIMAL, value, LpCertificate(KIND_PAIR, point=point, dual_eq=dual_eq, dual_ineq=dual_ineq)
        )
    point, ray = tab.unbounded_ray()
    return LpResult(UNBOUNDED, None, LpCertificate(KIND_RAY, point=point, ray=ray))


class _Tableau:
    """Fraction-free standard-form tableau: free variables split, slacks on >= rows, artificial basis.

    Row ``i`` is stored as a primitive integer list equal to the rational
    tableau row times the positive integer in its basic column, so that entry
    is the row's scale.  The objective row is the integer list ``obj`` over the
    positive integer ``obj_den``.  Positive scales preserve every sign, and a
    ratio of two rows compares by cross-multiplication, so Bland's rule takes
    exactly the pivots of the rational simplex.  Fractions are formed only when
    a point, ray or multiplier vector is read out.
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
        self.flips = flips
        self.rows = rows
        self.basis = [self.n_struct + k for k in range(self.m_orig)]
        self.obj: list[int] = []
        self.obj_den = 1

    # -- pivoting ---------------------------------------------------------

    def _recompute_obj(self, cost: list[Fraction]) -> None:
        # obj / obj_den = cost - sum of cost[basis[i]] times rational row i.
        den = lcm(*(c.denominator for c in cost))
        obj = [c.numerator * (den // c.denominator) for c in cost] + [0]
        for i, row in enumerate(self.rows):
            cb = cost[self.basis[i]]
            if cb:
                scale = row[self.basis[i]]
                new_den = lcm(den, cb.denominator * scale)
                up = new_den // den
                f = cb.numerator * (new_den // (cb.denominator * scale))
                obj = [up * a - f * b for a, b in zip(obj, row)]
                den = new_den
        self._set_obj(obj, den)

    def _set_obj(self, obj: list[int], den: int) -> None:
        g = gcd(den, *obj)
        if g > 1:
            obj = [a // g for a in obj]
            den //= g
        self.obj = obj
        self.obj_den = den

    def _pivot(self, r: int, c: int) -> None:
        row = self.rows[r]
        piv = row[c]
        if piv < 0:
            piv = -piv
            self.rows[r] = row = [-x for x in row]
        for i, other in enumerate(self.rows):
            f = other[c]
            if i != r and f:
                new = [piv * a - f * b for a, b in zip(other, row)]
                g = gcd(*new)
                if g > 1:
                    new = [a // g for a in new]
                self.rows[i] = new
        if self.obj and self.obj[c]:
            f = self.obj[c]
            self._set_obj([piv * a - f * b for a, b in zip(self.obj, row)], piv * self.obj_den)
        self.basis[r] = c

    def _iterate(self, allowed: range | list[int]) -> int | None:
        """Bland pivoting until optimal (returns None) or unbounded (returns entering col)."""
        while True:
            enter = None
            for j in allowed:
                if self.obj[j] < 0:
                    enter = j
                    break
            if enter is None:
                return None
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
            if leave is None:
                return enter
            self._pivot(leave, enter)

    # -- phases -----------------------------------------------------------

    def phase_one(self) -> tuple[Vec, Vec] | None:
        """Drive artificials to zero; on infeasibility return the Farkas ray (dual_eq, dual_ineq)."""
        cost = [ZERO] * self.n_struct + [ONE] * self.m_orig
        self._recompute_obj(cost)
        self._iterate(range(self.total))
        if self.obj[-1] < 0:
            den = self.obj_den
            y = [Fraction(den - self.obj[self.n_struct + k], den) for k in range(self.m_orig)]
            return self._unflip_duals(y)
        self._evict_artificials()
        return None

    def _evict_artificials(self) -> None:
        # Pivot basic artificials (necessarily at value 0) onto structural
        # columns; rows that admit none are redundant and get dropped.
        drop: list[int] = []
        for i in range(len(self.rows)):
            if self.basis[i] >= self.n_struct:
                c = next((j for j in range(self.n_struct) if self.rows[i][j] != 0), None)
                if c is None:
                    drop.append(i)
                else:
                    self._pivot(i, c)
        for i in reversed(drop):
            del self.rows[i]
            del self.basis[i]

    def phase_two(self, c_min: Vec) -> str:
        cost = (
            list(c_min)
            + [-x for x in c_min]
            + [ZERO] * self.n_ineq
            + [ZERO] * self.m_orig
        )
        self._recompute_obj(cost)
        entering = self._iterate(range(self.n_struct))
        if entering is None:
            return OPTIMAL
        self._unbounded_col = entering
        return UNBOUNDED

    # -- extraction --------------------------------------------------------

    def primal_point(self) -> Vec:
        x_std = [ZERO] * self.n_struct
        for i, b in enumerate(self.basis):
            if b < self.n_struct:
                row = self.rows[i]
                x_std[b] = Fraction(row[-1], row[b])
        n = self.p.n_vars
        return tuple(x_std[j] - x_std[n + j] for j in range(n))

    def dual_solution(self) -> tuple[Vec, Vec]:
        # The artificial block stays in the tableau, so -obj[artificial k] is
        # the simplex multiplier of original row k even after redundant rows
        # were dropped (their artificial columns keep the row-operation record).
        den = self.obj_den
        y = [Fraction(-self.obj[self.n_struct + k], den) for k in range(self.m_orig)]
        return self._unflip_duals(y)

    def _unflip_duals(self, y: list[Fraction]) -> tuple[Vec, Vec]:
        unflipped = [self.flips[k] * y[k] for k in range(self.m_orig)]
        n_eq = len(self.p.eq_rows)
        return tuple(unflipped[:n_eq]), tuple(unflipped[n_eq:])

    def unbounded_ray(self) -> tuple[Vec, Vec]:
        c = self._unbounded_col
        r_std = [ZERO] * self.n_struct
        r_std[c] = ONE
        for i, b in enumerate(self.basis):
            if b >= self.n_struct:
                raise RuntimeError("artificial variable basic after cleanup")
            row = self.rows[i]
            r_std[b] = Fraction(-row[c], row[b])
        n = self.p.n_vars
        ray = tuple(r_std[j] - r_std[n + j] for j in range(n))
        return self.primal_point(), ray


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
    sizes = {"point": p.n_vars, "ray": p.n_vars, "dual_eq": len(p.eq_rows), "dual_ineq": len(p.ineq_rows)}
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
    if result.status == OPTIMAL:
        if cert.kind != KIND_PAIR or cert.point is None or cert.dual_eq is None or cert.dual_ineq is None:
            return ["optimal verdict needs a primal-dual pair"]
        if not _point_feasible(p, cert.point):
            errors.append("optimal point infeasible")
        if p.objective is not None and dot(p.objective, cert.point) != result.value:
            errors.append("objective value mismatch at the optimal point")
        c_min = p.min_objective()
        min_value = result.value if p.sense == "min" else -result.value
        if any(lam < 0 for lam in cert.dual_ineq):
            errors.append("negative inequality multiplier")
        weights = cert.dual_eq + cert.dual_ineq
        for j, column in enumerate(_columns(p)):
            if dot(weights, column) != c_min[j]:
                errors.append(f"dual feasibility fails at column {j}")
                break
        dual_value = dot(cert.dual_eq, p.eq_rhs) + dot(cert.dual_ineq, p.ineq_rhs)
        if dual_value != min_value:
            errors.append("strong duality gap")
        return errors
    if result.status == UNBOUNDED:
        if cert.kind != KIND_RAY or cert.point is None or cert.ray is None:
            return ["unbounded verdict needs a point and a ray"]
        if not _point_feasible(p, cert.point):
            errors.append("ray base point infeasible")
        for row in p.eq_rows:
            if dot(row, cert.ray) != 0:
                errors.append("ray leaves an equality")
                break
        for row in p.ineq_rows:
            if dot(row, cert.ray) < 0:
                errors.append("ray leaves an inequality")
                break
        if p.objective is None or dot(p.min_objective(), cert.ray) >= 0:
            errors.append("ray does not improve the objective")
        return errors
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

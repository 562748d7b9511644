"""The fraction-free simplex tableau against the rational one it replaced.

``RationalTableau`` is the ``Fraction`` tableau that ``ratmath.lp`` used
before its rows became integer lists, kept here as the reference, unchanged
but for its name and without the phase two that ``ratmath.lp`` dropped later.
It still pivots the basic artificials out after a feasible phase one, which
``ratmath.lp`` no longer does: those pivots are degenerate, so the points agree.
Both are driven through the same ``lp_solve`` by swapping ``lp._Tableau``, so
equal ``repr(LpResult)`` means the same pivots led to the same verdicts and
certificates.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from absnormal.ratmath import (
    LpProblem,
    RatMatrix,
    dot,
    lp_solve,
    vec_add,
    verify_certificate,
)
from absnormal.ratmath import lp
from absnormal.ratmath.matrix import ONE, ZERO, Vec


class RationalTableau:
    """Standard-form tableau: free variables split, slacks on >= rows, artificial basis."""

    def __init__(self, p: LpProblem) -> None:
        self.p = p
        n = p.n_vars
        self.n_split = 2 * n
        self.n_ineq = len(p.ineq_rows)
        self.n_struct = self.n_split + self.n_ineq
        rows: list[list[Fraction]] = []
        flips: list[Fraction] = []
        rhs_all = list(p.eq_rhs) + list(p.ineq_rhs)
        for k, row in enumerate(itertools.chain(p.eq_rows, p.ineq_rows)):
            body = list(row) + [-x for x in row] + [ZERO] * self.n_ineq
            if k >= len(p.eq_rows):
                body[self.n_split + (k - len(p.eq_rows))] = -ONE
            b = rhs_all[k]
            flip = -ONE if b < 0 else ONE
            rows.append([flip * x for x in body] + [flip * b])
            flips.append(flip)
        self.flips = flips
        self.m_orig = len(rows)
        # artificial columns: n_struct + k for original row k
        self.total = self.n_struct + self.m_orig
        for k, row in enumerate(rows):
            art = [ZERO] * self.m_orig
            art[k] = ONE
            rows[k] = row[:-1] + art + [row[-1]]
        self.rows = rows
        self.basis = [self.n_struct + k for k in range(self.m_orig)]
        self.obj: list[Fraction] = []

    # -- pivoting ---------------------------------------------------------

    def _recompute_obj(self, cost: list[Fraction]) -> None:
        obj = cost + [ZERO]
        for i, row in enumerate(self.rows):
            cb = cost[self.basis[i]]
            if cb:
                for j in range(self.total + 1):
                    obj[j] -= cb * row[j]
        self.obj = obj

    def _pivot(self, r: int, c: int) -> None:
        row = self.rows[r]
        piv = row[c]
        if piv != 1:
            self.rows[r] = row = [x / piv for x in row]
        for i, other in enumerate(self.rows):
            if i != r and other[c]:
                f = other[c]
                self.rows[i] = [a - f * b for a, b in zip(other, row)]
        if self.obj and self.obj[c]:
            f = self.obj[c]
            self.obj = [a - f * b for a, b in zip(self.obj, row)]
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
            best = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    ratio = row[-1] / a
                    if best is None or ratio < best or (ratio == best and self.basis[i] < self.basis[leave]):
                        best = ratio
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
        value = -self.obj[-1]
        if value > 0:
            y = [ONE - self.obj[self.n_struct + k] for k in range(self.m_orig)]
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

    # -- extraction --------------------------------------------------------

    def primal_point(self) -> Vec:
        x_std = [ZERO] * self.n_struct
        for i, b in enumerate(self.basis):
            if b < self.n_struct:
                x_std[b] = self.rows[i][-1]
        n = self.p.n_vars
        return tuple(x_std[j] - x_std[n + j] for j in range(n))

    def _unflip_duals(self, y: list[Fraction]) -> tuple[Vec, Vec]:
        unflipped = [self.flips[k] * y[k] for k in range(self.m_orig)]
        n_eq = len(self.p.eq_rows)
        return tuple(unflipped[:n_eq]), tuple(unflipped[n_eq:])


def _coefficient(rng: random.Random) -> Fraction:
    if rng.random() < 0.35:
        return ZERO
    if rng.random() < 0.25:
        return Fraction(rng.randint(-7, 7), rng.randint(1, 6))
    return Fraction(rng.randint(-4, 4))


def random_lp(rng: random.Random) -> LpProblem:
    """Equality and inequality rows, homogeneous or not."""
    n = rng.randint(0, 4)
    homogeneous = rng.random() < 0.2
    n_eq = rng.randint(0, 3)
    n_ineq = rng.randint(0, 5)

    def rows(m):
        return tuple(tuple(_coefficient(rng) for _ in range(n)) for _ in range(m))

    def rhs(m):
        return tuple(ZERO if homogeneous else _coefficient(rng) for _ in range(m))

    eq_rows, ineq_rows = rows(n_eq), rows(n_ineq)
    if n_eq and rng.random() < 0.3:
        # a redundant copy of an equality, scaled
        k = rng.randrange(n_eq)
        eq_rows += (tuple(2 * x for x in eq_rows[k]),)
    eq_rhs = rhs(n_eq)
    if len(eq_rows) > n_eq:
        eq_rhs += (2 * eq_rhs[k],)
    return LpProblem(
        n_vars=n,
        eq_rows=eq_rows,
        eq_rhs=eq_rhs,
        ineq_rows=ineq_rows,
        ineq_rhs=rhs(n_ineq),
    )


class _RecordingTableau(lp._Tableau):
    made: list = []

    def __init__(self, p):
        super().__init__(p)
        self.made.append(self)


def _solve_with(monkeypatch, tableau, p):
    with monkeypatch.context() as m:
        m.setattr(lp, "_Tableau", tableau)
        return lp_solve(p)


def test_integer_tableau_matches_rational_reference(monkeypatch):
    rng = random.Random(20240501)
    statuses = {}
    for _ in range(2000):
        p = random_lp(rng)
        _RecordingTableau.made = []
        result = _solve_with(monkeypatch, _RecordingTableau, p)
        reference = _solve_with(monkeypatch, RationalTableau, p)
        assert repr(result) == repr(reference), p
        assert verify_certificate(p, result) == [], p
        assert _RecordingTableau.made
        for tab in _RecordingTableau.made:
            assert type(tab.obj_den) is int and tab.obj_den > 0
            assert all(type(x) is int for row in tab.rows for x in row)
            assert all(type(x) is int for x in tab.obj)
            assert all(row[b] > 0 and gcd(*row) == 1 for row, b in zip(tab.rows, tab.basis))
        statuses[result.status] = statuses.get(result.status, 0) + 1
    # every verdict kind occurs often enough to matter
    assert len(statuses) == 2 and min(statuses.values()) >= 100, statuses


def _sparse(rng: random.Random, n: int) -> tuple:
    return tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.3 else ZERO for _ in range(n))


def test_sparse_products_equal_the_naive_ones():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(0, 6)
        a, b = _sparse(rng, n), _sparse(rng, n)
        naive = sum((x * y for x, y in zip(a, b)), ZERO)
        value = dot(a, b)
        assert value == naive and type(value) is Fraction
        got = vec_add(a, b)
        assert got == tuple(x + y for x, y in zip(a, b)) and all(type(x) is Fraction for x in got)
        m = RatMatrix(tuple(_sparse(rng, n) for _ in range(3)), n)
        rows = m.mat_vec(a)
        assert rows == tuple(sum((m.rows[i][j] * a[j] for j in range(n)), ZERO) for i in range(3))
        assert all(type(x) is Fraction for x in rows)


def test_all_zero_products_are_fraction_zero():
    assert repr(dot((ZERO, ONE), (ONE, ZERO))) == "Fraction(0, 1)"
    assert repr(dot((), ())) == "Fraction(0, 1)"
    m = RatMatrix(((ZERO, ONE), (ZERO, ZERO)), 2)
    assert repr(m.mat_vec((ZERO, ONE))) == "(Fraction(1, 1), Fraction(0, 1))"


def test_products_still_check_lengths():
    with pytest.raises(ValueError):
        dot((ONE,), (ONE, ZERO))
    with pytest.raises(ValueError):
        RatMatrix(((ONE,),), 1).mat_vec((ONE, ONE))

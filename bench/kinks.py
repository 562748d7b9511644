"""Seeded ``kinks{k}`` problems and their hand-derived answers.

``kinks{k}`` is the abs-normal program

    minimize   sign * t_{k+1}
    subject to c_e = b_1 |z_1| + ... + b_k |z_k| - c * t_{k+1} = 0
               z_i = a_i * t_i                        (i = 1..k)

over ``t = (t_1, ..., t_{k+1})``, at the origin, where every switch is
degenerate.  The inequality variant adds two affine inequalities, both active
at the origin and both implied by the equality:

    g_1 = t_{k+1} >= 0,      g_2 = c * t_{k+1} - b_1 |z_1| >= 0.

The expected verdicts and multipliers below are derived by hand in
``README.md`` ("Hand derivation of the kinks answers"); nothing here calls the
tool under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

A_CHOICES = (-3, -2, -1, 1, 2, 3)
BC_CHOICES = (1, 2, 3)


@dataclass(frozen=True)
class Kinks:
    """One instance: switch slopes ``a``, kink weights ``b``, scale ``c``."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    c: int
    sign: int  # objective is sign * t_{k+1}
    inequalities: bool

    @property
    def k(self) -> int:
        return len(self.a)

    @property
    def name(self) -> str:
        tag = "ineq" if self.inequalities else "eq"
        obj = "min" if self.sign > 0 else "max"
        a = "_".join(str(x) for x in self.a)
        b = "_".join(str(x) for x in self.b)
        return f"kinks{self.k}-{tag}-{obj}-a{a}-b{b}-c{self.c}"


def draw(rng: random.Random, k: int, sign: int = 1, inequalities: bool = False) -> Kinks:
    a = tuple(rng.choice(A_CHOICES) for _ in range(k))
    b = tuple(rng.choice(BC_CHOICES) for _ in range(k))
    return Kinks(a, b, rng.choice(BC_CHOICES), sign, inequalities)


def problem_data(inst: Kinks) -> dict:
    """The problem file, as JSON data.  The block is ``(t_1..t_{k+1}, zeta_1..zeta_k)``."""
    k = inst.k
    n_t = k + 1

    def row(entries: dict[int, int]) -> list[str]:
        return [str(entries.get(j, 0)) for j in range(n_t + k)]

    equality = {n_t + i: inst.b[i] for i in range(k)}
    equality[k] = -inst.c
    data = {
        "name": inst.name,
        "dimensions": {"n_t": n_t, "s": k, "m1": 1, "m2": 2 if inst.inequalities else 0},
        "objective": {"linear": [str(inst.sign if j == k else 0) for j in range(n_t)]},
        "equalities": [{"linear": row(equality)}],
        "switching": [{"linear": row({i: inst.a[i]})} for i in range(k)],
        "points": [{"label": "origin", "t": ["0"] * n_t}],
    }
    if inst.inequalities:
        data["inequalities"] = [
            {"linear": row({k: 1})},
            {"linear": row({k: inst.c, n_t: -inst.b[0]})},
        ]
    return data


CQ_KEYS = ("akq", "gkq", "mpcc-acq", "mpcc-gcq", "akq-slack", "gkq-slack", "mpcc-acq-slack", "mpcc-gcq-slack")


def expected_branch_counts(inst: Kinks) -> dict[str, int]:
    """Every switch is degenerate at the origin, and so is the slack switch of
    each active inequality: each doubles the branches of its formulation."""
    n_i = 2**inst.k
    n_e = 2 ** (inst.k + (2 if inst.inequalities else 0))
    return {"abs-i": n_i, "mpcc-i": n_i, "abs-e": n_e, "mpcc-e": n_e}


def expected_multipliers(inst: Kinks) -> dict[str, list[str]] | None:
    """The unique multipliers: lam_e = sign/c, lam_z = 0, mu_u = mu_v = sign*b_i/c.

    None for the inequality variant, whose multipliers are not unique.
    """
    if inst.inequalities:
        return None
    lam_e = Fraction(inst.sign, inst.c)
    pair = [str(lam_e * b) for b in inst.b]
    return {
        "lam_e": [str(lam_e)],
        "lam_i": [],
        "lam_z": ["0"] * inst.k,
        "mu_u": pair,
        "mu_v": list(pair),
    }


def stationarity_status(inst: Kinks) -> str:
    """M and B hold at the minimizer (sign +1) and fail otherwise."""
    return "holds" if inst.sign > 0 else "fails"

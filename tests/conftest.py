"""Shared corpus builders: the four bundled verification problems.

Expected verdicts for these are derived by hand; the worksheets live in
src/absnormal/corpus/WORKSHEETS.md.
"""

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

# the oracles' own asserts are checks too: rewritten like a test module's,
# they still run under ``python -O``
pytest.register_assert_rewrite("branch_oracles")

from absnormal.anf import AbsNormalProgram, QuadraticFunc, evaluate
from absnormal.cones import PolyCone
from absnormal.ratmath import RatMatrix, zero_vec


def affine(dim, constant, linear):
    return QuadraticFunc.affine(dim, constant, linear)


def make_e1() -> AbsNormalProgram:
    """Kink equality t2 = |t1| with objective t2; origin is a minimizer."""
    return AbsNormalProgram(
        n_t=2,
        s=1,
        m1=1,
        m2=0,
        f=affine(2, 0, [0, 1]),
        c_e=(affine(3, 0, [0, 1, -1]),),
        c_i=(),
        c_z=(affine(3, 0, [1, 0, 0]),),
    )


def make_e2() -> AbsNormalProgram:
    """min(t1,t2) = 0 via (t1 + t2 - |t1 - t2|)/2, with t1, t2 >= 0."""
    return AbsNormalProgram(
        n_t=2,
        s=1,
        m1=1,
        m2=2,
        f=affine(2, 0, [1, 1]),
        c_e=(affine(3, 0, ["1/2", "1/2", "-1/2"]),),
        c_i=(affine(3, 0, [1, 0, 0]), affine(3, 0, [0, 1, 0])),
        c_z=(affine(3, 0, [1, -1, 0]),),
    )


def make_e3() -> AbsNormalProgram:
    """Equality zeta^2 = 0 with switching z = t1: the feasible set is the line t1 = 0."""
    quad = RatMatrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    return AbsNormalProgram(
        n_t=2,
        s=1,
        m1=1,
        m2=0,
        f=affine(2, 0, [1, 0]),
        c_e=(QuadraticFunc(3, Fraction(0), (Fraction(0),) * 3, quad),),
        c_i=(),
        c_z=(affine(3, 0, [1, 0, 0]),),
    )


def make_e4() -> AbsNormalProgram:
    """Equality t2 * zeta = 0 with z = t1: two crossing lines t1 = 0 and t2 = 0."""
    quad = RatMatrix.from_rows([[0, 0, 0], [0, 0, "1/2"], [0, "1/2", 0]])
    return AbsNormalProgram(
        n_t=2,
        s=1,
        m1=1,
        m2=0,
        f=affine(2, 0, [0, 1]),
        c_e=(QuadraticFunc(3, Fraction(0), (Fraction(0),) * 3, quad),),
        c_i=(),
        c_z=(affine(3, 0, [1, 0, 0]),),
    )


def e3_annotations():
    # hand tangent cone of both branches at the origin: the line
    # {dt1 = 0, dz = 0} in (dt1, dt2, dz) coordinates
    line = PolyCone(3, [[1, 0, 0], [0, 0, 1]])
    return {"σ=+": (line,), "σ=-": (line,)}


def e4_annotations():
    # per branch, the tangent set is the union of the line {dt1 = dz = 0}
    # and the half-line {dt2 = 0, dt1 = dz, sign(dt1) = branch sign}
    line = PolyCone(3, [[1, 0, 0], [0, 0, 1]])
    plus_ray = PolyCone(3, [[0, 1, 0], [1, 0, -1]], [[1, 0, 0]])
    minus_ray = PolyCone(3, [[0, 1, 0], [1, 0, -1]], [[-1, 0, 0]])
    return {"σ=+": (line, plus_ray), "σ=-": (line, minus_ray)}


def random_affine_program(rng: random.Random, max_s: int = 2, rational: bool = False) -> AbsNormalProgram:
    """A random affine program that is feasible at t = 0 with a mix of active,
    inactive, and degenerate structure; with ``rational``, each coefficient
    ``k`` is divided by a random 1, 2 or 3."""
    n_t = rng.randint(1, 2)
    s = rng.randint(1, max_s)
    m1 = rng.randint(0, 1)
    m2 = rng.randint(0, 2)
    block = n_t + s

    def coeff():
        k = Fraction(rng.randint(-2, 2))
        return k / rng.randint(1, 3) if rational else k

    c_z = []
    for i in range(s):
        linear = [coeff() for _ in range(n_t)] + [
            coeff() if j < i else Fraction(0) for j in range(s)
        ]
        constant = rng.choice([Fraction(0), Fraction(0), coeff()])
        c_z.append(QuadraticFunc(block, constant, tuple(linear)))
    p0 = AbsNormalProgram(
        n_t=n_t,
        s=s,
        m1=0,
        m2=0,
        f=QuadraticFunc.zero(n_t),
        c_e=(),
        c_i=(),
        c_z=tuple(c_z),
    )
    e0 = evaluate(p0, zero_vec(n_t))
    base = zero_vec(n_t) + e0.abs_z

    c_e = []
    for _ in range(m1):
        linear = tuple(coeff() for _ in range(block))
        # shift so the row vanishes at the anchor (keeps t = 0 feasible)
        value = sum(c * x for c, x in zip(linear, base))
        c_e.append(QuadraticFunc(block, -value, linear))
    c_i = []
    for _ in range(m2):
        linear = tuple(coeff() for _ in range(block))
        value = sum(c * x for c, x in zip(linear, base))
        slack = rng.choice([Fraction(0), Fraction(0), Fraction(1)])
        c_i.append(QuadraticFunc(block, slack - value, linear))
    f = QuadraticFunc(n_t, Fraction(0), tuple(coeff() for _ in range(n_t)))
    return AbsNormalProgram(
        n_t=n_t, s=s, m1=m1, m2=m2, f=f, c_e=tuple(c_e), c_i=tuple(c_i), c_z=tuple(c_z)
    )


def kinks_like_program(rng: random.Random, k: int) -> AbsNormalProgram:
    """``c t_{k+1} = sum_i b_i |a_i t_i|`` with objective ``sign t_{k+1} +
    sum_i o_i t_i``; its multipliers are unique at the origin: lam_e = sign/c,
    lam_z_i = -o_i/a_i, and the pairs are b_i lam_e -/+ lam_z_i.  Each o_i
    zeroes the u pair, zeroes the v pair, or is drawn at random, so every
    case comes up and so do pairs that break the disjunction."""
    a = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(k)]
    b = [rng.randint(-3, 3) for _ in range(k)]
    c = rng.randint(1, 3)
    sign = rng.choice((-1, 1))
    objective = []
    for i in range(k):
        kind = rng.randrange(3)
        pair = Fraction(a[i] * b[i] * sign, c)
        objective.append(-pair if kind == 0 else pair if kind == 1 else Fraction(rng.randint(-2, 2)))
    block = 2 * k + 1
    return AbsNormalProgram(
        n_t=k + 1,
        s=k,
        m1=1,
        m2=0,
        f=affine(k + 1, 0, objective + [sign]),
        c_e=(affine(block, 0, [0] * k + [-c] + b),),
        c_i=(),
        c_z=tuple(affine(block, 0, [a[i] if j == i else 0 for j in range(block)]) for i in range(k)),
    )


def fallback_kinks_problem(k: int) -> dict:
    """``t_{k+i} = |t_i|`` and ``t_i <= 0`` for ``i = 1..k``, with objective
    ``-sum_i i (t_i + t_{k+i})``, as problem data at the origin.

    The objective vanishes on the feasible set, so the origin is B-stationary
    in every one of its 2^k branches.  M holds only with the pair multiplier
    ``mu_v = -2i`` of switch ``i``, so there are no strong multipliers and a
    B Holds fixes every pair: each branch is closed by its own case prefix.
    """
    n_t = 2 * k

    def row(entries: dict[int, int]) -> list[str]:
        return [str(entries.get(j, 0)) for j in range(n_t + k)]

    return {
        "name": f"fallback-kinks{k}",
        "dimensions": {"n_t": n_t, "s": k, "m1": k, "m2": k},
        "objective": {"linear": [str(-(i % k + 1)) for i in range(n_t)]},
        "equalities": [{"linear": row({n_t + i: 1, k + i: -1})} for i in range(k)],
        "inequalities": [{"linear": row({i: -1})} for i in range(k)],
        "switching": [{"linear": row({i: 1})} for i in range(k)],
        "points": [{"label": "origin", "t": ["0"] * n_t}],
    }


def bench_kinks():
    """The benchmark's seeded ``kinks{k}`` generator, ``bench/kinks.py``."""
    kinks = sys.modules.get("bench_kinks")
    if kinks is None:
        path = Path(__file__).resolve().parent.parent / "bench" / "kinks.py"
        spec = importlib.util.spec_from_file_location("bench_kinks", path)
        kinks = sys.modules["bench_kinks"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(kinks)
    return kinks


def qkinks_problem(k: int, inequalities: bool) -> dict:
    """The seed-1 ``kinks{k}`` problem of ``bench_kinks()``, or its inequality
    variant, with ``t_{k+1}²`` added to its equality, as problem data.

    The gradient at the origin is unchanged, so the branches, verdicts and
    multipliers are those of ``kinks{k}``.  But no formulation is affine, so
    every branch certifies its own tangent cone: by a rank test
    (``branch-licq``) without the inequalities, by a strict LP
    (``branch-mfcq``) with them.
    """
    kinks = bench_kinks()
    data = kinks.problem_data(kinks.draw(random.Random(1), k, 1, inequalities))
    dim = 2 * k + 1
    data["name"] = "q" + data["name"]
    data["equalities"][0]["quadratic"] = [["1" if i == j == k else "0" for j in range(dim)] for i in range(dim)]
    return data


@pytest.fixture
def e1():
    return make_e1()


@pytest.fixture
def e2():
    return make_e2()


@pytest.fixture
def e3():
    return make_e3()


@pytest.fixture
def e4():
    return make_e4()

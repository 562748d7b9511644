"""Derived formulations: slack lifting, complementarity counterparts, branches.

Four formulations share two generic shapes.  The slack-lifted program
(``to_slack``) is again a program in abs-normal form, over ``(t, w)`` with
switching block ``(z, z_w)``, and ``slack_point`` lifts a point into it; the
complementarity counterpart of either one (``to_mpcc``) substitutes
``zeta -> u + v`` and ``z -> u - v`` with one complementarity pair per
switching variable.  A branch fixes a definite signature (respectively a
resolution of the degenerate pairs) and is made here only as its spec; every
qualification verdict and the ``branches`` report work on the branch specs
and one linearization per formulation and point (``cones.linearize_anf``/
``linearize_mpcc``), and a B-stationarity Fails names its branch by the
spec's label.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .anf import (
    AbsNormalProgram,
    EvalResult,
    ProgramError,
    QuadraticFunc,
    require_valid,
)
from .ratmath import ONE, ZERO, Vec, unit_vec, vec, vec_neg

DEFAULT_BRANCH_CAP = 65536  # branches, 2^16: the default of every --branch-cap


class BranchLimitError(RuntimeError):
    """Raised when an enumeration would exceed the configured branch cap."""


# ---------------------------------------------------------------------------
# slack reformulation


def to_slack(p: AbsNormalProgram) -> AbsNormalProgram:
    """Equality-only lifting: inequalities become ``c_i(t,|z|) - |z_w| = 0`` with ``w = z_w``.

    The result is itself a valid abs-normal program; the slack switching block
    is ordered after the original one, which preserves triangularity.
    """
    require_valid(p)
    n_t, s, m1, m2 = p.n_t, p.s, p.m1, p.m2
    new_n_t = n_t + m2
    new_s = s + m2
    new_block = new_n_t + new_s
    # old block (t, zeta) sits at t_i -> i and zeta_i -> n_t + m2 + i
    positions = tuple(range(n_t)) + tuple(new_n_t + i for i in range(s))
    c_e = [func.embed(new_block, positions) for func in p.c_e]
    for k, func in enumerate(p.c_i):
        slack_col = new_n_t + s + k
        c_e.append(func.embed(new_block, positions).add_linear(vec_neg(unit_vec(new_block, slack_col))))
    c_z = [func.embed(new_block, positions) for func in p.c_z]
    for k in range(m2):
        c_z.append(QuadraticFunc.affine(new_block, 0, unit_vec(new_block, n_t + k)))
    lifted = AbsNormalProgram(
        n_t=new_n_t,
        s=new_s,
        m1=m1 + m2,
        m2=0,
        f=p.f.embed(new_n_t, tuple(range(n_t))),
        c_e=tuple(c_e),
        c_i=(),
        c_z=tuple(c_z),
    )
    require_valid(lifted)
    return lifted


def slack_point(e: EvalResult, signs: tuple[int, ...] | None = None) -> Vec:
    """The smooth variables (t, w) of ``to_slack`` at the point ``e``, with the
    slack representative ``w_k = signs_k * c_i_k`` (by default every sign +1)."""
    if signs is None:
        signs = (1,) * len(e.value_i)
    if len(signs) != len(e.value_i):
        raise ProgramError("need one sign per inequality")
    return e.t + tuple(Fraction(sg) * val for sg, val in zip(signs, e.value_i))


# ---------------------------------------------------------------------------
# counterpart with complementarity pairs


@dataclass(frozen=True)
class MpccProgram:
    """Counterpart with variables (x, u, v) and pairs ``0 <= u_i  complementary  v_i >= 0``.

    Constraint functions live over the block ``(x, u, v)``; the switching rows
    already include the ``-(u_i - v_i)`` term.
    """

    n_x: int
    s: int
    m1: int
    m2: int
    objective: QuadraticFunc
    ce_funcs: tuple[QuadraticFunc, ...]
    ci_funcs: tuple[QuadraticFunc, ...]
    cz_funcs: tuple[QuadraticFunc, ...]

    @property
    def dim(self) -> int:
        return self.n_x + 2 * self.s

    def u_index(self, i: int) -> int:
        return self.n_x + i

    def v_index(self, i: int) -> int:
        return self.n_x + self.s + i

    @property
    def eq_funcs(self) -> tuple[QuadraticFunc, ...]:
        return self.ce_funcs + self.cz_funcs


def to_mpcc(p: AbsNormalProgram) -> MpccProgram:
    require_valid(p)
    n_x, s = p.n_t, p.s
    dim = n_x + 2 * s
    # block substitution (x, u, v) -> (x, u + v): zeta_i sits at u_i and at v_i
    positions = tuple(range(n_x)) + tuple((n_x + i, n_x + s + i) for i in range(s))
    ce = tuple(func.embed(dim, positions) for func in p.c_e)
    ci = tuple(func.embed(dim, positions) for func in p.c_i)
    cz = []
    for i, func in enumerate(p.c_z):
        extra = [ZERO] * dim
        extra[n_x + i] = -ONE
        extra[n_x + s + i] = ONE
        cz.append(func.embed(dim, positions).add_linear(tuple(extra)))
    return MpccProgram(
        n_x=n_x,
        s=s,
        m1=p.m1,
        m2=p.m2,
        objective=p.f.embed(dim, tuple(range(n_x))),
        ce_funcs=ce,
        ci_funcs=ci,
        cz_funcs=tuple(cz),
    )


@dataclass(frozen=True)
class MpccPoint:
    x: Vec
    u: Vec
    v: Vec

    def __post_init__(self) -> None:
        if len(self.u) != len(self.v):
            raise ProgramError("u and v must have equal length")
        if any(a < 0 for a in self.u) or any(b < 0 for b in self.v):
            raise ProgramError("complementarity variables must be nonnegative")
        if any(a * b != 0 for a, b in zip(self.u, self.v)):
            raise ProgramError("complementarity violated")

    @property
    def degenerate(self) -> tuple[int, ...]:
        return tuple(i for i, (a, b) in enumerate(zip(self.u, self.v)) if a == 0 and b == 0)

    @property
    def base_signature(self) -> tuple[int, ...]:
        return tuple(1 if a > 0 else (-1 if b > 0 else 0) for a, b in zip(self.u, self.v))

    @property
    def coords(self) -> Vec:
        return self.x + self.u + self.v


def phi(point: MpccPoint) -> Vec:
    """Map a counterpart point to the abs-normal point (x, z) with z = u - v."""
    return point.x + tuple(a - b for a, b in zip(point.u, point.v))


def phi_inv(x: Vec, z: Vec) -> MpccPoint:
    """Split z into nonnegative and nonpositive parts: u = max(z,0), v = max(-z,0)."""
    u = tuple(max(c, ZERO) for c in z)
    v = tuple(max(-c, ZERO) for c in z)
    return MpccPoint(vec(x), u, v)


def mpcc_point_from_eval(e: EvalResult) -> MpccPoint:
    return phi_inv(e.t, e.z)


# ---------------------------------------------------------------------------
# branches


@dataclass(frozen=True)
class BranchSpec:
    """One branch: a definite signature, or equivalently a resolution of degenerate pairs.

    ``signs`` is the definite signature, dominating ``base_signs``, the
    (possibly indefinite) signature at the anchor.  Specs are trusted data:
    only ``branch_specs`` and ``parse_branch_label`` make them, and the
    latter checks a label from outside.  The partition view collects the
    degenerate indices resolved to the negative side.
    """

    kind: str  # "signature" | "partition"
    signs: tuple[int, ...]
    base_signs: tuple[int, ...]

    @functools.cached_property
    def label(self) -> str:
        if self.kind == "signature":
            return "σ=" + "".join("+" if sg > 0 else "-" for sg in self.signs)
        negative = (i + 1 for i, (sg, b) in enumerate(zip(self.signs, self.base_signs)) if b == 0 and sg < 0)
        return "P={" + ",".join(map(str, negative)) + "}"


def _check_cap(n_degenerate: int, cap: int) -> None:
    if 2**n_degenerate > cap:
        raise BranchLimitError(
            f"{2**n_degenerate} branches from {n_degenerate} degenerate switches "
            f"exceed the cap of {cap}; the enumeration is exponential by nature, "
            "raise the cap explicitly to proceed"
        )


def branch_specs(kind: str, base: tuple[int, ...], cap: int = DEFAULT_BRANCH_CAP):
    """The branches of ``kind`` at a point of anchor signature ``base``, one
    spec per definite signature dominating it, made as they are consumed.  The
    cap is checked at the call, before any spec is made.

    Order is deterministic: degenerate entries are resolved + before -, first
    index varying slowest.
    """
    _check_cap(base.count(0), cap)
    choices = [(sg,) if sg else (1, -1) for sg in base]
    return (BranchSpec(kind, signs, base) for signs in itertools.product(*choices))


def enumerate_branches(e: EvalResult, cap: int = DEFAULT_BRANCH_CAP) -> list[BranchSpec]:
    """The branches at the abs-normal point ``e``, in ``branch_specs`` order."""
    return list(branch_specs("signature", e.sigma, cap))


def enumerate_mpcc_branches(point: MpccPoint, cap: int = DEFAULT_BRANCH_CAP) -> list[BranchSpec]:
    """The branches at the counterpart point, aligned with ``enumerate_branches``."""
    return list(branch_specs("partition", point.base_signature, cap))


def parse_branch_label(label, kind: str, base_signs: tuple[int, ...]) -> BranchSpec | None:
    """The branch of ``kind`` at a point of anchor signature ``base_signs``
    whose label is ``label``, or None when no such branch has it.

    Labels from outside (problem-file annotations, reports being rechecked)
    come in here, the one place a spec is checked: the signature must have
    the anchor's length and dominate it, and the label must be the spec's
    own, which makes the signature definite and the partition members
    sorted, distinct and degenerate.
    """
    if not isinstance(label, str):
        return None
    if kind == "signature" and label.startswith("σ="):
        signs = tuple(1 if ch == "+" else -1 if ch == "-" else 0 for ch in label[2:])
    elif kind == "partition" and label.startswith("P={") and label.endswith("}"):
        try:
            negative = {int(m) - 1 for m in label[3:-1].split(",")} if label != "P={}" else set()
        except ValueError:
            return None
        signs = tuple(-1 if i in negative else sg or 1 for i, sg in enumerate(base_signs))
    else:
        return None
    if len(signs) != len(base_signs) or any(b and sg != b for sg, b in zip(signs, base_signs)):
        return None
    spec = BranchSpec(kind, signs, base_signs)
    return spec if spec.label == label else None


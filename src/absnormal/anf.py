"""Data model and evaluation of programs in abs-normal form.

A program couples a smooth objective over variables ``t`` with constraint
families over the block ``(t, zeta)``, where ``zeta`` stands for the absolute
values of the switching vector ``z``.  The switching constraint is strictly
lower triangular in ``zeta``, so ``z`` is computed by forward substitution and
every derived quantity (signature, active sets, gradients) is exact.

Constraint functions are quadratic polynomials with rational coefficients;
that keeps point-wise Jacobians rational and downstream cone computations
exact.  Higher smoothness classes are a documented extension point of the data
model, not implemented.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .ratmath import (
    ZERO,
    RatMatrix,
    Vec,
    dot,
    rat,
    vec,
    vec_add,
    zero_vec,
)


class ProgramError(ValueError):
    pass


@dataclass(frozen=True)
class QuadraticFunc:
    """``constant + linear . x + x . quadratic . x`` with symmetric quadratic part."""

    dim: int
    constant: Fraction
    linear: Vec
    quadratic: RatMatrix | None = None

    def __post_init__(self) -> None:
        if len(self.linear) != self.dim:
            raise ProgramError("linear coefficient length does not match dimension")
        if self.quadratic is not None and self.quadratic.shape != (self.dim, self.dim):
            raise ProgramError("quadratic matrix shape does not match dimension")

    @staticmethod
    def affine(dim: int, constant, linear) -> "QuadraticFunc":
        return QuadraticFunc(dim, rat(constant), vec(linear))

    @staticmethod
    def zero(dim: int) -> "QuadraticFunc":
        return QuadraticFunc(dim, ZERO, zero_vec(dim))

    def is_affine(self) -> bool:
        return self.quadratic is None or self.quadratic.is_zero()

    def value(self, x: Vec) -> Fraction:
        v = self.constant + dot(self.linear, x)
        if self.quadratic is not None:
            v += dot(x, self.quadratic.mat_vec(x))
        return v

    def gradient(self, x: Vec) -> Vec:
        g = self.linear
        if self.quadratic is not None:
            g = vec_add(g, tuple(2 * y for y in self.quadratic.mat_vec(x)))
        return g

    def embed(self, new_dim: int, positions) -> "QuadraticFunc":
        """Same function over a larger block; old variable i sits at
        ``positions[i]``, a position or a tuple of positions.  A variable at
        several positions is the sum of the variables there, so each of its
        coefficients is placed at every one of them."""
        if len(positions) != self.dim:
            raise ProgramError("need one position per variable")
        spots = [p if isinstance(p, tuple) else (p,) for p in positions]
        linear = [ZERO] * new_dim
        for x, ps in zip(self.linear, spots):
            for p in ps if x else ():
                linear[p] += x
        quad = None
        if self.quadratic is not None and not self.quadratic.is_zero():
            rows = [[ZERO] * new_dim for _ in range(new_dim)]
            for row, pis in zip(self.quadratic.rows, spots):
                for x, pjs in zip(row, spots):
                    for pi, pj in itertools.product(pis, pjs) if x else ():
                        rows[pi][pj] += x
            quad = RatMatrix(tuple(map(tuple, rows)), new_dim)
        return QuadraticFunc(new_dim, self.constant, tuple(linear), quad)

    def add_linear(self, extra: Vec, constant=ZERO) -> "QuadraticFunc":
        return QuadraticFunc(self.dim, self.constant + constant, vec_add(self.linear, extra), self.quadratic)


@dataclass(frozen=True)
class AbsNormalProgram:
    """min f(t) over (t, z) with c_e(t,|z|) = 0, c_i(t,|z|) >= 0, c_z(t,|z|) = z."""

    n_t: int
    s: int
    m1: int
    m2: int
    f: QuadraticFunc
    c_e: tuple[QuadraticFunc, ...]
    c_i: tuple[QuadraticFunc, ...]
    c_z: tuple[QuadraticFunc, ...]

    @property
    def block_dim(self) -> int:
        """Dimension of the constraint argument block (t, zeta)."""
        return self.n_t + self.s

    def zeta_index(self, i: int) -> int:
        return self.n_t + i


@dataclass(frozen=True)
class EvalResult:
    t: Vec
    z: Vec
    sigma: tuple[int, ...]  # the sign of each switching variable
    alpha: tuple[int, ...]
    active_i: tuple[int, ...]
    residual_e: Vec
    value_i: Vec

    @property
    def abs_z(self) -> Vec:
        return tuple(abs(x) for x in self.z)

    @property
    def point(self) -> Vec:
        """The full feasible-space point (t, z)."""
        return self.t + self.z

    def is_feasible(self) -> bool:
        return all(r == 0 for r in self.residual_e) and all(v >= 0 for v in self.value_i)


def validate(p: AbsNormalProgram) -> list[str]:
    """Structural validation; returns the list of violations (empty = valid)."""
    issues: list[str] = []
    if p.n_t < 0 or p.s < 0 or p.m1 < 0 or p.m2 < 0:
        issues.append("negative dimension")
    if p.f.dim != p.n_t:
        issues.append(f"objective has dimension {p.f.dim}, expected {p.n_t}")
    for name, funcs, count in (("c_e", p.c_e, p.m1), ("c_i", p.c_i, p.m2), ("c_z", p.c_z, p.s)):
        if len(funcs) != count:
            issues.append(f"{name} has {len(funcs)} rows, expected {count}")
        for k, func in enumerate(funcs):
            if func.dim != p.block_dim:
                issues.append(f"{name}[{k}] has dimension {func.dim}, expected {p.block_dim}")
            if func.quadratic is not None and not func.quadratic.is_symmetric():
                issues.append(f"{name}[{k}] has an asymmetric quadratic matrix")
    for i, func in enumerate(p.c_z):
        if func.dim != p.block_dim:
            continue
        for j in range(i, p.s):
            col = p.zeta_index(j)
            if func.linear[col] != 0:
                issues.append(f"triangularity violation: c_z[{i}] depends linearly on zeta[{j}]")
            if func.quadratic is not None and any(
                func.quadratic.entry(col, k) != 0 for k in range(p.block_dim)
            ):
                issues.append(f"triangularity violation: c_z[{i}] depends quadratically on zeta[{j}]")
    return issues


def require_valid(p: AbsNormalProgram) -> None:
    issues = validate(p)
    if issues:
        raise ProgramError("; ".join(issues))


def evaluate(p: AbsNormalProgram, t) -> EvalResult:
    """Solve the switching system by forward substitution and classify the point."""
    require_valid(p)
    t = vec(t)
    if len(t) != p.n_t:
        raise ProgramError(f"point has {len(t)} coordinates, expected {p.n_t}")
    zeta = list(zero_vec(p.s))
    z: list[Fraction] = []
    for i in range(p.s):
        zi = p.c_z[i].value(t + tuple(zeta))
        z.append(zi)
        zeta[i] = abs(zi)
    block = t + tuple(zeta)
    signs = tuple(0 if x == 0 else (1 if x > 0 else -1) for x in z)
    alpha = tuple(i for i, x in enumerate(z) if x == 0)
    residual_e = tuple(func.value(block) for func in p.c_e)
    value_i = tuple(func.value(block) for func in p.c_i)
    active_i = tuple(k for k, v in enumerate(value_i) if v == 0)
    return EvalResult(t, tuple(z), signs, alpha, active_i, residual_e, value_i)


def quadratic_from_strings(dim: int, data: dict) -> QuadraticFunc:
    """Build a function from string/int coefficient data ({"constant", "linear", "quadratic"})."""
    constant = rat(data.get("constant", 0))
    linear = vec(data.get("linear", [0] * dim))
    if len(linear) != dim:
        raise ProgramError(f"linear part has {len(linear)} entries, expected {dim}")
    quad = None
    if data.get("quadratic") is not None:
        quad = RatMatrix.from_rows(data["quadratic"], dim)
        if quad.shape != (dim, dim):
            raise ProgramError(f"quadratic part must be {dim}x{dim}")
        if not quad.is_symmetric():
            raise ProgramError("quadratic part must be symmetric")
    return QuadraticFunc(dim, constant, linear, quad)

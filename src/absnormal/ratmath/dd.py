"""Double description: exact conversion between cone representations.

A polyhedral cone ``{d : E d = 0, I d >= 0}`` is converted to generators
(extreme rays plus a lineality basis) by processing one constraint at a time,
starting from all of space.  Adjacency of rays is decided by the algebraic
rank test on the common tight set, which stays correct in the presence of a
lineality space.  The reverse conversion runs the same algorithm on the polar
cone.

Output is canonical: rays are primitive integer vectors sorted
lexicographically, the lineality basis is the primitive reduced row echelon
form of the lineality space.
"""

from __future__ import annotations

from fractions import Fraction

from .matrix import (
    Vec,
    dot,
    is_zero_vec,
    primitive,
    rank_rows,
    rref,
    unit_vec,
    vec_scale,
    vec_sub,
)


class _Ray:
    __slots__ = ("v", "tight")

    def __init__(self, v: Vec, tight: frozenset[int]):
        self.v = v
        self.tight = tight


def cone_generators(dim: int, eq_rows, ineq_rows) -> tuple[list[Vec], list[Vec]]:
    """Return (rays, lineality) generating ``{d : eq_rows . d = 0, ineq_rows . d >= 0}``."""
    lineality: list[Vec] = [unit_vec(dim, i) for i in range(dim)]
    rays: list[_Ray] = []
    eq_seen: list[Vec] = []
    ineq_seen: list[Vec] = []

    def adjacent(r1: _Ray, r2: _Ray) -> bool:
        rows = eq_seen + [ineq_seen[i] for i in sorted(r1.tight & r2.tight)]
        return dim - rank_rows(rows, dim) == len(lineality) + 2

    def split_rays(a: Vec, keep_positive_side: bool, new_index: int | None) -> None:
        vals = [(dot(a, r.v), r) for r in rays]
        pos = [(x, r) for x, r in vals if x > 0]
        zero = [r for x, r in vals if x == 0]
        neg = [(x, r) for x, r in vals if x < 0]
        combos: list[_Ray] = []
        for ap, rp in pos:
            for an, rn in neg:
                if not adjacent(rp, rn):
                    continue
                v = vec_sub(vec_scale(ap, rn.v), vec_scale(an, rp.v))
                tight = rp.tight & rn.tight
                if new_index is not None:
                    tight = tight | {new_index}
                combos.append(_Ray(primitive(v), tight))
        if new_index is not None:
            zero = [_Ray(r.v, r.tight | {new_index}) for r in zero]
        rays[:] = ([r for _, r in pos] if keep_positive_side else []) + zero + combos

    def extract_lineality(a: Vec, keep_pivot_as_ray: bool, new_index: int | None) -> None:
        pivot = next(l for l in lineality if dot(a, l) != 0)
        scale = dot(a, pivot)
        u = vec_scale(Fraction(1) / scale, pivot) if scale != 1 else pivot
        lineality[:] = [vec_sub(l, vec_scale(dot(a, l), u)) for l in lineality if l is not pivot]
        for r in rays:
            r.v = primitive(vec_sub(r.v, vec_scale(dot(a, r.v), u)))
            if new_index is not None:
                r.tight = r.tight | {new_index}
        if keep_pivot_as_ray:
            tight = frozenset(range(len(ineq_seen)))
            rays.append(_Ray(primitive(u), tight))

    for a in eq_rows:
        a = tuple(a)
        if is_zero_vec(a):
            continue
        if any(dot(a, l) != 0 for l in lineality):
            extract_lineality(a, keep_pivot_as_ray=False, new_index=None)
        else:
            split_rays(a, keep_positive_side=False, new_index=None)
        eq_seen.append(a)

    for a in ineq_rows:
        a = tuple(a)
        idx = len(ineq_seen)
        if is_zero_vec(a):
            ineq_seen.append(a)
            for r in rays:
                r.tight = r.tight | {idx}
            continue
        if any(dot(a, l) != 0 for l in lineality):
            extract_lineality(a, keep_pivot_as_ray=True, new_index=idx)
        else:
            split_rays(a, keep_positive_side=True, new_index=idx)
        ineq_seen.append(a)

    lin_basis = [primitive(row) for row in rref(lineality, dim)]
    out: list[Vec] = []
    seen: set[Vec] = set()
    for r in rays:
        v = primitive(r.v)
        if is_zero_vec(v) or v in seen:
            continue
        seen.add(v)
        out.append(v)
    out.sort()
    return out, lin_basis


def generators_to_hrep(dim: int, rays, lineality) -> tuple[list[Vec], list[Vec]]:
    """H-representation (eq_rows, ineq_rows) of ``cone(rays) + span(lineality)``.

    Computed by running the double description on the polar cone: the polar of
    the generated cone is ``{y : rays . y >= 0, lineality . y = 0}``, and its
    generators are exactly the facet normals of the original (biduality of
    closed convex cones).
    """
    polar_rays, polar_lin = cone_generators(dim, eq_rows=lineality, ineq_rows=rays)
    return polar_lin, polar_rays

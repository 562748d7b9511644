"""Double description: exact conversion between cone representations.

A polyhedral cone ``{d : E d = 0, I d >= 0}`` is converted to generators
(extreme rays plus a lineality basis) by processing one constraint at a time,
starting from all of space.  Adjacency of rays is decided by the algebraic
rank test on the common tight set, which stays correct in the presence of a
lineality space.  The reverse conversion runs the same algorithm on the polar
cone.

The kernel works on integers in and out.  It takes integer rows of any
positive scale as they are, since a positive factor changes no sign a row
tests.  Rays and lineality vectors are integer vectors updated by integer
combinations and divided by the gcd of their entries, and the rank test is
Bareiss elimination on the rows (Bareiss 1968).  A ray so differs from its
rational counterpart by a positive factor and a lineality vector by a nonzero
one, so the pivot sequence, and with it the output, are those of the rational
algorithm, as primitive integer vectors.

The lineality basis is canonical: the primitive rows of the reduced row
echelon form of the lineality space.  Rays are sorted lexicographically.  For
a pointed cone they are the canonical extreme rays; with a lineality space
present, a ray is the representative, modulo the lineality, that the
processing order of the rows picks, which is why the kernel keeps that order.
"""

from __future__ import annotations

from operator import mul

from .matrix import coprime_integer, integer_rank

IntVec = tuple[int, ...]


class _Ray:
    __slots__ = ("v", "tight")

    def __init__(self, v: IntVec, tight: frozenset[int]):
        self.v = v
        self.tight = tight


def cone_generators(dim: int, eq_rows, ineq_rows) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
    """Return (rays, lineality) generating ``{d : eq_rows . d = 0, ineq_rows . d >= 0}``,
    integer rows, as tuples of primitive integer vectors."""
    lineality: list[IntVec] = [(0,) * i + (1,) + (0,) * (dim - 1 - i) for i in range(dim)]
    rays: list[_Ray] = []
    eq_seen: list[IntVec] = []
    ineq_seen: list[IntVec] = []

    def adjacent(r1: _Ray, r2: _Ray) -> bool:
        common = r1.tight & r2.tight
        need = dim - len(lineality) - 2  # the rank of the common tight rows
        if len(eq_seen) + len(common) < need:
            return False
        rows = [list(a) for a in eq_seen] + [list(ineq_seen[i]) for i in common]
        return integer_rank(rows, dim) == need

    def split_rays(a, keep_positive_side: bool, new_index: int | None) -> None:
        vals = [(sum(map(mul, a, r.v)), r) for r in rays]
        pos = [(x, r) for x, r in vals if x > 0]
        zero = [r for x, r in vals if x == 0]
        neg = [(x, r) for x, r in vals if x < 0]
        combos: list[_Ray] = []
        for ap, rp in pos:
            for an, rn in neg:
                if not adjacent(rp, rn):
                    continue
                v = [ap * y - an * x for x, y in zip(rp.v, rn.v)]
                tight = rp.tight & rn.tight
                if new_index is not None:
                    tight = tight | {new_index}
                combos.append(_Ray(coprime_integer(v), tight))
        if new_index is not None:
            zero = [_Ray(r.v, r.tight | {new_index}) for r in zero]
        rays[:] = ([r for _, r in pos] if keep_positive_side else []) + zero + combos

    def extract_lineality(a, vals: list[int], keep_pivot_as_ray: bool, new_index: int | None) -> None:
        # the first lineality vector p off the hyperplane is the pivot, s = a.p:
        # l <- s l - (a.l) p keeps a lineality vector (up to a nonzero factor)
        # in a's kernel, r <- |s| r - sign(s) (a.r) p a ray (up to a positive one)
        k = next(i for i, x in enumerate(vals) if x)
        p, s = lineality[k], vals[k]
        lineality[:] = [
            coprime_integer([s * y - x * q for y, q in zip(l, p)]) if x else l
            for i, (l, x) in enumerate(zip(lineality, vals))
            if i != k
        ]
        p_signed, abs_s = (p, s) if s > 0 else (tuple(-q for q in p), -s)
        for r in rays:
            x = sum(map(mul, a, r.v))
            if x:
                r.v = coprime_integer([abs_s * y - x * q for y, q in zip(r.v, p_signed)])
            if new_index is not None:
                r.tight = r.tight | {new_index}
        if keep_pivot_as_ray:
            tight = frozenset(range(len(ineq_seen)))
            rays.append(_Ray(p_signed, tight))

    for a in eq_rows:
        if not any(a):
            continue
        vals = [sum(map(mul, a, l)) for l in lineality]
        if any(vals):
            extract_lineality(a, vals, keep_pivot_as_ray=False, new_index=None)
        else:
            split_rays(a, keep_positive_side=False, new_index=None)
        eq_seen.append(a)

    for a in ineq_rows:
        idx = len(ineq_seen)
        if not any(a):
            ineq_seen.append(a)
            for r in rays:
                r.tight = r.tight | {idx}
            continue
        vals = [sum(map(mul, a, l)) for l in lineality]
        if any(vals):
            extract_lineality(a, vals, keep_pivot_as_ray=True, new_index=idx)
        else:
            split_rays(a, keep_positive_side=True, new_index=idx)
        ineq_seen.append(a)

    return tuple(sorted({r.v for r in rays if any(r.v)})), _reduced_basis(lineality, dim)


def _reduced_basis(rows: list[IntVec], dim: int) -> tuple[IntVec, ...]:
    """The primitive rows of the reduced row echelon form of the span of
    primitive integer rows, by fraction-free Gauss-Jordan: each pivot row is
    made positive at its pivot, and every other row loses that column by an
    integer combination that keeps its own pivot positive."""
    work, done = list(rows), 0
    for c in range(dim):
        k = next((i for i in range(done, len(work)) if work[i][c]), None)
        if k is None:
            continue
        top = work.pop(k)
        if top[c] < 0:
            top = tuple(-x for x in top)
        p = top[c]
        work = [coprime_integer([p * x - row[c] * y for x, y in zip(row, top)]) if row[c] else row for row in work]
        work.insert(done, top)
        done += 1
    return tuple(work[:done])


def generators_to_hrep(dim: int, rays, lineality) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
    """H-representation (eq_rows, ineq_rows) of ``cone(rays) + span(lineality)``.

    Computed by running the double description on the polar cone: the polar of
    the generated cone is ``{y : rays . y >= 0, lineality . y = 0}``, and its
    generators are exactly the facet normals of the original (biduality of
    closed convex cones).  Integer vectors in, primitive integer rows out.
    """
    polar_rays, polar_lin = cone_generators(dim, eq_rows=lineality, ineq_rows=rays)
    return polar_lin, polar_rays

"""Double description: exact conversion between cone representations.

A polyhedral cone ``{d : E d = 0, I d >= 0}`` is converted to generators
(extreme rays plus a lineality basis) in two phases.  The equality rows are
reduced in one fraction-free Gauss-Jordan pass, and the kernel of ``E`` is
read off the reduced form: for each free column, in column order, the
primitive vector that is nonzero there and zero on the other free columns.
That is, up to the sign of each vector, the basis that extracting the
lineality one equality at a time from the unit vectors ends in.  The
inequality rows are then processed one at a time from that lineality basis,
with no ray, and no step of theirs reads the sign of a lineality vector.
Adjacency of rays is decided by the algebraic rank test on the common tight
set, which stays correct in the presence of a lineality space.  The reverse
conversion runs the same algorithm on the polar cone (Fukuda & Prodon 1996).

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

from math import lcm
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
    eq_basis = _reduced_basis(eq_rows, dim)
    lineality = _kernel_basis(eq_basis, dim)
    rays: list[_Ray] = []
    ineq_seen: list[IntVec] = []

    def adjacent(r1: _Ray, r2: _Ray) -> bool:
        common = r1.tight & r2.tight
        need = dim - len(lineality) - 2  # the rank of the common tight rows
        if len(eq_basis) + len(common) < need:
            return False
        rows = [list(a) for a in eq_basis] + [list(ineq_seen[i]) for i in common]
        return integer_rank(rows, dim) == need

    def split_rays(a, new_index: int) -> None:
        vals = [(sum(map(mul, a, r.v)), r) for r in rays]
        pos = [(x, r) for x, r in vals if x > 0]
        zero = [_Ray(r.v, r.tight | {new_index}) for x, r in vals if x == 0]
        neg = [(x, r) for x, r in vals if x < 0]
        combos: list[_Ray] = []
        for ap, rp in pos:
            for an, rn in neg:
                if not adjacent(rp, rn):
                    continue
                v = [ap * y - an * x for x, y in zip(rp.v, rn.v)]
                combos.append(_Ray(coprime_integer(v), (rp.tight & rn.tight) | {new_index}))
        rays[:] = [r for _, r in pos] + zero + combos

    def extract_lineality(a, vals: list[int], new_index: int) -> None:
        # the first lineality vector p off the hyperplane is the pivot, s = a.p:
        # l <- s l - (a.l) p keeps a lineality vector (up to a nonzero factor)
        # in a's kernel, r <- |s| r - sign(s) (a.r) p a ray (up to a positive one),
        # and p, signed to a.p > 0, is a new ray
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
            r.tight = r.tight | {new_index}
        rays.append(_Ray(p_signed, frozenset(range(len(ineq_seen)))))

    for a in ineq_rows:
        idx = len(ineq_seen)
        if not any(a):
            ineq_seen.append(a)
            for r in rays:
                r.tight = r.tight | {idx}
            continue
        vals = [sum(map(mul, a, l)) for l in lineality]
        if any(vals):
            extract_lineality(a, vals, idx)
        else:
            split_rays(a, idx)
        ineq_seen.append(a)

    return tuple(sorted({r.v for r in rays if any(r.v)})), _reduced_basis(lineality, dim)


def _kernel_basis(rows: tuple[IntVec, ...], dim: int) -> list[IntVec]:
    """A basis of the kernel of rows in reduced row echelon form
    (``_reduced_basis``): for each free column j, in column order, the
    primitive vector positive at j and zero on the other free columns."""
    pivots = {row.index(next(filter(None, row))): row for row in rows}  # each row by its first nonzero column
    basis = []
    for j in range(dim):
        if j in pivots:
            continue
        hits = [(c, row) for c, row in pivots.items() if row[j]]
        if not hits:  # no equality reads column j
            basis.append((0,) * j + (1,) + (0,) * (dim - 1 - j))
            continue
        scale = lcm(*(row[c] for c, row in hits))
        v = [0] * dim
        v[j] = scale
        for c, row in hits:
            v[c] = -row[j] * (scale // row[c])
        basis.append(coprime_integer(v))
    return basis


def _reduced_basis(rows: list[IntVec], dim: int) -> tuple[IntVec, ...]:
    """The rows of the reduced row echelon form of the span of integer rows,
    primitive when the given rows are, by fraction-free Gauss-Jordan: each
    pivot row is made positive at its pivot, and every other row loses that
    column by an integer combination that keeps its own pivot positive and
    is divided by the gcd of its entries; a row that becomes zero is
    dropped."""
    work, done = [row for row in rows if any(row)], 0
    for c in range(dim):
        n = len(work)
        if done == n:
            break  # every row is a pivot row: no later column has a pivot
        k = done
        while k < n and not work[k][c]:
            k += 1
        if k == n:
            continue
        top = work.pop(k)
        if top[c] < 0:
            top = tuple(-x for x in top)
        p = top[c]
        out = []
        for i, row in enumerate(work):
            x = row[c]
            if x:
                row = coprime_integer([p * y - x * q for y, q in zip(row, top)])
                if i >= done and not any(row):
                    continue  # a row in the span of the pivot rows
            out.append(row)
        out.insert(done, top)
        work = out
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

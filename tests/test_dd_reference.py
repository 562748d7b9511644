"""The fraction-free double description against the rational one it replaced.

``rational_cone_generators`` is the ``Fraction`` kernel that ``ratmath.dd``
used before its rays and lineality vectors became integer vectors, kept here
unchanged but for its name as the reference, with its own echelon form and
rank by rational elimination (``rref``, ``rank_rows``).  The kernel now takes
integer rows and gives primitive integer vectors: run on rational rows through
``on_rational_rows``, equal ``repr`` of the returned ``(rays, lineality)``
lists means the integer kernel took the same pivots and picked the same ray
representatives, down to the types of the entries; run on integer rows, its
output is the reference's numerators, every entry an ``int``, whatever
positive integer scales the rows.  The membership tests of ``cones`` and
``cq``, on a cone's primitive integer rows, are checked against the
rational rows the cone was given, and the row test that ``cone_contains``
tries first against containment of the reference generators.
"""

import functools
import random
from fractions import Fraction

from branch_oracles import on_rational_rows

from absnormal.cones import PolyCone, _rows_contain, cone_contains
from absnormal.cq import _escapes_dual
from absnormal.ratmath import (
    ZERO,
    cone_generators,
    dot,
    generators_to_hrep,
    primitive_integer,
)
from absnormal.ratmath.matrix import (
    Vec,
    is_zero_vec,
    primitive,
    unit_vec,
    vec,
)


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y if y else x for x, y in zip(a, b, strict=True))


def vec_scale(c: Fraction, a: Vec) -> Vec:
    if not c:
        return (ZERO,) * len(a)
    return tuple(c * x if x else ZERO for x in a)


def rref(rows, cols: int) -> list[Vec]:
    """Reduced row echelon form; returns the nonzero rows (a canonical basis of the row space)."""
    work = [list(vec(r)) for r in rows]
    n_rows = len(work)
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, n_rows) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        p = work[r][c]
        work[r] = [x / p for x in work[r]]
        for i in range(n_rows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
        if r == n_rows:
            break
    return [tuple(row) for row in work[:r]]


def rank_rows(rows, cols: int) -> int:
    """Exact rank by rational elimination: the number of rows of ``rref``."""
    return len(rref(rows, cols))


def test_rref_canonical_basis():
    rows = rref([vec([2, 2, 0]), vec([0, 0, 3]), vec([2, 2, 3])], 3)
    assert rows == [vec([1, 1, 0]), vec([0, 0, 1])]


class _Ray:
    __slots__ = ("v", "tight")

    def __init__(self, v: Vec, tight: frozenset[int]):
        self.v = v
        self.tight = tight


def rational_cone_generators(dim: int, eq_rows, ineq_rows) -> tuple[list[Vec], list[Vec]]:
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


def _entry(rng: random.Random) -> Fraction:
    if rng.random() < 0.4:
        return ZERO
    if rng.random() < 0.2:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return Fraction(rng.randint(-3, 3))


def _factor(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 7), rng.randint(1, 3))


def random_rows(rng: random.Random, dim: int, m: int) -> list[Vec]:
    """``m`` random rows, then zero rows and duplicated, positively and
    negatively scaled copies inserted at random places."""
    rows = [tuple(_entry(rng) for _ in range(dim)) for _ in range(m)]
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(("zero", "copy", "positive", "negative"))
        if kind == "zero" or not rows:
            new = (ZERO,) * dim
        else:
            factor = {"copy": 1, "positive": _factor(rng), "negative": -_factor(rng)}[kind]
            new = tuple(factor * x for x in rng.choice(rows))
        rows.insert(rng.randint(0, len(rows)), new)
    return rows


def random_cone_rows(rng: random.Random) -> tuple[int, list[Vec], list[Vec]]:
    dim = rng.randint(1, 8)
    eq = random_rows(rng, dim, rng.choice((0, 0, 1, 2)))
    ineq = random_rows(rng, dim, rng.randint(0, min(dim + 2, 8)))
    return dim, eq, ineq


def _signed(rays, lineality):
    yield from rays
    for l in lineality:
        yield l
        yield tuple(-x for x in l)


@functools.cache
def seeded_cones() -> list[tuple[int, list[Vec], list[Vec], tuple[list[Vec], list[Vec]]]]:
    """2,400 seeded random cones ``(dim, eq, ineq)``, each with its reference generators."""
    rng = random.Random(20261018)
    cones = []
    for _ in range(2400):
        dim, eq, ineq = random_cone_rows(rng)
        cones.append((dim, eq, ineq, rational_cone_generators(dim, eq, ineq)))
    return cones


def test_integer_kernel_matches_rational_reference():
    shapes = {"pointed": 0, "lineality only": 0, "rays and lineality": 0}
    for trial, (dim, eq, ineq, reference) in enumerate(seeded_cones()):
        result = on_rational_rows(cone_generators, dim, eq, ineq)
        assert repr(result) == repr(reference), (trial, dim, eq, ineq)
        rays, lineality = result
        if not lineality:
            shapes["pointed"] += 1
        else:
            shapes["rays and lineality" if rays else "lineality only"] += 1
    # each shape of cone occurs often enough to matter
    assert min(shapes.values()) >= 300, shapes


def test_integer_kernel_matches_on_integer_rows():
    # the cones pass their rows pre-scaled to primitive integer rows
    rng = random.Random(7)
    for _ in range(300):
        dim, eq, ineq = random_cone_rows(rng)
        as_ints = ([primitive_integer(r) for r in eq], [primitive_integer(r) for r in ineq])
        assert repr(on_rational_rows(cone_generators, dim, *as_ints)) == repr(rational_cone_generators(dim, eq, ineq))


def _numerators(vectors: list[Vec]) -> tuple[tuple[int, ...], ...]:
    assert all(x.denominator == 1 for v in vectors for x in v)
    return tuple(tuple(x.numerator for x in v) for v in vectors)


def _scaled(rng: random.Random, rows) -> list[tuple[int, ...]]:
    """Each integer row times its own random positive integer."""
    out = []
    for r in rows:
        c = rng.randint(1, 12)
        out.append(tuple(c * x for x in r))
    return out


def _all_int(result) -> bool:
    return all(type(x) is int for part in result for v in part for x in v)


def test_integer_kernel_contract():
    # integer rows in, tuples of primitive integer tuples out: the reference's
    # numerators, unchanged by a positive factor on any input row
    rng = random.Random(2026)
    scaled_rows = 0
    for trial, (dim, eq, ineq, (rays, lineality)) in enumerate(seeded_cones()):
        eq_ints, ineq_ints = [primitive_integer(r) for r in eq], [primitive_integer(r) for r in ineq]
        result = cone_generators(dim, eq_ints, ineq_ints)
        assert type(result) is tuple and all(type(part) is tuple for part in result)
        assert all(type(v) is tuple for part in result for v in part)
        assert _all_int(result), (trial, result)
        assert result == (_numerators(rays), _numerators(lineality)), (trial, dim, eq, ineq)
        eq_scaled, ineq_scaled = _scaled(rng, eq_ints), _scaled(rng, ineq_ints)
        scaled_rows += (eq_scaled != eq_ints) + (ineq_scaled != ineq_ints)
        assert cone_generators(dim, eq_scaled, ineq_scaled) == result, (trial, dim, eq_scaled, ineq_scaled)
        # the polar conversion has the same contract
        hrep = generators_to_hrep(dim, ineq_ints, eq_ints)
        assert _all_int(hrep) and hrep == generators_to_hrep(dim, ineq_scaled, eq_scaled), (trial, dim, eq, ineq)
    assert scaled_rows >= 2000, scaled_rows


def equality_heavy_cone_rows(rng: random.Random) -> tuple[int, list[Vec], list[Vec]]:
    """A cone with more equality rows than half its dimension: random rows
    and unit pin rows, scaled in either sign, then zero, repeated and
    dependent rows (a combination of two earlier rows) inserted at random
    places; and a few inequality rows."""
    dim = rng.randint(2, 9)
    eq = []
    for _ in range(rng.randint(1, dim - 1)):
        if rng.random() < 0.35:
            eq.append(vec_scale(rng.choice((1, -1)) * _factor(rng), unit_vec(dim, rng.randrange(dim))))
        else:
            eq.append(tuple(_entry(rng) for _ in range(dim)))
    while len(eq) <= dim // 2 or rng.random() < 0.5:
        kind = rng.choice(("zero", "copy", "dependent"))
        if kind == "zero":
            new = (ZERO,) * dim
        elif kind == "copy":
            new = vec_scale(rng.choice((1, -1)) * _factor(rng), rng.choice(eq))
        else:
            a, b = rng.choice(eq), rng.choice(eq)
            new = tuple(_factor(rng) * x - _factor(rng) * y for x, y in zip(a, b))
        eq.insert(rng.randint(0, len(eq)), new)
    ineq = random_rows(rng, dim, rng.randint(0, 4))
    return dim, eq, ineq


def test_equality_pass_matches_rational_reference():
    # the equalities are reduced in one pass to the kernel basis that the
    # reference reaches one equality at a time: the same output, also on
    # integer rows scaled by any positive factors
    rng = random.Random(20261019)
    shapes = {"zero cone": 0, "pointed": 0, "lineality only": 0, "rays and lineality": 0}
    for trial in range(1500):
        dim, eq, ineq = equality_heavy_cone_rows(rng)
        assert 2 * len(eq) > dim
        result = on_rational_rows(cone_generators, dim, eq, ineq)
        assert repr(result) == repr(rational_cone_generators(dim, eq, ineq)), (trial, dim, eq, ineq)
        eq_ints, ineq_ints = [primitive_integer(r) for r in eq], [primitive_integer(r) for r in ineq]
        expected = cone_generators(dim, eq_ints, ineq_ints)
        assert cone_generators(dim, _scaled(rng, eq_ints), ineq_ints) == expected, (trial, dim, eq, ineq)
        rays, lineality = result
        if lineality:
            shapes["rays and lineality" if rays else "lineality only"] += 1
        else:
            shapes["pointed" if rays else "zero cone"] += 1
    assert min(shapes.values()) >= 100, shapes


def test_generators_to_hrep_matches_rational_reference():
    rng = random.Random(31)
    for trial in range(600):
        dim = rng.randint(1, 8)
        rays = random_rows(rng, dim, rng.randint(0, min(dim + 2, 8)))
        lineality = random_rows(rng, dim, rng.choice((0, 0, 1, 2)))
        polar_rays, polar_lin = rational_cone_generators(dim, eq_rows=lineality, ineq_rows=rays)
        result = on_rational_rows(generators_to_hrep, dim, rays, lineality)
        assert repr(result) == repr((polar_lin, polar_rays)), (trial, dim, rays, lineality)


def _probe_vectors(rng: random.Random, dim: int, gens: list[Vec]):
    """Random vectors, and nonnegative combinations of the cone's generators
    (inside the cone), some of them pushed off by a small random term."""
    for _ in range(4):
        yield tuple(_entry(rng) for _ in range(dim))
    for _ in range(4):
        if not gens:
            break
        v = (ZERO,) * dim
        for g in rng.sample(gens, rng.randint(1, min(3, len(gens)))):
            v = tuple(x + _factor(rng) * y for x, y in zip(v, g))
        yield v
        k = rng.randrange(dim)
        yield tuple(x + (Fraction(rng.choice((-1, 1)), rng.randint(1, 9)) if i == k else 0) for i, x in enumerate(v))


def test_integer_membership_matches_rational():
    rng = random.Random(404)
    seen = {True: 0, False: 0}
    escapes = {True: 0, False: 0}
    contained = {True: 0, False: 0}
    for _ in range(500):
        dim, eq, ineq = random_cone_rows(rng)
        cone = PolyCone(dim, tuple(eq), tuple(ineq))
        rays, lineality = rational_cone_generators(dim, eq, ineq)
        gens = list(_signed(rays, lineality))
        for v in _probe_vectors(rng, dim, gens):
            # membership by the given rational rows, against the cone's
            # primitive integer rows on v and on its primitive integer multiple
            inside = all(dot(r, v) == 0 for r in eq) and all(dot(r, v) >= 0 for r in ineq)
            assert cone.contains(v) is inside, (cone, v)
            assert cone.contains(primitive_integer(v)) is inside, (cone, v)
            seen[inside] += 1
            # the verifier's dual test: some generator pairs negatively with v
            escaped = _escapes_dual(v, cone)
            assert escaped == any(dot(v, g) < 0 for g in gens), (cone, v)
            escapes[escaped] += 1
        # containment of a subcone of the cone or of another random cone,
        # against the rational generators
        extra = random_rows(rng, dim, rng.randint(0, 2))
        if rng.random() < 0.5:
            other = cone.with_rows(ineq=extra)
        else:
            other = PolyCone(dim, tuple(extra[:1]), tuple(random_rows(rng, dim, rng.randint(0, dim))))
        other_gens = _signed(*rational_cone_generators(dim, other.eq_rows, other.ineq_rows))
        inside = cone_contains(cone, other)
        assert inside == all(cone.contains(g) for g in other_gens), (cone, other)
        contained[inside] += 1
    assert min(seen.values()) >= 500 and min(escapes.values()) >= 500, (seen, escapes)
    assert min(contained.values()) >= 100, contained


def _inner_from_rows(rng: random.Random, dim: int, eq: list[Vec], ineq: list[Vec]):
    """A cone made from the rows of an outer cone, and how the rows went in.

    An eq row goes in positively scaled (``keep``) or negatively scaled
    (``flip``) as an eq row, an ineq row positively scaled as an ineq row
    (``keep``) or scaled in either sign as an eq row (``as-eq``).  Or a row is
    split into two rows of its kind, ``r + s`` and ``r - s``, which imply it
    without being it (``split``), or left out (``drop``).  Random rows are
    added on top."""
    inner_eq, inner_ineq, ways = [], [], set()
    for kind, rows, same, other_way in (("eq", eq, inner_eq, "flip"), ("ineq", ineq, inner_ineq, "as-eq")):
        for r in rows:
            way = rng.choice(("keep", "keep", other_way, "split", "drop"))
            ways.add(f"{kind} {way}")
            if way == "keep":
                same.append(vec_scale(_factor(rng), r))
            elif way == "flip":
                same.append(vec_scale(-_factor(rng), r))
            elif way == "as-eq":
                inner_eq.append(vec_scale(rng.choice((1, -1)) * _factor(rng), r))
            elif way == "split":
                s = tuple(_entry(rng) for _ in range(dim))
                same.extend([tuple(x + y for x, y in zip(r, s)), vec_sub(r, s)])
    inner_eq += random_rows(rng, dim, rng.choice((0, 0, 1)))
    inner_ineq += random_rows(rng, dim, rng.randint(0, 2))
    rng.shuffle(inner_eq)
    rng.shuffle(inner_ineq)
    return PolyCone(dim, inner_eq, inner_ineq), ways


def test_row_containment_agrees_with_the_generators():
    # the rows decide containment only when it holds; the generators of the
    # inner cone decide every case
    rng = random.Random(1601)
    seen = {"eq flip": 0, "ineq as-eq": 0, "rows miss": 0, "rows": 0, "outside": 0}
    for _ in range(1500):
        dim, eq, ineq = random_cone_rows(rng)
        outer = PolyCone(dim, eq, ineq)
        inner, ways = _inner_from_rows(rng, dim, eq, ineq)
        gens = _signed(*rational_cone_generators(dim, inner.eq_rows, inner.ineq_rows))
        inside = all(outer.contains(g) for g in gens)
        by_rows = _rows_contain(outer, inner)
        assert inside or not by_rows, (outer, inner)
        assert cone_contains(outer, inner) == inside, (outer, inner)
        if by_rows:
            seen["rows"] += 1
            seen["eq flip"] += "eq flip" in ways
            seen["ineq as-eq"] += "ineq as-eq" in ways
        else:
            seen["rows miss" if inside else "outside"] += 1
    assert min(seen.values()) >= 100, seen

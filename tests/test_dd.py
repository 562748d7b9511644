"""The double description on small cones whose generators are known by hand.

The kernel takes and gives integer vectors; ``on_rational_rows`` gives it the
rational rows of these cases and reads its output back as ``Fraction``
vectors.  The kernel's own contract is tested in ``test_dd_reference``."""

import random

from branch_oracles import on_rational_rows

from absnormal.ratmath import (
    cone_generators,
    dot,
    generators_to_hrep,
    is_zero_vec,
    vec,
)


def gens(dim, eq=(), ineq=()):
    return on_rational_rows(cone_generators, dim, [vec(r) for r in eq], [vec(r) for r in ineq])


def hrep(dim, rays, lineality):
    return on_rational_rows(generators_to_hrep, dim, rays, lineality)


def test_nonnegative_orthant_rays():
    rays, lin = gens(2, ineq=[[1, 0], [0, 1]])
    assert lin == []
    assert sorted(rays) == [vec([0, 1]), vec([1, 0])]


def test_hyperplane_is_pure_lineality():
    rays, lin = gens(2, eq=[[1, 0]])
    assert rays == []
    assert lin == [vec([0, 1])]


def test_redundant_inequality_dropped():
    # {d1 >= 0, d2 >= 0, d1 - d2 >= 0}: extreme rays are (1,0) and (1,1)
    rays, lin = gens(2, ineq=[[1, 0], [0, 1], [1, -1]])
    assert lin == []
    assert sorted(rays) == [vec([1, 0]), vec([1, 1])]


def test_full_space_and_zero_cone():
    rays, lin = gens(3)
    assert rays == [] and len(lin) == 3
    rays, lin = gens(2, eq=[[1, 0], [0, 1]])
    assert rays == [] and lin == []


def test_vrep_roundtrip_orthant():
    eq, ineq = hrep(2, [vec([1, 0]), vec([0, 1])], [])
    assert eq == []
    assert sorted(ineq) == [vec([0, 1]), vec([1, 0])]


def test_vrep_of_line():
    # span{(1,1)} has H-representation d1 - d2 = 0
    eq, ineq = hrep(2, [], [vec([1, 1])])
    assert ineq == []
    assert eq == [vec([1, -1])]


def test_vrep_of_no_generators_is_zero_cone():
    eq, ineq = hrep(2, [], [])
    assert ineq == []
    assert sorted(eq) == [vec([0, 1]), vec([1, 0])]


def _contains(dim, eq, ineq, point) -> bool:
    return all(dot(r, point) == 0 for r in eq) and all(dot(r, point) >= 0 for r in ineq)


def test_hrep_vrep_roundtrip_random_cones():
    # H -> V -> H must reproduce the cone as a set: all original generators
    # satisfy the new rows and vice versa (mutual containment via generators).
    rng = random.Random(42)
    for _ in range(80):
        dim = rng.randint(1, 6)
        n_eq = rng.randint(0, 2)
        n_ineq = rng.randint(0, 8)
        eq = [vec([rng.randint(-2, 2) for _ in range(dim)]) for _ in range(n_eq)]
        ineq = [vec([rng.randint(-2, 2) for _ in range(dim)]) for _ in range(n_ineq)]
        rays, lin = gens(dim, eq, ineq)
        for r in rays:
            assert _contains(dim, eq, ineq, r)
            assert not is_zero_vec(r)
        for l in lin:
            assert _contains(dim, eq, ineq, l)
            assert _contains(dim, eq, ineq, tuple(-x for x in l))
        eq2, ineq2 = hrep(dim, rays, lin)
        # every original generator satisfies the reconstructed rows
        for g in rays + lin:
            assert _contains(dim, eq2, ineq2, g)
        rays2, lin2 = gens(dim, eq2, ineq2)
        # and the reconstructed generators satisfy the original rows
        for g in rays2 + lin2:
            assert _contains(dim, eq, ineq, g)
        for l in lin2:
            assert _contains(dim, eq, ineq, tuple(-x for x in l))


def test_generator_output_is_deterministic():
    spec = dict(eq=[[1, 1, -1]], ineq=[[1, 0, 0], [0, 1, 0], [1, 1, 1]])
    assert gens(3, **spec) == gens(3, **spec)

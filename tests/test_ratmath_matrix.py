from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absnormal.ratmath import RatMatrix, primitive, primitive_integer, rat, vec
from absnormal.ratmath.matrix import integer_rank

from branch_oracles import mat_mul, vec_mat


def rank(rows, cols: int) -> int:
    return integer_rank([list(r) for r in rows], cols)


def test_rat_parses_all_string_forms():
    assert rat("3") == 3
    assert rat("-2/7") == Fraction(-2, 7)
    assert rat("0.25") == Fraction(1, 4)  # finite decimals convert exactly
    assert rat(Fraction(5, 3)) == Fraction(5, 3)


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.1)
    with pytest.raises(TypeError):
        rat(True)


def test_rat_zero_denominator_is_a_value_error_naming_the_string():
    with pytest.raises(ValueError, match="'-3/0'"):
        rat("-3/0")


def test_rank_identity():
    assert rank([[1, 0], [0, 1]], 2) == 2


def test_rank_zero_matrix():
    assert rank([[0] * 4] * 3, 4) == 0


def test_rank_dependent_rows():
    # [[1,2],[2,4]]: second row is twice the first, hand elimination gives rank 1
    assert rank([[1, 2], [2, 4]], 2) == 1


def test_rank_with_fractions():
    # rational rows have the rank of their primitive integer rows (3, 2) and (5, 4)
    rows = [primitive_integer(vec(r)) for r in (["1/2", "1/3"], ["1/4", "1/5"])]
    assert rows == [(3, 2), (5, 4)]
    assert rank(rows, 2) == 2


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3),
        min_size=1,
        max_size=5,
    )
)
def test_rank_equals_rank_of_transpose(rows):
    assert rank(rows, 3) == rank(zip(*rows), len(rows))


def test_matrix_products():
    a = RatMatrix.from_rows([[1, 2], [3, 4]])
    v = vec([1, -1])
    assert a.mat_vec(v) == vec([-1, -1])
    # the test oracles' dense products
    assert vec_mat(v, a) == vec([-2, -2])
    assert mat_mul(a, RatMatrix.from_rows([[1, 0], [0, 1]])) == a


def test_symmetry_flag():
    assert RatMatrix.from_rows([[0, 1], [1, 0]]).is_symmetric()
    assert not RatMatrix.from_rows([[0, 1], [2, 0]]).is_symmetric()


def test_primitive_scaling():
    assert primitive(vec(["1/2", "1/3"])) == vec([3, 2])
    assert primitive(vec([-2, 4])) == vec([-1, 2])
    assert primitive(vec([0, 0])) == vec([0, 0])


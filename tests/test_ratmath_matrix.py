import random
import re
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


def random_literal(rng: random.Random) -> str:
    """A string near the grammar of a rational literal: built from the parts
    of one (ASCII and non-ASCII digits, sign, ``/``, decimal point, exponent,
    outer whitespace) with stray characters, underscores and inner whitespace
    mixed in, or drawn character by character."""
    digits = "0123456789" * 3 + "\u0663\u096b\uff10"  # ARABIC-INDIC THREE, DEVANAGARI FIVE, FULLWIDTH ZERO
    spaces = " \t\u2003"

    def number() -> str:
        return "".join(rng.choice(digits) for _ in range(rng.randint(0, 3)))

    if rng.random() < 0.3:
        return "".join(rng.choice(digits[-6:] + "+-/._eE" + spaces) for _ in range(rng.randint(0, 6)))
    parts = [rng.choice(("", "", "+", "-")), number()]
    tail = rng.randrange(4)
    if tail == 1:
        parts += ["/", number()]
    elif tail >= 2:
        parts += [".", number()] if rng.random() < 0.7 else []
        parts += [rng.choice("eE"), rng.choice(("", "+", "-")), number()[:2]] if tail == 3 else []
    text = "".join(parts)
    if text and rng.random() < 0.3:
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(("_", " ", "\t", "\u2003")) + text[at:]
    return rng.choice(("", " ", "\t\u2003")) + text + rng.choice(("", " ", "\n"))


def test_rat_reads_the_python_310_grammar_on_every_version():
    # Without ``_`` or inner whitespace, rat agrees with Fraction (a zero
    # denominator is rat's ValueError); with either, it refuses as 3.10 does.
    rng = random.Random(31)
    texts = ["", " ", "1/0", "-3/0", "1_000", "1_0/3", "3 /4", "3/ 4", "1 2", "1.0_0", "1e1_0", " +12 ",
             "-0", "\u0663/\u096b", "\uff10.5", "1.", ".5", "1e-3", "2E+2", "--1", "+-1", "1/2/3"]
    texts += [random_literal(rng) for _ in range(4000)]
    outcomes = set()
    for text in texts:
        inner = text.strip()
        if "_" in inner or any(c.isspace() for c in inner):
            with pytest.raises(ValueError, match=re.escape(f"Invalid literal for Fraction: {inner!r}")):
                rat(text)
            outcomes.add("refused")
            continue
        try:
            want = Fraction(inner)
        except ZeroDivisionError:
            want = ValueError
        except ValueError:
            want = ValueError
        try:
            got = rat(text)
        except ValueError:
            got = ValueError
        assert got == want and type(got) is type(want), text
        outcomes.add("value" if isinstance(want, Fraction) else "invalid")
    assert outcomes == {"refused", "value", "invalid"}
    assert rat(" -12 ") == -12 and rat("\u0663") == 3


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


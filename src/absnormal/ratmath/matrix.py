"""Exact rational vectors and dense matrices.

Values are ``fractions.Fraction`` or ``int``: arithmetic never rounds, so
downstream verdicts that hinge on exact zero tests are decidable.  Floats are
rejected at the boundary instead of being converted.  ``rat`` reads a string
in one grammar on every Python version, that of ``Fraction`` on 3.10.

The checks make no ``Fraction`` per term.  ``dot`` keeps one running
denominator, and the LP certificate checks take one ``dot`` per column of the
constraint matrix.  ``integer_row`` scales a row by the lcm of its
denominators: ranks (``integer_rank``) are taken on such rows, and the
multiplier checks in ``stationarity`` substitute multipliers brought to one
denominator into them, comparing pair values by cross-multiplication.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

# what Fraction accepts from Python 3.11 (``_`` between digits) and 3.12
# (whitespace around ``/``) but not on 3.10; ``\s`` is ``str.isspace``
_REFUSED = re.compile(r"[\s_]")


def rat(value: int | str | Fraction) -> Fraction:
    """Parse an exact rational from an int, Fraction, or string ("3", "-2/7", "0.25").

    A string is read in the grammar of ``Fraction`` on Python 3.10, on every
    version: whitespace around an optional sign and an integer, a ratio of two
    integers, or a decimal with an optional exponent.  The ``_`` between digits
    that 3.11 accepts and the whitespace around ``/`` that 3.12 accepts are
    refused, with 3.10's message."""
    if isinstance(value, str):
        text = value.strip()
        digits = text[1:] if text[:1] in "+-" else text
        if digits.isdigit() and digits.isascii():
            return Fraction(int(text))  # an integer literal, without Fraction's regex
        if _REFUSED.search(text):
            raise ValueError(f"Invalid literal for Fraction: {text!r}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"refusing inexact value {value!r}; use int, Fraction, or a string like '2/3'")
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def vec(values) -> Vec:
    return tuple(rat(v) for v in values)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def dot(a: Vec, b: Vec) -> Fraction:
    """Exact inner product.

    Zero terms are skipped, so sparse vectors cost only their common support,
    and the sum is kept as one integer numerator over one integer denominator
    that is reduced once, at the end.  The value is the exact one.
    """
    if len(a) != len(b):
        raise ValueError(f"dot of vectors with lengths {len(a)} and {len(b)}")
    num, den = 0, 1
    for x, y in zip(a, b):
        if x and y:
            d = x.denominator * y.denominator
            if d == 1:
                num += x.numerator * y.numerator * den
            else:
                num = num * d + x.numerator * y.numerator * den
                den *= d
    if den == 1:
        return Fraction(num)  # no gcd to take
    return Fraction(num, den)


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y if y else x for x, y in zip(a, b, strict=True))


def vec_neg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


def primitive(a: Vec) -> Vec:
    """Scale by a positive rational to the integer vector with coprime entries.

    The zero vector is returned unchanged.  Direction (sign pattern) is kept,
    so this is the canonical representative of a ray.
    """
    if is_zero_vec(a):
        return a
    denom = lcm(*(x.denominator for x in a)) if len(a) > 1 else a[0].denominator
    ints = [x * denom for x in a]
    g = 0
    for x in ints:
        g = gcd(g, x.numerator)
    return tuple(x / g for x in ints)


@dataclass(frozen=True)
class RatMatrix:
    """Dense immutable matrix of rationals (rows of equal length)."""

    rows: tuple[Vec, ...]
    cols: int

    def __post_init__(self) -> None:
        for r in self.rows:
            if len(r) != self.cols:
                raise ValueError(f"row of length {len(r)} in matrix with {self.cols} columns")

    @staticmethod
    def from_rows(rows, cols: int | None = None) -> "RatMatrix":
        tup = tuple(vec(r) for r in rows)
        if cols is None:
            if not tup:
                raise ValueError("column count required for an empty matrix")
            cols = len(tup[0])
        return RatMatrix(tup, cols)

    @staticmethod
    def zeros(n_rows: int, n_cols: int) -> "RatMatrix":
        return RatMatrix(tuple(zero_vec(n_cols) for _ in range(n_rows)), n_cols)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.cols)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def row(self, i: int) -> Vec:
        return self.rows[i]

    def mat_vec(self, v: Vec) -> Vec:
        return tuple(dot(r, v) for r in self.rows)

    def is_symmetric(self) -> bool:
        if self.n_rows != self.cols:
            return False
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.n_rows)
            for j in range(i + 1, self.cols)
        )

    def is_zero(self) -> bool:
        return all(is_zero_vec(r) for r in self.rows)


def integer_row(a) -> tuple[list[int], int]:
    """The row times the lcm ``den`` of its denominators, the integer row that
    is its least positive multiple, and ``den``.  Every sign is kept."""
    dens = [x.denominator for x in a]
    den = lcm(*dens)
    if den == 1:
        return [x.numerator for x in a], 1
    return [x.numerator * (den // d) for x, d in zip(a, dens)], den


def primitive_integer(a) -> tuple[int, ...]:
    """The integer vector with coprime entries that is a positive multiple of
    ``a``, as plain ints; the zero vector stays zero."""
    return coprime_integer(integer_row(a)[0])


def coprime_integer(row) -> tuple[int, ...]:
    """The integer row divided by the gcd of its entries; the zero row stays zero."""
    g = gcd(*row)
    if g > 1:
        return tuple(x // g for x in row)
    return tuple(row)


def integer_dot(a, b):
    """Inner product of two exact vectors, without the sparse skip of ``dot``:
    an ``int`` for integer vectors, exact for ``Fraction`` entries too."""
    if len(a) != len(b):
        raise ValueError(f"dot of vectors with lengths {len(a)} and {len(b)}")
    return sum(map(mul, a, b))


def integer_rank(work: list[list[int]], cols: int) -> int:
    """Rank of integer rows by fraction-free (Bareiss) elimination.

    ``work`` is overwritten.  Each division by the previous pivot is exact,
    and every entry is then a minor of the input rows, so the integers stay
    as small as those minors.
    """
    n_rows = len(work)
    r = 0
    prev_pivot = 1
    for c in range(cols):
        pivot_row = next((i for i in range(r, n_rows) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pivot = work[r][c]
        top = work[r]
        for i in range(r + 1, n_rows):
            row = work[i]
            factor = row[c]
            for j in range(c, cols):
                row[j] = (pivot * row[j] - factor * top[j]) // prev_pivot
        prev_pivot = pivot
        r += 1
        if r == n_rows:
            break
    return r

"""Shared numeric helpers: the -infinity sentinel, rational/decimal parsing
and the float tolerance policy.

Exact rational arithmetic (fractions.Fraction) is the default number type
throughout the package; floats appear only where a caller opts in (large
sweeps, cosine evaluation).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


class NegInfinity:
    """Sentinel strictly below every number, distinct from float('-inf').

    Used for empty suprema (no path, no cycle, no predecessor).  Compares
    with Fractions, ints and floats; absorbs addition.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "-inf"

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("NegInfinity")

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("cannot negate the -inf sentinel")


NEG_INF = NegInfinity()


def is_neg_inf(x) -> bool:
    return x is NEG_INF


def parse_number(text: str):
    """Parse a number token: "p/q" and integer strings are exact Fractions,
    anything with a decimal point or exponent is read as a binary float."""
    s = text.strip()
    if "/" in s:
        return Fraction(s)
    try:
        return Fraction(int(s))
    except ValueError:
        return float(s)


def format_number(x) -> str:
    """Round-trippable text for a number: "p/q" for Fractions, repr for floats."""
    if x is NEG_INF:
        return "-inf"
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def as_float(x) -> float:
    if x is NEG_INF:
        return float("-inf")
    return float(x)


def float_tolerance(values) -> float:
    """Absolute tolerance for float comparisons among sums of these values:
    1e-9 times the largest magnitude, and never below 1e-9."""
    scale = np.abs(np.asarray(values, dtype=np.float64))
    return 1e-9 * max(1.0, float(scale.max(initial=0.0)))

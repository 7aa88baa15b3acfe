"""Shared numeric helpers: the -infinity sentinel, rational/decimal parsing,
and the one number policy of the finite layer.

Exact rational arithmetic (fractions.Fraction) is the default number type
throughout the package; floats appear only where a caller opts in (large
sweeps, cosine evaluation, decimal input tokens), and ``finite`` keeps
infinite and NaN floats out of the input.  ``mea``, ``subaction`` and
``measures`` run rational inputs as Python ints over one common denominator
(``scaled``, undone by ``divide``), and every equality decision they make
allows ``tie_tolerance``: 0 when every input is rational, the float policy
``float_tolerance`` when any is a float.  Float inputs must also leave room
for the sums a pass forms (``check_float_range``).

Every library error with an exit code derives from one of two bases here:
``InputTooLargeError`` (an explicit limit, exit 3) and ``ValidationError``
(a failed mathematical check, exit 2, reported by ``failure_message``).

No module of the package imports numpy when it is imported: only the
functions that build or read arrays import it, so the finite commands,
which never do, start without it.  The reductions here are plain Python.
"""

from __future__ import annotations

import math
from fractions import Fraction


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


def finite(x):
    """x itself when it is finite; ValueError for an infinite or NaN float."""
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"numbers must be finite, got {x!r}")
    return x


def parse_number(text: str):
    """Parse a number token: "p/q" and integer strings are exact Fractions,
    anything with a decimal point or exponent is read as a binary float.
    Raises ValueError on a malformed token and on one that reads as an
    infinite or NaN float ("inf", "nan", "1e400")."""
    s = text.strip()
    if "/" in s:
        return Fraction(s)
    try:
        return Fraction(int(s))
    except ValueError:
        return finite(float(s))


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


def _largest_magnitude(values) -> float:
    """max |float(x)| over the values, as numpy's float64 maximum reads it:
    0.0 when there are none, NaN when any is NaN."""
    magnitudes = [abs(float(x)) for x in values]
    if any(math.isnan(m) for m in magnitudes):
        return math.nan
    return max(magnitudes, default=0.0)


def float_tolerance(values) -> float:
    """Absolute tolerance for float comparisons among sums of these values:
    1e-9 times the largest magnitude, never below 1e-9, and 1e-9 when any
    value is NaN."""
    return 1e-9 * max(1.0, _largest_magnitude(values))


def tie_tolerance(values):
    """Tolerance of equality decisions among sums of these values: 0 (exact)
    when every value is rational, float_tolerance(values) when any is a float."""
    return float_tolerance(values) if any(isinstance(x, float) for x in values) else 0


class InputTooLargeError(Exception):
    """An input beyond one of the package's explicit limits: an exponential
    or iterative algorithm would stop there, or a float sum would overflow.
    The command line reports it as ``error: input too large: ...``, exit 3."""


class ValidationError(Exception):
    """A mathematical check failed: no cycle, a violated slack, a beta that
    no cycle attains.  The command line reports ``failure_message``, exit 2."""

    prefix = ""  # the words that lead the failure message, if any


def failure_message(exc: ValidationError) -> str:
    """One line saying why a check failed: the class's prefix, then the
    exception's own message.  The command line and ``verify``'s Mañé suite
    report failures in these words."""
    return f"{exc.prefix}: {exc}" if exc.prefix else str(exc)


class FloatRangeError(InputTooLargeError):
    """Float inputs so large that the sums a pass forms may overflow."""


def check_float_range(values, n_states: int, horizon: int = 0) -> None:
    """FloatRangeError when values in float format (``scaled`` gave D = None)
    are too large for a Bellman pass over ``n_states`` states, or for sums
    of orbit segments with up to ``horizon`` steps: with L = max(n_states,
    horizon + 1), the walk sums and potentials reach 2 * L * max|value|,
    which must stay a finite float.  Values in integer format need no
    check."""
    largest = _largest_magnitude(values)
    length = max(n_states, horizon + 1)
    if not math.isfinite(2 * length * largest):
        steps = f" over {horizon} steps" if horizon else ""
        raise FloatRangeError(
            f"float weights up to {largest!r} on {n_states} states{steps}: walk sums "
            f"reach {2 * length} times that, beyond the float range"
        )


def scaled(*groups):
    """The number format of the finite layer: when every value in the groups
    is rational, each group as Python ints over the values' common
    denominator D, and D, so that a pass adds and compares exactly in
    integers; when any value is a float, the groups unchanged and D = None."""
    if any(isinstance(x, float) for group in groups for x in group):
        return groups, None
    # each value's numerator and denominator are read once (on a Fraction
    # both are properties), and D is the lcm of the distinct denominators
    dens = [[x.denominator for x in group] for group in groups]
    d = math.lcm(*{q for qs in dens for q in qs})
    return [[x.numerator * (d // q) for x, q in zip(group, qs)]
            for group, qs in zip(groups, dens)], d


def divide(num, k: int, d=None):
    """num / k, exact unless num is a float; num / (k d) for a result in the
    format of ``scaled`` with D = d."""
    if isinstance(num, float):
        return num / k
    return Fraction(num, k * (d or 1))

"""_numbers: the number format, the finiteness check and the one tolerance
policy of the package."""

import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mvergo._numbers import (
    FloatRangeError,
    check_float_range,
    divide,
    finite,
    float_tolerance,
    scaled,
    tie_tolerance,
)

F = Fraction
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mvergo"


def test_tolerance_literals_live_only_in_numbers():
    # a float literal in exponent form is a private tolerance; the policy
    # keeps every one of them in _numbers
    literal = re.compile(r"[0-9]e-[0-9]")
    found = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "_numbers.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if literal.search(line)
    ]
    assert len(list(PACKAGE.glob("*.py"))) > 1
    assert found == []


def test_tie_tolerance_policy():
    assert tie_tolerance((F(1, 3), 2, F(-5))) == 0
    assert tie_tolerance((F(1, 3), 0.5)) == float_tolerance((F(1, 3), 0.5)) == 1e-9
    assert tie_tolerance((0.5, -4000.0)) == pytest.approx(4e-6)


def test_finite():
    assert finite(F(1, 2)) == F(1, 2) and finite(0.25) == 0.25
    for x in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            finite(x)


def test_scaled_and_divide():
    (a, b), d = scaled((F(1, 2), F(-1, 3)), (2,))
    assert (a, b, d) == ([3, -2], [12], 6)
    assert divide(a[0] + a[1], 1, d) == F(1, 6)
    assert divide(b[0], 4, d) == F(1, 2)
    groups, d = scaled((F(1, 2), 0.25), (1,))
    assert d is None and groups == ((F(1, 2), 0.25), (1,))
    assert divide(0.75, 3) == 0.25 and divide(7, 2) == F(7, 2)


class CountedFraction(Fraction):
    """A Fraction that counts the reads of its numerator and denominator."""

    reads = {"numerator": 0, "denominator": 0}

    @property
    def numerator(self):
        CountedFraction.reads["numerator"] += 1
        return super().numerator

    @property
    def denominator(self):
        CountedFraction.reads["denominator"] += 1
        return super().denominator


def test_scaled_reads_each_value_once_with_the_same_result():
    values = [F(3, 4), F(-5, 6), F(7, 4), F(0), F(1, 9)]
    counted = [CountedFraction(x) for x in values]
    CountedFraction.reads.update(numerator=0, denominator=0)
    got = scaled(counted[:3], counted[3:])
    assert CountedFraction.reads == {"numerator": 5, "denominator": 5}
    assert got == ([[27, -30, 63], [0, 4]], 36)
    # against the two reads per denominator of the formula it replaces, on
    # ints, numpy integers, an empty group and a D beyond 64 bits
    for groups in [(values, [2, np.int64(-3)], []), ([F(1, 2 ** 70), F(5, 3 ** 40)], [7]), ()]:
        d = math.lcm(*[x.denominator for group in groups for x in group])
        want = [[x.numerator * (d // x.denominator) for x in group] for group in groups]
        assert scaled(*groups) == (want, d)


# the reductions as numpy computed them: max |x| over a float64 array
def numpy_largest(values) -> float:
    return float(np.abs(np.asarray(values, dtype=np.float64)).max(initial=0.0))


REDUCTION_INPUTS = [
    [F(1, 3), 0.5, F(-7, 2), 2],
    [F(1, 10), -0.1, F(2, 3)],
    [],
    [-3.5, F(-9, 4), -1],
    [1e300, F(-10) ** 305, 2.5],
    [F(1), 1.0],
    [0.5, float("nan"), 7.0],
    [7.0, float("nan")],
    [float("nan")],
    [-np.inf, 1.0],
    np.array([0.25, -8.0]),
]


@pytest.mark.parametrize("values", REDUCTION_INPUTS, ids=range(len(REDUCTION_INPUTS)))
def test_float_tolerance_matches_numpy(values):
    expected = 1e-9 * max(1.0, numpy_largest(values))
    assert float_tolerance(values) == expected


@pytest.mark.parametrize("values", REDUCTION_INPUTS, ids=range(len(REDUCTION_INPUTS)))
def test_check_float_range_matches_numpy(values):
    for n_states, horizon in ((4, 0), (2, 10**300)):
        largest = numpy_largest(values)
        if math.isfinite(2 * max(n_states, horizon + 1) * largest):
            check_float_range(values, n_states, horizon)
        else:
            with pytest.raises(FloatRangeError, match=re.escape(repr(largest))):
                check_float_range(values, n_states, horizon)


def test_float_reductions_round_fractions_like_numpy():
    # a Fraction rounds once to its nearest float, as numpy's conversion does
    x = F(2**60 + 1, 3)
    assert float_tolerance([x, -0.5]) == 1e-9 * float(np.float64(x)) == 1e-9 * float(x)
    assert float_tolerance([]) == 1e-9
    with pytest.raises(FloatRangeError, match="nan"):
        check_float_range([1.0, float("nan")], 3)

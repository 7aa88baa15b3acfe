"""_numbers: the number format, the finiteness check and the one tolerance
policy of the package."""

import re
from fractions import Fraction
from pathlib import Path

import pytest

from mvergo._numbers import divide, finite, float_tolerance, scaled, tie_tolerance

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

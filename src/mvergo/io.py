"""Text formats: the JSON system document and CSV/report writers.

A system document is a single JSON object with fields ``n_states`` (integer)
and ``edges`` (list of [tail, head] pairs), plus an optional ``f_state``
value list parallel to the states; other keys are ignored.  Number tokens may
be "p/q" strings (exact) or decimals (binary floats); infinite and NaN
values (JSON ``Infinity``/``NaN`` tokens, "inf" strings) are rejected.  A
file must be UTF-8 text; a document that is not well formed (a JSON syntax
error, nesting deeper than the decoder reads, an integer token past the
digit limit of ``int`` conversion) raises ``InputFormatError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ._numbers import finite, format_number, parse_number
from .system import FiniteMVSystem


class InputFormatError(Exception):
    """Malformed input document; message carries the line number when known."""


@dataclass(frozen=True)
class SystemDocument:
    system: FiniteMVSystem
    f_state: tuple | None


def _parse_values(raw, expected_len: int, label: str) -> tuple:
    if not isinstance(raw, list) or len(raw) != expected_len:
        raise InputFormatError(f"{label} must be a list of {expected_len} numbers")
    out = []
    for v in raw:
        if isinstance(v, bool) or not isinstance(v, (str, int, float)):
            raise InputFormatError(f"{label} entries must be numbers")
        try:
            # an integer token goes through its text and becomes a Fraction
            out.append(finite(v) if isinstance(v, float) else parse_number(str(v)))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"bad number {v!r} in {label}: {exc}") from exc
    return tuple(out)


def _json_int(value, label: str) -> int:
    """A JSON integer; strings, floats and booleans are rejected, not coerced."""
    if type(value) is not int:  # not isinstance: bool is an int subclass
        raise InputFormatError(f"{label} must be a JSON integer, got {value!r}")
    return value


def loads_system(text: str) -> SystemDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise InputFormatError("the document nests deeper than the JSON decoder reads") from exc
    except ValueError as exc:  # int() refuses a token past its digit limit
        raise InputFormatError("an integer token has more digits than int() converts") from exc
    if not isinstance(doc, dict):
        raise InputFormatError("the system document must be a JSON object")
    try:
        n_states = _json_int(doc["n_states"], "n_states")
        edge_list = doc["edges"]
    except KeyError as exc:
        raise InputFormatError(f"missing required field {exc.args[0]!r}") from exc
    if not isinstance(edge_list, list):
        raise InputFormatError("edges must be a list of [tail, head] pairs")
    pairs = []
    for item in edge_list:
        if not (isinstance(item, list) and len(item) == 2):
            raise InputFormatError(f"bad edge entry {item!r}")
        pairs.append((_json_int(item[0], "edge endpoint"), _json_int(item[1], "edge endpoint")))
    try:
        system = FiniteMVSystem.make(n_states, pairs)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc
    f_state = None
    if "f_state" in doc:
        f_state = _parse_values(doc["f_state"], system.n_states, "f_state")
    return SystemDocument(system, f_state)


def load_system(path) -> SystemDocument:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    return loads_system(text)


def dumps_system(system: FiniteMVSystem, f_state=None) -> str:
    doc: dict = {
        "n_states": system.n_states,
        "edges": [[t, h] for t, h in system.edges],
    }
    if f_state is not None:
        doc["f_state"] = [format_number(v) for v in f_state]
    return json.dumps(doc, indent=1)


def measure_row(weights) -> list[str]:
    return [format_number(w) for w in weights]

"""Text formats: the JSON system document and CSV/report writers.

A system document is a single JSON object with fields ``n_states`` (integer)
and ``edges`` (list of [tail, head] pairs), plus optional ``f_state`` /
``f_edge`` value lists parallel to states / sorted edges.  Number tokens may
be "p/q" strings (exact) or decimals (binary floats).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ._numbers import format_number, parse_number
from .system import FiniteMVSystem


class InputFormatError(Exception):
    """Malformed input document; message carries the line number when known."""


@dataclass(frozen=True)
class SystemDocument:
    system: FiniteMVSystem
    f_state: tuple | None
    f_edge: tuple | None


def _parse_values(raw, expected_len: int, label: str) -> tuple:
    if not isinstance(raw, list) or len(raw) != expected_len:
        raise InputFormatError(f"{label} must be a list of {expected_len} numbers")
    out = []
    for v in raw:
        if isinstance(v, str):
            try:
                out.append(parse_number(v))
            except (ValueError, ZeroDivisionError) as exc:
                raise InputFormatError(f"bad number {v!r} in {label}: {exc}") from exc
        elif isinstance(v, bool):
            raise InputFormatError(f"{label} entries must be numbers")
        elif isinstance(v, int):
            out.append(parse_number(str(v)))
        elif isinstance(v, float):
            out.append(v)
        else:
            raise InputFormatError(f"{label} entries must be numbers")
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
    f_state = f_edge = None
    if "f_state" in doc:
        f_state = _parse_values(doc["f_state"], system.n_states, "f_state")
    if "f_edge" in doc:
        f_edge = _parse_values(doc["f_edge"], len(system.edges), "f_edge")
    return SystemDocument(system, f_state, f_edge)


def load_system(path) -> SystemDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_system(fh.read())


def dumps_system(system: FiniteMVSystem, f_state=None, f_edge=None) -> str:
    doc: dict = {
        "n_states": system.n_states,
        "edges": [[t, h] for t, h in system.edges],
    }
    if f_state is not None:
        doc["f_state"] = [format_number(v) for v in f_state]
    if f_edge is not None:
        doc["f_edge"] = [format_number(v) for v in f_edge]
    return json.dumps(doc, indent=1)


def measure_row(weights) -> list[str]:
    return [format_number(w) for w in weights]

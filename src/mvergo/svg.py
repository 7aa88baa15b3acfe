"""Minimal self-contained SVG writers (fixed 800x600 viewBox, inline styles)."""

from __future__ import annotations

from typing import Iterable

WIDTH, HEIGHT = 800, 600
MARGIN = 60


def _header() -> list[str]:
    return [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" width="{WIDTH}" height="{HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _span(values) -> tuple[float, float]:
    """The least and largest value, apart by 1 when they meet, or, once 1 is
    below their precision, by |value| / 2^52 (a float step or two) towards 0."""
    lo, hi = min(values), max(values)
    if hi == lo and lo + 1 == lo:
        return tuple(sorted((lo, lo - lo * 2**-52)))
    return lo, hi if hi != lo else lo + 1


def line_chart(series: list[tuple[str, str, list[tuple[float, float]]]],
               x_label: str, y_label: str) -> str:
    """Polyline chart; each series is (label, css color, [(x, y), ...])."""
    x0, x1 = _span([p[0] for _l, _c, pts in series for p in pts])
    y0, y1 = _span([p[1] for _l, _c, pts in series for p in pts])
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(x: float) -> float:
        return MARGIN + (x - x0) / (x1 - x0) * (WIDTH - 2 * MARGIN)

    def sy(y: float) -> float:
        return HEIGHT - MARGIN - (y - y0) / (y1 - y0) * (HEIGHT - 2 * MARGIN)

    parts = _header()
    parts.append(
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>'
    )
    parts.append(
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 15}" text-anchor="middle" '
        f'font-size="14">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{HEIGHT // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {HEIGHT // 2})">{y_label}</text>'
    )
    # middle ticks add halves: (x0 + x1) / 2 overflows near the float maximum
    for tick in (x0, x0 / 2 + x1 / 2, x1):
        parts.append(
            f'<text x="{_fmt(sx(tick))}" y="{HEIGHT - MARGIN + 18}" '
            f'text-anchor="middle" font-size="11">{tick:.3g}</text>'
        )
    for tick in (y0 + pad, y0 / 2 + y1 / 2, y1 - pad):
        parts.append(
            f'<text x="{MARGIN - 6}" y="{_fmt(sy(tick) + 4)}" '
            f'text-anchor="end" font-size="11">{tick:.3g}</text>'
        )
    for idx, (label, color, pts) in enumerate(series):
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN + 18 * idx
        parts.append(f'<line x1="{WIDTH - 190}" y1="{ly}" x2="{WIDTH - 160}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{WIDTH - 152}" y="{ly + 4}" font-size="12">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def hull_chart(points: Iterable[tuple[float, float, bool]],
               hull: list[tuple[float, float]]) -> str:
    """Unit-disc scatter with the convex hull polygon; points carry an
    on-hull flag rendered in a distinct color, and are read once."""
    scale = (min(WIDTH, HEIGHT) - 2 * MARGIN) / 2.2
    cx, cy = WIDTH / 2, HEIGHT / 2

    def sx(x: float) -> float:
        return cx + x * scale

    def sy(y: float) -> float:
        return cy - y * scale

    parts = _header()
    parts.append(
        f'<circle cx="{cx}" cy="{cy}" r="{_fmt(scale)}" fill="none" '
        'stroke="#bbbbbb" stroke-dasharray="4 3"/>'
    )
    if hull:
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in hull)
        parts.append(
            f'<polygon points="{coords}" fill="none" stroke="#1f5fbf" stroke-width="1.5"/>'
        )
    for x, y, extremal in points:
        color = "#c01414" if extremal else "#555555"
        r = 2.4 if extremal else 1.1
        parts.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="{r}" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts)

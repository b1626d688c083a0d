"""Hand-rolled SVG output: byte-deterministic, fixed 800x600 viewport.

Plots are intentionally spartan: a ``cdf-overlay`` is exactly two path
elements (empirical CDF staircase, standard normal reference) over two
axis lines; a ``trajectory`` is one path over two axis lines.  Identical
input produces identical bytes.
"""

from __future__ import annotations

from .errors import LabError
from .measures import MixedNormal

_W, _H = 800, 600
_ML, _MR, _MT, _MB = 60, 40, 40, 40

_HEADER = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
    'viewBox="0 0 {w} {h}">\n'
)


def _x_map(lo: float, hi: float):
    span = hi - lo if hi > lo else 1.0
    return lambda v: _ML + (_W - _ML - _MR) * (v - lo) / span


def _y_map(lo: float, hi: float):
    span = hi - lo if hi > lo else 1.0
    return lambda v: _H - _MB - (_H - _MT - _MB) * (v - lo) / span


def _axes() -> str:
    return (
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        'stroke="black" stroke-width="1"/>\n'
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
        'stroke="black" stroke-width="1"/>\n'
    )


def _path(points: list[tuple[float, float]], color: str) -> str:
    cmds = [f"{'M' if i == 0 else 'L'} {px:.3f} {py:.3f}" for i, (px, py) in enumerate(points)]
    return f'<path d="{" ".join(cmds)}" fill="none" stroke="{color}" stroke-width="1.5"/>\n'


def render_cdf_overlay(values: list[float]) -> str:
    """Empirical CDF staircase plus the standard normal CDF."""
    if not values:
        raise LabError("empty-table", "no values to plot")
    vals = sorted(values)
    lo = min(vals[0], -3.5)
    hi = max(vals[-1], 3.5)
    fx, fy = _x_map(lo, hi), _y_map(0.0, 1.0)
    m = len(vals)
    steps = [(lo, 0.0)]
    for i, v in enumerate(vals):
        steps.append((v, i / m))
        steps.append((v, (i + 1) / m))
    steps.append((hi, 1.0))
    stair = [(fx(a), fy(b)) for a, b in steps]
    grid = [lo + (hi - lo) * t / 200 for t in range(201)]
    ref = [(fx(t), fy(c)) for t, c in zip(grid, MixedNormal.standard().cdf_many(grid).tolist())]
    return (
        _HEADER.format(w=_W, h=_H)
        + _axes()
        + _path(stair, "steelblue")
        + _path(ref, "crimson")
        + "</svg>\n"
    )


def render_trajectory(points: list[tuple[float, float]]) -> str:
    """Polyline through (index, value) points."""
    if not points:
        raise LabError("empty-table", "no points to plot")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    fx = _x_map(min(xs), max(xs))
    fy = _y_map(min(min(ys), 0.0), max(max(ys), 1e-9))
    line = [(fx(a), fy(b)) for a, b in points]
    return _HEADER.format(w=_W, h=_H) + _axes() + _path(line, "steelblue") + "</svg>\n"

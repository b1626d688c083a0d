"""Hand-rolled SVG output: byte-deterministic, fixed 800x600 viewport.

Plots are intentionally spartan: a ``cdf-overlay`` is exactly two path
elements (empirical CDF staircase, standard normal reference) over two
axis lines; a ``trajectory`` is one path over two axis lines.  Identical
input produces identical bytes.

Coordinates are mapped on numpy arrays, with the same IEEE operations per
point as a scalar map, and written with ``%.3f`` in blocks of
``errors.BLOCK_ROWS`` points; a document is joined once from its parts,
so its peak memory stays near twice its length.  A plot range whose width
in pixels overflows the double range raises ``non-finite`` before
anything is mapped, so no coordinate is ever NaN or infinite.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BLOCK_ROWS, LabError
from .measures import MixedNormal

_W, _H = 800, 600
_ML, _MR, _MT, _MB = 60, 40, 40, 40

_HEADER = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
    'viewBox="0 0 {w} {h}">\n'
)


def _span(lo: float, hi: float, pixels: int) -> float:
    """``hi - lo``, or 1.0 for an empty range; ``non-finite`` when ``pixels * span`` overflows."""
    span = hi - lo if hi > lo else 1.0
    if not math.isfinite(pixels * span):
        raise LabError(
            "non-finite", f"plot range [{lo!r}, {hi!r}] is too wide: its width in pixels overflows"
        )
    return span


def _x_map(lo: float, hi: float):
    span = _span(lo, hi, _W - _ML - _MR)
    return lambda v: _ML + (_W - _ML - _MR) * (v - lo) / span


def _y_map(lo: float, hi: float):
    span = _span(lo, hi, _H - _MT - _MB)
    return lambda v: _H - _MB - (_H - _MT - _MB) * (v - lo) / span


def _axes() -> str:
    return (
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        'stroke="black" stroke-width="1"/>\n'
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
        'stroke="black" stroke-width="1"/>\n'
    )


def _path(px: np.ndarray, py: np.ndarray, color: str) -> list[str]:
    """The parts of one path ``M x y L x y ...`` through the points ``(px[i], py[i])``,
    3 decimals each; the element is their join.

    Points are formatted in blocks of ``BLOCK_ROWS``, one ``%`` of a
    ``" L %.3f %.3f"`` template per block, so only one block's floats are
    alive next to the finished parts.  The caller joins the parts into its
    document once, so the path is never copied on its own.
    """
    parts = ['<path d="']
    for start in range(0, len(px), BLOCK_ROWS):
        stop = start + BLOCK_ROWS
        xy = np.column_stack((px[start:stop], py[start:stop])).ravel().tolist()
        parts.append(" L %.3f %.3f" * (len(xy) // 2) % tuple(xy))
    parts[1] = "M" + parts[1][2:]
    parts.append(f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n')
    return parts


def render_cdf_overlay(values: np.ndarray) -> str:
    """Empirical CDF staircase plus the standard normal CDF.

    The staircase runs ``(lo, 0)``, then ``(v_i, i/m)`` and ``(v_i, (i+1)/m)``
    for each sorted value, then ``(hi, 1)``, over ``[lo, hi]`` =
    ``[min(v, -3.5), max(v, 3.5)]``.
    """
    if not len(values):
        raise LabError("empty-table", "no values to plot")
    vals = np.sort(np.asarray(values, dtype=float), kind="stable")
    lo = min(float(vals[0]), -3.5)
    hi = max(float(vals[-1]), 3.5)
    fx, fy = _x_map(lo, hi), _y_map(0.0, 1.0)
    m = len(vals)
    # temporaries: the unmapped staircase is freed before formatting, the mapped one after
    stair = _path(fx(np.concatenate(([lo], np.repeat(vals, 2), [hi]))),
                  fy(np.repeat(np.arange(m + 1) / m, 2)), "steelblue")
    grid = lo + (hi - lo) * np.arange(201) / 200
    ref_y = MixedNormal.standard().cdf_many(grid)
    reference = _path(fx(grid), fy(ref_y), "crimson")
    return "".join([_HEADER.format(w=_W, h=_H), _axes(), *stair, *reference, "</svg>\n"])


def render_trajectory(xs: np.ndarray, ys: np.ndarray) -> str:
    """Polyline through the (index, value) points ``(xs[i], ys[i])``."""
    if not len(xs):
        raise LabError("empty-table", "no points to plot")
    fx = _x_map(float(xs.min()), float(xs.max()))
    fy = _y_map(min(float(ys.min()), 0.0), max(float(ys.max()), 1e-9))
    line = _path(fx(xs), fy(ys), "steelblue")
    return "".join([_HEADER.format(w=_W, h=_H), _axes(), *line, "</svg>\n"])

"""SVG plots: well-formed documents with finite coordinates, and the bytes
of the per-point renderers they replaced."""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permutalab import LabError
from permutalab.measures import MixedNormal
from permutalab.svg import render_cdf_overlay, render_trajectory

from conftest import sample_values

_NS = "{http://www.w3.org/2000/svg}"


def _path_points(svg: str) -> list[tuple[float, float]]:
    """Parse the document; return the vertices of its single path."""
    root = ET.fromstring(svg)
    assert root.tag == f"{_NS}svg"
    assert (root.get("width"), root.get("height")) == ("800", "600")
    paths = root.findall(f"{_NS}path")
    assert len(paths) == 1
    assert len(root.findall(f"{_NS}line")) == 2
    tokens = paths[0].get("d").split()
    assert tokens[0::3] == ["M"] + ["L"] * (len(tokens) // 3 - 1)
    return [(float(tokens[k + 1]), float(tokens[k + 2])) for k in range(0, len(tokens), 3)]


def _overlay(values: list[float]) -> str:
    return render_cdf_overlay(np.array(values, dtype=float))


def _trajectory(points: list[tuple[float, float]]) -> str:
    """The trajectory of the rows, passed as the index and value arrays."""
    xs, ys = np.array(points, dtype=float).reshape(-1, 2).T
    return render_trajectory(xs, ys)


def _assert_in_viewport(points):
    for px, py in points:
        assert math.isfinite(px) and math.isfinite(py)
        assert 0.0 <= px <= 800.0 and 0.0 <= py <= 600.0


def test_empty_list_raises_empty_table():
    with pytest.raises(LabError) as err:
        _trajectory([])
    assert err.value.token == "empty-table"


def test_one_vertex_per_point():
    points = [(1.0, 0.5), (2.0, 1.5), (3.0, -0.25), (4.0, 2.0)]
    svg = _trajectory(points)
    assert svg.count("<svg") == 1 and svg.endswith("</svg>\n")
    vertices = _path_points(svg)
    assert len(vertices) == len(points)
    _assert_in_viewport(vertices)
    # x increases with the index; a larger value sits higher (smaller y)
    assert [px for px, _ in vertices] == sorted(px for px, _ in vertices)
    assert vertices[3][1] < vertices[1][1] < vertices[0][1] < vertices[2][1]
    assert _trajectory(points) == svg


@pytest.mark.parametrize(
    "points",
    [
        [(1.0, -3.0), (2.0, -1.0), (3.0, -2.0)],
        [(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)],
        [(1.0, 0.7), (2.0, 0.7)],
        [(1.0, -0.7), (2.0, -0.7)],
        [(5.0, 0.4)],
        [(5.0, -0.4), (5.0, -0.4)],
    ],
    ids=["all-negative", "all-zero", "constant", "constant-negative", "one-point", "one-index"],
)
def test_degenerate_ranges_render(points):
    vertices = _path_points(_trajectory(points))
    assert len(vertices) == len(points)
    _assert_in_viewport(vertices)


# -- byte oracles: the per-point renderers, copied verbatim (module names
# prefixed with ``reference_``)

_W, _H = 800, 600
_ML, _MR, _MT, _MB = 60, 40, 40, 40

_HEADER = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
    'viewBox="0 0 {w} {h}">\n'
)


def reference_x_map(lo: float, hi: float):
    span = hi - lo if hi > lo else 1.0
    return lambda v: _ML + (_W - _ML - _MR) * (v - lo) / span


def reference_y_map(lo: float, hi: float):
    span = hi - lo if hi > lo else 1.0
    return lambda v: _H - _MB - (_H - _MT - _MB) * (v - lo) / span


def reference_axes() -> str:
    return (
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        'stroke="black" stroke-width="1"/>\n'
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
        'stroke="black" stroke-width="1"/>\n'
    )


def reference_path(points: list[tuple[float, float]], color: str) -> str:
    cmds = [f"{'M' if i == 0 else 'L'} {px:.3f} {py:.3f}" for i, (px, py) in enumerate(points)]
    return f'<path d="{" ".join(cmds)}" fill="none" stroke="{color}" stroke-width="1.5"/>\n'


def reference_render_cdf_overlay(values: list[float]) -> str:
    if not values:
        raise LabError("empty-table", "no values to plot")
    vals = sorted(values)
    lo = min(vals[0], -3.5)
    hi = max(vals[-1], 3.5)
    fx, fy = reference_x_map(lo, hi), reference_y_map(0.0, 1.0)
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
        + reference_axes()
        + reference_path(stair, "steelblue")
        + reference_path(ref, "crimson")
        + "</svg>\n"
    )


def reference_render_trajectory(points: list[tuple[float, float]]) -> str:
    if not points:
        raise LabError("empty-table", "no points to plot")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    fx = reference_x_map(min(xs), max(xs))
    fy = reference_y_map(min(min(ys), 0.0), max(max(ys), 1e-9))
    line = [(fx(a), fy(b)) for a, b in points]
    return (
        _HEADER.format(w=_W, h=_H) + reference_axes() + reference_path(line, "steelblue")
        + "</svg>\n"
    )


@given(values=sample_values())
@example(values=[0.0])
@example(values=[-0.0, 0.0, -0.0])
@example(values=[5.0] * 3)
@example(values=[-3.5, 3.5])
@settings(max_examples=80, deadline=None)
def test_cdf_overlay_bytes_match_the_per_point_renderer(values):
    assert _overlay(values) == reference_render_cdf_overlay(values)


@st.composite
def _trajectories(draw) -> list[tuple[float, float]]:
    """(index, value) rows: strong-law style 1..n indices, or drawn x values."""
    ys = draw(sample_values())
    if draw(st.booleans()):
        return [(float(i), y) for i, y in enumerate(ys, start=1)]
    xs = draw(sample_values(len(ys)))
    return list(zip(np.resize(xs, len(ys)).tolist(), ys))


@given(points=_trajectories())
@example(points=[(1.0, 0.0)])
@example(points=[(0.0, -0.0), (-0.0, 0.0)])
@settings(max_examples=80, deadline=None)
def test_trajectory_bytes_match_the_per_point_renderer(points):
    assert _trajectory(points) == reference_render_trajectory(points)


@pytest.mark.parametrize(
    "render, reference, rows",
    [
        (_overlay, reference_render_cdf_overlay, [-1e308, 1e308]),
        (_overlay, reference_render_cdf_overlay, [-1e306, 1e306]),
        (_trajectory, reference_render_trajectory, [(1.0, -1e308), (2.0, 1e308)]),
        (_trajectory, reference_render_trajectory, [(1.0, 1e306), (2.0, 0.5)]),
        (_trajectory, reference_render_trajectory, [(-1e306, 0.5), (1e306, 0.5)]),
    ],
    ids=["overlay-range", "overlay-pixels", "trajectory-range", "trajectory-pixels",
         "trajectory-index"],
)
def test_range_too_wide_for_doubles_raises_non_finite(render, reference, rows):
    # the width overflows, or only its size in pixels does: the per-point
    # renderer wrote nan or inf coordinates
    assert "nan" in reference(rows) or "inf" in reference(rows)
    with pytest.raises(LabError) as err:
        render(rows)
    assert err.value.token == "non-finite"


def test_widest_range_that_fits_renders_finite_coordinates():
    rows = [(1.0, -1e305), (2.0, 1e305)]
    assert _trajectory(rows) == reference_render_trajectory(rows)
    vertices = _path_points(_trajectory(rows))
    _assert_in_viewport(vertices)

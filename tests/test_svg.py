"""SVG trajectory plots: one well-formed document, one path, finite coordinates."""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import pytest

from permutalab import LabError
from permutalab.svg import render_trajectory

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


def _assert_in_viewport(points):
    for px, py in points:
        assert math.isfinite(px) and math.isfinite(py)
        assert 0.0 <= px <= 800.0 and 0.0 <= py <= 600.0


def test_empty_list_raises_empty_table():
    with pytest.raises(LabError) as err:
        render_trajectory([])
    assert err.value.token == "empty-table"


def test_one_vertex_per_point():
    points = [(1.0, 0.5), (2.0, 1.5), (3.0, -0.25), (4.0, 2.0)]
    svg = render_trajectory(points)
    assert svg.count("<svg") == 1 and svg.endswith("</svg>\n")
    vertices = _path_points(svg)
    assert len(vertices) == len(points)
    _assert_in_viewport(vertices)
    # x increases with the index; a larger value sits higher (smaller y)
    assert [px for px, _ in vertices] == sorted(px for px, _ in vertices)
    assert vertices[3][1] < vertices[1][1] < vertices[0][1] < vertices[2][1]
    assert render_trajectory(points) == svg


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
    vertices = _path_points(render_trajectory(points))
    assert len(vertices) == len(points)
    _assert_in_viewport(vertices)

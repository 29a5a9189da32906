"""PGM and SVG artifact generation."""

import xml.etree.ElementTree as ET

import numpy as np

from bayesteach.models import fit_model
from bayesteach.explainers import distill_tree
from bayesteach.render import (
    saliency_to_pgm,
    saliency_to_svg,
    tree_to_svg,
)


def test_pgm_header_and_pixel_payload():
    values = [0.0, 0.5, 1.0, 0.25]
    blob = saliency_to_pgm(values)
    header, rest = blob.split(b"\n", 1)
    assert header == b"P5"
    dims, rest = rest.split(b"\n", 1)
    assert dims == b"2 2"
    maxval, pixels = rest.split(b"\n", 1)
    assert maxval == b"255"
    assert len(pixels) == 4
    assert list(pixels) == [0, 128, 255, 64]


def test_pgm_scales_by_largest_magnitude_and_clamps_negatives():
    blob = saliency_to_pgm([-2.0, 1.0, 0.5, 0.0])
    pixels = blob.rsplit(b"\n", 1)[1]
    assert list(pixels) == [0, 128, 64, 0]  # -2 clamps; scale is 1/2


def test_grid_shape_rules():
    square = saliency_to_pgm([0.1] * 9)
    assert b"3 3" in square
    flat = saliency_to_pgm([0.1] * 6)  # not a perfect square: one row
    assert b"6 1" in flat


def test_saliency_svg_is_well_formed_and_sized():
    svg = saliency_to_svg(np.linspace(-1, 1, 9))
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    rects = [e for e in root.iter() if e.tag.endswith("rect")]
    assert len(rects) == 9
    titles = [e.text for e in root.iter() if e.tag.endswith("title")]
    assert len(titles) == 9


def test_tree_svg_renders_every_node(moons):
    model = fit_model("logistic", moons, seed=0)
    tree = distill_tree(model, moons.features, depth=2, epochs=40, seed=0).tree
    svg = tree_to_svg(tree)
    root = ET.fromstring(svg)
    texts = [e.text for e in root.iter() if e.tag.endswith("text")]
    assert sum(1 for t in texts if t and t.startswith("n")) == tree.n_inner
    lines = [e for e in root.iter() if e.tag.endswith("line")]
    assert len(lines) >= tree.n_inner * 2  # one edge per child


def test_renders_are_deterministic(moons):
    values = np.linspace(-1, 1, 16)
    assert saliency_to_pgm(values) == saliency_to_pgm(values)
    assert saliency_to_svg(values) == saliency_to_svg(values)
    model = fit_model("logistic", moons, seed=0)
    tree = distill_tree(model, moons.features, depth=2, epochs=20, seed=0).tree
    assert tree_to_svg(tree) == tree_to_svg(tree)

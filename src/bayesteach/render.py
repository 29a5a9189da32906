"""Render explanation artifacts to portable formats.

Saliency vectors become binary P5 PGM images or SVG heat grids; soft
trees become node-link SVG diagrams. All output is byte-deterministic: floats are formatted with a
fixed precision and no locale-sensitive code paths are used.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadSpec


def _fmt(value: float, places: int = 2) -> str:
    out = f"{value:.{places}f}"
    # avoid the two spellings of zero
    return "0." + "0" * places if out == "-0." + "0" * places else out


def _as_grid(values: np.ndarray, side: int | None = None) -> np.ndarray:
    flat = np.asarray(values, dtype=float).ravel()
    if side is not None:
        if side * side != flat.size:
            raise BadSpec(f"side {side} does not square to {flat.size} values")
        return flat.reshape(side, side)
    root = math.isqrt(flat.size)
    if root * root == flat.size:
        return flat.reshape(root, root)
    return flat.reshape(1, flat.size)


def _normalize(grid: np.ndarray) -> np.ndarray:
    top = float(np.max(np.abs(grid)))
    if top == 0.0:
        return np.zeros_like(grid)
    return grid / top


def saliency_to_pgm(values, side: int | None = None) -> bytes:
    """8-bit binary PGM. Values are scaled so the largest magnitude maps
    to 255; negative values clamp to 0."""
    grid = _normalize(_as_grid(values, side))
    pixels = np.clip(np.rint(grid * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii")
    return header + pixels.tobytes()


def _heat_color(v: float) -> str:
    """Diverging map: negative blue, positive red, zero white."""
    v = max(-1.0, min(1.0, v))
    if v >= 0:
        r, g, b = 255, round(255 * (1 - v)), round(255 * (1 - v))
    else:
        r, g, b = round(255 * (1 + v)), round(255 * (1 + v)), 255
    return f"rgb({r},{g},{b})"


def saliency_to_svg(values, side: int | None = None, cell: int = 24) -> str:
    grid = _normalize(_as_grid(values, side))
    rows, cols = grid.shape
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{cols * cell}" height="{rows * cell}" '
        f'viewBox="0 0 {cols * cell} {rows * cell}">',
    ]
    for i in range(rows):
        for j in range(cols):
            v = float(grid[i, j])
            parts.append(
                f'<rect x="{j * cell}" y="{i * cell}" width="{cell}" height="{cell}" '
                f'fill="{_heat_color(v)}" stroke="rgb(230,230,230)">'
                f"<title>{_fmt(v, 4)}</title></rect>"
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def tree_to_svg(tree, class_names=None, node_w: int = 96, node_h: int = 44) -> str:
    """Node-link diagram of a soft decision tree.

    Inner nodes show a heat strip of gate weights; leaves show the class
    distribution as stacked bars.
    """
    depth = tree.depth
    leaf_count = 2 ** depth
    width = leaf_count * (node_w + 16)
    height = (depth + 1) * (node_h + 56) + 24
    dists = tree.leaf_distributions()
    n_classes = dists.shape[1]
    if class_names is None:
        class_names = [str(c) for c in range(n_classes)]
    palette = ["rgb(66,120,200)", "rgb(220,90,80)", "rgb(90,170,100)",
               "rgb(200,160,60)", "rgb(140,100,180)", "rgb(100,180,180)"]

    def center(level: int, pos: int) -> tuple[float, float]:
        span = width / (2 ** level)
        return span * (pos + 0.5), 24 + level * (node_h + 56)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
    ]
    # edges first so nodes draw over them
    for level in range(depth):
        for pos in range(2 ** level):
            x0, y0 = center(level, pos)
            for side in (0, 1):
                x1, y1 = center(level + 1, 2 * pos + side)
                parts.append(
                    f'<line x1="{_fmt(x0)}" y1="{_fmt(y0 + node_h)}" '
                    f'x2="{_fmt(x1)}" y2="{_fmt(y1)}" stroke="rgb(150,150,150)"/>'
                )
    node = 0
    for level in range(depth):
        for pos in range(2 ** level):
            x, y = center(level, pos)
            left = x - node_w / 2
            parts.append(
                f'<rect x="{_fmt(left)}" y="{_fmt(y)}" width="{node_w}" '
                f'height="{node_h}" fill="rgb(248,248,248)" stroke="rgb(60,60,60)"/>'
            )
            w = np.asarray(tree.node_weights[node], dtype=float)
            strip = w / max(float(np.max(np.abs(w))), 1e-12)
            cell_w = node_w / w.size
            for j, v in enumerate(strip):
                parts.append(
                    f'<rect x="{_fmt(left + j * cell_w)}" y="{_fmt(y + node_h - 14)}" '
                    f'width="{_fmt(cell_w)}" height="12" fill="{_heat_color(float(v))}">'
                    f"<title>w[{j}]={_fmt(float(tree.node_weights[node][j]), 4)}</title></rect>"
                )
            parts.append(
                f'<text x="{_fmt(x)}" y="{_fmt(y + 18)}" font-size="11" '
                f'text-anchor="middle" font-family="monospace">n{node} '
                f"b={_fmt(float(tree.node_bias[node]))}</text>"
            )
            node += 1
    for pos in range(leaf_count):
        x, y = center(depth, pos)
        left = x - node_w / 2
        parts.append(
            f'<rect x="{_fmt(left)}" y="{_fmt(y)}" width="{node_w}" '
            f'height="{node_h}" fill="rgb(255,255,255)" stroke="rgb(60,60,60)"/>'
        )
        acc = 0.0
        for c in range(n_classes):
            frac = float(dists[pos, c])
            parts.append(
                f'<rect x="{_fmt(left + acc * node_w)}" y="{_fmt(y + node_h - 14)}" '
                f'width="{_fmt(frac * node_w)}" height="12" '
                f'fill="{palette[c % len(palette)]}">'
                f"<title>{class_names[c]}: {_fmt(frac, 4)}</title></rect>"
            )
            acc += frac
        top = int(np.argmax(dists[pos]))
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y + 18)}" font-size="11" '
            f'text-anchor="middle" font-family="monospace">leaf {pos}: '
            f"{class_names[top]}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

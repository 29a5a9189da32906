"""Render explanation artifacts to portable formats.

Saliency vectors become binary P5 PGM images or SVG heat grids; soft
trees become node-link SVG diagrams. All output is byte-deterministic: floats are formatted with a
fixed precision and no locale-sensitive code paths are used.
"""

from __future__ import annotations

import math

import numpy as np

CELL = 24  # side of a saliency grid cell, px
NODE_W, NODE_H = 96, 44  # tree node box, px


def _fmt(value: float, places: int = 2) -> str:
    out = f"{value:.{places}f}"
    # avoid the two spellings of zero
    return "0." + "0" * places if out == "-0." + "0" * places else out


def _as_grid(values: np.ndarray) -> np.ndarray:
    """A square grid when the count is a perfect square, else one row."""
    flat = np.asarray(values, dtype=float).ravel()
    root = math.isqrt(flat.size)
    if root * root == flat.size:
        return flat.reshape(root, root)
    return flat.reshape(1, flat.size)


def _normalize(grid: np.ndarray) -> np.ndarray:
    top = float(np.max(np.abs(grid)))
    if top == 0.0:
        return np.zeros_like(grid)
    return grid / top


def saliency_to_pgm(values) -> bytes:
    """8-bit binary PGM. Values are scaled so the largest magnitude maps
    to 255; negative values clamp to 0."""
    grid = _normalize(_as_grid(values))
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


def saliency_to_svg(values) -> str:
    grid = _normalize(_as_grid(values))
    rows, cols = grid.shape
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{cols * CELL}" height="{rows * CELL}" '
        f'viewBox="0 0 {cols * CELL} {rows * CELL}">',
    ]
    for i in range(rows):
        for j in range(cols):
            v = float(grid[i, j])
            parts.append(
                f'<rect x="{j * CELL}" y="{i * CELL}" width="{CELL}" height="{CELL}" '
                f'fill="{_heat_color(v)}" stroke="rgb(230,230,230)">'
                f"<title>{_fmt(v, 4)}</title></rect>"
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def tree_to_svg(tree) -> str:
    """Node-link diagram of a soft decision tree.

    Inner nodes show a heat strip of gate weights; leaves show the class
    distribution as stacked bars, named by class index.
    """
    depth = tree.depth
    leaf_count = 2 ** depth
    width = leaf_count * (NODE_W + 16)
    height = (depth + 1) * (NODE_H + 56) + 24
    dists = tree.leaf_distributions()
    n_classes = dists.shape[1]
    palette = ["rgb(66,120,200)", "rgb(220,90,80)", "rgb(90,170,100)",
               "rgb(200,160,60)", "rgb(140,100,180)", "rgb(100,180,180)"]

    def center(level: int, pos: int) -> tuple[float, float]:
        span = width / (2 ** level)
        return span * (pos + 0.5), 24 + level * (NODE_H + 56)

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
                    f'<line x1="{_fmt(x0)}" y1="{_fmt(y0 + NODE_H)}" '
                    f'x2="{_fmt(x1)}" y2="{_fmt(y1)}" stroke="rgb(150,150,150)"/>'
                )
    node = 0
    for level in range(depth):
        for pos in range(2 ** level):
            x, y = center(level, pos)
            left = x - NODE_W / 2
            parts.append(
                f'<rect x="{_fmt(left)}" y="{_fmt(y)}" width="{NODE_W}" '
                f'height="{NODE_H}" fill="rgb(248,248,248)" stroke="rgb(60,60,60)"/>'
            )
            w = np.asarray(tree.node_weights[node], dtype=float)
            strip = w / max(float(np.max(np.abs(w))), 1e-12)
            cell_w = NODE_W / w.size
            for j, v in enumerate(strip):
                parts.append(
                    f'<rect x="{_fmt(left + j * cell_w)}" y="{_fmt(y + NODE_H - 14)}" '
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
        left = x - NODE_W / 2
        parts.append(
            f'<rect x="{_fmt(left)}" y="{_fmt(y)}" width="{NODE_W}" '
            f'height="{NODE_H}" fill="rgb(255,255,255)" stroke="rgb(60,60,60)"/>'
        )
        acc = 0.0
        for c in range(n_classes):
            frac = float(dists[pos, c])
            parts.append(
                f'<rect x="{_fmt(left + acc * NODE_W)}" y="{_fmt(y + NODE_H - 14)}" '
                f'width="{_fmt(frac * NODE_W)}" height="12" '
                f'fill="{palette[c % len(palette)]}">'
                f"<title>{c}: {_fmt(frac, 4)}</title></rect>"
            )
            acc += frac
        top = int(np.argmax(dists[pos]))
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y + 18)}" font-size="11" '
            f'text-anchor="middle" font-family="monospace">leaf {pos}: '
            f"{top}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

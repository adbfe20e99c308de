"""Minimal deterministic SVG line charts.

A convenience view on the CSV artifacts, not a plotting library: fixed
canvas, one polyline per series, linear or log-10 y axis, small legend.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 62, 16, 34, 46
# points formatted per pass: bounds the float lists and the per-point strings
# alive at once, as each chunk is joined into one string before the next
_CHUNK = 1024
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _points(series, log_y: bool) -> list:
    """Each series' plotted ``(x, y)`` as float arrays, paired as ``zip`` pairs
    them; on a log axis the points with ``y <= 0`` are dropped and y is
    ``math.log10(y)``, taken per point."""
    points = []
    for _, xs, ys in series:
        count = min(len(xs), len(ys))
        x = np.asarray(xs[:count], dtype=float)
        y = np.asarray(ys[:count], dtype=float)
        if log_y:
            keep = ~(y <= 0.0)
            x = x[keep]
            y = np.fromiter(map(math.log10, y[keep]), dtype=float)
        points.append((x, y))
    return points


def _range(arrays: list) -> tuple[float, float]:
    """``min()`` and ``max()`` of the concatenated values as Python takes
    them: the first value, replaced only by a strictly smaller (larger) one,
    so a leading NaN stays and a later one is passed over."""
    values = np.concatenate(arrays)
    if math.isnan(values[0]):
        return float(values[0]), float(values[0])
    numbers = values[~np.isnan(values)]
    return float(numbers[np.argmin(numbers)]), float(numbers[np.argmax(numbers)])


def line_chart(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str,
    xlabel: str,
    ylabel: str,
    log_y: bool = False,
) -> str:
    """Render ``(label, xs, ys)`` series to an SVG document string."""
    points = _points(series, log_y)
    if any(len(x) for x, _ in points):
        x_lo, x_hi = _range([x for x, _ in points])
        y_lo, y_hi = _range([y for _, y in points])
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    for xt in _ticks(x_lo, x_hi):
        xp = px(xt)
        out.append(
            f'<line x1="{xp:.2f}" y1="{MARGIN_T}" x2="{xp:.2f}" '
            f'y2="{HEIGHT - MARGIN_B}" stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{xp:.2f}" y="{HEIGHT - MARGIN_B + 16}" '
            f'text-anchor="middle">{_fmt(xt)}</text>'
        )
    for yt in _ticks(y_lo, y_hi):
        yp = py(yt)
        label = f"1e{_fmt(yt)}" if log_y else _fmt(yt)
        out.append(
            f'<line x1="{MARGIN_L}" y1="{yp:.2f}" x2="{WIDTH - MARGIN_R}" '
            f'y2="{yp:.2f}" stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{MARGIN_L - 6}" y="{yp + 4:.2f}" text-anchor="end">{label}</text>'
        )
    out.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444444"/>'
    )
    for idx, ((label, _, _), (x, y)) in enumerate(zip(series, points)):
        color = PALETTE[idx % len(PALETTE)]
        chunks = []  # one string per chunk: " ".join of these joins every point
        for start in range(0, len(x), _CHUNK):
            with np.errstate(all="ignore"):  # inf and NaN pass as in float arithmetic
                a, b = px(x[start : start + _CHUNK]), py(y[start : start + _CHUNK])
            chunks.append(" ".join(map("%.2f,%.2f".__mod__, zip(a.tolist(), b.tolist()))))
        if chunks:
            out.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{" ".join(chunks)}"/>'
            )
        ly = MARGIN_T + 14 + 16 * idx
        lx = WIDTH - MARGIN_R - 150
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(f'<text x="{lx + 28}" y="{ly}">{label}</text>')
    out.append(
        f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle">{xlabel}</text>'
    )
    out.append(
        f'<text x="16" y="{HEIGHT / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {HEIGHT / 2:.1f})">{ylabel}</text>'
    )
    out.append("</svg>\n")  # the final newline, without a copy of the whole text
    return "\n".join(out)

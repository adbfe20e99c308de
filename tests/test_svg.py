"""``svg.line_chart`` against the earlier version that collected every
point in a list before taking the axis ranges and kept one string per
point until its final join: the SVG text must be identical.
"""

import math
import tracemalloc
from typing import Sequence

import numpy as np
import pytest

from fokker_flux.svg import (
    HEIGHT,
    MARGIN_B,
    MARGIN_L,
    MARGIN_R,
    MARGIN_T,
    PALETTE,
    WIDTH,
    _CHUNK,
    _fmt,
    _ticks,
    line_chart,
)


def old_line_chart(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str,
    xlabel: str,
    ylabel: str,
    log_y: bool = False,
) -> str:
    """Render ``(label, xs, ys)`` series to an SVG document string."""
    pts = []
    for _, xs, ys in series:
        for x, y in zip(xs, ys):
            if log_y and y <= 0.0:
                continue
            pts.append((float(x), math.log10(y) if log_y else float(y)))
    if not pts:
        pts = [(0.0, 0.0), (1.0, 1.0)]
    x_lo = min(p[0] for p in pts)
    x_hi = max(p[0] for p in pts)
    y_lo = min(p[1] for p in pts)
    y_hi = max(p[1] for p in pts)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
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
    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        coords = []
        for x, y in zip(xs, ys):
            if log_y:
                if y <= 0.0:
                    continue
                y = math.log10(y)
            coords.append(f"{px(float(x)):.2f},{py(float(y)):.2f}")
        if coords:
            out.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{" ".join(coords)}"/>'
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
    out.append("</svg>")
    return "\n".join(out) + "\n"


def across_chunks(count):
    """Two series of ``count`` and ``count // 2`` positive points, which a log
    axis keeps, so that both axes plot ``count`` points in chunks of ``_CHUNK``."""
    t = np.linspace(0.0, 1.0, count)
    return [("mass", t, 1.5 + np.sin(9.0 * t)), ("half", t[: count // 2], np.exp(-t[: count // 2]))]


T = np.linspace(0.0, 2.0, 401)
SERIES = {
    "one": [("mass", T, 1.0 + np.sin(3.0 * T))],
    "several": [
        ("decay", T, np.exp(-2.3 * T)),
        ("signed", T, np.cos(5.0 * T) - 0.2),
        ("short", T[:50], -T[:50]),
    ],
    "zeros and negatives": [("e", T, np.where(T > 1.0, 0.0, np.exp(-T) - 0.5))],
    "constant": [("flat", T, np.full(T.size, 0.7))],
    "constant pair": [("flat", T, np.full(T.size, 0.7)), ("flat too", T, np.full(T.size, 0.7))],
    "single point": [("dot", [0.5], [3.0])],
    "lists": [("py", [0.0, 0.5, 1.0], [2.0, -1.0, 4.0])],
    "no points": [("none", [], [])],
    "no series": [],
    "unequal lengths": [("cut", T[:30], np.exp(-T[:20])), ("ints", [0, 1, 2], [5, 10, 20])],
    "nan first": [("nan", T[:20], np.r_[np.nan, np.exp(-T[1:20])])],
    "nan inside": [("nan", np.r_[T[:5], np.nan, T[6:20]], np.r_[np.exp(-T[:10]), np.nan, T[11:20]])],
    "signed zeros": [("zeros", [0.0, -0.0, 0.5], [-0.0, 0.0, -0.0]), ("z", [-0.0, 1.0], [0.0, -0.0])],
    "infinite": [("inf", [0.0, 1.0, 2.0], [np.inf, 1.0, -np.inf])],
    "long with non-positive values": [
        ("mass", np.linspace(0.0, 0.16, 16001), np.cos(np.linspace(0.0, 40.0, 16001)) * 1e-3),
    ],
    **{
        f"{count} points across chunks": across_chunks(count)
        for count in (0, 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5)
    },
}


@pytest.mark.parametrize("log_y", [False, True])
@pytest.mark.parametrize("name", list(SERIES))
def test_line_chart_bytes_unchanged(name, log_y):
    series = SERIES[name]
    want = old_line_chart(series, f"title {name}", "t", "y", log_y=log_y)
    got = line_chart(series, f"title {name}", "t", "y", log_y=log_y)
    assert got.encode() == want.encode()


@pytest.mark.parametrize("log_y", [False, True])
def test_line_chart_memory_is_bounded_by_its_text(log_y):
    # one string per point (about 70 bytes with its list slot, for 13-14 bytes
    # of text) peaks near 16 times the text (old_line_chart); line_chart peaks
    # near 3 times it on a linear axis and 4 on a log one, at 20 001 points as
    # at 200 001
    t = np.linspace(0.0, 2.0, 20_001)
    y = np.exp(-t) * (1.0 + 0.5 * np.sin(40.0 * t))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        text = line_chart([("mass", t, y)], "mass", "t", "mass", log_y=log_y)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 6 * len(text)

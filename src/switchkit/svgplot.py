"""Minimal SVG line plots (polyline + axes), no plotting dependency.

Output is deterministic: fixed float formatting, no timestamps, stable
element order.
"""

from __future__ import annotations

import math

import numpy as np

_COLORS = ("#1f6fb2", "#c44e52", "#2f7d4f", "#8172b2")

PANEL_W = 320
PANEL_H = 260
MARGIN = 46


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        if mag * mult >= raw:
            step = mag * mult
            break
    start = math.ceil(lo / step) * step
    ticks = []
    v = start
    while v <= hi + 1e-12 * step:
        ticks.append(round(v / step) * step)
        v += step
    return ticks


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _panel_svg(title: str, curves: list, x_off: int) -> list[str]:
    xs = np.concatenate([c[0] for c in curves])
    ys = np.concatenate([c[1] for c in curves])
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.06 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    px0, px1 = x_off + MARGIN, x_off + PANEL_W - 12
    py0, py1 = PANEL_H - 34, 26  # y grows downward in SVG

    def sx(x: float) -> float:
        return px0 + (x - x_lo) / (x_hi - x_lo) * (px1 - px0)

    def sy(y: float) -> float:
        return py0 + (y - y_lo) / (y_hi - y_lo) * (py1 - py0)

    out = [
        f'<text x="{x_off + PANEL_W / 2:.1f}" y="16" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{title}</text>',
        f'<line x1="{px0}" y1="{py0}" x2="{px1}" y2="{py0}" stroke="#333" stroke-width="1"/>',
        f'<line x1="{px0}" y1="{py0}" x2="{px0}" y2="{py1}" stroke="#333" stroke-width="1"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        out.append(
            f'<line x1="{sx(tx):.2f}" y1="{py0}" x2="{sx(tx):.2f}" y2="{py0 + 4}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{sx(tx):.2f}" y="{py0 + 16}" text-anchor="middle" '
            f'font-size="10" font-family="sans-serif">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        out.append(
            f'<line x1="{px0 - 4}" y1="{sy(ty):.2f}" x2="{px0}" y2="{sy(ty):.2f}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{px0 - 7}" y="{sy(ty) + 3.5:.2f}" text-anchor="end" '
            f'font-size="10" font-family="sans-serif">{_fmt(ty)}</text>'
        )
    for k, (cx, cy, label) in enumerate(curves):
        color = _COLORS[k % len(_COLORS)]
        pts = " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}" for a, b in zip(cx, cy))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.4"/>')
        if label:
            out.append(
                f'<text x="{px1 - 4}" y="{py1 + 12 + 13 * k}" text-anchor="end" '
                f'font-size="10" font-family="sans-serif" fill="{color}">{label}</text>'
            )
    return out


def render_panels(panels: list, path) -> None:
    """Write panels (title, [(x, y, label), ...]) side by side as one SVG at ``path``."""
    width = PANEL_W * len(panels)
    body = []
    for i, (title, curves) in enumerate(panels):
        body.extend(_panel_svg(title, curves, i * PANEL_W))
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{PANEL_H}" '
        f'viewBox="0 0 {width} {PANEL_H}">\n'
        f'<rect width="{width}" height="{PANEL_H}" fill="white"/>\n'
        + "\n".join(body)
        + "\n</svg>\n"
    )
    with open(path, "w") as fh:
        fh.write(svg)

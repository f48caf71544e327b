"""Minimal self-contained SVG line plots for convergence traces.

No plotting dependency: the experiment harness only needs axes, a few
polyline series, and a legend, rendered deterministically so that runs
with the same inputs emit byte-identical files.  Coordinates are
formatted with two decimals; an optional generation comment is the one
nondeterministic element and is omitted when timestamp is None.
"""

from __future__ import annotations

import math
from typing import Sequence

from .domain import _Record

__all__ = ["PlotSeries", "line_plot_svg"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


class PlotSeries(_Record):
    name: str
    points: tuple[tuple[float, float], ...]
    dashed: bool = False


def _finite(points: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    return [(x, y) for x, y in points if math.isfinite(x) and math.isfinite(y)]


def _ticks(lo: float, hi: float) -> list[float]:
    """Five evenly spaced ticks from lo to hi."""
    if lo == hi:
        return [lo]
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _escape(text: str) -> str:
    """Escape XML text content, so any title, label or series name is valid SVG."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def line_plot_svg(series: Sequence[PlotSeries], *, title: str, xlabel: str,
                  ylabel: str, timestamp: str | None = None) -> str:
    width, height = 640, 420
    margin_l, margin_r, margin_t, margin_b = 64, 16, 36, 46
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    all_pts = [p for s in series for p in _finite(s.points)]
    if all_pts:
        xs = [p[0] for p in all_pts]
        ys = [p[1] for p in all_pts]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
    else:
        x_lo = y_lo = 0.0
        x_hi = y_hi = 1.0
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    def px(x: float) -> float:
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return margin_t + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">')
    if timestamp is not None:
        parts.append(f"<!-- generated: {timestamp} -->")
    parts.append(f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>')
    parts.append(f'<text x="{width / 2:.2f}" y="20" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="14">{_escape(title)}</text>')

    # axes box and ticks
    parts.append(f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
                 f'fill="none" stroke="#333" stroke-width="1"/>')
    for tx in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(tx):.2f}" y1="{margin_t + plot_h}" '
                     f'x2="{px(tx):.2f}" y2="{margin_t + plot_h + 4}" stroke="#333"/>')
        parts.append(f'<text x="{px(tx):.2f}" y="{margin_t + plot_h + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" font-size="10">'
                     f"{_fmt(tx)}</text>")
    for ty in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{margin_l - 4}" y1="{py(ty):.2f}" '
                     f'x2="{margin_l}" y2="{py(ty):.2f}" stroke="#333"/>')
        parts.append(f'<text x="{margin_l - 8}" y="{py(ty) + 3:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{_fmt(ty)}</text>')
    parts.append(f'<text x="{margin_l + plot_w / 2:.2f}" y="{height - 8}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="12">'
                 f"{_escape(xlabel)}</text>")
    parts.append(f'<text x="14" y="{margin_t + plot_h / 2:.2f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 14 {margin_t + plot_h / 2:.2f})">'
                 f"{_escape(ylabel)}</text>")

    for i, s in enumerate(series):
        pts = _finite(s.points)
        if not pts:
            continue
        color = _COLORS[i % len(_COLORS)]
        dash = ' stroke-dasharray="6 3"' if s.dashed else ""
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in sorted(pts))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"{dash}/>')
        ly = margin_t + 14 + 14 * i
        parts.append(f'<line x1="{margin_l + plot_w - 130}" y1="{ly - 4:.2f}" '
                     f'x2="{margin_l + plot_w - 110}" y2="{ly - 4:.2f}" '
                     f'stroke="{color}" stroke-width="1.5"{dash}/>')
        parts.append(f'<text x="{margin_l + plot_w - 105}" y="{ly:.2f}" '
                     f'font-family="sans-serif" font-size="10">{_escape(s.name)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"

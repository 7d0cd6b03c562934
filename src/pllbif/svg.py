"""Minimal self-contained SVG line charts.

Just enough plotting to reproduce sweep figures without a plotting
dependency: axes, ticks, a handful of colored polylines or marker series,
and a legend.  Non-finite points split a polyline into segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["Series", "line_chart"]

_PALETTE = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#e377c2",
]


@dataclass
class Series:
    xs: Sequence[float]
    ys: Sequence[float]
    label: str = ""
    markers: bool = False  # draw dots instead of a connected line


def _finite_bounds(series):
    lo_x = lo_y = math.inf
    hi_x = hi_y = -math.inf
    for s in series:
        for x, y in zip(s.xs, s.ys):
            if math.isfinite(x) and math.isfinite(y):
                lo_x, hi_x = min(lo_x, x), max(hi_x, x)
                lo_y, hi_y = min(lo_y, y), max(hi_y, y)
    if not math.isfinite(lo_x):
        lo_x = hi_x = lo_y = hi_y = 0.0
    if hi_x - lo_x < 1e-300:
        lo_x, hi_x = lo_x - 0.5, hi_x + 0.5
    if hi_y - lo_y < 1e-300:
        lo_y, hi_y = lo_y - 0.5, hi_y + 0.5
    return lo_x, hi_x, lo_y, hi_y


def _ticks(lo: float, hi: float, want: int = 6) -> list[float]:
    span = hi - lo
    raw = span / max(1, want - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min((m for m in (1.0, 2.0, 5.0, 10.0)), key=lambda m: abs(m * mag - raw)) * mag
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9 * span:
        out.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return out


def line_chart(
    series: Sequence[Series], title: str = "", xlabel: str = "", ylabel: str = ""
) -> str:
    """An 800 x 500 SVG document plotting ``series`` on shared linear axes."""
    width, height = 800, 500
    ml, mr, mt, mb = 72, 24, 44, 56
    pw, ph = width - ml - mr, height - mt - mb
    lo_x, hi_x, lo_y, hi_y = _finite_bounds(series)
    pad_x, pad_y = 0.04 * (hi_x - lo_x), 0.06 * (hi_y - lo_y)
    lo_x, hi_x = lo_x - pad_x, hi_x + pad_x
    lo_y, hi_y = lo_y - pad_y, hi_y + pad_y

    def sx(x):
        return ml + (x - lo_x) / (hi_x - lo_x) * pw

    def sy(y):
        return mt + ph - (y - lo_y) / (hi_y - lo_y) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#444"/>',
    ]
    for t in _ticks(lo_x, hi_x):
        x = sx(t)
        parts.append(f'<line x1="{x:.2f}" y1="{mt + ph}" x2="{x:.2f}" y2="{mt + ph + 5}" stroke="#444"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{mt + ph + 18}" text-anchor="middle">{t:g}</text>'
        )
    for t in _ticks(lo_y, hi_y):
        y = sy(t)
        parts.append(f'<line x1="{ml - 5}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" stroke="#444"/>')
        parts.append(
            f'<text x="{ml - 8}" y="{y + 4:.2f}" text-anchor="end">{t:g}</text>'
        )
    if title:
        parts.append(
            f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" font-size="15">{_esc(title)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{ml + pw / 2:.0f}" y="{height - 12}" text-anchor="middle">{_esc(xlabel)}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{mt + ph / 2:.0f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {mt + ph / 2:.0f})">{_esc(ylabel)}</text>'
        )
    for si, s in enumerate(series):
        color = _PALETTE[si % len(_PALETTE)]
        if s.markers:
            for x, y in zip(s.xs, s.ys):
                if math.isfinite(x) and math.isfinite(y):
                    parts.append(
                        f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" fill="{color}"/>'
                    )
        else:
            seg: list[str] = []
            for x, y in zip(s.xs, s.ys):
                if math.isfinite(x) and math.isfinite(y):
                    seg.append(f"{sx(x):.2f},{sy(y):.2f}")
                elif seg:
                    parts.append(_polyline(seg, color))
                    seg = []
            if seg:
                parts.append(_polyline(seg, color))
        if s.label:
            ly = mt + 16 + 16 * si
            lx = ml + pw - 150
            parts.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            parts.append(f'<text x="{lx + 28}" y="{ly}">{_esc(s.label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _polyline(pts: list[str], color: str) -> str:
    if len(pts) == 1:
        x, y = pts[0].split(",")
        return f'<circle cx="{x}" cy="{y}" r="2" fill="{color}"/>'
    return (
        f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" stroke-width="1.6"/>'
    )


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

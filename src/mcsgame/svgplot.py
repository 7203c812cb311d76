"""Minimal SVG line charts.

Charts are conveniences for eyeballing runs; the CSVs remain the data
of record.  Output is plain SVG 1.1 text with no scripts, fonts, or
external references, and is deterministic for identical inputs.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

__all__ = ["line_chart"]

_WIDTH = 640
_HEIGHT = 400
_MARGIN_L = 62
_MARGIN_R = 16
_MARGIN_T = 28
_MARGIN_B = 46

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    # spans of a few subnormal ulps would give log10(0) or a zero step
    tiny = math.ulp(0.0)
    mag = max(10.0 ** math.floor(math.log10(max(raw, tiny))), tiny)
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        if t + step == t:  # a step below half an ulp of t never advances it
            break
        t += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.6g}"


class _Frame:
    """Maps data coordinates onto the plot rectangle."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        if x_hi <= x_lo:
            # one ulp where adding 1 is lost to rounding
            x_hi = max(x_lo + 1.0, math.nextafter(x_lo, math.inf))
        if y_hi <= y_lo:
            pad = 1.0 if y_lo == 0 else abs(y_lo) * 0.1
            y_lo, y_hi = y_lo - pad, y_hi + pad
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi

    def px(self, x: float) -> float:
        span = _WIDTH - _MARGIN_L - _MARGIN_R
        return _MARGIN_L + (x - self.x_lo) / (self.x_hi - self.x_lo) * span

    def py(self, y: float) -> float:
        span = _HEIGHT - _MARGIN_T - _MARGIN_B
        return _HEIGHT - _MARGIN_B - (y - self.y_lo) / (self.y_hi - self.y_lo) * span


def _open_svg(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{_esc(title)}</text>',
    ]


def _axes(parts: list[str], frame: _Frame, x_label: str, y_label: str) -> None:
    x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
    y0, y1 = _HEIGHT - _MARGIN_B, _MARGIN_T
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    for t in _ticks(frame.x_lo, frame.x_hi):
        px = frame.px(t)
        parts.append(f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 4}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.2f}" y="{y0 + 17}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    for t in _ticks(frame.y_lo, frame.y_hi):
        py = frame.py(t)
        parts.append(f'<line x1="{x0 - 4}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 7}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.0f}" y="{_HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{_esc(x_label)}</text>'
    )
    parts.append(
        f'<text x="14" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {(y0 + y1) / 2:.0f})">{_esc(y_label)}</text>'
    )


def _legend(parts: list[str], names: Sequence[str]) -> None:
    x = _MARGIN_L + 10
    y = _MARGIN_T + 6
    for i, name in enumerate(names):
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(
            f'<line x1="{x}" y1="{y + 14 * i}" x2="{x + 18}" y2="{y + 14 * i}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{x + 23}" y="{y + 14 * i + 4}" font-family="sans-serif" '
            f'font-size="11">{_esc(name)}</text>'
        )


def line_chart(
    path: str,
    title: str,
    x_label: str,
    y_label: str,
    series: Mapping[str, tuple[Sequence[float], Sequence[float]]],
) -> str:
    """Plot named (xs, ys) series as polylines and write the file.

    Raises ValueError, naming the series, when a series' lengths differ or
    one of its points is not finite.
    """
    if not series:
        raise ValueError("line_chart needs at least one series")
    for name, (xs, ys) in series.items():
        if len(xs) != len(ys):
            raise ValueError(f"series {name!r} has mismatched lengths")
        if not all(map(math.isfinite, (*xs, *ys))):
            raise ValueError(f"series {name!r} has a point that is not finite")
    all_x = [float(x) for xs, _ in series.values() for x in xs]
    all_y = [float(y) for _, ys in series.values() for y in ys]
    if not all_x:
        raise ValueError("series contain no points")
    frame = _Frame(min(all_x), max(all_x), min(all_y), max(all_y))
    parts = _open_svg(title)
    _axes(parts, frame, x_label, y_label)
    for i, (xs, ys) in enumerate(series.values()):
        pts = " ".join(f"{frame.px(float(x)):.2f},{frame.py(float(y)):.2f}" for x, y in zip(xs, ys))
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
    if len(series) > 1:
        _legend(parts, list(series))
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")
    return path

"""Hand-rolled SVG line plots for the experiment harness.

CSV is the primary artifact; these figures are batch diagnostics only, so the
plotter stays dependency-free and deliberately small: log-log error curves
with an optional secondary linear axis for the sample size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Series", "error_plot"]

_WIDTH, _HEIGHT = 640, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 70, 46, 56


@dataclass
class Series:
    """One curve: x values, y values, stroke color, dash pattern, legend label."""

    x: list
    y: list
    color: str
    label: str
    dash: str = ""  # SVG stroke-dasharray, empty for solid
    right_axis: bool = False


def _ticks_log10(lo: float, hi: float) -> list[tuple[float, str]]:
    """(value, label) ticks of a log axis on [lo, hi]: each power of ten in
    range, or the range's two ends where it holds none."""
    first = math.ceil(math.log10(lo) - 1e-12)
    last = math.floor(math.log10(hi) + 1e-12)
    ticks = [(10.0**e, f"1e{e}") for e in range(first, last + 1) if lo <= 10.0**e <= hi]
    return ticks or [(v, _fmt(v)) for v in sorted({lo, hi})]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def error_plot(path, series: list[Series], title: str, xlabel: str,
               ylabel: str, right_label: str = "") -> None:
    """Write a log-x plot; left axis log, optional right axis linear."""
    left = [s for s in series if not s.right_axis]
    right = [s for s in series if s.right_axis]
    xs = [v for s in series for v in s.x]
    ys = [v for s in left for v in s.y if v > 0]
    if not xs or not ys:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys) / 1.3, max(ys) * 1.3
    r_hi = max((v for s in right for v in s.y), default=1.0) * 1.1

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    x_span = math.log10(x_hi) - math.log10(x_lo)

    def px(x: float) -> float:
        # one lengthscale: its points sit mid-axis
        t = (math.log10(x) - math.log10(x_lo)) / x_span if x_span else 0.5
        return _MARGIN_L + t * plot_w

    def py(y: float) -> float:
        t = (math.log10(y) - math.log10(y_lo)) / (math.log10(y_hi) - math.log10(y_lo))
        return _MARGIN_T + (1.0 - t) * plot_h

    def pr(y: float) -> float:
        return _MARGIN_T + (1.0 - y / r_hi) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black"/>',
    ]
    for tx, label in _ticks_log10(x_lo, x_hi):
        x = px(tx)
        out.append(f'<line x1="{x:.1f}" y1="{_MARGIN_T + plot_h}" x2="{x:.1f}" '
                   f'y2="{_MARGIN_T + plot_h + 5}" stroke="black"/>')
        out.append(f'<text x="{x:.1f}" y="{_MARGIN_T + plot_h + 18}" '
                   f'text-anchor="middle">{label}</text>')
    for ty, label in _ticks_log10(y_lo, y_hi):
        y = py(ty)
        out.append(f'<line x1="{_MARGIN_L - 5}" y1="{y:.1f}" x2="{_MARGIN_L}" '
                   f'y2="{y:.1f}" stroke="black"/>')
        out.append(f'<text x="{_MARGIN_L - 8}" y="{y + 4:.1f}" '
                   f'text-anchor="end">{label}</text>')
    if right:
        for frac in (0.0, 0.5, 1.0):
            y = pr(frac * r_hi)
            out.append(f'<line x1="{_MARGIN_L + plot_w}" y1="{y:.1f}" '
                       f'x2="{_MARGIN_L + plot_w + 5}" y2="{y:.1f}" stroke="black"/>')
            out.append(f'<text x="{_MARGIN_L + plot_w + 8}" y="{y + 4:.1f}" '
                       f'text-anchor="start">{_fmt(frac * r_hi)}</text>')
        if right_label:
            out.append(f'<text x="{_WIDTH - 14}" y="{_MARGIN_T + plot_h / 2}" text-anchor="middle" '
                       f'transform="rotate(90 {_WIDTH - 14} {_MARGIN_T + plot_h / 2})">{right_label}</text>')
    out.append(f'<text x="{_MARGIN_L + plot_w / 2}" y="{_HEIGHT - 16}" '
               f'text-anchor="middle">{xlabel}</text>')
    out.append(f'<text x="20" y="{_MARGIN_T + plot_h / 2}" text-anchor="middle" '
               f'transform="rotate(-90 20 {_MARGIN_T + plot_h / 2})">{ylabel}</text>')

    for s in series:
        proj = pr if s.right_axis else py
        pts = " ".join(
            f"{px(x):.2f},{proj(y):.2f}"
            for x, y in zip(s.x, s.y)
            if s.right_axis or y > 0
        )
        dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
        out.append(f'<polyline fill="none" stroke="{s.color}" stroke-width="1.6"{dash} '
                   f'points="{pts}"/>')
    for i, s in enumerate(series):
        lx, ly = _MARGIN_L + 12, _MARGIN_T + 16 + 16 * i
        dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 26}" y2="{ly - 4}" '
                   f'stroke="{s.color}" stroke-width="1.6"{dash}/>')
        out.append(f'<text x="{lx + 32}" y="{ly}">{s.label}</text>')
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")

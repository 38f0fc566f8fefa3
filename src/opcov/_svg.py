"""The error figure of a figure run, as dependency-free SVG: the mean sample
and thresholded relative errors against lengthscale on log-log axes, and the
sample size N on a linear right axis.  CSV is the primary artifact; the
figure is a batch diagnostic only."""

from __future__ import annotations

import math

__all__ = ["error_figure"]

_WIDTH, _HEIGHT = 640, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 70, 46, 56
_TITLE = "{}: relative errors vs lengthscale"
_XLABEL, _YLABEL, _RIGHT_LABEL = "lengthscale", "relative error", "N"
# (stroke colour, dash attribute, legend label) of each curve, in drawing
# order: the sample error, the thresholded error, then N on the right axis
_CURVES = (
    ("#1f77b4", ' stroke-dasharray="6,4"', "relative error, sample"),
    ("#d62728", "", "relative error, thresholded"),
    ("#2ca02c", ' stroke-dasharray="2,3"', "sample size N"),
)


def _ticks_log10(lo: float, hi: float) -> list[tuple[float, str]]:
    """(value, label) ticks of a log axis on [lo, hi]: each power of ten in
    range, or the range's two ends where it holds none."""
    first = math.ceil(math.log10(lo) - 1e-12)
    last = math.floor(math.log10(hi) + 1e-12)
    ticks = [(10.0**e, f"1e{e}") for e in range(first, last + 1) if lo <= 10.0**e <= hi]
    return ticks or [(v, f"{v:.6g}") for v in sorted({lo, hi})]


def error_figure(name: str, lams: list, eps_sample: list, eps_thresh: list,
                 N: list) -> list[str]:
    """The SVG lines of ``name``'s figure over the lengthscales ``lams``: the
    errors on a log axis, which leaves out any that is not positive (one must
    be), and N on a linear right axis."""
    ys = [y for y in (*eps_sample, *eps_thresh) if y > 0]
    x_lo, x_hi = min(lams), max(lams)
    y_lo, y_hi = min(ys) / 1.3, max(ys) * 1.3
    r_hi = max(N) * 1.1

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
        f'<text x="{_WIDTH / 2}" y="24" text-anchor="middle" font-size="15">'
        f'{_TITLE.format(name)}</text>',
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
    for frac in (0.0, 0.5, 1.0):
        y = pr(frac * r_hi)
        out.append(f'<line x1="{_MARGIN_L + plot_w}" y1="{y:.1f}" '
                   f'x2="{_MARGIN_L + plot_w + 5}" y2="{y:.1f}" stroke="black"/>')
        out.append(f'<text x="{_MARGIN_L + plot_w + 8}" y="{y + 4:.1f}" '
                   f'text-anchor="start">{frac * r_hi:.6g}</text>')
    out.append(f'<text x="{_WIDTH - 14}" y="{_MARGIN_T + plot_h / 2}" text-anchor="middle" '
               f'transform="rotate(90 {_WIDTH - 14} {_MARGIN_T + plot_h / 2})">{_RIGHT_LABEL}</text>')
    out.append(f'<text x="{_MARGIN_L + plot_w / 2}" y="{_HEIGHT - 16}" '
               f'text-anchor="middle">{_XLABEL}</text>')
    out.append(f'<text x="20" y="{_MARGIN_T + plot_h / 2}" text-anchor="middle" '
               f'transform="rotate(-90 20 {_MARGIN_T + plot_h / 2})">{_YLABEL}</text>')

    points = [[f"{px(x):.2f},{py(y):.2f}" for x, y in zip(lams, eps) if y > 0]
              for eps in (eps_sample, eps_thresh)]
    points.append([f"{px(x):.2f},{pr(n):.2f}" for x, n in zip(lams, N)])
    for pts, (color, dash, _) in zip(points, _CURVES):
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.6"{dash} '
                   f'points="{" ".join(pts)}"/>')
    for i, (color, dash, label) in enumerate(_CURVES):
        lx, ly = _MARGIN_L + 12, _MARGIN_T + 16 + 16 * i
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 26}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="1.6"{dash}/>')
        out.append(f'<text x="{lx + 32}" y="{ly}">{label}</text>')
    out.append("</svg>")
    return out

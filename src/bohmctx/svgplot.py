"""Minimal dependency-free SVG line plots (polylines plus axes).  Plots are
a convenience; the CSV outputs are the contract."""

import math

PALETTE = ("#1f6fb4", "#d1495b", "#3d9970", "#b07d2b", "#6b5b95", "#444444")
WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 28, 44


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-12 * step:
        out.append(round(v, 12))
        v += step
    return out


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def line_plot(path, series, title: str = "", xlabel: str = "",
              ylabel: str = "") -> bool:
    """series: iterable of (x array, y array, label).  A point whose y is
    not finite (an indeterminate accuracy) is left out; with no point left
    nothing is written.  Returns whether the plot was written."""
    series = [([float(x) for x, y in zip(xs, ys) if math.isfinite(y)],
               [float(y) for y in ys if math.isfinite(y)], lab)
              for xs, ys, lab in series]
    xs_all = [v for xs, _, _ in series for v in xs]
    if not xs_all:
        return False
    ys_all = [v for _, ys, _ in series for v in ys]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + pw * (x - x_lo) / (x_hi - x_lo)

    def py(y):
        return MARGIN_T + ph * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
             f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
             f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
             f'<text x="{WIDTH / 2:.1f}" y="18" text-anchor="middle" '
             f'font-size="14">{title}</text>']
    # axes
    parts.append(f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
                 f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>')
    parts.append(f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" '
                 f'x2="{WIDTH - MARGIN_R}" y2="{HEIGHT - MARGIN_B}" stroke="black"/>')
    for tx in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(tx):.1f}" y1="{HEIGHT - MARGIN_B}" '
                     f'x2="{px(tx):.1f}" y2="{HEIGHT - MARGIN_B + 5}" stroke="black"/>')
        parts.append(f'<text x="{px(tx):.1f}" y="{HEIGHT - MARGIN_B + 18}" '
                     f'text-anchor="middle" font-size="11">{_fmt(tx)}</text>')
    for ty in _ticks(y_lo, y_hi):
        yy = py(ty)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{yy:.1f}" x2="{MARGIN_L}" '
                     f'y2="{yy:.1f}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{yy + 4:.1f}" '
                     f'text-anchor="end" font-size="11">{_fmt(ty)}</text>')
    parts.append(f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 8}" '
                 f'text-anchor="middle" font-size="12">{xlabel}</text>')
    parts.append(f'<text x="16" y="{HEIGHT / 2:.1f}" text-anchor="middle" '
                 f'font-size="12" transform="rotate(-90 16 {HEIGHT / 2:.1f})">'
                 f'{ylabel}</text>')
    for i, (xs, ys, label) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = MARGIN_T + 16 + 16 * i
        lx = WIDTH - MARGIN_R - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-size="11">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
    return True

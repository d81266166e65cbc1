"""Deterministic SVG renderers: schedule heatmaps and log-decay curves.

Hand-rolled on purpose: a fixed canvas, fixed number formatting and no
timestamps or generated ids make byte-identical output a property of the
input data alone, which the artifact contract requires.
"""

from __future__ import annotations

import math

WIDTH = 800
HEIGHT = 500
MARGIN = 60
# decay curves plot only the values above this floor
FLOOR = 1e-300


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _color(t: float) -> str:
    """Two-ramp blue -> white -> red scale on [0, 1]."""
    t = min(max(t, 0.0), 1.0)
    if t < 0.5:
        u = t / 0.5
        r, g, b = int(40 + 215 * u), int(80 + 175 * u), 255
    else:
        u = (t - 0.5) / 0.5
        r, g, b = 255, int(255 - 175 * u), int(255 - 215 * u)
    return f"#{r:02x}{g:02x}{b:02x}"


def _header(title: str) -> list:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
    ]


def schedule_heatmap(rows) -> str:
    """SVG heatmap of delta over (stage, direction angle).

    rows: iterable of (stage: int, beta_angle: float, delta: float).
    """
    data = [(int(s), float(a), float(v)) for s, a, v in rows]
    if not data:
        raise ValueError("no rows to plot")
    stages = sorted({s for s, _, _ in data})
    angles = sorted({a for _, a, _ in data})
    vals = [v for _, _, v in data]
    lo, hi = min(vals), max(vals)
    span = (hi - lo) or 1.0
    cell_w = (WIDTH - 2 * MARGIN) / len(stages)
    cell_h = (HEIGHT - 2 * MARGIN) / len(angles)
    out = _header("delta schedule")
    lookup = {(s, a): v for s, a, v in data}
    for i, s in enumerate(stages):
        for j, a in enumerate(angles):
            v = lookup.get((s, a))
            if v is None:
                continue
            x = MARGIN + i * cell_w
            y = MARGIN + j * cell_h
            out.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(cell_w)}" '
                f'height="{_fmt(cell_h)}" fill="{_color((v - lo) / span)}">'
                f'<title>stage {s}, angle {_fmt(a)}: {_fmt(v)}</title></rect>')
    for i, s in enumerate(stages):
        out.append(f'<text x="{_fmt(MARGIN + (i + 0.5) * cell_w)}" '
                   f'y="{HEIGHT - MARGIN + 18}" text-anchor="middle" '
                   f'font-family="monospace" font-size="10">{s}</text>')
    out.append(f'<text x="{WIDTH // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
               f'font-family="monospace" font-size="11">stage</text>')
    out.append(f'<text x="16" y="{HEIGHT // 2}" font-family="monospace" '
               f'font-size="11" transform="rotate(-90 16 {HEIGHT // 2})">'
               f'direction angle</text>')
    out.append(f'<text x="{WIDTH - MARGIN}" y="40" text-anchor="end" '
               f'font-family="monospace" font-size="10">'
               f'range [{_fmt(lo)}, {_fmt(hi)}]</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def decay_curves(series, title: str = "decay") -> str:
    """SVG log-scale decay curves.

    series: list of (label, [(x, y), ...]) with y > 0 plotted on log10 scale.
    """
    series = [(str(label), [(float(x), float(y)) for x, y in pts])
              for label, pts in series]
    pts_all = [(x, y) for _, pts in series for x, y in pts if y > FLOOR]
    if not pts_all:
        raise ValueError("no positive points to plot")
    xs = [x for x, _ in pts_all]
    logy = [math.log10(y) for _, y in pts_all]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(logy), max(logy)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return MARGIN + (x - x_lo) / x_span * (WIDTH - 2 * MARGIN)

    def sy(ly):
        return HEIGHT - MARGIN - (ly - y_lo) / y_span * (HEIGHT - 2 * MARGIN)

    palette = ("#1f4e9c", "#c03022", "#1e7d32", "#7b1fa2", "#a06000")
    out = _header(title)
    out.append(f'<rect x="{MARGIN}" y="{MARGIN}" '
               f'width="{WIDTH - 2 * MARGIN}" height="{HEIGHT - 2 * MARGIN}" '
               f'fill="none" stroke="#777" stroke-width="1"/>')
    for k in range(5):
        ly = y_lo + y_span * k / 4
        out.append(f'<text x="{MARGIN - 6}" y="{_fmt(sy(ly) + 4)}" '
                   f'text-anchor="end" font-family="monospace" font-size="10">'
                   f'1e{_fmt(ly)}</text>')
    for i, (label, pts) in enumerate(series):
        color = palette[i % len(palette)]
        path = " ".join(
            f"{_fmt(sx(x))},{_fmt(sy(math.log10(y)))}"
            for x, y in pts if y > FLOOR)
        if path:
            out.append(f'<polyline points="{path}" fill="none" '
                       f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{WIDTH - MARGIN - 4}" y="{MARGIN + 16 + 14 * i}" '
                   f'text-anchor="end" font-family="monospace" font-size="11" '
                   f'fill="{color}">{label}</text>')
    out.append(f'<text x="{WIDTH // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
               f'font-family="monospace" font-size="11">stage</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"

"""Minimal standalone SVG line charts for sweep curves.

Just enough for the experiment runner's plot outputs: linear or log axes,
a few series, tick labels, a legend.  Deterministic output for fixed input.
"""

from __future__ import annotations

import math

__all__ = ["render_line_chart", "write_line_chart"]

_PALETTE = ("#1f6fb2", "#c0392b", "#1e8449", "#8e44ad", "#b7950b", "#34495e")
_MARGIN = {"left": 64.0, "right": 16.0, "top": 28.0, "bottom": 46.0}
_WIDTH, _HEIGHT = 640, 420


def _transform(value: float, lo: float, hi: float, log: bool) -> float:
    if log:
        value, lo, hi = math.log10(value), math.log10(lo), math.log10(hi)
    if hi <= lo:
        return 0.5
    return (value - lo) / (hi - lo)


def _ticks(lo: float, hi: float, log: bool):
    if log:
        lo_e = math.floor(math.log10(lo) - 1e-9)
        hi_e = math.ceil(math.log10(hi) + 1e-9)
        step = max(1, (hi_e - lo_e) // 6)
        return [10.0**e for e in range(lo_e, hi_e + 1, step)]
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-9 * span:
        out.append(v)
        v += step
    return out or [lo]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def render_line_chart(series, *, title: str = "", x_label: str = "",
                      y_label: str = "", log_x: bool = False, log_y: bool = False) -> str:
    """series: iterable of {"label": str, "x": [...], "y": [...]}."""
    series = [dict(s) for s in series]
    xs = [float(v) for s in series for v in s["x"]]
    ys = [float(v) for s in series for v in s["y"]]
    if not xs or not ys:
        raise ValueError("chart needs at least one point")
    if log_x and min(xs) <= 0:
        raise ValueError("log x axis needs positive values")
    if log_y and min(ys) <= 0:
        raise ValueError("log y axis needs positive values")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_lo == y_hi:
        pad = 0.5 if not log_y else 0.0
        y_lo, y_hi = (y_lo / 2, y_hi * 2) if log_y else (y_lo - pad, y_hi + pad)

    inner_w = _WIDTH - _MARGIN["left"] - _MARGIN["right"]
    inner_h = _HEIGHT - _MARGIN["top"] - _MARGIN["bottom"]

    def px(v: float) -> float:
        return _MARGIN["left"] + inner_w * _transform(v, x_lo, x_hi, log_x)

    def py(v: float) -> float:
        return _MARGIN["top"] + inner_h * (1.0 - _transform(v, y_lo, y_hi, log_y))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    axis = (
        f'M {_MARGIN["left"]:.1f} {_MARGIN["top"]:.1f} '
        f'L {_MARGIN["left"]:.1f} {_MARGIN["top"] + inner_h:.1f} '
        f'L {_MARGIN["left"] + inner_w:.1f} {_MARGIN["top"] + inner_h:.1f}'
    )
    parts.append(f'<path d="{axis}" fill="none" stroke="#333" stroke-width="1"/>')

    for tick in _ticks(x_lo, x_hi, log_x):
        if tick < x_lo - 1e-12 or tick > x_hi * (1 + 1e-12) + 1e-12:
            continue
        x = px(tick)
        y0 = _MARGIN["top"] + inner_h
        parts.append(
            f'<line x1="{x:.1f}" y1="{y0:.1f}" x2="{x:.1f}" y2="{y0 + 5:.1f}" '
            f'stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{y0 + 18:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
        )
    for tick in _ticks(y_lo, y_hi, log_y):
        if tick < y_lo - 1e-12 or tick > y_hi * (1 + 1e-12) + 1e-12:
            continue
        y = py(tick)
        x0 = _MARGIN["left"]
        parts.append(
            f'<line x1="{x0 - 5:.1f}" y1="{y:.1f}" x2="{x0:.1f}" y2="{y:.1f}" '
            f'stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x0 - 8:.1f}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
        )

    parts.append(
        f'<text x="{_MARGIN["left"] + inner_w / 2:.1f}" y="{_HEIGHT - 8:.1f}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{_MARGIN["top"] + inner_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {_MARGIN["top"] + inner_h / 2:.1f})">{y_label}</text>'
    )

    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(
            f"{px(float(x)):.2f},{py(float(y)):.2f}" for x, y in zip(s["x"], s["y"])
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        for x, y in zip(s["x"], s["y"]):
            parts.append(
                f'<circle cx="{px(float(x)):.2f}" cy="{py(float(y)):.2f}" r="2.4" '
                f'fill="{color}"/>'
            )
        label = s.get("label", f"series {i}")
        lx = _MARGIN["left"] + inner_w - 8
        ly = _MARGIN["top"] + 14 + 16 * i
        parts.append(
            f'<rect x="{lx - 36:.1f}" y="{ly - 9:.1f}" width="28" height="4" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{lx - 42:.1f}" y="{ly - 3:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_line_chart(path, series, **kwargs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_line_chart(series, **kwargs))

"""Minimal SVG rendering of Bloch trajectories.

Two orthographic projections are drawn side by side: the (u, w) plane and
the (v, w) plane.  No plotting library is used; output is deterministic
text so runs can be diffed byte for byte.
"""

from __future__ import annotations

from .dynamics import ModeState
from .geometry import BlochVector, to_bloch

_W = 840
_H = 460
_R = 170
_CENTERS = ((215, 225), (625, 225))
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
# Absolute slack on a sample time reaching a leg boundary: a sample meant
# to sit on the boundary can come out below the boundary's running sum of
# durations by rounding, and must still close the leg.
BOUNDARY_SLACK = 1e-15


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _project(point, panel: int) -> tuple[float, float]:
    cx, cy = _CENTERS[panel]
    h = point.u if panel == 0 else point.v
    return (cx + _R * h, cy - _R * point.w)


def _panel_frame(panel: int, label: str) -> list[str]:
    cx, cy = _CENTERS[panel]
    parts = [
        f'<circle cx="{cx}" cy="{cy}" r="{_R}" fill="none" stroke="#888" stroke-width="1"/>',
        f'<line x1="{cx - _R}" y1="{cy}" x2="{cx + _R}" y2="{cy}" '
        'stroke="#bbb" stroke-width="1" stroke-dasharray="4 4"/>',
        f'<circle cx="{cx}" cy="{cy - _R}" r="3" fill="#333"/>',
        f'<circle cx="{cx}" cy="{cy + _R}" r="3" fill="#333"/>',
        f'<text x="{cx}" y="{cy - _R - 10}" text-anchor="middle" '
        f'font-size="12" fill="#333">mode 1</text>',
        f'<text x="{cx}" y="{cy + _R + 18}" text-anchor="middle" '
        f'font-size="12" fill="#333">mode 2</text>',
        f'<text x="{cx}" y="{cy + _R + 36}" text-anchor="middle" '
        f'font-size="13" fill="#000">{label}</text>',
    ]
    return parts


def trajectory_svg(
    samples: list[tuple[float, ModeState]], boundaries: list[float]
) -> str:
    """Render (t, state) samples, split into legs at the boundary times.

    Each leg gets its own color, so protocol segments or cascade stages
    stay visually distinct.
    """
    legs = _split_legs([(t, to_bloch(s)) for t, s in samples], boundaries)
    body: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    body.extend(_panel_frame(0, "u-w projection"))
    body.extend(_panel_frame(1, "v-w projection"))
    for panel in (0, 1):
        for i, leg in enumerate(legs):
            color = _COLORS[i % len(_COLORS)]
            pts = " ".join(
                f"{_fmt(x)},{_fmt(y)}" for x, y in (_project(b, panel) for b in leg)
            )
            body.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>'
            )
        if legs:
            x0, y0 = _project(legs[0][0], panel)
            body.append(
                f'<circle cx="{_fmt(x0)}" cy="{_fmt(y0)}" r="4" fill="none" '
                'stroke="#000" stroke-width="1.5"/>'
            )
            x1, y1 = _project(legs[-1][-1], panel)
            body.append(f'<circle cx="{_fmt(x1)}" cy="{_fmt(y1)}" r="4" fill="#000"/>')
    body.append("</svg>")
    return "\n".join(body) + "\n"


def _split_legs(
    samples: list[tuple[float, BlochVector]], boundaries: list[float]
) -> list[list[BlochVector]]:
    """Split (t, point) samples into legs at the given boundary times.

    The sample at a boundary ends one leg and starts the next.
    """
    legs: list[list[BlochVector]] = [[]]
    bounds = list(boundaries)
    for t, b in samples:
        legs[-1].append(b)
        if bounds and t >= bounds[0] - BOUNDARY_SLACK:
            legs.append([b])
            bounds.pop(0)
    return [leg for leg in legs if leg]

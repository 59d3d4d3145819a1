"""Minimal SVG rendering of Bloch trajectories.

Two orthographic projections are drawn side by side: the (u, w) plane and
the (v, w) plane.  No plotting library is used; output is deterministic
text so runs can be diffed byte for byte.
"""

from __future__ import annotations

import numpy as np

_W = 840
_H = 460
_R = 170
_CENTERS = ((215, 225), (625, 225))
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
# Slack on a sample time reaching a leg boundary, relative to the run's
# span t[-1]: a sample meant to sit on a boundary can come out below it by
# rounding, and still closes the leg at any time unit.
BOUNDARY_SLACK = 1e-12


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


def trajectory_svg(t, u, v, w, boundaries) -> str:
    """Render a sampled Bloch trajectory, split into legs at the boundary times.

    t, u, v and w are equal-length columns, t nondecreasing, as propagate
    and to_bloch give them.  Each leg gets its own color, so protocol
    segments or cascade stages stay visually distinct.  Both projections
    are computed for all samples at once.
    """
    legs = _split_legs(t, boundaries)
    body: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    body.extend(_panel_frame(0, "u-w projection"))
    body.extend(_panel_frame(1, "v-w projection"))
    for (cx, cy), h in zip(_CENTERS, (u, v)):
        xy = np.column_stack((cx + _R * h, cy - _R * w))
        for i, (first, last) in enumerate(legs):
            color = _COLORS[i % len(_COLORS)]
            pts = " ".join(["%.3f,%.3f"] * (last + 1 - first))
            pts %= tuple(xy[first : last + 1].ravel().tolist())
            body.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>'
            )
        if legs:
            body.append(
                '<circle cx="%.3f" cy="%.3f" r="4" fill="none" '
                'stroke="#000" stroke-width="1.5"/>' % tuple(xy[0].tolist())
            )
            body.append('<circle cx="%.3f" cy="%.3f" r="4" fill="#000"/>' % tuple(xy[-1].tolist()))
    body.append("</svg>")
    return "\n".join(body) + "\n"


def _split_legs(t, boundaries) -> list[tuple[int, int]]:
    """Index ranges (first, last) of the legs of nondecreasing sample times t.

    The first sample at or past the next boundary (less BOUNDARY_SLACK
    t[-1]) ends one leg and starts the next; a sample closes at most one
    boundary, so boundaries closer than a sample step close in turn.
    """
    if not len(t):
        return []
    reach = np.searchsorted(t, np.asarray(boundaries, dtype=float) - BOUNDARY_SLACK * t[-1])
    order = np.arange(len(reach))
    closes = np.maximum.accumulate(reach - order) + order
    cuts = [0, *closes[closes < len(t)].tolist(), len(t) - 1]
    return list(zip(cuts, cuts[1:]))

"""Self-contained SVG rendering of the training reward curve.

The SVG is assembled from strings with fixed float formatting and no
timestamps or generated ids, so identical metrics produce byte-identical
files.
"""

from __future__ import annotations

import math
import re

from .trace import read_text
from .train import METRICS_COLUMNS


class MetricsFormatError(Exception):
    """Malformed metrics CSV; message carries the row number."""


def _check_digest(digest: str, row: int) -> None:
    """A config digest is empty or the 16 lowercase hex digits of a run
    config digest; anything else could break the SVG comment it goes in."""
    if not re.fullmatch(r"([0-9a-f]{16})?", digest):
        raise MetricsFormatError(
            f"row {row}: config_digest must be empty or 16 lowercase hex digits, got {digest!r}")


def read_metrics_csv(path_or_file) -> tuple[list[dict], str]:
    """Returns (rows, config_digest). Raises MetricsFormatError with the
    offending row number for malformed content, which includes a last data
    row without a line end (``train`` writes whole lines, so such a row was
    cut off) and a ``timestep`` or ``updates`` that is no whole number >= 0
    (``train`` writes counts there), and a config digest that is neither
    empty nor the 16 lowercase hex digits of a run config digest."""
    text = read_text(path_or_file)
    digest = ""
    lines = text.splitlines()
    header = None
    rows: list[dict] = []
    data_row = 0
    for lineno, line in enumerate(lines, start=1):
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            if key.strip() == "config_digest":
                digest = value.strip()
                _check_digest(digest, lineno)
            continue
        if not line.strip():
            continue
        cells = line.split(",")
        if header is None:
            header = cells
            missing = [c for c in METRICS_COLUMNS if c not in header]
            if missing:
                raise MetricsFormatError(f"row {lineno}: header missing columns {missing}")
            continue
        data_row += 1
        if len(cells) != len(header):
            raise MetricsFormatError(
                f"row {lineno}: expected {len(header)} cells, got {len(cells)}"
            )
        try:
            row = {k: float(v) for k, v in zip(header, cells)}
        except ValueError as e:
            raise MetricsFormatError(f"row {lineno}: {e}") from e
        for key in ("timestep", "updates"):
            if not (row[key] >= 0.0 and row[key].is_integer()):
                raise MetricsFormatError(
                    f"row {lineno}: {key} must be a whole number >= 0, got {row[key]!r}")
        rows.append(row)
        if lineno == len(lines) and not text.endswith(("\n", "\r")):
            raise MetricsFormatError(f"row {lineno}: no line end, the row was cut off")
    if header is None:
        raise MetricsFormatError("row 0: metrics file is empty")
    return rows, digest


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_reward_curve_svg(rows: list[dict], digest: str = "") -> str:
    """Line chart of ep_reward_mean against timestep. Raises
    MetricsFormatError for no rows, a range it cannot scale, or a digest
    that :func:`read_metrics_csv` would reject."""
    if not rows:
        raise MetricsFormatError("row 0: no data rows to plot")
    _check_digest(digest, 0)
    width, height = 800.0, 480.0
    ml, mr, mt, mb = 70.0, 20.0, 30.0, 50.0
    pw, ph = width - ml - mr, height - mt - mb

    points = [(r["timestep"], r["ep_reward_mean"]) for r in rows]
    finite = [(x, y) for x, y in points if math.isfinite(y)]
    xs = [p[0] for p in points]
    ys = [p[1] for p in finite] or [0.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    for name, lo, hi in (("timestep", x_lo, x_hi), ("ep_reward_mean", y_lo, y_hi)):
        # the width overflows for values far apart, and stays 0 when adding
        # 1.0 leaves a lone huge value where it was
        if not 0.0 < hi - lo < math.inf:
            raise MetricsFormatError(f"row 0: cannot scale {name} from {lo!r} to {hi!r}")

    def px(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y: float) -> float:
        return mt + (1.0 - (y - y_lo) / (y_hi - y_lo)) * ph

    poly = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in finite)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<!-- config_digest={digest} -->',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<rect x="{_fmt(ml)}" y="{_fmt(mt)}" width="{_fmt(pw)}" height="{_fmt(ph)}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4.0
        x = px(fx)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(mt + ph)}" x2="{_fmt(x)}" y2="{_fmt(mt + ph + 5)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(mt + ph + 20)}" font-size="12" text-anchor="middle">{fx:.0f}</text>'
        )
        fy = y_lo + (y_hi - y_lo) * i / 4.0
        y = py(fy)
        parts.append(
            f'<line x1="{_fmt(ml - 5)}" y1="{_fmt(y)}" x2="{_fmt(ml)}" y2="{_fmt(y)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(ml - 8)}" y="{_fmt(y + 4)}" font-size="12" text-anchor="end">{fy:.3g}</text>'
        )
    if poly:
        parts.append(
            f'<polyline points="{poly}" fill="none" stroke="#d95f02" stroke-width="1.5"/>'
        )
    parts.append(
        f'<text x="{_fmt(ml + pw / 2)}" y="{_fmt(height - 12)}" font-size="13" '
        'text-anchor="middle">timestep</text>'
    )
    parts.append(
        f'<text x="16" y="{_fmt(mt + ph / 2)}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {_fmt(mt + ph / 2)})">mean episode reward</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

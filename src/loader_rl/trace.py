"""Episode traces and their CSV form.

A trace holds one row per environment step. World coordinates are in
the episode frame (the vehicle starts at the origin), so the distance
from the start is just hypot(x, y). Metadata needed to recompute
rewards from scratch (initial distance and lift, config digest) rides
in ``#``-prefixed header lines so a trace file is self-contained.

An environment may add columns after the base ones: it names them in
``extra_columns`` and gives their values per step from ``trace_extra()``.
The deployment emulator adds the true and delayed positions, the
speed-controller command and the brake pedal fraction.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from operator import itemgetter

from .env import Outcome, RewardBreakdown

BASE_COLUMNS = [
    "step", "t", "x", "y", "rel_x", "rel_y", "speed", "lift",
    "brake_action", "lift_action",
    "reward_total", "reward_progress", "reward_lift", "reward_time",
    "outcome",
]

_INT_COLUMNS = {"step", "brake_action", "lift_action"}


@dataclass
class EpisodeTrace:
    columns: list[str] = field(default_factory=lambda: list(BASE_COLUMNS))
    rows: list[dict] = field(default_factory=list)
    initial_distance: float = 0.0
    initial_lift: float = 0.0
    config_digest: str = ""

    def add_step(
        self,
        step: int,
        t: float,
        x: float,
        y: float,
        rel_x: float,
        rel_y: float,
        speed: float,
        lift: float,
        brake_action: int,
        lift_action: int,
        breakdown: RewardBreakdown,
        **extra: float,
    ) -> None:
        row = {
            "step": step, "t": t, "x": x, "y": y,
            "rel_x": rel_x, "rel_y": rel_y, "speed": speed, "lift": lift,
            "brake_action": brake_action, "lift_action": lift_action,
            "reward_total": breakdown.total,
            "reward_progress": breakdown.progress_term,
            "reward_lift": breakdown.lift_term,
            "reward_time": breakdown.time_term,
            "outcome": breakdown.outcome.value,
        }
        row.update(extra)
        missing = set(self.columns) - set(row)
        if missing:
            raise ValueError(f"trace row missing columns: {sorted(missing)}")
        self.rows.append(row)

    def add_env_step(self, env, action) -> None:
        """Append the row of ``env``'s latest plant step under the held
        ``action``, with the env's extra columns."""
        v = env.state.vehicle
        obs = env.obs
        self.add_step(
            step=env.state.step_count, t=v.elapsed, x=v.x, y=v.y,
            rel_x=obs.rel_x, rel_y=obs.rel_y, speed=v.speed, lift=v.lift,
            brake_action=action.brake, lift_action=action.lift_up,
            breakdown=env.breakdown, **env.trace_extra(),
        )

    @property
    def outcome(self) -> Outcome:
        if not self.rows:
            return Outcome.RUNNING
        return Outcome(self.rows[-1]["outcome"])

    def total_reward(self) -> float:
        return sum(r["reward_total"] for r in self.rows)

    def column(self, name: str) -> list:
        return [r[name] for r in self.rows]


def _cell_type(name: str, normalized: bool = False) -> type:
    if name == "outcome":
        return str
    if name in _INT_COLUMNS and not normalized:
        return int
    return float


def write_trace_csv(trace: EpisodeTrace, path_or_file, normalized: bool = False) -> None:
    """Write the trace; ``normalized`` min-max scales each numeric column
    to [0, 1] (constant columns become 0) and writes every one as float."""
    rows = trace.rows
    if normalized:
        rows = _normalize_rows(trace)
    out = io.StringIO()
    out.write(f"# config_digest={trace.config_digest}\n")
    out.write(f"# initial_distance={trace.initial_distance!r}\n")
    out.write(f"# initial_lift={trace.initial_lift!r}\n")
    if normalized:
        out.write("# normalized=1\n")
    out.write(",".join(trace.columns) + "\n")
    # one converter per column, applied column by column; str of a float
    # is its shortest round-trip repr, so cells read back bit-exactly
    columns = [map(str, map(_cell_type(c, normalized), map(itemgetter(c), rows)))
               for c in trace.columns]
    for line in map(",".join, zip(*columns)):
        out.write(line + "\n")
    if isinstance(path_or_file, (str, bytes)):
        with open(path_or_file, "w") as f:
            f.write(out.getvalue())
    else:
        path_or_file.write(out.getvalue())


def _normalize_rows(trace: EpisodeTrace) -> list[dict]:
    numeric = [c for c in trace.columns if c != "outcome"]
    lo = {c: min(r[c] for r in trace.rows) for c in numeric}
    hi = {c: max(r[c] for r in trace.rows) for c in numeric}
    normed = []
    for r in trace.rows:
        row = dict(r)
        for c in numeric:
            span = hi[c] - lo[c]
            row[c] = (r[c] - lo[c]) / span if span > 0 else 0.0
        normed.append(row)
    return normed


def read_trace_csv(path_or_file) -> EpisodeTrace:
    """Inverse of :func:`write_trace_csv`; normalized traces read back
    with every numeric column as float."""
    if isinstance(path_or_file, (str, bytes)):
        with open(path_or_file) as f:
            text = f.read()
    else:
        text = path_or_file.read()
    lines = text.splitlines()
    meta = {}
    header = None
    data_start = 0
    for i, line in enumerate(lines):
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key.strip()] = value.strip()
        else:
            header = line.split(",")
            data_start = i + 1
            break
    if header is None:
        raise ValueError("trace file has no header row")
    trace = EpisodeTrace(
        columns=header,
        initial_distance=float(meta.get("initial_distance", "0.0")),
        initial_lift=float(meta.get("initial_lift", "0.0")),
        config_digest=meta.get("config_digest", ""),
    )
    types = [_cell_type(name, "normalized" in meta) for name in header]
    for lineno, line in enumerate(lines[data_start:], start=data_start + 1):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"line {lineno}: expected {len(header)} cells, got {len(cells)}")
        trace.rows.append({name: typ(cell) for name, typ, cell in zip(header, types, cells)})
    return trace

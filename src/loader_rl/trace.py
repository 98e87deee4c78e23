"""Episode traces and their CSV form.

A trace holds one row per environment step, as a tuple of values
aligned with its columns. World coordinates are in the episode frame
(the vehicle starts at the origin), so the distance from the start is
just hypot(x, y). Metadata needed to recompute rewards from scratch
(initial distance and lift, config digest) rides in ``#``-prefixed
header lines so a trace file is self-contained.

An environment may add columns after the base ones: it names them in
``extra_columns`` and gives their values per step, as a tuple in that
order, from ``trace_extra()``. The deployment emulator adds the true
and delayed positions, the speed-controller command and the brake
pedal fraction.
"""

from __future__ import annotations

import io
import math
import os
from typing import Optional

from .checkpoint import write_atomic
from .env import Outcome

BASE_COLUMNS = [
    "step", "t", "x", "y", "rel_x", "rel_y", "speed", "lift",
    "brake_action", "lift_action",
    "reward_total", "reward_progress", "reward_lift", "reward_time",
    "outcome",
]

_INT_COLUMNS = {"step", "brake_action", "lift_action"}


class EpisodeTrace:
    """One row per plant step, kept as a tuple of values aligned with
    ``columns``; ``rows`` gives them as dicts, built when read."""

    def __init__(self, columns: Optional[list[str]] = None, initial_distance: float = 0.0,
                 initial_lift: float = 0.0, config_digest: str = ""):
        self.columns = list(BASE_COLUMNS) if columns is None else columns
        self.initial_distance = initial_distance
        self.initial_lift = initial_lift
        self.config_digest = config_digest
        self.values: list[tuple] = []

    def add_step(self, values: tuple) -> None:
        """Append one row: a tuple with one value per column."""
        if len(values) != len(self.columns):
            raise ValueError(f"trace row has {len(values)} values for {len(self.columns)} columns")
        self.values.append(values)

    def add_env_step(self, env, action) -> None:
        """Append the row of ``env``'s latest plant step under the held
        ``action``, with the env's extra columns."""
        x, y = env.x, env.y
        # reward terms: progress, lift, time, terminal, total, done, outcome
        terms = env.reward_terms
        self.add_step((
            env.step_count, env.elapsed, x, y, abs(env.target_x - x), abs(env.target_y - y),
            env.speed, env.lift, action.brake, action.lift_up,
            terms[4], terms[0], terms[1], terms[2], terms[6].value,
        ) + env.trace_extra())

    @property
    def rows(self) -> list[dict]:
        columns = self.columns
        return [dict(zip(columns, values)) for values in self.values]

    @property
    def outcome(self) -> Outcome:
        if not self.values:
            return Outcome.RUNNING
        return Outcome(self.values[-1][self.columns.index("outcome")])

    def total_reward(self) -> float:
        return sum(self.column("reward_total"))

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [values[i] for values in self.values]


def _cell_type(name: str, normalized: bool = False) -> type:
    if name == "outcome":
        return str
    if name in _INT_COLUMNS and not normalized:
        return int
    return float


def write_trace_csv(trace: EpisodeTrace, path_or_file, normalized: bool = False) -> None:
    """Write the trace, to a path atomically; ``normalized`` min-max scales
    each numeric column to [0, 1] (constant columns become 0) and writes
    every one as float."""
    columns = list(zip(*trace.values))
    if normalized:
        columns = [col if name == "outcome" else _min_max_scaled(col)
                   for name, col in zip(trace.columns, columns)]
    out = io.StringIO()
    out.write(f"# config_digest={trace.config_digest}\n")
    out.write(f"# initial_distance={trace.initial_distance!r}\n")
    out.write(f"# initial_lift={trace.initial_lift!r}\n")
    if normalized:
        out.write("# normalized=1\n")
    out.write(",".join(trace.columns) + "\n")
    # one converter per column, applied column by column; str of a float
    # is its shortest round-trip repr, so cells read back bit-exactly
    cells = [map(str, map(_cell_type(name, normalized), col))
             for name, col in zip(trace.columns, columns)]
    for line in map(",".join, zip(*cells)):
        out.write(line + "\n")
    if isinstance(path_or_file, (str, bytes, os.PathLike)):
        write_atomic(path_or_file, out.getvalue())
    else:
        path_or_file.write(out.getvalue())


def _min_max_scaled(column: tuple) -> list:
    lo, hi = min(column), max(column)
    span = hi - lo
    return [(v - lo) / span if span > 0 else 0.0 for v in column]


def read_text(path_or_file) -> str:
    """The text of a path (str, bytes or ``os.PathLike``) or an open file."""
    if isinstance(path_or_file, (str, bytes, os.PathLike)):
        with open(path_or_file) as f:
            return f.read()
    return path_or_file.read()


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def read_trace_csv(path_or_file) -> EpisodeTrace:
    """Inverse of :func:`write_trace_csv`; normalized traces read back
    with every numeric column as float. A cell or an initial distance or
    lift that is no finite number, or a last row without a line end (the
    writer ends every row, so such a row was cut off) raises ValueError
    naming its line."""
    text = read_text(path_or_file)
    lines = text.splitlines()
    meta = {}
    header = None
    data_start = 0
    for i, line in enumerate(lines):
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            key, value = key.strip(), value.strip()
            try:
                meta[key] = _finite(value) if key in ("initial_distance", "initial_lift") else value
            except ValueError as e:
                raise ValueError(f"line {i + 1}: {e}") from e
        else:
            header = line.split(",")
            data_start = i + 1
            break
    if header is None:
        raise ValueError("trace file has no header row")
    trace = EpisodeTrace(
        columns=header,
        initial_distance=meta.get("initial_distance", 0.0),
        initial_lift=meta.get("initial_lift", 0.0),
        config_digest=meta.get("config_digest", ""),
    )
    types = [_cell_type(name, "normalized" in meta) for name in header]
    types = [_finite if typ is float else typ for typ in types]
    for lineno, line in enumerate(lines[data_start:], start=data_start + 1):
        if not line.strip():
            continue
        if lineno == len(lines) and not text.endswith(("\n", "\r")):
            raise ValueError(f"line {lineno}: no line end, the row was cut off")
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"line {lineno}: expected {len(header)} cells, got {len(cells)}")
        try:
            trace.values.append(tuple(typ(cell) for typ, cell in zip(types, cells)))
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from e
    return trace

"""Per-layer spans and counts, installed from outside the package.

Each wrapper replaces a callable at the name its caller looks up at call
time: a module global of the calling module or a class attribute.
``from x import f`` copies the binding into the importing module, so
patching only the defining module would miss those callers; that is why
``evaluate_policy`` is wrapped in both ``loader_rl.train`` and
``loader_rl.cli``. Modules are reached through ``importlib`` because the
package attribute ``loader_rl.train`` is the ``train`` function, not the
module.

A span's self time is its duration minus the time of the wrapped spans
it encloses, so the self times of all layers plus the unattributed rest
add up to the traced wall time.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict

# (module, attribute path in that module, layer metric name)
PATCHES = [
    ("loader_rl.env", "step_vehicle", "sim.step_vehicle"),
    ("loader_rl.env", "ApproachEnv.step", "env.step"),
    ("loader_rl.env", "ApproachEnv.reset", "env.reset"),
    ("loader_rl.env", "compute_reward", "env.compute_reward"),
    ("loader_rl.policy", "ObsNormalizer.update", "policy.normalize"),
    ("loader_rl.policy", "ObsNormalizer.normalize", "policy.normalize"),
    ("loader_rl.policy", "ThresholdSampler.sample", "policy.sample"),
    ("loader_rl.train", "sample_action", "policy.sample"),
    ("loader_rl.evaluate", "policy_forward", "policy.forward"),
    ("loader_rl.nets", "MLP.forward", "nets.forward"),
    ("loader_rl.nets", "MLP.backward", "nets.backward"),
    ("loader_rl.nets", "Adam.step", "nets.adam"),
    ("loader_rl.ppo", "clip_by_global_norm", "nets.clip"),
    ("loader_rl.ppo", "PPOLearner.update", "ppo.update"),
    ("loader_rl.ppo", "compute_gae", "ppo.gae"),
    ("loader_rl.train", "train", "train.train"),
    ("loader_rl.train", "evaluate_policy", "evaluate.evaluate_policy"),
    ("loader_rl.cli", "evaluate_policy", "evaluate.evaluate_policy"),
    ("loader_rl.evaluate", "run_episode", "evaluate.run_episode"),
    ("loader_rl.cli", "scripted_policy", "oracle.scripted_policy"),
    ("loader_rl.oracle", "scripted_policy", "oracle.scripted_policy"),
    ("loader_rl.cli", "run_emulated_episode", "emulator.run_emulated_episode"),
    ("loader_rl.emulator", "DelayBuffer.read", "emulator.delay_read"),
    ("loader_rl.emulator", "pid_throttle", "emulator.pid"),
    ("loader_rl.trace", "EpisodeTrace.add_step", "trace.add_step"),
    ("loader_rl.cli", "write_trace_csv", "trace.write_csv"),
    ("loader_rl.cli", "read_checkpoint", "checkpoint.read"),
    ("loader_rl.train", "write_checkpoint", "checkpoint.write"),
    ("loader_rl.config", "load_run_config", "config.load"),
    ("loader_rl.cli", "load_run_config", "config.load"),
    ("loader_rl.cli", "main", "cli.main"),
]

LAYERS = list(dict.fromkeys(name for _, _, name in PATCHES))

# phases of one train call that are not rollout (rollout = total - these)
TRAIN_PHASES = {
    "ppo.update": "train.update_s",
    "evaluate.evaluate_policy": "train.eval_s",
    "checkpoint.write": "train.checkpoint_s",
}

# metric name -> unit, in report order
METRICS = {}
for _layer in LAYERS:
    METRICS[f"{_layer}.calls"] = "count"
    METRICS[f"{_layer}.self_s"] = "s"
METRICS.update({
    "policy.decisions": "count",
    "ppo.update.total_s": "s",
    "ppo.minibatches": "count",
    "ppo.minibatch_ms": "ms",
    "ppo.aborted_updates": "count",
    "train.rollout_s": "s",
    "train.update_s": "s",
    "train.eval_s": "s",
    "train.checkpoint_s": "s",
    "evaluate.episode_ms": "ms",
    "trace.rows_written": "count",
    "trace.bytes_written": "bytes",
    "checkpoint.bytes_written": "bytes",
    "checkpoint.bytes_read": "bytes",
    "traced_wall_s": "s",
    "untraced_wall_s": "s",
    "tracing_overhead": "ratio",
    "unattributed_s": "s",
})


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    return owner, attr


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.train_phase_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack: list[list] = []  # [name, time of enclosed spans]
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module, path, name in PATCHES:
            owner, attr = _resolve(module, path)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                # a refactor moved the callable: report the layer as untraced, not crash
                print(f"tracing: {module}.{path} not found, {name} is not traced", file=sys.stderr)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        stack = self._stack
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.total_s[name] += dt
                self.self_s[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                    if stack[-1][0] == "train.train" and name in TRAIN_PHASES:
                        self.train_phase_s[TRAIN_PHASES[name]] += dt
            if after is not None:
                after(self.counts, result, args)
            return result

        return traced

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        minibatches = self.counts["ppo.minibatches"]
        episodes = self.calls["evaluate.run_episode"]
        phases = {key: self.train_phase_s[key] for key in TRAIN_PHASES.values()}
        out.update({
            "policy.decisions": self.calls["policy.sample"] + self.calls["policy.forward"],
            "ppo.update.total_s": self.total_s["ppo.update"],
            "ppo.minibatches": minibatches,
            # minibatch loop time: the update minus its advantage estimation
            "ppo.minibatch_ms": 1e3 * (self.total_s["ppo.update"] - self.total_s["ppo.gae"])
            / max(minibatches, 1),
            "ppo.aborted_updates": self.counts["ppo.aborted_updates"],
            "train.rollout_s": self.total_s["train.train"] - sum(phases.values()),
            **phases,
            "evaluate.episode_ms": 1e3 * self.total_s["evaluate.run_episode"] / max(episodes, 1),
            "trace.rows_written": self.counts["trace.rows_written"],
            "trace.bytes_written": self.counts["trace.bytes_written"],
            "checkpoint.bytes_written": self.counts["checkpoint.bytes_written"],
            "checkpoint.bytes_read": self.counts["checkpoint.bytes_read"],
            "traced_wall_s": traced_wall_s,
            "untraced_wall_s": untraced_wall_s,
            "tracing_overhead": traced_wall_s / untraced_wall_s,
            "unattributed_s": traced_wall_s - sum(self.self_s[layer] for layer in LAYERS),
        })
        return out


def _after_update(counts, stats, args) -> None:
    counts["ppo.minibatches"] += stats.n_minibatches
    counts["ppo.aborted_updates"] += int(stats.aborted)


def _after_write_trace(counts, result, args) -> None:
    counts["trace.rows_written"] += len(args[0].rows)
    counts["trace.bytes_written"] += os.path.getsize(args[1])


def _after_write_checkpoint(counts, result, args) -> None:
    counts["checkpoint.bytes_written"] += os.path.getsize(args[1])


def _after_read_checkpoint(counts, result, args) -> None:
    counts["checkpoint.bytes_read"] += os.path.getsize(args[0])


# bookkeeping run after a span closes, outside its timed interval
_AFTER = {
    "ppo.update": _after_update,
    "trace.write_csv": _after_write_trace,
    "checkpoint.write": _after_write_checkpoint,
    "checkpoint.read": _after_read_checkpoint,
}

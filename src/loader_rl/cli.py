"""Command-line workflow: train, eval, replay, emulate, plot.

Every command is a deterministic function of (config file, flags,
seed); artifacts embed the merged config digest. Exit codes: 0 success,
1 validation error (a malformed command line included), 2 I/O error,
3 numerical failure. LOADER_RL_LOG selects the log level (error, info,
debug).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointFormatError, read_checkpoint, write_atomic
from .config import ConfigError, load_run_config
from .emulator import run_emulated_episode
from .env import ApproachEnv, env_digest
from .evaluate import evaluate_policy, greedy_policy_fn, run_episode
from .oracle import LatchedBrakePolicy, OracleConfig
from .plot import MetricsFormatError, read_metrics_csv, render_reward_curve_svg
from .trace import write_trace_csv
from .train import train

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3


def _setup_logging() -> None:
    level_name = os.environ.get("LOADER_RL_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        raise ConfigError(f"LOADER_RL_LOG must be one of {sorted(levels)}, got {level_name!r}")
    logging.basicConfig(level=levels[level_name], format="%(levelname)s %(name)s: %(message)s")


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a validation error, instead of
    exiting 2 (the I/O code) as argparse does; ``--help`` still exits 0."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged, so every call starts from the same defaults."""
    parser = _Parser(prog="loader-rl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a policy and write metrics + checkpoints")
    p_train.add_argument("config", help="key=value config file")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--out", default="runs/latest", help="output directory")
    p_train.add_argument("--total-timesteps", dest="train.total_timesteps", type=int)

    p_eval = sub.add_parser("eval", help="greedy evaluation of a checkpoint")
    _policy_args(p_eval)
    p_eval.add_argument("--episodes", type=int, default=100)
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.add_argument("--report", default=None, help="write the report to this file")

    p_replay = sub.add_parser("replay", help="write one greedy episode trace CSV")
    _policy_args(p_replay)
    p_replay.add_argument("--seed", type=int, default=None)
    p_replay.add_argument("--trace", required=True, help="output CSV path")
    p_replay.add_argument("--normalized", action="store_true",
                          help="min-max scale numeric columns to [0, 1]")
    p_replay.add_argument("--heading", type=float, default=None)

    p_emu = sub.add_parser("emulate", help="run a deployment-emulation episode")
    _policy_args(p_emu)
    p_emu.add_argument("--seed", type=int, default=None)
    p_emu.add_argument("--trace", required=True)
    p_emu.add_argument("--delay", dest="emulation.position_delay", type=float,
                       help="position sensing delay, s")
    p_emu.add_argument("--control-interval", dest="emulation.control_interval", type=int,
                       help="plant steps per policy decision")
    p_emu.add_argument("--brake-model", dest="emulation.brake_model",
                       choices=["ideal", "tapered"])
    p_emu.add_argument("--standstill", dest="emulation.start_from_standstill",
                       action="store_true", default=None,
                       help="start from zero speed (deployment-like)")
    p_emu.add_argument("--no-standstill", dest="emulation.start_from_standstill",
                       action="store_false")
    p_emu.add_argument("--heading", type=float, default=None)

    p_plot = sub.add_parser("plot", help="render the reward curve SVG from metrics.csv")
    p_plot.add_argument("--metrics", required=True)
    p_plot.add_argument("--out", required=True)
    return parser


def _policy_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--checkpoint", default=None, help="policy checkpoint file")
    group.add_argument("--scripted", action="store_true",
                       help="use the scripted reference policy instead of a checkpoint")
    p.add_argument("--config", default=None, help="key=value config file")


def _overrides(args) -> dict[str, str]:
    """The config overrides of the command line: ``--seed`` and every flag
    whose dest is a dotted config key, where given."""
    return {key: str(value) for key, value in vars(args).items()
            if (key == "seed" or "." in key) and value is not None}


def _policy_setup(args, latched: bool = False):
    """(run config, policy, decision interval) of eval, replay and emulate.

    Settings come from --config when given, otherwise from the defaults;
    the flags override their config keys. A checkpoint's env, vehicle and
    train settings replace them, so it is judged where it was trained and
    decides at its training-time control rate; an explicit config must
    match the checkpoint's environment. The scripted policy decides every
    plant step, and with ``latched`` holds the brake once it engages.
    """
    ckpt = None
    if args.checkpoint is not None:
        ckpt = read_checkpoint(args.checkpoint)
    run = load_run_config(args.config, _overrides(args))
    if ckpt is None:
        oracle = OracleConfig(env=run.env, vehicle=run.vehicle)
        return run, LatchedBrakePolicy(oracle) if latched else oracle.rule, 1
    if args.config is not None:
        ckpt_digest = env_digest(ckpt.env_config, ckpt.vehicle_params)
        run_digest = env_digest(run.env, run.vehicle)
        if ckpt_digest != run_digest:
            raise ConfigError(
                f"checkpoint env digest {ckpt_digest} does not match the "
                f"config's {run_digest}; refusing to evaluate across environments"
            )
    run = dataclasses.replace(run, env=ckpt.env_config, vehicle=ckpt.vehicle_params,
                              train=ckpt.train_config)
    return run, greedy_policy_fn(ckpt.params), run.train.control_interval


# eval, replay and emulate exit 3 on an actor output that is not finite, which numpy's
# warnings would only repeat; train keeps them, the visible sign of an aborted update
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


def cmd_train(args) -> int:
    run = load_run_config(args.config, _overrides(args), seed_trains=True)
    result = train(
        lambda: ApproachEnv(run.env, run.vehicle),
        run.train,
        out_dir=Path(args.out),
        config_digest=run.digest,
    )
    if result.aborted_updates == len(result.metrics):  # last.ckpt is written by now
        raise FloatingPointError(f"all {len(result.metrics)} updates aborted on a non-finite loss")
    print(f"trained {result.last.timesteps} timesteps, {len(result.metrics)} updates")
    if result.best_eval is not None:
        print(f"best eval success rate {result.best_eval[0]:.2f}")
    return EXIT_OK


@_quiet_overflow
def cmd_eval(args) -> int:
    run, decide, interval = _policy_setup(args)
    report = evaluate_policy(ApproachEnv(run.env, run.vehicle), decide, args.episodes, run.seed,
                             decision_interval=interval)
    report.config_digest = run.digest
    report.notes = {
        "learning_rate": run.train.learning_rate,
        "seed": run.seed,
        "control_interval": interval,
        "exploration_mode": run.train.exploration_mode.value,
    }
    text = report.to_text()
    if args.report:
        write_atomic(args.report, text)
    sys.stdout.write(text)
    return EXIT_OK


@_quiet_overflow
def cmd_replay(args) -> int:
    run, decide, interval = _policy_setup(args)
    _, trace = run_episode(ApproachEnv(run.env, run.vehicle), decide, run.seed,
                           heading=args.heading, collect_trace=True, decision_interval=interval)
    trace.config_digest = run.digest
    write_trace_csv(trace, args.trace, normalized=args.normalized)
    print(f"wrote {len(trace.values)}-step trace ({trace.outcome.value}) to {args.trace}")
    return EXIT_OK


@_quiet_overflow
def cmd_emulate(args) -> int:
    run, decide, _ = _policy_setup(args, latched=True)
    trace = run_emulated_episode(decide, run.emulation, run.seed, run.env, run.vehicle,
                                 heading=args.heading)
    trace.config_digest = run.digest
    write_trace_csv(trace, args.trace)
    print(f"wrote {len(trace.values)}-step emulation trace ({trace.outcome.value}) to {args.trace}")
    return EXIT_OK


def cmd_plot(args) -> int:
    rows, digest = read_metrics_csv(args.metrics)
    write_atomic(args.out, render_reward_curve_svg(rows, digest))
    print(f"wrote {args.out}")
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "replay": cmd_replay,
    "emulate": cmd_emulate,
    "plot": cmd_plot,
}


def main(argv: list[str] | None = None) -> int:
    try:
        _setup_logging()
        parser = _build_parser()
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError, MetricsFormatError, CheckpointFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    except (ArithmeticError, np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end command-line workflow tests.

Training commands here use a deliberately tiny budget; they exercise the
plumbing (files, digests, determinism, exit codes), not learning.
"""

import contextlib
import hashlib
import io
import math
import os
import re
import signal
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loader_rl.cli import main
from loader_rl.checkpoint import read_checkpoint, write_checkpoint
from loader_rl.config import _known_keys
from loader_rl.trace import read_trace_csv
from tests.test_checkpoint import golden, golden_checkpoint, payload_sha

SRC = Path(__file__).resolve().parent.parent / "src"

TINY_TRAIN = "\n".join([
    "seed=5",
    "train.total_timesteps=1024",
    "train.n_steps=512",
    "train.batch_size=128",
    "train.n_epochs=2",
    "train.eval_every_updates=1",
    "train.eval_episodes=2",
    "env.max_episode_time=4.0",
    "",
])


@pytest.fixture()
def train_run(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_TRAIN)
    out = tmp_path / "out"
    code = main(["train", str(cfg), "--out", str(out)])
    assert code == 0
    return cfg, out


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(argv):
    """``loader-rl argv`` in a fresh interpreter; the finished process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "loader_rl.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def digest_and_body(path):
    """(the config digest an artifact embeds in its first line, sha256 of
    every byte after that line)."""
    first, _, body = path.read_bytes().partition(b"\n")
    return first.decode().rpartition("=")[2], hashlib.sha256(body).hexdigest()


class TestTrain:
    def test_writes_metrics_with_one_row_per_update(self, train_run):
        _, out = train_run
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("# config_digest=")
        assert lines[1].split(",")[0] == "timestep"
        assert len(lines) == 2 + 2  # digest + header + 1024/512 update rows

    def test_deterministic_metrics_bytes(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_TRAIN)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", str(cfg), "--out", str(out)]) == 0
            outs.append(sha(out / "metrics.csv"))
        assert outs[0] == outs[1]

    def test_missing_seed_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("train.total_timesteps=512\n")
        code = main(["train", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_unknown_key_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=1\nenv.vicinty=1.5\n")
        code = main(["train", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "vicinty" in err and ":2" in err

    @pytest.mark.parametrize("key", ["train.n_envs=1", "vehicle.steering_limit=0.6545",
                                     "emulation.rate_scale=0.1", "env.lift_term_mode=literal",
                                     "env.pad_obs_to_5d=true"])
    def test_removed_key_is_unknown(self, key, tmp_path, capsys):
        # settings that only raised, were never read, spelled the decision
        # rate a second time, or selected an env variant no run used
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed=1\n{key}\n")
        assert main(["train", str(cfg), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:2: unknown key {key.partition('=')[0]!r}" in err

    def test_run_seed_is_the_training_seed(self, tmp_path):
        # train.seed takes the run seed, so the digest covers the seed the
        # run really trained with; an equal explicit train.seed is the same run
        outs = {}
        for name, extra in (("plain", ""), ("explicit", "train.seed=5\n")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(TINY_TRAIN + extra)
            assert main(["train", str(cfg), "--out", str(tmp_path / name)]) == 0
            outs[name] = sha(tmp_path / name / "metrics.csv")
            assert read_checkpoint(tmp_path / name / "last.ckpt").train_config.seed == 5
        assert outs["plain"] == outs["explicit"]
        first = (tmp_path / "plain" / "metrics.csv").read_text().splitlines()[0]
        assert first == "# config_digest=0b8ccd8b8d5550d5"

    @pytest.mark.parametrize("where", ["file", "flag"])
    def test_conflicting_train_seed_exits_1(self, where, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        argv = ["train", str(cfg), "--out", str(tmp_path / "x")]
        if where == "file":
            cfg.write_text(TINY_TRAIN.replace("seed=5", "seed=1") + "train.seed=7\n")
        else:
            cfg.write_text(TINY_TRAIN.replace("seed=5\n", "train.seed=7\n"))
            argv += ["--seed", "1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "train.seed=7 disagrees with seed=1" in err
        assert not (tmp_path / "x").exists()

    def test_writes_checkpoints(self, train_run):
        _, out = train_run
        assert (out / "last.ckpt").exists()
        assert (out / "best.ckpt").exists()
        ckpt = read_checkpoint(out / "last.ckpt")
        assert ckpt.timesteps == 1024

    def test_all_updates_aborted_exits_3(self, tmp_path, monkeypatch, capsys):
        import loader_rl.cli as cli_mod
        from loader_rl.env import ApproachEnv

        class NanRewardEnv(ApproachEnv):
            def hold(self, action, steps, on_step=None, **kw):
                total = super().hold(action, steps, on_step, **kw)
                # a lockstep lane is returned as it is; it sums no reward
                return total if kw.get("lane") else float("nan")

        monkeypatch.setattr(cli_mod, "ApproachEnv", NanRewardEnv)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_TRAIN)
        out = tmp_path / "out"
        assert main(["train", str(cfg), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert "all 2 updates aborted" in captured.err
        assert "trained" not in captured.out
        # the run's artifacts are complete before the exit
        assert read_checkpoint(out / "last.ckpt").timesteps == 1024
        assert len((out / "metrics.csv").read_text().splitlines()) == 4

    def test_periodic_checkpoints(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_TRAIN + "train.checkpoint_every_updates=1\n")
        out = tmp_path / "out"
        assert main(["train", str(cfg), "--out", str(out)]) == 0
        periodic = sorted(out.glob("ckpt_*.ckpt"))
        assert len(periodic) == 2
        assert read_checkpoint(periodic[0]).timesteps == 512


class TestInvalidValues:
    """An invalid config value exits 1 with a one-line error, not a
    traceback, a numerical-failure exit or a silent success."""

    @pytest.mark.parametrize("setting", [
        "train.n_epochs=0",
        "train.eval_every_updates=0",
        "train.checkpoint_every_updates=0",
        "train.learning_rate=-1",
        "train.learning_rate=0",
        "train.learning_rate=nan",
        "train.learning_rate=inf",
        "--delay=nan",
        "--control-interval=0",
        "emulation.control_interval=0",
        # NaN fails every comparison, so a bare ``x <= 0`` guard lets it through
        "env.speed_threshold=nan",
        "env.lift_start_jitter=nan",
        "vehicle.lift_rate=nan",
        "vehicle.taper.taper_time_constant=nan",
        "emulation.accel_limit=nan",
        "emulation.pid.integral_limit=nan",
        "train.noise_resample_every=0",
        "train.clip_range=nan",
        "train.vf_coef=nan",
        "train.max_grad_norm=nan",
        # episodes that could never end, or that end before they start
        "env.dt = 1e-320",
        "env.dt = 1e300",
        "vehicle.cruise_speed = 1e308",
    ])
    def test_exits_1(self, setting, tmp_path, capsys):
        if setting.startswith("--"):
            argv = ["emulate", "--scripted", "--trace", str(tmp_path / "t.csv"), setting]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("seed=5\ntrain.total_timesteps=1024\nenv.max_episode_time=4.0\n"
                           f"{setting}\n")
            argv = ["train", str(cfg), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestEpisodeGeometry:
    """Settings under which no episode can run exit 1 before any episode
    starts: an episode of no plant step or of unbounded length, a first
    step at cruise speed that leaves the valid range, a start lift
    outside the boom's range, and reward terms that are negative or whose
    largest episode total is not finite."""

    @pytest.mark.parametrize("setting, keys", [
        ("env.dt = 1e-320", "max_episode_time / dt"),
        ("env.dt = 1e300", "max_episode_time / dt"),
        ("env.max_episode_time = 1e300", "max_episode_time / dt"),
        ("vehicle.cruise_speed = 1e308", "vehicle.cruise_speed * env.dt"),
        ("env.out_of_range_radius = 1e300\nvehicle.cruise_speed = 1e303",
         "vehicle.cruise_speed * env.dt"),
        # numpy cannot draw over a range wider than the largest float
        ("env.lift_start_jitter = 1e308", "env.lift_start_mean +- env.lift_start_jitter"),
        ("env.lift_start_mean = 1e308", "env.lift_start_mean +- env.lift_start_jitter"),
        # the time penalty summed over the longest episode, and the lift shaping
        # over the boom's range, must be finite; neither term may be negative
        ("env.time_penalty_tc = 1e308", "time_penalty_tc"),
        ("env.time_penalty_tc = 1e303\nenv.max_episode_time = 1000", "time_penalty_tc"),
        ("env.time_penalty_tc = -1", "time_penalty_tc"),
        ("env.lift_reward_scale = -1e308", "lift_reward_scale"),
        ("vehicle.lift_min = -1e308\nvehicle.lift_max = 1e308",
         "env.lift_reward_scale * (vehicle.lift_max - vehicle.lift_min)"),
    ])
    def test_scripted_eval_exits_1(self, setting, keys, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed=1\n{setting}\n")
        assert main(["eval", "--scripted", "--episodes", "2", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and keys in err

    def test_one_random_line_exits_0_or_1(self, tmp_path):
        # one ``key = value`` line of any known key: eval ends with exit 0
        # or 1, never a traceback, another code or an episode with no end;
        # on exit 0 every value of a non-empty bucket is finite
        cfg = tmp_path / "run.cfg"
        numbers = st.one_of(st.floats(), st.integers(-2**70, 2**70))
        values = st.one_of(
            numbers.map(str),
            st.tuples(numbers, numbers).map(lambda xy: f"{xy[0]},{xy[1]}"),
            st.sampled_from(["true", "false", "ideal", "tapered", "bernoulli",
                             "continuous_threshold", "", ","]),
            st.text("0123456789-+.eEnaifNI,x ", max_size=8),
        )

        def time_out(signum, frame):
            raise TimeoutError("eval of one episode ran past 10 s")  # an OSError: exit 2

        @settings(max_examples=200, deadline=None)
        @given(st.sampled_from(sorted(_known_keys())), values)
        def check(key, value):
            cfg.write_text(f"seed=1\n{key} = {value}\n")
            signal.setitimer(signal.ITIMER_REAL, 10.0)
            try:
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    code = main(["eval", "--scripted", "--episodes", "1", "--config", str(cfg)])
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            assert code in (0, 1), (key, value)
            if code == 0:
                report = dict(line.split("=", 1) for line in out.getvalue().splitlines())
                for bucket in ("overall", "main", "degenerate"):
                    if int(report[f"{bucket}.n"]) > 0:
                        for stat in ("success_rate", "reward_mean", "reward_variance",
                                     "mean_stop_error"):
                            value_read = float(report[f"{bucket}.{stat}"])
                            assert math.isfinite(value_read), (key, value, bucket, stat)

        previous = signal.signal(signal.SIGALRM, time_out)
        try:
            check()
        finally:
            signal.signal(signal.SIGALRM, previous)


class TestNonFiniteActorOutput:
    """A checkpoint with finite weights whose actor output is not finite
    (final-layer weights of alternating sign near the largest float) is a
    numerical failure, exit 3, in every command that decides with it; such
    an output's sign tests would otherwise pick an action silently."""

    @pytest.fixture()
    def ckpt(self, tmp_path):
        ckpt = golden()
        w = ckpt.params.actor.params[-2]
        w[...] = np.where(np.arange(w.size).reshape(w.shape) % 2, -1.7e308, 1.7e308)
        path = tmp_path / "nan.ckpt"
        write_checkpoint(ckpt, path)
        read_checkpoint(path)  # every stored number is finite
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["eval", "--episodes", "1"],  # one lane: decide
        ["eval", "--episodes", "3"],  # lanes in lockstep: decide.batch
        ["replay", "--trace", "{tmp}/t.csv"],
        ["emulate", "--trace", "{tmp}/t.csv"],
    ])
    def test_exits_3(self, ckpt, argv, tmp_path, capsys):
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main([*argv, "--checkpoint", ckpt, "--seed", "0"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: actor output is not finite")
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["eval", "--episodes", "1"],
        ["eval", "--episodes", "3"],
        ["replay", "--trace", "{tmp}/t.csv"],
        ["emulate", "--trace", "{tmp}/t.csv"],
    ])
    def test_stderr_is_the_one_exit_line(self, ckpt, argv, tmp_path):
        # in a fresh interpreter, where numpy's floating-point warnings would
        # print, each with its source line, at their first occurrence
        argv = [a.format(tmp=tmp_path) for a in argv]
        proc = run_cli([*argv, "--checkpoint", ckpt, "--seed", "0"])
        assert proc.returncode == 3
        assert proc.stderr.startswith("numerical failure: actor output is not finite")
        assert proc.stderr.count("\n") == 1, proc.stderr


class TestNonFiniteHeading:
    """A heading that is not finite is a validation error naming it. The
    ``--heading=-inf`` spelling keeps argparse from reading ``-inf`` as a
    flag."""

    @pytest.mark.parametrize("command", ["replay", "emulate"])
    @pytest.mark.parametrize("heading", ["inf", "-inf", "nan"])
    def test_exits_1(self, command, heading, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        assert main([command, "--scripted", f"--heading={heading}", "--trace", str(trace)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: heading must be finite, got {float(heading)!r}\n"
        assert not trace.exists()


class TestNegativeSeed:
    """A seed below 0 is a validation error naming it, in every command:
    eval once masked it to 64 bits, so ``--seed=-1`` printed the report of
    ``--seed=18446744073709551615`` under another digest."""

    @pytest.mark.parametrize("command", ["replay", "emulate"])
    @pytest.mark.parametrize("seed", [-1, -(2**70)])
    def test_exits_1(self, command, seed, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        assert main([command, "--scripted", f"--seed={seed}", "--trace", str(trace)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: seed must be an integer >= 0, got {seed}\n"
        assert not trace.exists()

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_eval_and_train_exit_1(self, command, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_TRAIN)
        out = tmp_path / "out"
        argv = {"eval": ["eval", "--scripted", "--episodes", "2", "--report", str(out)],
                "train": ["train", str(cfg), "--out", str(out)]}[command]
        assert main([*argv, "--seed=-1"]) == 1
        assert capsys.readouterr() == ("", "error: seed must be an integer >= 0, got -1\n")
        assert not out.exists()


class TestRewardSpread:
    """Episode rewards that are each finite can spread past the largest
    float over a bucket; whether they do depends on the episode count, so
    no config check can reject it. The report's statistic then is a
    numerical failure naming it, exit 3."""

    @pytest.mark.parametrize("setting", ["env.time_penalty_tc = 1e300",
                                         "env.lift_reward_scale = 1e308"])
    def test_exits_3(self, setting, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed=1\n{setting}\n")
        assert main(["eval", "--scripted", "--episodes", "5", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: reward_variance of 5 episodes is not finite")
        assert err.count("\n") == 1


class TestCommandLineErrors:
    """A malformed command line is a validation error (exit 1), not the
    I/O code 2 that argparse exits with."""

    @pytest.mark.parametrize("argv, message", [
        (["eval", "--scripted", "--episodes", "abc"], "invalid int value: 'abc'"),
        (["emulate", "--scripted", "--trace", "t.csv", "--control-interval", "abc"],
         "invalid int value: 'abc'"),
        (["emulate", "--scripted", "--trace", "t.csv", "--rate-scale", "0.1"],
         "unrecognized arguments: --rate-scale"),
        (["bogus"], "invalid choice: 'bogus'"),
        ([], "the following arguments are required: command"),
    ])
    def test_exits_1(self, argv, message, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: loader-rl") and message in err
        assert err.count("\n") == 1

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--help"])
        assert exc.value.code == 0
        assert "--checkpoint" in capsys.readouterr().out


class TestEval:
    def test_scripted_policy_full_success_over_100_episodes(self, capsys):
        code = main(["eval", "--scripted", "--episodes", "100", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall.success_rate=1.0" in out
        assert "degenerate.n=" in out

    def test_zero_episodes_rejected(self, capsys):
        code = main(["eval", "--scripted", "--episodes", "0"])
        assert code == 1

    def test_report_reruns_identically(self, tmp_path):
        paths = []
        for name in ("r1.txt", "r2.txt"):
            p = tmp_path / name
            assert main(["eval", "--scripted", "--episodes", "10", "--seed", "4",
                         "--report", str(p)]) == 0
            paths.append(p.read_text())
        assert paths[0] == paths[1]

    def test_checkpoint_eval(self, train_run, tmp_path):
        _, out = train_run
        report = tmp_path / "rep.txt"
        code = main(["eval", "--checkpoint", str(out / "last.ckpt"),
                     "--episodes", "3", "--report", str(report)])
        assert code == 0
        assert "success_rate" in report.read_text()

    @pytest.mark.parametrize("command", ["eval", "emulate"])
    def test_mismatched_config_rejected(self, command, train_run, tmp_path):
        _, out = train_run
        other = tmp_path / "other.cfg"
        other.write_text("seed=5\nenv.vicinity=2.0\n")
        extra = {"eval": ["--episodes", "3"], "emulate": ["--trace", str(tmp_path / "t.csv")]}
        code = main([command, "--checkpoint", str(out / "last.ckpt"),
                     "--config", str(other), *extra[command]])
        assert code == 1


class TestSeedSource:
    """eval, replay and emulate take their seed from --seed, else from the
    --config file, else 0."""

    OUTPUT = {"eval": ["--episodes", "3", "--report"], "replay": ["--trace"],
              "emulate": ["--trace"]}

    def run(self, command, tmp_path, *flags):
        p = tmp_path / f"{command}{len(list(tmp_path.iterdir()))}.out"
        assert main([command, "--scripted", *flags, *self.OUTPUT[command], str(p)]) == 0
        return p.read_bytes()

    @pytest.mark.parametrize("command", ["eval", "replay", "emulate"])
    def test_config_seed_applies_without_the_flag(self, command, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=7\n")
        from_config = self.run(command, tmp_path, "--config", str(cfg))
        assert from_config == self.run(command, tmp_path, "--seed", "7")
        assert from_config != self.run(command, tmp_path, "--seed", "0")
        if command == "eval":
            assert b"note.seed=7\n" in from_config

    @pytest.mark.parametrize("command", ["eval", "replay", "emulate"])
    def test_config_without_seed_needs_the_flag(self, command, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("env.vicinity=1.5\n")
        code = main([command, "--scripted", "--config", str(cfg),
                     *self.OUTPUT[command], str(tmp_path / "x.out")])
        assert code == 1
        assert "'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "replay", "emulate"])
    def test_no_config_and_no_flag_runs_seed_0(self, command, tmp_path):
        assert self.run(command, tmp_path) == self.run(command, tmp_path, "--seed", "0")


class TestReplay:
    def test_trace_row_count_and_digest(self, tmp_path):
        trace_path = tmp_path / "t.csv"
        assert main(["replay", "--scripted", "--seed", "6", "--trace", str(trace_path)]) == 0
        trace = read_trace_csv(str(trace_path))
        assert trace.rows[-1]["outcome"] == "Success"
        assert trace.config_digest != ""
        assert len(trace.rows) == trace.rows[-1]["step"]

    def test_same_seed_identical_file(self, tmp_path):
        hashes = []
        for name in ("a.csv", "b.csv"):
            p = tmp_path / name
            assert main(["replay", "--scripted", "--seed", "6", "--trace", str(p)]) == 0
            hashes.append(sha(p))
        assert hashes[0] == hashes[1]

    def test_normalized_speed_peaks_at_one(self, tmp_path):
        p = tmp_path / "n.csv"
        assert main(["replay", "--scripted", "--seed", "6", "--trace", str(p), "--normalized"]) == 0
        trace = read_trace_csv(str(p))
        assert max(trace.column("speed")) == 1.0
        for col in trace.columns:
            if col != "outcome":
                assert min(trace.column(col)) >= 0.0
                assert max(trace.column(col)) <= 1.0


    def test_normalized_step_column_rises_to_one(self, tmp_path):
        # the integer columns are scaled like every other numeric column,
        # so they are written and read back as floats, not truncated
        p = tmp_path / "n.csv"
        assert main(["replay", "--scripted", "--seed", "5", "--trace", str(p), "--normalized"]) == 0
        steps = read_trace_csv(str(p)).column("step")
        assert len(steps) == 146
        assert steps[0] == 0.0 and steps[-1] == 1.0
        assert all(a < b for a, b in zip(steps, steps[1:]))
        assert all(isinstance(v, float) for v in steps)


# config digest of the default run config at seed 0
DEFAULT_DIGEST = "68dc7f225078d603"
# body of the default scripted emulation trace at --seed 0 --delay 3
EMULATION_BODY_DELAY_3 = "2a27bdc639fe0de806ed7ad7e476fa9db248e32c7a9ce5b2ec6b33fc49bd61bd"


class TestGoldenOutputs:
    """CLI outputs that run only Python ``math``, no BLAS, pinned so that a
    rewrite of the plant step or the trace writer cannot move a single
    output bit. Each output has two pins: the config digest of its first
    line, which moves whenever a config key does, and the sha256 of every
    byte after that line, which does not. Taken on CPython 3.11 with
    x86-64 glibc libm."""

    def test_scripted_eval_report(self, tmp_path):
        p = tmp_path / "report.txt"
        assert main(["eval", "--scripted", "--episodes", "20", "--seed", "0",
                     "--report", str(p)]) == 0
        assert digest_and_body(p) == (
            DEFAULT_DIGEST, "4ea1d951b8424db3b439ec37b7be0a8c4eaf90cc7e7bba43544411db79d76170")

    def test_scripted_replay_trace(self, tmp_path):
        p = tmp_path / "trace.csv"
        for flags, pins in (
            (["--seed", "0"],
             (DEFAULT_DIGEST, "9957e639f9aac9aa33cf5127ae8b0721deb44a42120be5dacd88cb0097f27821")),
            # min-max scaling column by column, integer columns as floats
            (["--seed", "5", "--normalized"], ("61f54a88827e7357",
             "9261470c6196da972b9f5991fe69d3ae974f0f01fe71ba9659cccd7dd62654ef")),
        ):
            assert main(["replay", "--scripted", *flags, "--trace", str(p)]) == 0
            assert digest_and_body(p) == pins, flags

    @pytest.mark.parametrize("delay, digest, body", [
        # the digest covers the --delay flag; 3 s is the default delay
        ("0", "5025052d6ab41fce",
         "ef60137d87760d6051964defaddb8e002dee3ce96cf831a89cf728a0f0d3ac39"),
        ("3", DEFAULT_DIGEST, EMULATION_BODY_DELAY_3),
    ], ids=["0", "3"])
    def test_scripted_emulation_trace(self, tmp_path, delay, digest, body):
        # default emulation: decimated control, PID throttle, tapered brake
        p = tmp_path / "emu.csv"
        assert main(["emulate", "--scripted", "--seed", "0", "--delay", delay,
                     "--trace", str(p)]) == 0
        assert digest_and_body(p) == (digest, body)

    @pytest.mark.parametrize("flags, digest, body", [
        # a decision every plant step, ideal brake, at cruise: Success at plant step 171
        (["--delay", "0.5", "--control-interval", "1", "--brake-model", "ideal",
          "--no-standstill"], "71cbf50c74e500ac",
         "6f25154341fb21f9b2573e12a1520ddd20def13f0ba314047399714bbd5e31c7"),
        # a decision every 5 plant steps, tapered brake, from a standstill: Success at 275
        (["--delay", "0", "--control-interval", "5", "--brake-model", "tapered",
          "--standstill"], "1bedf905bcfd6c2e",
         "40692a82437201a648e926b83f6b03a8e4e3b9a4aa31dfdbc636aa37c88e596f"),
    ], ids=["ideal-interval-1", "tapered-interval-5"])
    def test_scripted_emulation_variant_trace(self, tmp_path, flags, digest, body):
        p = tmp_path / "emu.csv"
        assert main(["emulate", "--scripted", "--seed", "0", *flags, "--trace", str(p)]) == 0
        assert digest_and_body(p) == (digest, body)


class TestCheckpointGoldenOutputs:
    """The greedy checkpoint path: checkpoint read, actor forward,
    zero-order hold at the stored control interval, plant step and trace
    writer, pinned as in TestGoldenOutputs. The checkpoint itself is
    pinned whole and by its array payload, which a header change leaves
    alone. The forward runs numpy matrix products through BLAS, so the
    pins hold for the build they were taken on (CPython 3.11, numpy 2.4,
    x86-64 OpenBLAS)."""

    @pytest.fixture()
    def ckpt(self, tmp_path):
        path = golden_checkpoint(tmp_path / "golden.ckpt")
        assert sha(path) == "e8aa96ef6db1aac5fd1fe55b492a9ea80719348cb8eb03f1e1a0673794b69f06"
        assert payload_sha(path) == \
            "cdd8c16c45a8677b72dd681f5090b2ebf120616f313d77a01721577e90f8a82b"
        return str(path)

    def test_eval_report(self, ckpt, tmp_path):
        p = tmp_path / "report.txt"
        assert main(["eval", "--checkpoint", ckpt, "--episodes", "20", "--seed", "0",
                     "--report", str(p)]) == 0
        assert digest_and_body(p) == (
            "74c6f3abd20484de", "b3f85b5783b8a1b45de7e4bf96f34521cfd384b1c168552d5df3ffbb98197f03")

    def test_replay_trace(self, ckpt, tmp_path):
        p = tmp_path / "trace.csv"
        assert main(["replay", "--checkpoint", ckpt, "--seed", "3", "--trace", str(p)]) == 0
        assert digest_and_body(p) == (
            "1fcdca4a9aa71456", "de5ea663f5dfef0bc9f04b1564d541d88a762b5f4f8e032422da913e306b7255")
        # the greedy decisions really switch the brake both ways
        assert {row["brake_action"] for row in read_trace_csv(str(p)).rows} == {0, 1}

    def test_config_keeps_the_checkpoint_settings(self, ckpt, tmp_path):
        # a config beside a checkpoint cannot change how the checkpoint
        # decides: it still holds each decision for its 10 plant steps
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=0\n")
        reports = []
        for extra in ([], ["--config", str(cfg)]):
            p = tmp_path / f"report{len(reports)}.txt"
            assert main(["eval", "--checkpoint", ckpt, "--episodes", "5", "--seed", "0",
                         "--report", str(p), *extra]) == 0
            reports.append(p.read_text())
        assert reports[0] == reports[1]
        assert "note.control_interval=10\n" in reports[1]

    def test_emulation_trace(self, ckpt, tmp_path):
        p = tmp_path / "emu.csv"
        assert main(["emulate", "--checkpoint", ckpt, "--seed", "0", "--delay", "3",
                     "--trace", str(p)]) == 0
        assert digest_and_body(p) == (
            "74c6f3abd20484de", "f2f4d9f84c1a3e6cd67892f2940d7713746dd623a473dba2feafc6027d342fd3")

    def test_emulation_trace_at_the_default_delay(self, ckpt, tmp_path):
        # without --delay the sensor lags by the default 3 s: the trace
        # above, a 750-step Timeout
        p = tmp_path / "emu.csv"
        assert main(["emulate", "--checkpoint", ckpt, "--seed", "0", "--trace", str(p)]) == 0
        assert digest_and_body(p) == (
            "74c6f3abd20484de", "f2f4d9f84c1a3e6cd67892f2940d7713746dd623a473dba2feafc6027d342fd3")
        assert len(read_trace_csv(str(p)).values) == 750


class TestEmulate:
    def test_degenerate_emulation_matches_replay(self, tmp_path):
        replay_path = tmp_path / "replay.csv"
        emu_path = tmp_path / "emu.csv"
        assert main(["replay", "--scripted", "--seed", "9", "--trace", str(replay_path)]) == 0
        assert main(["emulate", "--scripted", "--seed", "9", "--trace", str(emu_path),
                     "--delay", "0", "--control-interval", "1", "--brake-model", "ideal",
                     "--no-standstill"]) == 0
        a = read_trace_csv(str(replay_path))
        b = read_trace_csv(str(emu_path))
        assert len(a.rows) == len(b.rows)
        for ra, rb in zip(a.rows, b.rows):
            for col in a.columns:
                assert ra[col] == rb[col], col

    def test_delay_increases_overshoot(self, tmp_path):
        import math

        overshoots = []
        for name, delay in (("d0.csv", "0"), ("d3.csv", "3")):
            p = tmp_path / name
            assert main(["emulate", "--scripted", "--seed", "9", "--trace", str(p),
                         "--delay", delay]) == 0
            trace = read_trace_csv(str(p))
            last = trace.rows[-1]
            overshoots.append(math.hypot(last["x"], last["y"]) - 5.0)
        assert overshoots[1] > overshoots[0]

    def test_parsed_flags_do_not_carry_into_the_next_call(self, tmp_path):
        # the parser is built once per process and reused by every main call
        assert main(["emulate", "--scripted", "--seed", "0", "--delay", "0", "--no-standstill",
                     "--trace", str(tmp_path / "first.csv")]) == 0
        p = tmp_path / "second.csv"
        assert main(["emulate", "--scripted", "--seed", "0", "--delay", "3",
                     "--trace", str(p)]) == 0
        assert digest_and_body(p) == (DEFAULT_DIGEST, EMULATION_BODY_DELAY_3)

    @pytest.mark.parametrize("setting, flags", [
        ("emulation.position_delay=0.5", ["--delay", "0.5"]),
        ("emulation.control_interval=5", ["--control-interval", "5"]),
        ("emulation.brake_model=ideal", ["--brake-model", "ideal"]),
        ("emulation.start_from_standstill=false", ["--no-standstill"]),
    ])
    def test_flag_digests_as_its_config_key(self, setting, flags, tmp_path):
        # a flag gives the output of its config key; with both, of either
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed=0\n{setting}\n")
        outputs = []
        for extra in (flags, ["--config", str(cfg)], ["--config", str(cfg), *flags]):
            p = tmp_path / f"emu{len(outputs)}.csv"
            assert main(["emulate", "--scripted", *extra, "--trace", str(p)]) == 0
            outputs.append(digest_and_body(p))
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0][0] != DEFAULT_DIGEST

    def test_cut_last_row_is_rejected(self, tmp_path):
        # cut inside its last number, the row still parses, as another number
        p = tmp_path / "emu.csv"
        assert main(["emulate", "--scripted", "--seed", "9", "--delay", "0",
                     "--trace", str(p)]) == 0
        text = p.read_text()
        cut = text[:-5]  # the line end and 4 digits
        last_cell = text.splitlines()[-1].rpartition(",")[2]
        assert len(last_cell) > 5 and float(cut.rpartition(",")[2]) != float(last_cell)
        with pytest.raises(ValueError,
                           match=f"^line {len(cut.splitlines())}: no line end, the row was cut off$"):
            read_trace_csv(io.StringIO(cut))
        assert read_trace_csv(io.StringIO(text)).values[-1][-1] == float(last_cell)

    def test_negative_delay_rejected(self, tmp_path, capsys):
        code = main(["emulate", "--scripted", "--seed", "9",
                     "--trace", str(tmp_path / "x.csv"), "--delay", "-1"])
        assert code == 1


METRICS_HEADER = ("timestep,updates,ep_reward_mean,ep_len_mean,success_rate,"
                  "policy_loss,value_loss,entropy,clip_fraction,ratio_mean\n")


class TestPlot:
    def test_two_row_metrics_gives_two_point_polyline(self, train_run, tmp_path):
        _, out = train_run
        svg_path = tmp_path / "reward.svg"
        assert main(["plot", "--metrics", str(out / "metrics.csv"), "--out", str(svg_path)]) == 0
        svg = svg_path.read_text()
        assert "<polyline" in svg
        poly = svg.split("polyline points=\"")[1].split("\"")[0]
        assert len(poly.split(" ")) == 2

    def test_byte_identical_output(self, train_run, tmp_path):
        _, out = train_run
        hashes = []
        for name in ("a.svg", "b.svg"):
            p = tmp_path / name
            assert main(["plot", "--metrics", str(out / "metrics.csv"), "--out", str(p)]) == 0
            hashes.append(sha(p))
        assert hashes[0] == hashes[1]

    def test_metrics_read_from_a_path_object(self, train_run):
        from loader_rl.plot import read_metrics_csv

        _, out = train_run
        path = out / "metrics.csv"
        rows, digest = read_metrics_csv(path)
        assert len(rows) == 2 and digest == path.read_text().splitlines()[0].rpartition("=")[2]
        assert read_metrics_csv(str(path)) == (rows, digest)

    def test_empty_metrics_is_format_error(self, tmp_path, capsys):
        p = tmp_path / "empty.csv"
        p.write_text("")
        assert main(["plot", "--metrics", str(p), "--out", str(tmp_path / "x.svg")]) == 1

    def test_malformed_row_reports_row_number(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text(METRICS_HEADER + "512,1,0.5\n")
        assert main(["plot", "--metrics", str(p), "--out", str(tmp_path / "x.svg")]) == 1
        assert "row 2" in capsys.readouterr().err

    @pytest.mark.parametrize("column", ["timestep", "updates"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "1.5"])
    def test_count_that_is_no_whole_number_is_format_error(self, column, value, tmp_path,
                                                           capsys):
        # train writes counts in these columns; another value would reach the
        # SVG as a coordinate or a tick label such as x="nan"
        cells = dict(timestep="1024", updates="2")
        cells[column] = value
        p = tmp_path / "bad.csv"
        p.write_text(f"{METRICS_HEADER}512,1,0.5,200.0,0.0,0.1,0.2,1.3,0.0,1.0\n"
                     f"{cells['timestep']},{cells['updates']},0.7,200.0,0.0,0.1,0.2,1.3,0.0,1.0\n")
        assert main(["plot", "--metrics", str(p), "--out", str(tmp_path / "x.svg")]) == 1
        err = capsys.readouterr().err
        assert f"row 3: {column} must be a whole number >= 0, got {float(value)!r}" in err
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("rows, axis", [
        (["512,1,1e308", "1024,2,-1e308"], "ep_reward_mean"),  # the span overflows
        (["512,1,1e308"], "ep_reward_mean"),  # adding 1.0 leaves the span 0
        (["1e308,1,0.5"], "timestep"),
    ])
    def test_range_that_cannot_be_scaled_is_format_error(self, rows, axis, tmp_path, capsys):
        p = tmp_path / "wide.csv"
        p.write_text(METRICS_HEADER + "".join(f"{row},200.0,0.0,0.1,0.2,1.3,0.0,1.0\n"
                                              for row in rows))
        assert main(["plot", "--metrics", str(p), "--out", str(tmp_path / "x.svg")]) == 1
        err = capsys.readouterr().err
        assert f"row 0: cannot scale {axis}" in err and "Traceback" not in err
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("digest", ["a--b<x", "ab-->cd"])
    def test_digest_that_would_break_the_svg_is_format_error(self, digest, tmp_path, capsys):
        # the digest is copied into an XML comment
        p = tmp_path / "bad.csv"
        p.write_text(f"# config_digest={digest}\n" + METRICS_HEADER
                     + "512,1,0.5,200.0,0.0,0.1,0.2,1.3,0.0,1.0\n")
        assert main(["plot", "--metrics", str(p), "--out", str(tmp_path / "x.svg")]) == 1
        err = capsys.readouterr().err
        assert f"row 1: config_digest must be empty or 16 lowercase hex digits, got {digest!r}" \
            in err and "Traceback" not in err
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("digest", ["a--b<x", "ab-->cd", "0123456789ABCDEF"])
    def test_render_rejects_the_digests_the_reader_rejects(self, digest):
        from loader_rl.plot import MetricsFormatError, render_reward_curve_svg

        rows = [{"timestep": 512.0, "ep_reward_mean": 0.5}]
        xml.dom.minidom.parseString(render_reward_curve_svg(rows, "0123456789abcdef"))
        with pytest.raises(MetricsFormatError, match=f"row 0: config_digest must be empty or "
                           f"16 lowercase hex digits, got {re.escape(repr(digest))}"):
            render_reward_curve_svg(rows, digest)

    def test_mutated_metrics_exit_1_or_plot_finite_coordinates(self, train_run, tmp_path):
        # byte overwrites of a real metrics.csv: each is rejected with exit 1
        # or plots a well-formed SVG with no nan or inf in it; nothing ends in
        # a traceback
        _, out = train_run
        text = (out / "metrics.csv").read_bytes()
        metrics, svg = tmp_path / "m.csv", tmp_path / "m.svg"

        @settings(max_examples=300, deadline=None)
        @given(st.lists(st.tuples(st.integers(0, len(text) - 1),
                                  st.one_of(st.integers(0, 255),
                                            st.sampled_from(b"0123456789-+.eEnaifNI,\n#"))),
                        min_size=1, max_size=3))
        def check(edits):
            blob = bytearray(text)
            for at, value in edits:
                blob[at] = value
            metrics.write_bytes(bytes(blob))
            svg.unlink(missing_ok=True)
            code = main(["plot", "--metrics", str(metrics), "--out", str(svg)])
            assert code in (0, 1)
            if code == 0:
                drawn = svg.read_text()
                xml.dom.minidom.parseString(drawn)
                assert "nan" not in drawn and "inf" not in drawn

        check()

    def test_row_cut_off_inside_its_last_number(self, train_run, tmp_path, capsys):
        _, out = train_run
        text = (out / "metrics.csv").read_text()
        cut = text[:-2]  # the line end and the last digit of the last row
        last = cut.splitlines()[-1].split(",")
        assert len(cut.splitlines()) == 4 and len(last) == 10 and float(last[-1])
        p = tmp_path / "cut.csv"
        p.write_text(cut)
        assert main(["plot", "--metrics", str(p), "--out", str(tmp_path / "x.svg")]) == 1
        assert "row 4: no line end" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["plot", "--metrics", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "x.svg")]) == 2


class TestAtomicArtifacts:
    """The trace, the eval report and the SVG are written like checkpoints:
    a write that fails part-way leaves the previous file whole and no temp
    file, and the command exits 2."""

    class HalfWriter:
        # writes half of the data, then fails like a full disk
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.f.write(data[: len(data) // 2])
            raise OSError(28, "No space left on device")

    @pytest.mark.parametrize("command", ["replay", "emulate", "eval", "plot"])
    def test_failed_write_keeps_previous_file(self, command, request, tmp_path, monkeypatch):
        import loader_rl.checkpoint as checkpoint_mod

        target = tmp_path / "artifacts" / "artifact"
        target.parent.mkdir()
        target.write_text("previous\n")
        if command == "plot":
            metrics = request.getfixturevalue("train_run")[1] / "metrics.csv"
            argv = ["plot", "--metrics", str(metrics), "--out", str(target)]
        else:
            argv = {"replay": ["replay", "--scripted", "--trace", str(target)],
                    "emulate": ["emulate", "--scripted", "--trace", str(target)],
                    "eval": ["eval", "--scripted", "--episodes", "2", "--report", str(target)],
                    }[command]
        with monkeypatch.context() as patch:
            patch.setattr(checkpoint_mod, "open",
                          lambda p, mode: self.HalfWriter(open(p, mode)), raising=False)
            assert main(argv) == 2
        assert target.read_text() == "previous\n"
        assert [p.name for p in target.parent.iterdir()] == ["artifact"]
        assert main(argv) == 0
        assert target.read_text() != "previous\n"
        assert [p.name for p in target.parent.iterdir()] == ["artifact"]


class TestMissingOutputDirectory:
    """An artifact whose directory does not exist is an I/O error, exit 2,
    that names the path given, not the temp file written beside it."""

    @pytest.mark.parametrize("command", ["replay", "eval", "plot"])
    def test_exits_2_naming_the_path(self, command, request, tmp_path, capsys):
        target = tmp_path / "missing" / "artifact"
        if command == "plot":
            metrics = request.getfixturevalue("train_run")[1] / "metrics.csv"
            argv = ["plot", "--metrics", str(metrics), "--out", str(target)]
        else:
            argv = {"replay": ["replay", "--scripted", "--trace", str(target)],
                    "eval": ["eval", "--scripted", "--episodes", "2", "--report", str(target)],
                    }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"I/O error: [Errno 2] No such file or directory: {str(target)!r}\n"


class TestBlasThreads:
    """Importing the package defaults BLAS to one thread; a thread count
    the user sets wins, and neither moves an output bit."""

    def run(self, tmp_path, threads):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env.update(threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        script = ("import os, sys\nfrom loader_rl.cli import main\n"
                  "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        ckpt = golden_checkpoint(tmp_path / "golden.ckpt")
        proc = subprocess.run([sys.executable, "-c", script, "eval", "--checkpoint", str(ckpt),
                               "--episodes", "20"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        threads, _, report = proc.stdout.partition("\n")
        return threads, report

    def test_one_thread_unless_set(self, tmp_path):
        threads, report = self.run(tmp_path, {})
        assert threads == "1 1"
        assert self.run(tmp_path, {"OPENBLAS_NUM_THREADS": "2"}) == ("2 1", report)
        assert self.run(tmp_path, {"OMP_NUM_THREADS": "2"}) == ("1 2", report)


class TestLogEnvVar:
    def test_bad_level_rejected(self, monkeypatch, capsys):
        monkeypatch.setenv("LOADER_RL_LOG", "verbose")
        assert main(["eval", "--scripted", "--episodes", "1"]) == 1
        assert "LOADER_RL_LOG" in capsys.readouterr().err

    def test_levels_accepted(self, monkeypatch):
        monkeypatch.setenv("LOADER_RL_LOG", "info")
        assert main(["eval", "--scripted", "--episodes", "1"]) == 0

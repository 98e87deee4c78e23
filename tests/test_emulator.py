"""Deployment-emulation tests: delay buffer, PID, decimation, and the
delayed-sensing failure reproduction."""

import math

import pytest

from loader_rl import emulator as emulator_module
from loader_rl.emulator import (
    DelayBuffer,
    EmulatedEnv,
    EmulationConfig,
    PidGains,
    PidState,
    braking_onset_time,
    final_overshoot,
    pid_throttle,
    run_emulated_episode,
)
from loader_rl.env import ApproachEnv, EnvConfig, Observation, Outcome
from loader_rl.evaluate import evaluate_policy, greedy_policy_fn, run_episode, run_episodes
from loader_rl.oracle import LatchedBrakePolicy, OracleConfig
from loader_rl.sim import BrakeModel, Controls
from loader_rl.trace import BASE_COLUMNS
from tests.test_hold import bits, play_lane, snapshot

ORACLE = OracleConfig()


def scripted(obs: Observation) -> Controls:
    return ORACLE.rule(obs)


class TestDelayBuffer:
    def make(self, delay):
        buf = DelayBuffer(delay)
        for t in range(6):  # samples at t = 0..5
            buf.append(float(t), (float(t) * 2.0, 0.0))
        return buf

    def test_reads_sample_from_delay_ago(self):
        buf = self.make(3.0)
        assert buf.read(5.0) == (4.0, 0.0)  # stamped t=2

    def test_holds_initial_sample_during_startup(self):
        buf = self.make(3.0)
        assert buf.read(1.0) == (0.0, 0.0)
        assert buf.read(2.9) == (0.0, 0.0)

    def test_zero_delay_passes_newest(self):
        buf = self.make(0.0)
        assert buf.read(5.0) == (10.0, 0.0)

    def test_timestamps_must_increase(self):
        buf = self.make(1.0)
        with pytest.raises(ValueError):
            buf.append(5.0, (0.0, 0.0))
        with pytest.raises(ValueError):
            buf.append(4.0, (0.0, 0.0))

    def test_empty_read_rejected(self):
        with pytest.raises(ValueError):
            DelayBuffer(1.0).read(0.0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            DelayBuffer(-1.0)


class TestPidThrottle:
    def test_zero_error_leaves_integral_term_only(self):
        state = PidState(integral=0.5, prev_error=0.0)
        gains = PidGains(kp=0.8, ki=0.3, kd=0.1)
        command, new_state = pid_throttle(state, 2.0, 2.0, 0.1, gains)
        assert command == pytest.approx(0.3 * 0.5, abs=1e-12)
        assert new_state.integral == pytest.approx(0.5)

    def test_proportional_only(self):
        command, _ = pid_throttle(PidState(), 2.0, 1.0, 0.1, PidGains(kp=0.5, ki=0.0, kd=0.0))
        assert command == pytest.approx(0.5, abs=1e-12)

    def test_integral_clamps_at_limit(self):
        gains = PidGains(kp=0.0, ki=1.0, kd=0.0, integral_limit=1.5)
        state = PidState()
        for _ in range(100):
            command, state = pid_throttle(state, 2.0, 0.0, 0.5, gains)
        assert state.integral == 1.5
        assert command == 1.0  # output also clamped

    def test_output_clamped_to_unit_range(self):
        command, _ = pid_throttle(PidState(), 2.0, -50.0, 0.1, PidGains(kp=10.0))
        assert command == 1.0
        command, _ = pid_throttle(PidState(), 0.0, 50.0, 0.1, PidGains(kp=10.0))
        assert command == -1.0

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            pid_throttle(PidState(), 2.0, 1.0, 0.0, PidGains())


class TestEmulationConfig:
    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            EmulationConfig(position_delay=-1.0)

    def test_rejects_bad_control_interval(self):
        for interval in (0, -1):
            with pytest.raises(ValueError, match="control_interval must be > 0"):
                EmulationConfig(control_interval=interval)

    def test_steps_per_decision(self):
        # one integer setting, spelled as train.control_interval
        assert EmulationConfig().control_interval == 10
        assert EmulationConfig(control_interval=1).control_interval == 1


def degenerate_emulation():
    return EmulationConfig(
        position_delay=0.0, control_interval=1, brake_model=BrakeModel.IDEAL,
        start_from_standstill=False,
    )


class TestDegenerateEquality:
    def test_matches_plain_environment_bit_for_bit(self):
        for seed in (0, 7, 42):
            trace_emu = run_emulated_episode(scripted, degenerate_emulation(), seed)
            _, trace_env = run_episode(ApproachEnv(), scripted, seed, collect_trace=True)
            assert len(trace_emu.rows) == len(trace_env.rows)
            assert trace_emu.outcome == trace_env.outcome
            for r_env, r_emu in zip(trace_env.rows, trace_emu.rows):
                for col in BASE_COLUMNS:
                    assert r_emu[col] == r_env[col], f"column {col} differs at step {r_env['step']}"

    def test_utm_origin_does_not_perturb_behavior(self):
        emu0 = degenerate_emulation()
        emu1 = EmulationConfig(
            position_delay=0.0, control_interval=1, brake_model=BrakeModel.IDEAL,
            start_from_standstill=False, utm_origin=(652000.0, 6860000.0),
        )
        a = run_emulated_episode(scripted, emu0, 3)
        b = run_emulated_episode(scripted, emu1, 3)
        assert a.column("x") == b.column("x")
        assert b.rows[0]["true_x"] == pytest.approx(652000.0 + b.rows[0]["x"], abs=1e-6)


class TestDecimation:
    def test_one_decision_per_ten_plant_steps(self):
        emu = EmulationConfig(position_delay=0.0, control_interval=10)
        trace = run_emulated_episode(LatchedBrakePolicy(ORACLE), emu, 5)
        brake = trace.column("brake_action")
        command = trace.column("pid_command")
        # actions and pid commands only change on rows where step-1 is a
        # multiple of ten (decision ticks)
        for i in range(1, len(trace.rows)):
            if i % 10 != 0:
                assert brake[i] == brake[i - 1]
                assert command[i] == command[i - 1]

    def test_delayed_observation_holds_start_early_on(self):
        # 1 s into motion at cruise with a 3 s delay the sensed position is
        # still the starting point
        emu = EmulationConfig(position_delay=3.0, control_interval=10, start_from_standstill=False)
        trace = run_emulated_episode(lambda o: Controls(0, 1), emu, 9)
        one_second = [r for r in trace.rows if abs(r["t"] - 1.0) < 1e-9][0]
        assert one_second["delayed_x"] == trace.rows[0]["delayed_x"]
        assert one_second["delayed_y"] == trace.rows[0]["delayed_y"]
        assert math.hypot(one_second["x"], one_second["y"]) == pytest.approx(2.0, abs=0.05)


class TestDelayedBrakingReproduction:
    def test_overshoot_monotone_in_delay(self):
        cfg = EnvConfig()
        overshoots = []
        onsets = []
        for delay in (0.0, 1.0, 2.0, 3.0):
            emu = EmulationConfig(position_delay=delay)
            trace = run_emulated_episode(LatchedBrakePolicy(ORACLE), emu, 11)
            overshoots.append(final_overshoot(trace, cfg))
            onsets.append(braking_onset_time(trace))
        for a, b in zip(overshoots, overshoots[1:]):
            assert b >= a - 1e-12
        assert overshoots[3] > overshoots[0]
        assert all(o is not None for o in onsets)
        for a, b in zip(onsets, onsets[1:]):
            assert b > a

    def test_zero_delay_tapered_run_succeeds(self):
        emu = EmulationConfig(position_delay=0.0)
        trace = run_emulated_episode(LatchedBrakePolicy(ORACLE), emu, 11)
        assert trace.outcome is Outcome.SUCCESS
        assert final_overshoot(trace, EnvConfig()) < EnvConfig().vicinity

    def test_pedal_fraction_decays_while_held(self):
        emu = EmulationConfig(position_delay=0.0)
        trace = run_emulated_episode(LatchedBrakePolicy(ORACLE), emu, 11)
        pedal = [r["pedal_fraction"] for r in trace.rows if r["brake_action"] == 1]
        assert pedal[0] == pytest.approx(0.6)
        assert all(b <= a for a, b in zip(pedal, pedal[1:]))
        assert pedal[-1] < 0.6


class TestPidSpeedSettling:
    def test_settles_near_cruise_within_five_seconds(self):
        cfg = EnvConfig(target_distance=30.0, vicinity=1.0, out_of_range_radius=40.0,
                        max_episode_time=8.0)
        emu = EmulationConfig(position_delay=0.0, control_interval=10)
        trace = run_emulated_episode(lambda o: Controls(0, 1), emu, 13, cfg)
        late = [r["speed"] for r in trace.rows if r["t"] >= 5.0]
        assert late, "episode ended before 5 s"
        assert all(abs(v - 2.0) <= 0.1 for v in late)


class TestCheckpointPolicyPath:
    def test_checkpoint_runs_with_own_config(self):
        from tests.test_checkpoint import make_checkpoint

        ckpt = make_checkpoint()
        trace = run_emulated_episode(greedy_policy_fn(ckpt.params), degenerate_emulation(), 0,
                                     ckpt.env_config, ckpt.vehicle_params)
        assert len(trace.rows) > 0


class TestEmulatedEnv:
    def test_degenerate_evaluation_report_matches_plain_environment(self):
        emulated = evaluate_policy(EmulatedEnv(degenerate_emulation()), scripted, 100, 0)
        plain = evaluate_policy(ApproachEnv(), scripted, 100, 0)
        assert emulated.to_text() == plain.to_text()

    def test_hold_runs_at_the_emulated_control_rate(self):
        # deciding every plant step would run the PID at dt instead of the
        # emulated control period
        env = EmulatedEnv(EmulationConfig(position_delay=0.0, control_interval=10))
        with pytest.raises(ValueError, match=r"control_interval=10 plant steps, got steps=1"):
            evaluate_policy(env, scripted, 1, 0)
        report = evaluate_policy(env, scripted, 1, 0, decision_interval=10)
        assert report.overall.n == 1

    def test_hold_checks_the_episode_before_the_pid(self):
        env = EmulatedEnv(EmulationConfig(control_interval=10))
        with pytest.raises(RuntimeError, match="^call reset before step$"):
            env.hold(Controls(0, 1), 10)
        assert not hasattr(env, "command") and not hasattr(env, "_pid")
        env.reset(3)
        play_lane(env, scripted, 10)
        command, pid = env.command, env._pid
        for hold in (lambda: env.hold(Controls(1, 1), 10), lambda: play_lane(env, scripted, 10)):
            with pytest.raises(RuntimeError, match="^cannot step a finished episode"):
                hold()
            assert bits(env.command) == bits(command) and env._pid is pid

    def test_step_is_the_one_step_hold(self):
        """``step`` runs the emulated plant: PID, tapered brake and sensor."""
        emu = EmulationConfig(position_delay=0.5, control_interval=1)
        stepped, held = EmulatedEnv(emu), EmulatedEnv(emu)
        stepped.reset(4)
        held.reset(4)

        def sensed(env):
            return [tuple(map(bits, row)) for row in (env.trace_extra(), *env._buffer._samples)]

        pedals = []
        while not stepped.done:
            action = scripted(stepped.obs)
            got = stepped.step(action)
            held.hold(action, 1)
            assert got == (held.obs, held.breakdown, held.done)
            assert (snapshot(stepped.state, stepped.obs, stepped.breakdown, stepped.episode_reward)
                    == snapshot(held.state, held.obs, held.breakdown, held.episode_reward))
            assert sensed(stepped) == sensed(held)
            assert stepped._pid == held._pid
            # from a standstill the PID accelerates; the bare plant would snap to cruise
            assert stepped.step_count > 1 or stepped.speed < stepped.params.cruise_speed
            pedals.append(stepped.brake_pedal)
        assert 0.0 < min(p for p in pedals if p > 0.0) < max(pedals)  # tapered

    def test_step_needs_a_control_interval_of_one(self):
        env = EmulatedEnv(EmulationConfig(control_interval=10))
        env.reset(4)
        with pytest.raises(ValueError, match=r"control_interval=10 plant steps, got steps=1"):
            env.step(Controls(0, 1))
        assert env.step_count == 0

    @pytest.mark.parametrize("lanes", [1, 3], ids=["play", "lanes"])
    def test_an_episode_enters_the_kernel_once(self, monkeypatch, lanes):
        """The PID runs once per hold and the sensor once per plant step,
        inside one kernel entry per episode, alone or among lockstep lanes."""
        counts = {"kernel": 0, "pid": 0, "sense": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return call

        emu = EmulationConfig(position_delay=0.5, control_interval=10)
        envs = [EmulatedEnv(emu) for _ in range(lanes)]
        monkeypatch.setattr(ApproachEnv, "_kernel", counted("kernel", ApproachEnv._kernel))
        monkeypatch.setattr(emulator_module, "pid_throttle", counted("pid", pid_throttle))
        monkeypatch.setattr(EmulatedEnv, "_sense", counted("sense", EmulatedEnv._sense))
        run_episodes(envs, LatchedBrakePolicy(ORACLE), list(range(lanes)), decision_interval=10)
        steps = [env.step_count for env in envs]
        assert counts == {"kernel": lanes, "pid": sum(-(-n // 10) for n in steps),
                          # reset senses the start position
                          "sense": sum(steps) + lanes}


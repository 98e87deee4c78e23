"""Environment, reward and trace tests.

Reward expectations are frozen from hand arithmetic on the shaping
formula: progress = prev_distance - curr_distance, lift term =
scale * (min(curr, 0.95) - min(prev, 0.95)), time term = -tc * step.
"""

import copy
import dataclasses
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loader_rl.env import (
    ApproachEnv,
    EnvConfig,
    Observation,
    Outcome,
    RewardBreakdown,
    build_observation,
    compute_reward,
    step,
    target_from_heading,
)
from loader_rl.sim import BrakeModel, Controls, VehicleParams, VehicleState
from loader_rl.trace import read_trace_csv, write_trace_csv
from tests.test_hold import record_bits

CFG = EnvConfig()
SCALE = CFG.lift_reward_scale  # 5.0 / 0.45


class TestTargetFromHeading:
    def test_heading_zero_points_along_y(self):
        assert target_from_heading((0.0, 0.0), 0.0, 5.0) == pytest.approx((0.0, 5.0))

    def test_quarter_turn_points_along_x(self):
        tx, ty = target_from_heading((0.0, 0.0), math.pi / 2, 5.0)
        assert (tx, ty) == pytest.approx((5.0, 0.0), abs=1e-12)

    def test_diagonal(self):
        tx, ty = target_from_heading((0.0, 0.0), math.pi / 4, 5.0)
        assert tx == pytest.approx(3.53553, abs=1e-5)
        assert ty == pytest.approx(3.53553, abs=1e-5)

    def test_offset_start(self):
        tx, ty = target_from_heading((2.0, -1.0), 0.0, 5.0)
        assert (tx, ty) == pytest.approx((2.0, 4.0))

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            target_from_heading((0.0, 0.0), 0.0, 0.0)


def reset_state(seed, heading=None):
    """The state and the first observation of a fresh episode."""
    env = ApproachEnv(CFG)
    obs = env.reset(seed, heading=heading)
    return env.state, obs


class TestReset:
    def test_same_seed_identical_state(self):
        a, obs_a = reset_state(123)
        b, obs_b = reset_state(123)
        assert a.vehicle == b.vehicle
        assert (a.target_x, a.target_y) == (b.target_x, b.target_y)
        assert obs_a == obs_b

    def test_heading_override_zero_gives_target_ahead(self):
        env, obs = reset_state(7, heading=0.0)
        assert (env.target_x, env.target_y) == pytest.approx((0.0, 5.0))
        assert obs.rel_y == pytest.approx(5.0)

    def test_initial_observation_on_five_metre_circle(self):
        for seed in range(20):
            _, obs = reset_state(seed)
            assert obs.rel_x**2 + obs.rel_y**2 == pytest.approx(25.0, abs=1e-9)

    def test_initial_speed_and_lift(self):
        for seed in range(30):
            env, obs = reset_state(seed)
            assert obs.speed == VehicleParams().cruise_speed
            assert 0.47 <= obs.lift <= 0.53
            assert env.prev_distance == 5.0
            assert env.step_count == 0

    def test_headings_cover_the_circle(self):
        headings = [reset_state(s)[0].vehicle.heading for s in range(200)]
        assert min(headings) < 0.5
        assert max(headings) > 5.5
        assert all(0.0 <= h < 2.0 * math.pi for h in headings)

    @pytest.mark.parametrize("heading", [None, 0.0, -0.0, math.pi / 2, 4.0])
    def test_returned_observation_is_the_one_read(self, heading):
        env = ApproachEnv(CFG)
        for seed in range(20):
            obs = env.reset(seed, heading=heading)
            assert record_bits(obs) == record_bits(env.obs)

    @pytest.mark.parametrize("heading", [math.inf, -math.inf, math.nan])
    def test_non_finite_heading_rejected(self, heading):
        with pytest.raises(ValueError, match=rf"^heading must be finite, got {heading!r}$"):
            ApproachEnv(CFG).reset(1, heading=heading)

    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.0, "3", None])
    def test_seed_that_is_not_a_non_negative_integer_rejected(self, seed):
        env = ApproachEnv(CFG)
        want = rf"^seed must be an integer >= 0, got {re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match=want):
            env.reset(seed)
        assert env.done is None

    @pytest.mark.parametrize("seed", [0, np.int64(7), 2**70])
    def test_integer_seeds_accepted(self, seed):
        assert ApproachEnv(CFG).reset(seed) == ApproachEnv(CFG).reset(int(seed))


class TestBuildObservation:
    def test_at_target_zero_offsets(self):
        env, _ = reset_state(1, heading=0.0)
        env = dataclasses.replace(env, vehicle=VehicleState(
            x=0.0, y=5.0, heading=0.0, speed=1.0, lift=0.6, elapsed=1.0
        ))
        obs = build_observation(env)
        assert (obs.rel_x, obs.rel_y) == (0.0, 0.0)
        assert obs.speed == 1.0
        assert obs.lift == 0.6

    def test_past_target_absolute_values(self):
        env, _ = reset_state(1, heading=0.0)
        env = dataclasses.replace(env, vehicle=VehicleState(
            x=0.2, y=5.3, heading=0.0, speed=2.0, lift=0.5, elapsed=1.0
        ))
        obs = build_observation(env)
        assert obs.rel_x == pytest.approx(0.2)
        assert obs.rel_y == pytest.approx(0.3)


# Hand-built branch table. Columns:
# (prev_d, curr_d, prev_l, curr_l, speed, step, o_r, t_m, expected_total, outcome)
REWARD_CASES = [
    # failure flags dominate everything
    (5.0, 4.9, 0.5, 0.52, 2.0, 10, True, False, -1.0, Outcome.OUT_OF_RANGE),
    (5.0, 4.9, 0.5, 0.52, 2.0, 750, False, True, -1.0, Outcome.TIMEOUT),
    (1.0, 0.9, 0.96, 0.97, 0.0, 100, True, True, -1.0, Outcome.OUT_OF_RANGE),
    # success branch, strictly inside all three thresholds
    (1.3, 1.2, 0.96, 0.96, 0.05, 150, False, False, 1.0, Outcome.SUCCESS),
    (1.5, 1.499, 0.95, 0.951, 0.099, 200, False, False, 1.0, Outcome.SUCCESS),
    # boundary cases sit exactly on a threshold -> shaping branch
    # d=1.5: progress 0.1, lift flat, time -1e-4*100
    (1.6, 1.5, 0.96, 0.96, 0.05, 100, False, False, 0.1 - 1e-4 * 100, Outcome.RUNNING),
    # v=0.1: inside vicinity but not slow enough
    (1.3, 1.2, 0.96, 0.96, 0.1, 100, False, False, 0.1 - 1e-4 * 100, Outcome.RUNNING),
    # lift exactly at goal (needs strictly greater)
    (1.3, 1.2, 0.95, 0.95, 0.05, 100, False, False, 0.1 - 1e-4 * 100, Outcome.RUNNING),
    # pure progress, tc contribution at step 1
    (5.00, 4.96, 0.5, 0.5, 2.0, 1, False, False, 0.04 - 1e-4, Outcome.RUNNING),
    # pure lift shaping: scale * 0.015
    (4.0, 4.0, 0.500, 0.515, 2.0, 1, False, False, SCALE * 0.015 - 1e-4, Outcome.RUNNING),
    # lift capped at the goal: only the sub-goal part pays
    (4.0, 4.0, 0.94, 0.96, 2.0, 1, False, False, SCALE * 0.01 - 1e-4, Outcome.RUNNING),
    # moving away from the target is negative progress
    (4.0, 4.2, 0.96, 0.96, 2.0, 50, False, False, -0.2 - 1e-4 * 50, Outcome.RUNNING),
]


class TestComputeReward:
    @pytest.mark.parametrize("case", REWARD_CASES)
    def test_branch_table(self, case):
        prev_d, curr_d, prev_l, curr_l, speed, step_count, o_r, t_m, expected, outcome = case
        rb = compute_reward(prev_d, curr_d, prev_l, curr_l, speed, step_count, o_r, t_m, CFG)
        assert rb.total == pytest.approx(expected, abs=1e-12)
        assert rb.outcome is outcome
        assert rb.done is (outcome is not Outcome.RUNNING)
        if outcome is not Outcome.RUNNING:
            assert rb.total in (-1.0, 1.0)
            assert rb.progress_term == rb.lift_term == rb.time_term == 0.0
        assert rb.total == pytest.approx(
            rb.progress_term + rb.lift_term + rb.time_term + rb.terminal_term, abs=1e-15
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            compute_reward(float("nan"), 4.0, 0.5, 0.5, 2.0, 1, False, False, CFG)
        with pytest.raises(ValueError):
            compute_reward(5.0, 4.0, 0.5, 0.5, 2.0, 0, False, False, CFG)

    @pytest.mark.parametrize("index,name", enumerate(
        ["prev_distance", "curr_distance", "prev_lift", "curr_lift", "speed"]))
    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_non_finite_error_names_the_field(self, index, name, bad):
        args = [5.0, 4.0, 0.5, 0.5, 2.0]
        args[index] = bad
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got {bad!r}$"):
            compute_reward(*args, 1, False, False, CFG)


def run_fixed_policy(env: ApproachEnv, decide, seed=0, heading=None):
    obs = env.reset(seed, heading=heading)
    breakdowns = []
    done = False
    while not done:
        obs, rb, done = env.step(decide(obs))
        breakdowns.append(rb)
    return breakdowns


class TestStepEpisodes:
    def test_never_braking_runs_out_of_range(self):
        env = ApproachEnv()
        rbs = run_fixed_policy(env, lambda o: Controls(0, 0), seed=3)
        assert rbs[-1].outcome is Outcome.OUT_OF_RANGE
        assert rbs[-1].total == -1.0
        # straight line at 2 m/s crosses the 10 m radius after 5 s, i.e.
        # near step 250 (exactly-on-the-circle rounding may add a step)
        assert len(rbs) in (250, 251)
        assert env.state.vehicle.elapsed == pytest.approx(5.0, abs=0.05)

    def test_braking_from_start_times_out(self):
        env = ApproachEnv()
        rbs = run_fixed_policy(env, lambda o: Controls(1, 1), seed=3)
        assert rbs[-1].outcome is Outcome.TIMEOUT
        assert rbs[-1].total == -1.0
        assert len(rbs) == 750  # 15 s at 50 Hz
        # stopped roughly v^2/(2a) ~ 1 m in, far outside the vicinity
        d = math.hypot(env.state.target_x - env.state.vehicle.x,
                       env.state.target_y - env.state.vehicle.y)
        assert d == pytest.approx(4.0, abs=0.1)

    def test_functional_step_leaves_its_input_unchanged(self):
        env, _ = reset_state(4)
        params = VehicleParams()
        for action in [Controls(0, 1)] * 3 + [Controls(1, 1)] * 3:
            before = copy.copy(env)
            vehicle = env.vehicle
            vehicle_fields = dataclasses.astuple(vehicle)
            new_env, _, _, _ = step(env, action, CFG, params, brake_model=BrakeModel.TAPERED)
            assert new_env is not env and new_env.vehicle is not vehicle
            assert env == before
            assert env.vehicle is vehicle
            assert dataclasses.astuple(vehicle) == vehicle_fields
            env = new_env
        assert env.step_count == 6 and env.vehicle.brake_pedal > 0.0

    def test_step_after_done_raises(self):
        env = ApproachEnv()
        run_fixed_policy(env, lambda o: Controls(0, 0), seed=3)
        with pytest.raises(RuntimeError):
            env.step(Controls(0, 0))

    def test_same_seed_same_actions_identical_trace(self):
        def collect():
            env = ApproachEnv()
            rng = np.random.default_rng(99)
            obs = env.reset(11)
            rows = []
            done = False
            while not done:
                a = Controls(int(rng.random() < 0.5), int(rng.random() < 0.5))
                obs, rb, done = env.step(a)
                rows.append((env.state.vehicle, rb))
            return rows

        a, b = collect(), collect()
        assert len(a) == len(b)
        for (va, ra), (vb, rbb) in zip(a, b):
            assert va == vb
            assert ra == rbb

    def test_exactly_one_branch_per_step(self):
        env = ApproachEnv()
        rng = np.random.default_rng(5)
        for ep in range(5):
            obs = env.reset(ep)
            done = False
            while not done:
                a = Controls(int(rng.random() < 0.3), int(rng.random() < 0.7))
                obs, rb, done = env.step(a)
                if rb.outcome is Outcome.RUNNING:
                    assert rb.terminal_term == 0.0 and not rb.done
                else:
                    assert rb.total in (-1.0, 1.0) and rb.done
                    assert rb.progress_term == rb.lift_term == rb.time_term == 0.0


class TestStepRecords:
    def test_observation_and_reward_are_named_tuples(self):
        obs = Observation(3.0, 4.5, 2.0, 0.75)
        rb = RewardBreakdown(0.03, 0.02, -0.001, 0.0, 0.049, False, Outcome.RUNNING)
        assert obs == (3.0, 4.5, 2.0, 0.75) and obs.speed == 2.0
        assert rb == (0.03, 0.02, -0.001, 0.0, 0.049, False, Outcome.RUNNING)
        assert repr(obs) == "Observation(rel_x=3.0, rel_y=4.5, speed=2.0, lift=0.75)"
        for record in (obs, rb):
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, 9.0)

    def test_step_records_equal_public_ones(self):
        env = ApproachEnv()
        env.reset(2)
        done = False
        while not done:
            obs, rb, done = env.step(Controls(int(env.state.step_count > 100), 1))
            for record in (obs, rb, env.state.vehicle):
                values = record if isinstance(record, tuple) else dataclasses.astuple(record)
                rebuilt = type(record)(*values)
                assert record == rebuilt and repr(record) == repr(rebuilt)
                assert hash(record) == hash(rebuilt)
        assert rb.outcome is not Outcome.RUNNING


class TestShapingProperties:
    def test_progress_telescopes_to_endpoint_difference(self):
        env = ApproachEnv(EnvConfig(time_penalty_tc=0.0))
        rng = np.random.default_rng(17)
        obs = env.reset(21)
        initial = env.state.prev_distance
        progress_sum = 0.0
        done = False
        while not done:
            a = Controls(int(rng.random() < 0.4), 1)
            obs, rb, done = env.step(a)
            if not done:
                progress_sum += rb.progress_term
                final = env.state.prev_distance
        assert progress_sum == pytest.approx(initial - final, abs=1e-9)

    def test_lift_shaping_sums_to_scale_times_range(self):
        # start exactly at 0.5, brake forever: lift rises monotonically to
        # 1.0 while the vehicle stops far from the target, episode times out
        cfg = EnvConfig(lift_start_jitter=0.0)
        env = ApproachEnv(cfg)
        env.reset(2)
        assert env.state.vehicle.lift == 0.5
        lift_sum = 0.0
        done = False
        while not done:
            _, rb, done = env.step(Controls(1, 1))
            lift_sum += rb.lift_term
        assert rb.outcome is Outcome.TIMEOUT
        assert lift_sum == pytest.approx(cfg.lift_reward_scale * 0.45, abs=1e-9)

    def test_path_independence_of_shaping_with_zero_tc(self):
        # same brake pattern (none) and the same total lifting time placed
        # differently: identical endpoints, so identical shaping totals
        cfg = EnvConfig(time_penalty_tc=0.0, lift_start_jitter=0.0, max_episode_time=100.0)
        rng = np.random.default_rng(8)
        totals = []
        plans = [[1] * 30 + [0] * 20, [0] * 20 + [1] * 30]
        for _ in range(3):
            lift_steps = list(rng.permutation([1] * 30 + [0] * 20))
            plans.append([int(v) for v in lift_steps])
        for plan in plans:
            env = ApproachEnv(cfg)
            env.reset(4, heading=1.0)
            total = 0.0
            for lift_up in plan:
                _, rb, done = env.step(Controls(0, lift_up))
                assert not done
                total += rb.total
            totals.append(total)
        for t in totals[1:]:
            assert t == pytest.approx(totals[0], abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_observation_components_always_nonnegative(seed):
    env = ApproachEnv()
    obs = env.reset(seed)
    rng = np.random.default_rng(seed + 1)
    done = False
    k = 0
    while not done and k < 120:
        assert obs.rel_x >= 0.0 and obs.rel_y >= 0.0
        obs, _, done = env.step(Controls(int(rng.random() < 0.5), int(rng.random() < 0.5)))
        k += 1


class TestTraceCsv:
    def _trace(self, normalized=False):
        from loader_rl.evaluate import run_episode
        from loader_rl.oracle import OracleConfig

        env = ApproachEnv()
        oracle = OracleConfig()
        result, trace = run_episode(env, oracle.rule, 8, collect_trace=True)
        trace.config_digest = "deadbeef"
        return result, trace

    def test_row_count_equals_steps(self):
        result, trace = self._trace()
        assert len(trace.rows) == result.length

    def test_rows_must_fill_every_column(self):
        _, trace = self._trace()
        with pytest.raises(ValueError, match="has 14 values for 15 columns"):
            trace.add_step(trace.values[-1][:-1])
        assert [tuple(row.values()) for row in trace.rows] == trace.values
        assert all(list(row) == trace.columns for row in trace.rows)

    def test_round_trip(self, tmp_path):
        from loader_rl.emulator import EmulationConfig, run_emulated_episode
        from loader_rl.oracle import LatchedBrakePolicy, OracleConfig

        _, plain = self._trace()
        # the emulator's six extra columns read back too
        emulated = run_emulated_episode(LatchedBrakePolicy(OracleConfig()), EmulationConfig(), 8)
        emulated.config_digest = "deadbeef"
        assert len(emulated.columns) == len(plain.columns) + 6
        for trace in (plain, emulated):
            p = tmp_path / "trace.csv"
            write_trace_csv(trace, str(p))
            back = read_trace_csv(str(p))
            assert back.columns == trace.columns
            assert back.config_digest == "deadbeef"
            assert back.initial_distance == trace.initial_distance
            assert back.initial_lift == trace.initial_lift
            assert len(back.rows) == len(trace.rows)
            for a, b in zip(trace.rows, back.rows):
                assert a == b

    def test_round_trip_through_a_path_object(self, tmp_path):
        # a pathlib.Path, str or bytes path and an open file all name the same file
        _, trace = self._trace()
        p = tmp_path / "trace.csv"
        write_trace_csv(trace, p)
        with open(p) as f:
            for source in (p, str(p), bytes(p), f):
                back = read_trace_csv(source)
                assert back.values == trace.values and back.columns == trace.columns
        write_trace_csv(trace, str(tmp_path / "str.csv"))
        assert p.read_bytes() == (tmp_path / "str.csv").read_bytes()

    def test_normalized_columns_in_unit_range(self):
        _, trace = self._trace()
        buf = io.StringIO()
        write_trace_csv(trace, buf, normalized=True)
        buf.seek(0)
        back = read_trace_csv(buf)
        for col in back.columns:
            if col == "outcome":
                continue
            values = back.column(col)
            assert min(values) >= 0.0 and max(values) <= 1.0
        # cruise speed is reached, so the speed column peaks at exactly 1
        assert max(back.column("speed")) == 1.0

    @pytest.mark.parametrize("column, cell, message", [
        ("x", "nan", "expected a finite number, got 'nan'"),
        ("lift", "inf", "expected a finite number, got 'inf'"),
        ("reward_total", "-inf", "expected a finite number, got '-inf'"),
        ("speed", "abc", "could not convert string to float: 'abc'"),
        ("step", "1.5", "invalid literal for int"),
    ])
    def test_bad_cell_names_its_line(self, column, cell, message):
        _, trace = self._trace()
        buf = io.StringIO()
        write_trace_csv(trace, buf)
        lines = buf.getvalue().splitlines()
        # line 4 is the header row, line 5 the first step, line 7 the third
        cells = lines[6].split(",")
        cells[trace.columns.index(column)] = cell
        lines[6] = ",".join(cells)
        with pytest.raises(ValueError, match=f"^line 7: {re.escape(message)}"):
            read_trace_csv(io.StringIO("\n".join(lines)))

    @pytest.mark.parametrize("key, lineno", [("initial_distance", 2), ("initial_lift", 3)])
    @pytest.mark.parametrize("value, message", [
        ("nan", "expected a finite number, got 'nan'"),
        ("1e999", "expected a finite number, got '1e999'"),
        ("abc", "could not convert string to float: 'abc'"),
    ])
    def test_bad_metadata_names_its_line(self, key, lineno, value, message):
        _, trace = self._trace()
        buf = io.StringIO()
        write_trace_csv(trace, buf)
        lines = buf.getvalue().splitlines(keepends=True)
        assert lines[lineno - 1].startswith(f"# {key}=")
        lines[lineno - 1] = f"# {key}={value}\n"
        with pytest.raises(ValueError, match=f"^line {lineno}: {re.escape(message)}$"):
            read_trace_csv(io.StringIO("".join(lines)))

    def test_deterministic_bytes(self):
        _, trace = self._trace()
        a, b = io.StringIO(), io.StringIO()
        write_trace_csv(trace, a)
        write_trace_csv(trace, b)
        assert a.getvalue() == b.getvalue()

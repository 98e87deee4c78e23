"""Scripted policy, independent reward recomputation, reward bound."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from loader_rl.env import ApproachEnv, EnvConfig, Observation, Outcome
from loader_rl.evaluate import run_episode
from loader_rl.oracle import (
    LatchedBrakePolicy,
    OracleConfig,
    max_reward_bound,
    reward_oracle,
)
from loader_rl.sim import CONTROLS, Controls, VehicleParams
from loader_rl.trace import EpisodeTrace

ORACLE = OracleConfig()


class TestScriptedPolicy:
    def test_far_away_no_brake(self):
        # ideal stopping distance 1.0 m + 0.1 margin is well short of 5 m
        obs = Observation(rel_x=0.0, rel_y=5.0, speed=2.0, lift=0.5)
        assert ORACLE.rule(obs).brake == 0

    def test_brakes_inside_stopping_distance(self):
        obs = Observation(rel_x=0.0, rel_y=1.05, speed=2.0, lift=0.5)
        assert ORACLE.rule(obs).brake == 1

    def test_lift_stops_past_goal(self):
        obs = Observation(rel_x=0.0, rel_y=5.0, speed=2.0, lift=0.96)
        assert ORACLE.rule(obs).lift_up == 0
        obs = Observation(rel_x=0.0, rel_y=5.0, speed=2.0, lift=0.95)
        assert ORACLE.rule(obs).lift_up == 1

    @settings(max_examples=300, deadline=None)
    @given(
        rel_x=st.floats(0.0, 1e308), rel_y=st.floats(0.0, 10.0), speed=st.floats(0.0, 1e160),
        lift=st.floats(0.0, 1.0), ideal_decel=st.floats(1e-300, 1e308),
        margin=st.floats(0.0, 1.0), goal=st.floats(0.01, 0.99),
    )
    # 2 * ideal_decel overflows, so the stopping distance is 0.0; spelt
    # speed * speed / 2.0 / ideal_decel it would be 0.5
    @example(rel_x=0.0, rel_y=0.3, speed=1e154, lift=0.5, ideal_decel=1e308, margin=0.1,
             goal=0.95)
    def test_rule_bits(self, rel_x, rel_y, speed, lift, ideal_decel, margin, goal):
        """The one transcription of the rule: distance <= speed * speed /
        (2 * ideal_decel) + margin."""
        oracle = OracleConfig(brake_margin=margin, env=EnvConfig(lift_goal_frac=goal),
                              vehicle=VehicleParams(ideal_decel=ideal_decel))
        brake = math.hypot(rel_x, rel_y) <= speed * speed / (2.0 * ideal_decel) + margin
        want = CONTROLS[int(brake)][int(lift <= goal)]
        obs = Observation(rel_x, rel_y, speed, lift)
        assert oracle.rule(obs) is want

    def test_stateless(self):
        obs = Observation(rel_x=0.3, rel_y=0.4, speed=1.0, lift=0.7)
        assert ORACLE.rule(obs) == ORACLE.rule(obs)

    def test_heading_sweep_succeeds(self):
        # coarse sweep here; the 1-degree sweep runs in the acceptance suite
        env = ApproachEnv()
        for deg in range(0, 360, 15):
            result, _ = run_episode(
                env, ORACLE.rule, seed=deg,
                heading=math.radians(deg),
            )
            assert result.outcome is Outcome.SUCCESS, f"failed at {deg} deg"
            assert result.reward <= max_reward_bound(env.config) + 1e-9


class TestLatchedBrakePolicy:
    def test_latches_after_first_engagement(self):
        pol = LatchedBrakePolicy(ORACLE)
        far = Observation(rel_x=0.0, rel_y=5.0, speed=2.0, lift=0.5)
        near = Observation(rel_x=0.0, rel_y=0.5, speed=2.0, lift=0.5)
        assert pol(far).brake == 0
        assert pol(near).brake == 1
        assert pol(far).brake == 1  # held even though the trigger cleared
        pol.reset()
        assert pol(far).brake == 0


def collect_trace(env, decide, seed):
    _, trace = run_episode(env, decide, seed, collect_trace=True)
    return trace


def with_values(trace, values):
    """A copy of ``trace`` whose rows are ``values``, added one by one."""
    out = EpisodeTrace(columns=trace.columns, initial_distance=trace.initial_distance,
                       initial_lift=trace.initial_lift)
    for row in values:
        out.add_step(row)
    return out


class TestRewardOracle:
    def test_matches_environment_on_1000_random_episodes(self):
        # a shrunken task (tight range/time caps) keeps episodes to a few
        # dozen steps while still producing every outcome kind
        cfg = EnvConfig(target_distance=2.0, vicinity=0.5, out_of_range_radius=2.5,
                        max_episode_time=1.5, lift_goal_frac=0.55)
        env = ApproachEnv(cfg)
        rng = np.random.default_rng(0)
        outcomes = set()
        worst = 0.0
        for ep in range(1000):
            p_brake = rng.uniform(0.0, 0.9)
            decide = lambda o: Controls(int(rng.random() < p_brake), int(rng.random() < 0.6))
            trace = collect_trace(env, decide, ep)
            err = abs(reward_oracle(trace, cfg) - trace.total_reward())
            worst = max(worst, err)
            outcomes.add(trace.outcome)
        assert worst < 1e-9
        assert Outcome.OUT_OF_RANGE in outcomes and Outcome.TIMEOUT in outcomes
        assert Outcome.SUCCESS in outcomes

    def test_matches_on_scripted_success(self):
        env = ApproachEnv()
        trace = collect_trace(env, ORACLE.rule, 5)
        assert trace.outcome is Outcome.SUCCESS
        assert reward_oracle(trace, env.config) == pytest.approx(trace.total_reward(), abs=1e-9)

    def test_out_of_range_final_step_is_minus_one(self):
        env = ApproachEnv()
        trace = collect_trace(env, lambda o: Controls(0, 0), 5)
        assert trace.outcome is Outcome.OUT_OF_RANGE
        assert trace.rows[-1]["reward_total"] == -1.0
        # the oracle reproduces the -1 from raw columns alone
        partial = reward_oracle(trace, env.config)
        trace_no_last = with_values(trace, trace.values[:-1])
        assert partial - reward_oracle(trace_no_last, env.config) == pytest.approx(-1.0, abs=1e-12)

    def test_successful_episode_closed_form(self):
        # telescoped totals for a zero-time-penalty success:
        # (start distance - final) + scale*(goal - lift start) + 1, up to one
        # lift step of quantization at the goal crossing
        cfg = EnvConfig(time_penalty_tc=0.0)
        env = ApproachEnv(cfg)
        oracle = OracleConfig(env=cfg)
        result, trace = run_episode(
            env, oracle.rule, 5, collect_trace=True
        )
        assert result.outcome is Outcome.SUCCESS
        closed_form = (
            (cfg.target_distance - result.final_distance)
            + cfg.lift_reward_scale * (cfg.lift_goal_frac - trace.initial_lift)
            + 1.0
        )
        one_lift_step = cfg.lift_reward_scale * 0.15 * cfg.dt
        assert abs(trace.total_reward() - closed_form) <= one_lift_step + 1e-9

    def test_rejects_malformed_traces(self):
        with pytest.raises(ValueError):
            reward_oracle(EpisodeTrace(), EnvConfig())
        bad = EpisodeTrace(columns=["step", "t"])
        bad.add_step((1, 0.02))
        with pytest.raises(ValueError):
            reward_oracle(bad, EnvConfig())

    @pytest.mark.parametrize("column, value, message", [
        ("x", math.nan, r"row 2: values must be finite, got \{'x': nan\}"),
        ("speed", math.inf, r"row 2: values must be finite, got \{'speed': inf\}"),
        ("rel_x", -1e308, "row 2: distance out of range"),
    ])
    def test_rejects_values_it_cannot_use(self, column, value, message):
        # a NaN position once summed to a finite total, and a huge offset
        # raised OverflowError
        trace = collect_trace(ApproachEnv(), ORACLE.rule, 5)
        row = list(trace.values[2])
        row[trace.columns.index(column)] = value
        bad = with_values(trace, trace.values[:2] + [tuple(row)] + trace.values[3:])
        with pytest.raises(ValueError, match=message):
            reward_oracle(bad, EnvConfig())


class TestMaxRewardBound:
    def test_default_bound(self):
        assert max_reward_bound(EnvConfig()) == pytest.approx(11.0, abs=1e-12)

    def test_zero_lift_scale(self):
        assert max_reward_bound(EnvConfig(lift_reward_scale=0.0)) == pytest.approx(6.0)

    def test_realized_totals_below_bound_with_time_penalty(self):
        env = ApproachEnv()
        bound = max_reward_bound(env.config)
        for seed in range(25):
            result, _ = run_episode(env, ORACLE.rule, seed)
            assert result.reward < bound
            assert result.reward <= bound + 1e-9

    def test_bound_holds_for_random_policies(self):
        env = ApproachEnv()
        bound = max_reward_bound(env.config)
        rng = np.random.default_rng(3)
        for seed in range(40):
            decide = lambda o: Controls(int(rng.random() < 0.5), int(rng.random() < 0.5))
            result, _ = run_episode(env, decide, seed)
            assert result.reward <= bound + 1e-9

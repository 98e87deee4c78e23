"""Lockstep episodes against a sequential reference, bit for bit.

``run_episodes`` runs many episodes in lockstep, and ``evaluate_policy``
runs its episodes as lanes of it. The reference here is the plain loop:
a fresh env per episode, ``reset``, then ``hold(decide(obs), k)`` until
done. Every result field, every trace value and every report statistic
must equal the reference's bits. The greedy policies' batched decision
(``decide.batch``) is pinned against deciding one observation at a time.
"""

import gc
import inspect
import math
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loader_rl
from loader_rl import evaluate
from loader_rl.checkpoint import load_checkpoint, read_checkpoint
from loader_rl.emulator import EmulatedEnv, EmulationConfig
from loader_rl.env import ApproachEnv, Observation, Outcome
from loader_rl.evaluate import (
    BucketStats,
    EpisodeResult,
    evaluate_policy,
    greedy_policy_fn,
    run_episodes,
)
from loader_rl.oracle import LatchedBrakePolicy, OracleConfig
from loader_rl.policy import ExplorationMode, init_policy
from loader_rl.seeding import substream_seed
from loader_rl.sim import CONTROLS, BrakeModel
from loader_rl.trace import BASE_COLUMNS, EpisodeTrace
from tests.test_checkpoint import GOLDEN, golden_checkpoint
from tests.test_hold import assert_same_records, bits, record_bits

ORACLE = OracleConfig()


def trace_bits(trace: EpisodeTrace) -> tuple:
    return (tuple(trace.columns), bits(trace.initial_distance), bits(trace.initial_lift),
            trace.config_digest, tuple(tuple(map(bits, row)) for row in trace.values))


def report_bits(report) -> tuple:
    return (report.overall.n, record_bits(report.overall), record_bits(report.main),
            record_bits(report.degenerate))


def greedy_params(mode: ExplorationMode):
    """The parameters of ``golden_checkpoint`` (for the threshold mode), in
    the given mode."""
    params = init_policy(4, np.random.default_rng(3), mode)
    for rel_x in (0.0, 1.5, 3.0, 4.5):
        for speed in (0.0, 1.0, 2.0):
            params.obs_normalizer.update(np.array([rel_x, 5.0 - rel_x, speed, 0.5 + 0.1 * speed]))
    return params


class PulsedBrakePolicy:
    """Brakes on every 7th decision since its reset, lifting throughout. Its
    lanes fall out of step only if they share its count: the latched
    policy cannot show that, as every episode reaches its trigger
    distance at the same plant step."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = 0

    def __call__(self, obs):
        self.calls += 1
        return CONTROLS[int(self.calls % 7 == 0)][1]


def make_policy(kind: str):
    if kind == "scripted":
        return ORACLE.rule
    if kind == "latched":
        return LatchedBrakePolicy(ORACLE)
    if kind == "pulsed":
        return PulsedBrakePolicy()
    mode = {"threshold": ExplorationMode.CONTINUOUS_THRESHOLD,
            "bernoulli": ExplorationMode.BERNOULLI}[kind]
    return greedy_policy_fn(greedy_params(mode))


def env_factory(kind: str, interval: int):
    if kind == "emulated":
        # degenerate but for the control rate, which the interval sets
        emu = EmulationConfig(position_delay=0.0, control_interval=interval,
                              brake_model=BrakeModel.IDEAL, start_from_standstill=False)
        return lambda: EmulatedEnv(emu)
    return ApproachEnv


def reference(make_env, decide, seeds, headings, interval, collect_trace):
    """The sequential loop: one fresh env per episode, decided one
    observation at a time."""
    out = []
    for seed, heading in zip(seeds, headings):
        env = make_env()
        if hasattr(decide, "reset"):
            decide.reset()
        env.reset(seed, heading=heading)
        trace = on_step = None
        if collect_trace:
            trace = EpisodeTrace(columns=BASE_COLUMNS + list(env.extra_columns),
                                 initial_distance=env.prev_distance,
                                 initial_lift=env.lift, config_digest="d")
            on_step = trace.add_env_step
        while not env.done:
            env.hold(decide(env.obs), interval, on_step)
        out.append((EpisodeResult(env.episode_reward, env.step_count, env.breakdown.outcome,
                                  env.prev_distance, env.heading), trace))
    return out


def assert_same_episodes(got, want) -> None:
    assert len(got) == len(want)
    for (result, trace), (ref_result, ref_trace) in zip(got, want):
        assert record_bits(result) == record_bits(ref_result)
        assert (trace is None) == (ref_trace is None)
        if trace is not None:
            assert trace_bits(trace) == trace_bits(ref_trace)


def assert_evaluation_matches(make_env, decide, n, seed, interval) -> None:
    report = evaluate_policy(make_env(), decide, n, seed, decision_interval=interval)
    seeds = [substream_seed(seed, "eval", i) for i in range(n)]
    results = [r for r, _ in reference(make_env, decide, seeds, [None] * n, interval, False)]
    main = [r for r in results if not r.degenerate]
    degenerate = [r for r in results if r.degenerate]
    assert report_bits(report) == (
        n, record_bits(BucketStats.from_results(results)),
        record_bits(BucketStats.from_results(main)),
        record_bits(BucketStats.from_results(degenerate)))


@settings(max_examples=40, deadline=None)
@given(
    policy=st.sampled_from(["threshold", "bernoulli", "scripted", "latched", "pulsed"]),
    env_kind=st.sampled_from(["plain", "emulated"]),
    interval=st.sampled_from([1, 10]),
    n=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
    block=st.sampled_from([None, 3]),
    data=st.data(),
)
def test_lockstep_matches_sequential_reference(policy, env_kind, interval, n, seed, block, data):
    make_env = env_factory(env_kind, interval)
    headings = data.draw(st.lists(
        st.one_of(st.none(), st.floats(0.0, 2 * math.pi, exclude_max=True)),
        min_size=n, max_size=n))
    seeds = [seed + i for i in range(n)]
    want = reference(make_env, make_policy(policy), seeds, headings, interval, True)
    got = run_episodes([make_env() for _ in range(n)], make_policy(policy), seeds,
                       headings=headings, collect_trace=True, decision_interval=interval)
    for _, trace in got:
        trace.config_digest = "d"
    assert_same_episodes(got, want)
    with mock.patch.object(evaluate, "_BLOCK", block or evaluate._BLOCK):
        assert_evaluation_matches(make_env, make_policy(policy), n, seed, interval)


@pytest.mark.parametrize("policy", ["threshold", "scripted"])
def test_evaluation_across_a_block_boundary(policy):
    interval = 10 if policy == "threshold" else 1
    assert_evaluation_matches(env_factory("plain", interval), make_policy(policy),
                              evaluate._BLOCK + 1, 7, interval)


def test_evaluation_leaves_the_given_env_alone():
    env = ApproachEnv()
    evaluate_policy(env, make_policy("scripted"), 3, 0)
    assert env.done is None


def test_seeds_past_64_bits_keep_their_own_episodes():
    # the master seed was once masked to 64 bits, so 2**64 replayed seed 0;
    # a seed below 2**64 keeps the value it had then
    assert substream_seed(2**64, "eval") != substream_seed(0, "eval")
    assert substream_seed(2**64 - 1, "eval") == 3323103694877946783


def suspended_kernels() -> list:
    """Generators of the package's code that are suspended, not closed."""
    package = str(Path(loader_rl.__file__).parent)
    return [g for g in gc.get_objects()
            if inspect.isgenerator(g) and g.gi_code.co_filename.startswith(package)
            and inspect.getgeneratorstate(g) == inspect.GEN_SUSPENDED]


class FailingLatched(LatchedBrakePolicy):
    """The latched policy, whose copies (one per lane) share one count of
    calls and raise on call ``fail_on``."""

    def __init__(self, fail_on):
        super().__init__(ORACLE)
        self.calls, self.fail_on = [], fail_on

    def __call__(self, obs):
        self.calls.append(obs)
        if len(self.calls) == self.fail_on:
            raise FloatingPointError(f"call {self.fail_on}")
        return super().__call__(obs)


def decisions_to_end(make_env, decide, seed) -> int:
    env = make_env()
    env.reset(seed)
    n = 0
    while not env.done:
        env.hold(decide(env.obs), 10)
        n += 1
    return n


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("env_kind, batched", [("plain", True), ("emulated", True),
                                               ("plain", False), ("emulated", False)],
                         ids=["plain", "emulated", "plain-unbatched", "emulated-unbatched"])
def test_a_raise_inside_lockstep_leaves_every_lane_consistent(env_kind, batched, trace):
    """``batch`` raises in round 3 of five lanes: each env holds exactly the
    two holds it took, as a hold-by-hold run stopped there does, and no
    lane is left suspended. Without ``batch``, every lane gets its first
    decision and the lanes then run one after another: a policy that
    raises in the third lane's fourth decision leaves the first two lanes
    played to their end, the third at its three holds and the last two
    reset but unstepped, as the hold-by-hold runs give."""
    greedy = greedy_policy_fn(load_checkpoint(GOLDEN).params)
    make_env = ApproachEnv if env_kind == "plain" else lambda: EmulatedEnv(EmulationConfig())
    seeds = [0, 1, 2, 3, 4]
    rounds = []
    if batched:
        def batch(observations):
            rounds.append(len(observations))
            if len(rounds) == 3:
                raise FloatingPointError("round 3")
            return greedy.batch(observations)

        def decide(obs):
            return greedy(obs)

        decide.batch = batch
        message, holds, fresh = "round 3", [2] * 5, lambda: greedy
    else:
        fresh = partial(LatchedBrakePolicy, ORACLE)
        full = [decisions_to_end(make_env, fresh(), seed) for seed in seeds[:3]]
        assert full[2] > 4
        # the five first decisions, the later ones of lanes 1 and 2, two more of lane 3
        fail_on = len(seeds) + (full[0] - 1) + (full[1] - 1) + 3
        decide, message, holds = FailingLatched(fail_on), f"call {fail_on}", full[:2] + [3, 0, 0]
    envs = [make_env() for _ in seeds]
    # the traceback in ``raised`` keeps the driver's locals, any lane included, alive
    with pytest.raises(FloatingPointError, match=message) as raised:
        run_episodes(envs, decide, seeds, collect_trace=trace, decision_interval=10)
    assert raised.value.__traceback__ is not None and suspended_kernels() == []
    assert rounds == ([5, 5, 5] if batched else [])
    for env, seed, n in zip(envs, seeds, holds):
        ref, policy = make_env(), fresh()
        ref.reset(seed)
        for _ in range(n):
            ref.hold(policy(ref.obs), 10)
        assert env.step_count == ref.step_count and (n == 0) == (env.step_count == 0)
        assert_same_records(env, ref)
    assert [env.done for env in envs] == ([False] * 5 if batched
                                          else [True, True, False, False, False])


@pytest.mark.parametrize("round_, change", [(1, -1), (3, -1), (3, 1)],
                         ids=["first-short", "third-short", "third-long"])
def test_a_batch_of_the_wrong_length_raises(round_, change):
    """Actions meet lanes through a strict ``zip``, so a ``batch`` that
    drops or adds an action raises ValueError. Zipped loosely, a short
    first round raised AttributeError from the lane it dropped, a short
    later round reported that lane as a Running episode, and a long round
    passed."""
    greedy = greedy_policy_fn(load_checkpoint(GOLDEN).params)
    rounds = []

    def batch(observations):
        rounds.append(len(observations))
        actions = greedy.batch(observations)
        if len(rounds) == round_:
            actions = actions[:change] if change < 0 else actions + actions[:change]
        return actions

    def decide(obs):
        return greedy(obs)

    decide.batch = batch
    envs = [ApproachEnv() for _ in range(4)]
    with pytest.raises(ValueError, match=r"^zip\(\) argument 2 is (shorter|longer) than"):
        run_episodes(envs, decide, [0, 1, 2, 3], decision_interval=10)
    assert rounds == [4] * round_ and suspended_kernels() == []


def test_lanes_must_be_distinct_and_seeded():
    env = ApproachEnv()
    decide = make_policy("scripted")
    with pytest.raises(ValueError, match="distinct envs"):
        run_episodes([env, env], decide, [0, 1])
    with pytest.raises(ValueError, match="distinct envs"):
        run_episodes([ApproachEnv(), ApproachEnv()], decide, [0])
    with pytest.raises(ValueError, match="distinct envs"):
        run_episodes([ApproachEnv()], decide, [0], headings=[None, 1.0])


@pytest.mark.parametrize("rewards", [[1e308, -1e308], [1e308, 1e308, 0.0], [math.nan, 0.0]])
def test_bucket_statistics_that_are_not_finite_raise(rewards):
    results = [EpisodeResult(r, 10, Outcome.TIMEOUT, 4.0, 0.5) for r in rewards]
    with pytest.raises(FloatingPointError,
                       match=rf"^reward_variance of {len(rewards)} episodes is not finite"):
        BucketStats.from_results(results)


class TestBatchedDecision:
    """``decide.batch`` against deciding one observation at a time."""

    @pytest.fixture(params=["golden", "bernoulli"])
    def decide(self, request, tmp_path):
        if request.param == "golden":
            params = read_checkpoint(str(golden_checkpoint(tmp_path / "golden.ckpt"))).params
        else:
            params = greedy_params(ExplorationMode.BERNOULLI)
        return greedy_policy_fn(params)

    @staticmethod
    def observations(n, seed=0):
        rng = np.random.default_rng(seed)
        low, high = [0.0, 0.0, 0.0, 0.0], [10.0, 10.0, 2.0, 1.0]
        return [Observation(*map(float, row)) for row in rng.uniform(low, high, size=(n, 4))]

    def test_same_controls_as_one_at_a_time(self, decide):
        obs = self.observations(10_000)
        single = [decide(o) for o in obs]
        assert len(set(single)) > 1  # the decisions really vary
        assert decide.batch(obs) == single
        for n in (1, 2, 257):
            assert decide.batch(obs[:n]) == single[:n]

    @pytest.mark.parametrize("dim", [3, 5])
    def test_other_input_size_raises_like_one_at_a_time(self, dim):
        decide = greedy_policy_fn(init_policy(dim, np.random.default_rng(0)))
        obs = self.observations(3)
        with pytest.raises(ValueError, match="does not match policy input") as single:
            decide(obs[0])
        with pytest.raises(ValueError, match="does not match policy input") as batched:
            decide.batch(obs)
        assert str(batched.value) == str(single.value)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("index", range(4))
    def test_non_finite_row_raises_like_one_at_a_time(self, decide, index, bad):
        obs = self.observations(3)
        values = [1.0, 2.0, 1.5, 0.5]
        values[index] = bad
        obs[1] = Observation(*values)
        with pytest.raises(ValueError, match="non-finite values") as single:
            decide(obs[1])
        with pytest.raises(ValueError, match="non-finite values") as batched:
            decide.batch(obs)
        assert str(batched.value) == str(single.value)

"""``ApproachEnv.play`` against the decision loop it stands for, bit for bit.

The reference is ``while not env.done: env.hold(decide(env.obs), k,
on_step)``. ``play(decide, k, on_step)`` runs the same episode inside one
call of the hold kernel, so it must give the same episode records, the
same observations to ``decide``, the same ``on_step`` calls and trace
rows, and, when ``decide`` raises, the same exception with the steps
taken standing. Evaluation plays a scripted episode in one ``hold`` call,
not one per decision, and a batched eval plays only its last lane.
"""

import hashlib
import math
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from loader_rl.checkpoint import load_checkpoint
from loader_rl.emulator import EmulatedEnv, EmulationConfig
from loader_rl.env import ApproachEnv, EnvConfig, Observation
from loader_rl.evaluate import evaluate_policy, greedy_policy_fn, run_episode, run_episodes
from loader_rl.oracle import LatchedBrakePolicy, OracleConfig, scripted_policy
from loader_rl.sim import CONTROLS
from loader_rl.trace import BASE_COLUMNS, EpisodeTrace
from tests.test_checkpoint import GOLDEN
from tests.test_evaluate import PulsedBrakePolicy, assert_same_episodes, reference, trace_bits
from tests.test_hold import built, record_bits, snapshot  # noqa: F401 (a fixture)

ORACLE = OracleConfig()
GREEDY = greedy_policy_fn(load_checkpoint(GOLDEN).params)


def hashed(obs):
    """A deterministic policy that looks random: the controls are two bits
    of the observation's hash, so every ending is reached."""
    h = hashlib.sha256(struct.pack("<4d", *obs)).digest()[0]
    return CONTROLS[h & 1][(h >> 1) & 1]


def make_policy(kind):
    if kind == "scripted":
        return lambda obs: scripted_policy(obs, ORACLE)
    if kind == "latched":
        return LatchedBrakePolicy(ORACLE)
    if kind == "greedy":
        return GREEDY
    return hashed


class Stop(Exception):
    pass


class Recorded:
    """``decide`` that records the bits of each observation it is given
    and raises :class:`Stop` on its ``fail_on``-th call."""

    def __init__(self, decide, fail_on=None):
        self.decide, self.fail_on, self.seen = decide, fail_on, []

    def __call__(self, obs):
        self.seen.append(record_bits(obs))
        if len(self.seen) == self.fail_on:
            raise Stop(f"call {self.fail_on}")
        return self.decide(obs)


def start(config, seed, heading, trace):
    env = ApproachEnv(config)
    env.reset(seed, heading=heading)
    rows = EpisodeTrace(BASE_COLUMNS, initial_distance=env.prev_distance,
                        initial_lift=env.lift) if trace else None
    return env, rows


def on_step(rows):
    return None if rows is None else rows.add_env_step


def episode_bits(env, rows):
    return (snapshot(env.state, env.obs, env.breakdown, env.episode_reward),
            None if rows is None else trace_bits(rows))


def raised(run):
    """The message of the :class:`Stop` that ``run()`` raises, else None."""
    try:
        run()
    except Stop as e:
        return str(e)
    return None


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    heading=st.one_of(st.none(), st.floats(0.0, 2 * math.pi, exclude_max=True)),
    interval=st.integers(1, 12),
    policy=st.sampled_from(["scripted", "latched", "greedy", "hashed"]),
    trace=st.booleans(),
    max_episode_time=st.sampled_from([0.3, 15.0]),
    fail_on=st.one_of(st.none(), st.integers(1, 80)),
)
@example(seed=4, heading=None, interval=1, policy="scripted", trace=False,
         max_episode_time=15.0, fail_on=None)
@example(seed=4, heading=None, interval=3, policy="latched", trace=True,
         max_episode_time=15.0, fail_on=20)
def test_play_equals_the_decision_loop(seed, heading, interval, policy, trace,
                                       max_episode_time, fail_on):
    config = EnvConfig(max_episode_time=max_episode_time)
    ref, ref_rows = start(config, seed, heading, trace)
    ref_decide = Recorded(make_policy(policy), fail_on)

    def loop():
        while not ref.done:
            ref.hold(ref_decide(ref.obs), interval, on_step(ref_rows))

    want = raised(loop)
    env, rows = start(config, seed, heading, trace)
    decide = Recorded(make_policy(policy), fail_on)
    assert raised(lambda: env.play(decide, interval, on_step(rows))) == want
    assert decide.seen == ref_decide.seen
    assert episode_bits(env, rows) == episode_bits(ref, ref_rows)


@pytest.mark.parametrize("policy", ["scripted", "greedy"])
@pytest.mark.parametrize("emulated", [False, True], ids=["plain", "emulated"])
def test_play_hands_decide_one_observation_per_decision(built, emulated, policy):
    """Each decision of a played episode, those made inside the kernel
    included, gets an :class:`Observation` of its own, built once. A plain
    tuple of the same values would equal it, so the type is checked."""
    interval = 10 if emulated else 3
    for seed in (0, 4, 9):
        env = EmulatedEnv(EmulationConfig(control_interval=interval)) if emulated else ApproachEnv()
        env.reset(seed)
        seen = []

        def decide(obs):
            seen.append(obs)
            return make_policy(policy)(obs)

        before = built()["Observation"]
        env.play(decide, interval)
        assert env.done and len(seen) == -(-env.step_count // interval)
        assert all(type(obs) is Observation for obs in seen)
        assert len({id(obs) for obs in seen}) == len(seen)
        assert built()["Observation"] - before == len(seen)


@pytest.mark.parametrize("trace", [False, True])
def test_play_on_a_finished_episode_does_nothing(trace):
    env, rows = start(EnvConfig(), 2, None, trace)
    env.play(make_policy("scripted"), 1, on_step(rows))
    assert env.done
    before = episode_bits(env, rows)
    decide = Recorded(make_policy("scripted"))
    calls = []
    for interval in (1, 10, 0):
        env.play(decide, interval, calls.append)
    assert decide.seen == [] and calls == []
    assert episode_bits(env, rows) == before


@pytest.mark.parametrize("env", [ApproachEnv(), EmulatedEnv(EmulationConfig())],
                         ids=["plain", "emulated"])
def test_play_before_reset_raises_as_hold_does(env):
    decide = Recorded(make_policy("scripted"))
    with pytest.raises(RuntimeError, match="^call reset before step$") as got:
        env.play(decide, 1)
    with pytest.raises(RuntimeError) as want:
        ApproachEnv().hold(CONTROLS[0][0], 1)
    assert str(got.value) == str(want.value)
    assert decide.seen == [] and env.done is None


def test_play_with_no_plant_step_raises_as_hold_does():
    env = ApproachEnv()
    env.reset(1)
    with pytest.raises(ValueError, match="at least one plant step, got 0"):
        env.play(make_policy("scripted"), 0)
    assert env.step_count == 0


def unbatched(policy):
    if policy == "pulsed":
        return PulsedBrakePolicy()
    if policy == "greedy":
        return lambda obs: GREEDY(obs)  # without its batch
    return make_policy(policy)


@pytest.mark.parametrize("interval", [1, 3, 10])
@pytest.mark.parametrize("policy", ["scripted", "latched", "pulsed", "greedy"])
def test_emulated_episodes_keep_the_per_decision_pid(policy, interval):
    """An emulated episode decides on the delayed observation and runs
    the PID once per hold; through ``run_episodes`` with a policy without
    ``batch`` it must equal the hold loop, which a plain-plant ``play``
    would not."""
    emu = EmulationConfig(control_interval=interval)
    seeds, headings = [0, 5, 9], [None, 1.0, None]
    want = reference(lambda: EmulatedEnv(emu), unbatched(policy), seeds, headings, interval,
                     True)
    got = run_episodes([EmulatedEnv(emu) for _ in seeds], unbatched(policy), seeds,
                       headings=headings, collect_trace=True, config_digest="d",
                       decision_interval=interval)
    assert_same_episodes(got, want)


@pytest.mark.parametrize("policy", ["scripted", "latched"])
def test_scripted_episodes_make_no_hold_call(monkeypatch, policy):
    """No hold call per decision: a scripted episode enters ``hold`` once,
    through ``play``; a per-decision loop would enter it once per plant step."""
    want = evaluate_policy(ApproachEnv(), make_policy(policy), 5, 3).to_text()
    result, trace = run_episode(ApproachEnv(), make_policy(policy), 4, collect_trace=True)
    entries = []
    hold = ApproachEnv.hold

    def counting(env, *args, **kwargs):
        entries.append(env)
        return hold(env, *args, **kwargs)

    monkeypatch.setattr(ApproachEnv, "hold", counting)
    assert evaluate_policy(ApproachEnv(), make_policy(policy), 5, 3).to_text() == want
    assert len(entries) == 5
    got = run_episode(ApproachEnv(), make_policy(policy), 4)[0]
    assert record_bits(got) == record_bits(result)
    got = run_episode(ApproachEnv(), make_policy(policy), 4, collect_trace=True)[1]
    assert trace_bits(got) == trace_bits(trace)
    assert len(entries) == 7


def test_a_hold_without_decide_fails_play_loudly():
    """``play`` enters the episode through the env's own ``hold``, so a
    subclass ``hold`` that cannot decide raises instead of being bypassed."""

    class Plain(ApproachEnv):
        def hold(self, action, steps, on_step=None):
            return super().hold(action, steps, on_step)

    env = Plain()
    env.reset(1)
    with pytest.raises(TypeError, match="decide"):
        env.play(make_policy("scripted"), 1)
    assert env.step_count == 0


# the golden policy's episodes at interval 10: seeds 2, 12, 20 and 40 leave
# the range at plant step 250 (decision round 25), 21 and 30 at 251 and 37
# at 252 (round 26); seeds 0 and 1 time out at 750
LANES = [([0], 1), ([2, 0], 1), ([2, 12, 20, 21, 30, 37, 0], 1), ([0, 1], 0),
         ([2, 40, 0, 1], 0), ([2, 21], 1)]


@pytest.mark.parametrize("seeds, plays", LANES)
def test_a_batched_eval_plays_only_its_last_running_lane(monkeypatch, seeds, plays):
    """While more than one lane runs, each round is one batched decision;
    the last running lane plays to its end. Lanes that end in the same
    round leave none to play."""
    n = len(seeds)
    envs = [ApproachEnv() for _ in range(n)]
    want = reference(ApproachEnv, GREEDY, seeds, [None] * n, 10, False)
    played = []
    play = ApproachEnv.play

    def spy(env, *args, **kwargs):
        played.append([other.done for other in envs if other is not env])
        return play(env, *args, **kwargs)

    monkeypatch.setattr(ApproachEnv, "play", spy)
    got = run_episodes(envs, GREEDY, seeds, decision_interval=10)
    assert_same_episodes(got, want)
    assert played == [[True] * (n - 1)] * plays

"""``ApproachEnv.hold`` against the functional reference, bit for bit.

The hold advances the plant over plain floats; the functional
``env.step`` (over ``sim.step_vehicle`` and ``env.compute_reward``) is
the readable reference. Folding it ``k`` times must give exactly the
records, return and hold total that ``hold(action, k)`` gives, and the
same errors at the same plant step. The hold spells each ``max(a, b)``
of the reference as ``b if b > a else a`` and each ``min(a, b)`` as
``b if b < a else a``, so the property draws the clamps' bounds and
``-0.0``, where a comparison spelt the other way round gives other bits.
A hold calls neither builtin and builds no record: it builds its
``reward_terms`` tuple only at write-back, and the env builds its
records only when they are read.
"""

import dataclasses
import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from loader_rl import emulator as emulator_module, env as env_module
from loader_rl.env import ApproachEnv, EnvConfig, step
from loader_rl.evaluate import greedy_policy_fn, run_episodes
from loader_rl.oracle import OracleConfig, scripted_policy
from loader_rl.policy import ExplorationMode, init_policy
from loader_rl.sim import BrakeModel, Controls, VehicleParams
from loader_rl.trace import BASE_COLUMNS, EpisodeTrace


def bits(value):
    """A float by its bit pattern (tells -0.0 from 0.0, compares NaN), else the value."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


def record_bits(record) -> tuple:
    """The fields of a named tuple or a dataclass, in order, by their bits."""
    if isinstance(record, tuple):
        names = record._fields
    else:
        names = [f.name for f in dataclasses.fields(record)]
    return tuple(bits(getattr(record, name)) for name in names)


def env_bits(env) -> tuple:
    """Every field of an ``EnvState``, its vehicle field by field."""
    return tuple(
        record_bits(env.vehicle) if f.name == "vehicle" else bits(getattr(env, f.name))
        for f in dataclasses.fields(env)
    )


def snapshot(state, obs, breakdown, episode_reward) -> tuple:
    return (env_bits(state), record_bits(obs),
            None if breakdown is None else record_bits(breakdown), bits(episode_reward))


def assert_same_records(a, b) -> None:
    """Two envs hold the same episode records, bit for bit."""
    assert (snapshot(a.state, a.obs, a.breakdown, a.episode_reward)
            == snapshot(b.state, b.obs, b.breakdown, b.episode_reward))


def reference_hold(state, obs, breakdown, episode_reward, action, k, config, params, kwargs):
    """``hold`` as a fold of the functional step; also returns the
    snapshot after every plant step."""
    total = 0.0
    after_each = []
    for _ in range(k):
        state, obs, breakdown, done = step(state, action, config, params, **kwargs)
        episode_reward += breakdown.total
        total += breakdown.total
        after_each.append(snapshot(state, obs, breakdown, episode_reward))
        if done:
            break
    return state, obs, breakdown, episode_reward, total, after_each


holds = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(1, 12)), min_size=1, max_size=30
)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    heading=st.one_of(st.none(), st.floats(0.0, 2 * math.pi, exclude_max=True)),
    # the clamps' bounds and -0.0, which tell min/max from a comparison
    # spelt the other way round
    start_speed=st.sampled_from([None, 0.0, -0.0, 0.7, VehicleParams().cruise_speed]),
    start_lift=st.sampled_from([None, -0.0, "lift_min", "lift_goal_frac", "lift_max"]),
    params=st.sampled_from([VehicleParams(), VehicleParams(lift_min=-0.0)]),
    max_episode_time=st.sampled_from([0.3, 2.0, 15.0, 15.0]),
    brake_model=st.sampled_from(list(BrakeModel)),
    throttle_accel=st.one_of(st.none(), st.sampled_from([0.0, -0.0]), st.floats(-5.0, 5.0)),
    scripted=st.booleans(),
    callback=st.booleans(),
    use_step=st.booleans(),
    plan=holds,
)
@example(seed=0, heading=None, start_speed=-0.0, start_lift=None, params=VehicleParams(),
         max_episode_time=2.0, brake_model=BrakeModel.IDEAL, throttle_accel=-0.0,
         scripted=False, callback=False, use_step=False, plan=[(0, 1, 10)])
def test_hold_equals_folded_functional_step(seed, heading, start_speed, start_lift, params,
                                            max_episode_time, brake_model, throttle_accel,
                                            scripted, callback, use_step, plan):
    config = EnvConfig(max_episode_time=max_episode_time)
    oracle = OracleConfig(env=config, vehicle=params)
    kwargs = {"brake_model": brake_model, "throttle_accel": throttle_accel}
    env = ApproachEnv(config, params)
    env.reset(seed, heading=heading)
    if isinstance(start_lift, str):
        start_lift = getattr(config if start_lift == "lift_goal_frac" else params, start_lift)
    start = {"speed": start_speed, "lift": start_lift}
    start = {name: value for name, value in start.items() if value is not None}
    env.state = dataclasses.replace(env.state,
                                    vehicle=dataclasses.replace(env.state.vehicle, **start))
    state, obs, breakdown, episode_reward = env.state, env.obs, None, 0.0

    # the plan repeats until the episode ends (at most 15 s of plant time)
    for brake, lift_up, k in itertools.cycle(plan):
        # scripted holds reach the Success ending too
        action = scripted_policy(env.obs, oracle) if scripted else Controls(brake, lift_up)
        seen = []
        on_step = None
        if callback:
            def on_step(e, a):
                assert e is env and a is action
                seen.append(snapshot(e.state, e.obs, e.breakdown, e.episode_reward))
        if (use_step and k == 1 and not callback and brake_model is BrakeModel.IDEAL
                and throttle_accel is None):
            # ApproachEnv.step is the one-step hold of the default plant
            obs_, breakdown_, done_ = env.step(action)
            assert (obs_, breakdown_, done_) == (env.obs, env.breakdown, env.state.done)
            total = breakdown_.total
        else:
            total = env.hold(action, k, on_step, **kwargs)
        state, obs, breakdown, episode_reward, want_total, after_each = reference_hold(
            state, obs, breakdown, episode_reward, action, k, config, params, kwargs)
        assert bits(total) == bits(want_total)
        assert snapshot(env.state, env.obs, env.breakdown, env.episode_reward) == after_each[-1]
        assert seen == (after_each if callback else [])
        if state.done:
            where = "mid-hold" if len(after_each) < k else "at hold end"
            event(f"{breakdown.outcome.value}, {where}")
            with pytest.raises(RuntimeError, match="finished episode"):
                env.hold(action, k, on_step, **kwargs)
            break


def _corrupt_vehicle(**fields):
    def corrupt(env):
        env.state = dataclasses.replace(
            env.state, vehicle=dataclasses.replace(env.state.vehicle, **fields))
    return corrupt


def _corrupt_env(**fields):
    def corrupt(env):
        env.state = dataclasses.replace(env.state, **fields)
    return corrupt


INVALID = [
    ("x nan", _corrupt_vehicle(x=math.nan), {}),
    ("heading inf", _corrupt_vehicle(heading=math.inf), {}),
    ("speed -inf", _corrupt_vehicle(speed=-math.inf), {}),
    ("pedal nan", _corrupt_vehicle(brake_pedal=math.nan), {}),
    ("far away", _corrupt_vehicle(x=1.5e308, y=1.5e308), {}),
    ("prev_distance nan", _corrupt_env(prev_distance=math.nan), {}),
    ("lift inf", _corrupt_vehicle(lift=math.inf), {}),
    ("step_count negative", _corrupt_env(step_count=-3), {}),
    ("episode finished", _corrupt_env(done=True), {}),
    ("throttle nan", None, {"throttle_accel": math.nan}),
    ("throttle inf", None, {"throttle_accel": math.inf}),
    ("throttle nan on a bad state", _corrupt_vehicle(x=math.nan), {"throttle_accel": math.nan}),
]


@pytest.mark.parametrize("k", [1, 10])
@pytest.mark.parametrize("brake", [0, 1])
@pytest.mark.parametrize("case, corrupt, kwargs", INVALID, ids=[c[0] for c in INVALID])
def test_hold_raises_what_the_functional_step_raises(case, corrupt, kwargs, brake, k):
    env = ApproachEnv()
    env.reset(5)
    env.hold(Controls(0, 1), 3)
    if corrupt is not None:
        corrupt(env)
    before = env.state
    records = (env.obs, env.breakdown, env.episode_reward)
    with pytest.raises(Exception) as want:
        step(before, Controls(brake, 1), env.config, env.params, **kwargs)
    with pytest.raises(type(want.value)) as got:
        env.hold(Controls(brake, 1), k, **kwargs)
    assert str(got.value) == str(want.value)
    # the failing step was the hold's first, so the episode is untouched
    assert (snapshot(env.state, env.obs, env.breakdown, env.episode_reward)
            == snapshot(before, *records))


FAR = {"config": EnvConfig(dt=1.0, out_of_range_radius=1.5e308, target_distance=1e308),
       "params": VehicleParams(cruise_speed=1.4e308)}
HUGE_DT = {"config": EnvConfig(dt=1e300, max_episode_time=3e300, out_of_range_radius=1e302,
                               target_distance=1e301, vicinity=1.0)}
EXTREME = [
    # every field finite, their sum not: the entry check defers to step_vehicle, which passes
    ("sum overflows", {}, {"elapsed": 1e308, "brake_pedal": 1e308}),
    ("sum overflows, tapered", {"brake_model": BrakeModel.TAPERED},
     {"elapsed": 1e308, "brake_pedal": 1e308}),
    ("sum overflows, far out", {}, {"x": 1e308, "elapsed": 1e308}),
    # step 1 stands and step 2 raises curr_distance must be finite, got inf
    ("position overflows mid-hold", FAR, {}),
    # step 1 leaves elapsed at inf and step 2 raises the state check of step_vehicle
    ("elapsed overflows mid-hold", HUGE_DT, {"elapsed": 1.7976931348623157e308}),
]


@pytest.mark.parametrize("play", [False, True], ids=["hold", "play"])
@pytest.mark.parametrize("brake", [0, 1])
@pytest.mark.parametrize("case, setup, fields", EXTREME, ids=[c[0] for c in EXTREME])
def test_the_entry_check_raises_where_the_functional_step_does(case, setup, fields, brake, play):
    """The hold checks the state once, on entry; its own later states are
    finite but for the position and the elapsed time, which each step's
    reward check covers. Folding the functional step, which checks every
    state, must give the same error at the same plant step."""
    config, params = setup.get("config", EnvConfig()), setup.get("params", VehicleParams())
    kwargs = {"brake_model": setup.get("brake_model", BrakeModel.IDEAL), "throttle_accel": None}
    action = Controls(brake, 1)
    env = ApproachEnv(config, params)
    env.reset(5, heading=math.pi / 4)
    env.state = dataclasses.replace(env.state,
                                    vehicle=dataclasses.replace(env.state.vehicle, **fields))
    want = (env.state, env.obs, None, 0.0)
    want_error = None
    for _ in range(10**6 if play else 10):
        try:
            *want, _, _ = reference_hold(*want, action, 1, config, params, kwargs)
        except ValueError as e:
            want_error = str(e)
            break
        if want[0].done:
            break
    # the overflows mid-hold raise at plant step 2; an overflowing sum raises nowhere
    assert (want_error is not None) == case.endswith("mid-hold")
    try:
        env.hold(action, 10, **kwargs, decide=(lambda obs: action) if play else None)
        got_error = None
    except ValueError as e:
        got_error = str(e)
    assert got_error == want_error
    assert snapshot(env.state, env.obs, env.breakdown, env.episode_reward) == snapshot(*want)


def test_callback_error_leaves_the_steps_taken():
    env, ref = ApproachEnv(), ApproachEnv()
    env.reset(3)
    ref.reset(3)

    def fail_on_fourth(e, a):
        if e.state.step_count == 4:
            raise RuntimeError("stop")

    with pytest.raises(RuntimeError, match="stop"):
        env.hold(Controls(0, 1), 10, fail_on_fourth)
    ref.hold(Controls(0, 1), 4)
    assert_same_records(env, ref)


def test_state_is_frozen_and_assigning_it_sets_the_episode():
    env = ApproachEnv()
    env.reset(5)
    env.hold(Controls(0, 1), 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        env.state.vehicle = dataclasses.replace(env.state.vehicle, speed=0.0)
    moved = dataclasses.replace(env.state, vehicle=dataclasses.replace(env.state.vehicle, x=0.5))
    env.state = moved
    assert env_bits(env.state) == env_bits(moved) and env.x == 0.5
    assert env.obs.rel_x == abs(env.state.target_x - 0.5)


class Counted:
    """A record class standing in for itself, counting the records it
    builds, by call or by ``_make``."""

    def __init__(self, cls):
        self.cls, self.n = cls, 0

    def __call__(self, *args, **kwargs):
        self.n += 1
        return self.cls(*args, **kwargs)

    def _make(self, values):
        self.n += 1
        return self.cls._make(values)


@pytest.fixture()
def built(monkeypatch):
    """Counts of the records ``loader_rl.env`` and ``loader_rl.emulator``
    build from now on. Their observations are built by ``new_observation``,
    not by calling the class, so its calls count as Observation records."""
    counted = {name: Counted(getattr(env_module, name))
               for name in ("Observation", "RewardBreakdown", "VehicleState", "EnvState")}
    for name, c in counted.items():
        monkeypatch.setattr(env_module, name, c)
    observations = Counted(env_module.new_observation)
    for module in (env_module, emulator_module):
        monkeypatch.setattr(module, "new_observation", observations)
    return lambda: {**{name: c.n for name, c in counted.items()},
                    "Observation": counted["Observation"].n + observations.n}


@pytest.mark.parametrize("trace", [False, True])
def test_a_hold_builds_no_record(built, trace):
    env = ApproachEnv()
    env.reset(4)
    on_step = EpisodeTrace(BASE_COLUMNS).add_env_step if trace else None
    before = built()
    while not env.done:
        env.hold(Controls(int(env.step_count >= 100), 1), 10, on_step)
    assert built() == before
    # the env's own records are built when read
    assert env.obs is not None and env.breakdown.done
    assert built() == {**before, "Observation": before["Observation"] + 1,
                       "RewardBreakdown": before["RewardBreakdown"] + 1}


ENDINGS = [
    ("OutOfRange", lambda env: Controls(0, 0)),
    ("Timeout", lambda env: Controls(1, 0)),
    ("Success", lambda env: Controls(int(env.step_count >= 75), 1)),
]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("outcome, policy", ENDINGS, ids=[e[0] for e in ENDINGS])
def test_a_hold_calls_no_min_or_max(monkeypatch, outcome, policy, trace):
    calls = []

    def counted(builtin):
        def call(*args, **kwargs):
            calls.append(builtin.__name__)
            return builtin(*args, **kwargs)
        return call

    env = ApproachEnv()
    env.reset(4)
    on_step = EpisodeTrace(BASE_COLUMNS).add_env_step if trace else None
    # module globals shadow the builtins for the code of loader_rl.env
    monkeypatch.setattr(env_module, "min", counted(min), raising=False)
    monkeypatch.setattr(env_module, "max", counted(max), raising=False)
    while not env.done:
        env.hold(policy(env), 10, on_step)
    assert calls == []
    assert env.breakdown.outcome.value == outcome
    # the counters see the reference reward's calls
    env.reset(4)
    step(env.state, Controls(0, 1), env.config, env.params)
    assert calls == ["min", "min"]


def test_lockstep_episodes_build_one_observation_per_decision(built):
    greedy = greedy_policy_fn(
        init_policy(4, np.random.default_rng(3), ExplorationMode.CONTINUOUS_THRESHOLD))
    decided = []

    def decide(obs):
        decided.append(obs)
        return greedy(obs)

    def batch(observations):
        decided.extend(observations)
        return greedy.batch(observations)

    decide.batch = batch
    n = 5
    run_episodes([ApproachEnv() for _ in range(n)], decide, list(range(n)), decision_interval=10)
    assert len(decided) > 2 * n
    # each reset builds the observation it returns and no state, each
    # decision reads one observation, and each result reads the last reward once
    assert built() == {"Observation": n + len(decided), "RewardBreakdown": n,
                       "VehicleState": 0, "EnvState": 0}

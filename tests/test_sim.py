"""Vehicle kinematics unit and property tests."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from loader_rl.sim import (
    BrakeModel,
    Controls,
    TaperParams,
    VehicleParams,
    VehicleState,
    step_vehicle,
    tapered_brake_decel,
)

PARAMS = VehicleParams()


def make_state(**kw):
    base = dict(x=0.0, y=0.0, heading=0.0, speed=2.0, lift=0.5, elapsed=0.0)
    base.update(kw)
    return VehicleState(**base)


class TestStepVehicle:
    def test_constant_speed_advance(self):
        s = step_vehicle(make_state(), Controls(0, 0), 0.1, PARAMS)
        assert s.y == pytest.approx(0.2, abs=1e-12)
        assert s.x == pytest.approx(0.0, abs=1e-12)
        assert s.speed == 2.0
        assert s.elapsed == pytest.approx(0.1)

    def test_heading_quarter_turn_moves_along_x(self):
        s = step_vehicle(make_state(heading=math.pi / 2), Controls(0, 0), 0.1, PARAMS)
        assert s.x == pytest.approx(0.2, abs=1e-12)
        assert s.y == pytest.approx(0.0, abs=1e-12)

    def test_ideal_brake_decelerates(self):
        s = step_vehicle(make_state(), Controls(1, 0), 0.1, PARAMS)
        assert s.speed == pytest.approx(2.0 - 2.0 * 0.1, abs=1e-15)

    def test_speed_clamps_at_zero(self):
        s = step_vehicle(make_state(speed=0.05), Controls(1, 0), 0.1, PARAMS)
        assert s.speed == 0.0

    def test_lift_integrates_rate(self):
        s = step_vehicle(make_state(), Controls(0, 1), 0.1, PARAMS)
        assert s.lift == pytest.approx(0.5 + 0.15 * 0.1, abs=1e-15)

    def test_lift_holds_when_not_commanded(self):
        s = step_vehicle(make_state(lift=0.7), Controls(0, 0), 0.1, PARAMS)
        assert s.lift == 0.7

    def test_lift_clamps_at_max(self):
        s = step_vehicle(make_state(lift=0.999), Controls(0, 1), 0.1, PARAMS)
        assert s.lift == 1.0

    def test_unbraked_speed_snaps_to_cruise(self):
        s = step_vehicle(make_state(speed=0.4), Controls(0, 0), 0.02, PARAMS)
        assert s.speed == PARAMS.cruise_speed

    def test_throttle_accel_override_ramps(self):
        s = step_vehicle(make_state(speed=0.0), Controls(0, 0), 0.1, PARAMS, throttle_accel=1.0)
        assert s.speed == pytest.approx(0.1)
        s = step_vehicle(make_state(speed=1.99), Controls(0, 0), 0.1, PARAMS, throttle_accel=1.0)
        assert s.speed == PARAMS.cruise_speed  # clamped at cruise

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            step_vehicle(make_state(), Controls(0, 0), 0.0, PARAMS)
        with pytest.raises(ValueError):
            step_vehicle(make_state(), Controls(0, 0), -0.1, PARAMS)

    def test_rejects_non_finite_state(self):
        with pytest.raises(ValueError):
            step_vehicle(make_state(x=float("nan")), Controls(0, 0), 0.1, PARAMS)
        with pytest.raises(ValueError):
            step_vehicle(make_state(speed=float("inf")), Controls(0, 0), 0.1, PARAMS)

    @pytest.mark.parametrize("name", ["x", "y", "heading", "speed", "lift", "elapsed", "brake_pedal"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_error_names_the_field(self, name, bad):
        with pytest.raises(ValueError, match=rf"\b{name}={bad!r}"):
            step_vehicle(make_state(**{name: bad}), Controls(0, 0), 0.1, PARAMS)

    @pytest.mark.parametrize("brake", [0, 1])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_throttle_rejected(self, brake, bad):
        # max(0.0, nan) is 0.0, so a NaN throttle would otherwise stop the vehicle silently
        with pytest.raises(ValueError, match=rf"throttle_accel must be finite, got {bad!r}"):
            step_vehicle(make_state(), Controls(brake, 0), 0.1, PARAMS, throttle_accel=bad)

    def test_purity_bit_for_bit(self):
        s0 = make_state(heading=1.234, speed=1.7, lift=0.62)
        a = step_vehicle(s0, Controls(1, 1), 1 / 50, PARAMS, BrakeModel.TAPERED)
        b = step_vehicle(s0, Controls(1, 1), 1 / 50, PARAMS, BrakeModel.TAPERED)
        assert a == b


class TestControlsValidation:
    @pytest.mark.parametrize("brake,lift_up", [(2, 0), (-1, 0), (0, 2), (0.5, 0)])
    def test_rejects_non_binary(self, brake, lift_up):
        with pytest.raises(ValueError):
            Controls(brake, lift_up)


class TestParamValidation:
    def test_rejects_bad_vehicle_params(self):
        with pytest.raises(ValueError):
            VehicleParams(cruise_speed=0.0)
        with pytest.raises(ValueError):
            VehicleParams(ideal_decel=-1.0)
        with pytest.raises(ValueError):
            VehicleParams(lift_min=1.0, lift_max=0.5)

    def test_rejects_bad_taper_params(self):
        with pytest.raises(ValueError):
            TaperParams(initial_pedal=0.0)
        with pytest.raises(ValueError):
            TaperParams(taper_time_constant=0.0)


class TestTaperedBrake:
    def test_first_engagement_sets_initial_pedal(self):
        taper = TaperParams(initial_pedal=0.6, taper_time_constant=1.0)
        decel, pedal = tapered_brake_decel(0.0, 0.02, taper, 2.0)
        assert pedal == 0.6
        assert decel == pytest.approx(0.6 * 2.0)

    def test_exponential_decay_closed_form(self):
        taper = TaperParams(initial_pedal=0.6, taper_time_constant=1.0)
        pedal = 0.6
        for _ in range(50):  # 50 steps of 0.02 s = 1.0 s of held brake
            _, pedal = tapered_brake_decel(pedal, 0.02, taper, 2.0)
        assert pedal == pytest.approx(0.6 * math.exp(-1.0), rel=1e-12)

    def test_release_resets_pedal(self):
        s = make_state()
        s = step_vehicle(s, Controls(1, 0), 0.02, PARAMS, BrakeModel.TAPERED)
        assert s.brake_pedal > 0.0
        s = step_vehicle(s, Controls(0, 0), 0.02, PARAMS, BrakeModel.TAPERED)
        assert s.brake_pedal == 0.0

    def test_tapered_decel_never_exceeds_ideal(self):
        pedal = 0.0
        for _ in range(500):
            decel, pedal = tapered_brake_decel(pedal, 0.02, PARAMS.taper, PARAMS.ideal_decel)
            assert decel <= PARAMS.ideal_decel + 1e-12

    def test_tapered_speed_at_least_ideal_speed(self):
        s_t = make_state()
        s_i = make_state()
        for _ in range(200):
            s_t = step_vehicle(s_t, Controls(1, 0), 0.02, PARAMS, BrakeModel.TAPERED)
            s_i = step_vehicle(s_i, Controls(1, 0), 0.02, PARAMS, BrakeModel.IDEAL)
            assert s_t.speed >= s_i.speed

    def test_tapered_keeps_speed_positive_longer(self):
        def time_to_stop(model):
            s = make_state()
            while s.speed > 0.0:
                s = step_vehicle(s, Controls(1, 0), 0.02, PARAMS, model)
            return s.elapsed

        assert time_to_stop(BrakeModel.TAPERED) > time_to_stop(BrakeModel.IDEAL)


def braking_distance(dt: float, v0: float = 2.0) -> float:
    s = make_state(speed=v0)
    while s.speed > 0.0:
        s = step_vehicle(s, Controls(1, 0), dt, PARAMS)
    return s.y


class TestStoppingDistance:
    def test_converges_to_continuous_limit(self):
        # v^2 / (2a) = 1.0 m for v=2, a=2
        d_coarse = braking_distance(1 / 50)
        d_fine = braking_distance(1 / 500)
        assert abs(d_coarse - d_fine) < 0.05
        assert abs(d_fine - 1.0) < 0.01

    def test_coarse_distance_near_one_metre(self):
        assert braking_distance(1 / 50) == pytest.approx(1.02, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    lift0=st.floats(0.0, 1.0),
    n_steps=st.integers(1, 120),
    dt=st.floats(0.005, 0.1),
)
def test_lift_monotone_and_bounded_under_hold(lift0, n_steps, dt):
    s = make_state(lift=lift0)
    prev = s.lift
    for _ in range(n_steps):
        s = step_vehicle(s, Controls(0, 1), dt, PARAMS)
        assert prev <= s.lift <= 1.0
        prev = s.lift


@settings(max_examples=60, deadline=None)
@given(
    actions=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=80),
    model=st.sampled_from([BrakeModel.IDEAL, BrakeModel.TAPERED]),
)
def test_speed_stays_in_range_and_time_accumulates(actions, model):
    s = make_state()
    elapsed = 0.0
    for brake, lift_up in actions:
        s = step_vehicle(s, Controls(brake, lift_up), 1 / 50, PARAMS, model)
        assert 0.0 <= s.speed <= PARAMS.cruise_speed
        assert s.elapsed > elapsed
        elapsed = s.elapsed

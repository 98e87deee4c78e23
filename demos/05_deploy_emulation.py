"""Reproduce the deployment failure mode: delayed sensing brakes late.

The same brake-to-stop policy runs against emulated deployments that
differ only in position-sensor delay. With no delay it stops inside the
vicinity; each added second of delay moves the braking onset later and
the final resting point further past the target, until the episode ends
out of range -- the qualitative signature of a laggy positioning sensor.
"""

from loader_rl import EmulationConfig, EnvConfig, LatchedBrakePolicy, OracleConfig
from loader_rl.emulator import braking_onset_time, final_overshoot, run_emulated_episode

env_config = EnvConfig()
oracle = OracleConfig()

print("delay | brake onset | overshoot | outcome")
for delay in (0.0, 1.0, 2.0, 3.0):
    emu = EmulationConfig(position_delay=delay)  # tapered brake, 10 steps/decision, PID throttle
    trace = run_emulated_episode(LatchedBrakePolicy(oracle), emu, seed=11)
    onset = braking_onset_time(trace)
    print(
        f" {delay:3.0f} s | {onset:8.2f} s  | {final_overshoot(trace, env_config):6.2f} m  "
        f"| {trace.outcome.value}"
    )

print("\nvs. the plain simulator episode (no delay, ideal brake, full rate):")
from loader_rl import BrakeModel

emu = EmulationConfig(
    position_delay=0.0, control_interval=1, brake_model=BrakeModel.IDEAL,
    start_from_standstill=False,
)
trace = run_emulated_episode(oracle.rule, emu, seed=11)
print(f"outcome {trace.outcome.value}, overshoot {final_overshoot(trace, env_config):.2f} m")
print("\ncolumns recorded per step:", ", ".join(trace.columns))

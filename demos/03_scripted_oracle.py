"""The scripted reference policy as a measuring stick.

It brakes at the ideal stopping distance plus a margin and lifts until
the goal; it succeeds from every heading and its episode reward sits a
bit under the analytic ceiling (the gap is the time penalty plus the
stopping offset). The independent reward recomputation cross-checks the
environment's own accounting on the same trace.
"""

import math

from loader_rl import ApproachEnv, OracleConfig, max_reward_bound, reward_oracle
from loader_rl.evaluate import run_episode

env = ApproachEnv()
oracle = OracleConfig()
decide = oracle.rule

print("heading sweep (every 30 degrees):")
rewards = []
for deg in range(0, 360, 30):
    result, trace = run_episode(env, decide, seed=deg, heading=math.radians(deg), collect_trace=True)
    recomputed = reward_oracle(trace, env.config)
    rewards.append(result.reward)
    print(
        f"  {deg:3d} deg: {result.outcome.value:8s} reward {result.reward:6.3f} "
        f"(recomputed {recomputed:6.3f}, stop error {result.final_distance:.3f} m, "
        f"{result.length} steps)"
    )

bound = max_reward_bound(env.config)
print(f"\nreward ceiling {bound:.2f}; best scripted episode {max(rewards):.3f}")
assert all(r <= bound + 1e-9 for r in rewards)

"""Fast self-test of the benchmark: every workload at a tiny size, untraced and traced.

Checks that each run returns the result object (correct, attempted,
failed, metrics) with exactly the metrics BENCHMARK.json names, each
with its unit and a finite value. At this size training stops long
before the success target, so failed operations are expected and not
checked here.

Usage: python3 bench/selftest.py
"""

import contextlib
import io
import json
import math
import sys

import run

TINY = run.Size(desk_budget=1, eval_episodes=2, deploy_rounds=1, setup_probes=1)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                result = run.run_workload(workload["name"], 0, 0.01, trace, TINY)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload["name"], kind, set(got) ^ set(want))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
            json.dumps(result, allow_nan=False)
            print(f"ok {workload['name']} {kind}: {len(got)} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())

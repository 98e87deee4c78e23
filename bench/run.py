"""loader-rl benchmark: end-to-end metrics per workload, per-layer metrics from a traced pass.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/selftest.py        # every workload at a tiny size

The package is driven only through its public calls, ``train(...)`` and
``cli.main([...])``, in this one process, with BLAS pinned to one thread.
A run repeats one identical pass of the workload until ``--seconds``
have elapsed, then measures set-up in fresh interpreters
(setup_probe.py). A pass trains, then checks each trained checkpoint
through the CLI. ``--trace 1`` instead runs one pass untraced and one
traced (tracing.py) and reports the per-layer metrics.

Workloads (why each exists is in make_plan):
    desk_train  desk recipe seeds 1-3, each checked through the CLI
    deploy      CLI eval, scripted eval and emulate of the desk seed-1 checkpoint

``--seed`` sets the order of the operations in a pass and nothing else.
The episodes they run are fixed: the episodes/s rates depend on which
episodes run (a timed-out episode costs twice a successful one), so
seed-chosen episodes would add a spread between seeds that is not speed.

Timing statistic: every operation repeats with identical inputs, and a
timing is the fastest repeat of each operation, summed over operations.
A training run is timed in parts, one per training episode (see
Bench.train), and its time is the sum of each part's fastest repeat.
On a shared 2-CPU host the same work takes up to twice as long when
neighbours are busy, in bursts much shorter than a training run: within
one run, repeats of a seed's time to 0.8 ranged over 1.79-2.50 s, and
the parts' fastest repeats summed to 13% below the fastest whole repeat.
Slower phases that last minutes remain: whole runs are then about 1.3x
slower, and no statistic within one run can remove that. Medians and
slowest repeats are printed beside each metric, with their sample
counts. Set-up is the median of its probes, one after each pass and the
rest at the end.

Every operation checks its output; a failed check, a raise or a
non-zero exit counts in ``failed``. Repeats do identical work, so the
digests of every metrics.csv and eval report must repeat exactly. Lines
before the last one are for people: machine facts, per-operation
timings, per-seed values, the error rate and the digests. The last line
is the JSON result.
"""

import os

# before numpy loads: one BLAS thread, so the run is one process on one core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

TARGET = 0.8  # main-bucket greedy success that defines time_to_80_s
DESK_SEEDS = (1, 2, 3)
DELAYS = (0, 1, 2, 3)  # emulated position-sensing delays, s
EPISODE_SEED = 0  # --seed of every eval and emulate call
ORACLE_TOL = 1e-9

# the ROADMAP desk-scale recipe, as a `loader-rl train` config file
DESK_CONFIG = """seed = 1
train.learning_rate = 3e-4
train.exploration_mode = continuous_threshold
train.control_interval = 10
"""

# columns of metrics.csv that the determinism digest covers; columns added
# later (timings, say) are left out so that they cannot break the digest
DIGEST_COLUMNS = [
    "timestep", "updates", "ep_reward_mean", "ep_len_mean", "success_rate",
    "policy_loss", "value_loss", "entropy", "clip_fraction", "ratio_mean",
]

E2E_UNITS = {
    "setup_s": "s",
    "train_steps_per_s": "steps/s",
    "time_to_80_s": "s",
    "steps_to_80": "steps",
    "eval_episodes_per_s": "episodes/s",
    "scripted_eval_episodes_per_s": "episodes/s",
    "emulate_episodes_per_s": "episodes/s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Size:
    desk_budget: int = 55_000  # plant steps: one update past where seeds 1-3 first reach 0.8 (~50.4k)
    eval_episodes: int = 20  # per eval call; small calls give more repeats
    deploy_rounds: int = 2  # deploy checks per pass, one training per pass
    setup_probes: int = 9  # at least one after each pass


FULL = Size()


@dataclass(frozen=True)
class Plan:
    seeds: tuple  # desk seeds trained in every pass, each then checked
    check_rounds: int  # checks of each trained checkpoint per pass
    delays: tuple  # emulation delays in the order a check runs them


def rotate(items: tuple, k: int) -> tuple:
    k %= len(items)
    return items[k:] + items[:k]


def make_plan(workload: str, seed: int, size: Size) -> Plan:
    delays = rotate(DELAYS, seed)
    if workload == "desk_train":
        # The recipe users run. One decision covers 10 plant steps, so env/sim
        # gets its largest training share here. Seeds 1-3 are fixed so that
        # steps_to_80 is comparable across runs; all three are reported.
        return Plan(rotate(DESK_SEEDS, seed), 2, delays)
    # deploy: greedy and scripted eval are mostly env.step; emulation adds
    # checkpoint reads and trace rows and CSV writes. No PPO runs in these
    # CLI calls; the training metrics come from building the checkpoint,
    # which each pass repeats so that they have repeats too.
    return Plan((1,), size.deploy_rounds, delays)


class Timings:
    """Durations of repeated operations, by kind and by operation.

    An operation has identical inputs on every repeat, so its work is fixed
    and so is each part it is timed in. A part's fastest repeat is the one
    least slowed by other load; an operation's time is the sum of the
    fastest repeats of its parts.
    """

    def __init__(self):
        self.samples = defaultdict(list)  # (kind, op, part) -> seconds of each repeat
        self.work = {}  # (kind, op) -> work done by one repeat

    def add(self, kind: str, op, parts: list[float], work: float) -> None:
        """One repeat of ``op``, timed as consecutive ``parts``."""
        self.work[kind, op] = work
        for i, seconds in enumerate(parts):
            self.samples[kind, op, i].append(seconds)

    def seconds(self, kind: str) -> float:
        return sum(min(v) for k, v in self.samples.items() if k[0] == kind)

    def total_work(self, kind: str) -> float:
        return sum(w for k, w in self.work.items() if k[0] == kind)

    def rate(self, kind: str) -> float:
        seconds = self.seconds(kind)
        return self.total_work(kind) / seconds if seconds > 0 else 0.0

    def repeats(self, kind: str, op=None) -> list[float]:
        """Per repeat index, the summed time of all parts (of one ``op``, or of every op)."""
        keys = [k for k in self.samples if k[0] == kind and (op is None or k[1] == op)]
        return [sum(self.samples[k][i] for k in keys)
                for i in range(min(len(self.samples[k]) for k in keys))]

    def summary(self, kind: str) -> str:
        keys = [k for k in self.samples if k[0] == kind]
        if not keys:
            return f"{kind}: no samples"
        repeats = [len(self.samples[k]) for k in keys]
        sums = self.repeats(kind)
        ops = sum(1 for k in self.work if k[0] == kind)
        return (f"{kind}: {ops} operations in {len(keys)} parts x "
                f"{min(repeats)}-{max(repeats)} repeats, work {self.total_work(kind)!r}, "
                f"fastest {self.seconds(kind):.4f} s, median {statistics.median(sums):.4f} s, "
                f"slowest {max(sums):.4f} s")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def read_report(path: Path) -> dict:
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


class Bench:
    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.evidence: dict[str, object] = {}
        self.timings = Timings()
        self.config_mod = importlib.import_module("loader_rl.config")
        self.train_mod = importlib.import_module("loader_rl.train")
        self.cli_mod = importlib.import_module("loader_rl.cli")
        self.oracle_mod = importlib.import_module("loader_rl.oracle")
        self.trace_mod = importlib.import_module("loader_rl.trace")
        self.env_mod = importlib.import_module("loader_rl.env")
        self.config = work / "desk.cfg"
        self.config.write_text(DESK_CONFIG)
        self.env_config = self.config_mod.load_run_config(str(self.config)).env

    def operation(self, label: str, fn) -> None:
        """One counted operation: fails if it raises or ``fn`` returns a reason."""
        self.attempted += 1
        try:
            problem = fn()
        except Exception:
            problem = traceback.format_exc()
        if problem:
            self.failed += 1
            print(f"FAILED {label}: {problem}", file=sys.stderr)

    def record(self, key: str, value) -> str | None:
        """Keep a determinism digest; every repeat must reproduce it exactly."""
        if key in self.evidence and self.evidence[key] != value:
            return f"{key} is {value}, an earlier repeat gave {self.evidence[key]}"
        self.evidence[key] = value
        return None

    def cli(self, argv: list[str]) -> tuple[int, float]:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli_mod.main(argv)
        return code, time.perf_counter() - t0

    def train(self, seed: int, budget: int) -> Path:
        out = self.work / f"desk-{seed}"

        def op():
            shutil.rmtree(out, ignore_errors=True)
            # as `loader-rl train` does: parse the config file, then train
            # with out_dir set; looked up at call time so tracing sees it
            run = self.config_mod.load_run_config(str(self.config), {
                "seed": str(seed), "train.seed": str(seed),
                "train.total_timesteps": str(budget),
            })
            hit = []  # (parts before the target was reached, steps)
            # A part ends at each training episode's reset and at each eval
            # round. Both are fixed by the arithmetic, so every repeat has the
            # same parts; eval episodes do not end parts, because how many
            # resets an eval makes is up to how evaluation is built.
            marks = []
            envs = []
            env_class = self.env_mod.ApproachEnv

            class MarkedEnv(env_class):
                def reset(self, *args, **kwargs):
                    marks.append(time.perf_counter())
                    return super().reset(*args, **kwargs)

            def make_env():
                # train makes its rollout env first, then one per eval round
                envs.append(None)
                return (MarkedEnv if len(envs) == 1 else env_class)(run.env, run.vehicle)

            def observe(result):
                marks.append(time.perf_counter())
                if not hit and result.best_eval is not None and result.best_eval[0] >= TARGET:
                    hit.append((len(marks), result.last.timesteps))
                return False

            t0 = time.perf_counter()
            result = self.train_mod.train(
                make_env, run.train,
                out_dir=out, config_digest=run.digest, stop_when=observe,
            )
            marks.append(time.perf_counter())
            ends = [t0] + marks
            parts = [b - a for a, b in zip(ends, ends[1:])]
            steps = result.last.timesteps
            self.timings.add("train", seed, parts, steps)
            rows = (out / "metrics.csv").read_text().splitlines()
            header = rows[1].split(",")
            cols = [header.index(c) for c in DIGEST_COLUMNS]
            kept = [rows[0]] + [",".join(r.split(",")[i] for i in cols) for r in rows[1:]]
            problem = self.record(f"desk-{seed}.metrics.csv", digest("\n".join(kept).encode()))
            # a seed that never reaches the target counts its whole run,
            # as a lower bound, and fails
            n80, s80 = hit[0] if hit else (len(parts), steps)
            self.timings.add("to80", seed, parts[:n80], s80)
            if not hit:
                return f"seed {seed} never reached {TARGET} main-bucket success in {steps} steps"
            return (problem or self.record(f"desk-{seed}.parts", len(parts))
                    or self.record(f"desk-{seed}.steps_to_80", s80))

        self.operation(f"train desk seed {seed}", op)
        best = out / "best.ckpt"
        return best if best.exists() else out / "last.ckpt"

    def eval_checkpoint(self, ckpt: Path, episodes: int) -> None:
        report = self.work / "eval.txt"
        name = ckpt.parent.name

        def op():
            code, dt = self.cli(["eval", "--checkpoint", str(ckpt), "--episodes", str(episodes),
                                 "--seed", str(EPISODE_SEED), "--report", str(report)])
            if code != 0:
                return f"exit code {code}"
            self.timings.add("eval", name, [dt], episodes)
            success = float(read_report(report)["main.success_rate"])
            if not success >= TARGET:
                return f"main-bucket success {success} < {TARGET}"
            return self.record(f"eval.{name}", digest(report.read_bytes()))

        self.operation(f"eval --checkpoint {name}/{ckpt.name}", op)

    def scripted_eval(self, episodes: int) -> None:
        report = self.work / "scripted.txt"

        def op():
            code, dt = self.cli(["eval", "--scripted", "--episodes", str(episodes),
                                 "--seed", str(EPISODE_SEED), "--report", str(report)])
            if code != 0:
                return f"exit code {code}"
            self.timings.add("scripted", None, [dt], episodes)
            success = float(read_report(report)["main.success_rate"])
            if success != 1.0:
                return f"scripted main-bucket success {success} != 1.0"
            return self.record("eval.scripted", digest(report.read_bytes()))

        self.operation("eval --scripted", op)

    def emulate(self, ckpt: Path, delay: int) -> None:
        trace_path = self.work / "emulate.csv"
        name = ckpt.parent.name

        def op():
            code, dt = self.cli(["emulate", "--checkpoint", str(ckpt), "--seed", str(EPISODE_SEED),
                                 "--delay", str(delay), "--trace", str(trace_path)])
            if code != 0:
                return f"exit code {code}"
            self.timings.add("emulate", (name, delay), [dt], 1)
            trace = self.trace_mod.read_trace_csv(str(trace_path))
            gap = abs(self.oracle_mod.reward_oracle(trace, self.env_config) - trace.total_reward())
            if not gap <= ORACLE_TOL:
                return f"reward oracle disagrees with the trace by {gap}"
            return self.record(f"emulate.{name}.delay{delay}", digest(trace_path.read_bytes()))

        self.operation(f"emulate {name} --delay {delay}", op)

    def run_pass(self, plan: Plan, size: Size) -> Path:
        """Train each of the plan's runs and check its checkpoint; returns the last one."""
        for seed in plan.seeds:
            ckpt = self.train(seed, size.desk_budget)
            for _ in range(plan.check_rounds):
                self.eval_checkpoint(ckpt, size.eval_episodes)
                for delay in plan.delays:
                    self.emulate(ckpt, delay)
                self.scripted_eval(size.eval_episodes)
        return ckpt


def setup_time(bench: Bench, workload: str, ckpt: Path) -> float:
    argv = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(bench.config)]
    if workload == "deploy":  # the CLI commands it times read a checkpoint first
        argv.append(str(ckpt))
    return float(subprocess.run(argv, check=True, capture_output=True, text=True, timeout=60).stdout)


def end_to_end(t: Timings, setup: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "train_steps_per_s": t.rate("train"),
        "time_to_80_s": t.seconds("to80"),
        "steps_to_80": t.total_work("to80"),
        "eval_episodes_per_s": t.rate("eval"),
        "scripted_eval_episodes_per_s": t.rate("scripted"),
        "emulate_episodes_per_s": t.rate("emulate"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def machine_facts() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: Size = FULL) -> dict:
    """Run one workload and return the result object printed as the last line."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import loader_rl

    if Path(loader_rl.__file__).resolve().parent != SRC / "loader_rl":
        raise SystemExit(f"imported loader_rl from {loader_rl.__file__}, not from {SRC}")
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".bench_run"))
    try:
        bench = Bench(work)
        plan = make_plan(workload, seed, size)
        print("machine " + json.dumps(machine_facts(), sort_keys=True))
        if trace:
            import tracing

            t0 = time.perf_counter()
            bench.run_pass(plan, size)
            untraced = time.perf_counter() - t0
            with tracing.Tracer() as tracer:
                t0 = time.perf_counter()
                bench.run_pass(plan, size)
                traced = time.perf_counter() - t0
            values = tracer.metrics(traced, untraced)
            units = tracing.METRICS
        else:
            passes = 0
            setup = []
            start = time.perf_counter()
            # start a pass only if one more of average length still fits
            while not passes or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
                ckpt = bench.run_pass(plan, size)
                passes += 1
                setup.append(setup_time(bench, workload, ckpt))  # spread over the run
            while len(setup) < size.setup_probes:
                setup.append(setup_time(bench, workload, ckpt))
            values = end_to_end(bench.timings, setup)
            units = E2E_UNITS
            print(f"passes {passes}; setup probes {sorted(setup)}")
            for kind in ("train", "to80", "eval", "scripted", "emulate"):
                print(bench.timings.summary(kind))
            for (kind, s), steps in sorted(bench.timings.work.items(), key=str):
                if kind == "to80":
                    runs = bench.timings.repeats(kind, s)
                    print(f"desk seed {s}: reached {TARGET} after {steps} steps, "
                          f"in {' '.join(f'{x:.3f}' for x in runs)} s")
        print(f"error_rate {bench.failed / bench.attempted!r} ratio "
              f"({bench.failed} of {bench.attempted} operations failed)")
        print("evidence " + json.dumps(bench.evidence, sort_keys=True))
        for name, value in values.items():
            print(f"{name} {value!r} {units[name]}")
        return {
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_run").rmdir()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["desk_train", "deploy"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "loader_rl" / "__init__.py").is_file():
        print(f"error: no loader_rl package under {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

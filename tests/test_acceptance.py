"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers.

Criterion 5 trains for real (seeds tried in order, early-stopped once
the periodic evaluation saturates) and then scores the retained best
checkpoint on the 100-episode protocol; its deviations from the
deployment hyperparameters (raised learning rate, thresholded-Gaussian
exploration, deployment-rate control interval) are printed as the
experiment record.
"""

import math
import time

import numpy as np
import pytest

from loader_rl.cli import main
from loader_rl.emulator import (
    EmulationConfig,
    braking_onset_time,
    final_overshoot,
    run_emulated_episode,
)
from loader_rl.env import ApproachEnv, EnvConfig, Outcome, compute_reward
from loader_rl.evaluate import evaluate_policy, greedy_policy_fn, run_episode
from loader_rl.oracle import LatchedBrakePolicy, OracleConfig, max_reward_bound
from loader_rl.policy import ExplorationMode
from loader_rl.ppo import (
    TrainConfig,
    clipped_policy_loss,
    compute_gae,
    ppo_total_loss,
)
from loader_rl.sim import BrakeModel
from loader_rl.train import train
from tests.test_env import REWARD_CASES
from tests.test_ppo import gae_brute_force, make_batch


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


CFG = EnvConfig()


class TestCriterion1RewardConformance:
    def test_branch_table(self):
        t0 = time.time()
        assert len(REWARD_CASES) == 12
        for case in REWARD_CASES:
            prev_d, curr_d, prev_l, curr_l, speed, step_count, o_r, t_m, expected, outcome = case
            rb = compute_reward(prev_d, curr_d, prev_l, curr_l, speed, step_count, o_r, t_m, CFG)
            assert rb.total == pytest.approx(expected, abs=1e-12)
            assert rb.outcome is outcome
            if outcome is not Outcome.RUNNING:
                assert rb.total in (-1.0, 1.0)
        elapsed = time.time() - t0
        report(1, elapsed < 1.0,
               f"12-state branch table exact (terminals exactly +-1) in {elapsed:.3f} s")


class TestCriterion2GaeOracle:
    def test_recursion_matches_brute_force(self):
        t0 = time.time()
        rng = np.random.default_rng(20260808)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 33))
            rewards = rng.normal(size=n)
            values = rng.normal(size=n)
            dones = (rng.random(n) < 0.2).astype(float)
            boot = float(rng.normal())
            adv, _ = compute_gae(rewards, values, dones, boot, 0.99, 0.9)
            expect = gae_brute_force(rewards, values, dones, boot, 0.99, 0.9)
            worst = max(worst, float(np.max(np.abs(adv - expect))))
        elapsed = time.time() - t0
        report(2, worst < 1e-9 and elapsed < 5.0,
               f"1000 rollouts, max |recursive - brute force| = {worst:.2e} in {elapsed:.2f} s")


class TestCriterion3PpoLossConformance:
    def test_loss_examples_and_gradient(self):
        # the three pinned clipped-loss examples
        assert clipped_policy_loss(np.ones(3), np.array([0.5, -1.0, 2.0]), 0.4) == pytest.approx(
            -np.mean([0.5, -1.0, 2.0]), abs=1e-12
        )
        assert clipped_policy_loss(np.array([2.0]), np.array([1.0]), 0.4) == pytest.approx(-1.4, abs=1e-12)
        assert clipped_policy_loss(np.array([0.5]), np.array([-1.0]), 0.4) == pytest.approx(0.6, abs=1e-12)

        # 16-sample batch against an independently coded scalar formula
        config = TrainConfig()
        params, obs, actions, lp_old, adv, returns = make_batch(seed=12, n=16)
        got = ppo_total_loss(params, obs, actions, lp_old, adv, returns, config)
        want = _independent_total_loss(params, obs, actions, lp_old, adv, returns, config)
        loss_err = abs(got - want)

        # analytic policy gradient vs central finite differences
        from loader_rl.ppo import _minibatch

        config = TrainConfig(vf_coef=0.0, ent_coef=0.0)
        params, obs, actions, lp_old, adv, returns = make_batch(seed=5, n=16)
        grads = [np.empty(a.shape) for a in params.trainable_arrays()]
        _minibatch(params, obs, actions, lp_old, adv, returns, config, out=grads)
        h = 1e-5
        worst_rel = 0.0
        for gi, p in enumerate(params.actor.params):
            flat = p.reshape(-1)
            fd = np.zeros(flat.size)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                up = ppo_total_loss(params, obs, actions, lp_old, adv, returns, config)
                flat[k] = orig - h
                dn = ppo_total_loss(params, obs, actions, lp_old, adv, returns, config)
                flat[k] = orig
                fd[k] = (up - dn) / (2.0 * h)
            g = grads[gi].reshape(-1)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(g), np.linalg.norm(fd), 1e-12)
            worst_rel = max(worst_rel, rel)

        report(3, loss_err < 1e-10 and worst_rel < 1e-4,
               f"16-sample loss |err| = {loss_err:.2e}; gradient vs FD rel err = {worst_rel:.2e}")


def _independent_total_loss(params, obs, actions, lp_old, adv, returns, config):
    policy_sum, value_sum, entropy_sum = 0.0, 0.0, 0.0
    n = len(obs)
    for i in range(n):
        logits = params.actor(obs[i])
        v = float(params.critic(obs[i])[0])
        lp = 0.0
        for j in range(2):
            p = 1.0 / (1.0 + math.exp(-logits[j]))
            lp += math.log(p) if actions[i, j] == 1.0 else math.log(1.0 - p)
            entropy_sum += -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))
        ratio = math.exp(max(-30.0, min(30.0, lp - lp_old[i])))
        clipped = max(1.0 - config.clip_range, min(1.0 + config.clip_range, ratio))
        policy_sum += min(ratio * adv[i], clipped * adv[i])
        value_sum += (v - returns[i]) ** 2
    return -policy_sum / n + config.vf_coef * value_sum / n - config.ent_coef * entropy_sum / n


class TestCriterion4OracleTaskCompletion:
    def test_full_degree_sweep(self):
        t0 = time.time()
        env = ApproachEnv()
        oracle = OracleConfig()
        bound = max_reward_bound(env.config)
        failures = []
        for deg in range(360):
            result, _ = run_episode(
                env, oracle.rule, seed=deg,
                heading=math.radians(deg),
            )
            ok = (
                result.outcome is Outcome.SUCCESS
                and result.final_distance < env.config.vicinity
                and result.reward <= bound + 1e-9
            )
            if not ok:
                failures.append(deg)
        elapsed = time.time() - t0
        report(4, not failures and elapsed < 10.0,
               f"scripted policy succeeded for 360/360 headings, rewards <= {bound:.2f}, "
               f"in {elapsed:.2f} s")


class TestCriterion5DeskScaleTraining:
    def test_one_of_three_seeds_reaches_80_percent(self):
        t0 = time.time()
        # Deviations from the deployment table, recorded per the protocol:
        # learning rate raised to 3e-4 for the desk run; exploration uses the
        # thresholded-Gaussian mode (the binary-action analogue of
        # state-dependent exploration, which the table enables); decisions at
        # one tenth of the plant rate with zero-order hold, the deployment
        # control rate.
        deviations = "lr=3e-4, exploration=continuous_threshold, control_interval=10"
        results = {}
        passed = None
        for seed in (1, 2, 3):
            config = TrainConfig(
                total_timesteps=1_000_000,
                learning_rate=3e-4,
                exploration_mode=ExplorationMode.CONTINUOUS_THRESHOLD,
                control_interval=10,
                seed=seed,
            )
            stop = lambda res: res.best_eval is not None and res.best_eval[0] >= 0.95
            result = train(lambda: ApproachEnv(), config, stop_when=stop)
            assert result.last.timesteps <= 1_000_000 + config.n_steps * config.control_interval
            ckpt = result.best if result.best is not None else result.last
            rep = evaluate_policy(
                ApproachEnv(), greedy_policy_fn(ckpt.params), 100, 12345,
                decision_interval=config.control_interval,
            )
            results[seed] = (rep.main.success_rate, result.last.timesteps)
            if rep.main.success_rate >= 0.8:
                passed = seed
                break
        elapsed = time.time() - t0
        detail = ", ".join(
            f"seed {s}: {sr:.2f} main-bucket success @ {ts} steps" for s, (sr, ts) in results.items()
        )
        report(5, passed is not None and elapsed < 1800.0,
               f"{detail}; deviations recorded: {deviations}; {elapsed:.0f} s")


class TestCriterion6DelayRobustness:
    def test_later_braking_and_monotone_overshoot(self):
        t0 = time.time()
        oracle = OracleConfig()
        onsets, overshoots = [], []
        for delay in (0.0, 1.0, 2.0, 3.0):
            emu = EmulationConfig(position_delay=delay)
            trace = run_emulated_episode(LatchedBrakePolicy(oracle), emu, seed=11)
            onsets.append(braking_onset_time(trace))
            overshoots.append(final_overshoot(trace, CFG))
        elapsed = time.time() - t0
        ok = (
            all(o is not None for o in onsets)
            and onsets[3] > onsets[0]
            and overshoots[3] > overshoots[0]
            and all(b >= a - 1e-12 for a, b in zip(overshoots, overshoots[1:]))
            and all(b > a for a, b in zip(onsets, onsets[1:]))
        )
        report(6, ok and elapsed < 10.0,
               f"braking onset {[round(o, 2) for o in onsets]} s, "
               f"overshoot {[round(o, 2) for o in overshoots]} m over delays 0-3 s, "
               f"in {elapsed:.2f} s")


class TestCriterion7Determinism:
    def test_train_and_eval_reproduce_bytes(self, tmp_path):
        import hashlib

        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "seed=5\ntrain.total_timesteps=1024\ntrain.n_steps=512\n"
            "train.batch_size=128\ntrain.n_epochs=2\ntrain.eval_every_updates=1\n"
            "train.eval_episodes=2\nenv.max_episode_time=4.0\n"
        )
        metrics_hashes = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", str(cfg), "--out", str(out)]) == 0
            metrics_hashes.append(hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest())

        reports = []
        for name in ("r1", "r2"):
            p = tmp_path / name
            assert main(["eval", "--scripted", "--episodes", "15", "--seed", "9",
                         "--report", str(p)]) == 0
            reports.append(p.read_text())

        ok = metrics_hashes[0] == metrics_hashes[1] and reports[0] == reports[1]
        report(7, ok, "byte-identical metrics.csv across train reruns; identical eval reports")


class TestCriterion8EmulatorDegeneracy:
    def test_degenerate_emulation_equals_environment(self):
        oracle = OracleConfig()
        emu = EmulationConfig(
            position_delay=0.0, control_interval=1, brake_model=BrakeModel.IDEAL,
            start_from_standstill=False,
        )
        mismatches = 0
        rows = 0
        for seed in (0, 11, 29):
            trace_emu = run_emulated_episode(oracle.rule, emu, seed)
            _, trace_env = run_episode(
                ApproachEnv(), oracle.rule, seed, collect_trace=True
            )
            assert len(trace_emu.rows) == len(trace_env.rows)
            for r_env, r_emu in zip(trace_env.rows, trace_emu.rows):
                rows += 1
                for col in trace_env.columns:
                    if r_emu[col] != r_env[col]:
                        mismatches += 1
        report(8, mismatches == 0,
               f"delay 0 / rate 1 / ideal-brake emulation bit-identical to the plain "
               f"environment on {rows} rows of shared columns")

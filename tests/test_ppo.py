"""Optimizer-side tests: GAE against a brute-force oracle, clipped-loss
arithmetic, analytic gradients against finite differences, update
behavior, and training-loop determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loader_rl.checkpoint import read_checkpoint
from loader_rl.env import ApproachEnv, EnvConfig
from loader_rl.nets import clip_by_global_norm, global_norm
from loader_rl.policy import (
    ExplorationMode,
    bernoulli_entropy,
    bernoulli_log_prob,
    init_policy,
)
from loader_rl.ppo import (
    PPOLearner,
    RolloutBuffer,
    TrainConfig,
    clipped_policy_loss,
    compute_gae,
    normalize_advantages,
    ppo_ratio,
    ppo_total_loss,
)
from loader_rl.train import train


def gae_brute_force(rewards, values, dones, bootstrap_value, gamma, lam):
    """Independent oracle: materialize A_t = sum_k (gamma*lam)^k delta_{t+k}
    with explicit episode-boundary masking."""
    n = len(rewards)
    deltas = np.empty(n)
    for t in range(n):
        next_v = bootstrap_value if t == n - 1 else values[t + 1]
        deltas[t] = rewards[t] + gamma * next_v * (1.0 - dones[t]) - values[t]
    adv = np.zeros(n)
    for t in range(n):
        acc = 0.0
        w = 1.0
        for k in range(t, n):
            acc += w * deltas[k]
            if dones[k]:
                break
            w *= gamma * lam
        adv[t] = acc
    return adv


class TestComputeGae:
    def test_single_terminal_step(self):
        adv, ret = compute_gae([1.0], [0.0], [1.0], 99.0, 0.99, 0.9)
        assert adv[0] == 1.0
        assert ret[0] == 1.0

    def test_two_step_hand_recursion(self):
        # delta_1 = 1 - 0.2 = 0.8 (terminal); delta_0 = 0.99*0.2 - 0.5
        adv, ret = compute_gae([0.0, 1.0], [0.5, 0.2], [0.0, 1.0], 0.0, 0.99, 0.9)
        d0 = 0.0 + 0.99 * 0.2 - 0.5
        assert adv[1] == pytest.approx(0.8, abs=1e-12)
        assert adv[0] == pytest.approx(d0 + 0.99 * 0.9 * 0.8, abs=1e-12)
        assert adv[0] == pytest.approx(0.4108, abs=1e-4)
        assert ret[0] == pytest.approx(adv[0] + 0.5, abs=1e-12)

    def test_monte_carlo_limit(self):
        # gamma=1, lambda=1, no terminals: A_t = sum of future rewards
        # plus bootstrap minus V_t
        rng = np.random.default_rng(1)
        r = rng.normal(size=10)
        v = rng.normal(size=10)
        boot = 0.7
        adv, _ = compute_gae(r, v, np.zeros(10), boot, 1.0, 1.0)
        for t in range(10):
            assert adv[t] == pytest.approx(r[t:].sum() + boot - v[t], abs=1e-9)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2026)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 33))
            rewards = rng.normal(size=n)
            values = rng.normal(size=n)
            dones = (rng.random(n) < 0.15).astype(float)
            boot = float(rng.normal())
            adv, ret = compute_gae(rewards, values, dones, boot, 0.99, 0.9)
            expect = gae_brute_force(rewards, values, dones, boot, 0.99, 0.9)
            worst = max(worst, float(np.max(np.abs(adv - expect))))
            assert np.allclose(ret, adv + values, atol=1e-12)
        assert worst < 1e-9

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_gae([1.0, 2.0], [0.0], [0.0, 0.0], 0.0, 0.99, 0.9)
        with pytest.raises(ValueError):
            compute_gae([], [], [], 0.0, 0.99, 0.9)


class TestPpoRatio:
    def test_equal_log_probs(self):
        assert ppo_ratio(-1.3, -1.3) == 1.0

    def test_log_identities(self):
        assert ppo_ratio(-1.0 + math.log(2.0), -1.0) == pytest.approx(2.0, rel=1e-12)
        assert ppo_ratio(-1.0 - math.log(4.0), -1.0) == pytest.approx(0.25, rel=1e-12)

    def test_overflow_clamped(self):
        assert ppo_ratio(1000.0, 0.0) == pytest.approx(math.exp(30.0))
        assert ppo_ratio(0.0, 1000.0) == pytest.approx(math.exp(-30.0))

    def test_vectorized(self):
        out = ppo_ratio(np.array([0.0, math.log(2.0)]), np.zeros(2))
        assert out == pytest.approx([1.0, 2.0])


class TestClippedPolicyLoss:
    def test_ratio_one_no_clipping(self):
        adv = np.array([0.5, -1.0, 2.0])
        loss = clipped_policy_loss(np.ones(3), adv, 0.4)
        assert loss == pytest.approx(-adv.mean(), abs=1e-12)

    def test_clip_binds_above(self):
        loss = clipped_policy_loss(np.array([2.0]), np.array([1.0]), 0.4)
        assert loss == pytest.approx(-1.4, abs=1e-12)

    def test_clip_binds_pessimistically_below(self):
        loss = clipped_policy_loss(np.array([0.5]), np.array([-1.0]), 0.4)
        assert loss == pytest.approx(0.6, abs=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            clipped_policy_loss(np.array([]), np.array([]), 0.4)

    def test_clipped_objective_never_exceeds_unclipped(self):
        rng = np.random.default_rng(7)
        r = np.exp(rng.normal(size=500))
        a = rng.normal(size=500)
        clipped = np.clip(r, 0.6, 1.4) * a
        assert np.all(np.minimum(r * a, clipped) <= r * a + 1e-12)


class TestNormalizeAdvantages:
    """The spelt-out normalization has the bits of the numpy formula it
    replaced, at every minibatch length: numpy sums up to 8 elements in
    order and longer arrays pairwise, in blocks of 128."""

    @staticmethod
    def reference(a):
        return (a - a.mean()) / (a.std() + 1e-8)

    def test_every_length_to_300(self):
        rng = np.random.default_rng(23)
        for n in range(1, 301):
            for scale in (1e-6, 1.0, 1e6):
                a = rng.normal(loc=rng.normal() * scale, scale=scale, size=n)
                assert normalize_advantages(a).tobytes() == self.reference(a).tobytes(), (n, scale)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=-1e100, max_value=1e100), min_size=1, max_size=300))
    def test_any_values(self, values):
        a = np.array(values)
        assert normalize_advantages(a).tobytes() == self.reference(a).tobytes()


class TestEntropy:
    def test_max_entropy_at_zero_logits(self):
        assert bernoulli_entropy(np.zeros(2)) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_entropy_maximal_by_perturbation(self):
        h0 = bernoulli_entropy(np.zeros(2))
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = rng.normal(scale=0.5, size=2)
            if np.any(z != 0.0):
                assert bernoulli_entropy(z) < h0


def make_batch(seed=0, n=16, obs_dim=4):
    """A random minibatch with ratios kept away from clip kinks so finite
    differences stay valid."""
    rng = np.random.default_rng(seed)
    params = init_policy(obs_dim, rng)
    # make the actor output non-trivial logits
    for p in params.actor.params:
        p += rng.normal(scale=0.15, size=p.shape)
    obs = rng.normal(size=(n, obs_dim))
    actions = (rng.random((n, 2)) < 0.5).astype(float)
    logits = params.actor(obs)
    lp_now = bernoulli_log_prob(logits, actions)
    lp_old = lp_now + rng.normal(scale=0.25, size=n)
    adv = normalize_advantages(rng.normal(size=n))
    returns = rng.normal(size=n)
    return params, obs, actions, lp_old, adv, returns


class TestLossAgainstIndependentScalar:
    def independent_loss(self, params, obs, actions, lp_old, adv, returns, config):
        """Plain transliteration of the loss with python loops."""
        policy_sum = 0.0
        value_sum = 0.0
        entropy_sum = 0.0
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
        return (
            -policy_sum / n
            + config.vf_coef * (value_sum / n)
            - config.ent_coef * (entropy_sum / n)
        )

    def test_hand_built_four_sample_buffer(self):
        config = TrainConfig(n_steps=4, batch_size=4, ent_coef=0.01)
        params, obs, actions, lp_old, adv, returns = make_batch(seed=11, n=4)
        got = ppo_total_loss(params, obs, actions, lp_old, adv, returns, config)
        want = self.independent_loss(params, obs, actions, lp_old, adv, returns, config)
        assert got == pytest.approx(want, abs=1e-10)

    def test_sixteen_sample_batch(self):
        config = TrainConfig()
        params, obs, actions, lp_old, adv, returns = make_batch(seed=12, n=16)
        got = ppo_total_loss(params, obs, actions, lp_old, adv, returns, config)
        want = self.independent_loss(params, obs, actions, lp_old, adv, returns, config)
        assert got == pytest.approx(want, abs=1e-10)


class TestGradientVsFiniteDifferences:
    def test_policy_gradient_matches_central_differences(self):
        from loader_rl.ppo import _minibatch

        config = TrainConfig(vf_coef=0.0, ent_coef=0.0)  # isolate the policy term
        params, obs, actions, lp_old, adv, returns = make_batch(seed=5, n=16)

        # precondition: keep every sample away from min()/clip() kinks
        logits = params.actor(obs)
        ratios = np.exp(bernoulli_log_prob(logits, actions) - lp_old)
        assert np.all(np.abs(ratios - (1.0 - config.clip_range)) > 1e-3)
        assert np.all(np.abs(ratios - (1.0 + config.clip_range)) > 1e-3)

        grads = [np.empty(a.shape) for a in params.trainable_arrays()]
        _minibatch(params, obs, actions, lp_old, adv, returns, config, out=grads)
        actor_grads = grads[: len(params.actor.params)]

        h = 1e-5
        for gi, p in enumerate(params.actor.params):
            fd = np.zeros_like(p)
            flat = p.reshape(-1)
            fd_flat = fd.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                up = ppo_total_loss(params, obs, actions, lp_old, adv, returns, config)
                flat[k] = orig - h
                dn = ppo_total_loss(params, obs, actions, lp_old, adv, returns, config)
                flat[k] = orig
                fd_flat[k] = (up - dn) / (2.0 * h)
            num = np.linalg.norm(actor_grads[gi] - fd)
            den = max(np.linalg.norm(actor_grads[gi]), np.linalg.norm(fd), 1e-12)
            assert num / den < 1e-4, f"array {gi}: relative error {num / den:.2e}"

    def test_continuous_mode_gradient_matches(self):
        from loader_rl.ppo import _minibatch

        config = TrainConfig(
            vf_coef=0.0, ent_coef=0.0, exploration_mode=ExplorationMode.CONTINUOUS_THRESHOLD
        )
        rng = np.random.default_rng(9)
        params = init_policy(4, rng, ExplorationMode.CONTINUOUS_THRESHOLD)
        n = 12
        obs = rng.normal(size=(n, 4))
        actions = rng.normal(size=(n, 2))  # pre-squash samples
        means = params.actor(obs)
        from loader_rl.policy import gaussian_tanh_log_prob

        lp_old = gaussian_tanh_log_prob(actions, means, params.log_std) + rng.normal(scale=0.2, size=n)
        adv = normalize_advantages(rng.normal(size=n))
        returns = rng.normal(size=n)

        grads = [np.empty(a.shape) for a in params.trainable_arrays()]
        _minibatch(params, obs, actions, lp_old, adv, returns, config, out=grads)
        log_std_grad = grads[-1]

        h = 1e-6
        fd = np.zeros(2)
        for k in range(2):
            orig = params.log_std[k]
            params.log_std[k] = orig + h
            up = ppo_total_loss(params, obs, actions, lp_old, adv, returns, config)
            params.log_std[k] = orig - h
            dn = ppo_total_loss(params, obs, actions, lp_old, adv, returns, config)
            params.log_std[k] = orig
            fd[k] = (up - dn) / (2.0 * h)
        assert np.allclose(log_std_grad, fd, rtol=1e-4, atol=1e-7)

    @pytest.mark.parametrize("mode", list(ExplorationMode))
    def test_every_array_matches_with_value_and_entropy_terms(self, mode):
        """Critic, actor and log_std gradients, with the value and entropy
        terms on, against central differences on a seeded sample of each
        array's entries."""
        from loader_rl.policy import gaussian_tanh_log_prob
        from loader_rl.ppo import _minibatch

        config = TrainConfig(vf_coef=0.5, ent_coef=0.01, exploration_mode=mode)
        rng = np.random.default_rng(21)
        params = init_policy(4, rng, mode)
        for p in params.actor.params:
            p += rng.normal(scale=0.15, size=p.shape)
        n = 16
        obs = rng.normal(size=(n, 4))
        out = params.actor(obs)
        if params.log_std is None:
            actions = (rng.random((n, 2)) < 0.5).astype(float)
            lp_now = bernoulli_log_prob(out, actions)
        else:
            params.log_std[:] = rng.normal(scale=0.3, size=2)  # std != 1 shows in the actor term
            actions = out + rng.normal(size=(n, 2))  # pre-squash samples
            lp_now = gaussian_tanh_log_prob(actions, out, params.log_std)
        lp_old = lp_now + rng.normal(scale=0.25, size=n)
        adv = normalize_advantages(rng.normal(size=n))
        returns = rng.normal(size=n)

        arrays = params.trainable_arrays()
        grads = [np.empty(a.shape) for a in arrays]
        ratios = _minibatch(params, obs, actions, lp_old, adv, returns, config, out=grads)[4]
        # precondition: keep every sample away from the clip kinks
        assert np.all(np.abs(np.abs(ratios - 1.0) - config.clip_range) > 1e-3)

        h = 1e-6
        pick = np.random.default_rng(3)
        for gi, (p, g) in enumerate(zip(arrays, grads)):
            flat = p.reshape(-1)
            entries = pick.choice(flat.size, size=min(flat.size, 6), replace=False)
            fd = np.empty(len(entries))
            for j, k in enumerate(entries):
                orig = flat[k]
                flat[k] = orig + h
                up = ppo_total_loss(params, obs, actions, lp_old, adv, returns, config)
                flat[k] = orig - h
                dn = ppo_total_loss(params, obs, actions, lp_old, adv, returns, config)
                flat[k] = orig
                fd[j] = (up - dn) / (2.0 * h)
            analytic = g.reshape(-1)[entries]
            num = np.linalg.norm(analytic - fd)
            den = max(np.linalg.norm(analytic), np.linalg.norm(fd), 1e-12)
            assert num / den < 1e-4, f"array {gi}: relative error {num / den:.2e}"


class TestAbortedMinibatch:
    """A non-finite loss stops the minibatch before its backward pass."""

    def test_out_is_left_bit_for_bit(self):
        from loader_rl.ppo import _minibatch

        params, obs, actions, lp_old, adv, returns = make_batch(seed=5, n=16)
        returns[3] = math.nan
        rng = np.random.default_rng(1)
        out = [rng.normal(size=a.shape) for a in params.trainable_arrays()]
        before = [a.tobytes() for a in out]
        total = _minibatch(params, obs, actions, lp_old, adv, returns, TrainConfig(), out=out)[0]
        assert math.isnan(total)
        assert [a.tobytes() for a in out] == before

    def test_nonfinite_first_minibatch_runs_no_backward_or_step(self, monkeypatch):
        from loader_rl.nets import MLP, Adam

        calls = {"backward": 0, "step": 0}

        def counted(name, method):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(MLP, "backward", counted("backward", MLP.backward))
        monkeypatch.setattr(Adam, "step", counted("step", Adam.step))
        rng = np.random.default_rng(6)
        params = init_policy(4, rng)
        config = TrainConfig(n_steps=16, batch_size=8, n_epochs=1)

        # control: a finite update counts two backward passes and one step per minibatch
        buffer = fill_buffer(RolloutBuffer(16, 4), params, rng, np.zeros(16))
        assert not PPOLearner(params, config).update(buffer, np.random.default_rng(0)).aborted
        assert calls == {"backward": 4, "step": 2}

        calls.update(backward=0, step=0)
        rewards = np.zeros(16)
        rewards[-1] = math.nan  # GAE carries the last step's NaN back to every sample
        buffer = fill_buffer(RolloutBuffer(16, 4), params, rng, rewards)
        stats = PPOLearner(params, config).update(buffer, np.random.default_rng(0))
        assert stats.aborted and stats.n_minibatches == 0
        assert calls == {"backward": 0, "step": 0}


class TestGradientClipping:
    def test_norm_ten_clipped_to_half(self):
        g = np.array([6.0, 8.0])  # norm 10
        norm = clip_by_global_norm(g, [g], 0.5)
        assert norm == pytest.approx(10.0)
        assert global_norm([g]) == pytest.approx(0.5, rel=1e-12)

    def test_small_gradients_untouched(self):
        g = np.array([0.1, 0.2])
        before = g.copy()
        clip_by_global_norm(g, [g], 0.5)
        assert np.array_equal(g, before)


def fill_buffer(buffer, params, rng, rewards=None, obs_scale=1.0):
    n = buffer.n_steps
    for i in range(n):
        obs = rng.normal(size=params.obs_dim) * obs_scale
        logits = params.actor(obs)
        action = (rng.random(2) < 0.5).astype(float)
        lp = float(bernoulli_log_prob(logits, action))
        value = float(params.critic(obs)[0])
        r = 0.0 if rewards is None else rewards[i]
        buffer.add(obs, action, lp, value, r, False)
    return buffer


class TestPpoUpdate:
    def test_zero_advantages_leave_actor_unchanged(self):
        # zero rewards and zero stored values make every advantage zero
        rng = np.random.default_rng(4)
        params = init_policy(4, rng)
        config = TrainConfig(n_steps=32, batch_size=16, n_epochs=2)
        buffer = RolloutBuffer(32, 4)
        for _ in range(32):
            obs = rng.normal(size=4)
            action = (rng.random(2) < 0.5).astype(float)
            lp = float(bernoulli_log_prob(params.actor(obs), action))
            buffer.add(obs, action, lp, 0.0, 0.0, False)
        buffer.bootstrap_value = 0.0

        before = [p.copy() for p in params.actor.params]
        probe = rng.normal(size=(20, 4))
        logits_before = params.actor(probe)
        stats = PPOLearner(params, config).update(buffer, np.random.default_rng(0))
        assert not stats.aborted
        for a, b in zip(params.actor.params, before):
            assert np.array_equal(a, b)
        # distribution on a probe set is untouched: KL is exactly zero
        logits_after = params.actor(probe)
        assert np.array_equal(logits_before, logits_after)

    def test_nonfinite_loss_aborts_and_keeps_params(self):
        rng = np.random.default_rng(6)
        params = init_policy(4, rng)
        config = TrainConfig(n_steps=16, batch_size=8, n_epochs=1)
        buffer = RolloutBuffer(16, 4)
        rewards = np.zeros(16)
        rewards[3] = float("nan")
        fill_buffer(buffer, params, rng, rewards)
        before = [a.copy() for a in params.trainable_arrays()]
        stats = PPOLearner(params, config).update(buffer, np.random.default_rng(0))
        assert stats.aborted
        assert "non-finite" in stats.abort_reason
        for a, b in zip(params.trainable_arrays(), before):
            assert np.array_equal(a, b)
        # no loss was computed, so none is reported
        for name in ("policy_loss", "value_loss", "entropy", "ratio_mean", "clip_fraction"):
            assert math.isnan(getattr(stats, name)), name

    def test_partial_buffer_rejected(self):
        rng = np.random.default_rng(6)
        params = init_policy(4, rng)
        config = TrainConfig(n_steps=16, batch_size=8)
        buffer = RolloutBuffer(16, 4)
        buffer.add(np.zeros(4), np.zeros(2), 0.0, 0.0, 0.0, False)
        with pytest.raises(ValueError):
            PPOLearner(params, config).update(buffer, np.random.default_rng(0))

    def test_update_moves_params_with_signal(self):
        rng = np.random.default_rng(8)
        params = init_policy(4, rng)
        config = TrainConfig(n_steps=64, batch_size=32, n_epochs=2)
        buffer = RolloutBuffer(64, 4)
        fill_buffer(buffer, params, rng, rewards=rng.normal(size=64))
        before = [a.copy() for a in params.trainable_arrays()]
        stats = PPOLearner(params, config).update(buffer, np.random.default_rng(0))
        assert not stats.aborted
        assert stats.n_minibatches == 2 * 2
        moved = any(not np.array_equal(a, b) for a, b in zip(params.trainable_arrays(), before))
        assert moved


class TestUpdateStatsGolden:
    """One update on a fixed seeded buffer, pinned bit for bit: the six means
    of its UpdateStats (``grad_norm`` is written nowhere else) and the
    parameters it leaves. The gradient clip binds on some minibatches and
    not on others, and the entropy bonus is on, so every branch of the
    minibatch runs. Taken before the minibatch was restructured, on the
    build of TestTrainingGoldenOutputs."""

    GOLDEN = {
        ExplorationMode.BERNOULLI: (
            ("-0x1.53bd3b2d5eb2fp-8", "0x1.b6ba668cdb089p+1", "0x1.5c2319e65b203p+0",
             "0x1.09d89d333047fp+0", "0x1.5800000000000p-3", "0x1.625fc56415105p+0"),
            "1c3ed36fbb8a34c05ca9b1d636da9111c0ca1d6756e00e040ac99d47e933e6f0"),
        ExplorationMode.CONTINUOUS_THRESHOLD: (
            ("0x1.2ecd288a23578p-6", "0x1.c1acab17b9f71p+1", "0x1.6b44c1992d2cbp+1",
             "0x1.07e6ac628e0e9p+0", "0x1.7800000000000p-3", "0x1.6cec25ad95be7p+0"),
            "8e3cc3892ded8dacead3b02a7dafb39747fcf88219114e4987c29ad030abe50a"),
    }

    @pytest.mark.parametrize("mode", list(ExplorationMode))
    def test_one_update(self, mode):
        import hashlib

        from loader_rl.policy import gaussian_tanh_log_prob

        rng = np.random.default_rng(2718)
        params = init_policy(4, rng, mode)
        for p in params.actor.params:
            p += rng.normal(scale=0.1, size=p.shape)
        config = TrainConfig(n_steps=256, batch_size=64, n_epochs=3, learning_rate=3e-4,
                             ent_coef=0.01, max_grad_norm=2.0, exploration_mode=mode)
        buffer = RolloutBuffer(256, 4)
        for _ in range(256):
            obs = rng.normal(size=4)
            out = params.actor(obs)
            if params.log_std is None:
                action = (rng.random(2) < 0.5).astype(float)
                lp = float(bernoulli_log_prob(out, action))
            else:
                action = out + rng.normal(size=2)
                lp = float(gaussian_tanh_log_prob(action, out, params.log_std))
            lp += float(rng.normal(scale=0.3))
            buffer.add(obs, action, lp, float(params.critic(obs)[0]), float(rng.normal()),
                       rng.random() < 0.05)
        buffer.bootstrap_value = 0.25
        learner = PPOLearner(params, config)
        stats = learner.update(buffer, np.random.default_rng(31))
        means, theta_sha = self.GOLDEN[mode]
        names = ("policy_loss", "value_loss", "entropy", "ratio_mean", "clip_fraction", "grad_norm")
        assert tuple(getattr(stats, name).hex() for name in names) == means
        assert (stats.n_minibatches, stats.aborted) == (12, False)
        assert hashlib.sha256(learner.theta.tobytes()).hexdigest() == theta_sha


class TestFlatLayout:
    """The learner re-homes every trainable array as a view into its one
    flat vector, and the views survive updates, rollbacks and checkpoints."""

    @staticmethod
    def learner(seed=6, mode=ExplorationMode.CONTINUOUS_THRESHOLD):
        rng = np.random.default_rng(seed)
        params = init_policy(4, rng, mode)
        before = [a.copy() for a in params.trainable_arrays()]
        learner = PPOLearner(params, TrainConfig(n_steps=16, batch_size=8, n_epochs=1))
        return learner, before, rng

    @staticmethod
    def assert_views(learner):
        arrays = learner.params.trainable_arrays()
        assert sum(a.size for a in arrays) == learner.theta.size
        for a in arrays:
            assert np.shares_memory(a, learner.theta)

    @pytest.mark.parametrize("mode", list(ExplorationMode))
    def test_construction_rehomes_without_changing_a_bit(self, mode):
        learner, before, _ = self.learner(mode=mode)
        self.assert_views(learner)
        for a, b in zip(learner.params.trainable_arrays(), before):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("corrupt", ["nan_reward", "nan_log_prob_second_minibatch"])
    def test_views_survive_update_and_rollback(self, corrupt):
        learner, _, rng = self.learner()
        params = learner.params
        fill_buffer(buf := RolloutBuffer(16, 4), params, rng, rewards=rng.normal(size=16))
        assert not learner.update(buf, np.random.default_rng(0)).aborted
        self.assert_views(learner)
        after_first = [a.copy() for a in params.trainable_arrays()]
        moments = (learner.optimizer.m.copy(), learner.optimizer.v.copy(), learner.optimizer.t)

        rewards = rng.normal(size=16)
        if corrupt == "nan_reward":
            # GAE spreads the NaN to every sample: the first minibatch aborts
            rewards[3] = float("nan")
            fill_buffer(buf := RolloutBuffer(16, 4), params, rng, rewards)
            seed, steps_before_abort = 1, 0
        else:
            # only sample 15 is NaN and the shuffle puts it in the second
            # minibatch, so one Adam step runs before the abort
            fill_buffer(buf := RolloutBuffer(16, 4), params, rng, rewards)
            buf.log_probs[15] = float("nan")
            seed = next(s for s in range(100)
                        if 15 not in np.random.default_rng(s).permutation(16)[:8])
            steps_before_abort = 1
        stats = learner.update(buf, np.random.default_rng(seed))
        assert stats.aborted and stats.n_minibatches == steps_before_abort
        self.assert_views(learner)
        for a, b in zip(params.trainable_arrays(), after_first):
            assert np.array_equal(a, b)
        assert np.array_equal(learner.optimizer.m, moments[0])
        assert np.array_equal(learner.optimizer.v, moments[1])
        assert learner.optimizer.t == moments[2]

    def test_checkpoint_shares_no_memory(self):
        # the last checkpoint handed to stop_when after update 1 keeps its
        # arrays while update 2 moves the learner's
        seen = []

        def stop_when(result):
            arrays = result.last.params.trainable_arrays()
            seen.append((arrays, [a.copy() for a in arrays]))
            return False

        config = quick_config(eval_every_updates=1,
                              exploration_mode=ExplorationMode.CONTINUOUS_THRESHOLD)
        final = train(small_env, config, stop_when=stop_when)
        assert len(seen) == 2
        (arrays, copies), _ = seen
        for a, b in zip(arrays, copies):
            assert np.array_equal(a, b)
        assert any(not np.array_equal(a, b)
                   for a, b in zip(arrays, final.last.params.trainable_arrays()))


class TestTrainConfigValidation:
    def test_batch_size_must_divide(self):
        with pytest.raises(ValueError):
            TrainConfig(n_steps=100, batch_size=33)

    def test_gamma_range(self):
        with pytest.raises(ValueError):
            TrainConfig(gamma=0.0)
        with pytest.raises(ValueError):
            TrainConfig(gamma=1.5)

    def test_clip_range_positive(self):
        with pytest.raises(ValueError):
            TrainConfig(clip_range=0.0)


def quick_config(**kw):
    base = dict(
        total_timesteps=256, n_steps=128, batch_size=64, n_epochs=2,
        seed=3, eval_every_updates=2, eval_episodes=2,
    )
    base.update(kw)
    return TrainConfig(**base)


def small_env():
    return ApproachEnv(EnvConfig(max_episode_time=4.0))


class TestTrainLoop:
    def test_package_does_not_shadow_train_module(self):
        import types

        import loader_rl.train as T

        assert isinstance(T, types.ModuleType)

    def test_total_timesteps_equals_n_steps_gives_one_update(self):
        config = quick_config(total_timesteps=128)
        result = train(small_env, config)
        assert len(result.metrics) == 1
        assert result.last.timesteps == 128

    def test_fixed_seed_reproduces_metrics_exactly(self):
        from loader_rl.train import format_metrics_row

        a = train(small_env, quick_config())
        b = train(small_env, quick_config())
        assert len(a.metrics) == len(b.metrics)
        for ra, rb in zip(a.metrics, b.metrics):
            assert format_metrics_row(ra) == format_metrics_row(rb)
        for pa, pb in zip(a.last.params.trainable_arrays(), b.last.params.trainable_arrays()):
            assert np.array_equal(pa, pb)

    def test_continuous_mode_runs(self):
        config = quick_config(exploration_mode=ExplorationMode.CONTINUOUS_THRESHOLD)
        result = train(small_env, config)
        assert len(result.metrics) == 2
        assert result.last.params.log_std is not None

    def test_multi_env_rejected(self):
        # one rollout env is all there is: n_envs is not a setting
        with pytest.raises(TypeError, match="n_envs"):
            quick_config(n_envs=2)

    def test_env_error_persists_last_checkpoint(self, tmp_path):
        class FailingEnv(ApproachEnv):
            steps = 0

            def hold(self, action, steps, on_step=None, **kw):
                # hooks the point after each plant step: the 201st step never runs
                def count(env, action):
                    FailingEnv.steps += 1
                    if FailingEnv.steps == 200:
                        raise RuntimeError("sensor dropout")

                return super().hold(action, steps, count, **kw)

        FailingEnv.steps = 0
        out = tmp_path / "run"
        with pytest.raises(RuntimeError, match="sensor dropout"):
            train(lambda: FailingEnv(EnvConfig(max_episode_time=4.0)),
                  quick_config(total_timesteps=1024), out_dir=out)
        assert (out / "last.ckpt").exists()
        # the 200 plant steps completed before the raise
        assert read_checkpoint(out / "last.ckpt").timesteps == 200

    def test_aborted_update_writes_nan_losses(self, tmp_path):
        class NanRewardEnv(ApproachEnv):
            def hold(self, action, steps, on_step=None, **kw):
                total = super().hold(action, steps, on_step, **kw)
                # a lockstep lane is returned as it is; it sums no reward
                return total if kw.get("lane") else float("nan")

        out = tmp_path / "run"
        result = train(lambda: NanRewardEnv(EnvConfig(max_episode_time=4.0)),
                       quick_config(), out_dir=out)
        lines = (out / "metrics.csv").read_text().splitlines()
        header = lines[1].split(",")
        assert len(result.metrics) == 2 and len(lines) == 4
        for row, line in zip(result.metrics, lines[2:]):
            cells = dict(zip(header, line.split(",")))
            for name in ("policy_loss", "value_loss", "entropy", "clip_fraction", "ratio_mean"):
                assert math.isnan(row[name]) and cells[name] == "nan", name
            assert cells["timestep"] == str(row["timestep"])

    def test_each_best_checkpoint_written_once(self, tmp_path, monkeypatch):
        import loader_rl.train as T

        writes = []
        monkeypatch.setattr(T, "write_checkpoint",
                            lambda ckpt, path: writes.append((ckpt, path.name)))
        train(small_env, quick_config(total_timesteps=512, eval_every_updates=1),
              out_dir=tmp_path)
        bests = [ckpt for ckpt, name in writes if name == "best.ckpt"]
        assert bests and len({id(ckpt) for ckpt in bests}) == len(bests)
        assert [name for _, name in writes].count("last.ckpt") == 1

    def test_control_interval_holds_actions(self):
        # a held policy gets one decision per interval: with interval 4 the
        # rollout covers ~4x the plant steps of the same-size buffer
        result_1 = train(small_env, quick_config(total_timesteps=128, control_interval=1))
        result_4 = train(small_env, quick_config(total_timesteps=128, control_interval=4))
        assert result_1.last.timesteps == 128
        # one rollout of 128 decisions x 4 plant steps (minus early episode ends)
        assert result_4.last.timesteps > 300


def _sha(path):
    import hashlib

    return hashlib.sha256(path.read_bytes()).hexdigest()


def _assert_checkpoints(out, whole, payload):
    from tests.test_checkpoint import payload_sha

    for name in ("best.ckpt", "last.ckpt"):
        assert (_sha(out / name), payload_sha(out / name)) == (whole, payload), name


class TestTrainingGoldenOutputs:
    """sha256 of the files two short training runs write: rollout,
    minibatch forward/backward, gradient clip, Adam step, log-std floor,
    greedy eval and checkpoint writer, bit for bit. A checkpoint is also
    pinned by its array payload, which a header change leaves alone. The
    metrics and payload digests were taken before the learner moved its
    parameters into one flat vector, and hold for the build they were
    taken on (CPython 3.11, numpy 2.4, x86-64 OpenBLAS); they are the same
    with one BLAS thread or several."""

    def test_desk_recipe(self, tmp_path):
        # the desk recipe cut to 2 updates: 80 minibatches each, eval after both
        config = TrainConfig(learning_rate=3e-4, seed=1, control_interval=10,
                             exploration_mode=ExplorationMode.CONTINUOUS_THRESHOLD,
                             eval_every_updates=1, total_timesteps=10_000)
        result = train(ApproachEnv, config, out_dir=tmp_path)
        assert len(result.metrics) == 2 and result.last.timesteps == 10092
        assert _sha(tmp_path / "metrics.csv") == \
            "3a33e2b837a2a445cd78d2ea3d00fe35964b6c7efc7d228e4e90f355339eb309"
        _assert_checkpoints(
            tmp_path, "d292be84173eabfe6f0994cdf4e8a292fecf0a417bebc77d8f21c939f9f3f7ec",
            "df57fd2b08c2bc519d3b95b5bb760abaa3d7dd33bf4c343b010ab8e5fea964d3")

    def test_bernoulli_every_plant_step(self, tmp_path):
        result = train(small_env, quick_config(), out_dir=tmp_path)
        assert len(result.metrics) == 2 and result.last.timesteps == 256
        assert _sha(tmp_path / "metrics.csv") == \
            "d4a63f87dbeb9b091aacb694b1b9bc91ebb994142f631232207cc46099d57807"
        _assert_checkpoints(
            tmp_path, "d558db2ff808973d83c967b2e492109d2622861d61d302e48ec8da259741e8d7",
            "a874b5ce8a32799ba7369ca980b1ac6a4aa635acec2741d3a84ea3804211a1fc")

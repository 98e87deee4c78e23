"""Policy heads, sampling, normalizer and exploration-mode tests."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loader_rl.env import Observation
from loader_rl.nets import MLP
from loader_rl.policy import (
    ExplorationMode,
    ObsNormalizer,
    ThresholdSampler,
    bernoulli_log_prob,
    finite_output,
    gaussian_tanh_log_prob,
    greedy_action,
    init_policy,
    policy_forward,
    sample_action,
)


class TestPolicyForward:
    def test_zero_weights_zero_outputs(self):
        rng = np.random.default_rng(0)
        params = init_policy(4, rng)
        for p in params.actor.params + params.critic.params:
            p[...] = 0.0
        logits, value = policy_forward(params, Observation(1.0, 2.0, 1.5, 0.5))
        assert np.array_equal(logits, np.zeros(2))
        assert value == 0.0

    def test_deterministic_repeat(self):
        params = init_policy(4, np.random.default_rng(1))
        obs = Observation(3.0, 4.0, 2.0, 0.5)
        a = policy_forward(params, obs)
        b = policy_forward(params, obs)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]

    def test_seeded_init_reproducible(self):
        a = init_policy(4, np.random.default_rng(7))
        b = init_policy(4, np.random.default_rng(7))
        for pa, pb in zip(a.actor.params, b.actor.params):
            assert np.array_equal(pa, pb)

    def test_rejects_non_finite_observation(self):
        params = init_policy(4, np.random.default_rng(1))
        with pytest.raises(ValueError):
            policy_forward(params, np.array([1.0, float("nan"), 0.0, 0.0]))

    def test_rejects_wrong_shape(self):
        params = init_policy(4, np.random.default_rng(1))
        with pytest.raises(ValueError):
            policy_forward(params, np.zeros(5))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("index", range(4))
    def test_rejects_non_finite_observation_record(self, index, bad):
        params = init_policy(4, np.random.default_rng(1))
        values = [1.0, 2.0, 1.5, 0.5]
        values[index] = bad
        for value in (True, False):
            with pytest.raises(ValueError, match="non-finite values"):
                policy_forward(params, Observation(*values), value=value)

    def test_observation_record_checked_against_input_size(self):
        params = init_policy(3, np.random.default_rng(1))
        with pytest.raises(ValueError, match="does not match policy input"):
            policy_forward(params, Observation(1.0, 2.0, 1.5, 0.5), value=False)

    @pytest.mark.parametrize("mode", list(ExplorationMode))
    @pytest.mark.parametrize("dim", [4])
    def test_actor_only_logits_bit_identical(self, mode, dim):
        rng = np.random.default_rng(11)
        params = init_policy(dim, rng, mode)
        for _ in range(30):
            params.obs_normalizer.update(rng.normal(size=dim) * 3.0)
        for obs in (Observation(3.0, 4.0, 2.0, 0.5), Observation(0.1, 0.2, 0.0, 0.96)):
            logits, value = policy_forward(params, obs)
            actor_logits, no_value = policy_forward(params, obs, value=False)
            assert no_value is None and isinstance(value, float)
            assert actor_logits.tobytes() == logits.tobytes()


class TestSampling:
    def test_zero_logits_give_half_probability(self):
        # empirical frequency over many draws
        rng = np.random.default_rng(2)
        count = 0
        n = 4000
        for _ in range(n):
            action, _, _ = sample_action(np.zeros(2), rng)
            count += action.brake
        assert abs(count / n - 0.5) < 0.03

    def test_saturated_logits_force_action(self):
        rng = np.random.default_rng(2)
        action, log_prob, row = sample_action(np.array([20.0, 20.0]), rng)
        assert (action.brake, action.lift_up) == (1, 1)
        assert row.tolist() == [1.0, 1.0]
        assert abs(log_prob) < 1e-6

    def test_log_prob_of_mixed_action_at_zero_logits(self):
        lp = bernoulli_log_prob(np.zeros(2), np.array([1.0, 0.0]))
        assert lp == pytest.approx(2.0 * math.log(0.5), abs=1e-12)
        assert lp == pytest.approx(-1.38629, abs=1e-5)

    def test_greedy_follows_logit_sign(self):
        assert greedy_action(np.array([0.3, -0.2])) == greedy_action(np.array([5.0, -5.0]))
        a = greedy_action(np.array([0.3, -0.2]))
        assert (a.brake, a.lift_up) == (1, 0)

    def test_sampling_deterministic_given_rng_state(self):
        a, lpa, rowa = sample_action(np.array([0.3, -0.4]), np.random.default_rng(5))
        b, lpb, rowb = sample_action(np.array([0.3, -0.4]), np.random.default_rng(5))
        assert a == b and lpa == lpb and rowa.tolist() == rowb.tolist()


class TestObsNormalizer:
    def test_tracks_mean_and_variance(self):
        rng = np.random.default_rng(3)
        data = rng.normal(loc=[1.0, -2.0, 0.5, 3.0], scale=[2.0, 0.5, 1.0, 4.0], size=(5000, 4))
        norm = ObsNormalizer(4)
        for x in data:
            norm.update(x)
        assert np.allclose(norm.mean, data.mean(axis=0), atol=1e-9)
        assert np.allclose(norm.var, data.var(axis=0), atol=1e-9)
        z = (data - norm.mean) / np.sqrt(norm.var + norm.eps)
        assert abs(z.mean()) < 1e-9

    def test_identity_before_updates(self):
        norm = ObsNormalizer(4)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(norm.normalize(x), x, atol=1e-7)

    def test_clips_outliers(self):
        norm = ObsNormalizer(1)
        for v in (0.0, 1.0, 0.5, 0.75):
            norm.update(np.array([v]))
        assert norm.normalize(np.array([1e9]))[0] == norm.clip

    def test_state_round_trip(self):
        norm = ObsNormalizer(3)
        rng = np.random.default_rng(4)
        for _ in range(100):
            norm.update(rng.normal(size=3))
        back = ObsNormalizer.from_state_arrays(norm.state_arrays())
        assert np.array_equal(back.mean, norm.mean)
        assert np.array_equal(back.m2, norm.m2)
        assert back.count == norm.count


    def test_normalize_bits_match_the_formula(self):
        # the denominator is cached where the statistics change; the bits are
        # those of computing it on every call
        rng = np.random.default_rng(7)
        norm = ObsNormalizer(4)
        xs = rng.normal(scale=3.0, size=(40, 4))
        for i, x in enumerate(xs):
            for n in (norm, ObsNormalizer.from_state_arrays(norm.state_arrays())):
                want = np.clip((xs - n.mean) / np.sqrt(n.var + n.eps), -n.clip, n.clip)
                for row, expect in zip(xs, want):
                    assert np.array_equal(n.normalize(row), expect), i
            norm.update(x)


# floats whose Welford sums and squares stay finite
MODERATE = st.floats(min_value=-1e100, max_value=1e100, allow_subnormal=True)


class ArrayWelford:
    """The normalizer's array formulas, as they stood before its update ran
    over plain floats: the reference its bits are checked against."""

    def __init__(self, dim):
        self.count, self.mean, self.m2 = 0, np.zeros(dim), np.zeros(dim)

    def update(self, x):
        self.count += 1
        delta = x - self.mean
        self.mean = self.mean + delta / self.count
        self.m2 = self.m2 + delta * (x - self.mean)

    def normalize(self, x):
        var = np.ones(len(self.mean)) if self.count < 2 else self.m2 / self.count
        return np.clip((x - self.mean) / np.sqrt(var + ObsNormalizer.eps),
                       -ObsNormalizer.clip, ObsNormalizer.clip)


class TestScalarBitIdentity:
    """The rollout's per-decision code runs over plain floats; each property
    checks its bits against the array formula it replaced, so reordering
    one operation fails it."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(MODERATE, MODERATE, MODERATE, MODERATE), min_size=1, max_size=12),
           st.tuples(MODERATE, MODERATE, MODERATE, MODERATE))
    def test_normalizer_update_then_normalize(self, rows, probe):
        norm, ref = ObsNormalizer(4), ArrayWelford(4)
        probe = np.array(probe)
        for row in rows:
            norm.update(Observation(*row))
            ref.update(np.array(row))
            assert norm.count == ref.count
            assert norm.mean.tobytes() == ref.mean.tobytes()
            assert norm.m2.tobytes() == ref.m2.tobytes()
            for x in (probe, np.array(row)):
                assert norm.normalize(x).tobytes() == ref.normalize(x).tobytes()

    def test_normalizer_on_observation_scales(self):
        rng = np.random.default_rng(21)
        norm, ref = ObsNormalizer(4), ArrayWelford(4)
        for i in range(2000):
            row = rng.normal(loc=[3.0, 2.0, 1.5, 0.6], scale=[2.0, 2.0, 0.8, 0.1]) * 10.0 ** (i % 7 - 3)
            norm.update(Observation(*row.tolist()))
            ref.update(row)
            assert (norm.mean.tobytes(), norm.m2.tobytes()) == (ref.mean.tobytes(), ref.m2.tobytes())
            assert norm.normalize(row).tobytes() == ref.normalize(row).tobytes()

    @settings(max_examples=500, deadline=None)
    @given(st.tuples(MODERATE, MODERATE),
           st.tuples(st.floats(-5.0, 2.0), st.floats(-5.0, 2.0)),
           st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)))
    def test_sampler_log_prob(self, mean, log_std, noise):
        class Noise:
            def standard_normal(self, n):
                return np.array(noise)

        mean, log_std = np.array(mean), np.array(log_std)
        _, log_prob, u = ThresholdSampler(resample_every=1).sample(mean, log_std, Noise())
        assert u.tobytes() == (mean + np.exp(log_std) * np.array(noise)).tobytes()
        assert log_prob.hex() == float(gaussian_tanh_log_prob(u, mean, log_std)).hex()

    def test_sampler_log_prob_on_policy_scales(self):
        rng = np.random.default_rng(22)
        sampler = ThresholdSampler(resample_every=4)
        for _ in range(5000):
            mean = rng.normal(scale=rng.choice([1e-3, 0.3, 1.0, 3.0, 30.0]), size=2)
            log_std = rng.uniform(-2.0, 1.0, size=2)
            _, log_prob, u = sampler.sample(mean, log_std, rng)
            assert log_prob.hex() == float(gaussian_tanh_log_prob(u, mean, log_std)).hex()


class TestNonFiniteOutput:
    """A non-finite actor output picks no action: greedy decisions and both
    samplers raise FloatingPointError naming it."""

    BAD = [np.array([math.nan, 0.5]), np.array([0.5, math.inf]), np.array([-math.inf, math.nan])]

    @pytest.mark.parametrize("out", BAD)
    def test_samplers_raise(self, out):
        rng = np.random.default_rng(0)
        with pytest.raises(FloatingPointError, match="actor output is not finite"):
            sample_action(out, rng)
        with pytest.raises(FloatingPointError, match="actor output is not finite"):
            ThresholdSampler().sample(out, np.zeros(2), rng)

    def test_finite_output_passes_through(self):
        out = np.array([1e308, -5e-324])
        assert finite_output(out) is out
        batch = np.array([[0.0, 1.0], [2.0, math.nan], [math.inf, 0.0]])
        # a batch is named by its first row that is not finite, on one line
        with pytest.raises(FloatingPointError, match=r"^actor output is not finite: \[ 2. nan\]$"):
            finite_output(batch)

    def test_greedy_decisions_raise(self):
        from loader_rl.evaluate import greedy_policy_fn

        params = init_policy(4, np.random.default_rng(1))
        w = params.actor.params[-2]
        w[...] = np.where(np.arange(w.size).reshape(w.shape) % 2, -1.7e308, 1.7e308)
        decide = greedy_policy_fn(params)
        obs = Observation(3.0, 2.0, 2.0, 0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="actor output is not finite"):
                decide(obs)
            with pytest.raises(FloatingPointError, match="actor output is not finite"):
                decide.batch([obs, obs._replace(rel_x=1.0)])


class TestThresholdSampler:
    def test_noise_held_for_four_decisions(self):
        sampler = ThresholdSampler(resample_every=4)
        rng = np.random.default_rng(5)
        mean = np.zeros(2)
        log_std = np.zeros(2)
        us = [sampler.sample(mean, log_std, rng)[2] for _ in range(8)]
        for i in range(1, 4):
            assert np.array_equal(us[i], us[0])
        assert not np.array_equal(us[4], us[0])
        for i in range(5, 8):
            assert np.array_equal(us[i], us[4])

    def test_threshold_maps_sign_to_binary(self):
        sampler = ThresholdSampler(resample_every=1)
        rng = np.random.default_rng(6)
        for _ in range(100):
            action, _, u = sampler.sample(np.zeros(2), np.zeros(2), rng)
            assert action.brake == int(math.tanh(u[0]) > 0.0)
            assert action.lift_up == int(math.tanh(u[1]) > 0.0)

    def test_log_prob_matches_closed_form(self):
        u = np.array([0.3, -1.2])
        mean = np.array([0.1, 0.2])
        log_std = np.array([-0.5, 0.3])
        lp = gaussian_tanh_log_prob(u, mean, log_std)
        expect = 0.0
        for i in range(2):
            std = math.exp(log_std[i])
            z = (u[i] - mean[i]) / std
            expect += -0.5 * z * z - log_std[i] - 0.5 * math.log(2 * math.pi)
            expect -= math.log(1.0 - math.tanh(u[i]) ** 2 + 1e-12)
        assert lp == pytest.approx(expect, abs=1e-12)

    def test_greedy_uses_mean_sign(self):
        a = greedy_action(np.array([0.4, -0.1]))
        assert (a.brake, a.lift_up) == (1, 0)


class TestSignWithoutTanh:
    """The threshold actions test the sign of the mean or sample itself; the
    actions of the tanh-sign rule they replaced are pinned here, on random
    values and on the floats where tanh could differ."""

    EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e308, -1e308,
             math.inf, -math.inf, math.nan]

    def values(self):
        rng = np.random.default_rng(12)
        random = [rng.normal(size=2) * scale for scale in (1e-300, 1e-8, 1.0, 1e3)
                  for _ in range(250)]
        return random + [np.array(pair) for pair in itertools.product(self.EDGES, repeat=2)]

    def test_greedy_action_equals_tanh_sign(self):
        for mean in self.values():
            a = greedy_action(mean)
            assert (a.brake, a.lift_up) == (int(math.tanh(mean[0]) > 0.0),
                                            int(math.tanh(mean[1]) > 0.0)), mean

    def test_sampled_action_equals_tanh_sign(self):
        class NegativeZeroNoise:  # u = mean + std * -0.0 is the mean, bit for bit
            def standard_normal(self, n):
                return np.full(n, -0.0)

        sampler = ThresholdSampler(resample_every=1)
        rng = np.random.default_rng(13)
        for mean in self.values():
            for noise in (NegativeZeroNoise(), rng):
                if not np.isfinite(mean).all():  # an actor output with no action
                    with pytest.raises(FloatingPointError, match="actor output"):
                        sampler.sample(mean, np.zeros(2), noise)
                    continue
                action, _, u = sampler.sample(mean, np.zeros(2), noise)
                if isinstance(noise, NegativeZeroNoise):
                    assert u.tobytes() == mean.tobytes()
                squashed = np.tanh(u)
                assert (action.brake, action.lift_up) == (int(squashed[0] > 0.0),
                                                          int(squashed[1] > 0.0)), u


class TestArchitecture:
    def test_network_shapes(self):
        params = init_policy(4, np.random.default_rng(0))
        assert params.actor.sizes == [4, 64, 64, 2]
        assert params.critic.sizes == [4, 64, 64, 1]

    @pytest.mark.parametrize("sizes", [[4, 64, 64, 2], [5, 64, 64, 1], [3, 2]])
    def test_single_input_pass_bit_identical_to_batch(self, sizes):
        # a 1-D input runs its own cache-free pass; its bits equal the batch row's
        rng = np.random.default_rng(8)
        net = MLP(sizes, rng)
        for p in net.params:
            p += rng.normal(scale=0.1, size=p.shape)
        xs = rng.normal(scale=2.0, size=(512, sizes[0]))
        for x in xs:
            out = net(x)
            assert out.shape == (sizes[-1],)
            assert np.array_equal(out, net.forward(x[None, :])[0][0])
            assert np.array_equal(out, net.forward(x)[0])
        # a batch runs its own cache-free pass too, with the bits of forward
        assert net(xs).tobytes() == net.forward(xs)[0].tobytes()

    def test_hidden_layers_orthogonal(self):
        m = MLP([8, 8, 2], np.random.default_rng(0))
        w = m.params[0]
        gram = w.T @ w
        assert np.allclose(gram, np.eye(8) * gram[0, 0], atol=1e-9)

    def test_small_final_gain_keeps_probabilities_near_half(self):
        params = init_policy(4, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        logits = params.actor(rng.normal(size=(100, 4)))
        assert np.max(np.abs(logits)) < 0.1

    def test_five_dim_input_supported(self):
        params = init_policy(5, np.random.default_rng(0), ExplorationMode.BERNOULLI)
        logits, value = policy_forward(params, np.zeros(5))
        assert logits.shape == (2,)

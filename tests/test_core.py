import math

import numpy as np
import pytest

from bwcr.core import (IDLE, ContextualStructure, InstanceModel, PolicyDistribution,
                       draw_arm, point_mass, sample_observation, substream, uniform_policy)


def test_fixed_kind_returns_mean_column():
    inst = InstanceModel(np.array([[0.1, 0.3], [0.9, 0.7]]), "fixed")
    v = sample_observation(inst, 1, substream(0))
    assert np.array_equal(v, np.array([0.3, 0.7]))


def test_bernoulli_degenerate():
    inst = InstanceModel(np.array([[1.0], [0.0]]), "bernoulli")
    rng = substream(1)
    for _ in range(20):
        v = sample_observation(inst, 0, rng)
        assert v[0] == 1.0 and v[1] == 0.0


def test_bernoulli_monte_carlo_mean():
    # sample mean within 0.01 of 0.25 over 1e5 draws (3-sigma is ~0.004)
    inst = InstanceModel(np.array([[0.25]]), "bernoulli")
    rng = substream(7)
    draws = np.array([sample_observation(inst, 0, rng)[0] for _ in range(100_000)])
    assert abs(draws.mean() - 0.25) < 0.01


def test_scaled_beta_mean_and_support():
    inst = InstanceModel(np.array([[0.3, 0.0], [0.8, 1.0]]), "scaled_beta")
    rng = substream(3)
    draws = np.array([sample_observation(inst, 0, rng) for _ in range(20_000)])
    assert np.all(draws >= 0.0) and np.all(draws <= 1.0)
    assert np.allclose(draws.mean(axis=0), [0.3, 0.8], atol=0.02)
    v = sample_observation(inst, 1, rng)
    assert v[0] == 0.0 and v[1] == 1.0


def test_arm_out_of_range():
    inst = InstanceModel(np.array([[0.5]]), "fixed")
    with pytest.raises(IndexError):
        sample_observation(inst, 1, substream(0))
    with pytest.raises(IndexError):
        sample_observation(inst, -1, substream(0))


def test_draw_arm_point_mass_and_idle():
    rng = substream(0)
    assert draw_arm(PolicyDistribution(np.array([1.0, 0.0, 0.0])), rng) == 0
    idle = PolicyDistribution(np.array([0.0, 0.0]), allow_idle=True)
    for _ in range(10):
        assert draw_arm(idle, rng) == IDLE


def test_draw_arm_frequencies():
    rng = substream(11)
    pol = PolicyDistribution(np.array([0.5, 0.5]))
    draws = np.array([draw_arm(pol, rng) for _ in range(100_000)])
    assert abs(np.mean(draws == 0) - 0.5) < 0.01


def test_policy_invariants():
    with pytest.raises(ValueError):
        PolicyDistribution(np.array([0.5, 0.4]))          # sums to 0.9 without idle
    with pytest.raises(ValueError):
        PolicyDistribution(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        PolicyDistribution(np.array([0.6, 0.6]), allow_idle=True)
    PolicyDistribution(np.array([0.3, 0.3]), allow_idle=True)


def test_mean_matrix_validation():
    with pytest.raises(ValueError):
        InstanceModel(np.array([[1.2]]), "bernoulli")
    with pytest.raises(ValueError):
        InstanceModel(np.array([[0.5]]), "nope")


def test_contextual_consistency_enforced():
    contexts = np.zeros((1, 2, 2))
    contexts[0, 0] = [1.0, 0.0]
    contexts[0, 1] = [0.0, 1.0]
    weights = np.array([[0.4, 0.7]])
    inst = InstanceModel(np.array([[0.4, 0.7]]), "bernoulli",
                         contextual=ContextualStructure(contexts, weights))
    assert inst.contextual.n == 2
    with pytest.raises(ValueError):
        InstanceModel(np.array([[0.5, 0.7]]), "bernoulli",
                      contextual=ContextualStructure(contexts, weights))


def test_substream_reproducible_and_split():
    a = substream(42, 1, 2).random(5)
    b = substream(42, 1, 2).random(5)
    c = substream(42, 1, 3).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_fixed_policy_concentration():
    # replaying a fixed policy concentrates the average at V p; the Hoeffding
    # envelope 4 sqrt(log(2d/delta)/T) holds with failure rate <= delta
    v = np.array([[0.2, 0.9], [0.7, 0.4]])
    inst = InstanceModel(v, "bernoulli")
    pol = PolicyDistribution(np.array([0.3, 0.7]))
    target = v @ pol.weights
    delta, horizon, trials = 0.1, 400, 200
    bound = 4.0 * math.sqrt(math.log(2 * inst.d / delta) / horizon)
    failures = 0
    for trial in range(trials):
        rng_a = substream(trial, 0, 0)
        rng_o = substream(trial, 0, 1)
        total = np.zeros(inst.d)
        for _ in range(horizon):
            arm = draw_arm(pol, rng_a)
            total += sample_observation(inst, arm, rng_o)
        if np.any(np.abs(total / horizon - target) > bound):
            failures += 1
    assert failures / trials <= delta


def test_instance_json_roundtrip():
    contexts = np.zeros((1, 2, 2))
    contexts[0, 0] = [1.0, 0.0]
    contexts[0, 1] = [0.25, 0.5]
    weights = np.array([[0.4, 0.6]])
    v = np.einsum("jin,jn->ji", contexts, weights)
    inst = InstanceModel(v, "scaled_beta", contextual=ContextualStructure(contexts, weights),
                         beta_concentration=6.0)
    back = InstanceModel.from_json(inst.to_json())
    assert np.array_equal(back.mean_matrix, inst.mean_matrix)
    assert back.outcome_kind == "scaled_beta"
    assert back.beta_concentration == 6.0
    assert np.array_equal(back.contextual.contexts, contexts)


def test_helpers():
    assert np.array_equal(uniform_policy(4).weights, np.full(4, 0.25))
    assert np.array_equal(point_mass(3, 1).weights, [0.0, 1.0, 0.0])


def _clone(rng):
    twin = np.random.Generator(type(rng.bit_generator)())
    twin.bit_generator.state = rng.bit_generator.state
    return twin


def test_draw_arm_matches_searchsorted_on_cloned_generator():
    # the cached-CDF draw must pick the arm np.searchsorted(np.cumsum(w), u,
    # "right") picks for the same uniform, and consume exactly that uniform
    rng = substream(21)
    gen = np.random.default_rng(5)
    policies = [uniform_policy(5), point_mass(4, 3), point_mass(4, 0),
                PolicyDistribution(np.array([0.1, 0.0, 0.0, 0.6, 0.3])),
                # tiny negative weights leave the CDF non-monotone
                PolicyDistribution(np.array([0.5, -1e-13, 0.5 + 1e-13, 0.0])),
                # residual mass is the idle probability
                PolicyDistribution(np.array([0.2, 0.0, 0.3]), allow_idle=True),
                PolicyDistribution(np.array([0.0, 0.0, 0.0]), allow_idle=True)]
    for _ in range(40):
        k = int(gen.integers(1, 9))
        w = gen.random(k) * (gen.random(k) < 0.7)   # some zero entries
        if w.sum() > 0:
            # full mass, or a total below 1 whose rest is idle
            w = w / w.sum() * (1.0 if gen.random() < 0.5 else gen.random())
        policies.append(PolicyDistribution(w, allow_idle=True))
    idle_seen = 0
    for pol in policies:
        for _ in range(200):
            twin = _clone(rng)
            u = twin.random()
            idx = int(np.searchsorted(np.cumsum(pol.weights), u, side="right"))
            expected = IDLE if idx >= pol.m else idx
            assert draw_arm(pol, rng) == expected
            assert rng.bit_generator.state == twin.bit_generator.state
            idle_seen += expected == IDLE
    assert idle_seen > 0
    # a uniform equal to a CDF value (or at 0, or just beside one) must fall
    # on the same side as it does under searchsorted's "right"
    for pol in policies:
        cum = np.cumsum(pol.weights)
        for c in cum.tolist():
            for u in (0.0, c, np.nextafter(c, 0.0), np.nextafter(c, 1.0)):
                if not 0.0 <= u < 1.0:
                    continue
                idx = int(np.searchsorted(cum, u, side="right"))
                assert draw_arm(pol, _FixedUniform(u)) == (IDLE if idx >= pol.m else idx)


class _FixedUniform:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_policy_cdf_is_cumsum_and_nonfinite_rejected():
    w = np.random.default_rng(3).random(25)
    pol = PolicyDistribution(w / w.sum())
    assert np.array_equal(np.array(pol.cdf), np.cumsum(pol.weights))
    for bad in ([np.nan, 1.0], [0.5, np.inf]):
        with pytest.raises(ValueError):
            PolicyDistribution(np.array(bad), allow_idle=True)

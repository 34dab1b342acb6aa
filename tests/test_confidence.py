import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bwcr.confidence import (ConfidenceState, EllipsoidState, Hypercube, default_crad, rad,
                             vertex)
from bwcr.core import InstanceModel, sample_observation, substream


def ellipsoid_min_linear(es: EllipsoidState, j: int, c: np.ndarray) -> float:
    """Exact minimum of c . w over the j-th confidence ellipsoid, the oracle
    that ``EllipsoidState.hypercube``'s intervals are checked against.

    min = c . center - sqrt(radius_sq) * sqrt(c^T B^{-1} c); the maximum is
    the symmetric expression with +.
    """
    c = np.asarray(c, dtype=float)
    if not np.all(np.isfinite(c)):
        raise ValueError("c must be finite")
    quad = float(c @ es.gram_inv[j] @ c)
    return float(c @ es.center[j]) - math.sqrt(es.radius_sq * max(quad, 0.0))


def ellipsoid_max_linear(es: EllipsoidState, j: int, c: np.ndarray) -> float:
    return -ellipsoid_min_linear(es, j, -np.asarray(c, dtype=float))


def test_rad_examples():
    assert rad(0.0, 10, 2.0) == pytest.approx(0.2, abs=1e-15)
    assert rad(1.0, 1, 1.0) == pytest.approx(2.0, abs=1e-15)
    # sqrt(4*0.25/100) + 4/100
    assert rad(0.25, 100, 4.0) == pytest.approx(0.14, abs=1e-15)


def test_rad_contract_errors():
    with pytest.raises(ValueError):
        rad(0.5, 0, 1.0)
    with pytest.raises(ValueError):
        rad(-0.1, 1, 1.0)
    with pytest.raises(ValueError):
        rad(0.5, 1, 0.0)


def test_hypercube_unplayed_arms():
    state = ConfidenceState(d=2, m=3, crad=0.75)
    hc = Hypercube(*state.bounds())
    assert np.all(hc.lcb == 0.0)
    assert np.all(hc.ucb == 1.0)          # min(1, 2*crad) with crad >= 0.5
    state2 = ConfidenceState(d=1, m=1, crad=0.3)
    assert Hypercube(*state2.bounds()).ucb[0, 0] == pytest.approx(0.6)


def test_hypercube_plugin_example():
    # 99 plays summing to 50 give mu = 50/(99+1) = 0.5 with crad = 1:
    # ucb = 0.5 + 2(sqrt(0.5/100) + 0.01) = 0.6614..., lcb = 0.3385...
    state = ConfidenceState(d=1, m=1, crad=1.0)
    for k in range(99):
        state.update(0, np.array([1.0 if k < 50 else 0.0]))
    hc = Hypercube(*state.bounds())
    assert hc.ucb[0, 0] == pytest.approx(0.6614213562373095, abs=1e-12)
    assert hc.lcb[0, 0] == pytest.approx(0.3385786437626905, abs=1e-12)


def test_hypercube_coverage_monte_carlo():
    # small version of the acceptance criterion: fraction of runs with any
    # out-of-interval true mean is at most delta
    d, m, horizon, delta = 2, 3, 200, 0.05
    crad = default_crad(m, horizon, d, delta)
    v = np.array([[0.2, 0.5, 0.8], [0.9, 0.4, 0.1]])
    inst = InstanceModel(v, "bernoulli")
    bad_runs = 0
    runs = 200
    for seed in range(runs):
        rng_a = substream(seed, 0, 0)
        rng_o = substream(seed, 0, 1)
        state = ConfidenceState(d, m, crad)
        ok = True
        for _ in range(horizon):
            arm = int(rng_a.integers(m))
            state.update(arm, sample_observation(inst, arm, rng_o))
            hc = Hypercube(*state.bounds())
            if np.any(v < hc.lcb - 1e-12) or np.any(v > hc.ucb + 1e-12):
                ok = False
                break
        bad_runs += 0 if ok else 1
    assert bad_runs / runs <= delta


def test_vertex_sign_split():
    lcb = np.array([[0.1, 0.2], [0.3, 0.4]])
    ucb = np.array([[0.5, 0.6], [0.7, 0.8]])
    hc = Hypercube(lcb=lcb, ucb=ucb)
    w0 = vertex(hc, np.zeros(2))
    assert np.array_equal(w0, ucb)        # theta_j <= 0 takes the upper bound
    w = vertex(hc, np.array([-1.0, 1.0]))
    assert np.array_equal(w[0], ucb[0])
    assert np.array_equal(w[1], lcb[1])


def test_vertex_exhaustive_small():
    rng = np.random.default_rng(0)
    d, m = 2, 3
    lcb = rng.random((d, m)) * 0.5
    ucb = np.clip(lcb + rng.random((d, m)) * 0.5, 0, 1)
    hc = Hypercube(lcb=lcb, ucb=ucb)
    n_bits = d * m
    corners = np.stack([
        np.where(np.array([(k >> b) & 1 for b in range(n_bits)]).reshape(d, m) > 0, ucb, lcb)
        for k in range(2 ** n_bits)
    ])
    for _ in range(50):
        theta = rng.standard_normal(d)
        w = vertex(hc, theta)
        corner_vals = np.einsum("d,kdm->km", theta, corners)
        assert np.all(theta @ w <= corner_vals.min(axis=0) + 1e-12)


def test_interval_width_bound():
    # deterministic bound: ucb - lcb <= 4 rad(1, N+1) after N plays
    state = ConfidenceState(d=1, m=1, crad=2.0)
    rng = substream(9)
    for n in range(1, 200):
        state.update(0, rng.random(1))
        hc = Hypercube(*state.bounds())
        assert hc.ucb[0, 0] - hc.lcb[0, 0] <= 4.0 * rad(1.0, n + 1, 2.0) + 1e-12


def test_estimated_vs_actual_growth():
    # |sum_t (A~_t p_t - v_t)| for A~ = UCB matrix grows like sqrt(t):
    # the ratio between horizons 4e3 and 1e3 should be at least 1.6 (median)
    v = np.array([[0.3, 0.7], [0.6, 0.2]])
    inst = InstanceModel(v, "bernoulli")
    d, m = 2, 2
    p = np.full(m, 0.5)
    ratios = []
    for seed in range(20):
        rng_a = substream(seed, 0, 0)
        rng_o = substream(seed, 0, 1)
        state = ConfidenceState(d, m, default_crad(m, 4000, d, 0.05))
        total = np.zeros(d)
        at_1k = None
        for t in range(1, 4001):
            hc = Hypercube(*state.bounds())
            arm = int(rng_a.integers(m))
            obs = sample_observation(inst, arm, rng_o)
            total += hc.ucb @ p - obs
            state.update(arm, obs)
            if t == 1000:
                at_1k = np.max(np.abs(total))
        ratios.append(np.max(np.abs(total)) / at_1k)
    assert np.median(ratios) >= 1.6


def test_ellipsoid_min_linear_examples():
    es = EllipsoidState(d=1, n=1, radius_sq=1.0)
    # unit ball, unit direction
    assert ellipsoid_min_linear(es, 0, np.array([1.0])) == pytest.approx(-1.0)
    # gram = 4 I, center 2: interval [1.5, 2.5]
    es.gram[0] = np.array([[4.0]])
    es.gram_inv[0] = np.array([[0.25]])
    es.center[0] = np.array([2.0])
    assert ellipsoid_min_linear(es, 0, np.array([1.0])) == pytest.approx(1.5)
    assert ellipsoid_max_linear(es, 0, np.array([1.0])) == pytest.approx(2.5)


def test_ellipsoid_center_between_bounds():
    rng = np.random.default_rng(4)
    es = EllipsoidState(d=1, n=3)
    for _ in range(40):
        x = rng.random(3)
        es.update(x[None, :], rng.random(1))
    for _ in range(20):
        c = rng.standard_normal(3)
        lo = ellipsoid_min_linear(es, 0, c)
        hi = ellipsoid_max_linear(es, 0, c)
        mid = float(c @ es.center[0])
        assert lo - 1e-12 <= mid <= hi + 1e-12


def test_ellipsoid_rank_one_matches_fresh_inverse():
    rng = np.random.default_rng(8)
    es = EllipsoidState(d=2, n=3, refresh_every=10**9)
    for _ in range(60):
        es.update(rng.random((2, 3)), rng.random(2))
    for j in range(2):
        assert np.allclose(es.gram_inv[j], np.linalg.inv(es.gram[j]), atol=1e-9)


def test_ellipsoid_nonfinite_direction_rejected():
    es = EllipsoidState(d=1, n=2)
    with pytest.raises(ValueError):
        ellipsoid_min_linear(es, 0, np.array([np.inf, 0.0]))


def test_ellipsoid_periodic_refresh_consistency():
    rng = np.random.default_rng(12)
    es = EllipsoidState(d=1, n=2, refresh_every=5)
    for _ in range(23):
        es.update(rng.random((1, 2)), rng.random(1))
    assert np.allclose(es.gram_inv[0], np.linalg.inv(es.gram[0]), atol=1e-10)


def _vectorized_update(state, arm, observation):
    # the column update as whole-column numpy operations: the reference that
    # ConfidenceState.update's scalar loop must reproduce bit for bit
    state.sums[:, arm] += observation
    state.counts[arm] += 1
    state.t += 1
    n = state.counts[arm] + 1
    mu = state.sums[:, arm] / n
    r2 = 2.0 * (np.sqrt(state.crad * mu / n) + state.crad / n)
    state._lcb[:, arm] = np.maximum(mu - r2, 0.0)
    state._ucb[:, arm] = np.minimum(mu + r2, 1.0)


@st.composite
def _play_sequences(draw):
    d = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    crad = draw(st.sampled_from([1e-4, 0.05, 0.5, 3.0, 14.2]))
    kind = draw(st.sampled_from(["bernoulli", "scaled_beta"]))
    means = draw(hnp.arrays(float, (d, m), elements=st.floats(0.0, 1.0)))
    plays = draw(st.integers(50, 1500))
    seed = draw(st.integers(0, 2**32 - 1))
    return d, m, crad, InstanceModel(means, kind), plays, seed


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_play_sequences())
def test_update_matches_vectorized_reference(case):
    d, m, crad, inst, plays, seed = case
    state, ref = ConfidenceState(d, m, crad), ConfidenceState(d, m, crad)
    rng_a, rng_o = substream(seed, 0, 0), substream(seed, 0, 1)
    for _ in range(plays):
        arm = int(rng_a.integers(m))
        obs = sample_observation(inst, arm, rng_o)
        state.update(arm, obs)
        _vectorized_update(ref, arm, obs)
    assert np.array_equal(state.sums, ref.sums)
    assert np.array_equal(state._lcb, ref._lcb)
    assert np.array_equal(state._ucb, ref._ucb)
    assert np.array_equal(state.counts, ref.counts) and state.t == ref.t == plays

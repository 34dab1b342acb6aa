import math

import numpy as np
import pytest

from bwcr.benchmark import compute_bwk_opt, compute_opt, regret_trace
from bwcr.core import InstanceModel, RunHistory
from bwcr.geometry import Box, Halfspaces
from bwcr.objective import LinearObjective, NegativeDistance, SeparableObjective


def test_compute_opt_linear_unconstrained():
    v = np.array([[0.2, 0.9, 0.5]])
    inst = InstanceModel(v, "bernoulli")
    f = LinearObjective(np.array([1.0]))
    bench = compute_opt(inst, f, None)
    assert bench.feasible
    assert bench.opt_value == pytest.approx(0.9, abs=1e-5)
    assert np.argmax(bench.p_star.weights) == 1


def test_compute_opt_neg_distance_feasible_zero():
    v = np.array([[0.2, 0.8], [0.6, 0.4]])
    inst = InstanceModel(v, "bernoulli")
    s = Box(np.array([0.3, 0.3]), np.array([0.7, 0.7]))
    f = NegativeDistance(s)
    bench = compute_opt(inst, f, s)
    assert bench.feasible
    assert bench.opt_value == pytest.approx(0.0, abs=1e-9)


def test_compute_opt_infeasible():
    v = np.array([[0.2, 0.3]])
    inst = InstanceModel(v, "bernoulli")
    s = Box(np.array([0.9]), np.array([1.0]))
    bench = compute_opt(inst, None, s)
    assert not bench.feasible
    assert math.isnan(bench.opt_value)


def test_bwk_benchmark_lp_example():
    v = np.array([[1.0, 0.5], [1.0, 0.0]])
    inst = InstanceModel(v, "fixed")
    bench = compute_bwk_opt(inst, budget=5.0, horizon=10)
    assert np.allclose(bench.p_star.weights, [0.5, 0.5], atol=1e-12)
    assert bench.opt_value == pytest.approx(0.75, abs=1e-12)


def test_benchmark_dominance_over_fixed_policies():
    rng = np.random.default_rng(0)
    v = rng.random((2, 3))
    inst = InstanceModel(v, "bernoulli")
    f = SeparableObjective([{"kind": "quad", "weight": 0.5, "center": 0.4},
                            {"kind": "log1p", "weight": 0.5}])
    s = Halfspaces([[1.0, 1.0]], [1.2])
    bench = compute_opt(inst, f, s)
    assert bench.feasible
    for _ in range(100):
        p = rng.dirichlet(np.ones(3))
        z = v @ p
        if s.distance(z) > 1e-9:
            continue
        assert f.value(z) <= bench.opt_value + 1e-6


def test_benchmark_vs_grid_oracle():
    # best feasible point of a 0.001 simplex lattice, evaluated in the test
    n = 1000
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    keep = i + j <= n
    grid = np.stack([i[keep], j[keep], n - i[keep] - j[keep]], axis=1) / n
    rng = np.random.default_rng(1)
    for trial in range(3):
        v = rng.random((2, 3))
        inst = InstanceModel(v, "bernoulli")
        centers = rng.random(2)
        f = SeparableObjective([{"kind": "quad", "weight": 0.5, "center": float(c)}
                                for c in centers])
        z0 = v @ rng.dirichlet(np.ones(3))
        s = Box(np.clip(z0 - 0.15, 0, 1), np.clip(z0 + 0.15, 0, 1))
        bench = compute_opt(inst, f, s)
        z = grid @ v.T
        feas = np.all((z >= s.lower) & (z <= s.upper), axis=1)
        vals = (0.5 * (1.0 - (z - centers) ** 2)).sum(axis=1)
        assert bench.feasible and feas.any()
        assert abs(bench.opt_value - vals[feas].max()) <= 1e-2
        assert bench.opt_value >= vals[feas].max() - 1e-9    # exact, so never below the grid


def test_large_m_uses_saddle_path():
    rng = np.random.default_rng(2)
    v = rng.random((2, 6))
    inst = InstanceModel(v, "bernoulli")
    f = LinearObjective(np.array([0.7, 0.3]))
    bench = compute_opt(inst, f, None)
    assert bench.feasible
    best_arm = np.argmax(f.c @ v)
    assert bench.opt_value == pytest.approx(float(f.c @ v[:, best_arm]), abs=1e-6)


def _history(obs, arms=None):
    obs = np.asarray(obs, dtype=float)
    n = obs.shape[0]
    return RunHistory(observations=obs,
                      arms=np.zeros(n, dtype=np.int64) if arms is None else arms)


def test_regret_trace_zero_at_fixed_optimum():
    v = np.array([[0.4], [0.6]])
    inst = InstanceModel(v, "fixed")
    f = LinearObjective(np.array([0.5, 0.5]))
    bench = compute_opt(inst, f, None)
    obs = np.repeat((v @ np.array([1.0]))[None, :], 5, axis=0)
    trace = regret_trace(_history(obs), bench, f, None)
    assert np.allclose(trace.areg1, 0.0, atol=1e-12)


def test_regret_trace_single_observation():
    v = np.array([[0.4, 0.8]])
    inst = InstanceModel(v, "bernoulli")
    f = LinearObjective(np.array([1.0]))
    bench = compute_opt(inst, f, None)
    obs = np.array([[0.3]])
    trace = regret_trace(_history(obs), bench, f, None)
    assert trace.areg1[0] == pytest.approx(bench.opt_value - 0.3, abs=1e-6)


def test_regret_trace_areg2_nonnegative_and_zero_inside():
    s = Box(np.zeros(1), np.array([0.5]))
    obs = np.array([[0.2], [0.4], [0.9]])
    trace = regret_trace(_history(obs), None, None, s)
    assert np.all(trace.areg2 >= 0.0)
    assert trace.areg2[0] == 0.0


def test_regret_trace_bwk_hand_computation():
    # five-step fixed-outcome run: REG(T) = T * LP - sum rewards
    v = np.array([[1.0, 0.5], [1.0, 0.0]])
    inst = InstanceModel(v, "fixed")
    bench = compute_bwk_opt(inst, budget=2.5, horizon=5)
    assert bench.opt_value == pytest.approx(0.75)
    arms = np.array([0, 1, 0, 1, 1])
    obs = v[:, arms].T
    f = LinearObjective(np.array([1.0, 0.0]))
    trace = regret_trace(_history(obs, arms), bench, f, None,
                         bwk_lp_value=bench.opt_value, horizon=5)
    total_reward = 1.0 + 0.5 + 1.0 + 0.5 + 0.5
    assert trace.rewards[-1] == pytest.approx(total_reward)
    assert trace.reg_total == pytest.approx(5 * 0.75 - total_reward)


def test_regret_trace_empty_history_rejected():
    with pytest.raises(ValueError):
        regret_trace(_history(np.zeros((0, 1))), None, None, None)

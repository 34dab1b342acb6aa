import math

import numpy as np
import pytest

from bwcr.algorithms import STOP, AlgorithmConfig, _simplex_one_constraint, make_algorithm
from bwcr.benchmark import compute_opt
from bwcr.confidence import Hypercube, vertex
from bwcr.core import (IDLE, InstanceModel, PolicyDistribution, draw_arm, sample_observation,
                       substream)
from bwcr.errors import ConfigError
from bwcr.geometry import Box, Halfspaces
from bwcr.harness import run_single
from bwcr.objective import LinearObjective, NegativeDistance, SeparableObjective
from bwcr.solvers import GAP_TOL


V5 = np.array([[0.85, 0.45, 0.30, 0.20, 0.10],
               [0.15, 0.60, 0.80, 0.35, 0.50],
               [0.10, 0.55, 0.25, 0.75, 0.45]])
F5 = LinearObjective(np.array([0.9, 0.05, 0.05]))
S5 = Halfspaces([[0.0, 1.0, 1.0]], [0.8])


def test_config_validation():
    with pytest.raises(ConfigError):
        AlgorithmConfig(variant="nope", horizon=10).validate()
    with pytest.raises(ConfigError):
        AlgorithmConfig(variant="ucb_bwcr", horizon=10).validate()
    with pytest.raises(ConfigError):
        AlgorithmConfig(variant="ucb_bwk", horizon=10).validate()          # no budget
    with pytest.raises(ConfigError):
        AlgorithmConfig(variant="dual_oco", horizon=10, objective=F5,
                        constraint_set=S5).validate()                       # both given
    with pytest.raises(ConfigError):
        AlgorithmConfig(variant="fw_primal", horizon=10,
                        objective=NegativeDistance(S5)).validate()          # non-smooth, no sigma
    AlgorithmConfig(variant="fw_primal", horizon=10,
                    objective=NegativeDistance(S5), sigma=0.1).validate()
    with pytest.raises(ConfigError):
        AlgorithmConfig(variant="combined", horizon=10, objective=F5,
                        constraint_set=S5, theta_update="weird").validate()


def test_ucb_bwcr_classic_reduction():
    # d=1, linear f, no constraint set: plays the arm with the highest ucb
    inst = InstanceModel(np.array([[0.2, 0.9, 0.5]]), "fixed")
    cfg = AlgorithmConfig(variant="ucb_bwcr", horizon=50,
                          objective=LinearObjective(np.array([1.0])), use_known_means=True)
    algo = make_algorithm(cfg, inst)
    pol = algo.step(1)
    assert np.allclose(pol.weights, [0, 1, 0])


def test_ucb_bwcr_first_step_vacuous_bounds():
    inst = InstanceModel(V5, "bernoulli")
    s = Halfspaces([[1.0, 1.0, 1.0]], [2.0])    # generous target, trivially reachable
    cfg = AlgorithmConfig(variant="ucb_bwcr", horizon=100, objective=F5, constraint_set=s)
    algo = make_algorithm(cfg, inst)
    algo.step(1)
    assert algo.infeasible_steps == 0


def test_ucb_bwcr_degenerate_matches_benchmark():
    inst = InstanceModel(V5, "fixed")
    bench = compute_opt(inst, F5, S5)
    cfg = AlgorithmConfig(variant="ucb_bwcr", horizon=10, objective=F5,
                          constraint_set=S5, use_known_means=True)
    algo = make_algorithm(cfg, inst)
    pol = algo.step(1)
    val = F5.value(V5 @ pol.weights)
    assert val == pytest.approx(bench.opt_value, abs=1e-2)


def test_ucb_bwcr_feasibility_certificate():
    inst = InstanceModel(V5, "bernoulli")
    cfg = AlgorithmConfig(variant="ucb_bwcr", horizon=300, objective=F5, constraint_set=S5)
    for seed in range(3):
        hist = run_single(inst, cfg, seed=seed, horizon=300)
        assert hist.algorithm.infeasible_steps == 0


def test_ucb_bwk_stops_on_budget():
    inst = InstanceModel(np.array([[0.9, 0.2], [1.0, 0.9]]), "fixed")
    cfg = AlgorithmConfig(variant="ucb_bwk", horizon=50, budget=5.0, eps=0.0)
    hist = run_single(inst, cfg, seed=0, horizon=50)
    assert hist.stop_time is not None
    assert hist.observations[:, 1].sum() <= 5.0 + 1.0


def test_ucb_bwk_truth_degenerate_lp_example():
    v = np.array([[1.0, 0.5], [1.0, 0.0]])
    inst = InstanceModel(v, "fixed")
    cfg = AlgorithmConfig(variant="ucb_bwk", horizon=10, budget=5.0, eps=0.0,
                          use_known_means=True)
    algo = make_algorithm(cfg, inst)
    pol = algo.step(1)
    assert np.allclose(pol.weights, [0.5, 0.5], atol=1e-9)


def test_ucb_bwk_eps_one_zero_budget():
    v = np.array([[1.0, 0.5], [1.0, 0.0]])
    inst = InstanceModel(v, "fixed")
    cfg = AlgorithmConfig(variant="ucb_bwk", horizon=10, budget=5.0, eps=1.0,
                          use_known_means=True)
    algo = make_algorithm(cfg, inst)
    pol = algo.step(1)
    assert np.allclose(pol.weights, [0.0, 1.0], atol=1e-9)  # only the free arm is playable
    # all arms consuming: idle fallback
    v2 = np.array([[1.0, 0.5], [1.0, 0.4]])
    inst2 = InstanceModel(v2, "fixed")
    cfg2 = AlgorithmConfig(variant="ucb_bwk", horizon=10, budget=5.0, eps=1.0,
                           allow_idle=True, use_known_means=True)
    algo2 = make_algorithm(cfg2, inst2)
    pol2 = algo2.step(1)
    assert pol2.weights.sum() == 0.0


def test_ucb_bwk_eps_checked_at_construction():
    # the per-step LP skips validation, so an eps outside [0, 1] is refused
    # when the stepper is built
    inst = InstanceModel(np.array([[1.0, 0.5], [1.0, 0.0]]), "fixed")
    for eps in (-0.1, 1.5):
        with pytest.raises(ConfigError, match="eps"):
            make_algorithm(AlgorithmConfig(variant="ucb_bwk", horizon=10, budget=5.0,
                                           eps=eps), inst)


def test_dual_hand_simulation():
    # d=1, target {x <= 0.5}, arm means (0.9, 0.3), zero-width confidence:
    # replicate ten steps of the update rule independently and compare
    v = np.array([[0.9, 0.3]])
    inst = InstanceModel(v, "fixed")
    s = Box(np.array([0.0]), np.array([0.5]))
    cfg = AlgorithmConfig(variant="dual_oco", horizon=10, constraint_set=s,
                          use_known_means=True)
    algo = make_algorithm(cfg, inst)

    theta = 0.0
    expected_arms = []
    for t in range(1, 11):
        vals = theta * v[0]
        arm = int(np.argmin(vals))
        expected_arms.append(arm)
        x = v[0, arm]
        support_point = 0.5 if theta >= 0 else 0.0
        grad = support_point - x
        theta = theta - grad / math.sqrt(t)
        theta = max(min(theta, 1.0), -1.0)

    got = []
    for t in range(1, 11):
        pol = algo.step(t)
        arm = int(np.argmax(pol.weights))
        got.append(arm)
        algo.observe(arm, v[:, arm])
    assert got == expected_arms
    assert 1 in got and got[0] == 0   # burn-in picks the 0.9 arm, then the 0.3 arm


def test_dual_tie_break_lowest_index():
    v = np.array([[0.4, 0.4, 0.2]])
    inst = InstanceModel(v, "fixed")
    cfg = AlgorithmConfig(variant="dual_oco", horizon=5, constraint_set=Box([0.0], [1.0]),
                          use_known_means=True)
    algo = make_algorithm(cfg, inst)
    pol = algo.step(1)     # theta = 0: all values tie at 0
    assert int(np.argmax(pol.weights)) == 0


def test_dual_scale_invariance_of_argmin():
    rng = np.random.default_rng(0)
    lcb = rng.random((3, 4)) * 0.5
    ucb = np.clip(lcb + rng.random((3, 4)) * 0.4, 0, 1)
    hc = Hypercube(lcb=lcb, ucb=ucb)
    for _ in range(30):
        theta = rng.standard_normal(3)
        arms = [int(np.argmin(theta_scaled @ vertex(hc, theta_scaled)))
                for theta_scaled in (theta, 7.3 * theta)]
        assert arms[0] == arms[1]


def test_fw_primal_linear_constant_gradient():
    inst = InstanceModel(V5, "fixed")
    cfg = AlgorithmConfig(variant="fw_primal", horizon=20, objective=F5,
                          use_known_means=True)
    algo = make_algorithm(cfg, inst)
    arms = []
    for t in range(1, 11):
        pol = algo.step(t)
        arm = int(np.argmax(pol.weights))
        arms.append(arm)
        algo.observe(arm, V5[:, arm])
    best = int(np.argmax(F5.c @ V5))
    assert all(a == best for a in arms)


def test_fw_primal_x0_initialization():
    inst = InstanceModel(V5, "fixed")
    cfg = AlgorithmConfig(variant="fw_primal", horizon=20, objective=F5,
                          use_known_means=True)
    algo = make_algorithm(cfg, inst)
    algo.step(1)
    assert np.allclose(algo._x0, V5 @ np.full(5, 0.2))


def test_fw_convergence_inequality_small():
    # known-parameter run, f = 1 - (x - 0.5)^2 in d = 1, arms {0.2, 0.9}:
    # opt gap <= C log2(2t) / (2t) with C = 2 for all t
    v = np.array([[0.2, 0.9]])
    inst = InstanceModel(v, "fixed")
    f = SeparableObjective([{"kind": "quad", "weight": 1.0, "center": 0.5}])
    cfg = AlgorithmConfig(variant="fw_primal", horizon=2000, objective=f,
                          use_known_means=True)
    algo = make_algorithm(cfg, inst)
    c_smooth = 2.0
    f_opt = 1.0
    for t in range(1, 2001):
        pol = algo.step(t)
        arm = int(np.argmax(pol.weights))
        algo.observe(arm, v[:, arm])
        delta = f_opt - f.value(algo.xbar)
        assert delta <= c_smooth * math.log2(2 * t) / (2 * t) + 1e-12


def test_fw_bwc_inside_set_plays_uniform():
    inst = InstanceModel(np.array([[0.3, 0.4]]), "fixed")
    s = Box(np.array([0.0]), np.array([0.9]))
    cfg = AlgorithmConfig(variant="fw_bwc", horizon=10, constraint_set=s,
                          use_known_means=True)
    algo = make_algorithm(cfg, inst)
    pol = algo.step(1)    # x0 = V @ uniform = 0.35 inside S
    assert np.allclose(pol.weights, [0.5, 0.5])


def test_fw_bwc_direction_sign_case():
    # base point above the halfspace: direction positive, picks the smaller arm
    v = np.array([[0.9, 0.3]])
    inst = InstanceModel(v, "fixed")
    s = Box(np.array([0.0]), np.array([0.5]))
    cfg = AlgorithmConfig(variant="fw_bwc", horizon=10, constraint_set=s,
                          use_known_means=True)
    algo = make_algorithm(cfg, inst)
    pol = algo.step(1)    # x0 = 0.6 outside; direction +0.1 -> minimize -> arm 1
    assert int(np.argmax(pol.weights)) == 1


def test_simplex_one_constraint_against_grid():
    rng = np.random.default_rng(1)
    for allow_idle in (False, True):
        for _ in range(20):
            m = 4
            cost = rng.uniform(-1, 1, m)
            load = rng.uniform(-0.5, 1.0, m)
            cap = float(rng.uniform(-0.2, 0.8))
            p = _simplex_one_constraint(cost, load, cap, allow_idle)
            # grid oracle
            pts = []
            n = 60
            for i in range(n + 1):
                for j in range(n + 1 - i):
                    for k in range(n + 1 - i - j):
                        w = np.array([i, j, k, n - i - j - k]) / n
                        pts.append(w)
            pts = np.array(pts)
            if not allow_idle:
                mask = np.ones(len(pts), dtype=bool)
            else:
                scale = rng.random(len(pts))
                pts = pts * scale[:, None]
                mask = np.ones(len(pts), dtype=bool)
            feas = (pts @ load) <= cap + 1e-12
            if not feas.any():
                if not allow_idle:
                    assert p is None or (p @ load) <= cap + 1e-9
                continue
            best = (pts[feas] @ cost).min()
            assert p is not None
            assert float(cost @ p) <= best + 1e-6


def test_unchecked_policies_match_checked():
    # combined and greedy_bwk wrap the policies they build without the
    # constructor's checks: on those policies the unchecked wrapper must give
    # the weights and CDF of the checked constructor
    rng = np.random.default_rng(5)
    policies = []
    for allow_idle in (False, True):
        for _ in range(200):
            m = int(rng.integers(1, 6))
            p = _simplex_one_constraint(rng.uniform(-1, 1, m), rng.uniform(-0.5, 1.0, m),
                                        float(rng.uniform(-0.2, 0.8)), allow_idle)
            if p is not None:
                policies.append((p, allow_idle))
    inst = InstanceModel(rng.uniform(0.0, 1.0, (3, 4)), "bernoulli")
    target = Halfspaces(np.array([[0.0, 1.0, 1.0]]), np.array([0.8]))
    for cfg in (AlgorithmConfig(variant="greedy_bwk", horizon=200, budget=40.0),
                AlgorithmConfig(variant="combined", horizon=200,
                                objective=LinearObjective(np.array([0.9, 0.05, 0.05])),
                                constraint_set=target, allow_idle=True)):
        algo = make_algorithm(cfg, inst)
        rng_arms, rng_obs = substream(1, 0, 0), substream(1, 0, 1)
        for t in range(1, cfg.horizon + 1):
            pol = algo.step(t)
            if not isinstance(pol, PolicyDistribution):
                break   # greedy_bwk stopped
            policies.append((pol.weights, pol.allow_idle))
            arm = draw_arm(pol, rng_arms)
            algo.observe(arm, sample_observation(inst, arm, rng_obs) if arm != IDLE
                         else np.zeros(inst.d))
    assert len(policies) > 400
    for w, allow_idle in policies:
        checked = PolicyDistribution(w, allow_idle=allow_idle)
        unchecked = PolicyDistribution.unchecked(w, allow_idle=allow_idle)
        assert np.array_equal(checked.weights, unchecked.weights)
        assert checked.cdf == unchecked.cdf and checked.allow_idle == unchecked.allow_idle


def test_combined_unconstrained_picks_argmin():
    inst = InstanceModel(V5, "fixed")
    s = Halfspaces([[1.0, 1.0, 1.0]], [3.0])   # support huge, constraint slack
    cfg = AlgorithmConfig(variant="combined", horizon=10, objective=F5, constraint_set=s,
                          use_known_means=True)
    algo = make_algorithm(cfg, inst)
    algo.theta = np.array([-1.0, 0.0, 0.0])
    pol = algo.step(1)
    # cost = theta @ V: minimized by the largest first-row entry (arm 0)
    assert int(np.argmax(pol.weights)) == 0


def test_combined_greedy_knapsack_case():
    # allow_idle with positive loads: play the best-ratio arm at the largest
    # feasible probability
    inst = InstanceModel(np.array([[0.9, 0.2], [0.6, 0.3]]), "fixed")
    s = Box(np.zeros(2), np.array([0.25, 0.25]))
    f = LinearObjective(np.array([1.0, 0.0]))
    cfg = AlgorithmConfig(variant="combined", horizon=10, objective=f, constraint_set=s,
                          allow_idle=True, use_known_means=True)
    algo = make_algorithm(cfg, inst)
    algo.theta = np.array([-1.0, 0.0])
    algo.phi = np.array([0.0, 1.0])
    pol = algo.step(1)
    # load = phi @ V = (0.6, 0.3), cap = h_S(phi) = 0.25;
    # candidates: arm0 at 0.4167 (cost -0.375), arm1 at 0.8333 (cost -0.1667),
    # and the mix meeting the cap; arm0 capped is optimal
    assert pol.weights[0] == pytest.approx(0.25 / 0.6, abs=1e-9)
    assert pol.weights[1] == pytest.approx(0.0, abs=1e-12)


def test_combined_matches_brute_force_grid():
    rng = np.random.default_rng(2)
    v = rng.random((2, 2))
    inst = InstanceModel(v, "fixed")
    s = Box(np.zeros(2), rng.random(2) * 0.5 + 0.2)
    f = LinearObjective(rng.random(2))
    cfg = AlgorithmConfig(variant="combined", horizon=10, objective=f, constraint_set=s,
                          allow_idle=True, use_known_means=True)
    algo = make_algorithm(cfg, inst)
    algo.theta = rng.standard_normal(2)
    algo.phi = rng.standard_normal(2)
    pol = algo.step(1)
    w_t = vertex(Hypercube(lcb=v, ucb=v), algo.theta)
    w_p = vertex(Hypercube(lcb=v, ucb=v), algo.phi)
    cost = algo.theta @ w_t
    load = algo.phi @ w_p
    cap = s.support(algo.phi)
    # brute force over p >= 0, sum p <= 1, step 1e-3
    grid = np.linspace(0, 1, 1001)
    aa, bb = np.meshgrid(grid, grid, indexing="ij")
    mask = aa + bb <= 1.0 + 1e-12
    pts = np.stack([aa[mask], bb[mask]], axis=1)
    feas = pts @ load <= cap + 1e-12
    assert feas.any()
    best = (pts[feas] @ cost).min()
    assert float(cost @ pol.weights) <= best + 1e-3


def test_greedy_bwk_all_free_plays_best_ucb():
    v = np.array([[0.9, 0.5], [0.0, 0.0]])
    inst = InstanceModel(v, "fixed")
    cfg = AlgorithmConfig(variant="greedy_bwk", horizon=10, budget=5.0,
                          allow_idle=True, use_known_means=True)
    algo = make_algorithm(cfg, inst)
    pol = algo.step(1)
    assert np.allclose(pol.weights, [1.0, 0.0])


def test_greedy_bwk_hand_example():
    # r = (1, 0.5), consumption row (1, 0), phi = 1, budget ratio 0.5:
    # the zero-denominator arm at full probability wins the tie
    v = np.array([[1.0, 0.5], [1.0, 0.0]])
    inst = InstanceModel(v, "fixed")
    cfg = AlgorithmConfig(variant="greedy_bwk", horizon=10, budget=5.0,
                          allow_idle=True, use_known_means=True)
    algo = make_algorithm(cfg, inst)
    import dataclasses
    algo.oco_phi = dataclasses.replace(algo.oco_phi, theta=np.array([1.0]))
    pol = algo.step(1)
    assert np.allclose(pol.weights, [0.0, 1.0])


def test_greedy_bwk_budget_stop():
    v = np.array([[0.9], [1.0]])
    inst = InstanceModel(v, "fixed")
    cfg = AlgorithmConfig(variant="greedy_bwk", horizon=50, budget=3.0, allow_idle=True)
    hist = run_single(inst, cfg, seed=0, horizon=50)
    assert hist.stop_time is not None
    assert hist.observations[:, 1].sum() <= 4.0


def test_observe_bookkeeping():
    inst = InstanceModel(V5, "bernoulli")
    cfg = AlgorithmConfig(variant="fw_primal", horizon=30, objective=F5)
    algo = make_algorithm(cfg, inst)
    rng = substream(0, 0, 1)
    xs = []
    for t in range(1, 21):
        algo.step(t)
        xs.append(algo._pending_x.copy())
        from bwcr.core import sample_observation
        arm = 1
        algo.observe(arm, sample_observation(inst, arm, rng))
    assert algo.conf.counts[1] == 20
    assert np.allclose(algo.xbar, np.mean(xs, axis=0))


def test_observe_idle_keeps_counts():
    v = np.array([[0.9], [1.0]])
    inst = InstanceModel(v, "fixed")
    cfg = AlgorithmConfig(variant="greedy_bwk", horizon=10, budget=5.0, allow_idle=True)
    algo = make_algorithm(cfg, inst)
    algo.step(1)
    algo.observe(IDLE, np.zeros(2))
    assert algo.conf.counts.sum() == 0
    assert algo.xbar is not None


def test_decomposition_inequality_all_variants():
    inst = InstanceModel(V5, "bernoulli")
    horizon = 600
    configs = {
        "ucb_bwcr": AlgorithmConfig(variant="ucb_bwcr", horizon=horizon, objective=F5,
                                    constraint_set=S5),
        "dual_bwr": AlgorithmConfig(variant="dual_oco", horizon=horizon, objective=F5),
        "dual_bwc": AlgorithmConfig(variant="dual_oco", horizon=horizon, constraint_set=S5),
        "fw_primal": AlgorithmConfig(variant="fw_primal", horizon=horizon, objective=F5),
        "fw_bwc": AlgorithmConfig(variant="fw_bwc", horizon=horizon, constraint_set=S5),
        "combined": AlgorithmConfig(variant="combined", horizon=horizon, objective=F5,
                                    constraint_set=S5),
    }
    for name, cfg in configs.items():
        f = cfg.objective if cfg.objective is not None else NegativeDistance(S5)
        s_for_opt = cfg.constraint_set
        bench = compute_opt(inst, f, s_for_opt)
        for seed in (0, 1):
            hist = run_single(inst, cfg, seed=seed, horizon=horizon)
            algo = hist.algorithm
            avg = hist.observations.mean(axis=0)
            areg1 = bench.opt_value - f.value(avg)
            bound = (bench.opt_value - f.value(algo.xbar)
                     + f.lipschitz * np.linalg.norm(algo.xbar - avg))
            assert areg1 <= bound + 1e-9, name


def test_ucb_bwcr_contextual_end_to_end():
    rng = np.random.default_rng(31)
    n, m, d = 2, 6, 2
    contexts = rng.random((d, m, n))
    contexts /= contexts.sum(axis=2, keepdims=True)
    weights = rng.uniform(0.1, 0.6, (d, n))
    v = np.einsum("jin,jn->ji", contexts, weights)
    from bwcr.core import ContextualStructure
    inst = InstanceModel(v, "bernoulli", contextual=ContextualStructure(contexts, weights))
    f = SeparableObjective([{"kind": "quad", "weight": 0.5, "center": 0.3},
                            {"kind": "quad", "weight": 0.5, "center": 0.4}])
    cfg = AlgorithmConfig(variant="ucb_bwcr", horizon=60, objective=f)
    hist = run_single(inst, cfg, seed=0, horizon=60)
    assert hist.steps == 60
    assert hist.algorithm.ell.gram[0, 0, 0] > 1.0   # ellipsoids actually updated


def test_contextual_rejected_for_other_variants():
    rng = np.random.default_rng(32)
    contexts = rng.random((1, 2, 2))
    weights = np.array([[0.3, 0.4]])
    v = np.einsum("jin,jn->ji", contexts, weights)
    from bwcr.core import ContextualStructure
    inst = InstanceModel(v, "bernoulli", contextual=ContextualStructure(contexts, weights))
    cfg = AlgorithmConfig(variant="fw_primal", horizon=10,
                          objective=LinearObjective(np.array([1.0])))
    with pytest.raises(ConfigError):
        make_algorithm(cfg, inst)


def test_dual_oco_entropic_variant_runs():
    from bwcr.geometry import NormPair
    inst = InstanceModel(V5, "bernoulli")
    f = LinearObjective(np.array([0.9, 0.05, 0.05]), NormPair("linf"))
    cfg = AlgorithmConfig(variant="dual_oco", horizon=200, objective=f, oco_kind="entropic")
    hist = run_single(inst, cfg, seed=0, horizon=200)
    assert hist.steps == 200
    assert np.abs(hist.algorithm.oco.theta).sum() <= f.lipschitz + 1e-9


def test_ucb_bwcr_eps_shrinks_target():
    inst = InstanceModel(V5, "bernoulli")
    s = Box(np.zeros(3), np.array([0.9, 0.8, 0.7]))
    cfg = AlgorithmConfig(variant="ucb_bwcr", horizon=10, objective=F5,
                          constraint_set=s, eps=0.1)
    algo = make_algorithm(cfg, inst)
    assert np.allclose(algo.s.upper, [0.81, 0.72, 0.63])


def test_saddle_requires_finite_lipschitz():
    # contextual steps run the interval step, which needs no Lipschitz
    # constant; the saddle search and its solver options are gone
    from bwcr.core import ContextualStructure
    from bwcr.harness import build_algorithm_config, config_from_json
    contexts = np.array([[[0.6, 0.4], [0.3, 0.7]]])
    weights = np.array([[0.5, 0.6]])
    ctx_inst = InstanceModel(np.einsum("jin,jn->ji", contexts, weights), "bernoulli",
                             contextual=ContextualStructure(contexts, weights))
    f = SeparableObjective([{"kind": "sqrt"}])
    box = Box(np.zeros(1), np.ones(1))
    cfg = AlgorithmConfig(variant="ucb_bwcr", horizon=10, objective=f, constraint_set=box)
    algo = make_algorithm(cfg, ctx_inst)
    assert algo.step(1) is not STOP
    assert algo.infeasible_steps == 0 and algo._warm.gap <= GAP_TOL
    inst = InstanceModel(np.array([[0.2, 0.8]]), "bernoulli")
    make_algorithm(cfg, inst).step(1)
    doc = {"instance": ctx_inst.to_json(), "objective": {"kind": "separable",
                                                        "terms": [{"kind": "sqrt"}]},
           "algorithm": {"variant": "ucb_bwcr", "solver": {"outer_iters": 10}},
           "horizon": 10, "seeds": [1]}
    with pytest.raises(ConfigError, match="unknown algorithm fields"):
        build_algorithm_config(config_from_json(doc), f, None)


def _counted_confidence_updates(monkeypatch):
    from bwcr.confidence import ConfidenceState
    calls = []
    original = ConfidenceState.update

    def counting(self, arm, observation):
        calls.append(arm)
        return original(self, arm, observation)

    monkeypatch.setattr(ConfidenceState, "update", counting)
    return calls


def test_unread_confidence_state_is_never_updated(monkeypatch):
    # contextual and known-means runs read another region, so they neither
    # keep nor update the per-entry confidence state
    calls = _counted_confidence_updates(monkeypatch)
    from bwcr.core import ContextualStructure
    rng = np.random.default_rng(33)
    contexts = rng.random((2, 4, 2))
    contexts /= contexts.sum(axis=2, keepdims=True)
    weights = rng.uniform(0.1, 0.6, (2, 2))
    ctx = InstanceModel(np.einsum("jin,jn->ji", contexts, weights), "bernoulli",
                        contextual=ContextualStructure(contexts, weights))
    cfg = AlgorithmConfig(variant="ucb_bwcr", horizon=30,
                          objective=LinearObjective(np.array([1.0, 0.5])))
    hist = run_single(ctx, cfg, seed=0, horizon=30)
    assert hist.steps == 30 and hist.algorithm.conf is None
    known = AlgorithmConfig(variant="dual_oco", horizon=30, objective=F5, use_known_means=True)
    hist = run_single(InstanceModel(V5, "bernoulli"), known, seed=0, horizon=30)
    assert hist.steps == 30 and hist.algorithm.conf is None
    assert calls == []
    # the counter does see the updates of a run that reads the state
    run_single(InstanceModel(V5, "bernoulli"), AlgorithmConfig(
        variant="dual_oco", horizon=30, objective=F5), seed=0, horizon=30)
    assert len(calls) == 30


_BWK_V = np.array([[0.9, 0.4], [0.5, 0.0]])
_LP_COUNT_CONFIGS = {
    "ucb_bwcr": (V5, dict(objective=F5, constraint_set=S5)),
    "ucb_bwk": (_BWK_V, dict(budget=10.0)),
    "dual_oco": (V5, dict(constraint_set=S5)),
    "fw_primal": (V5, dict(objective=F5)),
    "fw_bwc": (V5, dict(constraint_set=S5)),
    "combined": (V5, dict(objective=F5, constraint_set=S5)),
    "greedy_bwk": (_BWK_V, dict(budget=10.0)),
}


@pytest.mark.parametrize("variant", sorted(_LP_COUNT_CONFIGS))
def test_lp_counts_per_variant(variant):
    v, fields = _LP_COUNT_CONFIGS[variant]
    cfg = AlgorithmConfig(variant=variant, horizon=40, **fields)
    counts = run_single(InstanceModel(v, "bernoulli"), cfg, seed=0, horizon=40) \
        .algorithm.lp_counts()
    if variant in ("fw_primal", "fw_bwc", "greedy_bwk"):
        assert counts is None
        return
    assert set(counts) == {"lp_solves", "lp_certified", "lp_pivots", "lp_replayed", "lp_scalar"}
    assert counts["lp_certified"] <= counts["lp_solves"]
    assert counts["lp_replayed"] <= counts["lp_pivots"]
    if variant in ("ucb_bwcr", "ucb_bwk"):
        assert counts["lp_solves"] > 0   # one step LP a step


@pytest.mark.parametrize("variant", ["ucb_bwk", "greedy_bwk"])
def test_budgeted_variants_need_resource_rows(variant):
    inst = InstanceModel(np.array([[0.9, 0.4]]), "bernoulli")
    with pytest.raises(ConfigError, match="reward row plus resources"):
        make_algorithm(AlgorithmConfig(variant=variant, horizon=10, budget=5.0), inst)

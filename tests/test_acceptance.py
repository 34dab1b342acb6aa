"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The long criteria
(regret scaling, budgeted safety) parallelize across seeds with two worker
processes; everything else is single-threaded.
"""
import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from bwcr.algorithms import AlgorithmConfig
from bwcr.benchmark import compute_opt
from bwcr.confidence import EllipsoidState, Hypercube, default_crad, vertex
from bwcr.core import InstanceModel, ContextualStructure, substream
from bwcr.geometry import Box, Halfspaces, smoothed_distance
from bwcr.harness import run_single
from bwcr.objective import LinearObjective, NegativeDistance, SeparableObjective
from bwcr.solvers import LpProblem, make_oco, ogd_step, solve_lp, solve_ucb_step


def _report(num, name, ok, detail, elapsed):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d} ({name}): {detail} [{elapsed:.1f}s]"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# shared fixed instance for the regret-scaling and decomposition criteria

V5 = np.array([[0.85, 0.45, 0.30, 0.20, 0.10],
               [0.15, 0.60, 0.80, 0.35, 0.50],
               [0.10, 0.55, 0.25, 0.75, 0.45]])
C5 = np.array([0.9, 0.05, 0.05])
S5_NORMAL = [0.0, 1.0, 1.0]
S5_OFFSET = 0.8
T_LONG = 40_000
CHECKPOINT = 10_000
SEEDS = list(range(20))

SCALING_VARIANTS = ("ucb_bwcr", "dual_bwr", "dual_bwc", "fw_primal", "fw_bwc", "combined")


def _scaling_setup(variant):
    inst = InstanceModel(V5, "bernoulli")
    f = LinearObjective(C5)
    s = Halfspaces([S5_NORMAL], [S5_OFFSET])
    cfgs = {
        "ucb_bwcr": dict(variant="ucb_bwcr", objective=f, constraint_set=s),
        "dual_bwr": dict(variant="dual_oco", objective=f),
        "dual_bwc": dict(variant="dual_oco", constraint_set=s),
        "fw_primal": dict(variant="fw_primal", objective=f),
        "fw_bwc": dict(variant="fw_bwc", constraint_set=s),
        "combined": dict(variant="combined", objective=f, constraint_set=s),
    }
    cfg = AlgorithmConfig(horizon=T_LONG, **cfgs[variant])
    return inst, f, s, cfg


def _scaling_worker(task):
    variant, seed, opt_value = task
    inst, f, s, cfg = _scaling_setup(variant)
    hist = run_single(inst, cfg, seed=seed, horizon=T_LONG)
    sums = np.cumsum(hist.observations, axis=0)
    avg_1 = sums[CHECKPOINT - 1] / CHECKPOINT
    avg_2 = sums[T_LONG - 1] / T_LONG
    out = {"variant": variant, "seed": seed}
    if cfg.objective is not None:
        out["areg1"] = (opt_value - f.value(avg_1), opt_value - f.value(avg_2))
    if cfg.constraint_set is not None:
        out["areg2"] = (s.distance(avg_1), s.distance(avg_2))
    # decomposition inequality (criterion 10) on the same logged runs
    f_eff = f if cfg.objective is not None else NegativeDistance(s)
    opt_eff = opt_value if cfg.objective is not None else 0.0
    algo = hist.algorithm
    avg = hist.observations.mean(axis=0)
    areg1 = opt_eff - f_eff.value(avg)
    bound = (opt_eff - f_eff.value(algo.xbar)
             + f_eff.lipschitz * float(np.linalg.norm(algo.xbar - avg)))
    out["decomp_ok"] = bool(areg1 <= bound + 1e-9)
    return out


_SCALING_CACHE = {}


def _run_scaling_once():
    if _SCALING_CACHE:
        return _SCALING_CACHE
    inst = InstanceModel(V5, "bernoulli")
    f = LinearObjective(C5)
    s = Halfspaces([S5_NORMAL], [S5_OFFSET])
    bench = compute_opt(inst, f, s)
    assert bench.feasible
    tasks = [(v, seed, bench.opt_value) for v in SCALING_VARIANTS for seed in SEEDS]
    results = []
    with ProcessPoolExecutor(max_workers=2) as pool:
        for res in pool.map(_scaling_worker, tasks, chunksize=4):
            results.append(res)
    _SCALING_CACHE["results"] = results
    _SCALING_CACHE["opt"] = bench.opt_value
    return _SCALING_CACHE


def test_criterion_01_confidence_coverage():
    started = time.time()
    d, m, horizon, delta = 3, 5, 500, 0.05
    crad = default_crad(m, horizon, d, delta)
    v = V5
    runs, bad = 1000, 0
    for seed in range(runs):
        rng_a = substream(seed, 0, 0)
        rng_o = substream(seed, 0, 1)
        arms = rng_a.integers(0, m, horizon)
        obs = (rng_o.random((horizon, d)) < v[:, arms].T).astype(float)
        violated = False
        for i in range(m):
            rows = obs[arms == i]
            if rows.shape[0] == 0:
                continue
            k = np.arange(1, rows.shape[0] + 1)
            mu = np.cumsum(rows, axis=0) / (k + 1)[:, None]
            r = np.sqrt(crad * mu / (k + 1)[:, None]) + (crad / (k + 1))[:, None]
            lcb = np.maximum(mu - 2 * r, 0.0)
            ucb = np.minimum(mu + 2 * r, 1.0)
            vi = v[:, i]
            if np.any(vi < lcb - 1e-12) or np.any(vi > ucb + 1e-12):
                violated = True
                break
        bad += 1 if violated else 0
    frac = bad / runs
    elapsed = time.time() - started
    _report(1, "confidence coverage", frac <= 0.05 and elapsed < 60,
            f"violation fraction {frac:.4f} <= 0.05 over {runs} runs", elapsed)


def test_criterion_02_vertex_optimality():
    started = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for d, m in ((3, 4), (2, 3)):
        lcb = rng.random((d, m)) * 0.5
        ucb = np.clip(lcb + rng.random((d, m)) * 0.5, 0, 1)
        hc = Hypercube(lcb=lcb, ucb=ucb)
        n_bits = d * m
        bits = ((np.arange(2 ** n_bits)[:, None] >> np.arange(n_bits)) & 1).reshape(-1, d, m)
        corners = np.where(bits > 0, ucb, lcb)
        for _ in range(100):
            theta = rng.standard_normal(d)
            w = vertex(hc, theta)
            # the returned matrix is itself a corner; locate it and compare
            # inside one evaluation so the check is float-exact
            row_bits = (theta <= 0.0).astype(np.int64)
            k_vertex = int((row_bits[:, None] * (1 << np.arange(n_bits)).reshape(d, m)).sum())
            assert np.array_equal(corners[k_vertex], w)
            vals = np.einsum("d,kdm->km", theta, corners)
            worst = max(worst, float(np.max(vals[k_vertex] - vals.min(axis=0))))
            if worst > 0.0:
                break
    elapsed = time.time() - started
    _report(2, "vertex corner optimality", worst <= 0.0 and elapsed < 10,
            f"max excess over {2 ** 12} corners x 100 directions = {worst:.2e}", elapsed)


def _lp_vertex_oracle(r, c, beta):
    m = r.size
    cons = [("p", i) for i in range(m)] + [("c", j) for j in range(c.shape[0])]
    best = None
    for sub in itertools.combinations(cons, m - 1):
        rows, rhs = [np.ones(m)], [1.0]
        for kind, idx in sub:
            if kind == "p":
                e = np.zeros(m)
                e[idx] = 1.0
                rows.append(e)
                rhs.append(0.0)
            else:
                rows.append(c[idx])
                rhs.append(beta)
        mat = np.asarray(rows)
        if mat.shape[0] != m:
            continue
        try:
            p = np.linalg.solve(mat, np.asarray(rhs))
        except np.linalg.LinAlgError:
            continue
        if p.min() < -1e-9 or np.any(c @ p > beta + 1e-9):
            continue
        val = float(r @ p)
        if best is None or val > best:
            best = val
    return best


def test_criterion_03_lp_against_enumeration():
    started = time.time()
    rng = np.random.default_rng(3)
    worst, mismatches = 0.0, 0
    for _ in range(500):
        m = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        r = rng.random(m)
        c = rng.random((d, m))
        beta = float(rng.random() * 0.9 + 0.05)
        res = solve_lp(LpProblem(r, c, beta))
        oracle = _lp_vertex_oracle(r, c, beta)
        if oracle is None:
            mismatches += 0 if res.status == "infeasible" else 1
        elif res.status != "optimal":
            mismatches += 1
        else:
            worst = max(worst, abs(res.value - oracle))
    elapsed = time.time() - started
    _report(3, "lp solver vs vertex enumeration",
            mismatches == 0 and worst <= 1e-9 and elapsed < 10,
            f"500 instances, verdict mismatches {mismatches}, max value gap {worst:.2e}",
            elapsed)


def _simplex_grid_m3(step=0.01):
    pts = []
    n = round(1 / step)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            pts.append((i * step, j * step, 1.0 - i * step - j * step))
    return np.asarray(pts)


def test_criterion_04_interval_step_vs_grid():
    started = time.time()
    grid = _simplex_grid_m3(0.01)
    rng = np.random.default_rng(44)
    worst, verdict_mismatch = 0.0, 0
    n_instances = 50
    for trial in range(n_instances):
        d, m = (2 if trial % 2 == 0 else 3), 3
        v = rng.random((d, m))
        width = rng.random((d, m)) * 0.25
        lcb = np.clip(v - width, 0, 1)
        ucb = np.clip(v + width, 0, 1)
        region = Hypercube(lcb=lcb, ucb=ucb)
        f = SeparableObjective([{"kind": "quad", "weight": 1.0 / d,
                                 "center": float(rng.random())} for _ in range(d)])
        p0 = rng.dirichlet(np.ones(m))
        z0 = 0.5 * (lcb + ucb) @ p0
        family = trial % 3
        if family == 0:
            target = Box(np.clip(z0 - 0.08, 0, 1), np.clip(z0 + 0.08, 0, 1))
        elif family == 1:
            a = rng.random(d) + 0.2
            target = Halfspaces([a.tolist()], [float(a @ z0) + 0.05])
        else:
            a = rng.random(d) + 0.2
            lo_reach = (grid @ lcb.T @ a).min()
            if lo_reach - 0.05 <= 0:
                target = Box(np.clip(z0 - 0.08, 0, 1), np.clip(z0 + 0.08, 0, 1))
            else:
                target = Halfspaces([a.tolist()], [lo_reach - 0.05])
        res = solve_ucb_step(region, f, target)
        lo_g = grid @ lcb.T
        hi_g = grid @ ucb.T
        psis = np.zeros(grid.shape[0])
        for j, term in enumerate(f.terms):
            y = np.clip(term["center"], lo_g[:, j], hi_g[:, j])
            psis += term["weight"] * (1 - (y - term["center"]) ** 2)
        if isinstance(target, Box):
            gap = np.maximum(target.lower - hi_g, 0) + np.maximum(lo_g - target.upper, 0)
            gvals = np.linalg.norm(gap, axis=1)
        else:
            a = target.normals[0]
            mins = np.where(a >= 0, lo_g, hi_g) @ a
            gvals = np.maximum(mins - target.offsets[0], 0) / np.linalg.norm(a)
        feas = gvals <= 1e-9
        grid_feasible = bool(feas.any())
        if res.feasible != grid_feasible:
            verdict_mismatch += 1
            continue
        if grid_feasible:
            worst = max(worst, abs(res.objective - float(psis[feas].max())))
    elapsed = time.time() - started
    _report(4, "interval step vs simplex grid",
            verdict_mismatch == 0 and worst <= 1e-2 and elapsed < 120,
            f"{n_instances} instances, verdict mismatches {verdict_mismatch}, "
            f"max objective gap {worst:.2e}", elapsed)


def test_criterion_05_frank_wolfe_convergence():
    started = time.time()
    v = np.array([[0.2, 0.9]])
    inst = InstanceModel(v, "fixed")
    f = SeparableObjective([{"kind": "quad", "weight": 1.0, "center": 0.5}])
    cfg = AlgorithmConfig(variant="fw_primal", horizon=10_000, objective=f,
                          use_known_means=True)
    from bwcr.algorithms import make_algorithm
    algo = make_algorithm(cfg, inst)
    c_smooth, f_opt = 2.0, 1.0
    ok = True
    worst_margin = -math.inf
    for t in range(1, 10_001):
        pol = algo.step(t)
        arm = int(np.argmax(pol.weights))
        algo.observe(arm, v[:, arm])
        delta = f_opt - f.value(algo.xbar)
        bound = c_smooth * math.log2(2 * t) / (2 * t)
        worst_margin = max(worst_margin, delta - bound)
        if delta > bound + 1e-12:
            ok = False
            break
    elapsed = time.time() - started
    _report(5, "frank-wolfe convergence inequality", ok and elapsed < 1.0,
            f"gap - bound peaked at {worst_margin:.2e} over t <= 1e4", elapsed)


def test_criterion_06_smoothing_sandwich_and_gradient():
    started = time.time()
    rng = np.random.default_rng(6)
    sigma = 0.2
    sets = [Box(np.array([0.1, 0.15, 0.0]), np.array([0.45, 0.5, 0.4])),
            Halfspaces([[0.6, 0.48, 0.64]], [0.5])]
    sandwich_bad, grad_bad, checked = 0, 0, 0
    h = 1e-5
    while checked < 1000:
        s = sets[checked % 2]
        z = rng.random(3)
        dist = s.distance(z)
        val, grad = smoothed_distance(z, s, sigma)
        if not (val <= dist + 1e-12 and dist <= val + sigma / 2 + 1e-12):
            sandwich_bad += 1
        if abs(dist - sigma) > 1e-3 and dist > 1e-3:
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd = (smoothed_distance(z + e, s, sigma)[0]
                      - smoothed_distance(z - e, s, sigma)[0]) / (2 * h)
                if abs(fd - grad[j]) > 1e-4:
                    grad_bad += 1
        checked += 1
    elapsed = time.time() - started
    _report(6, "smoothing sandwich and gradient",
            sandwich_bad == 0 and grad_bad == 0 and elapsed < 5,
            f"1000 points: sandwich violations {sandwich_bad}, "
            f"gradient mismatches {grad_bad}", elapsed)


def test_criterion_07_regret_scaling():
    started = time.time()
    cache = _run_scaling_once()
    results = cache["results"]
    failures = []
    details = []
    for variant in SCALING_VARIANTS:
        rows = [r for r in results if r["variant"] == variant]
        for key in ("areg1", "areg2"):
            if key not in rows[0]:
                continue
            early = float(np.median([r[key][0] for r in rows]))
            late = float(np.median([r[key][1] for r in rows]))
            ok = late <= 0.7 * early + 1e-9 or late <= 1e-9
            details.append(f"{variant}.{key}: {early:.4f}->{late:.4f}")
            if not ok:
                failures.append(f"{variant}.{key} ratio {late / max(early, 1e-12):.2f}")
    elapsed = time.time() - started
    _report(7, "regret scaling across variants", not failures and elapsed < 300,
            "; ".join(details) + (f"; FAILURES: {failures}" if failures else ""), elapsed)


def test_criterion_10_decomposition():
    started = time.time()
    cache = _run_scaling_once()
    bad = [r for r in cache["results"] if not r["decomp_ok"]]
    elapsed = time.time() - started
    _report(10, "objective regret decomposition", not bad,
            f"{len(cache['results'])} logged runs, violations {len(bad)}", elapsed)


# ---------------------------------------------------------------------------
# criterion 8: budgeted safety and shrinkage

BWK_M, BWK_T = 25, 6000
BWK_B = BWK_T / 4.0


def _bwk_instance():
    rng = np.random.default_rng(1234)
    rewards = np.concatenate([[0.9], rng.uniform(0.05, 0.3, BWK_M - 1)])
    cons = np.concatenate([[0.5], np.zeros(BWK_M - 1)])
    return InstanceModel(np.vstack([rewards, cons]), "bernoulli")


def _bwk_worker(task):
    seed, eps = task
    inst = _bwk_instance()
    cfg = AlgorithmConfig(variant="ucb_bwk", horizon=BWK_T, budget=BWK_B, eps=eps)
    hist = run_single(inst, cfg, seed=seed, horizon=BWK_T)
    consumed = float(hist.observations[:, 1].sum())
    return {"seed": seed, "eps": eps, "stopped": hist.stop_time is not None,
            "consumed": consumed}


def test_criterion_08_bwk_safety_and_shrinkage():
    started = time.time()
    seeds = list(range(200))
    tasks = [(s, None) for s in seeds] + [(s, 0.0) for s in seeds]
    results = []
    with ProcessPoolExecutor(max_workers=2) as pool:
        for res in pool.map(_bwk_worker, tasks, chunksize=8):
            results.append(res)
    with_eps = [r for r in results if r["eps"] is None]
    without = [r for r in results if r["eps"] == 0.0]
    overruns = sum(1 for r in results if r["consumed"] > BWK_B + 1.0)
    stops_eps = sum(r["stopped"] for r in with_eps)
    stops_zero = sum(r["stopped"] for r in without)
    # the eps = 0 run must stop at least as often pointwise-strictly overall
    ok = (overruns == 0 and stops_eps / len(with_eps) <= 0.10
          and stops_zero > stops_eps)
    elapsed = time.time() - started
    _report(8, "budgeted safety and shrinkage", ok,
            f"overruns {overruns}, early stops with shrink {stops_eps}/200, "
            f"with eps=0 {stops_zero}/200", elapsed)


def test_criterion_09_ogd_regret_bound():
    started = time.time()
    d, horizon = 3, 10_000
    g_bound = math.sqrt(d)
    radius = 1.0
    worst = -math.inf
    ok = True
    for trial in range(50):
        rng = substream(trial, 0, 3)
        state = make_oco("ogd", d, radius, g_bound)
        grads = rng.uniform(-1.0, 1.0, (horizon, d))
        loss = 0.0
        for g in grads:
            loss += float(state.theta @ g)
            state = ogd_step(state, g)
        best_fixed = -radius * float(np.linalg.norm(grads.sum(axis=0)))
        regret = loss - best_fixed
        bound = 1.5 * radius * g_bound * math.sqrt(horizon)
        worst = max(worst, regret / bound)
        if regret > bound:
            ok = False
            break
    elapsed = time.time() - started
    _report(9, "ogd regret bound", ok,
            f"50 trials, worst regret/bound ratio {worst:.3f}", elapsed)


def test_criterion_11_contextual_coverage_and_ellipsoid_oracle():
    started = time.time()
    n, m, d, horizon = 3, 50, 2, 1000
    rng0 = np.random.default_rng(77)
    contexts = rng0.random((d, m, n))
    contexts /= contexts.sum(axis=2, keepdims=True)
    # moderate means keep the outcome variance well inside what the
    # sqrt(n)-radius ellipsoid absorbs
    weights = rng0.uniform(0.05, 0.4, (d, n))
    v = np.einsum("jin,jn->ji", contexts, weights)
    inst = InstanceModel(v, "bernoulli",
                         contextual=ContextualStructure(contexts, weights))
    covered = 0
    runs = 200
    for seed in range(runs):
        rng_a = substream(seed, 0, 0)
        rng_o = substream(seed, 0, 1)
        es = EllipsoidState(d, n)
        ok = True
        for _ in range(horizon):
            arm = int(rng_a.integers(m))
            obs = (rng_o.random(d) < v[:, arm]).astype(float)
            es.update(contexts[:, arm, :], obs)
            if not all(es.contains(j, weights[j]) for j in range(d)):
                ok = False
                break
        covered += 1 if ok else 0
    coverage = covered / runs

    # rejection-sampling oracle for the linear minimum over one ellipsoid
    from test_confidence import ellipsoid_min_linear
    es = EllipsoidState(d, n)
    rng_a = substream(0, 0, 0)
    rng_o = substream(0, 0, 1)
    for _ in range(5000):
        arm = int(rng_a.integers(m))
        obs = (rng_o.random(d) < v[:, arm]).astype(float)
        es.update(contexts[:, arm, :], obs)
    rng = np.random.default_rng(99)
    evals, evecs = np.linalg.eigh(es.gram_inv[0])
    half = evecs @ np.diag(np.sqrt(np.maximum(evals, 0.0))) @ evecs.T
    samples = rng.uniform(-1, 1, (400_000, n))
    samples = samples[np.linalg.norm(samples, axis=1) <= 1.0][:100_000]
    pts = es.center[0] + math.sqrt(es.radius_sq) * samples @ half
    worst_gap = 0.0
    for _ in range(3):
        c = rng.standard_normal(n)
        closed = ellipsoid_min_linear(es, 0, c)
        sampled = float((pts @ c).min())
        worst_gap = max(worst_gap, abs(sampled - closed))
    elapsed = time.time() - started
    _report(11, "contextual coverage and ellipsoid oracle",
            coverage >= 0.95 and worst_gap <= 1e-3,
            f"coverage {coverage:.3f} >= 0.95; oracle gap {worst_gap:.2e} <= 1e-3",
            elapsed)


def test_criterion_12_reproducibility(tmp_path):
    import json
    import subprocess
    import sys
    started = time.time()
    doc = {
        "instance": {"d": 2, "m": 3, "outcome_kind": "bernoulli",
                     "mean_matrix": [0.3, 0.7, 0.5, 0.6, 0.2, 0.4]},
        "objective": {"kind": "linear", "coefficients": [0.8, 0.2]},
        "constraint_set": {"kind": "halfspaces", "normals": [[1.0, 1.0]], "offsets": [1.1]},
        "algorithm": {"variant": "combined"},
        "horizon": 300,
        "seeds": [5, 6],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    outs = []
    for tag in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, "-m", "bwcr.cli", "simulate", "--config", str(cfg_path),
             "--out", str(tmp_path / tag)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(tuple((tmp_path / tag / f"seed_{s}.csv").read_bytes() for s in (5, 6)))
    identical = outs[0] == outs[1]
    elapsed = time.time() - started
    _report(12, "byte-identical reruns", identical,
            "seed CSVs identical across reruns" if identical else "CSV bytes differ",
            elapsed)

"""Command-line interface.

    bwcr simulate --config cfg.json [--seed-override N] [--out DIR]
    bwcr benchmark --config cfg.json
    bwcr verify

Exit codes: 0 success, 1 verification failure, 2 config error, 3 generation
error, 4 solver iteration limit, 5 unsupported operation.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import ConfigError, GenerationError, SolverLimitError, UnsupportedError


def _cmd_simulate(args) -> int:
    from .harness import load_config, run_experiment
    cfg = load_config(args.config)
    summary = run_experiment(cfg, out_dir=args.out, seed_override=args.seed_override)
    print(json.dumps({k: summary[k] for k in ("horizon", "variant", "seeds",
                                              "final_areg1", "final_areg2", "reg_bwk")},
                     indent=2))
    return 0


def _cmd_benchmark(args) -> int:
    from .harness import build_algorithm_config, load_config, offline_benchmark, resolve_instance
    cfg = load_config(args.config)
    instance, objective, cset, feasibility = resolve_instance(cfg)
    bench = offline_benchmark(cfg, build_algorithm_config(cfg, objective, cset), instance,
                              feasibility)
    print(json.dumps({
        "feasible": bench.feasible,
        "opt_value": None if math.isnan(bench.opt_value) else bench.opt_value,
        "p_star": None if bench.p_star is None else bench.p_star.weights.tolist(),
    }, indent=2))
    return 0


def _verify_checks():
    """Quick invariant/oracle battery; small-sized versions of the test-suite
    oracles, suitable for an install smoke check."""
    from .confidence import Hypercube, rad, vertex
    from .core import InstanceModel, substream, sample_observation
    from .geometry import Box, smoothed_distance
    from .lp import workspace_counts
    from .objective import LinearObjective, duality_gap_check
    from .solvers import LpProblem, make_oco, ogd_step, solve_lp

    def check_rad():
        return abs(rad(0.25, 100, 4.0) - 0.14) < 1e-12

    def check_vertex():
        rng = np.random.default_rng(7)
        d, m = 2, 3
        lcb = rng.random((d, m)) * 0.4
        ucb = lcb + rng.random((d, m)) * 0.4
        hc = Hypercube(lcb=lcb, ucb=ucb)
        corners = np.stack([np.where((np.array([(k >> b) & 1 for b in range(d * m)])
                                      .reshape(d, m)) > 0, ucb, lcb)
                            for k in range(2 ** (d * m))])
        for _ in range(20):
            theta = rng.standard_normal(d)
            w = vertex(hc, theta)
            if np.any(theta @ w > np.einsum("d,kdm->km", theta, corners).min(axis=0) + 1e-12):
                return False
        return True

    def check_lp():
        res = solve_lp(LpProblem(np.array([1.0, 0.5]), np.array([[1.0, 0.0]]), 0.5))
        return res.status == "optimal" and abs(res.value - 0.75) < 1e-9

    def check_lp_warm():
        # the knapsack example resolved through one workspace: after a reward
        # change that keeps its basis optimal (certified in scalar floats, no
        # pivot), after one that does not (pivots), and with a new budget and
        # rewards that move the optimum (the dense form is rebuilt); each warm
        # solve must match a cold one
        ws = {}
        cons = np.array([[1.0, 0.0]])
        basis = solve_lp(LpProblem(np.array([1.0, 0.5]), cons, 0.5), workspace=ws).basis
        for rewards, ratio, expect in (([0.9, 0.6], 0.5, "certify"), ([0.2, 0.7], 0.5, "pivot"),
                                       ([0.9, 0.6], 0.4, "rebuild")):
            problem = LpProblem(np.array(rewards), cons, ratio)
            before, form = workspace_counts(ws), ws["form"]
            warm = solve_lp(problem, warm_basis=basis, workspace=ws)
            after = workspace_counts(ws)
            done = {"certify": after["lp_certified"] == before["lp_certified"] + 1
                    and after["lp_scalar"] == before["lp_scalar"] + 1,
                    "pivot": after["lp_pivots"] > before["lp_pivots"],
                    "rebuild": ws["form"] is not form}[expect]
            cold = solve_lp(problem)
            if (not done or warm.status != cold.status or abs(warm.value - cold.value) > 1e-12
                    or not np.allclose(warm.policy.weights, cold.policy.weights, atol=1e-12)):
                return False
            basis = warm.basis
        return True

    def check_smoothing():
        s = Box(np.zeros(1), np.array([0.5]))
        v1, g1 = smoothed_distance(np.array([0.8]), s, 0.1)
        v2, g2 = smoothed_distance(np.array([0.55]), s, 0.1)
        return (abs(v1 - 0.25) < 1e-12 and abs(g1[0] - 1.0) < 1e-12
                and abs(v2 - 0.0125) < 1e-12 and abs(g2[0] - 0.5) < 1e-12)

    def check_duality():
        f = LinearObjective(np.array([0.4, 0.3]))
        return duality_gap_check(f, np.array([0.2, 0.9])) < 1e-6

    def check_ogd_regret():
        rng = np.random.default_rng(3)
        d, horizon = 3, 2000
        g_bound = math.sqrt(d)
        state = make_oco("ogd", d, 1.0, g_bound)
        grads = rng.uniform(-1.0, 1.0, (horizon, d))
        loss = 0.0
        for g in grads:
            loss += float(state.theta @ g)
            state = ogd_step(state, g)
        best = -np.linalg.norm(grads.sum(axis=0))
        return (loss - best) <= 1.5 * g_bound * math.sqrt(horizon)

    def check_reproducible():
        inst = InstanceModel(np.array([[0.3, 0.7], [0.6, 0.2]]), "bernoulli")
        a = [sample_observation(inst, 1, substream(5, 0, 1)) for _ in range(1)]
        b = [sample_observation(inst, 1, substream(5, 0, 1)) for _ in range(1)]
        return all((x == y).all() for x, y in zip(a, b))

    return [
        ("confidence radius arithmetic", check_rad),
        ("vertex corner optimality", check_vertex),
        ("lp solver on the knapsack example", check_lp),
        ("warm LP resolve agrees with cold", check_lp_warm),
        ("smoothed distance closed forms", check_smoothing),
        ("fenchel duality gap (linear)", check_duality),
        ("ogd regret bound", check_ogd_regret),
        ("seeded reproducibility", check_reproducible),
    ]


def _cmd_verify(_args) -> int:
    failures = 0
    checks = _verify_checks()
    width = max(len(name) for name, _ in checks)
    for name, fn in checks:
        try:
            ok = fn()
        except Exception as exc:  # surfaced as a failure, not a crash
            ok = False
            print(f"{name:<{width}}  ERROR ({exc})")
            failures += 1
            continue
        print(f"{name:<{width}}  {'pass' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bwcr",
                                     description="bandits with concave rewards and convex knapsacks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a seeded experiment from a config")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed-override", type=int, default=None)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_bench = sub.add_parser("benchmark", help="print the offline benchmark for a config")
    p_bench.add_argument("--config", required=True)
    p_bench.set_defaults(func=_cmd_benchmark)

    p_ver = sub.add_parser("verify", help="run the built-in invariant/oracle checks")
    p_ver.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GenerationError as exc:
        print(f"generation error: {exc}", file=sys.stderr)
        return 3
    except SolverLimitError as exc:
        print(f"solver limit: {exc}", file=sys.stderr)
        return 4
    except UnsupportedError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())

"""Instance generators, the seeded experiment runner, and config handling.

A config document is a single JSON object:

    {
      "instance": {...instance json...} | {"generator": {"kind": ..., ...}},
      "instance_seed": 0,
      "objective": {...objective json...},          # optional
      "constraint_set": {...set json...},           # optional
      "algorithm": {"variant": "ucb_bwcr", ...},
      "horizon": 1000,
      "seeds": [1, 2, 3],
      "delta": 0.05,
      "output": {"dir": "out"}                      # optional
    }

Per seed the runner writes ``seed_<n>.csv`` with columns
t, arm, v_1..v_d, areg1, areg2[, reward_bwk], stopped (17-significant-digit
floats, '\n' endings), then a single ``summary.json``.  Reruns with the same
config and seed are byte-identical; the only non-deterministic field
(wall-clock) lives in the summary, never in the CSVs.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .algorithms import STOP, AlgorithmConfig, make_algorithm
from .benchmark import BenchmarkResult, compute_bwk_opt, compute_opt, regret_trace
from .core import (IDLE, PURPOSE_ARMS, PURPOSE_GENERATOR, PURPOSE_OUTCOMES, ContextualStructure,
                   InstanceModel, RunHistory, draw_arm, sample_observation, substream)
from .errors import ConfigError, GenerationError
from .geometry import Box, ConvexSet, Halfspaces, set_from_json
from .lp import COUNTERS as LP_COUNTERS, solve_dense_lp
from .objective import LinearObjective, Objective, objective_from_json
from .solvers import LpProblem, solve_lp

GENERATOR_KINDS = ("random_bernoulli", "bwk", "sensor_network", "contextual")
BWK_VARIANTS = ("ucb_bwk", "greedy_bwk")


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ConfigError(f"unknown generator kind {self.kind!r}")


def generate_instance(spec: GeneratorSpec, seed: int):
    """Build (instance, objective or None, constraint set or None).

    Generators rejection-sample until the produced instance admits a feasible
    mixture for its constraint set (bounded retries).
    """
    rng = substream(seed, 0, PURPOSE_GENERATOR)
    if spec.kind == "random_bernoulli":
        d, m = int(spec.params["d"]), int(spec.params["m"])
        v = rng.random((d, m))
        return InstanceModel(v, "bernoulli"), None, None
    if spec.kind == "bwk":
        return _generate_bwk(spec.params, rng), None, None
    if spec.kind == "sensor_network":
        return _generate_sensor(spec.params, rng)
    return _generate_contextual(spec.params, rng)


def _generate_bwk(params: dict, rng) -> InstanceModel:
    m = int(params["m"])
    n_res = int(params.get("resources", 1))
    budget = float(params["budget"])
    horizon = int(params["horizon"])
    for _ in range(1000):
        rewards = rng.uniform(0.1, 0.9, m)
        cons = rng.random((n_res, m))
        if solve_lp(LpProblem(rewards, cons, budget / horizon)).status == "optimal":
            return InstanceModel(np.vstack([rewards, cons]), "bernoulli")
    raise GenerationError("could not generate a feasible budgeted instance")


def _generate_sensor(params: dict, rng):
    """Sensor-network scenario: m sensors, N covered points, success
    probabilities q_i, and per-point quotas b/T; the target set lives in the
    m-dimensional observation space, one covering constraint per distinct
    coverage pattern.  Coverage sets may be given explicitly as
    ``coverage: [[sensor indices] per point]``; a ``quota`` overrides the
    feasibility-margin default b/T."""
    m = int(params["m"])
    n_points = int(params.get("points", 2 * m))
    cover_prob = float(params.get("cover_prob", 0.5))
    quota_fraction = float(params.get("quota_fraction", 0.8))
    q = np.asarray(params["success_probs"], dtype=float) if "success_probs" in params \
        else rng.uniform(0.3, 0.95, m)
    explicit_cover = params.get("coverage")
    for _ in range(1000):
        if explicit_cover is not None:
            cover = np.zeros((len(explicit_cover), m), dtype=bool)
            for k, sensors in enumerate(explicit_cover):
                cover[k, list(sensors)] = True
        else:
            cover = rng.random((n_points, m)) < cover_prob
        cover = cover[cover.any(axis=1)]
        if cover.shape[0] == 0:
            continue
        patterns = np.unique(cover, axis=0).astype(float)
        if patterns.shape[0] > 16:
            if explicit_cover is not None:
                raise GenerationError("more than 16 distinct coverage patterns")
            continue
        if "quota" in params:
            quota = float(params["quota"])
            target = Halfspaces(-patterns, np.full(patterns.shape[0], -quota))
            return InstanceModel(np.diag(q), "bernoulli"), None, target
        # largest uniformly-achievable quota: max tau s.t. some mixture p has
        # sum_{i in A_k} q_i p_i >= tau for every pattern k
        nvar = m + 1
        cost = np.zeros(nvar)
        cost[-1] = 1.0
        rows = np.hstack([-patterns * q[None, :], np.ones((patterns.shape[0], 1))])
        a_eq = np.zeros((1, nvar))
        a_eq[0, :m] = 1.0
        res = solve_dense_lp(cost, a_ub=rows, b_ub=np.zeros(patterns.shape[0]),
                             a_eq=a_eq, b_eq=np.ones(1))
        if res.status != "optimal" or res.value <= 1e-6:
            continue
        quota = quota_fraction * res.value
        target = Halfspaces(-patterns, np.full(patterns.shape[0], -quota))
        return InstanceModel(np.diag(q), "bernoulli"), None, target
    raise GenerationError("could not generate a feasible sensor-network instance")


def _generate_contextual(params: dict, rng):
    n, m, d = int(params["n"]), int(params["m"]), int(params["d"])
    contexts = rng.random((d, m, n))
    contexts /= np.maximum(contexts.sum(axis=2, keepdims=True), 1e-12)  # l1-normalized
    weights = rng.uniform(0.05, 0.9, (d, n))
    v = np.einsum("jin,jn->ji", contexts, weights)
    instance = InstanceModel(v, "bernoulli",
                             contextual=ContextualStructure(contexts, weights))
    return instance, None, None


@dataclass
class ExperimentConfig:
    instance: Optional[InstanceModel]
    generator: Optional[GeneratorSpec]
    algorithm: dict
    horizon: int
    seeds: list
    delta: float = 0.05
    objective: Optional[Objective] = None
    constraint_set: Optional[ConvexSet] = None
    instance_seed: int = 0
    output_dir: Optional[str] = None

    def validate(self):
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError("delta must lie in (0, 1)")
        if (self.instance is None) == (self.generator is None):
            raise ConfigError("exactly one of a literal instance or a generator is required")


def config_from_json(doc: dict) -> ExperimentConfig:
    try:
        inst_doc = doc["instance"]
        instance = generator = None
        if "generator" in inst_doc:
            gen = dict(inst_doc["generator"])
            kind = gen.pop("kind")
            generator = GeneratorSpec(kind=kind, params=gen)
        else:
            instance = InstanceModel.from_json(inst_doc)
        objective = objective_from_json(doc["objective"]) if doc.get("objective") else None
        cset = set_from_json(doc["constraint_set"]) if doc.get("constraint_set") else None
        cfg = ExperimentConfig(
            instance=instance,
            generator=generator,
            algorithm=dict(doc["algorithm"]),
            horizon=int(doc["horizon"]),
            seeds=[int(s) for s in doc["seeds"]],
            delta=float(doc.get("delta", 0.05)),
            objective=objective,
            constraint_set=cset,
            instance_seed=int(doc.get("instance_seed", 0)),
            output_dir=(doc.get("output") or {}).get("dir"),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config document: {exc}") from exc
    cfg.validate()
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_json(doc)


def resolve_instance(cfg: ExperimentConfig):
    """Materialize the instance, the objective/constraint oracles and, with a
    target set, its feasibility check ``compute_opt(instance, None, cset)``
    (GenerationError when no mixture of the means lies in the set)."""
    if cfg.instance is not None:
        instance, gen_f, gen_s = cfg.instance, None, None
    else:
        params = dict(cfg.generator.params)
        if cfg.generator.kind in ("bwk", "sensor_network"):
            params.setdefault("horizon", cfg.horizon)
        instance, gen_f, gen_s = generate_instance(
            GeneratorSpec(cfg.generator.kind, params), cfg.instance_seed)
    objective = cfg.objective if cfg.objective is not None else gen_f
    cset = cfg.constraint_set if cfg.constraint_set is not None else gen_s
    feasibility = None
    if cset is not None:
        feasibility = compute_opt(instance, None, cset)
        if not feasibility.feasible:
            raise GenerationError("no mixture of the instance means lies in the target set")
    return instance, objective, cset, feasibility


def offline_benchmark(cfg: ExperimentConfig, algo_cfg: AlgorithmConfig, instance: InstanceModel,
                      feasibility: Optional[BenchmarkResult]) -> BenchmarkResult:
    """The benchmark of a run: the per-step LP for budgeted variants, else the
    best feasible mixture, which for a constraint-only config is the
    feasibility solve :func:`resolve_instance` already made."""
    if algo_cfg.variant in BWK_VARIANTS:
        return compute_bwk_opt(instance, algo_cfg.budget, cfg.horizon)
    if algo_cfg.objective is None and feasibility is not None:
        return feasibility
    return compute_opt(instance, algo_cfg.objective, algo_cfg.constraint_set)


def build_algorithm_config(cfg: ExperimentConfig, objective, cset) -> AlgorithmConfig:
    algo = dict(cfg.algorithm)
    variant = algo.pop("variant", None)
    if variant is None:
        raise ConfigError("algorithm.variant is required")
    known = {"budget", "eps", "gamma", "oco_kind", "theta_update", "phi_update",
             "sigma", "allow_idle", "lipschitz", "solver", "use_known_means"}
    unknown = set(algo) - known
    if unknown:
        raise ConfigError(f"unknown algorithm fields: {sorted(unknown)}")
    is_bwk = variant in BWK_VARIANTS
    return AlgorithmConfig(
        variant=variant,
        horizon=cfg.horizon,
        objective=None if is_bwk else objective,
        constraint_set=None if is_bwk else cset,
        delta=cfg.delta,
        **algo,
    )


def run_single(instance: InstanceModel, algo_cfg: AlgorithmConfig, seed: int,
               horizon: int) -> RunHistory:
    """One seeded run; policies are sampled and outcomes drawn from separate
    substreams so the two concerns never perturb each other's stream."""
    algo = make_algorithm(algo_cfg, instance)
    rng_arms = substream(seed, 0, PURPOSE_ARMS)
    rng_obs = substream(seed, 0, PURPOSE_OUTCOMES)
    d = instance.d
    obs = np.zeros((horizon, d))
    arms = np.zeros(horizon, dtype=np.int64)
    stop_time = None
    steps = 0
    for t in range(1, horizon + 1):
        policy = algo.step(t)
        if policy is STOP:
            stop_time = t
            break
        arm = draw_arm(policy, rng_arms)
        v = sample_observation(instance, arm, rng_obs) if arm != IDLE else np.zeros(d)
        algo.observe(arm, v)
        obs[t - 1] = v
        arms[t - 1] = arm
        steps = t
    return RunHistory(observations=obs[:steps], arms=arms[:steps], stop_time=stop_time,
                      algorithm=algo)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_trace_csv(path: Path, history: RunHistory, trace, bwk: bool):
    d = history.observations.shape[1]
    cols = ["t", "arm"] + [f"v_{j + 1}" for j in range(d)] + ["areg1", "areg2"]
    if bwk:
        cols.append("reward_bwk")
    cols.append("stopped")
    n = history.steps
    lines = [",".join(cols)]
    for i in range(n):
        row = [str(i + 1), str(int(history.arms[i]))]
        row += [_fmt(x) for x in history.observations[i]]
        row.append(_fmt(trace.areg1[i]) if trace.areg1 is not None else "")
        row.append(_fmt(trace.areg2[i]) if trace.areg2 is not None else "")
        if bwk:
            row.append(_fmt(trace.rewards[i]))
        stopped = 1 if (history.stop_time is not None and i == n - 1) else 0
        row.append(str(stopped))
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _quantiles(values):
    arr = np.asarray([v for v in values if v is not None and not math.isnan(v)], dtype=float)
    if arr.size == 0:
        return None
    return {
        "median": float(np.median(arr)),
        "q10": float(np.quantile(arr, 0.10)),
        "q25": float(np.quantile(arr, 0.25)),
        "q75": float(np.quantile(arr, 0.75)),
        "q90": float(np.quantile(arr, 0.90)),
    }


def run_experiment(cfg: ExperimentConfig, out_dir: Optional[str] = None,
                   seed_override: Optional[int] = None) -> dict:
    """Run every seed, write one CSV per seed plus summary.json; returns the summary."""
    started = time.time()
    out = Path(out_dir or cfg.output_dir or "out")
    out.mkdir(parents=True, exist_ok=True)
    instance, objective, cset, feasibility = resolve_instance(cfg)
    algo_cfg = build_algorithm_config(cfg, objective, cset)
    is_bwk = algo_cfg.variant in BWK_VARIANTS
    bench = offline_benchmark(cfg, algo_cfg, instance, feasibility)

    if is_bwk:
        trace_f = LinearObjective(np.eye(instance.d)[0])
        ratio = min(algo_cfg.budget / cfg.horizon, 1.0)
        trace_s = Box(np.zeros(instance.d - 1), np.full(instance.d - 1, ratio))
    else:
        trace_f, trace_s = objective, cset

    seeds = [seed_override] if seed_override is not None else cfg.seeds
    per_seed = []
    for seed in seeds:
        history = run_single(instance, algo_cfg, seed, cfg.horizon)
        if is_bwk:
            trace = regret_trace(history, bench, trace_f, None,
                                 bwk_lp_value=bench.opt_value, horizon=cfg.horizon)
            trace.areg2 = trace_s.distance_many(history.observations[:, 1:].cumsum(axis=0)
                                                / trace.steps[:, None])
        else:
            trace = regret_trace(history, bench, trace_f, trace_s)
        write_trace_csv(out / f"seed_{seed}.csv", history, trace, is_bwk)
        per_seed.append({
            "seed": seed,
            "steps": int(history.steps),
            "stop_time": history.stop_time,
            "final_areg1": None if trace.areg1 is None else float(trace.areg1[-1]),
            "final_areg2": None if trace.areg2 is None else float(trace.areg2[-1]),
            "reg_bwk": trace.reg_total,
            # steps with no feasible optimistic play (ucb_bwcr only)
            "infeasible_steps": getattr(history.algorithm, "infeasible_steps", None),
            # the run's LP solves, warm ones certified with no pivot, and pivots
            **(history.algorithm.lp_counts() or dict.fromkeys(LP_COUNTERS)),
        })

    summary = {
        "horizon": cfg.horizon,
        "variant": algo_cfg.variant,
        "seeds": list(seeds),
        "benchmark": {
            "feasible": bench.feasible,
            "opt_value": None if math.isnan(bench.opt_value) else bench.opt_value,
            "p_star": None if bench.p_star is None else bench.p_star.weights.tolist(),
        },
        "final_areg1": _quantiles([r["final_areg1"] for r in per_seed]),
        "final_areg2": _quantiles([r["final_areg2"] for r in per_seed]),
        "reg_bwk": _quantiles([r["reg_bwk"] for r in per_seed]),
        "per_seed": per_seed,
        "wall_clock_s": time.time() - started,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary

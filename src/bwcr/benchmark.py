"""Offline benchmark (the best fixed mixture in hindsight) and regret series.

The benchmark maximizes f(V p) over the simplex subject to V p in S, with the
true means V (simulator side only).  That is the optimistic step over the
zero-width confidence region pinned to V, so it is solved by the same exact
interval-region step (one LP, or cutting planes on it, to a certified gap).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import InstanceModel, PolicyDistribution, RunHistory
from .geometry import ConvexSet, L2, NormPair
from .objective import LinearObjective, Objective
from .solvers import GAP_TOL, degenerate_region, solve_lp, solve_ucb_step


@dataclass
class BenchmarkResult:
    p_star: Optional[PolicyDistribution]
    opt_value: float
    feasible: bool


@dataclass
class RegretTrace:
    """Per-step averages and the two regret series.

    ``areg1[t-1]`` is opt_value - f(average of the first t observations),
    stored signed; ``areg2`` the distance of that average from the target
    set.  For budgeted (knapsack) runs ``rewards`` carries the cumulative
    reward and ``reg_total`` the final  T * LP - sum(rewards).
    """

    steps: np.ndarray
    averages: np.ndarray
    areg1: Optional[np.ndarray]
    areg2: Optional[np.ndarray]
    rewards: Optional[np.ndarray] = None
    reg_total: Optional[float] = None
    stop_time: Optional[int] = None


def compute_opt(instance: InstanceModel, f: Optional[Objective] = None,
                s: Optional[ConvexSet] = None) -> BenchmarkResult:
    """Best feasible mixture under the true means.

    Without an objective the step LP has a zero cost, so p* is its
    feasibility witness and ``opt_value`` is nan.
    """
    v = instance.mean_matrix
    fx = f if f is not None else LinearObjective(np.zeros(instance.d))
    res = solve_ucb_step(degenerate_region(v), fx, s)
    if not res.feasible:
        return BenchmarkResult(p_star=None, opt_value=math.nan, feasible=False)
    if res.gap > GAP_TOL:
        warnings.warn(f"benchmark optimum certified only to a gap of {res.gap:.3g} "
                      f"after {res.rounds} cutting-plane rounds", stacklevel=2)
    val = f.value(v @ res.policy.weights) if f is not None else math.nan
    return BenchmarkResult(p_star=res.policy, opt_value=val, feasible=True)


def compute_bwk_opt(instance: InstanceModel, budget: float, horizon: int) -> BenchmarkResult:
    """Per-step LP value for budgeted runs (total benchmark is horizon * value)."""
    v = instance.mean_matrix
    res = solve_lp(v[0], v[1:], budget / horizon)
    if not res.feasible:
        return BenchmarkResult(p_star=None, opt_value=math.nan, feasible=False)
    return BenchmarkResult(p_star=res.policy, opt_value=res.objective, feasible=True)


def regret_trace(history: RunHistory, bench: BenchmarkResult,
                 f: Optional[Objective] = None, s: Optional[ConvexSet] = None,
                 norm: NormPair = L2, bwk_lp_value: Optional[float] = None,
                 horizon: Optional[int] = None) -> RegretTrace:
    """Regret series computed exactly from the stored observations."""
    if history.steps == 0:
        raise ValueError("history is empty")
    obs = history.observations
    n = obs.shape[0]
    steps = np.arange(1, n + 1)
    averages = np.cumsum(obs, axis=0) / steps[:, None]

    areg1 = None
    if f is not None and bench is not None and not math.isnan(bench.opt_value):
        vals = np.array([f.value(a) for a in averages])
        areg1 = bench.opt_value - vals
    areg2 = s.distance_many(averages, norm) if s is not None else None

    rewards = reg_total = None
    if bwk_lp_value is not None:
        rewards = np.cumsum(obs[:, 0])
        t_total = horizon if horizon is not None else n
        reg_total = float(t_total * bwk_lp_value - rewards[-1])
    return RegretTrace(steps=steps, averages=averages, areg1=areg1, areg2=areg2,
                       rewards=rewards, reg_total=reg_total, stop_time=history.stop_time)

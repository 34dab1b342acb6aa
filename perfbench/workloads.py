"""The benchmark's workloads: each is a list of bwcr config documents.

Every config is a plain ``bwcr simulate`` document; ``--seed`` picks the
bandit seeds and nothing else, so the instances, horizons and targets below
are the same on every run.  Why each workload exists is in README.md.
"""
from __future__ import annotations

import numpy as np

# the five-arm instance of acceptance criterion 7 (d=3, m=5)
C7_MEANS = [0.85, 0.45, 0.30, 0.20, 0.10,
            0.15, 0.60, 0.80, 0.35, 0.50,
            0.10, 0.55, 0.25, 0.75, 0.45]
C7_INSTANCE = {"d": 3, "m": 5, "outcome_kind": "bernoulli", "mean_matrix": C7_MEANS}
C7_LINEAR = {"kind": "linear", "coefficients": [0.9, 0.05, 0.05]}
C7_TARGET = {"kind": "halfspaces", "normals": [[0.0, 1.0, 1.0]], "offsets": [0.8]}
SEPARABLE = {"kind": "separable", "terms": [
    {"kind": "log1p", "weight": 1.0},
    {"kind": "quad", "weight": 0.5, "center": 0.4},
    {"kind": "log1p", "weight": 0.5},
]}

# the paper's sensor-network covering example: 4 sensors, 6 random points,
# per-point quota at 0.8 of the best uniformly achievable rate
SENSOR_INSTANCE = {"generator": {"kind": "sensor_network", "m": 4, "points": 6}}
SENSOR_INSTANCE_SEED = 3

LP_WARM_T = 4_000
FIRST_ORDER_T = 1_000
FIRST_ORDER_SEEDS = 3
SEPARABLE_T = 3
SENSOR_T = 2_000

WORKLOADS = ("lp_warm", "first_order", "general_concave")


def _c8_instance() -> dict:
    """The 25-arm budgeted instance of acceptance criterion 8: one strong
    arm that consumes, 24 weak free arms."""
    rng = np.random.default_rng(1234)
    rewards = np.concatenate([[0.9], rng.uniform(0.05, 0.3, 24)])
    cons = np.concatenate([[0.5], np.zeros(24)])
    return {"d": 2, "m": 25, "outcome_kind": "bernoulli",
            "mean_matrix": np.vstack([rewards, cons]).ravel().tolist()}


def _c7(name, variant, horizon, seeds, objective=True, target=True):
    doc = {"instance": C7_INSTANCE, "algorithm": {"variant": variant},
           "horizon": horizon, "seeds": seeds}
    if objective:
        doc["objective"] = C7_LINEAR if objective is True else objective
    if target:
        doc["constraint_set"] = C7_TARGET
    return name, doc


def _c8(name, variant, horizon, seeds):
    return name, {"instance": _c8_instance(),
                  "algorithm": {"variant": variant, "budget": horizon / 4.0},
                  "horizon": horizon, "seeds": seeds}


def build(workload: str, seed: int) -> list:
    """[(config name, config document)] for one workload and benchmark seed."""
    if workload == "lp_warm":
        return [
            _c7("c7_ucb_bwcr_linear", "ucb_bwcr", LP_WARM_T, [seed]),
            _c8("c8_ucb_bwk", "ucb_bwk", LP_WARM_T, [seed]),
        ]
    if workload == "first_order":
        seeds = [FIRST_ORDER_SEEDS * seed + i for i in range(FIRST_ORDER_SEEDS)]
        t = FIRST_ORDER_T
        return [
            _c7("c7_dual_oco_objective", "dual_oco", t, seeds, target=False),
            _c7("c7_dual_oco_constraint", "dual_oco", t, seeds, objective=False),
            _c7("c7_fw_primal", "fw_primal", t, seeds, target=False),
            _c7("c7_fw_bwc", "fw_bwc", t, seeds, objective=False),
            _c7("c7_combined", "combined", t, seeds),
            _c8("c8_greedy_bwk", "greedy_bwk", t, seeds),
        ]
    if workload == "general_concave":
        return [
            _c7("c7_ucb_bwcr_separable", "ucb_bwcr", SEPARABLE_T, [seed], objective=SEPARABLE),
            ("sensor_dual_oco_constraint",
             {"instance": SENSOR_INSTANCE, "instance_seed": SENSOR_INSTANCE_SEED,
              "algorithm": {"variant": "dual_oco"}, "horizon": SENSOR_T, "seeds": [seed]}),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")

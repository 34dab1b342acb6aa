import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from bwcr.benchmark import compute_opt
from bwcr.errors import ConfigError, GenerationError, SolverLimitError
from bwcr.geometry import Halfspaces
from bwcr.harness import (GeneratorSpec, config_from_json, generate_instance,
                          resolve_instance, run_experiment)
from bwcr.solvers import LpProblem, solve_lp


def test_generator_kinds_validated():
    with pytest.raises(ConfigError):
        GeneratorSpec("mystery")


def test_random_bernoulli_generator():
    inst, f, s = generate_instance(GeneratorSpec("random_bernoulli", {"d": 3, "m": 4}), seed=0)
    assert inst.mean_matrix.shape == (3, 4)
    assert f is None and s is None
    again, _, _ = generate_instance(GeneratorSpec("random_bernoulli", {"d": 3, "m": 4}), seed=0)
    assert np.array_equal(inst.mean_matrix, again.mean_matrix)


def test_bwk_generator_feasible():
    spec = GeneratorSpec("bwk", {"m": 3, "resources": 2, "budget": 25.0, "horizon": 100})
    inst, _, _ = generate_instance(spec, seed=1)
    assert inst.d == 3
    res = solve_lp(LpProblem(inst.mean_matrix[0], inst.mean_matrix[1:], 0.25))
    assert res.status == "optimal"


def test_sensor_generator_disjoint_example():
    # A_i = {i} disjoint, q_i = 1, quota 1/m: V = I and uniform play feasible
    m = 3
    spec = GeneratorSpec("sensor_network", {
        "m": m,
        "coverage": [[0], [1], [2]],
        "success_probs": [1.0, 1.0, 1.0],
        "quota": 1.0 / m,
    })
    inst, _, target = generate_instance(spec, seed=0)
    assert np.array_equal(inst.mean_matrix, np.eye(m))
    assert isinstance(target, Halfspaces)
    assert target.contains(np.full(m, 1.0 / m))
    bench = compute_opt(inst, None, target)
    assert bench.feasible


def test_sensor_generator_random_is_feasible():
    spec = GeneratorSpec("sensor_network", {"m": 4, "points": 6})
    inst, _, target = generate_instance(spec, seed=3)
    bench = compute_opt(inst, None, target)
    assert bench.feasible


def test_sensor_generator_exhaustion():
    spec = GeneratorSpec("sensor_network", {"m": 3, "success_probs": [0.0, 0.0, 0.0]})
    with pytest.raises(GenerationError):
        generate_instance(spec, seed=0)


def test_contextual_generator_consistency():
    spec = GeneratorSpec("contextual", {"n": 3, "m": 10, "d": 2})
    inst, _, _ = generate_instance(spec, seed=5)
    ctx = inst.contextual
    assert ctx.n == 3
    v = np.einsum("jin,jn->ji", ctx.contexts, ctx.weights)
    assert np.max(np.abs(v - inst.mean_matrix)) < 1e-12


def _config_doc(tmp_path, horizon=10, seeds=(1,)):
    return {
        "instance": {
            "d": 2, "m": 2, "outcome_kind": "fixed",
            "mean_matrix": [0.3, 0.7, 0.6, 0.2],
        },
        "objective": {"kind": "linear", "coefficients": [1.0, 0.5]},
        "constraint_set": {"kind": "halfspaces", "normals": [[1.0, 1.0]], "offsets": [1.5]},
        "algorithm": {"variant": "ucb_bwcr"},
        "horizon": horizon,
        "seeds": list(seeds),
        "output": {"dir": str(tmp_path / "out")},
    }


def test_config_parsing_and_validation(tmp_path):
    cfg = config_from_json(_config_doc(tmp_path))
    assert cfg.horizon == 10
    bad = _config_doc(tmp_path)
    bad.pop("horizon")
    with pytest.raises(ConfigError):
        config_from_json(bad)
    bad2 = _config_doc(tmp_path)
    bad2["seeds"] = []
    with pytest.raises(ConfigError):
        config_from_json(bad2)
    bad3 = _config_doc(tmp_path)
    bad3["algorithm"] = {"variant": "ucb_bwcr", "bogus_field": 1}
    cfg3 = config_from_json(bad3)
    with pytest.raises(ConfigError):
        from bwcr.harness import build_algorithm_config
        build_algorithm_config(cfg3, None, None)


def test_run_experiment_row_count_and_summary(tmp_path):
    cfg = config_from_json(_config_doc(tmp_path, horizon=10, seeds=(1,)))
    summary = run_experiment(cfg)
    csv_path = tmp_path / "out" / "seed_1.csv"
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == 11                     # header + 10 data rows
    assert lines[0].split(",")[:4] == ["t", "arm", "v_1", "v_2"]
    assert summary["benchmark"]["feasible"] is True
    assert (tmp_path / "out" / "summary.json").exists()
    per_seed = summary["per_seed"][0]
    assert per_seed["infeasible_steps"] == 0
    # one warm-started step LP per step; only the first is solved cold.  The
    # target is one halfspace, so every certified warm basis is certified in
    # scalar floats
    assert per_seed["lp_solves"] == 10
    assert 0 <= per_seed["lp_certified"] <= 9 and per_seed["lp_pivots"] > 0
    assert per_seed["lp_scalar"] == per_seed["lp_certified"]
    assert "infeasible" not in lines[0] and "lp_" not in lines[0]
    doc = _config_doc(tmp_path, horizon=10, seeds=(1,))
    doc["algorithm"] = {"variant": "dual_oco"}
    doc.pop("constraint_set")
    per_seed = run_experiment(config_from_json(doc))["per_seed"][0]
    assert per_seed["infeasible_steps"] is None
    # the linear objective's conjugate argmax is closed-form: no LP solved
    assert (per_seed["lp_solves"], per_seed["lp_certified"], per_seed["lp_pivots"],
            per_seed["lp_scalar"]) == (0, 0, 0, 0)
    doc["algorithm"] = {"variant": "fw_primal"}
    per_seed = run_experiment(config_from_json(doc))["per_seed"][0]
    assert (per_seed["lp_solves"], per_seed["lp_certified"], per_seed["lp_pivots"],
            per_seed["lp_scalar"]) == (None, None, None, None)
    assert "lp_" not in (tmp_path / "out" / "seed_1.csv").read_text()


def test_run_experiment_reproducible_bytes(tmp_path):
    cfg = config_from_json(_config_doc(tmp_path, horizon=25, seeds=(7,)))
    run_experiment(cfg, out_dir=str(tmp_path / "a"))
    run_experiment(cfg, out_dir=str(tmp_path / "b"))
    a = (tmp_path / "a" / "seed_7.csv").read_bytes()
    b = (tmp_path / "b" / "seed_7.csv").read_bytes()
    assert a == b


def test_run_experiment_horizon_scaling_summary(tmp_path):
    doc = _config_doc(tmp_path, horizon=10, seeds=(1, 2))
    doc["instance"]["outcome_kind"] = "bernoulli"
    s1 = run_experiment(config_from_json(doc), out_dir=str(tmp_path / "t10"))
    doc["horizon"] = 20
    s2 = run_experiment(config_from_json(doc), out_dir=str(tmp_path / "t20"))
    assert s1["final_areg1"] is not None and s2["final_areg1"] is not None


def test_run_experiment_bwk_columns(tmp_path):
    doc = {
        "instance": {"d": 2, "m": 2, "outcome_kind": "bernoulli",
                     "mean_matrix": [0.9, 0.3, 0.6, 0.1]},
        "algorithm": {"variant": "ucb_bwk", "budget": 5.0},
        "horizon": 40,
        "seeds": [1],
        "output": {"dir": str(tmp_path / "bwk")},
    }
    run_experiment(config_from_json(doc))
    lines = (tmp_path / "bwk" / "seed_1.csv").read_text().strip().split("\n")
    assert "reward_bwk" in lines[0]
    assert lines[0].endswith("stopped")


def test_generation_error_on_infeasible_target(tmp_path):
    doc = _config_doc(tmp_path)
    doc["constraint_set"] = {"kind": "box", "lower": [0.95, 0.95], "upper": [1.0, 1.0]}
    with pytest.raises(GenerationError):
        resolve_instance(config_from_json(doc))


def _run_cli(args):
    return subprocess.run([sys.executable, "-m", "bwcr.cli", *args],
                          capture_output=True, text=True)


def test_cli_simulate_and_exit_codes(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config_doc(tmp_path, horizon=5)))
    out = _run_cli(["simulate", "--config", str(path)])
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "out" / "seed_1.csv").exists()

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert _run_cli(["simulate", "--config", str(bad)]).returncode == 2

    doc = _config_doc(tmp_path)
    doc["constraint_set"] = {"kind": "box", "lower": [0.95, 0.95], "upper": [1.0, 1.0]}
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps(doc))
    assert _run_cli(["simulate", "--config", str(gen)]).returncode == 3


def test_cli_rejects_solver_options(tmp_path):
    # the saddle search's keyword overrides are gone with it
    doc = _config_doc(tmp_path, horizon=5)
    doc["algorithm"] = {"variant": "ucb_bwcr", "solver": {"outer_iters": 10}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = _run_cli(["simulate", "--config", str(path)])
    assert out.returncode == 2
    assert "unknown algorithm fields" in out.stderr


def test_cli_solver_limit_and_unsupported_exit_codes(tmp_path, monkeypatch, capsys):
    from bwcr import cli, lp
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config_doc(tmp_path, horizon=5)))

    def capped(*args, **kwargs):
        raise SolverLimitError("simplex iteration limit exceeded")

    with monkeypatch.context() as patch:
        patch.setattr(lp, "_bland_iterate", capped)
        assert cli.main(["simulate", "--config", str(path)]) == 4
    assert "solver limit" in capsys.readouterr().err

    # the cutting planes need a supergradient, which neg-distance in l1
    # has only for box targets
    doc = _config_doc(tmp_path, horizon=5)
    doc["objective"] = {"kind": "neg_distance", "norm": "l1", "set": doc["constraint_set"]}
    path.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--config", str(path)]) == 5
    assert "unsupported" in capsys.readouterr().err


_NEG_DISTANCE = {"objective": {"kind": "neg_distance",
                               "set": {"kind": "box", "lower": [0.0, 0.0], "upper": [0.5, 0.5]}}}


@pytest.mark.parametrize("changes, algorithm, code, message", [
    # malformed numbers are config errors, never tracebacks or silent runs
    (_NEG_DISTANCE, {"variant": "combined", "theta_update": "primal_smoothed"}, 2,
     "primal_smoothed updates need sigma"),
    ({}, {"variant": "combined", "phi_update": "primal_smoothed"}, 2,
     "primal_smoothed updates need sigma"),
    (dict(_NEG_DISTANCE, constraint_set=None), {"variant": "fw_primal", "sigma": 0}, 2,
     "sigma must be > 0"),
    ({}, {"variant": "ucb_bwcr", "gamma": 0}, 2, "gamma must be > 0"),
    ({}, {"variant": "combined", "lipschitz": -1}, 2, "lipschitz must be > 0"),
    # the smoothing is closed-form for neg_distance only; a smooth f takes
    # the plain primal rule (the neg_distance runs are recorded trace configs)
    ({}, {"variant": "combined", "theta_update": "primal_smoothed", "sigma": 0.1}, 5,
     "smoothing is implemented for neg_distance objectives only"),
])
def test_cli_algorithm_field_exit_codes(tmp_path, capsys, changes, algorithm, code, message):
    from bwcr import cli
    doc = _config_doc(tmp_path, horizon=5)
    for key, value in changes.items():
        if value is None:
            doc.pop(key)
        else:
            doc[key] = value
    doc["algorithm"] = algorithm
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--config", str(path)]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("budget", "100", "budget must be a number"),
    ("eps", "0.1", "eps must be a number"),
    ("gamma", "0.1", "gamma must be a number"),
    ("gamma", True, "gamma must be a number"),
    ("sigma", [0.1], "sigma must be a number"),
    ("lipschitz", {"value": 1}, "lipschitz must be a number"),
    ("allow_idle", "false", "allow_idle must be true or false"),
    ("use_known_means", 1, "use_known_means must be true or false"),
])
def test_cli_mistyped_algorithm_fields_exit_2(tmp_path, capsys, field, value, message):
    # a wrong JSON type is a config error, not a traceback from the run
    from bwcr import cli
    doc = _config_doc(tmp_path, horizon=5)
    doc["algorithm"] = {"variant": "ucb_bwcr", field: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


def _seed_isolation_doc(variant):
    if variant == "ucb_bwk":
        return {"instance": {"generator": {"kind": "bwk", "m": 5, "resources": 2,
                                           "budget": 100.0}},
                "algorithm": {"variant": variant, "budget": 100.0},
                "horizon": 400, "seeds": [1, 2, 3]}
    if variant == "ucb_bwk_one_resource":
        return {"instance": {"generator": {"kind": "bwk", "m": 5, "resources": 1,
                                           "budget": 100.0}},
                "algorithm": {"variant": "ucb_bwk", "budget": 100.0, "gamma": 0.5},
                "horizon": 400, "seeds": [1, 2, 3]}
    if variant == "ucb_bwcr_one_halfspace":
        return {"instance": _C7_INSTANCE, "objective": _MIXED_SIGN_LINEAR,
                "constraint_set": _MIXED_SIGN_TARGET,
                "algorithm": {"variant": "ucb_bwcr", "gamma": 0.5},
                "horizon": 400, "seeds": [1, 2, 3]}
    doc = {"instance": {"generator": {"kind": "sensor_network", "m": 4, "points": 6}},
           "instance_seed": 3, "algorithm": {"variant": variant},
           "horizon": 400, "seeds": [1, 2, 3]}
    if variant == "combined":
        doc["objective"] = {"kind": "linear", "coefficients": [0.4, 0.3, 0.2, 0.1]}
    return doc


@pytest.mark.parametrize("variant", ["dual_oco", "combined", "ucb_bwcr", "ucb_bwk",
                                     "ucb_bwk_one_resource", "ucb_bwcr_one_halfspace"])
def test_seed_runs_share_no_warm_state(tmp_path, variant):
    # every step solves an LP warm from the run's last basis: the support LP
    # of the sensor target, which has several halfspaces, or the step LP
    # (for ucb_bwcr with the zero objective every feasible basis is optimal,
    # so its plays follow the warm state closely); that state and the LP's
    # workspace must stay with one run, as every seed of an experiment shares
    # the instance and the target object.  One resource, or a linear f with
    # one halfspace, makes the step LP one constraint row, whose warm bases
    # are certified in scalar floats
    doc = _seed_isolation_doc(variant)
    _, _, target, _ = resolve_instance(config_from_json(doc))
    if variant in ("dual_oco", "combined", "ucb_bwcr"):
        assert isinstance(target, Halfspaces) and target.k > 1
    summary = run_experiment(config_from_json(doc), out_dir=str(tmp_path / "together"))
    assert all(r["lp_solves"] > 0 for r in summary["per_seed"])
    one_row = variant in ("ucb_bwk_one_resource", "ucb_bwcr_one_halfspace")
    assert all((r["lp_scalar"] > 0) == one_row for r in summary["per_seed"])
    for seed in doc["seeds"]:
        alone = dict(doc, seeds=[seed])
        run_experiment(config_from_json(alone), out_dir=str(tmp_path / f"alone_{seed}"))
        name = f"seed_{seed}.csv"
        assert (tmp_path / "together" / name).read_bytes() == \
            (tmp_path / f"alone_{seed}" / name).read_bytes()


def test_cli_seed_override(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config_doc(tmp_path, horizon=5)))
    out = _run_cli(["simulate", "--config", str(path), "--seed-override", "99",
                    "--out", str(tmp_path / "o99")])
    assert out.returncode == 0
    assert (tmp_path / "o99" / "seed_99.csv").exists()


def test_cli_benchmark(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config_doc(tmp_path)))
    out = _run_cli(["benchmark", "--config", str(path)])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["feasible"] is True
    assert doc["p_star"] is not None


def test_cli_verify():
    out = _run_cli(["verify"])
    assert out.returncode == 0, out.stdout + out.stderr
    assert "pass" in out.stdout


def test_summary_median_invariant_to_seed_order(tmp_path):
    doc = _config_doc(tmp_path, horizon=15, seeds=(1, 2, 3))
    doc["instance"]["outcome_kind"] = "bernoulli"
    s_a = run_experiment(config_from_json(doc), out_dir=str(tmp_path / "fwd"))
    doc["seeds"] = [3, 1, 2]
    s_b = run_experiment(config_from_json(doc), out_dir=str(tmp_path / "rev"))
    assert s_a["final_areg1"]["median"] == s_b["final_areg1"]["median"]


def test_bwk_stop_time_at_most_horizon_plus_one(tmp_path):
    doc = {
        "instance": {"d": 2, "m": 2, "outcome_kind": "bernoulli",
                     "mean_matrix": [0.9, 0.3, 0.9, 0.8]},
        "algorithm": {"variant": "ucb_bwk", "budget": 4.0, "eps": 0.0},
        "horizon": 30,
        "seeds": [1, 2, 3, 4],
        "output": {"dir": str(tmp_path / "bwk2")},
    }
    summary = run_experiment(config_from_json(doc))
    for row in summary["per_seed"]:
        assert row["stop_time"] is None or row["stop_time"] <= 31


# Recorded per-seed CSV hashes: every variant at T = 300 on the criterion-7
# instance (d = 3, m = 5; linear or separable objective, target x2 + x3 <= 0.8)
# and the criterion-8 one (25 arms, budget T/4), with the default confidence
# parameter (vacuous intervals, clamped bounds) and with gamma = 0.1 (interior
# bounds); plus two one-constraint step LPs that mix two arms (gamma = 0.5
# and 0.1), three smoothed runs on the criterion-7 instance (fw_primal and
# combined with sigma = 0.1 against the halfspace x1 <= x3), and a contextual
# ucb_bwcr run, whose steps solve the interval
# step on the per-entry intervals of its confidence ellipsoids (generator
# instance n = 2, m = 6, d = 2; linear f, box target).  Refactors of the
# per-step path must keep every byte.  They were
# recorded with numpy 2.4.6 on x86-64 (OpenBLAS); another numpy or BLAS may
# round an inner product differently, which the failure message names.
_TRACE_T = 300
_TRACE_SEEDS = (1, 2)
_C7_INSTANCE = {"d": 3, "m": 5, "outcome_kind": "bernoulli", "mean_matrix": [
    0.85, 0.45, 0.30, 0.20, 0.10, 0.15, 0.60, 0.80, 0.35, 0.50, 0.10, 0.55, 0.25, 0.75, 0.45]}
_C7_LINEAR = {"kind": "linear", "coefficients": [0.9, 0.05, 0.05]}
_C7_SEPARABLE = {"kind": "separable", "terms": [
    {"kind": "log1p", "weight": 1.0},
    {"kind": "quad", "weight": 0.5, "center": 0.4},
    {"kind": "log1p", "weight": 0.5},
]}
_C7_TARGET = {"kind": "halfspaces", "normals": [[0.0, 1.0, 1.0]], "offsets": [0.8]}
_MIXED_BWK_INSTANCE = {"d": 2, "m": 3, "outcome_kind": "bernoulli",
                       "mean_matrix": [0.9, 0.6, 0.2, 0.8, 0.3, 0.0]}
_MIXED_SIGN_LINEAR = {"kind": "linear", "coefficients": [0.9, -0.4, 0.0]}
_MIXED_SIGN_TARGET = {"kind": "halfspaces", "normals": [[1.0, -0.5, 0.0]], "offsets": [0.5]}
_SMOOTH_TARGET = {"kind": "halfspaces", "normals": [[1.0, 0.0, -1.0]], "offsets": [0.0]}


def _c8_instance():
    rng = np.random.default_rng(1234)
    rewards = np.concatenate([[0.9], rng.uniform(0.05, 0.3, 24)])
    cons = np.concatenate([[0.5], np.zeros(24)])
    return {"d": 2, "m": 25, "outcome_kind": "bernoulli",
            "mean_matrix": np.vstack([rewards, cons]).ravel().tolist()}


def _trace_configs():
    def c7(algorithm, objective=_C7_LINEAR, target=True):
        doc = {"instance": _C7_INSTANCE, "algorithm": algorithm}
        if objective is not None:
            doc["objective"] = objective
        if target:
            doc["constraint_set"] = _C7_TARGET
        return doc

    def c8(variant):
        return {"instance": _c8_instance(),
                "algorithm": {"variant": variant, "budget": _TRACE_T / 4.0}}

    # one-constraint step LPs whose optimum mixes two arms on most steps (the
    # configs above play one arm until the budget or the confidence bounds
    # move): a three-arm knapsack with a binding budget, and a linear f with
    # mixed signs and a zero coefficient against a mixed-sign halfspace
    mixed_bwk = {"instance": _MIXED_BWK_INSTANCE,
                 "algorithm": {"variant": "ucb_bwk", "budget": 0.4 * _TRACE_T, "eps": 0.0,
                               "gamma": 0.5}}
    mixed_sign = c7({"variant": "ucb_bwcr", "gamma": 0.5}, objective=_MIXED_SIGN_LINEAR,
                    target=False)
    mixed_sign["constraint_set"] = _MIXED_SIGN_TARGET

    configs = {
        "ucb_bwcr": c7({"variant": "ucb_bwcr"}),
        "ucb_bwk": c8("ucb_bwk"),
        "dual_oco_objective": c7({"variant": "dual_oco"}, target=False),
        "dual_oco_constraint": c7({"variant": "dual_oco"}, objective=None),
        "dual_oco_entropic": c7({"variant": "dual_oco", "oco_kind": "entropic"},
                                objective=_C7_SEPARABLE, target=False),
        "fw_primal": c7({"variant": "fw_primal"}, target=False),
        "fw_primal_separable": c7({"variant": "fw_primal"}, objective=_C7_SEPARABLE,
                                  target=False),
        "fw_bwc": c7({"variant": "fw_bwc"}, objective=None),
        "combined": c7({"variant": "combined"}),
        "combined_primal": c7({"variant": "combined", "theta_update": "primal",
                               "phi_update": "primal"}, objective=_C7_SEPARABLE),
        "combined_entropic": c7({"variant": "combined", "oco_kind": "entropic"},
                                objective=_C7_SEPARABLE),
        "greedy_bwk": c8("greedy_bwk"),
        "ucb_bwk_mixed": mixed_bwk,
        "ucb_bwcr_mixed_sign": mixed_sign,
    }
    for name, doc in list(configs.items()):
        configs[name + "_gamma"] = dict(doc, algorithm=dict(doc["algorithm"], gamma=0.1))
    # the smoothed rules: the Huber-smoothed distance to a halfspace drives
    # fw_primal's gradient and combined's primal_smoothed updates
    smooth_f = {"kind": "neg_distance", "set": _SMOOTH_TARGET}
    configs["fw_primal_smoothed"] = c7(
        {"variant": "fw_primal", "sigma": 0.1, "gamma": 0.1}, objective=smooth_f, target=False)
    both = c7({"variant": "combined", "theta_update": "primal_smoothed",
               "phi_update": "primal_smoothed", "sigma": 0.1, "gamma": 0.1},
              objective=smooth_f, target=False)
    both["constraint_set"] = _SMOOTH_TARGET
    configs["combined_smoothed"] = both
    configs["combined_smoothed_theta"] = dict(both, objective={
        "kind": "neg_distance", "set": {"kind": "box", "lower": [0.0, 0.0, 0.0],
                                        "upper": [0.3, 1.0, 1.0]}},
        algorithm={"variant": "combined", "theta_update": "primal_smoothed",
                   "sigma": 0.1, "gamma": 0.1})
    configs["ucb_bwcr_contextual"] = {
        "instance": {"generator": {"kind": "contextual", "n": 2, "m": 6, "d": 2}},
        "objective": {"kind": "linear", "coefficients": [1.0, 0.5]},
        "constraint_set": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 0.5]},
        "algorithm": {"variant": "ucb_bwcr"}}
    # support LPs with k > 1 halfspaces, warm through the run's workspace:
    # the sensor covering target (constraint only) and a two-row target
    configs["sensor_dual_oco"] = {
        "instance": {"generator": {"kind": "sensor_network", "m": 4, "points": 6}},
        "instance_seed": 3, "algorithm": {"variant": "dual_oco"}}
    two_halfspaces = c7({"variant": "combined"}, target=False)
    two_halfspaces["constraint_set"] = {"kind": "halfspaces",
                                        "normals": [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]],
                                        "offsets": [0.8, 0.9]}
    configs["combined_two_halfspaces"] = two_halfspaces
    # fw_bwc projects its running average onto the two-row target: the
    # multi-halfspace projection inside a decision
    fw_bwc_two = c7({"variant": "fw_bwc"}, objective=None, target=False)
    fw_bwc_two["constraint_set"] = two_halfspaces["constraint_set"]
    configs["fw_bwc_two_halfspaces"] = fw_bwc_two
    for doc in configs.values():
        doc.update(horizon=_TRACE_T, seeds=list(_TRACE_SEEDS))
    return configs


_RECORDED_TRACE_SHA256 = {
    "ucb_bwcr": (
        "aee6f23d09a24c7dfe33612bef2d989a89ce63c7c9a8f4c48aa55d116ae49d1e",
        "eee0f4ea49ac6b821049845f606c6870e15a35e16375eab5ff90c235b5dfe8d0"),
    "ucb_bwk": (
        "a974869e1b9510f275daa54cb80bd85480e1306b55db32eceed2553d87cd7530",
        "de0809eceb54e4b9b010b798a4728d64386cb1bf4abaaf92357178b99d9ffd86"),
    "dual_oco_objective": (
        "33615a9a6519af81ea9f7700174493a326cbee60a32cf17a27900954c74cdb93",
        "ef1f4075b527e0d8aa577178dd75c1df9c17e07f5d896a12db77765efad834fd"),
    "dual_oco_constraint": (
        "d353e07c6608c0186f518440c4574170a23a4dfeb035196507c137977204851e",
        "2b509d37e36b9a1dae348f349a052cccd391b7361cccc47d3eb78c896811c12b"),
    "dual_oco_entropic": (
        "cc5d20108b6f00a7e17bdd98de955e7e71b2e8d1099bee4322785a79f466cabe",
        "c64f05fadd1145d6a4a49103c8f3286001b8cd3a7828b44d3d391543e0897bec"),
    "fw_primal_separable": (
        "b013dfa725e3dc4b4a7ae752d74c1317f0201900afae3c747d3806e2dcfd45e6",
        "4e37b87385b724a23fc09412a765c48a098a24b4d0c4fccf61ab9d28e8c55900"),
    "fw_primal": (
        "568e71ef1499aae3e0bbc7f81390ef8c0f7bb308a2f5aceeed58944b620dbb01",
        "61dddb63f72df6c27c0815dd3557cc30c9cc73df4c7b4040ed5f575733168e8c"),
    "fw_bwc": (
        "1a06982843ef801747c9fe32ebedc31a924586d20967aaed3ffc701a00e1c8cc",
        "d20d83353d5f1e0a23c7e489a2dcc6dd50dd951ebec240fe17b617439dd5a9df"),
    "combined": (
        "15599c9d25ce288ed66310f4bc88dd388c9179e5213531e07c7fac8d20dc0488",
        "54cc3887b3dfebe4951fc191738e8917a478346f8b75181a5e1a99b82e7fe3ec"),
    "combined_primal": (
        "c1624eb6eaccb412cf3d88b098cdecbddb9157c7e7518ed337192af4bd860f10",
        "c2542fd533428abdaa79fbac0aa390715c7a820dbb96a02d8900a50e27a0eddd"),
    "combined_entropic": (
        "1a7075fad6d5a8bdf6316e00052c81cf2d805168e53e75a867d4b28d9fb6ec0a",
        "038ef3f97c99a90df3e3465ab34cf0b9739c9c41814c13c46c7f4fdc6c2b774e"),
    "greedy_bwk": (
        "a974869e1b9510f275daa54cb80bd85480e1306b55db32eceed2553d87cd7530",
        "de0809eceb54e4b9b010b798a4728d64386cb1bf4abaaf92357178b99d9ffd86"),
    "ucb_bwcr_gamma": (
        "8b649bf2b79cc21edcce6b6ef845e6c8f8b86f0f6a0d13c5b5e0a5cb6438461e",
        "8de123c1d3f5bad964a46cf51120b76d79614e59d63f286de88af7b330d7626e"),
    "ucb_bwk_gamma": (
        "2ec62ea5b4efab08009b870de84a0911521748968f616bdeca8a7eac1233e72c",
        "677718e316759b81dcd9c0a00565791c1814646fdc3b5485398a7ee0f02a0634"),
    "dual_oco_objective_gamma": (
        "5188b01d905c59b0264131fd15cf81a113038621698a23f7a4202afaafe0ccc2",
        "1b9202b0ad6f44778c0c625ac8840ff91ec14f5637a1dd05896ba04e3ecda8fb"),
    "dual_oco_constraint_gamma": (
        "6c39a63734d9f61c25c9bd2146d2dfeca023d5a8a45f6a1c29403d7f33091d48",
        "db9704cc9d2491903f9a172524a9a205aa10fadcc9b08bf0c7756780e53ae198"),
    "dual_oco_entropic_gamma": (
        "98d81e0e2a6ee64366a220aaed5380be29fd642cc207c78c89d276fb7506c13c",
        "0e1b846d0b24d426737f8dd21b1bf7f344af7b6052ce6cf9ad9c83b753905096"),
    "fw_primal_separable_gamma": (
        "98d81e0e2a6ee64366a220aaed5380be29fd642cc207c78c89d276fb7506c13c",
        "0e1b846d0b24d426737f8dd21b1bf7f344af7b6052ce6cf9ad9c83b753905096"),
    "fw_primal_gamma": (
        "5188b01d905c59b0264131fd15cf81a113038621698a23f7a4202afaafe0ccc2",
        "1b9202b0ad6f44778c0c625ac8840ff91ec14f5637a1dd05896ba04e3ecda8fb"),
    "fw_bwc_gamma": (
        "75af8eb8dc1102d62940cef8efb1d720426f1c728e54cecbb49210722affa0cc",
        "5a64e9e31431ab057e433e1b3d07d106f6460e401692fc29f9137bffa2d035ff"),
    "combined_gamma": (
        "8b649bf2b79cc21edcce6b6ef845e6c8f8b86f0f6a0d13c5b5e0a5cb6438461e",
        "8de123c1d3f5bad964a46cf51120b76d79614e59d63f286de88af7b330d7626e"),
    "combined_primal_gamma": (
        "27e2f79b594883499257e75440ace35f7110b82576729f6ffbbed136b986b936",
        "ee508059ab4d93491a2e849d3af4a5f411c3018f04c0caeb6f45e90fa0ca288d"),
    "combined_entropic_gamma": (
        "27e2f79b594883499257e75440ace35f7110b82576729f6ffbbed136b986b936",
        "ee508059ab4d93491a2e849d3af4a5f411c3018f04c0caeb6f45e90fa0ca288d"),
    "greedy_bwk_gamma": (
        "a43b58c42d8c612980701409102586ade9a9108c705e924bcbbcd5c99bc37791",
        "00514e793e896932ab6d2e9dfcc61a3f1c34de6c78ba4009231a58a264457f4e"),
    "ucb_bwk_mixed": (
        "52ae84cef8a637f37b9f33c3ef7fb0a9a4379714b91c7f4372de9c9af31ef06e",
        "5745c7598ce9213f597bde67081f1a1e34400a8e2028ac176f70f52565265ed5"),
    "ucb_bwcr_mixed_sign": (
        "87f50899313533f3f82fcf2b4bff92e5733ae2138349cfd90053966f2f9105db",
        "3f1c68b88e4d56740a2bf3fbe06ba3f916e9590797a0385fcb806073aee6da4d"),
    "ucb_bwk_mixed_gamma": (
        "509a27aacadbafe90f9ffff5c3c4ca5bfc6cf4c70d8717514184eab7275bda35",
        "0657ad8d2d4adc5d01f6a7a3f8cff05c4f8357bdf30b86d4240e11ffe9ab6ed9"),
    "ucb_bwcr_mixed_sign_gamma": (
        "d74133d6e5e567a94fc0c7ed742e4cb3b715e6fff1f7122cb1fe455912239b0d",
        "f71e7fa71aecf608c8d7015d0204554c1bea9ab1eb4a1bb38a789d7e3332d664"),
    "ucb_bwcr_contextual": (
        "1c1dcf376bd4efcdb2289be323d764990f1e3a6e2289fbf1c65a9dc55279be3d",
        "dfc003209b9fb8ff5478e5b55dd70e45d1381bd46aacf0b76f08fca30c76c1a7"),
    "fw_primal_smoothed": (
        "6cbf22334e2c1c94dd074a32fb33f91232fe8060166fa3911e5485648ff7c6c8",
        "d3c796210121d1468a518409021836be4e75ccd593ab9014f83e2b92c3663da7"),
    "combined_smoothed": (
        "7bb401bef09aff5a9d542acc74364444064bb49266001e4bda162041b08e7449",
        "342ad55366f38cc2e7a7d4c4108b42b7268480a6654d2c059ca05eedf554dba8"),
    "combined_smoothed_theta": (
        "2faa325b9892d815a95e870bde2b01b1424d89308b182b50bef3c857990116ba",
        "d07603ce82e2d6b0586acd7391c5ef86bf210755bc8d6d2fa0eb396e5b5d620a"),
    "sensor_dual_oco": (
        "fd916d43729c2d09ac162c4a61c09db1b5487c2a3f54ae69f19704c9c2334eaf",
        "be3a1e7c6f11df6d8a14f697d08a31ee1acfec5071a8232614f128977e8531ee"),
    "combined_two_halfspaces": (
        "d2889b55aad5f9147c35c09e2dfb86f01af2cae2f3b37d9f56c74fb7d5f0f7d0",
        "765fc68aaa6aea71397d945655a3364f75ef14e59de6b6cadfc847e320e02a4e"),
    "fw_bwc_two_halfspaces": (
        "f43f82b09145892dc4e3bc6ded23da6b4e7d7d54eb0dce0f64484478fcf1734b",
        "002789dfe58b61767072e2042b853497553b4f864dc566b34455c79e5d1db9bb"),
}


def test_recorded_trace_hashes(tmp_path):
    configs = _trace_configs()
    assert sorted(configs) == sorted(_RECORDED_TRACE_SHA256)
    mismatched = []
    for name, doc in configs.items():
        run_experiment(config_from_json(doc), out_dir=str(tmp_path / name))
        for seed, recorded in zip(_TRACE_SEEDS, _RECORDED_TRACE_SHA256[name]):
            digest = hashlib.sha256((tmp_path / name / f"seed_{seed}.csv").read_bytes())
            if digest.hexdigest() != recorded:
                mismatched.append(f"{name}/seed_{seed}")
    assert not mismatched, (f"per-seed CSVs differ from the recorded hashes (recorded "
                            f"with numpy 2.4.6; this is numpy {np.__version__}): {mismatched}")

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
    # one warm-started step LP per step; only the first is solved cold
    assert per_seed["lp_solves"] == 10
    assert 0 <= per_seed["lp_certified"] <= 9 and per_seed["lp_pivots"] > 0
    assert "infeasible" not in lines[0] and "lp_" not in lines[0]
    doc = _config_doc(tmp_path, horizon=10, seeds=(1,))
    doc["algorithm"] = {"variant": "dual_oco"}
    doc.pop("constraint_set")
    per_seed = run_experiment(config_from_json(doc))["per_seed"][0]
    assert per_seed["infeasible_steps"] is None
    # the linear objective's conjugate argmax is closed-form: no LP solved
    assert (per_seed["lp_solves"], per_seed["lp_certified"], per_seed["lp_pivots"]) == (0, 0, 0)
    doc["algorithm"] = {"variant": "fw_primal"}
    per_seed = run_experiment(config_from_json(doc))["per_seed"][0]
    assert (per_seed["lp_solves"], per_seed["lp_certified"], per_seed["lp_pivots"]) == \
        (None, None, None)
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


def _seed_isolation_doc(variant):
    if variant == "ucb_bwk":
        return {"instance": {"generator": {"kind": "bwk", "m": 5, "resources": 2,
                                           "budget": 100.0}},
                "algorithm": {"variant": variant, "budget": 100.0},
                "horizon": 400, "seeds": [1, 2, 3]}
    doc = {"instance": {"generator": {"kind": "sensor_network", "m": 4, "points": 6}},
           "instance_seed": 3, "algorithm": {"variant": variant},
           "horizon": 400, "seeds": [1, 2, 3]}
    if variant == "combined":
        doc["objective"] = {"kind": "linear", "coefficients": [0.4, 0.3, 0.2, 0.1]}
    return doc


@pytest.mark.parametrize("variant", ["dual_oco", "combined", "ucb_bwcr", "ucb_bwk"])
def test_seed_runs_share_no_warm_state(tmp_path, variant):
    # every step solves an LP warm from the run's last basis: the support LP
    # of the sensor target, which has several halfspaces, or the step LP
    # (for ucb_bwcr with the zero objective every feasible basis is optimal,
    # so its plays follow the warm state closely); that state and the LP's
    # workspace must stay with one run, as every seed of an experiment shares
    # the instance and the target object
    doc = _seed_isolation_doc(variant)
    _, _, target, _ = resolve_instance(config_from_json(doc))
    if variant != "ucb_bwk":
        assert isinstance(target, Halfspaces) and target.k > 1
    summary = run_experiment(config_from_json(doc), out_dir=str(tmp_path / "together"))
    assert all(r["lp_solves"] > 0 for r in summary["per_seed"])
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

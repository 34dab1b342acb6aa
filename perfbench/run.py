"""bwcr benchmark: run one workload through ``harness.run_experiment``.

    python3 perfbench/run.py --workload lp_warm --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's configs (one ``run_experiment`` call per
config) in this single process, with BLAS pinned to one thread, for about
``--seconds`` seconds (at least one round), then checks every output against
independent references.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs one untraced round and then traced rounds, and reports the
per-layer metrics and the tracing overhead.  The last line of standard output
is one JSON object; the lines before it are the human-readable report,
including the SHA-256 of every per-seed CSV.
"""
import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

# one BLAS thread; must be set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


class RunClock:
    """Stands in for ``harness.run_single``: records when an experiment's
    first run starts, the time spent in runs and the steps they executed."""

    def __init__(self, harness):
        self.run_single = harness.run_single
        harness.run_single = self
        self.on_first_run = None
        self.begin()

    def begin(self):
        """Start timing one run_experiment call."""
        self.first_start = None
        self.run_s = 0.0
        self.steps = 0

    def __call__(self, *args, **kwargs):
        start = time.perf_counter()
        if self.first_start is None:
            self.first_start = start
            if self.on_first_run is not None:
                self.on_first_run()
        history = self.run_single(*args, **kwargs)
        self.run_s += time.perf_counter() - start
        self.steps += int(history.steps)
        return history


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_round(harness, configs, out_root, clock, tracer):
    """One run_experiment call per config; returns the round's timings."""
    rnd = {"setup_s": 0.0, "experiment_s": 0.0, "run_s": 0.0, "steps": 0,
           "hashes": {}, "errors": {}}
    for name, doc, cfg in configs:
        out_dir = out_root / name
        clock.begin()
        if tracer is not None:
            tracer.begin_experiment()
        start = time.perf_counter()
        try:
            harness.run_experiment(cfg, out_dir=str(out_dir))
        except Exception:  # noqa: BLE001 - a failed operation is reported, not fatal
            rnd["errors"][name] = traceback.format_exc()
            continue
        rnd["experiment_s"] += time.perf_counter() - start
        rnd["setup_s"] += clock.first_start - start
        rnd["run_s"] += clock.run_s
        rnd["steps"] += clock.steps
        for seed in cfg.seeds:
            rnd["hashes"][(name, seed)] = sha256(out_dir / f"seed_{seed}.csv")
    return rnd


def run_rounds(harness, configs, out_root, clock, tracer, loop_start, limit):
    """Whole rounds, at least one, while the next one is expected to end
    within ``limit`` seconds of ``loop_start``."""
    out = []
    while True:
        start = time.perf_counter()
        out.append(run_round(harness, configs, out_root, clock, tracer))
        now = time.perf_counter()
        if now - loop_start + (now - start) > limit:
            return out


def build_case(checks, harness, name, doc, cfg, out_dir):
    """The reference data of one config, read from its document (or, for a
    generated instance, from the generator) and its output files."""
    if cfg.instance is not None:
        means = cfg.instance.mean_matrix
        target = checks.target_from_doc(doc.get("constraint_set"), means.shape[0])
    else:
        params = dict(cfg.generator.params, horizon=cfg.horizon)
        instance, _, cset = harness.generate_instance(
            harness.GeneratorSpec(cfg.generator.kind, params), cfg.instance_seed)
        means = instance.mean_matrix
        target = checks.target_from_doc(cset.to_json(), means.shape[0])
    bwk = doc["algorithm"]["variant"] in ("ucb_bwk", "greedy_bwk")
    return checks.load_case(name, out_dir, means, cfg.horizon, cfg.seeds,
                            doc.get("objective"), None if bwk else target,
                            doc["algorithm"]["budget"] if bwk else None)


def main() -> int:
    sys.path.insert(0, str(HERE))
    import workloads
    from tracer import Tracer

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "bwcr" / "__init__.py").is_file():
        print(f"bwcr sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bwcr
    import bwcr.harness as harness
    if SRC not in Path(bwcr.__file__).resolve().parents:
        print(f"imported bwcr from {bwcr.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    configs = [(name, doc, harness.config_from_json(doc))
               for name, doc in workloads.build(args.workload, args.seed)]
    startup_s = time.perf_counter() - START  # imports and config parsing
    out_root = OUT / args.workload
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)

    # a traced run spends the first half of its time untraced, for the overhead
    clock = RunClock(harness)
    loop_start = time.perf_counter()
    rounds = run_rounds(harness, configs, out_root, clock, None, loop_start,
                        args.seconds / 2.0 if args.trace else args.seconds)
    tracer, traced = None, []
    if args.trace:
        tracer = Tracer()
        tracer.install()
        clock.on_first_run = tracer.begin_run
        traced = run_rounds(harness, configs, out_root, clock, tracer, loop_start, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    import checks  # loads scipy, so only after peak memory is read
    results, self_tests = [], []
    all_rounds = rounds + traced
    seeds_per_round = sum(len(cfg.seeds) for _, _, cfg in configs)
    failed = sum(len(cfg.seeds) for rnd in all_rounds for name, _, cfg in configs
                 if name in rnd["errors"])
    total_rows = 0
    for name, doc, cfg in configs:
        if any(name in rnd["errors"] for rnd in all_rounds):
            continue
        case = build_case(checks, harness, name, doc, cfg, out_root / name)
        total_rows += sum(tab.t.shape[0] for tab in case.tables.values())
        for check, seed, ok, detail in checks.case_checks(case):
            results.append((name, check, seed, ok, detail))
        for seed in cfg.seeds:
            same = len({rnd["hashes"][(name, seed)] for rnd in all_rounds}) == 1
            results.append((name, "repeat", seed, same,
                            f"CSV identical in all {len(all_rounds)} rounds" if same
                            else "CSV bytes differ between rounds"))
        text = (out_root / name / f"seed_{cfg.seeds[0]}.csv").read_text()
        self_tests += [(name, *t) for t in checks.self_test(case, text)]

    metrics = {}
    if tracer is None:
        metrics["setup_s"] = (startup_s + rounds[0]["setup_s"], "s")
        metrics["steps_per_s"] = (median(r["steps"] / r["run_s"] for r in rounds), "steps/s")
        metrics["experiment_s"] = (median(r["experiment_s"] for r in rounds), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MiB")
    else:
        # traced rounds repeat the same seeds, so counts per round are whole
        n = len(traced)
        for name in tracer.calls:
            metrics[f"{name}.calls"] = (tracer.calls[name] // n, "count")
            metrics[f"{name}.self_s"] = (tracer.self_s[name] / n, "s")
        metrics["lp.solve_dense_lp.warm_calls"] = (tracer.lp_warm // n, "count")
        metrics["trace.overhead_ratio"] = (
            median(r["experiment_s"] for r in traced) / median(r["experiment_s"] for r in rounds),
            "ratio")
        draws = tracer.calls["core.draw_arm"]
        results.append(("trace", "draw_arm_calls", None, draws == n * total_rows,
                        f"core.draw_arm calls {draws} vs CSV rows {n} x {total_rows}"))
        if args.workload == "first_order":
            lp_calls = tracer.calls["lp.solve_dense_lp"]
            results.append(("trace", "lp_setup_only", None,
                            lp_calls > 0 and tracer.lp_outside_setup == 0,
                            f"{lp_calls} LP calls, {tracer.lp_outside_setup} after set-up"))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  rounds {len(rounds)} untraced + {len(traced)} traced")
    for label, rnds in (("untraced", rounds), ("traced", traced)):
        if rnds:
            print(f"{label} rounds: experiment_s "
                  + " ".join(f"{r['experiment_s']:.3f}" for r in rnds) + "; steps/s "
                  + " ".join(f"{r['steps'] / r['run_s']:.0f}" for r in rnds))
    for name, doc, cfg in configs:
        print(f"config {name}: {doc['algorithm']['variant']} T={cfg.horizon} seeds {cfg.seeds}")
        for seed in cfg.seeds:
            digest = all_rounds[-1]["hashes"].get((name, seed), "n/a (run failed)")
            print(f"  sha256 {name}/seed_{seed}.csv {digest}")
    for rnd in all_rounds:
        for name, tb in rnd["errors"].items():
            print(f"FAILED {name}:\n{tb}")
    for name, check, seed, ok, detail in results:
        where = name if seed is None else f"{name} seed {seed}"
        print(f"check {'ok  ' if ok else 'FAIL'} {check:15s} {where}: {detail}")
    caught = sum(1 for *_, c in self_tests if c)
    print(f"self-test: {caught}/{len(self_tests)} corruptions caught")
    for name, check, what, c in self_tests:
        if not c:
            print(f"self-test MISSED {check} on {name}: {what}")
    for key, (value, unit) in metrics.items():
        print(f"metric {key} = {value:.6g} {unit}")

    correct = all(ok for *_, ok, _ in results) and caught == len(self_tests)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(all_rounds) * seeds_per_round,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

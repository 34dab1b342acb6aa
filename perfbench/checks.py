"""Output checks against independent references and properties.

Nothing here calls a bwcr oracle: objectives, distances and optima are
recomputed from the config data with numpy and scipy (``linprog`` for linear
programs, SLSQP for the concave and multi-halfspace cases).  Each check
returns ``(ok, detail)``; :func:`self_test` corrupts a CSV or perturbs the
optimum once per check and confirms that the check then fails.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.optimize import linprog, minimize

OPT_TOL = 1e-9        # LP optima and the SLSQP optimum of the separable case
FEAS_TOL = 1e-6       # V p* in S; the program's grid uses a 1e-6 distance
AREG1_TOL = 1e-9      # same averages, objective formula evaluated independently
AREG2_TOL = 1e-6      # the program's Dykstra stops at about 1e-8
SAMPLED_ROWS = 25     # multi-halfspace rows checked by an SLSQP projection


@dataclass
class Target:
    """{x : lower <= x <= upper, normals x <= offsets} in plain arrays."""

    lower: np.ndarray
    upper: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray

    def violation(self, x: np.ndarray) -> float:
        """Largest violation of a bound or a halfspace, scaled to a distance."""
        rows = (self.normals @ x - self.offsets) / np.linalg.norm(self.normals, axis=1) \
            if self.offsets.size else np.zeros(1)
        return float(max(np.max(self.lower - x), np.max(x - self.upper), np.max(rows), 0.0))


@dataclass
class Table:
    """One parsed seed CSV."""

    t: np.ndarray
    arm: np.ndarray
    v: np.ndarray
    areg1: np.ndarray
    areg2: np.ndarray
    reward_bwk: Optional[np.ndarray]
    stopped: np.ndarray


@dataclass
class Case:
    """Everything the checks need about one config's outputs."""

    name: str
    means: np.ndarray                  # d x m
    horizon: int
    seeds: list
    objective: Optional[dict]          # objective document, None for constraint-only
    target: Optional[Target]
    budget: Optional[float]            # budgeted (BwK) runs
    summary: dict
    tables: dict = field(default_factory=dict)   # seed -> Table


def parse_csv(text: str) -> Table:
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    cols = list(zip(*rows)) if rows else [() for _ in header]

    def num(name, dtype=float):
        if name not in header:
            return None
        raw = cols[header.index(name)]
        return np.array([float(x) if x != "" else np.nan for x in raw], dtype=float).astype(dtype)

    d = sum(1 for c in header if c.startswith("v_"))
    v = np.stack([num(f"v_{j + 1}") for j in range(d)], axis=1) if rows else np.zeros((0, d))
    return Table(t=num("t", np.int64), arm=num("arm", np.int64), v=v,
                 areg1=num("areg1"), areg2=num("areg2"), reward_bwk=num("reward_bwk"),
                 stopped=num("stopped", np.int64))


def load_case(name: str, out_dir: Path, means, horizon, seeds, objective, target,
              budget) -> Case:
    case = Case(name=name, means=np.asarray(means, dtype=float), horizon=horizon,
                seeds=list(seeds), objective=objective, target=target, budget=budget,
                summary=json.loads((out_dir / "summary.json").read_text()))
    for seed in seeds:
        case.tables[seed] = parse_csv((out_dir / f"seed_{seed}.csv").read_text())
    return case


def target_from_doc(doc: Optional[dict], d: int) -> Optional[Target]:
    if doc is None:
        return None
    if doc["kind"] == "box":
        return Target(np.asarray(doc["lower"], float), np.asarray(doc["upper"], float),
                      np.zeros((0, d)), np.zeros(0))
    if doc["kind"] == "halfspaces":
        upper = np.ones(d) if doc.get("upper") is None else np.asarray(doc["upper"], float)
        return Target(np.zeros(d), upper, np.atleast_2d(np.asarray(doc["normals"], float)),
                      np.atleast_1d(np.asarray(doc["offsets"], float)))
    raise ValueError(f"no reference for target kind {doc['kind']!r}")


# ---------------------------------------------------------------------------
# independent references


def objective_values(doc: dict, xs: np.ndarray) -> np.ndarray:
    """f(x) for each row of xs, from the objective document's formulas."""
    if doc["kind"] == "linear":
        return xs @ np.asarray(doc["coefficients"], dtype=float)
    if doc["kind"] != "separable":
        raise ValueError(f"no reference for objective kind {doc['kind']!r}")
    total = np.zeros(xs.shape[0])
    for j, term in enumerate(doc["terms"]):
        w, a, x = float(term.get("weight", 1.0)), float(term.get("center", 0.5)), xs[:, j]
        if term["kind"] == "sqrt":
            total += w * np.sqrt(x)
        elif term["kind"] == "log1p":
            total += w * np.log1p(x)
        else:
            total += w * (1.0 - (x - a) ** 2)
    return total


def _bwk_trace_target(case: Case) -> Target:
    ratio = min(case.budget / case.horizon, 1.0)
    k = case.means.shape[0] - 1
    return Target(np.zeros(k), np.full(k, ratio), np.zeros((0, k)), np.zeros(0))


def distances(target: Target, xs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Euclidean distance from xs[rows] to the target.

    Boxes clip; one halfspace inside a box projects to clip(x - lam a) with
    the multiplier lam >= 0 found by bisection (the constraint value is
    monotone in lam); several halfspaces go through SLSQP.
    """
    x = xs[rows]
    if target.offsets.size == 0:
        return np.linalg.norm(x - np.clip(x, target.lower, target.upper), axis=1)
    if target.offsets.size == 1:
        a, b = target.normals[0], target.offsets[0]
        proj = lambda lam: np.clip(x - lam[:, None] * a, target.lower, target.upper)
        lo = np.zeros(x.shape[0])
        hi = np.ones(x.shape[0])
        for _ in range(100):
            if not np.any(proj(hi) @ a > b):
                break
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            over = proj(mid) @ a > b
            lo = np.where(over, mid, lo)
            hi = np.where(over, hi, mid)
        inside = proj(np.zeros(x.shape[0])) @ a <= b
        y = np.where(inside[:, None], proj(np.zeros(x.shape[0])), proj(hi))
        return np.linalg.norm(x - y, axis=1)
    out = np.empty(x.shape[0])
    cons = [{"type": "ineq", "fun": lambda y: target.offsets - target.normals @ y,
             "jac": lambda y: -target.normals}]
    bounds = list(zip(target.lower, target.upper))
    for i, xi in enumerate(x):
        if target.violation(xi) <= 0.0:
            out[i] = 0.0
            continue
        res = minimize(lambda y: 0.5 * float((y - xi) @ (y - xi)),
                       np.clip(xi, target.lower, target.upper), jac=lambda y: y - xi,
                       method="SLSQP", bounds=bounds, constraints=cons,
                       options={"ftol": 1e-15, "maxiter": 1000})
        out[i] = float(np.linalg.norm(res.x - xi))
    return out


def _simplex_program(case: Case):
    """(A_ub, b_ub) of V p in S over the simplex, or of C p <= B/T for BwK."""
    v = case.means
    if case.budget is not None:
        return v[1:], np.full(v.shape[0] - 1, case.budget / case.horizon)
    t = case.target
    if t is None:
        return None, None
    a_ub = np.vstack([t.normals @ v, v, -v])
    b_ub = np.concatenate([t.offsets, t.upper, -t.lower])
    return a_ub, b_ub


def reference_optimum(case: Case):
    """(feasible, optimum value or None) from scipy."""
    m = case.means.shape[1]
    a_ub, b_ub = _simplex_program(case)
    if case.budget is not None:
        c = case.means[0]
    elif case.objective is None:
        c = np.zeros(m)
    elif case.objective["kind"] == "linear":
        c = case.means.T @ np.asarray(case.objective["coefficients"], float)
    else:
        return True, _slsqp_optimum(case, a_ub, b_ub)
    res = linprog(-c, A_ub=a_ub, b_ub=b_ub, A_eq=np.ones((1, m)), b_eq=[1.0],
                  bounds=[(0, None)] * m, method="highs")
    if res.status == 2:
        return False, None
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    return True, (None if case.objective is None and case.budget is None else -res.fun)


def _slsqp_optimum(case: Case, a_ub, b_ub) -> float:
    """Multi-start SLSQP for a concave objective over {p in simplex, V p in S}."""
    v, m = case.means, case.means.shape[1]
    f = lambda p: -float(objective_values(case.objective, (v @ p)[None, :])[0])
    cons = [{"type": "eq", "fun": lambda p: p.sum() - 1.0}]
    if a_ub is not None:
        cons.append({"type": "ineq", "fun": lambda p: b_ub - a_ub @ p})
    rng = np.random.default_rng(0)
    starts = [np.full(m, 1.0 / m)] + list(np.eye(m)) + list(rng.dirichlet(np.ones(m), 10))
    best = -np.inf
    for p0 in starts:
        res = minimize(f, p0, method="SLSQP", bounds=[(0.0, 1.0)] * m, constraints=cons,
                       options={"ftol": 1e-15, "maxiter": 1000})
        p = res.x
        feasible = abs(p.sum() - 1.0) <= 1e-9 and (a_ub is None or np.all(a_ub @ p <= b_ub + 1e-9))
        if res.success and feasible:
            best = max(best, -res.fun)
    if not np.isfinite(best):
        raise RuntimeError("SLSQP found no feasible start")
    return best


# ---------------------------------------------------------------------------
# the checks


def check_optimum(case: Case):
    bench = case.summary["benchmark"]
    feasible, ref = reference_optimum(case)
    if bool(bench["feasible"]) != feasible:
        return False, f"feasible={bench['feasible']} but the reference says {feasible}"
    if ref is None:
        return True, f"feasible={feasible} agrees with linprog"
    got = bench["opt_value"]
    ok = got is not None and abs(got - ref) <= OPT_TOL
    return ok, f"opt {got!r} vs reference {ref!r} (|diff| <= {OPT_TOL:g})"


def check_p_star(case: Case):
    p = case.summary["benchmark"]["p_star"]
    if p is None:
        return False, "no p* reported"
    p = np.asarray(p, dtype=float)
    if p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-9:
        return False, f"p* off the simplex: min {p.min():.3g}, sum {p.sum():.17g}"
    if case.budget is not None:
        viol = float(np.max(case.means[1:] @ p) - case.budget / case.horizon)
    else:
        viol = 0.0 if case.target is None else case.target.violation(case.means @ p)
    return viol <= FEAS_TOL, f"p* on the simplex; V p* violates the target by {max(viol, 0.0):.2e}"


def check_rows(case: Case, seed: int):
    tab = case.tables[seed]
    n = tab.t.shape[0]
    per_seed = {r["seed"]: r for r in case.summary["per_seed"]}[seed]
    stopped = per_seed["stop_time"] is not None
    problems = []
    if not np.array_equal(tab.t, np.arange(1, n + 1)):
        problems.append("t is not 1..n")
    if n != per_seed["steps"] or (not stopped and n != case.horizon) or n > case.horizon:
        problems.append(f"{n} rows for {per_seed['steps']} steps, horizon {case.horizon}")
    m = case.means.shape[1]
    if n and (tab.arm.min() < 0 or tab.arm.max() >= m):
        problems.append(f"arm outside [0, {m})")
    if not np.all((tab.v == 0.0) | (tab.v == 1.0)):
        problems.append("a Bernoulli observation is not 0 or 1")
    flags = np.zeros(n, dtype=np.int64)
    if stopped and n:
        flags[-1] = 1
    if not np.array_equal(tab.stopped, flags):
        problems.append("stopped column disagrees with stop_time")
    return not problems, "; ".join(problems) or f"{n} rows, arms in range"


def check_areg(case: Case, seed: int):
    tab = case.tables[seed]
    n = tab.t.shape[0]
    avg = np.cumsum(tab.v, axis=0) / np.arange(1, n + 1)[:, None]
    opt = case.summary["benchmark"]["opt_value"]
    if case.budget is not None:
        f_doc = {"kind": "linear", "coefficients": [1.0] + [0.0] * (avg.shape[1] - 1)}
        target, xs = _bwk_trace_target(case), avg[:, 1:]
    else:
        f_doc, target, xs = case.objective, case.target, avg
    problems = []
    if f_doc is not None and opt is not None:
        err1 = float(np.max(np.abs(opt - objective_values(f_doc, avg) - tab.areg1)))
        if not err1 <= AREG1_TOL:
            problems.append(f"areg1 off by {err1:.2e}")
    elif not np.all(np.isnan(tab.areg1)):
        problems.append("areg1 present without an objective")
    checked = "all"
    if target is not None:
        rows = np.arange(n)
        if target.offsets.size > 1:
            rows = np.unique(np.linspace(0, n - 1, SAMPLED_ROWS).astype(int))
            checked = f"{rows.size} sampled"
        err2 = float(np.max(np.abs(distances(target, xs, rows) - tab.areg2[rows])))
        if not err2 <= AREG2_TOL:
            problems.append(f"areg2 off by {err2:.2e} ({checked} rows)")
    elif not np.all(np.isnan(tab.areg2)):
        problems.append("areg2 present without a target")
    return not problems, "; ".join(problems) or f"areg1/areg2 recomputed ({checked} rows)"


def check_budget(case: Case, seed: int):
    tab = case.tables[seed]
    used = tab.v[:, 1:].sum(axis=0)
    if np.any(used > case.budget + 1.0):
        return False, f"consumption {used.max():g} > B + 1 = {case.budget + 1.0:g}"
    if tab.reward_bwk is None or not np.array_equal(tab.reward_bwk, np.cumsum(tab.v[:, 0])):
        return False, "reward_bwk is not the running sum of v_1"
    return True, f"consumption {used.max():g} <= B + 1; reward_bwk = cumsum(v_1)"


def case_checks(case: Case):
    """[(check name, seed or None, ok, detail)] for every check of a config."""
    out = [("optimum", None, *check_optimum(case)), ("p_star", None, *check_p_star(case))]
    for seed in case.seeds:
        out.append(("rows", seed, *check_rows(case, seed)))
        out.append(("areg", seed, *check_areg(case, seed)))
        if case.budget is not None:
            out.append(("budget", seed, *check_budget(case, seed)))
    return out


# ---------------------------------------------------------------------------
# self-test: every check must catch a corruption aimed at it


def _edit_csv(text: str, edit) -> Table:
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    edit(header, lines)
    return parse_csv("\n".join(lines) + "\n")


def _set_cell(col, row_index, fn):
    def edit(header, lines):
        cells = lines[row_index].split(",")
        j = header.index(col)
        cells[j] = fn(cells[j])
        lines[row_index] = ",".join(cells)
    return edit


def _consume_everything(header, lines):
    cols = [j for j, c in enumerate(header) if c.startswith("v_")][1:]
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        for j in cols:
            cells[j] = "1"
        lines[i] = ",".join(cells)


def _corruptions(case: Case, text: str):
    """(check name, description, corrupted case)."""
    seed = case.seeds[0]
    bench = case.summary["benchmark"]
    m = case.means.shape[1]

    def with_table(table):
        return replace(case, tables={**case.tables, seed: table})

    def with_bench(**changes):
        return replace(case, summary={**case.summary, "benchmark": {**bench, **changes}})

    out = []
    if bench["opt_value"] is not None:
        out.append(("optimum", "opt_value + 1e-6",
                    with_bench(opt_value=bench["opt_value"] + 1e-6)))
    else:
        out.append(("optimum", "feasible flipped", with_bench(feasible=not bench["feasible"])))
    p = np.asarray(bench["p_star"], dtype=float)
    out.append(("p_star", "p* scaled by 1.001", with_bench(p_star=(p * 1.001).tolist())))
    a_ub, b_ub = _simplex_program(case)
    if a_ub is not None:
        worst = int(np.argmax(np.max(a_ub - b_ub[:, None], axis=0)))
        if np.max(a_ub[:, worst] - b_ub) > FEAS_TOL:
            out.append(("p_star", f"p* moved to infeasible arm {worst}",
                        with_bench(p_star=np.eye(m)[worst].tolist())))
    out.append(("rows", "last row dropped",
                with_table(_edit_csv(text, lambda h, lines: lines.pop()))))
    out.append(("rows", "arm set to m",
                with_table(_edit_csv(text, _set_cell("arm", 1, lambda _: str(m))))))
    bump = lambda x: repr(float(x) + 1e-4)
    if bench["opt_value"] is not None:
        out.append(("areg", "areg1 of the last row + 1e-4",
                    with_table(_edit_csv(text, _set_cell("areg1", -1, bump)))))
    if case.target is not None or case.budget is not None:
        out.append(("areg", "areg2 of the last row + 1e-4",
                    with_table(_edit_csv(text, _set_cell("areg2", -1, bump)))))
    if case.budget is not None:
        out.append(("budget", "reward_bwk of the last row + 1",
                    with_table(_edit_csv(text, _set_cell("reward_bwk", -1,
                                                         lambda x: repr(float(x) + 1.0))))))
        if case.tables[seed].t.shape[0] > case.budget + 1.0:
            out.append(("budget", "every step consumes 1",
                        with_table(_edit_csv(text, _consume_everything))))
    return out


CHECKS = {"optimum": lambda c, s: check_optimum(c), "p_star": lambda c, s: check_p_star(c),
          "rows": check_rows, "areg": check_areg, "budget": check_budget}


def self_test(case: Case, csv_text: str):
    """[(check name, corruption, caught)] for the config's first seed."""
    seed = case.seeds[0]
    return [(check, what, not CHECKS[check](bad, seed)[0])
            for check, what, bad in _corruptions(case, csv_text)]

"""Per-step optimization machinery shared by the bandit algorithms.

Three pieces live here:

* :func:`solve_lp` - the budgeted simplex LP  max r.p  s.t.  C p <= cap 1,
  p in the simplex (the knapsack step), on top of the dense tableau solver.
  It takes the arrays and the cap as they are and returns a
  :class:`StepResult`.  LPs with one constraint row certify a warm basis in
  scalar floats first (:func:`_certify_pair`).  The linear step below over
  one unclipped halfspace is this LP too, and is solved by it.
* :func:`solve_ucb_step` - the optimistic step: maximize
  psi(p) = max over confidence region of f(V~ p)  subject to the region
  touching the target set.  Every region is an interval region (a
  :class:`~bwcr.confidence.Hypercube`), whose achievable set for fixed p is
  the box [L p, U p], so the step is a concave program in (p, z) over a
  polytope: one LP for a linear f, Kelley's cutting planes on that LP
  otherwise, both with a certified gap.
* OGD and entropic-mirror OCO steps used by the dual algorithms.

Contextual instances (arXiv 1402.5758, linear-contextual extension) differ
only in the confidence region: per component j the means are
x_{j,i} . w_j with w_j in an ellipsoid around the least-squares center c_j,
so for fixed p the exact achievable interval is  u . c_j -+ r ||u||_{G_j^-1}
with u = sum_i p_i x_{j,i}.  The step relaxes it to the per-entry intervals
x_{j,i} . c_j -+ r ||x_{j,i}||_{G_j^-1}
(:meth:`~bwcr.confidence.EllipsoidState.hypercube`), each clipped to [0, 1],
the range of every mean.  By the triangle inequality
||u|| <= sum_i p_i ||x_{j,i}||, so the box [L p, U p] contains V~ p for every
V~ whose rows the ellipsoids allow and whose entries lie in [0, 1], as the
true means do: the region still holds V whenever the ellipsoids hold the
true weights, and optimism is kept.  The price is the width played: the
optimistic value exceeds the true one by at most 2 r E_{a~p} ||x_a||_{G^-1}
per component, the expected width of the arm drawn, where the exact region
pays 2 r ||E_{a~p} x_a||_{G^-1}.  Summed over the rounds, the played arms'
widths ||x_{a_t}||_{G_t^-1} are bounded by the elliptical-potential lemma
(Abbasi-Yadkori, Pal & Szepesvari 2011): sum_t min(1, ||x_{a_t}||^2) <=
2 n log(1 + T / n), hence sum_t ||x_{a_t}|| = O(sqrt(n T log T)) by
Cauchy-Schwarz, and the expectation over a_t ~ p_t adds a martingale term
of order sqrt(T).  So the relaxation keeps the sqrt(T) order of the paper's
contextual bound, with other constants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .confidence import Hypercube
from .core import PolicyDistribution
from .errors import ConfigError, SolverLimitError, UnsupportedError
from .geometry import Box, ConvexSet, Halfspaces, VPolytope, project_l2_ball
from .lp import _FEAS_TOL, _TOL, solve_dense_lp
from .objective import LinearObjective, Objective


@dataclass
class StepResult:
    feasible: bool
    policy: Optional[PolicyDistribution]
    objective: float
    x: Optional[np.ndarray]                 # region point achieving the objective
    gap: float = math.nan                   # certified LP bound - objective; nan if infeasible
    rounds: int = 0                         # LP solves of the step
    basis: Optional[list] = None            # warm basis (linear objective)


def _simplex_point(x: np.ndarray) -> np.ndarray:
    p = np.maximum(x, 0.0)
    return p / p.sum()


def _certify_pair(r: list, a: list, cap: float, u: int, v: int):
    """Scalar warm certify of  max r.p  s.t.  a.p <= cap, p in the simplex.

    ``u`` and ``v`` are the previous basis's two columns: arms (< len(r)) or
    len(r), the constraint's slack.  The dense solver's own tests are applied
    to that basis, solved as a 2x2 system in floats: B nonsingular, every
    x_B >= -_FEAS_TOL, every reduced cost <= _TOL.  Returns (p, value) with
    p = max(x_B, 0) normalized, or None when a test fails or the columns are
    no basis of this LP (the caller then runs the dense solver).
    """
    slack = len(r)
    if u == slack:
        u, v = v, u
    if not (0 <= u < slack and 0 <= v <= slack and u != v):
        return None
    au, ru = a[u], r[u]
    if v == slack:              # arm u alone, the constraint slack basic
        xu, xv, yh, ye = 1.0, cap - au, 0.0, ru
    else:                       # arms u and v meet the constraint with equality
        av = a[v]
        det = au - av
        if det == 0.0:
            return None
        xu, xv = (cap - av) / det, (au - cap) / det
        yh = (ru - r[v]) / det
        ye = ru - yh * au
    if xu < -_FEAS_TOL or xv < -_FEAS_TOL or -yh > _TOL:
        return None
    for rj, aj in zip(r, a):
        if rj - (yh * aj + ye) > _TOL:
            return None
    p = np.zeros(slack)
    xu = max(xu, 0.0)
    if v == slack:
        p[u] = 1.0
        return p, ru
    xv = max(xv, 0.0)
    total = xu + xv
    p[u], p[v] = xu / total, xv / total
    return p, ru * xu + r[v] * xv


def solve_lp(rewards: np.ndarray, consumption: np.ndarray, cap: float,
             warm_basis: Optional[list] = None, workspace: Optional[dict] = None) -> StepResult:
    """Solve  max rewards . p  s.t.  consumption p <= cap 1, p in the simplex,
    warm from ``warm_basis`` if given.  ``consumption`` is a 2-D float array
    of any sign (the linear one-halfspace step passes its reduced row and
    offset); callers validate their own data.

    ``workspace`` is a caller-owned dict for a run's sequence of these LPs: it
    keeps the rhs arrays and the LP's standard form between calls (see
    :mod:`bwcr.lp`); results are the same with or without it.  With one
    consumption row a warm basis is first certified in scalar floats by
    :func:`_certify_pair`; only a basis that fails goes to the dense solver.
    The result's ``x`` is None: the LP's point is the policy.
    """
    k, m = consumption.shape
    ws = {} if workspace is None else workspace
    if ws.get("rhs_key") != (k, m, cap):
        ws.update(rhs_key=(k, m, cap), b_ub=np.full(k, cap), a_eq=np.ones((1, m)),
                  b_eq=np.ones(1))
    if k == 1 and warm_basis is not None and len(warm_basis) == 2:
        certified = _certify_pair(rewards.tolist(), consumption[0].tolist(), cap, *warm_basis)
        if certified is not None:
            for key in ("lp_solves", "lp_certified", "lp_scalar"):
                ws[key] = ws.get(key, 0) + 1
            return StepResult(feasible=True, policy=PolicyDistribution.unchecked(certified[0]),
                              objective=certified[1], x=None, gap=0.0, rounds=1,
                              basis=warm_basis)
    res = solve_dense_lp(rewards, a_ub=consumption, b_ub=ws["b_ub"], a_eq=ws["a_eq"],
                         b_eq=ws["b_eq"], basis=warm_basis, workspace=workspace)
    if res.status != "optimal":
        return StepResult(feasible=False, policy=None, objective=math.nan, x=None, rounds=1)
    return StepResult(feasible=True, policy=PolicyDistribution(_simplex_point(res.x)),
                      objective=res.value, x=None, gap=0.0, rounds=1, basis=res.basis)


# ---------------------------------------------------------------------------
# the optimistic step

GAP_TOL = 1e-10     # certified optimality gap of a step
MAX_ROUNDS = 200    # LP solves per cutting-plane step
_CUT_FLOOR = 1e-12  # least cut coordinate: sqrt slopes are infinite at 0


def _step_skeleton(d: int, m: int, f: Objective, s: Optional[ConvexSet]) -> dict:
    """The parts of the interval-region step LP that stay fixed between steps.

    A linear f = c.z over one halfspace {a.z <= b} with the trivial clip is
    the one-row LP  max r.p  s.t.  g.p <= b  over the simplex, with
    r = c+ U + c- L and g = a+ L + a- U: for fixed p the best z_j is U_j p
    when c_j > 0 and L_j p otherwise, and the box [L p, U p] meets the
    halfspace iff its a-minimizing corner does.  Its skeleton is the weight
    rows that make (r, g) from (U, L), and b.

    Otherwise the columns are (p, z_r[, witness][, t+, t-]).  Rows 0..2d
    keep the reward witness z_r in the achievable box [L p, U p]; the rest
    say that the box touches S: per-coordinate overlap for a box; for one
    halfspace, the sign-matched box corner (plus L p <= upper where clipped),
    exact when the clip is trivial or the normal sign-definite; otherwise an
    explicit witness in the box and in S, P^T lam with lam in the simplex for
    a vertex list.  A linear f is the cost on z_r; any other f gets the
    hypograph column t = t+ - t- (split, as the LP keeps variables
    nonnegative).
    """
    linear = isinstance(f, LinearObjective)
    if linear and isinstance(s, Halfspaces) and s.k == 1 and np.all(s.upper >= 1.0):
        c, a = f.c, s.normals[0]
        return {"linear": True, "one_row_cap": float(s.offsets[0]),
                "w_ucb": np.vstack([np.maximum(c, 0.0), np.minimum(a, 0.0)]),
                "w_lcb": np.vstack([np.minimum(c, 0.0), np.maximum(a, 0.0)])}
    explicit = isinstance(s, Halfspaces) and not (
        s.k == 1 and (np.all(s.upper >= 1.0 - 1e-12) or np.all(s.normals[0] >= 0.0)))
    n_wit = d if explicit else s.points.shape[0] if isinstance(s, VPolytope) else 0
    nvar = m + d + n_wit + (0 if linear else 2)
    cost = np.zeros(nvar)
    if linear:
        cost[m:m + d] = f.c
    else:
        cost[-2:] = (1.0, -1.0)
    ws = {"linear": linear, "nvar": nvar, "cost": cost,
          "paired": explicit or isinstance(s, (Box, VPolytope))}
    eye = np.eye(d)
    rhs = [np.zeros(2 * d)]       # one entry per row
    if isinstance(s, Box):
        rhs.append(np.concatenate([s.upper, -s.lower]))
    elif isinstance(s, Halfspaces) and not explicit:
        clipped = np.flatnonzero(s.upper < 1.0)
        rhs.extend([s.offsets[:1], s.upper[clipped]])
        ws.update(clipped=clipped, a_pos=np.maximum(s.normals[0], 0.0),
                  a_neg=np.minimum(s.normals[0], 0.0))
    elif explicit:
        rhs.extend([np.zeros(2 * d), np.concatenate([s.offsets, s.upper])])
    elif isinstance(s, VPolytope):
        rhs.append(np.zeros(2 * d))
    elif s is not None:
        raise UnsupportedError(f"no step LP for {type(s).__name__} targets")
    b_ub = np.concatenate(rhs)
    a_ub = np.zeros((b_ub.size, nvar))
    a_ub[:d, m:m + d] = -eye
    a_ub[d:2 * d, m:m + d] = eye
    wit = slice(m + d, m + d + n_wit)
    if explicit:
        a_ub[2 * d:3 * d, wit] = -eye
        a_ub[3 * d:4 * d, wit] = eye
        a_ub[4 * d:4 * d + s.k, wit] = s.normals
        a_ub[4 * d + s.k:, wit] = eye
    elif isinstance(s, VPolytope):
        a_ub[2 * d:3 * d, wit] = -s.points.T
        a_ub[3 * d:4 * d, wit] = s.points.T
    a_eq = np.zeros((2 if isinstance(s, VPolytope) else 1, nvar))
    a_eq[0, :m] = 1.0
    a_eq[1:, wit] = 1.0
    ws.update(a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=np.ones(a_eq.shape[0]))
    return ws


def _fill_intervals(ws: dict, hc: Hypercube) -> np.ndarray:
    """Write the step's interval bounds into the cached constraint matrix."""
    lmat, umat = hc.lcb, hc.ucb
    d, m = lmat.shape
    a_ub = ws["a_ub"]
    a_ub[:d, :m] = lmat
    a_ub[d:2 * d, :m] = -umat
    if ws["paired"]:
        a_ub[2 * d:3 * d, :m] = lmat
        a_ub[3 * d:4 * d, :m] = -umat
    elif "clipped" in ws:
        a_ub[2 * d, :m] = ws["a_pos"] @ lmat + ws["a_neg"] @ umat
        a_ub[2 * d + 1:, :m] = lmat[ws["clipped"]]
    return a_ub


def solve_ucb_step(hc: Hypercube, f: Objective, s: Optional[ConvexSet] = None, *,
                   warm: Optional[StepResult] = None,
                   workspace: Optional[dict] = None) -> StepResult:
    """Optimistic step: maximize psi(p) = max over the interval region ``hc``
    of f(V~ p) subject to the region touching S; ``feasible=False`` when no p
    does, and the caller decides what to play then.

    For fixed p the achievable set is the box [L p, U p], so the step is the
    concave program max f(z_r) over the polytope of :func:`_step_skeleton`,
    which ``workspace`` caches between calls with the same f and S.  A
    linear f makes it one LP, warm-started from ``warm``'s basis; the
    workspace keeps that LP's standard form and cached tableaux (see
    :mod:`bwcr.lp`), and counts the LP solves of every round.  With one
    unclipped halfspace that LP is the one-row LP of :func:`solve_lp`, which
    certifies the warm basis in scalar floats before any dense solve.
    Any other f is solved by Kelley's cutting planes: each round adds the cut
    t <= f(y) + g(y) . (z_r - y) at the previous LP's z_r and stops once the
    LP bound exceeds the best f(z_r) found by at most GAP_TOL.  Rounds are
    capped at MAX_ROUNDS; a step that stops above GAP_TOL says so in ``gap``.
    An infeasible verdict is always phase-1 certified: cuts only bound t.
    """
    d, m = hc.lcb.shape
    ws = workspace if workspace is not None else {}
    if "linear" not in ws:
        ws.update(_step_skeleton(d, m, f, s))
    if ws["linear"]:
        basis = warm.basis if warm is not None else None
        if "one_row_cap" in ws:
            rows = ws["w_ucb"] @ hc.ucb + ws["w_lcb"] @ hc.lcb      # r and g
            res = solve_lp(rows[0], rows[1:], ws["one_row_cap"], warm_basis=basis,
                           workspace=ws)
            policy = res.policy
        else:
            res = solve_dense_lp(ws["cost"], a_ub=_fill_intervals(ws, hc),
                                 b_ub=ws["b_ub"], a_eq=ws["a_eq"], b_eq=ws["b_eq"],
                                 basis=basis, workspace=ws)
            policy = (PolicyDistribution(_simplex_point(res.x[:m]))
                      if res.status == "optimal" else None)
        if policy is None:
            return StepResult(feasible=False, policy=None, objective=math.nan, x=None,
                              rounds=1)
        # report the unconstrained-witness objective psi(p) = max over the box
        p = policy.weights
        z_r = np.where(f.c >= 0.0, hc.ucb @ p, hc.lcb @ p)
        return StepResult(feasible=True, policy=policy, objective=float(f.c @ z_r),
                          x=z_r, gap=0.0, rounds=1, basis=res.basis)
    a_ub = _fill_intervals(ws, hc)

    # a coordinate whose upper bounds are all 0 is 0 on the whole feasible
    # set: cut there at 0 with slope 0, whatever f's slope at 0 (sqrt: inf)
    pinned = ~np.any(hc.ucb > 0.0, axis=1)
    cut_rows, cut_rhs = [], []

    def add_cut(y):
        g = np.where(pinned, 0.0, f.supergradient(y))
        row = np.zeros(ws["nvar"])
        row[m:m + d] = -g
        row[-2:] = (1.0, -1.0)
        cut_rows.append(row)
        cut_rhs.append(f.value(y) - float(g @ y))

    y = np.where(pinned, 0.0, 0.5)
    add_cut(y)
    best, lower, upper, last, gap, rounds = None, -math.inf, math.inf, math.inf, math.inf, 0
    while rounds < MAX_ROUNDS:
        rounds += 1
        try:
            res = solve_dense_lp(ws["cost"], a_ub=np.vstack([a_ub, *cut_rows]),
                                 b_ub=np.concatenate([ws["b_ub"], cut_rhs]),
                                 a_eq=ws["a_eq"], b_eq=ws["b_eq"], workspace=ws)
            solved = res.status == "optimal"
        except SolverLimitError:
            if best is None:
                raise
            solved = False
        # only the first LP can be infeasible, as the cuts bound t alone, and
        # an added cut cannot raise the bound: a later LP that does either was
        # misjudged by the tableau, so restart from the newest cut
        if not solved or res.value > last + 1e-12:
            if best is None or len(cut_rows) == 1:
                break
            del cut_rows[:-1], cut_rhs[:-1]
            last = math.inf
            continue
        last = res.value
        p = _simplex_point(res.x[:m])
        z = np.clip(res.x[m:m + d], hc.lcb @ p, hc.ucb @ p)
        val = f.value(z)
        if val > lower:
            best, lower = (p, z), val
        upper = min(upper, res.value)   # every round's LP relaxes the step
        gap = max(upper - lower, 0.0)
        if gap <= GAP_TOL:
            break
        # cut points stay inside the domain, where every slope is finite
        y_next = np.where(pinned, 0.0, np.clip(res.x[m:m + d], _CUT_FLOOR, 1.0))
        if (y_next == y).all():
            break   # the same cut again cannot tighten the bound
        y = y_next
        add_cut(y)
    if best is None:
        return StepResult(feasible=False, policy=None, objective=math.nan, x=None, rounds=rounds)
    return StepResult(feasible=True, policy=PolicyDistribution(best[0]), objective=lower,
                      x=best[1], gap=gap, rounds=rounds)


def degenerate_region(mean_matrix: np.ndarray) -> Hypercube:
    """Zero-width region pinned to the true means (benchmark side)."""
    v = np.asarray(mean_matrix, dtype=float)
    return Hypercube(lcb=v, ucb=v)


# ---------------------------------------------------------------------------
# online convex optimization steps


@dataclass(frozen=True)
class OcoState:
    """Dual-vector state for the OCO reductions.

    ``radius`` is the dual-ball radius (the Lipschitz constant), ``grad_bound``
    the norm bound G used by the step-size schedule (Euclidean for OGD,
    sup-norm for the entropic update).
    """

    theta: np.ndarray
    radius: float
    grad_bound: float
    kind: str = "ogd"
    t: int = 0
    weights: Optional[np.ndarray] = None   # entropic: 2d signed-coordinate weights

    @property
    def dim(self) -> int:
        return self.theta.shape[0]


def make_oco(kind: str, d: int, radius: float, grad_bound: float) -> OcoState:
    if kind == "ogd":
        return OcoState(theta=np.zeros(d), radius=radius, grad_bound=grad_bound, kind="ogd")
    if kind == "entropic":
        return OcoState(theta=np.zeros(d), radius=radius, grad_bound=grad_bound,
                        kind="entropic", weights=np.full(2 * d, 0.5 / d))
    raise ConfigError(f"unknown oco kind {kind!r}")


def ogd_step(state: OcoState, grad: np.ndarray) -> OcoState:
    """theta' = Proj_{|.|_2 <= radius}(theta - eta_t grad), eta_t = (L/G)/sqrt(t)."""
    if state.kind != "ogd":
        raise UnsupportedError("ogd_step called on a non-OGD state")
    t = state.t + 1
    eta = (state.radius / state.grad_bound) / math.sqrt(t)
    theta = project_l2_ball(state.theta - eta * np.asarray(grad, dtype=float), state.radius)
    return OcoState(theta=theta, radius=state.radius, grad_bound=state.grad_bound,
                    kind="ogd", t=t)


def entropic_step(state: OcoState, grad: np.ndarray) -> OcoState:
    """Exponentiated-gradient update over 2d signed coordinates; keeps theta
    on the l1 ball of the given radius (for the (linf, l1) norm pair)."""
    if state.kind != "entropic" or state.weights is None:
        raise UnsupportedError("entropic_step called on a non-entropic state")
    grad = np.asarray(grad, dtype=float)
    d = state.dim
    t = state.t + 1
    eta = math.sqrt(math.log(2 * d) / t) / (state.radius * state.grad_bound)
    scores = state.radius * np.concatenate([grad, -grad])
    w = state.weights * np.exp(-eta * scores)
    w = w / w.sum()
    theta = state.radius * (w[:d] - w[d:])
    return OcoState(theta=theta, radius=state.radius, grad_bound=state.grad_bound,
                    kind="entropic", t=t, weights=w)

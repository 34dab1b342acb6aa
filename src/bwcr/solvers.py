"""Per-step optimization machinery shared by the bandit algorithms.

Three pieces live here:

* :func:`solve_lp` - the budgeted simplex LP  max r.p  s.t.  C p <= beta 1,
  p in the simplex (the knapsack step), on top of the dense tableau solver.
  LPs with one constraint row certify a warm basis in scalar floats first
  (:func:`_certify_pair`), as does the linear step below with one halfspace.
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


@dataclass(frozen=True)
class LpProblem:
    """max rewards . p  s.t.  consumption p <= (1-eps) * budget_ratio * 1, p in simplex."""

    rewards: np.ndarray
    consumption: np.ndarray
    budget_ratio: float
    eps: float = 0.0

    def __post_init__(self):
        r = np.asarray(self.rewards, dtype=float)
        c = np.atleast_2d(np.asarray(self.consumption, dtype=float))
        if r.min() < -1e-12 or r.max() > 1.0 + 1e-12 or c.min() < -1e-12 or c.max() > 1.0 + 1e-12:
            raise ValueError("rewards and consumption entries must lie in [0, 1]")
        if self.budget_ratio <= 0.0:
            raise ValueError("budget_ratio must be positive")
        # eps = 1 is the degenerate zero-budget problem (only cost-free arms
        # playable); the budgeted algorithms rely on that limit case
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError("eps must lie in [0, 1]")
        object.__setattr__(self, "rewards", r)
        object.__setattr__(self, "consumption", c)

    @classmethod
    def unchecked(cls, rewards: np.ndarray, consumption: np.ndarray, budget_ratio: float,
                  eps: float = 0.0) -> "LpProblem":
        """Wrap a float reward vector and a 2-D float consumption matrix
        without validation (hot paths; the caller guarantees the invariants,
        e.g. bounds maintained by ConfidenceState and scalars checked once)."""
        problem = object.__new__(cls)
        object.__setattr__(problem, "rewards", rewards)
        object.__setattr__(problem, "consumption", consumption)
        object.__setattr__(problem, "budget_ratio", budget_ratio)
        object.__setattr__(problem, "eps", eps)
        return problem


@dataclass
class LpStepResult:
    status: str                           # "optimal" | "infeasible"
    policy: Optional[PolicyDistribution] = None
    value: float = float("nan")
    basis: Optional[list] = None


def _certify_pair(r: list, a: list, cap: float, u: int, v: int, zero_rows=()):
    """Scalar warm certify of  max r.p  s.t.  a.p <= cap, p in the simplex.

    ``u`` and ``v`` are the previous basis's two columns: arms (< len(r)) or
    len(r), the constraint's slack.  The dense solver's own tests are applied
    to that basis, solved as a 2x2 system in floats: B nonsingular, every
    x_B >= -_FEAS_TOL, every reduced cost <= _TOL.  A row w of ``zero_rows``
    adds a basic variable -w.p, which must be >= -_FEAS_TOL too.  Returns
    (p, value) with p = max(x_B, 0) normalized, or None when a test fails or
    the columns are no basis of this LP (the caller then runs the dense
    solver).
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
    for w in zero_rows:
        if w[u] * xu + (w[v] * xv if v < slack else 0.0) > _FEAS_TOL:
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


def _count_scalar(ws: dict):
    """Count a scalar certify as a solve, a certified solve and a scalar one."""
    for key in ("lp_solves", "lp_certified", "lp_scalar"):
        ws[key] = ws.get(key, 0) + 1


def solve_lp(problem: LpProblem, warm_basis: Optional[list] = None,
             workspace: Optional[dict] = None) -> LpStepResult:
    """Solve the budgeted simplex LP, warm from ``warm_basis`` if given.

    ``workspace`` is a caller-owned dict for a run's sequence of these LPs: it
    keeps the rhs arrays and the LP's standard form between calls (see
    :mod:`bwcr.lp`); results are the same with or without it.  With one
    consumption row a warm basis is first certified in scalar floats by
    :func:`_certify_pair`; only a basis that fails goes to the dense solver.
    """
    m, k = problem.rewards.shape[0], problem.consumption.shape[0]
    beta = (1.0 - problem.eps) * problem.budget_ratio
    ws = {} if workspace is None else workspace
    if ws.get("rhs_key") != (k, m, beta):
        ws.update(rhs_key=(k, m, beta), b_ub=np.full(k, beta), a_eq=np.ones((1, m)),
                  b_eq=np.ones(1), one_row=k == 1)
    if ws["one_row"] and warm_basis is not None and len(warm_basis) == 2:
        certified = _certify_pair(problem.rewards.tolist(), problem.consumption[0].tolist(),
                                  beta, *warm_basis)
        if certified is not None:
            _count_scalar(ws)
            return LpStepResult(status="optimal", policy=PolicyDistribution.unchecked(
                certified[0]), value=certified[1], basis=warm_basis)
    res = solve_dense_lp(problem.rewards, a_ub=problem.consumption, b_ub=ws["b_ub"],
                         a_eq=ws["a_eq"], b_eq=ws["b_eq"], basis=warm_basis,
                         workspace=workspace)
    if res.status != "optimal":
        return LpStepResult(status="infeasible")
    p = np.maximum(res.x, 0.0)
    p /= p.sum()
    return LpStepResult(status="optimal", policy=PolicyDistribution(p),
                        value=res.value, basis=res.basis)


# ---------------------------------------------------------------------------
# the optimistic step

GAP_TOL = 1e-10     # certified optimality gap of a step
MAX_ROUNDS = 200    # LP solves per cutting-plane step
_CUT_FLOOR = 1e-12  # least cut coordinate: sqrt slopes are infinite at 0


@dataclass
class StepResult:
    feasible: bool
    policy: Optional[PolicyDistribution]
    objective: float
    x: Optional[np.ndarray]                 # region point achieving the objective
    gap: float = math.nan                   # certified LP bound - objective; nan if infeasible
    rounds: int = 0                         # LP solves of the step
    basis: Optional[list] = None            # warm basis (linear objective)


def _step_skeleton(d: int, m: int, f: Objective, s: Optional[ConvexSet]) -> dict:
    """The parts of the interval-region step LP that stay fixed between steps.

    Columns are (p, z_r[, witness][, t+, t-]).  Rows 0..2d keep the reward
    witness z_r in the achievable box [L p, U p]; the rest say that the box
    touches S: per-coordinate overlap for a box; for one halfspace, the
    sign-matched box corner (plus L p <= upper where clipped), exact when the
    clip is trivial or the normal sign-definite; otherwise an explicit
    witness in the box and in S, P^T lam with lam in the simplex for a vertex
    list.  A linear f is the cost on z_r; any other f gets the hypograph
    column t = t+ - t- (split, as the LP keeps variables nonnegative).
    """
    linear = isinstance(f, LinearObjective)
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
        if linear and clipped.size == 0:
            # the one-constraint form that _certify_step reduces to 2x2
            ws.update(one_row_cap=float(s.offsets[0]), one_row_shape=(None, None))
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


def _one_row_shape(basis: list, c: np.ndarray, ws: dict, m: int, d: int):
    """Reduce a basis of the one-halfspace linear step LP to its 2x2 core.

    Rows j and d + j (L_j p <= z_j <= U_j p) touch only z_j and their two
    slacks, and the halfspace and simplex rows only p and the halfspace
    slack.  So a basis with two columns of the latter kind (arms, or the
    halfspace slack) holds two of the three columns of each j:

    * z_j and row j's slack: row d + j is tight, z_j = U_j p, priced -c_j;
    * z_j and row d + j's slack: z_j = L_j p, priced c_j;
    * both slacks: z_j = 0 is nonbasic, priced c_j, and row j's slack,
      -L_j p, must stay >= -_FEAS_TOL.

    Eliminating z then leaves  max r.p  s.t.  g.p <= offset  over the
    simplex, with r = sum_j c_j z_j(p) and g = a+ L + a- U the halfspace row.
    Returns (u, v, wu, wl), where wu U + wl L stacks r, g and the rows L_j
    of the nonbasic z_j, or None for any other basis or a price above _TOL.
    """
    nz, slack_h = m + d, m + 3 * d
    if len(basis) != 2 * d + 2 or len(set(basis)) != len(basis):
        return None
    pair, held = [], [0] * d        # held[j]: bit 0 z_j, bit 1 row j's slack, bit 2 row d+j's
    for j in basis:
        if 0 <= j < m or j == slack_h:
            pair.append(min(j, m))      # the halfspace slack is column m of the 2x2
        elif m <= j < nz:
            held[j - m] |= 1
        elif nz <= j < slack_h:
            held[(j - nz) % d] |= 2 << ((j - nz) // d)
        else:
            return None
    # 2d + 2 distinct columns, two of them in the pair: two per j unless
    # some j holds three and another one
    if len(pair) != 2 or any(h not in (3, 5, 6) for h in held):
        return None
    held = np.array(held)
    if np.any(np.where(held == 3, -c, c) > _TOL):
        return None
    free = np.flatnonzero(held == 6)
    wu = np.vstack([np.where(held == 3, c, 0.0), ws["a_neg"], np.zeros((free.size, d))])
    wl = np.vstack([np.where(held == 5, c, 0.0), ws["a_pos"], np.eye(d)[free]])
    return pair[0], pair[1], wu, wl


def _certify_step(ws: dict, hc: Hypercube, c: np.ndarray, basis: list):
    """Scalar warm certify of the linear step LP with one unclipped halfspace:
    (p, value) as from :func:`_certify_pair` on the reduction of
    :func:`_one_row_shape`, or None.  The reduction of the last basis seen is
    kept in ``ws``, as a certified step hands its basis on unchanged."""
    key, shape = ws["one_row_shape"]
    if basis != key:
        d, m = hc.lcb.shape
        shape = _one_row_shape(basis, c, ws, m, d)
        ws["one_row_shape"] = (list(basis), shape)
    if shape is None:
        return None
    u, v, wu, wl = shape
    rows = (wu @ hc.ucb + wl @ hc.lcb).tolist()
    return _certify_pair(rows[0], rows[1], ws["one_row_cap"], u, v, rows[2:])


def _simplex_point(x: np.ndarray) -> np.ndarray:
    p = np.maximum(x, 0.0)
    return p / p.sum()


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
    workspace keeps that LP's standard form and basis inverse (see
    :mod:`bwcr.lp`), and counts the LP solves of every round.  With one
    unclipped halfspace the warm basis is first certified in scalar floats
    (:func:`_certify_step`); only a basis that fails goes to the dense LP.
    Any other f is solved by Kelley's cutting planes: each round adds the cut
    t <= f(y) + g(y) . (z_r - y) at the previous LP's z_r and stops once the
    LP bound exceeds the best f(z_r) found by at most GAP_TOL.  Rounds are
    capped at MAX_ROUNDS; a step that stops above GAP_TOL says so in ``gap``.
    An infeasible verdict is always phase-1 certified: cuts only bound t.
    """
    d, m = hc.lcb.shape
    ws = workspace if workspace is not None else {}
    if "a_ub" not in ws:
        ws.update(_step_skeleton(d, m, f, s))
    if ws["linear"]:
        basis = warm.basis if warm is not None else None
        certified = None
        if basis is not None and "one_row_cap" in ws:
            certified = _certify_step(ws, hc, f.c, basis)
        if certified is not None:
            _count_scalar(ws)
            policy = PolicyDistribution.unchecked(certified[0])
        else:
            res = solve_dense_lp(ws["cost"], a_ub=_fill_intervals(ws, hc),
                                 b_ub=ws["b_ub"], a_eq=ws["a_eq"], b_eq=ws["b_eq"],
                                 basis=basis, workspace=ws)
            if res.status != "optimal":
                return StepResult(feasible=False, policy=None, objective=math.nan, x=None,
                                  rounds=1)
            policy, basis = PolicyDistribution(_simplex_point(res.x[:m])), res.basis
        # report the unconstrained-witness objective psi(p) = max over the box
        p = policy.weights
        z_r = np.where(f.c >= 0.0, hc.ucb @ p, hc.lcb @ p)
        return StepResult(feasible=True, policy=policy, objective=float(f.c @ z_r),
                          x=z_r, gap=0.0, rounds=1, basis=basis)
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
        if np.array_equal(y_next, y):
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

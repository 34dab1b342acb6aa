"""The algorithm family, each exposed as a stepper: ``step(t)`` returns the
policy to play (or STOP for budgeted variants), ``observe(arm, v)`` ingests
the outcome.  Arm sampling itself lives with the caller so that steppers stay
deterministic given their observation sequence.

Every variant is one scaffold plus a per-step rule.  ``_StepperBase`` decides
the confidence region once (the known-means cube, contextual ellipsoid
intervals, or per-entry UCB/LCB bounds) and updates only its estimator in
``observe``; it keeps the running average of the plays' images, the run's one
LP workspace behind ``lp_counts``, and the corner play shared by the
first-order rules.  ``_BudgetedStepper`` adds the BwK budget and its stop.

Variants:

* ``ucb_bwcr``  - optimistic step over the confidence region: the exact LP /
  cutting-plane step over per-entry intervals, which contextual instances
  build from their confidence ellipsoids.
* ``ucb_bwk``   - budgeted LP step with shrink factor eps; stops on overrun.
* ``dual_oco``  - linearized dual play driven by an OCO update.
* ``fw_primal`` - conditional-gradient play at the running-average gradient.
* ``fw_bwc``    - constraint-only conditional gradient (Blackwell-style).
* ``combined``  - simplex LP with one dual constraint; dual or primal updates
  for each of the two dual vectors.
* ``greedy_bwk`` - fractional-knapsack ratio rule with an entropic dual.

Tie-breaking everywhere is lowest index; "play anything" fallbacks are the
uniform distribution.  Both choices keep runs reproducible.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .confidence import ConfidenceState, EllipsoidState, Hypercube, default_crad, vertex
from .core import IDLE, InstanceModel, PolicyDistribution, idle_policy, point_mass, uniform_policy
from .errors import ConfigError, UnsupportedError
from .geometry import Box, ConvexSet, smoothed_distance
from .lp import workspace_counts
from .objective import NegativeDistance, Objective
from .solvers import entropic_step, make_oco, ogd_step, solve_lp, solve_ucb_step

VARIANTS = ("ucb_bwcr", "ucb_bwk", "dual_oco", "fw_primal", "fw_bwc", "combined", "greedy_bwk")


class _Stop:
    def __repr__(self):
        return "STOP"


STOP = _Stop()


@dataclass
class AlgorithmConfig:
    variant: str
    horizon: int
    objective: Optional[Objective] = None
    constraint_set: Optional[ConvexSet] = None
    budget: Optional[float] = None
    eps: Optional[float] = None
    gamma: Optional[float] = None
    delta: float = 0.05
    oco_kind: str = "ogd"
    theta_update: str = "dual"
    phi_update: str = "dual"
    sigma: Optional[float] = None
    allow_idle: bool = False
    lipschitz: Optional[float] = None
    use_known_means: bool = False

    def validate(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError("delta must lie in (0, 1)")
        for name in ("budget", "eps", "gamma", "sigma", "lipschitz"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, numbers.Real)):
                raise ConfigError(f"{name} must be a number")
        for name in ("allow_idle", "use_known_means"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false")
        for name in ("sigma", "gamma", "lipschitz"):
            value = getattr(self, name)
            if value is not None and not value > 0.0:
                raise ConfigError(f"{name} must be > 0")
        f, s = self.objective, self.constraint_set
        v = self.variant
        if v == "ucb_bwcr" and f is None and s is None:
            raise ConfigError("ucb_bwcr needs an objective, a constraint set, or both")
        if v in ("ucb_bwk", "greedy_bwk"):
            if self.budget is None or self.budget <= 0:
                raise ConfigError(f"{v} needs a positive budget")
            if f is not None or s is not None:
                raise ConfigError(f"{v} derives its objective and set from the budget")
        if v == "dual_oco" and (f is None) == (s is None):
            raise ConfigError("dual_oco needs exactly one of objective / constraint set")
        if v == "fw_primal":
            if f is None or s is not None:
                raise ConfigError("fw_primal needs an objective and no constraint set")
            if not math.isfinite(f.smoothness) and self.sigma is None:
                raise ConfigError("fw_primal needs a smooth objective or sigma")
        if v == "fw_bwc" and (s is None or f is not None):
            raise ConfigError("fw_bwc needs a constraint set and no objective")
        if v == "combined":
            if f is None or s is None:
                raise ConfigError("combined needs both an objective and a constraint set")
            for upd, name in ((self.theta_update, "theta_update"), (self.phi_update, "phi_update")):
                if upd not in ("dual", "primal", "primal_smoothed"):
                    raise ConfigError(f"{name} must be dual, primal, or primal_smoothed")
            if self.theta_update == "primal" and not math.isfinite(f.smoothness):
                raise ConfigError("primal theta update needs a smooth objective")
            if "primal_smoothed" in (self.theta_update, self.phi_update) and self.sigma is None:
                raise ConfigError("primal_smoothed updates need sigma")
        if self.oco_kind not in ("ogd", "entropic"):
            raise ConfigError("oco_kind must be ogd or entropic")


def _resolved_gamma(config: AlgorithmConfig, d: int, m: int) -> float:
    if config.gamma is not None:
        return float(config.gamma)
    return default_crad(m, config.horizon, d, config.delta)


def _finite_lipschitz(config: AlgorithmConfig, f: Objective) -> float:
    radius = config.lipschitz if config.lipschitz is not None else f.lipschitz
    if not math.isfinite(radius):
        raise ConfigError("this variant needs a finite Lipschitz constant; "
                          "set lipschitz explicitly for non-Lipschitz objectives")
    return float(radius)


def _smoothed_gradient(f: Objective, sigma: float):
    """The gradient of f's Nesterov smoothing of width sigma.  The catalog's
    one non-smooth Lipschitz objective, -d(., S), has it in closed form in l2;
    a smooth f needs no smoothing (its primal rule reads the gradient)."""
    if not isinstance(f, NegativeDistance):
        raise UnsupportedError("smoothing is implemented for neg_distance objectives only")
    if f.norm.primal != "l2":
        raise UnsupportedError("smoothing is implemented for the l2 norm only")
    return lambda z: f.smoothed_gradient(z, sigma)


def _make_oco(kind: str, d: int, radius: float):
    """An OCO state.  Its gradients are differences of points of [0, 1]^d, so
    their norm is at most sqrt(d) in l2 (OGD) and 1 in linf (entropic)."""
    return make_oco(kind, d, radius, math.sqrt(d) if kind == "ogd" else 1.0)


def _oco_update(state, grad: np.ndarray):
    return (ogd_step if state.kind == "ogd" else entropic_step)(state, grad)


class _StepperBase:
    """The scaffold every variant shares (see the module docstring); ``conf``
    is None unless the region is the one wrapper of its bounds."""

    def __init__(self, config: AlgorithmConfig, instance: InstanceModel):
        config.validate()
        self.config = config
        self.d, self.m = instance.d, instance.m
        self.gamma = _resolved_gamma(config, self.d, self.m)
        self.conf: Optional[ConfidenceState] = None
        self._contexts = None
        if config.use_known_means:
            # a zero-width cube, validated once and never updated
            known = instance.mean_matrix.copy()
            self._cube = Hypercube(lcb=known, ucb=known)
        elif instance.contextual is not None:
            if config.variant != "ucb_bwcr":
                raise ConfigError("contextual instances are supported by the ucb_bwcr "
                                  "variant only")
            self.ell = EllipsoidState(self.d, instance.contextual.n)
            self._contexts = instance.contextual.contexts
        else:
            # wraps the bounds themselves, which ConfidenceState.update
            # rewrites in place
            self.conf = ConfidenceState(self.d, self.m, self.gamma)
            self._cube = Hypercube.unchecked(*self.conf.bounds())
        # warm state of the step or support LPs; None for variants with none
        self._workspace: Optional[dict] = None
        self.xbar: Optional[np.ndarray] = None
        self.steps_seen = 0
        self._pending_x: Optional[np.ndarray] = None
        self._x0: Optional[np.ndarray] = None
        # policies are immutable; cache the ones played repeatedly
        self._points = [point_mass(self.m, i) for i in range(self.m)]
        self._uniform = uniform_policy(self.m)

    def _hypercube(self) -> Hypercube:
        """The region; only the contextual one is rebuilt from its estimator."""
        if self._contexts is not None:
            return self.ell.hypercube(self._contexts)
        return self._cube

    def _base_point(self) -> np.ndarray:
        """The running average, or before any play the UCB image of uniform play."""
        if self.xbar is not None:
            return self.xbar
        if self._x0 is None:
            self._x0 = self._hypercube().ucb @ np.full(self.m, 1.0 / self.m)
        return self._x0

    def _push_xbar(self, x: np.ndarray):
        self.steps_seen += 1
        if self.xbar is None:
            self.xbar = x.copy()
        else:
            self.xbar += (x - self.xbar) / self.steps_seen

    def _play_corner(self, theta: np.ndarray) -> PolicyDistribution:
        """Play the arm whose column of the region's theta-minimizing corner
        has the least theta . column, and record that column as the image."""
        corner = vertex(self._hypercube(), theta)
        arm = int(theta.dot(corner).argmin())
        self._pending_x = corner[:, arm].copy()
        return self._points[arm]

    def step(self, t: int):
        raise NotImplementedError

    def observe(self, arm: int, observation: np.ndarray):
        if arm != IDLE:
            if self.conf is not None:
                self.conf.update(arm, observation)
            elif self._contexts is not None:
                self.ell.update(self._contexts[:, arm, :], observation)
        if self._pending_x is not None:
            self._push_xbar(self._pending_x)
            self._pending_x = None
        self._after_observe(arm, observation)

    def _after_observe(self, arm: int, observation: np.ndarray):
        pass

    def lp_counts(self) -> Optional[dict]:
        """LP solves, certified warm solves and pivots of this run, from the
        stepper's LP workspace; None for variants that solve no LP."""
        return None if self._workspace is None else workspace_counts(self._workspace)


class _BudgetedStepper(_StepperBase):
    """The BwK bookkeeping: observations are a reward row plus resource rows,
    and the run stops once any resource's spend exceeds the budget B."""

    def __init__(self, config, instance):
        super().__init__(config, instance)
        if self.d < 2:
            raise ConfigError(f"{config.variant} needs observations with a reward row "
                              "plus resources")
        self.budget = float(config.budget)
        self.n_res = self.d - 1
        self.budget_spent = np.zeros(self.n_res)
        self.stopped = False

    def _exhausted(self) -> bool:
        if not self.stopped and np.any(self.budget_spent > self.budget):
            self.stopped = True
        return self.stopped

    def _after_observe(self, arm, observation):
        if arm != IDLE:
            self.budget_spent += observation[1:]


class UcbBwcrStepper(_StepperBase):
    """Optimistic play over the confidence region: maximize the best
    region-consistent objective subject to the region touching the target."""

    def __init__(self, config, instance):
        super().__init__(config, instance)
        from .objective import LinearObjective
        self.f = config.objective if config.objective is not None \
            else LinearObjective(np.zeros(instance.d))
        self.s = config.constraint_set
        if config.eps and self.s is not None:
            self.s = self.s.shrink(config.eps)
        self._warm = None
        self._workspace = {}
        self.infeasible_steps = 0

    def step(self, t: int):
        hc = self._hypercube()
        res = solve_ucb_step(hc, self.f, self.s, warm=self._warm, workspace=self._workspace)
        self._warm = res
        if not res.feasible:
            self.infeasible_steps += 1
            p = np.full(self.m, 1.0 / self.m)
            self._pending_x = 0.5 * (hc.lcb @ p + hc.ucb @ p)
            return self._uniform
        self._pending_x = res.x
        return res.policy


class UcbBwkStepper(_BudgetedStepper):
    """Budgeted LP step: rewards from row 0 UCBs, consumptions from LCBs of
    rows 1..d-1, budget shrunk by eps; exits once any resource exceeds B."""

    def __init__(self, config, instance):
        super().__init__(config, instance)
        if config.eps is None:
            eps = min(0.5, math.sqrt(self.m * self.gamma / self.budget))
        else:
            eps = float(config.eps)
        # eps = 1 is the zero-budget limit case (only cost-free arms playable)
        if not 0.0 <= eps <= 1.0:
            raise ConfigError("eps must lie in [0, 1]")
        self._cap = (1.0 - eps) * (self.budget / config.horizon)
        self._basis = None
        self._workspace = {}

    def step(self, t: int):
        if self._exhausted():
            return STOP
        hc = self._hypercube()
        res = solve_lp(hc.ucb[0], hc.lcb[1:], self._cap, warm_basis=self._basis,
                       workspace=self._workspace)
        if not res.feasible:
            # unreachable under the feasibility assumption; play safe
            if self.config.allow_idle:
                self._pending_x = np.zeros(self.d)
                return idle_policy(self.m)
            arm = int(np.argmin(hc.lcb[1:].sum(axis=0)))
            pol = point_mass(self.m, arm)
            self._pending_x = np.concatenate([[hc.ucb[0, arm]], hc.lcb[1:, arm]])
            return pol
        self._basis = res.basis
        p = res.policy.weights
        self._pending_x = np.concatenate([[hc.ucb[0] @ p], hc.lcb[1:] @ p])
        return res.policy


class DualOcoStepper(_StepperBase):
    """Linearized dual play: pick the arm minimizing theta . (corner column),
    then update theta by an OCO step on f*(theta) - theta . x_t."""

    def __init__(self, config, instance):
        super().__init__(config, instance)
        if config.objective is not None:
            self.f = config.objective
        else:
            self.f = NegativeDistance(config.constraint_set)
        self.radius = _finite_lipschitz(config, self.f)
        self.oco = _make_oco(config.oco_kind, self.d, self.radius)
        self._x_t = None
        self._workspace = {}   # warm state of f*'s support LP

    def step(self, t: int):
        pol = self._play_corner(self.oco.theta)
        self._x_t = self._pending_x
        return pol

    def _after_observe(self, arm, observation):
        grad = self.f.conjugate_argmax(self.oco.theta, self._workspace) - self._x_t
        self.oco = _oco_update(self.oco, grad)


class FwPrimalStepper(_StepperBase):
    """Conditional-gradient play: maximize (corner column) . grad f(xbar)."""

    def __init__(self, config, instance):
        super().__init__(config, instance)
        f = config.objective
        if config.sigma is not None and not math.isfinite(f.smoothness):
            self._grad = _smoothed_gradient(f, config.sigma)
        else:
            self._grad = f.supergradient

    def step(self, t: int):
        # IEEE negation is exact and rounding is sign-symmetric, so the
        # corner play at -grad maximizes grad . column bit for bit
        return self._play_corner(-self._grad(self._base_point()))


class FwBwcStepper(_StepperBase):
    """Constraint-only conditional gradient: steer the running average toward
    the target set along the direction to its projection."""

    def __init__(self, config, instance):
        super().__init__(config, instance)
        self.s = config.constraint_set

    def step(self, t: int):
        base = self._base_point()
        if self.s.contains(base):
            hc = self._hypercube()
            p = self._uniform
            mid = 0.5 * (hc.lcb + hc.ucb)
            self._pending_x = mid @ p.weights
            return p
        return self._play_corner(base - self.s.project(base))


def _simplex_one_constraint(cost: np.ndarray, load: np.ndarray, cap: float,
                            allow_idle: bool) -> Optional[np.ndarray]:
    """Exact min of cost . p over the simplex (or sub-simplex when idling is
    allowed) subject to load . p <= cap, by enumerating polytope vertices:
    the zero point, feasible unit vectors, capped singletons, and two-arm
    mixtures that meet the constraint with equality.

    Scalar loops on purpose: arm counts here are small and this sits on the
    per-step hot path.
    """
    m = cost.shape[0]
    tol = 1e-12
    c = cost.tolist()
    a = load.tolist()
    best_val, best_kind = math.inf, None   # ("unit", i) | ("cap", i, mu) | ("mix", i, j, lam) | ("zero",)
    for i in range(m):
        if a[i] <= cap + tol and c[i] < best_val - tol:
            best_val, best_kind = c[i], ("unit", i)
    if allow_idle and cap >= -tol:
        if 0.0 < best_val - tol:
            best_val, best_kind = 0.0, ("zero",)
        for i in range(m):
            if a[i] > cap + tol and a[i] > 0.0:
                mu = cap / a[i]
                v = c[i] * mu
                if v < best_val - tol:
                    best_val, best_kind = v, ("cap", i, mu)
    for i in range(m):
        for j in range(i + 1, m):
            denom = a[i] - a[j]
            if abs(denom) < tol:
                continue
            lam = (cap - a[j]) / denom
            if -tol <= lam <= 1.0 + tol:
                lam = min(max(lam, 0.0), 1.0)
                v = lam * c[i] + (1.0 - lam) * c[j]
                if v < best_val - tol:
                    best_val, best_kind = v, ("mix", i, j, lam)
    if best_kind is None:
        return None
    p = np.zeros(m)
    if best_kind[0] == "unit":
        p[best_kind[1]] = 1.0
    elif best_kind[0] == "cap":
        p[best_kind[1]] = best_kind[2]
    elif best_kind[0] == "mix":
        _, i, j, lam_v = best_kind
        p[i], p[j] = lam_v, 1.0 - lam_v
    return p


class CombinedStepper(_StepperBase):
    """Simplex LP with one dual constraint: minimize
    (theta . corner(theta)) . p subject to (phi . corner(phi)) . p <= h_S(phi).
    Either dual vector can be driven by an OCO update or by the primal
    (gradient / projection-direction) rule."""

    def __init__(self, config, instance):
        super().__init__(config, instance)
        self.f = config.objective
        self.s = config.constraint_set
        self.theta = np.zeros(self.d)
        self.phi = np.zeros(self.d)
        if config.theta_update == "dual":
            self.oco_theta = _make_oco(config.oco_kind, self.d, _finite_lipschitz(config, self.f))
        if config.phi_update == "dual":
            self.oco_phi = _make_oco(config.oco_kind, self.d, 1.0)
        if config.theta_update == "primal_smoothed":
            self._smoothed_grad = _smoothed_gradient(self.f, config.sigma)
        self.zbar_phi: Optional[np.ndarray] = None
        self._workspace = {}   # warm state of h_S(phi)'s support LP

    def step(self, t: int):
        hc = self._hypercube()
        w_theta = vertex(hc, self.theta)
        w_phi = vertex(hc, self.phi)
        cost = self.theta.dot(w_theta)
        load = self.phi.dot(w_phi)
        if self.config.phi_update == "dual":
            # phi is the OCO iterate whose support point observe needs: one
            # oracle call answers both
            cap, self._phi_point = self.s.support_and_point(self.phi, self._workspace)
        else:
            cap = self.s.support(self.phi, self._workspace)
        p = _simplex_one_constraint(cost, load, cap, self.config.allow_idle)
        if p is None:
            pol = self._uniform
        else:
            pol = PolicyDistribution.unchecked(p, allow_idle=self.config.allow_idle)
        self._x_theta = w_theta.dot(pol.weights)
        self._z_phi = w_phi.dot(pol.weights)
        self._pending_x = self._x_theta
        return pol

    def _after_observe(self, arm, observation):
        # the running average of the x_theta plays is self.xbar; the primal
        # phi rules alone read the running average of the z_phi plays
        if self.config.phi_update != "dual":
            n = self.steps_seen
            self.zbar_phi = self._z_phi.copy() if self.zbar_phi is None \
                else self.zbar_phi + (self._z_phi - self.zbar_phi) / n

        upd = self.config.theta_update
        if upd == "dual":
            grad = self.f.conjugate_argmax(self.oco_theta.theta) - self._x_theta
            self.oco_theta = _oco_update(self.oco_theta, grad)
            self.theta = self.oco_theta.theta
        elif upd == "primal":
            self.theta = -self.f.supergradient(self.xbar)
        else:
            self.theta = -self._smoothed_grad(self.xbar)

        upd = self.config.phi_update
        if upd == "dual":
            grad = self._phi_point - self._z_phi
            self.oco_phi = _oco_update(self.oco_phi, grad)
            self.phi = self.oco_phi.theta
        elif upd == "primal":
            self.phi = self.zbar_phi - self.s.project(self.zbar_phi)
        else:
            _, self.phi = smoothed_distance(self.zbar_phi, self.s, self.config.sigma)


class GreedyBwkStepper(_BudgetedStepper):
    """Fractional-knapsack rule: play the arm maximizing
    UCB(reward) / (phi . LCB(consumption)) with the largest probability the
    budget row permits; nonpositive denominators are priced at p = 1 and the
    best of those competes with the greedy pick (winning ties).  phi follows
    an entropic OCO update against the budget box."""

    def __init__(self, config, instance):
        super().__init__(config, instance)
        ratio = min(self.budget / config.horizon, 1.0)
        self.s_budget = Box(np.zeros(self.n_res), np.full(self.n_res, ratio))
        self.oco_phi = _make_oco("entropic", self.n_res, 1.0)
        self._z_t = np.zeros(self.n_res)

    def step(self, t: int):
        if self._exhausted():
            return STOP
        hc = self._hypercube()
        ucb_r = hc.ucb[0]
        lcb_c = hc.lcb[1:]
        phi = self.oco_phi.theta
        cap = self.s_budget.support(phi)
        denom = phi.dot(lcb_c)
        # one scalar pass over the arms: the first arm of best ratio among
        # those that consume, and the first of best reward among free ones
        ratio_arm, ratio_best, free_arm, free_best = None, -math.inf, None, -math.inf
        for arm, (u, den) in enumerate(zip(ucb_r.tolist(), denom.tolist())):
            if den <= 0.0:
                if free_arm is None or u > free_best:
                    free_arm, free_best = arm, u
            elif ratio_arm is None or u / den > ratio_best:
                ratio_arm, ratio_best = arm, u / den
        best_arm, best_val, best_prob = None, -math.inf, 0.0
        if ratio_arm is not None and cap >= 0.0:
            prob = min(1.0, cap / float(denom[ratio_arm]))
            best_arm, best_val, best_prob = ratio_arm, float(ucb_r[ratio_arm]) * prob, prob
        if free_arm is not None and free_best >= best_val:
            best_arm, best_val, best_prob = free_arm, free_best, 1.0
        if best_arm is None:
            self._z_t = np.zeros(self.n_res)
            self._pending_x = np.zeros(self.d)
            return idle_policy(self.m)
        w = np.zeros(self.m)
        w[best_arm] = best_prob
        pol = PolicyDistribution.unchecked(w, allow_idle=True)
        # the policy is one scaled arm, so V w is that column times its
        # probability: the products with w's zeros add exact zeros
        self._z_t = lcb_c[:, best_arm] * best_prob
        self._pending_x = np.concatenate(([float(ucb_r[best_arm]) * best_prob], self._z_t))
        return pol

    def _after_observe(self, arm, observation):
        super()._after_observe(arm, observation)
        grad = self.s_budget.support_point(self.oco_phi.theta) - self._z_t
        self.oco_phi = entropic_step(self.oco_phi, grad)


_STEPPERS = {
    "ucb_bwcr": UcbBwcrStepper,
    "ucb_bwk": UcbBwkStepper,
    "dual_oco": DualOcoStepper,
    "fw_primal": FwPrimalStepper,
    "fw_bwc": FwBwcStepper,
    "combined": CombinedStepper,
    "greedy_bwk": GreedyBwkStepper,
}


def make_algorithm(config: AlgorithmConfig, instance: InstanceModel) -> _StepperBase:
    # an unknown variant reaches the base, whose validation rejects it
    return _STEPPERS.get(config.variant, _StepperBase)(config, instance)

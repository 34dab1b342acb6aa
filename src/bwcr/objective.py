"""Concave objective oracles.

Each oracle knows its value, a supergradient, a certified Lipschitz constant
L (dual-norm bound on supergradients; may be inf), a smoothness constant C
(may be inf), and its Fenchel conjugate
    f*(theta) = max_{y in [0,1]^d} y . theta + f(y)
together with a maximizing y, which is what the dual algorithms differentiate.

Three families are provided: linear c . x, separable sums from a small
catalog (sqrt, log(1+x), 1 - (x-a)^2), and the negated distance to a convex
set (whose conjugate on the dual unit ball is the set's support function).
Separable structure is exploited for exact inner minimizations over the dual
ball, which backs the smoothed oracle.
"""
from __future__ import annotations

import math
import warnings
from typing import Callable, Optional

import numpy as np

from .errors import UnsupportedError
from .geometry import L2, Box, ConvexSet, NormPair, project_l2_ball, smoothed_distance

TERM_KINDS = ("sqrt", "log1p", "quad")


def _check_domain(x: np.ndarray, stacklevel: int = 3) -> np.ndarray:
    """``x`` as a float array, with a warning when an entry lies more than
    1e-12 outside [0, 1].

    One min/max pair settles the common in-range case; a NaN (which both
    propagate) falls through to the elementwise test, under which NaN
    entries alone never warn.
    """
    x = np.asarray(x, dtype=float)
    if x.size and not (x.min() >= -1e-12 and x.max() <= 1.0 + 1e-12):
        if ((x < -1e-12) | (x > 1.0 + 1e-12)).any():
            warnings.warn("objective argument outside [0,1]^d; clipping", stacklevel=stacklevel)
    return x


def _clip_domain(x: np.ndarray) -> np.ndarray:
    """Clip to [0, 1]^d, warning as :func:`_check_domain` does."""
    return _check_domain(x, stacklevel=4).clip(0.0, 1.0)


class Objective:
    norm: NormPair = L2
    lipschitz: float = math.inf
    smoothness: float = math.inf
    is_separable: bool = False

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def supergradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def conjugate(self, theta: np.ndarray, workspace: Optional[dict] = None) -> float:
        """f*(theta); ``workspace`` is caller-owned warm state, used where the
        conjugate is an LP (``NegativeDistance`` over halfspaces)."""
        raise NotImplementedError

    def conjugate_argmax(self, theta: np.ndarray, workspace: Optional[dict] = None) -> np.ndarray:
        raise NotImplementedError

    def conjugate_components(self, thetas: np.ndarray) -> np.ndarray:
        """Per-coordinate conjugate terms, vectorized; separable oracles only."""
        raise UnsupportedError("objective is not separable")

    def to_json(self) -> dict:
        raise NotImplementedError


class LinearObjective(Objective):
    """f(x) = c . x."""

    is_separable = True

    def __init__(self, coefficients, norm: NormPair = L2):
        self.c = np.asarray(coefficients, dtype=float)
        self.norm = norm
        self.lipschitz = norm.dual_norm(self.c)
        self.smoothness = 0.0

    @property
    def dim(self):
        return self.c.shape[0]

    def value(self, x):
        return float(self.c @ _clip_domain(x))

    def supergradient(self, x):
        _check_domain(x)   # the gradient is constant; only the warning is due
        return self.c.copy()

    def conjugate(self, theta, workspace=None):
        return float(np.sum(np.maximum(np.asarray(theta, dtype=float) + self.c, 0.0)))

    def conjugate_argmax(self, theta, workspace=None):
        return (np.asarray(theta, dtype=float) + self.c > 0.0).astype(float)

    def conjugate_components(self, thetas):
        return np.maximum(np.asarray(thetas, dtype=float) + self.c, 0.0)

    def to_json(self):
        return {"kind": "linear", "coefficients": self.c.tolist(), "norm": self.norm.primal}


class SeparableObjective(Objective):
    """f(x) = sum_j w_j * phi_j(x_j) with phi_j from the term catalog.

    sqrt terms are not Lipschitz (nor smooth) on [0, 1]; their certified
    constants are inf and algorithms that need finite constants must either
    avoid them or supply an explicit override.
    """

    is_separable = True

    def __init__(self, terms, norm: NormPair = L2):
        # terms: sequence of dicts {kind, weight, center?}
        self.terms = []
        for t in terms:
            kind = t["kind"]
            if kind not in TERM_KINDS:
                raise ValueError(f"unknown term kind {kind!r}")
            self.terms.append({
                "kind": kind,
                "weight": float(t.get("weight", 1.0)),
                "center": float(t.get("center", 0.5)),
            })
        if not self.terms:
            raise ValueError("at least one term required")
        self.norm = norm
        self._kinds = np.array([t["kind"] for t in self.terms])
        self._w = np.array([t["weight"] for t in self.terms])
        self._a = np.array([t["center"] for t in self.terms])
        if np.any(self._w <= 0):
            raise ValueError("term weights must be positive")
        sup_grad = np.empty(len(self.terms))
        curv = np.empty(len(self.terms))
        for i, t in enumerate(self.terms):
            w, a = t["weight"], t["center"]
            if t["kind"] == "sqrt":
                sup_grad[i], curv[i] = math.inf, math.inf
            elif t["kind"] == "log1p":
                sup_grad[i], curv[i] = w, w
            else:
                sup_grad[i], curv[i] = 2.0 * w * max(a, 1.0 - a), 2.0 * w
        self.lipschitz = float(norm.dual_norm(sup_grad)) if np.all(np.isfinite(sup_grad)) else math.inf
        gmax = float(np.max(curv))
        self.smoothness = gmax * len(self.terms) if math.isfinite(gmax) else math.inf

    @property
    def dim(self):
        return len(self.terms)

    def value(self, x):
        x = _clip_domain(x)
        total = 0.0
        for j, t in enumerate(self.terms):
            w, a, v = t["weight"], t["center"], x[j]
            if t["kind"] == "sqrt":
                total += w * math.sqrt(v)
            elif t["kind"] == "log1p":
                total += w * math.log1p(v)
            else:
                total += w * (1.0 - (v - a) ** 2)
        return total

    def supergradient(self, x):
        x = _clip_domain(x)
        g = np.empty(self.dim)
        for j, t in enumerate(self.terms):
            w, a, v = t["weight"], t["center"], x[j]
            if t["kind"] == "sqrt":
                g[j] = math.inf if v == 0.0 else w / (2.0 * math.sqrt(v))
            elif t["kind"] == "log1p":
                g[j] = w / (1.0 + v)
            else:
                g[j] = -2.0 * w * (v - a)
        return g

    def conjugate(self, theta, workspace=None):
        return float(np.sum(self.conjugate_components(np.asarray(theta, dtype=float))))

    def conjugate_components(self, thetas):
        t = np.asarray(thetas, dtype=float)
        out = np.empty_like(t)
        w, a = self._w, self._a
        for kind in TERM_KINDS:
            cols = np.flatnonzero(self._kinds == kind)
            if cols.size == 0:
                continue
            tc, wc = t[..., cols], w[cols]
            if kind == "sqrt":
                safe = np.where(tc < 0, tc, -1.0)
                vals = np.where(tc >= -wc / 2.0, tc + wc, -wc * wc / (4.0 * safe))
            elif kind == "log1p":
                safe = np.where(tc < 0, tc, -1.0)
                mid = -wc - tc + wc * np.log(np.maximum(-wc / safe, 1e-300))
                vals = np.where(tc >= -wc / 2.0, tc + wc * math.log(2.0),
                                np.where(tc <= -wc, 0.0, mid))
            else:
                ac = a[cols]
                y = np.clip(ac + tc / (2.0 * wc), 0.0, 1.0)
                vals = tc * y + wc * (1.0 - (y - ac) ** 2)
            out[..., cols] = vals
        return out

    def conjugate_argmax(self, theta, workspace=None):
        t = np.asarray(theta, dtype=float)
        y = np.empty_like(t)
        for j, term in enumerate(self.terms):
            w, a, tj = term["weight"], term["center"], t[j]
            if term["kind"] == "sqrt":
                y[j] = 1.0 if tj >= -w / 2.0 else min(1.0, w * w / (4.0 * tj * tj))
            elif term["kind"] == "log1p":
                if tj >= -w / 2.0:
                    y[j] = 1.0
                elif tj <= -w:
                    y[j] = 0.0
                else:
                    y[j] = -w / tj - 1.0
            else:
                y[j] = min(1.0, max(0.0, a + tj / (2.0 * w)))
        return y

    def to_json(self):
        return {"kind": "separable", "terms": [dict(t) for t in self.terms],
                "norm": self.norm.primal}


class NegativeDistance(Objective):
    """f(x) = -d(x, S); 1-Lipschitz, non-smooth, conjugate = support of S
    (valid on the dual unit ball, which is where every algorithm keeps theta).
    """

    def __init__(self, target: ConvexSet, norm: NormPair = L2):
        self.target = target
        self.norm = norm
        self.lipschitz = 1.0
        self.smoothness = math.inf
        self.is_separable = isinstance(target, Box)

    @property
    def dim(self):
        return self.target.dim

    def value(self, x):
        return -self.target.distance(_clip_domain(x), self.norm)

    def supergradient(self, x):
        x = _clip_domain(x)
        diff = x - self.target.project(x)
        if not diff.any():
            return np.zeros_like(x)
        if self.norm.primal == "l2":
            return -diff / float(np.linalg.norm(diff))
        if not isinstance(self.target, Box):
            raise UnsupportedError("neg-distance supergradient: l1/linf need a box target")
        # a box's clip is nearest in every norm, so -d is -||.|| of the gap
        if self.norm.primal == "l1":
            return -np.sign(diff)
        j = int(np.argmax(np.abs(diff)))
        return -np.sign(diff[j]) * np.eye(x.shape[0])[j]

    def conjugate(self, theta, workspace=None):
        return self.target.support(theta, workspace)

    def conjugate_argmax(self, theta, workspace=None):
        return self.target.support_point(theta, workspace)

    def conjugate_components(self, thetas):
        if not self.is_separable:
            raise UnsupportedError("objective is not separable")
        t = np.asarray(thetas, dtype=float)
        box: Box = self.target
        return np.maximum(t * box.upper, t * box.lower)

    def to_json(self):
        return {"kind": "neg_distance", "set": self.target.to_json(), "norm": self.norm.primal}


def objective_from_json(doc: dict) -> Objective:
    from .geometry import set_from_json
    kind = doc.get("kind")
    norm = NormPair(doc.get("norm", "l2"))
    if kind == "linear":
        return LinearObjective(doc["coefficients"], norm)
    if kind == "separable":
        return SeparableObjective(doc["terms"], norm)
    if kind == "neg_distance":
        return NegativeDistance(set_from_json(doc["set"]), norm)
    raise ValueError(f"unknown objective kind {kind!r}")


def fenchel(f: Objective, theta: np.ndarray) -> float:
    """Fenchel conjugate f*(theta) = max_y {y . theta + f(y)} over [0,1]^d."""
    return f.conjugate(theta)


def minimize_separable_ball(fvec: Callable[[np.ndarray], np.ndarray], d: int,
                            radius: float, span: float | None = None,
                            gs_iters: int = 90):
    """Minimize sum_j F_j(theta_j) over the l2 ball of the given radius.

    ``fvec`` maps an array of per-coordinate arguments to per-coordinate
    values, each F_j convex.  First the coordinatewise unconstrained minimum
    over [-span, span] is found by vectorized golden-section; if it violates
    the ball, the quadratic penalty multiplier lambda is bisected so that the
    penalized minimizer lands on the sphere (exact by KKT).
    """
    span = radius if span is None else span
    if not math.isfinite(span):
        raise ValueError("a finite search span is required")

    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def coord_min(lam: float) -> np.ndarray:
        lo = np.full(d, -span)
        hi = np.full(d, span)
        pen = (lambda t: fvec(t) + lam * t * t) if lam > 0.0 else fvec
        for _ in range(gs_iters):
            x1 = hi - invphi * (hi - lo)
            x2 = lo + invphi * (hi - lo)
            take_left = pen(x1) <= pen(x2)
            hi = np.where(take_left, x2, hi)
            lo = np.where(take_left, lo, x1)
        return (lo + hi) / 2.0

    theta = coord_min(0.0)
    if np.linalg.norm(theta) <= radius + 1e-12:
        return theta, float(np.sum(fvec(theta)))
    lam_lo, lam_hi = 0.0, 1.0
    for _ in range(80):
        if np.linalg.norm(coord_min(lam_hi)) <= radius:
            break
        lam_hi *= 2.0
    for _ in range(70):
        lam_mid = 0.5 * (lam_lo + lam_hi)
        if np.linalg.norm(coord_min(lam_mid)) > radius:
            lam_lo = lam_mid
        else:
            lam_hi = lam_mid
    theta = coord_min(lam_hi)
    nrm = np.linalg.norm(theta)
    if nrm > radius > 0.0:
        theta = theta * (radius / nrm)
    return theta, float(np.sum(fvec(theta)))


def _pg_min_conjugate(f: Objective, z: np.ndarray, radius: float, sigma_over_l: float,
                      iters: int, theta0: Optional[np.ndarray] = None):
    """Projected (sub)gradient for min f*(theta) + (s/2)|theta|^2 - theta . z
    over the l2 ball; returns (best value, best theta).  Step decay 1/(k+1).
    """
    d = z.shape[0]
    theta = np.zeros(d) if theta0 is None else theta0.copy()
    scale = radius if math.isfinite(radius) and radius > 0 else 1.0
    best_v, best_t = math.inf, theta.copy()
    for k in range(iters):
        y = f.conjugate_argmax(theta)
        val = f.conjugate(theta) + 0.5 * sigma_over_l * float(theta @ theta) - float(theta @ z)
        if val < best_v:
            best_v, best_t = val, theta.copy()
        grad = y + sigma_over_l * theta - z
        theta = theta - (scale / (k + 1.0)) * grad
        if math.isfinite(radius):
            theta = project_l2_ball(theta, radius)
    val = f.conjugate(theta) + 0.5 * sigma_over_l * float(theta @ theta) - float(theta @ z)
    if val < best_v:
        best_v, best_t = val, theta
    return best_v, best_t


def duality_gap_check(f: Objective, z: np.ndarray, iters: int = 500) -> float:
    """|f(z) - min_{dual ball} (f*(theta) - theta . z)|, test-suite diagnostic.

    The minimum is approached by projected gradient plus the stationary
    candidate theta = -supergradient(z); by weak duality every candidate is
    an upper bound for the true minimum, so the best one is kept.
    """
    if f.norm.primal != "l2":
        raise UnsupportedError("duality_gap_check supports the l2 norm only")
    z = np.asarray(z, dtype=float)
    best, _ = _pg_min_conjugate(f, z, f.lipschitz, 0.0, iters)
    g = f.supergradient(z)
    if np.all(np.isfinite(g)) and np.linalg.norm(g) <= f.lipschitz + 1e-9:
        cand = f.conjugate(-g) + float(g @ z)
        best = min(best, cand)
    return abs(f.value(z) - best)


class SmoothedObjective:
    """Nesterov smoothing f_sigma(z) = min_{|theta| <= L} f*(theta)
    + (sigma/2L)|theta|^2 - theta . z; concave, differentiable, (dL/sigma)-smooth,
    and sandwiched by f <= f_sigma <= f + sigma L / 2.
    """

    def __init__(self, base: Objective, sigma: float):
        if sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if base.norm.primal != "l2":
            raise UnsupportedError("smoothing is implemented for the l2 norm only")
        self.base = base
        self.sigma = float(sigma)
        self.lipschitz = base.lipschitz
        self.norm = base.norm
        if not math.isfinite(base.lipschitz) and not isinstance(base, NegativeDistance):
            raise UnsupportedError("smoothing needs a finite Lipschitz constant")
        self.smoothness = base.dim * self.lipschitz / self.sigma

    @property
    def dim(self):
        return self.base.dim

    def value_and_gradient(self, z: np.ndarray):
        z = np.asarray(z, dtype=float)
        if isinstance(self.base, NegativeDistance):
            val, grad = smoothed_distance(z, self.base.target, self.sigma)
            return -val, -grad
        # every other objective kind is separable
        L = self.lipschitz
        s = self.sigma / (2.0 * L)
        fvec = lambda t: self.base.conjugate_components(t) + s * t * t - t * z
        theta, val = minimize_separable_ball(fvec, self.dim, L)
        return val, -theta

    def value(self, z):
        return self.value_and_gradient(z)[0]

    def gradient(self, z):
        return self.value_and_gradient(z)[1]


def smoothed(f: Objective, sigma: float) -> SmoothedObjective:
    return SmoothedObjective(f, sigma)

"""Concave objective oracles.

Each oracle knows its value, a supergradient, a certified Lipschitz constant
L (dual-norm bound on supergradients; may be inf), a smoothness constant C
(may be inf), and its Fenchel conjugate
    f*(theta) = max_{y in [0,1]^d} y . theta + f(y)
together with a maximizing y, which is what the dual algorithms differentiate.

Three families are provided: linear c . x, separable sums from a small
catalog (sqrt, log(1+x), 1 - (x-a)^2), and the negated distance to a convex
set (whose conjugate on the dual unit ball is the set's support function).
The negated distance is the catalog's one non-smooth Lipschitz objective; in
l2 its Nesterov smoothing is closed-form (``NegativeDistance.smoothed_gradient``).
"""
from __future__ import annotations

import math
import warnings
from typing import Optional

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

    def to_json(self) -> dict:
        raise NotImplementedError


class LinearObjective(Objective):
    """f(x) = c . x."""

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

    def to_json(self):
        return {"kind": "linear", "coefficients": self.c.tolist(), "norm": self.norm.primal}


class SeparableObjective(Objective):
    """f(x) = sum_j w_j * phi_j(x_j) with phi_j from the term catalog.

    sqrt terms are not Lipschitz (nor smooth) on [0, 1]; their certified
    constants are inf and algorithms that need finite constants must either
    avoid them or supply an explicit override.
    """

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

    def smoothed_gradient(self, z: np.ndarray, sigma: float) -> np.ndarray:
        """Gradient of Nesterov's smoothing of f in the l2 norm: f_sigma =
        -d_sigma(., S), the Huber-smoothed distance of :func:`smoothed_distance`,
        which is (1/sigma)-smooth with f <= f_sigma <= f + sigma/2.  The caller
        checks the norm once."""
        return -smoothed_distance(z, self.target, sigma)[1]

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


def duality_gap_check(f: Objective, z: np.ndarray, iters: int = 500) -> float:
    """|f(z) - min_{dual ball} (f*(theta) - theta . z)|, test-suite diagnostic.

    The minimum is approached by projected gradient from theta = 0 over the
    ball of radius L (step L/(k+1)) plus the stationary candidate
    theta = -supergradient(z); by weak duality every candidate is an upper
    bound for the true minimum, so the best one is kept.
    """
    if f.norm.primal != "l2":
        raise UnsupportedError("duality_gap_check supports the l2 norm only")
    z = np.asarray(z, dtype=float)
    radius = f.lipschitz
    scale = radius if math.isfinite(radius) and radius > 0 else 1.0
    theta = np.zeros(z.shape[0])
    best = math.inf
    for k in range(iters):
        best = min(best, f.conjugate(theta) - float(theta @ z))
        theta = theta - (scale / (k + 1.0)) * (f.conjugate_argmax(theta) - z)
        if math.isfinite(radius):
            theta = project_l2_ball(theta, radius)
    best = min(best, f.conjugate(theta) - float(theta @ z))
    g = f.supergradient(z)
    if np.all(np.isfinite(g)) and np.linalg.norm(g) <= f.lipschitz + 1e-9:
        cand = f.conjugate(-g) + float(g @ z)
        best = min(best, cand)
    return abs(f.value(z) - best)

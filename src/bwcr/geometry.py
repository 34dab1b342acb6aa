"""Norm machinery and convex target sets.

Every set type answers the same questions: support function h_S(theta),
support point (an argmax), Euclidean projection, distance, membership, and
(1-eps)-shrinkage for downward-closed sets.  All sets live inside the unit
box [0, 1]^d (shrunken sets inside a scaled copy of it).

The smoothed distance is the strongly-regularized dual construction
    d_sigma(z) = max_{|theta| <= 1} theta . z - h_S(theta) - (sigma/2)|theta|^2,
which for the Euclidean norm collapses to a Huber function of the plain
distance and has the closed-form three-case gradient implemented in
:func:`smoothed_distance`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UnsupportedError
from .lp import solve_dense_lp

_DUAL = {"l2": "l2", "linf": "l1", "l1": "linf"}


@dataclass(frozen=True)
class NormPair:
    """A primal norm and its dual, with the norm of the all-ones vector."""

    primal: str = "l2"

    def __post_init__(self):
        if self.primal not in _DUAL:
            raise ValueError(f"unknown norm {self.primal!r}")

    @property
    def dual(self) -> str:
        return _DUAL[self.primal]

    def norm(self, v: np.ndarray) -> float:
        return _vector_norm(v, self.primal)

    def dual_norm(self, v: np.ndarray) -> float:
        return _vector_norm(v, self.dual)

    def ones_norm(self, d: int) -> float:
        if self.primal == "l2":
            return math.sqrt(d)
        if self.primal == "linf":
            return 1.0
        return float(d)


def _vector_norm(v: np.ndarray, kind: str) -> float:
    v = np.asarray(v, dtype=float)
    if kind == "l2":
        return float(np.linalg.norm(v))
    if kind == "linf":
        return float(np.max(np.abs(v))) if v.size else 0.0
    return float(np.sum(np.abs(v)))


L2 = NormPair("l2")


def project_l2_ball(v: np.ndarray, radius: float) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    flat = v.ravel()
    # sqrt(v . v) is what np.linalg.norm computes for a real vector
    nrm = math.sqrt(flat.dot(flat))
    if nrm <= radius or not math.isfinite(radius):
        return v
    return v * (radius / nrm)


class ConvexSet:
    """Interface shared by all target-set representations."""

    dim: int

    def support(self, theta: np.ndarray, workspace: Optional[dict] = None) -> float:
        """h_S(theta) = max over S of theta . x.  ``workspace`` is warm state
        that the caller owns and passes back on its next call (a support LP's
        basis); sets answered in closed form ignore it."""
        raise NotImplementedError

    def support_point(self, theta: np.ndarray, workspace: Optional[dict] = None) -> np.ndarray:
        """A maximizer of theta . x over S; ``workspace`` as for :meth:`support`."""
        raise NotImplementedError

    def support_and_point(self, theta: np.ndarray, workspace: Optional[dict] = None):
        """(h_S(theta), a maximizer): the results of :meth:`support` then
        :meth:`support_point`, which a set answering both from one
        computation returns from one call."""
        return self.support(theta, workspace), self.support_point(theta, workspace)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Euclidean projection onto the set."""
        raise NotImplementedError

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        raise NotImplementedError

    def distance(self, x: np.ndarray, norm: NormPair = L2) -> float:
        if norm.primal != "l2":
            raise UnsupportedError(f"{type(self).__name__} distance supports l2 only")
        return float(np.linalg.norm(np.asarray(x, dtype=float) - self.project(x)))

    def distance_many(self, xs: np.ndarray, norm: NormPair = L2) -> np.ndarray:
        return np.array([self.distance(x, norm) for x in np.atleast_2d(xs)])

    def shrink(self, eps: float) -> "ConvexSet":
        raise UnsupportedError(f"{type(self).__name__} does not support shrinkage")

    def to_json(self) -> dict:
        raise NotImplementedError


class Box(ConvexSet):
    """Axis-aligned box [lo, hi], the workhorse set (knapsack budgets etc.)."""

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError("bounds must be equal-length vectors")
        if np.any(self.lower > self.upper + 1e-12):
            raise ValueError("empty box")
        if np.any(self.lower < -1e-12) or np.any(self.upper > 1.0 + 1e-12):
            raise ValueError("box must lie inside [0, 1]^d")
        self.dim = self.lower.shape[0]

    def support(self, theta, workspace=None):
        theta = np.asarray(theta, dtype=float)
        return float(np.where(theta >= 0.0, theta * self.upper, theta * self.lower).sum())

    def support_point(self, theta, workspace=None):
        theta = np.asarray(theta, dtype=float)
        return np.where(theta >= 0.0, self.upper, self.lower)

    def project(self, x):
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def distance(self, x, norm=L2):
        gap = np.asarray(x, dtype=float) - self.project(x)
        return _vector_norm(gap, norm.primal)

    def distance_many(self, xs, norm=L2):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        gap = xs - np.clip(xs, self.lower, self.upper)
        if norm.primal == "l2":
            return np.linalg.norm(gap, axis=1)
        if norm.primal == "linf":
            return np.max(np.abs(gap), axis=1)
        return np.sum(np.abs(gap), axis=1)

    def shrink(self, eps):
        if np.any(self.lower > 1e-12):
            raise UnsupportedError("shrink requires a downward-closed box (lower = 0)")
        if not 0.0 <= eps <= 1.0:
            raise ValueError("eps must lie in [0, 1]")
        return Box(self.lower, self.upper * (1.0 - eps))

    def to_json(self):
        return {"kind": "box", "lower": self.lower.tolist(), "upper": self.upper.tolist()}


class Halfspaces(ConvexSet):
    """Intersection of halfspaces with the box [0, upper]:
    {x : 0 <= x <= upper, normals @ x <= offsets}.
    """

    def __init__(self, normals, offsets, upper=None):
        self.normals = np.atleast_2d(np.asarray(normals, dtype=float))
        self.offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
        if self.normals.shape[0] != self.offsets.shape[0]:
            raise ValueError("one offset per normal required")
        self.dim = self.normals.shape[1]
        self.upper = np.ones(self.dim) if upper is None else np.asarray(upper, dtype=float)
        if np.any(self.upper > 1.0 + 1e-12) or np.any(self.upper < 0.0):
            raise ValueError("upper bound must lie in [0, 1]")
        # the support LP's rows, {normals x <= offsets, x <= upper}
        self._lp_rows = np.vstack([self.normals, np.eye(self.dim)])
        self._lp_rhs = np.concatenate([self.offsets, self.upper])
        if self.normals.shape[0] and solve_dense_lp(
            np.zeros(self.dim), a_ub=self._lp_rows, b_ub=self._lp_rhs,
        ).status != "optimal":
            raise ValueError("empty halfspace intersection")

    @property
    def k(self) -> int:
        return self.normals.shape[0]

    def support(self, theta, workspace=None):
        return self._support_impl(np.asarray(theta, dtype=float), workspace)[0]

    def support_point(self, theta, workspace=None):
        return self._support_impl(np.asarray(theta, dtype=float), workspace)[1]

    def support_and_point(self, theta, workspace=None):
        if self.k > 1:
            # the LP's point comes from the second, certifying solve, as it
            # would from a support_point call after a support call
            return super().support_and_point(theta, workspace)
        # the knapsack's value is theta . x at the point it returns
        theta = np.asarray(theta, dtype=float)
        x = self.support_point(theta)
        return float(theta.dot(x)), x

    def _support_impl(self, theta, workspace):
        if self.k == 1:
            return self._support_knapsack(theta, self.normals[0], self.offsets[0])
        # only the cost changes between calls, so the caller's last basis is
        # always primal feasible: the LP certifies it or pivots from it, and
        # while the basis stays the workspace's inverse of it is reused.  The
        # basis and the LP's form live in the caller's workspace, never on
        # the set, which runs with different seeds share.
        ws = {} if workspace is None else workspace
        res = solve_dense_lp(theta, a_ub=self._lp_rows, b_ub=self._lp_rhs,
                             basis=ws.get("basis"), workspace=workspace)
        if res.status != "optimal":
            raise ValueError("support LP failed; set invalid")
        ws["basis"] = res.basis
        return res.value, res.x

    def _support_knapsack(self, theta, a, b):
        # max theta.x over 0 <= x <= upper, a.x <= b: start at the box argmax
        # and buy back constraint slack at the cheapest theta-loss per unit.
        # The moves are scalar float arithmetic; the two inner products stay
        # numpy's (BLAS) dot, whose rounding the results must reproduce.
        th, av, up = theta.tolist(), a.tolist(), self.upper.tolist()
        xs = [u if t > 0.0 else 0.0 for t, u in zip(th, up)]
        x = np.array(xs)
        load = float(a.dot(x))
        if load <= b:
            return float(theta.dot(x)), x
        moves = []  # (loss rate, j, direction, capacity in units of a-load)
        for j, (t, aj, u) in enumerate(zip(th, av, up)):
            if t > 0.0 and aj > 0.0 and xs[j] > 0.0:
                moves.append((t / aj, j, -1.0, aj * xs[j]))
            elif t <= 0.0 and aj < 0.0 and u > 0.0:
                moves.append((-t / -aj, j, +1.0, -aj * u))
        moves.sort()   # by rate, then index (indices are distinct)
        excess = load - float(b)
        for _, j, direction, cap in moves:
            take = min(cap, excess)
            xs[j] += direction * take / abs(av[j])
            excess -= take
            if excess <= 1e-15:
                break
        if excess > 1e-9:
            raise ValueError("halfspace does not intersect the box; set invalid")
        x = np.array(xs)
        return float(theta.dot(x)), x

    def _project_halfspace(self, x, a, b):
        viol = float(a @ x) - b
        if viol <= 0.0:
            return x
        return x - (viol / float(a @ a)) * a

    def project(self, x):
        x = np.asarray(x, dtype=float)
        if self.contains(x):
            return x.copy()
        # Dykstra's alternating projections over the box and each halfspace
        sets = self.k + 1
        y = x.copy()
        corrections = np.zeros((sets, self.dim))
        for _ in range(5000):
            y_prev = y.copy()
            for s in range(sets):
                z = y + corrections[s]
                if s == 0:
                    y = np.clip(z, 0.0, self.upper)
                else:
                    y = self._project_halfspace(z, self.normals[s - 1], self.offsets[s - 1])
                corrections[s] = z - y
            if np.max(np.abs(y - y_prev)) < 1e-13:
                break
        return y

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, dtype=float)
        if (x < -tol).any() or (x > self.upper + tol).any():
            return False
        return bool((self.normals.dot(x) <= self.offsets + tol).all())

    def distance_many(self, xs, norm=L2):
        if norm.primal != "l2":
            raise UnsupportedError("Halfspaces distance supports l2 only")
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if self.k == 1:
            # single halfspace + box: batched Dykstra over two sets
            return self._batch_dykstra(xs)
        return np.array([self.distance(x) for x in xs])

    def _batch_dykstra(self, xs):
        # feasibility masks and regret traces need ~1e-8 accuracy, not 1e-12;
        # cap the sweep count accordingly
        y = xs.copy()
        corr = np.zeros((2, *xs.shape))
        a, b = self.normals[0], self.offsets[0]
        aa = float(a @ a)
        for _ in range(1500):
            y_prev = y.copy()
            z = y + corr[0]
            y = np.clip(z, 0.0, self.upper)
            corr[0] = z - y
            z = y + corr[1]
            viol = np.maximum(z @ a - b, 0.0)
            y = z - np.outer(viol / aa, a)
            corr[1] = z - y
            if np.max(np.abs(y - y_prev)) < 1e-12:
                break
        return np.linalg.norm(xs - y, axis=1)

    def shrink(self, eps):
        if np.any(self.normals < -1e-12) or np.any(self.offsets < -1e-12):
            raise UnsupportedError("shrink requires nonnegative normals and offsets")
        if not 0.0 <= eps <= 1.0:
            raise ValueError("eps must lie in [0, 1]")
        return Halfspaces(self.normals, self.offsets * (1.0 - eps), self.upper * (1.0 - eps))

    def to_json(self):
        return {
            "kind": "halfspaces",
            "normals": self.normals.tolist(),
            "offsets": self.offsets.tolist(),
            "upper": self.upper.tolist(),
        }


class VPolytope(ConvexSet):
    """Convex hull of an explicit vertex list."""

    def __init__(self, points, downward_closed: bool = False):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.points.shape[0] < 1:
            raise ValueError("at least one vertex required")
        if self.points.min() < -1e-12 or self.points.max() > 1.0 + 1e-12:
            raise ValueError("vertices must lie in [0, 1]^d")
        self.dim = self.points.shape[1]
        self.downward_closed = downward_closed

    def support(self, theta, workspace=None):
        return float(np.max(self.points @ np.asarray(theta, dtype=float)))

    def support_point(self, theta, workspace=None):
        vals = self.points @ np.asarray(theta, dtype=float)
        return self.points[int(np.argmax(vals))].copy()

    def project(self, x):
        lam = self._projection_weights(np.asarray(x, dtype=float))
        return lam @ self.points

    def _projection_weights(self, x):
        """Frank-Wolfe with away steps for min |P^T lam - x|^2 over the simplex."""
        k = self.points.shape[0]
        lam = np.zeros(k)
        start = int(np.argmin(np.linalg.norm(self.points - x, axis=1)))
        lam[start] = 1.0
        y = self.points[start].copy()
        for _ in range(20_000):
            grad = 2.0 * (self.points @ (y - x))
            s = int(np.argmin(grad))
            gap = float(lam @ grad - grad[s])
            if gap <= 1e-14:
                break
            active = np.flatnonzero(lam > 0)
            a = int(active[np.argmax(grad[active])])
            fw_gain = float(lam @ grad - grad[s])
            away_gain = float(grad[a] - lam @ grad)
            if fw_gain >= away_gain:
                dvec = self.points[s] - y
                tmax = 1.0
                dl_s, dl_a = 1.0, None
            else:
                dvec = y - self.points[a]
                tmax = lam[a] / (1.0 - lam[a]) if lam[a] < 1.0 else 0.0
                dl_s, dl_a = None, 1.0
            denom = float(dvec @ dvec)
            if denom <= 0.0 or tmax <= 0.0:
                break
            t = min(max(-float((y - x) @ dvec) / denom, 0.0), tmax)
            if t <= 0.0:
                break
            if dl_s is not None:
                lam *= 1.0 - t
                lam[s] += t
            else:
                lam *= 1.0 + t
                lam[a] -= t * 1.0
                lam[a] = max(lam[a], 0.0)
                lam /= lam.sum()
            y = lam @ self.points
        return lam

    def contains(self, x, tol=1e-7):
        return self.distance(x) <= tol

    def shrink(self, eps):
        if not self.downward_closed:
            raise UnsupportedError("shrink requires the downward-closed flag")
        if not 0.0 <= eps <= 1.0:
            raise ValueError("eps must lie in [0, 1]")
        return VPolytope(self.points * (1.0 - eps), downward_closed=True)

    def to_json(self):
        return {"kind": "vertices", "points": self.points.tolist(),
                "downward_closed": self.downward_closed}


def set_from_json(doc: dict) -> ConvexSet:
    kind = doc.get("kind")
    if kind == "box":
        return Box(doc["lower"], doc["upper"])
    if kind == "halfspaces":
        return Halfspaces(doc["normals"], doc["offsets"], doc.get("upper"))
    if kind == "vertices":
        return VPolytope(doc["points"], bool(doc.get("downward_closed", False)))
    raise ValueError(f"unknown set kind {kind!r}")


def smoothed_distance(x: np.ndarray, s: ConvexSet, sigma: float):
    """Euclidean smoothed distance and its gradient.

    Value is the Huber transform of the plain distance r = |x - proj(x)|:
    r - sigma/2 when r >= sigma, r^2 / (2 sigma) below, 0 inside the set.
    Gradient is the matching three-case expression; at the r = sigma seam both
    branches agree and the >= branch is used.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    x = np.asarray(x, dtype=float)
    pi = s.project(x)
    diff = x - pi
    r = float(np.linalg.norm(diff))
    if r == 0.0:
        return 0.0, np.zeros_like(x)
    if r >= sigma:
        return r - sigma / 2.0, diff / r
    return r * r / (2.0 * sigma), diff / sigma

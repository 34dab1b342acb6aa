"""Confidence estimation: per-entry UCB/LCB hypercubes and, for contextual
instances, per-component confidence ellipsoids maintained from Gram matrices.

The radius function is rad(nu, N) = sqrt(crad * nu / N) + crad / N and the
empirical mean of an arm uses denominator (plays + 1), which biases unplayed
arms toward zero; both choices are load-bearing for the interval bounds
max{0, mu - 2 rad} / min{1, mu + 2 rad} used everywhere downstream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def rad(nu, count, crad):
    """Confidence radius sqrt(crad*nu/count) + crad/count (vectorized).

    ``count`` must be >= 1 and ``crad`` > 0.
    """
    nu = np.asarray(nu, dtype=float)
    count = np.asarray(count, dtype=float)
    if np.any(count < 1):
        raise ValueError("count must be >= 1")
    if np.any(nu < 0):
        raise ValueError("nu must be nonnegative")
    if crad <= 0:
        raise ValueError("crad must be positive")
    out = np.sqrt(crad * nu / count) + crad / count
    return float(out) if out.ndim == 0 else out


def default_crad(m: int, horizon: int, d: int, delta: float) -> float:
    """Default confidence parameter log(m*T*d/delta)."""
    return math.log(m * horizon * d / delta)


@dataclass(frozen=True)
class Hypercube:
    """Product of per-entry confidence intervals [lcb, ucb] in [0, 1]^(d x m)."""

    lcb: np.ndarray
    ucb: np.ndarray

    def __post_init__(self):
        if self.lcb.shape != self.ucb.shape:
            raise ValueError("lcb/ucb shape mismatch")
        if np.any(self.lcb < -1e-12) or np.any(self.ucb > 1.0 + 1e-12):
            raise ValueError("bounds must lie in [0, 1]")
        if np.any(self.lcb > self.ucb + 1e-12):
            raise ValueError("lcb must not exceed ucb")

    @classmethod
    def unchecked(cls, lcb: np.ndarray, ucb: np.ndarray) -> "Hypercube":
        """Wrap bound arrays without validation (hot paths; caller guarantees
        the invariants, e.g. bounds maintained by ConfidenceState)."""
        hc = object.__new__(cls)
        object.__setattr__(hc, "lcb", lcb)
        object.__setattr__(hc, "ucb", ucb)
        return hc


class ConfidenceState:
    """Play counts and observation sums per arm, plus the radius parameter.

    The interval bounds are maintained incrementally: an update touches only
    the played arm's column.
    """

    def __init__(self, d: int, m: int, crad: float):
        if crad <= 0:
            raise ValueError("crad must be positive")
        self.d = d
        self.m = m
        self.crad = float(crad)
        self.counts = np.zeros(m, dtype=np.int64)
        self.sums = np.zeros((d, m))
        self.t = 0
        self._lcb = np.zeros((d, m))
        self._ucb = np.full((d, m), min(1.0, 2.0 * self.crad))

    def update(self, arm: int, observation: np.ndarray):
        """Ingest one play of ``arm``.  The played column is recomputed in
        scalar arithmetic: the same IEEE operations, in the same order, as
        the vectorized form mu = s/n, r2 = 2 (sqrt(crad mu / n) + crad / n),
        so the bounds are bit-identical to it (math.sqrt and np.sqrt are
        both correctly rounded), without numpy's per-call cost on a d-vector.
        """
        counts = self.counts
        counts[arm] += 1
        self.t += 1
        n = float(counts[arm] + 1)
        crad = self.crad
        crad_n = crad / n
        col = self.sums[:, arm]
        col += observation
        lcb, ucb = [], []
        for s in col.tolist():
            mu = s / n
            r2 = 2.0 * (math.sqrt(crad * mu / n) + crad_n)
            lcb.append(max(mu - r2, 0.0))
            ucb.append(min(mu + r2, 1.0))
        self._lcb[:, arm] = lcb
        self._ucb[:, arm] = ucb

    def bounds(self):
        """Current (lcb, ucb) arrays; treat as read-only."""
        return self._lcb, self._ucb


def vertex(hc: Hypercube, theta: np.ndarray) -> np.ndarray:
    """Corner of the hypercube minimizing theta . (column) for every column.

    Row j comes from the upper bounds when theta_j <= 0 and from the lower
    bounds otherwise, which minimizes the inner product componentwise.
    """
    theta = np.asarray(theta, dtype=float)
    return np.where(theta[:, None] <= 0.0, hc.ucb, hc.lcb)


class EllipsoidState:
    """Per-component confidence ellipsoids for contextual instances.

    For each component j we keep the Gram matrix B_j = I + sum x x^T over the
    contexts of played arms, its inverse (rank-one updated, rebuilt every
    ``refresh_every`` updates to bound drift), and the regularized
    least-squares center.  The confidence set is
    {w : (w - center_j)^T B_j (w - center_j) <= radius_sq}.
    """

    def __init__(self, d: int, n: int, radius_sq: float | None = None, refresh_every: int = 10_000):
        self.d = d
        self.n = n
        self.radius_sq = float(n if radius_sq is None else radius_sq)
        self.refresh_every = refresh_every
        self.gram = np.repeat(np.eye(n)[None, :, :], d, axis=0)
        self.gram_inv = np.repeat(np.eye(n)[None, :, :], d, axis=0)
        self.moment = np.zeros((d, n))
        self.center = np.zeros((d, n))
        self._updates = 0

    def update(self, contexts_col: np.ndarray, observation: np.ndarray):
        """Ingest one play: ``contexts_col[j]`` is x_{j,arm}, observation is v_t."""
        for j in range(self.d):
            x = contexts_col[j]
            self.gram[j] += np.outer(x, x)
            binv = self.gram_inv[j]
            bx = binv @ x
            self.gram_inv[j] = binv - np.outer(bx, bx) / (1.0 + x @ bx)
            self.moment[j] += x * observation[j]
        self._updates += 1
        if self._updates % self.refresh_every == 0:
            self.gram_inv = np.linalg.inv(self.gram)
        self.center = np.einsum("jab,jb->ja", self.gram_inv, self.moment)

    def contains(self, j: int, w: np.ndarray, tol: float = 1e-9) -> bool:
        diff = w - self.center[j]
        return float(diff @ self.gram[j] @ diff) <= self.radius_sq + tol

    def hypercube(self, contexts: np.ndarray) -> Hypercube:
        """Per-entry intervals for ``contexts`` shaped (d, m, n): entry (j, i)
        is x_{j,i} . center_j -+ sqrt(radius_sq) ||x_{j,i}||_{B_j^-1}, the exact
        range of x_{j,i} . w over the j-th ellipsoid {w : (w - center_j)^T B_j
        (w - center_j) <= radius_sq} (Cauchy-Schwarz in the B_j^-1 norm),
        clipped to [0, 1], the range of every mean.  For every p the box
        [L p, U p] contains the ellipsoids' achievable set of [0, 1]-valued
        means, by the triangle inequality.
        """
        mid = np.einsum("jin,jn->ji", contexts, self.center)
        quad = np.einsum("jin,jin->ji", contexts @ self.gram_inv, contexts)
        half = np.sqrt(self.radius_sq * np.maximum(quad, 0.0))
        return Hypercube.unchecked(np.clip(mid - half, 0.0, 1.0),
                                   np.clip(mid + half, 0.0, 1.0))


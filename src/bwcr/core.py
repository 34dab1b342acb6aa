"""Problem instances, policy distributions, arm sampling, and run records.

Randomness policy: every random draw comes from a numpy Generator created by
:func:`substream`.  A substream is addressed by ``(seed, run, purpose)`` via
``SeedSequence`` spawn keys, so distinct runs and distinct purposes (arm
draws vs. outcome draws vs. instance generation) never share a stream, and a
rerun with the same addressing is bitwise identical.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Optional

import numpy as np

IDLE = -1

# purpose tags for substream(); one stream per (seed, run, purpose)
PURPOSE_ARMS = 0
PURPOSE_OUTCOMES = 1
PURPOSE_GENERATOR = 2
PURPOSE_ALGORITHM = 3

OUTCOME_KINDS = ("bernoulli", "fixed", "scaled_beta")


def substream(seed: int, run: int = 0, purpose: int = 0) -> np.random.Generator:
    """Deterministic, portable generator for the given (seed, run, purpose)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(run, purpose)))


@dataclass(frozen=True)
class ContextualStructure:
    """Known context vectors plus hidden per-component weights.

    ``contexts[j, i]`` is the n-vector attached to component j of arm i and
    ``weights[j]`` the hidden weight vector of component j; the instance mean
    is their inner product.
    """

    contexts: np.ndarray  # (d, m, n)
    weights: np.ndarray   # (d, n)

    @property
    def n(self) -> int:
        return self.contexts.shape[2]

    def implied_means(self) -> np.ndarray:
        return np.einsum("jin,jn->ji", self.contexts, self.weights)


@dataclass(frozen=True)
class InstanceModel:
    """Hidden ground truth of a simulation: mean matrix and outcome law.

    ``mean_matrix`` is d x m with entries in [0, 1]; column i is the expected
    observation vector of arm i.
    """

    mean_matrix: np.ndarray
    outcome_kind: str = "bernoulli"
    contextual: Optional[ContextualStructure] = None
    beta_concentration: float = 4.0

    def __post_init__(self):
        v = np.asarray(self.mean_matrix, dtype=float)
        if v.ndim != 2:
            raise ValueError("mean_matrix must be a d x m matrix")
        if not np.all(np.isfinite(v)) or v.min() < 0.0 or v.max() > 1.0:
            raise ValueError("mean_matrix entries must lie in [0, 1]")
        if self.outcome_kind not in OUTCOME_KINDS:
            raise ValueError(f"unknown outcome_kind {self.outcome_kind!r}")
        object.__setattr__(self, "mean_matrix", v)
        if self.contextual is not None:
            ctx = self.contextual
            if ctx.contexts.shape[:2] != v.shape:
                raise ValueError("contexts must be shaped (d, m, n)")
            if np.max(np.abs(ctx.implied_means() - v)) > 1e-12:
                raise ValueError("contexts . weights must reproduce mean_matrix")

    @property
    def d(self) -> int:
        return self.mean_matrix.shape[0]

    @property
    def m(self) -> int:
        return self.mean_matrix.shape[1]

    def to_json(self) -> dict:
        doc = {
            "d": self.d,
            "m": self.m,
            "outcome_kind": self.outcome_kind,
            "mean_matrix": [float(x) for x in self.mean_matrix.ravel()],
        }
        if self.outcome_kind == "scaled_beta":
            doc["beta_concentration"] = self.beta_concentration
        if self.contextual is not None:
            doc["contextual"] = {
                "n": self.contextual.n,
                "contexts": [float(x) for x in self.contextual.contexts.ravel()],
                "weights": [float(x) for x in self.contextual.weights.ravel()],
            }
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "InstanceModel":
        d, m = int(doc["d"]), int(doc["m"])
        v = np.asarray(doc["mean_matrix"], dtype=float).reshape(d, m)
        contextual = None
        if doc.get("contextual"):
            c = doc["contextual"]
            n = int(c["n"])
            contextual = ContextualStructure(
                contexts=np.asarray(c["contexts"], dtype=float).reshape(d, m, n),
                weights=np.asarray(c["weights"], dtype=float).reshape(d, n),
            )
        return cls(
            mean_matrix=v,
            outcome_kind=doc.get("outcome_kind", "bernoulli"),
            contextual=contextual,
            beta_concentration=float(doc.get("beta_concentration", 4.0)),
        )


@dataclass(frozen=True)
class PolicyDistribution:
    """Distribution over arms; with ``allow_idle`` the weights may sum to < 1.

    The cumulative weights ``cdf`` (the running sums of np.cumsum, as
    floats) are computed once here, since steppers play the same cached
    policies thousands of times.
    """

    weights: np.ndarray
    allow_idle: bool = False
    cdf: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("policy weights must be a vector")
        if w.min() < -1e-12:
            raise ValueError("policy weights must be nonnegative")
        total = float(w.sum())
        if not math.isfinite(total):
            raise ValueError("policy weights must be finite")
        if self.allow_idle:
            if total > 1.0 + 1e-9:
                raise ValueError("policy weights must sum to at most 1")
        elif abs(total - 1.0) > 1e-9:
            raise ValueError("policy weights must sum to 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "cdf", tuple(accumulate(w.tolist())))

    @classmethod
    def unchecked(cls, weights: np.ndarray, allow_idle: bool = False) -> "PolicyDistribution":
        """Wrap a float weight vector without validation (hot paths; the caller
        guarantees nonnegative weights summing to 1, or to at most 1 with
        ``allow_idle``, e.g. a normalized LP solution)."""
        policy = object.__new__(cls)
        object.__setattr__(policy, "weights", weights)
        object.__setattr__(policy, "allow_idle", allow_idle)
        object.__setattr__(policy, "cdf", tuple(accumulate(weights.tolist())))
        return policy

    @property
    def m(self) -> int:
        return self.weights.shape[0]


def uniform_policy(m: int) -> PolicyDistribution:
    return PolicyDistribution(np.full(m, 1.0 / m))


def point_mass(m: int, arm: int) -> PolicyDistribution:
    w = np.zeros(m)
    w[arm] = 1.0
    return PolicyDistribution(w)


def idle_policy(m: int) -> PolicyDistribution:
    return PolicyDistribution(np.zeros(m), allow_idle=True)


@dataclass
class RunHistory:
    """Everything observed during one run; one row per executed step."""

    observations: np.ndarray        # (steps, d); zero row on idle steps
    arms: np.ndarray                # (steps,); IDLE for idle steps
    stop_time: Optional[int] = None  # BwK stopping time tau, else None
    algorithm: Any = None           # final stepper state, for diagnostics

    @property
    def steps(self) -> int:
        return self.arms.shape[0]

    def validate(self):
        if self.observations.shape[0] != self.arms.shape[0]:
            raise ValueError("history arrays disagree in length")


def sample_observation(instance: InstanceModel, arm: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one observation vector for the given arm.

    Componentwise expectation equals the arm's mean column for every outcome
    kind; draws are deterministic given the generator state.
    """
    arm = int(arm)
    if arm < 0 or arm >= instance.m:
        raise IndexError(f"arm {arm} out of range [0, {instance.m})")
    mean = instance.mean_matrix[:, arm]
    kind = instance.outcome_kind
    if kind == "fixed":
        return mean.copy()
    if kind == "bernoulli":
        return (rng.random(instance.d) < mean).astype(float)
    # scaled_beta: Beta(k*v, k*(1-v)) has mean v; degenerate means stay fixed
    k = instance.beta_concentration
    out = mean.copy()
    interior = (mean > 0.0) & (mean < 1.0)
    if np.any(interior):
        v = mean[interior]
        out[interior] = rng.beta(k * v, k * (1.0 - v))
    return out


def draw_arm(policy: PolicyDistribution, rng: np.random.Generator) -> int:
    """Sample an arm index from the policy; returns IDLE with the residual mass.

    Consumes exactly one uniform.  ``bisect_right`` on the cached CDF runs the
    same binary search, with the same comparisons, as
    ``np.searchsorted(np.cumsum(weights), u, side="right")``.
    """
    u = rng.random()
    cdf = policy.cdf
    idx = bisect_right(cdf, u)
    if idx >= len(cdf):
        return IDLE
    return idx

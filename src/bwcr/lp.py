"""Dense two-phase tableau simplex for small linear programs.

Solves   max  c . x   s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0.

Pivoting uses Bland's rule (lowest eligible index) for both the entering and
leaving choices, which rules out cycling.  Instances here are tiny (tens of
variables), so the plain dense tableau is the right tool.

A previously optimal basis can be passed back in when resolving a nearby
problem (the per-step LPs of the bandit algorithms change only slightly
between steps).  The warm start is certify-or-pivot: one inverse of the
basis matrix gives x_B = B^-1 b, the duals y = c_B B^-1 and the reduced costs
c - y A.  A basis that is primal feasible and passes Bland's optimality test
is returned as it is, with no tableau; one that is feasible but not optimal
starts phase 2 from B^-1 [A | b]; any other falls back to the cold phase 1.

Workspace contract.  ``solve_dense_lp(..., workspace=ws)`` keeps the
standard form [A_ub I; A_eq 0] (rows flipped to b >= 0) in the caller-owned
dict ``ws`` and writes each call's cost and constraint entries into it in
place.  One workspace serves one LP family, a fixed shape and fixed
``b_ub``/``b_eq``; a call with another shape or rhs rebuilds the form.

While the bits of A stay the same (the support LP of a polyhedral target,
where only the cost moves), the form also keeps a cache of nodes.  A root,
keyed by a warm start basis, holds B^-1, max(x_B, 0) and, once a pivot is
made from it, the tableau [B^-1 A | x_B]; its children, keyed by entering
column, hold the tableau after that Bland pivot, the new basis and the pivot
row.  Both are functions of A and b alone: Bland's ratio test never reads
the cost.  A warm call therefore computes only what depends on the cost, the
duals y (kept while c_B's bytes stay the same), the reduced costs and one
cost-row update per pivot, and walks the cached tableaux; ``_pivot`` runs
only on a miss.  Every float operation that reaches a result is the one the
stateless call makes, so x, value, basis and pivots are bit-for-bit those of
``solve_dense_lp`` without a workspace.  A call that writes new bits into A
drops the nodes, so families that rewrite A every call (the interval-step
and BwK LPs) invert and pivot as if there were no cache.  The cache holds at
most ``_CACHE_FLOATS`` tableau entries' worth of nodes; a full cache is
dropped and grows again.

The workspace also counts the solves made through it (``lp_solves``), the
warm ones certified with no pivot (``lp_certified``), the pivots of both
phases (``lp_pivots``) and, of those, the ones served from the node cache
(``lp_replayed``); see :func:`workspace_counts`.  ``lp_scalar`` counts the
warm bases that :mod:`bwcr.solvers` certified in scalar floats, for LPs
with one constraint row besides the simplex, without calling this module;
each of those also counts as one solve and one certified solve.  Warm state
belongs to the caller, typically one run: the basis is passed in and handed
back in :class:`LpResult` and the workspace is the caller's, so runs that
share problem data (every seed of an experiment shares the target set) never
share warm state.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SolverLimitError

_TOL = 1e-9
_PIV_TOL = 1e-11
_FEAS_TOL = 1e-9    # least basic value a warm basis may carry and stay feasible
_MAX_ITER = 20_000
_CACHE_FLOATS = 1 << 17   # tableau entries (1 MiB) a workspace's node cache may hold

COUNTERS = ("lp_solves", "lp_certified", "lp_pivots", "lp_replayed", "lp_scalar")


@dataclass
class LpResult:
    status: str                    # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray] = None
    value: float = float("nan")
    basis: Optional[list] = None   # column indices incl. slacks, reusable as warm start
    y_ub: Optional[np.ndarray] = None
    y_eq: Optional[np.ndarray] = None
    pivots: int = 0                # simplex pivots made, both phases
    replayed: int = 0              # of those, the ones a workspace's cache served


def workspace_counts(workspace: dict) -> dict:
    """Solves, certified warm solves, pivots, replayed pivots and scalar
    certifies made through ``workspace``."""
    return {key: workspace.get(key, 0) for key in COUNTERS}


def _pivot(tableau: np.ndarray, basis: list, row: int, col: int):
    tableau[row] /= tableau[row, col]
    colvals = tableau[:, col].copy()
    colvals[row] = 0.0
    tableau -= np.outer(colvals, tableau[row])
    basis[row] = col


def _leaving_row(tableau: np.ndarray, basis, col: int) -> Optional[int]:
    """Bland's ratio test for entering column ``col``: the leaving row, or
    None when no entry of the column is positive (unbounded)."""
    colvals = tableau[:, col]
    rows = np.flatnonzero(colvals > _PIV_TOL)
    if rows.size == 0:
        return None
    ratios = tableau[rows, -1] / colvals[rows]
    best = ratios.min()
    tied = rows[ratios <= best + 1e-12]
    # Bland: among tied rows leave the one whose basic variable has lowest index
    return int(tied[np.argmin([basis[r] for r in tied])])


def _bland_iterate(tableau: np.ndarray, basis: list, cost: np.ndarray,
                   max_iter: int = _MAX_ITER) -> tuple:
    """Run simplex iterations maximizing ``cost``; returns (status, pivots made).

    ``cost`` is mutated in place into the reduced-cost row.
    """
    for pivots in range(max_iter):
        # reduced costs: positive entries improve the (maximization) objective
        candidates = np.flatnonzero(cost[:-1] > _TOL)
        if candidates.size == 0:
            return "optimal", pivots
        col = int(candidates[0])  # Bland: lowest index enters
        row = _leaving_row(tableau, basis, col)
        if row is None:
            return "unbounded", pivots
        _pivot(tableau, basis, row, col)
        cost -= cost[col] * tableau[row]
    raise SolverLimitError(f"simplex iteration limit ({max_iter} pivots) exceeded")


def _rows(a, n: int) -> np.ndarray:
    if a is None:
        return np.zeros((0, n))
    a = np.asarray(a, dtype=float)
    return a if a.ndim == 2 else np.atleast_2d(a)


def _rhs(b) -> np.ndarray:
    if b is None:
        return np.zeros(0)
    b = np.asarray(b, dtype=float)
    return b if b.ndim == 1 else np.atleast_1d(b)


def _scatter(basis, x_basic: np.ndarray, n_cols: int, n: int) -> np.ndarray:
    """The structural part of the basic solution with values ``x_basic``."""
    x_full = np.zeros(n_cols)
    x_full[basis] = x_basic
    return x_full[:n]


class _Node:
    """A basis of one standard form and its tableau [B^-1 A | x_B].
    ``children`` maps an entering column to the node that Bland's pivot on it
    leads to (``row`` is the pivot row), or to _UNBOUNDED."""

    __slots__ = ("basis", "tableau", "row", "children")

    def __init__(self, basis, tableau=None, row=-1):
        self.basis, self.tableau, self.row, self.children = basis, tableau, row, {}


class _Root(_Node):
    """A warm start basis: B^-1, max(x_B, 0) (None when B is singular or x_B
    infeasible), the duals y of the last c_B, and the tableau, built on the
    first pivot from it."""

    __slots__ = ("idx", "binv", "xb", "cb_bytes", "y")

    def __init__(self, key, idx, binv, xb):
        super().__init__(key)
        self.idx, self.binv, self.xb = idx, binv, xb
        self.cb_bytes = self.y = None

    def duals(self, full_cost: np.ndarray) -> np.ndarray:
        """y = c_B B^-1, recomputed only when c_B's bytes change."""
        cb = full_cost.take(self.idx)
        raw = cb.tobytes()
        if raw != self.cb_bytes:
            self.cb_bytes, self.y = raw, cb @ self.binv
        return self.y


_UNBOUNDED = _Node(())


class _Form:
    """The standard form of one LP family: [A_ub I; A_eq 0] x = |b| with the
    rows of negative b flipped, the cost row, and the node cache of its warm
    bases (valid while the bits of A stay the same)."""

    def __init__(self, key, obj, a_ub, a_eq, b_ub, b_eq):
        self.key = key
        n = obj.shape[0]
        k_ub, k_eq = a_ub.shape[0], a_eq.shape[0]
        self.n, self.k_ub = n, k_ub
        self.n_rows, self.n_cols = k_ub + k_eq, n + k_ub
        big_a = np.zeros((self.n_rows, self.n_cols))
        big_a[:k_ub, :n] = a_ub
        big_a[:k_ub, n:] = np.eye(k_ub)
        big_a[k_ub:, :n] = a_eq
        rhs = np.concatenate([b_ub, b_eq])
        # normalize to rhs >= 0 (remember flips to restore dual signs)
        self.flips = rhs < 0
        big_a[self.flips] *= -1.0
        self.big_a = big_a
        self.rhs = np.abs(rhs)
        self.full_cost = np.concatenate([obj, np.zeros(k_ub)])
        # per-row signs for rewriting flipped entries in place; None: no flips
        sign = np.where(self.flips, -1.0, 1.0)[:, None]
        self.sign_ub = sign[:k_ub] if self.flips[:k_ub].any() else None
        self.sign_eq = sign[k_ub:] if self.flips[k_ub:].any() else None
        self.a_bytes = big_a.tobytes()
        self.roots = {}       # start basis (a tuple) -> _Root
        self.size = 0         # nodes cached under roots
        self.cap = max(1, _CACHE_FLOATS // max(1, self.n_rows * (self.n_cols + 1)))

    def update(self, obj, a_ub, a_eq):
        """Write a new cost and new constraint entries of the same family;
        new bits in A drop the cached nodes."""
        n, k_ub = self.n, self.k_ub
        self.full_cost[:n] = obj
        big_a = self.big_a
        if self.sign_ub is None:
            big_a[:k_ub, :n] = a_ub
        else:
            np.multiply(a_ub, self.sign_ub, out=big_a[:k_ub, :n])
        if self.sign_eq is None:
            big_a[k_ub:, :n] = a_eq
        else:
            np.multiply(a_eq, self.sign_eq, out=big_a[k_ub:, :n])
        raw = big_a.tobytes()
        if raw != self.a_bytes:
            self.a_bytes, self.roots, self.size = raw, {}, 0

    def _count_node(self):
        if self.size >= self.cap:
            self.roots, self.size = {}, 0
        self.size += 1

    def root(self, key: tuple) -> Optional[_Root]:
        """The root of start basis ``key``, or None when its indices are out
        of range, B is singular or x_B is infeasible."""
        root = self.roots.get(key)
        if root is None:
            if not all(0 <= j < self.n_cols for j in key):
                return None
            root = self._new_root(key)
            self._count_node()
            self.roots[key] = root
        return root if root.xb is not None else None

    def _new_root(self, key: tuple) -> _Root:
        idx = np.array(key, dtype=np.intp)
        try:
            binv = np.linalg.inv(self.big_a.take(idx, axis=1))
        except np.linalg.LinAlgError:
            return _Root(key, idx, None, None)
        xb = binv @ self.rhs
        feasible = np.count_nonzero(xb >= -_FEAS_TOL) == xb.size
        return _Root(key, idx, binv, np.maximum(xb, 0.0) if feasible else None)

    def _grow(self, node: _Node, col: int) -> _Node:
        """The child of ``node`` for entering column ``col``, cached under it."""
        row = _leaving_row(node.tableau, node.basis, col)
        if row is None:
            child = _UNBOUNDED
        else:
            tableau, basis = node.tableau.copy(), list(node.basis)
            _pivot(tableau, basis, row, col)
            child = _Node(basis, tableau, row)
        self._count_node()
        node.children[col] = child
        return child

    def replay(self, root: _Root, cost: np.ndarray) -> tuple:
        """Phase 2 from ``root``, as :func:`_bland_iterate` runs it, on cached
        tableaux: Bland's choices read only the cost row, which is updated in
        place, and each pivot's tableau comes from the cache or is made and
        kept.  Returns (status, final node, pivots, pivots from the cache)."""
        if root.tableau is None:
            root.tableau = np.hstack([root.binv @ self.big_a, root.xb[:, None]])
        node, replayed = root, 0
        for pivots in range(_MAX_ITER):
            candidates = np.flatnonzero(cost[:-1] > _TOL)
            if candidates.size == 0:
                return "optimal", node, pivots, replayed
            col = int(candidates[0])
            child = node.children.get(col)
            if child is None:
                child = self._grow(node, col)
            elif child is not _UNBOUNDED:
                replayed += 1
            if child is _UNBOUNDED:
                return "unbounded", node, pivots, replayed
            cost -= cost[col] * child.tableau[child.row]
            node = child
        raise SolverLimitError(f"simplex iteration limit ({_MAX_ITER} pivots) exceeded")


def solve_dense_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, *,
                   basis: Optional[list] = None, need_duals: bool = False,
                   workspace: Optional[dict] = None) -> LpResult:
    """Solve the LP, warm from ``basis`` if given; ``workspace`` is a
    caller-owned dict that keeps this LP family's form between calls (see the
    module docstring).  Duals are filled in only with ``need_duals``."""
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    a_ub, a_eq, b_ub, b_eq = _rows(a_ub, n), _rows(a_eq, n), _rhs(b_ub), _rhs(b_eq)
    key = (n, a_ub.shape[0], a_eq.shape[0], b_ub.tobytes(), b_eq.tobytes())
    form = None if workspace is None else workspace.get("form")
    if form is not None and form.key == key:
        form.update(c, a_ub, a_eq)
    else:
        form = _Form(key, c, a_ub, a_eq, b_ub, b_eq)
        if workspace is not None:
            workspace["form"] = form
            for name in COUNTERS:
                workspace.setdefault(name, 0)
    res = _solve(form, c, basis, need_duals)
    if workspace is not None:
        workspace["lp_solves"] += 1
        workspace["lp_pivots"] += res.pivots
        workspace["lp_replayed"] += res.replayed
        if basis is not None and res.pivots == 0 and res.status == "optimal":
            workspace["lp_certified"] += 1
    return res


def _finish(form: _Form, obj, basis_list, x, pivots, need_duals, y=None) -> LpResult:
    """The optimal result for a final basis and its structural x."""
    value = float(obj @ x)
    # duals from the final basis: y solves B^T y = c_B (in the flipped system)
    y_ub = y_eq = None
    if need_duals and len(basis_list) == form.n_rows:
        try:
            if y is None:
                y = np.linalg.solve(form.big_a[:, basis_list].T, form.full_cost[basis_list]) \
                    if basis_list else np.zeros(0)
            y = y.copy()
            y[form.flips] *= -1.0
            y_ub, y_eq = y[:form.k_ub], y[form.k_ub:]
        except np.linalg.LinAlgError:
            pass
    return LpResult(status="optimal", x=x, value=value, basis=basis_list,
                    y_ub=y_ub, y_eq=y_eq, pivots=pivots)


def _solve(form: _Form, obj, basis, need_duals: bool) -> LpResult:
    if basis is not None and len(basis) == form.n_rows:
        root = form.root(tuple(basis))
        if root is not None:
            return _solve_warm(form, obj, root, need_duals)
    return _solve_cold(form, obj, need_duals)


def _solve_warm(form: _Form, obj, root: _Root, need_duals: bool) -> LpResult:
    """Certify the feasible start basis ``root`` or run phase 2 from it."""
    n, n_cols, full_cost = form.n, form.n_cols, form.full_cost
    y = root.duals(full_cost)
    reduced = full_cost - y @ form.big_a
    if not np.count_nonzero(reduced > _TOL):
        # still optimal: Bland's test passes with no pivot to make
        return _finish(form, obj, list(root.basis), _scatter(root.idx, root.xb, n_cols, n), 0,
                       need_duals, y)
    cost2 = np.append(reduced, -float(y @ form.rhs))
    status, node, pivots, replayed = form.replay(root, cost2)
    if status == "unbounded":
        return LpResult(status="unbounded", pivots=pivots, replayed=replayed)
    res = _finish(form, obj, list(node.basis), _scatter(node.basis, node.tableau[:, -1], n_cols, n),
                  pivots, need_duals)
    res.replayed = replayed
    return res


def _solve_cold(form: _Form, obj, need_duals: bool) -> LpResult:
    """Phase 1 from the artificial basis, then phase 2."""
    n, n_rows, n_cols = form.n, form.n_rows, form.n_cols
    big_a, rhs, full_cost = form.big_a, form.rhs, form.full_cost
    # phase 1: identity from artificials, minimize their sum
    n_art = n_rows
    t1 = np.zeros((n_rows, n_cols + n_art + 1))
    t1[:, :n_cols] = big_a
    t1[:, n_cols:n_cols + n_art] = np.eye(n_rows)
    t1[:, -1] = rhs
    basis_list = list(range(n_cols, n_cols + n_art))
    # maximize -(sum of artificials); start from its reduced-cost row
    cost1 = np.zeros(n_cols + n_art + 1)
    cost1[n_cols:n_cols + n_art] = -1.0
    for r in range(n_rows):
        cost1 -= cost1[basis_list[r]] * t1[r]
    status, pivots = _bland_iterate(t1, basis_list, cost1)
    # cost row rhs carries minus the phase-1 objective; positive means
    # artificials could not be driven to zero
    if status != "optimal" or cost1[-1] > 1e-7:
        return LpResult(status="infeasible", pivots=pivots)
    # drive leftover artificials out of the basis where possible
    keep_rows = []
    for r in range(n_rows):
        if basis_list[r] >= n_cols:
            piv_cols = np.flatnonzero(np.abs(t1[r, :n_cols]) > 1e-9)
            if piv_cols.size:
                _pivot(t1, basis_list, r, int(piv_cols[0]))
                pivots += 1
                keep_rows.append(r)
            # else: redundant row, dropped below
        else:
            keep_rows.append(r)
    t1 = t1[keep_rows]
    basis_list = [basis_list[r] for r in keep_rows]
    tableau = np.hstack([t1[:, :n_cols], t1[:, -1:]])
    cost2 = np.concatenate([full_cost, [0.0]])
    for r in range(tableau.shape[0]):
        cost2 -= cost2[basis_list[r]] * tableau[r]

    # phase 2
    status, pivots2 = _bland_iterate(tableau, basis_list, cost2)
    pivots += pivots2
    if status == "unbounded":
        return LpResult(status="unbounded", pivots=pivots)
    return _finish(form, obj, basis_list, _scatter(basis_list, tableau[:, -1], n_cols, n),
                   pivots, need_duals)

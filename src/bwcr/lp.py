"""Dense two-phase tableau simplex for small linear programs.

Solves   max/min  c . x   s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0.

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
The warm basis belongs to the caller: it is passed in and handed back in
:class:`LpResult`, never kept here, so runs that share problem data do not
share warm state (see ``Halfspaces.support``'s ``workspace``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SolverLimitError

_TOL = 1e-9
_PIV_TOL = 1e-11
_FEAS_TOL = 1e-9    # least basic value a warm basis may carry and stay feasible


@dataclass
class LpResult:
    status: str                    # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray] = None
    value: float = float("nan")
    basis: Optional[list] = None   # column indices incl. slacks, reusable as warm start
    y_ub: Optional[np.ndarray] = None
    y_eq: Optional[np.ndarray] = None
    pivots: int = 0                # simplex pivots made, both phases


def _pivot(tableau: np.ndarray, basis: list, row: int, col: int):
    tableau[row] /= tableau[row, col]
    colvals = tableau[:, col].copy()
    colvals[row] = 0.0
    tableau -= np.outer(colvals, tableau[row])
    basis[row] = col


def _bland_iterate(tableau: np.ndarray, basis: list, cost: np.ndarray, allowed: np.ndarray,
                   max_iter: int = 20_000) -> tuple:
    """Run simplex iterations maximizing ``cost`` over columns in ``allowed``;
    returns (status, pivots made).

    ``cost`` is mutated in place into the reduced-cost row.
    """
    for pivots in range(max_iter):
        # reduced costs: positive entries improve the (maximization) objective
        candidates = np.flatnonzero(allowed & (cost[:-1] > _TOL))
        if candidates.size == 0:
            return "optimal", pivots
        col = int(candidates[0])  # Bland: lowest index enters
        colvals = tableau[:, col]
        rows = np.flatnonzero(colvals > _PIV_TOL)
        if rows.size == 0:
            return "unbounded", pivots
        ratios = tableau[rows, -1] / colvals[rows]
        best = ratios.min()
        tied = rows[ratios <= best + 1e-12]
        # Bland: among tied rows leave the one whose basic variable has lowest index
        row = int(tied[np.argmin([basis[r] for r in tied])])
        _pivot(tableau, basis, row, col)
        cost -= cost[col] * tableau[row]
    raise SolverLimitError(f"simplex iteration limit ({max_iter} pivots) exceeded")


def solve_dense_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, *,
                   maximize: bool = True, basis: Optional[list] = None,
                   need_duals: bool = False) -> LpResult:
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    obj = c if maximize else -c

    a_ub = np.zeros((0, n)) if a_ub is None else np.atleast_2d(np.asarray(a_ub, dtype=float))
    b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, dtype=float))
    a_eq = np.zeros((0, n)) if a_eq is None else np.atleast_2d(np.asarray(a_eq, dtype=float))
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, dtype=float))
    k_ub, k_eq = a_ub.shape[0], a_eq.shape[0]
    n_rows = k_ub + k_eq
    n_cols = n + k_ub

    big_a = np.zeros((n_rows, n_cols))
    big_a[:k_ub, :n] = a_ub
    big_a[:k_ub, n:] = np.eye(k_ub)
    big_a[k_ub:, :n] = a_eq
    rhs = np.concatenate([b_ub, b_eq])

    # normalize to rhs >= 0 (remember flips to restore dual signs)
    flips = rhs < 0
    big_a[flips] *= -1.0
    rhs = np.abs(rhs)

    full_cost = np.concatenate([obj, np.zeros(k_ub)])

    def finish(basis_list, x_basic, pivots, y=None):
        x_full = np.zeros(n_cols)
        x_full[basis_list] = x_basic
        x = x_full[:n]
        value = float(obj @ x)
        # duals from the final basis: y solves B^T y = c_B (in the flipped system)
        y_ub = y_eq = None
        if need_duals and len(basis_list) == n_rows:
            try:
                if y is None:
                    y = np.linalg.solve(big_a[:, basis_list].T, full_cost[basis_list]) \
                        if basis_list else np.zeros(0)
                y = y.copy()
                y[flips] *= -1.0
                y_ub, y_eq = y[:k_ub], y[k_ub:]
            except np.linalg.LinAlgError:
                pass
        if not maximize:
            value = -value
            if y_ub is not None:
                y_ub, y_eq = -y_ub, -y_eq
        return LpResult(status="optimal", x=x, value=value, basis=list(basis_list),
                        y_ub=y_ub, y_eq=y_eq, pivots=pivots)

    tableau = None
    if basis is not None and len(basis) == n_rows and all(0 <= j < n_cols for j in basis):
        basis_list = list(basis)
        try:
            binv = np.linalg.inv(big_a[:, basis_list])
        except np.linalg.LinAlgError:
            binv = None
        if binv is not None:
            xb = binv @ rhs
            if np.all(xb >= -_FEAS_TOL):
                xb = np.maximum(xb, 0.0)
                y = full_cost[basis_list] @ binv
                reduced = full_cost - y @ big_a
                if not np.any(reduced > _TOL):
                    # still optimal: Bland's test passes with no pivot to make
                    return finish(basis_list, xb, 0, y)
                tableau = np.hstack([binv @ big_a, xb[:, None]])
                cost2 = np.append(reduced, -float(y @ rhs))

    pivots = 0
    if tableau is None:
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
        allowed1 = np.ones(n_cols + n_art, dtype=bool)
        status, pivots = _bland_iterate(t1, basis_list, cost1, allowed1)
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
    allowed2 = np.ones(n_cols, dtype=bool)
    status, pivots2 = _bland_iterate(tableau, basis_list, cost2, allowed2)
    pivots += pivots2
    if status == "unbounded":
        return LpResult(status="unbounded", pivots=pivots)
    return finish(basis_list, tableau[:, -1], pivots)

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bwcr.confidence import EllipsoidState, Hypercube
from bwcr.errors import ConfigError, SolverLimitError
from bwcr.geometry import Box, Halfspaces, VPolytope
from bwcr.lp import _bland_iterate, solve_dense_lp
from bwcr.objective import LinearObjective, NegativeDistance, SeparableObjective
from bwcr.solvers import (GAP_TOL, _certify_pair, degenerate_region, entropic_step, make_oco,
                          ogd_step, solve_lp, solve_ucb_step)
from test_confidence import ellipsoid_max_linear, ellipsoid_min_linear


def lp_vertex_oracle(r, c, beta):
    """Enumerate vertices of {p in simplex, C p <= beta}; None if empty."""
    m = r.size
    d = c.shape[0]
    cons = [("p", i) for i in range(m)] + [("c", j) for j in range(d)]
    best = None
    for sub in itertools.combinations(cons, m - 1):
        rows = [np.ones(m)]
        rhs = [1.0]
        for kind, idx in sub:
            if kind == "p":
                e = np.zeros(m)
                e[idx] = 1.0
                rows.append(e)
                rhs.append(0.0)
            else:
                rows.append(c[idx])
                rhs.append(beta)
        mat = np.array(rows)
        if mat.shape[0] != m:
            continue
        try:
            p = np.linalg.solve(mat, np.array(rhs))
        except np.linalg.LinAlgError:
            continue
        if p.min() < -1e-9 or np.any(c @ p > beta + 1e-9):
            continue
        val = float(r @ p)
        if best is None or val > best[0]:
            best = (val, p)
    return best


def test_lp_examples():
    res = solve_lp(np.array([1.0]), np.array([[0.4]]), 0.5)
    assert res.feasible and res.x is None
    assert np.allclose(res.policy.weights, [1.0])
    assert res.objective == pytest.approx(1.0)

    res = solve_lp(np.array([1.0, 0.5]), np.array([[1.0, 0.0]]), 0.5)
    assert np.allclose(res.policy.weights, [0.5, 0.5], atol=1e-12)
    assert res.objective == pytest.approx(0.75, abs=1e-12)

    res = solve_lp(np.array([1.0]), np.array([[0.9]]), 0.5)
    assert not res.feasible and res.policy is None


def test_lp_against_vertex_enumeration():
    rng = np.random.default_rng(0)
    for trial in range(150):
        m = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        r = rng.random(m)
        c = rng.random((d, m))
        beta = float(rng.random() * 0.8 + 0.05)
        res = solve_lp(r, c, beta)
        oracle = lp_vertex_oracle(r, c, beta)
        assert res.feasible == (oracle is not None)
        if oracle is not None:
            assert res.objective == pytest.approx(oracle[0], abs=1e-9)


def test_lp_warm_basis_resolve():
    rng = np.random.default_rng(2)
    r = rng.random(4)
    c = rng.random((2, 4))
    first = solve_lp(r, c, 0.5)
    jitter = np.clip(c + rng.normal(0, 0.01, c.shape), 0, 1)
    warm = solve_lp(r, jitter, 0.5, warm_basis=first.basis)
    cold = solve_lp(r, jitter, 0.5)
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
    assert warm.basis == cold.basis == first.basis
    # the same LP on the tableau: the jitter keeps the basis optimal, so the
    # warm solve certifies it without a pivot; the cold one needs phase 1
    knapsack = dict(a_eq=np.ones((1, 4)), b_eq=np.ones(1), b_ub=np.full(2, 0.5))
    warm_lp = solve_dense_lp(r, a_ub=jitter, basis=first.basis, **knapsack)
    cold_lp = solve_dense_lp(r, a_ub=jitter, **knapsack)
    assert warm_lp.basis == first.basis and warm_lp.pivots == 0
    assert cold_lp.basis == first.basis and cold_lp.pivots > 0
    assert np.allclose(warm_lp.x, cold_lp.x, atol=1e-12)


def _standard_form(c, a_ub, b_ub, a_eq, b_eq):
    """[A_ub I; A_eq 0] with rows flipped to b >= 0, as the tableau sees it."""
    n, k_ub, k_eq = c.size, b_ub.size, b_eq.size
    big = np.zeros((k_ub + k_eq, n + k_ub))
    big[:k_ub, :n] = a_ub
    big[:k_ub, n:] = np.eye(k_ub)
    big[k_ub:, :n] = a_eq
    rhs = np.concatenate([b_ub, b_eq])
    big[rhs < 0] *= -1.0
    return big, np.abs(rhs), np.concatenate([c, np.zeros(k_ub)])


def _still_optimal(basis, c, a_ub, b_ub, a_eq, b_eq):
    """Is ``basis`` primal feasible with no improving reduced cost?"""
    big, rhs, cost = _standard_form(c, a_ub, b_ub, a_eq, b_eq)
    if len(basis) != big.shape[0]:
        return False
    bmat = big[:, basis]
    if abs(np.linalg.det(bmat)) < 1e-9:
        return False
    xb = np.linalg.solve(bmat, rhs)
    y = np.linalg.solve(bmat.T, cost[basis])
    return bool(np.all(xb >= -1e-9) and np.all(cost - y @ big <= 1e-9))


@st.composite
def _lp_pairs(draw):
    """A small LP and a copy with a new cost or one column changed."""
    n = draw(st.integers(1, 4))
    k_ub = draw(st.integers(1, 3))
    k_eq = draw(st.integers(0, 1))
    c = draw(_lattice(n, -1.0, 1.0))
    a_ub = draw(_lattice((k_ub, n), -1.0, 1.0))
    b_ub = draw(_lattice(k_ub, -0.5, 1.0))
    a_eq = draw(_lattice((k_eq, n)))
    b_eq = draw(_lattice(k_eq))
    first = (c, a_ub, b_ub, a_eq, b_eq)
    if draw(st.booleans()):
        return first, (draw(_lattice(n, -1.0, 1.0)), a_ub, b_ub, a_eq, b_eq)
    j = draw(st.integers(0, n - 1))
    a_ub2, a_eq2 = a_ub.copy(), a_eq.copy()
    a_ub2[:, j] = draw(_lattice(k_ub, -1.0, 1.0))
    a_eq2[:, j] = draw(_lattice(k_eq))
    return first, (c, a_ub2, b_ub, a_eq2, b_eq)


def _solve(lp, basis=None):
    c, a_ub, b_ub, a_eq, b_eq = lp
    return solve_dense_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, basis=basis)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_lp_pairs())
def test_lp_warm_resolve_matches_cold_property(pair):
    first, second = pair
    base = _solve(first)
    if base.status != "optimal":
        return
    warm = _solve(second, base.basis)
    cold = _solve(second)
    assert warm.status == cold.status
    if cold.status == "optimal":
        assert warm.value == pytest.approx(cold.value, abs=1e-9)
        c, a_ub, b_ub, a_eq, b_eq = second
        assert np.all(warm.x >= 0.0)
        assert np.all(a_ub @ warm.x <= b_ub + 1e-9)
        assert np.allclose(a_eq @ warm.x, b_eq, atol=1e-9)
    if _still_optimal(base.basis, *second):
        assert warm.basis == base.basis and warm.pivots == 0
    # the unchanged LP certifies its own optimal basis, unless phase 1
    # dropped a redundant row and left a basis too short to reuse
    again = _solve(first, base.basis)
    assert again.value == pytest.approx(base.value, abs=1e-9)
    if len(base.basis) == first[2].size + first[4].size:
        assert again.basis == base.basis and again.pivots == 0


@st.composite
def _lp_families(draw):
    """A small LP with a fixed rhs and 30 updates to it: each a new cost, or
    new entries for one nonbasic or one basic structural column of the basis
    current when the update is applied (``pick`` chooses which)."""
    n = draw(st.integers(1, 4))
    k_ub = draw(st.integers(1, 3))
    k_eq = draw(st.integers(0, 1))
    lp = [draw(_lattice(n, -1.0, 1.0)), draw(_lattice((k_ub, n), -1.0, 1.0)),
          draw(_lattice(k_ub, -0.5, 1.0)), draw(_lattice((k_eq, n))), draw(_lattice(k_eq))]
    updates = draw(st.lists(st.tuples(st.sampled_from(["cost", "nonbasic", "basic"]),
                                      st.integers(0, 3), _lattice(n, -1.0, 1.0),
                                      _lattice(k_ub, -1.0, 1.0), _lattice(k_eq)),
                            min_size=30, max_size=30))
    return lp, updates


def _assert_same(got, ref):
    """The same result bit for bit."""
    assert (got.status, got.basis, got.pivots) == (ref.status, ref.basis, ref.pivots)
    if ref.status == "optimal":
        assert got.x.tobytes() == ref.x.tobytes() and got.value == ref.value


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_lp_families())
def test_lp_workspace_matches_stateless_property(family):
    (c, a_ub, b_ub, a_eq, b_eq), updates = family
    n = c.size
    ws = {}

    def both(basis, **changes):
        """The workspace solve, checked against the stateless one."""
        lp = {"c": c, "a_ub": a_ub, "b_ub": b_ub, "a_eq": a_eq, "b_eq": b_eq, **changes}
        got = solve_dense_lp(**lp, basis=basis, workspace=ws)
        _assert_same(got, solve_dense_lp(**lp, basis=basis))
        return got, lp

    basis = both(None)[0].basis
    for kind, pick, cost, col_ub, col_eq in updates:
        basic = [j for j in basis or () if j < n]
        pool = basic if kind == "basic" else [j for j in range(n) if j not in basic]
        if kind == "cost" or not pool:
            c = cost
        else:
            # in place, as the step LP's caller rewrites its matrix
            j = pool[pick % len(pool)]
            a_ub[:, j] = col_ub
            a_eq[:, j] = col_eq
        res = both(basis)[0]
        if res.status == "optimal":
            basis = res.basis
    assert ws["lp_solves"] == len(updates) + 1
    # a new rhs, then a new shape: the form is rebuilt and the warm solve
    # still matches a cold one
    for changes in ({"b_ub": b_ub + 0.25},
                    {"a_ub": np.vstack([a_ub, np.ones(n)]), "b_ub": np.append(b_ub, 1.0)}):
        form = ws["form"]
        got, lp = both(basis, **changes)
        assert ws["form"] is not form
        cold = solve_dense_lp(**lp)
        assert got.status == cold.status
        if cold.status == "optimal":
            assert got.value == pytest.approx(cold.value, abs=1e-9)


def test_halfspaces_support_workspace_matches_stateless():
    rng = np.random.default_rng(11)
    d = 4
    s = Halfspaces(-rng.uniform(0.0, 1.0, (5, d)).round(3), np.full(5, -0.3))
    ws = {}
    theta = rng.standard_normal(d)
    for k in range(200):
        # small OCO-like moves, with a jump now and then
        theta = rng.standard_normal(d) if k % 25 == 0 else theta + 0.1 * rng.standard_normal(d)
        assert s.support(theta, ws) == pytest.approx(s.support(theta), abs=1e-12)
        assert np.allclose(s.support_point(theta, ws), s.support_point(theta), atol=1e-9)
    assert ws["basis"] is not None


def _oco_thetas(rng, d, count):
    """Small OCO-like moves of the cost, with a jump now and then."""
    theta = rng.standard_normal(d)
    for k in range(count):
        theta = rng.standard_normal(d) if k % 40 == 0 else theta + 0.2 * rng.standard_normal(d)
        yield theta


def _replay_bits(ws, thetas, a_ub, b_ub, basis=None):
    """Solve each cost warm from the last optimal basis through ``ws``; every
    result must equal the stateless solve from the same basis bit for bit.
    Returns the last basis."""
    for theta in thetas:
        got = solve_dense_lp(theta, a_ub=a_ub, b_ub=b_ub, basis=basis, workspace=ws)
        _assert_same(got, solve_dense_lp(theta, a_ub=a_ub, b_ub=b_ub, basis=basis))
        if got.status == "optimal":
            basis = got.basis
    return basis


def test_support_lp_node_cache_matches_stateless(monkeypatch):
    from bwcr import lp
    rng = np.random.default_rng(5)
    d = 4
    s = Halfspaces(-rng.uniform(0.0, 1.0, (5, d)).round(3), np.full(5, -0.3))
    rows, rhs = s._lp_rows.copy(), s._lp_rhs
    ws = {}
    basis = _replay_bits(ws, _oco_thetas(rng, d, 300), rows, rhs)
    assert 0 < ws["lp_replayed"] <= ws["lp_pivots"]
    # one ulp of A, rewritten in place as a caller would: the cached nodes
    # go, the form stays, and only the start basis is cached again
    form = ws["form"]
    rows[0, 0] = np.nextafter(rows[0, 0], 0.0)
    replayed, start = ws["lp_replayed"], tuple(basis)
    basis = _replay_bits(ws, [rng.standard_normal(d)], rows, rhs, basis)
    assert ws["form"] is form and list(form.roots) == [start]
    assert ws["lp_replayed"] == replayed
    basis = _replay_bits(ws, _oco_thetas(rng, d, 100), rows, rhs, basis)
    # a new b rebuilds the form
    basis = _replay_bits(ws, _oco_thetas(rng, d, 100), rows, rhs + 0.05, basis)
    assert ws["form"] is not form
    # past the node cap the cache is dropped and regrown; results stay exact
    thetas = list(_oco_thetas(rng, d, 200))
    uncapped = {}
    _replay_bits(uncapped, thetas, rows, rhs)
    monkeypatch.setattr(lp, "_CACHE_FLOATS", 8 * 9 * 14)   # eight 9 x (13 + 1) tableaux
    ws = {}
    _replay_bits(ws, thetas, rows, rhs)
    assert ws["form"].size <= 8 < uncapped["form"].size and ws["lp_replayed"] > 0


def test_lp_node_cache_unbounded_singular_and_cold():
    # a strip in the plane: unbounded along (1, 1), bounded for other costs
    a_ub, b_ub = np.array([[1.0, -1.0], [-1.0, 1.0]]), np.ones(2)
    thetas = [np.array(t) for t in ([-1.0, -0.5], [1.0, 1.0], [1.0, 1.0], [1.0, -2.0],
                                    [1.0, 1.0], [-2.0, 1.0], [1.0, -2.0], [1.0, 1.0])]
    ws = {}
    basis = _replay_bits(ws, thetas, a_ub, b_ub)
    basis = _replay_bits(ws, thetas, a_ub, b_ub, basis)
    assert ws["lp_replayed"] > 0
    # a singular start basis and an infeasible one fall back to phase 1
    for start in ([0, 1], [1, 3]):
        _replay_bits(ws, thetas[:1] * 2, a_ub, b_ub, start)
    _replay_bits(ws, thetas, a_ub, b_ub, None)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 4).flatmap(lambda d: st.tuples(
    st.integers(2, 4).flatmap(lambda k: _lattice((k, d), -1.0, 1.0)),
    _lattice(d), st.lists(_lattice(d, -1.0, 1.0), min_size=12, max_size=12))))
def test_halfspaces_support_matches_highs_property(case):
    linprog = pytest.importorskip("scipy.optimize").linprog
    normals, inside, thetas = case
    # offsets through a lattice point of the cube keep the set nonempty
    s = Halfspaces(normals, normals @ inside + 0.125)
    ws = {}
    for theta in thetas:
        ref = linprog(-theta, A_ub=normals, b_ub=s.offsets, bounds=[(0.0, 1.0)] * len(theta),
                      method="highs")
        assert ref.status == 0
        value, x = s.support_and_point(theta, ws)
        assert value == pytest.approx(-ref.fun, abs=1e-9)
        assert theta @ x == pytest.approx(value, abs=1e-9)
        assert np.all(x >= -1e-12) and np.all(x <= 1.0 + 1e-12)
        assert np.all(normals @ x <= s.offsets + 1e-9)


def test_bland_iteration_cap_raises_solver_limit_error():
    tableau = np.array([[1.0, 1.0, 1.0]])
    with pytest.raises(SolverLimitError):
        _bland_iterate(tableau, [1], np.array([1.0, 0.0, 0.0]), max_iter=0)


def test_lp_unbounded_detection():
    res = solve_dense_lp(np.array([1.0]), a_ub=np.array([[-1.0]]), b_ub=np.array([0.0]))
    assert res.status == "unbounded"


def test_ucb_step_classic_reduction():
    # degenerate region, linear objective, no constraint: point mass on the
    # best column
    v = np.array([[0.2, 0.9, 0.5]])
    res = solve_ucb_step(degenerate_region(v), LinearObjective(np.array([1.0])), None)
    assert res.feasible
    assert np.allclose(res.policy.weights, [0, 1, 0])
    assert res.objective == pytest.approx(0.9)


def test_ucb_step_infeasible_contract():
    v = np.array([[0.4, 0.6]])
    s = Box(np.array([0.9]), np.array([1.0]))   # unreachable
    res = solve_ucb_step(degenerate_region(v), LinearObjective(np.array([1.0])), s)
    assert not res.feasible
    assert res.policy is None


def test_ucb_step_vs_grid_small():
    rng = np.random.default_rng(3)
    grid = _simplex_grid_m3()
    for trial in range(6):
        d, m = 2, 3
        v = rng.random((d, m))
        width = rng.random((d, m)) * 0.2
        hc = Hypercube(lcb=np.clip(v - width, 0, 1), ucb=np.clip(v + width, 0, 1))
        region = hc
        f = SeparableObjective([{"kind": "quad", "weight": 0.5, "center": float(rng.random())}
                                for _ in range(d)])
        p0 = rng.dirichlet(np.ones(m))
        z0 = 0.5 * (hc.lcb + hc.ucb) @ p0
        s = Box(np.clip(z0 - 0.1, 0, 1), np.clip(z0 + 0.1, 0, 1))
        res = solve_ucb_step(region, f, s)
        assert res.feasible
        lo = grid @ hc.lcb.T
        hi = grid @ hc.ucb.T
        vals = np.zeros(grid.shape[0])
        for j, t in enumerate(f.terms):
            y = np.clip(t["center"], lo[:, j], hi[:, j])
            vals += t["weight"] * (1 - (y - t["center"]) ** 2)
        gap = np.maximum(s.lower - hi, 0) + np.maximum(lo - s.upper, 0)
        feas = np.linalg.norm(gap, axis=1) <= 1e-9
        assert feas.any()
        assert abs(res.objective - vals[feas].max()) <= 1e-2


def test_ucb_step_monotone_in_widening():
    rng = np.random.default_rng(4)
    for trial in range(4):
        d, m = 2, 3
        v = rng.random((d, m)) * 0.6 + 0.2
        hc = Hypercube(lcb=np.clip(v - 0.05, 0, 1), ucb=np.clip(v + 0.05, 0, 1))
        wide = Hypercube(lcb=np.clip(v - 0.15, 0, 1), ucb=np.clip(v + 0.15, 0, 1))
        f = SeparableObjective([{"kind": "log1p", "weight": 1.0} for _ in range(d)])
        p0 = rng.dirichlet(np.ones(m))
        z0 = v @ p0
        s = Box(np.clip(z0 - 0.2, 0, 1), np.clip(z0 + 0.2, 0, 1))
        narrow_res = solve_ucb_step(hc, f, s)
        wide_res = solve_ucb_step(wide, f, s)
        assert narrow_res.feasible and wide_res.feasible
        assert wide_res.objective >= narrow_res.objective - 1e-6


def test_ucb_step_linear_vs_grid():
    rng = np.random.default_rng(5)
    grid = _simplex_grid_m3()
    for trial in range(5):
        d, m = 2, 3
        lcb = rng.random((d, m)) * 0.5
        ucb = np.clip(lcb + rng.random((d, m)) * 0.4, 0, 1)
        region = Hypercube(lcb=lcb, ucb=ucb)
        f = LinearObjective(rng.uniform(-0.3, 1.0, d))
        p0 = rng.dirichlet(np.ones(m))
        z0 = 0.5 * (lcb + ucb) @ p0
        s = Box(np.clip(z0 - 0.12, 0, 1), np.clip(z0 + 0.12, 0, 1))
        res = solve_ucb_step(region, f, s)
        lo, hi = grid @ lcb.T, grid @ ucb.T
        psis = np.where(f.c >= 0, hi, lo) @ f.c
        feas = np.all((hi >= s.lower) & (lo <= s.upper), axis=1)
        assert res.feasible and feas.any()
        assert abs(res.objective - psis[feas].max()) <= 1e-2


def _simplex_grid_m3(step=0.01):
    n = round(1 / step)
    return np.array([(i * step, j * step, 1 - i * step - j * step)
                     for i in range(n + 1) for j in range(n + 1 - i)])


def _random_region(rng, d, m, width=0.25):
    v = rng.random((d, m))
    w = rng.random((d, m)) * width
    lcb, ucb = np.clip(v - w, 0, 1), np.clip(v + w, 0, 1)
    return lcb, ucb, Hypercube(lcb=lcb, ucb=ucb)


def _box_touches_triangle(lo, hi, tri):
    """Separating-axis test of each box [lo_k, hi_k] against a triangle in the plane."""
    axes = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    for a, b in ((0, 1), (1, 2), (2, 0)):
        edge = tri[b] - tri[a]
        axes.append(np.array([-edge[1], edge[0]]))
    touches = np.ones(lo.shape[0], dtype=bool)
    for ax in axes:
        box_min = np.minimum(lo * ax, hi * ax).sum(axis=1)
        box_max = np.maximum(lo * ax, hi * ax).sum(axis=1)
        proj = tri @ ax
        touches &= (box_max >= proj.min() - 1e-12) & (box_min <= proj.max() + 1e-12)
    return touches


def test_ucb_step_vertex_target_vs_grid():
    rng = np.random.default_rng(11)
    grid = _simplex_grid_m3()
    verdicts = set()
    for trial in range(8):
        lcb, ucb, region = _random_region(rng, 2, 3)
        centers = rng.random(2)
        f = SeparableObjective([{"kind": "quad", "weight": 0.5, "center": float(c)}
                                for c in centers])
        tri = rng.random((3, 2))
        res = solve_ucb_step(region, f, VPolytope(tri))
        lo, hi = grid @ lcb.T, grid @ ucb.T
        feas = _box_touches_triangle(lo, hi, tri)
        assert res.feasible == bool(feas.any())
        verdicts.add(res.feasible)
        if res.feasible:
            assert res.gap <= GAP_TOL
            psis = (0.5 * (1 - (np.clip(centers, lo, hi) - centers) ** 2)).sum(axis=1)
            assert abs(res.objective - psis[feas].max()) <= 1e-2
    assert verdicts == {True, False}


def test_ucb_step_neg_distance_vs_grid():
    rng = np.random.default_rng(12)
    grid = _simplex_grid_m3()
    for trial in range(6):
        lcb, ucb, region = _random_region(rng, 2, 3, width=0.1)
        goal_lo = rng.random(2) * 0.5
        goal = Box(goal_lo, goal_lo + 0.1)
        f = NegativeDistance(goal)
        z0 = 0.5 * (lcb + ucb) @ rng.dirichlet(np.ones(3))
        s = Box(np.clip(z0 - 0.1, 0, 1), np.clip(z0 + 0.1, 0, 1))
        res = solve_ucb_step(region, f, s)
        lo, hi = grid @ lcb.T, grid @ ucb.T
        # psi(p) = -(distance between the achievable box and the goal box)
        psis = -np.linalg.norm(np.maximum(goal.lower - hi, 0) + np.maximum(lo - goal.upper, 0),
                               axis=1)
        feas = np.all((hi >= s.lower) & (lo <= s.upper), axis=1)
        assert res.feasible and feas.any()
        assert res.gap <= GAP_TOL
        assert abs(res.objective - psis[feas].max()) <= 1e-2


def test_ucb_step_sqrt_objective_vs_grid():
    # sqrt is not Lipschitz on [0, 1] and no override is given: the cutting
    # planes need none
    rng = np.random.default_rng(13)
    grid = _simplex_grid_m3()
    for trial in range(6):
        lcb, ucb, region = _random_region(rng, 2, 3)
        weights = rng.random(2) + 0.1
        f = SeparableObjective([{"kind": "sqrt", "weight": float(w)} for w in weights])
        assert not math.isfinite(f.lipschitz)
        a = rng.random(2) + 0.2
        z0 = 0.5 * (lcb + ucb) @ rng.dirichlet(np.ones(3))
        s = Halfspaces([a.tolist()], [float(a @ z0)])
        res = solve_ucb_step(region, f, s)
        lo, hi = grid @ lcb.T, grid @ ucb.T
        psis = np.sqrt(hi) @ weights
        feas = lo @ a <= s.offsets[0]
        assert res.feasible and feas.any()
        assert res.gap <= GAP_TOL
        assert abs(res.objective - psis[feas].max()) <= 1e-2


def _feasibility_lp(lcb, ucb, s):
    """Does the box [L p, U p] touch S for some p in the simplex?  An LP in
    (p, z[, lam]) with the witness z kept explicit for every target kind."""
    d, m = lcb.shape
    k = s.points.shape[0] if isinstance(s, VPolytope) else 0
    n = m + d + k
    eye = np.eye(d)
    a_ub = [np.hstack([lcb, -eye, np.zeros((d, k))]), np.hstack([-ucb, eye, np.zeros((d, k))])]
    b_ub = [np.zeros(d), np.zeros(d)]
    a_eq = [np.concatenate([np.ones(m), np.zeros(d + k)])[None, :]]
    b_eq = [np.ones(1)]
    if isinstance(s, Box):
        a_ub += [np.hstack([np.zeros((d, m)), eye]), np.hstack([np.zeros((d, m)), -eye])]
        b_ub += [s.upper, -s.lower]
    elif isinstance(s, Halfspaces):
        a_ub += [np.hstack([np.zeros((s.k, m)), s.normals]), np.hstack([np.zeros((d, m)), eye])]
        b_ub += [s.offsets, s.upper]
    elif isinstance(s, VPolytope):
        a_eq += [np.hstack([np.zeros((d, m)), eye, -s.points.T]),
                 np.concatenate([np.zeros(m + d), np.ones(k)])[None, :]]
        b_eq += [np.zeros(d), np.ones(1)]
    res = solve_dense_lp(np.zeros(n), a_ub=np.vstack(a_ub), b_ub=np.concatenate(b_ub),
                         a_eq=np.vstack(a_eq), b_eq=np.concatenate(b_eq))
    return res.status == "optimal"


# data on a 1e-3 lattice, 0 and 1 included: lp.py pivots on entries down to
# 1e-11, and bound entries far below 1e-6 can make it misjudge feasibility
_unit = st.integers(0, 1000).map(lambda k: k / 1000)


def _lattice(shape, lo=0.0, hi=1.0):
    return hnp.arrays(float, shape, elements=_unit.map(lambda u: lo + (hi - lo) * u))


@st.composite
def _step_problems(draw):
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    a = draw(_lattice((d, m)))
    b = draw(_lattice((d, m)))
    lcb, ucb = np.minimum(a, b), np.maximum(a, b)
    kind = draw(st.sampled_from(["none", "box", "halfspaces", "vertices"]))
    if kind == "box":
        lo = draw(_lattice(d))
        hi = draw(_lattice(d))
        s = Box(np.minimum(lo, hi), np.maximum(lo, hi))
    elif kind == "halfspaces":
        k = draw(st.integers(1, 2))
        normals = draw(_lattice((k, d), -1.0, 1.0))
        offsets = draw(_lattice(k, 0.0, 1.5))  # 0 is in S
        upper = draw(_lattice(d, 0.2, 1.0))
        s = Halfspaces(normals, offsets, upper)
    elif kind == "vertices":
        s = VPolytope(draw(_lattice((draw(st.integers(1, 3)), d))))
    else:
        s = None
    fkind = draw(st.sampled_from(["linear", "separable", "neg_distance"]))
    if fkind == "linear":
        f = LinearObjective(draw(_lattice(d, -1.0, 1.0)))
    elif fkind == "separable":
        f = SeparableObjective([{"kind": draw(st.sampled_from(["quad", "log1p", "sqrt"])),
                                 "weight": draw(_unit.map(lambda u: 0.1 + 1.9 * u)),
                                 "center": draw(_unit)} for _ in range(d)])
    else:
        lo = draw(_lattice(d))
        hi = draw(_lattice(d))
        f = NegativeDistance(Box(np.minimum(lo, hi), np.maximum(lo, hi)))
    return lcb, ucb, s, f, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_step_problems())
def test_ucb_step_certified_property(problem):
    lcb, ucb, s, f, seed = problem
    res = solve_ucb_step(Hypercube(lcb=lcb, ucb=ucb), f, s)
    assert res.feasible == (s is None or _feasibility_lp(lcb, ucb, s))
    if not res.feasible:
        return
    assert res.gap <= GAP_TOL
    # no region matrix at any sampled mixture beats the certified optimum
    rng = np.random.default_rng(seed)
    d, m = lcb.shape
    for _ in range(50):
        p = rng.dirichlet(np.ones(m))
        z = (lcb + rng.random((d, m)) * (ucb - lcb)) @ p
        if s is None or s.contains(z, tol=0.0):
            assert f.value(z) <= res.objective + res.gap + 1e-9


# the scalar certify of the one-constraint step LPs against the dense solver:
# entries on a grid of eighths make exact reward ties and equal columns
# common, a grid of thousandths makes generic ones


def _grid(draw, den, shape, lo=0.0, hi=1.0):
    return draw(hnp.arrays(float, shape, elements=st.integers(0, den).map(
        lambda k: lo + (hi - lo) * k / den)))


def _dense_verdict(c, a_ub, b_ub, a_eq, b_eq, basis, m):
    """The dense solver warm from ``basis``: (certified with no pivot, the
    result, its p normalized as the steps play it)."""
    res = solve_dense_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, basis=basis)
    if res.status != "optimal":
        return False, res, None
    p = np.maximum(res.x[:m], 0.0)
    return res.pivots == 0, res, p / p.sum()


@st.composite
def _knapsack_bases(draw):
    """max r.p  s.t.  a.p <= cap  over the simplex, with a basis of two of
    its columns (arms, or m for the slack): either drawn at random, and then
    often singular, infeasible or in need of pivots, or the optimal basis of
    the same LP with other rewards."""
    m = draw(st.integers(1, 5))
    den = draw(st.sampled_from([8, 1000]))
    r, a = _grid(draw, den, m), _grid(draw, den, m)
    cap = draw(st.integers(1, den).map(lambda k: k / den))
    if draw(st.booleans()):
        basis = draw(st.lists(st.integers(0, m), min_size=2, max_size=2, unique=True))
    else:
        basis = solve_lp(_grid(draw, den, m), a[None, :], cap).basis
    return r, a, cap, basis


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_knapsack_bases())
def test_scalar_certify_matches_dense_knapsack(case):
    r, a, cap, basis = case
    m = r.size
    ws = {}
    got = solve_lp(r, a[None, :], cap, warm_basis=basis, workspace=ws)
    certified, ref, p = _dense_verdict(r, a[None, :], [cap], np.ones((1, m)), [1.0], basis, m)
    assert ws.get("lp_scalar", 0) == int(certified)
    assert got.feasible == (ref.status == "optimal")
    if got.feasible:
        assert got.basis == ref.basis
        assert np.allclose(got.policy.weights, p, rtol=0.0, atol=1e-12)
        assert got.objective == pytest.approx(ref.value, abs=1e-12)
    if certified:
        assert got.basis == basis


@st.composite
def _one_halfspace_steps(draw):
    """A linear step over one unclipped halfspace, f with mixed signs and one
    zero coefficient, and two interval regions: the second step starts from
    the basis of the first, solved for f or for another linear objective
    (whose basis the second step may then have to leave)."""
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    den = draw(st.sampled_from([8, 1000]))
    regions = []
    for _ in range(2):
        a, b = _grid(draw, den, (d, m)), _grid(draw, den, (d, m))
        regions.append(Hypercube(lcb=np.minimum(a, b), ucb=np.maximum(a, b)))
    if draw(st.booleans()):     # a small move, as between two steps of a run
        keep = draw(hnp.arrays(bool, (d, m)))
        lcb = np.where(keep, regions[0].lcb, regions[1].lcb)
        ucb = np.where(keep, regions[0].ucb, regions[1].ucb)
        regions[1] = Hypercube(lcb=np.minimum(lcb, ucb), ucb=np.maximum(lcb, ucb))
    c = _grid(draw, den, d, -1.0, 1.0)
    c[draw(st.integers(0, d - 1))] = 0.0
    first_c = c if draw(st.booleans()) else _grid(draw, den, d, -1.0, 1.0)
    try:
        s = Halfspaces(_grid(draw, den, (1, d), -1.0, 1.0), _grid(draw, den, 1, -0.5, 1.5))
    except ValueError:          # empty
        s = None
    return regions, LinearObjective(first_c), LinearObjective(c), s


def _highs_one_halfspace_step(hc, c, s):
    """The step with nothing eliminated, by HiGHS: maximize c.z over (p, z, w)
    with p in the simplex, the reward witness z and a witness w of the
    halfspace both in the box [L p, U p], and a.w <= b.  Returns the optimal
    value, or None when infeasible."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    d, m = hc.lcb.shape
    eye, zero = np.eye(d), np.zeros((d, d))
    a_ub = np.vstack([np.hstack([hc.lcb, -eye, zero]), np.hstack([-hc.ucb, eye, zero]),
                      np.hstack([hc.lcb, zero, -eye]), np.hstack([-hc.ucb, zero, eye]),
                      np.concatenate([np.zeros(m + d), s.normals[0]])[None, :]])
    b_ub = np.concatenate([np.zeros(4 * d), s.offsets])
    a_eq = np.concatenate([np.ones(m), np.zeros(2 * d)])[None, :]
    ref = linprog(np.concatenate([np.zeros(m), -c, np.zeros(d)]), A_ub=a_ub, b_ub=b_ub,
                  A_eq=a_eq, b_eq=[1.0], bounds=[(0.0, None)] * (m + 2 * d), method="highs")
    assert ref.status in (0, 2), ref.message
    return -ref.fun if ref.status == 0 else None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_one_halfspace_steps())
def test_one_halfspace_step_is_the_one_row_lp(case):
    """A linear step over one unclipped halfspace is  max r.p  s.t.  g.p <= b
    over the simplex, r = c+ U + c- L, g = a+ L + a- U: its verdict and value
    are the unreduced program's, and a warm step is solve_lp on (r, g, b)."""
    (first_hc, second_hc), first_f, f, s = case
    assume(s is not None)
    first = solve_ucb_step(first_hc, first_f, s)
    ws = {}
    got = solve_ucb_step(second_hc, f, s, warm=first, workspace=ws)
    for hc, obj, res in ((first_hc, first_f, first), (second_hc, f, got)):
        ref = _highs_one_halfspace_step(hc, obj.c, s)
        assert res.feasible == (ref is not None)
        if res.feasible:
            assert res.objective == pytest.approx(ref, rel=0.0, abs=1e-9)
    assume(first.feasible)
    # (r, g) stacked in one product, which rounds as the step's does
    c, a, b = f.c, s.normals[0], float(s.offsets[0])
    r, g = (np.vstack([np.maximum(c, 0.0), np.minimum(a, 0.0)]) @ second_hc.ucb
            + np.vstack([np.minimum(c, 0.0), np.maximum(a, 0.0)]) @ second_hc.lcb)
    ref = solve_lp(r, g[None, :], b, warm_basis=first.basis)
    accepted = _certify_pair(r.tolist(), g.tolist(), b, *first.basis) is not None
    assert ws.get("lp_scalar", 0) == int(accepted)
    assert got.feasible == ref.feasible
    if got.feasible:
        assert got.basis == ref.basis
        assert np.array_equal(got.policy.weights, ref.policy.weights)
    if accepted:
        assert got.basis == first.basis


def test_ucb_step_ellipsoid_region():
    # the relaxed cube of an ellipsoid with tiny uncertainty steps like the
    # degenerate region
    rng = np.random.default_rng(6)
    d, m, n = 2, 3, 2
    contexts = rng.random((d, m, n))
    contexts /= contexts.sum(axis=2, keepdims=True)
    w = rng.uniform(0.2, 0.8, (d, n))
    es = EllipsoidState(d, n, radius_sq=1e-8)
    es.center = w.copy()
    v = np.einsum("jin,jn->ji", contexts, w)
    f = LinearObjective(np.ones(d))
    res = solve_ucb_step(es.hypercube(contexts), f, None)
    direct = solve_ucb_step(degenerate_region(v), f, None)
    assert abs(res.objective - direct.objective) <= 1e-3


def test_ogd_step_examples():
    st = make_oco("ogd", 2, radius=1.0, grad_bound=1.0)
    st0 = ogd_step(st, np.zeros(2))
    assert np.allclose(st0.theta, 0.0)
    st1 = ogd_step(st, np.array([2.0, 0.0]))
    assert np.allclose(st1.theta, [-1.0, 0.0])   # radial projection to the unit ball


def test_ogd_regret_small():
    rng = np.random.default_rng(7)
    d, horizon = 3, 4000
    g_bound = math.sqrt(d)
    for trial in range(5):
        st = make_oco("ogd", d, radius=1.0, grad_bound=g_bound)
        grads = rng.uniform(-1, 1, (horizon, d))
        loss = 0.0
        for g in grads:
            loss += float(st.theta @ g)
            st = ogd_step(st, g)
        best = -np.linalg.norm(grads.sum(axis=0))   # best fixed point in hindsight
        assert loss - best <= 1.5 * g_bound * math.sqrt(horizon)


def test_entropic_step_examples():
    st = make_oco("entropic", 2, radius=1.0, grad_bound=1.0)
    st0 = entropic_step(st, np.zeros(2))
    assert np.allclose(st0.theta, 0.0)
    st = make_oco("entropic", 1, radius=0.7, grad_bound=1.0)
    for _ in range(400):
        st = entropic_step(st, np.array([1.0]))
    assert st.theta[0] == pytest.approx(-0.7, abs=1e-2)
    # domain invariant under random sign gradients
    rng = np.random.default_rng(8)
    st = make_oco("entropic", 4, radius=1.3, grad_bound=1.0)
    for _ in range(200):
        st = entropic_step(st, rng.choice([-1.0, 1.0], 4))
        assert np.abs(st.theta).sum() <= 1.3 + 1e-9


def test_oco_kind_validation():
    with pytest.raises(ConfigError):
        make_oco("mirror", 2, 1.0, 1.0)
    st = make_oco("ogd", 2, 1.0, 1.0)
    with pytest.raises(Exception):
        entropic_step(st, np.zeros(2))


def _ellipsoid_state(seed, n, m, d, plays, radius_sq):
    """Contexts drawn as the ``contextual`` generator draws them, and the
    confidence ellipsoids after ``plays`` uniformly random plays with
    Bernoulli observations."""
    rng = np.random.default_rng(seed)
    contexts = rng.random((d, m, n))
    contexts /= contexts.sum(axis=2, keepdims=True)
    v = np.einsum("jin,jn->ji", contexts, rng.uniform(0.1, 0.6, (d, n)))
    es = EllipsoidState(d, n, radius_sq)
    for _ in range(plays):
        arm = int(rng.integers(m))
        es.update(contexts[:, arm, :], (rng.random(d) < v[:, arm]).astype(float))
    return es, contexts


@st.composite
def _contextual_steps(draw):
    d = draw(st.integers(1, 2))
    state = (draw(st.integers(0, 2 ** 32 - 1)), draw(st.integers(1, 3)), 3, d,
             draw(st.integers(0, 200)), draw(st.sampled_from([None, 0.5, 0.05, 0.005])))
    coefficients = tuple(draw(st.integers(0, 8).map(lambda k: k / 8)) for _ in range(d))
    ends = [sorted(draw(st.integers(0, 20).map(lambda k: k / 20)) for _ in range(2))
            for _ in range(d)]
    return state, coefficients, tuple(e[0] for e in ends), tuple(e[1] for e in ends)


# the reproduction where the saddle search of earlier versions reported
# "infeasible" although 387 of the 5 151 grid points below are feasible
@example(((5, 2, 3, 2, 200, None), (1.0, 0.5), (0.0, 0.0), (1.0, 0.45)))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(_contextual_steps())
def test_ellipsoid_intervals_contain_ellipsoid(case):
    (seed, n, m, d, plays, radius_sq), coefficients, lower, upper = case
    es, contexts = _ellipsoid_state(seed, n, m, d, plays, radius_sq)
    hc = es.hypercube(contexts)
    lo = np.array([[ellipsoid_min_linear(es, j, contexts[j, i]) for i in range(m)]
                   for j in range(d)])
    hi = np.array([[ellipsoid_max_linear(es, j, contexts[j, i]) for i in range(m)]
                   for j in range(d)])
    # each entry is the exact ellipsoid range of x_{j,i} . w, clipped to [0, 1]
    assert np.allclose(hc.lcb, np.clip(lo, 0.0, 1.0), rtol=0.0, atol=1e-12)
    assert np.allclose(hc.ucb, np.clip(hi, 0.0, 1.0), rtol=0.0, atol=1e-12)
    # weights sampled inside each ellipsoid give means inside the intervals
    rng = np.random.default_rng(seed)
    for _ in range(200):
        u = rng.standard_normal((d, n))
        u /= np.maximum(np.linalg.norm(u, axis=1, keepdims=True), 1e-12)
        scale = math.sqrt(es.radius_sq) * rng.random((d, 1)) ** (1.0 / n)
        w = np.stack([es.center[j] + scale[j] * np.linalg.cholesky(es.gram_inv[j]) @ u[j]
                      for j in range(d)])
        means = np.einsum("jin,jn->ji", contexts, w)
        assert np.all((lo - 1e-9 <= means) & (means <= hi + 1e-9))
        clipped = np.clip(means, 0.0, 1.0)
        assert np.all((hc.lcb - 1e-9 <= clipped) & (clipped <= hc.ucb + 1e-9))
    # the step on the unclipped intervals (the cube ucb_bwcr steps on when no
    # entry clips) is no worse than the exact ellipsoid intervals
    # u . c_j -+ r ||u||, u = sum_i p_i x_{j,i}, anywhere on a simplex grid
    f, s = LinearObjective(np.array(coefficients)), Box(np.array(lower), np.array(upper))
    res = solve_ucb_step(Hypercube.unchecked(lo, hi), f, s)
    grid = _simplex_grid_m3()
    u = np.einsum("gi,jin->jgn", grid, contexts)
    mid = np.einsum("jgn,jn->gj", u, es.center)
    half = np.sqrt(es.radius_sq * np.maximum(
        np.einsum("jgn,jnk,jgk->gj", u, es.gram_inv, u), 0.0))
    feas = np.all((mid + half >= s.lower + 1e-9) & (mid - half <= s.upper - 1e-9), axis=1)
    if feas.any():
        assert res.feasible and res.gap <= GAP_TOL
        assert res.objective >= ((mid + half) @ f.c)[feas].max() - 1e-9
    if np.all((lo >= 0.0) & (hi <= 1.0)):
        got = solve_ucb_step(hc, f, s)
        assert got.feasible == res.feasible
        if got.feasible:
            assert got.gap <= GAP_TOL
            assert got.objective == pytest.approx(res.objective, abs=1e-9)

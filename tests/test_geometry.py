import math

import numpy as np
import pytest

from bwcr import geometry
from bwcr.errors import SolverLimitError, UnsupportedError
from bwcr.geometry import (Box, Halfspaces, NormPair, VPolytope, project_l2_ball, set_from_json,
                           smoothed_distance)

L2 = NormPair("l2")
LINF = NormPair("linf")


def test_norm_pair_duals_and_ones():
    assert NormPair("l2").dual == "l2"
    assert NormPair("linf").dual == "l1"
    assert NormPair("l1").dual == "linf"
    with pytest.raises(ValueError):
        NormPair("l3")


def test_support_box():
    s = Box(np.zeros(2), np.ones(2))
    assert s.support(np.array([1.0, -1.0])) == pytest.approx(1.0)
    assert np.array_equal(s.support_point(np.array([1.0, -1.0])), [1.0, 0.0])


def test_support_vpolytope():
    s = VPolytope([[0, 0], [1, 0], [0, 1]])
    assert s.support(np.array([2.0, 1.0])) == pytest.approx(2.0)
    assert np.array_equal(s.support_point(np.array([2.0, 1.0])), [1.0, 0.0])


def test_support_negation_symmetry():
    rng = np.random.default_rng(0)
    s = Box(rng.random(3) * 0.3, 0.5 + rng.random(3) * 0.5)
    for _ in range(30):
        theta = rng.standard_normal(3)
        # support(theta) = -(min over S of (-theta).s); the minimizer of
        # (-theta).s is exactly the support point of theta
        min_val = float((-theta) @ s.support_point(theta))
        assert s.support(theta) == pytest.approx(-min_val, abs=1e-12)


def test_project_idempotent_and_membership():
    rng = np.random.default_rng(1)
    sets = [
        Box(np.array([0.1, 0.2]), np.array([0.6, 0.9])),
        Halfspaces([[1.0, 1.0]], [0.8]),
        VPolytope([[0, 0], [1, 0], [0, 1]]),
    ]
    for s in sets:
        for _ in range(20):
            x = rng.random(2)
            pi = s.project(x)
            assert s.contains(pi, tol=1e-6)
            again = s.project(pi)
            assert np.allclose(pi, again, atol=1e-7)
            if s.contains(x):
                assert np.allclose(pi, x)


def test_halfspace_clip_one_dim():
    s = Halfspaces([[1.0]], [0.5])
    assert s.project(np.array([0.8]))[0] == pytest.approx(0.5)
    assert s.distance(np.array([0.8])) == pytest.approx(0.3)
    assert s.distance(np.array([0.2])) == 0.0


def test_triangle_projection_against_grid():
    tri = VPolytope([[0, 0], [1, 0], [0, 1]])
    x = np.array([1.0, 1.0])
    pi = tri.project(x)
    assert np.allclose(pi, [0.5, 0.5], atol=1e-6)
    assert tri.distance(x) == pytest.approx(math.sqrt(0.5), abs=1e-6)
    # dense grid oracle over the triangle, tolerance 1e-3
    pts = []
    for a in np.linspace(0, 1, 201):
        for b in np.linspace(0, 1 - a, int((1 - a) * 200) + 1):
            pts.append((a, b))
    pts = np.array(pts)
    dists = np.linalg.norm(pts - x, axis=1)
    assert tri.distance(x) == pytest.approx(dists.min(), abs=1e-3)


def test_halfspace_distance_formula():
    # unit normal: distance is the positive part of theta.x - b
    theta = np.array([3.0, 4.0]) / 5.0
    s = Halfspaces([theta.tolist()], [0.4])
    x = np.array([0.8, 0.6])
    expected = max(float(theta @ x) - 0.4, 0.0)
    assert s.distance(x) == pytest.approx(expected, abs=1e-9)


def test_box_distance_norms():
    s = Box(np.zeros(2), np.array([0.5, 0.5]))
    x = np.array([0.9, 0.8])
    assert s.distance(x, L2) == pytest.approx(math.hypot(0.4, 0.3))
    assert s.distance(x, LINF) == pytest.approx(0.4)
    assert s.distance(x, NormPair("l1")) == pytest.approx(0.7)
    assert np.allclose(s.distance_many(np.array([x, [0.1, 0.1]])), [math.hypot(0.4, 0.3), 0.0])


def test_smoothed_distance_examples():
    s = Box(np.array([0.0]), np.array([0.5]))
    v, g = smoothed_distance(np.array([0.3]), s, 0.1)
    assert v == 0.0 and g[0] == 0.0
    v, g = smoothed_distance(np.array([0.8]), s, 0.1)
    assert v == pytest.approx(0.25, abs=1e-12)
    assert g[0] == pytest.approx(1.0, abs=1e-12)
    v, g = smoothed_distance(np.array([0.55]), s, 0.1)
    assert v == pytest.approx(0.0125, abs=1e-12)
    assert g[0] == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        smoothed_distance(np.array([0.5]), s, 0.0)


def test_smoothed_distance_matches_dual_maximization():
    # independent evaluation of max_{|theta|<=1} theta.z - h_S(theta)
    # - sigma/2 |theta|^2 by projected supergradient ascent
    rng = np.random.default_rng(5)
    s = Box(np.array([0.1, 0.2]), np.array([0.4, 0.5]))
    sigma = 0.15
    for _ in range(12):
        z = rng.random(2)
        val, _ = smoothed_distance(z, s, sigma)
        theta = np.zeros(2)
        best = -math.inf
        for k in range(4000):
            best = max(best, float(theta @ z) - s.support(theta)
                       - 0.5 * sigma * float(theta @ theta))
            grad = z - s.support_point(theta) - sigma * theta
            theta = project_l2_ball(theta + (0.5 / math.sqrt(k + 1)) * grad, 1.0)
        assert val == pytest.approx(best, abs=2e-5)


def test_smoothed_gradient_finite_differences():
    rng = np.random.default_rng(2)
    s = Halfspaces([[0.6, 0.8]], [0.5])
    sigma, h = 0.2, 1e-5
    checked = 0
    while checked < 25:
        z = rng.random(2)
        r = s.distance(z)
        if abs(r - sigma) < 1e-3 or r < 1e-3:
            continue
        val, grad = smoothed_distance(z, s, sigma)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (smoothed_distance(z + e, s, sigma)[0]
                  - smoothed_distance(z - e, s, sigma)[0]) / (2 * h)
            assert grad[j] == pytest.approx(fd, abs=1e-4)
        checked += 1


def test_smoothing_sandwich():
    rng = np.random.default_rng(3)
    s = Box(np.array([0.0, 0.0]), np.array([0.3, 0.6]))
    sigma = 0.25
    for _ in range(200):
        z = rng.random(2)
        d = s.distance(z)
        v, _ = smoothed_distance(z, s, sigma)
        assert v <= d + 1e-12
        assert d <= v + sigma / 2.0 + 1e-12


def test_shrink():
    b = Box(np.zeros(2), np.array([0.8, 0.6]))
    same = b.shrink(0.0)
    assert np.allclose(same.upper, b.upper)
    s = b.shrink(0.1)
    assert np.allclose(s.upper, [0.72, 0.54])
    h = Halfspaces([[1.0, 1.0]], [1.0])
    hs = h.shrink(0.5)
    assert hs.offsets[0] == pytest.approx(0.5)
    assert np.allclose(hs.upper, [0.5, 0.5])
    with pytest.raises(UnsupportedError):
        Box(np.array([0.1]), np.array([0.5])).shrink(0.1)
    with pytest.raises(UnsupportedError):
        Halfspaces([[-1.0]], [0.0]).shrink(0.1)
    v = VPolytope([[0.0, 0.0], [1.0, 0.0]], downward_closed=True)
    assert np.allclose(v.shrink(0.25).points, [[0, 0], [0.75, 0]])
    with pytest.raises(UnsupportedError):
        VPolytope([[0.5, 0.5]]).shrink(0.1)


def test_shrink_absorption_property():
    # for S containing c * ones, points within eps*c (sup-norm) of the shrunk
    # set stay inside S
    s = Halfspaces([[1.0, 1.0]], [2.0])   # contains (1,1)
    eps = 0.2
    shrunk = s.shrink(eps)
    rng = np.random.default_rng(9)
    for _ in range(200):
        base = rng.random(2) * shrunk.upper
        if not shrunk.contains(base):
            base = shrunk.project(base)
        x = base + (rng.random(2) * 2 - 1) * eps
        x = np.clip(x, 0, 1)
        assert s.contains(x, tol=1e-9)


def test_support_vs_projection_duality():
    rng = np.random.default_rng(7)
    sets = [Box(np.zeros(3), rng.random(3)),
            Halfspaces([[0.5, 0.5, 0.7]], [0.6]),
            VPolytope(rng.random((5, 3)) * 0.8)]
    for s in sets:
        for _ in range(25):
            theta = rng.standard_normal(3)
            x = rng.random(3)
            assert theta @ s.project(x) <= s.support(theta) + 1e-7


def test_empty_halfspace_rejected():
    with pytest.raises(ValueError):
        Halfspaces([[1.0, 1.0]], [-3.0])


def test_serialization_roundtrip():
    sets = [Box(np.zeros(2), np.array([0.5, 1.0])),
            Halfspaces([[1.0, 0.0], [0.3, 0.7]], [0.5, 0.4]),
            VPolytope([[0, 0], [0.5, 0.5]], downward_closed=True)]
    for s in sets:
        back = set_from_json(s.to_json())
        assert type(back) is type(s)
        theta = np.array([0.3, -0.7])
        assert back.support(theta) == pytest.approx(s.support(theta))


def _support_knapsack_numpy(theta, a, b, upper):
    # the numpy-scalar form of Halfspaces._support_knapsack, kept as the
    # reference its float arithmetic must reproduce bit for bit
    x = np.where(theta > 0.0, upper, 0.0)
    load = float(a @ x)
    if load <= b:
        return float(theta @ x), x
    moves = []
    for j in range(theta.shape[0]):
        if theta[j] > 0.0 and a[j] > 0.0 and x[j] > 0.0:
            moves.append((theta[j] / a[j], j, -1.0, a[j] * x[j]))
        elif theta[j] <= 0.0 and a[j] < 0.0 and upper[j] > 0.0:
            moves.append((-theta[j] / -a[j], j, +1.0, -a[j] * upper[j]))
    moves.sort(key=lambda t: (t[0], t[1]))
    excess = load - b
    for _, j, direction, cap in moves:
        take = min(cap, excess)
        x[j] += direction * take / abs(a[j])
        excess -= take
        if excess <= 1e-15:
            break
    if excess > 1e-9:
        raise ValueError("halfspace does not intersect the box; set invalid")
    return float(theta @ x), x


def test_support_knapsack_matches_numpy_reference():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(3000):
        d = int(rng.integers(1, 7))
        # lattice values make ties in theta, in the loss rates and in the load
        a = rng.choice([-0.5, -0.25, 0.0, 0.25, 0.5, 1.0], d) if rng.random() < 0.5 \
            else rng.uniform(-1.0, 1.0, d) * (rng.random(d) < 0.8)
        upper = rng.choice([0.0, 0.5, 1.0], d) if rng.random() < 0.3 else rng.uniform(0.0, 1.0, d)
        b = float(rng.uniform(max(0.0, float(np.minimum(a, 0.0) @ upper)) + 1e-9, 1.5))
        if rng.random() < 0.3:
            theta = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], d)
        else:
            theta = rng.uniform(-1.0, 1.0, d) * (rng.random(d) < 0.8)
        h = Halfspaces([a], [b], upper)
        value, x = h.support_and_point(theta)
        ref_value, ref_x = _support_knapsack_numpy(theta, a, b, upper)
        assert value == ref_value and np.array_equal(x, ref_x)
        assert h.support(theta) == ref_value and np.array_equal(h.support_point(theta), ref_x)
        checked += 1
    assert checked == 3000


def test_support_and_point_matches_separate_calls():
    rng = np.random.default_rng(4)
    sets = [Box(np.array([0.1, 0.0, 0.2]), np.array([0.6, 0.5, 0.9])),
            VPolytope(rng.random((6, 3))),
            Halfspaces([[0.6, 0.48, 0.64]], [0.5]),
            Halfspaces([[0.6, 0.48, 0.64], [1.0, 0.0, 1.0]], [0.5, 0.7])]
    for s in sets:
        ws_pair, ws_calls = {}, {}
        for _ in range(50):
            theta = rng.uniform(-1.0, 1.0, 3)
            value, point = s.support_and_point(theta, ws_pair)
            assert value == s.support(theta, ws_calls)
            if isinstance(s, Halfspaces) and s.k > 1:
                # one LP solve: its point attains its value, and no second
                # solve re-certifies it
                assert s.contains(point) and abs(float(theta @ point) - value) <= 1e-12
            else:
                assert np.array_equal(point, s.support_point(theta, ws_calls))


def test_project_l2_ball_matches_linalg_norm():
    rng = np.random.default_rng(9)
    for _ in range(2000):
        v = rng.standard_normal(int(rng.integers(1, 8))) * 10.0 ** rng.integers(-3, 3)
        radius = float(rng.choice([0.5, 1.0, 3.0, np.inf]))
        nrm = np.linalg.norm(v)
        expected = v if (nrm <= radius or not math.isfinite(radius)) else v * (radius / nrm)
        assert np.array_equal(project_l2_ball(v, radius), expected)


@pytest.mark.parametrize("normals, offsets, x, expected, atol, dist", [
    # Dykstra's method stopped here, where its iterate stalled, at
    # (-0.012127, 0.121670): outside the box, at distance 0.8000302.  The
    # projection is the vertex where the second halfspace meets x_1 = 0.
    ([[0.45, 1.23], [0.84, 1.07]], [0.19, 0.12], [0.04, 0.92], [0.0, 0.12 / 1.07],
     [0.0, 1e-16], 0.8088401433535668),
    # one covering halfspace x_1 + x_2 >= 1.5: Dykstra's method stopped at
    # (0.25, 1.25), outside the box, at distance 0.7906.  The projection is
    # the corner of the face x_1 + x_2 = 1.5 with the box face x_2 = 1.
    ([[-0.5, -0.5]], [-0.75], [-0.5, 1.0], [0.5, 1.0], [1e-15, 1e-15], 1.0),
], ids=["two_halfspaces", "one_halfspace"])
def test_projection_where_dykstra_stalled(normals, offsets, x, expected, atol, dist):
    s = Halfspaces(normals, offsets)
    x = np.array(x)
    y = s.project(x)
    assert np.all(np.abs(y - expected) <= atol)
    assert s.contains(y, tol=1e-12)
    assert s.distance(x) == pytest.approx(dist, abs=1e-15)
    assert s.distance_many(x[None])[0] == pytest.approx(dist, abs=1e-15)


def _random_polytopes(rng, count):
    """Seeded packing {a x <= b, a >= 0} and covering {-a x <= -b} targets
    inside [0, 1]^d with k in 1..6 halfspaces and d in 2..6."""
    for n in range(count):
        k, d = int(rng.integers(1, 7)), int(rng.integers(2, 7))
        a = rng.random((k, d)) * (rng.random((k, d)) < 0.8)
        a[np.arange(k), rng.integers(0, d, k)] += 0.1     # no zero row
        b = a.sum(axis=1) * rng.uniform(0.2, 0.8, k)
        yield Halfspaces(a, b) if n % 2 else Halfspaces(-a, -b)


def _sample_points(rng, d):
    """Uniform points in [0, 1]^d, then the running averages of 0/1
    observations with fixed means, which settle onto one face."""
    obs = (rng.random((120, d)) < rng.random(d)).astype(float)
    return np.vstack([rng.random((40, d)),
                      np.cumsum(obs, axis=0) / np.arange(1, 121)[:, None]])


def test_halfspace_projection_kkt_and_batch():
    rng = np.random.default_rng(2024)
    outside = 0
    for s in _random_polytopes(rng, 24):
        c, e = s._qp_rows, s._qp_rhs
        xs = _sample_points(rng, s.dim)
        inside = np.array([s.contains(x) for x in xs])
        samples = rng.random((400, s.dim))
        samples = samples[[s.contains(y, tol=0.0) for y in samples]]
        for x in xs[~inside][::4]:
            active, lam, y = s._active_set(x)
            assert np.array_equal(s.project(x), y)
            assert np.all(c @ y <= e + 1e-12)                               # feasible
            assert np.all(lam >= 0.0)                                       # dual feasible
            assert np.allclose(x - lam @ c[active], y, rtol=0.0, atol=1e-12)  # stationary
            assert np.allclose(c[active] @ y, e[active], rtol=0.0, atol=1e-12)
            gap = math.dist(x, y)
            assert all(gap <= math.dist(x, z) + 1e-12 for z in samples)
        per_row = np.array([s.distance(x) for x in xs])
        assert np.all(per_row[inside] == 0.0)
        assert np.allclose(s.distance_many(xs), per_row, rtol=0.0, atol=1e-15)
        outside += int((~inside).sum())
    assert outside > 1000


def test_halfspace_projection_matches_slsqp():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(77)
    for s in _random_polytopes(rng, 12):
        c, e = s._qp_rows, s._qp_rhs
        xs = _sample_points(rng, s.dim)[::16]
        for x in xs:
            y = s.project(x)
            res = optimize.minimize(
                lambda z: 0.5 * float((z - x) @ (z - x)), np.clip(x, 0.0, 1.0),
                jac=lambda z: z - x, method="SLSQP", options={"ftol": 1e-15, "maxiter": 500},
                constraints=[{"type": "ineq", "fun": lambda z: e - c @ z, "jac": lambda z: -c}])
            assert res.success
            assert np.allclose(res.x, y, rtol=0.0, atol=1e-9)


def test_halfspace_projection_raises_past_its_step_limit(monkeypatch):
    monkeypatch.setattr(geometry, "_QP_MAX_STEPS", 0)
    # (set, a point outside it, a point inside it)
    for s, x, inside in [
            (Halfspaces([[0.45, 1.23], [0.84, 1.07]], [0.19, 0.12]), [0.04, 0.92], [0.01, 0.01]),
            (Halfspaces([[-0.5, -0.5]], [-0.75]), [-0.5, 1.0], [0.9, 0.9])]:
        with pytest.raises(SolverLimitError):
            s.project(np.array(x))
        with pytest.raises(SolverLimitError):
            s.distance_many(np.array([x]))
        assert s.distance(np.array(inside)) == 0.0

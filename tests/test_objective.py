import math
import warnings

import numpy as np
import pytest

from bwcr.algorithms import AlgorithmConfig, make_algorithm
from bwcr.core import InstanceModel
from bwcr.errors import UnsupportedError
from bwcr.geometry import Box, Halfspaces, NormPair, smoothed_distance
from bwcr.objective import (LinearObjective, NegativeDistance, SeparableObjective,
                            _clip_domain, duality_gap_check, objective_from_json)


def _rand_objectives(rng):
    return [
        LinearObjective(rng.uniform(-0.5, 1.0, 3)),
        SeparableObjective([{"kind": "quad", "weight": 0.4, "center": 0.3},
                            {"kind": "log1p", "weight": 0.7},
                            {"kind": "quad", "weight": 0.2, "center": 0.8}]),
        NegativeDistance(Box(np.zeros(3), np.array([0.5, 0.4, 0.6]))),
    ]


def test_value_and_gradient_examples():
    f = LinearObjective(np.array([1.0, 0.0]))
    assert f.value(np.array([0.4, 0.9])) == pytest.approx(0.4)
    assert np.array_equal(f.supergradient(np.array([0.4, 0.9])), [1.0, 0.0])

    g = SeparableObjective([{"kind": "sqrt"}, {"kind": "sqrt"}])
    x = np.array([0.25, 0.25])
    assert g.value(x) == pytest.approx(1.0)
    assert np.allclose(g.supergradient(x), [1.0, 1.0])


def test_neg_distance_matches_geometry():
    rng = np.random.default_rng(0)
    s = Halfspaces([[0.8, 0.6]], [0.5])
    f = NegativeDistance(s)
    for _ in range(100):
        z = rng.random(2)
        assert f.value(z) == pytest.approx(-s.distance(z), abs=1e-12)


def test_domain_clipping_warns():
    f = LinearObjective(np.array([1.0]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert f.value(np.array([1.5])) == pytest.approx(1.0)
    assert caught and "clipping" in str(caught[0].message)


def _old_domain_check_warns(x):
    # the elementwise test the domain check used before its min/max fast path
    x = np.asarray(x, dtype=float)
    return bool(np.any(x < -1e-12) or np.any(x > 1.0 + 1e-12))


def test_clip_domain_warns_exactly_where_elementwise_check_did():
    eps = 1e-12
    nan = math.nan
    cases = [[], np.zeros((0, 3)), [0.5], 0.5, [nan], [nan, nan], [nan, 0.5],
             [nan, -1.0], [2.0, nan], [-eps], [-eps, 1.0 + eps], [-2 * eps],
             [1.0 + 2 * eps], [np.nextafter(-eps, -1.0)], [np.nextafter(1.0 + eps, 2.0)],
             [0.0, 1.0], [-0.0], [np.inf], [-np.inf, 0.5], [[0.2, 1.5], [0.1, 0.3]],
             [[0.2, nan], [0.1, 0.3]]]
    rng = np.random.default_rng(2)
    cases += [rng.uniform(-3 * eps, 1.0 + 3 * eps, int(rng.integers(1, 6)))
              for _ in range(300)]
    warned_cases = 0
    for x in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = _clip_domain(x)
        expected = _old_domain_check_warns(x)
        assert (len(caught) == 1) == expected and len(caught) <= 1, x
        assert np.array_equal(out, np.clip(np.asarray(x, dtype=float), 0.0, 1.0),
                              equal_nan=True)
        warned_cases += expected
    assert 0 < warned_cases < len(cases)


def test_fenchel_examples():
    c = np.array([0.6, 0.3])
    f = LinearObjective(c)
    assert f.conjugate(-c) == pytest.approx(0.0)

    s = Box(np.zeros(1), np.array([0.5]))
    g = NegativeDistance(s)
    assert g.conjugate(np.array([1.0])) == pytest.approx(0.5)

    h = SeparableObjective([{"kind": "sqrt"}])
    # grid oracle with step 1e-4: max_y (-0.5 y + sqrt(y))
    ys = np.linspace(0.0, 1.0, 10_001)
    oracle = np.max(-0.5 * ys + np.sqrt(ys))
    assert h.conjugate(np.array([-0.5])) == pytest.approx(0.5, abs=1e-9)
    assert h.conjugate(np.array([-0.5])) == pytest.approx(oracle, abs=1e-4)


def test_fenchel_conjugates_against_grid():
    rng = np.random.default_rng(1)
    ys = np.linspace(0.0, 1.0, 20_001)
    catalog = [("sqrt", lambda y, w, a: w * np.sqrt(y)),
               ("log1p", lambda y, w, a: w * np.log1p(y)),
               ("quad", lambda y, w, a: w * (1 - (y - a) ** 2))]
    for kind, phi in catalog:
        for _ in range(10):
            w = float(rng.uniform(0.2, 1.5))
            a = float(rng.uniform(0.0, 1.0))
            f = SeparableObjective([{"kind": kind, "weight": w, "center": a}])
            theta = float(rng.uniform(-2.0, 2.0))
            grid = np.max(theta * ys + phi(ys, w, a))
            assert f.conjugate(np.array([theta])) == pytest.approx(grid, abs=1e-7)
            y_star = f.conjugate_argmax(np.array([theta]))[0]
            attained = theta * y_star + phi(np.array([y_star]), w, a)[()]
            assert attained == pytest.approx(grid, abs=1e-9)


def test_duality_gap_families():
    rng = np.random.default_rng(2)
    f = LinearObjective(rng.uniform(-0.5, 1.0, 2))
    for _ in range(10):
        assert duality_gap_check(f, rng.random(2)) <= 1e-6

    s = Box(np.zeros(2), np.array([0.4, 0.5]))
    g = NegativeDistance(s)
    for _ in range(10):
        z = rng.random(2)
        if s.contains(z):
            continue
        assert duality_gap_check(g, z) <= 1e-4

    h = SeparableObjective([{"kind": "sqrt"}, {"kind": "sqrt"}])
    for _ in range(50):
        z = rng.uniform(0.05, 1.0, 2)
        assert duality_gap_check(h, z) <= 1e-3


def test_fenchel_young_inequality():
    rng = np.random.default_rng(3)
    for f in _rand_objectives(rng):
        for _ in range(40):
            theta = rng.standard_normal(3)
            if isinstance(f, NegativeDistance):
                theta = theta / max(np.linalg.norm(theta), 1.0)  # conjugate valid on the ball
            y = rng.random(3)
            assert f.conjugate(theta) >= float(y @ theta) + f.value(y) - 1e-9
            y_star = f.conjugate_argmax(theta)
            attained = float(y_star @ theta) + f.value(y_star)
            assert f.conjugate(theta) == pytest.approx(attained, abs=1e-9)


def test_concavity_random_triples():
    rng = np.random.default_rng(4)
    for f in _rand_objectives(rng):
        for _ in range(60):
            x, y = rng.random(3), rng.random(3)
            lam = float(rng.random())
            mix = f.value(lam * x + (1 - lam) * y)
            assert mix >= lam * f.value(x) + (1 - lam) * f.value(y) - 1e-9


def test_supergradient_inequality():
    rng = np.random.default_rng(5)
    for f in _rand_objectives(rng):
        for _ in range(60):
            x, y = rng.uniform(0.05, 1.0, 3), rng.random(3)
            g = f.supergradient(x)
            assert f.value(y) <= f.value(x) + float(g @ (y - x)) + 1e-9


def test_neg_distance_supergradient_box_norms():
    rng = np.random.default_rng(51)
    box = Box(np.array([0.2, 0.3, 0.1]), np.array([0.5, 0.6, 0.4]))
    for norm in ("l1", "linf"):
        f = NegativeDistance(box, NormPair(norm))
        for _ in range(200):
            x, y = rng.random(3), rng.random(3)
            g = f.supergradient(x)
            assert f.value(y) <= f.value(x) + float(g @ (y - x)) + 1e-12


def test_lipschitz_constants():
    f = LinearObjective(np.array([0.3, -0.4]))
    assert f.lipschitz == pytest.approx(0.5)
    g = SeparableObjective([{"kind": "quad", "weight": 1.0, "center": 0.2}])
    assert g.lipschitz == pytest.approx(1.6)   # 2 w max(a, 1-a)
    h = SeparableObjective([{"kind": "sqrt"}])
    assert math.isinf(h.lipschitz)
    nd = NegativeDistance(Box(np.zeros(2), np.ones(2)))
    assert nd.lipschitz == 1.0
    rng = np.random.default_rng(6)
    for f in _rand_objectives(rng):
        if not math.isfinite(f.lipschitz):
            continue
        for _ in range(40):
            x = rng.uniform(0.01, 1.0, 3)
            assert np.linalg.norm(f.supergradient(x)) <= f.lipschitz + 1e-9


def test_smoothness_inequality():
    # f(z + a(y-z)) >= f(z) + a grad.(y-z) - C a^2 / 2 for smooth catalog entries
    rng = np.random.default_rng(7)
    f = SeparableObjective([{"kind": "quad", "weight": 0.5, "center": 0.4},
                            {"kind": "log1p", "weight": 0.8},
                            {"kind": "quad", "weight": 0.3, "center": 0.9}])
    c = f.smoothness
    assert math.isfinite(c)
    for _ in range(200):
        z, y = rng.random(3), rng.random(3)
        alpha = float(rng.random())
        lhs = f.value(z + alpha * (y - z))
        rhs = f.value(z) + alpha * float(f.supergradient(z) @ (y - z)) - 0.5 * c * alpha ** 2
        assert lhs >= rhs - 1e-9


def test_smoothed_neg_distance_delegates():
    s = Box(np.zeros(1), np.array([0.5]))
    f = NegativeDistance(s)
    for z, expected in ((0.8, -1.0), (0.55, -0.5), (0.3, 0.0)):   # linear, Huber, inside
        g = f.smoothed_gradient(np.array([z]), 0.1)
        assert g[0] == pytest.approx(expected)
        assert np.array_equal(g, -smoothed_distance(np.array([z]), s, 0.1)[1])


def test_objective_serialization_roundtrip():
    rng = np.random.default_rng(11)
    for f in _rand_objectives(rng):
        back = objective_from_json(f.to_json())
        for _ in range(10):
            z = rng.random(3)
            assert back.value(z) == pytest.approx(f.value(z), abs=1e-12)


def test_non_l2_smoothing_rejected():
    # the closed-form smoothing is Euclidean; other norms fail when the
    # stepper is built
    inst = InstanceModel(np.array([[0.2, 0.9], [0.5, 0.1]]), "fixed")
    f = NegativeDistance(Box(np.zeros(2), np.full(2, 0.5)), NormPair("linf"))
    cfg = AlgorithmConfig(variant="fw_primal", horizon=10, objective=f, sigma=0.1)
    with pytest.raises(UnsupportedError):
        make_algorithm(cfg, inst)

import itertools
import tracemalloc

import numpy as np
import pytest

from radonfourier import quadrature
from radonfourier.quadrature import (
    gauss_hermite_rule,
    gauss_legendre_rule,
    integrate_box,
    integrate_gauss_hermite,
    integrate_polar_2d,
)


def test_gauss_hermite_matches_closed_form():
    # int exp(-pi x'Qx + 2*pi*i l.x) dx = det(Q)^(-1/2) exp(-pi l.Q^(-1).l)
    Q = np.array([[1.5, 0.4], [0.4, 0.8]])
    ell = np.array([0.3, -0.2])

    def fn(pts):
        qp = np.einsum("ni,ij,nj->n", pts, Q, pts)
        return np.exp(-np.pi * qp + 2j * np.pi * (pts @ ell))

    got = integrate_gauss_hermite(fn, Q, order=40)
    want = np.linalg.det(Q) ** -0.5 * np.exp(-np.pi * ell @ np.linalg.solve(Q, ell))
    assert abs(got - want) < 1e-12


def test_gauss_hermite_center():
    c = np.array([1.0, -2.0])

    def fn(pts):
        z = pts - c
        return np.exp(-np.pi * np.sum(z * z, axis=1))

    got = integrate_gauss_hermite(fn, np.eye(2), center=c, order=30)
    assert abs(got - 1.0) < 1e-12


def test_box_rule_polynomial():
    def fn(pts):
        return (pts[:, 0] ** 2 * pts[:, 1]).astype(complex)

    got = integrate_box(fn, [0.0, 0.0], [1.0, 2.0], order=8)
    assert abs(got - (1.0 / 3.0) * 2.0) < 1e-13


def test_polar_panels_disk():
    # area of the unit disk and a radial Gaussian
    ones = lambda pts: np.ones(len(pts), dtype=complex)
    got = integrate_polar_2d(ones, [0.0, 0.5, 1.0])
    assert abs(got - np.pi) < 1e-12

    def gauss(pts):
        return np.exp(-np.pi * np.sum(pts * pts, axis=1)).astype(complex)

    got = integrate_polar_2d(gauss, [0.0, 0.3, 1.0, 2.0, 4.5])
    assert abs(got - 1.0) < 1e-10

    # the same integrals with a radial factor carried by the weights
    def ramp(r):
        return 1.0 + r * r

    def ramp_at(pts):
        return 1.0 + np.sum(pts * pts, axis=1)

    folded = integrate_polar_2d(lambda pts: ones(pts) * ramp_at(pts), [0.0, 0.5, 1.0])
    got = integrate_polar_2d(ones, [0.0, 0.5, 1.0], radial=ramp)
    assert abs(got - folded) < 1e-14
    assert abs(got - 1.5 * np.pi) < 1e-12

    breaks = [0.0, 0.3, 1.0, 2.0, 4.5]
    folded = integrate_polar_2d(lambda pts: gauss(pts) * ramp_at(pts), breaks)
    got = integrate_polar_2d(gauss, breaks, radial=ramp)
    assert abs(got - folded) < 1e-14
    got = integrate_polar_2d(ones, breaks, radial=lambda r: np.exp(-np.pi * r * r))
    assert abs(got - integrate_polar_2d(gauss, breaks)) < 1e-14


@pytest.mark.parametrize(
    "breaks, match",
    [
        ([1.0], "at least two"),
        ([1.0, 0.0], "strictly increasing"),
        ([-1.0, 1.0], "non-negative"),
        ([0.0, np.inf], "finite"),
    ],
)
def test_polar_rejects_bad_breaks(breaks, match):
    ones = lambda pts: np.ones(len(pts), dtype=complex)
    with pytest.raises(ValueError, match=match):
        integrate_polar_2d(ones, breaks)


def test_box_rule_oscillatory():
    # int exp(-pi t^2) exp(-2*pi*i t) dt = exp(-pi)
    def fn(pts):
        t = pts[:, 0]
        return np.exp(-np.pi * t * t - 2j * np.pi * t)

    val = integrate_box(fn, [-6.0], [6.0], order=80)
    err = abs(val - integrate_box(fn, [-6.0], [6.0], order=86))
    assert abs(val - np.exp(-np.pi)) < 1e-10
    assert err < 1e-8


# ---------------------------------------------------------------------
# The tensor engine against a brute-force sum over the same grid
# ---------------------------------------------------------------------

ENGINE_ORDERS = {1: 9, 2: 7, 3: 5, 4: 4, 5: 3}


def _recording(fn, calls):
    def wrapped(pts):
        calls.append(np.array(pts))
        return fn(pts)

    return wrapped


def _smooth(center, ell):
    def fn(pts):
        z = pts - center
        return np.exp(-0.5 * np.sum(z * z, axis=1) + 1j * (pts @ ell)) * (1.0 + pts[:, 0] ** 2)

    return fn


def _random_gaussian_input(d):
    rng = np.random.default_rng(1000 + d)
    a = rng.standard_normal((d, d))
    Q = a @ a.T + 0.5 * np.eye(d)  # non-diagonal, positive definite
    return Q, rng.standard_normal(d), rng.standard_normal(d)


def _check_each_node_once(calls, axis_nodes, to_axes, cap):
    """Every grid node reaches the integrand exactly once, in calls of at
    most ``cap`` points."""
    assert max(len(c) for c in calls) <= cap
    pts = np.concatenate(calls)
    order, d = len(axis_nodes), pts.shape[1]
    assert len(pts) == order**d
    flat = _grid_indices(pts, axis_nodes, to_axes)
    assert np.array_equal(np.bincount(flat, minlength=order**d), np.ones(order**d, dtype=int))


def _grid_indices(pts, axis_nodes, to_axes):
    """Flat grid index of each point, each coordinate decoded to its node."""
    order, d = len(axis_nodes), pts.shape[1]
    dist = np.abs(to_axes(pts)[:, :, None] - axis_nodes[None, None, :])
    assert np.max(np.min(dist, axis=2)) < 1e-9
    return np.ravel_multi_index(tuple(np.argmin(dist, axis=2).T), (order,) * d)


@pytest.mark.parametrize("chunk", [7, 50, 1000])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_gauss_hermite_engine_matches_brute_force(monkeypatch, chunk, d):
    monkeypatch.setattr(quadrature, "_CHUNK", chunk)
    order = ENGINE_ORDERS[d]
    Q, center, ell = _random_gaussian_input(d)
    fn = _smooth(center, ell)
    calls = []
    got = integrate_gauss_hermite(_recording(fn, calls), Q, center, order=order)

    u, w = gauss_hermite_rule(order)
    upper = np.linalg.cholesky(Q).T  # x = center + S u with S = upper^-1
    S = np.linalg.inv(upper)
    want = 0.0 + 0.0j
    for idx in itertools.product(range(order), repeat=d):
        node = u[list(idx)]
        x = center + S @ node
        want += complex(fn(x[None, :])[0]) * np.prod(w[list(idx)] * np.exp(np.pi * node**2))
    want /= np.sqrt(np.linalg.det(Q))
    assert abs(got - want) <= 1e-13 * abs(want)
    _check_each_node_once(calls, u, lambda x: (x - center) @ upper.T, max(chunk, order))


@pytest.mark.parametrize("chunk", [7, 50, 1000])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_box_engine_matches_brute_force(monkeypatch, chunk, d):
    monkeypatch.setattr(quadrature, "_CHUNK", chunk)
    order = ENGINE_ORDERS[d]
    _, center, ell = _random_gaussian_input(d)
    lows = center - 1.0
    highs = center + np.linspace(0.5, 2.0, d)
    fn = _smooth(center, ell)
    calls = []
    got = integrate_box(_recording(fn, calls), lows, highs, order=order)

    t, w = gauss_legendre_rule(order)
    half = 0.5 * (highs - lows)
    want = 0.0 + 0.0j
    for idx in itertools.product(range(order), repeat=d):
        x = lows + half * (t[list(idx)] + 1.0)
        want += complex(fn(x[None, :])[0]) * np.prod(w[list(idx)] * half)
    assert abs(got - want) <= 1e-13 * abs(want)
    _check_each_node_once(calls, t, lambda x: (x - lows) / half - 1.0, max(chunk, order))


def test_gauss_hermite_skips_only_negligible_nodes():
    # d = 4 at order 20: 160,000 nodes, of which the rule evaluates only
    # those whose weight product reaches 1e-14 / 20^4; under the envelope
    # (C = 1 here) the skipped terms sum to at most 1e-14 * det(Q)^(-1/2)
    d, order = 4, 20
    Q, center, ell = _random_gaussian_input(d)

    def fn(pts):
        z = pts - center
        return np.exp(-np.pi * np.einsum("ni,ij,nj->n", z, Q, z) + 2j * np.pi * (pts @ ell))

    calls = []
    got = integrate_gauss_hermite(_recording(fn, calls), Q, center, order=order)

    u, w = gauss_hermite_rule(order)
    upper = np.linalg.cholesky(Q).T  # x = center + S u with S = upper^-1
    grid = np.stack(np.meshgrid(*[np.arange(order)] * d, indexing="ij"), -1).reshape(-1, d)
    kept = _grid_indices(np.concatenate(calls), u, lambda x: (x - center) @ upper.T)
    assert len(kept) < order**d
    counts = np.bincount(kept, minlength=order**d)
    assert counts.max() == 1  # each kept node arrives once
    weight = np.prod(w[grid], axis=1)
    assert np.all(weight[counts == 0] < 1e-14 / order**d)

    nodes = u[grid]
    x = center + nodes @ np.linalg.inv(upper).T
    jac = np.linalg.det(Q) ** -0.5
    full = jac * np.sum(fn(x) * weight * np.exp(np.pi * np.sum(nodes**2, axis=1)))
    assert abs(got - full) <= 1e-14 * jac + 1e-13 * abs(full)


def test_engine_memory_stays_within_a_chunk(monkeypatch):
    # 6^6 = 46656 grid points in calls of at most 50: beside the block, no
    # array of more than max(_CHUNK, order) points may be built, neither of
    # the whole grid nor of the 1296 leading-axis points
    monkeypatch.setattr(quadrature, "_CHUNK", 50)
    d, order = 6, 6
    Q, center, ell = _random_gaussian_input(d)
    fn = _smooth(center, ell)
    integrate_gauss_hermite(fn, Q, center, order=order)  # fills the rule cache
    tracemalloc.start()
    try:
        integrate_gauss_hermite(fn, Q, center, order=order)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    point_bytes = d * 16  # one point as d complex numbers
    assert peak < 8 * 50 * point_bytes


def test_default_chunk_keeps_the_working_set_small():
    # at the default _CHUNK, one d = 6 integral at order 12 (the default
    # order at d = 6) keeps its traced peak allocation under 3 MB, so that a
    # call's working set fits in L2: with 65,536-point calls it was 11.1 MB,
    # with 8,192-point calls it was 1.2 MB, and now that leading points of
    # similar kept prefix fill each call to near _CHUNK it is 1.45 MB
    d, order = 6, 12
    Q, center, ell = _random_gaussian_input(d)
    fn = _smooth(center, ell)
    integrate_gauss_hermite(fn, Q, center, order=order)  # fills the rule cache
    tracemalloc.start()
    try:
        integrate_gauss_hermite(fn, Q, center, order=order)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def test_weight_overflow_raises():
    ones = lambda pts: np.ones(len(pts), dtype=complex)
    # half-widths near 1e308: the weights exceed the float range (and so
    # do the outer nodes, with numpy's warning)
    with pytest.raises(ValueError, match="overflow"), np.errstate(over="ignore"):
        integrate_box(ones, [-1e308] * 2, [1e308] * 2)
    with pytest.raises(ValueError, match="overflow"):
        integrate_box(ones, [0.0, 0.0], [1e200, 1e200])
    # weights that underflow contribute 0
    assert integrate_box(ones, [0.0, 0.0], [1e-200, 1e-200]) == 0


@pytest.mark.parametrize(
    "lows, highs",
    [
        ([0.0, 0.0], [1.0, 2.0, 3.0]),  # lengths differ
        ([0.0, np.nan], [1.0, 2.0]),  # not finite
        ([0.0, -np.inf], [1.0, 2.0]),
        ([0.0], [np.inf]),
        ([1.0], [0.0]),  # highs < lows
        ([0.0, 1.0], [1.0, 1.0]),  # empty side
        ([], []),  # no dimension
    ],
)
def test_box_bounds_validated(lows, highs):
    calls = []
    with pytest.raises(ValueError, match="box bounds"):
        integrate_box(_recording(lambda p: np.ones(len(p)), calls), lows, highs)
    assert not calls


def test_gauss_hermite_center_shape_validated():
    calls = []
    fn = _recording(lambda p: np.ones(len(p)), calls)
    for center in ([1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="center"):
            integrate_gauss_hermite(fn, np.eye(2), center=center)
    assert not calls

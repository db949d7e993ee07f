import numpy as np

from radonfourier.quadrature import (
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


def test_box_rule_oscillatory():
    # int exp(-pi t^2) exp(-2*pi*i t) dt = exp(-pi)
    def fn(pts):
        t = pts[:, 0]
        return np.exp(-np.pi * t * t - 2j * np.pi * t)

    val = integrate_box(fn, [-6.0], [6.0], order=80)
    err = abs(val - integrate_box(fn, [-6.0], [6.0], order=86))
    assert abs(val - np.exp(-np.pi)) < 1e-10
    assert err < 1e-8

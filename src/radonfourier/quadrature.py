"""Deterministic quadrature engines for Gaussian-enveloped integrands.

Integrands are vectorized callables taking an (N, d) array of coordinates.
Three engines cover the package's needs:

* tensor Gauss-Hermite after affine whitening by a Gaussian envelope, for
  integrands decaying like C * exp(-pi (x-c)^T Q (x-c));
* tensor Gauss-Legendre on boxes, for compactly supported integrands;
* panelled polar quadrature on annuli in two dimensions, used by the
  truncation diagnostics whose integrands have radial features at several
  well separated scales.

Everything is deterministic: node sets depend only on the requested orders
and numpy reductions use a fixed (pairwise) tree, so repeated runs produce
identical floating point output.
"""

from __future__ import annotations

import numpy as np

_EXP_CLIP = 700.0  # keep exp() finite; clipped terms pair with underflowed values
_CHUNK = 200_000  # tensor-grid nodes evaluated per integrand call

_GH_CACHE: dict = {}
_GL_CACHE: dict = {}


def gauss_hermite_rule(order: int):
    """Nodes/weights for integrals against exp(-pi u^2) du."""
    if order not in _GH_CACHE:
        x, w = np.polynomial.hermite.hermgauss(order)
        _GH_CACHE[order] = (x / np.sqrt(np.pi), w / np.sqrt(np.pi))
    return _GH_CACHE[order]


def gauss_legendre_rule(order: int):
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


def _chunked_tensor(fn, axes_nodes, axes_logw):
    """Sum fn over a tensor grid with per-axis log-weights, in chunks."""
    d = len(axes_nodes)
    sizes = [len(a) for a in axes_nodes]
    total = int(np.prod(sizes))
    acc = 0.0 + 0.0j
    pos = 0
    while pos < total:
        count = min(_CHUNK, total - pos)
        idx = np.arange(pos, pos + count)
        coords = np.empty((count, d))
        logw = np.zeros(count)
        rem = idx
        for ax in range(d - 1, -1, -1):
            k = rem % sizes[ax]
            rem = rem // sizes[ax]
            coords[:, ax] = axes_nodes[ax][k]
            logw += axes_logw[ax][k]
        vals = np.asarray(fn(coords), dtype=complex)
        acc += complex(np.sum(vals * np.exp(np.clip(logw, -_EXP_CLIP, _EXP_CLIP))))
        pos += count
    return acc


def integrate_gauss_hermite(fn, Q, center=None, order: int = 40):
    """Integrate fn over R^d for an integrand enveloped by exp(-pi (x-c)'Q(x-c)).

    Whitens by the envelope (x = c + S u with S'QS = I) and applies a tensor
    Gauss-Hermite rule: the Gaussian decay is carried by the weights, the node
    values are reweighted by exp(+pi |u|^2), which stays bounded whenever the
    envelope really bounds the integrand.
    """
    Q = np.asarray(Q, dtype=float)
    d = Q.shape[0]
    L = np.linalg.cholesky(Q)
    S = np.linalg.inv(L.T)
    jac = 1.0 / np.sqrt(np.linalg.det(Q))
    if center is None:
        center = np.zeros(d)
    u, w = gauss_hermite_rule(order)
    # the +pi|u|^2 reweighting joins the log-weights; it cancels the envelope
    # decay of the node values, so the summand stays of moderate size
    logw = np.log(w) + np.pi * u * u
    total = _chunked_tensor(lambda p: fn(p @ S.T + center[None, :]), [u] * d, [logw] * d)
    return jac * total


def integrate_box(fn, lows, highs, order: int = 40):
    """Tensor Gauss-Legendre integral of fn over a box."""
    lows = np.atleast_1d(np.asarray(lows, dtype=float))
    highs = np.atleast_1d(np.asarray(highs, dtype=float))
    x, w = gauss_legendre_rule(order)
    axes_nodes, axes_logw = [], []
    for lo, hi in zip(lows, highs):
        half = 0.5 * (hi - lo)
        axes_nodes.append(lo + half * (x + 1.0))
        axes_logw.append(np.log(w * half))
    return _chunked_tensor(fn, axes_nodes, axes_logw)


def integrate_polar_2d(fn, r_breaks, r_order: int = 40, theta_order: int = 48):
    """Integral of fn over R^2 written in polar panels.

    ``r_breaks`` is an increasing sequence of radii; each [r_i, r_{i+1}] is a
    panel integrated by Gauss-Legendre in r (with the Jacobian r) tensored
    with Gauss-Legendre in the angle.  fn receives (N, 2) Cartesian points.
    """
    xg, wg = gauss_legendre_rule(r_order)
    tg, tw = gauss_legendre_rule(theta_order)
    theta = np.pi * (tg + 1.0)
    wtheta = np.pi * tw
    ct, st = np.cos(theta), np.sin(theta)
    total = 0.0 + 0.0j
    for r0, r1 in zip(r_breaks[:-1], r_breaks[1:]):
        half = 0.5 * (r1 - r0)
        r = r0 + half * (xg + 1.0)
        wr = wg * half * r
        pts = np.empty((len(r) * len(theta), 2))
        pts[:, 0] = np.outer(r, ct).reshape(-1)
        pts[:, 1] = np.outer(r, st).reshape(-1)
        vals = np.asarray(fn(pts), dtype=complex).reshape(len(r), len(theta))
        total += complex(wr @ vals @ wtheta)
    return total

"""Deterministic quadrature engines for Gaussian-enveloped integrands.

Integrands are vectorized callables taking an (N, d) array of coordinates.
Three engines cover the package's needs:

* tensor Gauss-Hermite after affine whitening by a Gaussian envelope, for
  integrands decaying like C * exp(-pi (x-c)^T Q (x-c));
* tensor Gauss-Legendre on boxes, for compactly supported integrands;
* panelled polar quadrature on annuli in two dimensions, used by the
  truncation diagnostics whose integrands have radial features at several
  well separated scales.

The two tensor rules share one engine, ``_tensor_sum``.  Each axis brings
its nodes as an (n, d) array of displacements, so that a grid point is the
offset plus one displacement per axis, and its weights as logarithms.  The
trailing axes whose grid fits in ``_CHUNK`` points form one block, built
once by broadcasting; the leading axes are walked in groups of points, and
each integrand call receives one group plus the block.  ``_CHUNK`` is sized
so that one call's points and the integrand's temporaries stay in a core's
L2 cache: larger calls run memory-bound, smaller ones pay the integrand's
fixed per-call cost more often.

Everything is deterministic: node sets depend only on the requested orders,
groups are summed in a fixed order and numpy reductions use a fixed
(pairwise) tree, so repeated runs produce identical floating point output.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_LOG_WEIGHT_MAX = 700.0  # exp() overflows a little above 709
# Tensor-grid points per integrand call (the block may exceed it alone).  At
# d = 6 a call of 8,192 points holds a 384 KiB point array, and a Gaussian
# integrand's temporaries peak near 1.3 MB, within a 2 MiB L2; at 65,536
# points they peaked near 12 MB and the call ran memory-bound.  Smaller calls
# pay the fixed cost of a call (about 0.14 ms for that integrand) more often:
# 4,096 points ran about 20 % slower than 8,192.
_CHUNK = 8_192

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


def _tensor_sum(fn, axes, offset):
    """Sum fn(x) * exp(logw) over a tensor grid.

    ``axes`` lists one (disp, logw) pair per axis: disp is (n, d), logw is
    (n,).  The grid point of a node tuple (i_0, i_1, ...) is
    ``offset + sum_ax disp_ax[i_ax]`` and its log-weight is the sum of the
    ``logw_ax[i_ax]``; the last axis varies fastest.

    The trailing axes whose grid has at most ``_CHUNK`` points (at least the
    last axis) form the block.  The axis before them is cut into groups of
    ``_CHUNK // block`` nodes, and every tuple of the axes before that one
    is walked with each group: one integrand call per (tuple, group), on
    ``group + block`` points.  Every sum runs in this fixed order.

    The call size trades cache residency against call count: each call's
    points, weights and integrand temporaries should fit in L2 (see
    ``_CHUNK``), and every call adds the integrand's fixed overhead, so a
    grid of N points takes at least N / ``_CHUNK`` calls.

    Raises ValueError when a summed log-weight may exceed
    ``_LOG_WEIGHT_MAX``, where exp() would overflow; weights that underflow
    contribute 0.
    """
    top = sum(float(np.max(logw)) for _, logw in axes)
    if not top <= _LOG_WEIGHT_MAX:
        raise ValueError(
            f"tensor weights reach exp({top:.4g}), beyond exp({_LOG_WEIGHT_MAX:g}); "
            "the integral would overflow"
        )
    d = len(offset)
    k = len(axes) - 1
    while k > 0 and math.prod(len(logw) for _, logw in axes[k - 1 :]) <= _CHUNK:
        k -= 1
    block_x, block_w = axes[-1]
    for disp, logw in reversed(axes[k:-1]):
        block_x = (disp[:, None, :] + block_x[None, :, :]).reshape(-1, d)
        block_w = (logw[:, None] + block_w[None, :]).reshape(-1)
    acc = 0.0 + 0.0j
    for lead_x, lead_w in _lead_groups(axes[:k], offset, max(1, _CHUNK // len(block_w))):
        x = (lead_x[:, None, :] + block_x[None, :, :]).reshape(-1, d)
        logw = (lead_w[:, None] + block_w[None, :]).reshape(-1)
        acc += complex(np.sum(np.asarray(fn(x), dtype=complex) * np.exp(logw)))
    return acc


def _lead_groups(lead, offset, step):
    """(points, log-weights) of the leading axes, ``step`` nodes of the last
    leading axis at a time, in grid order."""
    if not lead:
        yield offset[None, :], np.zeros(1)
        return
    *outer, (group_x, group_w) = lead
    for rows in itertools.product(*(zip(disp, logw) for disp, logw in outer)):
        base_x = offset + sum(row for row, _ in rows)
        base_w = sum(val for _, val in rows)
        for s in range(0, len(group_w), step):
            yield base_x + group_x[s : s + step], base_w + group_w[s : s + step]


def integrate_gauss_hermite(fn, Q, center=None, order: int = 40):
    """Integrate fn over R^d for an integrand enveloped by exp(-pi (x-c)'Q(x-c)).

    Whitens by the envelope (x = c + S u with S'QS = I) and applies a tensor
    Gauss-Hermite rule: the Gaussian decay is carried by the weights, the node
    values are reweighted by exp(+pi |u|^2), which stays bounded whenever the
    envelope really bounds the integrand.  The whitening is folded into the
    nodes: axis j displaces the point by u S[:, j].  Raises ValueError when
    center does not have Q's dimension.
    """
    Q = np.asarray(Q, dtype=float)
    d = Q.shape[0]
    L = np.linalg.cholesky(Q)
    S = np.linalg.inv(L.T)
    jac = 1.0 / np.sqrt(np.linalg.det(Q))
    center = np.zeros(d) if center is None else np.asarray(center, dtype=float)
    if center.shape != (d,):
        raise ValueError(f"center has shape {center.shape}, the form needs ({d},)")
    u, w = gauss_hermite_rule(order)
    # the +pi|u|^2 reweighting joins the log-weights; it cancels the envelope
    # decay of the node values, so the summand stays of moderate size
    logw = np.log(w) + np.pi * u * u
    axes = [(np.outer(u, S[:, j]), logw) for j in range(d)]
    return jac * _tensor_sum(fn, axes, center)


def integrate_box(fn, lows, highs, order: int = 40):
    """Tensor Gauss-Legendre integral of fn over the box prod [lows_i, highs_i].

    Raises ValueError unless lows and highs are non-empty finite sequences
    of one length with highs > lows on every axis.
    """
    lows = np.atleast_1d(np.asarray(lows, dtype=float))
    highs = np.atleast_1d(np.asarray(highs, dtype=float))
    if lows.ndim != 1 or lows.shape != highs.shape or not len(lows):
        raise ValueError(
            f"box bounds must be two non-empty 1-d sequences of one length, "
            f"got shapes {lows.shape} and {highs.shape}"
        )
    if not (np.all(np.isfinite(lows)) and np.all(np.isfinite(highs))):
        raise ValueError(f"box bounds must be finite, got {lows.tolist()} and {highs.tolist()}")
    if not np.all(highs > lows):
        raise ValueError(f"box bounds need highs > lows, got {lows.tolist()} and {highs.tolist()}")
    x, w = gauss_legendre_rule(order)
    d = len(lows)
    axes = []
    for j, (lo, hi) in enumerate(zip(lows, highs)):
        half = 0.5 * hi - 0.5 * lo  # = 0.5 * (hi - lo), without overflow in hi - lo
        disp = np.zeros((len(x), d))
        disp[:, j] = lo + half * (x + 1.0)
        axes.append((disp, np.log(w * half)))
    return _tensor_sum(fn, axes, np.zeros(d))


def integrate_polar_2d(fn, r_breaks, r_order: int = 40, theta_order: int = 48, radial=None):
    """Integral of fn over R^2 written in polar panels.

    ``r_breaks`` is an increasing sequence of radii; each [r_i, r_{i+1}] is a
    panel integrated by Gauss-Legendre in r (with the Jacobian r) tensored
    with Gauss-Legendre in the angle.  fn receives (N, 2) Cartesian points.
    ``radial``, when given, maps an array of radii to the factor of the
    integrand that depends on |x| alone; it is called once, on the
    (panels, r_order) array of radial nodes, and multiplies their weights,
    so fn need not evaluate it at every angle.  Raises ValueError unless
    r_breaks holds at least two finite, non-negative, strictly increasing
    radii.
    """
    breaks = np.asarray(r_breaks, dtype=float)
    if breaks.ndim != 1 or len(breaks) < 2:
        raise ValueError(f"r_breaks needs at least two radii, got {np.ravel(breaks).tolist()}")
    if not np.all(np.isfinite(breaks)):
        raise ValueError(f"r_breaks must be finite, got {breaks.tolist()}")
    if breaks[0] < 0:
        raise ValueError(f"r_breaks must be non-negative, got {breaks.tolist()}")
    if not np.all(np.diff(breaks) > 0):
        raise ValueError(f"r_breaks must be strictly increasing, got {breaks.tolist()}")
    xg, wg = gauss_legendre_rule(r_order)
    tg, tw = gauss_legendre_rule(theta_order)
    theta = np.pi * (tg + 1.0)
    wtheta = np.pi * tw
    ct, st = np.cos(theta), np.sin(theta)
    half = 0.5 * np.diff(breaks)[:, None]
    radii = breaks[:-1, None] + half * (xg + 1.0)  # (panels, r_order)
    weights = wg * half * radii
    if radial is not None:
        weights = weights * radial(radii)
    total = 0.0 + 0.0j
    for r, wr in zip(radii, weights):
        pts = np.empty((len(r) * len(theta), 2))
        pts[:, 0] = np.outer(r, ct).reshape(-1)
        pts[:, 1] = np.outer(r, st).reshape(-1)
        vals = np.asarray(fn(pts), dtype=complex).reshape(len(r), len(theta))
        total += complex(wr @ vals @ wtheta)
    return total

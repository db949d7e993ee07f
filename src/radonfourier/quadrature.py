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
offset plus one displacement per axis, and its weights and bounds as
logarithms.  Gauss-Hermite skips the node tuples of least weight product (P.
Jaeckel, "A note on multivariate Gauss-Hermite quadrature", 2005); the box
rule skips none.  The trailing axes whose grid fits in ``_CHUNK`` points
form one block, built once in grid order, and each integrand call receives
a few leading points times the block prefix they keep.  Skipping pays only
if those block nodes reach the integrand in grid order (in weight order a
Gaussian integrand cost 1.5 times as much a node, likely from libm's
data-dependent branches) and calls stay near ``_CHUNK`` points, which is
sized to the L2 cache (ragged calls cost more than the skipping saved).

Everything is deterministic: node sets depend only on the requested orders
and calls are summed in a fixed order, so repeated runs produce identical
floating point output.
"""

from __future__ import annotations

import bisect
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
_PRUNE_MASS = 1e-14

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
    """Sum fn(x) * exp(logw) over a tensor grid, skipping low-bound tuples.

    ``axes`` lists one (disp, logw, logb) triple per axis: disp is (n, d),
    logw and logb are (n,).  A node tuple (i_0, i_1, ...) sits at ``offset +
    sum_ax disp_ax[i_ax]``, with log-weight and log-bound the sums of its
    ``logw_ax[i_ax]`` and ``logb_ax[i_ax]``; it is skipped when the log-bound
    is below log(``_PRUNE_MASS`` / N), N the grid's size.

    The leading axes are walked in descending bound, and a branch stops at
    its first node that keeps nothing.  A leading point keeps a prefix of the
    bound-sorted block; points whose prefix lengths agree within about
    sqrt(2) share a call of at most ``_CHUNK`` points (one point may bring a
    larger block), with the kept block nodes in grid order, summed as two
    matrix-vector products rather than one exp() per node.

    Raises ValueError when a summed log-weight may exceed
    ``_LOG_WEIGHT_MAX``, where exp() would overflow; weights that underflow
    contribute 0.
    """
    top = sum(float(np.max(logw)) for _, logw, _ in axes)
    if not top <= _LOG_WEIGHT_MAX:
        raise ValueError(
            f"tensor weights reach exp({top:.4g}), beyond exp({_LOG_WEIGHT_MAX:g}); "
            "the integral would overflow"
        )
    k = len(axes) - 1
    while k > 0 and math.prod(len(logw) for _, logw, _ in axes[k - 1 :]) <= _CHUNK:
        k -= 1
    block = axes[-1]
    for ax in reversed(axes[k:-1]):
        block = [(a[:, None] + b[None, :]).reshape(-1, *b.shape[1:]) for a, b in zip(ax, block)]
    cut = math.log(_PRUNE_MASS) - sum(math.log(len(logb)) for *_, logb in axes)
    ranked = np.sort(block[2]).tolist()
    lead = [[a[np.argsort(-ax[2], kind="stable")] for a in ax] for ax in axes[:k]]
    # the most that the axes after each leading axis can add to a bound
    best = np.cumsum([ranked[-1]] + [float(logb[0]) for *_, logb in reversed(lead)])[::-1]
    acc, waiting = 0.0 + 0.0j, {}
    for point in _lead_walk(lead, cut - best[1:], offset, 0.0, 0.0):
        m = len(ranked) - bisect.bisect_left(ranked, cut - point[2])  # the kept prefix
        group = waiting.setdefault((m * m).bit_length(), [0])  # [widest prefix, *points]
        if len(group) > 1 and len(group) * max(group[0], m) > _CHUNK:
            acc += _rectangle_sum(fn, group[1:], block, cut)
            group[:] = [0]
        group[0] = max(group[0], m)
        group.append(point)
    return acc + sum(_rectangle_sum(fn, group[1:], block, cut) for group in waiting.values())


def _lead_walk(lead, floors, x, w, b):
    """(point, log-weight, log-bound) of the leading tuples that keep a node."""
    if not lead:
        yield x, w, b
        return
    for row_x, row_w, row_b in zip(*lead[0]):
        if b + row_b < floors[0]:
            return
        yield from _lead_walk(lead[1:], floors[1:], x + row_x, w + row_w, b + row_b)


def _rectangle_sum(fn, points, block, cut):
    """One call on ``points`` times the block nodes the widest of them keeps."""
    x, w, b = (np.array(v) for v in zip(*points))
    keep = np.flatnonzero(block[2] >= cut - b.max())
    pts = (x[:, None, :] + block[0].take(keep, axis=0)[None, :, :]).reshape(-1, x.shape[1])
    vals = np.asarray(fn(pts), dtype=complex).reshape(len(w), len(keep))
    top = w.max()  # split so that neither factor overflows
    return complex(np.exp(w - top) @ vals @ np.exp(block[1][keep] + top))


def integrate_gauss_hermite(fn, Q, center=None, order: int = 40):
    """Integrate fn over R^d for an integrand enveloped by exp(-pi (x-c)'Q(x-c)).

    Whitens by the envelope (x = c + S u with S'QS = I) and applies a tensor
    Gauss-Hermite rule: the Gaussian decay is carried by the weights, the node
    values are reweighted by exp(+pi |u|^2), which stays bounded whenever the
    envelope really bounds the integrand.  The whitening is folded into the
    nodes: axis j displaces the point by u S[:, j].  Node tuples whose weight
    product is below ``_PRUNE_MASS`` / order^d are skipped: as |fn| exp(pi
    |u|^2) <= C, they sum to at most ``_PRUNE_MASS`` * C * det(Q)^(-1/2),
    within the full sum's worst-case rounding error.  Raises ValueError when
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
    axes = [(np.outer(u, S[:, j]), logw, np.log(w)) for j in range(d)]
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
        axes.append((disp, np.log(w * half), np.zeros(len(x))))
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

"""The smooth truncation chi_m as a pointwise ``Evaluable``: the reference
from which the truncation tests integrate phi_m point by point, against the
radial route of ``truncation_sequence``."""

import numpy as np

from radonfourier import Envelope, Evaluable
from radonfourier.functions import cutoff_ramps


def cutoff_chi(m: int, space) -> Evaluable:
    """Smooth truncation approaching the indicator of regular points.

    Equals 1 on {smallest singular value >= 1/m^2, norm <= m} and 0 on
    {smallest singular value <= 1/(m+1)^2} and outside the ball of radius
    m+1, with the smoothstep ramps of ``cutoff_ramps`` in between.  A row or
    column has one singular value, its norm, so vector shapes take that
    closed form and only true matrices go through the SVD.
    """
    if m < 1:
        raise ValueError("cutoff index must be >= 1")
    fd = space.fd
    rows, cols = space.shape

    def fn(pts):
        pts = np.atleast_2d(pts)
        norm = np.linalg.norm(pts, axis=1)
        if min(rows, cols) == 1:
            smin = norm
        else:
            flat = pts[:, 0::2] + 1j * pts[:, 1::2] if fd.kind == "complex" else pts
            smin = np.linalg.svd(flat.reshape(len(pts), rows, cols), compute_uv=False)[:, -1]
        return cutoff_ramps(m, smin, norm).astype(complex)

    return Evaluable(space, fn, Envelope(C=1.0, radius=float(m + 1)), label=f"cutoff_chi({m})")

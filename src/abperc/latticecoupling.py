"""The coupled lattice bit fields of the discretization.

On a finite window of a lattice with spacing epsilon, the coupled construction
draws one Bernoulli bit T per site and one bit U per directed site pair within
range t, then assembles V (a site keeps its T bit only if every outgoing U bit
is set) and W (a site is hit if any incoming U bit is set). U is folded into V
and W one offset plane at a time, as it is drawn, so no field holds it. V sites
are independent Bernoulli with the smaller occupancy parameter; W sites are
independent of the T field and carry the coupled parameter q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import delta_count
from .errors import ResourceLimitError
from .seeding import derived_rng

# total U-bit budget: Delta * window sites
MAX_FIELD_BITS = 200_000_000


def ball_offsets(t: float, epsilon: float) -> np.ndarray:
    """Nonzero integer offsets o with ||o * epsilon|| <= t, for d = 2."""
    if not (0 < t < math.inf and 0 < epsilon < math.inf):
        raise ValueError("t and epsilon must be positive and finite")
    rho2 = (t / epsilon) ** 2
    m = math.isqrt(math.floor(rho2))
    span = np.arange(-m, m + 1)
    ox, oy = np.meshgrid(span, span, indexing="ij")
    mask = (ox * ox + oy * oy <= rho2) & ~((ox == 0) & (oy == 0))
    return np.stack([ox[mask], oy[mask]], axis=1)


@dataclass(frozen=True)
class SiteField:
    """One sampled window of the coupled bit fields.

    The U bit of offset j at source site u stands for the directed pair
    (u, u + offset_j); opposite directions carry independent bits. W is
    assembled from in-window sources only, so sites within the ball radius of
    the boundary see a truncated product and are excluded from the interior
    mask used for marginal statistics.
    """

    window: tuple
    offsets: np.ndarray
    T: np.ndarray
    V: np.ndarray
    W: np.ndarray
    interior: np.ndarray


def sample_coupled_fields(window, epsilon: float, t: float, p_lambda: float,
                          p_nu: float, seed: int, path: tuple = ()) -> SiteField:
    """Draw one coupled field realization on a finite window (d = 2).

    T ~ Bernoulli(p_lambda) per site and U ~ Bernoulli((p_nu/p_lambda)^(1/Delta))
    per directed in-range pair, all independent; V and W are their defining
    products. Requires finite 0 < epsilon <= t and 0 < p_nu <= p_lambda <= 1.
    """
    window = tuple(int(w) for w in window)
    if len(window) != 2 or any(w < 1 for w in window):
        raise ValueError("window must give positive extents for two axes")
    if not 0 < p_nu <= p_lambda <= 1:
        raise ValueError("need 0 < p_nu <= p_lambda <= 1")
    # counted, and held to the budgets, before the offsets are enumerated
    Delta = delta_count(t, epsilon, 2)
    if Delta == 0:
        raise ValueError("t must be at least epsilon so the site ball is nonempty")
    n_sites = window[0] * window[1]
    if Delta * n_sites > MAX_FIELD_BITS:
        raise ResourceLimitError("field exceeds the U-bit budget")
    margin = int(math.ceil(t / epsilon))
    if window[0] <= 2 * margin or window[1] <= 2 * margin:
        raise ValueError("window too small: no interior sites beyond the ball radius")
    offsets = ball_offsets(t, epsilon)
    assert Delta == offsets.shape[0]

    rng = derived_rng(seed, *path)
    u_param = (p_nu / p_lambda) ** (1.0 / Delta)
    T = rng.random(window) < p_lambda
    V, W = T.copy(), np.zeros(window, dtype=bool)
    # U is drawn plane by plane, in stream order, and folded in at once
    for ox, oy in offsets:
        U = rng.random(window) < u_param
        V &= U
        src = _shifted_view(U, ox, oy)
        if src is not None:
            dst_slice, src_slice = src
            W[dst_slice] |= U[src_slice]
    interior = np.zeros(window, dtype=bool)
    interior[margin:window[0] - margin, margin:window[1] - margin] = True
    return SiteField(window=window, offsets=offsets, T=T, V=V, W=W, interior=interior)


def _shifted_view(plane, ox, oy):
    """Slices aligning W[v] with U[source = v - offset]; None if empty."""
    nx, ny = plane.shape
    if abs(ox) >= nx or abs(oy) >= ny:
        return None

    def axis_slices(shift, n):
        if shift >= 0:
            return slice(shift, n), slice(0, n - shift)
        return slice(0, n + shift), slice(-shift, n)

    dx, sx = axis_slices(ox, nx)
    dy, sy = axis_slices(oy, ny)
    return (dx, dy), (sx, sy)


def implication_holds(field: SiteField) -> bool:
    """Deterministic mechanism check: V_u = 1 forces W_v = 1 for every site v
    with 0 < ||v - u|| <= t that lies in the window."""
    for ox, oy in field.offsets:
        src = _shifted_view(field.V, ox, oy)
        if src is None:
            continue
        dst_slice, src_slice = src
        if np.any(field.V[src_slice] & ~field.W[dst_slice]):
            return False
    return True


def field_csv_rows(field: SiteField, field_index: int = 0):
    """Site dump rows: field, u1, u2, T, V, W, interior, yielded lazily from
    one byte per site and column."""
    header = ["field", "u1", "u2", "T", "V", "W", "interior"]
    bits = np.stack([field.T, field.V, field.W, field.interior], axis=-1).astype(np.uint8)
    return header, ([field_index, ix, iy, *site] for ix in range(bits.shape[0])
                    for iy, site in enumerate(bits[ix].tolist()))

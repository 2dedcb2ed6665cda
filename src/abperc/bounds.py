"""Closed-form upper bounds on the critical B intensity near criticality.

Implements the discretization pipeline: for a trial split parameter alpha in
(0, 1) the shrunken radius s, the relation range t = (r + s)/2, the lattice
spacing epsilon = (r - s)/(2*sqrt(d)), the cube-occupancy probabilities, the
lattice-ball count Delta, the coupled occupancy parameter q, and the two
resulting bounds: the exact-Delta form and its relaxed form whose minimum
over alpha is the reported bound. The known asymptotic prefactor of the
small-excess divergence delta^(-2d) * |log delta| is evaluated exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError

# per-axis guard for the lattice-ball enumeration
MAX_CELLS_PER_AXIS = 10_000

DEFAULT_GRID_SIZE = 64
DEFAULT_GRID_RANGE = (0.01, 0.99)


def unit_ball_volume(d: int) -> float:
    """Volume of the unit radius ball in d dimensions."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def default_alpha_grid(size: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    lo, hi = DEFAULT_GRID_RANGE
    return np.geomspace(lo, hi, size)


@dataclass(frozen=True)
class BoundInputs:
    """Parameters of one bound evaluation; requires lambda above lambda_c."""

    d: int
    r: float
    lam: float
    lambda_c: float
    alphas: np.ndarray = field(default_factory=default_alpha_grid)

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("dimension must be at least 2")
        if not all(math.isfinite(v) for v in (self.r, self.lam, self.lambda_c)):
            raise ValueError("r, lambda and lambda_c must be finite")
        if self.r <= 0 or self.lambda_c <= 0:
            raise ValueError("r and lambda_c must be positive")
        if self.lam <= self.lambda_c:
            raise ValueError("lambda must exceed lambda_c")
        alphas = np.asarray(self.alphas, dtype=float)
        if alphas.size == 0 or np.any(alphas <= 0) or np.any(alphas >= 1):
            raise ValueError("alpha grid must be nonempty and inside (0, 1)")
        object.__setattr__(self, "alphas", alphas)

    @property
    def delta(self) -> float:
        return self.lam - self.lambda_c


def _check_pipeline_args(r, delta, lambda_c, alpha, d):
    if not all(math.isfinite(v) for v in (r, delta, lambda_c)):
        raise ValueError("r, delta and lambda_c must be finite")
    if r <= 0 or lambda_c <= 0:
        raise ValueError("r and lambda_c must be positive")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if d < 1:
        raise ValueError("dimension must be positive")


def s_of_alpha(r: float, delta: float, lambda_c: float, alpha: float, d: int) -> float:
    """Shrunken radius s = r * (1 + alpha*delta/lambda_c)^(-1/d).

    Chosen so the critical intensity at distance 2s is lambda_c + alpha*delta
    under the exact scaling law lambda_c(2s) = (r/s)^d * lambda_c(2r).
    """
    _check_pipeline_args(r, delta, lambda_c, alpha, d)
    return r * math.exp(-math.log1p(alpha * delta / lambda_c) / d)


def epsilon_of_alpha(r: float, delta: float, lambda_c: float, alpha: float, d: int) -> float:
    """Largest admissible lattice spacing (r - s)/(2*sqrt(d)).

    A cube of this side has diameter at most t - s, which is what the
    discretization needs; for small delta the value is asymptotic to
    alpha*r*delta / (2 * d^(3/2) * lambda_c).
    """
    _check_pipeline_args(r, delta, lambda_c, alpha, d)
    # r - s evaluated via expm1 to survive tiny delta without cancellation
    r_minus_s = -r * math.expm1(-math.log1p(alpha * delta / lambda_c) / d)
    return r_minus_s / (2.0 * math.sqrt(d))


def p_occupy(a: float, epsilon: float, d: int) -> float:
    """Probability 1 - exp(-epsilon^d * a) that a cube of side epsilon holds
    at least one point of a Poisson process of intensity a."""
    if a < 0:
        raise ValueError("intensity must be nonnegative")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return -math.expm1(-(epsilon**d) * a)


def delta_count(t: float, epsilon: float, d: int) -> int:
    """Number of nonzero lattice sites of spacing epsilon within norm t.

    Exact enumeration of {u in eps*Z^d : 0 < ||u|| <= t}; raises when the
    per-axis extent ceil(t/epsilon) exceeds MAX_CELLS_PER_AXIS or the
    enumeration's (2m+1)^(d-2) lattice lines exceed those of d = 3.
    """
    if not (0 < t < math.inf and 0 < epsilon < math.inf):
        raise ValueError("t and epsilon must be positive and finite")
    if d < 1:
        raise ValueError("dimension must be positive")
    rho = t / epsilon
    if rho > MAX_CELLS_PER_AXIS:
        raise ResourceLimitError(
            f"lattice enumeration spans {rho:.6g} cells per axis "
            f"(guard {MAX_CELLS_PER_AXIS})")
    lines = (2 * math.isqrt(math.floor(rho * rho)) + 1) ** max(d - 2, 0)
    if lines > 2 * MAX_CELLS_PER_AXIS + 1:
        raise ResourceLimitError(
            f"lattice enumeration visits {lines} lines (guard {2 * MAX_CELLS_PER_AXIS + 1})")
    return _ball_lattice_count(rho * rho, d) - 1


def _ball_lattice_count(r2: float, d: int) -> int:
    """|{k in Z^d : ||k||^2 <= r2}| including the origin."""
    if r2 < 0:
        return 0
    m = math.isqrt(math.floor(r2))
    if d == 1:
        return 2 * m + 1
    if d == 2:
        ks = np.arange(-m, m + 1, dtype=np.int64)
        rem = r2 - ks.astype(float) ** 2
        span = np.floor(np.sqrt(np.maximum(rem, 0.0))).astype(np.int64)
        # repair float sqrt rounding at exact squares
        span = np.where((span + 1).astype(float) ** 2 <= rem, span + 1, span)
        span = np.where(span.astype(float) ** 2 > rem, span - 1, span)
        return int(np.sum(2 * span + 1))
    total = 0
    for k in range(-m, m + 1):
        total += _ball_lattice_count(r2 - k * k, d - 1)
    return total


def q_coupling(p_nu: float, p_lambda: float, Delta: int) -> float:
    """Occupancy parameter 1 - (1 - (p_nu/p_lambda)^(1/Delta))^Delta.

    Strictly below 1 when p_nu < p_lambda (rounds to 1.0 once the gap falls
    below double resolution); equals the ratio itself at Delta = 1.
    """
    if not 0 <= p_nu <= p_lambda <= 1:
        raise ValueError("need 0 <= p_nu <= p_lambda <= 1")
    if Delta < 1:
        raise ValueError("Delta must be at least 1")
    if p_nu == p_lambda:
        return 1.0
    if p_nu == 0.0:
        return 0.0
    root = math.exp(math.log(p_nu / p_lambda) / Delta)
    return -math.expm1(Delta * math.log1p(-root))


def _occupancy_log_ratio(inputs: BoundInputs, alpha: float, epsilon: float) -> float:
    """log(p_nu / p_lambda), stable when the probabilities nearly coincide.

    Uses p_lambda - p_nu = exp(-eps^d nu) * (1 - exp(-eps^d (lam - nu))) so
    the difference never cancels, even when both probabilities are ~1e-10
    apart by parts in 1e-5.
    """
    d, lam = inputs.d, inputs.lam
    nu = inputs.lambda_c + alpha * inputs.delta
    eps_d = epsilon**d
    p_lam = -math.expm1(-eps_d * lam)
    p_gap = math.exp(-eps_d * nu) * -math.expm1(-eps_d * (lam - nu))
    return math.log1p(-p_gap / p_lam)


def _log_inverse_gap(inputs: BoundInputs, alpha: float, exponent: float,
                     epsilon: float) -> float:
    """log(1 / (1 - ratio^exponent)); +inf when the power rounds to 1."""
    one_minus_pow = -math.expm1(exponent * _occupancy_log_ratio(inputs, alpha, epsilon))
    if one_minus_pow <= 0.0:
        return math.inf
    return -math.log(one_minus_pow)


def mu_bound_exact_delta(inputs: BoundInputs, alpha: float) -> float:
    """Exact-Delta bound eps^(-d) * Delta * log(1/(1 - ratio^(1/Delta)))."""
    eps = epsilon_of_alpha(inputs.r, inputs.delta, inputs.lambda_c, alpha, inputs.d)
    t = 0.5 * (inputs.r + s_of_alpha(inputs.r, inputs.delta, inputs.lambda_c, alpha, inputs.d))
    Delta = delta_count(t, eps, inputs.d)
    return eps**-inputs.d * Delta * _log_inverse_gap(inputs, alpha, 1.0 / Delta, eps)


def mu_bound_relaxed(inputs: BoundInputs, alpha: float) -> float:
    """Relaxed bound eps^(-2d) * pi_d * r^d * log(1/(1 - ratio^((eps/r)^d/pi_d))).

    Dominates the exact-Delta form because eps^d * Delta <= pi_d * r^d under
    the admissible lattice spacing.
    """
    d, r = inputs.d, inputs.r
    eps = epsilon_of_alpha(r, inputs.delta, inputs.lambda_c, alpha, d)
    pi_d = unit_ball_volume(d)
    exponent = (eps / r) ** d / pi_d
    return eps ** (-2 * d) * pi_d * r**d * _log_inverse_gap(inputs, alpha, exponent, eps)


def asymptotic_constant(r: float, lambda_c: float, d: int) -> float:
    """Prefactor (4*lambda_c^2/r)^d * d^(3d) * (d+1) * pi_d of the small-excess
    divergence of the optimized bound."""
    if r <= 0 or lambda_c <= 0:
        raise ValueError("r and lambda_c must be positive")
    if d < 2:
        raise ValueError("dimension must be at least 2")
    return (4.0 * lambda_c**2 / r) ** d * float(d) ** (3 * d) * (d + 1) * unit_ball_volume(d)


@dataclass(frozen=True)
class BoundRow:
    """All intermediate quantities of one alpha evaluation."""

    alpha: float
    s: float
    t: float
    epsilon: float
    delta_sites: int | None
    p_nu: float
    p_lambda: float
    ratio_pow: float
    mu_relaxed: float
    mu_exact_delta: float | None


@dataclass(frozen=True)
class BoundReport:
    """Per-alpha table plus the optimized bound and the divergence prefactor."""

    inputs: BoundInputs
    rows: list
    alpha_opt: float
    mu_hat: float
    mu_hat_exact: float | None
    constant: float

    def to_csv_rows(self):
        header = ["alpha", "s", "t", "epsilon", "delta_sites", "p_nu", "p_lambda",
                  "ratio_pow", "mu_relaxed", "mu_exact_delta"]
        rows = []
        for row in self.rows:
            rows.append([row.alpha, row.s, row.t, row.epsilon,
                         "" if row.delta_sites is None else row.delta_sites,
                         row.p_nu, row.p_lambda, row.ratio_pow, row.mu_relaxed,
                         "" if row.mu_exact_delta is None else row.mu_exact_delta])
        return header, rows


def mu_bound_optimized(inputs: BoundInputs) -> BoundReport:
    """Minimum of the relaxed bound over the alpha grid, with the full table.

    The exact-Delta column is evaluated wherever the lattice enumeration
    stays within its guard (tiny excesses push the spacing below the
    enumerable range) and the minimum of the available entries is reported
    alongside.
    """
    d, r, lambda_c, delta = inputs.d, inputs.r, inputs.lambda_c, inputs.delta
    pi_d = unit_ball_volume(d)
    rows = []
    for alpha in inputs.alphas:
        alpha = float(alpha)
        s = s_of_alpha(r, delta, lambda_c, alpha, d)
        eps = epsilon_of_alpha(r, delta, lambda_c, alpha, d)
        t = 0.5 * (r + s)
        nu = lambda_c + alpha * delta
        relaxed = mu_bound_relaxed(inputs, alpha)
        try:
            sites = delta_count(t, eps, d)
            exact = eps**-d * sites * _log_inverse_gap(inputs, alpha, 1.0 / sites, eps)
        except ResourceLimitError:
            sites, exact = None, None
        rows.append(BoundRow(
            alpha=alpha, s=s, t=t, epsilon=eps, delta_sites=sites,
            p_nu=p_occupy(nu, eps, d), p_lambda=p_occupy(inputs.lam, eps, d),
            ratio_pow=math.exp((eps / r) ** d / pi_d * _occupancy_log_ratio(inputs, alpha, eps)),
            mu_relaxed=relaxed, mu_exact_delta=exact))
    best = min(rows, key=lambda row: row.mu_relaxed)
    exact_values = [row.mu_exact_delta for row in rows if row.mu_exact_delta is not None]
    return BoundReport(
        inputs=inputs, rows=rows, alpha_opt=best.alpha, mu_hat=best.mu_relaxed,
        mu_hat_exact=min(exact_values) if exact_values else None,
        constant=asymptotic_constant(r, lambda_c, d))

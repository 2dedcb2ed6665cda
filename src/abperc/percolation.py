"""Monte Carlo estimation of critical intensities via crossing probabilities.

The finite-size stand-in for percolation is the box-crossing event: some
connected component holds a vertex within the connection margin of the left
face and one within the margin of the right face. Pseudo-critical points are
located by bisection on the intensity at a target crossing probability,
reusing one batch of coupled seeds across probe values so the per-seed
crossing indicator is monotone along the probed axis.

On the one-type axis each seed is swept once (Newman and Ziff, PRL 85:4104,
2000, in the continuum): its crossing time T is the arrival time of the point
with which the coupled pattern first crosses, so the seed crosses at
intensity lam exactly when ``T <= lam * volume``. Every probe of a bisection
or of a probe list is then a float comparison against the stored times. The
B axis of the AB graph is still re-simulated at every probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import EstimationError, ResourceLimitError
from .parallel import parallel_starmap
from .pointprocess import CoupledSampler, PointPattern, Region
from .geomgraph import build_bipartite, build_unigraph, crossing_exists, crossing_prefix_length

DEFAULT_MU_MAX = 1.0e6
# expected point budget per trial; beyond this a probe would thrash memory
MAX_EXPECTED_POINTS = 2.0e7


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """Wilson score interval for a binomial proportion (default 95%)."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    # roundoff repair: the interval always contains the point estimate
    return max(0.0, min(centre - half, phat)), min(1.0, max(centre + half, phat))


@dataclass(frozen=True)
class ProbeResult:
    """Crossing-probability estimate at one probed intensity."""

    value: float
    successes: int
    trials: int
    ci_low: float
    ci_high: float

    @property
    def p_hat(self) -> float:
        return self.successes / self.trials


@dataclass
class CriticalEstimate:
    """Bisection result for a pseudo-critical intensity."""

    parameter: str
    estimate: float
    bracket: tuple
    box_side: float
    trials_per_probe: int
    target: float
    radius: float
    dimension: int
    seed: int
    companion_intensity: float | None = None
    no_percolation: bool = False
    probes: list = field(default_factory=list)


def one_type_crossing_trial(seed: int, trial: int, lam: float, r: float, L: float,
                            d: int) -> bool:
    """Crossing indicator for the one-type graph at connection distance 2r."""
    region = Region("box", L, d)
    sampler = CoupledSampler(region, seed, "A", path=(trial,))
    pattern = sampler.prefix(lam)
    graph = build_unigraph(pattern, 2.0 * r)
    return crossing_exists(graph)


def one_type_crossing_time(seed: int, trial: int, start: float, top: float, r: float,
                           L: float, d: int) -> float:
    """Crossing time T of one trial: the indicator of
    :func:`one_type_crossing_trial` at intensity lam is ``T <= lam * volume``.

    T is the event time of the point with which the coupled A pattern first
    crosses at distance 2r; inf when the pattern at ``top`` does not cross.
    Prefixes of the pattern at ``top`` are swept at intensities doubling from
    ``start`` (0 < start <= top, or start = top = 0) until one crosses.
    """
    region = Region("box", L, d)
    sampler = CoupledSampler(region, seed, "A", path=(trial,))
    points = sampler.prefix(top).points
    lam = start
    while True:
        pattern = PointPattern(region, points[:sampler.count_at(lam)], lam, seed)
        k = crossing_prefix_length(pattern, 2.0 * r)
        if k is not None:
            return sampler.event_time(k)
        if lam >= top:
            return math.inf
        lam = min(2.0 * lam, top)


def _crossing_times(start, top, r, L, trials, seed, d, jobs) -> list[float]:
    """Per-seed crossing times of trials 0..trials-1, in one pass over the seeds."""
    tasks = [(seed, t, start, top, r, L, d) for t in range(trials)]
    return parallel_starmap(one_type_crossing_time, tasks, jobs)


def _crossings_at(times, lam: float, volume: float) -> list[bool]:
    t = lam * volume
    return [T <= t for T in times]


def ab_crossing_trial(seed: int, trial: int, lam: float, mu: float, r: float, L: float,
                      d: int) -> bool:
    """Crossing indicator for the bipartite graph at radius r."""
    region = Region("box", L, d)
    if mu * region.volume > MAX_EXPECTED_POINTS:
        raise ResourceLimitError(
            f"expected B count {mu * region.volume:.3g} exceeds the per-trial budget")
    sampler_a = CoupledSampler(region, seed, "A", path=(trial,))
    sampler_b = CoupledSampler(region, seed, "B", path=(trial,))
    X = sampler_a.prefix(lam)
    Y = sampler_b.prefix(mu)
    graph = build_bipartite(X, Y, r)
    return crossing_exists(graph)


def dense_b_limit_trial(seed: int, trial: int, lam: float, r: float, L: float,
                        d: int) -> bool:
    """Crossing indicator of the bipartite graph in the dense-B limit.

    As the B intensity grows, every A pair within 2r acquires a common
    neighbor and a component reaches exactly r beyond its A points, so the
    limit event equals one-type crossing of the A points at distance 2r with
    margin 2r, which is :func:`one_type_crossing_trial`. For a fixed seed
    this dominates the AB indicator at every finite B intensity.
    """
    return one_type_crossing_trial(seed, trial, lam, r, L, d)


def _require_finite(**params) -> None:
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _validate_geometry(r: float, L: float, trials: int) -> None:
    _require_finite(r=r, L=L)
    if r <= 0:
        raise ValueError("radius must be positive")
    if L < 4 * r:
        raise ValueError("box side must be at least 4r")
    if trials < 1:
        raise ValueError("at least one trial is required")


def crossing_probability(kind: str, intensities, r: float, L: float, trials: int,
                         seed: int, d: int = 2, jobs: int = 1) -> list[ProbeResult]:
    """Crossing-probability estimates with Wilson intervals.

    ``kind`` is "one-type" (intensities are lambda values, graph distance 2r)
    or "AB" (intensities are (lambda, mu) pairs, graph radius r; the probe
    value of each result records the B intensity).
    """
    _validate_geometry(r, L, trials)
    if kind == "one-type":
        values = [float(v) for v in intensities]
        for lam in values:
            _require_finite(lam=lam)
            if lam < 0:
                raise ValueError("intensity must be nonnegative")
        top = max(values, default=0.0)
        start = min((v for v in values if v > 0), default=top)
        times = _crossing_times(start, top, r, L, trials, seed, d, jobs)
        volume = Region("box", L, d).volume
        counts = [(lam, sum(_crossings_at(times, lam, volume))) for lam in values]
    elif kind == "AB":
        counts = []
        for value in intensities:
            lam, mu = (float(v) for v in value)
            _require_finite(lam=lam, mu=mu)
            if lam < 0 or mu < 0:
                raise ValueError("intensities must be nonnegative")
            tasks = [(seed, t, lam, mu, r, L, d) for t in range(trials)]
            counts.append((mu, sum(parallel_starmap(ab_crossing_trial, tasks, jobs))))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return [ProbeResult(value, succ, trials, *wilson_interval(succ, trials))
            for value, succ in counts]


class _MonotoneProbeHistory:
    """Per-seed indicators across probes; checks monotone coupling."""

    def __init__(self):
        self.records = {}

    def add(self, value: float, flags) -> None:
        self.records[value] = list(flags)
        values = sorted(self.records)
        for lower, upper in zip(values, values[1:]):
            for a, b in zip(self.records[lower], self.records[upper]):
                if a and not b:
                    raise AssertionError(
                        "coupled crossing indicator decreased along the probed axis")


def estimate_lambda_c(r: float, L: float, trials: int, tol: float, seed: int,
                      d: int = 2, bracket: tuple | None = None, target: float = 0.5,
                      jobs: int = 1) -> CriticalEstimate:
    """Bisection estimate of the one-type critical intensity at distance 2r.

    The returned bracket has the empirical crossing probability below the
    target at its low end and at or above it at the high end, with width at
    most ``tol``. The estimate is the bracket midpoint.
    """
    _validate_geometry(r, L, trials)
    _require_finite(tol=tol, target=target)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if bracket is None:
        bracket = (0.01 / r**d, 2.0 / r**d)
    low, high = (float(b) for b in bracket)
    _require_finite(low=low, high=high)
    if not 0 <= low < high:
        raise ValueError("bracket must satisfy 0 <= low < high")

    # every probe lies in [low, high]; the start of the doubling sweep only
    # sets its cost, since each crossing time is exact whatever the start
    start = low if low > 0 else min(tol, high)
    times = _crossing_times(start, high, r, L, trials, seed, d, jobs)
    volume = Region("box", L, d).volume
    history = _MonotoneProbeHistory()
    probes = []

    def probe(lam: float) -> float:
        flags = _crossings_at(times, lam, volume)
        history.add(lam, flags)
        succ = int(sum(flags))
        ci = wilson_interval(succ, trials)
        probes.append(ProbeResult(lam, succ, trials, *ci))
        return succ / trials

    p_low = probe(low)
    p_high = probe(high)
    if p_low >= target or p_high < target:
        raise EstimationError(
            f"initial bracket does not straddle the target: p({low:g})={p_low:.3f}, "
            f"p({high:g})={p_high:.3f}, target={target}")
    while high - low > tol:
        mid = 0.5 * (low + high)
        if probe(mid) >= target:
            high = mid
        else:
            low = mid
    return CriticalEstimate(
        parameter="lambda", estimate=0.5 * (low + high), bracket=(low, high),
        box_side=L, trials_per_probe=trials, target=target, radius=r, dimension=d,
        seed=seed, probes=probes)


def estimate_mu_c(r: float, lam: float, L: float, trials: int, tol: float, seed: int,
                  d: int = 2, mu_max: float = DEFAULT_MU_MAX, target: float = 0.5,
                  jobs: int = 1) -> CriticalEstimate:
    """Bisection estimate of the critical B intensity at fixed A intensity.

    First evaluates the dense-B limit proxy, which dominates every finite B
    intensity seed-by-seed; when even the limit fails to reach the target
    crossing probability a "no percolation detected" estimate is returned
    without probing enormous B intensities (consistent with an infinite
    critical value below the one-type critical intensity). Otherwise the
    upper probe doubles until success, then bisection runs to ``tol``.
    """
    _validate_geometry(r, L, trials)
    _require_finite(lam=lam, tol=tol, target=target)
    if lam <= 0:
        raise ValueError("A intensity must be positive")
    if not mu_max > 0:
        raise ValueError(f"mu_max must be positive, got {mu_max!r}")
    if tol <= 0:
        raise ValueError("tolerance must be positive")

    history = _MonotoneProbeHistory()
    probes = []

    def probe(mu: float) -> float:
        tasks = [(seed, t, lam, mu, r, L, d) for t in range(trials)]
        flags = parallel_starmap(ab_crossing_trial, tasks, jobs)
        history.add(mu, flags)
        succ = int(sum(flags))
        ci = wilson_interval(succ, trials)
        probes.append(ProbeResult(mu, succ, trials, *ci))
        return succ / trials

    def result(estimate, bracket, no_percolation=False):
        return CriticalEstimate(
            parameter="mu", estimate=estimate, bracket=bracket, box_side=L,
            trials_per_probe=trials, target=target, radius=r, dimension=d,
            seed=seed, companion_intensity=lam, no_percolation=no_percolation,
            probes=probes)

    limit_tasks = [(seed, t, lam, r, L, d) for t in range(trials)]
    limit_flags = parallel_starmap(dense_b_limit_trial, limit_tasks, jobs)
    history.add(math.inf, limit_flags)
    limit_succ = int(sum(limit_flags))
    probes.append(ProbeResult(math.inf, limit_succ, trials,
                              *wilson_interval(limit_succ, trials)))
    if limit_succ / trials < target:
        return result(math.inf, (math.inf, math.inf), no_percolation=True)

    low, high = 0.0, r**-d
    while probe(high) < target:
        low = high
        high *= 2.0
        if high > mu_max:
            return result(math.inf, (low, math.inf), no_percolation=True)
    while high - low > tol:
        mid = 0.5 * (low + high)
        if probe(mid) >= target:
            high = mid
        else:
            low = mid
    return result(0.5 * (low + high), (low, high))

"""Monte Carlo estimation of critical intensities via crossing probabilities.

The finite-size stand-in for percolation is the box-crossing event: some
connected component holds a vertex within the connection margin of the left
face and one within the margin of the right face. Pseudo-critical points are
located by bisection on the intensity at a target crossing probability,
reusing one batch of coupled seeds across probe values so the per-seed
crossing indicator is monotone along the probed axis.

Probes never re-simulate a seed (Newman and Ziff, PRL 85:4104, 2000, in the
continuum). Each seed is swept for its crossing time: on the one-type axis T
is the arrival time of the A point with which the coupled pattern first
crosses, and on the B axis of the AB graph, with the A pattern fixed, T_B is
the arrival time of the B point that completes the first crossing. The seed
crosses at intensity lam (or mu) exactly when ``T <= lam * volume`` (``T_B <=
mu * volume``), so every probe of a bisection or of a probe list is a float
comparison against the stored times. Both times are bottleneck steps of one
primitive, :func:`abperc.geomgraph.crossing_step`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EstimationError
from .parallel import parallel_starmap
from .pointprocess import CoupledSampler, PointPattern, Region
from .geomgraph import build_bipartite, build_unigraph, crossing_exists, crossing_step

DEFAULT_MU_MAX = 1.0e6


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


def _sweep(sampler: CoupledSampler, start: float, top: float, crossing_count) -> float:
    """Crossing time of the pattern that ``sampler`` couples across intensities.

    ``crossing_count(points, lam)`` takes the swept pattern at intensity lam
    and returns the smallest k such that its first k points complete a
    crossing, or None. Prefixes of the pattern at ``top`` are tried at
    intensities doubling from ``min(start, top)`` until one crosses; a probe
    sweep starts at s**-d, s its connection distance. The time is the k-th
    event time (0 for k = 0) from any start: the crossing holds at intensity
    lam exactly when ``time <= lam * volume``; inf if ``top`` does not cross.
    """
    points = sampler.prefix(top).points
    lam = min(start, top)
    while True:
        k = crossing_count(points[:sampler.count_at(lam)], lam)
        if k is not None:
            return sampler.event_time(k) if k else 0.0
        if lam >= top:
            return math.inf
        lam = min(2.0 * lam, top)


def one_type_crossing_time(seed: int, trial: int, start: float, top: float, r: float,
                           L: float, d: int) -> float:
    """Crossing time T of one trial: the indicator of
    :func:`one_type_crossing_trial` at intensity lam is ``T <= lam * volume``
    for every lam in [0, top]; T is inf when the pattern at ``top`` does not
    cross. The sweep starts at ``start`` as in :func:`_sweep`.
    """
    region = Region("box", L, d)
    sampler = CoupledSampler(region, seed, "A", path=(trial,))

    def crossing_count(points, lam):
        graph = build_unigraph(PointPattern(region, points, lam, seed), 2.0 * r)
        # point i arrives at step i + 1
        return crossing_step(graph, np.arange(1, len(points) + 1))

    return _sweep(sampler, start, top, crossing_count)


def ab_crossing_time(seed: int, trial: int, lam: float, start: float, top: float, r: float,
                     L: float, d: int) -> float:
    """B crossing time T_B of one trial at A intensity lam: the indicator of
    :func:`ab_crossing_trial` at B intensity mu is ``T_B <= mu * volume`` for
    every mu in [0, top]; T_B is inf when the graph with the B pattern at
    ``top`` does not cross. The sweep starts at ``start`` as in :func:`_sweep`.
    """
    region = Region("box", L, d)
    X = CoupledSampler(region, seed, "A", path=(trial,)).prefix(lam)
    sampler = CoupledSampler(region, seed, "B", path=(trial,))

    def crossing_count(points, mu):
        graph = build_bipartite(X, PointPattern(region, points, mu, seed), r)
        # A points are present from step 1 and B point j arrives at step j + 2,
        # so a crossing at step k needs the first k - 1 B points
        steps = np.concatenate([np.ones(len(X), np.int64), np.arange(2, len(points) + 2)])
        k = crossing_step(graph, steps)
        return None if k is None else k - 1

    return _sweep(sampler, start, top, crossing_count)


def _crossing_times(start, top, r, L, trials, seed, d, jobs) -> list[float]:
    """Per-seed crossing times of trials 0..trials-1, in one pass over the seeds."""
    tasks = [(seed, t, start, top, r, L, d) for t in range(trials)]
    return parallel_starmap(one_type_crossing_time, tasks, jobs)


def _crossings_at(times, lam: float, volume: float) -> list[bool]:
    t = lam * volume
    return [T <= t for T in times]


def _log_probe(probes: list, value: float, flags) -> float:
    """Append the estimate from per-seed crossing ``flags`` at ``value``; returns it."""
    succ, trials = sum(flags), len(flags)
    probes.append(ProbeResult(value, succ, trials, *wilson_interval(succ, trials)))
    return succ / trials


def _bisect(low: float, high: float, tol: float, target: float, probe) -> tuple:
    """Halve [low, high] to width <= tol, keeping ``probe(low) < target <= probe(high)``."""
    while high - low > tol:
        mid = 0.5 * (low + high)
        if probe(mid) >= target:
            high = mid
        else:
            low = mid
    return low, high


def ab_crossing_trial(seed: int, trial: int, lam: float, mu: float, r: float, L: float,
                      d: int) -> bool:
    """Crossing indicator for the bipartite graph at radius r."""
    region = Region("box", L, d)
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


def _validate_geometry(r: float, L: float, trials: int, d: int) -> None:
    _require_finite(r=r, L=L)
    if r <= 0:
        raise ValueError("radius must be positive")
    try:
        r**-d
    except OverflowError:
        raise ValueError(f"radius {r!r} is too small: its unit intensity r**-{d} "
                         "overflows") from None
    if L < 4 * r:
        raise ValueError("box side must be at least 4r")
    if trials < 1:
        raise ValueError("at least one trial is required")


def _validate_target(target: float) -> None:
    # a crossing probability above 1 is never reached, whatever the intensity
    if not 0 < target <= 1:
        raise ValueError(f"target crossing probability must lie in (0, 1], got {target!r}")


def crossing_probability(kind: str, intensities, r: float, L: float, trials: int,
                         seed: int, d: int = 2, jobs: int = 1) -> list[ProbeResult]:
    """Crossing-probability estimates with Wilson intervals.

    ``kind`` is "one-type" (intensities are lambda values, graph distance 2r)
    or "AB" (intensities are (lambda, mu) pairs, graph radius r; the probe
    value of each result records the B intensity). Each seed is swept once
    per distinct lambda on the AB axis, and once in all on the one-type axis,
    from the unit intensity of the connection distance as in :func:`_sweep`.
    """
    _validate_geometry(r, L, trials, d)
    volume = Region("box", L, d).volume
    if kind == "one-type":
        values = [float(v) for v in intensities]
        for lam in values:
            _require_finite(lam=lam)
            if lam < 0:
                raise ValueError("intensity must be nonnegative")
        times = _crossing_times((2.0 * r)**-d, max(values, default=0.0), r, L, trials, seed,
                                d, jobs)
        counts = [(lam, sum(_crossings_at(times, lam, volume))) for lam in values]
    elif kind == "AB":
        pairs = []
        for value in intensities:
            lam, mu = (float(v) for v in value)
            _require_finite(lam=lam, mu=mu)
            if lam < 0 or mu < 0:
                raise ValueError("intensities must be nonnegative")
            pairs.append((lam, mu))
        times = {}
        for lam in dict.fromkeys(lam for lam, _ in pairs):
            mus = [mu for a, mu in pairs if a == lam]
            tasks = [(seed, t, lam, r**-d, max(mus), r, L, d) for t in range(trials)]
            times[lam] = parallel_starmap(ab_crossing_time, tasks, jobs)
        counts = [(mu, sum(_crossings_at(times[lam], mu, volume))) for lam, mu in pairs]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return [ProbeResult(value, succ, trials, *wilson_interval(succ, trials))
            for value, succ in counts]


def estimate_lambda_c(r: float, L: float, trials: int, tol: float, seed: int,
                      d: int = 2, bracket: tuple | None = None, target: float = 0.5,
                      jobs: int = 1) -> CriticalEstimate:
    """Bisection estimate of the one-type critical intensity at distance 2r.

    The returned bracket has the empirical crossing probability below the
    target at its low end and at or above it at the high end, with width at
    most ``tol``. The estimate is the bracket midpoint.
    """
    _validate_geometry(r, L, trials, d)
    _require_finite(tol=tol, target=target)
    _validate_target(target)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if bracket is None:
        bracket = (0.01 / r**d, 2.0 / r**d)
        if math.isinf(bracket[1]):
            raise ValueError(f"radius {r!r} is too small for the default bracket "
                             f"(0.01/r**{d}, 2/r**{d}): its high end overflows; "
                             "give the bracket explicitly")
    low, high = (float(b) for b in bracket)
    _require_finite(low=low, high=high)
    if not 0 <= low < high:
        raise ValueError("bracket must satisfy 0 <= low < high")

    # every probe lies in [low, high]
    times = _crossing_times((2.0 * r)**-d, high, r, L, trials, seed, d, jobs)
    volume = Region("box", L, d).volume
    probes = []

    def probe(lam: float) -> float:
        return _log_probe(probes, lam, _crossings_at(times, lam, volume))

    p_low = probe(low)
    p_high = probe(high)
    if p_low >= target or p_high < target:
        raise EstimationError(
            f"initial bracket does not straddle the target: p({low:g})={p_low:.3f}, "
            f"p({high:g})={p_high:.3f}, target={target}")
    low, high = _bisect(low, high, tol, target, probe)
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
    upper probe doubles from r^-d until success, then bisection runs to
    ``tol``. At each doubling level only the seeds not yet crossed are swept
    for their B crossing time, so every probe is ``T_B <= mu * volume``.
    """
    _validate_geometry(r, L, trials, d)
    _require_finite(lam=lam, tol=tol, target=target)
    _validate_target(target)
    if lam <= 0:
        raise ValueError("A intensity must be positive")
    if not mu_max > 0:
        raise ValueError(f"mu_max must be positive, got {mu_max!r}")
    if tol <= 0:
        raise ValueError("tolerance must be positive")

    volume = Region("box", L, d).volume
    probes = []

    def result(estimate, bracket, no_percolation=False):
        return CriticalEstimate(
            parameter="mu", estimate=estimate, bracket=bracket, box_side=L,
            trials_per_probe=trials, target=target, radius=r, dimension=d,
            seed=seed, companion_intensity=lam, no_percolation=no_percolation,
            probes=probes)

    # the dense-B limit is one-type crossing of the A pattern at lam
    limit_times = _crossing_times(lam, lam, r, L, trials, seed, d, jobs)
    if _log_probe(probes, math.inf, _crossings_at(limit_times, lam, volume)) < target:
        return result(math.inf, (math.inf, math.inf), no_percolation=True)

    times = [math.inf] * trials

    def probe(mu: float) -> float:
        return _log_probe(probes, mu, _crossings_at(times, mu, volume))

    def sweep_level(mu: float) -> None:
        # a seed with a finite time crossed at a lower level and keeps it
        pending = [t for t, T in enumerate(times) if T == math.inf]
        tasks = [(seed, t, lam, mu, mu, r, L, d) for t in pending]
        for t, T in zip(pending, parallel_starmap(ab_crossing_time, tasks, jobs)):
            times[t] = T

    low, high = 0.0, r**-d
    sweep_level(high)
    while probe(high) < target:
        low = high
        high *= 2.0
        if high > mu_max:
            return result(math.inf, (low, math.inf), no_percolation=True)
        sweep_level(high)
    low, high = _bisect(low, high, tol, target, probe)
    return result(0.5 * (low + high), (low, high))

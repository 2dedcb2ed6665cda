"""Monte Carlo estimation of critical intensities via crossing probabilities.

The finite-size stand-in for percolation is the box-crossing event: some
connected component holds a vertex within the connection margin of the left
face and one within the margin of the right face. Pseudo-critical points are
located by bisection on the intensity at a target crossing probability,
reusing one batch of coupled seeds across probe values so the per-seed
crossing indicator is monotone along the probed axis.

Probes never re-simulate a seed (Newman and Ziff, PRL 85:4104, 2000, in the
continuum). Each seed has a crossing time: on the one-type axis T is the
arrival time of the A point with which the coupled pattern first crosses, and
on the B axis of the AB graph, with the A pattern fixed, T_B is the arrival
time of the B point that completes the first crossing. The seed crosses at
intensity v exactly when ``T <= v * volume``, so every probe counts that
comparison on one float64 array of per-seed times (:func:`_probe`). One driver,
:func:`_levels`, fills the array level-major: it doubles the intensity up to a
top and at each level sweeps only the seeds not yet crossed, in blocks, one
pool task and one kernel call (:func:`abperc.geomgraph.crossing_steps`) per
block; in a bisection, a pilot block picks the level the other seeds start at.
The estimators run in one :func:`abperc.parallel.pool_scope`, so all the levels
of an estimate share one process pool, forked once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import EstimationError
from .parallel import parallel_starmap, pool_scope
from .pointprocess import CoupledSampler, Region, _require_budget
from .geomgraph import build_bipartite, build_unigraph, crossing_exists, crossing_steps

DEFAULT_MU_MAX = 1.0e6
# seeds swept together, one spanning-forest kernel call per doubling level
_BLOCK = 8
_Z95 = 1.959963984540054  # two-sided 95% standard normal quantile


def wilson_interval(successes: int, trials: int):
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    z, phat = _Z95, successes / trials
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
    pattern = CoupledSampler(Region("box", L, d), seed, "A", path=(trial,)).prefix(lam)
    return crossing_exists(build_unigraph(pattern, 2.0 * r))


def _sweep(samplers, level: float, graph_of) -> list[float]:
    """Crossing times of the patterns that ``samplers`` couple across intensities.

    ``graph_of(i, pattern)`` returns the graph of pattern i at ``level`` and the
    arrival step of each vertex: 1 for fixed vertices, j + 2 for point j. A
    pattern's time is the event time of the last point its first crossing needs
    (0 for none), the same at any level that crosses and in any block: it crosses
    at lam exactly when ``time <= lam * volume``; inf if ``level`` does not cross.
    """
    # the graphs are built one at a time, as crossing_steps consumes them
    ks = crossing_steps(graph_of(i, sampler.prefix(level)) for i, sampler in enumerate(samplers))
    return [math.inf if k is None else samplers[i].event_time(k - 1) if k > 1 else 0.0
            for i, k in enumerate(ks)]


def one_type_crossing_times(seed: int, trials, lam: float, r: float, L: float,
                            d: int) -> list[float]:
    """Crossing time T of each of ``trials`` as in :func:`_sweep`:
    :func:`one_type_crossing_trial` at intensity v is ``T <= v * volume`` for
    every v in [0, lam]; T is inf if ``lam`` does not cross.
    """
    region = Region("box", L, d)

    def graph_of(i, pattern):
        return build_unigraph(pattern, 2.0 * r), np.arange(2, len(pattern) + 2)

    return _sweep([CoupledSampler(region, seed, "A", path=(t,)) for t in trials], lam, graph_of)


def ab_crossing_times(seed: int, trials, mu: float, lam: float, r: float, L: float,
                      d: int) -> list[float]:
    """B crossing time T_B of each of ``trials`` at A intensity lam as in
    :func:`_sweep`: :func:`ab_crossing_trial` at B intensity v is ``T_B <= v *
    volume`` for every v in [0, mu]; T_B is inf if ``mu`` does not cross.
    """
    region = Region("box", L, d)
    Xs = [CoupledSampler(region, seed, "A", path=(t,)).prefix(lam) for t in trials]

    def graph_of(i, Y):
        # the A points are fixed, present from step 1
        graph = build_bipartite(Xs[i], Y, r)
        return graph, np.concatenate([np.ones(len(Xs[i]), np.int64), np.arange(2, len(Y) + 2)])

    return _sweep([CoupledSampler(region, seed, "B", path=(t,)) for t in trials], mu, graph_of)


def _levels(sweep, seed: int, trials, jobs: int, start: float, top: float, *params,
            target: float | None = None):
    """Yield ``(level, times)`` at the levels ``min(start * 2**j, top)``, j = 0, 1, ...,
    until ``top`` or every seed crosses: one array, updated in place, of the crossing
    times of ``trials`` in order, inf while a seed has not crossed. A sweep at a level
    covers the seeds still at inf by ``sweep(seed, block, level, *params)``, one pool
    task per block of at most ``_BLOCK`` seeds, and ``jobs`` blocks or more. Given a
    ``target``, the first ``_BLOCK`` seeds climb the levels until that share of them
    crosses, at s, before the others are swept at s and the levels up to s yielded:
    a seed still at inf after s has ``T > s * volume``, so no level up to s counts it."""
    trials, times = np.asarray(trials), np.full(len(trials), math.inf)

    def sweep_at(level, begin=0, end=None):
        pending = begin + np.flatnonzero(np.isinf(times[begin:end]))
        size = max(1, min(_BLOCK, -(-len(pending) // jobs)))
        tasks = [(seed, trials[pending[lo:lo + size]], level, *params)
                 for lo in range(0, len(pending), size)]
        times[pending] = [T for block in parallel_starmap(sweep, tasks, jobs) for T in block]

    levels, pilot = [min(start, top)], 0 if target is None else _BLOCK
    while pilot:
        sweep_at(levels[-1], 0, pilot)
        if levels[-1] == top or np.isfinite(times[:pilot]).mean() >= target:
            break
        levels.append(min(2.0 * levels[-1], top))
    if len(trials) > pilot:
        sweep_at(levels[-1], pilot)
    for level in levels:
        yield level, times
    while level < top and np.isinf(times).any():
        level = min(2.0 * level, top)
        sweep_at(level)
        yield level, times


def _probe(probes: list, times: np.ndarray, volume: float, value: float, at=None) -> float:
    """Log the estimate at ``value`` from the seeds with ``T <= at * volume`` (``at``
    is ``value`` unless given); returns it."""
    succ = int(np.count_nonzero(times <= (value if at is None else at) * volume))
    probes.append(ProbeResult(value, succ, len(times), *wilson_interval(succ, len(times))))
    return succ / len(times)


def _bisect(low: float, high: float, tol: float, target: float, probe) -> tuple:
    """Halve [low, high] to width <= tol, keeping ``probe(low) < target <= probe(high)``."""
    while high - low > tol:
        mid = 0.5 * (low + high)
        low, high = (low, mid) if probe(mid) >= target else (mid, high)
    return low, high


def ab_crossing_trial(seed: int, trial: int, lam: float, mu: float, r: float, L: float,
                      d: int) -> bool:
    """Crossing indicator for the bipartite graph at radius r."""
    region = Region("box", L, d)
    X = CoupledSampler(region, seed, "A", path=(trial,)).prefix(lam)
    Y = CoupledSampler(region, seed, "B", path=(trial,)).prefix(mu)
    return crossing_exists(build_bipartite(X, Y, r))


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


def _validate_bisection(tol: float, target: float) -> None:
    _require_finite(tol=tol, target=target)
    # a crossing probability above 1 is never reached, whatever the intensity
    if not 0 < target <= 1:
        raise ValueError(f"target crossing probability must lie in (0, 1], got {target!r}")
    if tol <= 0:
        raise ValueError("tolerance must be positive")


@pool_scope()
def crossing_probability(kind: str, intensities, r: float, L: float, trials: int,
                         seed: int, d: int = 2, jobs: int = 1) -> list[ProbeResult]:
    """Crossing-probability estimates with Wilson intervals.

    ``kind`` is "one-type" (intensities are lambda values, graph distance 2r)
    or "AB" (intensities are (lambda, mu) pairs, graph radius r; the probe
    value of each result records the B intensity). Each query is keyed by its
    lambda (None on the one-type axis), and the seeds are swept once per key,
    from the unit intensity of the connection distance to the key's highest value.
    """
    _validate_geometry(r, L, trials, d)
    if kind == "one-type":
        queries = [(None, float(lam)) for lam in intensities]
    elif kind == "AB":
        queries = [(float(lam), float(mu)) for lam, mu in intensities]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    volume = Region("box", L, d).volume
    for value in [v for query in queries for v in query if v is not None]:
        _require_finite(intensity=value)
        if value < 0:
            raise ValueError("intensities must be nonnegative")
        # a sweep samples only the levels it needs, so the probes are checked here
        _require_budget(value * volume, "point")
    times = {}
    for lam in dict.fromkeys(lam for lam, _ in queries):
        top = max(value for key, value in queries if key == lam)
        sweep, start, *args = ((one_type_crossing_times, (2.0 * r)**-d) if lam is None
                               else (ab_crossing_times, r**-d, lam))
        *_, (_, times[lam]) = _levels(sweep, seed, range(trials), jobs, start, top, *args, r, L, d)
    probes = []
    for lam, value in queries:
        _probe(probes, times[lam], volume, value)
    return probes


@pool_scope()
def estimate_lambda_c(r: float, L: float, trials: int, tol: float, seed: int,
                      d: int = 2, bracket: tuple | None = None, target: float = 0.5,
                      jobs: int = 1) -> CriticalEstimate:
    """Bisection estimate of the one-type critical intensity at distance 2r.

    The returned bracket has the empirical crossing probability below the
    target at its low end and at or above it at the high end, with width at
    most ``tol``. The estimate is the bracket midpoint.
    """
    _validate_geometry(r, L, trials, d)
    _validate_bisection(tol, target)
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

    volume = Region("box", L, d).volume
    # every probe lies in [low, high]; a sweep samples only the levels it needs
    _require_budget(high * volume, "point")
    *_, (_, times) = _levels(one_type_crossing_times, seed, range(trials), jobs,
                             (2.0 * r)**-d, high, r, L, d, target=target)
    probes = []
    probe = partial(_probe, probes, times, volume)
    p_low, p_high = probe(low), probe(high)
    if p_low >= target or p_high < target:
        raise EstimationError(
            f"initial bracket does not straddle the target: p({low:g})={p_low:.3f}, "
            f"p({high:g})={p_high:.3f}, target={target}")
    low, high = _bisect(low, high, tol, target, probe)
    return CriticalEstimate(
        parameter="lambda", estimate=0.5 * (low + high), bracket=(low, high),
        box_side=L, trials_per_probe=trials, target=target, radius=r, dimension=d,
        seed=seed, probes=probes)


@pool_scope()
def estimate_mu_c(r: float, lam: float, L: float, trials: int, tol: float, seed: int,
                  d: int = 2, mu_max: float = DEFAULT_MU_MAX, target: float = 0.5,
                  jobs: int = 1) -> CriticalEstimate:
    """Bisection estimate of the critical B intensity at fixed A intensity.

    The dense-B limit proxy, which dominates every finite B intensity seed by
    seed, is probed first; below the target (as below the one-type critical
    intensity), no percolation is reported without probing enormous B
    intensities. Otherwise the B levels double from r^-d up to ``mu_max``, each
    sweeping the seeds whose limit crosses (from a level a pilot block of them
    picks, see :func:`_levels`), until one reaches the target, and bisection runs
    to ``tol``; no percolation is reported once ``mu_max`` fails.
    """
    _validate_geometry(r, L, trials, d)
    _require_finite(lam=lam)
    _validate_bisection(tol, target)
    if lam <= 0:
        raise ValueError("A intensity must be positive")
    if not mu_max > 0:
        raise ValueError(f"mu_max must be positive, got {mu_max!r}")

    volume = Region("box", L, d).volume
    probes = []

    def result(estimate, bracket, no_percolation=False):
        return CriticalEstimate(
            parameter="mu", estimate=estimate, bracket=bracket, box_side=L,
            trials_per_probe=trials, target=target, radius=r, dimension=d,
            seed=seed, companion_intensity=lam, no_percolation=no_percolation,
            probes=probes)

    # the dense-B limit is one-type crossing of the A pattern at lam
    [(_, limit_times)] = _levels(one_type_crossing_times, seed, range(trials), jobs, lam, lam,
                                 r, L, d)
    if _probe(probes, limit_times, volume, math.inf, at=lam) < target:
        return result(math.inf, (math.inf, math.inf), no_percolation=True)

    times = np.full(trials, math.inf)
    probe = partial(_probe, probes, times, volume)
    # a seed whose dense-B limit does not cross at lam crosses at no finite mu
    live = np.flatnonzero(limit_times < math.inf)
    low = 0.0
    for high, live_times in _levels(ab_crossing_times, seed, live, jobs, r**-d, mu_max, lam,
                                    r, L, d, target=target):
        times[live] = live_times
        if probe(high) >= target:
            break
        low = high
    else:
        return result(math.inf, (mu_max, math.inf), no_percolation=True)
    low, high = _bisect(low, high, tol, target, probe)
    return result(0.5 * (low + high), (low, high))

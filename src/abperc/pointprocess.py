"""Homogeneous Poisson point processes on boxes and tori.

Provides plain seeded sampling plus the monotone coupling in which one shared
sequence of uniform points and one unit-rate counting process realize the
process at every intensity simultaneously: the pattern at a lower intensity
is an exact prefix of the pattern at any higher one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .reporting import write_csv
from .seeding import STREAM_IDS, derived_rng

# expected point count of one pattern; beyond it sampling would exhaust memory
MAX_EXPECTED_POINTS = 2.0e7


def _require_budget(expected: float, what: str) -> None:
    if expected > MAX_EXPECTED_POINTS:
        raise ResourceLimitError(
            f"expected {what} count {expected:.3g} exceeds the sampling budget")


@dataclass(frozen=True)
class Region:
    """Cube [0, side)^dim with Euclidean (box) or wraparound (torus) metric."""

    kind: str = "box"
    side: float = 1.0
    dim: int = 2

    def __post_init__(self):
        if self.kind not in ("box", "torus"):
            raise ValueError(f"unknown region kind {self.kind!r}")
        if not (math.isfinite(self.side) and self.side > 0):
            raise ValueError(f"region side must be finite and positive, got {self.side!r}")
        if self.dim < 1:
            raise ValueError("region dimension must be >= 1")

    @property
    def volume(self) -> float:
        return self.side**self.dim

    @property
    def max_distance(self) -> float:
        """Largest distance realizable between two points of the region."""
        diag = self.side * math.sqrt(self.dim)
        return diag / 2.0 if self.kind == "torus" else diag

    def sqdist(self, a, b) -> np.ndarray:
        """Squared distance between points, broadcasting over leading axes."""
        delta = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
        if self.kind == "torus":
            delta = np.minimum(delta, self.side - delta)
        return np.sum(delta * delta, axis=-1)


@dataclass(frozen=True)
class PointPattern:
    """Finite point set with the intensity/seed metadata that produced it.

    Coordinates lie in [0, side)^dim of ``region``. Immutable after creation
    and safe to share between threads or processes.
    """

    region: Region
    points: np.ndarray
    intensity: float
    seed: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, self.region.dim)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.intensity < 0:
            raise ValueError("intensity must be nonnegative")
        if pts.size and (pts.min() < 0.0 or pts.max() >= self.region.side):
            raise ValueError("coordinates must lie in [0, side)")

    def __len__(self) -> int:
        return self.points.shape[0]

    def to_csv(self, path) -> None:
        """Write one point per row: index, x1, ..., xd."""
        header = ["index"] + [f"x{k + 1}" for k in range(self.region.dim)]
        rows = [[i, *map(float, p)] for i, p in enumerate(self.points)]
        write_csv(path, header, rows)


def sample_poisson(region: Region, intensity: float, seed: int) -> PointPattern:
    """Sample a homogeneous Poisson process of the given intensity.

    The point count is Poisson(intensity * volume); locations are independent
    uniforms on the region. Deterministic for a fixed (region, intensity, seed).
    Raises ResourceLimitError when more than ``MAX_EXPECTED_POINTS`` points
    are expected.
    """
    if intensity < 0:
        raise ValueError("intensity must be nonnegative")
    _require_budget(intensity * region.volume, "point")
    gen = derived_rng(seed)
    count = int(gen.poisson(intensity * region.volume))
    points = gen.random((count, region.dim)) * region.side
    return PointPattern(region, points, intensity, seed)


class CoupledSampler:
    """One realization of the intensity-monotone coupling.

    Caches a shared sequence of uniform points and the event times of a
    unit-rate counting process; ``prefix(lam)`` returns the first N points
    where N counts event times <= lam * volume. For lam1 <= lam2 on the same
    sampler, prefix(lam1) is an exact prefix of prefix(lam2), so intensity
    sweeps reuse one realization. Streams "A" and "B" with the same seed are
    independent.

    Single-writer: distinct trials must use distinct sampler instances.
    """

    def __init__(self, region: Region, seed: int, stream: str = "A", path: tuple = ()):
        if stream not in STREAM_IDS:
            raise ValueError("stream must be 'A' or 'B'")
        self.region = region
        self.seed = int(seed)
        self.stream = stream
        sid = STREAM_IDS[stream]
        self._point_rng = derived_rng(seed, *path, sid, 0)
        self._gap_rng = derived_rng(seed, *path, sid, 1)
        self._times = np.cumsum(self._gap_rng.exponential(size=64))
        self._points = self._point_rng.random((64, region.dim)) * region.side

    def _grow_times(self) -> None:
        # cache growth doubles from a fixed size, so the cached event times
        # (cumulative sums restart at each block) never depend on query order
        gaps = self._gap_rng.exponential(size=self._times.size)
        self._times = np.concatenate([self._times, self._times[-1] + np.cumsum(gaps)])

    def count_at(self, intensity: float) -> int:
        """Number of points of the coupled process at this intensity.

        Raises ResourceLimitError, before sampling, when more than
        ``MAX_EXPECTED_POINTS`` points are expected.
        """
        if not (math.isfinite(intensity) and intensity >= 0):
            raise ValueError(f"intensity must be finite and nonnegative, got {intensity!r}")
        t = intensity * self.region.volume
        _require_budget(t, self.stream)
        while self._times[-1] <= t:
            self._grow_times()
        return int(np.searchsorted(self._times, t, side="right"))

    def event_time(self, k: int) -> float:
        """Time of the k-th event (k >= 1) of the unit-rate counting process.

        The pattern at intensity lam holds point k exactly when
        ``event_time(k) <= lam * volume``, the comparison ``count_at`` makes.
        """
        if k < 1:
            raise ValueError("event index must be >= 1")
        while self._times.size < k:
            self._grow_times()
        return float(self._times[k - 1])

    def prefix(self, intensity: float) -> PointPattern:
        """Pattern {X_1, ..., X_N} at this intensity; prefixes are nested."""
        n = self.count_at(intensity)
        while self._points.shape[0] < n:
            more = self._point_rng.random(self._points.shape) * self.region.side
            self._points = np.concatenate([self._points, more])
        return PointPattern(self.region, self._points[:n].copy(), intensity, self.seed)

"""Flow-size distributions.

The paper's FCT experiments replay two production workloads: the **web
search** workload of the DCTCP paper [11] and the **cache** workload measured
inside Facebook's datacenters [35].  The original traces are not available
offline, so this module ships synthetic empirical CDFs with the published
shapes (DESIGN.md §4):

* *web search* — heavy-tailed: over half the flows are small (< ~10 KB
  equivalents) but most bytes come from flows hundreds of packets long;
* *cache* — dominated by small object transfers of a few packets with a
  moderate tail.

Sizes are expressed in full-size packets (the simulator's unit).  Every
distribution exposes ``sample`` / ``mean`` and is deterministic given a
``numpy`` generator, so experiments are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

from repro.exceptions import WorkloadError
from repro.nputil import np

__all__ = [
    "EmpiricalCDF",
    "WEB_SEARCH_CDF",
    "CACHE_CDF",
    "web_search_distribution",
    "cache_distribution",
    "uniform_distribution",
    "distribution_by_name",
    "default_rng",
    "WORKLOAD_NAMES",
]


def default_rng(seed) -> "np.random.Generator":
    """``numpy.random.default_rng(seed)``, the generator every workload draws from.

    Traffic is drawn from numpy's PCG64 streams, which have no pure-Python
    equivalent, so without numpy this raises :class:`WorkloadError`.
    """
    if np is None:
        raise WorkloadError("generating traffic needs numpy, which is not installed "
                            "(install the 'fast' extra)")
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class EmpiricalCDF:
    """A piecewise-linear inverse-CDF sampler over flow sizes (in packets)."""

    name: str
    #: (cumulative probability, flow size in packets) pairs, increasing in both.
    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise WorkloadError(f"CDF {self.name!r} needs at least two points")
        previous_p, previous_size = -1.0, 0.0
        for probability, size in self.points:
            if probability <= previous_p or size < previous_size:
                raise WorkloadError(f"CDF {self.name!r} points must be increasing")
            previous_p, previous_size = probability, size
        if abs(self.points[-1][0] - 1.0) > 1e-9:
            raise WorkloadError(f"CDF {self.name!r} must end at probability 1.0")

    @cached_property
    def _arrays(self) -> Tuple["np.ndarray", "np.ndarray"]:
        """The CDF as (probabilities, sizes) arrays for ``np.interp``, built once."""
        return (np.array([p for p, _ in self.points]),
                np.array([s for _, s in self.points]))

    def sample(self, rng: "np.random.Generator", count: int = 1) -> "np.ndarray":
        """Draw ``count`` flow sizes (packets, >= 1) by inverse-transform sampling."""
        probabilities, sizes = self._arrays
        sampled = np.interp(rng.random(count), probabilities, sizes)
        return np.maximum(1, np.round(sampled)).astype(int)

    def sample_one(self, rng: "np.random.Generator") -> int:
        """One flow size: ``int(sample(rng, 1)[0])`` without the array round trip.

        Consumes the same single uniform; Python's ``round`` and ``np.round``
        both round half to even.
        """
        probabilities, sizes = self._arrays
        return max(1, round(float(np.interp(rng.random(), probabilities, sizes))))

    def mean(self) -> float:
        """The expected flow size (packets) under the piecewise-linear CDF."""
        total = 0.0
        for (p0, s0), (p1, s1) in zip(self.points, self.points[1:]):
            total += (p1 - p0) * (s0 + s1) / 2.0
        return max(1.0, total)

    def quantile(self, probability: float) -> float:
        probabilities = [p for p, _ in self.points]
        sizes = [s for _, s in self.points]
        return float(np.interp(probability, probabilities, sizes))


#: DCTCP-style web search workload: ~50% of flows under 7 packets but a heavy
#: tail reaching ~20000 packets (~30 MB at 1500 B/packet, scaled shape).
WEB_SEARCH_CDF = EmpiricalCDF("web_search", (
    (0.0, 1),
    (0.15, 2),
    (0.30, 4),
    (0.50, 7),
    (0.60, 14),
    (0.70, 34),
    (0.80, 134),
    (0.90, 667),
    (0.95, 1340),
    (0.99, 4500),
    (1.00, 20000),
))

#: Facebook cache-follower workload: dominated by small object reads with a
#: moderate tail (largest flows a few hundred packets).
CACHE_CDF = EmpiricalCDF("cache", (
    (0.0, 1),
    (0.50, 2),
    (0.70, 3),
    (0.80, 5),
    (0.90, 10),
    (0.95, 30),
    (0.99, 120),
    (1.00, 400),
))


def web_search_distribution(scale: float = 1.0) -> EmpiricalCDF:
    """The web-search CDF, optionally scaled (smaller scale = faster experiments)."""
    return _scaled(WEB_SEARCH_CDF, scale)


def cache_distribution(scale: float = 1.0) -> EmpiricalCDF:
    """The cache CDF, optionally scaled."""
    return _scaled(CACHE_CDF, scale)


def uniform_distribution(low: int = 1, high: int = 20, name: str = "uniform") -> EmpiricalCDF:
    """A simple uniform flow-size distribution (used by tests and examples)."""
    if low < 1 or high < low:
        raise WorkloadError("uniform distribution requires 1 <= low <= high")
    return EmpiricalCDF(name, ((0.0, low), (1.0, high)))


def _scaled(cdf: EmpiricalCDF, scale: float) -> EmpiricalCDF:
    if scale <= 0:
        raise WorkloadError("scale must be positive")
    if scale == 1.0:
        return cdf
    points = tuple((p, max(1.0, round(s * scale))) for p, s in cdf.points)
    # Re-normalise monotonicity after rounding small sizes.
    fixed: List[Tuple[float, float]] = []
    last_size = 0.0
    for probability, size in points:
        size = max(size, last_size)
        fixed.append((probability, size))
        last_size = size
    return EmpiricalCDF(f"{cdf.name}-x{scale:g}", tuple(fixed))


WORKLOAD_NAMES = ("web_search", "cache", "uniform")


def distribution_by_name(name: str, scale: float = 1.0) -> EmpiricalCDF:
    """Look up a named flow-size distribution, scaled by ``scale``.

    ``web_search`` and ``cache`` are the paper's workloads; ``uniform`` is the
    flat sensitivity distribution (sizes 1..20 packets at scale 1.0, the upper
    bound scaling with ``scale``).
    """
    if name == "web_search":
        return web_search_distribution(scale)
    if name == "cache":
        return cache_distribution(scale)
    if name == "uniform":
        return _scaled(uniform_distribution(), scale)
    raise WorkloadError(f"unknown workload {name!r}; available: {WORKLOAD_NAMES}")

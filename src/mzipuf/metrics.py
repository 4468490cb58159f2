"""Response quantization and distance metrics for challenge-response analysis.

Raw intensity vectors are reduced to small integer bin vectors relative to
the response's own total power, which cancels global coupling fluctuations.
Comparisons use a loose Hamming distance (coordinates differing by at least
a looseness threshold) and the plain Euclidean distance on bin vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._codec import int_tuple, integer

DEFAULT_BIN_FRACTION = 0.005

# absorbs float rounding at exact bin boundaries so ratios that are whole
# numbers up to representation error land in the intended bin
_FLOOR_GUARD = 1e-9


class DegenerateResponseError(ValueError):
    """Raised when a response carries no power and cannot be quantized."""


@dataclass(frozen=True)
class QuantizedResponse:
    """Integer bin vector of one measured response.

    bins are hashable and exactly comparable, which collision audits rely
    on; bin_fraction records the quantization step as a fraction of total
    response power.
    """

    bins: tuple[int, ...]
    bin_fraction: float = DEFAULT_BIN_FRACTION

    def __post_init__(self):
        object.__setattr__(self, "bins", int_tuple(self.bins))
        if min(self.bins, default=0) < 0:
            raise ValueError("bins must be non-negative")
        if not 0.0 < self.bin_fraction <= 1.0:
            raise ValueError(f"bin_fraction must lie in (0, 1], got {self.bin_fraction}")

    def __len__(self) -> int:
        return len(self.bins)


def quantize(raw, bin_fraction: float = DEFAULT_BIN_FRACTION) -> QuantizedResponse:
    """Quantize a raw intensity vector into power-fraction bins.

    Accepts a measurement record with an ``intensities`` attribute or a bare
    vector.  Each coordinate maps to floor(I_k / (bin_fraction * total)), so
    the result is invariant under rescaling the whole vector; a ratio within
    _FLOOR_GUARD below a whole number lands in that number's bin.  Checks
    raise ValueError in this order: an empty or not 1-D vector, a non-finite
    value, bin_fraction outside (0, 1], a negative value.  A vector with no
    power at all is degenerate and raises DegenerateResponseError.  This is
    the one-row case of _quantize_rows, which quantizes a whole measurement
    block at once.
    """
    intensities = np.asarray(getattr(raw, "intensities", raw), dtype=float)
    if intensities.ndim != 1 or intensities.size == 0:
        raise ValueError("expected a non-empty 1-D intensity vector")
    return _responses(_quantize_rows(intensities[None, :], bin_fraction), bin_fraction)[0]


def _quantize_rows(intensities, bin_fraction: float) -> np.ndarray:
    """quantize applied to every row of a non-empty (N, modes) matrix,
    as the (N, modes) int matrix whose row i is quantize(intensities[i]).bins.

    The checks of quantize run once over the whole block, in its order
    (finite, bin_fraction, non-negative, total power), so a block with
    several faults raises the first failing check over all rows.
    """
    # C order: each row is then summed exactly as a 1-D vector's sum() sums it
    intensities = np.ascontiguousarray(intensities, dtype=float)
    if not np.isfinite(intensities).all():
        raise ValueError("intensities must be finite")
    if not 0.0 < bin_fraction <= 1.0:
        raise ValueError(f"bin_fraction must lie in (0, 1], got {bin_fraction}")
    if intensities.min() < 0.0:
        raise ValueError("intensities must be non-negative")
    totals = intensities.sum(axis=1)
    if totals.min() <= 0.0:
        raise DegenerateResponseError("all-dark response: total power is zero")
    ratios = intensities / (bin_fraction * totals[:, None])
    ratios += _FLOOR_GUARD
    return np.floor(ratios, out=ratios).astype(int)


def _responses(bins: np.ndarray, bin_fraction: float) -> list[QuantizedResponse]:
    """One QuantizedResponse per row of a bin matrix from _quantize_rows,
    built without __post_init__, whose checks the kernel has run."""
    responses = []
    for row in bins.tolist():
        response = object.__new__(QuantizedResponse)
        # as the frozen dataclass's __init__ sets fields; reading __dict__ instead
        # would give every response a dict of its own, about 180 bytes more
        object.__setattr__(response, "bins", tuple(row))
        object.__setattr__(response, "bin_fraction", bin_fraction)
        responses.append(response)
    return responses


def _check_comparable(a: QuantizedResponse, b: QuantizedResponse) -> None:
    if len(a.bins) != len(b.bins):
        raise ValueError(f"response lengths differ: {len(a.bins)} vs {len(b.bins)}")
    if a.bin_fraction != b.bin_fraction:
        raise ValueError(
            f"responses quantized with different bin fractions: "
            f"{a.bin_fraction} vs {b.bin_fraction}"
        )


def _stacked_bins(*sides) -> list[np.ndarray]:
    """One (n, modes) bin matrix per side of aligned response lists.

    Every response must be comparable with the first one.  The responses
    at one position are checked against each other before the first one,
    so a lone mismatched response is reported as its pair would be.
    """
    for aligned in zip(*sides):
        for other in aligned[1:]:
            _check_comparable(aligned[0], other)
        _check_comparable(sides[0][0], aligned[0])
    return [np.array([r.bins for r in side]).reshape(len(side), -1) for side in sides]


def _pair_differences(left: np.ndarray, right: np.ndarray, levels=()):
    """Absolute bin differences of aligned bin matrices, with LHD counts.

    Row p compares left[p] with right[p].  Returns the (P, modes) integer
    matrix |left - right| and the (P, len(levels)) matrix whose column k
    holds each row's loose Hamming distance at looseness levels[k].
    """
    diff = np.abs(left - right)
    return diff, (diff[:, :, None] >= np.asarray(levels, dtype=int)).sum(axis=1)


def _row_l2(diff) -> np.ndarray:
    """Euclidean length of each row of an integer difference matrix.

    Exact: the integer sums of squares stay far below 2**53, so the result
    equals euclidean_distance whatever the summation order.
    """
    return np.sqrt(np.square(diff, dtype=float).sum(axis=1))


def loose_hamming_distance(a: QuantizedResponse, b: QuantizedResponse, looseness: int) -> int:
    """Count coordinates whose bins differ by at least ``looseness``.

    looseness L = 1 is the ordinary Hamming distance on bin vectors; larger
    L forgives small bin wobble from measurement noise.
    """
    looseness = integer(looseness, "looseness", 1)
    _check_comparable(a, b)
    # bins are tuples of ints, which Python compares faster than numpy converts them
    return sum(abs(x - y) >= looseness for x, y in zip(a.bins, b.bins))


def euclidean_distance(a: QuantizedResponse, b: QuantizedResponse) -> float:
    """Euclidean length of the bin difference vector."""
    _check_comparable(a, b)
    diff = np.asarray(a.bins, dtype=float) - np.asarray(b.bins, dtype=float)
    return float(np.sqrt(np.dot(diff, diff)))


def uniqueness(responses, looseness: int = 2) -> float:
    """Pairwise-mean loose Hamming distance of a device population, in percent.

    For n devices answering one challenge with m-mode responses:

        U = 2 / (n (n - 1)) * sum_{i < j} LHD(R_i, R_j, L) / m * 100
    """
    responses = list(responses)
    n = len(responses)
    if n < 2:
        raise ValueError(f"uniqueness needs at least 2 responses, got {n}")
    looseness = integer(looseness, "looseness", 1)
    (bins,) = _stacked_bins(responses)
    # response i against all later ones: O(n * modes) memory per step
    total = sum(
        int(np.count_nonzero(np.abs(bins[i + 1:] - bins[i]) >= looseness))
        for i in range(n - 1)
    )
    return 2.0 * total / (n * (n - 1)) / bins.shape[1] * 100.0


@dataclass(frozen=True)
class DistanceStats:
    """Summary statistics plus a fixed-width histogram of a distance sample."""

    count: int
    mean: float
    median: float
    std_dev: float
    min: float
    max: float
    histogram: tuple[tuple[float, float, int], ...] = field(repr=False, default=())


def distance_stats(values, bin_width: float = 1.0) -> DistanceStats:
    """Population statistics and histogram of finite values, bins aligned to bin_width."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("cannot summarize an empty sample")
    if not 0 < bin_width < math.inf:
        raise ValueError(f"bin_width must be finite and > 0, got {bin_width}")
    if not np.isfinite(data).all():
        raise ValueError("values must be finite")
    lo_edge = math.floor(float(data.min()) / bin_width)
    hi_edge = math.floor(float(data.max()) / bin_width) + 1
    edges = np.arange(lo_edge, hi_edge + 1) * bin_width
    counts, _ = np.histogram(data, bins=edges)
    histogram = tuple(
        (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(len(counts))
    )
    return DistanceStats(
        count=int(data.size),
        mean=float(data.mean()),
        median=float(np.median(data)),
        std_dev=float(data.std()),
        min=float(data.min()),
        max=float(data.max()),
        histogram=histogram,
    )


@dataclass(frozen=True)
class LoosenessSweep:
    """Distance statistics of two pair populations across looseness values."""

    looseness_values: tuple[int, ...]
    repeated: tuple[DistanceStats, ...]
    random: tuple[DistanceStats, ...]


def looseness_sweep(repeated_pairs, random_pairs, looseness_max: int = 10) -> LoosenessSweep:
    """Loose Hamming distance statistics for L = 1 .. looseness_max.

    Both inputs are sequences of (QuantizedResponse, QuantizedResponse)
    pairs; typically repeated_pairs compares repeats of one challenge on one
    device and random_pairs compares responses that should disagree.  All
    responses of one population must share one length and bin fraction.
    """
    looseness_max = integer(looseness_max, "looseness_max", 1)
    populations = [list(repeated_pairs), list(random_pairs)]
    if not all(populations):
        raise ValueError("both pair populations must be non-empty")
    levels = tuple(range(1, looseness_max + 1))
    repeated, random = (
        tuple(map(distance_stats, _pair_differences(*_stacked_bins(*zip(*pairs)), levels)[1].T))
        for pairs in populations
    )
    return LoosenessSweep(looseness_values=levels, repeated=repeated, random=random)

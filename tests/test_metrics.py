"""Unit tests for quantization and response distance metrics."""

import re
import statistics
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzipuf.fabrication import Challenge
from mzipuf.metrics import (
    _FLOOR_GUARD,
    DEFAULT_BIN_FRACTION,
    DegenerateResponseError,
    LoosenessSweep,
    QuantizedResponse,
    _pair_differences,
    _quantize_rows,
    _responses,
    _row_l2,
    _stacked_bins,
    distance_stats,
    euclidean_distance,
    loose_hamming_distance,
    looseness_sweep,
    quantize,
    uniqueness,
)
from mzipuf.protocol import CrpDatabase, CrpRecord, calibrate_policy


def qr(*bins):
    return QuantizedResponse(bins=tuple(bins))


def test_default_bin_fraction():
    assert DEFAULT_BIN_FRACTION == 0.005


def test_quantize_even_split():
    assert quantize([0.5, 0.5]).bins == (100, 100)


def test_quantize_full_power_one_mode():
    assert quantize([1.0, 0.0]).bins == (200, 0)


def test_quantize_sub_bin_power_floors_to_zero():
    assert quantize([0.0049, 0.9951]).bins == (0, 199)


def test_quantize_scale_invariant():
    rng = np.random.default_rng(5)
    for _ in range(200):
        v = rng.uniform(0, 1, size=8)
        v[v < 0.02] = 0.0
        if v.sum() == 0:
            continue
        assert quantize(v).bins == quantize(v * 17.0).bins == quantize(v / 311.0).bins


def test_quantize_boundary_guard():
    # 0.2 / (0.005 * 1.0) lands just below 40 in floats; the guard keeps the
    # whole-number ratio in bin 40 instead of 39
    assert quantize([0.2, 0.8]).bins == (40, 160)


def test_quantize_total_bin_budget():
    rng = np.random.default_rng(9)
    for _ in range(500):
        v = rng.uniform(0, 1, size=int(rng.integers(1, 23)))
        bf = float(rng.uniform(0.001, 0.5))
        q = quantize(v, bin_fraction=bf)
        assert sum(q.bins) <= int(np.ceil(1.0 / bf))
        assert all(b >= 0 for b in q.bins)
        assert q.bin_fraction == bf


def test_quantize_accepts_measurement_record():
    rec = SimpleNamespace(intensities=np.array([0.5, 0.5]))
    assert quantize(rec).bins == (100, 100)


def test_quantize_rejects_bad_input():
    with pytest.raises(DegenerateResponseError):
        quantize([0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        quantize([0.5, -0.1])
    with pytest.raises(ValueError):
        quantize([])
    with pytest.raises(ValueError):
        quantize([[0.5, 0.5]])
    with pytest.raises(ValueError):
        quantize([0.5, 0.5], bin_fraction=0.0)
    with pytest.raises(ValueError):
        quantize([0.5, 0.5], bin_fraction=1.5)


def test_degenerate_error_is_value_error():
    assert issubclass(DegenerateResponseError, ValueError)


def test_quantized_response_validation():
    assert QuantizedResponse(bins=(np.int64(3), 2.0)).bins == (3, 2)
    with pytest.raises(ValueError):
        QuantizedResponse(bins=(1, -1))
    for bin_fraction in (0.0, -0.1, 1.5, np.nan):
        with pytest.raises(ValueError):
            QuantizedResponse(bins=(1,), bin_fraction=bin_fraction)
    assert len(qr(1, 2, 3)) == 3


def test_loose_hamming_worked_example():
    a, b = qr(3, 7, 2), qr(3, 8, 9)
    assert loose_hamming_distance(a, b, looseness=2) == 1
    assert loose_hamming_distance(a, b, looseness=1) == 2


def test_loose_hamming_argument_validation():
    a, b = qr(1, 2), qr(1, 2)
    for bad in (0, -1, 1.5, True):
        with pytest.raises(ValueError):
            loose_hamming_distance(a, b, looseness=bad)
    with pytest.raises(ValueError):
        loose_hamming_distance(qr(1, 2), qr(1, 2, 3), looseness=1)
    with pytest.raises(ValueError):
        loose_hamming_distance(
            qr(1, 2), QuantizedResponse(bins=(1, 2), bin_fraction=0.01), looseness=1
        )


def test_loose_hamming_properties():
    rng = np.random.default_rng(13)
    for _ in range(500):
        m = int(rng.integers(1, 12))
        a = qr(*rng.integers(0, 10, size=m))
        b = qr(*rng.integers(0, 10, size=m))
        c = qr(*rng.integers(0, 10, size=m))
        prev = m + 1
        for level in range(1, 11):
            d = loose_hamming_distance(a, b, level)
            assert 0 <= d <= m
            assert d <= prev  # non-increasing in looseness
            prev = d
            assert d == loose_hamming_distance(b, a, level)
            assert loose_hamming_distance(a, a, level) == 0
        # ordinary Hamming (L = 1) satisfies the triangle inequality
        assert loose_hamming_distance(a, c, 1) <= (
            loose_hamming_distance(a, b, 1) + loose_hamming_distance(b, c, 1)
        )


def test_euclidean_worked_examples():
    assert euclidean_distance(qr(0, 3, 4), qr(0, 0, 0)) == pytest.approx(5.0)
    a = qr(200, 0, 0, 0, 0, 0, 0, 0)
    b = qr(0, 200, 0, 0, 0, 0, 0, 0)
    assert euclidean_distance(a, b) == pytest.approx(200.0 * np.sqrt(2.0))


def test_euclidean_metric_axioms():
    rng = np.random.default_rng(17)
    for _ in range(500):
        m = int(rng.integers(1, 12))
        a = qr(*rng.integers(0, 200, size=m))
        b = qr(*rng.integers(0, 200, size=m))
        c = qr(*rng.integers(0, 200, size=m))
        assert euclidean_distance(a, a) == 0.0
        dab = euclidean_distance(a, b)
        assert dab == euclidean_distance(b, a)
        assert dab >= 0.0
        assert euclidean_distance(a, c) <= dab + euclidean_distance(b, c) + 1e-12


def test_uniqueness_worked_examples():
    assert uniqueness([qr(1, 2, 3), qr(1, 2, 3)]) == pytest.approx(0.0)
    full = [qr(0, 0, 0, 0, 0, 0, 0, 0), qr(2, 2, 2, 2, 2, 2, 2, 2)]
    assert uniqueness(full, looseness=2) == pytest.approx(100.0)
    trio = [
        qr(0, 0, 0, 0, 0, 0, 0, 0),
        qr(2, 2, 2, 2, 2, 2, 2, 2),
        qr(2, 2, 2, 2, 1, 1, 1, 1),
    ]
    # pairwise loose distances 8, 4, 0 over 8 modes average to 50 percent
    assert uniqueness(trio, looseness=2) == pytest.approx(50.0)


def test_uniqueness_needs_two_responses():
    with pytest.raises(ValueError):
        uniqueness([qr(1, 2)])


def test_uniqueness_bounds():
    rng = np.random.default_rng(19)
    for _ in range(100):
        group = [qr(*rng.integers(0, 6, size=8)) for _ in range(int(rng.integers(2, 6)))]
        u = uniqueness(group, looseness=1)
        assert 0.0 <= u <= 100.0


def test_distance_stats_worked_example():
    stats = distance_stats([11.0, 58.0, 105.0])
    assert stats.count == 3
    assert stats.min == 11.0
    assert stats.median == 58.0
    assert stats.max == 105.0
    assert stats.mean == pytest.approx(58.0)
    assert stats.std_dev == pytest.approx(statistics.pstdev([11.0, 58.0, 105.0]))


def test_distance_stats_population_std():
    rng = np.random.default_rng(23)
    for _ in range(50):
        data = rng.uniform(0, 300, size=int(rng.integers(1, 40)))
        stats = distance_stats(data)
        assert stats.std_dev == pytest.approx(float(np.std(data)))  # ddof = 0


def test_distance_stats_constant_sample():
    stats = distance_stats([7.0, 7.0, 7.0, 7.0])
    assert stats.std_dev == 0.0
    assert stats.min == stats.max == stats.mean == stats.median == 7.0
    assert sum(c for _, _, c in stats.histogram) == 4


def test_distance_stats_histogram_alignment():
    stats = distance_stats([2.5, 3.1, 9.9], bin_width=1.0)
    lows = [lo for lo, _, _ in stats.histogram]
    assert lows[0] == 2.0
    assert stats.histogram[-1][1] == 10.0
    assert sum(c for _, _, c in stats.histogram) == 3
    for lo, hi, _ in stats.histogram:
        assert hi == pytest.approx(lo + 1.0)


def test_distance_stats_histogram_counts_everything():
    rng = np.random.default_rng(29)
    for _ in range(100):
        data = rng.uniform(-5, 305, size=int(rng.integers(1, 200)))
        w = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
        stats = distance_stats(data, bin_width=w)
        assert sum(c for _, _, c in stats.histogram) == stats.count == data.size


def test_distance_stats_rejects_bad_input():
    with pytest.raises(ValueError):
        distance_stats([])
    with pytest.raises(ValueError):
        distance_stats([1.0], bin_width=0.0)


@pytest.mark.parametrize("values, bin_width, message", [
    ([1.0, np.inf], 1.0, "values must be finite"),
    ([-np.inf, 1.0], 1.0, "values must be finite"),
    ([1.0, np.nan], 1.0, "values must be finite"),
    ([1.0], np.inf, "bin_width must be finite and > 0, got inf"),
    ([1.0], np.nan, "bin_width must be finite and > 0, got nan"),
    ([1.0], 0.0, "bin_width must be finite and > 0, got 0.0"),
    ([1.0], -2.0, "bin_width must be finite and > 0, got -2.0"),
])
def test_distance_stats_rejects_non_finite_input(values, bin_width, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        distance_stats(values, bin_width)


def test_looseness_sweep_counts():
    rep = [(qr(5, 5, 5), qr(5, 6, 5)), (qr(5, 5, 5), qr(5, 5, 5))]
    rand = [(qr(0, 0, 0), qr(9, 9, 9)), (qr(0, 0, 0), qr(2, 2, 0))]
    sweep = looseness_sweep(rep, rand, looseness_max=3)
    assert isinstance(sweep, LoosenessSweep)
    assert sweep.looseness_values == (1, 2, 3)
    assert [s.mean for s in sweep.repeated] == [0.5, 0.0, 0.0]
    assert [s.mean for s in sweep.random] == [2.5, 2.5, 1.5]
    # counting at a larger threshold can only drop coordinates
    for series in (sweep.repeated, sweep.random):
        means = [s.mean for s in series]
        assert all(a >= b for a, b in zip(means, means[1:]))


def test_looseness_sweep_rejects_empty():
    pair = [(qr(1, 2), qr(1, 2))]
    with pytest.raises(ValueError):
        looseness_sweep([], pair)
    with pytest.raises(ValueError):
        looseness_sweep(pair, [])
    with pytest.raises(ValueError):
        looseness_sweep(pair, pair, looseness_max=0)


def test_quantize_rejects_non_finite_input():
    for bad in ([0.5, np.nan], [np.inf, 0.5], [-np.inf, 1.0]):
        with pytest.raises(ValueError, match="intensities must be finite"):
            quantize(bad)


def bin_populations(min_size=2, max_size=8):
    """Lists of equal-length bin vectors, as tuples of ints."""
    return st.integers(1, 8).flatmap(
        lambda m: st.lists(
            st.tuples(*[st.integers(0, 12)] * m), min_size=min_size, max_size=max_size
        )
    )


def definitional_lhd(a, b, looseness):
    return sum(abs(x - y) >= looseness for x, y in zip(a, b))


@settings(max_examples=60, deadline=None)
@given(population=bin_populations(), looseness=st.integers(1, 6))
def test_uniqueness_equals_pairwise_mean(population, looseness):
    n, m = len(population), len(population[0])
    total = sum(
        definitional_lhd(population[i], population[j], looseness) / m
        for i in range(n)
        for j in range(i + 1, n)
    )
    expected = 2.0 / (n * (n - 1)) * total * 100.0
    responses = [QuantizedResponse(bins) for bins in population]
    assert uniqueness(responses, looseness) == pytest.approx(expected)


@settings(max_examples=60, deadline=None)
@given(population=bin_populations(min_size=1),
       levels=st.lists(st.integers(1, 14), max_size=5))
def test_pair_difference_counts_match_pairwise_distances(population, levels):
    responses = [QuantizedResponse(bins) for bins in population]
    n = len(responses)
    pairs = [(a, b) for a in responses for b in responses]  # every ordered pair
    diff, counts = _pair_differences(*_stacked_bins(*zip(*pairs)), levels)
    assert diff.shape == (n * n, len(population[0]))
    assert counts.shape == (n * n, len(levels))
    lengths = _row_l2(diff)
    for row, (a, b) in enumerate(pairs):
        assert diff[row].tolist() == [abs(x - y) for x, y in zip(a.bins, b.bins)]
        assert counts[row].tolist() == [loose_hamming_distance(a, b, L) for L in levels]
        assert counts[row].tolist() == [definitional_lhd(a.bins, b.bins, L) for L in levels]
        assert lengths[row] == euclidean_distance(a, b)


def pair_mismatch_message(a, b):
    """What comparing a with b raises when exactly one of them is the odd one."""
    if len(a) != len(b):
        return f"response lengths differ: {len(a)} vs {len(b)}"
    return (f"responses quantized with different bin fractions: "
            f"{a.bin_fraction} vs {b.bin_fraction}")


@settings(max_examples=60, deadline=None)
@given(population=bin_populations(), data=st.data())
def test_mismatched_responses_raise(population, data):
    """One mismatched response, at any position on either side of
    looseness_sweep or calibrate_policy, is reported as its pair is."""
    responses = [QuantizedResponse(bins) for bins in population]
    k = data.draw(st.integers(0, len(responses) - 1))
    if data.draw(st.booleans()):
        odd, message = QuantizedResponse(population[k] + (0,)), "lengths differ"
    else:
        odd, message = QuantizedResponse(population[k], bin_fraction=0.01), "bin fractions"
    with pytest.raises(ValueError, match=message):
        uniqueness(responses[:k] + [odd] + responses[k + 1:])

    def raises(pair, call):
        message = re.escape(pair_mismatch_message(*pair))
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    good = [(r, r) for r in responses]
    for pair in ((odd, responses[k]), (responses[k], odd)):
        bad = good[:k] + [pair] + good[k + 1:]
        raises(pair, lambda: looseness_sweep(bad, good))
        raises(pair, lambda: looseness_sweep(good, bad))

    db = CrpDatabase("d" * 64, records=[
        CrpRecord(cid, Challenge(levels=(cid,)), reference)
        for cid, reference in enumerate(responses)
    ])
    samples = list(enumerate(responses))
    bad = samples[:k] + [(k, odd)] + samples[k + 1:]
    raises((responses[k], odd), lambda: calibrate_policy(db, bad, samples))
    raises((responses[k], odd), lambda: calibrate_policy(db, samples, bad))


def test_looseness_sweep_needs_one_length_per_population():
    short, long = QuantizedResponse((1, 2)), QuantizedResponse((1, 2, 3))
    with pytest.raises(ValueError, match="response lengths differ: 2 vs 3"):
        looseness_sweep([(short, short), (long, long)], [(short, short)])


def test_uniqueness_memory_grows_with_n_not_pairs():
    rng = np.random.default_rng(3)
    responses = [QuantizedResponse(row) for row in rng.integers(0, 12, (1500, 66)).tolist()]
    tracemalloc.start()
    try:
        value = uniqueness(responses, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 1500 x 66 int64 bins are 0.8 MB; the 1.1 million pairs would need 0.6 GB
    assert peak < 8e6
    assert 0.0 < value < 100.0


def reference_quantize(row, bin_fraction):
    """The one-vector formula, as a loop oracle the row kernel must match bit for bit."""
    row = np.asarray(row, dtype=float)
    total = float(row.sum())
    bins = np.floor(row / (bin_fraction * total) + _FLOOR_GUARD).astype(int)
    return tuple(int(b) for b in bins)


BIN_FRACTIONS = (0.005, 0.01, 0.02, 0.125, 0.5, 1.0)


def intensity_blocks():
    """(block, bin_fraction): N in [1, 70] rows of 1-130 modes, in any layout.

    Up to 130 modes crosses numpy's 8- and 128-element pairwise-sum blocks.
    Row kinds: edge rows hold whole numbers of bins (1 / bin_fraction of
    them, times a scale), so every ratio sits on a bin edge up to rounding;
    guard rows put their first mode k - _FLOOR_GUARD bins high, where the
    last bit of the row total decides the bin, so a total summed in another
    order shows; dark rows have zeros among random powers.  Layouts: C
    order, Fortran order, every other column of a wider block, and the
    transpose of a (modes, N) block.
    """
    return st.tuples(
        st.integers(1, 70), st.integers(1, 130), st.integers(0, 2**32 - 1),
        st.sampled_from(BIN_FRACTIONS), st.sampled_from(["edges", "guard", "dark", "mixed"]),
        st.sampled_from(["c", "fortran", "strided", "transposed"]),
    ).map(lambda args: _build_block(*args))


def _build_block(n, modes, seed, bin_fraction, rows, layout):
    rng = np.random.default_rng(seed)
    scale = rng.uniform(1e-3, 1e3, size=(n, 1))
    edges = rng.multinomial(round(1 / bin_fraction), np.full(modes, 1 / modes), size=n) * scale
    random = rng.uniform(0.1, 1.0, size=(n, modes)) * scale
    guard = random.copy()
    if modes > 1:
        whole = rng.integers(1, round(1 / bin_fraction) + 1, size=n)
        share = (whole - _FLOOR_GUARD) * bin_fraction
        guard[:, 0] = share / (1.0 - share) * guard[:, 1:].sum(axis=1)
    dark = np.where(rng.uniform(size=(n, modes)) < 0.5, 0.0, random)
    dark[:, rng.integers(modes)] += scale[:, 0]  # no row all dark
    kinds = ["edges", "guard", "dark"]
    kind = rng.integers(3, size=(n, 1)) if rows == "mixed" else kinds.index(rows)
    block = np.choose(kind, [edges, guard, dark])
    if layout == "fortran":
        block = np.asfortranarray(block)
    elif layout == "strided":
        wide = np.empty((n, 2 * modes))
        wide[:, ::2] = block
        block = wide[:, ::2]
    elif layout == "transposed":
        block = np.ascontiguousarray(block.T).T
    return block, bin_fraction


@settings(max_examples=150, deadline=None)
@given(case=intensity_blocks())
def test_quantize_rows_equals_quantize_per_row(case):
    block, bin_fraction = case
    bins = _quantize_rows(block, bin_fraction)
    assert bins.shape == block.shape
    rows = [tuple(row) for row in bins.tolist()]
    assert rows == [quantize(row, bin_fraction).bins for row in block]
    assert rows == [reference_quantize(row, bin_fraction) for row in block]
    # _responses builds them without QuantizedResponse's checks
    for response in _responses(bins, bin_fraction):
        public = QuantizedResponse(bins=list(response.bins), bin_fraction=bin_fraction)
        assert response == public and hash(response) == hash(public)
        assert type(response.bins) is tuple
        assert all(type(b) is int for b in response.bins)


# fault: (modes set, value, the exception and message of the one-vector path)
SINGLE_FAULTS = {
    "nan": (1, np.nan, ValueError, "intensities must be finite"),
    "inf": (0, np.inf, ValueError, "intensities must be finite"),
    "negative": (2, -1e-12, ValueError, "intensities must be non-negative"),
    "all-dark": (slice(None), 0.0, DegenerateResponseError,
                 "all-dark response: total power is zero"),
}


@pytest.mark.parametrize("fault", sorted(SINGLE_FAULTS))
@pytest.mark.parametrize("where", [0, 4, 9])
def test_quantize_rows_single_fault_raises_as_one_row(fault, where):
    modes, value, error, message = SINGLE_FAULTS[fault]
    block = np.random.default_rng(where).uniform(0.1, 1.0, size=(10, 8))
    block[where, modes] = value
    for quantize_block in (lambda: quantize(block[where]),
                           lambda: _quantize_rows(block, DEFAULT_BIN_FRACTION)):
        with pytest.raises(ValueError) as raised:
            quantize_block()
        assert type(raised.value) is error
        assert str(raised.value) == message


@pytest.mark.parametrize("bin_fraction", [0.0, -0.1, 1.5, np.nan])
def test_quantize_rows_bad_bin_fraction_raises_as_one_row(bin_fraction):
    block = np.random.default_rng(1).uniform(0.1, 1.0, size=(10, 8))
    with pytest.raises(ValueError) as one_row:
        quantize(block[0], bin_fraction)
    with pytest.raises(ValueError) as whole:
        _quantize_rows(block, bin_fraction)
    assert str(whole.value) == str(one_row.value) == (
        f"bin_fraction must lie in (0, 1], got {bin_fraction}"
    )


def test_quantize_rows_reports_the_first_failing_check_over_the_block():
    block = np.random.default_rng(2).uniform(0.1, 1.0, size=(6, 8))
    block[0] = 0.0         # all dark: the last check
    block[2, 3] = -1.0     # negative: the third
    block[5, 1] = np.inf   # not finite: the first
    with pytest.raises(ValueError, match="intensities must be finite"):
        _quantize_rows(block, 0.0)
    with pytest.raises(ValueError, match="bin_fraction must lie"):
        _quantize_rows(block[:5], 0.0)
    with pytest.raises(ValueError, match="intensities must be non-negative"):
        _quantize_rows(block[:5], DEFAULT_BIN_FRACTION)
    with pytest.raises(DegenerateResponseError, match="all-dark response"):
        _quantize_rows(block[:2], DEFAULT_BIN_FRACTION)


def test_quantize_rows_memory_is_linear_in_the_block():
    block = np.random.default_rng(4).uniform(0.0, 1.0, size=(2000, 22))
    tracemalloc.start()
    try:
        bins = _quantize_rows(block, DEFAULT_BIN_FRACTION)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the block is 0.35 MB: a few block-sized temporaries; one
    # (N, modes, modes) temporary alone would be 7.7 MB
    assert peak < 3e6
    assert len(bins) == 2000

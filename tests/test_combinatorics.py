"""Unit tests for exact CRP counting."""

import time

import pytest

from mzipuf.combinatorics import (
    PYRAMID_SIZES,
    TreeCountTable,
    catalan,
    chip_crp_total,
    crp_table,
    distinguishable_crp_count,
    naive_challenge_bound,
    to_scientific,
    tree_counts_by_height,
)


def gf_height_bounded_counts(max_height, max_nodes):
    """Oracle: coefficients of B_h(x) = 1 + x * B_{h-1}(x)^2, truncated.

    B_h[n] counts binary trees with n nodes and height <= h, with height
    measured in nodes (empty tree 0, single node 1).  Independent of the
    production recurrence, which splits on the taller subtree instead.
    """
    width = max_nodes + 1
    rows = [[1] + [0] * max_nodes]
    for _ in range(max_height):
        prev = rows[-1]
        square = [0] * width
        for i, a in enumerate(prev):
            if a == 0:
                continue
            for j in range(width - i):
                if prev[j]:
                    square[i + j] += a * prev[j]
        nxt = [0] * width
        nxt[0] = 1
        for n in range(1, width):
            nxt[n] = square[n - 1]
        rows.append(nxt)
    return rows


def test_recurrence_matches_generating_function_oracle():
    max_h, max_n = 8, 20
    table = tree_counts_by_height(max_h, max_n)
    bounded = gf_height_bounded_counts(max_h, max_n)
    for h in range(max_h + 1):
        for n in range(max_n + 1):
            exact = bounded[h][n] - (bounded[h - 1][n] if h else 0)
            assert table.count(h, n) == exact, (h, n)


def test_height_marginal_recovers_catalan():
    max_n = 20
    table = tree_counts_by_height(max_n, max_n)
    for n in range(max_n + 1):
        assert sum(table.count(h, n) for h in range(max_n + 1)) == catalan(n)


def test_counts_vanish_outside_feasible_band():
    table = tree_counts_by_height(10, 20)
    assert table.count(0, 0) == 1
    for h in range(1, 11):
        for n in range(21):
            feasible = h <= n <= 2**h - 1
            assert (table.count(h, n) > 0) == feasible, (h, n)


def test_small_tree_counts():
    table = tree_counts_by_height(4, 10)
    assert table.count(1, 1) == 1
    assert table.count(2, 2) == 2
    assert table.count(2, 3) == 1
    assert table.count(3, 3) == 4
    assert table.count(4, 10) == 116


def test_table_bounds_checked():
    table = tree_counts_by_height(4, 10)
    for h, n in ((5, 3), (-1, 3), (2, 11), (2, -1)):
        with pytest.raises(ValueError):
            table.count(h, n)
    with pytest.raises(ValueError):
        tree_counts_by_height(-1, 5)


def test_catalan_values():
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert catalan(10) == 16796
    with pytest.raises(ValueError):
        catalan(-1)


def test_pyramid_sizes():
    assert PYRAMID_SIZES == ((4, 10), (5, 15), (6, 21), (7, 28), (8, 36),
                             (9, 45), (10, 55), (11, 66))


def test_naive_bound():
    assert naive_challenge_bound(0) == 1
    assert naive_challenge_bound(1) == 1024
    assert naive_challenge_bound(10) == 2**100
    assert naive_challenge_bound(3, bits_per_mzi=1) == 8
    with pytest.raises(ValueError):
        naive_challenge_bound(-1)
    with pytest.raises(ValueError):
        naive_challenge_bound(3, bits_per_mzi=0)


def test_naive_bound_headline_renders():
    assert to_scientific(naive_challenge_bound(10)) == "1.27e30"
    assert to_scientific(naive_challenge_bound(66)) == "4.78e198"


def test_catalan_bound_headline_render():
    assert to_scientific(catalan(66) * 2**10) == "5.77e39"


def test_distinguishable_count_smallest_pyramid():
    assert distinguishable_crp_count(4, 10) == 116 * 1024 == 118784
    assert to_scientific(distinguishable_crp_count(4, 10)) == "1.19e5"


@pytest.mark.parametrize("args, message", [
    ((-1, 10), "columns must be >= 0, got -1"),
    ((4, 10, 0), "bits_per_mzi must be >= 1, got 0"),
    ((4, -1), "mzi_count must be >= 0, got -1"),
])
def test_distinguishable_count_rejects_bad_arguments(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        distinguishable_crp_count(*args)


def test_distinguishable_count_accepts_prebuilt_table():
    table = tree_counts_by_height(11, 66)
    for columns, mzis in PYRAMID_SIZES:
        assert distinguishable_crp_count(columns, mzis, table=table) == \
            distinguishable_crp_count(columns, mzis)


def test_largest_pyramid_exact_count_frozen():
    # frozen from this recurrence after cross-validation against the
    # generating-function oracle at small sizes; guards regressions
    assert tree_counts_by_height(11, 66).count(11, 66) == \
        668517687266037049137147103962880


def test_chip_total():
    assert chip_crp_total(2, 4, 10) == 237568
    assert to_scientific(chip_crp_total(3, 11, 66)) == "2.05e36"
    with pytest.raises(ValueError):
        chip_crp_total(0, 4, 10)


def test_crp_table_rows_and_renders():
    rows = crp_table()
    assert [(c, m) for c, m, _, _ in rows] == list(PYRAMID_SIZES)
    assert [r[3] for r in rows] == [
        "1.19e5", "2.40e7", "2.76e10", "1.61e14",
        "4.40e18", "5.43e23", "2.94e29", "6.85e35",
    ]
    for _, _, exact, rendered in rows:
        assert isinstance(exact, int)
        assert to_scientific(exact) == rendered


def test_crp_table_is_fast():
    start = time.perf_counter()
    crp_table()
    assert time.perf_counter() - start < 1.0


def test_to_scientific_basics():
    assert to_scientific(0) == "0.00e0"
    assert to_scientific(5) == "5.00e0"
    assert to_scientific(1000) == "1.00e3"
    assert to_scientific(999) == "9.99e2"
    assert to_scientific(1234) == "1.23e3"
    assert to_scientific(-12345) == "-1.23e4"
    assert to_scientific(118784) == "1.19e5"


def test_to_scientific_rounds_half_away_with_carry():
    assert to_scientific(1235) == "1.24e3"
    assert to_scientific(9995) == "1.00e4"
    assert to_scientific(99951) == "1.00e5"
    assert to_scientific(-1235) == "-1.24e3"
    assert to_scientific(95, sig_figs=1) == "1e2"
    assert to_scientific(94, sig_figs=1) == "9e1"
    with pytest.raises(ValueError):
        to_scientific(10, sig_figs=0)


def integer_scientific_oracle(value, sig_figs=3):
    # independent arithmetic derivation: floor(v / 10**k + 1/2) via integers
    sign = "-" if value < 0 else ""
    v = abs(value)
    digits = len(str(v))
    exponent = digits - 1
    if digits <= sig_figs:
        sig = v * 10 ** (sig_figs - digits)
    else:
        k = digits - sig_figs
        sig = (2 * v + 10**k) // (2 * 10**k)
        if sig == 10**sig_figs:
            sig //= 10
            exponent += 1
    text = str(sig).rjust(sig_figs, "0")
    if sig_figs == 1:
        return f"{sign}{text}e{exponent}"
    return f"{sign}{text[0]}.{text[1:]}e{exponent}"


def test_to_scientific_matches_arithmetic_oracle():
    import random

    rng = random.Random(2024)
    for _ in range(10000):
        bits = rng.randrange(1, 200)
        v = rng.getrandbits(bits)
        if rng.random() < 0.5:
            v = -v
        for sf in (1, 2, 3, 5):
            assert to_scientific(v, sf) == integer_scientific_oracle(v, sf), (v, sf)

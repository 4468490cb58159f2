"""Exact counting of distinguishable challenge-response pairs.

Responses of a triangular mesh depend on the programmed phases only through
the binary-tree skeleton of interferometer arms the light actually reaches,
so the number of distinguishable challenges is a tree-counting problem:
binary trees with a prescribed number of nodes (MZIs that can influence the
output) and exact root-to-leaf height (mesh columns), times the number of
programmable phase levels per MZI.

Everything here is exact integer arithmetic; scientific notation is a
rendering of the exact value, never a substitute for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._codec import integer

#: (columns, mzi_count) rows of the standard pyramid family.
PYRAMID_SIZES = tuple((c, c * (c + 1) // 2) for c in range(4, 12))

DEFAULT_BITS_PER_MZI = 10


def catalan(n: int) -> int:
    """n-th Catalan number, the count of binary trees with n nodes."""
    n = integer(n, "n", 0)
    return math.comb(2 * n, n) // (n + 1)


def naive_challenge_bound(mzi_count: int, bits_per_mzi: int = DEFAULT_BITS_PER_MZI) -> int:
    """Raw challenge-space size: every MZI set independently to any level."""
    mzi_count = integer(mzi_count, "mzi_count", 0)
    return (2 ** integer(bits_per_mzi, "bits_per_mzi", 1)) ** mzi_count


@dataclass(frozen=True)
class TreeCountTable:
    """Table of t(height, nodes): binary trees with exact height and node count.

    Height is counted in nodes along the longest root-to-leaf path, so the
    empty tree has height 0 and a single node height 1.  t(h, n) is nonzero
    only for h <= n <= 2**h - 1.
    """

    max_height: int
    max_nodes: int
    _counts: tuple[tuple[int, ...], ...] = field(repr=False)

    def count(self, height: int, nodes: int) -> int:
        height = integer(height, "height", 0, self.max_height)
        return self._counts[height][integer(nodes, "nodes", 0, self.max_nodes)]


def tree_counts_by_height(max_height: int, max_nodes: int) -> TreeCountTable:
    """Build t(height, nodes) for all heights and node counts up to the bounds.

    Recurrence on the root's two subtrees: a tree of exact height h is a root
    whose taller subtree has exact height h - 1, with the other subtree either
    strictly shorter (two orderings) or of the same height (one):

        t(h, n) = sum_a t(h-1, a) * (2 * cum(h-2, n-1-a) + t(h-1, n-1-a))

    where cum(k, m) = sum_{h' <= k} t(h', m).  Exact integers throughout.
    """
    max_height = integer(max_height, "max_height", 0)
    max_nodes = integer(max_nodes, "max_nodes", 0)
    width = max_nodes + 1
    counts = [[0] * width for _ in range(max_height + 1)]
    counts[0][0] = 1
    # cum[h][n] = number of trees with n nodes and height <= h
    cum = [counts[0][:]]
    for h in range(1, max_height + 1):
        taller = counts[h - 1]
        shorter = cum[h - 2] if h >= 2 else [0] * width
        # a tree of height h has between h and 2**h - 1 nodes
        a_cap = 2 ** (h - 1) - 1
        for n in range(h, min(max_nodes, 2**h - 1) + 1):
            rest = n - 1
            total = 0
            for a in range(h - 1, min(rest, a_cap) + 1):
                ta = taller[a]
                if ta:
                    b = rest - a
                    total += ta * (2 * shorter[b] + taller[b])
            counts[h][n] = total
        cum.append([c + t for c, t in zip(cum[-1], counts[h])])
    return TreeCountTable(
        max_height=max_height,
        max_nodes=max_nodes,
        _counts=tuple(tuple(row) for row in counts),
    )


def distinguishable_crp_count(
    columns: int,
    mzi_count: int,
    bits_per_mzi: int = DEFAULT_BITS_PER_MZI,
    table: TreeCountTable | None = None,
) -> int:
    """Distinguishable challenge count of a mesh with the given geometry.

    Counts light-path skeletons whose longest branch spans all columns
    (shorter skeletons cannot occur in a pyramid fed from its apex) and
    multiplies by the 2**bits_per_mzi phase levels of the one free bulk
    parameter per skeleton.
    """
    columns, mzi_count = integer(columns, "columns", 0), integer(mzi_count, "mzi_count", 0)
    bits_per_mzi = integer(bits_per_mzi, "bits_per_mzi", 1)
    if table is None:
        table = tree_counts_by_height(columns, mzi_count)
    return table.count(columns, mzi_count) * (2**bits_per_mzi)


def chip_crp_total(
    subset_count: int,
    columns: int,
    mzi_count: int,
    bits_per_mzi: int = DEFAULT_BITS_PER_MZI,
) -> int:
    """Total CRP count of a chip hosting several same-shaped disjoint meshes."""
    subset_count = integer(subset_count, "subset_count", 1)
    return subset_count * distinguishable_crp_count(columns, mzi_count, bits_per_mzi)


def to_scientific(value: int, sig_figs: int = 3) -> str:
    """Render an exact integer as scientific notation, e.g. 6.85e35.

    Rounds half away from zero on the digit after the kept significand,
    using only integer arithmetic so arbitrarily large values stay exact.
    """
    value, sig_figs = integer(value, "value"), integer(sig_figs, "sig_figs", 1)
    sign = "-" if value < 0 else ""
    digits = str(abs(value))
    exponent = len(digits) - 1
    if len(digits) <= sig_figs:
        significand = int(digits.ljust(sig_figs, "0"))
    else:
        significand = int(digits[:sig_figs])
        if digits[sig_figs] >= "5":
            significand += 1
            if significand == 10**sig_figs:
                significand //= 10
                exponent += 1
    text = str(significand).ljust(sig_figs, "0")
    if sig_figs == 1:
        return f"{sign}{text}e{exponent}"
    return f"{sign}{text[0]}.{text[1:]}e{exponent}"


def crp_table(bits_per_mzi: int = DEFAULT_BITS_PER_MZI):
    """Rows (columns, mzi_count, exact_count, rendered) for the pyramid family."""
    largest_c, largest_m = PYRAMID_SIZES[-1]
    table = tree_counts_by_height(largest_c, largest_m)
    rows = []
    for columns, mzis in PYRAMID_SIZES:
        exact = distinguishable_crp_count(columns, mzis, bits_per_mzi, table=table)
        rows.append((columns, mzis, exact, to_scientific(exact)))
    return rows

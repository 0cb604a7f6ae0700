"""Partition pairs for the tests.

`enumerate_pairs` lists the pairs of Young diagrams an instanton
coefficient of degree d sums over.  The package's kernels walk the pairs
through `partitions.pair_sum` and do not call it; the tests sum over it to
check the kernels and to count the pairs.
"""

from __future__ import annotations

from nektau.partitions import partition_table


def enumerate_pairs(d: int, parts=None):
    """All partition pairs with total size d, ordered by (|first|, first, second).

    parts: a partition_table of order >= d, made here if not given.
    """
    if parts is None:
        parts = partition_table(d)
    for d1 in range(d + 1):
        for lam1 in parts[d1]:
            for lam2 in parts[d - d1]:
                yield (lam1, lam2)

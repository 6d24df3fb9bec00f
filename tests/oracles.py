"""Slow reference implementations that the tests compare fast code against."""

from zfforge.forcing import _FAST_CLOSE
from zfforge.graphs import Graph


def subsets_of_size(n: int, k: int):
    # Gosper's hack: all n-bit masks of popcount k in increasing numeric order.
    if k == 0:
        yield 0
        return
    mask = (1 << k) - 1
    top = 1 << n
    while mask < top:
        yield mask
        c = mask & -mask
        r = mask + c
        mask = r | ((mask ^ r) >> 2) // c


def gosper_minimum(g: Graph, rule) -> int:
    """Brute-force minimum forcing-set size of the whole graph: every subset
    by increasing size until one closes."""
    close = _FAST_CLOSE[rule]
    for k in range(g.n + 1):
        for mask in subsets_of_size(g.n, k):
            if close(g.adj, g.n, g.full_mask, mask) == g.full_mask:
                return k
    raise AssertionError("unreachable: the full vertex set always closes")

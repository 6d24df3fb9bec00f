"""Seeded random graph generators for property sweeps and claim checks."""

from __future__ import annotations

import random

from .graphs import Graph, complement, from_edges


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float = 0.3) -> Graph:
    # random attachment tree guarantees connectivity, then extra edges
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    present = set(edges)
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in present and rng.random() < p:
                edges.append((i, j))
    return from_edges(n, edges)


def random_regular_graph(rng: random.Random, n: int, k: int) -> Graph:
    """Random k-regular graph: circulant seed randomized by double edge swaps.

    Swaps preserve degrees exactly, so this always succeeds, unlike stub
    pairing, whose rejection rate explodes for dense degrees.  Dense graphs
    admit few swaps (K_n none), so for 2k > n - 1 the result is the
    complement of a random (n - 1 - k)-regular graph.  The empty graph, and
    so K_n, is returned without drawing from ``rng``.
    """
    if not 0 <= k < n or (n * k) % 2:
        raise ValueError(f"no {k}-regular graph on {n} vertices")
    if 2 * k > n - 1:
        return complement(random_regular_graph(rng, n, n - 1 - k))
    offsets = list(range(1, k // 2 + 1))
    if k % 2:
        offsets.append(n // 2)
    edges = sorted({(min(i, (i + s) % n), max(i, (i + s) % n))
                    for s in offsets for i in range(n)})
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    wanted = 5 * len(edges)
    done = 0
    attempts = 0
    while done < wanted and attempts < 100 * wanted:
        attempts += 1
        i, j = rng.randrange(len(edges)), rng.randrange(len(edges))
        if i == j:
            continue
        a, b = edges[i]
        c, d = edges[j]
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4 or c in adj[a] or d in adj[b]:
            continue
        adj[a].discard(b), adj[b].discard(a), adj[c].discard(d), adj[d].discard(c)
        adj[a].add(c), adj[c].add(a), adj[b].add(d), adj[d].add(b)
        edges[i] = (min(a, c), max(a, c))
        edges[j] = (min(b, d), max(b, d))
        done += 1
    return from_edges(n, edges)

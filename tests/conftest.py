"""Shared independent oracles and generators for the test suite.

These deliberately avoid the library's bitmask fast paths so that the values
they produce check the implementation through a second route.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Iterable, Iterator

from huntrab.graphs import Graph, graph_from_edges


def adjacency_sets(g: Graph) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(g.n)}
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def brute_min_union(g: Graph, k: int, side_vertices: list[int], closed: bool = False) -> int:
    """Reference minimum union of k neighborhoods using plain sets."""
    adj = adjacency_sets(g)
    best = None
    for combo in itertools.combinations(side_vertices, k):
        union: set[int] = set()
        for v in combo:
            union |= adj[v]
            if closed:
                union.add(v)
        if best is None or len(union) < best:
            best = len(union)
    assert best is not None
    return best


def iter_arrow(n: int, i: int) -> Iterator[int]:
    """Reference arrow sequence (n, i), streamed entry by entry from the
    recursion (n, i) = (n, i-1) . (n-1, i) with an explicit stack."""
    stack = [(n, i)]
    while stack:
        a, b = stack.pop()
        if b == 0:
            yield a
        elif a == 0:
            yield 0
        else:
            stack.append((a - 1, b))
            stack.append((a, b - 1))


def arrow_seq(n: int, i: int) -> tuple[int, ...]:
    """Reference arrow sequence (n, i), materialised."""
    return tuple(iter_arrow(n, i))


def layer_diff_seq(n: int, i: int) -> tuple[int, ...]:
    """Reference difference subsequence of weight layer i of Q^n: the arrow
    sequence (n-i, i), except that layer 1's first vertex also covers the
    empty set below it, so its leading entry is n instead of n-1."""
    values = arrow_seq(n - i, i)
    return (n,) + values[1:] if i == 1 else values


def arrow_len_sum(n: int, i: int) -> tuple[int, int]:
    """Reference (length, sum) of the arrow sequence (n, i): the defining
    recursion applied to (length, sum) pairs instead of sequences, over the
    table of all (a, b) with a <= n and b <= i."""
    table = {(a, 0): (1, a) for a in range(n + 1)}
    table.update({(0, b): (1, 0) for b in range(1, i + 1)})
    for a in range(1, n + 1):
        for b in range(1, i + 1):
            (len1, sum1), (len2, sum2) = table[a, b - 1], table[a - 1, b]
            table[a, b] = (len1 + len2, sum1 + sum2)
    return table[n, i]


def weightlex_coverage(n: int, closed: bool = False, parity: int | None = None) -> Iterator[int]:
    """Reference neighborhood-union profile of Q^n: covered-vertex counts
    after adding each open (or closed) neighborhood along the weightlex
    order, restricted to one side when parity is 0 or 1."""
    covered = bytearray(1 << n)
    count = 0
    for w in range(n + 1):
        if parity is not None and w % 2 != parity:
            continue
        for combo in itertools.combinations(range(n), w):
            v = 0
            for b in combo:
                v |= 1 << b
            if closed and not covered[v]:
                covered[v] = 1
                count += 1
            for b in range(n):
                u = v ^ (1 << b)
                if not covered[u]:
                    covered[u] = 1
                    count += 1
            yield count


def max_prefix_surplus(values: Iterable[int]) -> tuple[int, int]:
    """Last position (1-based) and value of the maximum of prefix sum minus
    prefix length, scanned entry by entry."""
    best_pos = best_val = None
    total = 0
    for pos, entry in enumerate(values, start=1):
        total += entry
        if best_val is None or total - pos >= best_val:
            best_pos, best_val = pos, total - pos
    return best_pos, best_val


def brute_degeneracy(g: Graph) -> int:
    """Reference degeneracy: max over vertex subsets of the induced min degree."""
    adj = adjacency_sets(g)
    best = 0
    for r in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), r):
            sub = set(combo)
            best = max(best, min(len(adj[v] & sub) for v in sub))
    return best


def naive_can_clear(g: Graph, k: int, variant: str = "standard",
                    start: int | None = None, cap: int = 200_000) -> bool:
    """Reference reachability search with plain exact-match visited set."""
    adj = adjacency_sets(g)
    deaf = variant == "deaf"

    def succ(state: frozenset[int], shot: tuple[int, ...]) -> frozenset[int]:
        rest = state.difference(shot)
        out: set[int] = set()
        for v in rest:
            out |= adj[v]
            if deaf:
                out.add(v)
        return frozenset(out)

    init = frozenset(range(g.n)) if start is None else frozenset(start_bits(start))
    if not init:
        return True
    seen = {init}
    queue = deque([init])
    while queue:
        state = queue.popleft()
        if len(state) <= k:
            return True
        for shot in itertools.combinations(sorted(state), k):
            nxt = succ(state, shot)
            if not nxt:
                return True
            if nxt not in seen:
                seen.add(nxt)
                if len(seen) > cap:
                    raise RuntimeError("reference search grew past its cap")
                queue.append(nxt)
    return False


def naive_successors(adj: tuple[int, ...], state: int, k: int) -> list[tuple[int, int]]:
    """Reference successors of a search state: every kept set of |state| - k
    vertices in combinations order, each distinct union listed once with the
    shot that first reached it."""
    out: list[tuple[int, int]] = []
    reached = set()
    vs = start_bits(state)
    for kept in itertools.combinations(vs, len(vs) - k):
        union = 0
        for v in kept:
            union |= adj[v]
        if union not in reached:
            reached.add(union)
            out.append((union, state & ~sum(1 << v for v in kept)))
    return out


def start_bits(mask: int) -> list[int]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


def random_graph(rng: random.Random, max_n: int = 8, p: float | None = None) -> Graph:
    n = rng.randrange(1, max_n + 1)
    prob = p if p is not None else min(0.9, 2.5 / max(n - 1, 1))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < prob]
    return graph_from_edges(n, edges)


def random_mask(rng: random.Random, n: int) -> int:
    return rng.randrange(1 << n) if n else 0

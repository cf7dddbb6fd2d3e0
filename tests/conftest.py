"""Shared independent oracles and generators for the test suite.

These deliberately avoid the library's bitmask fast paths so that the values
they produce check the implementation through a second route.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Iterator

import pytest

from huntrab import solver
from huntrab.cube import comb0
from huntrab.dynamics import DEAF, STANDARD, Strategy, moves, step
from huntrab.errors import InvalidOrderError, InvalidParameterError, NonTerminatingError
from huntrab.graphs import (
    Graph,
    bipartition,
    bits,
    cycle_graph,
    graph_from_edges,
    grid_graph,
    hypercube_graph,
    mask_of,
    path_graph,
    side_mask,
    star_graph,
)
from huntrab.nesting import BIPARTITE, FULL, NestOrder, _bind, iter_weightlex
from huntrab.solver import (
    BLOCKED,
    CLEARED,
    DEFAULT_BUDGET,
    ClearResult,
    Meter,
    _contributions,
    _min_union,
    _successors,
    _Tables,
    _witness,
    as_meter,
)


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


def union_profile(g: Graph, side: str = "all", variant: str = STANDARD,
                  budget: int | Meter = DEFAULT_BUDGET) -> Iterator[int]:
    """Reference union profile U(1), U(2), ..., U(|side|), each U(k) computed
    when it is read.  Dropping a vertex from a best k-set leaves a
    (k-1)-set whose union is no larger, so U(k) >= U(k-1), and the search
    for U(k) ends at the first k-union of U(k-1) vertices."""
    meter = as_meter(budget)
    contrib = _contributions(g, side, variant)
    floor = 0
    for k in range(1, len(contrib) + 1):
        floor = _min_union(contrib, k, floor, meter)
        yield floor


def surplus(profile: Iterable[int]) -> int:
    """max over k of profile[k] - k (k is 1-based); 0 for an empty profile."""
    return max((v - k for k, v in enumerate(profile, start=1)), default=0)


def profile_bound(g: Graph, variant: str = STANDARD) -> tuple[int, int]:
    """Reference union bound and the units it spends: every U_side(j) proved
    exact, the sides' whole union profiles read in lockstep, and the max over
    j of min over the sides of U_side(j) - j + 1."""
    meter = Meter()
    sides = ("even", "odd") if variant == STANDARD and bipartition(g) is not None else ("all",)
    bound = 0
    profiles = zip(*(union_profile(g, side, variant, meter) for side in sides))
    for j, unions in enumerate(profiles, start=1):
        bound = max(bound, min(unions) - j + 1)
    return bound, meter.spent


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


def arrow_len(n: int, i: int) -> int:
    """Length of the (n, i) arrow sequence: comb(n+i, i)."""
    return math.comb(n + i, i)


def arrow_sum(n: int, i: int) -> int:
    """Sum of the (n, i) arrow sequence: comb(n+i, i+1)."""
    return comb0(n + i, i + 1)


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


def cube_deaf_closed_profile(n: int) -> tuple[int, ...]:
    """Reference closed neighborhood-union profile of Q^n along weightlex
    segments: its first differences are n+1 (the first closed neighborhood)
    followed by the arrow sequences (n-w, w) for w = 1..n."""
    layers = (arrow_seq(n - w, w) for w in range(1, n + 1))
    return tuple(itertools.accumulate(itertools.chain((n + 1,), *layers)))


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


# ---------------------------------------------------------------------------
# Orders on subsets of {1..n}, bitmask-encoded like hypercube vertices (bit j
# <=> element j+1).  The lex order puts x before y exactly when the smallest
# element of the symmetric difference lies in x; sorting same-size subsets by
# their ascending element tuples realizes it, and padding the tuples to full
# length keeps the comparison correct across sizes ({1,2,3} precedes {1,2}).
# Weightlex sorts by size first, then lex.


def elements(mask: int) -> tuple[int, ...]:
    """1-based elements of a subset mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def lex_key(mask: int, n: int):
    """Sort key realizing the lex order on subsets of {1..n}."""
    els = elements(mask)
    return els + (n + 1,) * (n - len(els))


def weightlex_key(mask: int, n: int):
    """Sort key realizing the weightlex order: size first, then lex."""
    return (mask.bit_count(),) + lex_key(mask, n)


def weightlex_positions(n: int) -> dict[int, int]:
    """1-based weightlex rank of every subset of {1..n}."""
    ranked = sorted(range(1 << n), key=lambda v: weightlex_key(v, n))
    return {mask: pos for pos, mask in enumerate(ranked, start=1)}


# ---------------------------------------------------------------------------
# (i, j)-compression of even-size subset families of {1..n}, the paper's
# proof step for the cube's nesting: each quadrant by membership of i and j
# is replaced with the initial weightlex segment of its size.


@dataclass(frozen=True)
class QuadrantDecomposition:
    """A family of even-size subsets split by membership of elements i and j,
    with i/j projected out, so each quadrant lives in the (n-2)-element
    ground set."""

    i: int
    j: int
    n: int
    without_both: frozenset[int]
    with_i: frozenset[int]
    with_j: frozenset[int]
    with_both: frozenset[int]

    def sizes(self) -> tuple[int, int, int, int]:
        return (len(self.without_both), len(self.with_i), len(self.with_j), len(self.with_both))

    def reassemble(self) -> frozenset[int]:
        bi = 1 << (self.i - 1)
        bj = 1 << (self.j - 1)
        out = set(self.without_both)
        out.update(x | bi for x in self.with_i)
        out.update(x | bj for x in self.with_j)
        out.update(x | bi | bj for x in self.with_both)
        return frozenset(out)


def _check_even_family(family: Iterable[int], n: int) -> frozenset[int]:
    fam = frozenset(family)
    for x in fam:
        if x >> n:
            raise InvalidParameterError(f"subset {x:#x} uses elements beyond {n}")
        if x.bit_count() % 2:
            raise InvalidParameterError("family must contain even-size subsets only")
    return fam


def decompose_ij(family: Iterable[int], i: int, j: int, n: int) -> QuadrantDecomposition:
    if not (1 <= i <= n and 1 <= j <= n and i != j):
        raise InvalidParameterError(f"need distinct i, j in 1..{n}")
    fam = _check_even_family(family, n)
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    q00, q10, q01, q11 = set(), set(), set(), set()
    for x in fam:
        has_i, has_j = bool(x & bi), bool(x & bj)
        if has_i and has_j:
            q11.add(x & ~bi & ~bj)
        elif has_i:
            q10.add(x & ~bi)
        elif has_j:
            q01.add(x & ~bj)
        else:
            q00.add(x)
    return QuadrantDecomposition(i, j, n, frozenset(q00), frozenset(q10),
                                 frozenset(q01), frozenset(q11))


def _ground_init(ground: tuple[int, ...], parity: int, size: int) -> frozenset[int]:
    out = []
    for mask in iter_weightlex(ground, parity):
        if len(out) == size:
            break
        out.append(mask)
    return frozenset(out)


def compress_ij(family: Iterable[int], i: int, j: int, n: int) -> frozenset[int]:
    """Replace each (i, j)-quadrant of the family with the initial weightlex
    segment of its size in the reduced ground set, then reassemble.

    Preserves the family size and never increases the neighborhood size.
    """
    dec = decompose_ij(family, i, j, n)
    ground = tuple(e for e in range(1, n + 1) if e not in (dec.i, dec.j))
    return QuadrantDecomposition(
        dec.i, dec.j, n,
        _ground_init(ground, 0, len(dec.without_both)),
        _ground_init(ground, 1, len(dec.with_i)),
        _ground_init(ground, 1, len(dec.with_j)),
        _ground_init(ground, 0, len(dec.with_both)),
    ).reassemble()


def is_compressed(family: Iterable[int], n: int) -> bool:
    fam = frozenset(family)
    return all(compress_ij(fam, i, j, n) == fam
               for i in range(1, n + 1) for j in range(i + 1, n + 1))


def compress_fully(family: Iterable[int], n: int) -> tuple[frozenset[int], int]:
    """Apply the lowest violated (i, j) compression until none remains.

    Returns the terminal family and the number of compression steps; the sum
    of 1-based weightlex positions strictly decreases at every step, which
    bounds the number of steps.
    """
    fam = _check_even_family(family, n)
    positions = weightlex_positions(n)
    potential = sum(positions[x] for x in fam)
    steps = 0
    changed = True
    while changed:
        changed = False
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                nxt = compress_ij(fam, i, j, n)
                if nxt != fam:
                    nxt_potential = sum(positions[x] for x in nxt)
                    assert nxt_potential < potential, "compression potential must drop"
                    fam, potential = nxt, nxt_potential
                    steps += 1
                    changed = True
                    break
            if changed:
                break
    return fam, steps


def subset_neighborhood(family: Iterable[int], n: int) -> frozenset[int]:
    """Open neighborhood of a subset family inside Q^n (bit-flip neighbors)."""
    out: set[int] = set()
    for x in family:
        for b in range(n):
            out.add(x ^ (1 << b))
    return frozenset(out)


def initial_even_segment(n: int, size: int) -> frozenset[int]:
    """First `size` even-size subsets of {1..n} in weightlex order."""
    return _ground_init(tuple(range(1, n + 1)), 0, size)


# ---------------------------------------------------------------------------
# Initial segments: the nest strategy that shoots segment tails


def initial_segments(order: NestOrder, part: str) -> list[int]:
    """The first r vertices of the given part's order as a bitmask, for
    r = 0..|part|, as one running union along the order."""
    return list(itertools.accumulate((1 << v for v in order.sequence(part)), operator.or_,
                                     initial=0))


def tail_shot(segments: list[int], r: int, m: int) -> int:
    """Last m order positions of the current segment, padded forward to m
    shots when fewer than m positions remain; segments as from initial_segments."""
    top = min(len(segments) - 1, max(r, m))
    return segments[top] ^ segments[max(0, top - m)]


def segment_images(g: Graph, order: NestOrder, side: str) -> list[int]:
    """The moves of the side's first k vertices for k = 1..|side|: N of each
    initial segment, or N[ ] for a full order."""
    nbrs = moves(g, order.variant)
    return list(itertools.accumulate((nbrs[v] for v in order.sequence(side)), operator.or_))


def segment_nest_strategy(g: Graph, order: NestOrder, m: int) -> Strategy:
    """Reference nest strategy: the driven side as nest_strategy picks it,
    then each round the tail of the position set, which must be an initial
    segment of the active order (InvalidOrderError otherwise), as
    nest_strategy shot before it let verify judge other orders."""
    if m < min(1, g.n):
        raise InvalidParameterError("hunter count must be at least 1")
    _bind(g, order)
    side = min(order.next_side, key=lambda s: max(
        (nb.bit_count() - k for k, nb in enumerate(segment_images(g, order, s), start=1)),
        default=0))
    segments = {s: initial_segments(order, s) for s in order.next_side}
    nbrs = moves(g, order.variant)
    rabbit = side_mask(g, side)
    shots: list[int] = []
    for _ in range(4 * g.n):
        if rabbit == 0:
            return Strategy(tuple(shots), order.variant)
        r = rabbit.bit_count()
        if rabbit != segments[side][r]:
            raise InvalidOrderError(
                f"position set is not an initial segment of the {side} order at step {len(shots) + 1}")
        shots.append(tail_shot(segments[side], r, m))
        rabbit = step(nbrs, rabbit, shots[-1])
        side = order.next_side[side]
    if rabbit == 0:
        return Strategy(tuple(shots), order.variant)
    raise NonTerminatingError(f"{m} hunters are too few")


def capped_nest_strategy(g: Graph, order: NestOrder, m: int) -> Strategy:
    """nest_strategy as it played before it stopped at a repeated (set,
    side) state: every one of the 4n rounds, then NonTerminatingError.  It
    picks each round's shots by sorting the side's order, the set's
    vertices last, where nest_strategy walks the order once."""
    if m < min(1, g.n):
        raise InvalidParameterError("hunter count must be at least 1")
    _bind(g, order)
    nbrs = moves(g, order.variant)
    side = min(order.next_side, key=lambda s: max(
        (nb.bit_count() - k for k, nb in enumerate(segment_images(g, order, s), start=1)),
        default=0))
    rabbit = side_mask(g, side)
    shots: list[int] = []
    while rabbit and len(shots) < 4 * g.n:
        ranked = sorted(enumerate(order.sequence(side)),
                        key=lambda pv: pv[0] if rabbit >> pv[1] & 1 else ~pv[0])
        shots.append(mask_of(v for _, v in ranked[-m:]))
        rabbit = step(nbrs, rabbit, shots[-1])
        side = order.next_side[side]
    if rabbit:
        raise NonTerminatingError(f"{m} hunters do not clear the graph along the order "
                                  f"in {4 * g.n} rounds")
    return Strategy(tuple(shots), order.variant)


# ---------------------------------------------------------------------------
# Nest orders as the library built them before the anchor orders


def sweep_grid_order(m: int, n: int) -> NestOrder:
    """Diagonal sweep of the m-by-n grid (vertex (r,c) = r*n + c) by grid
    coordinates: cells by x + y, ties to the smaller x, where x runs along
    the longer grid dimension (the columns of a square grid)."""
    def grid_key(cell: tuple[int, int]) -> tuple[int, int]:
        x, y = cell
        return (x + y, x)

    cells = [(r, c) for r in range(m) for c in range(n)]
    coord = (lambda rc: (rc[1], rc[0])) if n >= m else (lambda rc: (rc[0], rc[1]))
    cells.sort(key=lambda rc: grid_key(coord(rc)))
    even = tuple(r * n + c for r, c in cells if (r + c) % 2 == 0)
    odd = tuple(r * n + c for r, c in cells if (r + c) % 2 == 1)
    return NestOrder(BIPARTITE, even, odd)


def greedy_orders(g: Graph, variant: str) -> list[NestOrder]:
    """The learned orders of nest_orders, with the BFS tie-break counted as
    the balls around the first vertex taken that miss each vertex."""
    nbrs, orders = moves(g, variant), []
    for lead in ("all",) if variant == DEAF else ("even", "odd"):
        left = bits(side_mask(g, lead))
        order, follow, union, dist = [], [], 0, [0] * g.n
        while left:
            v = min(left, key=lambda u: ((nbrs[u] & ~union).bit_count(), -nbrs[u].bit_count(),
                                         dist[u]))
            ball = 1 << v
            for _ in range(0 if order else g.n):
                dist = [d + 1 - (ball >> u & 1) for u, d in enumerate(dist)]
                ball |= step(g.adj, ball, 0)
            left.remove(v)
            order.append(v)
            follow += bits(nbrs[v] & ~union)
            union |= nbrs[v]
        follow += bits(g.full_mask & ~side_mask(g, lead) & ~union)
        parts = (tuple(order), tuple(follow))[::-1 if lead == "odd" else 1]
        orders.append(NestOrder(FULL, order_all=parts[0]) if lead == "all"
                      else NestOrder(BIPARTITE, *parts))
    return orders


# ---------------------------------------------------------------------------
# Isoperimetric nesting: the theorem's hypothesis, checked k by k


@dataclass(frozen=True)
class NestingReport:
    ok: bool
    violations: tuple[tuple[str, int, str], ...]


def check_isoperimetric_nesting(g: Graph, order: NestOrder,
                                budget: int | Meter = DEFAULT_BUDGET) -> NestingReport:
    """Check, for every k on each side, that the moves (N( ), or N[ ] for a full
    order) of the side's first k vertices are an initial segment of the side
    they land in and of the exact minimum size U(k), from each side's whole
    union profile.  Lists every violated (side, k)."""
    _bind(g, order)
    meter = as_meter(budget)
    violations: list[tuple[str, int, str]] = []
    for side, image in order.next_side.items():
        profile = union_profile(g, side, order.variant, meter)
        segments = initial_segments(order, image)
        for k, (minimum, nb) in enumerate(zip(profile, segment_images(g, order, side)), start=1):
            size = nb.bit_count()
            if nb != segments[size]:
                violations.append((side, k, "neighborhood of the segment is not an initial segment"))
            if size != minimum:
                violations.append((side, k, f"segment neighborhood has {size} vertices, minimum is {minimum}"))
    return NestingReport(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# Graphs and strategies


def shots_from_vertices(shot_lists: Iterable[Iterable[int]], variant: str = STANDARD) -> Strategy:
    """A strategy from iterables of vertex indices, one per shot."""
    return Strategy(tuple(mask_of(vs) for vs in shot_lists), variant)


def brute_degeneracy(g: Graph) -> int:
    """Reference degeneracy: max over vertex subsets of the induced min
    degree, on plain sets.  Every subset of min degree d or more lies in the
    d-core, what is left once vertices of degree below d are deleted until
    none is left, so the answer is the largest d with a non-empty d-core."""
    adj = adjacency_sets(g)
    core, d = set(adj), 0
    while core:
        d += 1
        while low := {v for v in core if len(adj[v] & core) < d}:
            core -= low
    return max(d - 1, 0)


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


def _dominated(minimal: list[int], state: int) -> bool:
    return any(y & state == y for y in minimal)


def _admit(minimal: list[int], state: int) -> None:
    # keep an antichain: drop stored supersets of the new state
    minimal[:] = [y for y in minimal if state & y != state]
    minimal.append(state)


def antichain_can_clear(g: Graph, k: int, variant: str = STANDARD,
                        budget: int | Meter = DEFAULT_BUDGET,
                        start: int | None = None) -> ClearResult:
    """Reference smallest-first search that checks dominance when it
    generates a state: solver.can_clear before it checked at pop time.  A
    successor that holds an admitted state is dropped, an admitted one
    drops the admitted supersets from the antichain, and a popped state
    that left the antichain is not expanded."""
    adj = moves(g, variant)
    if start is None:
        start = g.full_mask
    meter = as_meter(budget)
    if start == 0:
        return ClearResult(CLEARED, (), 0)
    parents: dict[int, tuple[int, int]] = {start: (-1, 0)}
    seen = {start}
    minimal: list[int] = [start]
    heap = [(start.bit_count(), 0, start)]
    store = _Tables()
    explored = 0
    while heap:
        size, depth, state = heappop(heap)
        if state not in minimal:
            continue  # a later subset replaced it
        explored += 1
        if size <= k:
            return ClearResult(CLEARED, _witness(parents, state, state), explored)
        meter.spend(math.comb(size, k), "search")
        for nxt, shot in _successors(adj, state, k, seen, store):
            if nxt.bit_count() <= k:
                shots = _witness(parents, state, shot)
                return ClearResult(CLEARED, shots + (nxt,) if nxt else shots, explored)
            if _dominated(minimal, nxt):
                continue
            parents[nxt] = (state, shot)
            _admit(minimal, nxt)
            heappush(heap, (nxt.bit_count(), depth + 1, nxt))
    return ClearResult(BLOCKED, None, explored)


def fifo_can_clear(g: Graph, k: int, variant: str = STANDARD,
                   start: int | None = None) -> ClearResult:
    """Reference dominance search that expands every admitted state in FIFO
    order, also one a later subset dropped from the antichain, and returns
    a shortest witness."""
    adj = moves(g, variant)
    if start is None:
        start = g.full_mask
    if start == 0:
        return ClearResult(CLEARED, (), 0)
    parents = {start: (-1, 0)}
    seen = {start}
    minimal = [start]
    queue = deque([start])
    store = _Tables()
    explored = 0
    while queue:
        state = queue.popleft()
        explored += 1
        if state.bit_count() <= k:
            return ClearResult(CLEARED, _witness(parents, state, state), explored)
        for nxt, shot in _successors(adj, state, k, seen, store):
            if nxt == 0:
                return ClearResult(CLEARED, _witness(parents, state, shot), explored)
            if _dominated(minimal, nxt):
                continue
            parents[nxt] = (state, shot)
            _admit(minimal, nxt)
            queue.append(nxt)
    return ClearResult(BLOCKED, None, explored)


def pruned_half_table(adj: tuple[int, ...], half: list[int], lo: int,
                      hi: int) -> dict[tuple[int, int], int]:
    """Reference half table, built afresh for one state: distinct (union,
    kept count) over the kept subsets of half with lo..hi members, each
    mapped to the mask of its first kept set in lexicographic order.  Each
    vertex extends the table entry by entry, joining before it is shot and
    keeping the first mask on a collision, so the dict's insertion order is
    that lexicographic first-reach order."""
    table = {(0, 0): 0}
    for i, v in enumerate(half):
        room = len(half) - i - 1  # vertices still to come after v
        nv, bit = adj[v], 1 << v
        grown: dict[tuple[int, int], int] = {}
        for (union, count), mask in table.items():
            if count < hi:
                grown.setdefault((union | nv, count + 1), mask | bit)
            if count + room >= lo:
                grown.setdefault((union, count), mask)
        table = grown
    return table


def fresh_successors(adj: tuple[int, ...], state: int, k: int,
                     seen: set[int]) -> Iterator[tuple[int, int]]:
    """Reference successors of state not in seen, each with its first shot
    and added to seen, from two half tables built for this state alone:
    solver._successors before it kept its tables across a search."""
    vs = bits(state)
    keep = len(vs) - k
    low, high = vs[:len(vs) // 2], vs[len(vs) // 2:]
    by_count: dict[int, tuple[list[int], list[int]]] = {}
    for (union, count), mask in pruned_half_table(adj, high, keep - len(low), keep).items():
        unions, masks = by_count.setdefault(count, ([], []))
        unions.append(union)
        masks.append(mask)
    for (lu, count), lmask in pruned_half_table(adj, low, keep - len(high), keep).items():
        unions, masks = by_count[keep - count]
        if {lu | hu for hu in unions} <= seen:
            continue  # no fresh union in this group
        for hu, hmask in zip(unions, masks):
            nxt = lu | hu
            if nxt in seen:
                continue
            seen.add(nxt)
            yield nxt, state & ~(lmask | hmask)


def searched_hunter_number(g: Graph, variant: str = STANDARD,
                           budget: int | Meter = DEFAULT_BUDGET) -> solver.SolveResult:
    """hunter_number with the sandwich route off, so every component is
    searched: the search as solve ran it before a nest strategy could
    answer first."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_sandwich", lambda *args: None)
        return solver.hunter_number(g, variant, budget)


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


def clearing_bits(mask: int) -> Iterator[int]:
    """Set bit positions in increasing order by clearing the lowest set bit
    of the whole int each time, quadratic in the mask's length."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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


def relabelled(g: Graph, seed: int) -> Graph:
    """g with its vertices renumbered by a seeded random permutation."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def random_mask(rng: random.Random, n: int) -> int:
    return rng.randrange(1 << n) if n else 0


def complete_graph(n: int) -> Graph:
    return graph_from_edges(n, list(itertools.combinations(range(n), 2)))


def circulant(n: int, jumps: Iterable[int]) -> Graph:
    return graph_from_edges(n, sorted({tuple(sorted((v, (v + j) % n))) for v in range(n) for j in jumps}))


def product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: (a, b) is vertex a * h.n + b."""
    edges = [(a * h.n + b, a * h.n + c) for a in range(g.n) for b, c in h.edges()]
    edges += [(a * h.n + b, c * h.n + b) for a, c in g.edges() for b in range(h.n)]
    return graph_from_edges(g.n * h.n, edges)


def triangulated_grid(m: int, n: int) -> Graph:
    """The m-by-n grid with one diagonal in each square, from (r, c) to
    (r + 1, c + 1); not bipartite once m, n >= 2."""
    diagonals = [(r * n + c, (r + 1) * n + c + 1) for r in range(m - 1) for c in range(n - 1)]
    return graph_from_edges(m * n, list(grid_graph(m, n).edges()) + diagonals)


PETERSEN = graph_from_edges(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])

# small symmetric graphs, on which the tests check the search and the
# sandwich against their oracles and each other
QUOTIENT_CASES = [cycle_graph(n) for n in (5, 6, 8)]
QUOTIENT_CASES += [circulant(8, (1, 2)), circulant(9, (1, 3)), circulant(10, (1, 4))]
QUOTIENT_CASES += [grid_graph(2, 4), grid_graph(3, 3), grid_graph(3, 4)]
QUOTIENT_CASES += [hypercube_graph(n) for n in range(1, 5)]
QUOTIENT_CASES += [PETERSEN, product(cycle_graph(4), path_graph(2)), product(path_graph(3), cycle_graph(4)),
                   product(complete_graph(3), complete_graph(3)), star_graph(5)]

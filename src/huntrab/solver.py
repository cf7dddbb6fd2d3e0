"""Ground-truth computations: neighborhood-union minima, lower bounds, and
the exact hunter number by reachability search over rabbit-position states.

The search treats each possible rabbit-position set as a state.  From state R
the hunters shoot some H subset of R with |H| = min(k, |R|); shooting outside
R is wasted and shooting fewer vertices is dominated, so this loses nothing.
A state is clearable iff the empty set is reachable.  The search expands
the smallest state first, skips one that holds a state it expanded (the
subset clears in no more rounds), and stops at the first successor that
one shot clears, so its answer is exact but its witness need not be
shortest.

In the standard game a rabbit on a connected bipartite graph alternates
parts, so a start inside one part keeps every position set inside one part:
hunter_number searches such a graph from one part, on states half the size,
and extends the witness to every start by parity.

Before it searches, hunter_number tries a sandwich: a nest strategy that
catches with as many hunters as the lower bound proves that count exact,
and the search runs only where no such strategy is found.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import comb
from typing import Iterator, Sequence

from .dynamics import STANDARD, Caught, Strategy, extend_parity, moves, verify
from .errors import BudgetExceededError, InvalidParameterError, NonTerminatingError
from .graphs import (
    Graph,
    bipartition,
    bits,
    components,
    degeneracy,
    induced_subgraph,
    mask_of,
    side_mask,
)
from .nesting import nest_orders, nest_strategy

# Work units: one per candidate a node of the union branch and bound scans,
# one per kept set (successor candidate) of each state the search expands.
# The kept-set count depends only on |R| and k, so it is charged before the
# work and does not change with how successors are built.  The half-table
# entries built plus the candidates joined come to 1.10 per unit on the
# exact-standard benchmark, 0.88 on exact-deaf (seed 1, draws 0-5) and 1.51
# over 3,000 searched random graphs of up to 12 vertices, but to 0.018 on
# the triangulated grid 6x6 at k = 7, whose states are large; the joined
# candidates alone never exceed the units.  A solve that a nest strategy
# answers spends only its union bound, which searches each U(j) only until
# it knows whether j raises the bound, and not at all when a greedy prefix
# shows it cannot: grid 5x5 135 units, Q5 1,344, grid 7x7 6,382, Q6
# 1,290,902 and Q5 deaf 645,451.  Searched, grid 5x5 from one part solves
# in 3,300 units, Q5 in 18,714, grid 6x6 in 10,568, grid 7x7 in 143,095
# and grid 5x5 deaf in 383,803; the triangulated grid 6x6 clears at k = 7
# in 21,416,889.
DEFAULT_BUDGET = 10**8
# can_clear keeps its half tables until they hold more than this many
# entries, then drops them all before the next expansion.  The exact
# workloads' 240 random graphs (seed 1, draws 0-59) solved in 0.53 s in
# the standard game and 0.24 s in the deaf game with a cap of 0, and in
# 0.39 s and 0.22 s with 2^16.  The triangulated grid 6x6 at k = 7 (19
# states) took 0.08 s with any cap, at a peak RSS of 28, 28, 34, 40 and
# 40 MB with a cap of 0, 2^14, 2^16, 2^18 and none (Python 3.11, shared
# 2-core machine, best of three).
TABLE_ENTRIES = 1 << 16

CLEARED = "cleared"
BLOCKED = "blocked"


@dataclass
class Meter:
    """One work budget shared by every phase of a call: the search charges
    an expansion before it starts, the union bound its work as it runs.
    ``lower_bound`` is the best hunter count proved so far."""

    limit: int = DEFAULT_BUDGET
    lower_bound: int = 0
    spent: int = 0

    def __post_init__(self):
        if self.limit < 0:
            raise InvalidParameterError(f"work budget must be non-negative, not {self.limit}")

    def spend(self, units: int, phase: str) -> None:
        if self.spent + units > self.limit:
            raise BudgetExceededError(phase, self.spent, self.lower_bound, self.limit)
        self.spent += units


def as_meter(budget: int | Meter) -> Meter:
    """The caller's meter, or a fresh one holding an int budget."""
    return budget if isinstance(budget, Meter) else Meter(budget)


def _min_union(contrib: list[int], k: int, stop: int, meter: Meter) -> int:
    """Smallest union of k of the contributions, by a depth-first branch and
    bound over the k-subsets in lexicographic order: a partial union already
    at the best size found so far cuts every subset that extends it, since a
    union only grows.  The search ends at the first k-union of stop or fewer
    vertices and returns its size, so a result above stop is the exact
    minimum.  A node costs one unit per candidate it scans, charged when the
    search ends or once the count passes the budget left; that exit reports
    every unit counted, the node that passed the budget included."""
    n = len(contrib)
    room = meter.limit - meter.spent
    best = sum(c.bit_count() for c in contrib) + 1  # above every union
    units = 0

    def extend(first: int, union: int, left: int) -> bool:
        # add one of contrib[first:] to the partial union, leaving room for
        # the left - 1 members still to come; True once best reaches stop
        nonlocal best, units
        end = n - left + 1
        units += end - first
        if units > room:
            meter.spent += units
            raise BudgetExceededError("bound", meter.spent, meter.lower_bound, meter.limit)
        for i in range(first, end):
            grown = union | contrib[i]
            size = grown.bit_count()
            if size >= best:
                continue
            if left == 1:
                best = size
                if size <= stop:
                    return True
            elif extend(i + 1, grown, left - 1):
                return True
        return False

    extend(0, 0, k)
    meter.spend(units, "bound")
    return best


def _contributions(g: Graph, side: str, variant: str) -> list[int]:
    """The moves of the side's vertices, in vertex order."""
    nbrs = moves(g, variant)
    return [nbrs[v] for v in bits(side_mask(g, side))]


def min_neighborhood_union(g: Graph, k: int, side: str = "all", variant: str = STANDARD,
                           budget: int | Meter = DEFAULT_BUDGET) -> int:
    """U(k), the smallest |N(W)| (|N[W]| for a deaf rabbit) over the
    k-subsets W of the side, by one search for it alone."""
    mask = side_mask(g, side)
    if not 1 <= k <= mask.bit_count():
        raise InvalidParameterError(f"k={k} out of range 1..{mask.bit_count()}")
    return _min_union(_contributions(g, side, variant), k, 0, as_meter(budget))


def _greedy(contrib: list[int]) -> tuple[list[int], list[int]]:
    """The contributions in greedy order, each next one the one that grows
    the running union least (ties to the larger overlap with it, then to the
    lower vertex), with the union size of each prefix."""
    left, order, sizes, union = list(contrib), [], [], 0
    while left:
        best = min(left, key=lambda c: ((union | c).bit_count(), -(union & c).bit_count()))
        left.remove(best)
        order.append(best)
        union |= best
        sizes.append(union.bit_count())
    return order, sizes


def lower_bound_union(g: Graph, variant: str = STANDARD,
                      budget: int | Meter = DEFAULT_BUDGET) -> int:
    """Least hunter count not excluded by the neighborhood-union argument:
    max over j of min over the sides of U_side(j) - j + 1, the sides being
    the two parts of a bipartite graph in the standard game, else all of V.

    With h <= U(j) - j hunters, a position set of j + h or more vertices
    keeps j unshot, so the next set has U(j) >= j + h or more again.  A
    rabbit started on the even part of a bipartite graph alternates parts,
    so both parts' minima at j must reach j + h (the start, the even part,
    holds U_odd(j) or more).  The per-part rule surplus(side) + 1 is not a
    bound: 2 on P3's odd part, which one hunter clears.

    A j raises the bound only if every side's U(j) reaches bound + j.  Each
    side's vertices are put in greedy order (_greedy, O(|side|^2) and not
    charged), whose prefix of j vertices is a j-union no smaller than U(j),
    whatever the numbering.  A j where some side's prefix union is below
    bound + j is decided with no search.  Otherwise the sides are searched
    in that order, smallest prefix union first (even first on a tie); each
    search stops at the first j-union of bound + j - 1 or fewer vertices,
    and once one side stops there the other side is not searched.  A search
    that runs to its end finds the exact U(j).  Each j is decided in turn,
    raising meter.lower_bound, so a budget exit reports the bound of the
    decided prefix."""
    meter = as_meter(budget)
    paired = variant == STANDARD and bipartition(g) is not None
    sides = [_greedy(_contributions(g, side, variant))
             for side in (("even", "odd") if paired else ("all",))]
    bound = 0
    for j in range(1, min(len(order) for order, _ in sides) + 1):
        if min(sizes[j - 1] for _, sizes in sides) < bound + j:
            continue  # a greedy prefix shows j cannot raise the bound
        unions = []
        for order, _ in sorted(sides, key=lambda side: side[1][j - 1]):
            unions.append(_min_union(order, j, bound + j - 1, meter))
            if unions[-1] < bound + j:
                break  # j cannot raise the bound
        bound = max(bound, min(unions) - j + 1)
        meter.lower_bound = max(meter.lower_bound, bound)
    return bound


def component_graphs(g: Graph) -> Iterator[tuple[Graph, Sequence[int]]]:
    """Each component of g as a graph of its own, with its new-index ->
    old-index map; g itself when connected."""
    for comp in components(g):
        yield (g, range(g.n)) if comp == g.full_mask else induced_subgraph(g, comp)


def lower_bound(g: Graph, variant: str = STANDARD, budget: int | Meter = DEFAULT_BUDGET) -> int:
    """The hunter count solve starts from: over the components, the largest
    of 1, the degeneracy and lower_bound_union; 0 on the empty graph.  Taken
    on the whole graph, an isolated vertex's U(1) = 0 would pull its part's
    minima down.  A component's seed from the degeneracy is proved before
    its union bound runs, so a budget exit there reports it."""
    meter = as_meter(budget)
    bound = 0
    for sub, _ in component_graphs(g):
        seed = max(1, degeneracy(sub))
        meter.lower_bound = max(meter.lower_bound, seed)
        bound = max(bound, seed, lower_bound_union(sub, variant, meter))
    return bound


# ---------------------------------------------------------------------------
# Reachability search


@dataclass(frozen=True)
class ClearResult:
    status: str
    shots: tuple[int, ...] | None
    explored: int


def _witness(parents: dict[int, tuple[int, int]], state: int, last: int) -> tuple[int, ...]:
    """The shots from the start to state, then last."""
    shots = [last]
    prev, shot = parents[state]
    while prev >= 0:
        shots.append(shot)
        prev, shot = parents[prev]
    return tuple(reversed(shots))


class _Tables:
    """The half tables of one search by vertex mask (_half_table), and the
    high side's grouping of each by kept count; entries counts what the
    tables hold."""

    def __init__(self) -> None:
        self.drop()

    def drop(self) -> None:
        self.tables: dict[int, dict[tuple[int, int], int]] = {0: {(0, 0): 0}}
        self.groups: dict[int, dict[int, tuple[list[int], list[int]]]] = {}
        self.entries = 0


def _half_table(adj: tuple[int, ...], store: _Tables, half: int, k: int) -> dict[tuple[int, int], int]:
    """Distinct (union, kept count) over the subsets of the vertex set half
    kept with at most k of it shot, each mapped to the mask of its first
    kept set in lexicographic order, from the store or built into it.  A
    missing table is built from the table of half less its lowest vertex v:
    first each entry with v kept, then each with v shot where that shoots
    at most k, both by setdefault in the smaller table's order, so a key
    keeps its first kept set and the dict's insertion order is that
    lexicographic first-reach order."""
    tables, chain = store.tables, []
    while half not in tables:
        chain.append(half)
        half &= half - 1
    table = tables[half]
    for half in reversed(chain):
        bit = half & -half
        nv, least = adj[bit.bit_length() - 1], half.bit_count() - k
        grown: dict[tuple[int, int], int] = {}
        for (union, count), kept in table.items():
            grown.setdefault((union | nv, count + 1), kept | bit)
        for key, kept in table.items():
            if key[1] >= least:
                grown.setdefault(key, kept)
        tables[half] = table = grown
        store.entries += len(grown)
    return table


def _successors(adj: tuple[int, ...], state: int, k: int, seen: set[int],
                store: _Tables) -> Iterator[tuple[int, int]]:
    """The successors of state not in seen, each with its first shot, in the
    order of combinations(bits(state), |state| - k) over the kept vertices;
    each one is added to seen.  The store must be used with one adj and k
    only; it is dropped first once it holds more than TABLE_ENTRIES.

    The state's vertices split into a low and a high half.  A kept set is a
    low part followed by a high part, so lexicographic order runs over the
    low parts and, within one, over the high parts of the remaining size;
    only the first part of each (union, count) in a half can reach a union
    first, so the half tables hold every first reach in order.
    """
    if store.entries > TABLE_ENTRIES:
        store.drop()
    size, high = state.bit_count(), state
    for _ in range(size // 2):
        high &= high - 1  # drop the lowest vertex
    keep = size - k
    low = state ^ high
    by_count = store.groups.get(high)
    if by_count is None:
        by_count = store.groups[high] = {}
        for (union, count), mask in _half_table(adj, store, high, k).items():
            unions, masks = by_count.setdefault(count, ([], []))
            unions.append(union)
            masks.append(mask)
    for (lu, count), lmask in _half_table(adj, store, low, k).items():
        if count > keep:
            continue
        unions, masks = by_count[keep - count]
        if seen.issuperset(map(lu.__or__, unions)):
            continue  # no fresh union in this group
        for hu, hmask in zip(unions, masks):
            nxt = lu | hu
            if nxt in seen:
                continue
            seen.add(nxt)
            yield nxt, state & ~(lmask | hmask)


def can_clear(g: Graph, k: int, variant: str = STANDARD,
              budget: int | Meter = DEFAULT_BUDGET, start: int | None = None) -> ClearResult:
    """Decide whether k hunters can clear g from the start set (default V(G)),
    with a shot-sequence witness.

    Best-first search over position sets starting from start: each state
    generated for the first time goes on a heap, which pops the smallest,
    the shallower on a tie, then the lower mask.  A popped state that holds
    an expanded state is skipped: any clearing from the superset also
    clears the subset (the dynamics are monotone), so the subset's subtree
    already covers it.  Checking when a state is popped, not when it is
    generated, expands the same states in the same order as keeping an
    antichain of the generated ones: a proper subset generated before the
    state pops is smaller, so it has popped, and it was expanded or held an
    expanded state.  Most generated states are never popped, so they cost
    no linear scan of the expanded states.  A state generated before, as
    most are, is never yielded again by _successors.  Successors come from
    two half tables of distinct unions, not from every kept set (grid 4x5
    at k = 3: 513,046 kept sets, 1,636 distinct states); keep-first
    insertion puts each table in lexicographic first-reach order, so the
    successors and their shots come as enumerating the kept sets
    lexicographically first reaches them.  The search keeps its tables by
    vertex mask, each built once from the table one vertex smaller, for
    every state whose low or high half it is, and drops them all once they
    hold more than TABLE_ENTRIES entries.
    Expanding state R is charged C(|R|, k) units, one per kept set.

    The search returns CLEARED at the first successor of at most k vertices,
    with a witness whose last shot is that whole successor; it need not be
    a shortest witness.  BLOCKED is a proof: the heap drained, so every
    successor of an expanded state holds an expanded state, and if any
    expanded state cleared, a successor of the one that clears in the
    fewest rounds would hold one that clears in fewer.
    """
    if k < 1:
        raise InvalidParameterError("hunter count must be at least 1")
    adj = moves(g, variant)
    if start is None:
        start = g.full_mask
    elif start & ~g.full_mask:
        raise InvalidParameterError("start set has vertices outside the graph")
    meter = as_meter(budget)
    if start == 0:
        return ClearResult(CLEARED, (), 0)
    parents: dict[int, tuple[int, int]] = {start: (-1, 0)}
    seen = {start}
    expanded: list[int] = []
    heap = [(start.bit_count(), 0, start)]
    store = _Tables()
    while heap:
        size, depth, state = heappop(heap)
        if any(y & state == y for y in expanded):
            continue  # holds an expanded state
        expanded.append(state)
        if size <= k:
            return ClearResult(CLEARED, _witness(parents, state, state), len(expanded))
        meter.spend(comb(size, k), "search")
        for nxt, shot in _successors(adj, state, k, seen, store):
            if nxt.bit_count() <= k:
                shots = _witness(parents, state, shot)
                return ClearResult(CLEARED, shots + (nxt,) if nxt else shots, len(expanded))
            parents[nxt] = (state, shot)
            heappush(heap, (nxt.bit_count(), depth + 1, nxt))
    return ClearResult(BLOCKED, None, len(expanded))


@dataclass(frozen=True)
class SolveResult:
    hunter_number: int
    witness: Strategy
    explored_states: int
    lower_bound_used: int
    # "sandwich" when every component's bound met a nest strategy, else "search"
    route: str = "search"


def _sandwich(g: Graph, variant: str, k: int) -> tuple[int, ...] | None:
    """The shots of a nest strategy with k hunters on one of nest_orders
    that catches from every start, or None; a bipartite order's strategy is
    extended by parity first."""
    for order in nest_orders(g, variant):
        try:
            strategy = nest_strategy(g, order, k)
        except NonTerminatingError:
            continue
        if variant == STANDARD:
            strategy = extend_parity(g, strategy)
        if isinstance(verify(g, strategy), Caught):
            return strategy.shots
    return None


def hunter_number(g: Graph, variant: str = STANDARD,
                  budget: int | Meter = DEFAULT_BUDGET) -> SolveResult:
    """Exact hunter number with a verifying witness strategy.

    Each component is solved separately from its lower_bound k; the final
    answer is the max over components and the witness plays the
    per-component witnesses in sequence (a cleared component stays empty
    while later components are driven).  lower_bound_used is the max over
    components of the bound used, which is lower_bound of the whole graph.

    A component is first offered a sandwich: a nest strategy with k hunters
    (_sandwich) that verify says catches from every start proves the
    component needs exactly k, with no search.  This runs in the deaf game
    and on bipartite components in the standard game.  Otherwise the
    component is searched, iterating the hunter count upward from k.  route
    is "sandwich" when no component searched, else "search";
    explored_states counts the states the searches expanded, summed over
    every hunter count tried, and is 0 on the sandwich route.  A state
    skipped on the heap because it holds an expanded state is not counted.

    In the standard game a bipartite component is searched from its even
    part only.  No other start needs more hunters: one empty shot moves the
    whole odd part onto the whole even part, as every vertex of a component
    with an edge has a neighbor, and a lone vertex has no odd part.  The
    even-start witness W_e shoots only in the part the even-start rabbit is
    on, never in the odd-start rabbit's, so extend_parity plays W_e again,
    after an empty shot when len(W_e) is even.  Every other component
    searches from V.  Each hunter count is one can_clear call, whose
    BLOCKED is a proof, and whose witness need not be a shortest one.

    One budget covers the bounds and the searches of every component; when
    it runs out, the error carries the best hunter count proved so far,
    which counts the union bound of every decided prefix of j.  Building
    and verifying a sandwich charge nothing: a nest strategy is polynomial
    in n.
    """
    meter = as_meter(budget)
    answer = bound_used = explored_total = 0
    all_shots: list[int] = []
    for sub, old in component_graphs(g):
        k = lower_bound(sub, variant, meter)
        parts = bipartition(sub) if variant == STANDARD else None
        bound_used = max(bound_used, k)
        shots = _sandwich(sub, variant, k) if parts or variant != STANDARD else None
        if shots is None:
            start = None if parts is None else parts.even
            while True:
                meter.lower_bound = max(meter.lower_bound, k)
                result = can_clear(sub, k, variant, meter, start)
                explored_total += result.explored
                if result.shots is not None:
                    break
                k += 1  # blocked: k hunters provably insufficient
            shots = (result.shots if parts is None
                     else extend_parity(sub, Strategy(result.shots)).shots)
        all_shots.extend(mask_of(old[v] for v in bits(shot)) for shot in shots)
        answer = max(answer, k)
    return SolveResult(answer, Strategy(tuple(all_shots), variant), explored_total, bound_used,
                       "search" if explored_total else "sandwich")

"""Ground-truth computations: neighborhood-union minima, lower bounds, and
the exact hunter number by reachability search over rabbit-position states.

The search treats each possible rabbit-position set as a state.  From state R
the hunters shoot some H subset of R with |H| = min(k, |R|); shooting outside
R is wasted and shooting fewer vertices is dominated, so this loses nothing.
A state is clearable iff the empty set is reachable, and breadth-first
layering gives a shortest witness.

In the standard game a rabbit on a connected bipartite graph alternates
parts, so a start inside one part keeps every position set inside one part:
hunter_number searches such a graph from one part, on states half the size,
and extends the witness to every start by parity.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator

from .dynamics import STANDARD, Strategy, extend_parity, moves
from .errors import BudgetExceededError, InvalidParameterError
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

# Work units: one per subset the union enumeration visits, one per kept set
# (successor candidate) of each state the search expands.  The kept-set
# count depends only on |R| and k, so it is charged before the work and does
# not change with how successors are built; a unit per half-table entry and
# joined candidate would charge 2.7 times as much on small graphs.  Searched
# from one part, grid 5x5 solves in 49,190 units, Q5 in 2,199,060 and grid
# 6x6 in 3,091,174.
DEFAULT_BUDGET = 10**8

CLEARED = "cleared"
BLOCKED = "blocked"


@dataclass
class Meter:
    """One work budget shared by every phase of a call.  Work is charged in
    full before it starts, so a refusal comes before the work it refuses;
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


def _side_contributions(g: Graph, side: str, variant: str) -> list[int]:
    """The one-round moves of each vertex of the side."""
    nbrs = moves(g, variant)
    return [nbrs[v] for v in bits(side_mask(g, side))]


def _min_union(contrib: list[int], k: int) -> int:
    """Smallest union of k of the contributions, by a depth-first branch and
    bound over the k-subsets in lexicographic order: a partial union already
    at the best size found so far cuts every subset that extends it, since a
    union only grows."""
    best = sum(c.bit_count() for c in contrib) + 1  # above every union

    def extend(first: int, union: int, left: int) -> None:
        # add one of contrib[first:] to the partial union, leaving room for
        # the left - 1 members still to come
        nonlocal best
        for i in range(first, len(contrib) - left + 1):
            grown = union | contrib[i]
            size = grown.bit_count()
            if size >= best:
                continue
            if left == 1:
                best = size
            else:
                extend(i + 1, grown, left - 1)

    extend(0, 0, k)
    return best


def min_neighborhood_union(g: Graph, k: int, side: str = "all", variant: str = STANDARD,
                           budget: int | Meter = DEFAULT_BUDGET) -> int:
    """Smallest |N(W)| (|N[W]| for a deaf rabbit) over W in the side with |W| = k.

    Exact, by branch and bound; charged as C(|side|, k) units, all of them,
    before the search, which visits at most that many subsets.
    """
    contrib = _side_contributions(g, side, variant)
    if not 1 <= k <= len(contrib):
        raise InvalidParameterError(f"k={k} out of range 1..{len(contrib)}")
    as_meter(budget).spend(comb(len(contrib), k), "bound")
    return _min_union(contrib, k)


def min_union_profile(g: Graph, side: str = "all", variant: str = STANDARD,
                      budget: int | Meter = DEFAULT_BUDGET) -> tuple[int, ...]:
    """min_neighborhood_union for k = 1..|side|.  Only the whole profile
    gives a surplus, so all of it, 2^|side| - 1 subsets, is charged before
    any k is enumerated; each k then runs within what was paid."""
    contrib = _side_contributions(g, side, variant)
    as_meter(budget).spend((1 << len(contrib)) - 1, "bound")
    return tuple(_min_union(contrib, k) for k in range(1, len(contrib) + 1))


def surplus(profile: Iterable[int]) -> int:
    """max over k of profile[k] - k (k is 1-based); 0 for an empty profile."""
    return max((v - k for k, v in enumerate(profile, start=1)), default=0)


def union_surplus(g: Graph, side: str = "all", variant: str = STANDARD,
                  budget: int | Meter = DEFAULT_BUDGET) -> int:
    """max over k of min_neighborhood_union(k) - k.

    One more hunter than this is needed before the possible-position count
    can shrink at every size, which is what makes it a lower bound.
    """
    return surplus(min_union_profile(g, side, variant, budget))


def lower_bound_union(g: Graph, variant: str = STANDARD,
                      budget: int | Meter = DEFAULT_BUDGET) -> int:
    """Least hunter count not excluded by the neighborhood-union argument."""
    if g.n == 0:
        return 0
    return union_surplus(g, "all", variant, budget) + 1


def lower_bound_degeneracy(g: Graph) -> int:
    """Hunter count forced by a densest peeling core."""
    return degeneracy(g)


# ---------------------------------------------------------------------------
# Reachability search


@dataclass(frozen=True)
class ClearResult:
    status: str
    shots: tuple[int, ...] | None
    explored: int


def _dominated(minimal: list[int], state: int) -> bool:
    return any(y & state == y for y in minimal)


def _admit(minimal: list[int], state: int) -> None:
    # keep an antichain: drop stored supersets of the new state
    minimal[:] = [y for y in minimal if state & y != state]
    minimal.append(state)


def _witness(parents: dict[int, tuple[int, int]], state: int) -> tuple[int, ...]:
    shots: list[int] = []
    while True:
        prev, shot = parents[state]
        if prev < 0:
            return tuple(reversed(shots))
        shots.append(shot)
        state = prev


def _half_table(adj: tuple[int, ...], half: list[int], lo: int, hi: int) -> dict[tuple[int, int], int]:
    """Distinct (union, kept count) over the kept subsets of half with lo..hi
    members, each mapped to the mask of its first kept set in lexicographic
    order.  Each vertex extends the table entry by entry, joining before it
    is shot and keeping the first mask on a collision, so the dict's
    insertion order is that lexicographic first-reach order."""
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


def _successors(adj: tuple[int, ...], state: int, k: int, seen: set[int]) -> Iterator[tuple[int, int]]:
    """The successors of state not in seen, each with its first shot, in the
    order of combinations(bits(state), |state| - k) over the kept vertices;
    each one is added to seen.

    The state's vertices split into a low and a high half.  A kept set is a
    low part followed by a high part, so lexicographic order runs over the
    low parts and, within one, over the high parts of the remaining size;
    only the first part of each (union, count) in a half can reach a union
    first, so the half tables hold every first reach in order.
    """
    vs = bits(state)
    keep = len(vs) - k
    low, high = vs[:len(vs) // 2], vs[len(vs) // 2:]
    by_count: dict[int, tuple[list[int], list[int]]] = {}
    for (union, count), mask in _half_table(adj, high, keep - len(low), keep).items():
        unions, masks = by_count.setdefault(count, ([], []))
        unions.append(union)
        masks.append(mask)
    for (lu, count), lmask in _half_table(adj, low, keep - len(high), keep).items():
        unions, masks = by_count[keep - count]
        if {lu | hu for hu in unions} <= seen:
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

    Breadth-first search over position sets starting from start.  A generated
    state is skipped when some already-admitted state is a subset of it: any
    clearing from the superset also clears the subset (the dynamics are
    monotone), so the subset's subtree already covers it and no shorter
    witness is lost.  A state generated before, as most are, is never
    yielded again by _successors, ahead of the linear antichain scan; the
    result is the same because the antichain only ever gains subsets, so a
    state dominated or admitted once stays dominated.  Successors come from
    two half tables of distinct unions, not from every kept set (grid 4x5
    at k = 3: 513,046 kept sets, 1,636 distinct states); keep-first
    insertion puts each table in lexicographic first-reach order, so the
    successors and their shots come as enumerating the kept sets
    lexicographically first reaches them.  Deterministic: FIFO expansion.
    Expanding state R is charged C(|R|, k) units, one per kept set.
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
    minimal: list[int] = [start]
    queue: deque[int] = deque([start])
    explored = 0
    while queue:
        state = queue.popleft()
        explored += 1
        size = state.bit_count()
        if size <= k:
            return ClearResult(CLEARED, _witness(parents, state) + (state,), explored)
        meter.spend(comb(size, k), "search")
        for nxt, shot in _successors(adj, state, k, seen):
            if nxt == 0:
                return ClearResult(CLEARED, _witness(parents, state) + (shot,), explored)
            if _dominated(minimal, nxt):
                continue
            parents[nxt] = (state, shot)
            _admit(minimal, nxt)
            queue.append(nxt)
    return ClearResult(BLOCKED, None, explored)


@dataclass(frozen=True)
class SolveResult:
    hunter_number: int
    witness: Strategy
    explored_states: int
    lower_bound_used: int


def _paired_bound(g: Graph, meter: Meter) -> int:
    """Least hunter count not excluded by the union argument from a start in
    either part of a connected bipartite graph: max over j of
    min(U_even(j), U_odd(j)) - j + 1, with U_side that side's union profile.
    A position set alternates parts, so it stays at j + k vertices or more
    once both minima at j reach j + k; the per-side rule
    union_surplus(side) + 1 is not a bound (path P3: 2 on the odd side, but
    one hunter clears it from there)."""
    even = min_union_profile(g, "even", STANDARD, meter)
    odd = min_union_profile(g, "odd", STANDARD, meter)
    return surplus(map(min, even, odd)) + 1


def hunter_number(g: Graph, variant: str = STANDARD,
                  budget: int | Meter = DEFAULT_BUDGET) -> SolveResult:
    """Exact hunter number with a verifying witness strategy.

    Each component is solved separately, iterating the hunter count upward
    from its lower bound; the final answer is the max over components and
    the witness plays the per-component witnesses in sequence (a cleared
    component stays empty while later components are driven).

    In the standard game a bipartite component with more than one vertex is
    searched from its even part only, upward from the paired bound
    (_paired_bound).  No other start needs more hunters: one empty shot
    moves the whole odd part onto the whole even part, as every vertex has
    a neighbor.  The even-start witness W_e shoots only in the part the
    even-start rabbit is on, never in the odd-start rabbit's, so
    extend_parity plays W_e again, after an empty shot when len(W_e) is
    even.  Every other component searches from V, upward from the full-set
    union bound.  lower_bound_used is the max over components of the bound
    used, each raised to the degeneracy.

    One budget covers the bounds and the searches of every component; when
    it runs out, the error carries the best hunter count proved so far.
    """
    meter = as_meter(budget)
    answer = bound_used = explored_total = 0
    all_shots: list[int] = []
    for comp in components(g):
        sub, old = induced_subgraph(g, comp)
        k = max(1, lower_bound_degeneracy(sub))
        meter.lower_bound = max(meter.lower_bound, k)
        parts = bipartition(sub) if variant == STANDARD and sub.n > 1 else None
        if parts is None:
            start, bound = None, lower_bound_union(sub, variant, meter)
        else:
            start, bound = parts.even, _paired_bound(sub, meter)
        k = max(k, bound)
        bound_used = max(bound_used, k)
        while True:
            meter.lower_bound = max(meter.lower_bound, k)
            result = can_clear(sub, k, variant, meter, start)
            explored_total += result.explored
            if result.shots is not None:
                break
            k += 1  # blocked: k hunters provably insufficient
        shots = result.shots if parts is None else extend_parity(sub, Strategy(result.shots)).shots
        all_shots.extend(mask_of(old[v] for v in bits(shot)) for shot in shots)
        answer = max(answer, k)
    return SolveResult(answer, Strategy(tuple(all_shots), variant), explored_total, bound_used)

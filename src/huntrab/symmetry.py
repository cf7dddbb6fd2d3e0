"""Automorphism groups of small graphs, and the orbit canonical form that
the exact search stores its states by.

The group comes from colour refinement plus individualisation.  Refinement
splits an ordered partition of the vertices into cells until the vertices of
each cell have equally many neighbours in every cell; fragments are ordered
by those counts alone, so refinement commutes with every relabelling.  The
first path individualises the first vertex of the first non-singleton cell
and refines, level by level, down to a partition of singletons: the base
points b_1, b_2, ... and the first leaf.  An automorphism fixing b_1..b_(i-1)
maps b_i into its cell at level i, and a candidate for each point w of that
cell comes from individualising w instead and following every branch whose
refinement splits as the first path did, down to a leaf; the map from the
first leaf to that leaf is kept when it preserves every adjacency.  Levels
are done deepest first, so the automorphisms already found fix the earlier
base points and give the orbit of b_i, with one transversal element per
orbit point, without a search.  The group is the product of the
transversals of this stabiliser chain.

A position set and its image under an automorphism need the same number of
rounds to clear, so the search keeps one set per orbit: the least of its
images under a listed subgroup, computed for all elements at once with
per-byte tables.
"""

from __future__ import annotations

import sys
from collections import deque
from math import prod

from .graphs import Graph, bits, iter_bits

# Bytes the per-byte image tables of the listed elements may take; the list
# is the largest subgroup of the stabiliser chain within it, so a star or a
# complete graph lists a point stabiliser, not every permutation.
TABLE_BYTES = 1 << 20
# (bytes, memoryview format) of the field that holds one image of a state:
# one machine word at most
_FIELDS = ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))
MAX_VERTICES = 8 * _FIELDS[-1][0]
# Refinements the searches for automorphisms may make in all.  Below a
# point outside b_i's orbit every branch is followed to its end; on two
# disjoint strongly regular graphs with the same parameters (Shrikhande and
# the 4x4 rook's graph) that is 449,280 leaves and nearly a minute, while
# every family the tests name, stars and complete graphs on up to 64
# vertices included, takes at most about 2,000.
MAX_SEARCH_NODES = 4096

Perm = tuple[int, ...]


def _refine(adj: tuple[int, ...], cells: list[int], splitters: list[int]) -> tuple[list[int], list]:
    """The ordered equitable partition reached from cells, and the trace of
    its splits.  Each splitter splits every cell by the number of neighbours
    its vertices have in it; the fragments replace the cell in place, in
    increasing count order, and join the splitters.  Equal traces are
    necessary for an automorphism to map one refinement onto the other."""
    n = len(adj)
    queue = deque(splitters)
    trace = []
    while queue and len(cells) < n:
        splitter = queue.popleft()
        reach = 0
        for v in iter_bits(splitter):
            reach |= adj[v]
        out: list[int] = []
        for cell in cells:
            if cell & (cell - 1) and cell & reach:
                by_count: dict[int, int] = {}
                for v in iter_bits(cell):
                    count = (adj[v] & splitter).bit_count()
                    by_count[count] = by_count.get(count, 0) | 1 << v
                if len(by_count) > 1:
                    counts = sorted(by_count)
                    fragments = [by_count[c] for c in counts]
                    trace.append((len(out), counts, [f.bit_count() for f in fragments]))
                    out += fragments
                    queue += fragments
                    continue
            out.append(cell)
        cells = out
    return cells, trace


def _individualise(cells: list[int], t: int, v: int) -> list[int]:
    return cells[:t] + [1 << v, cells[t] & ~(1 << v)] + cells[t + 1:]


def _is_automorphism(adj: tuple[int, ...], perm: list[int]) -> bool:
    for v, nv in enumerate(adj):
        image = 0
        for u in iter_bits(nv):
            image |= 1 << perm[u]
        if image != adj[perm[v]]:
            return False
    return True


class _NodeLimit(Exception):
    """The searches made MAX_SEARCH_NODES refinements."""


class _Path:
    """The first path down the individualisation tree: per level, the
    partition before individualising, the target cell's index, the base
    point and the trace of the refinement after it; then the first leaf."""

    def __init__(self, adj: tuple[int, ...]):
        self.adj = adj
        full = (1 << len(adj)) - 1
        cells, _ = _refine(adj, [full] if full else [], [full])
        self.levels: list[tuple[list[int], int, int, list]] = []
        while len(cells) < len(adj):
            t = next(i for i, cell in enumerate(cells) if cell & (cell - 1))
            b = (cells[t] & -cells[t]).bit_length() - 1
            refined, trace = _refine(adj, _individualise(cells, t, b), [1 << b])
            self.levels.append((cells, t, b, trace))
            cells = refined
        self.leaf = [cell.bit_length() - 1 for cell in cells]
        self.nodes = 0

    def search(self, depth: int, cells: list[int], w: int) -> list[int] | None:
        """An automorphism fixing the base points above depth that maps the
        first leaf to a leaf below cells with w individualised, or None.
        Depth first, smallest vertex first, with an explicit stack."""
        stack = [(depth, cells, w)]
        while stack:
            depth, cells, w = stack.pop()
            _, t, _, trace = self.levels[depth]
            if self.nodes == MAX_SEARCH_NODES:
                raise _NodeLimit
            self.nodes += 1
            cells, got = _refine(self.adj, _individualise(cells, t, w), [1 << w])
            if got != trace:
                continue
            if depth + 1 == len(self.levels):
                perm = [0] * len(self.adj)
                for a, cell in zip(self.leaf, cells):
                    perm[a] = cell.bit_length() - 1
                if _is_automorphism(self.adj, perm):
                    return perm
                continue
            target = cells[self.levels[depth + 1][1]]
            stack += [(depth + 1, cells, x) for x in reversed(bits(target))]
        return None


def _orbit(b: int, gens: list[Perm], identity: Perm) -> dict[int, Perm]:
    """Each point of b's orbit under gens, mapped to an element taking b to it."""
    transversal = {b: identity}
    queue = [b]
    for p in queue:
        for gen in gens:
            q = gen[p]
            if q not in transversal:
                transversal[q] = tuple(gen[x] for x in transversal[p])
                queue.append(q)
    return transversal


class Group:
    """The automorphisms found for a graph, given as the transversals of a
    stabiliser chain, deepest level first.  order is the product of their
    sizes; elements lists the largest subgroup in the chain whose per-byte
    image tables fit in TABLE_BYTES, identity first."""

    def __init__(self, n: int, transversals: list[list[Perm]]):
        self.order = prod(len(transversal) for transversal in transversals)
        self.elements = [tuple(range(n))]
        if self.order == 1:
            return
        width, self._code = next(f for f in _FIELDS if 8 * f[0] >= n)
        self._nbytes = (n + 7) // 8
        per_element = self._nbytes * 256 * width
        for transversal in transversals:
            if len(self.elements) * len(transversal) * per_element > TABLE_BYTES:
                break
            self.elements = [tuple(u[x] for x in e) for u in transversal for e in self.elements]
        if len(self.elements) == 1:
            return
        self._size = len(self.elements) * width
        # images[v] holds 1 << e[v] in field i for the i-th element e
        images = [int.from_bytes(b"".join((1 << e[v]).to_bytes(width, sys.byteorder)
                                          for e in self.elements), sys.byteorder)
                  for v in range(n)]
        images += [0] * (8 * self._nbytes - n)
        self._tables = []
        for base in range(0, n, 8):
            table = [0] * 256
            for byte in range(1, 256):
                low = byte & -byte
                table[byte] = table[byte ^ low] | images[base + low.bit_length() - 1]
            self._tables.append(table)

    def _images(self, state: int) -> memoryview:
        out = 0
        for table, byte in zip(self._tables, state.to_bytes(self._nbytes, "little")):
            out |= table[byte]
        return memoryview(out.to_bytes(self._size, sys.byteorder)).cast(self._code)

    def canonical(self, state: int) -> int:
        """The least image of state under the listed elements."""
        return min(self._images(state))

    def carrier(self, state: int, image: int) -> Perm:
        """A listed element that maps state onto image, one of its images."""
        return self.elements[self._images(state).tolist().index(image)]


def automorphism_group(g: Graph) -> Group:
    """The automorphism group of g, from a stabiliser chain along the first
    path of colour refinement plus individualisation; every element found is
    checked against the adjacency before it is kept.  When the searches
    reach MAX_SEARCH_NODES refinements, the group is the pointwise
    stabiliser of the base points down to the level left unfinished.  A
    graph on more than MAX_VERTICES vertices gets the identity alone,
    unsearched, since its states fit no image field."""
    if g.n > MAX_VERTICES:
        return Group(g.n, [])
    identity = tuple(range(g.n))
    path = _Path(g.adj)
    gens: list[Perm] = []
    transversals = []
    for depth in reversed(range(len(path.levels))):
        cells, t, b, _ = path.levels[depth]
        transversal = _orbit(b, gens, identity)
        try:
            for w in iter_bits(cells[t]):
                if w not in transversal:
                    found = path.search(depth, cells, w)
                    if found is not None:
                        gens.append(tuple(found))
                        transversal = _orbit(b, gens, identity)
        except _NodeLimit:
            break  # keep the finished, deeper levels
        transversals.append(list(transversal.values()))
    return Group(g.n, transversals)

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
orbit point, without a search.  The listed subgroup is the product of the
transversals of the deepest levels of this stabiliser chain: the walk up
the chain stops at the first level whose searches run out of refinements
or whose transversal would overflow the image tables.

A position set and its image under an automorphism need the same number of
rounds to clear, so the search keeps one set per orbit: the least of its
images under a listed subgroup, computed for all elements at once with
per-byte tables.
"""

from __future__ import annotations

import sys
from collections import deque

from .graphs import Graph, bits, iter_bits

# Bytes the per-byte image tables of the listed elements may take; the walk
# up the stabiliser chain stops at the first level that would pass it, so a
# star or a complete graph lists a small stabiliser, not every permutation.
TABLE_BYTES = 1 << 20
# (bytes, memoryview format) of the field that holds one image of a state:
# one machine word at most
_FIELDS = ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))
MAX_VERTICES = 8 * _FIELDS[-1][0]
# Refinements the searches for automorphisms may make in all.  Below a
# point outside b_i's orbit every branch is followed to its end; on two
# disjoint strongly regular graphs with the same parameters (Shrikhande and
# the 4x4 rook's graph) a search at the first level meets 449,280 leaves,
# nearly a minute, while the walk on every graph the tests name, stars and
# complete graphs on up to 64 vertices included, makes at most 34.
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
        Depth first, smallest vertex first, with an explicit stack.  None
        too once nodes passes MAX_SEARCH_NODES, with no refinement made."""
        stack = [(depth, cells, w)]
        while stack:
            depth, cells, w = stack.pop()
            _, t, _, trace = self.levels[depth]
            self.nodes += 1
            if self.nodes > MAX_SEARCH_NODES:
                return None
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


def _field(n: int) -> tuple[int, str]:
    return next(f for f in _FIELDS if 8 * f[0] >= n)


class Group:
    """Automorphisms of a graph on n vertices, the identity first, with
    per-byte image tables of every listed element."""

    def __init__(self, n: int, elements: list[Perm]):
        self.elements = elements
        if len(elements) == 1:
            return
        width, self._code = _field(n)
        self._nbytes = (n + 7) // 8
        self._size = len(elements) * width
        # images[v] holds 1 << e[v] in field i for the i-th element e
        images = [int.from_bytes(b"".join((1 << e[v]).to_bytes(width, sys.byteorder)
                                          for e in elements), sys.byteorder)
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
    """A subgroup of g's automorphisms, from a stabiliser chain along the
    first path of colour refinement plus individualisation; every element
    found is checked against the adjacency before it is kept.  The walk goes
    up the chain, deepest level first, and ends at the first level whose
    searches would pass MAX_SEARCH_NODES refinements or whose transversal
    would take the image tables past TABLE_BYTES; the group lists the
    pointwise stabiliser of the base points down to that level, as the
    products u∘e of each transversal element u with each element e listed
    before it.  A graph on more than MAX_VERTICES vertices gets the identity
    alone, unsearched, since its states fit no image field."""
    identity = tuple(range(g.n))
    if g.n > MAX_VERTICES:
        return Group(g.n, [identity])
    per_element = (g.n + 7) // 8 * 256 * _field(g.n)[0]
    path = _Path(g.adj)
    gens: list[Perm] = []
    elements = [identity]
    for depth in reversed(range(len(path.levels))):
        cells, t, b, _ = path.levels[depth]
        transversal = _orbit(b, gens, identity)
        for w in iter_bits(cells[t]):
            if w not in transversal:
                found = path.search(depth, cells, w)
                if found is not None:
                    gens.append(tuple(found))
                    transversal = _orbit(b, gens, identity)
        if path.nodes > MAX_SEARCH_NODES or len(elements) * len(transversal) * per_element > TABLE_BYTES:
            break  # keep the finished, deeper levels
        elements = [tuple(u[x] for x in e) for u in transversal.values() for e in elements]
    return Group(g.n, elements)

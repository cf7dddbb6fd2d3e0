"""Graph representation and standard families.

Vertices are dense integers 0..n-1.  Vertex sets are plain Python ints used
as bitmasks (bit v set <=> vertex v in the set), which makes unions,
differences and hashing O(1)-ish and gives the search code canonical,
hashable states.  Graphs are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError, FormatError, InvalidParameterError

# Hypercubes materialize one neighbor mask per vertex; each mask is a 2^n-bit
# int, so memory grows like 4^n bytes.  14 keeps it under ~40 MB.
MAX_HYPERCUBE_DIM = 14


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with the given vertex indices set."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


# _BYTE_BITS[x] lists the set bit positions of the byte value x
_BYTE_BITS: list[tuple[int, ...]] = [()]
for _bit in range(8):
    _BYTE_BITS += [low + (_bit,) for low in _BYTE_BITS]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in increasing order.

    The walk reads mask one byte at a time, so it is linear in the mask's
    length; clearing each bit of the whole int would copy it once per bit.
    """
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) // 8, "little"):
        for b in _BYTE_BITS[byte]:
            yield base + b
        base += 8


def bits(mask: int) -> list[int]:
    """Set bit positions of mask as a sorted list."""
    return list(iter_bits(mask))


@dataclass(frozen=True)
class Graph:
    """Finite simple graph with bitmask adjacency.

    adj[v] is the open neighborhood of v as a bitmask.  No self-loops are
    stored; the deaf-rabbit variant is a transition rule (dynamics.moves),
    not a loop edge.
    labels, when present, give one text label per vertex (hypercubes use
    bit strings).
    """

    n: int
    adj: tuple[int, ...]
    labels: tuple[str, ...] | None = None

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in iter_bits(self.adj[u] >> (u + 1)):
                yield (u, u + 1 + v)

    @property
    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]],
                     labels: Sequence[str] | None = None) -> Graph:
    """Build a Graph from an edge list, validating simplicity and range."""
    if n < 0:
        raise InvalidParameterError("vertex count must be non-negative")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidParameterError(f"edge ({u},{v}) out of range for {n} vertices")
        if u == v:
            raise InvalidParameterError(f"self-loop at vertex {u}")
        if adj[u] >> v & 1:
            raise InvalidParameterError(f"duplicate edge ({u},{v})")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    lab = None
    if labels is not None:
        lab = tuple(labels)
        if len(lab) != n:
            raise InvalidParameterError("labels must cover every vertex")
    return Graph(n, tuple(adj), lab)


# ---------------------------------------------------------------------------
# Standard families


def path_graph(n: int) -> Graph:
    """Path on vertices 0..n-1 with edges {i, i+1}."""
    if n < 1:
        raise InvalidParameterError("path needs at least one vertex")
    return graph_from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    """Cycle on n >= 3 vertices."""
    if n < 3:
        raise InvalidParameterError("cycle needs at least three vertices")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return graph_from_edges(n, edges)


def grid_graph(m: int, n: int) -> Graph:
    """m-by-n grid; vertex (r, c) has index r*n + c."""
    if m < 1 or n < 1:
        raise InvalidParameterError("grid dimensions must be positive")
    edges = []
    for r in range(m):
        for c in range(n):
            v = r * n + c
            if c + 1 < n:
                edges.append((v, v + 1))
            if r + 1 < m:
                edges.append((v, v + n))
    return graph_from_edges(m * n, edges)


def hypercube_graph(n: int) -> Graph:
    """Hypercube of dimension n.

    Vertex i encodes the subset of {1..n} whose characteristic vector is the
    binary expansion of i (bit j <=> element j+1).  Two vertices are adjacent
    iff their indices differ in exactly one bit.  Labels are n-char bit
    strings with the character at position j giving membership of element
    j+1, so vertex 9 in dimension 4 is "1001" = {1, 4}.
    """
    if n < 0:
        raise InvalidParameterError("dimension must be non-negative")
    if n > MAX_HYPERCUBE_DIM:
        raise CapacityError(f"hypercube dimension {n} exceeds supported maximum {MAX_HYPERCUBE_DIM}")
    size = 1 << n
    adj = tuple(mask_of(v ^ (1 << b) for b in range(n)) for v in range(size))
    # Q0's one label would be empty, which the text format does not write
    labels = tuple("".join("1" if v >> j & 1 else "0" for j in range(n)) for v in range(size))
    return Graph(size, adj, labels if n else None)


def cube_dim(g: Graph) -> int | None:
    """The n with g == hypercube_graph(n), vertex numbering and labels
    included, or None; edge counts are compared before a cube is built."""
    n = g.n.bit_length() - 1
    found = 0 <= n <= MAX_HYPERCUBE_DIM and g.edge_count == n * g.n // 2 and g == hypercube_graph(n)
    return n if found else None


def star_graph(n: int) -> Graph:
    """Star with center 0 and n leaves."""
    if n < 1:
        raise InvalidParameterError("star needs at least one leaf")
    return graph_from_edges(n + 1, ((0, i) for i in range(1, n + 1)))


# ---------------------------------------------------------------------------
# Basic operations


@dataclass(frozen=True)
class Bipartition:
    """The two color classes of a bipartite graph, as bitmasks."""

    even: int
    odd: int


def bipartition(g: Graph) -> Bipartition | None:
    """2-color g by BFS, or return None if some cycle is odd.

    Deterministic: each component is rooted at its lowest-index vertex and
    the root is colored even.  The graph is immutable, so the answer is
    kept on it and the BFS runs once per graph.
    """
    if "bipartition" not in g.__dict__:
        g.__dict__["bipartition"] = _two_color(g)
    return g.__dict__["bipartition"]


def _two_color(g: Graph) -> Bipartition | None:
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for v in iter_bits(g.adj[u]):
                    if color[v] == -1:
                        color[v] = color[u] ^ 1
                        nxt.append(v)
                    elif color[v] == color[u]:
                        return None
            frontier = nxt
    even = mask_of(v for v in range(g.n) if color[v] == 0)
    return Bipartition(even, g.full_mask & ~even)


SIDES = ("all", "even", "odd")


def side_mask(g: Graph, side: str) -> int:
    """The vertices of one side: all of V, or one part of the bipartition."""
    if side == "all":
        return g.full_mask
    if side not in SIDES:
        raise InvalidParameterError(f"side must be one of {SIDES}, not {side!r}")
    parts = bipartition(g)
    if parts is None:
        raise InvalidParameterError("even/odd side requires a bipartite graph")
    return parts.even if side == "even" else parts.odd


def degeneracy(g: Graph) -> int:
    """Max over the min-degree peeling process of the current minimum degree,
    peeled from one vertex-mask bucket per degree; after a peel at degree d
    no vertex has degree below d - 1."""
    degree = [g.degree(v) for v in range(g.n)]
    buckets = [0] * (g.n + 1)
    for v, d in enumerate(degree):
        buckets[d] |= 1 << v
    remaining, best, d = g.full_mask, 0, 0
    for _ in range(g.n):
        while not buckets[d]:
            d += 1
        bit = buckets[d] & -buckets[d]
        buckets[d] ^= bit
        remaining ^= bit
        best = max(best, d)
        for u in iter_bits(g.adj[bit.bit_length() - 1] & remaining):
            buckets[degree[u]] ^= 1 << u
            degree[u] -= 1
            buckets[degree[u]] |= 1 << u
        d = max(d - 1, 0)
    return best


def components(g: Graph) -> list[int]:
    """Connected components as bitmasks, ordered by lowest vertex index."""
    seen = 0
    out = []
    for root in range(g.n):
        if seen >> root & 1:
            continue
        comp = 1 << root
        frontier = 1 << root
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= g.adj[v]
            frontier = nxt & ~comp
            comp |= frontier
        out.append(comp)
        seen |= comp
    return out


def distances(g: Graph, a: int) -> list[int]:
    """BFS distance from a to each vertex, g.n for a vertex out of reach."""
    dist, frontier, seen, d = [g.n] * g.n, 1 << a, 1 << a, 0
    while frontier:
        nxt = 0
        for v in iter_bits(frontier):
            dist[v], nxt = d, nxt | g.adj[v]
        frontier, seen, d = nxt & ~seen, seen | nxt, d + 1
    return dist


def induced_subgraph(g: Graph, vset: int) -> tuple[Graph, list[int]]:
    """Subgraph induced by vset plus the new-index -> old-index map."""
    old = bits(vset)
    index = {v: i for i, v in enumerate(old)}
    edges = [(index[u], index[v]) for u, v in g.edges() if vset >> u & 1 and vset >> v & 1]
    labels = tuple(g.labels[v] for v in old) if g.labels is not None else None
    return graph_from_edges(len(old), edges, labels), old


# ---------------------------------------------------------------------------
# Text format
#
#   line 1:   n m
#   m lines:  u v            (0 <= u < v < n)
#   then:     label i text   (optional, one per labeled vertex)
#   '#'-prefixed lines are comments and may appear anywhere.


def format_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    if g.labels is not None:
        lines.extend(f"label {v} {g.labels[v]}" for v in range(g.n) if g.labels[v])
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    """Parse the graph text format, raising FormatError with a line number."""
    n = m = -1
    edges: list[tuple[int, int]] = []
    seen = set()
    labels: dict[int, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n < 0:
            parts = line.split()
            if len(parts) != 2:
                raise FormatError(lineno, "expected header 'n m'")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise FormatError(lineno, "header must be two integers") from None
            if n < 0 or m < 0:
                raise FormatError(lineno, "header values must be non-negative")
            continue
        if line.startswith("label"):
            if len(edges) != m:
                raise FormatError(lineno, f"label line before all {m} edges were read")
            parts = line.split(maxsplit=2)
            if len(parts) < 3:
                raise FormatError(lineno, "expected 'label i text'")
            try:
                v = int(parts[1])
            except ValueError:
                raise FormatError(lineno, "label vertex must be an integer") from None
            if not 0 <= v < n:
                raise FormatError(lineno, f"label vertex {v} out of range")
            if v in labels:
                raise FormatError(lineno, f"duplicate label for vertex {v}")
            labels[v] = parts[2]
            continue
        if len(edges) >= m:
            raise FormatError(lineno, "unexpected extra line after all edges")
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(lineno, "expected edge 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(lineno, "edge endpoints must be integers") from None
        if u == v:
            raise FormatError(lineno, f"self-loop at vertex {u}")
        if not u < v:
            raise FormatError(lineno, "edges must be written with u < v")
        if not (0 <= u and v < n):
            raise FormatError(lineno, f"edge ({u},{v}) out of range")
        if (u, v) in seen:
            raise FormatError(lineno, f"duplicate edge ({u},{v})")
        seen.add((u, v))
        edges.append((u, v))
    if n < 0:
        raise FormatError(1, "empty graph file")
    if len(edges) != m:
        raise FormatError(1, f"header promised {m} edges, found {len(edges)}")
    lab = None
    if labels:
        lab = tuple(labels.get(v, "") for v in range(n))
    return graph_from_edges(n, edges, lab)


def read_graph(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def write_graph(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))

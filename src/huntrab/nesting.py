"""Nest orders and the constructive optimal strategies they support.

A bipartite graph has isoperimetric nesting when each part carries a total
order such that the neighborhood of every initial segment is an initial
segment of the other part's order of the minimum possible size.  Shooting the
tail of the current position set then keeps the set an initial segment and
forces it to shrink, which yields an optimal strategy.  For the deaf rabbit
a full order, one order on all vertices, plays the same role under closed
neighborhoods.

Any order gives a strategy: each round shoots the tail of the position set
in the order, whether or not the set is an initial segment, and verify
judges the result.  nest_orders makes the orders to try, one at a time:
weightlex on a gen hypercube, then orders that ignore the numbering.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations, islice
from operator import or_
from typing import Iterator

from .dynamics import DEAF, STANDARD, Strategy, moves, step
from .errors import FormatError, InvalidOrderError, InvalidParameterError, NonTerminatingError
from .graphs import Graph, bits, cube_dim, distances, grid_graph, iter_bits, mask_of, side_mask

BIPARTITE = "bipartite"
FULL = "full"


@dataclass(frozen=True)
class NestOrder:
    """A pair of part orders (bipartite kind) or one order on V (full kind)."""

    kind: str
    order_even: tuple[int, ...] | None = None
    order_odd: tuple[int, ...] | None = None
    order_all: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind == BIPARTITE:
            if self.order_even is None or self.order_odd is None or self.order_all is not None:
                raise InvalidParameterError("bipartite order needs order_even and order_odd")
        elif self.kind == FULL:
            if self.order_all is None or self.order_even is not None or self.order_odd is not None:
                raise InvalidParameterError("full order needs order_all only")
        else:
            raise InvalidParameterError(f"unknown order kind {self.kind!r}")
        for seq in (self.order_even, self.order_odd, self.order_all):
            if seq is not None and len(set(seq)) != len(seq):
                raise InvalidParameterError("order repeats a vertex")
            if seq is not None and any(v < 0 for v in seq):
                raise InvalidParameterError("order has a negative vertex index")

    @property
    def next_side(self) -> dict[str, str]:
        """Each side mapped to the side its segments' neighborhoods land in:
        the other part under open neighborhoods (bipartite kind), or all of
        V onto itself under closed neighborhoods (full kind)."""
        return {"even": "odd", "odd": "even"} if self.kind == BIPARTITE else {"all": "all"}

    @property
    def variant(self) -> str:
        """The game the order plays: standard (open) or deaf (closed)."""
        return STANDARD if self.kind == BIPARTITE else DEAF

    def sequence(self, part: str) -> tuple[int, ...]:
        seq = {"even": self.order_even, "odd": self.order_odd, "all": self.order_all}.get(part)
        if seq is None:
            raise InvalidParameterError(f"order has no part {part!r}")
        return seq


# ---------------------------------------------------------------------------
# Built-in orders


def iter_weightlex(ground: tuple[int, ...], parity: int | None = None) -> Iterator[int]:
    """Subsets of the given ground elements (1-based) in weightlex order:
    by size, then lex, where x precedes y when the smallest element of the
    symmetric difference lies in x.  Subset masks use bit j for element
    j+1, like hypercube vertices.

    For a fixed size, combinations of the ascending element list enumerate
    exactly the lex order, so no sorting is needed.  parity 0/1 restricts to
    even/odd sizes.
    """
    for w in range(len(ground) + 1):
        if parity is not None and w % 2 != parity:
            continue
        for combo in combinations(ground, w):
            mask = 0
            for e in combo:
                mask |= 1 << (e - 1)
            yield mask


def _cube_ground(g: Graph) -> tuple[int, ...]:
    """The elements 1..n of a graph on 2^n vertices, n >= 0."""
    n = g.n.bit_length() - 1
    if n < 0 or g.n != 1 << n:
        raise InvalidParameterError("weightlex orders need a subset-coded hypercube graph")
    return tuple(range(1, n + 1))


def weightlex_nest_order(g: Graph) -> NestOrder:
    """Weightlex on each part of a subset-coded hypercube."""
    ground = _cube_ground(g)
    return NestOrder(BIPARTITE, tuple(iter_weightlex(ground, 0)), tuple(iter_weightlex(ground, 1)))


def weightlex_full_order(g: Graph) -> NestOrder:
    """Weightlex on all vertices of a subset-coded hypercube (deaf game)."""
    return NestOrder(FULL, order_all=tuple(iter_weightlex(_cube_ground(g))))


def _anchor_order(g: Graph, variant: str, a: int, b: int) -> NestOrder:
    """Each side sorted by (d(a, v), d(b, v), v) in BFS distances d: the full
    order in the deaf game, the two part orders in the standard game."""
    da, db = distances(g, a), distances(g, b)
    ranked = sorted(range(g.n), key=lambda v: (da[v], db[v], v))
    masks = [side_mask(g, side) for side in (("all",) if variant == DEAF else ("even", "odd"))]
    parts = [tuple(v for v in ranked if mask >> v & 1) for mask in masks]
    return NestOrder(FULL, order_all=parts[0]) if variant == DEAF else NestOrder(BIPARTITE, *parts)


def grid_nest_order(m: int, n: int) -> NestOrder:
    """Diagonal sweep order for the m-by-n grid (vertex (r,c) = r*n + c): the
    anchor order from corner 0 and the corner along the shorter side, so the
    sweep runs along the longer side; along the shorter one the neighborhood
    of an initial segment misses the minimum already at single vertices."""
    if m < 1 or n < 1:
        raise InvalidParameterError("grid dimensions must be positive")
    return _anchor_order(grid_graph(m, n), STANDARD, 0, (m - 1) * n if m <= n else n - 1)


# ---------------------------------------------------------------------------
# The constructive strategy


def _bind(g: Graph, order: NestOrder) -> None:
    for side in order.next_side:
        if mask_of(order.sequence(side)) != side_mask(g, side):
            raise InvalidOrderError(f"order for side {side!r} does not hold exactly that side's vertices")


def nest_strategy(g: Graph, order: NestOrder, m: int) -> Strategy:
    """Shoot the last m nest-ordered vertices of the position set each round.

    The order's kind fixes the game: standard for the bipartite kind, deaf
    for the full kind.  The rabbit starts on the driven side, the side whose
    segment images have the smaller surplus, max over k of the size of the
    first k vertices' image less k (ties to even): the side's union surplus
    when the order nests, since its segments then achieve every minimum.
    Each round moves the rabbit to the side that side maps to.  A bipartite
    strategy thus respects parity, and extend_parity turns it into one
    winning from any start; a full order's strategy starts from all of V.

    A position set of fewer than m vertices is shot whole, padded to m
    shots with the first vertices of its side's order outside it.  On an
    order that nests every position set is an initial segment, so each shot
    is the segment's tail; on any other order the shots are still defined,
    and verify decides whether they catch.  If the set is not empty after
    4n rounds (m too small, or an order that drives no set down),
    NonTerminatingError is raised; it is raised as soon as a (set, side)
    state repeats, since the shots depend on that state alone, so the set
    would cycle without clearing.  The empty graph takes m = 0, the count
    solve answers there, and no shot.
    """
    if m < min(1, g.n):
        raise InvalidParameterError("hunter count must be at least 1")
    _bind(g, order)
    nbrs = moves(g, order.variant)
    # N( ) of each initial segment, or N[ ] for a full order, as one running
    # union along the order
    side = min(order.next_side, key=lambda s: max(
        (nb.bit_count() - k for k, nb in enumerate(
            accumulate((nbrs[v] for v in order.sequence(s)), or_), start=1)),
        default=0))
    rabbit = side_mask(g, side)
    shots: list[int] = []
    seen: set[tuple[int, str]] = set()
    while rabbit and len(shots) < 4 * g.n and (rabbit, side) not in seen:
        seen.add((rabbit, side))
        # the set's tail, or the whole set and the first vertices outside it
        sequence = order.sequence(side)
        inside = [v for v in sequence if rabbit >> v & 1]
        shot = mask_of(inside[-m:])
        if len(inside) < m:
            shot |= mask_of(islice((v for v in sequence if not rabbit >> v & 1), m - len(inside)))
        shots.append(shot)
        rabbit = step(nbrs, rabbit, shot)
        side = order.next_side[side]
    if rabbit:
        raise NonTerminatingError(f"{m} hunters do not clear the graph along the order "
                                  f"in {4 * g.n} rounds")
    return Strategy(tuple(shots), order.variant)


def nest_orders(g: Graph, variant: str) -> Iterator[NestOrder]:
    """The orders to try a nest strategy on, made one at a time: weightlex
    on what gen writes for a hypercube, then the learned orders and the
    anchor orders, which ignore the vertex numbering.

    A learned order takes the vertices of its lead side one at a time, each
    next the one whose moves grow the running union least, ties to the
    larger overlap with it, then to the smaller BFS distance from the first
    vertex taken, then to the lower vertex.  In the deaf game the lead side
    is all of V and the one order is full.  In the standard game each part
    leads once, even first, and the other part follows in the order its
    vertices enter the running union (by vertex within one step), then its
    vertices with no neighbour in the lead part, by vertex: two bipartite
    orders.  A graph with no bipartition has no standard-game order
    (InvalidParameterError).

    An anchor order is _anchor_order(a, b) for a the first vertex of least
    degree and b each other least-degree vertex nearest to a (else a).  On
    a grid these are corners along the shorter side: grid_nest_order's sweep.
    """
    if cube_dim(g) is not None:
        yield weightlex_full_order(g) if variant == DEAF else weightlex_nest_order(g)
    nbrs = moves(g, variant)
    for lead in ("all",) if variant == DEAF else ("even", "odd"):
        left = bits(side_mask(g, lead))
        order, follow, union, dist = [], [], 0, [0] * g.n
        while left:
            # growing the union least, the larger overlap means more moves
            v = min(left, key=lambda u: ((nbrs[u] & ~union).bit_count(), -nbrs[u].bit_count(),
                                         dist[u]))
            if not order:
                dist = distances(g, v)
            left.remove(v)
            order.append(v)
            follow += bits(nbrs[v] & ~union)
            union |= nbrs[v]
        follow += bits(g.full_mask & ~side_mask(g, lead) & ~union)  # isolated, last
        parts = (tuple(order), tuple(follow))[::-1 if lead == "odd" else 1]
        yield NestOrder(FULL, order_all=parts[0]) if lead == "all" else NestOrder(BIPARTITE, *parts)
    if g.n:
        a = min(range(g.n), key=g.degree)
        ends = [v for v in range(g.n) if v != a and g.degree(v) == g.degree(a)] or [a]
        da = distances(g, a)
        near = min(da[v] for v in ends)
        yield from (_anchor_order(g, variant, a, b) for b in ends if da[b] == near)


# ---------------------------------------------------------------------------
# Presentation helpers


def _rank(order: NestOrder) -> dict[int, tuple[int, int]]:
    ranks: dict[int, tuple[int, int]] = {}
    for gi, part in enumerate(order.next_side):
        for pos, v in enumerate(order.sequence(part)):
            ranks[v] = (gi, pos)
    return ranks


def shot_vertex_lists(strategy: Strategy, order: NestOrder) -> list[list[int]]:
    """The strategy's shots as vertex lists sorted by nest-order position."""
    ranks = _rank(order)
    return [sorted(iter_bits(shot), key=lambda v: ranks[v]) for shot in strategy.shots]


def shot_labels(g: Graph, strategy: Strategy, order: NestOrder) -> list[list[str]]:
    """Like shot_vertex_lists but mapped through the graph's vertex labels."""
    labels = g.labels if g.labels is not None else tuple(str(v) for v in range(g.n))
    return [[labels[v] for v in shot] for shot in shot_vertex_lists(strategy, order)]


# ---------------------------------------------------------------------------
# Text format
#
#   kind bipartite|full
#   bipartite: one line of even-part vertices, one line of odd-part vertices
#   full:      one line of all vertices
#   A blank line is an empty part; '#'-prefixed lines are comments.


def format_nest_order(order: NestOrder) -> str:
    lines = [f"kind {order.kind}"]
    lines += [" ".join(str(v) for v in order.sequence(side)) for side in order.next_side]
    return "\n".join(lines) + "\n"


def parse_nest_order(text: str) -> NestOrder:
    lines = text.splitlines()
    if not lines or lines[0].split()[:1] != ["kind"]:
        raise FormatError(1, "expected 'kind bipartite|full' header")
    kind = " ".join(lines[0].split()[1:])
    body: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if line.startswith("#"):
            continue
        try:
            part = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise FormatError(lineno, "order lines must hold integers") from None
        if any(v < 0 for v in part):
            raise FormatError(lineno, "vertex indices must be non-negative")
        body.append(part)
    try:
        if kind == BIPARTITE:
            if len(body) != 2:
                raise FormatError(1, "bipartite order needs exactly two part lines")
            return NestOrder(BIPARTITE, body[0], body[1])
        if kind == FULL:
            if len(body) != 1:
                raise FormatError(1, "full order needs exactly one vertex line")
            return NestOrder(FULL, order_all=body[0])
    except InvalidParameterError as exc:
        raise FormatError(1, str(exc)) from None
    raise FormatError(1, f"unknown kind {kind!r}")


def read_nest_order(path: str) -> NestOrder:
    with open(path, encoding="utf-8") as fh:
        return parse_nest_order(fh.read())


def write_nest_order(order: NestOrder, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_nest_order(order))

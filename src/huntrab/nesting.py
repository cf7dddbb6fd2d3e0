"""Nest orders and the constructive optimal strategies they support.

A bipartite graph has isoperimetric nesting when each part carries a total
order such that the neighborhood of every initial segment is an initial
segment of the other part's order of the minimum possible size.  Shooting the
tail of the current position set then keeps the set an initial segment and
forces it to shrink, which yields an optimal strategy.  For the deaf rabbit
a full order, one order on all vertices, plays the same role under closed
neighborhoods.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations
from operator import or_
from typing import Iterator

from .dynamics import DEAF, STANDARD, Strategy, moves, step
from .errors import FormatError, InvalidOrderError, InvalidParameterError, NonTerminatingError
from .graphs import Graph, cube_dim, grid_graph, iter_bits, mask_of, side_mask

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


def initial_segments(order: NestOrder, part: str) -> list[int]:
    """The first r vertices of the given part's order as a bitmask, for
    r = 0..|part|, as one running union along the order."""
    return list(accumulate((1 << v for v in order.sequence(part)), or_, initial=0))


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


def grid_key(cell: tuple[int, int]):
    """Diagonal sweep order on grid cells: by x+y, ties by smaller x."""
    x, y = cell
    return (x + y, x)


def grid_nest_order(m: int, n: int) -> NestOrder:
    """Diagonal sweep order for the m-by-n grid (vertex (r,c) = r*n + c).

    The x coordinate of the sweep runs along the longer grid dimension; with
    the shorter dimension as x the neighborhood of an initial segment fails
    to achieve the minimum already at single vertices.
    """
    if m < 1 or n < 1:
        raise InvalidParameterError("grid dimensions must be positive")
    cells = [(r, c) for r in range(m) for c in range(n)]
    coord = (lambda rc: (rc[1], rc[0])) if n >= m else (lambda rc: (rc[0], rc[1]))
    cells.sort(key=lambda rc: grid_key(coord(rc)))
    even = tuple(r * n + c for r, c in cells if (r + c) % 2 == 0)
    odd = tuple(r * n + c for r, c in cells if (r + c) % 2 == 1)
    return NestOrder(BIPARTITE, even, odd)


def builtin_order(g: Graph, variant: str) -> NestOrder | None:
    """The nest order of a graph equal to what gen writes, or None: weightlex
    on a hypercube (the full order in the deaf game) and, in the standard game
    only, the diagonal sweep on a grid_graph(m, n), paths being m = 1."""
    if cube_dim(g) is not None:
        return weightlex_full_order(g) if variant == DEAF else weightlex_nest_order(g)
    if variant == STANDARD:
        for m in range(1, g.n + 1):
            n, rest = divmod(g.n, m)
            # an m-by-n grid has 2mn - m - n edges, counted before it is built
            if not rest and g.edge_count == 2 * g.n - m - n and g == grid_graph(m, n):
                return grid_nest_order(m, n)
    return None


# ---------------------------------------------------------------------------
# The constructive strategy


def _bind(g: Graph, order: NestOrder) -> None:
    for side in order.next_side:
        if mask_of(order.sequence(side)) != side_mask(g, side):
            raise InvalidOrderError(f"order for side {side!r} does not hold exactly that side's vertices")


def _segment_images(g: Graph, order: NestOrder, side: str) -> list[int]:
    """The moves of the side's first k vertices for k = 1..|side|: N of each
    initial segment, or N[ ] for a full order, as one running union along
    the order."""
    nbrs = moves(g, order.variant)
    return list(accumulate((nbrs[v] for v in order.sequence(side)), or_))


def _tail_shot(segments: list[int], r: int, m: int) -> int:
    """Last m order positions of the current segment, padded forward to m
    shots when fewer than m positions remain; segments as from initial_segments."""
    top = min(len(segments) - 1, max(r, m))
    return segments[top] ^ segments[max(0, top - m)]


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

    Each round re-checks that the position set is an initial segment of the
    active order and fails with InvalidOrderError otherwise; if the set stops
    shrinking (m too small) the step limit raises NonTerminatingError.  The
    empty graph takes m = 0, the count solve answers there, and no shot.
    """
    if m < min(1, g.n):
        raise InvalidParameterError("hunter count must be at least 1")
    _bind(g, order)
    side = min(order.next_side, key=lambda s: max(
        (nb.bit_count() - k for k, nb in enumerate(_segment_images(g, order, s), start=1)),
        default=0))
    segments = {s: initial_segments(order, s) for s in order.next_side}
    nbrs = moves(g, order.variant)
    rabbit = segments[side][-1]
    shots: list[int] = []
    for _ in range(4 * g.n):
        if rabbit == 0:
            return Strategy(tuple(shots), order.variant)
        r = rabbit.bit_count()
        if rabbit != segments[side][r]:
            raise InvalidOrderError(
                f"position set is not an initial segment of the {side} order at step {len(shots) + 1}")
        shot = _tail_shot(segments[side], r, m)
        shots.append(shot)
        rabbit = step(nbrs, rabbit, shot)
        side = order.next_side[side]
    if rabbit == 0:
        return Strategy(tuple(shots), order.variant)
    raise NonTerminatingError(f"position set still has {rabbit.bit_count()} vertices "
                              f"after {4 * g.n} rounds; {m} hunters are too few")


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

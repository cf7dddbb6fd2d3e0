"""Rabbit-position dynamics and strategy verification.

A hunter strategy is a finite sequence of shot sets.  Given the set R of
positions the rabbit might occupy, one round of play with shot set H leaves
N(R \\ H) under the standard rules (the rabbit must move) or N[R \\ H] for a
deaf rabbit (it may also stay put).  The variant is the only difference
between the two games, and moves is the one place that turns it into N(v)
or N[v].  Shots are 1-based against the 0-based position sets: trace[i+1]
results from shots[i] applied to trace[i].
"""

from __future__ import annotations

from dataclasses import dataclass
from .errors import FormatError, InvalidParameterError, InvalidStrategyError
from .graphs import Bipartition, Graph, bipartition, iter_bits, mask_of, side_mask

STANDARD = "standard"
DEAF = "deaf"
VARIANTS = (STANDARD, DEAF)


@dataclass(frozen=True)
class Strategy:
    """A finite sequence of shot sets (bitmasks) plus the game variant.

    Repeated shots at one vertex never help (the dynamics only see the
    underlying set), so shot multi-sets are represented as sets; the hunter
    cost of a shot is its cardinality.
    """

    shots: tuple[int, ...]
    variant: str = STANDARD

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidParameterError(f"unknown variant {self.variant!r}")

    def __len__(self) -> int:
        return len(self.shots)

    @property
    def max_hunters(self) -> int:
        """Largest shot size; the number of hunters the strategy needs."""
        return max((s.bit_count() for s in self.shots), default=0)


@dataclass(frozen=True)
class Trace:
    """Position sets trace[0..], stopping at the first empty set if any."""

    sets: tuple[int, ...]
    caught_at: int | None


@dataclass(frozen=True)
class Caught:
    step: int


@dataclass(frozen=True)
class Escaped:
    """A surviving rabbit walk: walk[i] is occupied at time i."""

    walk: tuple[int, ...]


def moves(g: Graph, variant: str) -> tuple[int, ...]:
    """Each vertex's one-round moves: N(v) in the standard game, N[v] for a
    deaf rabbit."""
    if variant == STANDARD:
        return g.adj
    if variant == DEAF:
        return tuple(nv | 1 << v for v, nv in enumerate(g.adj))
    raise InvalidParameterError(f"unknown variant {variant!r}")


def step(nbrs: tuple[int, ...], rabbit: int, shot: int) -> int:
    """One round: the union of the moves of the unshot positions, with nbrs
    the graph's moves in the game played."""
    out = 0
    for v in iter_bits(rabbit & ~shot):
        out |= nbrs[v]
    return out


def run(g: Graph, strategy: Strategy, start: int) -> Trace:
    """Iterate the dynamics from the given start set, stopping when empty."""
    for i, shot in enumerate(strategy.shots):
        if shot & ~g.full_mask:
            raise InvalidStrategyError(f"shot {i + 1} targets vertices outside the graph")
    nbrs = moves(g, strategy.variant)
    sets = [start & g.full_mask]
    caught = 0 if sets[0] == 0 else None
    if caught is None:
        for i, shot in enumerate(strategy.shots):
            sets.append(step(nbrs, sets[-1], shot))
            if sets[-1] == 0:
                caught = i + 1
                break
    return Trace(tuple(sets), caught)


def verify(g: Graph, strategy: Strategy, start: str = "any") -> Caught | Escaped:
    """Decide whether the strategy catches every rabbit from the given start.

    On survival, back-chains a concrete rabbit walk from the final position
    set, always taking the lowest-index valid predecessor so the witness is
    deterministic.
    """
    if start not in ("any", "even", "odd"):
        raise InvalidParameterError(f"start must be any, even or odd, not {start!r}")
    trace = run(g, strategy, side_mask(g, "all" if start == "any" else start))
    if trace.caught_at is not None:
        return Caught(trace.caught_at)
    nbrs = moves(g, strategy.variant)
    last = len(trace.sets) - 1
    walk = [next(iter_bits(trace.sets[last]))]
    for i in range(last - 1, -1, -1):
        candidates = trace.sets[i] & ~strategy.shots[i]
        walk.insert(0, next(iter_bits(candidates & nbrs[walk[0]])))
    return Escaped(tuple(walk))


def concatenate(first: Strategy, second: Strategy) -> Strategy:
    """Play first, then second.  Both must use the same variant."""
    if first.variant != second.variant:
        raise InvalidParameterError("cannot concatenate strategies of different variants")
    return Strategy(first.shots + second.shots, first.variant)


def _shot_parity(shot: int, parts: Bipartition, index: int) -> str | None:
    """'even'/'odd' for a single-part shot, None for an empty one."""
    if shot == 0:
        return None
    if shot & ~parts.even == 0:
        return "even"
    if shot & ~parts.odd == 0:
        return "odd"
    raise InvalidParameterError(f"shot {index + 1} mixes both parts")


def extend_parity(g: Graph, strategy: Strategy) -> Strategy:
    """Extend a parity-respecting strategy to win from any start.

    If the strategy has odd length the shots are simply replayed; if even, an
    empty shot is inserted between the two copies so that a rabbit of the
    other parity lines up with the replay.
    """
    if strategy.variant != STANDARD:
        raise InvalidParameterError("parity extension applies to the standard variant only")
    parts = bipartition(g)
    if parts is None:
        raise InvalidParameterError("parity extension requires a bipartite graph")
    expected: str | None = None
    for i, shot in enumerate(strategy.shots):
        parity = _shot_parity(shot, parts, i)
        if parity is None:
            continue
        anchor = parity if i % 2 == 0 else ("odd" if parity == "even" else "even")
        if expected is None:
            expected = anchor
        elif anchor != expected:
            raise InvalidParameterError(f"shot {i + 1} breaks the alternation of parts")
    if len(strategy) % 2 == 1:
        return concatenate(strategy, strategy)
    gap = Strategy((0,), strategy.variant)
    return concatenate(concatenate(strategy, gap), strategy)


# ---------------------------------------------------------------------------
# Text format
#
#   variant: standard|deaf
#   one line per step: space-separated vertex indices (empty line = no shot)


def format_strategy(strategy: Strategy) -> str:
    lines = [f"variant: {strategy.variant}"]
    for shot in strategy.shots:
        lines.append(" ".join(str(v) for v in iter_bits(shot)))
    return "\n".join(lines) + "\n"


def parse_strategy(text: str) -> Strategy:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("variant:"):
        raise FormatError(1, "expected 'variant: standard|deaf' header")
    variant = lines[0].split(":", 1)[1].strip()
    if variant not in VARIANTS:
        raise FormatError(1, f"unknown variant {variant!r}")
    shots = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            shots.append(0)
            continue
        try:
            vertices = [int(tok) for tok in line.split()]
        except ValueError:
            raise FormatError(lineno, "shot lines must hold integers") from None
        if any(v < 0 for v in vertices):
            raise FormatError(lineno, "vertex indices must be non-negative")
        if len(set(vertices)) != len(vertices):
            raise FormatError(lineno, "repeated vertex in one shot")
        shots.append(mask_of(vertices))
    return Strategy(tuple(shots), variant)


def read_strategy(path: str) -> Strategy:
    with open(path, encoding="utf-8") as fh:
        return parse_strategy(fh.read())


def write_strategy(strategy: Strategy, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_strategy(strategy))


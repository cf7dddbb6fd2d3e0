"""Total orders on subsets and grid cells used by nest orders.

Subsets of {1..n} are encoded as bitmasks (bit j <=> element j+1), matching
the hypercube vertex encoding.  The lex order puts x before y exactly when
the smallest element of the symmetric difference lies in x; sorting same-size
subsets by their ascending element tuples realizes it, and padding the tuples
to full length keeps the comparison correct across sizes ({1,2,3} precedes
{1,2}).  Weightlex sorts by size first, then lex.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator


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


def grid_key(cell: tuple[int, int]):
    """Diagonal sweep order on grid cells: by x+y, ties by smaller x."""
    x, y = cell
    return (x + y, x)


def iter_weightlex(ground: tuple[int, ...], parity: int | None = None) -> Iterator[int]:
    """Subsets of the given ground elements (1-based) in weightlex order.

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


def weightlex_positions(n: int) -> dict[int, int]:
    """1-based weightlex rank of every subset of {1..n}."""
    return {mask: pos for pos, mask in enumerate(iter_weightlex(tuple(range(1, n + 1))), start=1)}

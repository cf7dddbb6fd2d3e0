"""Hypercube quantities computed without brute force.

The minimum neighborhood-union profile of the cube is achieved by weightlex
initial segments, so it decomposes into one difference subsequence per
weight layer.  Those subsequences are the recursively concatenated "arrow"
sequences defined here, and everything else (profiles, surpluses, closed
forms for the hunter number, the deaf-rabbit analogues) is derived from
them.  All counts use Python's arbitrary-precision ints; binomials follow
the convention comb(a, b) = 0 outside 0 <= b <= a so the closed forms can be
evaluated verbatim at their boundary indices.

Subsets of {1..n} are bitmask-encoded exactly like hypercube vertices, so
these functions interoperate with the graph-based modules.
"""

from __future__ import annotations

import math
import operator
from functools import reduce
from itertools import chain

from .errors import CapacityError, InvalidParameterError

# Values in circulation for two Q^4 quantities disagree with direct
# computation; reports surface the difference instead of silently picking one.
# The quoted difference sequence has one extra trailing zero (the even side
# of Q^4 has only 8 vertices) and the quoted surplus is the hunter number
# u+1 = 5 rather than u = 4.
QUOTED_DIFFSEQ_Q4 = (4, 2, 1, 0, 1, 0, 0, 0, 0)
QUOTED_SURPLUS_Q4 = 5

# A difference sequence holds all 2^(n-1) entries of one side, so its memory
# doubles with each dimension: the JSON report of `cube 20 diffseq` peaks at
# 23 MB of RSS under Python 3.11, 20 MB of it the import; n = 40 needs terabytes.
# The scans of the other cube reports stay O(n^2) and take no cap.
MAX_SEQ_DIM = 20


def comb0(a: int, b: int) -> int:
    """Binomial coefficient, 0 whenever b < 0 or b > a."""
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def _check_dim(n: int) -> None:
    if n < 1:
        raise InvalidParameterError("dimension must be at least 1")


# ---------------------------------------------------------------------------
# Arrow sequences
#
# The arrow sequence (a, b) has bases (a, 0) = (a) and (0, b) = (0), and
# (a, b) = (a, b-1) . (a-1, b) under concatenation.  When a + b = m both parts
# lie on a + b = m - 1, so the sequences with a + b = m, listed by b = 0..m,
# form "row m" and follow from row m - 1.  Building the rows in a loop rather
# than by recursion keeps hundreds of dimensions within Python's stack limit.
# Entry (a, b) feeds only entries with larger a or b, so the single sequence
# (n, i) needs only the entries with a <= n and b <= i.
#
# A row holds either the sequences themselves or their summaries
# (length, sum, best, pos): best is the maximum over non-empty prefixes of
# prefix sum minus prefix length, and pos the last prefix length reaching it.
# Summaries concatenate in O(1), so every scan below costs O(m^2) additions.


def _arrow_row(m: int, a_max: int, b_max: int, leaf, join) -> list:
    """Row m of arrow sequences, cut to the (m-b, b) with m-b <= a_max and
    b <= b_max, in order of b.  Each entry is built from leaf(v), standing
    for the sequence (v), and join, standing for concatenation."""
    row = {0: leaf(0)}
    for s in range(1, m + 1):
        row = {b: leaf(s) if b == 0 else leaf(0) if b == s else join(row[b - 1], row[b])
               for b in range(max(0, s - a_max), min(s, b_max) + 1)}
    return list(row.values())


def _single(v: int) -> tuple[int, ...]:
    return (v,)


_Summary = tuple[int, int, int, int]


def _leaf(v: int) -> _Summary:
    return (1, v, v - 1, 1)


def _join(x: _Summary, y: _Summary) -> _Summary:
    length, total, best, pos = x
    y_length, y_total, y_best, y_pos = y
    shifted = total - length + y_best
    if shifted >= best:
        best, pos = shifted, length + y_pos
    return (length + y_length, total + y_total, best, pos)


def arrow_max_scan(n: int, i: int) -> tuple[int, int]:
    """Last position (1-based) and value of the maximum of the running
    prefix-sum-minus-position over the (n, i) arrow sequence."""
    if n < 0 or i < 0:
        raise InvalidParameterError("arrow sequence indices must be non-negative")
    _, _, best, pos = _arrow_row(n + i, n, i, _leaf, _join)[0]
    return pos, best


def arrow_max_position_formula(n: int, i: int) -> int:
    """Stated closed form for where the running maximum lands in (n, i)."""
    if not n > i >= 1:
        raise InvalidParameterError("position formula needs n > i >= 1")
    return (1 + sum(comb0(2 * j, j - 1) for j in range(1, i))
            + sum(comb0(j + i - 1, i - 1) for j in range(i + 1, n + 1)))


def arrow_max_value_formula(n: int, i: int) -> int:
    """Stated closed form for the running maximum's value in (n, i).

    Known not to match arrow_max_scan everywhere (e.g. (4,1): formula 5,
    scan 6); the scan is the trusted value downstream.
    """
    if not n > i >= 1:
        raise InvalidParameterError("value formula needs n > i >= 1")
    k = arrow_max_position_formula(n, i)
    return (sum(comb0(2 * j, j) for j in range(1, i))
            + sum(comb0(j + i - 1, i) for j in range(i + 1, n + 1))) - k


# ---------------------------------------------------------------------------
# Difference sequences and profiles


def _diff_layers(n: int, side: str, leaf, join) -> list:
    """The weight layers of the even or odd side of Q^n in order, each built
    from leaf and join as in _arrow_row.

    Layer i is the arrow sequence (n-i, i), except that layer 1's first
    vertex is the only one whose neighborhood reaches down to a vertex (the
    empty set) not covered earlier in the scan, so its leading entry is n
    instead of n-1.  It is the only leaf of value n-1 that reaches a layer,
    so swapping that leaf value fixes it for any leaf type.
    """
    _check_dim(n)
    if n > MAX_SEQ_DIM:
        raise CapacityError(f"a difference sequence of dimension {n} has 2^{n - 1} entries; "
                            f"the supported maximum dimension is {MAX_SEQ_DIM}")
    if side not in ("even", "odd"):
        raise InvalidParameterError(f"side must be even or odd, not {side!r}")
    layers = _arrow_row(n, n, n, lambda v: leaf(n if v == n - 1 else v), join)
    return layers[0 if side == "even" else 1::2]


def cube_diff_seq(n: int, side: str = "even") -> tuple[int, ...]:
    """Difference sequence of the whole even or odd side of Q^n, the first
    differences of its minimum neighborhood-union profile: the subsequences
    of its weight layers in order."""
    return tuple(chain.from_iterable(_diff_layers(n, side, _single, operator.add)))


def cube_diff_text(n: int, side: str = "even") -> str:
    """cube_diff_seq(n, side) as decimals separated by single spaces, built
    as text: each arrow sequence is its entries' text, joined by a space."""
    return " ".join(_diff_layers(n, side, str, lambda x, y: f"{x} {y}"))


def cube_min_union(n: int, k: int, side: str = "even") -> int:
    """Analytic minimum union of k neighborhoods on one side of Q^n."""
    seq = cube_diff_seq(n, side)
    if not 1 <= k <= len(seq):
        raise InvalidParameterError(f"k={k} out of range 1..{len(seq)}")
    return sum(seq[:k])


def cube_surplus(n: int) -> int:
    """max over k of cube_min_union(n, k) - k (the two sides agree).

    The even side's layers 0, 2, 4, ... are the arrow sequences (n-i, i) of
    row n, so the maximum is that of their concatenated summaries.
    """
    _check_dim(n)
    return reduce(_join, _arrow_row(n, n, n, _leaf, _join)[::2])[2]


def cube_hunter_number(n: int) -> int:
    """Closed form 1 + sum of comb(i, floor(i/2)) for i = 0..n-2."""
    _check_dim(n)
    return 1 + sum(math.comb(i, i // 2) for i in range(n - 1))


def cube_hunter_upper(n: int) -> int:
    """Upper bound comb(n, floor(n/2)) from projecting the cube onto the
    weight path (fibers are the layers)."""
    if n < 0:
        raise InvalidParameterError("dimension must be non-negative")
    return math.comb(n, n // 2)


def cube_surplus_closed_form(n: int) -> int:
    """Closed form for cube_surplus, split by n mod 4."""
    if n < 2:
        raise InvalidParameterError("closed form needs n >= 2")
    quarter = -(-n // 4)
    if n % 4 in (0, 3):
        head = (sum(comb0(n, 2 * i + 1) for i in range(quarter))
                - sum(comb0(n, 2 * i) for i in range(quarter)))
    else:
        head = (sum(comb0(n, 2 * i) for i in range(quarter))
                - sum(comb0(n, 2 * i - 1) for i in range(quarter)))
    tail = (sum(comb0(2 * i, i) for i in range(1, n // 2))
            - sum(comb0(2 * i, i - 1) for i in range(1, n // 2)))
    return head + tail


# ---------------------------------------------------------------------------
# Deaf rabbit


def cube_deaf_surplus(n: int) -> int:
    """max over k of the closed profile value minus k; one less than the
    deaf-rabbit hunter number of Q^n."""
    _check_dim(n)
    return reduce(_join, _arrow_row(n, n, n, _leaf, _join)[1:], _leaf(n + 1))[2]


def cube_deaf_closed_form(n: int) -> int:
    """Stated closed form for the deaf-rabbit cube quantity.

    Tracks the surplus rather than surplus+1 where it is right at all, and
    at n = 3 it matches neither (formula 3, scanned surplus 4); reports show
    it next to the scan instead of trusting it.
    """
    _check_dim(n)
    half = n // 2
    return (math.comb(n, -(-n // 2))
            - sum(comb0(2 * i, i - 1) for i in range(1, half))
            + sum(comb0(2 * i, i) for i in range(1, half)))

import functools
import math
import random
import re
from itertools import accumulate

import pytest
from conftest import (
    arrow_len,
    arrow_len_sum,
    arrow_seq,
    arrow_sum,
    compress_fully,
    compress_ij,
    cube_deaf_closed_profile,
    decompose_ij,
    initial_even_segment,
    is_compressed,
    iter_arrow,
    layer_diff_seq,
    max_prefix_surplus,
    subset_neighborhood,
    weightlex_coverage,
    weightlex_positions,
)

from huntrab import cli
from huntrab.cube import (
    MAX_SEQ_DIM,
    QUOTED_DIFFSEQ_Q4,
    QUOTED_SURPLUS_Q4,
    arrow_max_position_formula,
    arrow_max_scan,
    arrow_max_value_formula,
    comb0,
    cube_deaf_closed_form,
    cube_deaf_surplus,
    cube_diff_seq,
    cube_diff_text,
    cube_hunter_number,
    cube_hunter_upper,
    cube_min_union,
    cube_surplus,
    cube_surplus_closed_form,
)
from huntrab.errors import CapacityError, InvalidParameterError


def subset(*elements: int) -> int:
    out = 0
    for e in elements:
        out |= 1 << (e - 1)
    return out


def cube_layer(n: int, i: int) -> tuple[int, ...]:
    """Weight layer i of Q^n as the library lays it out: a slice of the
    difference sequence of the side that holds the layer."""
    start = sum(math.comb(n, j) for j in range(i % 2, i, 2))
    values = cube_diff_seq(n, "odd" if i % 2 else "even")
    return values[start:start + math.comb(n, i)]


@functools.cache
def deaf_diffs(n: int) -> tuple[int, ...]:
    profile = (0,) + cube_deaf_closed_profile(n)
    return tuple(b - a for a, b in zip(profile, profile[1:]))


def deaf_layer(n: int, i: int) -> tuple[int, ...]:
    """Layer i >= 1 of the first differences of the library's closed
    profile of Q^n, which is the arrow sequence (n-i, i)."""
    start = sum(math.comb(n, j) for j in range(i))
    return deaf_diffs(n)[start:start + math.comb(n, i)]


def test_comb0_convention():
    assert comb0(4, 2) == 6
    assert comb0(4, -1) == 0
    assert comb0(2, 3) == 0
    assert comb0(0, 0) == 1


# ---------------------------------------------------------------------------
# Arrow sequences


def test_arrow_seq_worked_examples():
    assert arrow_seq(4, 1) == (4, 3, 2, 1, 0)
    assert arrow_seq(3, 2) == (3, 2, 1, 0, 2, 1, 0, 1, 0, 0)
    assert arrow_seq(2, 3) == (2, 1, 0, 1, 0, 0, 1, 0, 0, 0)
    assert sum(arrow_seq(2, 3)) == 5
    assert arrow_seq(5, 0) == (5,)
    assert arrow_seq(0, 4) == (0,)
    with pytest.raises(InvalidParameterError):
        arrow_max_scan(-1, 2)


def test_arrow_len_and_sum_closed_forms():
    assert arrow_len(3, 2) == 10
    assert arrow_sum(4, 1) == 10
    assert arrow_len(5, 0) == 1
    for n in range(13):
        for i in range(13):
            if n + i <= 16:
                values = arrow_seq(n, i)
                length, total = len(values), sum(values)
            else:
                length, total = arrow_len_sum(n, i)
            assert length == arrow_len(n, i), (n, i)
            assert total == arrow_sum(n, i), (n, i)


def test_arrow_recursion_identity():
    # on the library's sequences: layer i of the closed profile of Q^(n+i)
    for n in range(1, 9):
        assert deaf_layer(n + 1, 1) == (n,) + deaf_layer(n, 1)
        for i in range(2, 9):
            assert deaf_layer(n + i, i) == deaf_layer(n + i - 1, i - 1) + deaf_layer(n + i - 1, i)


def test_iter_arrow_matches_materialized():
    for n in range(1, 13):
        for i in range(1, n + 1):
            assert tuple(iter_arrow(n - i, i)) == deaf_layer(n, i), (n, i)


def test_arrow_blocks_cover_the_sequence():
    # unrolling the recursion: n^i = n^(i-1) . (n-1)^(i-1) ... 0^(i-1)
    for n in range(1, 8):
        for i in range(1, 6):
            joined = ()
            for k in range(n, -1, -1):
                joined += arrow_seq(k, i - 1)
            assert joined == arrow_seq(n, i)


def test_running_max_stays_in_the_expected_block():
    # decomposing n^i into the k^(i-1) blocks for k = n down to 0, the last
    # running maximum of prefix-sum-minus-position falls inside the i^(i-1)
    # block for n > i
    for n in range(2, 11):
        for i in range(1, n):
            pos, _ = arrow_max_scan(n, i)
            offset = sum(arrow_len(k, i - 1) for k in range(n, i, -1))
            assert offset < pos <= offset + arrow_len(i, i - 1), (n, i, pos)


def test_arrow_max_scan_matches_streamed_scan():
    for n in range(19):
        for i in range(19 - n):
            assert arrow_max_scan(n, i) == max_prefix_surplus(iter_arrow(n, i)), (n, i)
    with pytest.raises(InvalidParameterError):
        arrow_max_scan(3, -1)


def test_max_position_and_value_formulas():
    assert arrow_max_position_formula(4, 1) == 4
    assert arrow_max_scan(4, 1) == (4, 6)
    # the stated value formula disagrees with the scan here: 5 vs 6
    assert arrow_max_value_formula(4, 1) == 5
    with pytest.raises(InvalidParameterError):
        arrow_max_position_formula(2, 2)


def test_position_formula_matches_scan_widely():
    for n in range(2, 9):
        for i in range(1, n):
            assert arrow_max_position_formula(n, i) == arrow_max_scan(n, i)[0], (n, i)


# ---------------------------------------------------------------------------
# Difference sequences


def test_layer_diff_seq_examples():
    assert cube_layer(7, 2) == layer_diff_seq(7, 2) == (
        5, 4, 3, 2, 1, 0, 4, 3, 2, 1, 0, 3, 2, 1, 0, 2, 1, 0, 1, 0, 0)
    assert cube_layer(5, 1) == layer_diff_seq(5, 1) == (5, 3, 2, 1, 0)
    assert cube_layer(4, 0) == layer_diff_seq(4, 0) == (4,)
    assert cube_layer(1, 1) == layer_diff_seq(1, 1) == (1,)
    with pytest.raises(InvalidParameterError):
        cube_diff_seq(3, "layer-1")


def test_layer_diff_lengths_match_layer_sizes():
    for n in range(1, 13):
        for i in range(n + 1):
            assert len(layer_diff_seq(n, i)) == math.comb(n, i)
            assert cube_layer(n, i) == layer_diff_seq(n, i), (n, i)


def test_layer_diff_recursion_identity():
    for n in range(4, 13):
        for i in range(3, n):
            assert cube_layer(n, i) == cube_layer(n - 1, i - 1) + cube_layer(n - 1, i)


def test_layer_diff_recursion_at_i2_needs_the_generic_layer1_form():
    # layer 1's special leading entry (its first vertex also covers the empty
    # set below it) breaks the concatenation identity at i = 2; with the
    # generic arrow form for layer 1 the identity is the arrow recursion
    for n in range(4, 13):
        special = cube_layer(n - 1, 1)
        generic = arrow_seq(n - 2, 1)
        assert special != generic
        assert cube_layer(n, 2) == generic + cube_layer(n - 1, 2)
        assert cube_layer(n, 2) != special + cube_layer(n - 1, 2)


def test_cube_diff_seq_values():
    assert cube_diff_seq(4, "even") == (4, 2, 1, 0, 1, 0, 0, 0)
    assert cube_diff_seq(3, "even") == (3, 1, 0, 0)
    assert cube_diff_seq(4, "even") != QUOTED_DIFFSEQ_Q4
    assert cube_diff_seq(4, "even") == QUOTED_DIFFSEQ_Q4[:-1]
    for n in range(1, 9):
        assert len(cube_diff_seq(n, "even")) == 1 << (n - 1)
        assert cube_diff_seq(n, "even") == cube_diff_seq(n, "odd")


@pytest.mark.parametrize("side", ["even", "odd"])
def test_cube_diff_text_is_the_sequence_in_decimals(side):
    for n in range(1, MAX_SEQ_DIM + 1):
        assert cube_diff_text(n, side) == " ".join(map(str, cube_diff_seq(n, side))), n


@pytest.mark.parametrize("n, side, error", [(0, "even", InvalidParameterError),
                                            (MAX_SEQ_DIM + 1, "odd", CapacityError),
                                            (3, "layer-1", InvalidParameterError)])
def test_cube_diff_text_refuses_what_the_sequence_refuses(n, side, error):
    with pytest.raises(error) as seq_error:
        cube_diff_seq(n, side)
    with pytest.raises(error, match=f"^{re.escape(str(seq_error.value))}$"):
        cube_diff_text(n, side)


def test_diff_seq_dimension_cap(capsys):
    assert MAX_SEQ_DIM >= 18  # the largest diffseq report the benchmark asks for
    with pytest.raises(CapacityError):
        cube_diff_seq(MAX_SEQ_DIM + 1)
    with pytest.raises(CapacityError):
        cube_min_union(MAX_SEQ_DIM + 1, 1)
    for argv in (["diffseq"], ["mun", "3"]):
        assert cli.main(["cube", str(MAX_SEQ_DIM + 1), *argv]) == 2
        assert "maximum dimension" in capsys.readouterr().err


def test_cube_min_union_and_surplus():
    assert cube_min_union(4, 2, "even") == 6
    assert tuple(accumulate(cube_diff_seq(4, "even"))) == (4, 6, 7, 7, 8, 8, 8, 8)
    assert cube_surplus(3) == 2
    assert cube_surplus(4) == 4
    assert cube_surplus(4) != QUOTED_SURPLUS_Q4
    with pytest.raises(InvalidParameterError):
        cube_min_union(3, 5, "even")


def test_diff_seq_and_surplus_match_coverage_oracle():
    for n in range(1, 11):
        for parity, side in enumerate(("even", "odd")):
            covered = tuple(weightlex_coverage(n, parity=parity))
            assert tuple(accumulate(cube_diff_seq(n, side))) == covered, (n, side)
    for n in range(1, 19):
        covered = weightlex_coverage(n, parity=0)
        assert cube_surplus(n) == max(c - k for k, c in enumerate(covered, start=1)), n


# ---------------------------------------------------------------------------
# Closed forms


def test_hunter_number_closed_form():
    assert cube_hunter_number(1) == 1
    assert cube_hunter_number(2) == 2
    assert cube_hunter_number(4) == 5
    assert cube_hunter_number(7) == 24


def test_closed_form_chain_up_to_14():
    for n in range(2, 15):
        hun = cube_hunter_number(n)
        assert cube_surplus(n) + 1 == hun
        assert cube_surplus_closed_form(n) + 1 == hun
        assert hun <= cube_hunter_upper(n)


def test_hunter_upper():
    assert cube_hunter_upper(4) == 6
    assert cube_hunter_upper(3) == 3
    assert cube_hunter_upper(1) == 1


def test_surplus_closed_form_examples():
    assert cube_surplus_closed_form(4) == 4
    assert cube_surplus_closed_form(3) == 2
    assert cube_surplus_closed_form(5) == 7 == cube_hunter_number(5) - 1


# ---------------------------------------------------------------------------
# Compression


def test_decompose_reassemble_round_trip():
    rng = random.Random(12)
    evens6 = sorted(initial_even_segment(6, 32))
    for _ in range(100):
        fam = frozenset(v for v in evens6 if rng.random() < 0.5)
        i = rng.randrange(1, 7)
        j = rng.randrange(1, 7)
        while j == i:
            j = rng.randrange(1, 7)
        dec = decompose_ij(fam, i, j, 6)
        assert sum(dec.sizes()) == len(fam)
        assert dec.reassemble() == fam


def test_compress_ij_worked_example():
    fam = frozenset({subset(1, 4), subset(2, 3)})
    out = compress_ij(fam, 1, 2, 4)
    assert out == frozenset({subset(1, 3), subset(2, 3)})
    assert len(subset_neighborhood(fam, 4)) == 8
    assert len(subset_neighborhood(out, 4)) == 6


def test_compress_ij_fixes_initial_segments():
    for size in range(9):
        seg = initial_even_segment(4, size)
        for i in range(1, 5):
            for j in range(i + 1, 5):
                assert compress_ij(seg, i, j, 4) == seg


def test_compress_ij_preserves_size_on_random_families():
    rng = random.Random(77)
    for n in (5, 6):
        evens = sorted(initial_even_segment(n, 1 << (n - 1)))
        for _ in range(250):
            fam = frozenset(v for v in evens if rng.random() < 0.45)
            i = rng.randrange(1, n + 1)
            j = rng.randrange(1, n + 1)
            while j == i:
                j = rng.randrange(1, n + 1)
            out = compress_ij(fam, i, j, n)
            assert len(out) == len(fam)
            assert len(subset_neighborhood(out, n)) <= len(subset_neighborhood(fam, n))


def test_compress_rejects_odd_weight_members():
    with pytest.raises(InvalidParameterError):
        compress_ij({subset(1)}, 1, 2, 3)
    with pytest.raises(InvalidParameterError):
        compress_ij({subset(1, 2)}, 1, 1, 3)


def test_compress_fully():
    seg = initial_even_segment(4, 5)
    out, steps = compress_fully(seg, 4)
    assert out == seg and steps == 0

    fam = frozenset({subset(1, 4), subset(2, 3)})
    out, steps = compress_fully(fam, 4)
    assert is_compressed(out, 4)
    assert steps >= 1
    assert len(subset_neighborhood(out, 4)) <= 6

    positions = weightlex_positions(4)
    assert steps <= sum(positions[x] for x in fam)


def test_compressed_families_need_not_be_segments_but_lose_no_ground():
    # exhaustive over the even side of the 4-cube: a fully compressed family
    # never has a smaller neighborhood than the initial segment of its size
    evens = sorted(initial_even_segment(4, 8))
    for selector in range(256):
        fam = frozenset(evens[b] for b in range(8) if selector >> b & 1)
        out, _ = compress_fully(fam, 4)
        assert len(out) == len(fam)
        seg = initial_even_segment(4, len(fam))
        assert len(subset_neighborhood(out, 4)) >= len(subset_neighborhood(seg, 4))


# ---------------------------------------------------------------------------
# Deaf rabbit


def test_deaf_closed_profile_q3():
    assert cube_deaf_closed_profile(3) == (4, 6, 7, 7, 8, 8, 8, 8)
    assert cube_deaf_closed_profile(2) == (3, 4, 4, 4)


def test_deaf_profile_and_surplus_match_coverage_oracle():
    for n in range(1, 17):
        profile = tuple(weightlex_coverage(n, closed=True))
        assert cube_deaf_closed_profile(n) == profile, n
        assert cube_deaf_surplus(n) == max(c - k for k, c in enumerate(profile, start=1)), n


def test_deaf_surplus_scan_values():
    assert cube_deaf_surplus(2) == 2
    assert cube_deaf_surplus(3) == 4
    assert cube_deaf_surplus(4) == 7


def test_deaf_closed_form_values_and_known_mismatch():
    assert [cube_deaf_closed_form(n) for n in (2, 3, 4)] == [2, 3, 7]
    assert cube_deaf_closed_form(2) == cube_deaf_surplus(2)
    assert cube_deaf_closed_form(3) != cube_deaf_surplus(3)
    assert cube_deaf_closed_form(4) == cube_deaf_surplus(4)


def test_deaf_scan_matches_exact_solver():
    from huntrab.dynamics import DEAF
    from huntrab.graphs import hypercube_graph
    from huntrab.solver import hunter_number

    for n in (1, 2, 3):
        assert hunter_number(hypercube_graph(n), DEAF).hunter_number == cube_deaf_surplus(n) + 1


def test_scan_dimension_capacity(capsys):
    with pytest.raises(InvalidParameterError):
        cube_deaf_surplus(0)
    assert cli.main(["--json", "cube", "600", "deaf"]) == 0

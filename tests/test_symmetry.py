"""The search on small symmetric graphs (conftest.QUOTIENT_CASES) on any
numbering, against its oracles: the reference reachability search, which
keeps no antichain, and the FIFO dominance search, whose witnesses are
shortest."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    QUOTIENT_CASES,
    fifo_can_clear,
    naive_can_clear,
    random_graph,
    relabelled,
    searched_hunter_number,
)
from huntrab.dynamics import DEAF, STANDARD, Caught, Strategy, run, verify
from huntrab.graphs import bipartition, cycle_graph, graph_from_edges, grid_graph, hypercube_graph
from huntrab.solver import CLEARED, can_clear


def search_start(g, variant):
    parts = bipartition(g) if variant == STANDARD and g.n > 1 else None
    return g.full_mask if parts is None else parts.even


def catches(g, result, variant, start, k):
    return max((s.bit_count() for s in result.shots), default=0) <= k and \
        run(g, Strategy(result.shots, variant), start).caught_at is not None


# ---------------------------------------------------------------------------
# The search against the reference reachability search


def agree_with_reference_search(g, variant, seeds=(None,)):
    """Every k up to the first that clears, on g and on its relabellings by
    the seeds: the status of the reference search, which does not depend on
    the numbering, and a witness that catches from the start."""
    numberings = [g if seed is None else relabelled(g, seed) for seed in seeds]
    for k in range(1, g.n + 1):
        cleared = naive_can_clear(g, k, variant, search_start(g, variant))
        for numbered in numberings:
            start = search_start(numbered, variant)
            result = can_clear(numbered, k, variant, start=start)
            case = (list(numbered.edges()), variant, k)
            assert (result.status == CLEARED) == cleared, case
            if cleared:
                assert catches(numbered, result, variant, start, k), case
        if cleared:
            return


@pytest.mark.parametrize("variant", [STANDARD, DEAF])
@pytest.mark.parametrize("g", QUOTIENT_CASES, ids=lambda g: f"n{g.n}m{g.edge_count}")
def test_quotient_search_matches_the_plain_search(g, variant):
    agree_with_reference_search(g, variant, (None, 7))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                        .filter(lambda e: e[0] < e[1]))),
), st.sampled_from([STANDARD, DEAF]), st.integers(0, 2 ** 16))
def test_quotient_search_on_random_graphs(graph, variant, seed):
    n, edges = graph
    g = graph_from_edges(n, sorted(edges))
    agree_with_reference_search(relabelled(g, seed), variant)


@pytest.mark.parametrize("g, variant, h", [
    # the starts whose first charge C(|start|, k) passed n^2, for which
    # solve once built the automorphism group: 56 vs 256, 286 vs 625, 10 vs
    # 25, 12,870 vs 256, 4,368 vs 256, 220 vs 144 and 3,060 vs 1,296
    (hypercube_graph(4), STANDARD, 5), (grid_graph(5, 5), STANDARD, 3),
    (cycle_graph(5), STANDARD, 2),
    (hypercube_graph(4), DEAF, 8), (grid_graph(4, 4), DEAF, 5), (cycle_graph(12), DEAF, 3),
    (relabelled(grid_graph(6, 6), 10), STANDARD, 4),
], ids=["q4", "grid5x5", "c5", "q4-deaf", "grid4x4-deaf", "c12-deaf", "grid6x6"])
def test_solve_finds_the_group_only_for_a_costly_start(g, variant, h):
    # a nest strategy answers each of these with no search, so the search
    # is run on its own; it expands fewer than n^2 states in all, with no
    # group
    result = searched_hunter_number(g, variant)
    assert result.hunter_number == h and result.route == "search"
    assert result.explored_states < g.n ** 2
    assert isinstance(verify(g, result.witness), Caught)


# ---------------------------------------------------------------------------
# The search against the FIFO one


def agree_with_fifo_search(g, variant):
    """Every k up to the first that clears: the status of the FIFO search
    that expands every admitted state, no more states expanded, and a
    witness that catches from the start and is no shorter than the FIFO
    one, which is shortest."""
    start = search_start(g, variant)
    for k in range(1, g.n + 1):
        fifo = fifo_can_clear(g, k, variant, start)
        result = can_clear(g, k, variant, start=start)
        case = (list(g.edges()), variant, k)
        assert result.status == fifo.status, case
        assert result.explored <= fifo.explored, case
        if fifo.status == CLEARED:
            assert len(result.shots) >= len(fifo.shots), case
            assert catches(g, result, variant, start, k), case
            return


@pytest.mark.parametrize("variant", [STANDARD, DEAF])
@pytest.mark.parametrize("g", QUOTIENT_CASES, ids=lambda g: f"n{g.n}m{g.edge_count}")
def test_layered_search_matches_the_fifo_search(g, variant):
    for seed in (None, 7):
        agree_with_fifo_search(g if seed is None else relabelled(g, seed), variant)


def test_layered_search_matches_the_fifo_search_on_random_graphs():
    rng = random.Random(1919)
    for _ in range(200):
        g = random_graph(rng, 10, rng.choice([None, 0.3, 0.5]))
        agree_with_fifo_search(g, rng.choice([STANDARD, DEAF]))

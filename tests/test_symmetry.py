import random
import time
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fifo_can_clear, random_graph, relabelled, searched_hunter_number
from huntrab import symmetry
from huntrab.dynamics import DEAF, STANDARD, Caught, Strategy, run, verify
from huntrab.graphs import (
    bipartition,
    cycle_graph,
    graph_from_edges,
    grid_graph,
    hypercube_graph,
    iter_bits,
    mask_of,
    path_graph,
    star_graph,
)
from huntrab.solver import CLEARED, can_clear
from huntrab.symmetry import _Path, automorphism_group


def complete_graph(n):
    return graph_from_edges(n, list(combinations(range(n), 2)))


def circulant(n, jumps):
    return graph_from_edges(n, sorted({tuple(sorted((v, (v + j) % n))) for v in range(n) for j in jumps}))


def product(g, h):
    """Cartesian product: (a, b) is vertex a * h.n + b."""
    edges = [(a * h.n + b, a * h.n + c) for a in range(g.n) for b, c in h.edges()]
    edges += [(a * h.n + b, c * h.n + b) for a, c in g.edges() for b in range(h.n)]
    return graph_from_edges(g.n * h.n, edges)


PETERSEN = graph_from_edges(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def edge_set(g):
    return set(g.edges())


def is_automorphism(g, perm):
    return sorted(perm) == list(range(g.n)) and \
        {tuple(sorted((perm[u], perm[v]))) for u, v in g.edges()} == edge_set(g)


def image(perm, mask):
    return mask_of(perm[v] for v in range(len(perm)) if mask >> v & 1)


# ---------------------------------------------------------------------------
# The group


ORDERS = [(cycle_graph(n), 2 * n) for n in range(3, 10)]
ORDERS += [(path_graph(n), 2) for n in range(2, 9)]
ORDERS += [(grid_graph(m, n), 8 if m == n else 4) for m in range(2, 6) for n in range(m, 7)]
ORDERS += [(hypercube_graph(n), 2 ** n * factorial(n)) for n in range(1, 5)]
ORDERS += [(PETERSEN, 120), (path_graph(1), 1), (graph_from_edges(0, []), 1)]


@pytest.mark.parametrize("g, order", ORDERS, ids=lambda x: str(x) if isinstance(x, int) else f"n{x.n}")
def test_group_order_on_any_numbering(g, order):
    for seed in (None, 1, 2):
        h = g if seed is None else relabelled(g, seed)
        group = automorphism_group(h)
        # small enough to list whole: every element distinct and a real
        # automorphism, the identity first
        assert len(set(group.elements)) == len(group.elements) == order
        assert group.elements[0] == tuple(range(h.n))
        assert all(is_automorphism(h, perm) for perm in group.elements)


@pytest.mark.parametrize("g, order, size", [
    # 6! of the 10! and 4! of the 63!: one more level would overflow the
    # image tables, 1 MB at 1 KB (star 10) and 16 KB (star 63) per element
    (star_graph(10), factorial(10), 720), (star_graph(63), factorial(63), 24),
    (complete_graph(8), factorial(8), 720),
], ids=["star10", "star63", "K8"])
def test_stars_and_complete_graphs_list_a_capped_stabiliser(g, order, size):
    started = time.perf_counter()
    group = automorphism_group(relabelled(g, 3))
    assert time.perf_counter() - started < 1
    assert len(group.elements) == size
    assert order % size == 0
    # the listed elements form a group: closed under composition
    listed = set(group.elements)
    sample = random.Random(4).sample(group.elements, min(20, len(group.elements)))
    assert all(tuple(a[x] for x in b) in listed for a in sample for b in sample)


def shrikhande_and_rook():
    """The Shrikhande graph on 0..15 and the 4x4 rook's graph on 16..31:
    strongly regular with the same parameters, so refinement cannot tell
    their vertices apart, and no automorphism maps one onto the other."""
    z4 = [(a, b) for a in range(4) for b in range(4)]
    shrikhande = {tuple(sorted((4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)))
                  for a, b in z4 for da, db in ((1, 0), (0, 1), (1, 1))}
    rook = {(4 * a + b, 4 * c + d) for (a, b), (c, d) in combinations(z4, 2) if a == c or b == d}
    return graph_from_edges(32, sorted(shrikhande) + [(u + 16, v + 16) for u, v in rook])


def test_a_leaf_map_that_breaks_an_edge_is_refused():
    g = shrikhande_and_rook()
    path = _Path(g.adj)
    cells, t, b, _ = path.levels[0]
    other = next(w for w in iter_bits(cells[t]) if (w < 16) != (b < 16))
    assert path.search(0, cells, other) is None


def refinements(monkeypatch, g) -> int:
    """The refinements automorphism_group(g) makes in its searches."""
    paths = []
    search = _Path.search

    def spy(self, *args):
        paths.append(self)
        return search(self, *args)

    monkeypatch.setattr(_Path, "search", spy)
    automorphism_group(g)
    monkeypatch.undo()
    return paths[-1].nodes if paths else 0


def test_a_star_searches_only_the_levels_it_lists(monkeypatch):
    # searching all 62 levels of the chain takes 1,953 refinements
    assert refinements(monkeypatch, relabelled(star_graph(63), 3)) <= 100


def test_the_table_cap_ends_the_walk_below_a_costly_level(monkeypatch):
    # below a point of the other graph every branch runs to a leaf that is
    # no automorphism, 449,280 leaves without the node limit; the table cap
    # ends the walk first, with 192 elements from the levels below
    g = relabelled(shrikhande_and_rook(), 9)
    started = time.perf_counter()
    group = automorphism_group(g)
    assert time.perf_counter() - started < 5
    assert len(group.elements) == 192
    assert all(is_automorphism(g, perm) for perm in group.elements)
    assert refinements(monkeypatch, g) <= 100


def test_the_node_limit_keeps_a_stabiliser(monkeypatch):
    # Q4's walk makes 10 refinements, the last at its shallowest level:
    # one fewer keeps the finished, deeper levels, listed as before
    g = relabelled(hypercube_graph(4), 3)
    whole = automorphism_group(g).elements
    for limit, listed in ((10, 384), (9, 24)):
        monkeypatch.setattr(symmetry, "MAX_SEARCH_NODES", limit)
        assert automorphism_group(g).elements == whole[:listed]


def test_more_than_64_vertices_get_the_identity_alone():
    group = automorphism_group(cycle_graph(65))
    assert group.elements == [tuple(range(65))]
    # the 128 elements of C64 overflow the image tables at 16 KB each; the
    # stabiliser of a point is listed
    assert len(automorphism_group(cycle_graph(64)).elements) == 2


def test_canonical_form_is_the_least_image():
    rng = random.Random(5)
    for g in (hypercube_graph(4), grid_graph(3, 4), relabelled(PETERSEN, 6), cycle_graph(9)):
        group = automorphism_group(g)
        for _ in range(50):
            state = rng.getrandbits(g.n)
            images = [image(perm, state) for perm in group.elements]
            least = group.canonical(state)
            assert least == min(images)
            # constant on the orbit
            assert all(group.canonical(other) == least for other in images[:10])
            assert image(group.carrier(state, least), state) == least


# ---------------------------------------------------------------------------
# The orbit-quotiented search against the plain one


QUOTIENT_CASES = [cycle_graph(n) for n in (5, 6, 8)]
QUOTIENT_CASES += [circulant(8, (1, 2)), circulant(9, (1, 3)), circulant(10, (1, 4))]
QUOTIENT_CASES += [grid_graph(2, 4), grid_graph(3, 3), grid_graph(3, 4)]
QUOTIENT_CASES += [hypercube_graph(n) for n in range(1, 5)]
QUOTIENT_CASES += [PETERSEN, product(cycle_graph(4), path_graph(2)), product(path_graph(3), cycle_graph(4)),
                   product(complete_graph(3), complete_graph(3)), star_graph(5)]


def agree_with_plain_search(g, variant):
    """Every k up to the first that clears: the same status and witness
    length as the plain search, and a witness that catches from the start."""
    group = automorphism_group(g)
    parts = bipartition(g) if variant == STANDARD and g.n > 1 else None
    start = g.full_mask if parts is None else parts.even
    for k in range(1, g.n + 1):
        plain = can_clear(g, k, variant, start=start)
        quotient = can_clear(g, k, variant, start=start, group=group)
        assert quotient.status == plain.status, (list(g.edges()), variant, k)
        if plain.status == CLEARED:
            assert len(quotient.shots) == len(plain.shots), (list(g.edges()), variant, k)
            assert max(s.bit_count() for s in quotient.shots) <= k
            assert run(g, Strategy(quotient.shots, variant), start).caught_at is not None
            return


@pytest.mark.parametrize("variant", [STANDARD, DEAF])
@pytest.mark.parametrize("g", QUOTIENT_CASES, ids=lambda g: f"n{g.n}m{g.edge_count}")
def test_quotient_search_matches_the_plain_search(g, variant):
    for seed in (None, 7):
        agree_with_plain_search(g if seed is None else relabelled(g, seed), variant)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                        .filter(lambda e: e[0] < e[1]))),
), st.sampled_from([STANDARD, DEAF]), st.integers(0, 2 ** 16))
def test_quotient_search_on_random_graphs(graph, variant, seed):
    n, edges = graph
    g = graph_from_edges(n, sorted(edges))
    agree_with_plain_search(relabelled(g, seed), variant)


@pytest.mark.parametrize("g, variant, listed", [
    # the start's first charge C(|start|, k) against n^2: 56 vs 256, 286 vs
    # 625, 10 vs 25
    (hypercube_graph(4), STANDARD, 1), (grid_graph(5, 5), STANDARD, 1),
    (cycle_graph(5), STANDARD, 1),
    # 12,870 vs 256, 4,368 vs 256, 220 vs 144, and 3,060 vs 1,296 for grid
    # 6x6, whose quarter turns swap the parts that the search alternates
    (hypercube_graph(4), DEAF, 384), (grid_graph(4, 4), DEAF, 8), (cycle_graph(12), DEAF, 24),
    (relabelled(grid_graph(6, 6), 10), STANDARD, 8),
], ids=["q4", "grid5x5", "c5", "q4-deaf", "grid4x4-deaf", "c12-deaf", "grid6x6"])
def test_solve_finds_the_group_only_for_a_costly_start(g, variant, listed):
    # a nest strategy answers each of these with no search, so the search
    # is run on its own
    result = searched_hunter_number(g, variant)
    assert result.group_order == listed
    assert isinstance(verify(g, result.witness), Caught)


# ---------------------------------------------------------------------------
# The layered search against the FIFO one


def agree_with_fifo_search(g, variant, group):
    """Every k up to the first that clears, with and without the group: the
    same status and witness length as the FIFO search that expands every
    admitted state, no more states expanded, and a witness that catches from
    the start."""
    parts = bipartition(g) if variant == STANDARD and g.n > 1 else None
    start = g.full_mask if parts is None else parts.even
    for k in range(1, g.n + 1):
        for listed in (None, group):
            fifo = fifo_can_clear(g, k, variant, start, listed)
            layered = can_clear(g, k, variant, start=start, group=listed)
            case = (list(g.edges()), variant, k, listed is not None)
            assert layered.status == fifo.status, case
            assert layered.explored <= fifo.explored, case
            if fifo.status == CLEARED:
                assert len(layered.shots) == len(fifo.shots), case
                assert max((s.bit_count() for s in layered.shots), default=0) <= k, case
                assert run(g, Strategy(layered.shots, variant), start).caught_at is not None, case
        if fifo.status == CLEARED:
            return


@pytest.mark.parametrize("variant", [STANDARD, DEAF])
@pytest.mark.parametrize("g", QUOTIENT_CASES, ids=lambda g: f"n{g.n}m{g.edge_count}")
def test_layered_search_matches_the_fifo_search(g, variant):
    for seed in (None, 7):
        h = g if seed is None else relabelled(g, seed)
        agree_with_fifo_search(h, variant, automorphism_group(h))


def test_layered_search_matches_the_fifo_search_on_random_graphs():
    rng = random.Random(1919)
    for _ in range(200):
        g = random_graph(rng, 10, rng.choice([None, 0.3, 0.5]))
        agree_with_fifo_search(g, rng.choice([STANDARD, DEAF]), automorphism_group(g))

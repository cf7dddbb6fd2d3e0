import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import adjacency_sets, brute_degeneracy, clearing_bits, random_mask
from huntrab import graphs
from huntrab.dynamics import DEAF, STANDARD, moves, step
from huntrab.errors import CapacityError, FormatError, InvalidParameterError
from huntrab.graphs import (
    Graph,
    bipartition,
    bits,
    components,
    cycle_graph,
    degeneracy,
    distances,
    format_graph,
    graph_from_edges,
    grid_graph,
    hypercube_graph,
    iter_bits,
    mask_of,
    parse_graph,
    path_graph,
    side_mask,
    star_graph,
)
from huntrab.solver import lower_bound_union


def has_edge(g: Graph, u: int, v: int) -> bool:
    return bool(g.adj[u] >> v & 1)


def same_graph_under(g: Graph, h: Graph, mapping: list[int]) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    return all(has_edge(h, mapping[u], mapping[v]) for u, v in g.edges())


# ---------------------------------------------------------------------------
# Families


def test_path_basics():
    assert path_graph(1).n == 1 and path_graph(1).edge_count == 0
    p4 = path_graph(4)
    parts = bipartition(p4)
    assert (parts.even.bit_count(), parts.odd.bit_count()) == (2, 2)
    assert [path_graph(5).degree(v) for v in range(5)] == [1, 2, 2, 2, 1]


def test_cycle_basics():
    k3 = cycle_graph(3)
    assert all(has_edge(k3, u, v) for u in range(3) for v in range(u + 1, 3))
    assert same_graph_under(cycle_graph(4), hypercube_graph(2), [0, 1, 3, 2])
    assert bipartition(cycle_graph(5)) is None


def test_grid_basics():
    g = grid_graph(2, 3)
    assert (g.n, g.edge_count) == (6, 7)
    assert grid_graph(1, 5).adj == path_graph(5).adj
    assert (grid_graph(3, 3).n, grid_graph(3, 3).edge_count) == (9, 12)


def test_hypercube_basics():
    q3 = hypercube_graph(3)
    assert (q3.n, q3.edge_count) == (8, 12)
    assert hypercube_graph(0).n == 1
    assert same_graph_under(hypercube_graph(2), cycle_graph(4), [0, 1, 3, 2])
    assert hypercube_graph(4).labels[9] == "1001"


@pytest.mark.parametrize("n", range(7))
def test_hypercube_adjacency_is_single_bit_difference(n):
    g = hypercube_graph(n)
    for u in range(g.n):
        assert g.degree(u) == n
        for v in range(g.n):
            assert has_edge(g, u, v) == ((u ^ v).bit_count() == 1)


def test_star_basics():
    assert same_graph_under(star_graph(1), path_graph(2), [0, 1])
    assert sorted(star_graph(4).degree(v) for v in range(5)) == [1, 1, 1, 1, 4]
    assert same_graph_under(star_graph(2), path_graph(3), [1, 0, 2])


def test_family_preconditions():
    with pytest.raises(InvalidParameterError):
        path_graph(0)
    with pytest.raises(InvalidParameterError):
        cycle_graph(2)
    with pytest.raises(InvalidParameterError):
        grid_graph(0, 3)
    with pytest.raises(InvalidParameterError):
        star_graph(0)
    with pytest.raises(CapacityError):
        hypercube_graph(15)


def test_graph_from_edges_validation():
    with pytest.raises(InvalidParameterError):
        graph_from_edges(3, [(0, 0)])
    with pytest.raises(InvalidParameterError):
        graph_from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(InvalidParameterError):
        graph_from_edges(3, [(0, 5)])


# ---------------------------------------------------------------------------
# Neighborhoods: a round with no shot moves a set S to N(S), or to N[S]
# for a deaf rabbit


def neighborhood(g: Graph, vset: int, closed: bool = False) -> int:
    return step(moves(g, DEAF if closed else STANDARD), vset, 0)


def test_neighborhood_examples():
    q3 = hypercube_graph(3)
    assert neighborhood(q3, 1 << 0) == mask_of([1, 2, 4])
    c4 = cycle_graph(4)
    assert neighborhood(c4, 1 << 0, closed=True) == mask_of([3, 0, 1])
    # independent enumeration: N[{}]  (5 vertices) union N[{1}] (5 vertices)
    # inside the 4-cube overlap in {} and {1}, leaving 8 distinct vertices.
    q4 = hypercube_graph(4)
    expected = {0, 1, 2, 4, 8, 0b0011, 0b0101, 0b1001}
    got = neighborhood(q4, mask_of([0, 1]), closed=True)
    assert got == mask_of(expected) and got.bit_count() == 8


def test_neighborhood_empty_set():
    g = cycle_graph(5)
    assert neighborhood(g, 0) == 0
    assert neighborhood(g, 0, closed=True) == 0


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_neighborhood_open_closed_and_monotone(data):
    g = data.draw(st.sampled_from(
        [path_graph(6), cycle_graph(6), grid_graph(2, 4), hypercube_graph(3), star_graph(5)]))
    s = data.draw(st.integers(min_value=0, max_value=g.full_mask))
    t = s | data.draw(st.integers(min_value=0, max_value=g.full_mask))
    open_s = neighborhood(g, s)
    closed_s = neighborhood(g, s, closed=True)
    assert open_s & ~closed_s == 0
    assert closed_s & ~open_s == s & ~open_s
    for closed in (False, True):
        assert neighborhood(g, s, closed) & ~neighborhood(g, t, closed) == 0


# ---------------------------------------------------------------------------
# Bipartition, degeneracy, components


def test_bipartition_examples():
    parts = bipartition(path_graph(4))
    assert (parts.even, parts.odd) == (mask_of([0, 2]), mask_of([1, 3]))
    assert bipartition(cycle_graph(5)) is None
    q3 = hypercube_graph(3)
    parts = bipartition(q3)
    assert parts.even == mask_of(v for v in range(8) if v.bit_count() % 2 == 0)
    assert parts.even.bit_count() == 4


def test_bipartition_runs_once_per_graph(monkeypatch):
    # kept on the graph: every later call on it, through side_mask and the
    # union bound too, reads the first answer; another graph starts fresh
    calls = []
    two_color = graphs._two_color
    monkeypatch.setattr(graphs, "_two_color", lambda g: calls.append(g) or two_color(g))
    for g in (grid_graph(3, 4), cycle_graph(5)):
        parts = bipartition(g)
        assert bipartition(g) is parts
        if parts is not None:
            assert side_mask(g, "even") == parts.even
        lower_bound_union(g)
    assert len(calls) == 2
    bipartition(grid_graph(3, 4))
    assert len(calls) == 3


def all_families_upto(limit: int):
    for n in range(1, limit + 1):
        yield path_graph(n)
        yield star_graph(n) if n + 1 <= limit else path_graph(1)
    for n in range(3, limit + 1):
        yield cycle_graph(n)
    for m in range(1, limit + 1):
        for n in range(1, limit // m + 1):
            yield grid_graph(m, n)
    for n in range(0, 7):
        if 1 << n <= limit:
            yield hypercube_graph(n)


def test_bipartition_is_proper_two_coloring_on_families():
    for g in all_families_upto(64):
        parts = bipartition(g)
        if parts is None:
            continue
        assert parts.even | parts.odd == g.full_mask
        assert parts.even & parts.odd == 0
        for u, v in g.edges():
            assert (parts.even >> u & 1) != (parts.even >> v & 1)


def test_degeneracy_examples():
    assert degeneracy(path_graph(5)) == 1
    assert brute_degeneracy(hypercube_graph(3)) == 3
    assert degeneracy(hypercube_graph(3)) == 3
    assert brute_degeneracy(grid_graph(3, 3)) == 2
    assert degeneracy(grid_graph(3, 3)) == 2
    assert degeneracy(graph_from_edges(0, [])) == 0


def test_degeneracy_matches_brute_force_on_small_graphs():
    # up to 20 vertices, with isolated vertices and several components
    rng = random.Random(99)
    graphs = [graph_from_edges(0, []), star_graph(1), star_graph(9), hypercube_graph(5),
              grid_graph(5, 7)]
    for _ in range(120):
        n = rng.randrange(1, 21)
        p = rng.choice([0.1, 0.2, 0.4, 0.7])
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if rng.random() < 0.5:
            # a second component after the first, then isolated vertices
            m = rng.randrange(1, 8)
            edges += [(n + u, n + v) for u in range(m) for v in range(u + 1, m)
                      if rng.random() < 0.5]
            n += m
        graphs.append(graph_from_edges(n + rng.randrange(3), edges))
    for g in graphs:
        assert degeneracy(g) == brute_degeneracy(g), list(g.edges())
        if g.n <= 8:
            # the core reference against every vertex subset
            adj = adjacency_sets(g)
            assert brute_degeneracy(g) == max(
                (min(len(adj[v] & set(sub)) for v in sub)
                 for r in range(1, g.n + 1) for sub in itertools.combinations(range(g.n), r)),
                default=0)
    assert [degeneracy(g) for g in graphs[:5]] == [0, 1, 1, 5, 2]


def test_components():
    g = cycle_graph(6)
    assert components(g) == [g.full_mask]
    h = graph_from_edges(5, [(0, 1), (2, 3), (3, 4)])
    assert components(h) == [mask_of([0, 1]), mask_of([2, 3, 4])]
    assert components(graph_from_edges(0, [])) == []


def list_bfs(g: Graph, a: int) -> list[int]:
    """Distances from a by a queue of vertex lists, g.n out of reach."""
    adj, dist, queue = adjacency_sets(g), {a: 0}, [a]
    for u in queue:
        for v in sorted(adj[u] - dist.keys()):
            dist[v] = dist[u] + 1
            queue.append(v)
    return [dist.get(v, g.n) for v in range(g.n)]


def test_distances_match_a_list_bfs():
    rng = random.Random(26)
    cases = [graph_from_edges(5, []), graph_from_edges(5, [(0, 1), (2, 3), (3, 4)]),
             grid_graph(3, 4), hypercube_graph(3)]
    cases += [graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                   if rng.random() < 0.25]) for n in rng.choices(range(1, 12), k=60)]
    for g in cases:
        for a in range(g.n):
            assert distances(g, a) == list_bfs(g, a), (list(g.edges()), a)
    # the edgeless graph leaves every other vertex out of reach
    assert distances(graph_from_edges(3, []), 1) == [3, 0, 3]


# ---------------------------------------------------------------------------
# Text format


def test_round_trip_plain_and_labeled():
    for g in (path_graph(5), grid_graph(3, 3), hypercube_graph(3), graph_from_edges(2, [])):
        assert parse_graph(format_graph(g)) == g


def test_parse_accepts_comments_and_reports_line_numbers():
    text = "# a comment\n3 2\n0 1\n# mid comment\n1 2\nlabel 0 root\n"
    g = parse_graph(text)
    assert g.n == 3 and g.labels == ("root", "", "")

    cases = [
        ("3 2\n0 1\n0 1\n", 3, "duplicate"),
        ("3 1\n1 1\n", 2, "self-loop"),
        ("3 1\n1 0\n", 2, "u < v"),
        ("3 1\n0 7\n", 2, "out of range"),
        ("x y\n", 1, "two integers"),
        ("2 1\n0 1\nlabel 9 hi\n", 3, "out of range"),
        ("", 1, "empty"),
        ("2 2\n0 1\n", 1, "promised"),
    ]
    for text, line, needle in cases:
        with pytest.raises(FormatError) as exc:
            parse_graph(text)
        assert exc.value.line == line, text
        assert needle in str(exc.value)


def test_bits_round_trip():
    assert bits(mask_of([5, 1, 3])) == [1, 3, 5]
    assert bits(0) == []


def test_iter_bits_matches_the_clearing_walk():
    rng = random.Random(11)
    lengths = [0, 1, 7, 8, 9, 63, 64, 65, 5000] + [rng.randrange(5001) for _ in range(40)]
    for n in lengths:
        for mask in (random_mask(rng, n), (1 << n) - 1, 1 << n, (1 << n) | 1):
            assert list(iter_bits(mask)) == list(clearing_bits(mask)), n
    assert next(iter_bits(1 << 4999 | 1 << 17)) == 17

import random
from collections import Counter
from functools import reduce
from itertools import accumulate
from operator import or_

import pytest

from conftest import (
    QUOTIENT_CASES,
    antichain_can_clear,
    brute_min_union,
    cube_deaf_closed_profile,
    fresh_successors,
    naive_can_clear,
    naive_successors,
    profile_bound,
    random_graph,
    random_mask,
    relabelled,
    searched_hunter_number,
    surplus,
    triangulated_grid,
    union_profile,
)
from huntrab import solver
from huntrab.cube import cube_deaf_surplus, cube_diff_seq, cube_hunter_number
from huntrab.dynamics import DEAF, STANDARD, Caught, Strategy, moves, run, verify
from huntrab.errors import BudgetExceededError, InvalidParameterError
from huntrab.graphs import (
    bipartition,
    bits,
    components,
    cycle_graph,
    degeneracy,
    graph_from_edges,
    grid_graph,
    hypercube_graph,
    path_graph,
    side_mask,
    star_graph,
)
from huntrab.solver import (
    BLOCKED,
    CLEARED,
    Meter,
    _min_union,
    _sandwich,
    _successors,
    _Tables,
    can_clear,
    hunter_number,
    lower_bound,
    lower_bound_union,
    min_neighborhood_union,
)


# ---------------------------------------------------------------------------
# Neighborhood-union minimum


def test_min_union_examples():
    assert min_neighborhood_union(cycle_graph(5), 1) == 2
    q4 = hypercube_graph(4)
    even4 = bits(bipartition(q4).even)
    assert brute_min_union(q4, 2, even4) == 6
    assert min_neighborhood_union(q4, 2, "even") == 6
    q3 = hypercube_graph(3)
    assert brute_min_union(q3, 2, list(range(8)), closed=True) == 6
    assert min_neighborhood_union(q3, 2, "all", DEAF) == 6


def test_min_union_validation():
    g = cycle_graph(5)
    with pytest.raises(InvalidParameterError):
        min_neighborhood_union(g, 0)
    with pytest.raises(InvalidParameterError):
        min_neighborhood_union(g, 6)
    with pytest.raises(InvalidParameterError):
        min_neighborhood_union(g, 1, "even")
    with pytest.raises(InvalidParameterError):
        min_neighborhood_union(g, 1, "all", "sideways")  # not a variant
    with pytest.raises(BudgetExceededError):
        min_neighborhood_union(hypercube_graph(4), 8, "all", STANDARD, budget=100)


def _random_bipartite_graph(rng, max_n):
    n = rng.randrange(2, max_n + 1)
    color = [rng.randrange(2) for _ in range(n)]
    p = rng.choice([0.3, 0.5, 0.8])
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if color[u] != color[v] and rng.random() < p]
    return graph_from_edges(n, edges)


def test_min_union_matches_set_based_oracle():
    rng = random.Random(555)
    graphs = [random_graph(rng, 12, rng.choice([None, 0.3, 0.6])) for _ in range(30)]
    graphs += [_random_bipartite_graph(rng, 12) for _ in range(30)]
    for g in graphs:
        sides = {"all": list(range(g.n))}
        parts = bipartition(g)
        if parts is not None:
            sides.update(even=bits(parts.even), odd=bits(parts.odd))
        for side, vertices in sides.items():
            for variant in (STANDARD, DEAF):
                # each k of the profile stops early at a union of U(k - 1)
                # vertices; min_neighborhood_union searches each U(k) alone
                brute = [brute_min_union(g, k, vertices, closed=(variant == DEAF))
                         for k in range(1, len(vertices) + 1)]
                assert list(union_profile(g, side, variant)) == brute, (g, side, variant)
                for k in range(1, len(vertices) + 1):
                    assert min_neighborhood_union(g, k, side, variant) == brute[k - 1], \
                        (g, side, variant, k)


def test_union_bound_on_random_bipartite_graphs():
    # disconnected graphs and isolated vertices included: the paired bound
    # is never below the bound from all of V, nor above the hunter number,
    # and on a connected graph it is the bound solve starts from
    rng = random.Random(909)
    for trial in range(1000):
        g = _random_bipartite_graph(rng, 14)
        if trial % 3 == 0:
            g = graph_from_edges(g.n + rng.randrange(1, 3), list(g.edges()))  # isolated vertices
        bound = lower_bound_union(g)
        assert bound >= surplus(union_profile(g, "all")) + 1, list(g.edges())
        if g.n <= 10:
            result = hunter_number(g)
            assert bound <= result.hunter_number, list(g.edges())
            if len(components(g)) == 1:
                assert result.lower_bound_used == max(1, degeneracy(g), bound), list(g.edges())


def test_union_bound_matches_the_whole_profile_oracle():
    # deciding each j against the bound so far gives the bound of the whole
    # profiles read in lockstep
    rng = random.Random(1212)
    graphs = [graph_from_edges(0, []), graph_from_edges(1, [])]
    for trial in range(300):
        g = _random_bipartite_graph(rng, 14)
        if trial % 3 == 0:
            g = graph_from_edges(g.n + rng.randrange(1, 3), list(g.edges()))  # isolated vertices
        graphs.append(g)
    graphs += [random_graph(rng, 12, rng.choice([None, 0.3, 0.6])) for _ in range(300)]
    assert any(bipartition(g) is None for g in graphs)
    for g in graphs:
        for variant in (STANDARD, DEAF):
            assert lower_bound_union(g, variant) == profile_bound(g, variant)[0], \
                (list(g.edges()), variant)


def test_lower_bound_is_the_seed_solve_uses():
    # per component: an isolated vertex cannot pull a part's minima down
    rng = random.Random(1717)
    graphs = [graph_from_edges(0, []), graph_from_edges(1, []), graph_from_edges(3, [])]
    for trial in range(150):
        g = _random_bipartite_graph(rng, 9) if trial % 2 else random_graph(rng, 9)
        if trial % 3 == 0:
            g = graph_from_edges(g.n + 1, list(g.edges()))  # an isolated vertex
        graphs.append(g)
    assert sum(len(components(g)) > 1 for g in graphs) > 50
    for g in graphs:
        for variant in (STANDARD, DEAF):
            seed = max((max(1, degeneracy(sub), lower_bound_union(sub, variant))
                        for sub in _component_subgraphs(g)), default=0)
            assert lower_bound(g, variant) == seed == hunter_number(g, variant).lower_bound_used, \
                (g.n, list(g.edges()), variant)
    q4_and_a_vertex = graph_from_edges(17, list(hypercube_graph(4).edges()))
    assert lower_bound_union(q4_and_a_vertex) == 4
    assert lower_bound(q4_and_a_vertex) == 5


def test_lower_bound_budget_exit_reports_the_degeneracy():
    # each component's degeneracy, at least 1, is proved before its union bound
    for g, best in [(cycle_graph(5), 2), (path_graph(4), 1), (grid_graph(3, 3), 2)]:
        with pytest.raises(BudgetExceededError) as exc:
            lower_bound(g, budget=0)
        assert exc.value.phase == "bound" and exc.value.best_lower_bound == best


@pytest.mark.parametrize("g, variant", [(hypercube_graph(5), STANDARD),
                                        (hypercube_graph(4), DEAF),
                                        (grid_graph(4, 4), STANDARD),
                                        (grid_graph(3, 7), DEAF),
                                        (grid_graph(4, 5), DEAF)])
def test_union_bound_spends_no_more_than_the_whole_profiles(g, variant):
    meter = Meter()
    bound, units = profile_bound(g, variant)
    assert lower_bound_union(g, variant, meter) == bound
    assert meter.spent <= units


def _greedy_order(contrib):
    # each next contribution grows the running union least, ties to the
    # larger overlap with it, then to the lower vertex
    left, order, union = list(enumerate(contrib)), [], 0
    while left:
        best = min(left, key=lambda item: ((union | item[1]).bit_count(),
                                           -(union & item[1]).bit_count(), item[0]))
        left.remove(best)
        order.append(best[1])
        union |= best[1]
    return order


def _replay_union_bound(g, variant, sides):
    """The rule lower_bound_union decides each j by: the sides in greedy
    order; a j where some side's first j contributions already unite below
    bound + j is decided with no search; otherwise the sides are searched
    smallest such union first, each search stopping at a union below
    bound + j, and a side found below it skips the rest.  Per j: the units
    spent, the bound proved and whether any side was searched."""
    nbrs = moves(g, variant)
    orders = [_greedy_order([nbrs[v] for v in bits(side_mask(g, side))]) for side in sides]
    meter = Meter()
    decided = [(0, 0, False)]
    for j in range(1, min(map(len, orders)) + 1):
        bound = decided[-1][1]
        prefixes = [reduce(or_, order[:j]).bit_count() for order in orders]
        if min(prefixes) < bound + j:
            decided.append((meter.spent, bound, False))
            continue
        unions = []
        for _, order in sorted(zip(prefixes, orders), key=lambda side: side[0]):
            unions.append(_min_union(order, j, bound + j - 1, meter))
            if unions[-1] < bound + j:
                break
        decided.append((meter.spent, max(bound, min(unions) - j + 1), True))
    return decided


@pytest.mark.parametrize("g, variant, sides", [(hypercube_graph(5), STANDARD, ("even", "odd")),
                                               (hypercube_graph(4), DEAF, ("all",))])
def test_union_bound_budget_exit_reports_the_finished_prefix(g, variant, sides):
    # the units spent and the bound proved once each j is decided
    decided = _replay_union_bound(g, variant, sides)
    assert decided[-1][1] == profile_bound(g, variant)[0]
    assert lower_bound_union(g, variant, decided[-1][0]) == decided[-1][1]
    for (before, bound, _), (after, _, searched) in zip(decided, decided[1:]):
        if not searched:
            assert after == before  # decided by a greedy prefix
            continue
        for budget in (before, (before + after) // 2, after - 1):
            with pytest.raises(BudgetExceededError) as exc:
                lower_bound_union(g, variant, budget)
            # the exit counts the node that passed the budget, at most n units
            assert exc.value.phase == "bound" and budget < exc.value.spent <= budget + g.n
            assert exc.value.best_lower_bound == bound, budget


def test_union_bound_charges_nothing_for_a_j_its_greedy_prefix_decides():
    # the budget of exactly the searched j's own searches answers, with the
    # last j decided by a greedy prefix after it
    for g, variant, sides in [(grid_graph(5, 7), STANDARD, ("even", "odd")),
                              (grid_graph(3, 7), DEAF, ("all",))]:
        decided = _replay_union_bound(g, variant, sides)
        searched = [j for j, (_, _, s) in enumerate(decided) if s]
        assert searched and searched[-1] < len(decided) - 1
        units = decided[-1][0]
        assert lower_bound_union(g, variant, units) == decided[-1][1] == profile_bound(g, variant)[0]
        with pytest.raises(BudgetExceededError):
            lower_bound_union(g, variant, units - 1)


@pytest.mark.parametrize("g, variant, bound", [(grid_graph(3, 7), DEAF, 4),
                                               (grid_graph(5, 7), STANDARD, 3),
                                               (grid_graph(7, 7), STANDARD, 4),
                                               (grid_graph(5, 6), DEAF, 6),
                                               (hypercube_graph(5), STANDARD, 8)])
def test_union_bound_cost_does_not_follow_the_numbering(g, variant, bound):
    # bounds from profile_bound (1.2 s on grid 7x7, 5.3 s on grid 5x6 deaf);
    # the greedy side order finds compact unions whatever the numbering
    meter = Meter()
    assert lower_bound_union(g, variant, meter) == bound
    for seed in (1, 2, 3):
        relabelled_meter = Meter()
        assert lower_bound_union(relabelled(g, seed), variant, relabelled_meter) == bound, seed
        assert relabelled_meter.spent <= 1.5 * meter.spent, seed


def test_union_search_reads_no_candidate_past_its_budget():
    # a node adds its scan to the count before it reads a candidate, so the
    # budget bounds the work inside one U(k), not only between them
    reads = []

    class Contrib(list):
        def __getitem__(self, i):
            reads.append(i)
            return list.__getitem__(self, i)

    contrib = Contrib(moves(hypercube_graph(5), DEAF))
    for budget in (0, 1, 31, 32, 1000, 54321):
        reads.clear()
        with pytest.raises(BudgetExceededError) as exc:
            _min_union(contrib, 16, 0, Meter(budget))
        assert exc.value.phase == "bound" and budget < exc.value.spent <= budget + len(contrib)
        assert len(reads) <= budget


def test_a_bound_exit_reports_the_units_its_search_counted():
    # the search that ran over had counted about 900,800 units past the
    # 99,207 spent before it, which the exit used to report alone
    meter = Meter(10**6)
    with pytest.raises(BudgetExceededError) as exc:
        lower_bound_union(grid_graph(7, 7), DEAF, meter)
    assert exc.value.phase == "bound" and exc.value.best_lower_bound == 6
    assert 10**6 < exc.value.spent == meter.spent <= 10**6 + 49


def test_union_bound_meets_the_cube_closed_forms():
    # the paired bound is exact on Q^1..Q^5, and the deaf bound from all of
    # V is the scanned deaf surplus + 1 on Q^1..Q^4
    for n in range(1, 6):
        assert lower_bound_union(hypercube_graph(n)) == cube_hunter_number(n), n
    for n in range(1, 5):
        assert lower_bound_union(hypercube_graph(n), DEAF) == cube_deaf_surplus(n) + 1, n


def test_union_bound_on_grid_5x5():
    # 2^25 - 1 subsets per variant by plain enumeration; the branch and bound
    # cuts nearly all of them
    g = grid_graph(5, 5)
    assert lower_bound_union(g) == 3
    assert lower_bound_union(g, DEAF) == 6


def test_profiles():
    assert tuple(union_profile(hypercube_graph(4), "even")) == (4, 6, 7, 7, 8, 8, 8, 8)
    assert tuple(union_profile(hypercube_graph(3), "odd")) == (3, 4, 4, 4)
    assert tuple(union_profile(path_graph(2))) == (1, 2)
    profile = tuple(union_profile(hypercube_graph(4), "even"))
    diffs = tuple(b - a for a, b in zip((0,) + profile, profile))
    assert diffs == (4, 2, 1, 0, 1, 0, 0, 0) == cube_diff_seq(4, "even")


def test_union_surplus_examples():
    assert surplus(union_profile(hypercube_graph(3), "even")) == 2
    assert surplus(union_profile(hypercube_graph(4), "even")) == 4
    assert surplus(union_profile(path_graph(2))) == 0


def test_lower_bounds():
    assert lower_bound_union(hypercube_graph(4)) == 5
    assert lower_bound_union(cycle_graph(5)) == 2
    assert lower_bound_union(hypercube_graph(3), DEAF) == 5
    assert lower_bound_union(graph_from_edges(0, [])) == 0
    assert degeneracy(hypercube_graph(3)) == 3
    assert degeneracy(path_graph(7)) == 1
    assert degeneracy(grid_graph(3, 3)) == 2


def test_brute_profiles_agree_with_analytic_cube_profiles():
    for n in range(1, 6):
        g = hypercube_graph(n)
        analytic = tuple(accumulate(cube_diff_seq(n, "even")))
        assert tuple(union_profile(g, "even")) == analytic
        assert tuple(union_profile(g, "odd")) == analytic
    for n in range(1, 5):
        g = hypercube_graph(n)
        assert tuple(union_profile(g, "all", DEAF)) == cube_deaf_closed_profile(n)


# ---------------------------------------------------------------------------
# can_clear


def test_can_clear_path_and_cycle():
    p5 = path_graph(5)
    res = can_clear(p5, 1)
    assert res.status == CLEARED
    assert res.shots == (8, 4, 2, 8, 4, 2)  # vertices 3,2,1,3,2,1: sweep in, sweep again
    from huntrab.dynamics import Strategy, run
    assert run(p5, Strategy(res.shots), p5.full_mask).caught_at == 6

    c5 = cycle_graph(5)
    assert can_clear(c5, 1).status == BLOCKED
    res2 = can_clear(c5, 2)
    assert res2.status == CLEARED
    assert all(s.bit_count() <= 2 for s in res2.shots)


def test_can_clear_budget():
    # expanding the 9-, 8- and 8-vertex states costs C(9,2) + 2 C(8,2) = 92
    # units; the next state's charge would pass 100
    with pytest.raises(BudgetExceededError) as exc:
        can_clear(grid_graph(3, 3), 2, budget=100)
    assert exc.value.phase == "search"
    assert exc.value.spent == 92


def test_can_clear_validation():
    with pytest.raises(InvalidParameterError):
        can_clear(path_graph(2), 0)
    with pytest.raises(InvalidParameterError):
        can_clear(path_graph(2), 1, "loud")
    with pytest.raises(InvalidParameterError):
        can_clear(path_graph(2), 1, start=0b100)


def test_can_clear_agrees_with_reference_search():
    rng = random.Random(2024)
    for _ in range(150):
        g = random_graph(rng, 7)
        k = rng.randrange(1, 4)
        variant = rng.choice([STANDARD, DEAF])
        ours = can_clear(g, k, variant).status == CLEARED
        assert ours == naive_can_clear(g, k, variant)


# status, shots, states explored and units spent of the search, which must
# reproduce them exactly
_PINNED_SEARCHES = [
    ("grid3x4", STANDARD, 1, BLOCKED, None, 1, 12),
    ("grid3x4", STANDARD, 2, CLEARED,
     (1152, 576, 132, 576, 36, 528, 36, 18, 528, 1056, 18, 1056, 66, 1152, 66, 132), 20, 604),
    ("grid3x4", DEAF, 3, BLOCKED, None, 11, 1870),
    ("grid3x4", DEAF, 4, CLEARED, (3712, 1728, 712, 588, 612, 804, 308, 54, 19), 8, 1286),
    ("q3", STANDARD, 2, BLOCKED, None, 1, 28),
    ("q3", STANDARD, 3, CLEARED, (104, 22, 148, 41), 3, 95),
    ("q3", DEAF, 4, BLOCKED, None, 9, 350),
    ("q3", DEAF, 5, CLEARED, (248, 124, 62, 23), 3, 83),
    ("c7", STANDARD, 1, BLOCKED, None, 1, 7),
    ("c7", STANDARD, 2, CLEARED, (33, 20, 3, 33, 20, 66), 5, 55),
    ("c7", DEAF, 2, BLOCKED, None, 1, 21),
    ("c7", DEAF, 3, CLEARED, (97, 49, 25, 14, 67), 4, 69),
    ("random10", STANDARD, 1, BLOCKED, None, 2, 18),
    ("random10", STANDARD, 2, CLEARED, (33, 288, 130, 65, 33, 33, 257, 3, 65, 130), 16, 240),
    ("random10", DEAF, 2, BLOCKED, None, 3, 109),
    ("random10", DEAF, 3, CLEARED, (56, 545, 289, 259, 7, 193, 134), 6, 245),
    ("q4", DEAF, 7, BLOCKED, None, 82, 292435),
    ("q4", DEAF, 8, CLEARED, (64704, 16096, 7912, 6008, 1916, 831), 5, 17370),
    ("grid4x4", STANDARD, 2, BLOCKED, None, 13, 1380),
    ("grid4x4", STANDARD, 3, CLEARED,
     (51200, 9472, 2624, 416, 82, 16516, 41984, 6656, 1408, 592, 164, 18), 11, 2130),
]


def test_can_clear_reproduces_pinned_searches():
    graphs = {
        "grid3x4": grid_graph(3, 4),
        "grid4x4": grid_graph(4, 4),
        "q3": hypercube_graph(3),
        "q4": hypercube_graph(4),
        "c7": cycle_graph(7),
        # edges drawn with p = 0.3 from random.Random(3)
        "random10": graph_from_edges(10, [(0, 1), (0, 6), (0, 7), (0, 9), (1, 2), (1, 8), (2, 7),
                                          (3, 5), (5, 8), (5, 9), (6, 7)]),
    }
    for name, variant, k, status, shots, explored, spent in _PINNED_SEARCHES:
        meter = Meter()
        result = can_clear(graphs[name], k, variant, meter)
        assert (result.status, result.shots, result.explored, meter.spent) == \
            (status, shots, explored, spent), (name, variant, k)


def test_successors_match_combinations_order(monkeypatch):
    # the half-table generator yields exactly the first-reach (union, shot)
    # list of plain enumeration over combinations, order and shots included,
    # less the unions already seen, while every state of one k shares one
    # store of tables; a cap of 0 or 1 entries drops the store between states
    rng = random.Random(606)
    for trial in range(120):
        g = random_graph(rng, 12, rng.choice([None, 0.3, 0.6]))
        closed = trial % 2 == 1
        adj = tuple(g.adj[v] | (int(closed) << v) for v in range(g.n))
        states = [g.full_mask] + [random_mask(rng, g.n) for _ in range(3)]
        if not closed:
            # kept sets of isolated vertices alone give the empty union
            states += [random_mask(rng, g.n) | 1 << v for v in range(g.n) if g.adj[v] == 0]
        cap = (solver.TABLE_ENTRIES, 0, 1)[trial % 3]
        monkeypatch.setattr(solver, "TABLE_ENTRIES", cap)
        for k in range(1, g.n):
            store = _Tables()
            # the full state's successors share halves with it and each other
            sequence = states + [union & g.full_mask for union, _ in
                                 naive_successors(adj, g.full_mask, k)[:4]]
            for state in sequence:
                if state.bit_count() <= k:
                    continue
                expected = naive_successors(adj, state, k)
                case = (list(g.edges()), closed, state, k, cap)
                assert list(_successors(adj, state, k, set(), store)) == expected, case
                seen = {union for union, _ in expected if rng.random() < 0.5}
                fresh = [(union, shot) for union, shot in expected if union not in seen]
                assert list(_successors(adj, state, k, seen, store)) == fresh, case
                assert list(fresh_successors(adj, state, k, set())) == expected, case
                if cap < 2:
                    # dropped, then one table per vertex for the halves' chains
                    assert len(store.tables) <= state.bit_count() + 1, case
    # a shot whose key a join from an earlier entry already holds must leave
    # the join's mask in place; random graphs seldom reach that collision
    g = graph_from_edges(8, [(0, 1), (0, 3), (0, 6), (0, 7), (2, 6), (2, 7), (3, 5), (3, 7)])
    assert list(_successors(g.adj, g.full_mask, 3, set(), _Tables())) == \
        naive_successors(g.adj, g.full_mask, 3)


def search_record(g, variant, successors=None):
    """The searched solve (no sandwich) with its units, on solver's
    successors or on the given stand-in."""
    meter = Meter()
    with pytest.MonkeyPatch.context() as patch:
        if successors is not None:
            patch.setattr(solver, "_successors", successors)
        result = searched_hunter_number(g, variant, meter)
    return result.hunter_number, result.witness.shots, result.explored_states, meter.spent


@pytest.mark.parametrize("variant", [STANDARD, DEAF])
def test_kept_tables_search_as_tables_built_per_state(variant):
    # the whole search, orbit quotient included, answers, plays, explores
    # and charges the same as on half tables built afresh for every state,
    # and as with a store capped at 64 entries
    def fresh(adj, state, k, seen, store):
        return fresh_successors(adj, state, k, seen)

    rng = random.Random(29)
    graphs = [g if seed is None else relabelled(g, seed)
              for g in QUOTIENT_CASES for seed in (None, 1, 2, 3)]
    graphs += [random_graph(rng, 10) for _ in range(200)]
    for i, g in enumerate(graphs):
        expected = search_record(g, variant, fresh)
        assert search_record(g, variant) == expected, (list(g.edges()), variant)
        if i % 2:
            # a store dropped before nearly every expansion changes nothing
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(solver, "TABLE_ENTRIES", 64)
                assert search_record(g, variant) == expected, (list(g.edges()), variant)


def search_starts(g):
    """V, and the even part of a bipartite graph."""
    parts = bipartition(g)
    return [None] if parts is None else [None, parts.even]


def clear_record(search, g, k, variant, start):
    meter = Meter()
    return search(g, k, variant, meter, start), meter.spent


@pytest.mark.parametrize("variant", [STANDARD, DEAF])
def test_the_pop_time_check_searches_as_the_eager_antichain(variant):
    # skipping a popped state that holds an expanded one expands the same
    # states in the same order as keeping an antichain of the generated
    # ones: the same status, shots, states explored and units, also where
    # the heap drains to BLOCKED below the lower bound
    rng = random.Random(33)
    graphs = [g if seed is None else relabelled(g, seed)
              for g in QUOTIENT_CASES for seed in (None, 1)]
    graphs += [random_graph(rng, 10) for _ in range(200)]
    cases = [(g, k) for g in graphs
             for k in range(max(1, lower_bound(g, variant) - 1), lower_bound(g, variant) + 2)]
    for _ in range(40):
        n = rng.choice((12, 13))
        g = graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if rng.random() < 0.3])
        cases += [(g, k) for k in (lower_bound(g, variant), lower_bound(g, variant) + 1)]
    if variant == STANDARD:
        cases.append((triangulated_grid(5, 5), 6))
    for g, k in cases:
        for start in search_starts(g):
            expected = clear_record(antichain_can_clear, g, k, variant, start)
            assert clear_record(can_clear, g, k, variant, start) == expected, \
                (list(g.edges()), k, variant, start)


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("variant", [STANDARD, DEAF])
def test_a_narrow_first_pass_keeps_every_answer(batch, variant):
    # the smallest-first search gives every answer of the reference
    # reachability search, on two batches of seeded random graphs
    rng = random.Random(16 + batch)
    for _ in range(80):
        g = random_graph(rng, 8, rng.choice([None, 0.3, 0.5]))
        result = searched_hunter_number(g, variant)
        h, case = result.hunter_number, (list(g.edges()), variant)
        # hunter_number counts at least 1 hunter on a graph with no edge
        assert naive_can_clear(g, h, variant), case
        assert h == 1 or not naive_can_clear(g, h - 1, variant), case
        assert result.witness.max_hunters <= h, case
        assert isinstance(verify(g, result.witness), Caught), case


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_the_triangulated_grid_5x5_answers_by_the_first_pass(seed):
    # not bipartite, so it is searched from V, in one pass per hunter count
    g = triangulated_grid(5, 5)
    g = g if seed is None else relabelled(g, seed)
    result = hunter_number(g)
    assert (result.hunter_number, result.route) == (6, "search")
    assert isinstance(verify(g, result.witness), Caught)


@pytest.mark.parametrize("size, k", [(5, 6), (6, 7)])
def test_the_triangulated_grids_clear_from_every_vertex(size, k):
    # each search's states are large, so it is charged C(|R|, k) units for
    # little work; expanding the smallest state first clears within the
    # default budget (5x5 in 13 states, 6x6 in 19)
    g = triangulated_grid(size, size)
    result = can_clear(g, k)
    assert result.status == CLEARED
    assert isinstance(verify(g, Strategy(result.shots)), Caught)


# ---------------------------------------------------------------------------
# hunter_number


def test_hunter_number_oracle_values():
    assert hunter_number(star_graph(4)).hunter_number == 1
    assert hunter_number(grid_graph(3, 3)).hunter_number == 2
    assert hunter_number(hypercube_graph(2)).hunter_number == 2
    q3 = hunter_number(hypercube_graph(3))
    assert q3.hunter_number == 3 == cube_hunter_number(3)
    assert q3.lower_bound_used == 3


def test_hunter_number_of_grids_is_the_outside_value():
    # h(grid m x n) = floor(min(m, n) / 2) + 1 in the standard game: to our
    # knowledge the grid theorem of Abramovskaya, Fomin, Golovach and
    # Pilipczuk, "How to hunt an invisible rabbit on a graph" (European J.
    # Combin., 2016); the statement was not checked against that paper
    for m in range(1, 9):
        for n in range(m, 9):
            assert hunter_number(grid_graph(m, n)).hunter_number == m // 2 + 1, (m, n)
    for m in range(1, 6):
        for n in range(m, 7):
            g = relabelled(grid_graph(m, n), 10 * m + n)
            assert hunter_number(g).hunter_number == m // 2 + 1, (m, n)


def test_hunter_number_deaf_examples():
    assert hunter_number(path_graph(4), DEAF).hunter_number == 2
    assert hunter_number(cycle_graph(5), DEAF).hunter_number == 3


def test_witnesses_verify_with_shot_budget():
    for g, variant in [(path_graph(6), STANDARD), (cycle_graph(5), STANDARD),
                       (grid_graph(2, 4), STANDARD), (path_graph(4), DEAF),
                       (hypercube_graph(3), DEAF)]:
        result = hunter_number(g, variant)
        assert result.witness.max_hunters <= result.hunter_number
        assert isinstance(verify(g, result.witness), Caught)


def test_hunter_number_on_disconnected_graph():
    g = graph_from_edges(5, [(0, 1), (2, 3), (3, 4)])
    result = hunter_number(g)
    assert result.hunter_number == 1
    assert isinstance(verify(g, result.witness), Caught)


@pytest.mark.parametrize("variant", [STANDARD, DEAF])
def test_hunter_number_remaps_each_component_witness(variant):
    # several components and isolated vertices, renumbered so that no
    # component keeps its vertex numbers: the answer is the largest of the
    # components' and the witness, remapped into g, still catches
    rng = random.Random(41)
    for _ in range(30):
        parts = [random_graph(rng, 6) for _ in range(rng.randrange(1, 4))]
        edges, n = [], 0
        for part in parts:
            edges += [(n + u, n + v) for u, v in part.edges()]
            n += part.n
        g = relabelled(graph_from_edges(n + rng.randrange(3), edges), rng.randrange(1000))
        h = max(hunter_number(part, variant).hunter_number for part in parts)
        for solve in (hunter_number, searched_hunter_number):
            result = solve(g, variant)
            assert result.hunter_number == h
            assert result.witness.max_hunters <= h
            assert isinstance(verify(g, result.witness), Caught), (list(g.edges()), g.n)


def test_hunter_number_isolated_vertex_and_empty_graph():
    single = graph_from_edges(1, [])
    result = hunter_number(single)
    assert result.hunter_number == 1
    assert isinstance(verify(single, result.witness), Caught)
    assert hunter_number(graph_from_edges(1, []), DEAF).hunter_number == 1
    empty = hunter_number(graph_from_edges(0, []))
    assert empty.hunter_number == 0 and empty.witness.shots == ()


def test_hunter_number_budget_exceeded_carries_bounds():
    with pytest.raises(BudgetExceededError) as exc:
        hunter_number(cycle_graph(5), budget=1)
    assert exc.value.best_lower_bound >= 2


def test_min_union_budget_is_its_own_search():
    # U(k) is one search for it alone, not read off the profile: it costs
    # the candidates that search scans, no more than the profile's U(1),
    # ..., U(k), and a budget one unit short exits in the bound phase
    q4 = hypercube_graph(4)
    meter = Meter()
    profile = [(union, meter.spent) for union in union_profile(q4, budget=meter)]
    assert meter.spent == 8776
    for k, (union, prefix) in enumerate(profile, start=1):
        own = Meter()
        assert min_neighborhood_union(q4, k, budget=own) == union
        assert own.spent <= prefix
        assert min_neighborhood_union(q4, k, budget=own.spent) == union
        with pytest.raises(BudgetExceededError) as exc:
            min_neighborhood_union(q4, k, budget=own.spent - 1)
        assert exc.value.phase == "bound"
    # the two 8-vertex part profiles cost 248 units each; the paired bound
    # decides each j of them in 86 units
    assert profile_bound(q4) == (5, 2 * 248)
    with pytest.raises(BudgetExceededError) as exc:
        lower_bound_union(q4, budget=85)
    assert exc.value.phase == "bound"
    assert lower_bound_union(q4, budget=86) == 5


def test_hunter_number_budget_covers_the_bound_phase():
    # the paired bound of grid 4x4 costs 68 units and reaches h = 3 at its
    # last search; short of that, the degeneracy 2 is the best proved
    with pytest.raises(BudgetExceededError) as exc:
        hunter_number(grid_graph(4, 4), budget=67)
    assert exc.value.phase == "bound"
    assert exc.value.best_lower_bound == 2
    # with 68 the sweep's strategy catches with 3 hunters, and nothing more
    # is spent; the search's first expansion would not fit
    meter = Meter(68)
    result = hunter_number(grid_graph(4, 4), budget=meter)
    assert (result.hunter_number, result.route, meter.spent) == (3, "sandwich", 68)
    with pytest.raises(BudgetExceededError) as exc:
        searched_hunter_number(grid_graph(4, 4), budget=68)
    assert exc.value.phase == "search"


def test_budget_bounds_the_total_work_of_a_solve():
    # a tree whose deaf hunter number 3 is above both bounds (2): the
    # search blocks at 2 hunters and clears with 3
    g = graph_from_edges(8, [(0, 3), (1, 4), (1, 7), (2, 3), (2, 4), (2, 6), (5, 6)])
    assert max(degeneracy(g), lower_bound_union(g, DEAF)) == 2
    meter = Meter()
    assert hunter_number(g, DEAF, meter).hunter_number == 3
    assert meter.spent == 306  # 91 for the union bound, then the searches
    assert hunter_number(g, DEAF, meter.spent).hunter_number == 3
    with pytest.raises(BudgetExceededError) as exc:
        hunter_number(g, DEAF, meter.spent - 1)
    assert exc.value.phase == "search"
    assert exc.value.best_lower_bound == 3  # proved by the blocked search at 2


def test_bound_consistency_on_random_graphs():
    rng = random.Random(808)
    for _ in range(50):
        g = random_graph(rng, 7)
        for variant in (STANDARD, DEAF):
            result = hunter_number(g, variant)
            assert result.hunter_number >= degeneracy(g)
            assert all(result.hunter_number >= lower_bound_union(sub, variant)
                       for sub in _component_subgraphs(g))


def _component_subgraphs(g):
    from huntrab.graphs import components, induced_subgraph

    return [induced_subgraph(g, comp)[0] for comp in components(g)]


def test_parity_consistency_on_bipartite_families():
    # the best parity-respecting hunter count from either part alone equals
    # the unrestricted hunter number on connected bipartite graphs
    cases = [path_graph(n) for n in range(2, 8)]
    cases += [cycle_graph(n) for n in (4, 6)]
    cases += [grid_graph(2, 2), grid_graph(2, 4), star_graph(5), hypercube_graph(3)]
    for g in cases:
        parts = bipartition(g)
        exact = hunter_number(g).hunter_number
        for part in (parts.even, parts.odd):
            k = next(k for k in range(1, g.n + 1) if naive_can_clear(g, k, STANDARD, start=part))
            assert k == exact, g


def _full_start_hunter_number(g):
    return next(k for k in range(1, g.n + 1) if can_clear(g, k).status == CLEARED)


def test_parity_split_matches_full_set_search():
    # the split solve against the full-set search, its oracle
    rng = random.Random(707)
    cases = [path_graph(2), path_graph(3), star_graph(1), star_graph(4), star_graph(7)]
    cases += [cycle_graph(n) for n in (4, 6, 8, 10)]
    cases.append(graph_from_edges(5, [(0, 1), (1, 2), (2, 3)]))  # vertex 4 isolated
    while len(cases) < 150:
        g = _random_bipartite_graph(rng, 12)
        if len(components(g)) == 1:
            cases.append(g)
    for g in cases:
        result = hunter_number(g)
        exact = _full_start_hunter_number(g)
        assert result.hunter_number == exact, list(g.edges())
        assert result.lower_bound_used <= exact
        assert result.witness.max_hunters <= exact
        assert isinstance(verify(g, result.witness, "any"), Caught), list(g.edges())


def test_paired_seed_stays_below_the_odd_start():
    # the per-side rule surplus(side) + 1 would seed P3's odd side at 2
    # hunters, but one hunter clears it from there
    p3 = path_graph(3)
    odd = bipartition(p3).odd
    assert surplus(union_profile(p3, "odd")) + 1 == 2
    assert can_clear(p3, 1, start=odd).status == CLEARED
    result = hunter_number(p3)
    assert result.lower_bound_used == result.hunter_number == 1


def test_k_monotonicity_small_sample():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng, 6)
        for k in range(1, 3):
            if can_clear(g, k).status == CLEARED:
                assert can_clear(g, k + 1).status == CLEARED


# ---------------------------------------------------------------------------
# The sandwich route: a nest strategy that meets the lower bound


def agree_with_the_search(g, variant) -> str:
    """The hunter number and bound of the search, a witness that catches
    with at most h shots per round, and on the sandwich route no state
    searched; returns the route."""
    result = hunter_number(g, variant)
    searched = searched_hunter_number(g, variant)
    case = (list(g.edges()), variant)
    assert result.hunter_number == searched.hunter_number, case
    assert result.lower_bound_used == searched.lower_bound_used, case
    assert result.witness.max_hunters <= result.hunter_number, case
    assert isinstance(verify(g, result.witness), Caught), case
    if result.route == "sandwich":
        assert result.explored_states == 0 and result.hunter_number == result.lower_bound_used, case
    else:
        assert result.route == "search" and searched.route == "search", case
    return result.route


@pytest.mark.parametrize("variant", [STANDARD, DEAF])
def test_sandwich_answers_as_the_search_on_the_quotient_cases(variant):
    routes = Counter(agree_with_the_search(g if seed is None else relabelled(g, seed), variant)
                     for g in QUOTIENT_CASES for seed in (None, 1, 2, 3))
    assert routes["sandwich"] >= 10, routes


@pytest.mark.parametrize("variant", [STANDARD, DEAF])
def test_sandwich_answers_as_the_search_on_random_graphs(variant):
    rng = random.Random(24)
    routes = Counter(agree_with_the_search(random_graph(rng, 10), variant) for _ in range(200))
    assert routes["sandwich"] and routes["search"], routes


def test_the_sandwich_meets_the_grid_values_on_any_numbering():
    # standard h = floor(min(m, n) / 2) + 1 and deaf h = min(m, n) + 1, met by
    # an order that ignores the numbering
    for m in range(1, 11):
        for n in range(max(m, 2), 11):
            for seed in (None, 1, 2, 3):
                g = grid_graph(m, n) if seed is None else relabelled(grid_graph(m, n), seed)
                assert _sandwich(g, STANDARD, m // 2 + 1) is not None, (m, n, seed)
                assert _sandwich(g, DEAF, m + 1) is not None, (m, n, seed)


@pytest.mark.parametrize("size, h", [(7, 4), (8, 5), (9, 5)])
def test_relabelled_grids_answer_by_the_sandwich(size, h):
    for seed in (1, 2, 3):
        result = hunter_number(relabelled(grid_graph(size, size), seed))
        assert (result.hunter_number, result.route) == (h, "sandwich"), seed


def test_the_search_answers_where_the_certificate_fails():
    # a tree whose deaf hunter number is its bound 2, but whose learned
    # order's strategy does not catch with 2 hunters
    tree = graph_from_edges(6, [(0, 3), (0, 5), (1, 3), (2, 3), (2, 4)])
    assert lower_bound(tree, DEAF) == 2 and _sandwich(tree, DEAF, 2) is None
    result = hunter_number(tree, DEAF)
    assert (result.hunter_number, result.route) == (2, "search") and result.explored_states > 0
    # one searched component puts the whole solve on the search route
    q3_and_tree = graph_from_edges(14, list(hypercube_graph(3).edges())
                                   + [(8 + u, 8 + v) for u, v in tree.edges()])
    result = hunter_number(q3_and_tree, DEAF)
    assert (result.hunter_number, result.route) == (5, "search")
    assert hunter_number(hypercube_graph(3), DEAF).route == "sandwich"

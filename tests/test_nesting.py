import random

import pytest

from conftest import (
    capped_nest_strategy,
    check_isoperimetric_nesting,
    greedy_orders,
    initial_segments,
    lex_key,
    random_graph,
    segment_nest_strategy,
    surplus,
    sweep_grid_order,
    union_profile,
    weightlex_key,
)
from huntrab import nesting
from huntrab.dynamics import DEAF, STANDARD, Caught, extend_parity, moves, run, step, verify
from huntrab.errors import (
    BudgetExceededError,
    FormatError,
    InvalidOrderError,
    InvalidParameterError,
    NonTerminatingError,
)
from huntrab.graphs import (
    bipartition,
    bits,
    cube_dim,
    cycle_graph,
    graph_from_edges,
    grid_graph,
    hypercube_graph,
    mask_of,
    path_graph,
    side_mask,
    star_graph,
)
from huntrab.nesting import (
    BIPARTITE,
    FULL,
    NestOrder,
    format_nest_order,
    grid_nest_order,
    iter_weightlex,
    nest_orders,
    nest_strategy,
    parse_nest_order,
    shot_labels,
    weightlex_full_order,
    weightlex_nest_order,
)
from huntrab.solver import Meter, hunter_number

from test_dynamics import Q4_SHOT_LABELS


# grids whose diagonal sweep order is an isoperimetric nesting
NESTING_GRIDS = [(1, 3), (1, 5), (2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 5)]


def subset(*elements: int) -> int:
    return mask_of(e - 1 for e in elements)


# ---------------------------------------------------------------------------
# Orders


def test_lex_order_on_three_elements():
    assert lex_key(subset(1, 2, 3), 3) < lex_key(subset(1, 2), 3)
    assert lex_key(subset(1), 3) < lex_key(subset(2, 3), 3)
    assert len({lex_key(v, 3) for v in range(8)}) == 8
    expected = [subset(1, 2, 3), subset(1, 2), subset(1, 3), subset(1),
                subset(2, 3), subset(2), subset(3), 0]
    assert sorted(range(8), key=lambda v: lex_key(v, 3)) == expected


def test_weightlex_order_on_three_elements():
    assert sorted(range(8), key=lambda v: weightlex_key(v, 3)) == [
        0, subset(1), subset(2), subset(3),
        subset(1, 2), subset(1, 3), subset(2, 3), subset(1, 2, 3)]
    assert weightlex_key(0, 3) < weightlex_key(subset(1), 3)
    assert weightlex_key(subset(1, 3), 4) < weightlex_key(subset(2, 3), 4)


def test_weightlex_orders_equal_the_key_sorted_orders():
    for n in range(9):
        g = hypercube_graph(n)
        ranked = sorted(range(g.n), key=lambda v: weightlex_key(v, n))
        assert weightlex_full_order(g).order_all == tuple(ranked)
        order = weightlex_nest_order(g)
        assert order.order_even == tuple(v for v in ranked if v.bit_count() % 2 == 0)
        assert order.order_odd == tuple(v for v in ranked if v.bit_count() % 2 == 1)
    # a ground set with gaps, as compression uses: {1, 3, 4, 6} of {1..6}
    ground_mask = subset(1, 3, 4, 6)
    ranked = sorted((v for v in range(64) if v & ~ground_mask == 0), key=lambda v: weightlex_key(v, 6))
    assert tuple(iter_weightlex((1, 3, 4, 6))) == tuple(ranked)
    assert tuple(iter_weightlex((1, 3, 4, 6), 1)) == tuple(v for v in ranked if v.bit_count() % 2)


def test_weightlex_nest_order_q3():
    order = weightlex_nest_order(hypercube_graph(3))
    assert order.order_even == (0, subset(1, 2), subset(1, 3), subset(2, 3))
    assert order.order_odd == (subset(1), subset(2), subset(3), subset(1, 2, 3))


def test_grid_compare_rule():
    # the anchor order from two corners is the sweep by grid coordinates
    for m in range(1, 13):
        for n in range(1, 13):
            assert grid_nest_order(m, n) == sweep_grid_order(m, n), (m, n)


def test_initial_segment():
    order = weightlex_nest_order(hypercube_graph(3))
    segments = initial_segments(order, "even")
    assert segments == [mask_of(order.order_even[:r]) for r in range(5)]
    assert segments[2] == mask_of([0, subset(1, 2)])
    assert segments[0] == 0
    assert initial_segments(order, "odd")[4] == bipartition(hypercube_graph(3)).odd
    with pytest.raises(InvalidParameterError):
        initial_segments(order, "all")


def test_weightlex_orders_match_bipartition():
    for n in range(1, 6):
        g = hypercube_graph(n)
        order = weightlex_nest_order(g)
        parts = bipartition(g)
        assert mask_of(order.order_even) == parts.even
        assert mask_of(order.order_odd) == parts.odd
    with pytest.raises(InvalidParameterError):
        weightlex_nest_order(path_graph(3))


def test_nest_order_constructor_validation():
    with pytest.raises(InvalidParameterError):
        NestOrder(BIPARTITE, (0, 1), None)
    with pytest.raises(InvalidParameterError):
        NestOrder(FULL, (0,), (1,), (0, 1))
    with pytest.raises(InvalidParameterError):
        NestOrder(FULL, order_all=(0, 0))
    with pytest.raises(InvalidParameterError):
        NestOrder("diagonal", order_all=(0,))
    # a negative index once reached the nesting check and the strategy as
    # an uncaught ValueError from a negative shift
    with pytest.raises(InvalidParameterError, match="negative"):
        NestOrder(BIPARTITE, (0, 3, 5, -6), (1, 2, 4, 7))
    with pytest.raises(InvalidParameterError, match="negative"):
        NestOrder(FULL, order_all=(0, -1))


def test_nest_orders_lead_with_weightlex_and_include_the_grid_sweep():
    for n in range(7):
        g = hypercube_graph(n)
        assert next(nest_orders(g, STANDARD)) == weightlex_nest_order(g), n
        assert next(nest_orders(g, DEAF)) == weightlex_full_order(g), n
    for m, n in [(2, 2), (2, 3), (3, 2), (4, 4), (5, 7), (1, 7), (7, 1)]:
        assert grid_nest_order(m, n) in nest_orders(grid_graph(m, n), STANDARD), (m, n)
    assert grid_nest_order(1, 7) in nest_orders(path_graph(7), STANDARD)
    # weightlex leads only what gen writes for a cube
    unlabelled = graph_from_edges(8, list(hypercube_graph(3).edges()))
    for variant in (STANDARD, DEAF):
        assert next(nest_orders(unlabelled, variant)) == greedy_orders(unlabelled, variant)[0]


@pytest.mark.parametrize("variant", [STANDARD, DEAF])
def test_the_learned_orders_are_the_ball_counting_greedy(variant):
    # the BFS tie-break by distances() moves no learned order
    rng = random.Random(26)
    for _ in range(200):
        g = random_graph(rng, 12)
        if variant == STANDARD and bipartition(g) is None:
            g = graph_from_edges(g.n, [(u, v) for u, v in g.edges() if (u + v) % 2])
        orders, expected = nest_orders(g, variant), greedy_orders(g, variant)
        if cube_dim(g) is not None:  # a lone vertex is Q0, which weightlex leads
            next(orders)
        assert [next(orders) for _ in expected] == expected, (list(g.edges()), variant)


@pytest.mark.parametrize("variant", [STANDARD, DEAF])
def test_every_order_holds_each_side_with_isolated_vertices(variant):
    # a vertex of the following part with no neighbour in the lead part
    # still ends that part's order, so _bind accepts every order
    rng = random.Random(29)
    isolated = 0
    for _ in range(200):
        g = random_graph(rng, 10)
        edges = list(g.edges())
        if variant == STANDARD:
            edges = [(u, v) for u, v in edges if (u + v) % 2]
        g = graph_from_edges(g.n + rng.randrange(3), edges)
        isolated += sum(g.adj[v] == 0 for v in range(g.n))
        for order in nest_orders(g, variant):
            nesting._bind(g, order)
    assert isolated > 100, isolated


def test_the_anchor_orders_start_at_the_first_least_degree_vertex():
    # a star's leaves are its least-degree vertices, all at distance 2 from
    # leaf 1; each leaf at distance 2 leads its ties
    anchors = [order.order_all for order in list(nest_orders(star_graph(4), DEAF))[1:]]
    assert anchors == [(1, 0, 2, 3, 4), (1, 0, 3, 2, 4), (1, 0, 4, 2, 3)]
    # a lone vertex of least degree is its own second anchor
    pendant = graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    assert list(nest_orders(pendant, DEAF))[1:] == [NestOrder(FULL, order_all=(3, 0, 1, 2))]
    assert list(nest_orders(graph_from_edges(0, []), DEAF)) == [NestOrder(FULL, order_all=())]


# ---------------------------------------------------------------------------
# Nesting checks


def test_isoperimetric_nesting_hypercubes_pass():
    for n in range(1, 5):
        g = hypercube_graph(n)
        assert check_isoperimetric_nesting(g, weightlex_nest_order(g)).ok


def test_isoperimetric_nesting_grids_pass():
    for m, n in NESTING_GRIDS:
        g = grid_graph(m, n)
        assert check_isoperimetric_nesting(g, grid_nest_order(m, n)).ok, (m, n)


def test_some_grids_have_no_nesting_with_the_diagonal_order():
    # the odd part's minimum sits at a far corner the sweep reaches late
    for m, n in [(1, 4), (1, 6), (3, 4)]:
        report = check_isoperimetric_nesting(grid_graph(m, n), grid_nest_order(m, n))
        assert not report.ok
        assert report.violations[0][:2] == ("odd", 1)


def test_reversed_even_order_fails_at_k1():
    q4 = hypercube_graph(4)
    good = weightlex_nest_order(q4)
    bad = NestOrder(BIPARTITE, tuple(reversed(good.order_even)), good.order_odd)
    report = check_isoperimetric_nesting(q4, bad)
    assert not report.ok
    assert report.violations[0][:2] == ("even", 1)


def test_nesting_check_rejects_foreign_order():
    q3 = hypercube_graph(3)
    other = weightlex_nest_order(hypercube_graph(2))
    with pytest.raises(InvalidOrderError):
        check_isoperimetric_nesting(q3, NestOrder(BIPARTITE, other.order_even, other.order_odd))
    with pytest.raises(InvalidParameterError):
        check_isoperimetric_nesting(cycle_graph(5), weightlex_nest_order(hypercube_graph(2)))


def test_closed_nesting():
    q3 = hypercube_graph(3)
    assert check_isoperimetric_nesting(q3, weightlex_full_order(q3)).ok
    report = check_isoperimetric_nesting(cycle_graph(4), NestOrder(FULL, order_all=(0, 1, 2, 3)))
    assert not report.ok
    assert any("initial segment" in reason for _, _, reason in report.violations)
    # a path ordered along itself nests in the closed sense
    assert check_isoperimetric_nesting(path_graph(3), NestOrder(FULL, order_all=(0, 1, 2))).ok


def test_nesting_check_enumerates_each_side_once_and_the_strategy_nothing(monkeypatch):
    # each side of Q^4 has 8 vertices, and its profile's branch and bound
    # scans 248 candidates
    q4 = hypercube_graph(4)
    order = weightlex_nest_order(q4)
    meter = Meter()
    assert check_isoperimetric_nesting(q4, order, meter).ok
    assert meter.spent == 2 * 248
    with pytest.raises(BudgetExceededError) as exc:
        check_isoperimetric_nesting(q4, order, budget=2 * 248 - 1)
    # the even side and the odd side's k = 1..7 are paid for; the exit also
    # counts the 8 units of k = 8, whose node passed the budget
    assert exc.value.phase == "bound" and exc.value.spent == 2 * 248
    charges = []
    monkeypatch.setattr(Meter, "spend", lambda self, units, phase: charges.append(units))
    nest_strategy(q4, order, 5)
    assert charges == []  # the side choice reads the order's own segments
    monkeypatch.undo()
    meter = Meter()
    assert check_isoperimetric_nesting(q4, weightlex_full_order(q4), meter).ok
    assert meter.spent == 15_090


# ---------------------------------------------------------------------------
# Strategy construction


def test_nest_strategy_reproduces_published_q4_rounds():
    q4 = hypercube_graph(4)
    order = weightlex_nest_order(q4)
    strategy = nest_strategy(q4, order, 5)
    assert shot_labels(q4, strategy, order) == Q4_SHOT_LABELS
    assert all(shot.bit_count() == 5 for shot in strategy.shots)
    extended = extend_parity(q4, strategy)
    assert isinstance(verify(q4, extended), Caught)


def test_nest_strategy_q3_terminates_and_extends():
    q3 = hypercube_graph(3)
    strategy = nest_strategy(q3, weightlex_nest_order(q3), 3)
    assert isinstance(verify(q3, extend_parity(q3, strategy)), Caught)


def test_nest_strategy_too_few_hunters_does_not_terminate():
    q3 = hypercube_graph(3)
    with pytest.raises(NonTerminatingError):
        nest_strategy(q3, weightlex_nest_order(q3), 2)
    with pytest.raises(InvalidParameterError):
        nest_strategy(q3, weightlex_nest_order(q3), 0)


def test_nest_strategy_takes_no_hunter_only_on_the_empty_graph():
    # the empty graph's hunter number is 0, and its strategy shoots nothing
    empty = graph_from_edges(0, [])
    for order in (NestOrder(BIPARTITE, (), ()), NestOrder(FULL, order_all=())):
        assert nest_strategy(empty, order, 0).shots == ()
        with pytest.raises(InvalidParameterError):
            nest_strategy(empty, order, -1)
    q3 = hypercube_graph(3)
    with pytest.raises(InvalidParameterError):
        nest_strategy(q3, weightlex_full_order(q3), 0)


def test_nest_strategy_detects_non_nesting_order():
    # the oracle refuses a position set that is no initial segment; the
    # strategy shoots the set's tail anyway and verify judges the result
    q3 = hypercube_graph(3)
    good = weightlex_nest_order(q3)
    scrambled = NestOrder(BIPARTITE, (good.order_even[1], good.order_even[0]) + good.order_even[2:],
                          good.order_odd)
    with pytest.raises(InvalidOrderError):
        segment_nest_strategy(q3, scrambled, 3)
    strategy = nest_strategy(q3, scrambled, 3)
    assert strategy.shots != nest_strategy(q3, good, 3).shots
    assert isinstance(verify(q3, extend_parity(q3, strategy)), Caught)
    # a path whose two parts are swept in opposite directions drives no set
    # down with one hunter, which clears the path along the sweep
    p7, sweep = path_graph(7), grid_nest_order(1, 7)
    assert isinstance(verify(p7, extend_parity(p7, nest_strategy(p7, sweep, 1))), Caught)
    with pytest.raises(NonTerminatingError):
        nest_strategy(p7, NestOrder(BIPARTITE, sweep.order_even, sweep.order_odd[::-1]), 1)


# weightlex on Q0-Q6 in both games, and the sweep on every grid or path of
# up to 20 cells
SEGMENT_CASES = ([(hypercube_graph(n), order(hypercube_graph(n))) for n in range(7)
                  for order in (weightlex_nest_order, weightlex_full_order)]
                 + [(grid_graph(m, n), grid_nest_order(m, n))
                    for m in range(1, 21) for n in range(1, 20 // m + 1)])


def test_nest_strategy_shoots_the_segment_tails_on_weightlex_and_the_sweep():
    # wherever each position set is an initial segment, as on an order that
    # nests, the shots are the oracle's, for every hunter count
    for g, order in SEGMENT_CASES:
        variant = order.variant
        compared = 0
        for m in range(1, g.n + 1):
            try:
                expected = segment_nest_strategy(g, order, m)
            except InvalidOrderError:
                continue
            except NonTerminatingError:
                with pytest.raises(NonTerminatingError):
                    nest_strategy(g, order, m)
                continue
            assert nest_strategy(g, order, m) == expected, (g.n, g.edge_count, variant, m)
            compared += 1
        assert compared, (g.n, g.edge_count, variant)


@pytest.mark.parametrize("variant", [STANDARD, DEAF])
def test_nest_strategy_stopping_at_a_repeated_state_keeps_every_outcome(variant):
    # every order nest_orders makes for a random graph of 1-14 vertices, at
    # every count up to n + 1, against the oracle's sorted shot selection:
    # the same shots, or the same error on both sides
    rng = random.Random(28)
    for _ in range(200):
        g = random_graph(rng, 14)
        if variant == STANDARD and bipartition(g) is None:
            g = graph_from_edges(g.n, [(u, v) for u, v in g.edges() if (u + v) % 2])
        for order in nest_orders(g, variant):
            for m in range(1, g.n + 2):
                try:
                    expected = capped_nest_strategy(g, order, m)
                except (NonTerminatingError, InvalidOrderError) as exc:
                    with pytest.raises(type(exc)):
                        nest_strategy(g, order, m)
                    continue
                assert nest_strategy(g, order, m) == expected, (list(g.edges()), variant, m)


def test_nest_strategy_stops_when_a_state_repeats(monkeypatch):
    # the path's parts swept in opposite directions: one hunter's position
    # sets cycle, and the strategy stops well before its 28-round cap
    p7, sweep = path_graph(7), grid_nest_order(1, 7)
    calls = []
    monkeypatch.setattr(nesting, "step", lambda *a: calls.append(a) or step(*a))
    with pytest.raises(NonTerminatingError, match="in 28 rounds"):
        nest_strategy(p7, NestOrder(BIPARTITE, sweep.order_even, sweep.order_odd[::-1]), 1)
    assert 0 < len(calls) < 28


def test_nest_strategy_deaf_q3():
    q3 = hypercube_graph(3)
    strategy = nest_strategy(q3, weightlex_full_order(q3), 5)
    assert [bits(s) for s in strategy.shots] == [
        [3, 4, 5, 6, 7], [2, 3, 4, 5, 6], [1, 2, 3, 4, 5], [0, 1, 2, 3, 4]]
    assert verify(q3, strategy) == Caught(step=4)


def test_nest_strategy_drives_the_side_with_the_smaller_union_surplus():
    cases = [(hypercube_graph(n), weightlex_nest_order(hypercube_graph(n))) for n in range(1, 5)]
    cases += [(grid_graph(m, n), grid_nest_order(m, n)) for m, n in NESTING_GRIDS]
    cases.append((star_graph(4), NestOrder(BIPARTITE, (0,), (1, 2, 3, 4))))  # drives odd
    for g, order in cases:
        assert check_isoperimetric_nesting(g, order).ok
        u_even, u_odd = surplus(union_profile(g, "even")), surplus(union_profile(g, "odd"))
        driven = "even" if u_even <= u_odd else "odd"
        strategy = nest_strategy(g, order, max(u_even, u_odd) + 1)
        first = next(s for s in strategy.shots if s)
        assert first & ~side_mask(g, driven) == 0, (g.n, driven)


def test_nest_strategy_trace_strictly_decreases_every_two_rounds():
    cases = [(hypercube_graph(n), weightlex_nest_order(hypercube_graph(n)))
             for n in (2, 3, 4)]
    cases += [(grid_graph(m, n), grid_nest_order(m, n)) for m, n in [(2, 2), (2, 3), (3, 3)]]
    for g, order in cases:
        strategy = nest_strategy(g, order, hunter_number(g).hunter_number)
        first = next(s for s in strategy.shots if s)
        parts = bipartition(g)
        start = parts.even if first & parts.even else parts.odd
        trace = run(g, strategy, start)
        sizes = [s.bit_count() for s in trace.sets]
        assert sizes[-1] == 0
        for i in range(len(sizes) - 2):
            assert sizes[i + 2] < sizes[i]


# ---------------------------------------------------------------------------
# Segment-shape property of weightlex on cubes


def test_neighborhood_of_weightlex_segment_is_weightlex_segment():
    for n in range(1, 7):
        g = hypercube_graph(n)
        order = weightlex_nest_order(g)
        for side, other in (("even", "odd"), ("odd", "even")):
            seq = order.sequence(side)
            other_seq = order.sequence(other)
            for k in range(1, len(seq) + 1):
                nb = step(moves(g, STANDARD), mask_of(seq[:k]), 0)
                assert nb == mask_of(other_seq[:nb.bit_count()]), (n, side, k)


def test_even_and_odd_profiles_agree_on_cubes():
    for n in range(1, 5):
        g = hypercube_graph(n)
        assert list(union_profile(g, "even")) == list(union_profile(g, "odd"))


# ---------------------------------------------------------------------------
# Files


def test_nest_order_round_trip():
    for order in (weightlex_nest_order(hypercube_graph(3)),
                  grid_nest_order(2, 3),
                  weightlex_full_order(hypercube_graph(2)),
                  weightlex_nest_order(hypercube_graph(0)),
                  NestOrder(BIPARTITE, (), ()),
                  NestOrder(FULL, order_all=())):
        text = format_nest_order(order)
        assert parse_nest_order(text) == order
        assert format_nest_order(parse_nest_order(text)) == text


def test_nest_order_parse_errors():
    with pytest.raises(FormatError):
        parse_nest_order("0 1 2\n")
    with pytest.raises(FormatError):
        parse_nest_order("kind full\n0 1\n2 3\n")
    with pytest.raises(FormatError):
        parse_nest_order("kind bipartite\n0 1\n")
    with pytest.raises(FormatError) as exc:
        parse_nest_order("kind full\n0 x\n")
    assert exc.value.line == 2
    with pytest.raises(FormatError):
        parse_nest_order("kind mystery\n0\n")
    with pytest.raises(FormatError) as exc:
        parse_nest_order("kind bipartite\n0 3 5 -6\n1 2 4 7\n")
    assert exc.value.line == 2
    with pytest.raises(FormatError):
        parse_nest_order("kindly bipartite\n0 3 5 6\n1 2 4 7\n")

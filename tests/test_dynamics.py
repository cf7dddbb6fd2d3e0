import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph, random_mask, shots_from_vertices
from huntrab.dynamics import (
    DEAF,
    STANDARD,
    Caught,
    Escaped,
    Strategy,
    concatenate,
    extend_parity,
    format_strategy,
    moves,
    parse_strategy,
    run,
    step,
    verify,
)
from huntrab.errors import FormatError, InvalidParameterError, InvalidStrategyError
from huntrab.graphs import (
    bipartition,
    cycle_graph,
    grid_graph,
    hypercube_graph,
    mask_of,
    path_graph,
    star_graph,
)

# The published four-round strategy for the 4-cube, keyed by vertex labels.
Q4_SHOT_LABELS = [
    ["1001", "0110", "0101", "0011", "1111"],
    ["0010", "0001", "1110", "1101", "1011"],
    ["1100", "1010", "1001", "0110", "0101"],
    ["1000", "0100", "0010", "0001", "1110"],
]


def q4_paper_strategy() -> Strategy:
    q4 = hypercube_graph(4)
    index = {label: v for v, label in enumerate(q4.labels)}
    return shots_from_vertices([[index[s] for s in shot] for shot in Q4_SHOT_LABELS])


# ---------------------------------------------------------------------------
# step / run


def test_step_examples():
    p3 = path_graph(3)
    assert step(moves(p3, STANDARD), 0b111, 0b010) == 0b010
    assert step(moves(p3, DEAF), 0b111, 0b010) == 0b111
    assert step(moves(cycle_graph(5), STANDARD), 0, 0b1) == 0


def test_run_path_sweep_catches_even_part():
    # shooting 0,1,2 in order clears a rabbit that starts on the part of
    # vertex 0; twice in a row clears every start on this odd-length path
    p3 = path_graph(3)
    sweep = shots_from_vertices([[0], [1], [2]])
    parts = bipartition(p3)
    assert run(p3, sweep, parts.even).caught_at <= 3
    assert isinstance(verify(p3, concatenate(sweep, sweep)), Caught)


def test_run_empty_strategy():
    p3 = path_graph(3)
    empty = Strategy(())
    assert run(p3, empty, p3.full_mask).sets == (0b111,)
    assert run(p3, empty, p3.full_mask).caught_at is None
    assert run(p3, empty, 0).caught_at == 0


def test_run_repeated_shot_never_catches():
    p3 = path_graph(3)
    trace = run(p3, shots_from_vertices([[0], [0]]), p3.full_mask)
    assert trace.sets == (0b111, 0b111, 0b111)
    assert trace.caught_at is None


def test_run_rejects_out_of_range_shot():
    with pytest.raises(InvalidStrategyError):
        run(path_graph(2), shots_from_vertices([[5]]), 0b11)


# ---------------------------------------------------------------------------
# verify


def test_verify_sweep_twice_catches_path():
    p3 = path_graph(3)
    s = shots_from_vertices([[0], [1], [2], [0], [1], [2]])
    assert verify(p3, s) == Caught(step=5)


def test_verify_escape_witness_is_backchained():
    p3 = path_graph(3)
    out = verify(p3, shots_from_vertices([[0], [0]]))
    assert out == Escaped(walk=(2, 1, 0))


def walk_is_valid(g, strategy, start, walk):
    trace = run(g, strategy, start)
    deaf = strategy.variant == DEAF
    assert len(walk) == len(trace.sets)
    for i, v in enumerate(walk):
        assert trace.sets[i] >> v & 1
        if i < len(strategy.shots):
            assert not strategy.shots[i] >> v & 1
        if i:
            ok = g.adj[walk[i - 1]] >> v & 1 or (deaf and walk[i - 1] == v)
            assert ok
    return True


def test_escape_witness_invariants_hold():
    rng = random.Random(4242)
    found = 0
    for _ in range(300):
        g = random_graph(rng, 7)
        shots = tuple(random_mask(rng, g.n) for _ in range(rng.randrange(0, 5)))
        s = Strategy(shots, rng.choice([STANDARD, DEAF]))
        out = verify(g, s)
        if isinstance(out, Escaped):
            found += 1
            walk_is_valid(g, s, g.full_mask, out.walk)
    assert found > 100


def test_verify_q4_paper_strategy_from_even_start():
    q4 = hypercube_graph(4)
    assert verify(q4, q4_paper_strategy(), "even") == Caught(step=4)


def test_verify_start_validation():
    with pytest.raises(InvalidParameterError):
        verify(cycle_graph(5), Strategy(()), "even")
    with pytest.raises(InvalidParameterError):
        verify(path_graph(3), Strategy(()), "sideways")


# ---------------------------------------------------------------------------
# concatenate / extend_parity


def test_concatenate():
    a = shots_from_vertices([[0], [1]])
    b = shots_from_vertices([[2], [0], [1]])
    assert len(concatenate(a, b)) == 5
    assert concatenate(a, Strategy(())) == a
    with pytest.raises(InvalidParameterError):
        concatenate(a, Strategy((), DEAF))


def test_extend_parity_even_length_inserts_gap():
    q4 = hypercube_graph(4)
    s = q4_paper_strategy()
    ext = extend_parity(q4, s)
    assert len(ext) == 9
    assert ext.shots[4] == 0
    assert isinstance(verify(q4, ext), Caught)


def test_extend_parity_odd_length_replays():
    p3 = path_graph(3)
    sweep = shots_from_vertices([[0], [1], [2]])
    ext = extend_parity(p3, sweep)
    assert len(ext) == 6
    assert isinstance(verify(p3, ext), Caught)


def test_extend_parity_rejects_bad_inputs():
    p4 = path_graph(4)
    with pytest.raises(InvalidParameterError, match="mixes"):
        extend_parity(p4, shots_from_vertices([[0, 1]]))
    with pytest.raises(InvalidParameterError, match="alternation"):
        extend_parity(p4, shots_from_vertices([[0], [2]]))
    with pytest.raises(InvalidParameterError):
        extend_parity(cycle_graph(5), Strategy(()))
    with pytest.raises(InvalidParameterError):
        extend_parity(p4, Strategy((), DEAF))


# ---------------------------------------------------------------------------
# Invariants


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_monotone_dynamics_and_wasted_shots(data):
    g = data.draw(st.sampled_from(
        [path_graph(5), cycle_graph(6), grid_graph(2, 3), hypercube_graph(3), star_graph(4)]))
    big = data.draw(st.integers(min_value=0, max_value=g.full_mask))
    small = big & data.draw(st.integers(min_value=0, max_value=g.full_mask))
    shot = data.draw(st.integers(min_value=0, max_value=g.full_mask))
    for variant in (STANDARD, DEAF):
        nbrs = moves(g, variant)
        assert step(nbrs, small, shot) & ~step(nbrs, big, shot) == 0
        assert step(nbrs, big, shot) == step(nbrs, big, shot & big)


def test_deaf_catch_implies_standard_catch():
    rng = random.Random(31337)
    checked = 0
    for _ in range(400):
        g = random_graph(rng, 6)
        shots = tuple(random_mask(rng, g.n) for _ in range(rng.randrange(1, 6)))
        deaf_trace = run(g, Strategy(shots, DEAF), g.full_mask)
        std_trace = run(g, Strategy(shots, STANDARD), g.full_mask)
        for i in range(min(len(std_trace.sets), len(deaf_trace.sets))):
            assert std_trace.sets[i] & ~deaf_trace.sets[i] == 0
        if deaf_trace.caught_at is not None:
            checked += 1
            assert std_trace.caught_at is not None
            assert std_trace.caught_at <= deaf_trace.caught_at
    assert checked > 50


# ---------------------------------------------------------------------------
# Text format


def test_strategy_round_trip_is_exact():
    s = Strategy((mask_of([0, 2]), 0, mask_of([1]), 0), DEAF)
    text = format_strategy(s)
    assert parse_strategy(text) == s
    assert format_strategy(parse_strategy(text)) == text
    assert text == "variant: deaf\n0 2\n\n1\n\n"


def test_strategy_parse_errors():
    with pytest.raises(FormatError) as exc:
        parse_strategy("0 1\n")
    assert exc.value.line == 1
    with pytest.raises(FormatError) as exc:
        parse_strategy("variant: standard\n0 x\n")
    assert exc.value.line == 2
    with pytest.raises(FormatError) as exc:
        parse_strategy("variant: loud\n")
    assert exc.value.line == 1
    with pytest.raises(FormatError) as exc:
        parse_strategy("variant: standard\n1 1\n")
    assert exc.value.line == 2

"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
All tolerances are exact equality; the seeded property suites run at least
1000 cases each.
"""

import json
import random
import time
from contextlib import contextmanager
from itertools import accumulate

from conftest import (
    check_isoperimetric_nesting,
    compress_fully,
    compress_ij,
    initial_even_segment,
    is_compressed,
    random_graph,
    random_mask,
    subset_neighborhood,
    union_profile,
)
from huntrab import cli
from huntrab.cube import (
    cube_deaf_surplus,
    cube_diff_seq,
    cube_hunter_number,
    cube_hunter_upper,
    cube_surplus,
    cube_surplus_closed_form,
)
from huntrab.dynamics import DEAF, STANDARD, Caught, extend_parity, moves, step, verify
from huntrab.graphs import cycle_graph, grid_graph, hypercube_graph, path_graph, star_graph
from huntrab.nesting import (
    grid_nest_order,
    nest_strategy,
    shot_labels,
    weightlex_full_order,
    weightlex_nest_order,
)
from huntrab.solver import CLEARED, can_clear, hunter_number


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {description}")
        raise
    print(f"criterion {num}: PASS - {description}")


def test_criterion_1_oracle_table():
    with criterion(1, "exact hunter numbers of the small-family table"):
        table = []
        table += [(path_graph(n), 1) for n in range(2, 8)]
        table += [(star_graph(n), 1) for n in range(1, 7)]
        table += [(cycle_graph(n), 2) for n in range(3, 7)]
        table += [(grid_graph(2, n), 2) for n in range(2, 6)]
        table += [(grid_graph(3, 3), 2), (hypercube_graph(2), 2), (hypercube_graph(3), 3)]
        for g, expected in table:
            started = time.perf_counter()
            assert hunter_number(g).hunter_number == expected
            assert time.perf_counter() - started < 60


def test_criterion_2_published_q4_strategy_byte_exact():
    with criterion(2, "the 4-cube strategy is reproduced byte-exactly and extends"):
        q4 = hypercube_graph(4)
        order = weightlex_nest_order(q4)
        strategy = nest_strategy(q4, order, 5)
        assert shot_labels(q4, strategy, order) == [
            ["1001", "0110", "0101", "0011", "1111"],
            ["0010", "0001", "1110", "1101", "1011"],
            ["1100", "1010", "1001", "0110", "0101"],
            ["1000", "0100", "0010", "0001", "1110"],
        ]
        assert isinstance(verify(q4, extend_parity(q4, strategy)), Caught)


def test_criterion_3_analytic_profiles_match_brute_force():
    with criterion(3, "analytic cube profiles equal brute force for n <= 5, both sides"):
        for n in range(1, 6):
            g = hypercube_graph(n)
            analytic = tuple(accumulate(cube_diff_seq(n, "even")))
            even = tuple(union_profile(g, "even"))
            odd = tuple(union_profile(g, "odd"))
            assert even == analytic
            assert odd == analytic
            assert even == odd
            assert tuple(accumulate(cube_diff_seq(n, "odd"))) == analytic


def test_criterion_4_closed_form_chain():
    with criterion(4, "surplus + 1 = closed form = branch formula + 1 for n <= 14"):
        started = time.perf_counter()
        for n in range(2, 15):
            hun = cube_hunter_number(n)
            assert cube_surplus(n) + 1 == hun
            assert cube_surplus_closed_form(n) + 1 == hun
        for n in range(1, 15):
            assert cube_hunter_number(n) <= cube_hunter_upper(n)
        assert time.perf_counter() - started < 10


def test_criterion_5_exact_solver_matches_closed_form_on_cubes():
    with criterion(5, "exact solver equals the closed form on cubes up to Q5"):
        for n in (1, 2, 3, 4):
            assert hunter_number(hypercube_graph(n)).hunter_number == cube_hunter_number(n)
        # the first cube past Q4 on the search route: the parity split and
        # the orbit quotient need 52,434 units, 1,344 of them for the
        # paired bound
        q5 = hypercube_graph(5)
        result = hunter_number(q5)
        assert result.hunter_number == cube_hunter_number(5) == 8
        assert result.witness.max_hunters <= 8
        assert isinstance(verify(q5, result.witness), Caught)


def test_criterion_6_compression_suite():
    with criterion(6, "compression preserves size, never grows neighborhoods"):
        def check_family(fam, n, pairs):
            n_fam = len(subset_neighborhood(fam, n))
            for i, j in pairs:
                out = compress_ij(fam, i, j, n)
                assert len(out) == len(fam)
                assert len(subset_neighborhood(out, n)) <= n_fam
            terminal, _ = compress_fully(fam, n)
            assert is_compressed(terminal, n)
            seg = initial_even_segment(n, len(fam))
            assert n_fam >= len(subset_neighborhood(seg, n))

        all_pairs_4 = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
        evens4 = sorted(initial_even_segment(4, 8))
        for selector in range(256):
            fam = frozenset(evens4[b] for b in range(8) if selector >> b & 1)
            check_family(fam, 4, all_pairs_4)

        rng = random.Random(0xC0FFEE)
        for n in (5, 6):
            evens = sorted(initial_even_segment(n, 1 << (n - 1)))
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            for _ in range(500):
                fam = frozenset(v for v in evens if rng.random() < rng.choice((0.2, 0.4, 0.6)))
                check_family(fam, n, rng.sample(pairs, 3))


def test_criterion_7_nesting_checks():
    with criterion(7, "weightlex and grid nest orders verify with zero violations"):
        for n in range(1, 6):
            g = hypercube_graph(n)
            report = check_isoperimetric_nesting(g, weightlex_nest_order(g))
            assert report.ok, report.violations
        for m, n in ((2, 3), (3, 3)):
            report = check_isoperimetric_nesting(grid_graph(m, n), grid_nest_order(m, n))
            assert report.ok, report.violations
        for n in range(1, 5):
            g = hypercube_graph(n)
            report = check_isoperimetric_nesting(g, weightlex_full_order(g))
            assert report.ok, report.violations


def test_criterion_8_deaf_rabbit_suite(capsys):
    with criterion(8, "deaf-rabbit oracle values and the formula/scan report"):
        assert hunter_number(path_graph(4), DEAF).hunter_number == 2
        assert hunter_number(cycle_graph(4), DEAF).hunter_number == 3
        assert hunter_number(cycle_graph(5), DEAF).hunter_number == 3
        q3 = hunter_number(hypercube_graph(3), DEAF).hunter_number
        assert q3 == 5 == cube_deaf_surplus(3) + 1

        expected = {2: (2, 2), 3: (3, 4), 4: (7, 7)}
        for n, (formula, scan) in expected.items():
            assert cli.main(["--json", "cube", str(n), "deaf"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["results"]["closed_form"] == formula
            assert report["results"]["scan_surplus"] == scan
            assert report["warnings"], "the discrepancy report must be emitted"
            assert any("surplus" in w for w in report["warnings"])


def test_criterion_9_property_suites():
    with criterion(9, "seeded property suites, 1000+ cases each, zero violations"):
        rng = random.Random(20250810)

        for _ in range(1000):  # monotone dynamics
            g = random_graph(rng, 7)
            big = random_mask(rng, g.n)
            small = big & random_mask(rng, g.n)
            shot = random_mask(rng, g.n)
            variant = rng.choice((STANDARD, DEAF))
            nbrs = moves(g, variant)
            assert step(nbrs, small, shot) & ~step(nbrs, big, shot) == 0

        for _ in range(1000):  # wasted-shot invariance
            g = random_graph(rng, 7)
            rabbit = random_mask(rng, g.n)
            shot = random_mask(rng, g.n)
            variant = rng.choice((STANDARD, DEAF))
            nbrs = moves(g, variant)
            assert step(nbrs, rabbit, shot) == step(nbrs, rabbit, shot & rabbit)

        for _ in range(1000):  # witness soundness
            g = random_graph(rng, 7)
            variant = rng.choice((STANDARD, DEAF))
            result = hunter_number(g, variant)
            assert result.witness.max_hunters <= result.hunter_number
            outcome = verify(g, result.witness)
            assert isinstance(outcome, Caught)

        checked = 0
        while checked < 1000:  # k-monotonicity on graphs of up to 12 vertices
            g = random_graph(rng, 12)
            k = rng.randrange(1, 3)
            if can_clear(g, k, budget=30_000).status == CLEARED:
                assert can_clear(g, k + 1, budget=100_000).status == CLEARED
                checked += 1


def test_criterion_10_known_discrepancies_are_flagged(capsys):
    with criterion(10, "the three known value discrepancies are reported"):
        assert cli.main(["--json", "cube", "4", "diffseq"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert any("trailing zero" in w for w in report["warnings"])

        assert cli.main(["--json", "cube", "4", "u"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["surplus"] == 4
        assert any("5" in w for w in report["warnings"])

        assert cli.main(["--json", "cube", "4", "messlemma", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["value_match"] == "MISMATCH"
        assert any("scan" in w for w in report["warnings"])

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import relabelled
from huntrab import cli, dynamics, graphs, solver
from huntrab.cube import MAX_SEQ_DIM, cube_diff_seq
from huntrab.dynamics import DEAF, STANDARD, Caught, Strategy, read_strategy, verify
from huntrab.graphs import format_graph, graph_from_edges, hypercube_graph, read_graph, star_graph
from huntrab.nesting import (
    BIPARTITE,
    NestOrder,
    grid_nest_order,
    weightlex_nest_order,
    write_nest_order,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv) -> tuple[int, dict]:
    code, out, _ = run_cli(capsys, "--json", *argv)
    return code, json.loads(out)


def normalized(report: dict) -> dict:
    report = json.loads(json.dumps(report))
    report["timing_seconds"] = 0.0
    for info in report.get("inputs", {}).values():
        if isinstance(info, dict) and "path" in info:
            info["path"] = os.path.basename(info["path"])
    return report


def golden(name: str) -> dict:
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_parseable_graph(tmp_path, capsys):
    out = tmp_path / "q3.graph"
    code, _, _ = run_cli(capsys, "gen", "hypercube", "3", "-o", str(out))
    assert code == 0
    assert read_graph(str(out)).n == 8

    code, text, _ = run_cli(capsys, "gen", "grid", "3", "3")
    assert code == 0
    assert text.startswith("9 12\n")


def test_gen_bad_params_exit_2(capsys):
    code, _, err = run_cli(capsys, "gen", "cycle", "2")
    assert code == 2 and "cycle" in err
    code, _, err = run_cli(capsys, "gen", "grid", "3")
    assert code == 2


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "dodecahedron", "1"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# solve / bounds


def test_solve_small_families(tmp_path, capsys):
    for argv, expected in [
        (("path", "6"), 1),
        (("cycle", "5"), 2),
    ]:
        path = tmp_path / ("-".join(argv) + ".graph")
        run_cli(capsys, "gen", *argv, "-o", str(path))
        code, report = run_json(capsys, "solve", str(path))
        assert code == 0
        assert report["results"]["hunter_number"] == expected


def test_solve_deaf_cycle(tmp_path, capsys):
    path = tmp_path / "c5.graph"
    run_cli(capsys, "gen", "cycle", "5", "-o", str(path))
    code, report = run_json(capsys, "solve", str(path), "--deaf")
    assert code == 0
    assert report["results"]["hunter_number"] == 3


def test_solve_budget_exit_3(tmp_path, capsys):
    path = tmp_path / "c5.graph"
    run_cli(capsys, "gen", "cycle", "5", "-o", str(path))
    code, out, err = run_cli(capsys, "solve", str(path), "--budget", "1")
    assert code == 3
    assert "budget" in err
    assert out == ""


@pytest.mark.parametrize("family, params, best", [("grid", ("7", "7"), 3),
                                                  ("hypercube", ("5",), 7)])
def test_small_budget_exits_quickly_with_phase_and_bound(tmp_path, capsys, family, params, best):
    # grid 7x7's paired bound proves 3 after 360 units and 4 after 6,382
    # (grid 5x5's proves 3 only at its last search, after 135)
    path = tmp_path / "g.graph"
    run_cli(capsys, "gen", family, *params, "-o", str(path))
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "solve", str(path), "--budget", "500")
    assert time.perf_counter() - started < 1
    assert code == 3 and out == ""
    assert "bound phase" in err
    assert f"best lower bound {best}" in err  # the paired bound's decided prefix


@pytest.mark.parametrize("command", ["solve", "bounds"])
def test_negative_budget_exit_2(tmp_path, capsys, command):
    path = tmp_path / "c5.graph"
    run_cli(capsys, "gen", "cycle", "5", "-o", str(path))
    code, out, err = run_cli(capsys, command, str(path), "--budget", "-1")
    assert code == 2 and out == ""
    assert "work budget must be non-negative, not -1" in err


def test_bounds_budget_exit_3(tmp_path, capsys):
    path = tmp_path / "g.graph"
    run_cli(capsys, "gen", "grid", "4", "4", "-o", str(path))
    code, out, err = run_cli(capsys, "bounds", str(path), "--budget", "10")
    assert code == 3 and out == ""
    assert "bound phase" in err and "best lower bound 2" in err
    # the paired bound takes 68 units and proves 3 at its last search
    code, out, err = run_cli(capsys, "bounds", str(path), "--budget", "67")
    assert code == 3 and "best lower bound 2" in err
    code, report = run_json(capsys, "bounds", str(path), "--budget", "68")
    assert code == 0 and report["results"]["union_bound"] == 3


def test_bounds_budget_exit_names_the_hypercube_upper(tmp_path, capsys):
    # C(5, 2) = 10 costs nothing, so it is known before the union bound runs;
    # the exit counts the units of the search that ran over, 69 past the 32
    # spent before it
    path = tmp_path / "q5.graph"
    run_cli(capsys, "gen", "hypercube", "5", "-o", str(path))
    code, out, err = run_cli(capsys, "bounds", str(path), "--budget", "100")
    assert code == 3 and out == ""
    assert err.endswith("after 101 units; best lower bound 5; hypercube_upper 10\n")
    code, out, err = run_cli(capsys, "bounds", str(path), "--budget", "100", "--deaf")
    assert code == 3 and "hypercube_upper" not in err


def test_bounds_answers_on_q6(tmp_path, capsys):
    # each j is searched only until it is known whether it raises the bound:
    # 1,290,902 units, where proving Q6's whole part profiles takes 88.3M
    path = tmp_path / "q6.graph"
    run_cli(capsys, "gen", "hypercube", "6", "-o", str(path))
    code, report = run_json(capsys, "bounds", str(path), "--budget", "2000000")
    assert code == 0
    assert (report["results"]["union_bound"], report["results"]["hypercube_upper"]) == (14, 20)


def test_deaf_solve_of_q5_passes_the_bound_phase(tmp_path, capsys):
    # the closed bound of Q5 costs 645,451 units; the search's first
    # expansion would be charged past the budget left, but the weightlex
    # strategy catches with the bound's 14 hunters and nothing is searched
    path = tmp_path / "q5.graph"
    run_cli(capsys, "gen", "hypercube", "5", "-o", str(path))
    code, report = run_json(capsys, "solve", str(path), "--deaf", "--budget", "1000000")
    assert code == 0
    results = report["results"]
    assert (results["hunter_number"], results["lower_bound_used"]) == (14, 14)
    assert (results["route"], results["explored_states"]) == ("sandwich", 0)


def test_exit_codes_hold_under_python_O(tmp_path, capsys):
    path = tmp_path / "c5.graph"
    run_cli(capsys, "gen", "cycle", "5", "-o", str(path))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}

    def solve(*extra) -> int:
        argv = [sys.executable, "-O", "-m", "huntrab.cli", "solve", str(path), *extra]
        return subprocess.run(argv, env=env, capture_output=True, timeout=60).returncode

    assert solve("--budget", "1") == 3
    assert solve() == 0


def test_the_digest_names_the_bytes_that_were_solved(tmp_path, capsys, monkeypatch):
    path = tmp_path / "c5.graph"
    run_cli(capsys, "gen", "cycle", "5", "-o", str(path))
    original = hashlib.sha256(path.read_bytes()).hexdigest()
    hunter_number = solver.hunter_number

    def rewriting(*args):
        path.write_text(format_graph(graph_from_edges(2, [(0, 1)])))
        return hunter_number(*args)

    monkeypatch.setattr(solver, "hunter_number", rewriting)
    code, report = run_json(capsys, "solve", str(path))
    assert code == 0 and report["results"]["hunter_number"] == 2
    assert report["inputs"]["graph"]["sha256"] == original
    assert hashlib.sha256(path.read_bytes()).hexdigest() != original


def test_the_digests_name_the_bytes_that_were_verified(tmp_path, capsys, monkeypatch):
    graph_path, strat_path = tmp_path / "c5.graph", tmp_path / "c5.strategy"
    run_cli(capsys, "gen", "cycle", "5", "-o", str(graph_path))
    run_cli(capsys, "solve", str(graph_path), "--strategy-out", str(strat_path))
    originals = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (graph_path, strat_path)]
    verify = dynamics.verify

    def rewriting(*args):
        graph_path.write_text(format_graph(graph_from_edges(2, [(0, 1)])))
        return verify(*args)

    monkeypatch.setattr(dynamics, "verify", rewriting)
    code, report = run_json(capsys, "verify", str(graph_path), str(strat_path))
    assert code == 0 and report["results"]["outcome"] == "caught"
    assert [report["inputs"][name]["sha256"] for name in ("graph", "strategy")] == originals
    assert hashlib.sha256(graph_path.read_bytes()).hexdigest() != originals[0]


def test_solve_witness_reverifies_end_to_end(tmp_path, capsys):
    graph_path = tmp_path / "g.graph"
    strat_path = tmp_path / "g.strategy"
    run_cli(capsys, "gen", "grid", "2", "4", "-o", str(graph_path))
    code, report = run_json(capsys, "solve", str(graph_path), "--strategy-out", str(strat_path))
    assert code == 0
    code, verify_report = run_json(capsys, "verify", str(graph_path), str(strat_path))
    assert code == 0
    assert verify_report["results"]["outcome"] == "caught"
    assert verify_report["results"]["step"] == report["results"]["witness_caught_at"]


def test_solve_escaping_witness_exit_4(tmp_path, capsys, monkeypatch):
    path = tmp_path / "p3.graph"
    run_cli(capsys, "gen", "path", "3", "-o", str(path))
    escaping = solver.SolveResult(1, Strategy((1, 1), STANDARD), 0, 1)
    monkeypatch.setattr(solver, "hunter_number", lambda *args: escaping)
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 4
    assert "escape" in err
    assert out == ""


def test_bounds_path(tmp_path, capsys):
    path = tmp_path / "p5.graph"
    run_cli(capsys, "gen", "path", "5", "-o", str(path))
    code, report = run_json(capsys, "bounds", str(path))
    assert code == 0
    assert report["results"] == {"mode": "open", "union_bound": 1, "degeneracy_bound": 1}


def test_bounds_q3_deaf(tmp_path, capsys):
    path = tmp_path / "q3.graph"
    run_cli(capsys, "gen", "hypercube", "3", "-o", str(path))
    code, report = run_json(capsys, "bounds", str(path), "--deaf")
    assert code == 0
    assert report["results"]["union_bound"] == 5
    assert report["results"]["mode"] == "closed"


def test_bounds_takes_the_union_bound_per_component(tmp_path, capsys):
    # on the whole graph the isolated vertex's U(1) = 0 pulls the bound to 4
    path = tmp_path / "q4_and_a_vertex.graph"
    path.write_text(format_graph(graph_from_edges(17, list(hypercube_graph(4).edges()))))
    code, report = run_json(capsys, "bounds", str(path))
    assert code == 0
    assert report["results"] == {"mode": "open", "union_bound": 5, "degeneracy_bound": 4}
    code, report = run_json(capsys, "solve", str(path))
    assert code == 0 and report["results"]["lower_bound_used"] == 5


def test_bounds_hypercube_upper_is_the_largest_weight_layer(tmp_path, capsys):
    for n in range(1, 7):
        path = tmp_path / f"q{n}.graph"
        run_cli(capsys, "gen", "hypercube", str(n), "-o", str(path))
        code, report = run_json(capsys, "bounds", str(path))
        assert code == 0
        layers = Counter(label.count("1") for label in read_graph(str(path)).labels)
        assert report["results"]["hypercube_upper"] == max(layers.values()), n
        if n == 5:
            assert (report["results"]["union_bound"], report["results"]["hypercube_upper"]) == (8, 10)


def test_bounds_hypercube_upper_needs_the_subset_coded_cube(tmp_path, capsys):
    q3 = hypercube_graph(3)
    perm = [3, 0, 6, 5, 1, 7, 2, 4]
    relabelled = graph_from_edges(8, [(perm[u], perm[v]) for u, v in q3.edges()],
                                  [q3.labels[perm.index(v)] for v in range(8)])
    unlabelled = graph_from_edges(8, list(q3.edges()))
    for name, g in (("relabelled", relabelled), ("unlabelled", unlabelled)):
        path = tmp_path / f"{name}.graph"
        path.write_text(format_graph(g), encoding="utf-8")
        code, report = run_json(capsys, "bounds", str(path))
        assert code == 0 and "hypercube_upper" not in report["results"], name
    path = tmp_path / "q3.graph"
    run_cli(capsys, "gen", "hypercube", "3", "-o", str(path))
    assert "hypercube_upper" in run_json(capsys, "bounds", str(path))[1]["results"]
    code, report = run_json(capsys, "bounds", str(path), "--deaf")
    assert code == 0 and "hypercube_upper" not in report["results"]


# ---------------------------------------------------------------------------
# strategy / verify


def test_strategy_emits_published_q4_rounds(tmp_path, capsys):
    graph_path = tmp_path / "q4.graph"
    strat_path = tmp_path / "q4.strategy"
    run_cli(capsys, "gen", "hypercube", "4", "-o", str(graph_path))
    code, report = run_json(capsys, "strategy", str(graph_path), "--out", str(strat_path))
    assert code == 0
    results = report["results"]
    assert results["hunters"] == 5
    assert results["shot_labels"] == [
        ["1001", "0110", "0101", "0011", "1111"],
        ["0010", "0001", "1110", "1101", "1011"],
        ["1100", "1010", "1001", "0110", "0101"],
        ["1000", "0100", "0010", "0001", "1110"],
    ]
    assert results["verified"] is True and results["verified_start"] == "even"
    strategy = read_strategy(str(strat_path))
    assert verify(hypercube_graph(4), strategy, "even") == Caught(step=4)


def test_strategy_default_hunters_q3(tmp_path, capsys):
    graph_path = tmp_path / "q3.graph"
    run_cli(capsys, "gen", "hypercube", "3", "-o", str(graph_path))
    code, report = run_json(capsys, "strategy", str(graph_path))
    assert code == 0
    assert report["results"]["hunters"] == 3
    assert report["results"]["verified"] is True


def test_strategy_grid_with_extension(tmp_path, capsys):
    graph_path = tmp_path / "g23.graph"
    run_cli(capsys, "gen", "grid", "2", "3", "-o", str(graph_path))
    code, report = run_json(capsys, "strategy", str(graph_path), "--extend-parity")
    assert code == 0
    assert report["results"]["hunters"] == 2
    assert report["results"]["verified"] is True
    assert report["results"]["verified_start"] == "any"


def test_strategy_reads_an_order_named_like_a_family_as_a_file(tmp_path, capsys, monkeypatch):
    from huntrab.nesting import grid_nest_order, write_nest_order

    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "gen", "grid", "2", "3", "-o", "g23.graph")
    write_nest_order(grid_nest_order(2, 3), "grid")
    code, report = run_json(capsys, "strategy", "g23.graph", "--order", "grid")
    assert code == 0 and report["results"]["hunters"] == 2
    code, _, err = run_cli(capsys, "strategy", "g23.graph", "--order", "weightlex")
    assert code == 2 and "weightlex" in err


def test_strategy_rejects_a_negative_vertex_in_an_order_file(tmp_path, capsys):
    graph_path, order_path = tmp_path / "q3.graph", tmp_path / "q3.order"
    run_cli(capsys, "gen", "hypercube", "3", "-o", str(graph_path))
    order_path.write_text("kind bipartite\n0 3 5 -6\n1 2 4 7\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "strategy", str(graph_path), "--order", str(order_path))
    assert code == 2 and out == ""
    assert "line 2" in err and "non-negative" in err


def test_strategy_deaf_full_order(tmp_path, capsys):
    graph_path = tmp_path / "q3.graph"
    run_cli(capsys, "gen", "hypercube", "3", "-o", str(graph_path))
    code, report = run_json(capsys, "strategy", str(graph_path), "--deaf")
    assert code == 0
    assert report["results"]["hunters"] == 5
    assert report["results"]["verified"] is True
    assert report["results"]["verified_start"] == "any"


def test_strategy_with_given_hunters_enumerates_nothing(tmp_path, capsys, monkeypatch):
    # given hunters, neither the union bound nor the degeneracy that seeds
    # its meter is needed
    def no_work(*args):
        raise AssertionError("bound computed")

    monkeypatch.setattr(graphs, "degeneracy", no_work)
    monkeypatch.setattr(solver.Meter, "spend", no_work)
    graph_path = tmp_path / "q6.graph"
    run_cli(capsys, "gen", "hypercube", "6", "-o", str(graph_path))
    code, report = run_json(capsys, "strategy", str(graph_path),
                            "--hunters", "14", "--extend-parity")
    assert code == 0
    assert report["results"]["verified"] is True


def test_strategy_from_order_file(tmp_path, capsys):
    from huntrab.nesting import weightlex_nest_order, write_nest_order

    graph_path = tmp_path / "q3.graph"
    order_path = tmp_path / "q3.order"
    run_cli(capsys, "gen", "hypercube", "3", "-o", str(graph_path))
    write_nest_order(weightlex_nest_order(hypercube_graph(3)), str(order_path))
    code, report = run_json(capsys, "strategy", str(graph_path), "--order", str(order_path))
    assert code == 0
    assert report["results"]["hunters"] == 3


def test_strategy_kind_variant_pairing(tmp_path, capsys, monkeypatch):
    from huntrab.nesting import weightlex_full_order, write_nest_order

    graph_path = tmp_path / "q3.graph"
    run_cli(capsys, "gen", "hypercube", "3", "-o", str(graph_path))
    q3 = hypercube_graph(3)
    bipartite_path, full_path = tmp_path / "bipartite.order", tmp_path / "full.order"
    write_nest_order(weightlex_nest_order(q3), str(bipartite_path))
    write_nest_order(weightlex_full_order(q3), str(full_path))
    for flags, message in [
        (["--order", str(full_path)], "the standard variant does not take a full-kind order"),
        (["--order", str(full_path), "--hunters", "5"],
         "the standard variant does not take a full-kind order"),
        (["--deaf", "--order", str(bipartite_path)],
         "the deaf variant does not take a bipartite-kind order"),
        (["--deaf", "--order", str(bipartite_path), "--hunters", "3"],
         "the deaf variant does not take a bipartite-kind order"),
    ]:
        code, out, err = run_cli(capsys, "strategy", str(graph_path), *flags)
        assert code == 2 and out == "", flags
        assert message in err, flags
    # the deaf game takes a full order learned from the grid, which catches
    # with the bound's count
    grid_path = tmp_path / "g24.graph"
    run_cli(capsys, "gen", "grid", "2", "4", "-o", str(grid_path))
    code, report = run_json(capsys, "strategy", str(grid_path), "--deaf")
    assert code == 0 and report["results"]["verified"] is True
    assert report["results"]["hunters"] == solver.hunter_number(read_graph(str(grid_path)),
                                                                DEAF).hunter_number
    # the standard game learns no order on a graph with no bipartition, and
    # says so before it bounds anything
    cycle_path = tmp_path / "c5.graph"
    run_cli(capsys, "gen", "cycle", "5", "-o", str(cycle_path))
    monkeypatch.setattr(solver, "lower_bound", lambda *args: pytest.fail("bounded first"))
    code, out, err = run_cli(capsys, "strategy", str(cycle_path))
    assert code == 2 and out == ""
    assert "bipartite" in err


@pytest.mark.parametrize("flags", [[], ["--deaf"]], ids=["standard", "deaf"])
def test_strategy_on_the_empty_graph_answers_0(tmp_path, capsys, flags):
    # the learned order of the empty graph is empty; like solve, no hunter
    # and no shot
    path = tmp_path / "empty.graph"
    path.write_text("0 0\n", encoding="utf-8")
    code, report = run_json(capsys, "strategy", str(path), *flags)
    assert code == 0
    results = report["results"]
    assert (results["hunters"], results["steps"], results["verified"]) == (0, 0, True)


def test_strategy_from_an_order_file_on_the_empty_graph(tmp_path, capsys):
    graph_path = tmp_path / "empty.graph"
    order_path = tmp_path / "empty.order"
    graph_path.write_text("0 0\n", encoding="utf-8")
    order_path.write_text("kind bipartite\n\n\n", encoding="utf-8")
    # without --hunters the count is solve's answer, 0
    for flags, hunters in (["--hunters", "2"], 2), ([], 0):
        code, report = run_json(capsys, "strategy", str(graph_path), "--order", str(order_path),
                                *flags)
        assert code == 0
        results = report["results"]
        # like solve, which answers 0: no shot, and the rabbit is caught at once
        assert (results["hunters"], results["steps"], results["verified"],
                results["caught_at"]) == (hunters, 0, True, 0), flags


def test_strategy_takes_the_bound_per_component(tmp_path, capsys):
    # on the whole graph the isolated vertex's U(1) = 0 pulls the even
    # part's minima down to a bound of 4, too few for the order's strategy;
    # per component, as solve seeds, the count is Q4's 5
    q4 = hypercube_graph(4)
    g = graph_from_edges(17, list(q4.edges()))
    cube = weightlex_nest_order(q4)
    graph_path, order_path = tmp_path / "g.graph", tmp_path / "g.order"
    graph_path.write_text(format_graph(g), encoding="utf-8")
    write_nest_order(NestOrder(BIPARTITE, cube.order_even + (16,), cube.order_odd), str(order_path))
    code, report = run_json(capsys, "strategy", str(graph_path), "--order", str(order_path))
    assert code == 0
    assert report["results"]["hunters"] == 5 == solver.hunter_number(g).lower_bound_used
    assert report["results"]["verified"] is True


def test_strategy_learns_orders_that_hold_isolated_vertices(tmp_path, capsys):
    # vertices 0 and 8 have no neighbour; the even-led learned order still
    # holds each part whole, and its strategy catches with solve's 1 hunter
    g = graph_from_edges(9, [(1, 4), (2, 4), (2, 5), (3, 4), (3, 6), (3, 7)])
    graph_path = tmp_path / "g.graph"
    graph_path.write_text(format_graph(g), encoding="utf-8")
    code, report = run_json(capsys, "strategy", str(graph_path))
    assert code == 0
    assert report["results"]["hunters"] == 1 == solver.hunter_number(g).hunter_number
    assert report["results"]["verified"] is True


def test_routes_agree_on_q0(tmp_path, capsys):
    path = tmp_path / "q0.graph"
    run_cli(capsys, "gen", "hypercube", "0", "-o", str(path))
    code, report = run_json(capsys, "solve", str(path))
    assert code == 0 and report["results"]["hunter_number"] == 1
    assert solver.hunter_number(graph_from_edges(0, [])).hunter_number == 0
    for flags in ([], ["--deaf"]):
        code, report = run_json(capsys, "strategy", str(path), *flags)
        assert code == 0
        assert report["results"]["hunters"] == 1 and report["results"]["verified"] is True


# every gen graph with a nesting or sweep order that solve answers within
# seconds: Q0-Q4 in both games, and in the standard game every grid and path
# of up to 20 cells, the sweeps that are no nesting (1x4, 3x4, 4x4, 3x6, ...)
# included
ROUTE_CASES = ([("hypercube", (n,), flags) for n in range(5) for flags in ([], ["--deaf"])]
               + [("grid", (m, n), []) for m in range(1, 21) for n in range(1, 20 // m + 1)])


def test_strategy_hunters_equal_hunter_number(tmp_path, capsys):
    path = tmp_path / "g.graph"
    for family, params, flags in ROUTE_CASES:
        run_cli(capsys, "gen", family, *map(str, params), "-o", str(path))
        code, report = run_json(capsys, "strategy", str(path), *flags)
        exact = solver.hunter_number(read_graph(str(path)), DEAF if flags else STANDARD)
        assert code == 0 and report["results"]["verified"] is True, (family, params, flags)
        assert report["results"]["hunters"] == exact.hunter_number, (family, params, flags)


@pytest.mark.parametrize("family, params, flags, hunters", [
    ("grid", (8, 8), [], 5),
    ("grid", (6, 6), [], 4),
    ("hypercube", (6,), [], 14),
    ("hypercube", (5,), ["--deaf"], 14),
], ids=["grid8x8", "grid6x6", "q6", "q5-deaf"])
def test_strategy_answers_past_the_nesting_check(tmp_path, capsys, family, params, flags, hunters):
    # a strategy that catches with as many hunters as the union bound is
    # exact, nesting or not (grid 6x6's sweep is none), and the bound costs
    # under a second on each
    path = tmp_path / "g.graph"
    run_cli(capsys, "gen", family, *map(str, params), "-o", str(path))
    code, report = run_json(capsys, "strategy", str(path), *flags)
    assert code == 0
    assert report["results"]["hunters"] == hunters and report["results"]["verified"] is True


@pytest.mark.parametrize("family, params, seed, flags, hunters", [
    ("hypercube", (6,), None, [], 14),
    ("grid", (8, 8), None, [], 5),
    ("grid", (9, 9), None, [], 5),
    ("grid", (9, 9), 1, [], 5),
    ("hypercube", (5,), None, ["--deaf"], 14),
], ids=["q6", "grid8x8", "grid9x9", "grid9x9-relabelled", "q5-deaf"])
def test_solve_meets_the_bound_with_a_nest_strategy(tmp_path, capsys, family, params, seed, flags,
                                                     hunters):
    # past the search's reach at the default budget (Q6 and Q5 --deaf exit 3
    # in the search), a strategy on one of the nest orders catches with the
    # bound's count, on gen's numbering or another; solve's own check
    # re-verifies it, and strategy verifies it too
    path = tmp_path / "g.graph"
    run_cli(capsys, "gen", family, *map(str, params), "-o", str(path))
    if seed is not None:
        path.write_text(format_graph(relabelled(read_graph(str(path)), seed)), encoding="utf-8")
    code, report = run_json(capsys, "solve", str(path), *flags)
    assert code == 0
    results = report["results"]
    assert (results["hunter_number"], results["lower_bound_used"]) == (hunters, hunters)
    assert (results["route"], results["explored_states"]) == ("sandwich", 0)
    code, report = run_json(capsys, "strategy", str(path), *flags)
    assert code == 0
    assert report["results"]["hunters"] == hunters and report["results"]["verified"] is True


def test_strategy_without_hunters_exits_2_when_the_order_fails(tmp_path, capsys):
    # the path's parts swept in opposite directions: one hunter, the bound,
    # drives no position set down along them
    graph_path, order_path = tmp_path / "p7.graph", tmp_path / "p7.order"
    run_cli(capsys, "gen", "path", "7", "-o", str(graph_path))
    sweep = grid_nest_order(1, 7)
    write_nest_order(NestOrder(BIPARTITE, sweep.order_even, sweep.order_odd[::-1]), str(order_path))
    code, out, err = run_cli(capsys, "strategy", str(graph_path), "--order", str(order_path))
    assert code == 2 and out == ""
    assert "in 28 rounds" in err


def test_strategy_without_an_order_tries_every_learned_order(tmp_path, capsys):
    # the even-lead order's strategy does not finish with 2 hunters here;
    # the odd lead's does, as in solve's sandwich
    path = tmp_path / "grid3x3.graph"
    path.write_text(format_graph(relabelled(graphs.grid_graph(3, 3), 1)), encoding="utf-8")
    code, report = run_json(capsys, "solve", str(path))
    assert code == 0 and (report["results"]["hunter_number"], report["results"]["route"]) == (
        2, "sandwich")
    code, report = run_json(capsys, "strategy", str(path))
    assert code == 0
    assert report["results"]["hunters"] == 2 and report["results"]["verified"] is True


def test_strategy_answers_a_nesting_with_unbalanced_sides(tmp_path, capsys):
    # the star's sides have union surpluses 3 (even) and 0 (odd); the
    # strategy drives the odd side and one hunter catches, as solve finds
    graph_path, order_path = tmp_path / "star.graph", tmp_path / "star.order"
    graph_path.write_text(format_graph(star_graph(4)), encoding="utf-8")
    write_nest_order(NestOrder(BIPARTITE, (0,), (1, 2, 3, 4)), str(order_path))
    code, report = run_json(capsys, "strategy", str(graph_path), "--order", str(order_path))
    assert code == 0
    assert report["results"]["hunters"] == 1 and report["results"]["verified"] is True
    code, report = run_json(capsys, "solve", str(graph_path))
    assert code == 0 and report["results"]["hunter_number"] == 1


def test_verify_escape_exit_4(tmp_path, capsys):
    graph_path = tmp_path / "p3.graph"
    strat_path = tmp_path / "p3.strategy"
    run_cli(capsys, "gen", "path", "3", "-o", str(graph_path))
    strat_path.write_text("variant: standard\n0\n0\n")
    code, report = run_json(capsys, "verify", str(graph_path), str(strat_path))
    assert code == 4
    assert report["results"]["outcome"] == "escaped"
    assert report["results"]["walk"] == [2, 1, 0]


def test_verify_malformed_strategy_exit_2(tmp_path, capsys):
    graph_path = tmp_path / "p3.graph"
    strat_path = tmp_path / "bad.strategy"
    run_cli(capsys, "gen", "path", "3", "-o", str(graph_path))
    strat_path.write_text("variant: standard\n0 zebra\n")
    code, _, err = run_cli(capsys, "verify", str(graph_path), str(strat_path))
    assert code == 2
    assert "line 2" in err


def test_verify_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "/nonexistent.graph", "/nonexistent.strategy")
    assert code == 2


# ---------------------------------------------------------------------------
# cube


def test_cube_hun_and_mismatch_free_subcommands(capsys):
    code, report = run_json(capsys, "cube", "4", "hun")
    assert code == 0
    assert report["results"] == {"hunter_number": 5, "scan": 5, "match": "MATCH"}

    code, report = run_json(capsys, "cube", "4", "mun", "2")
    assert code == 0
    assert report["results"]["min_union"] == 6
    assert report["results"]["brute_force"] == 6


def test_cube_diffseq_flags_quoted_extra_zero(capsys):
    code, report = run_json(capsys, "cube", "4", "diffseq")
    assert code == 0
    assert report["results"]["diffseq"] == "4 2 1 0 1 0 0 0"
    assert any("trailing zero" in w for w in report["warnings"])


@pytest.mark.parametrize("side", ["even", "odd"])
def test_cube_diffseq_renders_every_entry(capsys, side):
    for n in range(1, MAX_SEQ_DIM + 1):
        code, report = run_json(capsys, "cube", str(n), "diffseq", "--side", side)
        assert code == 0
        assert report["results"]["diffseq"] == " ".join(str(v) for v in cube_diff_seq(n, side))


@pytest.mark.parametrize("side", ["even", "odd"])
def test_cube_diffseq_length_counts_the_entries(capsys, side):
    for n in range(1, MAX_SEQ_DIM + 1):
        code, report = run_json(capsys, "cube", str(n), "diffseq", "--side", side)
        assert code == 0
        assert report["results"]["length"] == len(report["results"]["diffseq"].split()), n


def test_cube_u_notes_quoted_surplus(capsys):
    code, report = run_json(capsys, "cube", "4", "u")
    assert code == 0
    assert report["results"]["surplus"] == 4
    assert any("5" in w and "hunter number" in w for w in report["warnings"])


def test_cube_messlemma_reports_value_mismatch(capsys):
    code, report = run_json(capsys, "cube", "4", "messlemma", "1")
    assert code == 0
    results = report["results"]
    assert results["position_match"] == "MATCH"
    assert (results["value_formula"], results["value_scan"]) == (5, 6)
    assert results["value_match"] == "MISMATCH"
    assert any("scan" in w for w in report["warnings"])


def test_cube_deaf_reports_formula_next_to_scan(capsys):
    for n, formula, scan in [(2, 2, 2), (3, 3, 4), (4, 7, 7)]:
        code, report = run_json(capsys, "cube", str(n), "deaf")
        assert code == 0
        results = report["results"]
        assert results["closed_form"] == formula
        assert results["scan_surplus"] == scan
        assert results["hunter_number"] == scan + 1
        assert any("surplus" in w for w in report["warnings"])
        assert (results["match"] == "MATCH") == (formula == scan)


def test_cube_flags_keep_their_pattern(capsys):
    # the deaf closed form matches only at even n; the messlemma value
    # formula is known wrong while its position formula holds
    for n in range(2, 61):
        flags = {sub: run_json(capsys, "cube", str(n), sub)[1]["results"]["match"]
                 for sub in ("hun", "u", "deaf")}
        assert flags == {"hun": "MATCH", "u": "MATCH",
                         "deaf": "MATCH" if n % 2 == 0 else "MISMATCH"}, n
        code, report = run_json(capsys, "cube", str(n), "messlemma", str(n // 2))
        assert code == 0
        assert report["results"]["position_match"] == "MATCH", n
        assert report["results"]["value_match"] == "MISMATCH", n


def test_cube_missing_argument_exit_2(capsys):
    code, _, err = run_cli(capsys, "cube", "4", "mun")
    assert code == 2 and "mun" in err


# ---------------------------------------------------------------------------
# Report invariants and goldens


def test_reports_are_deterministic_apart_from_timing(tmp_path, capsys):
    path = tmp_path / "q3.graph"
    run_cli(capsys, "gen", "hypercube", "3", "-o", str(path))
    _, first = run_json(capsys, "solve", str(path))
    _, second = run_json(capsys, "solve", str(path))
    assert normalized(first) == normalized(second)


@pytest.mark.parametrize("argv", [["solve", "q3.graph"], ["cube", "4", "diffseq"],
                                  ["bounds", "q3.graph", "--deaf"]])
def test_json_report_is_one_line_with_sorted_keys(tmp_path, capsys, monkeypatch, argv):
    # the report parses to what the indented rendering of the same report
    # parses to, and every object's keys come in sorted order
    run_cli(capsys, "gen", "hypercube", "3", "-o", str(tmp_path / "q3.graph"))
    monkeypatch.chdir(tmp_path)
    emitted = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda report, as_json: (emitted.append(report),
                                                                emit(report, as_json)))
    _, out, _ = run_cli(capsys, "--json", *argv)
    assert out.count("\n") == 1 and out.endswith("\n")

    def sorted_pairs(pairs):
        assert [key for key, _ in pairs] == sorted(key for key, _ in pairs)
        return dict(pairs)

    assert json.loads(out, object_pairs_hook=sorted_pairs) == \
        json.loads(json.dumps(emitted[0], indent=2, sort_keys=True))


def test_human_and_json_renderings_carry_identical_values(capsys):
    code, report = run_json(capsys, "cube", "3", "hun")
    code, human, _ = run_cli(capsys, "cube", "3", "hun")
    for key, value in report["results"].items():
        assert f"{key}: {value}" in human
    assert f"schema_version: {report['schema_version']}" in human


@pytest.mark.parametrize("name,argv", [
    ("cube4_u.json", ["cube", "4", "u"]),
    ("cube4_diffseq.json", ["cube", "4", "diffseq"]),
    ("cube3_deaf.json", ["cube", "3", "deaf"]),
])
def test_golden_reports_without_inputs(capsys, name, argv):
    code, report = run_json(capsys, *argv)
    assert code == 0
    assert normalized(report) == golden(name)


@pytest.mark.parametrize("name,family,params,argv_tail", [
    ("bounds_q4.json", "hypercube", ["4"], ["bounds"]),
    ("solve_c5.json", "cycle", ["5"], ["solve"]),
])
def test_golden_reports_with_graph_input(tmp_path, capsys, name, family, params, argv_tail):
    expected = golden(name)
    path = tmp_path / expected["inputs"]["graph"]["path"]
    run_cli(capsys, "gen", family, *params, "-o", str(path))
    code, report = run_json(capsys, *argv_tail, str(path))
    assert code == 0
    assert normalized(report) == expected


# ---------------------------------------------------------------------------
# Parsers: the table parse (cli._parse) against the full argparse parser

PARSE_CASES = [
    ["gen", "grid", "3", "4", "-o", "g.graph"],
    ["gen", "path", "5", "--out", "p.graph"],
    ["--json", "solve", "g", "--deaf", "--budget", "7", "--strategy-out", "s"],
    ["solve", "g"],
    ["bounds", "g", "--deaf", "--budget", "9"],
    ["--json", "bounds", "g"],
    ["strategy", "g", "--order", "o", "--hunters", "2", "--deaf", "--extend-parity", "--out", "s"],
    ["strategy", "g"],
    ["verify", "g", "s", "--start", "odd"],
    ["verify", "g", "s"],
    ["cube", "5", "mun", "3", "--side", "odd"],
    ["--json", "--json", "cube", "4", "hun"],
]


def test_parse_cases_cover_every_command_and_flag():
    used = {arg for argv in PARSE_CASES for arg in argv}
    for name, (_func, _help, arguments) in cli.COMMANDS.items():
        assert name in used
        for flags in arguments:
            assert not flags.startswith("-") or set(flags.split()) <= used, flags
    assert "--json" in used


def test_readme_synopsis_names_exactly_the_registered_options():
    with open(README, encoding="utf-8") as fh:
        synopsis = fh.read().split("## Command line", 1)[1].split("```")[1]
    named: dict[str, set[str]] = {}
    for line in synopsis.splitlines():
        text = line.split("#", 1)[0]
        if text.startswith("huntrab "):
            command = text.split()[1]
        if text.strip():
            named.setdefault(command, set()).update(re.findall(r"(?<![\w-])--?[a-z][\w-]*", text))
    assert set(named) == set(cli.COMMANDS)
    for name, (_func, _help, arguments) in cli.COMMANDS.items():
        options = [set(flags.split()) for flags in arguments if flags.startswith("-")]
        # one spelling of an option is enough: -o covers -o --out
        assert all(spellings & named[name] for spellings in options), name
        assert named[name] <= set().union(*options), name


def test_the_table_uses_only_what_the_table_parse_reads():
    for _func, _help, arguments in cli.COMMANDS.values():
        for flags, spec in arguments.items():
            assert set(spec) <= {"action", "type", "choices", "nargs", "default", "help", "metavar"}
            assert spec.get("action", "store_true") == "store_true", flags
            assert spec.get("nargs") in ((None,) if flags.startswith("-") else (None, "?", "+"))


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_command_parser_parses_like_the_full_parser(argv):
    args = cli._parse(argv)
    assert args is not None and args == cli._build_parser().parse_args(argv)


def full_parse(argv) -> argparse.Namespace | None:
    """The full parser's namespace, or None where it prints help or an error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._build_parser().parse_args(argv)
        except SystemExit:
            return None


SPELLINGS = sorted({spelling for _func, _help, arguments in cli.COMMANDS.values()
                    for flags in arguments if flags.startswith("-") for spelling in flags.split()})
# what the table parse must leave to argparse, or read exactly as it does
NOISE = [*SPELLINGS, *(s[:-2] for s in SPELLINGS if len(s) > 4), *(s + "=3" for s in SPELLINGS),
         "-og", "-o3", "-h", "--help", "--json", "--", "-", "-3", "-0", "", "x", "3", "even"]


def words_for(spec: dict):
    if "choices" in spec:
        return st.sampled_from([str(choice) for choice in spec["choices"]])
    return st.sampled_from(["0", "3", "12"] if spec.get("type") is int else ["g", "s", "x.graph"])


@st.composite
def argvs(draw) -> list[str]:
    """A call well formed but for where its options fall (before, after or
    splitting the positional words, some twice), plus up to two noise tokens."""
    command = draw(st.sampled_from([*cli.COMMANDS, "bogus"]))
    words, options = [], []
    for flags, spec in cli.COMMANDS.get(command, (None, None, {}))[2].items():
        if flags.startswith("-"):
            for _ in range(draw(st.integers(0, 2))):
                value = [] if spec.get("action") else [draw(words_for(spec))]
                options.append([draw(st.sampled_from(flags.split())), *value])
        else:
            least, most = {"?": (0, 1), "+": (1, 3)}.get(spec.get("nargs"), (1, 1))
            words += draw(st.lists(words_for(spec), min_size=least, max_size=most))
    tokens = [[word] for word in words]
    for option in options:
        tokens.insert(draw(st.integers(0, len(tokens))), option)
    for _ in range(draw(st.integers(0, 2))):
        tokens.insert(draw(st.integers(0, len(tokens))), [draw(st.sampled_from(NOISE))])
    return [*draw(st.lists(st.just("--json"), max_size=2)), command,
            *(token for group in tokens for token in group),
            *draw(st.sampled_from([[], ["--json"]]))]


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_the_table_parse_declines_or_parses_like_the_full_parser(argv):
    args = cli._parse(argv)
    assert args is None or args == full_parse(argv)


@pytest.mark.parametrize("argv", [
    ["gen", "grid", "3", "-o", "g", "4"], ["cube", "5", "mun", "--side", "odd", "3"],
    ["verify", "g", "--start", "odd", "s"], ["solve", "g", "--json"], ["solve", "g", "--dea"],
    ["solve", "g", "--budget=7"], ["gen", "path", "5", "-og"], ["cube", "-3", "hun"],
    ["solve", "g", "--budget"], ["strategy", "g", "--out", "--deaf"], ["cube", "5", "hun", "x"],
    ["solve", "g", "-h"], ["--js", "solve", "g"], ["cube", "5"],
], ids=" ".join)
def test_the_table_parse_declines_what_it_does_not_read(argv):
    # the first two are argparse errors: it fills positionals run by run
    assert cli._parse(argv) is None


def test_every_benchmark_call_takes_the_table_parse(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    import workloads

    for name in workloads.WORKLOADS:
        for op in workloads.build(name, 1, str(tmp_path / name)):
            argv = ["--json", *op.argv]
            args = cli._parse(argv)
            assert args is not None and args == cli._build_parser().parse_args(argv), argv


def exit_outcome(capsys, parse, argv) -> tuple[int, str, str]:
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h", "solve"], ["solve", "--help"], [], ["dodecahedron"],
    ["solve", "g", "--bogus"], ["--json", "cube", "3", "nope"], ["--bogus", "verify", "g", "s"],
], ids=lambda argv: " ".join(argv) or "no arguments")
def test_help_and_errors_match_the_full_parser(capsys, argv):
    assert (exit_outcome(capsys, cli.main, argv)
            == exit_outcome(capsys, cli._build_parser().parse_args, argv))


def test_command_errors_name_the_command_argument(capsys):
    _, _, err = exit_outcome(capsys, cli.main, ["dodecahedron"])
    assert "error: argument command: invalid choice: 'dodecahedron'" in err
    _, _, err = exit_outcome(capsys, cli.main, [])
    assert err.endswith("error: the following arguments are required: command\n")


def test_a_well_formed_call_registers_no_parser(tmp_path, capsys, monkeypatch):
    path = tmp_path / "k2.graph"
    path.write_text(format_graph(graph_from_edges(2, [(0, 1)])))
    registered = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting_add_parser(self, name, **kwargs):
        registered.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting_add_parser)
    code, _, _ = run_cli(capsys, "solve", str(path))
    assert code == 0
    assert registered == []
    run_cli(capsys, "solve", str(path), "--budget=100")  # argparse reads "=" forms
    assert registered == list(cli.COMMANDS)

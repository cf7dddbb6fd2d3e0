"""Tests of the benchmark's failure accounting, input generation and tracing.

Run with: python -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from huntrab import cli, graphs, nesting  # noqa: E402


def _call(capsys, argv) -> tuple[int, str]:
    code = cli.main(["--json", *argv])
    return code, capsys.readouterr().out


@pytest.fixture
def clean(tmp_path, capsys):
    """Real outcomes of a solve and a cube report, each passing its checks."""
    g = graphs.grid_graph(3, 3)
    path = str(tmp_path / "grid3x3.graph")
    graphs.write_graph(g, path)
    solve = workloads.Op(("solve", path), {"hunter_number": 2, "variant": "standard"}, g)
    cube = workloads.Op(("cube", "3", "deaf"), {"match": "MISMATCH"})
    return [(solve, *_call(capsys, solve.argv)), (cube, *_call(capsys, cube.argv))]


def _edit_results(stdout: str, edit) -> str:
    report = json.loads(stdout)
    edit(report["results"])
    return json.dumps(report)


def test_clean_pass_counts_no_failure(clean):
    assert checks.count_failures(clean) == (0, [])


def _wrong_answer(outcomes, capsys):
    op, code, out = outcomes[0]
    outcomes[0] = (op, code, _edit_results(out, lambda r: r.update(hunter_number=3)))


def _escaping_witness(outcomes, capsys):
    op, code, out = outcomes[0]
    outcomes[0] = (op, code, _edit_results(out, lambda r: r["witness"].pop()))


def _oversized_shot(outcomes, capsys):
    op, code, out = outcomes[0]
    outcomes[0] = (op, code, _edit_results(out, lambda r: r["witness"][0].extend(range(9))))


def _flipped_flag(outcomes, capsys):
    op, code, out = outcomes[1]
    outcomes[1] = (op, code, _edit_results(out, lambda r: r.update(match="MATCH")))


def _nonzero_exit(outcomes, capsys):
    op, _code, out = outcomes[1]
    outcomes[1] = (op, 2, out)


def _budget_exit(outcomes, capsys):
    op = outcomes[0][0]
    code, out = _call(capsys, (*op.argv, "--budget", "1"))
    assert code == 3
    outcomes[0] = (op, code, out)


@pytest.mark.parametrize("breakage, reason", [
    (_wrong_answer, "hunter_number is 3, expected 2"),
    (_escaping_witness, "witness lets the rabbit escape"),
    (_oversized_shot, "witness shoots 9 vertices"),
    (_flipped_flag, "match is 'MATCH', expected 'MISMATCH'"),
    (_nonzero_exit, "exit code 2"),
    (_budget_exit, "exit code 3"),
])
def test_each_bad_outcome_counts_one_failure(clean, capsys, breakage, reason):
    outcomes = list(clean)
    breakage(outcomes, capsys)
    failed, reasons = checks.count_failures(outcomes)
    assert failed == 1 and reason in reasons[0], reasons


def test_relabelled_nest_orders_match_the_bipartition(tmp_path):
    """A permutation that moves vertex 0 into the other part must swap the
    order file's part lines; seeds 1-8 include both cases for grid 5x7."""
    even_sizes = set()
    for seed in range(1, 9):
        workdir = tmp_path / str(seed)
        workloads.build("nest-bounds", seed, str(workdir))
        for name in workloads.STRATEGIES:
            g = graphs.read_graph(str(workdir / f"{name}.graph"))
            order = nesting.read_nest_order(str(workdir / f"{name}.order"))
            if order.kind == nesting.BIPARTITE:
                assert graphs.mask_of(order.order_even) == graphs.bipartition(g).even
                if name == "grid5x7":
                    even_sizes.add(len(order.order_even))
    assert even_sizes == {17, 18}


def test_inputs_depend_only_on_the_seed(tmp_path):
    texts = []
    for run in ("a", "b"):
        workloads.build("exact-standard", 3, str(tmp_path / run))
        texts.append(sorted((p.name, p.read_text()) for p in (tmp_path / run).iterdir()))
    assert texts[0] == texts[1]


def test_tracer_sees_calls_through_by_name_imports():
    from huntrab import solver

    g = graphs.hypercube_graph(3)
    order = nesting.weightlex_nest_order(g)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert nesting.hunter_number_via_nesting(g, order) == 3
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert "nesting.check_isoperimetric_nesting" in names
    assert "solver.union_surplus" in names
    metrics = spans.layer_metrics(tracer.spans, 1.0)
    assert metrics["solver.bound.calls"] == names.count("solver.min_neighborhood_union") > 0
    assert metrics["nesting.calls"] == 1
    assert nesting.min_neighborhood_union is solver.min_neighborhood_union
    assert not hasattr(nesting.min_neighborhood_union, "__wrapped__")


def test_self_time_subtracts_child_spans():
    trace = [["cli.main", 0.0, 10.0, -1, None],
             ["solver.hunter_number", 1.0, 8.0, 0, {"tight": False}],
             ["solver.can_clear", 2.0, 5.0, 1, {"explored": 7, "blocked": True}],
             ["solver.can_clear", 5.0, 6.0, 1, {"explored": 3, "blocked": False}],
             ["solver.min_neighborhood_union", 6.5, 7.0, 1, None]]
    metrics = spans.layer_metrics(trace, 0.5)
    assert metrics["cli.self_cal"] == 6.0
    assert metrics["solver.solve.self_cal"] == 5.0
    assert metrics["solver.search.self_cal"] == 8.0
    assert metrics["solver.bound.self_cal"] == 1.0
    assert metrics["solver.search.states_expanded"] == 10
    assert metrics["solver.search.states_per_cal"] == 1.25
    assert (metrics["solver.search.blocked_calls"], metrics["solver.search.blocked_cal"]) == (1, 6.0)
    assert metrics["solver.bound.tight_ratio"] == 0.0
    assert metrics["solver.search.calls"] == 2

"""Output checks: every operation's report is compared with its references.

An operation fails when the CLI exits with any code but 0 (exit 3 is a
budget exit), when its report is not a JSON document, when a results field
differs from the pinned value, or when a ``solve`` witness does not catch
the rabbit with at most ``hunter_number`` shots per round.  The witness is
re-verified here with ``dynamics.verify`` instead of trusting the CLI,
whose own witness check is an ``assert`` that ``python -O`` strips.
"""

from __future__ import annotations

import json


def failure(op, code: int | str, stdout: str) -> str | None:
    """Why the operation's outcome is wrong, or None when it is right."""
    if code != 0:
        return f"exit code {code}"
    try:
        results = json.loads(stdout)["results"]
    except (ValueError, KeyError, TypeError):
        return "output is not a JSON report"
    for key, want in op.expect.items():
        got = results.get(key)
        if got != want:
            return f"{key} is {got!r}, expected {want!r}"
    if op.witness_graph is not None:
        return _witness_failure(op.witness_graph, results)
    return None


def _witness_failure(g, results: dict) -> str | None:
    from huntrab import dynamics, graphs

    try:
        h = results["hunter_number"]
        shots = [graphs.mask_of(shot) for shot in results["witness"]]
        strategy = dynamics.Strategy(tuple(shots), results["variant"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"unreadable witness: {exc}"
    if strategy.max_hunters > h:
        return f"witness shoots {strategy.max_hunters} vertices in one round with h = {h}"
    try:
        outcome = dynamics.verify(g, strategy)
    except ValueError as exc:
        return f"invalid witness: {exc}"
    if not isinstance(outcome, dynamics.Caught):
        return "witness lets the rabbit escape"
    return None


def count_failures(outcomes) -> tuple[int, list[str]]:
    """Failed operations among (op, exit code, stdout) outcomes, with reasons."""
    reasons = []
    for op, code, stdout in outcomes:
        reason = failure(op, code, stdout)
        if reason is not None:
            reasons.append(f"{' '.join(op.argv)}: {reason}")
    return len(reasons), reasons

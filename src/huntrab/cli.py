"""Command-line front end.

Every invocation produces one report: a flat human-readable rendering by
default, or a single JSON document with --json.  Both renderings carry the
same values.  Exit codes: 0 success, 2 usage or parse error, 3 work budget
exceeded (stderr names the phase and the best lower bound), 4 verification
found an escape.

A well-formed call is read from the COMMANDS table (_parse); argparse parses
the rest, so its parser of every command writes all help and error text.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time

from . import cube as cube_mod
from . import dynamics, graphs, nesting, solver
from .errors import (
    BudgetExceededError,
    CapacityError,
    FormatError,
    InvalidOrderError,
    InvalidParameterError,
    InvalidStrategyError,
    NonTerminatingError,
)

SCHEMA_VERSION = 1

# one encoder for every report: json.dumps builds a new one per call
_ENCODER = json.JSONEncoder(sort_keys=True)

USAGE_ERRORS = (InvalidParameterError, CapacityError, FormatError, InvalidOrderError,
                InvalidStrategyError, NonTerminatingError, OSError)

BUDGET_HELP = ("work budget: one unit per candidate the union bound's branch and bound scans, "
               "plus one per kept set of each position set R the search expands, C(|R|, k) for R")

FAMILIES = {
    "path": (1, graphs.path_graph),
    "cycle": (1, graphs.cycle_graph),
    "grid": (2, graphs.grid_graph),
    "hypercube": (1, graphs.hypercube_graph),
    "star": (1, graphs.star_graph),
}


def _read_graph(path: str) -> tuple[graphs.Graph, dict]:
    """The graph file parsed, and its path and sha256, from the command's one
    read, before the work: the digest names exactly the bytes parsed, so a
    file rewritten meanwhile cannot put its hash next to the answer."""
    sha256 = hashlib.sha256()
    return graphs.read_graph(path, sha256), {"path": path, "sha256": sha256.hexdigest()}


def _read(path: str) -> tuple[bytes, dict]:
    """The file's bytes, with its entry as _read_graph gives it."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data, {"path": path, "sha256": hashlib.sha256(data).hexdigest()}


def _render_human(report: dict) -> str:
    lines = [f"schema_version: {report['schema_version']}",
             f"command: {report['command']}"]
    for name, info in sorted(report["inputs"].items()):
        if isinstance(info, dict):
            detail = " ".join(f"{k}={v}" for k, v in sorted(info.items()))
            lines.append(f"input {name}: {detail}")
        else:
            lines.append(f"input {name}: {info}")
    for key, value in report["results"].items():
        lines.append(f"{key}: {value}")
    for warning in report["warnings"]:
        lines.append(f"warning: {warning}")
    lines.append(f"timing_seconds: {report['timing_seconds']}")
    return "\n".join(lines)


def _emit(report: dict, as_json: bool) -> None:
    # print writes the newline on its own: no copy of a long report
    print(_ENCODER.encode(report) if as_json else _render_human(report))


# ---------------------------------------------------------------------------
# Commands


def _cmd_gen(args) -> tuple[dict | None, int]:
    arity, builder = FAMILIES[args.family]
    if len(args.params) != arity:
        raise InvalidParameterError(
            f"{args.family} takes {arity} parameter(s), got {len(args.params)}")
    g = builder(*args.params)
    text = graphs.format_graph(g)
    if args.out is None:
        sys.stdout.write(text)
        return None, 0  # the graph text is the whole output
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    results = {"family": args.family, "params": args.params,
               "vertices": g.n, "edges": g.edge_count, "out": args.out}
    return {"inputs": {}, "results": results, "warnings": []}, 0


def _cmd_solve(args) -> tuple[dict | None, int]:
    g, digest = _read_graph(args.graph)
    variant = dynamics.DEAF if args.deaf else dynamics.STANDARD
    result = solver.hunter_number(g, variant, args.budget)
    outcome = dynamics.verify(g, result.witness)
    if not isinstance(outcome, dynamics.Caught):
        print(f"huntrab solve: the witness lets the rabbit escape along {list(outcome.walk)}",
              file=sys.stderr)
        return None, 4
    results = {
        "hunter_number": result.hunter_number,
        "variant": variant,
        "lower_bound_used": result.lower_bound_used,
        "route": result.route,
        "explored_states": result.explored_states,
        "witness_steps": len(result.witness),
        "witness_caught_at": outcome.step,
        "witness": [graphs.bits(shot) for shot in result.witness.shots],
    }
    if args.strategy_out:
        dynamics.write_strategy(result.witness, args.strategy_out)
        results["strategy_out"] = args.strategy_out
    return {"inputs": {"graph": digest}, "results": results, "warnings": []}, 0


def _cmd_bounds(args) -> tuple[dict | None, int]:
    g, digest = _read_graph(args.graph)
    variant = dynamics.DEAF if args.deaf else dynamics.STANDARD
    degeneracy = graphs.degeneracy(g)
    meter = solver.Meter(args.budget, degeneracy)
    # Q^n, n >= 1, projects onto its weight path with the weight layers as
    # fibers; taken first, so a budget exit in the union bound still names it
    dim = None if args.deaf else graphs.cube_dim(g)
    upper = cube_mod.cube_hunter_upper(dim) if dim else None
    try:
        # per component, as solve takes it: an isolated vertex's U(1) = 0
        # would pull the whole graph's minima down
        union = max((solver.lower_bound_union(sub, variant, meter)
                     for sub, _ in solver.component_graphs(g)), default=0)
    except BudgetExceededError as exc:
        if upper is None:
            raise
        print(f"huntrab bounds: {exc}; hypercube_upper {upper}", file=sys.stderr)
        return None, 3
    results = {"mode": "closed" if args.deaf else "open", "union_bound": union,
               "degeneracy_bound": degeneracy}
    if upper is not None:
        results["hypercube_upper"] = upper
    return {"inputs": {"graph": digest}, "results": results, "warnings": []}, 0


def _cmd_strategy(args) -> tuple[dict, int]:
    g, digest = _read_graph(args.graph)
    variant = dynamics.DEAF if args.deaf else dynamics.STANDARD
    orders = iter([nesting.read_nest_order(args.order)] if args.order
                  else nesting.nest_orders(g, variant))
    # before the bound: a graph with no bipartition has no standard-game order (exit 2)
    order = next(orders)
    if args.order and variant != order.variant:
        raise InvalidParameterError(f"the {variant} variant does not take a {order.kind}-kind order")
    # the count solve starts from: a lower bound, so a strategy that catches
    # with it is exact, and one that cannot catch raises (exit 2)
    m = solver.lower_bound(g, variant) if args.hunters is None else args.hunters
    # the first order whose strategy finishes, as solve's sandwich tries them
    while True:
        try:
            strategy = nesting.nest_strategy(g, order, m)
            break
        except NonTerminatingError:
            order = next(orders, None)
            if order is None:
                raise
    results = {
        "variant": variant,
        "hunters": m,
        "steps": len(strategy),
        "shots": nesting.shot_vertex_lists(strategy, order),
    }
    if g.labels is not None:
        results["shot_labels"] = nesting.shot_labels(g, strategy, order)
    if args.extend_parity:
        strategy = dynamics.extend_parity(g, strategy)
        results["extended_steps"] = len(strategy)
    if args.deaf or args.extend_parity:
        start = "any"
    else:
        # a strategy with no shot, as on the empty graph, catches from any start
        first = next((s for s in strategy.shots if s), None)
        start = "odd" if first is not None and not first & graphs.side_mask(g, "even") else "even"
    outcome = dynamics.verify(g, strategy, start)
    results["verified_start"] = start
    results["verified"] = isinstance(outcome, dynamics.Caught)
    if isinstance(outcome, dynamics.Caught):
        results["caught_at"] = outcome.step
    if args.out:
        dynamics.write_strategy(strategy, args.out)
        results["out"] = args.out
    return {"inputs": {"graph": digest}, "results": results, "warnings": []}, 0


def _cmd_verify(args) -> tuple[dict, int]:
    # both files read before either is decoded: an unreadable strategy file
    # is reported ahead of a malformed graph
    graph_data, graph_digest = _read(args.graph)
    strategy_data, strategy_digest = _read(args.strategy)
    inputs = {"graph": graph_digest, "strategy": strategy_digest}
    g = graphs.parse_graph(graph_data.decode("utf-8"))
    strategy = dynamics.parse_strategy(strategy_data.decode("utf-8"))
    outcome = dynamics.verify(g, strategy, args.start)
    if isinstance(outcome, dynamics.Caught):
        results = {"outcome": "caught", "step": outcome.step}
        code = 0
    else:
        results = {"outcome": "escaped", "walk": list(outcome.walk)}
        if g.labels is not None:
            results["walk_labels"] = [g.labels[v] for v in outcome.walk]
        code = 4
    return {"inputs": inputs, "results": results, "warnings": []}, code


def _match(stated, computed) -> str:
    return "MATCH" if stated == computed else "MISMATCH"


def _cmd_cube(args) -> tuple[dict, int]:
    n = args.n
    sub = args.subcommand
    warnings: list[str] = []
    if sub == "hun":
        closed_form = cube_mod.cube_hunter_number(n)
        scan = cube_mod.cube_surplus(n) + 1
        results = {"hunter_number": closed_form, "scan": scan,
                   "match": _match(closed_form, scan)}
        if closed_form != scan:
            warnings.append(f"closed form {closed_form} disagrees with profile scan {scan}")
    elif sub == "diffseq":
        text = cube_mod.cube_diff_text(n, args.side)
        length = 1 << (n - 1)
        results = {"side": args.side, "length": length, "diffseq": text}
        if n == 4:
            quoted = " ".join(str(v) for v in cube_mod.QUOTED_DIFFSEQ_Q4)
            warnings.append(
                f"a quoted version of this sequence has {len(cube_mod.QUOTED_DIFFSEQ_Q4)} entries "
                f"({quoted}); the {args.side} side of Q^4 has only {length} vertices, "
                "so the extra trailing zero is dropped here")
    elif sub == "mun":
        if args.k is None:
            raise InvalidParameterError("mun needs a subset size: cube N mun K")
        value = cube_mod.cube_min_union(n, args.k, args.side)
        results = {"side": args.side, "k": args.k, "min_union": value}
        if n <= 5:
            g = graphs.hypercube_graph(n)
            brute = solver.min_neighborhood_union(g, args.k, args.side)
            results["brute_force"] = brute
            results["match"] = _match(value, brute)
            if brute != value:
                warnings.append(f"analytic {value} disagrees with brute force {brute}")
    elif sub == "u":
        scan = cube_mod.cube_surplus(n)
        results = {"surplus": scan}
        if n >= 2:
            closed_form = cube_mod.cube_surplus_closed_form(n)
            results["closed_form"] = closed_form
            results["match"] = _match(closed_form, scan)
            if closed_form != scan:
                warnings.append(f"closed form {closed_form} disagrees with scan {scan}")
        if n == 4:
            warnings.append(
                f"the value {cube_mod.QUOTED_SURPLUS_Q4} sometimes quoted for this quantity "
                f"is the hunter number (surplus + 1), not the surplus {scan}")
    elif sub == "deaf":
        scan = cube_mod.cube_deaf_surplus(n)
        closed_form = cube_mod.cube_deaf_closed_form(n)
        results = {"scan_surplus": scan, "hunter_number": scan + 1,
                   "closed_form": closed_form,
                   "match": _match(closed_form, scan)}
        warnings.append(
            f"the closed form tracks the surplus, not the hunter number surplus+1 = {scan + 1}")
        if closed_form != scan:
            warnings.append(
                f"closed form {closed_form} disagrees with the scanned surplus {scan}")
    else:  # messlemma
        if args.k is None:
            raise InvalidParameterError("messlemma needs a layer index: cube N messlemma I")
        i = args.k
        pos_formula = cube_mod.arrow_max_position_formula(n, i)
        val_formula = cube_mod.arrow_max_value_formula(n, i)
        pos_scan, val_scan = cube_mod.arrow_max_scan(n, i)
        results = {
            "i": i,
            "position_formula": pos_formula, "position_scan": pos_scan,
            "position_match": _match(pos_formula, pos_scan),
            "value_formula": val_formula, "value_scan": val_scan,
            "value_match": _match(val_formula, val_scan),
        }
        if val_formula != val_scan:
            warnings.append(
                f"stated value formula gives {val_formula} but the scan gives {val_scan}; "
                "the scan is the trusted value")
        if pos_formula != pos_scan:
            warnings.append(
                f"stated position formula gives {pos_formula} but the scan gives {pos_scan}")
    inputs = {"n": n, "subcommand": sub}
    return {"inputs": inputs, "results": results, "warnings": warnings}, 0


# ---------------------------------------------------------------------------
# Each command's handler, help line and arguments (space-separated option
# strings -> add_argument keywords)

_BUDGET = {"type": int, "default": solver.DEFAULT_BUDGET, "help": BUDGET_HELP}

COMMANDS = {
    "gen": (_cmd_gen, "write a standard-family graph file", {
        "family": {"choices": sorted(FAMILIES)},
        "params": {"nargs": "+", "type": int},
        "-o --out": {"help": "output path (default: stdout)"},
    }),
    "solve": (_cmd_solve, "exact hunter number with witness strategy", {
        "graph": {},
        "--deaf": {"action": "store_true", "help": "deaf-rabbit (closed) variant"},
        "--budget": _BUDGET,
        "--strategy-out": {"help": "also write the witness strategy to this path"},
    }),
    "bounds": (_cmd_bounds, "lower bounds (and upper bound for labeled hypercubes)", {
        "graph": {}, "--deaf": {"action": "store_true"}, "--budget": _BUDGET,
    }),
    "strategy": (_cmd_strategy, "build a nest-order strategy", {
        "graph": {},
        "--order": {"metavar": "FILE",
                    "help": "nest-order file (default: the first order whose strategy finishes, "
                            "of weightlex on a gen hypercube and the orders learned from the graph)"},
        "--hunters": {"type": int,
                      "help": "shots per round (default: the lower bound solve starts from)"},
        "--deaf": {"action": "store_true"},
        "--extend-parity": {"action": "store_true",
                            "help": "extend to a strategy winning from any start"},
        "--out": {"help": "write the strategy file to this path"},
    }),
    "verify": (_cmd_verify, "run a strategy file against a graph", {
        "graph": {}, "strategy": {},
        "--start": {"choices": ["any", "even", "odd"], "default": "any"},
    }),
    "cube": (_cmd_cube, "hypercube analytics (closed forms vs scans)", {
        "n": {"type": int},
        "subcommand": {"choices": ["hun", "diffseq", "mun", "u", "deaf", "messlemma"]},
        "k": {"nargs": "?", "type": int, "help": "subset size (mun) or layer index (messlemma)"},
        "--side": {"choices": ["even", "odd"], "default": "even"},
    }),
}


def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command: the only source of help, usage and error text."""
    parser = argparse.ArgumentParser(
        prog="huntrab",
        description="Hunters-and-rabbits pursuit games: solve, bound, and build strategies.")
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flags, options in arguments.items():
            p.add_argument(*flags.split(), **options)
        p.set_defaults(func=func)
    return parser


def _table(name: str) -> tuple[dict, dict, list, re.Pattern]:
    """One command's parse table, from COMMANDS: its namespace before any
    token, each option spelling's (dest, is a flag, spec), its positionals'
    (dest, spec), and argparse's greedy pattern over them, one "A" a word."""
    func, _help, arguments = COMMANDS[name]
    defaults = {"command": name, "func": func}
    options, positionals = {}, []
    for flags, spec in arguments.items():
        spellings = flags.split()
        if not spellings[0].startswith("-"):
            positionals.append((flags, spec))
            continue
        long = next((s for s in spellings if s.startswith("--")), spellings[0])
        dest = long.lstrip("-").replace("-", "_")
        flag = spec.get("action") == "store_true"
        defaults[dest] = spec.get("default", False if flag else None)
        options.update(dict.fromkeys(spellings, (dest, flag, spec)))
    pattern = re.compile("".join(f"(A{spec.get('nargs') or ''})" for _, spec in positionals))
    return defaults, options, positionals, pattern


_TABLES = {name: _table(name) for name in COMMANDS}


def _parse(argv: list[str]) -> argparse.Namespace | None:
    """The namespace the full parser gives a well-formed call, read from
    the command's table (_TABLES); None sends any other call to argparse.

    Well formed: leading --json flags, a command, then only its exact option
    spellings, each valued one followed by a word (not starting with "-"),
    and the positional words in one run: argparse fills positionals run by
    run, so "cube 5 mun --side odd 3" is an error there.
    """
    start = 0
    while start < len(argv) and argv[start] == "--json":
        start += 1
    if start == len(argv) or argv[start] not in _TABLES:
        return None
    defaults, options, positionals, pattern = _TABLES[argv[start]]
    values = {**defaults, "json": start > 0}
    words: list[str] = []
    ended = False  # an option followed the positional words
    tokens = iter(argv[start + 1:])
    try:
        for token in tokens:
            if token in options:
                dest, flag, spec = options[token]
                values[dest] = True if flag else _value(spec, next(tokens, "-"))
                ended = bool(words)
            elif token.startswith("-") or ended:
                return None
            else:
                words.append(token)
        match = pattern.fullmatch("A" * len(words))
        if match is None:
            return None
        for (dest, spec), group in zip(positionals, match.groups()):
            chunk, words = words[:len(group)], words[len(group):]
            values[dest] = ([_value(spec, word) for word in chunk] if spec.get("nargs") == "+"
                            else _value(spec, chunk[0]) if chunk else spec.get("default"))
    except ValueError:
        return None
    args = argparse.Namespace()
    vars(args).update(values)  # Namespace(**values) sets one attribute at a time
    return args


def _value(spec: dict, word: str):
    """A word converted and checked as argparse does; ValueError for a
    failure, or for a word starting with "-", which argparse may read as
    an option."""
    value = spec.get("type", str)(word)
    if word.startswith("-") or value not in spec.get("choices", (value,)):
        raise ValueError(word)
    return value


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv) or _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        body, code = args.func(args)
    except (*USAGE_ERRORS, BudgetExceededError) as exc:
        print(f"huntrab {args.command}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BudgetExceededError) else 2
    if body is None:  # the command already wrote its whole output
        return code
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs": body["inputs"],
        "results": body["results"],
        "warnings": body["warnings"],
        "timing_seconds": round(time.perf_counter() - started, 6),
    }
    _emit(report, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())

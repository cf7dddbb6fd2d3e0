#!/usr/bin/env python3
"""Exactly solve the standard small families and cross-check the bounds.

Usage: python scripts/solve_families.py [--deaf] [--budget N]

Prints one line per instance: the hunter number, the lower bound that
seeded it, the route that answered (sandwich: a nest strategy met the
bound; search: some component was searched), the states explored (summed
over the searched hunter counts; 0 on the sandwich route), the work units
the solve spent of the budget, and whether the witness re-verifies.
"""

import argparse

from huntrab.dynamics import DEAF, STANDARD, Caught, verify
from huntrab.errors import BudgetExceededError
from huntrab.graphs import cycle_graph, grid_graph, hypercube_graph, path_graph, star_graph
from huntrab.solver import DEFAULT_BUDGET, Meter, hunter_number


def instances():
    for n in range(2, 8):
        yield f"path {n}", path_graph(n)
    for n in range(1, 7):
        yield f"star {n}", star_graph(n)
    for n in range(3, 7):
        yield f"cycle {n}", cycle_graph(n)
    for m, n in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5),
                 (5, 6), (6, 6), (7, 7)]:
        yield f"grid {m}x{n}", grid_graph(m, n)
    for n in range(1, 6):
        yield f"cube {n}", hypercube_graph(n)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--deaf", action="store_true")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    args = parser.parse_args()
    variant = DEAF if args.deaf else STANDARD

    print(f"{'instance':<12} {'hunters':>8} {'bound':>6} {'route':>8} {'explored':>9} "
          f"{'units':>11} {'witness':>8}")
    for name, g in instances():
        meter = Meter(args.budget)
        try:
            result = hunter_number(g, variant, meter)
        except BudgetExceededError as exc:
            print(f"{name:<12} {'?':>8} {exc.best_lower_bound:>6} {'-':>8} {'-':>9} {'-':>11} "
                  f"{'budget':>8}")
            continue
        ok = isinstance(verify(g, result.witness), Caught)
        print(f"{name:<12} {result.hunter_number:>8} {result.lower_bound_used:>6} "
              f"{result.route:>8} {result.explored_states:>9} {meter.spent:>11} "
              f"{'ok' if ok else 'BAD':>8}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Tabulate hypercube hunter quantities: closed forms next to scans.

Usage: python scripts/cube_table.py [MAX_N]

Columns: the hunter number closed form, the profile-scan surplus + 1, the
branch closed form + 1, the layer-projection upper bound, the closed-profile
scan surplus + 1 for the deaf rabbit, and the stated deaf closed form (which
tracks the surplus, not surplus + 1, where it is right at all).
"""

import argparse

from huntrab.cube import (
    cube_deaf_closed_form,
    cube_deaf_surplus,
    cube_hunter_number,
    cube_hunter_upper,
    cube_surplus,
    cube_surplus_closed_form,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("max_n", nargs="?", type=int, default=14)
    args = parser.parse_args()

    header = f"{'n':>3} {'hunters':>10} {'scan+1':>8} {'branch+1':>9} {'upper':>8} {'deaf scan+1':>12} {'deaf form':>10}"
    print(header)
    print("-" * len(header))
    for n in range(1, args.max_n + 1):
        hun = cube_hunter_number(n)
        scan = cube_surplus(n) + 1
        branch = cube_surplus_closed_form(n) + 1 if n >= 2 else "-"
        upper = cube_hunter_upper(n)
        deaf_scan = cube_deaf_surplus(n) + 1
        deaf_form = cube_deaf_closed_form(n)
        flag = ""
        if branch != "-" and branch != hun:
            flag += " BRANCH-MISMATCH"
        if deaf_form != deaf_scan - 1:
            flag += " DEAF-FORM-MISMATCH"
        print(f"{n:>3} {hun:>10} {scan:>8} {branch:>9} {upper:>8} {deaf_scan:>12} {deaf_form:>10}{flag}")


if __name__ == "__main__":
    main()

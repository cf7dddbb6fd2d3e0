"""The four benchmark workloads: seeded inputs and pinned references.

Each workload is a fixed list of operations.  An operation is one call to
``huntrab.cli.main(["--json", *argv])`` plus the results it must report.
The seed reaches the program only through the generated input files: it
permutes the vertex numbering of every graph (and of its nest-order file)
and draws the random graphs.  Hunter numbers, bounds and nest strategies do
not depend on vertex numbering, so the references stay pinned.  The work
done does depend on the numbering, so each pass of a run takes its own
draw of inputs from the seed: draw d of seed s is the same on every run.

huntrab is imported inside ``build`` rather than at module level, because
the set-up timing purges and re-imports the package before each build.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("exact-standard", "exact-deaf", "nest-bounds", "cube-forms")

# Hunter numbers by exhaustive search.  Q4 standard = cube_hunter_number(4).
STANDARD_SOLVES = {"grid4x4": 3, "grid4x5": 3, "grid3x6": 2, "cycle12": 2, "q4": 5}
# grid 4x5 deaf is left out: it alone takes about 29 s.
DEAF_SOLVES = {"grid4x4": 5, "grid3x5": 4, "grid3x6": 4, "cycle12": 3, "q4": 8}
# (open union bound, closed union bound, degeneracy)
BOUNDS = {"grid4x5": (3, 5, 2), "grid3x7": (2, 4, 2)}
# name -> (extra strategy flags, hunters).  Q5 = cube_hunter_number(5).
STRATEGIES = {"q5": (("--extend-parity",), 8), "q4": (("--deaf",), 8),
              "grid5x7": (("--extend-parity",), 3)}

RANDOM_GRAPHS = 4
RANDOM_EDGE_PROBABILITY = 0.3
CUBE_DIMS = range(2, 19)


@dataclass(frozen=True)
class Op:
    """One CLI call and what its JSON ``results`` must contain.

    ``witness_graph`` is set for ``solve``: the reported witness is then
    re-verified on it, with at most ``hunter_number`` shots per round.
    """

    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)
    witness_graph: object = None

    @property
    def produces_witness(self) -> bool:
        """Whether the CLI verifies a strategy of its own for this call."""
        return self.argv[0] in ("solve", "strategy")


def _base_graph(name: str):
    from huntrab import graphs

    if name.startswith("grid"):
        m, n = name[4:].split("x")
        return graphs.grid_graph(int(m), int(n))
    if name.startswith("cycle"):
        return graphs.cycle_graph(int(name[5:]))
    return graphs.hypercube_graph(int(name[1:]))


def _permuted(g, perm: list[int]):
    from huntrab import graphs

    labels = None
    if g.labels is not None:
        relabeled = [""] * g.n
        for v, label in enumerate(g.labels):
            relabeled[perm[v]] = label
        labels = relabeled
    return graphs.graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()], labels)


def _permuted_order(order, perm: list[int], g):
    """Relabel a nest order; swap the part lines if the parts swapped names.

    ``bipartition`` names the part holding vertex 0 "even", and
    ``strategy --order FILE`` rejects an order whose parts are swapped.
    """
    from huntrab import graphs, nesting

    if order.kind == nesting.FULL:
        return nesting.NestOrder(nesting.FULL, order_all=tuple(perm[v] for v in order.order_all))
    even = tuple(perm[v] for v in order.order_even)
    odd = tuple(perm[v] for v in order.order_odd)
    if graphs.mask_of(even) != graphs.bipartition(g).even:
        even, odd = odd, even
    return nesting.NestOrder(nesting.BIPARTITE, even, odd)


def _nest_order(name: str, g):
    from huntrab import nesting

    if name == "q5":
        return nesting.weightlex_nest_order(g)
    if name == "q4":
        return nesting.weightlex_full_order(g)
    m, n = name[4:].split("x")
    return nesting.grid_nest_order(int(m), int(n))


def _random_connected(rng: random.Random, n: int):
    from huntrab import graphs

    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < RANDOM_EDGE_PROBABILITY]
        g = graphs.graph_from_edges(n, edges)
        if len(graphs.components(g)) == 1:
            return g


class _Inputs:
    """Writes one draw of seeded input files into one directory."""

    def __init__(self, key: str, workdir: str):
        self.key = key
        self.workdir = workdir

    def path(self, name: str, suffix: str) -> str:
        return os.path.join(self.workdir, f"{name}.{suffix}")

    def permutation(self, name: str, n: int) -> list[int]:
        perm = list(range(n))
        random.Random(f"{self.key}:{name}").shuffle(perm)
        return perm

    def graph(self, name: str, with_order: bool = False):
        """Write the permuted named graph (and its nest order); return it."""
        from huntrab import graphs, nesting

        base = _base_graph(name)
        perm = self.permutation(name, base.n)
        g = _permuted(base, perm)
        graphs.write_graph(g, self.path(name, "graph"))
        if with_order:
            order = _permuted_order(_nest_order(name, base), perm, g)
            nesting.write_nest_order(order, self.path(name, "order"))
        return g

    def random_graphs(self):
        """The draw's random connected graphs on 12-13 vertices, written out."""
        from huntrab import graphs

        rng = random.Random(self.key)
        out = []
        for i in range(RANDOM_GRAPHS):
            name = f"random{i}"
            g = _random_connected(rng, 12 + i % 2)
            graphs.write_graph(g, self.path(name, "graph"))
            out.append((name, g))
        return out


def _solve_ops(inputs: _Inputs, pinned: dict, variant: str) -> list[Op]:
    flags = ("--deaf",) if variant == "deaf" else ()
    ops = []
    for name, h in pinned.items():
        g = inputs.graph(name)
        ops.append(Op(("solve", inputs.path(name, "graph"), *flags),
                      {"hunter_number": h, "variant": variant}, g))
    for name, g in inputs.random_graphs():
        ops.append(Op(("solve", inputs.path(name, "graph"), *flags), {"variant": variant}, g))
    return ops


def _nest_bounds_ops(inputs: _Inputs) -> list[Op]:
    ops = []
    for name, (open_bound, closed_bound, degeneracy) in BOUNDS.items():
        inputs.graph(name)
        for flags, mode, bound in (((), "open", open_bound), (("--deaf",), "closed", closed_bound)):
            ops.append(Op(("bounds", inputs.path(name, "graph"), *flags),
                          {"mode": mode, "union_bound": bound, "degeneracy_bound": degeneracy}))
    for name, (flags, hunters) in STRATEGIES.items():
        inputs.graph(name, with_order=True)
        ops.append(Op(("strategy", inputs.path(name, "graph"), "--order",
                       inputs.path(name, "order"), *flags),
                      {"hunters": hunters, "verified": True}))
    return ops


def _cube_ops() -> list[Op]:
    """Flags pinned as the reports give them; the known mismatches must stay
    flagged.  A diffseq covers one side of Q^n, so its length is 2^(n-1)."""
    ops = []
    for n in CUBE_DIMS:
        ops.append(Op(("cube", str(n), "hun"), {"match": "MATCH"}))
        ops.append(Op(("cube", str(n), "u"), {"match": "MATCH"}))
        ops.append(Op(("cube", str(n), "deaf"), {"match": "MATCH" if n % 2 == 0 else "MISMATCH"}))
        ops.append(Op(("cube", str(n), "diffseq"), {"side": "even", "length": 2 ** (n - 1)}))
    for n in CUBE_DIMS:
        if n >= 3:
            ops.append(Op(("cube", str(n), "messlemma", str(n // 2)),
                          {"i": n // 2, "position_match": "MATCH", "value_match": "MISMATCH"}))
    return ops


def build(workload: str, seed: int, workdir: str, draw: int = 0) -> list[Op]:
    """Write draw number ``draw`` of the workload's seeded inputs under
    workdir, replacing any earlier draw; return its operations."""
    os.makedirs(workdir, exist_ok=True)
    inputs = _Inputs(f"{seed}.{draw}", workdir)
    if workload == "exact-standard":
        return _solve_ops(inputs, STANDARD_SOLVES, "standard")
    if workload == "exact-deaf":
        return _solve_ops(inputs, DEAF_SOLVES, "deaf")
    if workload == "nest-bounds":
        return _nest_bounds_ops(inputs)
    if workload == "cube-forms":
        return _cube_ops()
    raise ValueError(f"unknown workload {workload!r}")

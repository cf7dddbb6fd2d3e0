"""Exception types shared across the package."""

from __future__ import annotations


class InvalidParameterError(ValueError):
    """An argument violates a documented precondition."""


class CapacityError(ValueError):
    """The requested object is too large for this representation."""


class FormatError(ValueError):
    """A text file (graph, strategy, nest order) failed to parse."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InvalidStrategyError(ValueError):
    """A strategy is not compatible with the graph it is run on."""


class InvalidOrderError(ValueError):
    """A nest order does not have the required segment structure."""


class NonTerminatingError(RuntimeError):
    """A nest-order strategy stopped shrinking the rabbit set (too few hunters)."""


class BudgetExceededError(RuntimeError):
    """A call ran past its work budget (see solver.Meter)."""

    def __init__(self, phase: str, spent: int, best_lower_bound: int, limit: int):
        super().__init__(f"work budget of {limit} units exceeded in the {phase} phase "
                         f"after {spent} units; best lower bound {best_lower_bound}")
        self.phase = phase
        self.spent = spent
        self.best_lower_bound = best_lower_bound

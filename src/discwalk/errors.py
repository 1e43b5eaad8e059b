"""Exception types shared across the package."""

from __future__ import annotations


class DiscWalkError(Exception):
    """Base class for all library errors."""


class DomainError(DiscWalkError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class CapacityError(DiscWalkError, ValueError):
    """A request exceeds a stated capacity: a quadrature rule cannot integrate
    the requested degrees exactly, or an SPD decision needs a residue table
    larger than its budget."""


class ConvergenceError(DiscWalkError, RuntimeError):
    """An iterative computation (series, eigensolve) failed to converge."""


class NotPositiveDefiniteError(DiscWalkError, ValueError):
    """A coefficient table failed the positive-definiteness gate.

    ``violations`` holds ``(m, n, value)`` triples of offending entries.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        head = ", ".join(f"({m},{n})={v}" for m, n, v in self.violations[:4])
        more = "" if len(self.violations) <= 4 else f" and {len(self.violations) - 4} more"
        super().__init__(f"coefficients violate nonnegativity/realness at {head}{more}")

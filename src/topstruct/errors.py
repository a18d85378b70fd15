"""Exception types shared across the package, and the one work budget.

One class per exit code of the CLI: ``BudgetExceeded`` exits 2,
``FormatError`` exits 64 (as do ``ValueError`` and ``OSError``), and
``InvariantViolation`` exits 70.  A failed internal certainty, which is
a bug and never a property of the input, raises ``InvariantViolation``;
a caller's misuse of an entry point raises ``ValueError``.  Each check
says in its message which condition failed.

Every exhaustive search charges a ``Budget`` meter: one unit per
2-colouring of a separator's components in the S_k enumeration, per
vertex pair of the k-block relation, per lean exchange step, and per
node of every other search.  ``run_structure`` and ``verify_theorem``
each build one meter and pass it to every stage, so ``--budget`` bounds
the whole run; ``BudgetExceeded`` names the stage that ran out.
"""

DEFAULT_BUDGET = 10_000_000


class TopstructError(Exception):
    """Base class for all package errors."""


class BudgetExceeded(TopstructError):
    """A configured work limit was hit before the search finished.

    Exact searches never degrade silently: running out of budget is an
    explicit error, not a "no" answer.
    """

    def __init__(self, message="work budget exhausted", spent=None):
        super().__init__(message)
        self.spent = spent


class Budget:
    """A work meter: ``limit`` units, of which ``spent`` are used.

    A negative limit is a usage error, raised before any work is done,
    so no caller's result can depend on whether it charges the meter.
    """

    def __init__(self, limit=DEFAULT_BUDGET):
        if limit < 0:
            raise ValueError("budget must be >= 0, got %s" % limit)
        self.limit = limit
        self.spent = 0

    @classmethod
    def of(cls, budget):
        """``budget`` itself if it is a meter, else a meter of that size."""
        return budget if isinstance(budget, cls) else cls(budget)

    def charge(self, stage, units=1):
        """Spend ``units``; raise ``BudgetExceeded`` past the limit."""
        self.spent += units
        if self.spent > self.limit:
            raise BudgetExceeded("%s budget" % stage, spent=self.spent)


class InvariantViolation(TopstructError):
    """An internal certainty failed; indicates a bug, not bad input."""


class FormatError(TopstructError):
    """Malformed .gr/.td input."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line

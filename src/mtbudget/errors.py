"""Exception types shared across the package."""


class NumericalFailure(RuntimeError):
    """A computation left its numerical tolerance: a dense solve's residual
    above the allowed tolerance, or an active-set insert whose Schur
    complement is below the floor (the query is already in the span)."""


class DisconnectedGraph(ValueError):
    """Operation requires a connected graph."""


class ZeroNormInstance(ValueError):
    """Kernel normalization would divide by a zero self-similarity."""


class BudgetFull(RuntimeError):
    """Insert attempted while the active set already holds B entries."""


class NoFeasibleShrink(RuntimeError):
    """No scaling factor in (0, 1] satisfies the deficit constraint."""


class ParseError(ValueError):
    """Malformed dataset or graph file."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = "line %d: %s" % (line_no, message)
        super().__init__(message)
        self.line_no = line_no


class TaskOutOfRange(ValueError):
    """Task id outside 1..k."""


class DomainError(ValueError):
    """Bound calculator argument outside its domain."""


class EmptyStream(ValueError):
    """Operation needs at least one example."""

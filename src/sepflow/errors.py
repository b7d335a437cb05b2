"""Exception types shared across the library."""


class SepflowError(Exception):
    """Base class for all library errors."""


class GraphError(SepflowError):
    """Malformed graph input (self-loops, nonpositive capacities, ...)."""


class DisconnectedGraphError(GraphError):
    """Operation requires a connected graph."""


class ValidationError(SepflowError):
    """A structural invariant failed; message names the failed clause."""


class SolverConvergenceError(SepflowError):
    """Iterative solve hit its iteration cap before reaching tolerance.

    Carries the best iterate and the residual it achieved so callers can
    inspect partial progress.
    """

    def __init__(self, message, best_iterate=None, achieved_residual=None):
        super().__init__(message)
        self.best_iterate = best_iterate
        self.achieved_residual = achieved_residual


class ParseError(SepflowError):
    """Malformed input file; message carries the offending line number."""

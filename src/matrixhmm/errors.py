"""Exception types shared across the package."""


class DecompositionError(ValueError):
    """A matrix that must be positive definite failed its factorization."""


class FitError(RuntimeError):
    """Base class for failures raised while fitting; ``iteration`` names the
    ECM iteration that failed, when one did."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class StateCollapseError(FitError):
    """A hidden state lost essentially all posterior mass."""


class NumericalError(FitError):
    """Non-finite quantities appeared during estimation."""


class FitFailureError(FitError):
    """Every initialization attempt failed."""

    def __init__(self, message, diagnostics=()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


class GridError(RuntimeError):
    """Every cell of a model grid failed."""

"""Exception types shared across the toolkit."""

from __future__ import annotations


class ClickgraphError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInputError(ClickgraphError):
    """Input data violates the declared format or id range."""


class LineError(MalformedInputError):
    """A single input line could not be parsed."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SchemaError(ClickgraphError):
    """A columnar file is missing mandatory columns or uses unknown labels."""


class AlignmentError(ClickgraphError):
    """Two objects that must share a graph refer to different graphs."""


class SupportError(ClickgraphError):
    """Observed counts fall outside the edge set they must be supported on."""


class ConvergenceError(ClickgraphError):
    """An iterative solver did not reach its tolerance.

    Carries the last iterate (and, when available, the objective trace) so
    callers can inspect how far the solver got.
    """

    def __init__(self, message: str, last=None, iterations: int | None = None, trace=None):
        super().__init__(message)
        self.last = last
        self.iterations = iterations
        self.trace = trace


class SeparationError(ClickgraphError):
    """Logistic outcome is perfectly separated (or constant); the MLE diverges."""


class CollinearityError(ClickgraphError):
    """Design matrix columns are (numerically) linearly dependent."""

    def __init__(self, columns):
        self.columns = tuple(columns)
        super().__init__(f"collinear design columns: {', '.join(self.columns)}")


class PreconditionError(ClickgraphError):
    """A documented precondition of an operation was violated."""


class InsufficientDataError(ClickgraphError):
    """Too few observations for the requested estimate."""


class DegenerateInputError(ClickgraphError):
    """Input admits no meaningful answer (constant samples, |r| = 1, ...)."""


class UndefinedGiniError(DegenerateInputError):
    """Gini coefficient of an all-zero vector is undefined."""


class ElicitationError(ClickgraphError):
    """A hypothesis row cannot be turned into a Dirichlet prior."""


class DependencyError(ClickgraphError):
    """A pipeline stage was invoked before the stage that produces its input."""


class ConfigError(ClickgraphError):
    """Run configuration is invalid; message lists every problem found."""

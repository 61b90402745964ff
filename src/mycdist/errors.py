"""Exception types shared across the package."""


class MycdistError(Exception):
    """Base class for all package errors."""


class MalformedGraph6(MycdistError):
    """Input is not a valid graph6 byte string or edge list."""


class Unsupported(MycdistError):
    """Graph order outside the supported single-byte graph6 range (n > 62),
    in graph6 or in an edge list."""


class VertexOutOfRange(MycdistError):
    """Vertex id not in 0..n-1, of a graph or of a Mycielskian layout."""


class InvalidGraph(MycdistError, ValueError):
    """Parameters that describe no simple graph: a negative order, a loop,
    a cycle on fewer than 3 vertices."""


class InvalidT(MycdistError):
    """Mycielskian level parameter t must be >= 1."""


class SizeMismatch(MycdistError):
    """A permutation, coloring, chain or layout's rows whose length
    differs from the graph order."""


class SearchBudgetExceeded(MycdistError):
    """Search spent its step budget before finishing."""

    def __init__(self, steps: int):
        super().__init__(f"search budget exceeded after {steps} steps")
        self.steps = steps


class MalformedColoring(MycdistError):
    """Colors outside the palette 1..k, or a negative k."""


class PreconditionViolated(MycdistError):
    """A call outside its documented preconditions."""

"""Exception types shared across the package."""


class MycdistError(Exception):
    """Base class for all package errors."""


class MalformedGraph6(MycdistError):
    """Input is not a valid graph6 byte string."""


class Unsupported(MycdistError):
    """Graph order outside the supported single-byte graph6 range (n > 62),
    in graph6 or in an edge list."""


class VertexOutOfRange(MycdistError):
    """Vertex id not in 0..n-1."""


class InvalidGraph(MycdistError, ValueError):
    """Parameters that describe no simple graph: a negative order, a loop,
    a cycle on fewer than 3 vertices."""


class EmptySource(MycdistError):
    """Mycielskian of the order-0 graph is not defined here."""


class InvalidT(MycdistError):
    """Mycielskian level parameter t must be >= 1."""


class LayoutMismatch(MycdistError):
    """Layout does not describe the given graph."""


class SizeMismatch(MycdistError):
    """A permutation, coloring or chain whose length differs from the
    graph order."""


class SearchBudgetExceeded(MycdistError):
    """Search spent its step budget before finishing."""

    def __init__(self, steps: int):
        super().__init__(f"search budget exceeded after {steps} steps")
        self.steps = steps


class MalformedColoring(MycdistError):
    """Coloring length or color values are inconsistent."""


class PreconditionViolated(MycdistError):
    """Construction called outside its case preconditions."""


class InvalidM(MycdistError):
    """Star parameter m outside the supported range."""


class InvalidN(MycdistError):
    """Complete-graph parameter n outside the supported range."""

"""Exception types shared across the package.

Nonexistence results (a digraph provably has no kernel, a bigraph has no
A-dominating set) are *not* errors; solvers return ``None`` for those.
Exceptions are reserved for malformed inputs and violated preconditions.
"""


class InvalidVertex(ValueError):
    """A vertex id is outside ``[0, n)`` or an edge references one."""


class MalformedInterval(ValueError):
    """An interval has ``lo > hi`` or a non-rational endpoint."""


class DimensionMismatch(ValueError):
    """Two objects that must describe the same vertex set do not."""


class _AtVertex(ValueError):
    """A violation at ``vertex``; ``_message`` is its default text."""

    def __init__(self, vertex: int, message: str | None = None):
        self.vertex = vertex
        super().__init__(message or self._message.format(vertex))


class NotReflexive(_AtVertex):
    """A vertex is missing the required self-intersection / self-loop."""
    _message = "vertex {} is not reflexive"


class NotIrreflexive(_AtVertex):
    """A vertex carries a self-loop where none is allowed."""
    _message = "vertex {} has a self-loop"


class InvalidOrdering(ValueError):
    """An ordering is not a permutation of the vertex set."""


class _Witnessed(ValueError):
    """An ordering shown invalid by ``witness``; ``_message`` is its default text."""

    def __init__(self, witness, message: str | None = None):
        self.witness = witness
        super().__init__(message or self._message.format(witness))


class ForbiddenStructure(_Witnessed):
    """A vertex ordering contains one of the six forbidden patterns."""
    _message = "forbidden structure: {}"


class NotDufOrdered(_Witnessed):
    """An ordering violates the directed umbrella-free condition."""
    _message = "not a DUF-ordering: {}"


class NotCocompOrdered(_Witnessed):
    """An ordering violates the undirected umbrella-free condition."""
    _message = "not a cocomparability ordering: {}"


class NotAdjusted(ValueError):
    """A representation does not have matching left endpoints per vertex."""


class InvalidCertificate(ValueError):
    """A vertex set handed to lift/project fails its claimed property."""


class OddSubdivision(ValueError):
    """Lift/project need a subdivision with an even number of path vertices."""


class BudgetExceeded(RuntimeError):
    """A brute-force oracle refused an input beyond its configured budget."""


class ParseError(ValueError):
    """An instance file could not be parsed; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")

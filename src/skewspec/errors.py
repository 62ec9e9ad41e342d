"""Exception types shared across the package."""


class SkewspecError(Exception):
    """Base class for every error raised by this package."""


class SelfLoopError(SkewspecError, ValueError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(SkewspecError, ValueError):
    """The same unordered pair appears twice in an edge list."""


class VertexOutOfRangeError(SkewspecError, ValueError):
    """A vertex index is negative or >= the graph order."""


class NotBipartiteError(SkewspecError, ValueError):
    """Raised where a bipartite graph is required.

    ``odd_cycle`` holds a witness: a closed walk of odd length, given as a
    vertex sequence without the repeated endpoint.
    """

    def __init__(self, message: str, odd_cycle: tuple[int, ...] = ()):
        super().__init__(message)
        self.odd_cycle = odd_cycle


class NotSymmetricError(SkewspecError, ValueError):
    """A matrix expected to be symmetric is not (exact comparison)."""


class NotAntisymmetricError(SkewspecError, ValueError):
    """A value list expected to be antisymmetric about zero is not."""


class OddCycleError(SkewspecError, ValueError):
    """A cycle of even length is required."""


class NotACycleError(SkewspecError, ValueError):
    """A vertex sequence is not a cycle of the graph."""


class CapExceededError(SkewspecError):
    """Cycle enumeration hit its cap.  ``cycles`` holds the partial list."""

    def __init__(self, message: str, cycles: list):
        super().__init__(message)
        self.cycles = cycles


class GraphMismatchError(SkewspecError, ValueError):
    """Two orientations do not share the same underlying graph."""


class NotRegularError(SkewspecError, ValueError):
    """A regular graph is required."""


class BudgetExceededError(SkewspecError, ValueError):
    """A requested construction exceeds the configured size budget."""


class ParseError(SkewspecError, ValueError):
    """A graph file is malformed.  Carries the 1-based line number."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason

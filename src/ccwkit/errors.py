"""Exception types shared across the package."""


class CcwKitError(Exception):
    """Base class for all errors raised by ccwkit."""


class MismatchedVertexSets(CcwKitError):
    """Graphs passed to an intersection do not share the same labeled vertex set."""


class VertexOutOfRange(CcwKitError):
    """A vertex index is outside [0, n)."""


class DuplicateLabel(CcwKitError):
    """Two vertices carry the same label."""


class InvalidGraph(CcwKitError, ValueError):
    """A graph that is malformed: a self-loop, an edge that is not a pair of
    integer vertex ids, a wrong label count or a malformed label; or a graph
    or envelope object missing a key or holding a malformed value."""


class InvalidMeasure(CcwKitError, ValueError):
    """Vertex weights that are negative, NaN, infinite, not numbers, or not
    one per vertex."""


class InvalidPEO(CcwKitError):
    """The given ordering is not a perfect elimination ordering."""


class NotChordal(CcwKitError):
    """A chordal graph was required but the input has a hole."""


class InvalidCover(CcwKitError):
    """An ordered clique cover fails its invariants against the graph."""


class InvalidSize(CcwKitError):
    """A construction parameter is out of range."""


class InvalidApexEdge(CcwKitError):
    """An apex-apex edge refers to an apex index outside 1..k."""


class JunctionNotClique(CcwKitError):
    """The identified vertex set of a clique sum is not a clique in both parts."""


class BadRemovedEdge(CcwKitError):
    """A removed edge is not an edge of the junction clique."""


class UnequalApexSizes(CcwKitError):
    """Clique-sum parts must share a single apex-set size."""


class InvalidFactorization(CcwKitError):
    """A factorization failed re-verification."""


class NotCliqueInFactorOne(CcwKitError):
    """product-cell covering requires the input set to be a clique in factor 1."""


class NoApex(CcwKitError):
    """The audited graph has no apex vertex."""


class NoGridCell(CcwKitError):
    """The audited graph has no grid cell."""

"""Exception types shared across the package."""


class SchubertError(Exception):
    """Base class for all domain errors raised by this package."""


class NotADouble(SchubertError):
    """A partition or ordered set partition is not in the image of doubling."""


class NotADoubleIndex(SchubertError):
    """A class on a real even space carries an index that is not a double."""


class BoxOverflow(SchubertError):
    """A partition does not fit inside the k x l box of the ambient space."""


class SpaceMismatch(SchubertError):
    """Two classes living on different spaces were combined."""


class DegreeOutOfRange(SchubertError):
    """A characteristic class was requested in a degree the bundle does not have."""


class DimensionMismatch(SchubertError):
    """Total degree of the conditions does not match the dimension of the space."""


class MissingChernDegree(SchubertError):
    """A degeneracy determinant needs a Chern degree that was not supplied."""


class ReportTooLarge(SchubertError):
    """A report would write more than the fixed limit of letters per term."""


class SupportOutsideStaircase(SchubertError):
    """A polynomial has a monomial outside the staircase of the requested symmetric group."""

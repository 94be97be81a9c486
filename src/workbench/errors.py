"""Exception types shared across the workbench."""


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class CapExceeded(WorkbenchError):
    """A configured size cap (group order, module dimension, ...) was exceeded."""


class NotMember(WorkbenchError):
    """Element is not contained in the group."""


class BadDegree(WorkbenchError):
    """Dihedral parameter d out of range (d >= 3 required)."""


class TypeUnavailable(WorkbenchError):
    """Requested extension type does not exist for this d (type e needs d >= 4)."""


class NotDihedral(WorkbenchError):
    """Subgroup is not dihedral of order >= 8."""


class BadIndex(WorkbenchError):
    """[E:D] is not 1 or 2, or D is not contained in E."""


class Unclassifiable(WorkbenchError):
    """Extension fingerprint matched no type (signals a fingerprint collision)."""


class ConductorOverflow(WorkbenchError):
    """Cyclotomic conductor grew past the configured cap."""


class NotTwoIntegral(WorkbenchError):
    """Value has even denominator, so it has no reduction mod 2."""


class NonIndicatorValue(WorkbenchError):
    """A Frobenius-Schur average was not -1, 0 or +1 (signals a table bug)."""


class NotRealBlock(WorkbenchError):
    """Operation requires a real block."""


class NotIdempotent(WorkbenchError):
    """A claimed idempotent matrix failed e*e == e."""


class FieldTooSmall(WorkbenchError):
    """GF(2^f) extension needed beyond the supported range."""


class NotInO2(WorkbenchError):
    """Element is not an involution in O_2(G)."""


class NoSolution(WorkbenchError):
    """Signed-sum decomposition has no solution for this input."""


class NegativeMultiplicity(WorkbenchError):
    """A predicted composition multiplicity came out negative."""


class InvariantViolation(WorkbenchError):
    """An internal invariant of a computation failed (signals a bug or bad input data)."""

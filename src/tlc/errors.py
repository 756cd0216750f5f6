"""Domain error hierarchy.

Every failure mode that callers are expected to handle is a subclass of
TlcError, so the CLI can map any domain error to a stable exit code.
"""


class TlcError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(TlcError):
    """Operands have incompatible shapes or ambient dimensions."""


class NotFullRank(TlcError):
    """A square or full-rank object was required but not supplied."""


class NonBinarySlack(TlcError):
    """An inner product that must be 0 or 1 is something else."""


class NotSpanning(TlcError):
    """A vector family does not linearly span its ambient space."""


class DegenerateSeed(TlcError):
    """The closure of a spanning seed failed to span."""


class RepeatedLine(TlcError):
    """A matrix has a repeated row or column where distinctness is required."""


class NoCore(TlcError):
    """No triangular core exists in the given slack matrix."""


class NonBinary(TlcError):
    """A vector that must have 0/1 entries has other entries."""


class NotAFace(TlcError):
    """A point set is not the 0/1 point set of a cone face."""


class NotInCone(TlcError):
    """An integer vector has no nonnegative decomposition over the lifted generators."""


class DimensionTooLarge(TlcError):
    """The requested dimension exceeds the exhaustive-search budget."""


class NotMaximal(TlcError):
    """A configuration that must be maximal is not."""


class NonBinaryProduct(TlcError):
    """A product that the compression maps require to be 0/1 is not."""


class NotInLattice(TlcError):
    """A vector is not an integer combination of the lattice generators."""


class NotBipartite(TlcError):
    """The edge set admits no proper 2-coloring."""


class ParseError(TlcError):
    """Malformed textual input.  Carries 1-based line/column when known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
            message = message + where
        super().__init__(message)


class StoreConflict(TlcError):
    """A store file would change its bytes or is not named by their sha256,
    or a store path cannot be created or written."""

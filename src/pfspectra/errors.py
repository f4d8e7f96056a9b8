"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for all domain-specific failures."""


class DimensionError(GeometryError):
    """Shapes or sizes of inputs are inconsistent."""


class DomainError(GeometryError):
    """Input is outside the mathematical domain of an operation."""


class StructureError(GeometryError):
    """An algebraic consistency requirement failed (closure, pairing, ...)."""


class PoleError(DomainError):
    """Evaluation requested at a pole of a series or special function."""


class ChartError(GeometryError):
    """A point lies outside the domain of a coordinate chart."""


class FormatError(GeometryError):
    """An input file or document does not match its declared schema."""

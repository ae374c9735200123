"""Exception types shared across the package."""


class ToricPrecisionError(Exception):
    """Base class for every error raised by this package."""


class PoleError(ToricPrecisionError):
    """A rational function was evaluated at a zero of its denominator."""


class SchemaError(ToricPrecisionError):
    """An input file violates the expected JSON schema.

    The message carries the path of the offending field, e.g. ``weights[2]``.
    """


class NotFullDimensionalError(ToricPrecisionError):
    """A point configuration does not affinely span its ambient space."""


class PointOutsidePolytopeError(ToricPrecisionError):
    """A configuration point has negative lattice distance to some facet."""


class DependentDegreesError(ToricPrecisionError):
    """The degree vectors of a multigrading are linearly dependent."""


class NoDegreeMapError(ToricPrecisionError):
    """No affine-linear map sends each graded point to its degree."""


class EmptyDegreeClassError(ToricPrecisionError):
    """A degree class contains no points."""


class ZeroClassSumError(ToricPrecisionError):
    """A fiber-product factor's functions in one degree class sum to 0, so
    they cannot be the denominator of the product's functions."""


class ZeroToNegativePowerError(ToricPrecisionError):
    """A Horn parametrization hit 0 raised to a negative exponent."""

    def __init__(self, row: int, message: str | None = None):
        self.row = row
        super().__init__(message or f"row {row} evaluates to 0 and carries a negative exponent")


class InconsistentBlockIndexError(ToricPrecisionError):
    """Block index assignments do not match the factor Horn matrices."""


class MergeAbortedError(ToricPrecisionError):
    """Strict minimization hit a proportionality class with zero coefficient sum."""


class ZeroClassTotalError(ToricPrecisionError):
    """A degree class has zero total count in the data vector."""


class NotConvergedError(ToricPrecisionError):
    """Iterative proportional scaling exhausted its iteration budget."""

    def __init__(self, max_iter: int, residual: float):
        self.max_iter = max_iter
        self.residual = residual
        super().__init__(f"no convergence after {max_iter} iterations (residual {residual:.3e})")


class DomainError(ToricPrecisionError):
    """A statistical operation left its domain (zero probability or margin)."""


class BoundaryDataError(DomainError):
    """Counts that lie on a proper face of the configuration, so some margin
    of the scaled design is 0; ``face`` holds the indices of that face's points."""

    def __init__(self, face: tuple[int, ...], message: str):
        self.face = face
        super().__init__(message)

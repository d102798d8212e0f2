"""Domain exceptions raised by the toolkit.

``QentroError`` is the common base; the CLI maps it to exit code 3
(domain error) and ``ParseError`` to exit code 2 (input parse error).
"""


class QentroError(ValueError):
    """Base class for invariant violations and invalid domain inputs."""


class ParseError(Exception):
    """Malformed or schema-violating serialized input (not a domain error)."""


class DimensionMismatch(QentroError):
    pass


class NonFinite(QentroError):
    """NaN or infinity where a finite number is required."""


class NotHermitian(QentroError):
    pass


class NoConvergence(QentroError):
    pass


class NotUnitary(QentroError):
    pass


class NotNormalized(QentroError):
    pass


class NotADensityMatrix(QentroError):
    pass


class NotADensity(QentroError):
    """Tabulated function is not a probability density."""


class InvalidDistribution(QentroError):
    pass


class WeightSumInvalid(QentroError):
    pass


class IncompleteMeasurementSet(QentroError):
    pass


class NonpositivePrecision(QentroError):
    pass


class NegativeArea(QentroError):
    pass


class ImpossibleOutcome(QentroError):
    pass


class NonpositiveWavelength(QentroError):
    pass


class InvalidTheta(QentroError):
    pass


class NonpositiveN(QentroError):
    pass


class LengthMismatch(QentroError):
    pass

"""Exception types shared across the package."""


class InvalidParameter(ValueError):
    """A parameter violates its documented range or structure."""

    def __init__(self, name: str, reason: str):
        self.name = name
        self.reason = reason
        super().__init__(f"{name}: {reason}")


class DegenerateBasis(ValueError):
    """The cat-state qubit basis is undefined: the mode amplitude vanishes."""


class OverdampedRegime(ValueError):
    """Decay too strong for oscillatory normal modes: N g^2 <= (gamma/4)^2."""


class NotADensityMatrix(InvalidParameter):
    """Hermiticity, trace, or positivity violated beyond tolerance."""

    def __init__(self, reason: str):
        super().__init__("matrix", reason)


class DimensionMismatch(ValueError):
    """Operands built on incompatible bases or of incompatible shapes."""


class CapacityExceeded(RuntimeError):
    """Requested basis has more states than the hard limit."""

    def __init__(self, dimension: int, limit: int):
        self.dimension = dimension
        self.limit = limit
        super().__init__(f"basis dimension {dimension} exceeds limit {limit}")


class TruncationTooSmall(ValueError):
    """Occupation cutoff leaves more population outside than allowed."""

    def __init__(self, tail: float, limit: float):
        self.tail = tail
        self.limit = limit
        super().__init__(f"truncated tail mass {tail:.3e} exceeds {limit:.1e}")


class StepSizeUnstable(RuntimeError):
    """Two independent propagations of the same span disagree beyond tolerance.

    The Lindblad oracle recomputes its last sample straight from the initial
    state and compares it with the sample reached interval by interval.
    """

    def __init__(self, drift: float, limit: float):
        self.drift = drift
        self.limit = limit
        super().__init__(f"propagation drift {drift:.3e} exceeds {limit:.1e}")


class LeakageError(ValueError):
    """Projection onto the qubit subspace discarded too much weight."""

    def __init__(self, weight: float, limit: float):
        self.weight = weight
        self.limit = limit
        super().__init__(f"discarded weight {weight:.3e} exceeds {limit:.1e}")


class NoRoot(RuntimeError):
    """A bracketing root search found no sign change."""


class DomainError(ValueError):
    """Function argument outside its real domain."""


class ParseError(ValueError):
    """A config line or a flag could not be parsed (line is None for a flag)."""

    def __init__(self, line: int | None, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(reason if line is None else f"line {line}: {reason}")


class UnknownKey(ValueError):
    """A config key is not part of the recognized set."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown config key: {name!r}")

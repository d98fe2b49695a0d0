"""Exception hierarchy shared across the engine.

Everything user-facing derives from EngineError so the CLI can map any
input-level failure to a structured diagnostic with exit code 2.
"""


class EngineError(Exception):
    """Base class for all errors raised on bad input."""


class KindError(EngineError):
    """A symbol of the wrong kind was used (e.g. differentiating by a parameter)."""


class EvalError(EngineError):
    """Evaluation hit an unbound symbol."""


class SubstError(EngineError):
    """Inconsistent substitution request (derivative bound without its base)."""


class DegreeError(EngineError):
    """A monomial exponent beyond the packed-monomial bound MAX_DEGREE."""


class RangeError(EngineError):
    """An exact number outside the floating-point range where a float is needed."""


class ParseError(EngineError):
    """Syntax or declaration error in an expression.

    Carries the byte offset of the offending position in the UTF-8 input.
    """

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ShapeError(EngineError):
    """Mismatched dimensions, coordinates or slot counts."""


class DimensionError(EngineError):
    """Operation only defined in a specific dimension."""


class ConstructionError(EngineError):
    """Conflicting or invalid data when building a table."""


class PoleError(EngineError):
    """Evaluation of a group action at a pole of the Moebius factor."""


class ConsistencyError(EngineError):
    """Supplied data is incomplete or inconsistent (e.g. a coefficient value is missing)."""


class DivergenceError(EngineError):
    """Numeric integration left the finite range."""

    def __init__(self, message, last_time):
        super().__init__(f"{message} (last finite time {last_time})")
        self.last_time = last_time


class SpecFileError(EngineError):
    """Malformed connection spec file."""

    def __init__(self, message, filename=None, line=None):
        where = ""
        if filename is not None:
            where = f"{filename}:"
            if line is not None:
                where += f"{line}:"
            where += " "
        super().__init__(where + message)
        self.filename = filename
        self.line = line

"""Every error the engine raises, under EngineError and the builtin it is
a kind of.  The command line exits with a class's ``exit_code`` and
prefixes its message as PREFIXES says; a class without one reaches the
command line only as a malformed input file's ParameterError."""

PREFIXES = {1: "verification failure", 2: "parameter error", 3: "numerical abort"}


class EngineError(Exception):
    exit_code: int | None = None


class StructureError(EngineError, ValueError):
    """Malformed expression tree or non-terminating rewrite."""


class CoverageError(EngineError, LookupError):
    """A jet variable had no substitution rule or point value."""


class PoleError(EngineError, ZeroDivisionError):
    """A denominator evaluated to zero."""


class ParameterError(EngineError, ValueError):
    """Invalid constructor or operation parameters."""
    exit_code = 2


class CompileError(EngineError, RuntimeError):
    exit_code = 2


class PoleProximityError(EngineError, RuntimeError):
    exit_code = 3


class NumericAbortError(EngineError, RuntimeError):
    exit_code = 3


class CheckFailed(EngineError):
    """A verification check came out false."""
    exit_code = 1


class DerivationError(EngineError, RuntimeError):
    """Wave-function jets failed to cancel, or the two derivation paths disagree: a malformed pair or an engine bug."""
    exit_code = 1


class TransformDegenerateError(EngineError, RuntimeError):
    """The T-jet coefficient matrix is singular at the witness point."""
    exit_code = 1


class GaugeError(EngineError, RuntimeError):
    """Gauge incompatibility or a failed gauge-removal verification."""
    exit_code = 1

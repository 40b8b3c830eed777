"""The engine's error classes that the command line maps to exit codes
without importing NumPy: parameter errors, and the integrator's."""

from __future__ import annotations


class ParameterError(ValueError):
    """Invalid constructor or operation parameters."""


class CompileError(RuntimeError):
    pass


class PoleProximityError(RuntimeError):
    def __init__(self, step, dist, guard):
        super().__init__(f"pole proximity at step {step}: min distance {dist:.3e} < guard {guard:.3e}")
        self.step, self.dist, self.guard = step, dist, guard


class NumericAbortError(RuntimeError):
    pass

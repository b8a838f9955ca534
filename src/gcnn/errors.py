"""Exception types shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific class that applies.
"""


class GcnnError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(GcnnError, ValueError):
    """Operand shapes or geometries do not compose."""


class ConfigError(GcnnError, ValueError):
    """A run configuration is malformed or inconsistent."""


class DataError(GcnnError, ValueError):
    """Input data violates the ingestion contract."""


class NumericalError(GcnnError, RuntimeError):
    """A numerical procedure failed (divergence, singular system, ...)."""


class ConvergenceError(NumericalError):
    """An iterative solver hit its iteration cap before converging."""


class GraphConsumedError(GcnnError, RuntimeError):
    """A backward pass reached a graph an earlier backward pass consumed."""

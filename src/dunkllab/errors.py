"""Exception taxonomy for dunkllab.

Exceptions are reserved for conditions that make the requested computation
meaningless or impossible; a root system outside the supported scope is
rejected when its ``RootSystemSpec`` is built.
"""


class DunklLabError(Exception):
    """Base class for all dunkllab errors."""


class InvalidRootSystemError(DunklLabError):
    """Root-system data violates a structural requirement."""


class CapabilityError(DunklLabError):
    """Operation is not supported for this root system or representation."""


class DomainTooSmallError(DunklLabError):
    """Integrand mass on the boundary shell of the grid exceeds tolerance."""


class AccuracyError(DunklLabError):
    """A computation could not reach the requested accuracy (refinement
    disagreement, a series that does not settle, non-finite values, ...)."""


class SymbolError(DunklLabError):
    """Kernel symbol is not positive / direction set does not span."""


class FitConvergenceError(DunklLabError):
    """A fit did not converge, or had too few usable samples to be made
    (see ``fitting``); malformed input is a ValueError instead."""


class ConfigError(DunklLabError):
    """Experiment configuration is malformed or violates the schema."""

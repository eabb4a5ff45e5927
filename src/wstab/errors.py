"""Exception types shared across the package."""


class WstabError(Exception):
    """Base class for all package errors."""


class InputError(WstabError, ValueError):
    """Caller violated an operation precondition."""


class SingularBoundaryError(WstabError):
    """Level-set gradient degenerates on the boundary."""


class MeshingError(WstabError):
    """Mesh construction failed."""


class ImmersionError(WstabError):
    """Chart is rank-deficient or otherwise unusable."""


class NumericalFailure(WstabError):
    """Finite-difference estimates inconsistent or solver did not converge."""


class PreconditionError(WstabError):
    """Operation requires a property (e.g. stationarity) the input lacks."""


class ConfigError(WstabError):
    """Scenario configuration is malformed."""

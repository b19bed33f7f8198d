"""Exception types raised by the bound calculators, traffic models and simulator."""


class SncboundsError(Exception):
    """Base of every error this package raises on purpose."""


class InvalidParamsError(SncboundsError, ValueError):
    """A model parameter violates its basic constraints (e.g. a rate <= 0)."""


class UnstableScenarioError(SncboundsError, ValueError):
    """Utilization at or above 1: steady-state delay does not exist."""


class TrivialScenarioError(SncboundsError, ValueError):
    """Peak rate <= per-flow capacity: the queue never builds, delay is zero."""


class GpsInfeasibleError(SncboundsError, ValueError):
    """The GPS-allocated capacity cannot carry the through aggregate."""


class DegenerateSourceError(SncboundsError, ValueError):
    """The source has no usable eigenstructure (e.g. a single-state chain)."""


class EigenvectorError(SncboundsError, RuntimeError):
    """No positive eigenvector within tolerance, or a stationary probability underflowed to 0.0."""


class NoFeasibleSplitError(SncboundsError, ValueError):
    """No capacity split satisfies both per-class stability conditions."""


class ArrivalGenerationError(SncboundsError, RuntimeError):
    """Arrival generation fell short of the packets a replication needs."""

"""Exception types shared across the toolkit."""


class BlinkfitError(ValueError):
    """Base class for all blinkfit-specific errors; a ValueError, as every library refusal is."""


class NoSeparationError(BlinkfitError):
    """Count histogram is unimodal; no on/off threshold can be placed."""


class EmptyHistogramError(BlinkfitError):
    """State sequence contains no interior (uncensored) dwell."""


class InsufficientDataError(BlinkfitError):
    """Too few data points for the requested operation."""


class DivergenceError(BlinkfitError):
    """Iterative solver produced non-finite parameters or a singular system."""


class RankDeficientError(BlinkfitError):
    """Normal equations are singular and no regularization was requested."""


class DegenerateClusterError(BlinkfitError):
    """Cluster has equal median/max occurrence counts; decay rate undefined."""

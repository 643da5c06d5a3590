"""Exceptions and warnings shared across the package, and its numeric-parameter checks."""

import math
import numbers


class SteinlabError(Exception):
    """Base class for package-specific errors."""


class NonFiniteScoreError(SteinlabError):
    """A score (log-density gradient) evaluation produced NaN or infinity."""

    def __init__(self, message, term_index=None, point_index=None):
        super().__init__(message)
        self.term_index = term_index
        self.point_index = point_index


class DivergenceError(SteinlabError):
    """An iterative sampler or particle update produced a non-finite state."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class NumericalConsistencyError(SteinlabError):
    """A computed quantity violated a sign bound beyond float tolerance."""


class ConfigError(SteinlabError):
    """A config file or CSV input could not be parsed or validated."""


class DegenerateBandwidthWarning(UserWarning):
    """The median pairwise distance is zero; the bandwidth was floored."""


def check_int(name, value, minimum=None) -> int:
    """``int(value)`` for an integer (not a ``bool``) >= ``minimum``; else a ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} = {value!r} is not an integer")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} = {value!r} is less than {minimum}")
    return int(value)


def check_real(name, value, positive=False):
    """``value`` if a finite real (not a ``bool``), positive if asked; else ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} = {value!r} is not a number")
    if not math.isfinite(value):
        raise ValueError(f"{name} = {value!r} is not finite")
    if positive and not value > 0:
        raise ValueError(f"{name} = {value!r} is not positive")
    return value

"""Typed error signals shared across the package, and the config checks
(unknown and missing keys, integral values, numbers, strings) that every
config section shares."""

import numbers


def check_keys(d, known, section: str, required=()) -> None:
    """Reject a config section that is not a dict, names a key outside
    ``required`` and ``known`` (the optional keys), or lacks a required key."""
    if not isinstance(d, dict):
        raise ValueError(f"{section} must be a mapping, got {type(d).__name__}")
    known = [*required, *known]
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {section}; known: {', '.join(known)}")
    missing = [key for key in required if key not in d]
    if missing:
        raise ValueError(f"{section} needs the key {missing[0]!r}")


def integer(name: str, value) -> int:
    """``value`` as an int: an integer or an integral float, never a bool."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                       or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def number(name: str, value) -> float:
    """``value`` as a float: any real number, never a bool, a string or None."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def string(name: str, value) -> str:
    """``value`` itself, which must be a string."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


class KernelDomainError(ValueError):
    """Kernel queried outside its domain (e.g. singular kernel at zero range)."""


class UnsupportedQueryError(ValueError):
    """Quantity undefined for the given kernel/domain combination."""


class DomainMismatchError(ValueError):
    """Operation applied to a state living on the wrong domain or dimension."""


class InsufficientDataError(ValueError):
    """Series too short (or window empty) for the requested computation."""


class CSVFormatError(ValueError):
    """A trajectory CSV whose rows the reader cannot take as columns."""


class RateFitDataError(ValueError):
    """Rate fit fed nonpositive values or a window below t = 1."""


class CollisionError(RuntimeError):
    """A pair reached (or numerically passed) zero separation under a singular kernel."""

    def __init__(self, pair, t, distance, message=None):
        self.pair = tuple(int(k) for k in pair)
        self.t = float(t)
        self.distance = float(distance)
        super().__init__(
            message
            or f"pair {self.pair} reached separation {self.distance:.3e} at t={self.t:.6g}"
        )


class StiffnessError(RuntimeError):
    """Adaptive time step underflowed while resolving a close pair."""

    def __init__(self, pair, t, distance, dt):
        self.pair = tuple(int(k) for k in pair)
        self.t = float(t)
        self.distance = float(distance)
        self.dt = float(dt)
        super().__init__(
            f"dt underflow ({self.dt:.3e}) at t={self.t:.6g}; "
            f"offending pair {self.pair} at separation {self.distance:.3e}"
        )

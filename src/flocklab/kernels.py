"""Radial communication kernels and their range/integrability queries.

Five closed-form families are supported, covering bounded kernels that only
decay, kernels with a power singularity at zero range, compactly supported
local kernels, annular kernels that vanish near zero range, and bounded
kernels that are constant near zero range.  Each family exposes pointwise
evaluation, a monotone fat-tail minorant (when one exists), a singularity
classification and the radius of its support.  Whether the tail is fat
(infinite range integral) is decided in closed form, by the exponent, not by
integrating.  ``_is_singular`` is the one test of whether a kernel blows up
at contact.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import KernelDomainError, UnsupportedQueryError, check_keys, number

__all__ = [
    "KernelKind",
    "SingularityClass",
    "KernelSpec",
    "evaluate",
    "tail_minorant",
    "has_fat_tail",
    "classify",
    "support_radius",
]


class KernelKind(str, Enum):
    CLASSICAL_CS = "classical_cs"
    SINGULAR_POWER = "singular_power"
    LOCAL_MOLLIFIED = "local_mollified"
    ANNULAR = "annular"
    CONSTANT_NEAR_ZERO = "constant_near_zero"


class SingularityClass(str, Enum):
    SMOOTH = "smooth"
    INTEGRABLE_SINGULAR = "integrable_singular"
    STRONG_SINGULAR = "strong_singular"


@dataclass(frozen=True)
class KernelSpec:
    """Parameters of one radial kernel.

    lam is the strength constant, beta the decay/singularity exponent, r0
    the range scale, and moll_width the ramp width of the local family.
    """

    kind: KernelKind
    lam: float = 1.0
    beta: float = 0.0
    r0: float = 1.0
    moll_width: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", KernelKind(self.kind))
        if not 0 < self.lam < math.inf:  # each check fails on nan
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if not 0 <= self.beta < math.inf:
            raise ValueError(f"beta must be nonnegative and finite, got {self.beta}")
        if not 0 < self.r0 < math.inf:
            raise ValueError(f"r0 must be positive and finite, got {self.r0}")
        if self.kind is KernelKind.LOCAL_MOLLIFIED:
            if self.moll_width is None:
                object.__setattr__(self, "moll_width", 0.1 * self.r0)
            if not 0 <= self.moll_width <= self.r0:
                raise ValueError(
                    f"moll_width must lie in [0, r0], got {self.moll_width}"
                )
        elif self.moll_width is not None:
            raise ValueError("moll_width only applies to the local mollified family")

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind.value,
            "lambda": self.lam,
            "beta": self.beta,
            "r0": self.r0,
        }
        if self.moll_width is not None:
            d["moll_width"] = self.moll_width
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "KernelSpec":
        # a "Lambda" key in older configs is ignored: no result ever read it
        check_keys(d, ("lambda", "beta", "r0", "moll_width", "Lambda"), "kernel",
                   required=("kind",))
        return cls(
            kind=KernelKind(d["kind"]),
            lam=number("lambda", d.get("lambda", 1.0)),
            beta=number("beta", d.get("beta", 0.0)),
            r0=number("r0", d.get("r0", 1.0)),
            moll_width=(None if d.get("moll_width") is None
                        else number("moll_width", d["moll_width"])),
        )


def _smoothstep(u):
    """C1 ramp: 0 below 0, 3u^2-2u^3 on [0,1], 1 above.  u, a temporary,
    is clamped in place, which is faster than ``np.clip`` and gives its bits:
    a -0.0 the clamp keeps gives +0.0 as u * u."""
    u = np.asarray(u)
    np.maximum(u, 0.0, out=u)
    np.minimum(u, 1.0, out=u)
    return u * u * (3.0 - 2.0 * u)


def classify(spec: KernelSpec) -> SingularityClass:
    """Behavior at zero range: only the singular power family can blow up."""
    if spec.kind is KernelKind.SINGULAR_POWER and spec.beta > 0:
        if spec.beta >= 1.0:
            return SingularityClass.STRONG_SINGULAR
        return SingularityClass.INTEGRABLE_SINGULAR
    return SingularityClass.SMOOTH


def _is_singular(spec: KernelSpec) -> bool:
    """True when the kernel blows up at contact (any class but SMOOTH)."""
    return classify(spec) is not SingularityClass.SMOOTH


def support_radius(spec: KernelSpec) -> float:
    """Range at and beyond which the kernel is exactly 0: r0 for the local
    mollified family, inf for every other family."""
    return spec.r0 if spec.kind is KernelKind.LOCAL_MOLLIFIED else math.inf


def evaluate(spec: KernelSpec, r):
    """Evaluate the kernel at range r (scalar or array), always >= 0.

    r = 0 is allowed only for kernels bounded at zero range; negative r is
    always rejected.
    """
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0):
        raise KernelDomainError("kernel range must be nonnegative")
    if _is_singular(spec) and np.any(arr == 0.0):
        raise KernelDomainError("singular kernel evaluated at zero separation")
    out = _evaluate_raw(spec, arr)
    return float(out) if np.isscalar(r) or arr.ndim == 0 else out


def _evaluate_raw(spec: KernelSpec, arr: np.ndarray) -> np.ndarray:
    """Family formulas; assumes arr >= 0.

    Under a singular kernel the caller must exclude zero distances before the
    call (``evaluate``'s KernelDomainError, the stepper's contact guard, the
    record's CollisionError): a zero gives inf with a divide-by-zero warning.
    An inf distance, as on the diagonal of a pair block, gives 0.
    """
    k, lam, beta, r0 = spec.kind, spec.lam, spec.beta, spec.r0
    if k is KernelKind.CLASSICAL_CS:
        return lam * (1.0 + arr * arr) ** (-beta / 2.0)
    if k is KernelKind.SINGULAR_POWER:
        if beta == 0.0:
            return np.full_like(arr, lam)
        return lam * arr ** (-beta)
    if k is KernelKind.LOCAL_MOLLIFIED:
        eps = spec.moll_width
        if eps == 0.0:
            return np.where(arr < r0, lam, 0.0)
        return lam * _smoothstep((r0 - arr) / eps)
    if k is KernelKind.ANNULAR:
        band = arr >= r0
        return np.where(band, lam * (1.0 + np.maximum(arr - r0, 0.0)) ** (-beta), 0.0)
    if k is KernelKind.CONSTANT_NEAR_ZERO:
        tail = np.maximum(arr - r0, 0.0)
        return lam * (1.0 + tail * tail) ** (-beta / 2.0)
    raise UnsupportedQueryError(f"unknown kernel kind {k}")


def has_fat_tail(spec: KernelSpec) -> bool:
    """True when the kernel admits a non-increasing minorant with divergent tail mass."""
    if spec.kind is KernelKind.LOCAL_MOLLIFIED:
        return False
    return spec.beta <= 1.0


def tail_minorant(spec: KernelSpec, r):
    """Monotone bounded minorant of the kernel tail, extended constantly left of r0.

    Defined only for kernels whose tail mass diverges (beta <= 1 for the
    non-compact families); matches the kernel itself wherever the kernel is
    already non-increasing.
    """
    if not has_fat_tail(spec):
        raise UnsupportedQueryError(
            f"{spec.kind.value} with beta={spec.beta} has no fat tail"
        )
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0):
        raise KernelDomainError("kernel range must be nonnegative")
    k, lam, beta, r0 = spec.kind, spec.lam, spec.beta, spec.r0
    if k in (KernelKind.CLASSICAL_CS, KernelKind.CONSTANT_NEAR_ZERO):
        out = _evaluate_raw(spec, arr)  # already non-increasing and bounded
    elif k is KernelKind.ANNULAR:
        out = lam * (1.0 + np.maximum(arr - r0, 0.0)) ** (-beta)
    elif k is KernelKind.SINGULAR_POWER:
        out = lam * np.maximum(arr, r0) ** (-beta)
    else:  # pragma: no cover - excluded by has_fat_tail
        raise UnsupportedQueryError(f"unknown kernel kind {k}")
    return float(out) if np.isscalar(r) or arr.ndim == 0 else out

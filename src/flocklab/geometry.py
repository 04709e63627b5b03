"""Ambient domains (Euclidean space, unit-speed circle) and auxiliary profiles.

The circle has circumference 2*pi and positions are kept on the chart
[0, 2*pi).  Displacements use the minimal image with the seam convention
that a separation of exactly pi maps to +pi.  The image is exactly
antisymmetric off the seam, so pair distances are exactly symmetric.
``displacement`` is the only minimal-image code in the package.  Every
pair magnitude of the stepper and of the diagnostics, |x_i - x_j| and
|v_i - v_j| alike, is built by ``pair_square_sums`` one component at a
time, so no (N, N, d) array is formed; ``neighbour_pairs`` builds the same
distances on the pairs within a radius only.  The auxiliary cutoff and weight
profiles (chi, psi) are the piecewise-linear shapes used by the corrector
functionals.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatchError, check_keys, integer

__all__ = [
    "Domain",
    "euclidean",
    "circle",
    "TWO_PI",
    "VELOCITY_SPACE",
    "displacement",
    "pair_square_sums",
    "pair_distances",
    "neighbour_pairs",
    "nearest_pair",
    "chi",
    "psi_euclidean",
    "psi_periodic",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Domain:
    """Either d-dimensional Euclidean space or the circle of circumference 2*pi."""

    kind: str
    dim: int = 1

    def __post_init__(self):
        if self.kind not in ("euclidean", "circle"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "circle" and self.dim != 1:
            raise ValueError("the circle domain is one dimensional")
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")

    @property
    def periodic(self) -> bool:
        return self.kind == "circle"

    def wrap(self, x: np.ndarray) -> np.ndarray:
        """Map positions back onto the chart (identity on Euclidean domains)."""
        if self.periodic:
            return np.mod(x, TWO_PI)
        return x

    def to_dict(self) -> dict:
        return {"kind": self.kind, "dim": self.dim}

    @classmethod
    def from_dict(cls, d: dict) -> "Domain":
        check_keys(d, ("dim",), "domain", required=("kind",))
        return cls(kind=d["kind"], dim=integer("dim", d.get("dim", 1)))


def euclidean(dim: int) -> Domain:
    return Domain("euclidean", dim)


def circle() -> Domain:
    return Domain("circle", 1)


def displacement(domain: Domain, x_i, x_j):
    """Displacement x_i - x_j; on the circle the minimal image in (-pi, pi].

    Accepts scalars/vectors or stacked arrays; broadcasting follows numpy.
    The minimal image is exactly antisymmetric: swapping x_i and x_j flips
    the sign bit for bit, except at the seam, where both orders give +pi.
    """
    diff = np.asarray(x_i, dtype=float) - np.asarray(x_j, dtype=float)
    if not domain.periodic:
        return diff
    # fmod is exact and odd, and each shift by 2*pi is exact (Sterbenz); the
    # strict and the inclusive bound put the seam at +pi.  diff is a fresh
    # array, so the image is built in place.
    wrapped = np.atleast_1d(diff)
    np.fmod(wrapped, TWO_PI, out=wrapped)
    np.subtract(wrapped, TWO_PI, out=wrapped, where=wrapped > math.pi)
    np.add(wrapped, TWO_PI, out=wrapped, where=wrapped <= -math.pi)
    return float(wrapped[0]) if np.ndim(diff) == 0 else wrapped


# velocities differ plainly on every domain; displacement reads only ``periodic``
VELOCITY_SPACE = Domain("euclidean")


def pair_square_sums(domain: Domain, a, pairs=None) -> np.ndarray:
    """(N, N) sums over components of (a_i - a_j)^2 for the rows of the (N, d) array a.

    Given ``pairs``, a tuple (i, j) of index arrays that broadcast together,
    the sums of those pairs only, shaped as the broadcast (flat for a pair
    list, a block for rows i[:, None] against columns j[None, :]), each
    equal to its (N, N) entry bit for bit.
    Differences come from ``displacement`` on ``domain`` (``VELOCITY_SPACE``
    for velocities), added one component at a time as ``np.linalg.norm`` adds them.
    """
    sums = None
    for col in np.asarray(a, dtype=float).T:
        if pairs is None:
            sq = displacement(domain, col[:, None], col[None, :])
        else:
            sq = displacement(domain, col[pairs[0]], col[pairs[1]])
        sq *= sq
        sums = sq if sums is None else np.add(sums, sq, out=sums)
    return sums


def pair_distances(domain: Domain, x) -> np.ndarray:
    """(N, N) distances |x_i - x_j| between the rows of the (N, d) positions x."""
    dist = pair_square_sums(domain, x)
    return np.sqrt(dist, out=dist)


def neighbour_pairs(domain: Domain, x, radius: float):
    """Every ordered pair i != j with |x_i - x_j| < radius, as flat arrays (i, j, dist).

    The distances equal those of ``pair_distances`` bit for bit.  Candidates
    come from ``np.searchsorted`` windows on the positions sorted along
    axis 0: each agent pairs with those after it up to +radius.  On the
    circle the sort key is the wrapped position and the sorted keys repeat
    shifted by 2*pi, so windows cross the seam; the positions themselves
    need not be wrapped.  The windows are widened past the keys' round-off,
    the candidates at or beyond the radius are dropped once their distances
    are built, and each pair found is listed in both orders.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    key = domain.wrap(x[:, 0])
    reach = radius + 1e-12 * (1.0 + float(np.max(np.abs(x[:, 0]), initial=0.0)))
    if domain.periodic and 2.0 * reach >= math.pi:
        # windows over half the circle would list most pairs anyway, and past
        # pi they would find a pair both ways round: every pair is a candidate
        a, b = np.triu_indices(n, 1)
    else:
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        if domain.periodic:
            sorted_key = np.concatenate((sorted_key, sorted_key + TWO_PI))
            order = np.concatenate((order, order))
        # the window of the agent at sorted position s is [s + 1, hi)
        lo = np.arange(1, n + 1)
        counts = np.searchsorted(sorted_key, sorted_key[:n] + reach, side="right") - lo
        a = np.repeat(order[:n], counts)
        start = np.cumsum(counts) - counts
        b = order[np.arange(a.size) + np.repeat(lo - start, counts)]
    dist = pair_square_sums(domain, x, (a, b))
    np.sqrt(dist, out=dist)
    near = np.flatnonzero(dist < radius)
    a, b, dist = a[near], b[near], dist[near]
    return np.concatenate((a, b)), np.concatenate((b, a)), np.concatenate((dist, dist))


def nearest_pair(dist: np.ndarray):
    """Smallest off-diagonal entry of a square distance array and its pair (i, j).

    Overwrites the diagonal of ``dist`` with inf.  Ties go to the first pair
    in row-major order; a single agent gives (inf, (0, 0)).
    """
    np.fill_diagonal(dist, math.inf)
    i, j = divmod(int(np.argmin(dist)), dist.shape[0])
    return float(dist[i, j]), (i, j)


def chi(r, r0: float):
    """Range cutoff: 1 below r0, linear down to 0 at 2*r0, 0 beyond."""
    if r0 <= 0:
        raise DomainMismatchError("r0 must be positive")
    arr = np.asarray(r, dtype=float)
    out = np.clip(2.0 - arr / r0, 0.0, 1.0)
    return float(out) if np.ndim(r) == 0 else out


def psi_euclidean(x, r0: float):
    """Nondecreasing weight: 0 below -r0, x + r0 on [-r0, r0], 2*r0 above."""
    if r0 <= 0:
        raise DomainMismatchError("r0 must be positive")
    arr = np.asarray(x, dtype=float)
    out = np.clip(arr + r0, 0.0, 2.0 * r0)
    return float(out) if np.ndim(x) == 0 else out


def psi_periodic(x, r0: float):
    """2*pi-periodic weight: slope -1 on [-r0, r0] (zero at r0), rising with
    slope r0/(pi - r0) across the far arc back to 2*r0 at 2*pi - r0."""
    if not 0 < r0 < math.pi:
        raise DomainMismatchError("need 0 < r0 < pi on the circle")
    arr = np.asarray(x, dtype=float)
    # reduce to one period starting at -r0: y in [-r0, 2*pi - r0)
    y = np.mod(arr + r0, TWO_PI) - r0
    near = y <= r0
    out = np.where(near, r0 - y, (y - r0) * (r0 / (math.pi - r0)))
    return float(out) if np.ndim(x) == 0 else out

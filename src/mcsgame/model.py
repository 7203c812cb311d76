"""Market model for a sensing platform buying resource from mobile users.

A scenario holds one platform (the leader) and N mobile users (the
followers).  Each user n owns ``capacity`` resource units, earns
``own_value`` per unit of its own demand it serves, pays ``unit_cost``
per unit spent either way, and faces random demand drawn from a
``DemandDistribution``.  The platform values an allocation profile x
through a diminishing-returns index and pays the posted prices.

All arithmetic is 64-bit floating point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = [
    "DemandDistribution",
    "UniformDemand",
    "LinearDemand",
    "MuProfile",
    "Scenario",
    "sp_payoff",
    "mu_own_profit",
    "mu_payoff",
]


def _as_vector(v) -> np.ndarray:
    """Coerce an array-like to a 1-D float64 array."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# demand distributions


@dataclass(frozen=True)
class DemandDistribution:
    """Single-user demand law on a bounded support [lo, hi] with a power tail.

    P(demand > z) = t**k on [lo, hi], where t = (hi - z) / (hi - lo) is
    the share of the support above z and k = ``tail_power``.  The density
    k t**(k - 1) / (hi - lo) is non-increasing and positive on [lo, hi),
    which the follower's quantile response and the leader's concavity
    rest on; the formulas below hold for k in {1, 2}, the two laws the
    subclasses fix together with ``kind``.  ``quantile`` uses the inf
    convention, so quantile(0.0) is lo and quantile(1.0) is hi.

    The width and the constants of k are computed once per instance:
    the scalar response and payoff call these methods once per user, and
    reading them from the instance, not deriving them from k on each
    call, keeps each call within tens of nanoseconds of hand-written
    per-law code.
    """

    lo: float
    hi: float

    kind: ClassVar[str]
    tail_power: ClassVar[float]

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("support bounds must be finite")
        if not 0.0 <= self.lo < self.hi:
            raise ValueError(f"need 0 <= lo < hi, got [{self.lo}, {self.hi}]")
        k = self.tail_power
        w = self.hi - self.lo
        if w * w < sys.float_info.min:
            # the density slope divides by the squared width
            raise ValueError(f"support width {w} is below about 1.5e-154")
        put = object.__setattr__  # the instance is frozen
        put(self, "_width", w)
        put(self, "_k", k)
        put(self, "_root", 1.0 / k)
        put(self, "_k_less_1", k - 1.0)
        put(self, "_top", (2.0 - k) / w)
        put(self, "_slope", k * (1.0 - k) / (w * w))

    def pdf(self, z: float) -> float:
        """k t**(k - 1) / (hi - lo) on [lo, hi], 0 outside.

        Affine in z for k in {1, 2}: the density at hi, (2 - k) / (hi -
        lo), minus the density's constant slope k (1 - k) / (hi - lo)**2
        times (hi - z).
        """
        if self.lo <= z <= self.hi:
            return self._top - self._slope * (self.hi - z)
        return 0.0

    def cdf(self, z: float) -> float:
        if z <= self.lo:
            return 0.0
        if z >= self.hi:
            return 1.0
        return 1.0 - ((self.hi - z) / self._width) ** self._k

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile level must lie in [0, 1], got {q}")
        z = self.hi - self._width * (1.0 - q) ** self._root
        # hi - (hi - lo) can round below lo when lo is far below hi
        return z if z > self.lo else self.lo

    def expected_min(self, r: float) -> float:
        """E[min(demand, r)] in closed form.

        The integral of the tail over [0, r]: r below the support, else
        lo + (hi - lo) / (k + 1) * (1 - t**(k + 1)) with t taken at
        min(r, hi).  Since 1 - t**(k + 1) = (1 - t)(1 + t + ... + t**k),
        and 1 + t + (k - 1) t**2 is that sum for k in {1, 2}, it is
        evaluated as lo + (r - lo) (1 + t + (k - 1) t**2) / (k + 1),
        which loses no digits for r just above lo.
        """
        lo = self.lo
        if r <= lo:
            return r
        if r > self.hi:
            r = self.hi
        t = (self.hi - r) / self._width
        return lo + (r - lo) * (1.0 + t + self._k_less_1 * t * t) / (self._k + 1.0)


@dataclass(frozen=True)
class UniformDemand(DemandDistribution):
    """Uniform demand on [lo, hi]: density 1 / (hi - lo), tail power 1."""

    kind: ClassVar[str] = "uniform"
    tail_power: ClassVar[float] = 1.0


@dataclass(frozen=True)
class LinearDemand(DemandDistribution):
    """Linearly decaying demand density on [lo, hi], tail power 2.

    f(z) = 2 (hi - z) / (hi - lo)^2, so small demands are more likely.
    The density vanishes exactly at hi.
    """

    kind: ClassVar[str] = "linear"
    tail_power: ClassVar[float] = 2.0


# ---------------------------------------------------------------------------
# participants


@dataclass(frozen=True)
class MuProfile:
    """One mobile user: capacity, unit economics and demand law.

    own_value is the revenue per unit of own demand served; unit_cost is
    paid per unit of resource spent on either use.  Selling is only ever
    interesting when own_value exceeds unit_cost, so that is enforced.

    Three constants of the user are computed once per instance, the way
    DemandDistribution keeps its own: the margin own_value - unit_cost,
    the price threshold below which nothing is sold (see
    follower.price_threshold) and the own-use profit of keeping the
    whole capacity, mu_own_profit(mu, capacity).  The scalar payoff and
    response read them, and Scenario gathers them into its columns.
    """

    capacity: float
    own_value: float
    unit_cost: float
    demand: DemandDistribution

    def __post_init__(self):
        if not (math.isfinite(self.capacity) and self.capacity > 0.0):
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        if not 0.0 <= self.unit_cost < self.own_value:
            raise ValueError(
                f"need 0 <= unit_cost < own_value, got cost={self.unit_cost} value={self.own_value}"
            )
        if not math.isfinite(self.own_value):
            raise ValueError("own_value must be finite")
        margin = self.own_value - self.unit_cost
        tail = 1.0 - self.demand.cdf(self.capacity)
        put = object.__setattr__  # the instance is frozen
        put(self, "_margin", margin)
        put(self, "_threshold", self.unit_cost + margin * tail)
        put(self, "_full_profit", mu_own_profit(self, self.capacity))


@dataclass(frozen=True)
class Scenario:
    """A pricing game instance: platform weight and users.

    The users' numbers are also the COLUMNS: read-only, contiguous
    float64 arrays, one entry per user, built once here from each
    MuProfile's fields and constants for the vectorized passes.
    """

    utility_scale: float
    mus: tuple[MuProfile, ...]

    COLUMNS: ClassVar[tuple[str, ...]] = ("capacity", "own_value", "unit_cost", "demand_lo",
                                          "demand_hi", "tail_power", "margin", "price_threshold",
                                          "full_profit")

    def __post_init__(self):
        if not (math.isfinite(self.utility_scale) and self.utility_scale > 0.0):
            raise ValueError("utility_scale must be positive")
        if len(self.mus) == 0:
            raise ValueError("scenario needs at least one mobile user")
        object.__setattr__(self, "mus", tuple(self.mus))
        table = np.array([(mu.capacity, mu.own_value, mu.unit_cost, mu.demand.lo, mu.demand.hi,
                           mu.demand.tail_power, mu._margin, mu._threshold, mu._full_profit)
                          for mu in self.mus], dtype=float).T.copy()
        table.flags.writeable = False
        vars(self).update(zip(self.COLUMNS, table))  # past the frozen __setattr__

    @property
    def n(self) -> int:
        return len(self.mus)


# ---------------------------------------------------------------------------
# platform side


def sp_payoff(x, p, utility_scale: float) -> float:
    """Platform net payoff: gross utility minus the total payment p.x.

    The gross utility is utility_scale * ln(b), where the aggregate
    contribution b = 1 + sum_n ln(1 + x_n) is a diminishing-returns index
    of the allocations; it is 1, and the utility 0, when nothing is
    bought.
    """
    xa = _as_vector(x)
    pa = _as_vector(p)
    if xa.shape != pa.shape:
        raise ValueError(f"length mismatch: x has {xa.size} entries, p has {pa.size}")
    if (xa < 0.0).any() or not np.isfinite(xa).all():
        raise ValueError("allocations must be finite and non-negative")
    if not utility_scale > 0.0:
        raise ValueError("utility_scale must be positive")
    return _sp_payoff(xa, pa, utility_scale)


# The formula cores below take values that sp_payoff and mu_payoff (or
# the solver and the rounds dynamics.env_step plays) have checked: x
# finite and non-negative (at most the capacity for a user), p of the
# same length or non-negative, utility_scale positive.


def _aggregate(x: np.ndarray) -> float:
    """The aggregate contribution b = 1 + sum_n ln(1 + x_n)."""
    return 1.0 + float(np.log1p(x).sum())


def _sp_payoff(x: np.ndarray, p: np.ndarray, utility_scale: float) -> float:
    return utility_scale * math.log(_aggregate(x)) - float(p.dot(x))


def _mu_payoffs(scenario: Scenario, x: np.ndarray, price: np.ndarray) -> np.ndarray:
    """mu_payoff per entry of (N,) or (D, N) sales and prices, bit for bit."""
    lo, hi, k = scenario.demand_lo, scenario.demand_hi, scenario.tail_power
    r = scenario.capacity - x
    # expected_min's r, clamped into [lo, hi] so the branch np.where discards stays finite
    kept = np.minimum(np.maximum(r, lo), hi)
    t = (hi - kept) / (hi - lo)
    served = np.where(r <= lo, r, lo + (kept - lo) * (1.0 + t + (k - 1.0) * t * t) / (k + 1.0))
    return scenario.margin * served - scenario.full_profit - scenario.unit_cost * x + price * x


# ---------------------------------------------------------------------------
# user side


def mu_own_profit(mu: MuProfile, remaining: float) -> float:
    """Expected own-demand profit when ``remaining`` units are kept.

    Equals (own_value - unit_cost) * E[min(demand, remaining)], with the
    expectation in the demand law's closed form.
    """
    if not 0.0 <= remaining <= mu.capacity:
        raise ValueError(
            f"remaining must lie in [0, {mu.capacity}], got {remaining}"
        )
    return mu._margin * mu.demand.expected_min(remaining)


def mu_payoff(mu: MuProfile, x: float, price: float) -> float:
    """User net payoff from selling x units at the given price.

    Measured against the keep-everything baseline, so x = 0 gives 0.
    """
    if not 0.0 <= x <= mu.capacity:
        raise ValueError(f"x must lie in [0, {mu.capacity}], got {x}")
    if price < 0.0:
        raise ValueError(f"price must be non-negative, got {price}")
    return (mu._margin * mu.demand.expected_min(mu.capacity - x) - mu._full_profit
            - mu.unit_cost * x + price * x)

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
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = [
    "DemandDistribution",
    "UniformDemand",
    "LinearDemand",
    "MuProfile",
    "Scenario",
    "PriceProfile",
    "AllocationProfile",
    "aggregate_contribution",
    "sp_utility",
    "sp_payoff",
    "mu_own_profit",
    "mu_payoff",
]


def _as_vector(v) -> np.ndarray:
    """Coerce a profile wrapper or array-like to a 1-D float64 array."""
    arr = np.asarray(getattr(v, "values", v), dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    return arr


def _frozen_vector(v) -> np.ndarray:
    arr = np.array(getattr(v, "values", v), dtype=float, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# demand distributions


@dataclass(frozen=True)
class DemandDistribution:
    """Base class for single-user demand laws on a bounded support [lo, hi].

    Subclasses fix ``kind`` and implement pdf, cdf, quantile, pdf_slope,
    expected_min and sample.  ``quantile`` uses the inf convention, so
    quantile(0.0) is lo and quantile(1.0) is hi.  Only laws with a
    non-increasing, strictly positive density on [lo, hi) are admitted
    by the equilibrium solver; others may still be evaluated.

    The equilibrium solver also needs the tail in the form
    P(demand > z) = ((hi - z) / (hi - lo)) ** tail_power on [lo, hi],
    with tail_power 1 or 2; laws without it leave tail_power None.
    """

    lo: float
    hi: float

    kind: ClassVar[str] = "abstract"
    nonincreasing_density: ClassVar[bool] = False
    tail_power: ClassVar[float | None] = None

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("support bounds must be finite")
        if not 0.0 <= self.lo < self.hi:
            raise ValueError(f"need 0 <= lo < hi, got [{self.lo}, {self.hi}]")

    def pdf(self, z: float) -> float:
        raise NotImplementedError

    def cdf(self, z: float) -> float:
        raise NotImplementedError

    def quantile(self, q: float) -> float:
        raise NotImplementedError

    def pdf_slope(self, z: float) -> float:
        """Derivative of the density inside the support."""
        raise NotImplementedError

    def expected_min(self, r: float) -> float:
        """E[min(demand, r)] in closed form."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size=None):
        raise NotImplementedError

    def admissible(self) -> bool:
        """Whether the law qualifies for equilibrium solving.

        Requires a non-increasing density that stays positive on
        [lo, hi); the value at hi itself may vanish.
        """
        if not self.nonincreasing_density:
            return False
        # density is monotone here, so positivity on [lo, hi) reduces to
        # positivity just left of hi
        probe = self.hi - 1e-9 * (self.hi - self.lo)
        return self.pdf(self.lo) > 0.0 and self.pdf(probe) > 0.0


@dataclass(frozen=True)
class UniformDemand(DemandDistribution):
    """Uniform demand on [lo, hi]."""

    kind: ClassVar[str] = "uniform"
    nonincreasing_density: ClassVar[bool] = True
    tail_power: ClassVar[float] = 1.0

    def pdf(self, z: float) -> float:
        if self.lo <= z <= self.hi:
            return 1.0 / (self.hi - self.lo)
        return 0.0

    def cdf(self, z: float) -> float:
        if z <= self.lo:
            return 0.0
        if z >= self.hi:
            return 1.0
        return (z - self.lo) / (self.hi - self.lo)

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile level must lie in [0, 1], got {q}")
        return self.lo + q * (self.hi - self.lo)

    def pdf_slope(self, z: float) -> float:
        return 0.0

    def expected_min(self, r: float) -> float:
        if r <= self.lo:
            return r
        if r >= self.hi:
            return 0.5 * (self.lo + self.hi)
        w = self.hi - self.lo
        return (r * r - self.lo * self.lo) / (2.0 * w) + r * (self.hi - r) / w

    def sample(self, rng: np.random.Generator, size=None):
        return rng.uniform(self.lo, self.hi, size=size)


@dataclass(frozen=True)
class LinearDemand(DemandDistribution):
    """Linearly decaying demand density on [lo, hi].

    f(z) = 2 (hi - z) / (hi - lo)^2, so small demands are more likely.
    The density vanishes exactly at hi, which the admissibility rule
    allows.
    """

    kind: ClassVar[str] = "linear"
    nonincreasing_density: ClassVar[bool] = True
    tail_power: ClassVar[float] = 2.0

    def pdf(self, z: float) -> float:
        if self.lo <= z <= self.hi:
            w = self.hi - self.lo
            return 2.0 * (self.hi - z) / (w * w)
        return 0.0

    def cdf(self, z: float) -> float:
        if z <= self.lo:
            return 0.0
        if z >= self.hi:
            return 1.0
        t = (self.hi - z) / (self.hi - self.lo)
        return 1.0 - t * t

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile level must lie in [0, 1], got {q}")
        return self.hi - (self.hi - self.lo) * math.sqrt(1.0 - q)

    def pdf_slope(self, z: float) -> float:
        if self.lo <= z <= self.hi:
            w = self.hi - self.lo
            return -2.0 / (w * w)
        return 0.0

    def expected_min(self, r: float) -> float:
        if r <= self.lo:
            return r
        w = self.hi - self.lo
        t = (self.hi - min(r, self.hi)) / w
        return self.lo + (w / 3.0) * (1.0 - t * t * t)

    def sample(self, rng: np.random.Generator, size=None):
        u = rng.uniform(0.0, 1.0, size=size)
        return self.hi - (self.hi - self.lo) * np.sqrt(1.0 - u)


# ---------------------------------------------------------------------------
# participants


@dataclass(frozen=True)
class MuProfile:
    """One mobile user: capacity, unit economics and demand law.

    own_value is the revenue per unit of own demand served; unit_cost is
    paid per unit of resource spent on either use.  Selling is only ever
    interesting when own_value exceeds unit_cost, so that is enforced.
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


@dataclass(frozen=True)
class Scenario:
    """A pricing game instance: platform weight and users."""

    utility_scale: float
    mus: tuple[MuProfile, ...]

    def __post_init__(self):
        if not (math.isfinite(self.utility_scale) and self.utility_scale > 0.0):
            raise ValueError("utility_scale must be positive")
        if len(self.mus) == 0:
            raise ValueError("scenario needs at least one mobile user")
        object.__setattr__(self, "mus", tuple(self.mus))

    @property
    def n(self) -> int:
        return len(self.mus)

    def capacities(self) -> np.ndarray:
        return np.array([mu.capacity for mu in self.mus])

    def own_values(self) -> np.ndarray:
        return np.array([mu.own_value for mu in self.mus])

    def unit_costs(self) -> np.ndarray:
        return np.array([mu.unit_cost for mu in self.mus])


@dataclass(frozen=True)
class PriceProfile:
    """Posted prices, one per user.  Non-negative and finite."""

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_vector(self.values)
        if arr.size == 0:
            raise ValueError("price profile must not be empty")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ValueError("prices must be finite and non-negative")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class AllocationProfile:
    """Resource units sold to the platform, one entry per user."""

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_vector(self.values)
        if arr.size == 0:
            raise ValueError("allocation profile must not be empty")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ValueError("allocations must be finite and non-negative")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size

    def feasible_for(self, scenario: Scenario) -> bool:
        if len(self) != scenario.n:
            return False
        return bool(np.all(self.values <= scenario.capacities() + 1e-12))


# ---------------------------------------------------------------------------
# platform side


def aggregate_contribution(x) -> float:
    """Diminishing-returns index of an allocation profile.

    Returns 1 + sum_n ln(1 + x_n).  The empty contribution maps to 1 so
    the platform utility below is 0 when nothing is bought.
    """
    arr = _as_vector(x)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("allocations must be finite and non-negative")
    return 1.0 + float(np.sum(np.log1p(arr)))


def sp_utility(x, utility_scale: float) -> float:
    """Platform gross utility, utility_scale * ln(aggregate contribution)."""
    if not utility_scale > 0.0:
        raise ValueError("utility_scale must be positive")
    return utility_scale * math.log(aggregate_contribution(x))


def sp_payoff(x, p, utility_scale: float) -> float:
    """Platform net payoff: gross utility minus the total payment p.x."""
    xa = _as_vector(x)
    pa = _as_vector(p)
    if xa.shape != pa.shape:
        raise ValueError(f"length mismatch: x has {xa.size} entries, p has {pa.size}")
    return sp_utility(xa, utility_scale) - float(pa @ xa)


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
    return (mu.own_value - mu.unit_cost) * mu.demand.expected_min(remaining)


def mu_payoff(mu: MuProfile, x: float, price: float) -> float:
    """User net payoff from selling x units at the given price.

    Measured against the keep-everything baseline, so x = 0 gives 0.
    """
    if not 0.0 <= x <= mu.capacity:
        raise ValueError(f"x must lie in [0, {mu.capacity}], got {x}")
    if price < 0.0:
        raise ValueError(f"price must be non-negative, got {price}")
    kept = mu_own_profit(mu, mu.capacity - x)
    full = mu_own_profit(mu, mu.capacity)
    return kept - full - mu.unit_cost * x + price * x

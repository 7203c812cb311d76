"""Best response of a single mobile user to a posted price.

The user's payoff is concave in the amount sold, so the optimum has a
closed quantile form.  Below a threshold price nothing is sold, above
the user's own per-unit value everything is sold, and in between the
user keeps exactly the quantile of demand that the price makes worth
serving.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .model import MuProfile

__all__ = ["Region", "BestResponse", "price_threshold", "best_response", "foc_residual"]


class Region(enum.Enum):
    """Which branch of the piecewise best response applies."""

    BELOW_THRESHOLD = "below_threshold"
    INTERIOR = "interior"
    AT_CAPACITY = "at_capacity"


@dataclass(frozen=True)
class BestResponse:
    """Optimal sale with its first two price sensitivities.

    slope is d(allocation)/d(price) and curvature the second derivative;
    both are 0 outside the interior branch, and +inf and -inf where the
    kept quantile sits on a vanishing density.  On the interior branch the
    slope is 1 / (f(q) (own_value - unit_cost)) with q the kept demand
    quantile, and the curvature is f'(q) / (f(q)^3 (own_value -
    unit_cost)^2), which is non-positive for non-increasing densities.
    """

    allocation: float
    region: Region
    slope: float
    curvature: float


def price_threshold(mu: MuProfile) -> float:
    """Lowest price at which selling anything can beat keeping all.

    Equals unit_cost + (own_value - unit_cost) * P(demand > capacity).
    When demand never reaches capacity this collapses to unit_cost, and
    when demand always exceeds capacity it collapses to own_value.
    """
    tail = 1.0 - mu.demand.cdf(mu.capacity)
    return mu.unit_cost + (mu.own_value - mu.unit_cost) * tail


def best_response(mu: MuProfile, price: float) -> BestResponse:
    """Maximize the user's payoff over allocations in [0, capacity].

    Closed boundary prices belong to the interior branch.  Prices
    strictly above own_value sell the whole capacity.
    """
    if not (math.isfinite(price) and price >= 0.0):
        raise ValueError(f"price must be finite and non-negative, got {price}")
    if price > mu.own_value:
        return BestResponse(mu.capacity, Region.AT_CAPACITY, 0.0, 0.0)
    if price < price_threshold(mu):
        return BestResponse(0.0, Region.BELOW_THRESHOLD, 0.0, 0.0)

    margin = mu.own_value - mu.unit_cost
    ratio = (mu.own_value - price) / margin
    ratio = min(max(ratio, 0.0), 1.0)
    kept = mu.demand.quantile(ratio)
    alloc = min(max(mu.capacity - kept, 0.0), mu.capacity)
    dens = mu.demand.pdf(kept)
    if dens <= 0.0:
        # only reachable at price == unit_cost with capacity past the
        # demand support and a density vanishing at its upper end: the
        # right-hand limit, where the response leaves the lower face
        # with unbounded slope
        return BestResponse(alloc, Region.INTERIOR, math.inf, -math.inf)
    slope = 1.0 / (dens * margin)
    curvature = mu.demand.pdf_slope(kept) / (dens**3 * margin**2)
    return BestResponse(alloc, Region.INTERIOR, slope, curvature)


def foc_residual(mu: MuProfile, x: float, price: float) -> float:
    """Marginal payoff of selling at allocation x, price given.

    (own_value - unit_cost) * (F(capacity - x) - 1) + price - unit_cost.
    Zero at an interior optimum, negative when selling less is better.
    """
    if not 0.0 <= x <= mu.capacity:
        raise ValueError(f"x must lie in [0, {mu.capacity}], got {x}")
    margin = mu.own_value - mu.unit_cost
    return margin * (mu.demand.cdf(mu.capacity - x) - 1.0) + price - mu.unit_cost

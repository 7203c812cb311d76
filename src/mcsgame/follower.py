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
from typing import NamedTuple

from .model import MuProfile

__all__ = ["Region", "BestResponse", "sale", "best_response", "foc_residual"]


class Region(enum.Enum):
    """Which branch of the piecewise best response applies."""

    BELOW_THRESHOLD = "below_threshold"
    INTERIOR = "interior"
    AT_CAPACITY = "at_capacity"


class BestResponse(NamedTuple):
    """Optimal sale with its sensitivity to the price.

    slope is d(allocation)/d(price): 0 outside the interior branch, and
    +inf where the kept quantile sits on a vanishing density or where
    the density times the margin underflows to 0.  On the interior
    branch it is 1 / (f(q) (own_value - unit_cost)) with q the kept
    demand quantile.
    """

    allocation: float
    region: Region
    slope: float


# module constants: reading a member off the Enum class costs about as
# much as the rest of a response's branch test
_AT_CAPACITY = Region.AT_CAPACITY
_BELOW_THRESHOLD = Region.BELOW_THRESHOLD
_INTERIOR = Region.INTERIOR


def sale(mu: MuProfile, price: float) -> tuple[float, Region, float]:
    """(allocation, region, kept demand quantile) of the optimal sale.

    The one formula for the allocation; price must be finite and
    non-negative, which this does not check.  Closed boundary prices
    belong to the interior branch, and prices strictly above own_value
    sell the whole capacity.  Outside the interior the kept quantile is
    what the user keeps, capacity - allocation.
    """
    if price > mu.own_value:
        return mu.capacity, _AT_CAPACITY, 0.0
    if price < mu.price_threshold:
        return 0.0, _BELOW_THRESHOLD, mu.capacity
    ratio = (mu.own_value - price) / mu.margin
    kept = mu.demand.quantile(min(max(ratio, 0.0), 1.0))
    return min(max(mu.capacity - kept, 0.0), mu.capacity), _INTERIOR, kept


def best_response(mu: MuProfile, price: float) -> BestResponse:
    """Maximize the user's payoff over allocations in [0, capacity].

    The sale with its slope in price on the interior branch.
    """
    if not (math.isfinite(price) and price >= 0.0):
        raise ValueError(f"price must be finite and non-negative, got {price}")
    alloc, region, kept = sale(mu, price)
    if region is not _INTERIOR:
        return BestResponse(alloc, region, 0.0)
    denom = mu.demand.pdf(kept) * mu.margin
    if denom <= 0.0:
        # the density vanishes only at price == unit_cost with capacity
        # past the demand support and a density vanishing at its upper
        # end: the right-hand limit, where the response leaves the lower
        # face with unbounded slope.  The product also underflows to 0
        # for margins of about 1e-300 and below.
        return BestResponse(alloc, region, math.inf)
    return BestResponse(alloc, region, 1.0 / denom)


def foc_residual(mu: MuProfile, x: float, price: float) -> float:
    """Marginal payoff of selling at allocation x, price given.

    (own_value - unit_cost) * (F(capacity - x) - 1) + price - unit_cost.
    Zero at an interior optimum, negative when selling less is better.
    """
    if not 0.0 <= x <= mu.capacity:
        raise ValueError(f"x must lie in [0, {mu.capacity}], got {x}")
    return mu.margin * (mu.demand.cdf(mu.capacity - x) - 1.0) + price - mu.unit_cost

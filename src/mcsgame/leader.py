"""Platform-side pricing: payoff derivatives and the exact equilibrium.

Because each user's best response depends only on its own price, the
platform payoff U(p) = utility_scale * ln(b(p)) - p.x*(p) with
b = 1 + sum ln(1 + x*_n) is smooth on the price box
[threshold_n, own_value_n]^N.  It is strictly concave there for uniform
demand; for linear demand only where each price is at most its user's
marginal utility, as at and below the equilibrium prices.

compute_se solves the same problem in allocation space.  The price that
buys x units from user n is the inverse response
p_n(x) = own_value - margin * F(capacity - x), and users interact only
through the index b.  With the platform's marginal utility g =
utility_scale / b held fixed, each user's optimality condition
g / (1 + x) = p_n(x) + x p_n'(x) is a separate monotone equation (a
quadratic for uniform demand, a cubic for linear demand), and g is the
single root of g * b(g) = utility_scale.  The payoff is concave in x
for both laws, as x p_n(x) is convex, so the equilibrium is unique.  The
price-space gradient then certifies the result independently of how it
was found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .follower import Region, best_response
from .model import Scenario, _aggregate, _mu_payoffs, _sp_payoff

__all__ = [
    "SolverConfig",
    "EquilibriumResult",
    "price_box",
    "sp_payoff_gradient",
    "compute_se",
]

_BOX_SLACK = 1e-9
_INNER_BUDGET = 100
_OUTER_BUDGET = 200


@dataclass(frozen=True)
class SolverConfig:
    """Largest KKT residual an equilibrium may carry and still count as solved."""

    tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")


@dataclass(frozen=True)
class EquilibriumResult:
    """Solved leader prices with the induced follower responses.

    prices, allocations and mu_payoffs are read-only float64 arrays, one
    entry per user; regions is the read-only string array of each user's
    follower region (a Region value).
    """

    prices: np.ndarray
    allocations: np.ndarray
    sp_payoff: float
    mu_payoffs: np.ndarray
    regions: np.ndarray
    iterations: int
    grad_residual: float
    converged: bool


def price_box(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Per-user price bounds [threshold_n, own_value_n].

    Prices below the threshold buy nothing and prices above own_value
    overpay for capacity the user would sell anyway, so the optimum
    always lies in this box.  Both are the scenario's read-only columns.
    """
    return scenario.price_threshold, scenario.own_value


def _require_in_box(scenario: Scenario, p: np.ndarray) -> np.ndarray:
    lo, hi = price_box(scenario)
    if p.shape != lo.shape:
        raise ValueError(f"price vector must have {lo.size} entries, got {p.size}")
    if np.any(p < lo - _BOX_SLACK) or np.any(p > hi + _BOX_SLACK):
        raise ValueError("price vector lies outside the [threshold, own_value] box")
    return np.clip(p, lo, hi)


def sp_payoff_gradient(scenario: Scenario, p) -> np.ndarray:
    """Analytic gradient of the platform payoff on the price box."""
    pa = _require_in_box(scenario, np.asarray(p, dtype=float))
    alloc = np.empty(scenario.n)
    slope = np.empty(scenario.n)
    for i, mu in enumerate(scenario.mus):
        alloc[i], _, slope[i] = best_response(mu, float(pa[i]))
    # a product overflowing at the float-range corners is a signed infinity the box clips
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gap = scenario.utility_scale / _aggregate(alloc) / (1.0 + alloc) - pa
        # one product per user: an infinite slope at a vanishing density
        # gives a signed infinity here rather than inf - inf, and a zero
        # gap meets the first-order condition whatever the slope, so it adds 0
        return np.multiply(slope, gap, out=np.zeros_like(gap), where=gap != 0.0) - alloc


class _Market:
    """The leader problem in allocation space, one array entry per user.

    With the demand tail P(D > z) = ((hi - z) / (hi - lo))**k, selling
    x units leaves the tail share s = (x + hi - capacity) / (hi - lo)
    unserved, so the price that buys them is
    p(x) = unit_cost + margin * s**k.  The price box maps onto
    x in [max(capacity - hi, 0), max(capacity - lo, 0)].
    """

    def __init__(self, scenario: Scenario):
        cap, lo, hi = scenario.capacity, scenario.demand_lo, scenario.demand_hi
        self.cost, self.margin, self.power = (scenario.unit_cost, scenario.margin,
                                              scenario.tail_power)
        self.shift = hi - cap
        self.width = hi - lo
        self.x_lo = np.maximum(cap - hi, 0.0)
        self.x_hi = np.maximum(cap - lo, 0.0)

    def _share(self, x: np.ndarray) -> np.ndarray:
        return np.clip((x + self.shift) / self.width, 0.0, 1.0)

    def price(self, x: np.ndarray) -> np.ndarray:
        return self.cost + self.margin * self._share(x) ** self.power

    def allocations(self, g: float) -> tuple[np.ndarray, np.ndarray]:
        """Every user's optimal sale at marginal utility g, with dx/dg.

        Solves (1 + x) C'(x) = g, where C(x) = x p(x) is the cost of
        buying x units, clipped to the allocation range.  For k <= 2 the
        left side is increasing and convex there, so Newton steps from
        the top of the range descend monotonically onto the root.  dx/dg
        is 0 for users held at either end of the range.
        """
        k, m, w = self.power, self.margin, self.width
        x = self.x_hi.copy()
        # a subnormal dphi overflows the quotients; the clip and the mask
        # discard the infinities (compute_se runs this under its errstate)
        for _ in range(_INNER_BUDGET):
            s = self._share(x)
            s_k1 = s ** (k - 1.0)
            marginal = self.cost + m * s_k1 * (s + k * x / w)
            # C''(x); the (k - 1) term is exact for k in {1, 2}
            curvature = (m * k / w) * (2.0 * s_k1 + (k - 1.0) * x / w)
            dphi = marginal + (1.0 + x) * curvature
            nxt = np.clip(x - ((1.0 + x) * marginal - g) / dphi, self.x_lo, self.x_hi)
            done = bool(np.all(np.abs(nxt - x) <= 1e-14 * (1.0 + x)))
            x = nxt
            if done:
                break
        inside = (x > self.x_lo) & (x < self.x_hi)
        return x, np.where(inside, 1.0 / dphi, 0.0)


def _solve(market: _Market, utility_scale: float) -> tuple[np.ndarray, int]:
    """Allocations at the root g of g * b(g) = utility_scale, and the step count.

    g * b(g) increases in g, lies below utility_scale at
    utility_scale / b_max and above it at utility_scale, so Newton steps
    kept inside that shrinking bracket (bisecting when one leaves it)
    find the root.
    """
    g_lo = utility_scale / _aggregate(market.x_hi)
    # one float above utility_scale, so that a Newton step may land on
    # utility_scale itself: the root when nothing is bought
    g_hi = float(np.nextafter(utility_scale, np.inf))
    g = g_lo
    for step in range(1, _OUTER_BUDGET + 1):
        x, dx_dg = market.allocations(g)
        b = _aggregate(x)
        excess = g * b - utility_scale
        if math.isnan(excess):
            # the market's formulas overflowed: no root to find
            break
        if excess <= 0.0:
            g_lo = g
        if excess >= 0.0:
            g_hi = g
        nxt = g - excess / (b + g * float(np.sum(dx_dg / (1.0 + x))))
        if abs(nxt - g) <= 1e-15 * g or g_hi - g_lo <= 1e-15 * g:
            break
        if not g_lo < nxt < g_hi:
            nxt = 0.5 * (g_lo + g_hi)
        g = nxt
    return x, step


def compute_se(scenario: Scenario, config: SolverConfig | None = None) -> EquilibriumResult:
    """Stackelberg equilibrium: exact leader prices plus follower responses.

    allocations are the solver's own: each user's best response to its
    price, found in allocation space.  Users held at the bottom of their
    allocation range are priced at their threshold and those at the top
    at own_value, so a user's region is the face of that range its
    allocation lies on: exactly the bottom is below_threshold, exactly
    the top at_capacity, and anything between interior.  iterations
    counts the outer root steps.  grad_residual is the projected
    residual max |p - clip(p + grad U(p), box)| of sp_payoff_gradient at
    the reported prices, which re-derives every response from the
    follower's formulas, and converged says it is within config.tol.

    Raises FloatingPointError when a price or a payoff of the solution
    is not finite, because the market's numbers left the floating-point
    range; numpy does not warn on the way, as such a value either drops
    out (a clip, a mask, a zero gap) or reaches those checks.
    """
    cfg = config or SolverConfig()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        market = _Market(scenario)
        x, iterations = _solve(market, scenario.utility_scale)
        lo, hi = price_box(scenario)
        at_lo, at_hi = x <= market.x_lo, x >= market.x_hi
        p = np.where(at_lo, lo, np.where(at_hi, hi, np.clip(market.price(x), lo, hi)))
        if not np.isfinite(p).all():
            raise FloatingPointError("the equilibrium prices are not finite")
        grad = sp_payoff_gradient(scenario, p)
        residual = float(np.max(np.abs(p - np.clip(p + grad, lo, hi))))
        payoffs = _mu_payoffs(scenario, x, p)
        payoff = _sp_payoff(x, p, scenario.utility_scale)
        if not (math.isfinite(payoff) and np.isfinite(payoffs).all()):
            raise FloatingPointError("the equilibrium payoffs are not finite")
        regions = np.where(at_lo, Region.BELOW_THRESHOLD.value,
                           np.where(at_hi, Region.AT_CAPACITY.value, Region.INTERIOR.value))
        for arr in (p, x, payoffs, regions):
            arr.flags.writeable = False
        return EquilibriumResult(
            prices=p,
            allocations=x,
            sp_payoff=payoff,
            mu_payoffs=payoffs,
            regions=regions,
            iterations=iterations,
            grad_residual=residual,
            converged=residual <= cfg.tol,
        )

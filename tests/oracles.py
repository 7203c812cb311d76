"""Independent oracles for the test suite.

Everything here is derived from first principles with its own code
path: densities are written out inline, expectations use trapezoid
integration, optimizers are brute-force grids.  None of it calls into
mcsgame, so agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

import numpy as np

GRID = 40001


def dist_pdf(kind: str, lo: float, hi: float, z):
    z = np.asarray(z, dtype=float)
    w = hi - lo
    if kind == "uniform":
        f = np.full_like(z, 1.0 / w)
    elif kind == "linear":
        f = 2.0 * (hi - z) / (w * w)
    else:
        raise ValueError(kind)
    return np.where((z >= lo) & (z <= hi), f, 0.0)


def dist_cdf(kind: str, lo: float, hi: float, z):
    z = np.clip(np.asarray(z, dtype=float), lo, hi)
    w = hi - lo
    if kind == "uniform":
        return (z - lo) / w
    if kind == "linear":
        return 1.0 - ((hi - z) / w) ** 2
    raise ValueError(kind)


def dist_quantile(kind: str, lo: float, hi: float, q):
    q = np.asarray(q, dtype=float)
    w = hi - lo
    if kind == "uniform":
        return lo + q * w
    if kind == "linear":
        return hi - w * np.sqrt(1.0 - q)
    raise ValueError(kind)


def dist_pdf_slope(kind: str, lo: float, hi: float):
    """Derivative of the density on the support (constant for both laws)."""
    if kind == "uniform":
        return 0.0
    if kind == "linear":
        return -2.0 / (hi - lo) ** 2
    raise ValueError(kind)


def expected_min(kind: str, lo: float, hi: float, r):
    """E[min(xi, r)] by cumulative trapezoid over the support.

    Exact for the uniform density (integrand piecewise linear); error
    O(grid^-2) otherwise, far below the tolerances it certifies.
    """
    r = np.asarray(r, dtype=float)
    z = np.linspace(lo, hi, GRID)
    zf = z * dist_pdf(kind, lo, hi, z)
    h = z[1] - z[0]
    cum = np.concatenate([[0.0], np.cumsum((zf[1:] + zf[:-1]) * 0.5 * h)])
    rc = np.clip(r, lo, hi)
    partial = np.interp(rc, z, cum)
    tail = rc * (1.0 - dist_cdf(kind, lo, hi, rc))
    # below the support min(xi, r) = r itself
    return np.where(r < lo, r, partial + tail)


def mu_payoff_oracle(kind, lo, hi, cap, value, cost, x, price):
    """Follower objective evaluated without any package code.

    Own demand is served at margin (value - cost), so the opportunity
    cost of selling is (value - cost) * lost expected service; selling
    earns (price - cost) per unit.
    """
    x = np.asarray(x, dtype=float)
    gain = expected_min(kind, lo, hi, cap - x) - expected_min(kind, lo, hi, cap)
    return (value - cost) * gain + (price - cost) * x


def follower_grid_best(kind, lo, hi, cap, value, cost, price, n_grid=10001):
    """Brute-force maximizer of the follower objective over [0, cap]."""
    x = np.linspace(0.0, cap, n_grid)
    u = mu_payoff_oracle(kind, lo, hi, cap, value, cost, x, price)
    k = int(np.argmax(u))
    return float(x[k]), float(u[k])


def sp_payoff_oracle(lam, x, p):
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    return lam * np.log1p(np.sum(np.log1p(x))) - float(np.dot(p, x))


def leader_grid_best_uniform_n1(value, cost, lo, hi, cap, lam, step=1e-4):
    """Single-follower price optimum by brute force.

    The interior response under a uniform demand is written out by
    hand: the stationarity condition (value-p)/(value-cost) = F(cap-x)
    inverts to x = cap - lo - (hi-lo)(value-p)/(value-cost).
    """
    thr = cost + (value - cost) * (1.0 - dist_cdf("uniform", lo, hi, cap))
    prices = np.arange(thr, value + step / 2.0, step)
    x = cap - (lo + (hi - lo) * (value - prices) / (value - cost))
    x = np.clip(x, 0.0, cap)
    sp = lam * np.log1p(np.log1p(x)) - prices * x
    k = int(np.argmax(sp))
    return float(prices[k]), float(sp[k]), float(x[k])


def leader_ascent(kind, lo, hi, cap, value, cost, lam, p0, tol=1e-8, max_iters=20000):
    """Platform price optimum by projected gradient ascent in price space.

    The reference for the exact solver.  The per-user arrays value and
    cost (cap, lo and hi may be scalars) describe a market under one
    demand law.  Inside the price box [threshold, value] every user is
    on the interior branch x = cap - quantile((value - p) / (value -
    cost)).  Steps are scaled by the diagonal curvature and backtracked
    on an Armijo test; near the optimum, where payoff differences fall
    below float resolution, a damped diagonal-Newton polish backtracks
    on the projected-gradient residual instead.  Returns the prices and
    their residual max |p - clip(p + grad, box)|.
    """
    margin = value - cost
    p_lo = cost + margin * (1.0 - dist_cdf(kind, lo, hi, cap))
    p_hi = np.asarray(value, dtype=float)

    def respond(p):
        kept = dist_quantile(kind, lo, hi, np.clip((value - p) / margin, 0.0, 1.0))
        x = np.clip(cap - kept, 0.0, cap)
        dens = dist_pdf(kind, lo, hi, kept)
        slope = 1.0 / (dens * margin)
        curv = dist_pdf_slope(kind, lo, hi) / (dens**3 * margin**2)
        return x, slope, curv

    def payoff(p):
        return sp_payoff_oracle(lam, respond(p)[0], p)

    def grad_residual_diag(p):
        x, slope, curv = respond(p)
        b = 1.0 + np.sum(np.log1p(x))
        gp, gpp = lam / b, -lam / b**2
        grad = slope * (gp / (1.0 + x) - p) - x
        residual = float(np.max(np.abs(p - np.clip(p + grad, p_lo, p_hi))))
        diag = (gpp - gp) / (1.0 + x) ** 2 * slope**2 - 2.0 * slope + (gp / (1.0 + x) - p) * curv
        return grad, residual, diag

    p = np.clip(np.asarray(p0, dtype=float), p_lo, p_hi)
    value_now = payoff(p)
    grad, residual, diag = grad_residual_diag(p)
    iters = 0
    while residual > tol and iters < max_iters:
        iters += 1
        direction = grad / np.maximum(np.abs(diag), 1e-12)
        step = 1.0
        moved = False
        while step > 1e-18:
            cand = np.clip(p + step * direction, p_lo, p_hi)
            gain = float(grad @ (cand - p))
            if gain <= 0.0:
                break
            cand_value = payoff(cand)
            if cand_value >= value_now + 1e-4 * gain:
                p, value_now, moved = cand, cand_value, True
                break
            step *= 0.5
        if not moved:
            break
        grad, residual, diag = grad_residual_diag(p)
    for _ in range(100):
        if residual <= tol or iters >= max_iters:
            break
        iters += 1
        direction = grad / np.maximum(np.abs(diag), 1e-12)
        damping = 1.0
        while damping > 1e-12:
            cand = np.clip(p + damping * direction, p_lo, p_hi)
            cand_grad, cand_residual, cand_diag = grad_residual_diag(cand)
            if cand_residual < residual:
                p, grad, residual, diag = cand, cand_grad, cand_residual, cand_diag
                break
            damping *= 0.5
        else:
            break
    return p, residual


def discounted_targets_oracle(rewards, bootstrap, gamma):
    """Reward-to-go targets by explicit double loop."""
    d = len(rewards)
    targets = []
    for k in range(d):
        acc = 0.0
        for j in range(k, d):
            acc += gamma ** (j - k) * rewards[j]
        acc += gamma ** (d - k) * bootstrap
        targets.append(acc)
    return np.array(targets)


def random_mu_params(rng, kinds=("uniform", "linear")):
    """Draw one follower's economics the way the experiments do."""
    while True:
        cost, value = rng.uniform(0.0, 1.0, size=2)
        if value > cost + 0.05:
            break
    kind = kinds[int(rng.integers(len(kinds)))]
    return kind, 0.0, 25.0, 20.0, float(value), float(cost)

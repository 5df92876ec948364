"""Bracket-and-bisect reference solvers for the uplink and server-split blocks.

The solver computes both blocks in closed form or by monotone Newton steps.
These bisections search the same float predicates the slow, obvious way and
serve only as test oracles: each iterates down to relative machine precision
and returns the end of its bracket on the feasible side.
"""

from __future__ import annotations

import math

import numpy as np

_LN2 = math.log(2.0)
_MAX_DOUBLINGS = 60
_MAX_BISECT_ITERS = 240
_REL_FLOOR = 1e-15


def bits_carried(t, e, h, bandwidth_hz, noise_power_w):
    """The solver's float rate predicate: bits carried in t seconds on energy e."""
    return t * (bandwidth_hz / _LN2) * np.log1p(h * e / (t * noise_power_w))


def uplink_time_bisection(bits: float, e_budget: float, h: float, p_max: float,
                          bandwidth_hz: float, noise_power_w: float) -> float:
    """Smallest t whose rate predicate holds at energy min(e_budget, p_max*t).

    The peak-power time when its energy fits in the budget; otherwise a
    doubling search for a feasible upper end, then bisection.
    """
    r_full = bandwidth_hz * math.log2(1.0 + h * p_max / noise_power_w)
    t_power = bits / r_full
    if p_max * t_power <= e_budget:
        return t_power

    def holds(t: float) -> bool:
        e = min(e_budget, p_max * t)
        return bool(bits_carried(t, e, h, bandwidth_hz, noise_power_w) >= bits)

    lb = t_power
    ub = max(t_power, bits / (bandwidth_hz * math.log2(
        1.0 + h * min(p_max, e_budget) / noise_power_w)))
    for _ in range(_MAX_DOUBLINGS + 1):
        if holds(ub):
            break
        ub *= 2.0
    else:
        raise ValueError("no bracket satisfies the rate condition")
    for _ in range(_MAX_BISECT_ITERS):
        if ub - lb <= max(ub * _REL_FLOOR, 1e-300):
            break
        mid = 0.5 * (lb + ub)
        if holds(mid):
            ub = mid
        else:
            lb = mid
    return ub


def server_split_bisection(w: np.ndarray, base: np.ndarray, capacity: float,
                           eps: float) -> tuple[float, np.ndarray]:
    """Common completion time T with sum(w/(T - base)) = capacity, and the shares.

    Bisects T between the single-device and the evenly-split bounds and
    returns the upper end with its shares, scaled into the capacity.
    """
    w = np.asarray(w, dtype=float)
    base = np.asarray(base, dtype=float)
    t_min = float(np.max(base + w / capacity))
    t_max = float(np.max(base + w * w.size / capacity))
    if not np.all(t_max - base > 0):
        raise ValueError("empty delay budget at the capacity upper bound")
    for _ in range(_MAX_BISECT_ITERS):
        if t_max - t_min <= min(eps, max(t_max * _REL_FLOOR, 1e-300)):
            break
        t_mid = 0.5 * (t_min + t_max)
        den = t_mid - base
        if np.any(den <= 1e-15 * t_mid) or float(np.sum(w / den)) >= capacity:
            t_min = t_mid
        else:
            t_max = t_mid
    shares = w / (t_max - base)
    total = float(shares.sum())
    if total > capacity:
        shares *= capacity / total
    return t_max, shares

"""Alternating solver for the min-max task-delay allocation problem.

The relaxed problem is convex once the extraction factor and the two compute
rates are substituted by their logarithms, so block-coordinate descent with
exact block solves converges monotonically. One outer iteration runs:

1. extraction block: per device, the exact minimum over the factor in
   [beta_min, 1] of extraction delay + minimal uplink time + remote delay,
   convex in the log of the factor, by bracketed Newton steps on its slope
   with a closed-form curvature, run only where the root is interior: the
   slope is read at 1 on every device, and at the floor only where it is
   positive at 1. The minimal uplink is at peak power, or on a binding
   energy budget the Lambert-W root of the perspective rate equation, by
   monotone Newton; it returns its energy elasticity, which gives the
   slope's and curvature's uplink terms, and an infinite time where no
   uplink serves a factor, the delay's barrier. The block generalizes the
   paper's closed form (:func:`optimal_beta`), which holds the uplink pair
   fixed;
2. rate block: the minimal uplink at the new factor; the energy-capped local
   rate in closed form, nudged down until it leaves the uplink its energy in
   float; then monotone Newton on the delay cap that splits the server
   capacity so every active device finishes at the same time.

Each device's constant products, a*A, (a*A)*kappa, A*I and 1 - p, are
computed once per solve, when the scenario's arrays are built. The closed
forms take the factor's powers beta**k and beta**(1 - p), each computed once
per factor: per slope probe (none at 1, where both are exactly 1), and once
for the steps of the rate block. The slope probes at the ends of the factor
interval compute the slope alone; only the Newton probes compute the
curvature.

The raw-upload baseline is the loop's start point without extraction.

Every inner solve runs to relative machine precision and ends on the
feasible side of its float constraint, so no inner solve has a tolerance;
only the outer loop's ``eps_outer`` and ``max_outer_iters`` are set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence

import numpy as np

from .closed_forms import (_LN2, _bits_carried, _extraction_energy, _powers,
                           _remote_cycles, _Scenario, _t_local, _t_remote)
from .model import (_numbers, Allocation, DeviceTable, SystemConfig, TerminalDevice,
                    check_number)

__all__ = [
    "FeasibilityCause",
    "FeasibilityError",
    "SolverReport",
    "ConstraintResiduals",
    "optimal_local_rate",
    "transmit_bisection",
    "remote_rate_bisection",
    "optimal_beta",
    "solve",
    "log_domain_residuals",
    "delay_breakdown",
]

_MAX_ITERS = 100  # cap on every Newton loop
_MAX_NUDGES = 64  # cap on the steps onto the feasible side of a float predicate
_ULPS = 4.0 * np.finfo(float).eps  # relative stopping step, and the first nudge


class FeasibilityCause(Enum):
    EXTRACTION_ENERGY_EXCEEDS_BUDGET = "ExtractionEnergyExceedsBudget"
    RATE_CAP_TOO_LOW = "RateCapTooLow"
    INVALID_SCENARIO = "InvalidScenario"


class FeasibilityError(Exception):
    """Raised when a block subproblem has no feasible point."""

    def __init__(self, device_index: int, cause: FeasibilityCause, detail: str = ""):
        self.device_index = device_index
        self.cause = cause
        msg = f"device {device_index}: {cause.value}"
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one solve: allocation, objective trace, and exit data."""

    allocation: Allocation
    objective_trace: List[float]
    iterations: int
    converged: bool


@dataclass(frozen=True)
class ConstraintResiduals:
    """Signed slacks of every constraint family; nonnegative means satisfied.

    Scalar ``capacity`` aggregates the shared server budget; everything else
    is per device. ``beta_floor``/``beta_ceiling`` and ``f_local_cap`` are
    expressed in the log domain to match the convexified problem.
    """

    delay_cap: np.ndarray
    energy: np.ndarray
    rate: np.ndarray
    f_local_cap: np.ndarray
    capacity: float
    e_nonneg: np.ndarray
    e_power_cap: np.ndarray
    beta_floor: np.ndarray
    beta_ceiling: np.ndarray


# --- block solves -----------------------------------------------------------


def _nudge(x: np.ndarray, short, up: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """x scaled lane by lane up (or down) by 1 + 4 ulps, then 1 + 8 ulps, ...
    while ``short(x)`` flags it, and the lanes still flagged at the last check."""
    step = _ULPS
    for _ in range(_MAX_NUDGES):
        flagged = short(x)
        if not flagged.any():
            break
        x = np.where(flagged, x * (1.0 + step) if up else x / (1.0 + step), x)
        step *= 2.0
    return x, flagged


def _local_rate_block(sc: _Scenario, beta_k, e_transmit, incumbent=0.0) -> np.ndarray:
    """Largest local rate whose extraction leaves e_transmit in float: the
    energy-capped closed form, nudged down until E - extraction energy >=
    e_transmit, as the refine block reads it. A lane with nothing left for
    extraction (rate 0, or no nudge suffices) keeps the incumbent (default 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        unclamped = np.sqrt(beta_k * np.maximum(sc.E - e_transmit, 0.0)
                            / sc.extract_coeff)
    f = np.fmin(sc.f_max, unclamped)  # 0/0, where nothing is extracted, leaves the cap
    f, short = _nudge(f, lambda f: sc.E - _extraction_energy(sc, beta_k, f) < e_transmit,
                      up=False)
    return np.where(short | (f == 0), incumbent, f)


def _uplink(sc: _Scenario, bits: np.ndarray,
            e_budget: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest t with t*B*log2(1 + h*e_budget/(t*sigma^2)) >= bits, and its
    energy elasticity w = -d ln t/d ln e_budget, per lane.

    At peak power t = bits/r_full and w = 0, unless that overspends the budget.
    Then, with s = ln(1 + h*e/(t*sigma^2)) and c = bits*sigma^2*ln2/(h*e*B),
    the rate equation reads s = ln(1 + s/c), whose positive root (the W_{-1}
    branch of Lambert's function) exists iff e > 0 and c < 1 and gives
    t = bits*ln2/(B*s) and w = 1/(c + s - 1), so d ln t/d ln bits = 1 + w.
    s - ln(1 + s/c) is convex and positive above the root, so Newton's method
    started from s(t_power) descends to it monotonically; the time is then
    nudged up until the float predicate holds. A lane where no time carries
    the bits gets t = inf and w = 0.
    """
    with np.errstate(divide="ignore"):  # a zero peak-power rate takes the energy-limited path
        t = bits / sc.r_full
    idx = np.flatnonzero(~(sc.p_max * t <= e_budget))
    if idx.size == 0:
        return t, np.zeros(sc.n)
    h, e, b, t_power = sc.h[idx], e_budget[idx], bits[idx], t[idx]
    with np.errstate(divide="ignore", over="ignore"):
        c = b * sc.sigma2 * _LN2 / (h * e * sc.B)
    fits = (e > 0) & (c < 1.0)
    if not np.all(fits):
        t[idx[~fits]] = np.inf
        idx, h, e, b, c, t_power = (v[fits] for v in (idx, h, e, b, c, t_power))
    s = np.log1p(h * e / (t_power * sc.sigma2))
    for _ in range(_MAX_ITERS):
        excess = s - np.log1p(s / c)
        gain = 1.0 - 1.0 / (c + s)
        moving = (excess > 0) & (gain > 0)
        step = excess / np.where(moving, gain, 1.0)
        moving &= step > _ULPS * s
        if not np.any(moving):
            break
        s = np.where(moving, s - step, s)
    t_e, short = _nudge(b * _LN2 / (sc.B * s), lambda t_e: _bits_carried(sc, h, e, t_e) < b)
    t_e[short] = np.inf
    t[idx] = t_e
    w = np.zeros(sc.n)
    # at the root c + s - 1 = (s/2)*coth(s/2) - 1 + s/2 > s/2; where rounding
    # (c within ulps of 1) breaks that bound, w takes the c -> 1 limit 2/s
    w[idx] = np.where(np.isinf(t_e), 0.0, 1.0 / np.maximum(c + s - 1.0, 0.5 * s))
    return t, w


def _transmit_block(sc: _Scenario, beta: np.ndarray, beta_k,
                    f_local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    e_budget = sc.E - _extraction_energy(sc, beta_k, f_local)
    t, _ = _uplink(sc, beta * sc.A, e_budget)
    short = np.isinf(t)
    if np.any(short):
        i = int(np.argmax(short))
        if e_budget[i] <= 0:
            raise FeasibilityError(i, FeasibilityCause.EXTRACTION_ENERGY_EXCEEDS_BUDGET,
                                   "extraction energy exhausts the budget")
        raise FeasibilityError(i, FeasibilityCause.RATE_CAP_TOO_LOW,
                               "required bits exceed the energy-capped capacity")
    # where the budget binds, p_max*t overspends it, and the uplink spends it whole
    return t, np.minimum(sc.p_max * t, e_budget)


def _remote_block(sc: _Scenario, cycles: np.ndarray,
                  start: np.ndarray) -> tuple[float, np.ndarray]:
    """Delay cap and server split that finish every active device together,
    from each device's remote cycles and the start of its remote work (local
    plus uplink time); reads both without writing them."""
    act = sc.active
    if not np.any(act):
        return 0.0, np.zeros(sc.n)
    if np.all(act):
        act = slice(None)  # every device has work: views, not copies
    w = cycles[act]
    top = float(start[act].max())
    gap = np.subtract(top, start[act])
    # Newton on 1/sum(w/(delta + gap)) = 1/F for the offset delta of the common
    # completion time above the latest start, which an abundant capacity cannot
    # round away. The left side is concave and increasing, so the iterates rise
    # monotonically from the single-device bound (exactly, if all gaps are 0).
    # The shares and their derivative terms reuse one buffer, which also holds
    # the shares returned when every device has work, so the block adds at most
    # two arrays to its inputs then.
    f = np.empty_like(w)
    delta = float(np.subtract(np.divide(w, sc.F, out=f), gap, out=f).max())
    for _ in range(_MAX_ITERS):
        total = float(np.divide(w, np.add(gap, delta, out=f), out=f).sum())
        np.divide(np.multiply(f, f, out=f), w, out=f)
        step = total * (total - sc.F) / (sc.F * float(f.sum()))
        if not step > delta * _ULPS:
            break
        delta += step
    f_remote = f if gap.size == sc.n else np.zeros(sc.n)

    def overflows(d):  # finish on the side where the shares fit in the capacity
        f_remote[act] = np.divide(w, np.add(gap, d, out=f), out=f)
        return f_remote.sum() > sc.F

    return top + float(_nudge(np.array(delta), overflows)[0]), f_remote


def _beta_closed_form(sc: _Scenario, a, p, f_local, f_remote, t_transmit,
                      e_transmit) -> np.ndarray:
    # only for devices with task bits, as its single caller ensures; the
    # stationary point reads the semantic constants a and p themselves. A
    # remainder of 0 is an extraction energy below half an ulp of E, which
    # rounding hid from e_transmit = E - e_extract: it reads as that half ulp
    remaining = sc.E - e_transmit
    remaining = np.where(remaining == 0, 0.5 * np.spacing(sc.E), remaining)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta1 = np.maximum(
            sc.beta_min,
            (sc.extract_coeff * f_local**2 / np.maximum(remaining, 1e-300)) ** (1.0 / sc.k),
        )
        cap_bits = _bits_carried(sc, sc.h, e_transmit, t_transmit)
        eta2 = np.minimum(1.0, cap_bits / np.maximum(sc.A, 1e-300))
    # E - e_transmit carries up to half an ulp of E of rounding where the uplink
    # spends E minus the extraction energy, as solve's does, and eta1 carries 1/k
    # of its relative error; the slack covers that twice over
    slack = 1e-12 + np.spacing(sc.E) / (sc.k * np.maximum(remaining, np.spacing(sc.E)))
    empty = (remaining < 0) | (eta1 > eta2 * (1.0 + slack) + 1e-300)
    if np.any(empty):
        raise FeasibilityError(int(np.argmax(empty)), FeasibilityCause.INVALID_SCENARIO,
                               "empty extraction-factor interval")
    eta1 = np.minimum(eta1, eta2)
    with np.errstate(divide="ignore", invalid="ignore"):
        exponent = 1.0 / (sc.k + 1.0 - p)
        mu = (a * sc.k * f_remote / (f_local * sc.I * sc.q)) ** exponent
    return np.where(sc.q <= 0.0, eta2, np.clip(mu, eta1, eta2))


def _factor_slope(sc: _Scenario, b, powers, f_local, f_remote, incumbent,
                  curvature: bool = True) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """d/d ln b of the refine block's delay at the factor b of the given
    powers (None at b = 1.0, whose powers are exactly 1), and d2/d ln b2 if
    ``curvature`` (else None); the slope is +-inf (its barrier) where no
    uplink serves b, and the curvature is not finite."""
    beta_k, beta_1mp = (None, None) if powers is None else powers
    e_extract = _extraction_energy(sc, beta_k, f_local)
    e_budget = sc.E - e_extract
    bits = sc.A if powers is None else b * sc.A
    t_uplink, w = _uplink(sc, bits, e_budget)
    barrier = np.isinf(t_uplink)
    # d ln t = (1+w) d ln bits - w d ln e_budget = (1 + w*u) d ln b, where w = 0 at
    # peak power and where no uplink serves b; on the energy-limited root, d ln c =
    # u d ln b and d ln s/d ln c = -w give w' = -w^2*u*(c - s*w). The uplink's
    # derivatives overwrite its time only on those lanes
    lim = np.flatnonzero(w)
    dd_uplink = t_uplink
    if lim.size:
        t, w, k, e_x, e_b = t_uplink[lim], w[lim], sc.k[lim], e_extract[lim], e_budget[lim]
        u = 1.0 - k * e_x / e_b
        gain = 1.0 + w * u
        if curvature:
            c = bits[lim] * sc.sigma2 * _LN2 / (sc.h[lim] * e_b * sc.B)
            s = bits[lim] * _LN2 / (sc.B * t)
            dw = -w * w * u * (c - s * w)
            du = k**2 * e_x * sc.E[lim] / e_b**2
            dd_uplink = t_uplink.copy()
            dd_uplink[lim] = t * (gain * gain + dw * u + w * du)
        t_uplink[lim] = t * gain
    del e_extract, e_budget, w, bits
    t_local = _t_local(sc, beta_k, f_local)
    t_remote = _t_remote(_remote_cycles(sc, beta_1mp), f_remote)
    dd = None
    if curvature:
        dd = sc.k**2
        dd *= t_local
        term = sc.q**2
        term *= t_remote
        dd += term
        dd += dd_uplink
    # -k*t_local + (1 - p)*t_remote, written as a difference, which rounds the same
    slope = np.subtract(np.multiply(sc.q, t_remote, out=t_remote),
                        np.multiply(sc.k, t_local, out=t_local), out=t_remote)
    slope += t_uplink
    if barrier.any():
        slope = np.where(barrier, np.where(b < incumbent, -np.inf, np.inf), slope)
    return slope, dd


def _refine_block(sc: _Scenario, beta, f_local, f_remote) -> np.ndarray:
    """Per-device exact minimization over the extraction factor.

    Minimizes extraction delay + minimal uplink time + remote delay, which
    is convex in x = ln(factor) (partial minimization of the jointly convex
    subproblem), by Newton's method on its slope, run only on the devices
    whose root is interior to [beta_min, 1]. The slope is read first at the
    ceiling, whose powers are exactly 1, on every device; a device of slope
    <= 0 there takes 1. The floor's slope is read only on the others, and a
    device of slope >= 0 there takes beta_min. Where no uplink carries the
    bits the delay is +inf, and the incumbent factor is feasible, so the
    feasible factors form an interval around it. Newton starts from the
    incumbent; the bracket [ln beta_min, 0] shrinks on the slope's sign, and a
    step leaving it probes its midpoint. A lane stops once its step is a few
    ulps, its bracket closes or its slope is 0, and takes its last probe of
    finite slope, which is feasible.
    """
    at_ceiling = _factor_slope(sc, 1.0, None, f_local, f_remote, beta, curvature=False)[0] <= 0
    # at-end lanes take their end exactly; devices without work, of zero slope, take 1
    beta_new = np.where(at_ceiling, 1.0, sc.beta_min)
    idx = np.flatnonzero(~at_ceiling)
    if idx.size == 0:
        return beta_new
    sub, fl, fr, inc = sc.take(idx), f_local[idx], f_remote[idx], beta[idx]
    slope = _factor_slope(sub, sub.beta_min, _powers(sub, sub.beta_min), fl, fr, inc,
                          curvature=False)[0]
    interior = np.flatnonzero(~(slope >= 0))
    if interior.size == 0:
        return beta_new
    if interior.size < idx.size:
        idx = idx[interior]
        sub, fl, fr, inc = sc.take(idx), f_local[idx], f_remote[idx], beta[idx]
    xa, xb = np.log(sub.beta_min), np.zeros(idx.size)
    x = best = np.log(inc)
    moving = np.ones(idx.size, dtype=bool)
    for _ in range(_MAX_ITERS):
        b = np.exp(x)
        slope, curvature = _factor_slope(sub, b, _powers(sub, b), fl, fr, inc)
        # a stopped lane probes its own x again, which changes nothing
        best = np.where(np.isfinite(slope), x, best)
        xa, xb = np.where(slope < 0, x, xa), np.where(slope > 0, x, xb)
        with np.errstate(divide="ignore", invalid="ignore"):  # NaN after a barrier probe
            step = slope / curvature
        tol = _ULPS * np.maximum(1.0, np.abs(x))
        moving &= ~(np.abs(step) <= tol) & (xb - xa > tol) & (slope != 0)
        if not np.any(moving):
            break
        x_new = np.where((xa < x - step) & (x - step < xb), x - step, 0.5 * (xa + xb))
        x = np.where(moving, x_new, x)
    beta_new[idx] = np.clip(np.exp(best), sub.beta_min, 1.0)
    return beta_new


# --- public operations ------------------------------------------------------


def _input_column(name: str, values: Sequence[float], n: int) -> np.ndarray:
    column = _numbers(values).astype(float, copy=False)
    if column.shape != (n,):
        raise ValueError(f"{name} must list {n} numbers, not an array of shape {column.shape}")
    if n:  # every entry obeys the rule iff both extremes do; NaN reaches both
        check_number(name, column.min())
        check_number(name, column.max())
    return column


def _read_allocation(tds: Sequence[TerminalDevice], alloc: Allocation, cfg: SystemConfig,
                     extraction: bool = True):
    """The scenario and the closed forms at an allocation: beta**k, the local
    rate, and the delay columns (t_local, t_transmit, t_remote).

    Devices without work are read at beta = f_local = 1 without uplink time,
    where A = 0 makes each closed form exactly 0 whatever the allocation holds
    for them. Raises ValueError for an allocation that no closed form may read.
    """
    sc = _Scenario(tds, cfg, extraction)
    if alloc.n_devices != sc.n:
        raise ValueError("allocation does not match the device list")
    vectors = (alloc.f_local, alloc.f_remote, alloc.t_transmit, alloc.e_transmit, alloc.beta)
    if not (math.isfinite(alloc.t_epigraph) and all(np.isfinite(v).all() for v in vectors)):
        raise ValueError("allocation entries must be finite")
    if np.any(alloc.beta <= 0) or np.any(alloc.f_local <= 0):
        raise ValueError("beta and f_local must be strictly positive")
    if np.any(alloc.t_transmit < 0) or np.any(alloc.e_transmit < 0):
        raise ValueError("uplink time and energy must be nonnegative")
    if np.any(sc.active & (alloc.f_remote <= 0)):
        raise ValueError("f_remote must be positive for devices with work")
    f_local = np.where(sc.active, alloc.f_local, 1.0)
    beta_k, beta_1mp = _powers(sc, np.where(sc.active, alloc.beta, 1.0))
    delays = (_t_local(sc, beta_k, f_local), np.where(sc.active, alloc.t_transmit, 0.0),
              _t_remote(_remote_cycles(sc, beta_1mp), alloc.f_remote))
    return sc, beta_k, f_local, delays


def optimal_local_rate(td: TerminalDevice, beta: float, e_transmit: float,
                       cfg: SystemConfig) -> float:
    """Largest admissible local CPU rate given the leftover energy budget.

    Either the hardware cap or the energy budget binds; the energy-bound
    branch is the largest rate whose extraction leaves ``e_transmit`` of the
    budget in float, within a few ulps of the rate that spends all the rest.
    """
    check_number("beta", beta)
    check_number("e_transmit", e_transmit)
    if td.task_bits == 0:
        return td.f_local_max
    if e_transmit >= td.energy_budget:
        raise FeasibilityError(0, FeasibilityCause.EXTRACTION_ENERGY_EXCEEDS_BUDGET,
                               "no energy left for extraction")
    sc = _Scenario([td], cfg)
    beta_k, _ = _powers(sc, np.array([beta]))
    return float(_local_rate_block(sc, beta_k, np.array([e_transmit]))[0])


def transmit_bisection(td: TerminalDevice, beta: float, f_local: float,
                       cfg: SystemConfig) -> tuple[float, float]:
    """Smallest transmit time able to carry beta*A bits, and its energy.

    The energy spent is the largest permissible at that time (the cap from
    the leftover budget or from peak power), since the minimal time meets
    the rate requirement only at maximal energy. When the budget binds, the
    time is the Lambert-W root of the perspective rate equation, found by
    monotone Newton steps and returned where the float rate condition holds.
    The name predates this exact solve, which has no tolerance to set.
    """
    check_number("beta", beta)
    check_number("f_local", f_local)
    sc = _Scenario([td], cfg)
    beta = np.array([beta])
    t, e = _transmit_block(sc, beta, _powers(sc, beta)[0], np.array([f_local]))
    return float(t[0]), float(e[0])


def remote_rate_bisection(tds: Sequence[TerminalDevice], beta: Sequence[float],
                          f_local: Sequence[float], t_transmit: Sequence[float],
                          cfg: SystemConfig) -> tuple[float, np.ndarray]:
    """Delay cap and server split that finish every active device together.

    Monotone Newton steps on the common completion time run from the
    single-device bound to within relative machine precision of the root,
    and stop where the per-device rates fit in the server capacity; each
    active device meets the cap with equality. The name predates this
    Newton solve, which has no tolerance to set.
    """
    sc = _Scenario(tds, cfg)
    beta_k, beta_1mp = _powers(sc, _input_column("beta", beta, sc.n))
    start = _t_local(sc, beta_k, _input_column("f_local", f_local, sc.n))
    start += _input_column("t_transmit", t_transmit, sc.n)
    return _remote_block(sc, _remote_cycles(sc, beta_1mp), start)


def optimal_beta(td: TerminalDevice, f_local: float, f_remote: float, t_transmit: float,
                 e_transmit: float, cfg: SystemConfig) -> float:
    """Closed-form optimal extraction factor with the uplink pair held fixed.

    The feasible interval comes from the energy budget (below) and the
    deliverable-bits cap (above). For remote-intensity exponents >= 1 the
    delay decreases in the factor, so the upper end is optimal; otherwise
    the interior stationary point is clamped into the interval. ``solve``
    uses the exact extraction block, which generalizes this closed form.
    """
    for name, value in (("f_local", f_local), ("f_remote", f_remote),
                        ("t_transmit", t_transmit), ("e_transmit", e_transmit)):
        check_number(name, value)
    if td.task_bits == 0:
        return 1.0
    table = DeviceTable.from_devices([td])
    a, _, p = table.semantic_constants(cfg)
    beta = _beta_closed_form(_Scenario(table, cfg), a, p, np.array([f_local]),
                             np.array([f_remote]), np.array([t_transmit]),
                             np.array([e_transmit]))
    return float(beta[0])


def _split_server(sc: _Scenario, beta, beta_k, f_local, t_transmit,
                  e_transmit) -> Allocation:
    # completes the allocation, with its objective as the epigraph value:
    # devices without work have zero delay, and every other a positive one.
    # The start of each device's remote work overwrites beta_k, which the
    # callers read no more, and beta**(1 - p) lives only to give the cycles
    start = _t_local(sc, beta_k, f_local, out=beta_k)
    start += t_transmit
    cycles = _remote_cycles(sc, beta**sc.q)
    _, f_remote = _remote_block(sc, cycles, start)
    delays = _t_remote(cycles, f_remote)
    delays += start
    return Allocation(f_local, f_remote, t_transmit, e_transmit, beta, float(delays.max()))


def _rate_block(sc: _Scenario, beta, f_local) -> Allocation:
    """The allocation at a new factor: the minimal uplink at the incumbent
    local rate, the new local rate, and the server split, computing each of
    the factor's powers once."""
    beta_k = beta**sc.k
    t_transmit, e_transmit = _transmit_block(sc, beta, beta_k, f_local)
    f_local = _local_rate_block(sc, beta_k, e_transmit, f_local)
    return _split_server(sc, beta, beta_k, f_local, t_transmit, e_transmit)


def _start(sc: _Scenario) -> Allocation:
    # no uplink carries beta*A bits on less than beta*m joules (E_b/N_0 >= ln 2), so
    # beta_min*m < E iff feasible: the factor leaves the least uplink half the budget
    # (1 without work, where m = 0), and extraction spends half of what it leaves.
    # Capped at E, the uplink's share leaves an unservable device rate 0 without nudges
    with np.errstate(divide="ignore", over="ignore"):
        m = sc.A * sc.sigma2 * _LN2 / (sc.h * sc.B)
        beta = np.clip(sc.E / (2.0 * m), sc.beta_min, 1.0)
    beta_k = beta**sc.k
    f_local = _local_rate_block(sc, beta_k, np.minimum(0.5 * (sc.E + beta * m), sc.E))
    return _split_server(sc, beta, beta_k, f_local, *_transmit_block(sc, beta, beta_k, f_local))


def _at_start(sc: _Scenario) -> SolverReport:
    """The start point as a finished solve, which it is when no block couples
    to another: without work (after no iteration), and without extraction,
    where the local rate is the hardware cap and one iteration changes nothing.
    """
    alloc = _start(sc)
    return SolverReport(alloc, [alloc.t_epigraph], int(np.any(sc.active)), True)


def solve(tds: Sequence[TerminalDevice], cfg: SystemConfig) -> SolverReport:
    """Run the full alternating optimization on a scenario from its start point.

    Returns a monotonically non-increasing objective trace; convergence is
    declared when the relative objective change drops below ``eps_outer``,
    or when a step would raise the objective, which only rounding does: the
    incumbent is kept and the step is left out of the trace.
    Infeasible scenarios raise :class:`FeasibilityError`; hitting the outer
    iteration cap reports ``converged=False`` instead of raising.
    """
    sc = _Scenario(tds, cfg)
    if not np.any(sc.active):
        return _at_start(sc)
    alloc = _start(sc)
    trace = [alloc.t_epigraph]
    converged = False
    for iterations in range(1, cfg.max_outer_iters + 1):
        # the incumbent factor stays feasible: the rate block leaves the uplink its energy
        beta = _refine_block(sc, alloc.beta, alloc.f_local, alloc.f_remote)
        candidate = _rate_block(sc, beta, alloc.f_local)
        if candidate.t_epigraph > trace[-1]:
            # a rise is rounding at the optimum: the incumbent is the answer
            converged = True
            break
        alloc = candidate
        trace.append(alloc.t_epigraph)
        if abs(trace[-1] - trace[-2]) <= cfg.eps_outer * max(abs(trace[-1]), 1e-300):
            converged = True
            break
    return SolverReport(alloc, trace, iterations, converged)


def log_domain_residuals(alloc: Allocation, tds: Sequence[TerminalDevice],
                         cfg: SystemConfig) -> ConstraintResiduals:
    """Signed slack of every constraint of the convexified problem.

    Positive values mean satisfied. It reads an allocation of the semantic
    problem, extraction pass included, so the ``delay_cap`` of a
    ``solve_no_semantic`` answer carries the factor-1 extraction delay that
    baseline never runs (-3.0e-8 s on ``reference_scenario()``);
    ``delay_breakdown(..., extraction=False)`` reads raw-upload rows. Raises
    ValueError for the allocations :func:`delay_breakdown` rejects.
    """
    sc, beta_k, f_local, (t_local, t_transmit, t_remote) = _read_allocation(tds, alloc, cfg)
    delay_cap = alloc.t_epigraph - (t_local + t_transmit + t_remote)
    energy = sc.E - _extraction_energy(sc, beta_k, f_local) - alloc.e_transmit
    rate = _bits_carried(sc, sc.h, alloc.e_transmit, alloc.t_transmit) - alloc.beta * sc.A
    rate = np.where(sc.active, rate, 0.0)
    f_local_cap = np.log(sc.f_max) - np.log(alloc.f_local)
    capacity = float(sc.F - alloc.f_remote.sum())
    e_nonneg = alloc.e_transmit.copy()
    e_power_cap = sc.p_max * alloc.t_transmit - alloc.e_transmit
    beta_floor = np.log(alloc.beta) - np.log(sc.beta_min)
    beta_ceiling = -np.log(alloc.beta)
    return ConstraintResiduals(delay_cap, energy, rate, f_local_cap, capacity,
                               e_nonneg, e_power_cap, beta_floor, beta_ceiling)


def delay_breakdown(tds: Sequence[TerminalDevice], alloc: Allocation, cfg: SystemConfig,
                    extraction: bool = True) -> np.ndarray:
    """Rows (t_local, t_transmit, t_remote, total) of each device's delay.

    The closed forms and the order of the sum are the solver's objective's;
    devices without task bits get a zero row, and ``extraction=False`` drops
    the extraction pass as the raw-upload baseline does. Raises ValueError
    for an allocation of another length, with a non-finite entry, with a
    factor or local rate that is not positive, with a negative uplink time
    or energy, or without a positive server share for a device with work.
    """
    t_local, t_transmit, t_remote = _read_allocation(tds, alloc, cfg, extraction)[3]
    return np.stack([t_local, t_transmit, t_remote, t_local + t_transmit + t_remote], axis=1)

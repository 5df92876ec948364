"""Alternating solver for the min-max task-delay allocation problem.

The relaxed problem is convex once the extraction factor and the two compute
rates are substituted by their logarithms, so block-coordinate descent with
exact block solves converges monotonically. One outer iteration runs:

1. extraction block: per device, the exact minimum over the factor of
   extraction delay + minimal uplink time + remote delay, convex in the log
   of the factor. The minimal uplink is at peak power in closed form, and on
   a binding energy budget the Lambert-W closed form of the perspective rate
   equation, solved by monotone Newton. The block generalizes the paper's
   closed form (:func:`optimal_beta`), which holds the uplink pair fixed;
2. rate block: the energy-capped local rate in closed form, then monotone
   Newton on the delay cap that splits the server capacity so every active
   device finishes at the same time.

With the factor pinned (the raw-upload baselines) only the uplink is solved.

Every inner solve runs to relative machine precision and ends on the
feasible side of its float constraint, so ``eps_bisect_capacity`` is an upper
bound that the returned server split always meets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import List, Optional, Sequence

import numpy as np

from .model import Allocation, SystemConfig, TerminalDevice

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

_LN2 = math.log(2.0)
_MAX_ITERS = 100  # cap on every Newton and false-position loop
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
    """Outcome of one solve: allocation, objective trace, and exit data.

    ``tightness_residuals`` holds the per-device slack of the delay cap at
    exit; at an optimum the cap binds for every active device.
    """

    allocation: Allocation
    objective_trace: List[float]
    iterations: int
    converged: bool
    tightness_residuals: np.ndarray


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


class _Scenario:
    """Array view of the device list, precomputed once per solve."""

    __slots__ = ("n", "A", "I", "kappa", "f_max", "p_max", "beta_min", "E", "h",
                 "a", "k", "p", "B", "sigma2", "F", "active", "r_full")

    def __init__(self, tds: Sequence[TerminalDevice], cfg: SystemConfig, extraction: bool = True):
        self.n = len(tds)
        self.A = np.array([td.task_bits for td in tds], dtype=float)
        self.I = np.array([td.intensity for td in tds], dtype=float)
        self.kappa = np.array([td.energy_coeff for td in tds], dtype=float)
        self.f_max = np.array([td.f_local_max for td in tds], dtype=float)
        self.p_max = np.array([td.p_tx_max for td in tds], dtype=float)
        self.beta_min = np.array([td.beta_min for td in tds], dtype=float)
        self.E = np.array([td.energy_budget for td in tds], dtype=float)
        self.h = np.array([td.channel_gain for td in tds], dtype=float)
        self.k = np.array([cfg.sem_k if td.sem_k is None else td.sem_k for td in tds])
        if extraction:
            self.a = np.array([cfg.sem_a if td.sem_a is None else td.sem_a for td in tds])
            self.p = np.array([cfg.sem_p if td.sem_p is None else td.sem_p for td in tds])
        else:
            # raw upload: a = 0 drops the extraction pass, p = 1 keeps the raw workload A*I
            self.a = np.zeros(self.n)
            self.p = np.ones(self.n)
        self.B = cfg.bandwidth_hz
        self.sigma2 = cfg.noise_power_w
        self.F = cfg.f_mec_total
        self.active = self.A > 0
        self.r_full = self.B * np.log2(1.0 + self.h * self.p_max / self.sigma2)


def _extraction_energy(sc: _Scenario, beta: np.ndarray, f_local: np.ndarray) -> np.ndarray:
    return np.where(sc.active, sc.a * sc.A * sc.kappa * f_local**2 / beta**sc.k, 0.0)


def _t_local(sc: _Scenario, beta: np.ndarray, f_local: np.ndarray) -> np.ndarray:
    return np.where(sc.active, sc.a * sc.A / (beta**sc.k * f_local), 0.0)


def _remote_cycles(sc: _Scenario, beta: np.ndarray) -> np.ndarray:
    return np.where(sc.active, sc.A * sc.I * beta ** (1.0 - sc.p), 0.0)


def _bits_carried(sc: _Scenario, h, e, t):
    # the perspective rate t*B*log2(1 + h*e/(t*sigma^2)) for t > 0
    return t * (sc.B / _LN2) * np.log1p(h * e / (t * sc.sigma2))


def _uplink_bits(sc: _Scenario, e: np.ndarray, t: np.ndarray) -> np.ndarray:
    out = np.zeros(sc.n)
    m = t > 0
    if np.any(m):
        out[m] = _bits_carried(sc, sc.h[m], e[m], t[m])
    return out


def _delays(sc: _Scenario, beta, f_local, t_transmit, f_remote) -> np.ndarray:
    w = _remote_cycles(sc, beta)
    t_remote = np.zeros(sc.n)
    m = sc.active
    t_remote[m] = w[m] / f_remote[m]
    return _t_local(sc, beta, f_local) + t_transmit + t_remote


def _objective(sc: _Scenario, beta, f_local, t_transmit, f_remote) -> float:
    if not np.any(sc.active):
        return 0.0
    return float(np.max(_delays(sc, beta, f_local, t_transmit, f_remote)[sc.active]))


# --- block solves -----------------------------------------------------------


def _local_rate_block(sc: _Scenario, beta: np.ndarray, e_transmit: np.ndarray) -> np.ndarray:
    remaining = sc.E - e_transmit
    bad = sc.active & (remaining <= 0)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise FeasibilityError(idx, FeasibilityCause.EXTRACTION_ENERGY_EXCEEDS_BUDGET,
                               "no energy left for extraction")
    with np.errstate(divide="ignore", invalid="ignore"):
        unclamped = np.sqrt(beta**sc.k * np.maximum(remaining, 0.0) / (sc.a * sc.A * sc.kappa))
    return np.where(sc.active, np.minimum(sc.f_max, unclamped), sc.f_max)


def _t_energy_limited(sc: _Scenario, bits: np.ndarray, e_budget: np.ndarray,
                      t_power: np.ndarray, lanes: np.ndarray) -> np.ndarray:
    """Smallest t with t*B*log2(1 + h*e_budget/(t*sigma^2)) >= bits, per lane.

    With s = ln(1 + h*e/(t*sigma^2)) and c = bits*sigma^2*ln2/(h*e*B) the rate
    equation reads s = ln(1 + s/c), whose positive root (the W_{-1} branch of
    Lambert's function) exists iff c < 1 and gives t = bits*ln2/(B*s). The
    difference s - ln(1 + s/c) is convex and positive above the root, so
    Newton's method started from s(t_power) descends to it monotonically.
    The time is then nudged up until the float predicate holds.
    """
    idx = np.flatnonzero(lanes)
    h, e, b = sc.h[idx], e_budget[idx], bits[idx]
    c = b * sc.sigma2 * _LN2 / (h * e * sc.B)
    if np.any(c >= 1.0):
        raise FeasibilityError(int(idx[np.argmax(c >= 1.0)]), FeasibilityCause.RATE_CAP_TOO_LOW,
                               "required bits exceed the energy-capped capacity")
    s = np.log1p(h * e / (t_power[idx] * sc.sigma2))
    for _ in range(_MAX_ITERS):
        excess = s - np.log1p(s / c)
        gain = 1.0 - 1.0 / (c + s)
        moving = (excess > 0) & (gain > 0)
        step = excess / np.where(moving, gain, 1.0)
        moving &= step > _ULPS * s
        if not np.any(moving):
            break
        s = np.where(moving, s - step, s)
    t = b * _LN2 / (sc.B * s)
    nudge = _ULPS
    for _ in range(_MAX_NUDGES):
        short = _bits_carried(sc, h, e, t) < b
        if not np.any(short):
            break
        t = np.where(short, t * (1.0 + nudge), t)
        nudge *= 2.0
    else:
        raise FeasibilityError(int(idx[np.argmax(short)]), FeasibilityCause.RATE_CAP_TOO_LOW,
                               "no time satisfies the rate condition")
    return t


def _transmit_block(sc: _Scenario, beta: np.ndarray,
                    f_local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t_out = np.zeros(sc.n)
    e_out = np.zeros(sc.n)
    act = sc.active
    bits = np.where(act, beta * sc.A, 0.0)
    e_budget = sc.E - _extraction_energy(sc, beta, f_local)
    bad = act & (e_budget <= 0)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise FeasibilityError(idx, FeasibilityCause.EXTRACTION_ENERGY_EXCEEDS_BUDGET,
                               "extraction energy exhausts the budget")

    t_power = np.where(act, bits / sc.r_full, 0.0)
    power_limited = act & (sc.p_max * t_power <= e_budget)
    t_out[power_limited] = t_power[power_limited]
    e_out[power_limited] = (sc.p_max * t_power)[power_limited]

    # past t_power the energy cap binds, so the whole leftover budget is spent
    energy_limited = act & ~power_limited
    if np.any(energy_limited):
        t_out[energy_limited] = _t_energy_limited(sc, bits, e_budget, t_power, energy_limited)
        e_out[energy_limited] = e_budget[energy_limited]
    return t_out, e_out


def _remote_block(sc: _Scenario, beta: np.ndarray, f_local: np.ndarray,
                  t_transmit: np.ndarray, cfg: SystemConfig) -> tuple[float, np.ndarray]:
    f_remote = np.zeros(sc.n)
    act = sc.active
    if not np.any(act):
        return 0.0, f_remote
    w = _remote_cycles(sc, beta)[act]
    base = (_t_local(sc, beta, f_local) + t_transmit)[act]
    # Newton on 1/sum(w/(delta + gap)) = 1/F for the offset delta of the common
    # completion time above the latest start, which an abundant capacity cannot
    # round away. The left side is concave and increasing, so the iterates rise
    # monotonically from the single-device bound (exactly, if all gaps are 0).
    top = float(base.max())
    gap = top - base
    delta = float(np.max(w / sc.F - gap))
    for _ in range(_MAX_ITERS):
        f = w / (delta + gap)
        total = float(f.sum())
        step = total * (total - sc.F) / (sc.F * float(np.sum(f * f / w)))
        if not step > min(cfg.eps_bisect_capacity, delta * _ULPS):
            break
        delta += step
    # finish on the side where the shares fit in the capacity
    nudge = _ULPS
    for _ in range(_MAX_NUDGES):
        f_remote[act] = w / (delta + gap)
        if f_remote.sum() <= sc.F:
            break
        delta *= 1.0 + nudge
        nudge *= 2.0
    return top + delta, f_remote


def _beta_closed_form(sc: _Scenario, f_local, f_remote, t_transmit, e_transmit) -> np.ndarray:
    # only for devices with task bits, as its single caller ensures
    remaining = sc.E - e_transmit
    with np.errstate(divide="ignore", invalid="ignore"):
        eta1 = np.maximum(
            sc.beta_min,
            (sc.a * sc.A * sc.kappa * f_local**2 / np.maximum(remaining, 1e-300))
            ** (1.0 / sc.k),
        )
        cap_bits = _uplink_bits(sc, e_transmit, t_transmit)
        eta2 = np.minimum(1.0, cap_bits / np.maximum(sc.A, 1e-300))
    empty = (remaining <= 0) | (eta1 > eta2 * (1.0 + 1e-12) + 1e-300)
    if np.any(empty):
        raise FeasibilityError(int(np.argmax(empty)), FeasibilityCause.INVALID_SCENARIO,
                               "empty extraction-factor interval")
    eta1 = np.minimum(eta1, eta2)
    with np.errstate(divide="ignore", invalid="ignore"):
        exponent = 1.0 / (sc.k + 1.0 - sc.p)
        mu = (sc.a * sc.k * f_remote / (f_local * sc.I * (1.0 - sc.p))) ** exponent
    return np.where(sc.p >= 1.0, eta2, np.clip(mu, eta1, eta2))


def _uplink_margin(sc: _Scenario, ext_coeff: np.ndarray, x: np.ndarray) -> np.ndarray:
    # energy left after the cheapest uplink at the factor exp(x); >= 0 iff the
    # uplink fits, at peak power or within 1e-12 of the saturated bound
    beta = np.exp(x)
    e_budget = sc.E - ext_coeff * beta**-sc.k
    bits = beta * sc.A
    return np.maximum(e_budget - sc.p_max * bits / sc.r_full,
                      e_budget * (1.0 - 1e-12) - bits * sc.sigma2 * _LN2 / (sc.B * sc.h))


def _illinois(f, xa: np.ndarray, fa: np.ndarray, xb: np.ndarray, fb: np.ndarray,
              lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shrink each bracket with f(xa) < 0 <= f(xb) on ``lanes`` to a few ulps.

    Illinois false position (the value kept at an end surviving twice is
    halved), with each probe held ``tol`` inside the bracket so that it also
    closes from the far end, and a midpoint probe wherever the last three
    probes did not halve the bracket; ``f`` maps all lanes at once.
    """
    side = np.zeros(xa.shape)
    tol = _ULPS * np.maximum(1.0, np.maximum(np.abs(xa), np.abs(xb)))
    w1 = w2 = w3 = np.full(xa.shape, np.inf)  # bracket widths 1-3 probes back
    for _ in range(_MAX_ITERS):
        w0 = np.abs(xb - xa)
        open_lanes = lanes & (w0 > 2.0 * tol)
        if not np.any(open_lanes):
            break
        xc = xb - fb * (xb - xa) / np.where(fb != fa, fb - fa, 1.0)
        secant = ((xc - xa) * (xc - xb) < 0) & (w0 <= 0.5 * w3)
        xc = np.where(secant, xc, 0.5 * (xa + xb))
        w3, w2, w1 = w2, w1, w0
        xc = np.clip(xc, np.minimum(xa, xb) + tol, np.maximum(xa, xb) - tol)
        xc = np.where(open_lanes, xc, xb)
        fc = f(xc)
        to_b = open_lanes & (fc >= 0)
        to_a = open_lanes & (fc <= 0)  # an exact zero closes the bracket
        fa = np.where(to_b & (side < 0), 0.5 * fa, np.where(to_a, fc, fa))
        fb = np.where(to_a & (side > 0), 0.5 * fb, np.where(to_b, fc, fb))
        xa = np.where(to_a, xc, xa)
        xb = np.where(to_b, xc, xb)
        side = np.where(to_b, -1.0, np.where(to_a, 1.0, side))
    return xa, xb


def _refine_block(sc: _Scenario, beta, f_local,
                  f_remote) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-device exact minimization over the extraction factor.

    Minimizes extraction delay + minimal uplink time + remote delay, which
    is convex in the log of the factor (partial minimization of the jointly
    convex subproblem), by a bracketed root search on its derivative. The
    uplink pair is refreshed at the chosen factor.
    """
    act = sc.active
    ext_coeff = np.where(act, sc.a * sc.A * sc.kappa * f_local**2, 0.0)
    b_cur = np.where(act, beta, 1.0)
    margin = partial(_uplink_margin, sc, ext_coeff)

    def feasible_end(outer: np.ndarray) -> np.ndarray:
        # the feasible factors form an interval around the current one
        x_out = np.log(outer)
        m_out = margin(x_out)
        need = act & (m_out < 0)
        if not np.any(need):
            return outer
        x_cur = np.log(b_cur)
        _, xb = _illinois(margin, x_out, m_out, x_cur, margin(x_cur), need)
        return np.where(need, np.exp(xb), outer)

    lo = np.minimum(feasible_end(sc.beta_min), b_cur)
    hi = np.maximum(feasible_end(np.ones(sc.n)), b_cur)

    def slope(b: np.ndarray) -> np.ndarray:
        t_local = sc.a * sc.A / (np.maximum(f_local, 1e-300) * b**sc.k)
        t_remote = sc.A * sc.I * b ** (1.0 - sc.p) / np.maximum(f_remote, 1e-300)
        e_budget = sc.E - ext_coeff * b**-sc.k
        bits = b * sc.A
        t_power = bits / sc.r_full
        power_limited = sc.p_max * t_power <= e_budget
        d_uplink = np.where(power_limited, t_power, 0.0)
        lanes = act & ~power_limited
        if np.any(lanes):
            t_el = np.ones(sc.n)
            t_el[lanes] = _t_energy_limited(sc, bits, e_budget, t_power, lanes)
            q = sc.h * e_budget / (t_el * sc.sigma2)
            dF_dt = (sc.B / _LN2) * (np.log1p(q) - q / (1.0 + q))
            de_db = sc.k * ext_coeff * b ** (-sc.k - 1.0)
            dF_db = (sc.B / _LN2) * sc.h * de_db / (sc.sigma2 * (1.0 + q)) - sc.A
            dt_db = -dF_db / np.maximum(dF_dt, 1e-300)
            d_uplink = np.where(lanes, b * dt_db, d_uplink)
        return np.where(act, -sc.k * t_local + (1.0 - sc.p) * t_remote + d_uplink, 0.0)

    slope_lo = slope(lo)
    slope_hi = slope(hi)
    at_lo = act & (slope_lo >= 0)
    at_hi = act & ~at_lo & (slope_hi <= 0)
    interior = act & ~at_lo & ~at_hi
    xa, xb = _illinois(lambda x: slope(np.exp(x)), np.log(lo), slope_lo,
                       np.log(hi), slope_hi, interior)
    candidate = np.where(interior, np.exp(0.5 * (xa + xb)), np.where(at_lo, lo, hi))
    candidate = np.clip(candidate, lo, hi)

    # pick the best of {upper end, candidate, lower end} with a fresh uplink
    # solve each, so boundary optima are hit exactly
    best_beta, best_t, best_e = np.ones(sc.n), np.zeros(sc.n), np.zeros(sc.n)
    best_val = np.full(sc.n, np.inf)
    for trial in (hi, candidate, lo):
        trial_beta = np.where(act, trial, 1.0)
        t_t, e_t = _transmit_block(sc, trial_beta, f_local)
        val = _delays(sc, trial_beta, f_local, t_t, f_remote)
        better = act & (val < best_val)
        best_beta = np.where(better, trial_beta, best_beta)
        best_t = np.where(better, t_t, best_t)
        best_e = np.where(better, e_t, best_e)
        best_val = np.where(better, val, best_val)
    return best_beta, best_t, best_e


# --- public operations ------------------------------------------------------


def optimal_local_rate(td: TerminalDevice, beta: float, e_transmit: float,
                       cfg: SystemConfig) -> float:
    """Largest admissible local CPU rate given the leftover energy budget.

    Either the hardware cap or the energy budget binds; the energy-bound
    branch is the rate that spends exactly the remaining budget on
    extraction.
    """
    if not 0 < beta <= 1:
        raise ValueError("beta must lie in (0, 1]")
    if e_transmit < 0:
        raise ValueError("e_transmit must be nonnegative")
    if td.task_bits == 0:
        return td.f_local_max
    sc = _Scenario([td], cfg)
    return float(_local_rate_block(sc, np.array([beta]), np.array([e_transmit]))[0])


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
    if not 0 < beta <= 1:
        raise ValueError("beta must lie in (0, 1]")
    if f_local <= 0:
        raise ValueError("f_local must be positive")
    sc = _Scenario([td], cfg)
    t, e = _transmit_block(sc, np.array([beta]), np.array([f_local]))
    return float(t[0]), float(e[0])


def remote_rate_bisection(tds: Sequence[TerminalDevice], beta: Sequence[float],
                          f_local: Sequence[float], t_transmit: Sequence[float],
                          cfg: SystemConfig) -> tuple[float, np.ndarray]:
    """Delay cap and server split that finish every active device together.

    Monotone Newton steps on the common completion time run from the
    single-device bound to within ``eps_bisect_capacity`` (or relative
    machine precision) of the root, and stop where the per-device rates fit
    in the server capacity; each active device meets the cap with equality.
    """
    sc = _Scenario(tds, cfg)
    return _remote_block(sc, np.asarray(beta, dtype=float), np.asarray(f_local, dtype=float),
                         np.asarray(t_transmit, dtype=float), cfg)


def optimal_beta(td: TerminalDevice, f_local: float, f_remote: float, t_transmit: float,
                 e_transmit: float, cfg: SystemConfig) -> float:
    """Closed-form optimal extraction factor with the uplink pair held fixed.

    The feasible interval comes from the energy budget (below) and the
    deliverable-bits cap (above). For remote-intensity exponents >= 1 the
    delay decreases in the factor, so the upper end is optimal; otherwise
    the interior stationary point is clamped into the interval. ``solve``
    uses the exact extraction block, which generalizes this closed form.
    """
    for name, value in (("f_local", f_local), ("f_remote", f_remote)):
        if value <= 0:
            raise ValueError(f"{name} must be positive")
    if t_transmit < 0 or e_transmit < 0:
        raise ValueError("uplink time and energy must be nonnegative")
    if td.task_bits == 0:
        return 1.0
    sc = _Scenario([td], cfg)
    beta = _beta_closed_form(sc, np.array([f_local]), np.array([f_remote]),
                             np.array([t_transmit]), np.array([e_transmit]))
    return float(beta[0])


def _validate(tds: Sequence[TerminalDevice], cfg: SystemConfig) -> None:
    if len(tds) != cfg.n_devices:
        raise ValueError(f"scenario lists {len(tds)} devices but n_devices={cfg.n_devices}")


def _relatively_feasible(r: ConstraintResiduals, sc: _Scenario, alloc: Allocation) -> bool:
    # each family against its natural size; the log families are relative
    # already, and a zero size (no uplink time) demands a nonnegative slack
    pairs = ((r.delay_cap, alloc.t_epigraph), (r.energy, sc.E), (r.rate, alloc.beta * sc.A),
             (r.f_local_cap, 1.0), (r.capacity, sc.F), (r.e_nonneg, sc.E),
             (r.e_power_cap, sc.p_max * alloc.t_transmit), (r.beta_floor, 1.0),
             (r.beta_ceiling, 1.0))
    return all(np.all(slack >= -1e-9 * size) for slack, size in pairs)


def _initial_local_rate(sc: _Scenario) -> np.ndarray:
    # full budget first; fall back to half so the uplink keeps strictly
    # positive energy headroom when extraction at the cap would exhaust it
    f0 = _local_rate_block(sc, np.ones(sc.n), np.zeros(sc.n))
    exhausted = sc.active & (_extraction_energy(sc, np.ones(sc.n), f0) >= sc.E)
    if np.any(exhausted):
        with np.errstate(divide="ignore", invalid="ignore"):
            half = np.sqrt(0.5 * sc.E / (sc.a * sc.A * sc.kappa))
        f0 = np.where(exhausted, np.minimum(sc.f_max, half), f0)
    return f0


def _solve_core(tds: Sequence[TerminalDevice], cfg: SystemConfig, *,
                extraction: bool = True, freeze_beta: bool = False,
                initial: Optional[Allocation] = None) -> SolverReport:
    _validate(tds, cfg)
    sc = _Scenario(tds, cfg, extraction)

    if not np.any(sc.active):
        alloc = Allocation(sc.f_max.copy(), np.zeros(sc.n), np.zeros(sc.n),
                           np.zeros(sc.n), np.ones(sc.n), 0.0)
        return SolverReport(alloc, [0.0], 0, True, np.zeros(sc.n))

    if initial is not None:
        if initial.n_devices != sc.n:
            raise ValueError("initial allocation has the wrong number of devices")
        if not _relatively_feasible(log_domain_residuals(initial, tds, cfg), sc, initial):
            raise FeasibilityError(-1, FeasibilityCause.INVALID_SCENARIO,
                                   "initial allocation is infeasible")
        beta = initial.beta.copy()
        f_local = initial.f_local.copy()
        t_transmit = initial.t_transmit.copy()
        e_transmit = initial.e_transmit.copy()
    else:
        beta = np.ones(sc.n)
        f_local = _initial_local_rate(sc) if extraction else sc.f_max.copy()
        t_transmit, e_transmit = _transmit_block(sc, beta, f_local)

    _, f_remote = _remote_block(sc, beta, f_local, t_transmit, cfg)
    trace = [_objective(sc, beta, f_local, t_transmit, f_remote)]

    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_outer_iters + 1):
        if freeze_beta:
            t_transmit, e_transmit = _transmit_block(sc, beta, f_local)
        else:
            # the incumbent factor stays feasible: the local-rate block spends
            # only the energy that the uplink leaves over
            beta, t_transmit, e_transmit = _refine_block(sc, beta, f_local, f_remote)
        if extraction:
            f_local = _local_rate_block(sc, beta, e_transmit)
        _, f_remote = _remote_block(sc, beta, f_local, t_transmit, cfg)
        trace.append(_objective(sc, beta, f_local, t_transmit, f_remote))
        if abs(trace[-1] - trace[-2]) <= cfg.eps_outer * max(abs(trace[-1]), 1e-300):
            converged = True
            break

    allocation = Allocation(f_local, f_remote, t_transmit, e_transmit, beta, trace[-1])
    tightness = trace[-1] - _delays(sc, beta, f_local, t_transmit, f_remote)
    return SolverReport(allocation, trace, iterations, converged, tightness)


def solve(tds: Sequence[TerminalDevice], cfg: SystemConfig,
          initial: Optional[Allocation] = None) -> SolverReport:
    """Run the full alternating optimization on a scenario.

    Returns a monotonically non-increasing objective trace; convergence is
    declared when the relative objective change drops below ``eps_outer``.
    Infeasible scenarios raise :class:`FeasibilityError`; hitting the outer
    iteration cap reports ``converged=False`` instead of raising.
    """
    return _solve_core(tds, cfg, extraction=True, freeze_beta=False, initial=initial)


def log_domain_residuals(alloc: Allocation, tds: Sequence[TerminalDevice],
                         cfg: SystemConfig) -> ConstraintResiduals:
    """Signed slack of every constraint of the convexified problem.

    Positive values mean satisfied. Raises on nonpositive entries where the
    log substitution is taken.
    """
    _validate(tds, cfg)
    if alloc.n_devices != len(tds):
        raise ValueError("allocation does not match the device list")
    sc = _Scenario(tds, cfg)
    beta = alloc.beta
    f_local = alloc.f_local
    if np.any(beta <= 0) or np.any(f_local <= 0):
        raise ValueError("beta and f_local must be strictly positive")
    if np.any(alloc.t_transmit < 0) or np.any(alloc.e_transmit < 0):
        raise ValueError("uplink time and energy must be nonnegative")
    if np.any(sc.active & (alloc.f_remote <= 0)):
        raise ValueError("f_remote must be positive for devices with work")

    delays = _delays(sc, beta, f_local, alloc.t_transmit, alloc.f_remote)
    delay_cap = alloc.t_epigraph - delays
    energy = sc.E - _extraction_energy(sc, beta, f_local) - alloc.e_transmit
    rate = _uplink_bits(sc, alloc.e_transmit, alloc.t_transmit) - beta * sc.A
    rate = np.where(sc.active, rate, 0.0)
    f_local_cap = np.log(sc.f_max) - np.log(f_local)
    capacity = float(sc.F - alloc.f_remote.sum())
    e_nonneg = alloc.e_transmit.copy()
    e_power_cap = sc.p_max * alloc.t_transmit - alloc.e_transmit
    beta_floor = np.log(beta) - np.log(sc.beta_min)
    beta_ceiling = -np.log(beta)
    return ConstraintResiduals(delay_cap, energy, rate, f_local_cap, capacity,
                               e_nonneg, e_power_cap, beta_floor, beta_ceiling)


def delay_breakdown(tds: Sequence[TerminalDevice], alloc: Allocation, cfg: SystemConfig,
                    extraction: bool = True) -> np.ndarray:
    """Rows (t_local, t_transmit, t_remote, total) of each device's delay.

    The closed forms and the order of the sum are the solver's objective's;
    devices without task bits get a zero row, and ``extraction=False`` drops
    the extraction pass as the raw-upload baseline does.
    """
    sc = _Scenario(tds, cfg, extraction)
    rows = np.zeros((sc.n, 4))
    m = sc.active
    rows[:, 0] = _t_local(sc, alloc.beta, alloc.f_local)
    rows[m, 1] = alloc.t_transmit[m]
    rows[m, 2] = _remote_cycles(sc, alloc.beta)[m] / alloc.f_remote[m]
    rows[:, 3] = rows[:, 0] + rows[:, 1] + rows[:, 2]
    return rows

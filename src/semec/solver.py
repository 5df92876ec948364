"""Alternating solver for the min-max task-delay allocation problem.

The relaxed problem is convex once the extraction factor and the two compute
rates are substituted by their logarithms, so block-coordinate descent with
exact block solves converges monotonically. One outer iteration runs:

1. extraction block: per device, the exact minimum over the factor in
   [beta_min, 1] of extraction delay + minimal uplink time + remote delay,
   convex in the log of the factor. The minimal uplink is at peak power in
   closed form, and on a binding energy budget the Lambert-W closed form of
   the perspective rate equation, solved by monotone Newton. The uplink solve
   returns its energy elasticity, from which the search reads the uplink's
   log-derivative, and an infinite time where no uplink serves a factor,
   which the search reads as the delay's barrier. The block generalizes the
   paper's closed form (:func:`optimal_beta`), which holds the uplink pair fixed;
2. rate block: the energy-capped local rate in closed form, then monotone
   Newton on the delay cap that splits the server capacity so every active
   device finishes at the same time.

The raw-upload baseline is the loop's start point without extraction, and
the retained-extraction baseline is the loop with every factor floor at 1.

Every inner solve runs to relative machine precision and ends on the
feasible side of its float constraint, so no inner solve has a tolerance;
only the outer loop's ``eps_outer`` and ``max_outer_iters`` are set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Sequence

import numpy as np

from .model import _HUGE, _TINY, Allocation, DeviceTable, SystemConfig, TerminalDevice

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
    """Array view of the device table and the system, made once per solve.

    Raises ValueError for an empty device sequence.
    """

    __slots__ = ("n", "A", "I", "kappa", "f_max", "p_max", "beta_min", "E", "h",
                 "a", "k", "p", "B", "sigma2", "F", "active", "r_full")

    def __init__(self, tds: Sequence[TerminalDevice], cfg: SystemConfig, extraction: bool = True):
        table = DeviceTable.from_devices(tds)
        self.n = len(table)
        if self.n == 0:
            raise ValueError("the scenario lists no devices")
        self.A = table.task_bits
        self.I = table.intensity
        self.kappa = table.energy_coeff
        self.f_max = table.f_local_max
        self.p_max = table.p_tx_max
        self.beta_min = table.beta_min
        self.E = table.energy_budget
        self.h = table.channel_gain
        self.a, self.k, self.p = table.semantic_constants(cfg)
        if not extraction:
            # raw upload: no extraction (a = 0), raw workload A*I (p = 1), factor held at 1
            self.a = np.zeros(self.n)
            self.p = np.ones(self.n)
            self.beta_min = np.ones(self.n)
        self.B = cfg.bandwidth_hz
        self.sigma2 = cfg.noise_power_w
        self.F = cfg.f_mec_total
        self.active = self.A > 0
        self.r_full = self.B * np.log2(1.0 + self.h * self.p_max / self.sigma2)


# A = 0 makes each closed form exactly 0, so devices without work need no mask
def _extraction_energy(sc: _Scenario, beta: np.ndarray, f_local: np.ndarray) -> np.ndarray:
    return sc.a * sc.A * sc.kappa * f_local**2 / beta**sc.k


def _t_local(sc: _Scenario, beta: np.ndarray, f_local: np.ndarray) -> np.ndarray:
    return sc.a * sc.A / (beta**sc.k * f_local)


def _remote_cycles(sc: _Scenario, beta: np.ndarray) -> np.ndarray:
    return sc.A * sc.I * beta ** (1.0 - sc.p)


def _bits_carried(sc: _Scenario, h, e, t):
    # the perspective rate t*B*log2(1 + h*e/(t*sigma^2)), which is 0 at t = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        bits = t * (sc.B / _LN2) * np.log1p(h * e / (t * sc.sigma2))
    return np.where(t > 0, bits, 0.0)


def _delays(sc: _Scenario, beta, f_local, t_transmit, f_remote) -> np.ndarray:
    w = _remote_cycles(sc, beta)
    t_remote = np.zeros(sc.n)
    m = sc.active
    t_remote[m] = w[m] / f_remote[m]
    return _t_local(sc, beta, f_local) + t_transmit + t_remote


# --- block solves -----------------------------------------------------------


def _local_rate_block(sc: _Scenario, beta: np.ndarray, e_transmit: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        unclamped = np.sqrt(beta**sc.k * np.maximum(sc.E - e_transmit, 0.0)
                            / (sc.a * sc.A * sc.kappa))
    return np.fmin(sc.f_max, unclamped)  # 0/0, where nothing is extracted, leaves the cap


def _uplink(sc: _Scenario, bits: np.ndarray,
            e_budget: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
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
    the bits gets t = inf and w = 0. If every lane is at peak power, w is None.
    """
    t = bits / sc.r_full
    idx = np.flatnonzero(~(sc.p_max * t <= e_budget))
    if idx.size == 0:
        return t, None
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
    t_e = b * _LN2 / (sc.B * s)
    nudge = _ULPS
    for _ in range(_MAX_NUDGES):
        short = _bits_carried(sc, h, e, t_e) < b
        if not np.any(short):
            break
        t_e = np.where(short, t_e * (1.0 + nudge), t_e)
        nudge *= 2.0
    else:
        t_e = np.where(short, np.inf, t_e)
    t[idx] = t_e
    w = np.zeros(sc.n)
    # at the root c + s - 1 = (s/2)*coth(s/2) - 1 + s/2 > s/2; where rounding
    # (c within ulps of 1) breaks that bound, w takes the c -> 1 limit 2/s
    w[idx] = np.where(np.isinf(t_e), 0.0, 1.0 / np.maximum(c + s - 1.0, 0.5 * s))
    return t, w


def _transmit_block(sc: _Scenario, beta: np.ndarray,
                    f_local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    e_budget = sc.E - _extraction_energy(sc, beta, f_local)
    bad = e_budget <= 0
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise FeasibilityError(idx, FeasibilityCause.EXTRACTION_ENERGY_EXCEEDS_BUDGET,
                               "extraction energy exhausts the budget")
    t, _ = _uplink(sc, beta * sc.A, e_budget)
    short = np.isinf(t)
    if np.any(short):
        raise FeasibilityError(int(np.argmax(short)), FeasibilityCause.RATE_CAP_TOO_LOW,
                               "required bits exceed the energy-capped capacity")
    # where the budget binds, p_max*t overspends it, and the uplink spends it whole
    return t, np.minimum(sc.p_max * t, e_budget)


def _remote_block(sc: _Scenario, beta: np.ndarray, f_local: np.ndarray,
                  t_transmit: np.ndarray) -> tuple[float, np.ndarray]:
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
        if not step > delta * _ULPS:
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
        cap_bits = _bits_carried(sc, sc.h, e_transmit, t_transmit)
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


def _illinois(f, xa: np.ndarray, fa: np.ndarray, xb: np.ndarray, fb: np.ndarray,
              lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shrink each bracket with f(xa) < 0 <= f(xb) on ``lanes`` to a few ulps.

    Illinois false position (the value kept at an end surviving twice is
    halved), with each probe held ``tol`` inside the bracket so that it also
    closes from the far end, and a midpoint probe wherever the last three
    probes did not halve the bracket; ``f`` maps all lanes at once. An end
    value may be infinite: the midpoint probes until both are finite.
    """
    side = np.zeros(xa.shape)
    tol = _ULPS * np.maximum(1.0, np.maximum(np.abs(xa), np.abs(xb)))
    w1 = w2 = w3 = np.full(xa.shape, np.inf)  # bracket widths 1-3 probes back
    for _ in range(_MAX_ITERS):
        w0 = np.abs(xb - xa)
        open_lanes = lanes & (w0 > 2.0 * tol)
        if not np.any(open_lanes):
            break
        with np.errstate(invalid="ignore"):
            # an infinite end makes the secant NaN or an end, and either fails the test below
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
    convex subproblem), by a bracketed root search on its derivative over
    [beta_min, 1]. Where no uplink carries the bits the delay is +inf, and
    the incumbent factor is feasible, so the feasible factors form an
    interval around it: there the slope is -inf below the incumbent and +inf
    above. The uplink pair is refreshed at the chosen factor.
    """
    ext_coeff = sc.a * sc.A * sc.kappa * f_local**2
    lo = sc.beta_min
    hi = np.ones(sc.n)

    def slope(b: np.ndarray) -> np.ndarray:
        # devices without work have no server share, and 0/1e-300 is 0
        t_remote = _remote_cycles(sc, b) / np.maximum(f_remote, 1e-300)
        e_budget = sc.E - ext_coeff * b**-sc.k
        t_uplink, w = _uplink(sc, b * sc.A, e_budget)
        # dt/d ln b is t at peak power; on a binding budget d ln t = (1+w) d ln bits - w d ln e
        d_uplink = t_uplink
        if w is not None:
            # the lanes without an uplink are overwritten below
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                e_extract = ext_coeff * b**-sc.k
                d_uplink = t_uplink * (1.0 + w * (1.0 - sc.k * e_extract / e_budget))
            infeasible = np.isinf(t_uplink)
            if np.any(infeasible):
                d_uplink = np.where(infeasible, np.where(b < beta, -np.inf, np.inf), d_uplink)
        return -sc.k * _t_local(sc, b, f_local) + (1.0 - sc.p) * t_remote + d_uplink

    slope_lo = slope(lo)
    slope_hi = slope(hi)
    at_lo = slope_lo >= 0
    at_hi = ~at_lo & (slope_hi <= 0)
    interior = ~at_lo & ~at_hi
    xa, xb = _illinois(lambda x: slope(np.exp(x)), np.log(lo), slope_lo,
                       np.log(hi), slope_hi, interior)
    # the at-end lanes take their end exactly
    beta = np.where(interior, np.exp(0.5 * (xa + xb)), np.where(at_lo, lo, hi))
    # devices without work have zero slope, so they would sit at beta_min: pin them at 1
    beta = np.where(sc.active, np.clip(beta, lo, hi), 1.0)
    return (beta, *_transmit_block(sc, beta, f_local))


# --- public operations ------------------------------------------------------


# the closed range [lo, hi] each block input must lie in (NaN fails both
# comparisons), and the message naming the rule
_INPUT_RULES = {
    "beta": (_TINY, 1.0, "must lie in (0, 1]"),
    **{name: (_TINY, _HUGE, "must be finite and positive") for name in ("f_local", "f_remote")},
    **{name: (0.0, _HUGE, "must be finite and nonnegative")
       for name in ("t_transmit", "e_transmit")},
}


def _check_input(name: str, value: float) -> None:
    lo, hi, rule = _INPUT_RULES[name]
    if not lo <= value <= hi:
        raise ValueError(f"{name} {rule}")


def _input_column(name: str, values: Sequence[float], n: int) -> np.ndarray:
    lo, hi, rule = _INPUT_RULES[name]
    column = np.asarray(values, dtype=float)
    if column.shape != (n,):
        raise ValueError(f"{name} must list {n} numbers, not an array of shape {column.shape}")
    if not np.all((lo <= column) & (column <= hi)):
        raise ValueError(f"{name} {rule}")
    return column


def _check_allocation(sc: _Scenario, alloc: Allocation) -> None:
    if alloc.n_devices != sc.n:
        raise ValueError("allocation does not match the device list")
    vectors = (alloc.f_local, alloc.f_remote, alloc.t_transmit, alloc.e_transmit, alloc.beta)
    if not (math.isfinite(alloc.t_epigraph) and all(np.isfinite(v).all() for v in vectors)):
        raise ValueError("allocation entries must be finite")


def optimal_local_rate(td: TerminalDevice, beta: float, e_transmit: float,
                       cfg: SystemConfig) -> float:
    """Largest admissible local CPU rate given the leftover energy budget.

    Either the hardware cap or the energy budget binds; the energy-bound
    branch is the rate that spends exactly the remaining budget on
    extraction.
    """
    _check_input("beta", beta)
    _check_input("e_transmit", e_transmit)
    if td.task_bits == 0:
        return td.f_local_max
    if e_transmit >= td.energy_budget:
        raise FeasibilityError(0, FeasibilityCause.EXTRACTION_ENERGY_EXCEEDS_BUDGET,
                               "no energy left for extraction")
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
    _check_input("beta", beta)
    _check_input("f_local", f_local)
    sc = _Scenario([td], cfg)
    t, e = _transmit_block(sc, np.array([beta]), np.array([f_local]))
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
    return _remote_block(sc, _input_column("beta", beta, sc.n),
                         _input_column("f_local", f_local, sc.n),
                         _input_column("t_transmit", t_transmit, sc.n))


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
        _check_input(name, value)
    if td.task_bits == 0:
        return 1.0
    sc = _Scenario([td], cfg)
    beta = _beta_closed_form(sc, np.array([f_local]), np.array([f_remote]),
                             np.array([t_transmit]), np.array([e_transmit]))
    return float(beta[0])


def _split_server(sc: _Scenario, beta, f_local, t_transmit, e_transmit) -> Allocation:
    # completes the allocation, with its objective as the epigraph value:
    # devices without work have zero delay, and every other a positive one
    _, f_remote = _remote_block(sc, beta, f_local, t_transmit)
    return Allocation(f_local, f_remote, t_transmit, e_transmit, beta,
                      float(_delays(sc, beta, f_local, t_transmit, f_remote).max()))


def _report(sc: _Scenario, alloc: Allocation, trace: List[float], iterations: int,
            converged: bool) -> SolverReport:
    tightness = trace[-1] - _delays(sc, alloc.beta, alloc.f_local, alloc.t_transmit,
                                    alloc.f_remote)
    return SolverReport(alloc, trace, iterations, converged, tightness)


def _start(sc: _Scenario) -> Allocation:
    # no uplink carries beta*A bits on less than beta*m joules (E_b/N_0 >= ln 2), so
    # beta_min*m < E iff feasible: the factor leaves the least uplink half the budget
    # (1 without work, where m = 0), and extraction spends half of what it leaves
    with np.errstate(divide="ignore", over="ignore"):
        m = sc.A * sc.sigma2 * _LN2 / (sc.h * sc.B)
        beta = np.clip(sc.E / (2.0 * m), sc.beta_min, 1.0)
    f_local = _local_rate_block(sc, beta, 0.5 * (sc.E + beta * m))
    return _split_server(sc, beta, f_local, *_transmit_block(sc, beta, f_local))


def _at_start(sc: _Scenario) -> SolverReport:
    """The start point as a finished solve, which it is when no block couples
    to another: without work (after no iteration), and without extraction,
    where the local rate is the hardware cap and one iteration changes nothing.
    """
    alloc = _start(sc)
    return _report(sc, alloc, [alloc.t_epigraph], int(np.any(sc.active)), True)


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
        # the incumbent factor stays feasible: the local-rate block spends
        # only the energy that the uplink leaves over
        beta, t_transmit, e_transmit = _refine_block(sc, alloc.beta, alloc.f_local,
                                                     alloc.f_remote)
        # an energy-limited uplink whose extraction energy is below half an ulp
        # of the budget leaves E - e_transmit = 0 in float; the incumbent rate
        # extracts with exactly that leftover
        spent = e_transmit >= sc.E
        f_local = np.where(spent, alloc.f_local, _local_rate_block(sc, beta, e_transmit))
        candidate = _split_server(sc, beta, f_local, t_transmit, e_transmit)
        if candidate.t_epigraph > trace[-1]:
            # a rise is rounding at the optimum: the incumbent is the answer
            converged = True
            break
        alloc = candidate
        trace.append(alloc.t_epigraph)
        if abs(trace[-1] - trace[-2]) <= cfg.eps_outer * max(abs(trace[-1]), 1e-300):
            converged = True
            break
    return _report(sc, alloc, trace, iterations, converged)


def _idle_at_unit(sc: _Scenario, beta: np.ndarray,
                  f_local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # devices without work evaluated at beta = f_local = 1, where A = 0 makes
    # each closed form exactly 0 whatever the allocation holds for them
    return np.where(sc.active, beta, 1.0), np.where(sc.active, f_local, 1.0)


def log_domain_residuals(alloc: Allocation, tds: Sequence[TerminalDevice],
                         cfg: SystemConfig) -> ConstraintResiduals:
    """Signed slack of every constraint of the convexified problem.

    Positive values mean satisfied. Raises on nonpositive entries where the
    log substitution is taken, and on non-finite entries.
    """
    sc = _Scenario(tds, cfg)
    _check_allocation(sc, alloc)
    beta = alloc.beta
    f_local = alloc.f_local
    if np.any(beta <= 0) or np.any(f_local <= 0):
        raise ValueError("beta and f_local must be strictly positive")
    if np.any(alloc.t_transmit < 0) or np.any(alloc.e_transmit < 0):
        raise ValueError("uplink time and energy must be nonnegative")
    if np.any(sc.active & (alloc.f_remote <= 0)):
        raise ValueError("f_remote must be positive for devices with work")

    beta_w, f_local_w = _idle_at_unit(sc, beta, f_local)
    delays = _delays(sc, beta_w, f_local_w, alloc.t_transmit, alloc.f_remote)
    delay_cap = alloc.t_epigraph - delays
    energy = sc.E - _extraction_energy(sc, beta_w, f_local_w) - alloc.e_transmit
    rate = _bits_carried(sc, sc.h, alloc.e_transmit, alloc.t_transmit) - beta * sc.A
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
    the extraction pass as the raw-upload baseline does. Raises ValueError
    for an allocation of another length or with a non-finite entry.
    """
    sc = _Scenario(tds, cfg, extraction)
    _check_allocation(sc, alloc)
    beta, f_local = _idle_at_unit(sc, alloc.beta, alloc.f_local)
    rows = np.zeros((sc.n, 4))
    m = sc.active
    rows[m, 0] = _t_local(sc, beta, f_local)[m]
    rows[m, 1] = alloc.t_transmit[m]
    rows[m, 2] = _remote_cycles(sc, beta)[m] / alloc.f_remote[m]
    rows[:, 3] = rows[:, 0] + rows[:, 1] + rows[:, 2]
    return rows

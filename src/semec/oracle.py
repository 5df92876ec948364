"""Independent verification of solver outputs.

Two instruments: an exhaustive grid search over the raw decision variables
for one- and two-device instances, and a random feasible-perturbation check
that certifies first-order optimality of a given allocation. Both evaluate
constraints from the raw closed forms, never through solver shortcuts.

The perturbation check gathers the device parameters into arrays once and
evaluates its probes in blocks of bounded size; it stops after the first
block that holds a feasible improving probe, which gives the same answer as
checking the probes one by one and stopping at the first improving one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .model import Allocation, SystemConfig, TerminalDevice, semantic_constants
from .solver import FeasibilityCause, FeasibilityError

__all__ = ["GridSpec", "default_grid_bounds", "grid_optimum", "perturbation_certify"]

_AXES = ("beta", "f_local", "t_transmit", "e_transmit")
_N2_RESOLUTION_CAP = 32
_N2_SPLITS = 31  # k/32 for k=1..31, keeping the even split on the grid


@dataclass(frozen=True)
class GridSpec:
    """Grid resolution and per-variable [lo, hi] bounds.

    ``beta`` and ``f_local`` axes are laid out geometrically, matching the
    log substitution of the convexified problem; ``t_transmit`` and
    ``e_transmit`` linearly.
    """

    resolution_per_axis: int
    variable_bounds: Dict[str, Tuple[float, float]]

    def __post_init__(self) -> None:
        if self.resolution_per_axis < 8:
            raise ValueError("resolution_per_axis must be at least 8")
        for name in _AXES:
            if name not in self.variable_bounds:
                raise ValueError(f"missing bounds for {name}")
            lo, hi = self.variable_bounds[name]
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValueError(f"bounds for {name} must be finite and ordered")


def default_grid_bounds(tds: Sequence[TerminalDevice], cfg: SystemConfig) -> Dict[str, Tuple[float, float]]:
    """Reasonable bounds around the feasible region, from raw formulas only."""
    active = [td for td in tds if td.task_bits > 0]
    if not active:
        raise ValueError("default bounds need at least one device with work")
    sigma2 = cfg.noise_power_w
    t_caps = []
    t_floors = []
    for td in active:
        r_full = cfg.bandwidth_hz * math.log2(1.0 + td.channel_gain * td.p_tx_max / sigma2)
        t_raw = td.task_bits / r_full
        t_floors.append(0.95 * td.beta_min * t_raw)
        # widen when the peak-power upload does not fit the energy budget
        factor = 1.05 if td.p_tx_max * t_raw <= td.energy_budget else 8.0
        t_caps.append(factor * t_raw)
    t_hi = max(t_caps)
    e_caps = [min(td.energy_budget, td.p_tx_max * t_hi) for td in active]
    f_hi = max(td.f_local_max for td in active)
    return {
        "beta": (min(td.beta_min for td in active), 1.0),
        "f_local": (f_hi * 1e-3, f_hi),
        "t_transmit": (min(t_floors), t_hi),
        "e_transmit": (0.0, max(e_caps)),
    }


def _axis(lo: float, hi: float, resolution: int, geometric: bool) -> np.ndarray:
    if lo == hi:
        return np.array([lo], dtype=float)
    if geometric:
        if lo <= 0:
            raise ValueError("geometric axes need positive bounds")
        return np.geomspace(lo, hi, resolution)
    return np.linspace(lo, hi, resolution)


def _best_single(td: TerminalDevice, cfg: SystemConfig, f_share: float,
                 grid: GridSpec, resolution: int) -> Optional[Tuple[float, Tuple[float, float, float, float]]]:
    """Best feasible grid point for one device with a fixed server share."""
    a, k, p = semantic_constants(td, cfg)
    if td.task_bits == 0:
        fl = grid.variable_bounds["f_local"][1]
        return 0.0, (1.0, fl, 0.0, 0.0)

    betas = _axis(*grid.variable_bounds["beta"], resolution, geometric=True)
    f_loc = _axis(*grid.variable_bounds["f_local"], resolution, geometric=True)
    times = _axis(*grid.variable_bounds["t_transmit"], resolution, geometric=False)
    energies = _axis(*grid.variable_bounds["e_transmit"], resolution, geometric=False)

    sigma2 = cfg.noise_power_w
    bits_cap = np.zeros((times.size, energies.size))
    positive_t = times > 0
    if np.any(positive_t):
        t_col = times[positive_t][:, None]
        bits_cap[positive_t, :] = t_col * cfg.bandwidth_hz * np.log2(
            1.0 + td.channel_gain * energies[None, :] / (t_col * sigma2))
    power_ok = energies[None, :] <= td.p_tx_max * times[:, None]

    A, intensity = td.task_bits, td.intensity
    best_obj = math.inf
    best_point = None
    for b in betas:
        t_local = a * A / (b**k * f_loc)
        e_extract = a * A * td.energy_coeff * f_loc**2 / b**k
        t_remote = A * intensity * b ** (1.0 - p) / f_share

        feas_te = power_ok & (bits_cap >= b * A)
        has_e = feas_te.any(axis=1)
        if not has_e.any():
            continue
        first_e = np.argmax(feas_te, axis=1)
        e_min = np.where(has_e, energies[first_e], math.inf)

        headroom = td.energy_budget - e_extract
        feasible = e_min[None, :] <= headroom[:, None]
        if not feasible.any():
            continue
        objective = t_local[:, None] + times[None, :] + t_remote
        masked = np.where(feasible, objective, math.inf)
        flat = int(np.argmin(masked))
        value = float(masked.flat[flat])
        if value < best_obj:
            i_f, i_t = np.unravel_index(flat, masked.shape)
            best_obj = value
            best_point = (float(b), float(f_loc[i_f]), float(times[i_t]),
                          float(energies[first_e[i_t]]))
    if best_point is None:
        return None
    return best_obj, best_point


def grid_optimum(tds: Sequence[TerminalDevice], cfg: SystemConfig,
                 grid: GridSpec) -> Tuple[float, Allocation]:
    """Exhaustive min-max optimum over the grid for one or two devices.

    Every returned point is a grid point that passed the raw constraint
    checks. With two devices a shared capacity-split axis is added; devices
    decouple once the split is fixed, so each split is scanned exhaustively
    per device.
    """
    n = len(tds)
    if n == 0 or n > 2:
        raise ValueError("grid_optimum supports one or two devices")

    if n == 1:
        result = _best_single(tds[0], cfg, cfg.f_mec_total, grid, grid.resolution_per_axis)
        if result is None:
            raise FeasibilityError(0, FeasibilityCause.INVALID_SCENARIO,
                                   "no feasible grid point")
        obj, (b, fl, t, e) = result
        share = cfg.f_mec_total if tds[0].task_bits > 0 else 0.0
        alloc = Allocation(np.array([fl]), np.array([share]), np.array([t]),
                           np.array([e]), np.array([b]), obj)
        return obj, alloc

    resolution = min(grid.resolution_per_axis, _N2_RESOLUTION_CAP)
    splits = np.arange(1, _N2_SPLITS + 1) / (_N2_SPLITS + 1)
    best = None
    for s in splits:
        shares = (s * cfg.f_mec_total, (1.0 - s) * cfg.f_mec_total)
        points = [_best_single(td, cfg, share, grid, resolution)
                  for td, share in zip(tds, shares)]
        if any(pt is None for pt in points):
            continue
        objective = max(pt[0] for pt in points)
        if best is None or objective < best[0]:
            best = (objective, shares, [pt[1] for pt in points])
    if best is None:
        raise FeasibilityError(-1, FeasibilityCause.INVALID_SCENARIO,
                               "no feasible grid point")
    objective, shares, pts = best
    alloc = Allocation(
        np.array([pt[1] for pt in pts]),
        np.array([share if td.task_bits > 0 else 0.0 for td, share in zip(tds, shares)]),
        np.array([pt[2] for pt in pts]),
        np.array([pt[3] for pt in pts]),
        np.array([pt[0] for pt in pts]),
        objective,
    )
    return objective, alloc


_BASE_TOL = 1e-9  # the allocation under test
_PROBE_TOL = 1e-12  # each perturbed probe
_BLOCK_ENTRIES = 2**14  # probe entries per block: 128 KB per float64 temporary
_STRUCTURED_DEVICES = 32  # devices that get their own structured direction pair
_UPLINK_AXES = (0, 3, 4)  # beta, t_transmit, e_transmit in a (5, n) probe
_SERVER_AXIS = 2  # f_remote in a (5, n) probe


class _DeviceArrays:
    """Device parameters as arrays, gathered once per certificate.

    Probes are stacked as ``(rows, 5, n)`` in the order (beta, f_local,
    f_remote, t_transmit, e_transmit). Devices without task bits enter the
    box, power and capacity checks only.
    """

    def __init__(self, tds: Sequence[TerminalDevice], cfg: SystemConfig) -> None:
        n = len(tds)

        def column(name: str) -> np.ndarray:
            return np.fromiter((getattr(td, name) for td in tds), float, n)

        a, k, p = np.array([semantic_constants(td, cfg) for td in tds], float).reshape(n, 3).T
        bits = column("task_bits")
        self.n = n
        self.beta_min = column("beta_min")
        self.f_local_max = column("f_local_max")
        self.p_tx_max = column("p_tx_max")
        self.work = np.flatnonzero(bits != 0)
        w = self.work
        self.task_bits = bits[w]
        self.extract_cycles = a[w] * bits[w]
        self.extract_coeff = self.extract_cycles * column("energy_coeff")[w]
        self.server_cycles = bits[w] * column("intensity")[w]
        self.k = k[w]
        self.q = 1.0 - p[w]
        self.energy_budget = column("energy_budget")[w]
        self.channel_gain = column("channel_gain")[w]
        self.f_mec_total = cfg.f_mec_total
        self.bandwidth_hz = cfg.bandwidth_hz
        self.noise_power_w = cfg.noise_power_w

    def feasible(self, x: np.ndarray, tol: float) -> np.ndarray:
        """Which probe rows satisfy every constraint, to relative ``tol``.

        The box, power and capacity checks run on all rows; the energy and
        rate checks only on the rows that pass them.
        """
        beta, f_local, f_remote, t, e = x.transpose(1, 0, 2)
        ok = np.all((self.beta_min * (1 - tol) <= beta) & (beta <= 1 + tol)
                    & (f_local > 0) & (f_local <= self.f_local_max * (1 + tol))
                    & (e >= -tol) & (t >= -tol)
                    & (e <= self.p_tx_max * t * (1 + tol) + 1e-300), axis=1)
        if self.n:
            # summed in device order, so it rounds as a running sum over the devices
            ok &= np.add.accumulate(f_remote, axis=1)[:, -1] <= self.f_mec_total * (1 + tol)
        rows = np.flatnonzero(ok)
        if rows.size == 0 or self.work.size == 0:
            return ok
        beta, f_local, _, t, e = x[rows][:, :, self.work].transpose(1, 0, 2)
        e_extract = self.extract_coeff * f_local**2 / beta**self.k
        holds = e_extract + e <= self.energy_budget * (1 + tol)
        sends = t > 0
        t = np.where(sends, t, 1.0)
        snr = 1.0 + self.channel_gain * e / (t * self.noise_power_w)
        cap = t * self.bandwidth_hz * np.log2(snr, out=np.full_like(snr, -np.inf),
                                              where=snr > 0)
        holds &= sends & (cap >= beta * self.task_bits * (1 - tol))
        ok[rows] = np.all(holds, axis=1)
        return ok

    def max_delay(self, x: np.ndarray) -> np.ndarray:
        """Worst per-device delay of each probe row, over devices with work."""
        beta, f_local, f_remote, t, _ = x[:, :, self.work].transpose(1, 0, 2)
        delay = (self.extract_cycles / (beta**self.k * f_local) + t
                 + self.server_cycles * beta**self.q / f_remote)
        return delay.max(axis=1, initial=0.0)


def _directions(start: int, stop: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit probe directions ``start`` to ``stop - 1``, shaped ``(rows, 5, n)``.

    The structured family comes first: plus and minus the joint (beta,
    t_transmit, e_transmit) direction over all devices, plus and minus all
    f_remote (which improves wherever server capacity is left unused), then
    the joint pair on each of the first 32 devices alone. The
    deliverable-bits constraint is 1-homogeneous in (time, energy), so
    scaling the factor and the uplink pair together walks exactly along a
    tight rate constraint; these directions expose suboptimal points whose
    improving cone is too narrow for isotropic sampling to hit. Isotropic
    Gaussian draws from ``rng`` follow.
    """
    n_structured = 4 + 2 * min(n, _STRUCTURED_DEVICES)
    z = np.zeros((stop - start, 5, n))
    for row, index in enumerate(range(start, min(stop, n_structured))):
        axes = _SERVER_AXIS if 2 <= index < 4 else _UPLINK_AXES
        devices = slice(None) if index < 4 else (index - 4) // 2
        z[row, axes, devices] = 1.0 if index % 2 == 0 else -1.0
    drawn = stop - max(start, n_structured)
    if drawn > 0:
        z[-drawn:] = rng.standard_normal((drawn, 5 * n)).reshape(drawn, 5, n)
    # one dot product per row, the rounding of np.linalg.norm on a vector
    norms = np.sqrt([row.dot(row) for row in z.reshape(len(z), -1)])
    z /= (norms + 1e-300)[:, None, None]
    return z


def perturbation_certify(alloc: Allocation, tds: Sequence[TerminalDevice],
                         cfg: SystemConfig, n_probes: int, step: float,
                         seed: int = 0) -> bool:
    """First-order optimality check by random feasible perturbations.

    Moves the allocation by ``step`` along unit directions over the
    log-domain decision coordinates (a structured family first, isotropic
    draws from ``default_rng(seed)`` after), discards infeasible probes, and
    reports False if a feasible probe improves the objective by more than
    the second-order allowance step^2 * objective. For a convex problem
    this certifies (approximate) optimality.

    Probes are checked in blocks of at most 2**14 / (5n) rows (at least
    one), so memory stays bounded whatever ``n_probes`` is, and the search
    stops after the first block holding an improving probe. The result is
    the one a probe-by-probe loop with early exit gives.

    Raises ValueError for a nonpositive ``step``, and for an allocation that
    does not match the devices in length, holds a non-finite entry, leaves a
    device with work without server share, or violates a constraint by more
    than a relative 1e-9.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    n = len(tds)
    if alloc.n_devices != n:
        raise ValueError("allocation and devices must have the same length")
    devices = _DeviceArrays(tds, cfg)
    base = np.stack([alloc.beta, alloc.f_local, alloc.f_remote, alloc.t_transmit,
                     alloc.e_transmit])
    if not (np.all(np.isfinite(base)) and np.all(base[2, devices.work] > 0)
            and devices.feasible(base[None], _BASE_TOL)[0]):
        raise ValueError("allocation must be feasible before certification")
    worst = devices.max_delay(base[None])[0]
    allowance = step * step * max(worst, 1e-300)

    rng = np.random.default_rng(seed)
    rows = max(1, _BLOCK_ENTRIES // (5 * max(n, 1)))
    for start in range(0, n_probes, rows):
        probes = _directions(start, min(start + rows, n_probes), n, rng)
        probes *= step
        np.exp(probes, out=probes)
        probes *= base
        improved = worst - devices.max_delay(probes[devices.feasible(probes, _PROBE_TOL)])
        if np.any(improved > allowance):
            return False
    return True

"""Independent verification of solver outputs.

Two instruments: an exhaustive grid search over the raw decision variables
for one- and two-device instances, and a random feasible-perturbation check
that certifies first-order optimality of a given allocation. Both evaluate
constraints from the raw closed forms, never through solver shortcuts.

Both read the devices through one device view, taken from the device table,
which holds the oracle's own copy of each closed form. The grid finds each
device's least local-plus-uplink time once per grid factor; a server split
then only adds the remote time.

The perturbation check's verdict is an OR over the probes, so it may
evaluate them in any order and stop at the first group that holds a feasible
improving probe; it gives the answer of a probe-by-probe loop. It evaluates
the probes that move every device first, then those that move one device
(from that device's moved point and the base's per-device checks and delays,
in O(1) per probe), then the isotropic draws. Dense probes go in blocks of
bounded size, and each block computes its factor coordinates first and
builds in full only the rows whose factors stay in their box. A direction
set that fits in one block is cached read-only, so the cells of a sweep draw
it once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .model import Allocation, DeviceTable, SystemConfig, TerminalDevice, check_number
from .solver import FeasibilityCause, FeasibilityError

__all__ = ["GridSpec", "default_grid_bounds", "grid_optimum", "perturbation_certify"]

_AXES = ("beta", "f_local", "t_transmit", "e_transmit")
_GEOMETRIC = ("beta", "f_local")
# rates read log2(1 + x) as log1p(x)/ln 2, which keeps the digits of a low SNR
_LN2 = math.log(2.0)
_N2_RESOLUTION_CAP = 32
_N2_SPLITS = 31  # k/32 for k=1..31, keeping the even split on the grid


@dataclass(frozen=True)
class GridSpec:
    """Grid resolution and per-variable [lo, hi] bounds.

    ``beta`` and ``f_local`` axes are laid out geometrically, matching the
    log substitution of the convexified problem; ``t_transmit`` and
    ``e_transmit`` linearly.

    By the package's one rule table, ``resolution_per_axis`` is an integer
    (no bool) of at least 8 and each bound a finite real number, an integer
    that no float holds failing like inf; each axis has bounds lo <= hi. A
    violation raises ValueError naming the field.
    """

    resolution_per_axis: int
    variable_bounds: Dict[str, Tuple[float, float]]

    def __post_init__(self) -> None:
        check_number("resolution_per_axis", self.resolution_per_axis)
        for name in _AXES:
            if name not in self.variable_bounds:
                raise ValueError(f"missing bounds for {name}")
            lo, hi = self.variable_bounds[name]
            check_number("variable_bounds", lo)
            check_number("variable_bounds", hi)
            if not lo <= hi:
                raise ValueError(f"variable_bounds for {name} must be ordered")


class _DeviceArrays:
    """Device parameters as arrays, taken once per grid or certificate call.

    It holds the oracle's one copy of each closed form: the extraction
    energy, the bits an uplink carries, the local time and the remote cycles.
    Each takes ``slot`` and broadcasts over its other arguments.

    Probes are stacked as ``(rows, 5, n)`` in the order (beta, f_local,
    f_remote, t_transmit, e_transmit). Devices without task bits enter the
    box, power and capacity checks only. The per-device checks and the delay
    are elementwise: a dense probe broadcasts them over every device, and a
    probe that moves one device gathers that device's parameters through
    ``dev`` (an index into all devices) or ``slot`` (an index into the
    devices with work).
    """

    def __init__(self, tds: Sequence[TerminalDevice], cfg: SystemConfig) -> None:
        table = DeviceTable.from_devices(tds)
        a, k, p = table.semantic_constants(cfg)
        bits = table.task_bits
        self.n = len(table)
        self.beta_min = table.beta_min
        self.f_local_max = table.f_local_max
        self.p_tx_max = table.p_tx_max
        self.work = np.flatnonzero(bits != 0)
        w = self.work
        self.slot = np.full(self.n, -1)  # each device's place among those with work
        self.slot[w] = np.arange(w.size)
        self.task_bits = bits[w]
        self.extract_cycles = a[w] * bits[w]
        self.extract_coeff = self.extract_cycles * table.energy_coeff[w]
        self.server_cycles = bits[w] * table.intensity[w]
        self.k = k[w]
        self.q = 1.0 - p[w]
        self.energy_budget = table.energy_budget[w]
        self.channel_gain = table.channel_gain[w]
        self.f_mec_total = cfg.f_mec_total
        self.bandwidth_hz = cfg.bandwidth_hz
        self.noise_power_w = cfg.noise_power_w

    def factor_in_box(self, beta: np.ndarray, tol: float, dev=slice(None)) -> np.ndarray:
        return (self.beta_min[dev] * (1 - tol) <= beta) & (beta <= 1 + tol)

    def in_box(self, beta, f_local, t, e, tol: float, dev=slice(None)) -> np.ndarray:
        """The box and power checks of each device."""
        return (self.factor_in_box(beta, tol, dev)
                & (f_local > 0) & (f_local <= self.f_local_max[dev] * (1 + tol))
                & (e >= -tol) & (t >= -tol)
                & (e <= self.p_tx_max[dev] * t * (1 + tol) + 1e-300))

    def extraction_energy(self, beta, f_local, slot=slice(None)) -> np.ndarray:
        return self.extract_coeff[slot] * f_local**2 / beta**self.k[slot]

    def bits_carried(self, t, e, slot=slice(None)) -> np.ndarray:
        """The bits an uplink of time ``t`` > 0 and energy ``e`` carries."""
        snr = self.channel_gain[slot] * e / (t * self.noise_power_w)
        return t * self.bandwidth_hz * np.log1p(snr, out=np.full_like(snr, -np.inf),
                                                where=snr > -1.0) / _LN2

    def local_time(self, beta, f_local, slot=slice(None)) -> np.ndarray:
        return self.extract_cycles[slot] / (beta**self.k[slot] * f_local)

    def remote_cycles(self, beta, slot=slice(None)) -> np.ndarray:
        return self.server_cycles[slot] * beta**self.q[slot]

    def holds(self, beta, f_local, t, e, tol: float, slot=slice(None)) -> np.ndarray:
        """The energy and rate checks of each device with work."""
        e_extract = self.extraction_energy(beta, f_local, slot)
        ok = e_extract + e <= self.energy_budget[slot] * (1 + tol)
        sends = t > 0
        cap = self.bits_carried(np.where(sends, t, 1.0), e, slot)
        return ok & sends & (cap >= beta * self.task_bits[slot] * (1 - tol))

    def delay(self, beta, f_local, f_remote, t, slot=slice(None)) -> np.ndarray:
        """The delay of each device with work."""
        return (self.local_time(beta, f_local, slot) + t
                + self.remote_cycles(beta, slot) / f_remote)

    def fits_server(self, f_remote: np.ndarray, tol: float) -> np.ndarray:
        # summed in device order, so it rounds as a running sum over the devices
        return np.add.accumulate(f_remote, axis=-1)[..., -1] <= self.f_mec_total * (1 + tol)

    def feasible(self, x: np.ndarray, tol: float) -> np.ndarray:
        """Which probe rows satisfy every constraint, to relative ``tol``.

        The box, power and capacity checks run on all rows; the energy and
        rate checks only on the rows that pass them.
        """
        beta, f_local, f_remote, t, e = x.transpose(1, 0, 2)
        ok = np.all(self.in_box(beta, f_local, t, e, tol), axis=1)
        if self.n:
            ok &= self.fits_server(f_remote, tol)
        rows = np.flatnonzero(ok)
        if rows.size == 0 or self.work.size == 0:
            return ok
        beta, f_local, _, t, e = x[rows][:, :, self.work].transpose(1, 0, 2)
        ok[rows] = np.all(self.holds(beta, f_local, t, e, tol), axis=1)
        return ok

    def max_delay(self, x: np.ndarray) -> np.ndarray:
        """Worst per-device delay of each probe row, over devices with work."""
        beta, f_local, f_remote, t, _ = x[:, :, self.work].transpose(1, 0, 2)
        return self.delay(beta, f_local, f_remote, t).max(axis=1, initial=0.0)


def default_grid_bounds(tds: Sequence[TerminalDevice], cfg: SystemConfig) -> Dict[str, Tuple[float, float]]:
    """Reasonable bounds around the feasible region, from raw formulas only."""
    devices = _DeviceArrays(tds, cfg)
    w = devices.work
    if w.size == 0:
        raise ValueError("default bounds need at least one device with work")
    p_max, beta_min, f_max = devices.p_tx_max[w], devices.beta_min[w], devices.f_local_max[w]
    rate = devices.bandwidth_hz * np.log1p(
        devices.channel_gain * p_max / devices.noise_power_w) / _LN2
    t_raw = devices.task_bits / rate
    # widen when the peak-power upload does not fit the energy budget
    t_hi = (np.where(p_max * t_raw <= devices.energy_budget, 1.05, 8.0) * t_raw).max()
    f_hi = f_max.max()
    return {
        "beta": (float(beta_min.min()), 1.0),
        "f_local": (float(f_hi * 1e-3), float(f_hi)),
        "t_transmit": (float((0.95 * beta_min * t_raw).min()), float(t_hi)),
        "e_transmit": (0.0, float(np.minimum(devices.energy_budget, p_max * t_hi).max())),
    }


def _axis(lo: float, hi: float, resolution: int, geometric: bool) -> np.ndarray:
    if lo == hi:
        return np.array([lo], dtype=float)
    if geometric:
        if lo <= 0:
            raise ValueError("geometric axes need positive bounds")
        return np.geomspace(lo, hi, resolution)
    return np.linspace(lo, hi, resolution)


def _fastest_points(devices: _DeviceArrays, slot: int, betas: np.ndarray, f_loc: np.ndarray,
                    times: np.ndarray, energies: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Per grid factor, the least local-plus-uplink time of device ``slot``.

    Returns that time (inf where no grid point is feasible), its point as
    (beta, f_local, t_transmit, e_transmit) rows, and the remote cycles. The
    factors are read one at a time, so each power is numpy's scalar power.
    """
    sends = times > 0
    bits = devices.bits_carried(np.where(sends, times, 1.0)[:, None], energies[None, :], slot)
    sendable = sends[:, None] & (energies[None, :] <= devices.p_tx_max[devices.work[slot]]
                                 * times[:, None])
    least = np.full(betas.size, math.inf)
    points = np.zeros((betas.size, 4))
    cycles = np.zeros(betas.size)
    for i, b in enumerate(betas):
        carried = sendable & (bits >= b * devices.task_bits[slot])
        first_e = np.argmax(carried, axis=1)
        e_min = np.where(carried.any(axis=1), energies[first_e], math.inf)
        headroom = devices.energy_budget[slot] - devices.extraction_energy(b, f_loc, slot)
        masked = np.where(e_min[None, :] <= headroom[:, None],
                          devices.local_time(b, f_loc, slot)[:, None] + times[None, :], math.inf)
        flat = int(np.argmin(masked))
        i_f, i_t = np.unravel_index(flat, masked.shape)
        least[i] = masked.flat[flat]
        points[i] = b, f_loc[i_f], times[i_t], energies[first_e[i_t]]
        cycles[i] = devices.remote_cycles(b, slot)
    return least, points, cycles


def grid_optimum(tds: Sequence[TerminalDevice], cfg: SystemConfig,
                 grid: GridSpec) -> Tuple[float, Allocation]:
    """Exhaustive min-max optimum over the grid for one or two devices.

    Every returned point is a grid point that passed the raw constraint
    checks. With two devices a shared capacity-split axis is added; devices
    decouple once the split is fixed. The grid reads the devices through the
    certificate's device view and its closed forms. Per device and grid
    factor, the least local-plus-uplink time, its point and its remote cycles
    are found once, and each split adds only the remote time cycles / share.
    Raises :class:`FeasibilityError` naming the first device without a
    feasible grid point.
    """
    n = len(tds)
    if n == 0 or n > 2:
        raise ValueError("grid_optimum supports one or two devices")
    if n == 1:
        splits, resolution = np.ones(1), grid.resolution_per_axis
    else:
        splits = np.arange(1, _N2_SPLITS + 1) / (_N2_SPLITS + 1)
        resolution = min(grid.resolution_per_axis, _N2_RESOLUTION_CAP)
    shares = np.stack([splits, 1.0 - splits], axis=1)[:, :n] * cfg.f_mec_total
    devices = _DeviceArrays(tds, cfg)
    axes = [_axis(*grid.variable_bounds[name], resolution, geometric=name in _GEOMETRIC)
            for name in _AXES]
    # a device without work sits at the unit factor and the local-rate cap, idle
    delays = np.zeros(shares.shape)
    points = np.tile([1.0, grid.variable_bounds["f_local"][1], 0.0, 0.0], shares.shape + (1,))
    for dev, slot in enumerate(devices.slot):
        if slot < 0:
            continue
        least, fastest, cycles = _fastest_points(devices, slot, *axes)
        if np.isinf(least).all():
            raise FeasibilityError(dev, FeasibilityCause.INVALID_SCENARIO,
                                   "no feasible grid point")
        # ties go to the first factor, and then to the first split
        values = least + cycles / shares[:, dev, None]
        delays[:, dev] = values.min(axis=1)
        points[:, dev] = fastest[np.argmin(values, axis=1)]
    split = int(np.argmin(delays.max(axis=1)))
    objective = float(delays[split].max())
    beta, f_local, t, e = points[split].T
    alloc = Allocation(f_local, np.where(devices.slot >= 0, shares[split], 0.0), t, e, beta,
                       objective)
    return objective, alloc


_BASE_TOL = 1e-9  # the allocation under test
_PROBE_TOL = 1e-12  # each perturbed probe
_BLOCK_ENTRIES = 2**14  # probe entries per block: 128 KB per float64 temporary
_STRUCTURED_DEVICES = 32  # devices that get their own structured direction pair
_SHARED_PROBES = 4  # the structured probes that move every device at once
_UPLINK_AXES = (0, 3, 4)  # beta, t_transmit, e_transmit in a (5, n) probe
_SERVER_AXIS = 2  # f_remote in a (5, n) probe


def _directions(start: int, stop: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit directions ``start`` to ``stop - 1`` of the dense probes, shaped ``(rows, 5, n)``.

    The four that move every device come first: plus and minus the joint
    (beta, t_transmit, e_transmit) direction over all devices, plus and minus
    all f_remote (which improves wherever server capacity is left unused).
    The deliverable-bits constraint is 1-homogeneous in (time, energy), so
    scaling the factor and the uplink pair together walks exactly along a
    tight rate constraint; these directions, and the pair on each of the
    first 32 devices alone, which needs no row, expose suboptimal points
    whose improving cone is too narrow for isotropic sampling to hit.
    Isotropic Gaussian draws from ``rng`` follow.
    """
    z = np.zeros((stop - start, 5, n))
    for row, index in enumerate(range(start, min(stop, _SHARED_PROBES))):
        z[row, _SERVER_AXIS if index >= 2 else _UPLINK_AXES] = 1.0 if index % 2 == 0 else -1.0
    drawn = stop - max(start, _SHARED_PROBES)
    if drawn > 0:
        z[-drawn:] = rng.standard_normal((drawn, 5 * n)).reshape(drawn, 5, n)
    # one dot product per row, the rounding of np.linalg.norm on a vector
    norms = np.sqrt([row.dot(row) for row in z.reshape(len(z), -1)])
    z /= (norms + 1e-300)[:, None, None]
    return z


@functools.lru_cache(maxsize=1)
def _sweep_directions(n: int, dense: int, seed: int) -> np.ndarray:
    """All ``dense`` unit directions of the dense probes at once, read-only.

    Used only when every probe fits in one block, so the cached array stays
    within ``_BLOCK_ENTRIES`` entries. The cells of a sweep share (n, dense,
    seed), so they draw the set once.
    """
    units = _directions(0, dense, n, np.random.default_rng(seed))
    units.flags.writeable = False
    return units


class _Probes:
    """The allocation under test and the allowance its probes must beat."""

    def __init__(self, devices: _DeviceArrays, base: np.ndarray, step: float) -> None:
        self.devices = devices
        self.base = base
        self.step = step
        self.worst = devices.max_delay(base[None])[0]
        self.allowance = step * step * max(self.worst, 1e-300)

    def dense_improves(self, units: np.ndarray) -> bool:
        """Whether a feasible probe along one of ``units`` beats the allowance.

        The factor coordinates come first: a row that moves some factor out
        of its box fails ``feasible`` anyway, so only the other rows are
        built in full.
        """
        devices, base, step = self.devices, self.base, self.step
        beta = units[:, 0] * step
        np.exp(beta, out=beta)
        beta *= base[0]
        rows = np.flatnonzero(np.all(devices.factor_in_box(beta, _PROBE_TOL), axis=1))
        if rows.size == 0:
            return False
        probes = units[rows] * step
        np.exp(probes, out=probes)
        probes *= base
        improved = self.worst - devices.max_delay(probes[devices.feasible(probes, _PROBE_TOL)])
        return bool(np.any(improved > self.allowance))

    def single_device_improves(self, stop: int) -> bool:
        """Whether a feasible probe among 4 to ``stop - 1`` beats the allowance.

        Probe j scales the (beta, t_transmit, e_transmit) of device (j - 4)
        // 2 by exp(+-step / sqrt(3)), the value its unit direction holds,
        and leaves every other coordinate at exp(0) * base, the base bit for
        bit. So it is feasible iff that device passes its checks at the moved
        point, every other device passes its checks at the base, and the
        base fits the server; its max delay is the larger of the device's new
        delay and the largest base delay among the other devices with work.
        """
        devices, base = self.devices, self.base
        index = np.arange(_SHARED_PROBES, stop)
        if index.size == 0 or devices.work.size == 0:
            return False
        beta0, f_local0, f_remote0, t0, e0 = base
        w = devices.work
        base_ok = devices.in_box(beta0, f_local0, t0, e0, _PROBE_TOL)
        base_ok[w] &= devices.holds(beta0[w], f_local0[w], t0[w], e0[w], _PROBE_TOL)
        # each probe moves one device, so at most one may fail at the base
        failing = np.flatnonzero(~base_ok)
        if failing.size > 1 or not devices.fits_server(f_remote0, _PROBE_TOL):
            return False
        dev = (index - _SHARED_PROBES) // 2
        slot = devices.slot[dev]
        # a probe on a device without work leaves the max delay where it was
        moves = slot >= 0
        if failing.size:
            moves &= dev == failing[0]
        index, dev, slot = index[moves], dev[moves], slot[moves]
        shift = np.where(index % 2 == 0, 1.0, -1.0) / (np.sqrt(3.0) + 1e-300)
        shift *= self.step
        np.exp(shift, out=shift)
        beta, t, e = shift * base[np.ix_(_UPLINK_AXES, dev)]
        f_local, f_remote = f_local0[dev], f_remote0[dev]
        ok = devices.in_box(beta, f_local, t, e, _PROBE_TOL, dev)
        ok[ok] = devices.holds(beta[ok], f_local[ok], t[ok], e[ok], _PROBE_TOL, slot[ok])
        if not ok.any():
            return False
        delay = devices.delay(beta[ok], f_local[ok], f_remote[ok], t[ok], slot[ok])
        base_delay = devices.delay(beta0[w], f_local0[w], f_remote0[w], t0[w])
        top = np.argmax(base_delay)
        others = np.where(slot[ok] == top, np.delete(base_delay, top).max(initial=0.0),
                          base_delay[top])
        return bool(np.any(self.worst - np.maximum(delay, others) > self.allowance))


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

    The verdict is an OR over the probes, so they are evaluated in three
    groups, stopping at the first block that holds an improving probe: the
    four probes that move every device; then the probes that move one
    device each, from that device's moved point and the base's per-device
    checks and delays, with no dense row; then the isotropic draws.

    The dense probes go in blocks of at most 2**14 / (5n) rows (at least
    one), so memory stays bounded whatever ``n_probes`` is. Each block first
    computes only the factor coordinates and drops the rows that leave the
    factor box, which no feasible probe does; only the other rows are built
    in full. When every probe fits in one block, the dense directions depend
    only on (n, n_probes, seed), and the last such set is cached read-only,
    so the cells of a sweep draw it once.

    By the package's one rule table, ``step`` is finite and positive and
    ``n_probes`` and ``seed`` are nonnegative integers (no bool), an integer
    that no float holds failing like inf; a violation raises ValueError
    naming the argument, as does an allocation that does not match the
    devices in length, holds a non-finite entry, leaves a device with work
    without server share, or violates a constraint by more than a relative
    1e-9.
    """
    check_number("step", step)
    check_number("n_probes", n_probes)
    check_number("seed", seed)
    n = len(tds)
    if alloc.n_devices != n:
        raise ValueError("allocation and devices must have the same length")
    devices = _DeviceArrays(tds, cfg)
    base = np.stack([alloc.beta, alloc.f_local, alloc.f_remote, alloc.t_transmit,
                     alloc.e_transmit])
    if not (np.all(np.isfinite(base)) and np.all(base[2, devices.work] > 0)
            and devices.feasible(base[None], _BASE_TOL)[0]):
        raise ValueError("allocation must be feasible before certification")
    probes = _Probes(devices, base, step)

    shared = min(_SHARED_PROBES, n_probes)
    structured = min(_SHARED_PROBES + 2 * min(n, _STRUCTURED_DEVICES), n_probes)
    rows = max(1, _BLOCK_ENTRIES // (5 * max(n, 1)))
    dense = shared + n_probes - structured  # no row moves one device alone
    if 0 < n_probes <= rows:
        units = _sweep_directions(n, dense, seed)
        shared_blocks, drawn_blocks = [units[:shared]], [units[shared:]]
    else:
        rng = np.random.default_rng(seed)
        shared_blocks = (_directions(start, min(start + rows, shared), n, rng)
                         for start in range(0, shared, rows))
        drawn_blocks = (_directions(start, min(start + rows, dense), n, rng)
                        for start in range(shared, dense, rows))
    return not (any(probes.dense_improves(units) for units in shared_blocks)
                or probes.single_device_improves(structured)
                or any(probes.dense_improves(units) for units in drawn_blocks))

"""System model for semantic-aware edge offloading.

Holds the per-device and system-wide parameter types, the closed-form delay
and energy components of the compute-then-transmit protocol, and channel
gain synthesis from distances.

Unit conventions are fixed and nothing auto-converts: bits, Hz, seconds,
joules, watts, CPU cycles, and dimensionless linear power gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "TerminalDevice",
    "SystemConfig",
    "DeviceAllocation",
    "Allocation",
    "DelayBreakdown",
    "EnergyBreakdown",
    "noise_power_watts",
    "generate_channel_gains",
    "semantic_constants",
    "extraction_workload",
    "intensity_ratio",
    "achievable_rate",
    "uplink_bits_capacity",
    "delay_breakdown",
    "energy_breakdown",
]

_DBM_PER_WATT = 30.0


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class TerminalDevice:
    """One terminal device holding a task of ``task_bits`` raw bits.

    ``intensity`` is the server-side workload per raw bit (cycles/bit),
    ``energy_coeff`` the switched-capacitance constant of the local CPU
    (J*s^2/cycles^3), and ``channel_gain`` the linear uplink power gain.
    ``beta_min`` is the smallest extraction factor that still preserves the
    required task accuracy. ``distance`` is only carried for provenance when
    the gain was derived from a path-loss model.

    The semantic workload constants may be overridden per device; ``None``
    defers to the system-wide values.
    """

    task_bits: float
    intensity: float
    energy_coeff: float
    f_local_max: float
    p_tx_max: float
    beta_min: float
    energy_budget: float
    channel_gain: float
    distance: Optional[float] = None
    sem_a: Optional[float] = None
    sem_k: Optional[float] = None
    sem_p: Optional[float] = None

    def __post_init__(self) -> None:
        # chained comparisons also reject NaN; messages are formatted only on
        # failure, since scenarios build devices by the hundred thousand
        _require(0 <= self.task_bits < math.inf, "task_bits must be finite and nonnegative")
        for name in ("intensity", "energy_coeff", "f_local_max", "p_tx_max",
                     "energy_budget", "channel_gain"):
            if not 0 < float(getattr(self, name)) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        _require(0 < self.beta_min <= 1, "beta_min must lie in (0, 1]")
        if self.distance is not None:
            _require(0 < self.distance < math.inf, "distance must be finite and positive")
        for name in ("sem_a", "sem_k", "sem_p"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive when given")


@dataclass(frozen=True)
class SystemConfig:
    """Scenario-wide parameters and solver tolerances.

    ``noise_psd_dbm_hz`` is a power spectral density; the rate formula uses
    the integrated noise power over one sub-channel of ``bandwidth_hz``.
    Defaults reproduce the reference simulation setup. Every field must be
    finite. ``eps_bisect_capacity`` bounds the Newton solve of the server
    split; ``eps_bisect_transmit`` is only an upper bound on the uplink
    time's error, which the exact uplink solve always meets.
    """

    n_devices: int
    bandwidth_hz: float = 1e6
    noise_psd_dbm_hz: float = -174.0
    f_mec_total: float = 13e9
    sem_a: float = 1e-5
    sem_k: float = 4.0
    sem_p: float = 3.0
    eps_bisect_capacity: float = 1e-7
    eps_bisect_transmit: float = 1e-7
    eps_outer: float = 1e-6
    max_outer_iters: int = 100

    def __post_init__(self) -> None:
        _require(1 <= self.n_devices < math.inf, "n_devices must be a positive integer")
        _require(abs(self.noise_psd_dbm_hz) < math.inf, "noise_psd_dbm_hz must be finite")
        for name in ("bandwidth_hz", "f_mec_total", "sem_a", "sem_k", "sem_p",
                     "eps_bisect_capacity", "eps_bisect_transmit", "eps_outer"):
            _require(0 < float(getattr(self, name)) < math.inf,
                     f"{name} must be finite and positive")
        _require(1 <= self.max_outer_iters < math.inf, "max_outer_iters must be positive")

    @property
    def noise_power_w(self) -> float:
        return noise_power_watts(self.noise_psd_dbm_hz, self.bandwidth_hz)


@dataclass(frozen=True)
class DeviceAllocation:
    """Decision variables of a single device."""

    f_local: float
    f_remote: float
    t_transmit: float
    e_transmit: float
    beta: float


@dataclass(frozen=True)
class Allocation:
    """One full decision vector plus the epigraph value ``t_epigraph``.

    Per-device entries are aligned with the scenario's device list.
    """

    f_local: np.ndarray
    f_remote: np.ndarray
    t_transmit: np.ndarray
    e_transmit: np.ndarray
    beta: np.ndarray
    t_epigraph: float

    def __post_init__(self) -> None:
        for name in ("f_local", "f_remote", "t_transmit", "e_transmit", "beta"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.f_local.shape[0]
        for name in ("f_remote", "t_transmit", "e_transmit", "beta"):
            _require(getattr(self, name).shape == (n,), "allocation vectors must share one length")
        _require(self.t_epigraph >= 0, "t_epigraph must be nonnegative")

    @property
    def n_devices(self) -> int:
        return int(self.f_local.shape[0])

    def device(self, index: int) -> DeviceAllocation:
        return DeviceAllocation(
            f_local=float(self.f_local[index]),
            f_remote=float(self.f_remote[index]),
            t_transmit=float(self.t_transmit[index]),
            e_transmit=float(self.e_transmit[index]),
            beta=float(self.beta[index]),
        )


@dataclass(frozen=True)
class DelayBreakdown:
    """Per-device delay components: extraction, uplink, remote execution."""

    t_local: float
    t_transmit: float
    t_remote: float
    total: float


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-device energy components: local extraction and transmission."""

    e_compute: float
    e_transmit: float
    total: float


def noise_power_watts(noise_psd_dbm_hz: float, bandwidth_hz: float) -> float:
    """Integrated noise power over one sub-channel, in watts."""
    _require(bandwidth_hz > 0, "bandwidth_hz must be positive")
    dbm = noise_psd_dbm_hz + 10.0 * math.log10(bandwidth_hz)
    return 10.0 ** ((dbm - _DBM_PER_WATT) / 10.0)


def generate_channel_gains(
    distances_m: Sequence[float], fading_seed: Optional[int] = None
) -> np.ndarray:
    """Linear uplink power gains for the given distances.

    Optionally multiplies each gain by a unit-mean exponential fading draw
    from a seeded generator, so identical (distances, seed) inputs always
    yield identical gains.
    """
    d = np.asarray(distances_m, dtype=float)
    if d.size and np.any(d <= 0):
        raise ValueError("distances must be positive")
    losses = 128.1 + 37.6 * np.log10(d / 1000.0)
    gains = 10.0 ** (-losses / 10.0)
    if fading_seed is not None:
        rng = np.random.default_rng(fading_seed)
        gains = gains * rng.exponential(1.0, size=d.shape)
    return gains


def semantic_constants(td: TerminalDevice, cfg: SystemConfig) -> tuple[float, float, float]:
    """Effective (a, k, p) for a device, honoring per-device overrides."""
    a = cfg.sem_a if td.sem_a is None else td.sem_a
    k = cfg.sem_k if td.sem_k is None else td.sem_k
    p = cfg.sem_p if td.sem_p is None else td.sem_p
    return a, k, p


def extraction_workload(td: TerminalDevice, beta: float, cfg: SystemConfig) -> float:
    """Local semantic-extraction workload in CPU cycles: a*A/beta^k.

    Strictly decreasing in ``beta``: keeping more of the raw data takes less
    effort to extract.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    a, k, _ = semantic_constants(td, cfg)
    return a * td.task_bits / beta**k


def intensity_ratio(beta: float, cfg: SystemConfig, p: Optional[float] = None) -> float:
    """Server-side intensity multiplier 1/beta^p; equals 1 for raw data."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    if p is None:
        p = cfg.sem_p
    return beta**-p


def achievable_rate(td: TerminalDevice, p_tx: float, cfg: SystemConfig) -> float:
    """Uplink rate in bits/s at transmit power ``p_tx`` watts."""
    _require(p_tx >= 0, "p_tx must be nonnegative")
    snr = td.channel_gain * p_tx / cfg.noise_power_w
    return cfg.bandwidth_hz * math.log2(1.0 + snr)


def uplink_bits_capacity(td: TerminalDevice, e_transmit: float, t_transmit: float,
                         cfg: SystemConfig) -> float:
    """Bits deliverable in ``t_transmit`` seconds spending ``e_transmit`` joules.

    This is the perspective form t*B*log2(1 + h*e/(t*sigma^2)), jointly
    concave in (e, t); it degrades gracefully to 0 at t = 0.
    """
    _require(e_transmit >= 0 and t_transmit >= 0, "energy and time must be nonnegative")
    if t_transmit == 0:
        return 0.0
    snr = td.channel_gain * e_transmit / (t_transmit * cfg.noise_power_w)
    return t_transmit * cfg.bandwidth_hz * math.log2(1.0 + snr)


def delay_breakdown(td: TerminalDevice, row: DeviceAllocation, cfg: SystemConfig) -> DelayBreakdown:
    """Delay components of one device under the given decisions.

    The uplink time is a decision variable and is passed through; extraction
    and remote execution come from the closed forms. A zero-bit task yields
    all-zero components.
    """
    if td.task_bits == 0:
        return DelayBreakdown(0.0, 0.0, 0.0, 0.0)
    if row.f_local <= 0 or row.f_remote <= 0:
        raise ValueError("compute rates must be positive for a nonzero task")
    a, k, p = semantic_constants(td, cfg)
    t_local = a * td.task_bits / (row.beta**k * row.f_local)
    t_remote = td.task_bits * td.intensity * row.beta ** (1.0 - p) / row.f_remote
    t_transmit = float(row.t_transmit)
    return DelayBreakdown(t_local, t_transmit, t_remote, t_local + t_transmit + t_remote)


def energy_breakdown(td: TerminalDevice, row: DeviceAllocation, cfg: SystemConfig) -> EnergyBreakdown:
    """Energy components of one device: extraction energy plus uplink energy.

    Extraction energy is the cubic compute power held for the extraction
    time, which collapses to a*A*kappa*f_local^2/beta^k.
    """
    if td.task_bits == 0:
        return EnergyBreakdown(0.0, float(row.e_transmit), float(row.e_transmit))
    if row.f_local <= 0:
        raise ValueError("f_local must be positive for a nonzero task")
    a, k, _ = semantic_constants(td, cfg)
    e_compute = a * td.task_bits * td.energy_coeff * row.f_local**2 / row.beta**k
    return EnergyBreakdown(e_compute, float(row.e_transmit), e_compute + float(row.e_transmit))

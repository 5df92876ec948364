"""System model for semantic-aware edge offloading.

Holds the per-device and system-wide parameter types, the allocation type,
and channel gain synthesis from distances. The delay and energy closed forms
of the compute-then-transmit protocol live in :mod:`semec.solver`.

Unit conventions are fixed and nothing auto-converts: bits, Hz, seconds,
joules, watts, CPU cycles, and dimensionless linear power gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "TerminalDevice",
    "SystemConfig",
    "Allocation",
    "noise_power_watts",
    "generate_channel_gains",
    "semantic_constants",
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
    required task accuracy.

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
    sem_a: Optional[float] = None
    sem_k: Optional[float] = None
    sem_p: Optional[float] = None

    def __post_init__(self) -> None:
        # non-numbers fail the type test and NaN the chained comparisons; both
        # are inlined, exact-float test first, and messages are formatted only
        # on failure, since scenarios build devices by the hundred thousand
        v = self.task_bits
        if not ((type(v) is float or isinstance(v, Real)) and 0 <= v < math.inf):
            raise ValueError("task_bits must be finite and nonnegative")
        for name in ("intensity", "energy_coeff", "f_local_max", "p_tx_max",
                     "energy_budget", "channel_gain"):
            v = getattr(self, name)
            if not ((type(v) is float or isinstance(v, Real)) and 0 < v < math.inf):
                raise ValueError(f"{name} must be finite and positive")
        v = self.beta_min
        if not ((type(v) is float or isinstance(v, Real)) and 0 < v <= 1):
            raise ValueError("beta_min must lie in (0, 1]")
        for name in ("sem_a", "sem_k", "sem_p"):
            v = getattr(self, name)
            if v is not None and not ((type(v) is float or isinstance(v, Real))
                                      and 0 < v < math.inf):
                raise ValueError(f"{name} must be finite and positive when given")


@dataclass(frozen=True)
class SystemConfig:
    """Scenario-wide parameters and solver tolerances.

    ``noise_psd_dbm_hz`` is a power spectral density; the rate formula uses
    the integrated noise power over one sub-channel of ``bandwidth_hz``.
    Defaults reproduce the reference simulation setup. Every field must be
    finite. ``eps_bisect_capacity`` bounds the Newton solve of the server
    split; the uplink time has no tolerance, because its solve is exact.
    """

    n_devices: int
    bandwidth_hz: float = 1e6
    noise_psd_dbm_hz: float = -174.0
    f_mec_total: float = 13e9
    sem_a: float = 1e-5
    sem_k: float = 4.0
    sem_p: float = 3.0
    eps_bisect_capacity: float = 1e-7
    eps_outer: float = 1e-6
    max_outer_iters: int = 100

    def __post_init__(self) -> None:
        for name in ("n_devices", "max_outer_iters"):
            if not (isinstance(getattr(self, name), Integral) and getattr(self, name) >= 1):
                raise ValueError(f"{name} must be a positive integer")
        _require(isinstance(self.noise_psd_dbm_hz, Real) and abs(self.noise_psd_dbm_hz) < math.inf,
                 "noise_psd_dbm_hz must be finite")
        for name in ("bandwidth_hz", "f_mec_total", "sem_a", "sem_k", "sem_p",
                     "eps_bisect_capacity", "eps_outer"):
            value = getattr(self, name)
            _require(isinstance(value, Real) and 0 < value < math.inf,
                     f"{name} must be finite and positive")

    @property
    def noise_power_w(self) -> float:
        return noise_power_watts(self.noise_psd_dbm_hz, self.bandwidth_hz)


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

"""The solver's array view of a scenario and its delay and energy closed forms.

The solver, its baselines and its diagnostics read every delay and energy
term through the one vectorised implementation of it here. Each closed form
takes the extraction factor's powers, computed once per factor by
:func:`_powers`, and the scenario's constant products, computed once per
scenario.

They sit apart from the solver's blocks because a module is compiled whole
where no bytecode is cached, and the largest such compile sets the peak
memory of a small run.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .model import DeviceTable, SystemConfig, TerminalDevice

_LN2 = math.log(2.0)


class _Scenario:
    """Array view of the device table and the system, made once per solve.

    Each device's constant products are computed here once, in the order of
    operations every closed form used to compute them in: the extraction
    cycles a*A, their energy coefficient (a*A)*kappa, the raw remote cycles
    A*I and the remote-workload exponent 1 - p. They replace a and p, which
    no closed form reads alone.

    Raises ValueError for an empty device sequence.
    """

    __slots__ = ("n", "A", "I", "kappa", "f_max", "p_max", "beta_min", "E", "h", "k",
                 "extract_cycles", "extract_coeff", "raw_cycles", "q", "B", "sigma2", "F",
                 "active", "r_full")
    # the columns the factor search and its uplink solves read, which take gathers
    _SEARCHED = ("A", "p_max", "beta_min", "E", "h", "k", "extract_cycles", "extract_coeff",
                 "raw_cycles", "q", "r_full")

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
        a, self.k, p = table.semantic_constants(cfg)
        if not extraction:
            # raw upload: no extraction (a = 0), raw workload A*I (p = 1), factor held at 1
            a, p = np.zeros(self.n), np.ones(self.n)
            self.beta_min = np.ones(self.n)
        # a and p are this scenario's own arrays, so the products overwrite them
        self.extract_cycles = np.multiply(a, self.A, out=a)
        self.extract_coeff = self.extract_cycles * self.kappa
        self.raw_cycles = self.A * self.I
        self.q = np.subtract(1.0, p, out=p)
        self.B = cfg.bandwidth_hz
        self.sigma2 = cfg.noise_power_w
        self.F = cfg.f_mec_total
        self.active = self.A > 0
        # log1p keeps the peak-power rate's digits at low SNR; it is 0 only where
        # h*p_max/sigma^2 underflows; devices without work get 1 to divide by
        self.r_full = np.where(self.active,
                               self.B / _LN2 * np.log1p(self.h * self.p_max / self.sigma2), 1.0)

    def take(self, idx: np.ndarray) -> _Scenario:
        """The factor search's scenario of the devices ``idx``: the columns it
        and its uplink solves read, and the system scalars."""
        sub = object.__new__(_Scenario)
        sub.n, sub.B, sub.sigma2, sub.F = len(idx), self.B, self.sigma2, self.F
        for name in self._SEARCHED:
            setattr(sub, name, getattr(self, name)[idx])
        return sub


def _powers(sc: _Scenario, beta) -> tuple[np.ndarray, np.ndarray]:
    """beta**k and beta**(1 - p), the factor's powers every closed form reads."""
    return beta**sc.k, beta**sc.q


# The closed forms take the factor's powers, computed once per factor by
# _powers, or None for the factor 1: its powers are exactly 1, and x*1.0 and
# x/1.0 are x, so skipping them changes no bit. A = 0 makes each exactly 0,
# so devices without work need no mask.
def _extraction_energy(sc: _Scenario, beta_k, f_local: np.ndarray) -> np.ndarray:
    e = sc.extract_coeff * f_local**2
    return e if beta_k is None else np.divide(e, beta_k, out=e)


def _t_local(sc: _Scenario, beta_k, f_local: np.ndarray, out=None) -> np.ndarray:
    if beta_k is None:
        return sc.extract_cycles / f_local
    rate = np.multiply(beta_k, f_local, out=out)
    return np.divide(sc.extract_cycles, rate, out=rate)


def _remote_cycles(sc: _Scenario, beta_1mp) -> np.ndarray:
    # at the factor 1 this is the scenario's own array, which callers only read
    return sc.raw_cycles if beta_1mp is None else sc.raw_cycles * beta_1mp


def _t_remote(cycles: np.ndarray, f_remote: np.ndarray) -> np.ndarray:
    # devices without work have no server share, and 0/1e-300 is 0
    share = np.maximum(f_remote, 1e-300)
    return np.divide(cycles, share, out=share)


def _bits_carried(sc: _Scenario, h, e, t):
    # the perspective rate t*B*log2(1 + h*e/(t*sigma^2)), which is 0 at t = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        bits = t * (sc.B / _LN2) * np.log1p(h * e / (t * sc.sigma2))
    return np.where(t > 0, bits, 0.0)


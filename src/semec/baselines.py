"""Comparison schemes: raw-upload offloading and fully local execution."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .model import Allocation, DeviceTable, SystemConfig, TerminalDevice
from .solver import SolverReport, _at_start, _Scenario, solve

__all__ = ["solve_no_semantic", "solve_local_only"]


def solve_no_semantic(tds: Sequence[TerminalDevice], cfg: SystemConfig,
                      retain_extraction: bool = False) -> SolverReport:
    """Conventional offloading: every device uploads its raw bits.

    The extraction factor is pinned at 1. By default there is no extraction
    pass, so its delay and energy are zero and nothing couples the blocks:
    the optimum is :func:`solve`'s start point. ``retain_extraction=True``
    keeps the (tiny) factor-1 extraction terms and runs :func:`solve` with
    every factor floor at 1, the semantic solver forced to a unit factor.
    """
    if retain_extraction:
        return solve(DeviceTable.from_devices(tds).replace(beta_min=1.0), cfg)
    return _at_start(_Scenario(tds, cfg, extraction=False))


def solve_local_only(tds: Sequence[TerminalDevice], cfg: SystemConfig) -> SolverReport:
    """Execute every task on its own device, without any offloading.

    The best admissible rate is the hardware cap unless the energy budget
    binds first; raw-data intensity applies since nothing is extracted.
    Devices without task bits run at the cap in zero time.
    """
    sc = _Scenario(tds, cfg)
    cycles = sc.A * sc.I
    # no cycles (or next to none) make the energy-bound rate infinite, so the cap binds
    with np.errstate(divide="ignore", over="ignore"):
        f_local = np.minimum(sc.f_max, np.sqrt(sc.E / (sc.kappa * cycles)))
    delays = cycles / f_local
    objective = float(delays.max())
    allocation = Allocation(f_local, np.zeros(sc.n), np.zeros(sc.n), np.zeros(sc.n),
                            np.ones(sc.n), objective)
    return SolverReport(allocation, [objective], 1, True, objective - delays)

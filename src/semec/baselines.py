"""Comparison schemes: raw-upload offloading and fully local execution."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .model import Allocation, SystemConfig, TerminalDevice
from .solver import SolverReport, _Scenario, _solve_core

__all__ = ["solve_no_semantic", "solve_local_only"]


def solve_no_semantic(tds: Sequence[TerminalDevice], cfg: SystemConfig,
                      retain_extraction: bool = False) -> SolverReport:
    """Conventional offloading: every device uploads its raw bits.

    The extraction factor is pinned at 1 and its block is skipped. By
    default the upload performs no extraction pass at all, so extraction
    delay and energy are zero; ``retain_extraction=True`` keeps the
    (tiny) factor-1 extraction terms, which makes this baseline coincide
    exactly with the semantic solver forced to a unit factor.
    """
    return _solve_core(tds, cfg, extraction=retain_extraction, freeze_beta=True)


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

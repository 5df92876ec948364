"""Comparison schemes: raw-upload offloading and fully local execution."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .closed_forms import _Scenario
from .model import Allocation, SystemConfig, TerminalDevice
from .solver import SolverReport, _at_start

__all__ = ["solve_no_semantic", "solve_local_only"]


def solve_no_semantic(tds: Sequence[TerminalDevice], cfg: SystemConfig) -> SolverReport:
    """Conventional offloading: every device uploads its raw bits.

    The extraction factor is pinned at 1 and there is no extraction pass, so
    its delay and energy are zero and nothing couples the blocks: the optimum
    is :func:`solve`'s start point.
    """
    return _at_start(_Scenario(tds, cfg, extraction=False))


def solve_local_only(tds: Sequence[TerminalDevice], cfg: SystemConfig) -> SolverReport:
    """Execute every task on its own device, without any offloading.

    The best admissible rate is the hardware cap unless the energy budget
    binds first; raw-data intensity applies since nothing is extracted.
    Devices without task bits run at the cap in zero time.
    """
    sc = _Scenario(tds, cfg)
    cycles = sc.raw_cycles
    # no cycles (or next to none) make the energy-bound rate infinite, so the cap binds
    with np.errstate(divide="ignore", over="ignore"):
        f_local = np.minimum(sc.f_max, np.sqrt(sc.E / (sc.kappa * cycles)))
    objective = float((cycles / f_local).max())
    allocation = Allocation(f_local, np.zeros(sc.n), np.zeros(sc.n), np.zeros(sc.n),
                            np.ones(sc.n), objective)
    return SolverReport(allocation, [objective], 0, True)

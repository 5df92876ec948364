"""Comparison schemes: raw-upload offloading and fully local execution."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .model import Allocation, SystemConfig, TerminalDevice
from .solver import (
    FeasibilityCause,
    FeasibilityError,
    SolverReport,
    _solve_core,
)

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
    """
    if len(tds) != cfg.n_devices:
        raise ValueError(f"scenario lists {len(tds)} devices but n_devices={cfg.n_devices}")
    n = len(tds)
    f_local = np.zeros(n)
    delays = np.zeros(n)
    for i, td in enumerate(tds):
        if td.task_bits == 0:
            f_local[i] = td.f_local_max
            continue
        if td.energy_budget <= 0:
            raise FeasibilityError(i, FeasibilityCause.EXTRACTION_ENERGY_EXCEEDS_BUDGET,
                                   "no energy for local execution")
        cycles = td.task_bits * td.intensity
        f_energy = math.sqrt(td.energy_budget / (td.energy_coeff * cycles))
        f_local[i] = min(td.f_local_max, f_energy)
        delays[i] = cycles / f_local[i]
    objective = float(delays.max()) if n else 0.0
    allocation = Allocation(f_local, np.zeros(n), np.zeros(n), np.zeros(n),
                            np.ones(n), objective)
    return SolverReport(allocation, [objective], 1, True, objective - delays)

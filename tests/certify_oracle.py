"""Device-by-device reference for the perturbation certificate.

The package evaluates the probes that move every device first, then the
probes that move one device each from per-device terms, then the isotropic
draws, in vectorised blocks that screen the factor box before building a
row in full, and it caches a direction set that fits in one block. This
module keeps the obvious form of the same certificate: every probe is built
as one dense direction, in index order, and checked in a Python loop over
the devices, returning at the first infeasible device and at the first
improving probe. It serves only as a test oracle.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from conftest import semantic_constants
from semec.model import Allocation, SystemConfig, TerminalDevice


def _feasible(alloc_vectors, tds: Sequence[TerminalDevice], cfg: SystemConfig,
              tol: float) -> bool:
    beta, f_local, f_remote, t_transmit, e_transmit = alloc_vectors
    sigma2 = cfg.noise_power_w
    total_remote = 0.0
    for i, td in enumerate(tds):
        a, k, _ = semantic_constants(td, cfg)
        if not (td.beta_min * (1 - tol) <= beta[i] <= 1 + tol):
            return False
        if f_local[i] <= 0 or f_local[i] > td.f_local_max * (1 + tol):
            return False
        if e_transmit[i] < -tol or t_transmit[i] < -tol:
            return False
        if e_transmit[i] > td.p_tx_max * t_transmit[i] * (1 + tol) + 1e-300:
            return False
        total_remote += f_remote[i]
        if td.task_bits == 0:
            continue
        e_extract = a * td.task_bits * td.energy_coeff * f_local[i]**2 / beta[i]**k
        if e_extract + e_transmit[i] > td.energy_budget * (1 + tol):
            return False
        bits = beta[i] * td.task_bits
        if t_transmit[i] <= 0:
            return False
        cap = t_transmit[i] * cfg.bandwidth_hz * math.log1p(
            td.channel_gain * e_transmit[i] / (t_transmit[i] * sigma2)) / math.log(2.0)
        if cap < bits * (1 - tol):
            return False
    return total_remote <= cfg.f_mec_total * (1 + tol)


def _max_delay(alloc_vectors, tds: Sequence[TerminalDevice], cfg: SystemConfig) -> float:
    beta, f_local, f_remote, t_transmit, _ = alloc_vectors
    worst = 0.0
    for i, td in enumerate(tds):
        if td.task_bits == 0:
            continue
        a, k, p = semantic_constants(td, cfg)
        t_local = a * td.task_bits / (beta[i]**k * f_local[i])
        t_remote = td.task_bits * td.intensity * beta[i] ** (1.0 - p) / f_remote[i]
        worst = max(worst, t_local + t_transmit[i] + t_remote)
    return worst


def _structured_directions(n: int) -> list[np.ndarray]:
    directions = []
    comm = np.zeros((5, n))
    comm[0] = comm[3] = comm[4] = 1.0  # beta, t_transmit, e_transmit together
    directions.append(comm.ravel())
    directions.append(-comm.ravel())
    server = np.zeros((5, n))
    server[2] = 1.0  # every f_remote together
    directions.append(server.ravel())
    directions.append(-server.ravel())
    for i in range(min(n, 32)):
        single = np.zeros((5, n))
        single[0, i] = single[3, i] = single[4, i] = 1.0
        directions.append(single.ravel())
        directions.append(-single.ravel())
    return directions


def probe_directions(n: int, n_probes: int, seed: int):
    """The certificate's unit probe directions in order, each of shape (5, n)."""
    rng = np.random.default_rng(seed)
    structured = _structured_directions(n)
    for probe_index in range(n_probes):
        if probe_index < len(structured):
            z = structured[probe_index]
        else:
            z = rng.standard_normal(5 * n)
        yield (z / (np.linalg.norm(z) + 1e-300)).reshape(5, n)


def first_improving_probe(alloc: Allocation, tds: Sequence[TerminalDevice],
                          cfg: SystemConfig, n_probes: int, step: float,
                          seed: int = 0) -> Optional[int]:
    """The index of the first feasible improving probe, or None if none improves."""
    if step <= 0:
        raise ValueError("step must be positive")
    n = len(tds)
    base_vectors = (alloc.beta.copy(), alloc.f_local.copy(), alloc.f_remote.copy(),
                    alloc.t_transmit.copy(), alloc.e_transmit.copy())
    if not _feasible(base_vectors, tds, cfg, tol=1e-9):
        raise ValueError("allocation must be feasible before certification")
    base = _max_delay(base_vectors, tds, cfg)
    allowance = step * step * max(base, 1e-300)

    for index, z in enumerate(probe_directions(n, n_probes, seed)):
        shift = np.exp(step * z)
        probe = tuple(v * s for v, s in zip(base_vectors, shift))
        if not _feasible(probe, tds, cfg, tol=1e-12):
            continue
        if base - _max_delay(probe, tds, cfg) > allowance:
            return index
    return None


def perturbation_certify_loop(alloc: Allocation, tds: Sequence[TerminalDevice],
                              cfg: SystemConfig, n_probes: int, step: float,
                              seed: int = 0) -> bool:
    """The certificate probe by probe and device by device."""
    return first_improving_probe(alloc, tds, cfg, n_probes, step, seed) is None

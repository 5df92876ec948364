"""Shared fixtures and scenario factories for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from semec import (DeviceTable, SolverReport, SystemConfig, TerminalDevice,
                   generate_channel_gains, reference_scenario, solve)


def log_uniform(lo: float, hi: float):
    """A hypothesis strategy for floats spread evenly in log10 over [lo, hi]."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)


def semantic_constants(td: TerminalDevice, cfg: SystemConfig) -> tuple[float, float, float]:
    """Effective (a, k, p) for a device, honoring per-device overrides."""
    return tuple(getattr(cfg if getattr(td, name) is None else td, name)
                 for name in ("sem_a", "sem_k", "sem_p"))


def solve_retained(tds, cfg: SystemConfig) -> SolverReport:
    """Raw upload that keeps the factor-1 extraction terms: :func:`solve` with
    every factor floor at 1."""
    return solve(DeviceTable.from_devices(tds).replace(beta_min=1.0), cfg)


def single_device_draw(rng: np.random.Generator) -> tuple[TerminalDevice, SystemConfig]:
    """One random single-device scenario around the reference parameters.

    Redraws until the peak-power upload of the raw task fits comfortably in
    the energy budget, which keeps the uplink power-limited and the default
    oracle grid bounds tight.
    """
    while True:
        d = float(rng.uniform(100.0, 300.0))
        h = float(generate_channel_gains([d])[0])
        td = TerminalDevice(
            task_bits=float(3e6 * rng.uniform(0.7, 1.5)),
            intensity=float(70.0 * rng.uniform(0.7, 1.4)),
            energy_coeff=float(1e-26 * rng.uniform(0.5, 2.0)),
            f_local_max=float(1e9 * rng.uniform(0.8, 1.5)),
            p_tx_max=float(rng.uniform(0.8, 1.3)),
            beta_min=float(rng.uniform(0.5, 0.75)),
            energy_budget=float(rng.uniform(0.35, 0.7)),
            channel_gain=h,
        )
        cfg = SystemConfig(
            f_mec_total=float(1.3e10 * rng.uniform(0.7, 1.5)),
            sem_a=float(1e-5 * rng.uniform(0.5, 2.0)),
            sem_k=float(rng.integers(3, 6)),
            sem_p=3.0,
        )
        r_full = cfg.bandwidth_hz * math.log2(
            1.0 + td.channel_gain * td.p_tx_max / cfg.noise_power_w)
        if td.p_tx_max * td.task_bits / r_full <= 0.75 * td.energy_budget:
            return td, cfg


def multi_device_draw(rng: np.random.Generator, n: int = 10,
                      sem_p: float = 3.0) -> tuple[tuple[TerminalDevice, ...], SystemConfig]:
    """A random feasible n-device scenario around the reference parameters."""
    d = np.sort(rng.uniform(80.0, 400.0, n))
    h = generate_channel_gains(d)
    devices = tuple(
        TerminalDevice(
            task_bits=float(3e6 * rng.uniform(0.6, 1.6)),
            intensity=float(70.0 * rng.uniform(0.7, 1.5)),
            energy_coeff=float(1e-26 * rng.uniform(0.5, 2.0)),
            f_local_max=float(1e9 * rng.uniform(0.8, 1.5)),
            p_tx_max=float(rng.uniform(0.8, 1.3)),
            beta_min=float(rng.uniform(0.5, 0.8)),
            energy_budget=float(rng.uniform(0.35, 0.7)),
            channel_gain=float(h[i]),
        )
        for i in range(n)
    )
    cfg = SystemConfig(
        f_mec_total=float(1.3e10 * rng.uniform(0.7, 1.5)),
        sem_a=float(1e-5 * rng.uniform(0.5, 2.0)),
        sem_k=float(rng.integers(3, 6)),
        sem_p=sem_p,
    )
    return devices, cfg


@pytest.fixture(scope="session")
def reference():
    return reference_scenario()


@pytest.fixture(scope="session")
def reference_single():
    return reference_scenario(n_devices=1)

"""Seeded workloads, their ops, and the correctness check of every op.

Only the generated scenario file reaches the program. Scenario generation
uses the standard library alone, so that nothing imports numpy before the
timed set-up starts.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

# The reference sweep of the paper's experiment, as ``semec-bench`` runs it.
SWEEP_VALUES = (0.3, 0.4, 0.5, 0.6, 0.7)
SWEEP_ALGORITHMS = ("semantic", "no-semantic", "local")
OBJECTIVE_RTOL = 1e-5  # ten times the default eps_outer
FEASIBILITY_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One seeded input family and the op the benchmark repeats on it."""

    name: str
    n: int
    distances_m: tuple  # devices are drawn uniformly from [lo, hi]
    op: str  # "sweep": semec.cli.main; "solve": solve(); "solve+certify"
    device: dict = field(default_factory=dict)  # over the reference device
    f_mec_per_device: Optional[float] = None  # None: the reference 13 GHz total

    @property
    def devices_per_op(self) -> int:
        if self.op == "sweep":
            return self.n * len(SWEEP_VALUES) * len(SWEEP_ALGORITHMS)
        return self.n


# energy-n1k and power-n100k use the C8 scaling shape: a constant per-device
# server share, so only the uplink regime and n differ between them
WORKLOADS = {
    "ref-sweep": Workload("ref-sweep", 10, (120.0, 255.0), "sweep"),
    "energy-n1k": Workload("energy-n1k", 1000, (100.0, 400.0), "solve+certify",
                           {"task_bits": 3e6, "energy_budget": 0.05}, 1.3e9),
    "power-n100k": Workload("power-n100k", 100_000, (100.0, 400.0), "solve",
                            {"task_bits": 3e6, "energy_budget": 0.5}, 1.3e9),
}


def scenario_doc(workload: Workload, seed: int) -> dict:
    """The scenario document for one seed; the same seed gives the same file."""
    rng = random.Random(seed)
    lo, hi = workload.distances_m
    distances = [rng.uniform(lo, hi) for _ in range(workload.n)]
    system = {"n_devices": workload.n}
    if workload.f_mec_per_device is not None:
        system["f_mec_total"] = workload.f_mec_per_device * workload.n
    return {
        "label": f"{workload.name}-seed{seed}",
        "system": system,
        "devices": {"uniform": dict(workload.device), "count": workload.n},
        "channel": {"distances_m": distances},
    }


def write_scenario(workload: Workload, seed: int, path: Path) -> None:
    path.write_text(json.dumps(scenario_doc(workload, seed)), encoding="utf-8")


def sweep_argv(scenario_path: Path, csv_path: Path) -> list:
    argv = ["--scenario", str(scenario_path),
            "--sweep", "energy_budget=" + ",".join(str(v) for v in SWEEP_VALUES),
            "--verify", "--out", str(csv_path)]
    for algorithm in SWEEP_ALGORITHMS:
        argv += ["--algorithm", algorithm]
    return argv


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= OBJECTIVE_RTOL * abs(reference)


def check_sweep(exit_code: int, csv_path: Path, reference) -> tuple:
    """Problems with one CLI sweep, and the objective of each CSV cell."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        with open(csv_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return problems + [f"no CSV: {exc}"], []
    if len(rows) != len(SWEEP_VALUES) * len(SWEEP_ALGORITHMS):
        problems.append(f"{len(rows)} CSV rows")
    objectives = []
    for row in rows:
        cell = f"{row['value']}/{row['algorithm']}"
        if row["error"]:
            problems.append(f"cell {cell}: {row['error']}")
        value = float(row["max_delay_s"])
        if not (math.isfinite(value) and value > 0):
            problems.append(f"cell {cell}: max_delay_s {value}")
        objectives.append(value)
    if reference is not None and len(objectives) == len(reference):
        for i, (value, ref) in enumerate(zip(objectives, reference)):
            if not _close(value, ref):
                problems.append(f"cell {i}: objective {value!r} != reference {ref!r}")
    return problems, objectives


class DeviceArrays:
    """The devices' parameters as arrays, for the benchmark's own checks."""

    def __init__(self, devices, cfg):
        import numpy as np

        def column(name, default=None):
            values = (getattr(td, name) for td in devices)
            if default is not None:
                values = (default if v is None else v for v in values)
            return np.fromiter(values, dtype=float, count=len(devices))

        self.A = column("task_bits")
        self.I = column("intensity")
        self.kappa = column("energy_coeff")
        self.f_max = column("f_local_max")
        self.p_max = column("p_tx_max")
        self.beta_min = column("beta_min")
        self.E = column("energy_budget")
        self.h = column("channel_gain")
        self.a = column("sem_a", cfg.sem_a)
        self.k = column("sem_k", cfg.sem_k)
        self.p = column("sem_p", cfg.sem_p)
        self.B = cfg.bandwidth_hz
        self.sigma2 = cfg.noise_power_w
        self.F = cfg.f_mec_total


def infeasible_families(alloc, arr: DeviceArrays) -> list:
    """Constraint families the allocation violates, each by relative slack."""
    import numpy as np

    tol = FEASIBILITY_RTOL
    beta, f_local, f_remote = alloc.beta, alloc.f_local, alloc.f_remote
    t, e = alloc.t_transmit, alloc.e_transmit
    with np.errstate(all="ignore"):
        e_extract = arr.a * arr.A * arr.kappa * f_local**2 / beta**arr.k
        bits = t * arr.B * np.log2(1.0 + arr.h * e / (t * arr.sigma2))
        delay = (arr.a * arr.A / (beta**arr.k * f_local) + t
                 + arr.A * arr.I * beta ** (1.0 - arr.p) / f_remote)
    checks = {
        "finite": all(np.all(np.isfinite(v)) for v in (beta, f_local, f_remote, t, e)),
        "beta": np.all((beta >= arr.beta_min * (1 - tol)) & (beta <= 1 + tol)),
        "f_local": np.all((f_local > 0) & (f_local <= arr.f_max * (1 + tol))),
        "energy": np.all(e_extract + e <= arr.E * (1 + tol)),
        "power": np.all((e >= 0) & (e <= arr.p_max * t * (1 + tol))),
        "rate": np.all(bits >= beta * arr.A * (1 - tol)),
        "capacity": float(f_remote.sum()) <= arr.F * (1 + tol),
        "delay_cap": np.all(delay <= alloc.t_epigraph * (1 + tol)),
    }
    return [name for name, ok in checks.items() if not ok]


def check_solve(report, certified, arr: DeviceArrays, reference) -> tuple:
    """Problems with one solve (and its certificate, when one ran), and its objective."""
    problems = []
    trace = report.objective_trace
    if not all(math.isfinite(v) for v in trace):
        problems.append("objective trace not finite")
    if any(b > a for a, b in zip(trace, trace[1:])):
        problems.append("objective trace increases")
    if not report.converged:
        problems.append("not converged")
    if certified is False:
        problems.append("certificate failed")
    bad = infeasible_families(report.allocation, arr)
    if bad:
        problems.append(f"infeasible: {', '.join(bad)}")
    objective = report.allocation.t_epigraph
    if reference is not None and not _close(objective, reference[0]):
        problems.append(f"objective {objective!r} != reference {reference[0]!r}")
    return problems, [objective]


def regime_shares(solves) -> dict:
    """Which constraint binds, as shares of all devices of the given solves."""
    import numpy as np

    counts = np.zeros(4)
    total = 0
    for devices, cfg, report in solves:
        arr = DeviceArrays(devices, cfg)
        alloc = report.allocation
        tol = FEASIBILITY_RTOL
        floor = alloc.beta <= arr.beta_min * (1 + tol)
        ceiling = alloc.beta >= 1 - tol
        counts += [
            np.count_nonzero(alloc.e_transmit < arr.p_max * alloc.t_transmit * (1 - tol)),
            np.count_nonzero(~floor & ~ceiling),
            np.count_nonzero(floor),
            np.count_nonzero(alloc.f_local < arr.f_max * (1 - tol)),
        ]
        total += len(devices)
    names = ("solver.energy_limited_share", "solver.interior_beta_share",
             "solver.floor_beta_share", "solver.energy_capped_f_local_share")
    return {name: float(c) / total for name, c in zip(names, counts)}

"""Scenario files, experiment sweeps, and CSV emission.

A scenario is one JSON document with three sections: ``system`` (shared
parameters), ``devices`` (an explicit list or a uniform template plus
count), and ``channel`` (explicit gains, or distances from which gains are
derived, optionally with a fading seed). Omitted fields fall back to the
reference simulation defaults baked into the dataclass definitions. The
devices load into one :class:`DeviceTable`, column by column. The device
count is the number of devices; ``system.n_devices`` may state it, and is
then checked against it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .baselines import solve_local_only, solve_no_semantic
from .model import (_OVERRIDES, _number, DeviceTable, SystemConfig, check_number,
                    generate_channel_gains)
from .oracle import perturbation_certify
from .solver import FeasibilityError, SolverReport, delay_breakdown, solve

__all__ = [
    "Scenario",
    "ScenarioError",
    "SweepSpec",
    "SweepResult",
    "ALGORITHMS",
    "SWEEPABLE_PARAMS",
    "reference_scenario",
    "load_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "dump_scenario",
    "validate_sweep",
    "run_sweep",
    "emit_csv",
]

ALGORITHMS = ("semantic", "no-semantic", "local")

_DEVICE_PARAMS = ("energy_budget", "task_bits", "beta_min")
_SYSTEM_PARAMS = ("sem_a", "sem_k", "sem_p", "f_mec_total")
SWEEPABLE_PARAMS = _DEVICE_PARAMS + _SYSTEM_PARAMS

_REFERENCE_DEVICE = {
    "task_bits": 3e6,
    "intensity": 70.0,
    "energy_coeff": 1e-26,
    "f_local_max": 1e9,
    "p_tx_max": 1.0,
    "beta_min": 0.6,
    "energy_budget": 0.5,
}

_SEM_FIELDS = _OVERRIDES  # per-device overrides; null defers to the system
_ENTRY_FIELDS = tuple(_REFERENCE_DEVICE) + _SEM_FIELDS
_SYSTEM_FIELDS = tuple(f.name for f in fields(SystemConfig))


class ScenarioError(ValueError):
    """Scenario file failed to parse or violated an invariant."""


@dataclass(frozen=True)
class Scenario:
    """A fully resolved experiment setup.

    ``devices`` is a :class:`DeviceTable`; a sequence of devices given in
    its place is converted to one.
    """

    system: SystemConfig
    devices: DeviceTable
    channel: Dict[str, object]
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "devices", DeviceTable.from_devices(self.devices))


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter and the values it takes, at least one, as floats;
    an integer that no float holds reads as NaN, which its rule rejects."""

    param: str
    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        if self.param not in SWEEPABLE_PARAMS:
            raise ScenarioError(
                f"unknown sweep parameter {self.param!r}; choose from {SWEEPABLE_PARAMS}")
        object.__setattr__(self, "values", tuple(map(_number, self.values)))
        if not self.values:
            raise ScenarioError(f"the {self.param} sweep lists no values")


@dataclass(frozen=True)
class SweepResult:
    """One sweep cell: parameter value, algorithm, and solved metrics."""

    swept_param: str
    value: float
    algorithm: str
    max_delay_s: float
    mean_delay_s: float
    per_device_breakdown: np.ndarray  # (t_local, t_transmit, t_remote, total) per device
    per_device_beta: List[float]
    iterations: int
    error: str = ""


def reference_scenario(n_devices: int = 10, label: str = "reference-baseline") -> Scenario:
    """The reference setup: uniform devices, distances evenly in [120, 255] m."""
    return scenario_from_dict({
        "label": label,
        "devices": {"uniform": dict(_REFERENCE_DEVICE), "count": n_devices},
        "channel": {"distances_m": {"linspace": [120.0, 255.0]}},
    })


def _check_keys(section: dict, allowed: Sequence[str], where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ScenarioError(f"unknown field(s) {sorted(unknown)} in {where}")


def _fields(section: object, where: str, nullable: Sequence[str] = ()) -> dict:
    if not isinstance(section, dict):
        raise ScenarioError(f"{where} must be a mapping")
    for name, value in section.items():
        if value is None and name in nullable:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioError(f"{where}.{name} must be a number, not {value!r}")
    return dict(section)


def _numbers(values: object, n: int, where: str) -> np.ndarray:
    try:
        out = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise ScenarioError(f"{where} must list {n} numbers") from exc
    if out.dtype.kind not in "iuf" or out.shape != (n,):
        raise ScenarioError(f"{where} must list {n} numbers")
    return out.astype(float, copy=False)


def _positive_count(value: object, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ScenarioError(f"{where} must be a positive integer, not {value!r}")
    return value


def _uniform_table(template: dict, gains: np.ndarray) -> DeviceTable:
    # every device is the template, so device 0 speaks for all
    _check_keys(template, _ENTRY_FIELDS, "devices[0]")
    return DeviceTable(channel_gain=gains, **{**_REFERENCE_DEVICE, **template})


def _listed_table(entries: List[dict], gains: np.ndarray) -> DeviceTable:
    # devices are checked in order, each for unknown fields before its values
    allowed = set(_ENTRY_FIELDS)
    known = next((i for i, entry in enumerate(entries) if not entry.keys() <= allowed),
                 len(entries))
    table = DeviceTable(channel_gain=gains[:known], **{
        name: [entry.get(name, _REFERENCE_DEVICE.get(name)) for entry in entries[:known]]
        for name in _ENTRY_FIELDS})
    if known < len(entries):
        _check_keys(entries[known], _ENTRY_FIELDS, f"devices[{known}]")
    return table


def scenario_from_dict(doc: dict) -> Scenario:
    _check_keys(doc, ("label", "system", "devices", "channel"), "scenario")
    label = str(doc.get("label", ""))

    system_doc = _fields(doc.get("system", {}), "system")
    _check_keys(system_doc, _SYSTEM_FIELDS + ("n_devices",), "system")

    devices_doc = doc.get("devices")
    if isinstance(devices_doc, dict):
        _check_keys(devices_doc, ("uniform", "count"), "devices")
        if "uniform" not in devices_doc:
            raise ScenarioError("devices mapping needs a 'uniform' template")
        if "count" in devices_doc or "n_devices" not in system_doc:
            n = _positive_count(devices_doc.get("count"), "devices.count")
        else:
            n = _positive_count(system_doc["n_devices"], "system.n_devices")
        uniform = _fields(devices_doc["uniform"], "devices.uniform", _SEM_FIELDS)
        build_table = partial(_uniform_table, uniform)
    elif isinstance(devices_doc, list):
        if not devices_doc:
            raise ScenarioError("devices must list at least one device")
        entries = [_fields(e, f"devices[{i}]", _SEM_FIELDS) for i, e in enumerate(devices_doc)]
        n = len(entries)
        build_table = partial(_listed_table, entries)
    else:
        raise ScenarioError("devices must be a list or a uniform template mapping")

    declared = _positive_count(system_doc.pop("n_devices", n), "system.n_devices")
    if declared != n:
        raise ScenarioError(f"system.n_devices={declared} but {n} device entries were given")
    try:
        system = SystemConfig(**system_doc)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"system: {exc}") from exc

    channel = doc.get("channel")
    if not isinstance(channel, dict):
        raise ScenarioError("channel section is required")
    _check_keys(channel, ("gains", "distances_m", "fading_seed"), "channel")
    has_gains = "gains" in channel
    has_dist = "distances_m" in channel
    if has_gains == has_dist:
        raise ScenarioError("channel must give exactly one of 'gains' or 'distances_m'")

    if has_gains:
        if "fading_seed" in channel:
            raise ScenarioError("fading_seed applies only to distance-based channels")
        gains = _numbers(channel["gains"], n, "channel.gains")
        if np.any(gains <= 0):
            raise ScenarioError("channel gains must be positive")
    else:
        spec = channel["distances_m"]
        if isinstance(spec, dict):
            _check_keys(spec, ("linspace",), "channel.distances_m")
            lo, hi = _numbers(spec.get("linspace"), 2, "channel.distances_m.linspace")
            with np.errstate(invalid="ignore"):  # a non-finite end gives NaN, rejected below
                distances = np.linspace(lo, hi, n)
        else:
            distances = _numbers(spec, n, "channel.distances_m")
        seed = channel.get("fading_seed")
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int) or seed < 0):
            raise ScenarioError(f"channel.fading_seed must be a nonnegative integer, not {seed!r}")
        try:
            gains = generate_channel_gains(distances, seed)
        except ValueError as exc:
            raise ScenarioError(f"channel.distances_m: {exc}") from exc

    try:
        devices = build_table(gains)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    channel_record = {k: (list(map(float, v)) if isinstance(v, (list, tuple)) else v)
                      for k, v in channel.items()}
    return Scenario(system=system, devices=devices, channel=channel_record, label=label)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical plain-dict form; loading it back reproduces the scenario."""
    system = {name: getattr(scenario.system, name) for name in _SYSTEM_FIELDS}
    rows = zip(*(getattr(scenario.devices, name).tolist() for name in _ENTRY_FIELDS))
    # a NaN override defers to the system, and the dump leaves it out
    devices = [{name: value for name, value in zip(_ENTRY_FIELDS, row) if not math.isnan(value)}
               for row in rows]
    return {
        "label": scenario.label,
        "system": system,
        "devices": devices,
        "channel": dict(scenario.channel),
    }


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Parse and validate a scenario file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: scenario document must be a JSON object")
    return scenario_from_dict(doc)


def dump_scenario(scenario: Scenario, path: Union[str, Path]) -> None:
    """Write the canonical scenario dump (stable key order, full precision)."""
    doc = scenario_to_dict(scenario)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def _override(scenario: Scenario, param: str, value: float) -> Scenario:
    if param in _DEVICE_PARAMS:
        return replace(scenario, devices=scenario.devices.replace(**{param: value}))
    return replace(scenario, system=replace(scenario.system, **{param: value}))


def validate_sweep(scenario: Scenario, sweep: SweepSpec) -> None:
    """Raise ValueError, naming the field, if a sweep value breaks the field's rule."""
    for value in sweep.values:
        check_number(sweep.param, value)


def _run_algorithm(scenario: Scenario, algorithm: str) -> SolverReport:
    # run_sweep has rejected every name outside ALGORITHMS
    if algorithm == "semantic":
        return solve(scenario.devices, scenario.system)
    if algorithm == "no-semantic":
        return solve_no_semantic(scenario.devices, scenario.system)
    return solve_local_only(scenario.devices, scenario.system)


def _breakdown(scenario: Scenario, algorithm: str, report: SolverReport) -> np.ndarray:
    alloc = report.allocation
    if algorithm != "local":
        return delay_breakdown(scenario.devices, alloc, scenario.system,
                               extraction=algorithm == "semantic")
    # local execution runs the raw task on the device: [A*I/f_local, 0, 0, A*I/f_local]
    cycles = scenario.devices.task_bits * scenario.devices.intensity
    rows = np.zeros((cycles.size, 4))
    rows[:, 0] = rows[:, 3] = cycles / alloc.f_local
    return rows


def _failed(sweep: SweepSpec, value: float, algorithm: str, error: str) -> SweepResult:
    return SweepResult(sweep.param, value, algorithm, float("nan"), float("nan"),
                       np.zeros((0, 4)), [], 0, error=error)


def run_sweep(scenario: Scenario, sweep: SweepSpec, algorithms: Sequence[str],
              verify: bool = False) -> List[SweepResult]:
    """Solve every (value, algorithm) cell; failures are recorded, not raised.

    Cells are deterministic given (scenario, sweep): channel gains, fading
    included, are resolved when the scenario is loaded, so re-running a
    sweep always reproduces its CSV. ``verify`` runs the perturbation
    certificate on each semantic solve. An unknown algorithm or a sweep value
    out of range raises ValueError before any cell is solved.
    """
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    validate_sweep(scenario, sweep)
    results: List[SweepResult] = []
    for value in sweep.values:
        cell_scenario = _override(scenario, sweep.param, value)
        for algorithm in algorithms:
            try:
                report = _run_algorithm(cell_scenario, algorithm)
            except FeasibilityError as exc:
                results.append(_failed(sweep, value, algorithm, str(exc)))
                continue
            if verify and algorithm == "semantic":
                certified = perturbation_certify(report.allocation, cell_scenario.devices,
                                                 cell_scenario.system, n_probes=200,
                                                 step=1e-3)
                if not certified:
                    results.append(_failed(sweep, value, algorithm,
                                           "optimality certification failed"))
                    continue
            breakdown = _breakdown(cell_scenario, algorithm, report)
            totals = breakdown[:, 3]
            results.append(SweepResult(
                swept_param=sweep.param,
                value=value,
                algorithm=algorithm,
                max_delay_s=float(totals.max()),
                mean_delay_s=float(np.mean(totals)),
                per_device_breakdown=breakdown,
                per_device_beta=[float(b) for b in report.allocation.beta],
                iterations=report.iterations,
            ))
    return results


def emit_csv(results: Sequence[SweepResult], path: Union[str, Path]) -> None:
    """Write one header row plus one row per result, byte-deterministic."""
    header = ["swept_param", "value", "algorithm", "max_delay_s", "mean_delay_s",
              "per_device_breakdown", "per_device_beta", "iterations", "error"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for r in results:
            breakdown = json.dumps(r.per_device_breakdown.tolist(), separators=(",", ":"))
            betas = json.dumps(list(r.per_device_beta), separators=(",", ":"))
            writer.writerow([r.swept_param, repr(float(r.value)), r.algorithm,
                             repr(float(r.max_delay_s)), repr(float(r.mean_delay_s)),
                             breakdown, betas, r.iterations, r.error])

"""System model for semantic-aware edge offloading.

Holds the per-device and system-wide parameter types, the allocation type,
and channel gain synthesis from distances. The delay and energy closed forms
of the compute-then-transmit protocol live in :mod:`semec.closed_forms`.

Unit conventions are fixed and nothing auto-converts: bits, Hz, seconds,
joules, watts, CPU cycles, and dimensionless linear power gains.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, fields
from numbers import Integral, Real
from typing import Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

__all__ = [
    "TerminalDevice",
    "DeviceTable",
    "check_number",
    "SystemConfig",
    "Allocation",
    "generate_channel_gains",
]

_DBM_PER_WATT = 30.0


_OVERRIDES = ("sem_a", "sem_k", "sem_p")  # per-device; None defers to the system


_TINY = np.nextafter(0.0, 1.0)  # the least float above zero
_HUGE = np.finfo(float).max  # the greatest finite float

# the closed range [lo, hi] each number a caller passes by name must lie in,
# with open ends written as the nearest float inside them (NaN fails both
# comparisons, and so does an integer beyond every float), and the message
# naming the rule; the device fields come in the order they are checked
_RULES = {
    **{name: (0.0, _HUGE, "must be finite and nonnegative")
       for name in ("task_bits", "t_transmit", "e_transmit")},
    **{name: (_TINY, _HUGE, "must be finite and positive")
       for name in ("intensity", "energy_coeff", "f_local_max", "p_tx_max", "energy_budget",
                    "channel_gain", "bandwidth_hz", "f_mec_total", "eps_outer", "f_local",
                    "f_remote", "step")},
    **{name: (_TINY, 1.0, "must lie in (0, 1]") for name in ("beta_min", "beta")},
    # device overrides and system fields alike
    **{name: (_TINY, _HUGE, "must be finite and positive when given") for name in _OVERRIDES},
    **{name: (-_HUGE, _HUGE, "must be finite")
       for name in ("noise_psd_dbm_hz", "variable_bounds")},
    "max_outer_iters": (1, _HUGE, "must be a positive integer"),
    **{name: (0, _HUGE, "must be a nonnegative integer") for name in ("n_probes", "seed")},
    "resolution_per_axis": (8, _HUGE, "must be an integer of at least 8"),
}
_COUNTS = ("max_outer_iters", "n_probes", "seed", "resolution_per_axis")  # integers, no bools


def check_number(name: str, value: object) -> None:
    """Raise ValueError, ``<name> <rule>``, unless ``value`` obeys the rule of ``name``:
    a real number, or for a count an integer that is no bool, in its range.
    """
    lo, hi, message = _RULES[name]
    if name in _COUNTS:
        number = isinstance(value, Integral) and not isinstance(value, bool)
    else:  # exact floats skip the slower abstract type test
        number = type(value) is float or isinstance(value, Real)
    try:
        admitted = number and lo <= value <= hi
    except OverflowError:  # an integer beyond every float
        admitted = False
    if not admitted:
        raise ValueError(f"{name} {message}")


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
        for name in _DEVICE_CHECKS:
            value = getattr(self, name)
            if value is not None or name not in _OVERRIDES:
                check_number(name, value)


_FIELDS = tuple(f.name for f in fields(TerminalDevice))
_DEVICE_CHECKS = tuple(name for name in _RULES if name in _FIELDS)  # in check order
_REQUIRED = len(_FIELDS) - len(_OVERRIDES)
_ITER_BLOCK = 1024  # rows converted to Python floats at a time while iterating


def _checked(columns: Dict[str, object], n: int) -> Dict[str, np.ndarray]:
    """Read-only float64 columns of ``n`` devices, checked by the device rules.

    A single number fills its column; a list of another length is an error.
    Only an override column takes None, whole or per device.
    """
    unknown = sorted(set(columns) - set(_FIELDS))
    if unknown:
        raise TypeError(f"unknown device field(s) {unknown}")
    names = [name for name in _DEVICE_CHECKS if name in columns]
    matrix = np.empty((len(names), n))
    given = np.ones((len(names), n), dtype=bool)
    for row, name in enumerate(names):
        values = columns[name]
        if name in _OVERRIDES and values is None:
            given[row] = False
            continue
        if name in _OVERRIDES and isinstance(values, (list, tuple)):
            given[row] = [v is not None for v in values]
            values = [0.0 if v is None else v for v in values]
        array = _numbers(values)
        if array.shape not in ((), (n,)):
            got = len(array) if array.ndim == 1 else f"an array of shape {array.shape}"
            raise ValueError(f"{name} must list {n} numbers, not {got}")
        matrix[row] = array
    return _validated(names, matrix, given)


def _number(value: object) -> float:
    """float(value), and NaN, which fails every rule, for an integer beyond every float."""
    try:
        return float(value)
    except OverflowError:
        return math.nan


def _numbers(values: object) -> np.ndarray:
    """``values`` as an array of numbers, where an entry that is no real
    number reads as NaN and so fails its rule."""
    array = np.asarray(values)
    if array.dtype.kind in "biuf":
        return array
    return np.vectorize(lambda v: _number(v) if isinstance(v, Real) else math.nan,
                        otypes=[float])(np.asarray(values, dtype=object))


def _validated(names: Sequence[str], matrix: np.ndarray,
               given: np.ndarray) -> Dict[str, np.ndarray]:
    """The rows of ``matrix`` as read-only columns, once they obey the rules.

    Entries that are not ``given`` are deferring overrides and become NaN. A
    violation names the first failing device and its first failing field,
    as checking device after device would.
    """
    lo, hi = np.array([_RULES[name][:2] for name in names]).T[:, :, None]
    bad = given & ~((lo <= matrix) & (matrix <= hi))
    failing = bad.any(axis=0)
    if failing.any():
        i = int(failing.argmax())
        name = names[int(bad[:, i].argmax())]
        raise ValueError(f"devices[{i}]: {name} {_RULES[name][2]}")
    matrix[~given] = math.nan
    matrix.flags.writeable = False
    return dict(zip(names, matrix))


def _device(*values: float) -> TerminalDevice:
    # the override columns come last, and NaN there defers to the system
    return TerminalDevice(*values[:_REQUIRED],
                          *(None if math.isnan(v) else v for v in values[_REQUIRED:]))


class DeviceTable(Sequence):
    """The devices of a scenario as validated, read-only float64 columns.

    There is one column per :class:`TerminalDevice` field, named after it,
    and every entry obeys that field's rule; a violation, an entry that is no
    number included, raises ValueError naming the first failing device,
    ``devices[i]: <field> must ...``. An override column (``sem_a``,
    ``sem_k``, ``sem_p``) holds NaN where the device defers to the
    system-wide value. As input, deferring is spelled ``None``: a NaN is
    rejected like any other non-finite value.

    The table is a sequence of devices: ``table[i]`` and iteration give equal
    :class:`TerminalDevice` objects. The solver, baselines and oracle read
    the columns.
    """

    __slots__ = _FIELDS

    def __init__(self, **columns: object) -> None:
        """Take the columns by field name.

        Each column lists one number per device or gives one number for all,
        and at least one column lists. An override column may be left out or
        None (every device defers), or list None for a device that defers.
        """
        missing = [name for name in _FIELDS if name not in columns and name not in _OVERRIDES]
        if missing:
            raise TypeError(f"missing device column(s) {missing}")
        lengths = [len(v) for v in columns.values() if isinstance(v, (list, tuple)) or np.ndim(v)]
        if not lengths:
            raise ValueError("at least one column must list one number per device")
        for name, column in _checked({name: None for name in _OVERRIDES} | columns,
                                     lengths[0]).items():
            object.__setattr__(self, name, column)

    @classmethod
    def _of(cls, columns: Dict[str, np.ndarray]) -> "DeviceTable":
        table = object.__new__(cls)
        for name, column in columns.items():
            object.__setattr__(table, name, column)
        return table

    @classmethod
    def from_devices(cls, devices: Iterable[TerminalDevice]) -> "DeviceTable":
        """The table of the given devices; a table is returned as it is."""
        if isinstance(devices, DeviceTable):
            return devices
        devices = tuple(devices)
        return cls(**{name: [getattr(td, name) for td in devices] for name in _FIELDS})

    def replace(self, **columns: object) -> "DeviceTable":
        """A table with the given columns replaced; only those are checked."""
        kept = {name: getattr(self, name) for name in _FIELDS}
        return DeviceTable._of({**kept, **_checked(columns, len(self))})

    def semantic_constants(self, cfg: SystemConfig) -> Tuple[np.ndarray, ...]:
        """Effective (a, k, p) per device, honoring per-device overrides."""
        return tuple(np.where(np.isnan(getattr(self, name)), getattr(cfg, name),
                              getattr(self, name)) for name in _OVERRIDES)

    def __len__(self) -> int:
        return self.task_bits.shape[0]

    def __getitem__(self, index: int) -> TerminalDevice:
        i = operator.index(index)
        return _device(*(float(getattr(self, name)[i]) for name in _FIELDS))

    def __iter__(self) -> Iterator[TerminalDevice]:
        # rows are built a block at a time, so no per-device lists pile up
        for start in range(0, len(self), _ITER_BLOCK):
            yield from map(_device, *(getattr(self, name)[start:start + _ITER_BLOCK].tolist()
                                      for name in _FIELDS))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeviceTable):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name), equal_nan=True)
                   for name in _FIELDS)

    __hash__ = None  # type: ignore[assignment]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DeviceTable is read-only")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("DeviceTable is read-only")

    def __repr__(self) -> str:
        return f"DeviceTable(<{len(self)} devices>)"


@dataclass(frozen=True)
class SystemConfig:
    """Scenario-wide parameters and outer-loop tolerances.

    ``noise_psd_dbm_hz`` is a power spectral density; the rate formula uses
    the integrated noise power over one sub-channel of ``bandwidth_hz``.
    Defaults reproduce the reference simulation setup. Every field obeys
    its rule in the one table that :func:`check_number` reads. The device
    count is the length of the device sequence, and the inner solves run to
    machine precision, so neither has a field here.
    """

    bandwidth_hz: float = 1e6
    noise_psd_dbm_hz: float = -174.0
    f_mec_total: float = 13e9
    sem_a: float = 1e-5
    sem_k: float = 4.0
    sem_p: float = 3.0
    eps_outer: float = 1e-6
    max_outer_iters: int = 100

    def __post_init__(self) -> None:
        for f in fields(self):
            check_number(f.name, getattr(self, f.name))

    @property
    def noise_power_w(self) -> float:
        """Integrated noise power over one sub-channel, in watts."""
        dbm = self.noise_psd_dbm_hz + 10.0 * math.log10(self.bandwidth_hz)
        return 10.0 ** ((dbm - _DBM_PER_WATT) / 10.0)


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
        if any(getattr(self, name).shape != (n,)
               for name in ("f_remote", "t_transmit", "e_transmit", "beta")):
            raise ValueError("allocation vectors must share one length")
        if not self.t_epigraph >= 0:
            raise ValueError("t_epigraph must be nonnegative")

    @property
    def n_devices(self) -> int:
        return int(self.f_local.shape[0])


def generate_channel_gains(
    distances_m: Sequence[float], fading_seed: Optional[int] = None
) -> np.ndarray:
    """Linear uplink power gains for the given distances.

    Optionally multiplies each gain by a unit-mean exponential fading draw
    from a seeded generator, so identical (distances, seed) inputs always
    yield identical gains. Raises ValueError for a distance that is not
    finite and positive, or so short or long that its gain is not.
    """
    d = np.asarray(distances_m, dtype=float)
    if not np.all((0.0 < d) & (d < math.inf)):
        raise ValueError("distances must be finite and positive")
    losses = 128.1 + 37.6 * np.log10(d / 1000.0)
    with np.errstate(over="ignore"):
        gains = 10.0 ** (-losses / 10.0)
        if fading_seed is not None:
            rng = np.random.default_rng(fading_seed)
            gains = gains * rng.exponential(1.0, size=d.shape)
    if not np.all((0.0 < gains) & (gains < math.inf)):
        raise ValueError("distances must give finite and positive channel gains")
    return gains

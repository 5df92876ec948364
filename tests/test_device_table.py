"""The column-oriented device table: validation, the deferring-override
sentinel, the sequence view, and the load-to-certificate path without
per-device objects."""

import json
import math
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from semec import (
    DeviceTable,
    ScenarioError,
    TerminalDevice,
    dump_scenario,
    load_scenario,
    perturbation_certify,
    solve,
)
from semec.bench import _REFERENCE_DEVICE, scenario_from_dict, scenario_to_dict

FIELDS = tuple(f.name for f in fields(TerminalDevice))
OVERRIDES = ("sem_a", "sem_k", "sem_p")
DEVICE = dict(_REFERENCE_DEVICE, channel_gain=1e-10)


def table_of(n: int = 2, **columns) -> DeviceTable:
    return DeviceTable(**{**{name: [value] * n for name, value in DEVICE.items()}, **columns})


def doc_with(devices, n: int = 2) -> dict:
    return {"system": {"n_devices": n}, "devices": devices,
            "channel": {"gains": [1e-10 * (i + 1) for i in range(n)]}}


class TestOverrideSentinel:
    @pytest.mark.parametrize("devices,index", [('[{}, {"sem_k": NaN}]', 1),
                                               ('{"uniform": {"sem_k": NaN}, "count": 2}', 0)])
    def test_json_nan_literal_rejected(self, devices, index):
        text = ('{"system": {"n_devices": 2}, "devices": ' + devices
                + ', "channel": {"gains": [1e-10, 2e-10]}}')
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(json.loads(text))
        assert str(exc.value) == f"devices[{index}]: sem_k must be finite and positive when given"

    def test_nan_rejected_from_devices(self):
        devices = [TerminalDevice(**DEVICE), SimpleNamespace(**{**DEVICE, "sem_a": math.nan,
                                                                "sem_k": None, "sem_p": None})]
        with pytest.raises(ValueError, match=r"^devices\[1\]: sem_a must be finite"):
            DeviceTable.from_devices(devices)

    def test_numeric_string_rejected_from_devices(self):
        # a TerminalDevice rejects the string, and so does the table
        devices = [TerminalDevice(**DEVICE), SimpleNamespace(**{**DEVICE, "task_bits": "3e6",
                                                                "sem_a": None, "sem_k": None,
                                                                "sem_p": None})]
        with pytest.raises(ValueError) as exc:
            DeviceTable.from_devices(devices)
        assert str(exc.value) == "devices[1]: task_bits must be finite and nonnegative"

    @pytest.mark.parametrize("column", [[None, math.nan], np.array([1e-5, math.nan]), math.nan])
    def test_nan_rejected_on_construction(self, column):
        with pytest.raises(ValueError, match=r"sem_a must be finite and positive when given"):
            table_of(sem_a=column)

    def test_none_round_trips(self, tmp_path):
        scn = scenario_from_dict(doc_with([{"sem_a": None, "sem_p": 2.0}, {"sem_a": 2e-5}]))
        first, second = scn.devices
        assert (first.sem_a, first.sem_k, first.sem_p) == (None, None, 2.0)
        assert (second.sem_a, second.sem_k, second.sem_p) == (2e-5, None, None)
        entries = scenario_to_dict(scn)["devices"]
        assert [sorted(set(e) & set(OVERRIDES)) for e in entries] == [["sem_p"], ["sem_a"]]
        dump_scenario(scn, tmp_path / "s.json")
        again = load_scenario(tmp_path / "s.json")
        assert again == scn and again.devices[0].sem_a is None
        a, k, p = again.devices.semantic_constants(again.system)
        assert (a[0], a[1], k[0], p[0], p[1]) == (again.system.sem_a, 2e-5, again.system.sem_k,
                                                  2.0, again.system.sem_p)


class TestSequenceView:
    def test_rows_are_devices(self):
        table = table_of(3, task_bits=[1e6, 2e6, 3e6], sem_k=[None, 3.0, None])
        assert len(table) == 3
        assert table[1] == TerminalDevice(**{**DEVICE, "task_bits": 2e6, "sem_k": 3.0})
        assert table[-1] == list(table)[2]
        with pytest.raises(IndexError):
            table[3]

    def test_equality_reads_deferring_overrides_as_equal(self):
        assert table_of(sem_a=[None, 1e-5]) == table_of(sem_a=[None, 1e-5])
        assert table_of(sem_a=[None, 1e-5]) != table_of(sem_a=[1e-5, 1e-5])
        assert table_of() != tuple(table_of())

    def test_read_only(self):
        table = table_of()
        for name in FIELDS:
            assert not getattr(table, name).flags.writeable
        with pytest.raises(ValueError):
            table.energy_budget[0] = 1.0
        with pytest.raises(AttributeError):
            table.energy_budget = np.ones(2)

    def test_replace_checks_and_keeps_other_columns(self):
        table = table_of()
        swept = table.replace(energy_budget=0.25)
        assert list(swept.energy_budget) == [0.25, 0.25]
        assert swept.task_bits is table.task_bits
        with pytest.raises(ValueError, match=r"^devices\[0\]: energy_budget must be finite"):
            table.replace(energy_budget=-1.0)

    def test_unknown_column_rejected(self):
        with pytest.raises(TypeError) as exc:
            table_of(bogus=[1.0, 1.0])
        assert str(exc.value) == "unknown device field(s) ['bogus']"

    def test_missing_column_rejected(self):
        with pytest.raises(TypeError) as exc:
            DeviceTable(**{name: [value] * 2 for name, value in DEVICE.items()
                           if name != "channel_gain"})
        assert str(exc.value) == "missing device column(s) ['channel_gain']"

    def test_some_column_must_list(self):
        with pytest.raises(ValueError) as exc:
            DeviceTable(**DEVICE)
        assert str(exc.value) == "at least one column must list one number per device"

    def test_scenario_converts_a_device_sequence(self, reference):
        scn = replace(reference, devices=tuple(reference.devices))
        assert isinstance(scn.devices, DeviceTable) and scn == reference


class TestFirstViolation:
    def test_first_device_then_first_field_in_check_order(self):
        # energy_budget is checked before beta_min, as TerminalDevice does
        with pytest.raises(ValueError, match=r"^devices\[1\]: energy_budget"):
            table_of(3, beta_min=[0.5, 2.0, 0.0], energy_budget=[0.5, -1.0, -1.0])
        with pytest.raises(ValueError, match=r"^devices\[0\]: beta_min"):
            table_of(3, beta_min=[2.0, 0.5, 0.5], energy_budget=[0.5, -1.0, 0.5])

    @pytest.mark.parametrize("columns,message", [
        ({"task_bits": "3e6"}, "devices[0]: task_bits must be finite and nonnegative"),
        ({"task_bits": [3e6, None]}, "devices[1]: task_bits must be finite and nonnegative"),
        ({"task_bits": [3e6, 10**400]}, "devices[1]: task_bits must be finite and nonnegative"),
        ({"intensity": ["70", 70.0], "task_bits": [3e6, -1.0]},
         "devices[0]: intensity must be finite and positive"),
        ({"intensity": [70.0, "70"], "beta_min": [2.0, 0.5]},
         "devices[0]: beta_min must lie in (0, 1]"),
        ({"sem_a": [None, "1e-5"]}, "devices[1]: sem_a must be finite and positive when given"),
    ])
    def test_entry_that_is_no_number_names_device_and_rule(self, columns, message):
        with pytest.raises(ValueError) as exc:
            table_of(**columns)
        assert str(exc.value) == message

    @pytest.mark.parametrize("column,message", [
        ([0.5, 0.5, 0.5], "energy_budget must list 2 numbers, not 3"),
        ([0.5], "energy_budget must list 2 numbers, not 1"),
        ([[0.5, 0.5], [0.5, 0.5]],
         "energy_budget must list 2 numbers, not an array of shape (2, 2)"),
    ])
    def test_length_mismatch_names_both_lengths(self, column, message):
        for make in (lambda: table_of(energy_budget=column),
                     lambda: table_of().replace(energy_budget=column)):
            with pytest.raises(ValueError) as exc:
                make()
            assert str(exc.value) == message

    @pytest.mark.parametrize("devices,message", [
        ([{}, {"bogus": 1.0}, {"energy_budget": -1.0}], "unknown field(s) ['bogus'] in devices[1]"),
        ([{"energy_budget": -1.0}, {"bogus": 1.0}],
         "devices[0]: energy_budget must be finite and positive"),
        ({"uniform": {"bogus": 1.0, "energy_budget": -1.0}, "count": 3},
         "unknown field(s) ['bogus'] in devices[0]"),
    ])
    def test_unknown_fields_reported_in_device_order(self, devices, message):
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(doc_with(devices, 3 if isinstance(devices, dict) else len(devices)))
        assert str(exc.value) == message


# --- column-wise checks against device-by-device checks ---------------------

_CORRUPTIONS = {
    "negative": lambda v: -v,
    "zero": lambda v: 0.0,
    "inf": lambda v: math.inf,
    "nan": lambda v: math.nan,
    "bool": lambda v: True,
    "string": lambda v: repr(v),
}
_ENTRY_FIELDS = tuple(_REFERENCE_DEVICE) + OVERRIDES


@st.composite
def device_documents(draw):
    """A scenario document with an explicit device list or a uniform template,
    some fields left to their defaults, and at most one field corrupted."""
    n = draw(st.integers(1, 5))
    uniform = draw(st.booleans())

    def entry():
        scale = st.floats(0.5, 0.99)
        out = {name: value * draw(scale)
               for name, value in _REFERENCE_DEVICE.items() if draw(st.booleans())}
        for name in OVERRIDES:
            choice = draw(st.sampled_from(["absent", "null", "value"]))
            if choice != "absent":
                out[name] = None if choice == "null" else draw(st.floats(1e-6, 5.0))
        return out

    entries = [entry() for _ in range(1 if uniform else n)]
    if draw(st.booleans()):
        target = entries[draw(st.integers(0, len(entries) - 1))]
        name = draw(st.sampled_from(_ENTRY_FIELDS))
        value = target.get(name)
        if value is None:
            value = _REFERENCE_DEVICE.get(name, 1.0)
        target[name] = _CORRUPTIONS[draw(st.sampled_from(sorted(_CORRUPTIONS)))](value)
    devices = {"uniform": entries[0], "count": n} if uniform else entries
    return doc_with(devices, n)


def device_by_device(doc: dict):
    """The message of loading one validated device at a time, or the devices."""
    devices = doc["devices"]
    entries = [devices["uniform"]] * devices["count"] if isinstance(devices, dict) else devices
    wheres = (["devices.uniform"] if isinstance(devices, dict)
              else [f"devices[{i}]" for i in range(len(entries))])
    for where, entry in zip(wheres, entries):
        for name, value in entry.items():
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, (int, float))):
                return f"{where}.{name} must be a number, not {value!r}"
    out = []
    for i, (entry, gain) in enumerate(zip(entries, doc["channel"]["gains"])):
        try:
            out.append(TerminalDevice(channel_gain=gain, **{**_REFERENCE_DEVICE, **entry}))
        except ValueError as exc:
            return f"devices[{i}]: {exc}"
    return out


@given(device_documents())
def test_column_checks_match_device_checks(doc):
    expected = device_by_device(doc)
    if isinstance(expected, str):
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(doc)
        assert str(exc.value) == expected
        return
    table = scenario_from_dict(doc).devices
    assert len(table) == len(expected)
    for i, td in enumerate(expected):
        assert table[i] == td
    assert DeviceTable.from_devices(list(table)) == table


# --- no per-device objects between load and certificate ---------------------


def test_load_solve_certify_build_no_device_objects(monkeypatch):
    built = []
    post_init = TerminalDevice.__post_init__

    def counted(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(TerminalDevice, "__post_init__", counted)
    n = 20_000
    scn = scenario_from_dict({
        "system": {"n_devices": n, "f_mec_total": 1.3e9 * n},
        "devices": {"uniform": {}, "count": n},
        "channel": {"distances_m": {"linspace": [100.0, 400.0]}},
    })
    report = solve(scn.devices, scn.system)
    assert perturbation_certify(report.allocation, scn.devices, scn.system, n_probes=2,
                                step=1e-3)
    assert built == []
    assert not any(getattr(scn.devices, name).flags.writeable for name in FIELDS)
    replace(scn.devices[0])  # the counter does count device objects
    assert len(built) == 2

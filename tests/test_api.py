"""The public names of the package and of each of its modules."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import semec

_PUBLIC = [
    "Allocation", "ConstraintResiduals", "DeviceTable", "FeasibilityCause", "FeasibilityError",
    "GridSpec", "Scenario", "ScenarioError", "SolverReport", "SweepResult", "SweepSpec",
    "SystemConfig", "TerminalDevice", "default_grid_bounds", "delay_breakdown", "dump_scenario",
    "emit_csv", "generate_channel_gains", "grid_optimum", "load_scenario",
    "log_domain_residuals", "optimal_beta", "optimal_local_rate", "perturbation_certify",
    "reference_scenario", "remote_rate_bisection", "run_sweep", "solve", "solve_local_only",
    "solve_no_semantic", "transmit_bisection",
]

_MODULES = ["semec"] + [f"semec.{info.name}" for info in pkgutil.iter_modules(semec.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_exports_the_counted_names():
    assert len(_PUBLIC) == 31
    assert sorted(semec.__all__) == sorted(_PUBLIC)


def test_solver_report_and_raw_upload_signature():
    fields = tuple(f.name for f in dataclasses.fields(semec.SolverReport))
    assert fields == ("allocation", "objective_trace", "iterations", "converged")
    assert tuple(inspect.signature(semec.solve_no_semantic).parameters) == ("tds", "cfg")


def test_every_config_field_has_a_rule():
    # the device checks run in the table's order, which
    # test_first_device_then_first_field_in_check_order pins
    names = [f.name for cls in (semec.TerminalDevice, semec.SystemConfig)
             for f in dataclasses.fields(cls)]
    assert [name for name in names if name not in semec.model._RULES] == []


def test_every_scenario_number_has_a_rule():
    # each number a scenario file holds outside the device and system fields,
    # and the rule that checks it
    rules = {"devices.count": "devices.count", "system.n_devices": "system.n_devices",
             "channel.fading_seed": "fading_seed", "channel.gains": "channel_gain",
             "channel.distances_m": "distances_m"}
    assert [key for key, rule in rules.items() if rule not in semec.model._RULES] == []

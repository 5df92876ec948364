import copy
import csv
import importlib
import importlib.util
import json
import math
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import semec.bench
import semec.cli
from semec import (
    ScenarioError,
    SweepSpec,
    dump_scenario,
    emit_csv,
    load_scenario,
    reference_scenario,
    run_sweep,
    solve,
    solve_local_only,
)
from semec.bench import scenario_from_dict, scenario_to_dict
from semec.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
SCENARIO_PATH = ROOT / "scenarios" / "reference.json"


def minimal_doc(**overrides):
    doc = {
        "label": "t",
        "system": {"n_devices": 2},
        "devices": {"uniform": {"task_bits": 3e6}, "count": 2},
        "channel": {"distances_m": [120.0, 200.0]},
    }
    doc.update(overrides)
    return doc


class TestLoadScenario:
    def test_reference_file_matches_builder(self):
        from_file = load_scenario(SCENARIO_PATH)
        built = reference_scenario()
        assert from_file == built
        assert len(from_file.devices) == 10

    def test_defaults_fill_from_reference_values(self):
        scn = scenario_from_dict(minimal_doc())
        assert scn.system.bandwidth_hz == 1e6
        assert scn.devices[0].intensity == 70.0
        assert scn.devices[0].beta_min == 0.6

    def test_beta_min_out_of_range(self):
        doc = minimal_doc(devices={"uniform": {"beta_min": 1.5}, "count": 2})
        with pytest.raises(ScenarioError, match="beta_min"):
            scenario_from_dict(doc)

    def test_channel_mode_exclusivity(self):
        doc = minimal_doc(channel={"gains": [1e-10, 1e-10], "distances_m": [120.0, 200.0]})
        with pytest.raises(ScenarioError, match="exactly one"):
            scenario_from_dict(doc)
        doc = minimal_doc(channel={})
        with pytest.raises(ScenarioError, match="exactly one"):
            scenario_from_dict(doc)

    def test_count_mismatch(self):
        doc = minimal_doc(system={"n_devices": 3})
        with pytest.raises(ScenarioError, match="n_devices"):
            scenario_from_dict(doc)

    def test_explicit_gains(self):
        doc = minimal_doc(channel={"gains": [2e-10, 1e-10]})
        scn = scenario_from_dict(doc)
        assert scn.devices[0].channel_gain == 2e-10

    def test_fading_seed_only_with_distances(self):
        doc = minimal_doc(channel={"gains": [2e-10, 1e-10], "fading_seed": 3})
        with pytest.raises(ScenarioError, match="fading_seed"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("doc,message", [
        (minimal_doc(devices={"count": 2}), "devices mapping needs a 'uniform' template"),
        (minimal_doc(devices="reference"), "devices must be a list or a uniform template mapping"),
        ({k: v for k, v in minimal_doc().items() if k != "channel"}, "channel section is required"),
        (minimal_doc(channel={"gains": [1e-10, 0.0]}),
         "devices[1]: channel_gain must be finite and positive"),
    ], ids=["no-uniform-template", "devices-string", "no-channel", "zero-gain"])
    def test_section_errors_name_the_rule(self, doc, message):
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(doc)
        assert str(exc.value) == message

    def test_document_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ScenarioError) as exc:
            load_scenario(path)
        assert str(exc.value) == f"{path}: scenario document must be a JSON object"

    def test_parse_error_has_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken\n}")
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(bad)

    def test_unknown_field_rejected(self):
        doc = minimal_doc(system={"n_devices": 2, "bogus": 1.0})
        with pytest.raises(ScenarioError, match="bogus"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("overrides", [
        pytest.param(doc, id=name) for name, doc in {
            "linspace-3": {"channel": {"distances_m": {"linspace": [120.0, 160.0, 200.0]}}},
            "linspace-1": {"channel": {"distances_m": {"linspace": [120.0]}}},
            "linspace-missing": {"channel": {"distances_m": {}}},
            "linspace-string": {"channel": {"distances_m": {"linspace": "120-200"}}},
            "linspace-word": {"channel": {"distances_m": {"linspace": ["near", 200.0]}}},
            "distances-words": {"channel": {"distances_m": ["near", "far"]}},
            "distances-nested": {"channel": {"distances_m": [120.0, [200.0]]}},
            "gains-word": {"channel": {"gains": ["strong", 1e-10]}},
            "gains-mapping": {"channel": {"gains": [{}, 1e-10]}},
            "gains-numeric-strings": {"channel": {"gains": ["1e-10", "2e-10"]}},
            "fading-seed-word": {"channel": {"distances_m": [120.0, 200.0],
                                             "fading_seed": "abc"}},
            "count-word": {"devices": {"uniform": {}, "count": "abc"}},
            "count-fraction": {"devices": {"uniform": {}, "count": 2.7}},
            "count-bool": {"devices": {"uniform": {}, "count": True}},
            "count-missing": {"system": {}, "devices": {"uniform": {}}},
            "uniform-string": {"devices": {"uniform": "reference", "count": 2}},
            "device-entries-numbers": {"devices": [1, 2]},
            "device-field-string": {"devices": {"uniform": {"task_bits": "3e6"}, "count": 2}},
            "device-field-null": {"devices": {"uniform": {"beta_min": None}, "count": 2}},
            "device-field-numeric-string": {"devices": [{"intensity": "70"}, {}]},
            "system-list": {"system": [["n_devices", 2]]},
            "system-field-word": {"system": {"n_devices": "two"}},
            "system-field-numeric-string": {"system": {"n_devices": 2, "sem_a": "1e-5"}},
            "system-field-null": {"system": {"n_devices": 2, "sem_p": None}},
            "removed-eps-bisect-transmit": {"system": {"n_devices": 2,
                                                       "eps_bisect_transmit": 1e-7}},
            "removed-eps-bisect-capacity": {"system": {"eps_bisect_capacity": 1e-7}},
            "removed-eps-outer": {"system": {"n_devices": 2, "eps_outer": 1e-6}},
            "removed-max-outer-iters": {"system": {"max_outer_iters": 100}},
            "mixed-bool-gains": {"channel": {"gains": [True, 2e-10]}},
            "mixed-bool-distances": {"channel": {"distances_m": [True, 200.0]}},
            "n-devices-zero": {"system": {"n_devices": 0}},
            "n-devices-negative": {"system": {"n_devices": -1}},
            "n-devices-fraction": {"system": {"n_devices": 2.5}},
            "n-devices-bool": {"system": {"n_devices": True}},
            "distances-nan": {"channel": {"distances_m": [float("nan"), 100.0]}},
            "distances-inf": {"channel": {"distances_m": [float("inf"), 100.0]}},
            "distances-underflow": {"channel": {"distances_m": [1e-300, 100.0]}},
            "linspace-inf": {"channel": {"distances_m": {"linspace": [float("inf"), 100.0]}}},
            "fading-seed-bool": {"channel": {"distances_m": [120.0, 200.0],
                                             "fading_seed": True}},
            "fading-seed-negative": {"channel": {"distances_m": [120.0, 200.0],
                                                 "fading_seed": -1}},
        }.items()
    ])
    def test_malformed_document_rejected(self, overrides):
        with pytest.raises(ScenarioError):
            scenario_from_dict(minimal_doc(**overrides))

    @pytest.mark.parametrize("overrides,message", [
        ({"devices": {"uniform": {}, "count": -3}}, "devices.count must be a positive integer"),
        ({"devices": {"uniform": {}, "count": 0}}, "devices.count must be a positive integer"),
        ({"system": {"n_devices": -3}, "devices": {"uniform": {}}},
         "system.n_devices must be a positive integer"),
        ({"system": {}, "devices": {"uniform": {}}}, "devices.count must be a positive integer"),
        ({"system": {}, "devices": []}, "devices must list at least one device"),
        ({"system": {"n_devices": 0}, "devices": []}, "devices must list at least one device"),
        ({"system": {"n_devices": 0}}, "system.n_devices must be a positive integer"),
    ])
    def test_count_errors_name_the_field_given(self, overrides, message):
        with pytest.raises(ScenarioError, match="^" + re.escape(message)):
            scenario_from_dict(minimal_doc(**overrides))

    @pytest.mark.parametrize("overrides,message", [
        *(pytest.param({"system": {}, "devices": {"uniform": {}, "count": value}},
                       "devices.count must be a positive integer", id=f"count-{name}")
          for name, value in (("10**400", 10**400), ("True", True), ("2.5", 2.5), ("-1", -1),
                              ("2**60", 2**60), ("2**63-1", 2**63 - 1))),
        *(pytest.param({"system": {"n_devices": value}, "devices": {"uniform": {}}},
                       "system.n_devices must be a positive integer", id=f"n-devices-{name}")
          for name, value in (("10**400", 10**400), ("2.5", 2.5), ("-1", -1),
                              ("2**63-1", 2**63 - 1))),
        # a bool is no number to any section
        pytest.param({"system": {"n_devices": True}, "devices": {"uniform": {}}},
                     "system.n_devices must be a number, not True", id="n-devices-True"),
        *(pytest.param({"channel": {"distances_m": [120.0, 200.0], "fading_seed": value}},
                       "channel.fading_seed must be a nonnegative integer", id=f"seed-{name}")
          for name, value in (("10**400", 10**400), ("True", True), ("2.5", 2.5), ("-1", -1))),
        pytest.param({"channel": {"gains": [10**400, 1e-10]}},
                     "devices[0]: channel_gain must be finite and positive", id="gains-10**400"),
        pytest.param({"channel": {"distances_m": [10**400, 200.0]}},
                     "channel.distances_m must be finite and positive", id="distances-10**400"),
        pytest.param({"channel": {"distances_m": [120.0, "200"]}},
                     "channel.distances_m must be finite and positive", id="distances-string"),
    ])
    def test_every_number_obeys_its_rule(self, overrides, message):
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(minimal_doc(**overrides))
        assert str(exc.value) == message

    @pytest.mark.parametrize("channel,path", [
        ({"distances_m": {"linspace": [120.0, 200.0]}}, ("distances_m", "linspace")),
        ({"distances_m": [120.0, 200.0]}, ("distances_m",)),
        ({"gains": [2e-10, 1e-10]}, ("gains",)),
    ], ids=["linspace", "distances", "gains"])
    def test_channel_record_is_the_scenarios_own(self, channel, path, tmp_path):
        # a change to the document after loading reaches neither the scenario nor its dump
        doc = minimal_doc(channel=channel)
        scn = scenario_from_dict(doc)
        before = scenario_to_dict(scn)
        numbers = doc["channel"]
        for key in path:
            numbers = numbers[key]
        numbers[0] = 999
        assert scenario_to_dict(scn) == before
        out = tmp_path / "dump.json"
        dump_scenario(scn, out)
        assert load_scenario(out) == scn

    @pytest.mark.parametrize("channel,path", [
        ({"distances_m": {"linspace": [120.0, 200.0]}}, ("distances_m", "linspace")),
        ({"distances_m": [120.0, 200.0]}, ("distances_m",)),
        ({"gains": [2e-10, 1e-10]}, ("gains",)),
    ], ids=["linspace", "distances", "gains"])
    def test_dump_is_the_callers_own(self, channel, path):
        # a change to the dump reaches neither the scenario nor a later dump
        scn = scenario_from_dict(minimal_doc(channel=channel))
        record = copy.deepcopy(scn.channel)
        before = scenario_to_dict(scn)
        dump = scenario_to_dict(scn)
        numbers = dump["channel"]
        for key in path:
            numbers = numbers[key]
        numbers[0] = 999.0
        assert scn.channel == record
        assert scenario_to_dict(scn) == before

    def test_declared_device_count_is_optional(self):
        scn = scenario_from_dict(minimal_doc(system={}))
        assert scn == scenario_from_dict(minimal_doc())
        assert "n_devices" not in scenario_to_dict(scn)["system"]

    @pytest.mark.parametrize("distances", ['[NaN, 100]', '[Infinity, 100]', '[1e-300, 100]'])
    def test_distance_errors_name_the_distances(self, distances):
        doc = json.loads('{"system": {}, "devices": {"uniform": {}, "count": 2}, '
                         '"channel": {"distances_m": ' + distances + '}}')
        with pytest.raises(ScenarioError, match=r"^channel\.distances_m must "):
            scenario_from_dict(doc)

    def test_null_sem_override_defers_to_system(self):
        scn = scenario_from_dict(minimal_doc(devices=[{"sem_a": None}, {"sem_a": 2e-5}]))
        assert scn.devices[0].sem_a is None and scn.devices[1].sem_a == 2e-5

    def test_round_trip(self, tmp_path):
        scn = reference_scenario()
        out = tmp_path / "dump.json"
        dump_scenario(scn, out)
        again = load_scenario(out)
        assert again == scn
        # canonical dump of a loaded scenario is stable
        out2 = tmp_path / "dump2.json"
        dump_scenario(again, out2)
        assert out.read_bytes() == out2.read_bytes()

    def test_round_trip_with_explicit_gains(self, tmp_path):
        doc = minimal_doc(channel={"gains": [3.5e-10, 1.25e-11]})
        scn = scenario_from_dict(doc)
        out = tmp_path / "g.json"
        dump_scenario(scn, out)
        assert load_scenario(out) == scn

    def test_fading_seed_changes_gains_deterministically(self):
        base = scenario_from_dict(minimal_doc())
        faded = scenario_from_dict(minimal_doc(
            channel={"distances_m": [120.0, 200.0], "fading_seed": 11}))
        faded_again = scenario_from_dict(minimal_doc(
            channel={"distances_m": [120.0, 200.0], "fading_seed": 11}))
        assert faded == faded_again
        assert faded.devices[0].channel_gain != base.devices[0].channel_gain


class TestRunSweep:
    def test_energy_sweep_monotone(self, reference):
        sweep = SweepSpec("energy_budget", (0.3, 0.5, 0.7))
        results = run_sweep(reference, sweep, ["semantic", "local"])
        sem = [r.max_delay_s for r in results if r.algorithm == "semantic"]
        loc = [r.max_delay_s for r in results if r.algorithm == "local"]
        assert np.all(np.diff(sem) <= 1e-9)
        assert np.all(np.diff(loc) <= 1e-9)

    def test_beta_min_sweep_monotone(self, reference):
        sweep = SweepSpec("beta_min", (1.0, 0.8, 0.6))
        results = run_sweep(reference, sweep, ["semantic"])
        delays = [r.max_delay_s for r in results]
        assert np.all(np.diff(delays) <= 1e-9)

    def test_empty_values(self):
        with pytest.raises(ScenarioError, match="^the task_bits sweep lists no values$"):
            SweepSpec("task_bits", ())

    def test_cell_failure_recorded_without_abort(self, reference):
        # the middle value is impossible to upload within the energy budget
        sweep = SweepSpec("task_bits", (3e6, 1e13, 4e6))
        results = run_sweep(reference, sweep, ["semantic"])
        assert len(results) == 3
        assert results[0].error == "" and results[2].error == ""
        assert "RateCapTooLow" in results[1].error
        assert np.isnan(results[1].max_delay_s)

    def test_max_is_max_of_device_totals(self, reference):
        results = run_sweep(reference, SweepSpec("energy_budget", (0.5,)), ["semantic"])
        r = results[0]
        totals = r.per_device_breakdown[:, 3]
        assert r.max_delay_s == max(totals)
        assert r.mean_delay_s == pytest.approx(float(np.mean(totals)))

    def test_semantic_max_delay_is_solver_epigraph(self, reference):
        # the breakdown adds the delays in the solver's own order
        for value in (0.3, 0.5):
            r, = run_sweep(reference, SweepSpec("energy_budget", (value,)), ["semantic"])
            devices = tuple(replace(td, energy_budget=value) for td in reference.devices)
            report = solve(devices, reference.system)
            assert r.max_delay_s == report.allocation.t_epigraph
            assert r.per_device_breakdown.shape == (len(devices), 4)

    def test_local_max_delay_is_local_only_objective(self, reference):
        # the local rows read A*I from the device table's columns
        r, = run_sweep(reference, SweepSpec("energy_budget", (0.3,)), ["local"])
        devices = reference.devices.replace(energy_budget=0.3)
        assert r.max_delay_s == solve_local_only(devices, reference.system).allocation.t_epigraph

    def test_value_no_float_holds_rejected_like_inf(self, reference):
        for value in (math.inf, 10**400):
            with pytest.raises(ValueError, match="^task_bits must be finite and nonnegative$"):
                run_sweep(reference, SweepSpec("task_bits", (value,)), ["semantic"])

    def test_unknown_param_rejected(self):
        with pytest.raises(ScenarioError, match="unknown sweep parameter"):
            SweepSpec("bandwidth_hz", (1e6,))

    def test_unknown_algorithm_rejected(self, reference):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_sweep(reference, SweepSpec("energy_budget", (0.5,)), ["zzz"])


class TestEmitCsv:
    def test_three_line_file(self, reference, tmp_path):
        results = run_sweep(reference, SweepSpec("energy_budget", (0.4, 0.6)), ["semantic"])
        out = tmp_path / "r.csv"
        emit_csv(results, out)
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("swept_param,value,algorithm,max_delay_s,mean_delay_s")

    def test_byte_determinism(self, reference, tmp_path):
        sweep = SweepSpec("energy_budget", (0.4, 0.6))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(reference, sweep, ["semantic", "no-semantic", "local"]), a)
        emit_csv(run_sweep(reference, sweep, ["semantic", "no-semantic", "local"]), b)
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_precision(self, reference, tmp_path):
        results = run_sweep(reference, SweepSpec("energy_budget", (0.5,)), ["semantic"])
        out = tmp_path / "r.csv"
        emit_csv(results, out)
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[3]) == results[0].max_delay_s

    def test_columns_reconstruct_sweep_curves(self, reference, tmp_path):
        import csv as csv_mod
        import json as json_mod
        values = (0.3, 0.4, 0.5)
        algorithms = ["semantic", "no-semantic", "local"]
        results = run_sweep(reference, SweepSpec("energy_budget", values), algorithms)
        out = tmp_path / "curves.csv"
        emit_csv(results, out)
        with open(out, newline="") as fh:
            rows = list(csv_mod.DictReader(fh))
        curves = {}
        for row in rows:
            curves.setdefault(row["algorithm"], []).append(
                (float(row["value"]), float(row["max_delay_s"])))
        assert set(curves) == set(algorithms)
        for algorithm in algorithms:
            assert [v for v, _ in curves[algorithm]] == list(values)
        # per-device component columns decode and sum to their totals
        sample = json_mod.loads(rows[0]["per_device_breakdown"])
        assert len(sample) == 10
        for t_local, t_tx, t_remote, total in sample:
            assert total == pytest.approx(t_local + t_tx + t_remote, rel=1e-12)
        betas = json_mod.loads(rows[0]["per_device_beta"])
        assert len(betas) == 10


class TestCli:
    def test_end_to_end_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "one.csv", tmp_path / "two.csv"
        base = ["--scenario", str(SCENARIO_PATH),
                "--sweep", "energy_budget=0.4,0.6",
                "--algorithm", "semantic", "--algorithm", "local"]
        assert cli_main(base + ["--out", str(out1)]) == 0
        assert cli_main(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_single_run_mode(self, tmp_path):
        out = tmp_path / "single.csv"
        code = cli_main(["--scenario", str(SCENARIO_PATH), "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 2

    def test_verify_flag(self, tmp_path):
        out = tmp_path / "v.csv"
        code = cli_main(["--scenario", str(SCENARIO_PATH), "--out", str(out), "--verify"])
        assert code == 0

    def test_failed_cell_sets_exit_code(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        code = cli_main(["--scenario", str(SCENARIO_PATH), "--out", str(out),
                         "--sweep", "task_bits=3e6,1e13"])
        assert code == 1
        assert "cell failed" in capsys.readouterr().err

    def test_failed_certificate_fails_only_the_semantic_cells(self, tmp_path, monkeypatch):
        args = ["--scenario", str(SCENARIO_PATH), "--sweep", "energy_budget=0.4,0.6",
                "--algorithm", "semantic", "--algorithm", "no-semantic",
                "--algorithm", "local", "--verify"]
        certified, failed = tmp_path / "certified.csv", tmp_path / "failed.csv"
        assert cli_main(args + ["--out", str(certified)]) == 0
        monkeypatch.setattr(semec.bench, "perturbation_certify", lambda *a, **kw: False)
        assert cli_main(args + ["--out", str(failed)]) == 1
        with open(certified, newline="") as a, open(failed, newline="") as b:
            rows = list(zip(csv.DictReader(a), csv.DictReader(b)))
        assert len(rows) == 6
        for before, after in rows:
            if after["algorithm"] == "semantic":
                assert after["error"] == "optimality certification failed"
                assert after["max_delay_s"] == "nan" and after["per_device_beta"] == "[]"
            else:
                assert after == before

    @pytest.mark.parametrize("value,message", [
        ("energy_budget", "expected PARAM=v1,v2,..."),
        ("nosuch=1", "unknown sweep parameter 'nosuch'; choose from "),
        ("energy_budget=a", "bad sweep values: could not convert string to float: 'a'"),
        ("energy_budget=", "bad sweep values: the energy_budget sweep lists no values"),
        ("energy_budget= , ", "bad sweep values: the energy_budget sweep lists no values")],
        ids=["no_equals_sign", "unknown_param", "non_numeric_value", "no_values",
             "blank_values"])
    def test_malformed_sweep_text(self, tmp_path, capsys, value, message):
        out = tmp_path / "bad.csv"
        with pytest.raises(SystemExit) as exc:
            cli_main(["--scenario", str(SCENARIO_PATH), "--out", str(out), "--sweep", value])
        assert exc.value.code == 2
        assert f"argument --sweep: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_scenario_file(self, tmp_path):
        code = cli_main(["--scenario", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("flag,value,field", [("--sweep", "energy_budget=0.5,-1",
                                                   "energy_budget"),
                                                  ("--sweep", "sem_k=0", "sem_k")])
    def test_bad_override_is_an_error_not_a_traceback(self, tmp_path, capsys, flag, value,
                                                      field):
        out = tmp_path / "bad.csv"
        code = cli_main(["--scenario", str(SCENARIO_PATH), "--out", str(out), flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("field,value,message", [
        # the outer loop's tolerance and cap are the solver's constants now
        pytest.param(field, 0, f"unknown field(s) ['{field}'] in system", id=f"{field}-0")
        for field in ("max_outer_iters", "eps_outer")
    ] + [pytest.param("f_mec_total", 10**400, "system: f_mec_total must be finite and positive",
                      id="f_mec_total-10**400")])
    def test_bad_scenario_value_is_an_error_not_a_traceback(self, tmp_path, capsys, field,
                                                            value, message):
        doc = json.loads(SCENARIO_PATH.read_text())
        doc["system"][field] = value
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps(doc))
        out = tmp_path / "bad.csv"
        code = cli_main(["--scenario", str(scenario), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_count_no_float_holds_is_an_error_not_a_traceback(self, tmp_path, capsys):
        doc = json.loads(SCENARIO_PATH.read_text())
        doc["devices"]["count"] = 10**400
        scenario = tmp_path / "huge.json"
        scenario.write_text(json.dumps(doc))
        out = tmp_path / "huge.csv"
        assert cli_main(["--scenario", str(scenario), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: devices.count must be a positive integer\n"
        assert not out.exists()

    @pytest.mark.parametrize("count", [2**60, 2**63 - 1], ids=["2**60", "2**63-1"])
    def test_count_beyond_every_array_is_an_error_not_a_traceback(self, tmp_path, capsys,
                                                                  count):
        # the rule rejects the count before the linspace channel builds an array
        doc = json.loads(SCENARIO_PATH.read_text())
        doc["devices"]["count"] = count
        scenario = tmp_path / "huge.json"
        scenario.write_text(json.dumps(doc))
        out = tmp_path / "huge.csv"
        assert cli_main(["--scenario", str(scenario), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: devices.count must be a positive integer\n"
        assert not out.exists()

    def test_count_no_array_holds_is_an_error_not_a_traceback(self, tmp_path, capsys,
                                                              monkeypatch):
        # a count the rule admits may still be too large to allocate; whether
        # numpy fails fast depends on the host, so the load is stubbed
        def load(path):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                              "(1000000000000,) and data type float64")

        monkeypatch.setattr(semec.cli, "load_scenario", load)
        out = tmp_path / "huge.csv"
        assert cli_main(["--scenario", str(SCENARIO_PATH), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate 7.28 TiB") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--eps1", "--eps2", "--seed", "--eps-outer",
                                      "--max-iters"])
    def test_removed_flags_rejected(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--scenario", str(SCENARIO_PATH), "--out", str(tmp_path / "x.csv"),
                      flag, "1"])
        assert exc.value.code == 2

    def test_installed_entry_point(self, tmp_path):
        out = tmp_path / "ep.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "semec.cli", "--scenario", str(SCENARIO_PATH),
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


def load_perfbench(name: str):
    """The module ``perfbench/<name>.py``, loaded from the checkout."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


class TestTracedCallSites:
    def test_perfbench_call_sites_resolve(self):
        # the traced benchmark run wraps these module attributes by name; one
        # that no longer resolves breaks it
        for module, attr, *_ in load_perfbench("spans")._CALL_SITES:
            target = getattr(importlib.import_module(f"semec.{module}"), attr, None)
            assert callable(target), f"semec.{module}.{attr}"


class TestPerfbenchScenarios:
    def test_workload_documents_load(self):
        # every benchmark workload writes a scenario document that must load
        workloads = load_perfbench("workloads")
        for workload in workloads.WORKLOADS.values():
            small = replace(workload, n=3)
            scenario = scenario_from_dict(workloads.scenario_doc(small, seed=0))
            assert len(scenario.devices) == 3

    @pytest.mark.parametrize("name, objective", [("energy-n1k", "0x1.dc2c0c7c218cfp-2"),
                                                 ("power-n100k", "0x1.9b74abe0b5ac4p-2")])
    def test_seed0_objectives_stay_bit_identical(self, name, objective):
        # a performance change must not move the benchmark's objectives by a bit
        workloads = load_perfbench("workloads")
        scenario = scenario_from_dict(workloads.scenario_doc(workloads.WORKLOADS[name], seed=0))
        assert solve(scenario.devices, scenario.system).allocation.t_epigraph.hex() == objective

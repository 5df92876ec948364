"""Smoke test of the benchmark itself, on tiny inputs and short runs.

Run from the repository root: ``python3 perfbench/smoke.py``. It exits 0
when every check holds. It checks that

- every workload, at a tiny n, emits exactly the metrics BENCHMARK.json
  names, each with its unit, both untraced and traced, and passes its own
  correctness check;
- the correctness check fails an op whose objective, objective trace,
  convergence flag, certificate or CSV cell is corrupted, and an op that
  raises.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from dataclasses import replace

import run
from workloads import (
    WORKLOADS,
    DeviceArrays,
    check_solve,
    check_sweep,
    sweep_argv,
    write_scenario,
)

TINY_N = {"ref-sweep": 10, "energy-n1k": 12, "power-n100k": 40}
SECONDS = 0.2

failures = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_emitted_metrics() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name, workload in WORKLOADS.items():
        tiny = replace(workload, n=TINY_N[name])
        for traced, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            _, result = run.run_workload(tiny, seed=7, seconds=SECONDS, traced=traced)
            label = f"{name} n={tiny.n} trace={int(traced)}"
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: correct, {result['attempted']} ops")
            wanted = {m["name"]: m["unit"] for m in declared}
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            expect(got == wanted, f"{label}: every declared metric with its unit")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{label}: every value a number")


def check_correctness_trips() -> None:
    semec = run.import_semec()
    workload = replace(WORKLOADS["energy-n1k"], n=TINY_N["energy-n1k"])
    path = run.OUT / "smoke-scenario.json"
    run.OUT.mkdir(exist_ok=True)
    write_scenario(workload, 7, path)
    scenario = semec["bench"].load_scenario(path)
    devices, cfg = scenario.devices, scenario.system
    arrays = DeviceArrays(devices, cfg)
    report = semec["solver"].solve(devices, cfg)
    objective = [report.allocation.t_epigraph]

    problems, _ = check_solve(report, True, arrays, objective)
    expect(problems == [], "an intact solve passes")
    shifted = replace(report, allocation=replace(
        report.allocation, t_epigraph=objective[0] * (1 + 1e-4)))
    corrupted = {
        "objective off the reference by 1e-4": shifted,
        "objective trace increasing": replace(
            report, objective_trace=report.objective_trace + [objective[0] * 2]),
        "objective trace not finite": replace(
            report, objective_trace=report.objective_trace + [float("nan")]),
        "not converged": replace(report, converged=False),
        "infeasible allocation": replace(report, allocation=replace(
            report.allocation, f_remote=report.allocation.f_remote * 2)),
    }
    for what, bad in corrupted.items():
        problems, _ = check_solve(bad, True, arrays, objective)
        expect(problems != [], f"check_solve trips on {what}: {problems}")
    problems, _ = check_solve(report, False, arrays, objective)
    expect(problems != [], "check_solve trips on a failed certificate")

    # the same through the closed loop, with no reference: the first op sets it
    outcomes = iter([(report, True), (shifted, True)])
    loop = run.Loop(lambda: next(outcomes),
                    lambda outcome, expected: check_solve(*outcome, arrays, expected), None)
    loop.run(0.0, 2)
    expect(loop.attempted == 2 and len(loop.failures) == 1,
           "the loop fails the op whose objective drifts from the first op's")
    loop = run.Loop(lambda: 1 / 0, lambda outcome, expected: ([], []), None)
    loop.run(0.0, 1)
    expect(len(loop.failures) == 1, "the loop fails an op that raises")

    sweep = WORKLOADS["ref-sweep"]
    path = run.OUT / "smoke-sweep.json"
    csv_path = run.OUT / "smoke-sweep.csv"
    write_scenario(sweep, 7, path)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        exit_code = semec["cli"].main(sweep_argv(path, csv_path))
    problems, objectives = check_sweep(exit_code, csv_path, None)
    expect(problems == [], "an intact sweep passes")
    off = list(objectives)
    off[4] *= 1 + 1e-4
    problems, _ = check_sweep(exit_code, csv_path, off)
    expect(problems != [], "check_sweep trips on a cell objective off by 1e-4")
    text = csv_path.read_text(encoding="utf-8").splitlines()
    text[1] = text[1] + "optimality certification failed"
    csv_path.write_text("\n".join(text) + "\n", encoding="utf-8")
    problems, _ = check_sweep(exit_code, csv_path, objectives)
    expect(problems != [], "check_sweep trips on an error cell")
    problems, _ = check_sweep(0, run.OUT / "smoke-missing.csv", objectives)
    expect(problems != [], "check_sweep trips on a CSV that was not written")


def main() -> int:
    check_emitted_metrics()
    check_correctness_trips()
    print(f"{len(failures)} failed" if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

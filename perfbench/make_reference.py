"""Regenerate reference.json: each workload's objectives and regime shares
at the default seed, which every run with that seed is checked against.

Run from the repository root: ``python3 perfbench/make_reference.py``.
Regenerate only for a change that is meant to move the objectives.
"""

from __future__ import annotations

import contextlib
import json
import os

import run
from spans import Tracer
from workloads import OBJECTIVE_RTOL, WORKLOADS, regime_shares, write_scenario

SEED = 0


def main() -> None:
    semec = run.import_semec()
    doc = {"seed": SEED, "rtol": OBJECTIVE_RTOL, "workloads": {}}
    run.OUT.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        scenario_path = run.OUT / f"{name}-scenario.json"
        write_scenario(workload, SEED, scenario_path)
        scenario = semec["bench"].load_scenario(scenario_path)
        op, check = run.make_op(workload, semec, scenario, scenario_path,
                                run.OUT / f"{name}.csv")
        tracer = Tracer()
        tracer.install(semec)
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                problems, objectives = check(op(), None)
        finally:
            tracer.uninstall()
        if problems:
            raise SystemExit(f"{name}: {'; '.join(problems)}")
        doc["workloads"][name] = {"n": workload.n, "objectives": objectives,
                                  "shares": regime_shares(tracer.solves)}
        print(name, objectives, doc["workloads"][name]["shares"])
    run.REFERENCE.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

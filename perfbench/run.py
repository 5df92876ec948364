"""The semec benchmark: seeded workloads, end-to-end metrics, a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload ref-sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

``--workload all`` runs every workload in its own process, one after another.
Every run is one process on one thread driving a closed loop: one caller,
and the next op starts only when the previous one has returned and been
checked. The program is imported from ``src/`` of the checkout the script
sits in; nothing is built or installed.

``--trace 0`` reports the end-to-end metrics and installs no wrapper at all.
Op time is reported as ``op_s_tail``, the slowest op with ten slower ones
beyond it, and ``devices_per_s`` is taken at that op time. The median and
the fastest op are printed beside it but not reported: on a shared host the
CPU runs up to 1.8x slower for seconds to minutes at a time. Across ten
seeded 30 s runs the median spread by up to 32 %, and the fastest op moved
by 37 % between two sets of runs; the tail stayed within 25 % in all five
sets measured.
``--trace 1`` runs the same loop with every other op traced, then calls once
on the workload's scenario every layer the op did not reach, and reports
per-layer metrics. Its spans are written to
``.perfbench-out/trace-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# pin every BLAS/OpenMP pool before anything can import numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    DeviceArrays,
    check_solve,
    check_sweep,
    regime_shares,
    sweep_argv,
    write_scenario,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 5  # fresh processes timed for setup_s: at least this many,
SETUP_PROBE_SECONDS = 3.0  # and more while they take less than this, up to
SETUP_PROBES_MAX = 15  # this many
TAIL_BEYOND = 10  # op_s_tail is the highest sample with ten samples beyond it
MIN_OPS = TAIL_BEYOND + 1
STANDALONE_DEVICES = 64  # devices sampled for the per-device public calls
STANDALONE_REPEATS = 3
CERTIFY_PROBES = 200  # what semec-bench --verify uses
CERTIFY_MAX_N = 1000  # above this, 200 probes of the Python loop take minutes


def _pin_allocator() -> bool:
    """Keep freed memory in the heap for the rest of the process.

    glibc's adaptive mmap and trim thresholds hand freed arrays back to the
    kernel after some ops and not after others, so at n=1e5 an op pays 0 or
    up to 0.5 s of page faults depending on heap history. Fixed thresholds
    make every op run on a warm heap.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    libc.mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(libc.mallopt(m_mmap_threshold, 64 << 20)
                and libc.mallopt(m_trim_threshold, 256 << 20))


def _setup_samples(scenario_path: Path) -> list:
    samples = []
    start = time.perf_counter()
    while len(samples) < SETUP_PROBES or (len(samples) < SETUP_PROBES_MAX and
                                    time.perf_counter() - start < SETUP_PROBE_SECONDS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(scenario_path)],
            capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def import_semec() -> dict:
    sys.path.insert(0, str(SRC))
    import semec
    import semec.cli

    if Path(semec.__file__).resolve().parent != (SRC / "semec").resolve():
        raise RuntimeError(f"imported semec from {semec.__file__}, not from {SRC}")
    return {name: sys.modules[f"semec.{name}"]
            for name in ("cli", "bench", "model", "solver", "baselines", "oracle")}


def _env_record(n: int, heap_pinned: bool) -> dict:
    import numpy as np

    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "caches_per_cpu": caches,
        "device_array_bytes": 8 * n,
        "heap_pinned": heap_pinned,
        "threads": {var: os.environ[var] for var in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _load_reference(workload, seed: int):
    doc = json.loads(REFERENCE.read_text(encoding="utf-8"))
    entry = doc["workloads"].get(workload.name)
    if seed != doc["seed"] or entry is None or entry["n"] != workload.n:
        return None
    return entry["objectives"]


class Loop:
    """A closed loop: runs ops back to back and checks each one."""

    def __init__(self, op, check, expected):
        self.op = op
        self.check = check
        self.expected = expected  # reference objectives; else the first op's
        self.attempted = 0
        self.failures: list = []

    def run(self, seconds: float, min_ops: int, on_op=None) -> list:
        times = []
        start = time.perf_counter()
        while True:
            if on_op is not None:
                on_op(len(times))
            t0 = time.perf_counter()
            try:
                outcome = self.op()
            except Exception as exc:  # an op that raises is a failed op
                times.append(time.perf_counter() - t0)
                problems = [f"raised {type(exc).__name__}: {exc}"]
            else:
                times.append(time.perf_counter() - t0)
                problems, objectives = self.check(outcome, self.expected)
                if self.expected is None and not problems:
                    self.expected = objectives
            self.attempted += 1
            if problems:
                self.failures.append(problems)
            if time.perf_counter() - start >= seconds and len(times) >= min_ops:
                return times


def _tail(times: list) -> tuple:
    ordered = sorted(times)
    index = len(ordered) - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _census(workload, semec, tracer, scenario_path, csv_path, solved) -> None:
    """Call once every layer the traced ops did not reach, then the
    standalone public solver functions at the solved point."""
    devices, cfg, report = solved
    alloc = report.allocation
    tracer.begin_op("census")
    if not tracer.seen("cli.main"):
        semec["cli"].main(["--scenario", str(scenario_path), "--out", str(csv_path)])
    if not tracer.seen("baselines.solve_no_semantic"):
        semec["baselines"].solve_no_semantic(devices, cfg)
    if not tracer.seen("baselines.solve_local_only"):
        semec["baselines"].solve_local_only(devices, cfg)
    if not tracer.seen("oracle.perturbation_certify"):
        probes = CERTIFY_PROBES if len(devices) <= CERTIFY_MAX_N else 2
        semec["oracle"].perturbation_certify(alloc, devices, cfg, n_probes=probes, step=1e-3)

    solver = semec["solver"]
    stride = max(1, len(devices) // STANDALONE_DEVICES)
    calls = 0
    for i in range(0, len(devices), stride):
        td = devices[i]
        for call in (
            lambda: solver.transmit_bisection(td, alloc.beta[i], alloc.f_local[i], cfg),
            lambda: solver.optimal_beta(td, alloc.f_local[i], alloc.f_remote[i],
                                        alloc.t_transmit[i], alloc.e_transmit[i], cfg),
            lambda: solver.optimal_local_rate(td, alloc.beta[i], alloc.e_transmit[i], cfg),
        ):
            tracer.begin_op(("call", calls))
            calls += 1
            call()
    for _ in range(STANDALONE_REPEATS):
        tracer.begin_op(("call", calls))
        calls += 1
        solver.remote_rate_bisection(devices, alloc.beta, alloc.f_local,
                                     alloc.t_transmit, cfg)
        tracer.begin_op(("call", calls))
        calls += 1
        solver.log_domain_residuals(alloc, devices, cfg)


def _layer_metrics(tracer: Tracer, shares: dict, overhead: float, n: int) -> dict:
    median = statistics.median
    metrics = {}
    for name, span, self_time in (
        ("cli.main_self_s", "cli.main", True),
        ("bench.load_scenario_s", "bench.load_scenario", False),
        ("bench.scenario_from_dict_s", "bench.scenario_from_dict", False),
        ("model.generate_channel_gains_s", "model.generate_channel_gains", False),
        ("bench.run_sweep_self_s", "bench.run_sweep", True),
        ("bench.emit_csv_s", "bench.emit_csv", False),
        ("model.delay_breakdown_s", "model.delay_breakdown", False),
        ("solver.solve_s", "solver.solve", False),
        ("solver.transmit_bisection_s_per_device", "solver.transmit_bisection", False),
        ("solver.optimal_beta_s_per_device", "solver.optimal_beta", False),
        ("solver.optimal_local_rate_s_per_device", "solver.optimal_local_rate", False),
        ("solver.remote_rate_bisection_s", "solver.remote_rate_bisection", False),
        ("solver.log_domain_residuals_s", "solver.log_domain_residuals", False),
        ("baselines.solve_no_semantic_s", "baselines.solve_no_semantic", False),
        ("baselines.solve_local_only_s", "baselines.solve_local_only", False),
        ("oracle.perturbation_certify_s", "oracle.perturbation_certify", False),
    ):
        metrics[name] = _metric(tracer.median(span, self_time), "s")
    metrics["bench.csv_bytes"] = _metric(
        median(tracer.per_op_counts("bench.emit_csv", "csv_bytes")), "bytes")
    metrics["model.delay_breakdown_calls"] = _metric(
        median(tracer.per_op_counts("model.delay_breakdown")), "count")
    metrics["solver.outer_iters"] = _metric(
        median(tracer.per_op_counts("solver.solve", "outer_iters")), "count")
    for name, value in shares.items():
        metrics[name] = _metric(value, "ratio")
    passed = sum(tracer.per_op_counts("oracle.perturbation_certify", "passed"))
    calls = sum(tracer.per_op_counts("oracle.perturbation_certify"))
    metrics["oracle.certify_pass_ratio"] = _metric(passed / calls, "ratio")
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    metrics["model.device_array_bytes"] = _metric(8 * n, "bytes")
    return metrics


def make_op(workload, semec, scenario, scenario_path, csv_path) -> tuple:
    """The workload's op, and the check of one op's outcome.

    ``check(outcome, expected)`` returns the op's problems and its objectives.
    """
    if workload.op == "sweep":
        argv = sweep_argv(scenario_path, csv_path)

        def op():
            return semec["cli"].main(argv)

        def check(exit_code, expected):
            try:
                return check_sweep(exit_code, csv_path, expected)
            finally:
                csv_path.unlink(missing_ok=True)  # the next op must write its own

        return op, check

    devices, cfg = scenario.devices, scenario.system
    arrays = DeviceArrays(devices, cfg)
    certify = workload.op == "solve+certify"

    def op():
        report = semec["solver"].solve(devices, cfg)
        if not certify:
            return report, None
        return report, semec["oracle"].perturbation_certify(
            report.allocation, devices, cfg, n_probes=CERTIFY_PROBES, step=1e-3)

    def check(outcome, expected):
        return check_solve(*outcome, arrays, expected)

    return op, check


def run_workload(workload, seed: int, seconds: float, traced: bool) -> tuple:
    """Run one workload; returns (human-readable lines, result object)."""
    OUT.mkdir(exist_ok=True)
    scenario_path = OUT / f"{workload.name}-scenario.json"  # one per workload, overwritten
    csv_path = OUT / f"{workload.name}.csv"
    write_scenario(workload, seed, scenario_path)
    setup_samples = None if traced else _setup_samples(scenario_path)

    heap_pinned = _pin_allocator()
    tracer = Tracer() if traced else None
    semec = import_semec()
    if traced:
        tracer.install(semec)
    scenario = semec["bench"].load_scenario(scenario_path)
    if traced:
        tracer.uninstall()

    op, check = make_op(workload, semec, scenario, scenario_path, csv_path)
    loop = Loop(op, check, _load_reference(workload, seed))
    lines = [f"{workload.name} seed={seed} n={workload.n} trace={int(traced)}",
             f"env {json.dumps(_env_record(workload.n, heap_pinned), sort_keys=True)}"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        if not traced:
            times = loop.run(seconds, MIN_OPS)
        else:
            # odd ops traced, even ops not: both halves see the same swings
            # of a shared host's speed, so their difference is the overhead
            def alternate(index):
                tracer.uninstall()
                if index % 2:
                    tracer.install(semec)
                    tracer.begin_op(index)

            times = loop.run(seconds, 2, on_op=alternate)
            tracer.uninstall()
            untraced, traced_times = times[0::2], times[1::2]
            overhead = statistics.median(traced_times) - statistics.median(untraced)
            shares = regime_shares(tracer.solves)
            tracer.install(semec)
            _census(workload, semec, tracer, scenario_path, csv_path, tracer.solves[-1])
            tracer.uninstall()

    failed = len(loop.failures)
    for problems in loop.failures[:5]:
        lines.append("op failed: " + "; ".join(problems))
    lines.append(f"  ops={loop.attempted} failed={failed} "
                 f"fail_ratio={failed / loop.attempted:.6g}")
    if not traced:
        tail, percentile = _tail(times)
        metrics = {
            "setup_s": _metric(statistics.median(setup_samples), "s"),
            "op_s_tail": _metric(tail, "s"),
            "devices_per_s": _metric(workload.devices_per_op / tail, "1/s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        notes = {"setup_s": f"median of {len(setup_samples)} fresh processes",
                 "op_s_tail": f"p{percentile:.1f} of {len(times)} ops, {TAIL_BEYOND} beyond "
                              f"it; median {statistics.median(times):.6g} s, "
                              f"fastest {min(times):.6g} s",
                 "devices_per_s": f"{workload.devices_per_op} per op, at op_s_tail"}
    else:
        metrics = _layer_metrics(tracer, shares, overhead, workload.n)
        notes = {"trace.overhead_s": f"traced {len(traced_times)} ops, "
                                     f"untraced {len(untraced)} ops"}
        trace_path = OUT / f"trace-{workload.name}.json"
        tracer.dump(trace_path, {"workload": workload.name, "seed": seed,
                                 "env": _env_record(workload.n, heap_pinned)})
        lines.append(f"  spans written to {trace_path}")
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"  {name:42s} {metric['value']:.6g} {metric['unit']}{note}")
    result = {"correct": failed == 0, "attempted": loop.attempted, "failed": failed,
              "metrics": metrics}
    return lines, result


def _run_all(args) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "semec" / "__init__.py").is_file():
        print(f"error: no semec sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        result = _run_all(args)
    else:
        lines, result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                     bool(args.trace))
        print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one `[acceptance] ...: PASS/FAIL` line with the measured
numbers, then asserts. Criterion 5's reduction brackets encode reference
point values of 37.10% (vs raw-upload offloading) and 69.35% (vs local
execution); those points came from a channel setup that is not fully
reproducible, so bracket ranges stand in for them here and the check is
expected to reflect whatever the declared substitute channel model yields.
"""

import time
from dataclasses import replace

import numpy as np

from conftest import multi_device_draw, semantic_constants, single_device_draw, solve_retained
from semec import (
    GridSpec,
    SweepSpec,
    default_grid_bounds,
    emit_csv,
    grid_optimum,
    log_domain_residuals,
    optimal_beta,
    run_sweep,
    solve,
    solve_local_only,
    solve_no_semantic,
    reference_scenario,
)
from semec import solver
from semec.bench import scenario_from_dict


def _report(cid: str, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {cid} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_c1_oracle_equivalence_small_instance():
    rng = np.random.default_rng(20260808)
    started = time.perf_counter()
    gaps = []
    for _ in range(10):
        td, cfg = single_device_draw(rng)
        solved = solve([td], cfg).objective_trace[-1]
        grid_obj, _ = grid_optimum([td], cfg, GridSpec(128, default_grid_bounds([td], cfg)))
        gaps.append(abs(solved - grid_obj) / grid_obj)
    elapsed = time.perf_counter() - started
    ok = max(gaps) <= 0.01 and elapsed < 60.0
    _report("C1", "oracle-equivalence", ok,
            f"worst gap {max(gaps) * 100:.3f}% of 1%, {elapsed:.1f}s of 60s")
    assert ok


def test_c2_delay_cap_tightness_and_capacity_saturation():
    rng = np.random.default_rng(42)
    worst_slack = 0.0
    worst_capacity = 1.0
    for _ in range(20):
        tds, cfg = multi_device_draw(rng)
        report = solve(tds, cfg)
        slack = log_domain_residuals(report.allocation, tds, cfg).delay_cap.max()
        worst_slack = max(worst_slack, float(slack))
        worst_capacity = min(worst_capacity,
                             float(report.allocation.f_remote.sum()) / cfg.f_mec_total)
    allowed = 1e-7 + 1e-9
    ok = worst_slack <= allowed and worst_capacity >= 1.0 - 1e-6
    _report("C2", "tightness", ok,
            f"worst delay-cap slack {worst_slack:.2e} of {allowed:.2e}, "
            f"worst capacity use {worst_capacity:.9f} of 0.999999")
    assert ok


def test_c3_closed_form_factor_matches_fine_grid():
    rng = np.random.default_rng(7)
    started = time.perf_counter()
    import math

    worst = 0.0
    checked = 0
    while checked < 200:
        p = [0.3, 0.5, 0.9, 1.0, 2.0, 3.0][checked % 6]
        td, _ = single_device_draw(rng)
        cfg = reference_scenario().system
        cfg = replace(cfg, sem_a=float(1e-5 * rng.uniform(0.3, 3)),
                      sem_k=float(rng.uniform(2, 5)), sem_p=p)
        f_local = float(1e9 * rng.uniform(0.3, 1.0))
        f_remote = float(1.3e9 * rng.uniform(0.3, 10.0))
        t_transmit = float(rng.uniform(0.02, 0.4))
        e_transmit = float(min(rng.uniform(0.01, 0.5), td.p_tx_max * t_transmit))
        a, k, _ = semantic_constants(td, cfg)
        rem = td.energy_budget - e_transmit
        if rem <= 0:
            continue
        eta1 = max(td.beta_min,
                   (a * td.task_bits * td.energy_coeff * f_local**2 / rem) ** (1 / k))
        cap = t_transmit * cfg.bandwidth_hz * math.log2(
            1.0 + td.channel_gain * e_transmit / (t_transmit * cfg.noise_power_w))
        eta2 = min(1.0, cap / td.task_bits)
        if eta1 >= eta2 - 5e-6:
            continue
        beta = optimal_beta(td, f_local, f_remote, t_transmit, e_transmit, cfg)
        grid = np.arange(eta1, eta2, 1e-6)
        objective = (a * td.task_bits / (f_local * grid**k) + t_transmit
                     + td.task_bits * td.intensity * grid ** (1.0 - p) / f_remote)
        worst = max(worst, abs(beta - float(grid[np.argmin(objective)])))
        checked += 1
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-5 and elapsed < 10.0
    _report("C3", "closed-form-factor", ok,
            f"worst |closed-form - grid| {worst:.2e} of 1e-5, {elapsed:.1f}s of 10s")
    assert ok


def test_c4_monotone_outer_descent_and_convergence():
    scn = reference_scenario()
    report = solve(scn.devices, scn.system)
    trace = np.array(report.objective_trace)
    worst_rise = float(np.diff(trace).max()) if trace.size > 1 else 0.0
    rng = np.random.default_rng(404)
    for _ in range(5):
        tds, cfg = multi_device_draw(rng)
        extra = np.array(solve(tds, cfg).objective_trace)
        if extra.size > 1:
            worst_rise = max(worst_rise, float(np.diff(extra).max()))
    ok = (report.converged and report.iterations <= 20
          and report.iterations <= solver._MAX_OUTER_ITERS and worst_rise <= 1e-12)
    _report("C4", "monotone-descent", ok,
            f"iterations {report.iterations} of 20, worst trace rise {worst_rise:.2e}")
    assert ok


def test_c5_baseline_ordering_and_reduction_magnitude():
    scn = reference_scenario()
    energies = (0.3, 0.4, 0.5, 0.6, 0.7)
    semantic, headline, retained, local = [], [], [], []
    for energy in energies:
        devices = tuple(replace(td, energy_budget=energy) for td in scn.devices)
        semantic.append(solve(devices, scn.system).objective_trace[-1])
        headline.append(solve_no_semantic(devices, scn.system).objective_trace[-1])
        retained.append(solve_retained(devices, scn.system).objective_trace[-1])
        local.append(solve_local_only(devices, scn.system).objective_trace[-1])
    semantic, headline, retained, local = map(np.array, (semantic, headline, retained, local))

    # ordering; the retained-extraction variant makes the first leg exact
    ordering = bool(np.all(semantic <= retained + 1e-9)
                    and np.all(headline <= local + 1e-9))
    vs_no_semantic = 100.0 * (1.0 - semantic.mean() / headline.mean())
    vs_local = 100.0 * (1.0 - semantic.mean() / local.mean())
    in_brackets = 20.0 <= vs_no_semantic <= 50.0 and 50.0 <= vs_local <= 85.0
    ok = ordering and in_brackets
    _report("C5", "baseline-ordering-and-reduction", ok,
            f"ordering={'ok' if ordering else 'violated'}, "
            f"reduction vs raw-upload {vs_no_semantic:.2f}% of [20,50], "
            f"vs local {vs_local:.2f}% of [50,85]")
    assert ok


def test_c6_trend_reproduction():
    started = time.perf_counter()
    scn = reference_scenario()

    energy = SweepSpec("energy_budget", (0.3, 0.4, 0.5, 0.6, 0.7))
    rows = run_sweep(scn, energy, ["semantic", "no-semantic", "local"])
    trends = {}
    for algorithm in ("semantic", "no-semantic", "local"):
        delays = np.array([r.max_delay_s for r in rows if r.algorithm == algorithm])
        trends[f"energy/{algorithm}"] = float(np.diff(delays).max())

    floor = run_sweep(scn, SweepSpec("beta_min", (1.0, 0.9, 0.8, 0.7, 0.6, 0.5)),
                      ["semantic"])
    trends["beta_min"] = float(np.diff([r.max_delay_s for r in floor]).max())

    rises = {}
    for param, values in (("sem_a", (0.5e-5, 1e-5, 2e-5)),
                          ("sem_k", (2.0, 4.0, 6.0)),
                          ("sem_p", (1.0, 2.0, 3.0))):
        rows = run_sweep(scn, SweepSpec(param, values), ["semantic"])
        rises[param] = float(np.diff([r.max_delay_s for r in rows]).min())

    elapsed = time.perf_counter() - started
    non_increasing_ok = all(v <= 1e-9 for v in trends.values())
    non_decreasing_ok = all(v >= -1e-9 for v in rises.values())
    ok = non_increasing_ok and non_decreasing_ok and elapsed < 120.0
    _report("C6", "trend-reproduction", ok,
            f"worst forbidden rise {max(trends.values()):.2e}, "
            f"worst forbidden drop {min(rises.values()):.2e}, {elapsed:.1f}s of 120s")
    assert ok


def test_c7_extraction_factor_remark_properties():
    scn = reference_scenario()
    previous = None
    a_ok = True
    for task_bits in np.linspace(2e6, 2e7, 10):
        devices = tuple(replace(td, task_bits=float(task_bits)) for td in scn.devices)
        beta = solve(devices, scn.system).allocation.beta
        if previous is not None and not np.all(beta <= previous + 1e-9):
            a_ok = False
        previous = beta

    previous = None
    h_ok = True
    for factor in np.geomspace(1.0, 0.01, 10):
        devices = tuple(replace(td, channel_gain=td.channel_gain * float(factor))
                        for td in scn.devices)
        beta = solve(devices, scn.system).allocation.beta
        if previous is not None and not np.all(beta <= previous + 1e-9):
            h_ok = False
        previous = beta

    ok = a_ok and h_ok
    _report("C7", "factor-remark-monotonicity", ok,
            f"task-size sweep {'ok' if a_ok else 'violated'}, "
            f"channel sweep {'ok' if h_ok else 'violated'}")
    assert ok


def test_c8_linear_complexity_scaling():
    started = time.perf_counter()

    def scaled_scenario(n: int):
        # constant per-device server share keeps every instance in the same
        # regime, so wall-clock isolates the per-device work
        return scenario_from_dict({
            "label": f"scaling-{n}",
            "system": {"n_devices": n, "f_mec_total": 1.3e9 * n},
            "devices": {"uniform": {"task_bits": 3e6}, "count": n},
            "channel": {"distances_m": {"linspace": [100.0, 400.0]}},
        })

    warmup = scaled_scenario(10)
    solve(warmup.devices, warmup.system)
    sizes = np.array([10, 100, 1000], dtype=float)
    timings = []
    iteration_counts = []
    for n in (10, 100, 1000):
        scn = scaled_scenario(n)
        best = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            report = solve(scn.devices, scn.system)
            best = min(best, time.perf_counter() - t0)
        timings.append(best)
        iteration_counts.append(report.iterations)
    timings = np.array(timings)

    design = np.vstack([np.ones_like(sizes), sizes]).T
    coef, *_ = np.linalg.lstsq(design, timings, rcond=None)
    predicted = design @ coef
    ss_res = float(((timings - predicted) ** 2).sum())
    ss_tot = float(((timings - timings.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot
    elapsed = time.perf_counter() - started
    ok = r_squared >= 0.95 and elapsed < 120.0 and len(set(iteration_counts)) == 1
    _report("C8", "linear-complexity", ok,
            f"R^2 {r_squared:.4f} of 0.95, times "
            f"{', '.join(f'{t * 1000:.1f}ms' for t in timings)}, {elapsed:.1f}s of 120s")
    assert ok


def test_c9_csv_determinism(tmp_path):
    scn = reference_scenario()
    sweep = SweepSpec("energy_budget", (0.3, 0.5, 0.7))
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    emit_csv(run_sweep(scn, sweep, ["semantic", "no-semantic", "local"]), first)
    emit_csv(run_sweep(scn, sweep, ["semantic", "no-semantic", "local"]), second)
    ok = first.read_bytes() == second.read_bytes()
    _report("C9", "csv-determinism", ok,
            f"{first.stat().st_size} bytes, byte-identical={ok}")
    assert ok

import math

import numpy as np
import pytest

from conftest import multi_device_draw, solve_retained
from semec import (
    Scenario,
    SweepSpec,
    SystemConfig,
    TerminalDevice,
    run_sweep,
    solve,
    solve_local_only,
    solve_no_semantic,
)


def make_device(**overrides) -> TerminalDevice:
    params = dict(task_bits=3e6, intensity=70.0, energy_coeff=1e-26, f_local_max=1e9,
                  p_tx_max=1.0, beta_min=0.6, energy_budget=0.5, channel_gain=8e-11)
    params.update(overrides)
    return TerminalDevice(**params)


CFG = SystemConfig()


class TestLocalOnly:
    def test_hardware_capped_delay(self):
        # ample energy: 3 J exceeds kappa*f_max^2*A*I = 2.1 J
        td = make_device(energy_budget=3.0)
        report = solve_local_only([td], CFG)
        assert report.objective_trace[-1] == pytest.approx(0.21, rel=1e-12)

    def test_boundary_energy_gives_cap(self):
        td = make_device(energy_budget=1e-26 * 1e18 * 3e6 * 70.0)
        report = solve_local_only([td], CFG)
        assert report.allocation.f_local[0] == pytest.approx(1e9, rel=1e-12)

    def test_energy_capped_value(self):
        # f* = sqrt(E/(kappa*A*I)), delay = A*I/f*, evaluated independently
        td = make_device(energy_budget=0.5)
        report = solve_local_only([td], CFG)
        assert report.objective_trace[-1] == pytest.approx(0.43037193217030303, rel=1e-12)

    def test_zero_task(self):
        report = solve_local_only([make_device(task_bits=0.0)], CFG)
        assert report.objective_trace[-1] == 0.0

    def test_matches_per_device_loop(self):
        # mixed zero, energy-capped and hardware-capped devices, checked bit for
        # bit against the per-device scalar formulas
        from dataclasses import replace
        tds, cfg = multi_device_draw(np.random.default_rng(5), n=6)
        tds = (replace(tds[0], task_bits=0.0), replace(tds[1], energy_budget=50.0)) + tds[2:]
        report = solve_local_only(tds, cfg)
        f_local, delays = [], []
        for td in tds:
            cycles = td.task_bits * td.intensity
            f = td.f_local_max if cycles == 0 else min(
                td.f_local_max, math.sqrt(td.energy_budget / (td.energy_coeff * cycles)))
            f_local.append(f)
            delays.append(cycles / f)
        assert report.allocation.f_local.tolist() == f_local
        assert report.objective_trace == [max(delays)]
        rows = run_sweep(Scenario(cfg, tds, {}), SweepSpec("f_mec_total", [cfg.f_mec_total]),
                         ["local"])[0].per_device_breakdown
        assert rows[:, 0].tolist() == delays and rows[:, 3].tolist() == delays
        assert f_local[1] == tds[1].f_local_max and delays[0] == 0.0

    def test_no_transmission_no_server(self):
        report = solve_local_only([make_device()], CFG)
        assert report.allocation.t_transmit[0] == 0.0
        assert report.allocation.e_transmit[0] == 0.0
        assert report.allocation.f_remote[0] == 0.0


class TestNoSemantic:
    def test_single_device_closed_form(self):
        # with one device the cap gets the whole server: delay = t_T + A*I/F
        td = make_device()
        report = solve_no_semantic([td], CFG)
        t_transmit = report.allocation.t_transmit[0]
        expected = t_transmit + td.task_bits * td.intensity / CFG.f_mec_total
        assert report.objective_trace[-1] == pytest.approx(expected, rel=1e-9)
        assert report.allocation.f_remote.sum() == pytest.approx(CFG.f_mec_total, rel=1e-9)

    def test_zero_extraction_pass(self):
        td = make_device()
        headline = solve_no_semantic([td], CFG)
        retained = solve_retained([td], CFG)
        # the retained variant carries the factor-1 extraction delay
        assert retained.objective_trace[-1] > headline.objective_trace[-1]
        assert retained.objective_trace[-1] == pytest.approx(
            headline.objective_trace[-1] + 3e-8, rel=1e-6)

    def test_zero_bits(self):
        report = solve_no_semantic([make_device(task_bits=0.0)], CFG)
        assert report.objective_trace[-1] == 0.0
        assert report.iterations == 0


class TestOrdering:
    def test_semantic_contained_in_retained_no_semantic(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            tds, cfg = multi_device_draw(rng)
            semantic = solve(tds, cfg).objective_trace[-1]
            retained = solve_retained(tds, cfg).objective_trace[-1]
            assert semantic <= retained + 1e-9

    def test_offloading_beats_local_on_compute_heavy_draws(self):
        # offloading wins when the server holds a large compute advantage;
        # draws are scaled accordingly (weak channels or generous local
        # energy can legitimately flip this ordering)
        rng = np.random.default_rng(55)
        for _ in range(20):
            tds, cfg = multi_device_draw(rng)
            from dataclasses import replace
            tds = tuple(replace(td, intensity=td.intensity * 2.0,
                                energy_budget=min(td.energy_budget, 0.5)) for td in tds)
            local = solve_local_only(tds, cfg).objective_trace[-1]
            headline = solve_no_semantic(tds, cfg).objective_trace[-1]
            assert local >= headline - 1e-9

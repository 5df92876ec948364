import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from certify_oracle import perturbation_certify_loop, probe_directions
from conftest import log_uniform, multi_device_draw, single_device_draw
from semec import (
    FeasibilityError,
    GridSpec,
    SystemConfig,
    TerminalDevice,
    default_grid_bounds,
    grid_optimum,
    perturbation_certify,
    solve,
    solve_no_semantic,
    transmit_bisection,
)
from semec.oracle import _directions


def make_device(**overrides) -> TerminalDevice:
    params = dict(task_bits=3e6, intensity=70.0, energy_coeff=1e-26, f_local_max=1e9,
                  p_tx_max=1.0, beta_min=0.6, energy_budget=0.5, channel_gain=8e-11)
    params.update(overrides)
    return TerminalDevice(**params)


CFG = SystemConfig(n_devices=1)


class TestGridSpec:
    def test_resolution_floor(self):
        bounds = {"beta": (0.6, 1.0), "f_local": (1e6, 1e9),
                  "t_transmit": (0.0, 1.0), "e_transmit": (0.0, 0.5)}
        with pytest.raises(ValueError):
            GridSpec(4, bounds)

    def test_missing_axis(self):
        with pytest.raises(ValueError):
            GridSpec(16, {"beta": (0.6, 1.0)})

    def test_unordered_bounds(self):
        with pytest.raises(ValueError):
            GridSpec(16, {"beta": (1.0, 0.6), "f_local": (1e6, 1e9),
                          "t_transmit": (0.0, 1.0), "e_transmit": (0.0, 0.5)})


class TestGridOptimum:
    def test_refinement_never_worsens_and_gap_shrinks(self):
        td = make_device()
        solved = solve([td], CFG).objective_trace[-1]
        bounds = default_grid_bounds([td], CFG)
        # nested resolutions so every coarse grid point stays available
        values = [grid_optimum([td], CFG, GridSpec(r, bounds))[0] for r in (33, 65, 129)]
        assert values[1] <= values[0] + 1e-12
        assert values[2] <= values[1] + 1e-12
        gaps = [abs(v - solved) / solved for v in values]
        assert gaps[1] <= gaps[0] + 1e-12
        assert gaps[2] <= gaps[1] + 1e-12

    def test_agreement_with_solver(self):
        rng = np.random.default_rng(202)
        for _ in range(3):
            td, cfg = single_device_draw(rng)
            solved = solve([td], cfg).objective_trace[-1]
            bounds = default_grid_bounds([td], cfg)
            coarse = grid_optimum([td], cfg, GridSpec(64, bounds))[0]
            fine = grid_optimum([td], cfg, GridSpec(128, bounds))[0]
            assert abs(coarse - solved) / solved <= 0.02
            assert abs(fine - solved) / solved <= 0.01
            assert solved <= coarse + 1e-12

    def test_unit_factor_plane_matches_retained_baseline(self):
        td = make_device()
        bounds = default_grid_bounds([td], CFG)
        bounds["beta"] = (1.0, 1.0)
        obj = grid_optimum([td], CFG, GridSpec(128, bounds))[0]
        retained = solve_no_semantic([td], CFG, retain_extraction=True).objective_trace[-1]
        assert abs(obj - retained) / retained <= 0.02

    def test_infeasible_energy(self):
        td = make_device(energy_budget=1e-12)
        bounds = {"beta": (0.6, 1.0), "f_local": (1e6, 1e9),
                  "t_transmit": (1e-3, 0.5), "e_transmit": (0.0, 1e-12)}
        with pytest.raises(FeasibilityError):
            grid_optimum([td], CFG, GridSpec(16, bounds))

    def test_two_devices_symmetric_split(self):
        cfg = SystemConfig(n_devices=2)
        tds = [make_device(), make_device()]
        solved = solve(tds, cfg).objective_trace[-1]
        bounds = default_grid_bounds(tds, cfg)
        obj, alloc = grid_optimum(tds, cfg, GridSpec(32, bounds))
        assert alloc.f_remote[0] == pytest.approx(alloc.f_remote[1], rel=1e-9)
        assert abs(obj - solved) / solved <= 0.08
        assert solved <= obj + 1e-12

    def test_two_heterogeneous_devices(self):
        cfg = SystemConfig(n_devices=2, f_mec_total=8e9)
        tds = [make_device(task_bits=2e6, channel_gain=3e-10),
               make_device(task_bits=5e6, channel_gain=4e-11, intensity=90.0)]
        solved = solve(tds, cfg).objective_trace[-1]
        obj, alloc = grid_optimum(tds, cfg, GridSpec(32, default_grid_bounds(tds, cfg)))
        assert solved <= obj + 1e-12
        assert abs(obj - solved) / solved <= 0.10
        # the heavier, weaker-channel device gets the larger server share
        assert alloc.f_remote[1] > alloc.f_remote[0]

    def test_too_many_devices(self):
        tds = [make_device()] * 3
        bounds = default_grid_bounds(tds, SystemConfig(n_devices=3))
        with pytest.raises(ValueError):
            grid_optimum(tds, SystemConfig(n_devices=3), GridSpec(16, bounds))


class TestPerturbationCertify:
    def test_solver_output_certifies(self, reference_single):
        report = solve(reference_single.devices, reference_single.system)
        assert perturbation_certify(report.allocation, reference_single.devices,
                                    reference_single.system, n_probes=500, step=1e-3)

    def test_shifted_factor_fails(self, reference_single):
        from semec import Allocation
        td = reference_single.devices[0]
        cfg = reference_single.system
        report = solve([td], cfg)
        # move the factor 5% off its optimum and rebuild a feasible uplink pair
        beta_off = float(report.allocation.beta[0]) * 1.05
        f_local = float(report.allocation.f_local[0])
        t_transmit, e_transmit = transmit_bisection(td, beta_off, f_local, cfg)
        w = td.task_bits * td.intensity * beta_off ** (1.0 - cfg.sem_p)
        a, k = cfg.sem_a, cfg.sem_k
        total = (a * td.task_bits / (beta_off**k * f_local) + t_transmit
                 + w / cfg.f_mec_total)
        shifted = Allocation([f_local], [cfg.f_mec_total], [t_transmit],
                             [e_transmit], [beta_off], total)
        assert not perturbation_certify(shifted, [td], cfg, n_probes=500, step=1e-3)

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_unused_server_capacity_fails(self, n):
        # 1 % of the server capacity left idle: scaling every share up at once
        # lowers the max delay, while the solver's tight split still certifies
        for seed in range(4):
            devices, cfg = multi_device_draw(np.random.default_rng(seed), n)
            alloc = solve(devices, cfg).allocation
            assert perturbation_certify(alloc, devices, cfg, n_probes=200, step=1e-3)
            idle = replace(alloc, f_remote=alloc.f_remote * 0.99)
            assert not perturbation_certify(idle, devices, cfg, n_probes=200, step=1e-3)

    def test_zero_probes_vacuous(self, reference_single):
        report = solve(reference_single.devices, reference_single.system)
        assert perturbation_certify(report.allocation, reference_single.devices,
                                    reference_single.system, n_probes=0, step=1e-3)

    def test_infeasible_input_rejected(self, reference_single):
        from semec import Allocation
        cfg = reference_single.system
        bad = Allocation([1e9], [2 * cfg.f_mec_total], [0.1], [0.1], [0.8], 1.0)
        with pytest.raises(ValueError):
            perturbation_certify(bad, reference_single.devices, cfg, n_probes=10, step=1e-3)

    def test_large_n_few_probes_memory(self):
        # the probes are built and checked in bounded blocks, so two probes at
        # n = 20000 stay far below one dense (5n) direction per device
        n = 20_000
        devices, cfg = multi_device_draw(np.random.default_rng(11), n)
        report = solve(devices, cfg)
        tracemalloc.start()
        try:
            assert perturbation_certify(report.allocation, devices, cfg, n_probes=2, step=1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("malform", ["length", "nan", "no_server_share"])
    def test_malformed_allocation_rejected(self, reference_single, malform):
        devices, cfg = reference_single.devices, reference_single.system
        alloc = solve(devices, cfg).allocation
        if malform == "length":
            devices = devices * 2
        elif malform == "nan":
            alloc = replace(alloc, f_local=np.array([np.nan]))
        else:
            alloc = replace(alloc, f_remote=np.array([0.0]))
        with pytest.raises(ValueError):
            perturbation_certify(alloc, devices, cfg, n_probes=10, step=1e-3)


_VARIANTS = {
    "solved": lambda alloc: alloc,
    "f_remote": lambda alloc: replace(alloc, f_remote=alloc.f_remote * 0.99),
    "beta": lambda alloc: replace(alloc, beta=alloc.beta * 1.02),
    "t_transmit": lambda alloc: replace(alloc, t_transmit=alloc.t_transmit * 1.02),
}


@st.composite
def certify_draws(draw):
    """A solved multi-device scenario and an allocation derived from its optimum.

    Devices come from ``multi_device_draw`` with a drawn seed. Some lose
    their task or get their own ``sem_p``/``sem_k``. A drawn common energy
    budget makes most uplinks energy-limited; without one the uplinks keep
    the power-limited budgets of ``multi_device_draw``. The allocation is
    the solver's output or a suboptimal
    (``f_remote`` x 0.99, ``t_transmit`` x 1.02) or infeasible
    (``beta`` x 1.02) perturbation of it.
    """
    n = draw(st.one_of(st.integers(1, 12), st.integers(13, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    devices, cfg = multi_device_draw(rng, n, sem_p=draw(st.sampled_from([1.5, 2.0, 3.0])))
    budget = draw(st.one_of(st.none(), log_uniform(0.03, 0.3)))
    idle_share = draw(st.sampled_from([0.0, 0.2]))
    own_share = draw(st.sampled_from([0.0, 0.3]))
    drawn = []
    for td in devices:
        if budget is not None:
            td = replace(td, energy_budget=budget)
        if rng.random() < own_share:
            td = replace(td, sem_p=float(rng.uniform(1.0, 3.5)), sem_k=float(rng.uniform(2.0, 5.0)))
        if rng.random() < idle_share:
            td = replace(td, task_bits=0.0)
        drawn.append(td)
    if all(td.task_bits == 0 for td in drawn):
        drawn[0] = devices[0]  # keep one device with work to optimise
    alloc = _VARIANTS[draw(st.sampled_from(sorted(_VARIANTS)))](solve(drawn, cfg).allocation)
    return alloc, drawn, cfg, draw(st.sampled_from([2, 40, 200])), draw(st.integers(0, 2**16))


class TestCertifyMatchesLoop:
    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 300])
    def test_same_probe_directions(self, n):
        # blocks of 7 rows cut the structured family and the draws at odd places
        expected = np.array(list(probe_directions(n, 120, seed=3)))
        rng = np.random.default_rng(3)
        blocks = [_directions(start, min(start + 7, 120), n, rng) for start in range(0, 120, 7)]
        assert np.array_equal(np.concatenate(blocks), expected)

    @settings(max_examples=120, deadline=None)
    @given(certify_draws())
    def test_same_outcome_as_device_loop(self, draw):
        alloc, devices, cfg, n_probes, seed = draw
        try:
            expected = perturbation_certify_loop(alloc, devices, cfg, n_probes, 1e-3, seed)
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                perturbation_certify(alloc, devices, cfg, n_probes, 1e-3, seed)
            return
        assert perturbation_certify(alloc, devices, cfg, n_probes, 1e-3, seed) == expected

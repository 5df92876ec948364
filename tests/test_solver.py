import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bisection_oracles import bits_carried, server_split_bisection, uplink_time_bisection
from conftest import log_uniform, multi_device_draw, single_device_draw
from semec import (
    FeasibilityCause,
    FeasibilityError,
    SystemConfig,
    TerminalDevice,
    log_domain_residuals,
    optimal_beta,
    optimal_local_rate,
    remote_rate_bisection,
    solve,
    solve_no_semantic,
    transmit_bisection,
)
from semec.model import semantic_constants


def make_device(**overrides) -> TerminalDevice:
    params = dict(task_bits=3e6, intensity=70.0, energy_coeff=1e-26, f_local_max=1e9,
                  p_tx_max=1.0, beta_min=0.6, energy_budget=0.5, channel_gain=8e-11)
    params.update(overrides)
    return TerminalDevice(**params)


CFG = SystemConfig(n_devices=1)


class TestOptimalLocalRate:
    def test_hardware_cap_binds(self):
        # unclamped sqrt(0.4 / 3e-25) ~ 1.15e12 far above the 1 GHz cap
        td = make_device(energy_budget=0.4)
        assert optimal_local_rate(td, 1.0, 0.0, CFG) == td.f_local_max

    def test_boundary_where_branches_coincide(self):
        td = make_device()
        a, k, _ = semantic_constants(td, CFG)
        e_keep = a * td.task_bits * td.energy_coeff * td.f_local_max**2
        e_transmit = td.energy_budget - e_keep
        rate = optimal_local_rate(td, 1.0, e_transmit, CFG)
        assert rate == pytest.approx(td.f_local_max, rel=1e-12)

    def test_energy_starved_limit(self):
        td = make_device()
        rate = optimal_local_rate(td, 1.0, td.energy_budget - 1e-15, CFG)
        assert 0 < rate < 1e5

    def test_budget_exhausted(self):
        td = make_device()
        with pytest.raises(FeasibilityError) as err:
            optimal_local_rate(td, 1.0, td.energy_budget, CFG)
        assert err.value.cause is FeasibilityCause.EXTRACTION_ENERGY_EXCEEDS_BUDGET

    def test_zero_task(self):
        td = make_device(task_bits=0.0)
        assert optimal_local_rate(td, 1.0, 0.0, CFG) == td.f_local_max


class TestTransmitBisection:
    def test_zero_bits(self):
        td = make_device(task_bits=0.0)
        assert transmit_bisection(td, 1.0, 1e9, CFG) == (0.0, 0.0)

    def test_unit_snr_construction(self):
        # h*p_max/noise == 1 makes the full-power rate exactly B, so one
        # megabit takes exactly one second
        td = make_device(task_bits=1e6, channel_gain=CFG.noise_power_w,
                         p_tx_max=1.0, energy_budget=50.0)
        t, e = transmit_bisection(td, 1.0, 1e9, CFG)
        assert t == pytest.approx(1.0, rel=1e-9)
        assert e == pytest.approx(1.0, rel=1e-9)

    def test_agrees_with_linear_scan(self):
        scan_tol = 1e-5
        cfg = SystemConfig(n_devices=1)
        rng = np.random.default_rng(17)
        for _ in range(5):
            td, _ = single_device_draw(rng)
            beta = float(rng.uniform(td.beta_min, 1.0))
            f_local = float(0.9 * td.f_local_max)
            t_bis, _ = transmit_bisection(td, beta, f_local, cfg)

            a, k, _ = semantic_constants(td, cfg)
            bits = beta * td.task_bits
            e_budget = td.energy_budget - a * td.task_bits * td.energy_coeff * f_local**2 / beta**k
            step = scan_tol / 10.0
            t_scan = None
            t_grid = np.arange(step, 2.0 * t_bis + step, step)
            nu = np.minimum(e_budget, td.p_tx_max * t_grid)
            lhs = t_grid * cfg.bandwidth_hz * np.log2(
                1.0 + td.channel_gain * nu / (t_grid * cfg.noise_power_w))
            hits = np.nonzero(lhs >= bits)[0]
            assert hits.size > 0
            t_scan = t_grid[hits[0]]
            assert abs(t_bis - t_scan) <= scan_tol + step

    def test_energy_limited_branch(self):
        # a long upload at peak power would need more energy than the budget
        td = make_device(task_bits=1.2e7, energy_budget=0.4)
        t, e = transmit_bisection(td, 1.0, 1e9, CFG)
        a, k, _ = semantic_constants(td, CFG)
        e_budget = td.energy_budget - a * td.task_bits * td.energy_coeff * 1e18
        assert t > td.task_bits / (CFG.bandwidth_hz * math.log2(
            1.0 + td.channel_gain * td.p_tx_max / CFG.noise_power_w))
        assert e == pytest.approx(e_budget, rel=1e-12)
        cap = t * CFG.bandwidth_hz * math.log2(
            1.0 + td.channel_gain * e / (t * CFG.noise_power_w))
        assert cap >= td.task_bits * (1 - 1e-9)

    def test_rate_cap_too_low(self):
        td = make_device(task_bits=1e12, energy_budget=0.01, channel_gain=1e-12)
        with pytest.raises(FeasibilityError) as err:
            transmit_bisection(td, 1.0, 1e8, CFG)
        assert err.value.cause is FeasibilityCause.RATE_CAP_TOO_LOW

    def test_returned_time_is_minimal(self):
        # the rate condition holds at the returned time and fails just below it
        rng = np.random.default_rng(13)
        for _ in range(10):
            td, cfg = single_device_draw(rng)
            beta = float(rng.uniform(td.beta_min, 1.0))
            t, e = transmit_bisection(td, beta, 0.9 * td.f_local_max, cfg)
            bits = beta * td.task_bits

            def delivered(t_probe: float) -> float:
                a, k, _ = semantic_constants(td, cfg)
                budget = td.energy_budget - a * td.task_bits * td.energy_coeff \
                    * (0.9 * td.f_local_max) ** 2 / beta**k
                nu = min(budget, td.p_tx_max * t_probe)
                return t_probe * cfg.bandwidth_hz * math.log2(
                    1.0 + td.channel_gain * nu / (t_probe * cfg.noise_power_w))

            assert delivered(t) >= bits * (1 - 1e-9)
            assert delivered(t * (1 - 1e-6)) < bits

    def test_extraction_exceeds_budget(self):
        td = make_device(energy_budget=1e-8)
        with pytest.raises(FeasibilityError) as err:
            transmit_bisection(td, 0.6, 1e9, CFG)
        assert err.value.cause is FeasibilityCause.EXTRACTION_ENERGY_EXCEEDS_BUDGET


class TestRemoteRateBisection:
    def test_single_device_exits_immediately(self):
        td = make_device()
        cfg = CFG
        beta, f_local, t_transmit = [0.8], [1e9], [0.15]
        t, f_remote = remote_rate_bisection([td], beta, f_local, t_transmit, cfg)
        a, k, p = semantic_constants(td, cfg)
        t_local = a * td.task_bits / (0.8**k * 1e9)
        w = td.task_bits * td.intensity * 0.8 ** (1.0 - p)
        assert t == pytest.approx(t_local + 0.15 + w / cfg.f_mec_total, rel=1e-12)
        assert f_remote[0] == pytest.approx(cfg.f_mec_total, rel=1e-12)

    def test_identical_devices_split_evenly(self):
        n = 8
        cfg = SystemConfig(n_devices=n)
        tds = [make_device() for _ in range(n)]
        t, f_remote = remote_rate_bisection(tds, [1.0] * n, [1e9] * n, [0.2] * n, cfg)
        np.testing.assert_allclose(f_remote, cfg.f_mec_total / n, rtol=1e-9)
        assert f_remote.sum() <= cfg.f_mec_total

    def test_capacity_tight_on_random_inputs(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            tds, cfg = multi_device_draw(rng)
            beta = rng.uniform(0.6, 1.0, len(tds))
            f_local = np.array([td.f_local_max for td in tds])
            t_transmit = rng.uniform(0.05, 0.3, len(tds))
            t, f_remote = remote_rate_bisection(tds, beta, f_local, t_transmit, cfg)
            total = f_remote.sum()
            assert cfg.f_mec_total * (1 - 1e-6) <= total <= cfg.f_mec_total
            # every active device finishes exactly at the returned cap
            for i, td in enumerate(tds):
                a, k, p = semantic_constants(td, cfg)
                delay = (a * td.task_bits / (beta[i]**k * f_local[i]) + t_transmit[i]
                         + td.task_bits * td.intensity * beta[i] ** (1 - p) / f_remote[i])
                assert delay == pytest.approx(t, rel=1e-9)


@st.composite
def uplink_draws(draw) -> TerminalDevice:
    """A device with log-uniform gain, budget and peak power.

    The task size sets c = A*sigma^2*ln2/(h*E*B), the share of the
    saturated energy-limited capacity it needs, log-uniformly over
    [1e-9, 0.5] (c << 1) or with 1 - c log-uniform over [1e-3, 0.5] (near
    saturation). Small c at low peak power leaves the uplink power-limited.
    The extraction energy is negligible, so the uplink has the whole budget.
    """
    h = draw(log_uniform(1e-13, 1e-7))
    energy = draw(log_uniform(1e-3, 10.0))
    c = draw(st.one_of(log_uniform(1e-9, 0.5), log_uniform(1e-3, 0.5).map(lambda g: 1.0 - g)))
    bits = c * h * energy * CFG.bandwidth_hz / (CFG.noise_power_w * math.log(2.0))
    return make_device(task_bits=bits, energy_budget=energy, channel_gain=h,
                       p_tx_max=draw(log_uniform(1e-2, 10.0)), energy_coeff=1e-40)


@st.composite
def split_draws(draw):
    """Devices with log-uniform task, intensity and uplink time, and a
    log-uniform server capacity from scarce to 1e30 cycles/s."""
    n = draw(st.integers(1, 12))
    tds = [make_device(task_bits=draw(log_uniform(1e3, 1e8)),
                       intensity=draw(log_uniform(1.0, 1e4))) for _ in range(n)]
    t_transmit = [draw(log_uniform(1e-4, 10.0)) for _ in range(n)]
    cfg = SystemConfig(n_devices=n, f_mec_total=draw(log_uniform(1e6, 1e30)))
    return tds, t_transmit, cfg


class TestBlockOracles:
    @settings(max_examples=300, deadline=None)
    @given(uplink_draws())
    def test_uplink_time_matches_bisection(self, td):
        t, e = transmit_bisection(td, 1.0, 1.0, CFG)
        h, p_max, bits = td.channel_gain, td.p_tx_max, td.task_bits
        e_budget = td.energy_budget - CFG.sem_a * bits * td.energy_coeff
        oracle = uplink_time_bisection(bits, e_budget, h, p_max,
                                       CFG.bandwidth_hz, CFG.noise_power_w)
        assert abs(t - oracle) <= 1e-12 * oracle
        if p_max * t > e_budget:
            # energy-limited: the minimal time under the solver's float predicate
            assert e == e_budget
            assert bits_carried(t, e, h, CFG.bandwidth_hz, CFG.noise_power_w) >= bits
            assert bits_carried(t * (1 - 1e-9), e, h, CFG.bandwidth_hz,
                                CFG.noise_power_w) < bits
        else:
            assert e == p_max * t

    @settings(max_examples=200, deadline=None)
    @given(split_draws())
    def test_server_split_fits_and_is_tight(self, draw):
        tds, t_transmit, cfg = draw
        n = len(tds)
        t_cap, f_remote = remote_rate_bisection(tds, [1.0] * n, [1e9] * n, t_transmit, cfg)
        w = np.array([td.task_bits * td.intensity for td in tds])
        base = np.array([cfg.sem_a * td.task_bits / 1e9 for td in tds]) + t_transmit
        assert np.all(np.isfinite(f_remote)) and np.all(f_remote > 0)
        assert cfg.f_mec_total * (1 - 1e-12) <= f_remote.sum() <= cfg.f_mec_total
        assert np.max(np.abs(t_cap - (base + w / f_remote))) <= cfg.eps_bisect_capacity
        try:
            oracle, _ = server_split_bisection(w, base, cfg.f_mec_total, cfg.eps_bisect_capacity)
        except ValueError:
            return  # the capacity is too abundant for the bisection's bracket
        assert abs(t_cap - oracle) <= 1e-12 * oracle


class TestOptimalBeta:
    def test_reference_constants_take_upper_end(self):
        # k=4, p=3 >= 1: the delay decreases in the factor, so the
        # deliverable-bits cap binds
        td = make_device()
        t_transmit, e_transmit = 0.15, 0.15
        beta = optimal_beta(td, 1e9, 1.3e9, t_transmit, e_transmit, CFG)
        cap = t_transmit * CFG.bandwidth_hz * math.log2(
            1.0 + td.channel_gain * e_transmit / (t_transmit * CFG.noise_power_w))
        eta2 = min(1.0, cap / td.task_bits)
        assert beta == pytest.approx(eta2, rel=1e-12)

    def test_interior_stationary_point_value(self):
        # mu = (a*k*f_O / (f_L*I*(1-p)))^(1/(k+1-p)) ~ 0.04781 for these inputs
        cfg = SystemConfig(n_devices=1, sem_p=0.5)
        mu = (1e-5 * 4.0 * 1e9 / (1e9 * 70.0 * 0.5)) ** (1.0 / 4.5)
        assert mu == pytest.approx(0.0478, rel=1e-3)
        # with beta_min above mu, the lower end is returned
        td = make_device(beta_min=0.6, energy_budget=5.0)
        beta = optimal_beta(td, 1e9, 1e9, 0.2, 0.2, cfg)
        assert beta == pytest.approx(0.6, rel=1e-12)

    def test_degenerate_interval(self):
        # choose the uplink pair so the bits cap equals beta_min exactly
        td = make_device(energy_budget=5.0)
        t_transmit = 0.1
        target_bits = td.beta_min * td.task_bits
        snr = 2 ** (target_bits / (t_transmit * CFG.bandwidth_hz)) - 1.0
        e_transmit = snr * t_transmit * CFG.noise_power_w / td.channel_gain
        beta = optimal_beta(td, 1e9, 1.3e9, t_transmit, e_transmit, CFG)
        assert beta == pytest.approx(td.beta_min, rel=1e-9)

    def test_empty_interval_raises(self):
        td = make_device()
        with pytest.raises(FeasibilityError) as err:
            optimal_beta(td, 1e9, 1.3e9, 1e-4, 1e-6, CFG)
        assert err.value.cause is FeasibilityCause.INVALID_SCENARIO

    def test_matches_fine_grid_across_exponents(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 60:
            p = [0.3, 0.5, 0.9, 1.0, 2.0, 3.0][checked % 6]
            td, _ = single_device_draw(rng)
            cfg = SystemConfig(n_devices=1, sem_a=float(1e-5 * rng.uniform(0.3, 3)),
                               sem_k=float(rng.uniform(2, 5)), sem_p=p)
            f_local = float(1e9 * rng.uniform(0.3, 1.0))
            f_remote = float(1.3e9 * rng.uniform(0.3, 10.0))
            t_transmit = float(rng.uniform(0.02, 0.4))
            e_transmit = float(min(rng.uniform(0.01, 0.5), td.p_tx_max * t_transmit))
            a, k, _ = semantic_constants(td, cfg)
            rem = td.energy_budget - e_transmit
            if rem <= 0:
                continue
            eta1 = max(td.beta_min, (a * td.task_bits * td.energy_coeff * f_local**2 / rem) ** (1 / k))
            cap = t_transmit * cfg.bandwidth_hz * math.log2(
                1.0 + td.channel_gain * e_transmit / (t_transmit * cfg.noise_power_w))
            eta2 = min(1.0, cap / td.task_bits)
            if eta1 >= eta2 - 5e-6:
                continue
            beta = optimal_beta(td, f_local, f_remote, t_transmit, e_transmit, cfg)
            grid = np.arange(eta1, eta2, 1e-6)
            objective = (a * td.task_bits / (f_local * grid**k) + t_transmit
                         + td.task_bits * td.intensity * grid ** (1.0 - p) / f_remote)
            assert abs(beta - grid[np.argmin(objective)]) <= 1e-5
            checked += 1


class TestSolve:
    def test_reference_scenario(self, reference):
        report = solve(reference.devices, reference.system)
        assert report.converged
        assert report.iterations <= reference.system.max_outer_iters
        trace = np.array(report.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)
        res = log_domain_residuals(report.allocation, reference.devices, reference.system)
        assert res.energy.min() >= -1e-12
        assert res.capacity >= 0.0
        assert res.rate.min() >= -1e-6 * 3e6
        assert np.all(report.allocation.beta >= 0.6 - 1e-12)
        assert np.all(report.allocation.beta <= 1.0 + 1e-12)
        assert report.tightness_residuals.max() <= reference.system.eps_bisect_capacity + 1e-9

    def test_monotone_descent_random(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            tds, cfg = multi_device_draw(rng)
            trace = np.array(solve(tds, cfg).objective_trace)
            assert np.all(np.diff(trace) <= 1e-12)

    def test_local_rate_bound_binds_at_exit(self):
        # the closed-form local rate leaves either the hardware cap or the
        # energy budget active on every device
        rng = np.random.default_rng(67)
        for _ in range(5):
            tds, cfg = multi_device_draw(rng)
            report = solve(tds, cfg)
            res = log_domain_residuals(report.allocation, tds, cfg)
            for i, td in enumerate(tds):
                cap_active = abs(res.f_local_cap[i]) <= 1e-9
                energy_active = abs(res.energy[i]) <= 1e-9 * td.energy_budget
                assert cap_active or energy_active

    def test_interior_exponent_against_grid_oracle(self):
        from dataclasses import replace
        from semec import GridSpec, default_grid_bounds, grid_optimum
        rng = np.random.default_rng(99)
        for p in (0.5, 1.0):
            td, cfg = single_device_draw(rng)
            cfg = replace(cfg, sem_p=p)
            solved = solve([td], cfg).objective_trace[-1]
            grid_obj, _ = grid_optimum([td], cfg, GridSpec(128, default_grid_bounds([td], cfg)))
            assert abs(solved - grid_obj) / grid_obj <= 0.01

    def test_pinned_factor_matches_retained_baseline(self, reference):
        from dataclasses import replace
        devices = tuple(replace(td, beta_min=1.0) for td in reference.devices)
        pinned = solve(devices, reference.system)
        retained = solve_no_semantic(reference.devices, reference.system, retain_extraction=True)
        assert pinned.objective_trace[-1] == pytest.approx(
            retained.objective_trace[-1], rel=1e-12)
        np.testing.assert_allclose(pinned.allocation.beta, 1.0, atol=1e-15)

    def test_restart_from_own_output(self, reference):
        first = solve(reference.devices, reference.system)
        second = solve(reference.devices, reference.system, initial=first.allocation)
        assert second.objective_trace[-1] == pytest.approx(
            first.objective_trace[-1], rel=1e-9)
        assert second.objective_trace[-1] <= first.objective_trace[-1] + 1e-12

    @pytest.mark.parametrize("task_bits, energy_budget", [(3e7, 5.0), (1e8, 50.0), (3e8, 50.0)])
    def test_restart_from_own_output_on_large_tasks(self, reference, task_bits, energy_budget):
        # the rate slack is a few -1e-9 bits here, about -1e-16 of the bits carried
        devices = tuple(replace(td, task_bits=task_bits, energy_budget=energy_budget)
                        for td in reference.devices)
        first = solve(devices, reference.system)
        second = solve(devices, reference.system, initial=first.allocation)
        assert second.objective_trace[-1] == pytest.approx(
            first.objective_trace[-1], rel=1e-12)
        assert second.iterations == 1

    def test_relatively_short_uplink_rejected(self, reference):
        # the same power for a 1e-6 shorter time carries about 1e-6 fewer bits
        alloc = solve(reference.devices, reference.system).allocation
        scale = 1.0 - 1e-6
        short = replace(alloc, t_transmit=alloc.t_transmit * scale,
                        e_transmit=alloc.e_transmit * scale)
        with pytest.raises(FeasibilityError, match="initial allocation is infeasible"):
            solve(reference.devices, reference.system, initial=short)

    def test_nan_initial_rejected(self, reference):
        alloc = solve(reference.devices, reference.system).allocation
        t_transmit = alloc.t_transmit.copy()
        t_transmit[3] = math.nan
        with pytest.raises(FeasibilityError, match="initial allocation is infeasible"):
            solve(reference.devices, reference.system,
                  initial=replace(alloc, t_transmit=t_transmit))

    def test_zero_bit_tasks(self):
        cfg = SystemConfig(n_devices=2)
        tds = [make_device(task_bits=0.0), make_device(task_bits=0.0)]
        report = solve(tds, cfg)
        assert report.objective_trace[-1] == 0.0
        assert report.converged

    def test_mixed_zero_and_active_tasks(self):
        cfg = SystemConfig(n_devices=3)
        tds = [make_device(), make_device(task_bits=0.0), make_device(channel_gain=4e-11)]
        report = solve(tds, cfg)
        alloc = report.allocation
        assert (alloc.f_remote[1], alloc.t_transmit[1], alloc.e_transmit[1]) == (0.0, 0.0, 0.0)
        # idle device contributes nothing to the shared budget or the max
        active = solve([tds[0], tds[2]], SystemConfig(n_devices=2))
        assert report.objective_trace[-1] == pytest.approx(
            active.objective_trace[-1], rel=1e-9)

    def test_device_order_invariance(self):
        rng = np.random.default_rng(77)
        tds, cfg = multi_device_draw(rng)
        forward = solve(tds, cfg)
        perm = rng.permutation(len(tds))
        shuffled = solve([tds[i] for i in perm], cfg)
        assert shuffled.objective_trace[-1] == pytest.approx(
            forward.objective_trace[-1], rel=1e-9)
        np.testing.assert_allclose(shuffled.allocation.beta,
                                   forward.allocation.beta[perm], rtol=1e-9)

    def test_task_scaling_is_exactly_linear_while_power_limited(self, reference):
        # all delay terms are linear in the task size at fixed rates, and the
        # optimal factor is scale invariant, until the energy budget binds
        from dataclasses import replace
        base = solve(reference.devices, reference.system).objective_trace[-1]
        half = tuple(replace(td, task_bits=0.5 * td.task_bits) for td in reference.devices)
        halved = solve(half, reference.system).objective_trace[-1]
        assert halved == pytest.approx(0.5 * base, rel=1e-9)

    def test_abundant_server_capacity(self, reference):
        # the shares' delay w/F is far below one ulp of the uplink time here
        cfg = replace(reference.system, f_mec_total=1e30)
        report = solve(reference.devices, cfg)
        alloc = report.allocation
        assert report.converged
        assert np.all(np.isfinite(alloc.f_remote)) and np.all(alloc.f_remote > 0)
        assert alloc.f_remote.sum() <= cfg.f_mec_total
        assert np.isfinite(report.objective_trace[-1])
        assert np.all(np.diff(report.objective_trace) <= 1e-12)

    def test_factor_floor_at_uplink_saturation(self):
        # the feasible factors end where the energy-capped uplink saturates,
        # and the delay's slope in log(beta) there exceeds 1e25 in magnitude;
        # the refine must still locate the interior optimum
        td = make_device(task_bits=4299162.987337417, intensity=155.4868308842392,
                         energy_coeff=1.8109532477482195e-26, f_local_max=1869637485.5035536,
                         p_tx_max=0.6947498036033956, beta_min=0.06782733141738045,
                         energy_budget=0.026327078137637728, channel_gain=5.3298188604486745e-11)
        cfg = SystemConfig(n_devices=1, f_mec_total=2e9, sem_a=2.682305565772427e-05,
                           sem_k=4.061595157141169, sem_p=1.0)
        trace = solve([td], cfg).objective_trace
        assert np.all(np.diff(trace) <= 1e-12)

    def test_infeasible_scenario_raises(self):
        # upload can never fit: microscopic gain and energy, huge task
        td = make_device(task_bits=1e12, energy_budget=1e-4, channel_gain=1e-13)
        with pytest.raises(FeasibilityError):
            solve([td], CFG)

    def test_device_count_mismatch(self):
        with pytest.raises(ValueError):
            solve([make_device(), make_device()], CFG)

    def test_infeasible_initial_rejected(self):
        from semec import Allocation
        td = make_device()
        # energy budget violated: e_transmit alone exceeds E
        bad = Allocation([1e9], [CFG.f_mec_total], [1.0], [2.0], [0.8], 1.0)
        with pytest.raises(FeasibilityError):
            solve([td], CFG, initial=bad)

    def test_block_input_validation(self):
        td = make_device()
        with pytest.raises(ValueError):
            optimal_local_rate(td, 1.5, 0.0, CFG)
        with pytest.raises(ValueError):
            optimal_local_rate(td, 0.8, -0.1, CFG)
        with pytest.raises(ValueError):
            transmit_bisection(td, 0.0, 1e9, CFG)
        with pytest.raises(ValueError):
            transmit_bisection(td, 0.8, 0.0, CFG)
        with pytest.raises(ValueError):
            optimal_beta(td, -1e9, 1e9, 0.1, 0.1, CFG)
        with pytest.raises(ValueError):
            optimal_beta(td, 1e9, 1e9, -0.1, 0.1, CFG)


class TestResiduals:
    def test_constructed_equalities_have_zero_slack(self):
        # build a point where the delay cap, energy, rate, capacity, local
        # cap, peak power, and factor floor all bind by construction
        td = make_device(energy_budget=0.5)
        cfg = CFG
        a, k, p = semantic_constants(td, cfg)
        beta = td.beta_min
        f_local = td.f_local_max
        t_transmit = 0.17
        e_transmit = td.p_tx_max * t_transmit
        # channel gain making the rate constraint an equality
        bits = beta * td.task_bits
        snr = 2 ** (bits / (t_transmit * cfg.bandwidth_hz)) - 1.0
        gain = snr * t_transmit * cfg.noise_power_w / e_transmit
        td = make_device(channel_gain=gain,
                         energy_budget=a * td.task_bits * td.energy_coeff * f_local**2 / beta**k
                         + e_transmit)
        f_remote = cfg.f_mec_total
        t_total = (a * td.task_bits / (beta**k * f_local) + t_transmit
                   + td.task_bits * td.intensity * beta ** (1 - p) / f_remote)
        from semec import Allocation
        alloc = Allocation([f_local], [f_remote], [t_transmit], [e_transmit], [beta], t_total)
        res = log_domain_residuals(alloc, [td], cfg)
        assert abs(res.delay_cap[0]) <= 1e-12 * t_total
        assert abs(res.energy[0]) <= 1e-12 * td.energy_budget
        assert abs(res.rate[0]) <= 1e-6 * bits
        assert abs(res.f_local_cap[0]) == 0.0
        assert abs(res.capacity) == 0.0
        assert abs(res.e_power_cap[0]) == 0.0
        assert abs(res.beta_floor[0]) <= 1e-15

    def test_domain_error_on_nonpositive(self):
        from semec import Allocation
        td = make_device()
        alloc = Allocation([1e9], [1e9], [0.1], [0.1], [-0.5], 1.0)
        with pytest.raises(ValueError):
            log_domain_residuals(alloc, [td], CFG)

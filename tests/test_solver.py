import math
from dataclasses import asdict, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bisection_oracles import bits_carried, server_split_bisection, uplink_time_bisection
from conftest import (log_uniform, multi_device_draw, semantic_constants, single_device_draw,
                      solve_retained)
from semec import (
    Allocation,
    FeasibilityCause,
    FeasibilityError,
    SystemConfig,
    TerminalDevice,
    delay_breakdown,
    generate_channel_gains,
    log_domain_residuals,
    optimal_beta,
    optimal_local_rate,
    perturbation_certify,
    remote_rate_bisection,
    solve,
    solve_local_only,
    solve_no_semantic,
    transmit_bisection,
)
from semec import solver as solver_module
from semec.model import DeviceTable
from semec.solver import (_extraction_energy, _factor_slope, _powers, _refine_block,
                          _remote_cycles, _Scenario, _start, _t_local, _t_remote,
                          _transmit_block, _uplink)


def make_device(**overrides) -> TerminalDevice:
    params = dict(task_bits=3e6, intensity=70.0, energy_coeff=1e-26, f_local_max=1e9,
                  p_tx_max=1.0, beta_min=0.6, energy_budget=0.5, channel_gain=8e-11)
    params.update(overrides)
    return TerminalDevice(**params)


CFG = SystemConfig()


def assert_relatively_feasible(alloc: Allocation, tds, cfg: SystemConfig) -> None:
    """Every constraint family holds to 1e-9 of its own size."""
    table = DeviceTable.from_devices(tds)
    r = log_domain_residuals(alloc, tds, cfg)
    sizes = {"delay_cap": alloc.t_epigraph, "energy": table.energy_budget,
             "rate": alloc.beta * table.task_bits, "f_local_cap": 1.0,
             "capacity": cfg.f_mec_total, "e_nonneg": table.energy_budget,
             "e_power_cap": table.p_tx_max * alloc.t_transmit, "beta_floor": 1.0,
             "beta_ceiling": 1.0}
    for name, size in sizes.items():
        assert np.all(getattr(r, name) >= -1e-9 * size), name


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

    @settings(max_examples=200, deadline=None)
    @given(log_uniform(1e-3, 1e3), log_uniform(1e-30, 1e-15), log_uniform(0.05, 1.0))
    def test_rate_leaves_the_uplink_its_energy(self, budget, share, beta):
        # an uplink share of a few ulps or less leaves E - e_transmit within an
        # ulp of E, and the extraction energy of the rate that spends it all
        # rounds to either side of it
        td = make_device(energy_budget=budget, f_local_max=1e30)
        e_transmit = share * budget
        rate = optimal_local_rate(td, beta, e_transmit, CFG)
        sc = _Scenario([td], CFG)
        e_extract = _extraction_energy(sc, _powers(sc, np.array([beta]))[0], np.array([rate]))
        assert rate > 0 and budget - e_extract[0] >= e_transmit


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
        cfg = SystemConfig()
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
        cfg = SystemConfig()
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

    def test_short_vector_rejected(self):
        # one factor for two devices is not broadcast
        with pytest.raises(ValueError, match=r"^beta must list 2 numbers"):
            remote_rate_bisection([make_device()] * 2, [0.8], [1e9] * 2, [0.1] * 2, CFG)

    @pytest.mark.parametrize("name", ["beta", "f_local", "t_transmit"])
    def test_nan_entry_rejected(self, name):
        inputs = {"beta": [0.8, 0.8], "f_local": [1e9, 1e9], "t_transmit": [0.1, 0.1]}
        inputs[name][1] = math.nan
        with pytest.raises(ValueError, match=f"^{name} must"):
            remote_rate_bisection([make_device()] * 2, cfg=CFG, **inputs)

    def test_zero_factor_rejected(self):
        # beta**(1 - p) would divide by zero at p = 3
        with pytest.raises(ValueError, match=r"^beta must lie in \(0, 1\]"):
            remote_rate_bisection([make_device()] * 2, [0.8, 0.0], [1e9] * 2, [0.1] * 2,
                                  SystemConfig(sem_p=3.0))


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
    cfg = SystemConfig(f_mec_total=draw(log_uniform(1e6, 1e30)))
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
        assert np.max(np.abs(t_cap - (base + w / f_remote))) <= 1e-7
        try:
            oracle, _ = server_split_bisection(w, base, cfg.f_mec_total, 1e-7)
        except ValueError:
            return  # the capacity is too abundant for the bisection's bracket
        assert abs(t_cap - oracle) <= 1e-12 * oracle

    def test_uplink_elasticity_matches_central_difference(self):
        # energy-limited lanes at c = bits*sigma^2*ln2/(h*e*B) from far below 1
        # to within 1e-6 of it, where w ~ 1/(1 - c) grows without bound
        c = np.array([0.01, 0.3, 0.9, 1.0 - 9e-7])
        gains = np.array([8e-10, 1e-12, 3e-11, 2e-12])
        bits = np.array([2e6, 3e6, 1e7, 5e6])
        sc = _Scenario(DeviceTable(**{**asdict(make_device()), "channel_gain": gains,
                                      "task_bits": bits}), CFG)
        e = bits * CFG.noise_power_w * math.log(2.0) / (gains * c * CFG.bandwidth_hz)
        t, w = _uplink(sc, bits, e)
        assert np.all(np.isfinite(t)) and np.all(w > 0) and np.all(np.isfinite(w))

        # fourth-order central differences, with steps well inside 1 - c
        h = 1e-2 / (1.0 + w)

        def derivative(log_t):
            return (-log_t(2 * h) + 8 * log_t(h) - 8 * log_t(-h) + log_t(-2 * h)) / (12 * h)

        d_log_e = derivative(lambda x: np.log(_uplink(sc, bits, e * np.exp(x))[0]))
        d_log_bits = derivative(lambda x: np.log(_uplink(sc, bits * np.exp(x), e)[0]))
        np.testing.assert_allclose(-d_log_e, w, rtol=1e-6)
        np.testing.assert_allclose(d_log_bits, 1.0 + w, rtol=1e-6)

    def test_uplink_elasticity_finite_where_c_rounds_to_one(self):
        # lanes one or two ulps below c = 1, where c + s - 1 rounds to 0 or below
        bits = np.array([627786.9508615147, 131213.04788546203, 74181360.3583529])
        gains = np.array([4.523829777455103e-11, 1.4798266330699557e-12, 2.8104808749420897e-11])
        gap = np.array([2.0**-53, 2.0**-53, 2.0**-52])
        sc = _Scenario(DeviceTable(**{**asdict(make_device()), "channel_gain": gains,
                                      "task_bits": bits}), CFG)
        e = bits * CFG.noise_power_w * math.log(2.0) / (gains * (1.0 - gap) * CFG.bandwidth_hz)
        t, w = _uplink(sc, bits, e)
        assert np.all(np.isfinite(t)) and np.all(w > 0) and np.all(np.isfinite(w))

    def test_uplink_at_peak_power_has_zero_elasticity(self):
        # ten times the budget leaves every lane at peak power, where w is all zeros
        sc = _Scenario([make_device(), make_device(channel_gain=4e-11)], CFG)
        t, w = _uplink(sc, sc.A, 10.0 * sc.E)
        assert isinstance(w, np.ndarray) and w.shape == (2,) and np.all(w == 0.0)
        assert t.tobytes() == (sc.A / sc.r_full).tobytes()


# solve answers these devices with an uplink that leaves 5.0e-8 (four decades
# beyond the wide box) and 1.5e-15 (eight decades) of the budget to extraction,
# so E - e_transmit carries up to half an ulp of E of rounding
_ROUNDED_REMAINDER = {
    "four_decades": (
        [TerminalDevice(task_bits=652445.4569728847, intensity=632423.1055873676,
                        energy_coeff=8.171426992930076e-22, f_local_max=238647.39878781434,
                        p_tx_max=374.3014702938154, beta_min=0.06380884083646075,
                        energy_budget=1.6883818919894906, channel_gain=2.8049122753424846e-11,
                        sem_k=3.8027413811397133, sem_p=3.0)],
        SystemConfig(f_mec_total=20372342791.103905, sem_a=0.0027892315048660687)),
    "eight_decades": (
        [TerminalDevice(task_bits=2415.4891240166844, intensity=1100974.6985109067,
                        energy_coeff=6.158961830574242e-30, f_local_max=1967.0858514710778,
                        p_tx_max=5.819126467886806, beta_min=0.0012931077748662288,
                        energy_budget=1.977900270092776e-06, channel_gain=2.997885224162356e-11,
                        sem_k=4.548714186693976, sem_p=1.5)],
        SystemConfig(f_mec_total=25.142367110289847, sem_a=0.05236536500864355)),
}

# item 1's fuzz at four decades, draw 237: solve's uplink leaves less than half
# an ulp of the budget to extraction, so E - e_transmit is 0 in float
_ZERO_REMAINDER = (
    [TerminalDevice(task_bits=140495418.24634877, intensity=506372.0110486334,
                    energy_coeff=1.8128899765216067e-31, f_local_max=79172.38098769907,
                    p_tx_max=306.8752614022486, beta_min=0.102873078880431,
                    energy_budget=151.07627346421748, channel_gain=1.1929365952546956e-13,
                    sem_k=1.4067867463438222, sem_p=0.8)],
    SystemConfig(f_mec_total=3060061011.686227, sem_a=0.0003447832061830656))


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
        cfg = SystemConfig(sem_p=0.5)
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

    def test_zero_task_takes_unit_factor(self):
        beta = optimal_beta(make_device(task_bits=0.0), 1e9, 1.3e9, 0.1, 0.1, CFG)
        assert type(beta) is float and beta == 1.0

    def test_empty_interval_raises(self):
        td = make_device()
        with pytest.raises(FeasibilityError) as err:
            optimal_beta(td, 1e9, 1.3e9, 1e-4, 1e-6, CFG)
        assert err.value.cause is FeasibilityCause.INVALID_SCENARIO

    @pytest.mark.parametrize("draw", _ROUNDED_REMAINDER.values(), ids=_ROUNDED_REMAINDER.keys())
    def test_accepts_solve_answer_with_rounded_remaining_energy(self, draw):
        tds, cfg = draw
        alloc = solve(tds, cfg).allocation
        assert 0 < tds[0].energy_budget - alloc.e_transmit[0] < 1e-7 * tds[0].energy_budget
        beta = optimal_beta(tds[0], alloc.f_local[0], alloc.f_remote[0], alloc.t_transmit[0],
                            alloc.e_transmit[0], cfg)
        assert tds[0].beta_min <= beta <= 1.0

    def test_accepts_solve_answer_whose_remaining_energy_rounds_to_zero(self):
        tds, cfg = _ZERO_REMAINDER
        alloc = solve(tds, cfg).allocation
        assert tds[0].energy_budget - alloc.e_transmit[0] == 0
        beta = optimal_beta(tds[0], alloc.f_local[0], alloc.f_remote[0], alloc.t_transmit[0],
                            alloc.e_transmit[0], cfg)
        assert tds[0].beta_min <= beta <= 1.0

    def test_negative_remaining_energy_raises(self):
        # one ulp above the budget leaves extraction a negative remainder
        tds, cfg = _ZERO_REMAINDER
        alloc = solve(tds, cfg).allocation
        with pytest.raises(FeasibilityError) as err:
            optimal_beta(tds[0], alloc.f_local[0], alloc.f_remote[0], alloc.t_transmit[0],
                         np.nextafter(tds[0].energy_budget, math.inf), cfg)
        assert err.value.cause is FeasibilityCause.INVALID_SCENARIO

    def test_matches_fine_grid_across_exponents(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 60:
            p = [0.3, 0.5, 0.9, 1.0, 2.0, 3.0][checked % 6]
            td, _ = single_device_draw(rng)
            cfg = SystemConfig(sem_a=float(1e-5 * rng.uniform(0.3, 3)),
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


class TestRefineBlock:
    def test_both_factor_ends_infeasible(self):
        # at beta_min the extraction energy exceeds the budget, and at 1 the
        # energy left cannot carry the bits, so the search brackets on two
        # infinite ends; its answer must beat a fine scan of the factor
        td = make_device(beta_min=0.05, energy_budget=0.06, channel_gain=1e-13)
        cfg = SystemConfig(sem_a=1e-4)
        f_local, f_remote = np.array([1e9]), np.array([13e9])
        sc = _Scenario([td], cfg)
        beta = _refine_block(sc, np.array([0.3]), f_local, f_remote)
        beta_k, beta_1mp = _powers(sc, beta)
        t, _ = _transmit_block(sc, beta, beta_k, f_local)
        objective = float((_t_local(sc, beta_k, f_local) + t
                           + _remote_cycles(sc, beta_1mp) / f_remote)[0])
        assert beta[0] == pytest.approx(0.250593, rel=1e-6)
        assert objective == pytest.approx(0.54244451929, rel=1e-10)

        # the scan's uplink is the block's own, checked against bisection above
        grid = np.geomspace(td.beta_min, 1.0, 200_000)
        wide = _Scenario(DeviceTable(**{**asdict(td), "task_bits": np.full(grid.size, 3e6)}), cfg)
        f_local, f_remote = np.full(grid.size, 1e9), np.full(grid.size, 13e9)
        grid_k, grid_1mp = _powers(wide, grid)
        e_budget = td.energy_budget - _extraction_energy(wide, grid_k, f_local)
        t_scan, _ = _uplink(wide, grid * td.task_bits, e_budget)
        scan = _t_local(wide, grid_k, f_local) + t_scan + _remote_cycles(wide, grid_1mp) / f_remote
        assert np.isinf(scan[0]) and np.isinf(scan[-1])
        assert objective <= scan.min() * (1 + 1e-12)

    def test_slope_and_curvature_match_central_differences(self):
        # four energy-limited lanes, where extraction takes 6-31 % of the
        # budget, and two at peak power, where w = 0
        gains = np.array([1e-12, 3e-12, 1e-11, 8e-11, 8e-11, 1e-9])
        budgets = np.array([0.02, 0.05, 0.02, 0.01, 0.5, 1.0])
        cfg = SystemConfig(sem_a=1e-2, sem_p=0.5)
        columns = {**asdict(make_device(energy_coeff=1e-25, beta_min=0.05)),
                   "channel_gain": gains, "energy_budget": budgets}
        sc = _Scenario(DeviceTable(**columns), cfg)
        b, f_local, f_remote = np.full(6, 0.7), np.full(6, 5e8), np.full(6, 1e9)
        slope, curvature = _factor_slope(sc, b, _powers(sc, b), f_local, f_remote, b)
        _, w = _uplink(sc, b * sc.A, sc.E - _extraction_energy(sc, _powers(sc, b)[0], f_local))
        assert np.all(w[:4] > 0) and np.all(w[4:] == 0)

        def delay(x):
            beta = b * np.exp(x)
            beta_k, beta_1mp = _powers(sc, beta)
            t, _ = _uplink(sc, beta * sc.A, sc.E - _extraction_energy(sc, beta_k, f_local))
            return (_t_local(sc, beta_k, f_local) + t
                    + _t_remote(_remote_cycles(sc, beta_1mp), f_remote))

        # fourth-order central differences in ln(factor)
        h = 1e-3

        def derivative(fn):
            return (-fn(2 * h) + 8 * fn(h) - 8 * fn(-h) + fn(-2 * h)) / (12 * h)

        np.testing.assert_allclose(slope, derivative(delay), rtol=1e-8)
        np.testing.assert_allclose(curvature, derivative(
            lambda x: _factor_slope(sc, b * np.exp(x), _powers(sc, b * np.exp(x)), f_local,
                                    f_remote, b)[0]), rtol=1e-8)

    def test_floor_slope_read_only_where_ceiling_slope_is_positive(self, reference,
                                                                   monkeypatch):
        probes = []

        def recording(sc, b, powers, f_local, f_remote, incumbent, curvature=True):
            probes.append((b, sc.n, f_remote))
            return _factor_slope(sc, b, powers, f_local, f_remote, incumbent, curvature)

        monkeypatch.setattr(solver_module, "_factor_slope", recording)
        # every semantic device of the reference scenario ends at 1: one probe
        sc = _Scenario(reference.devices, reference.system)
        alloc = solve(reference.devices, reference.system).allocation
        probes.clear()
        beta = _refine_block(sc, alloc.beta, alloc.f_local, alloc.f_remote)
        assert np.all(beta == 1.0)
        assert [(b, n) for b, n, _ in probes] == [(1.0, sc.n)]

        # twelve devices from 100 to 400 m on 15 mJ: 7 end at 1, 4 inside and 1 at 0.6
        gains = generate_channel_gains(np.linspace(100.0, 400.0, 12))
        columns = {**asdict(make_device(energy_budget=0.015)), "channel_gain": gains}
        sc = _Scenario(DeviceTable(**columns), CFG)
        start = _start(sc)
        ceiling = _factor_slope(sc, 1.0, (1.0, 1.0), start.f_local, start.f_remote, start.beta)[0]
        rising = ceiling > 0
        probes.clear()
        beta = _refine_block(sc, start.beta, start.f_local, start.f_remote)
        assert np.all(beta[~rising] == 1.0) and 0 < beta[rising].min() == sc.beta_min[0]
        assert probes[0][:2] == (1.0, sc.n)
        floor, n_floor, f_remote = probes[1]
        assert n_floor == rising.sum() == 5
        assert floor.tobytes() == sc.beta_min[rising].tobytes()
        assert f_remote.tobytes() == start.f_remote[rising].tobytes()
        assert all(n < n_floor for _, n, _ in probes[2:])


@st.composite
def wide_box_draws(draw, max_n: int = 4):
    """One to ``max_n`` devices from the wide box: about one in seven without
    task bits, and the rest mostly energy-limited or infeasible."""
    n = draw(st.integers(1, max_n))
    gains = generate_channel_gains([draw(log_uniform(50.0, 800.0)) for _ in range(n)])
    tds = [TerminalDevice(
        task_bits=0.0 if draw(st.integers(0, 6)) == 0 else draw(log_uniform(3e5, 3e7)),
        intensity=draw(log_uniform(20.0, 700.0)),
        energy_coeff=draw(log_uniform(1e-27, 1e-25)),
        f_local_max=draw(log_uniform(3e8, 2e9)), p_tx_max=draw(log_uniform(0.1, 2.0)),
        beta_min=draw(log_uniform(0.05, 1.0)), energy_budget=draw(log_uniform(0.002, 1.0)),
        channel_gain=float(gain)) for gain in gains]
    cfg = SystemConfig(sem_a=draw(log_uniform(1e-6, 1e-2)), sem_k=draw(st.floats(1.0, 5.0)),
                       sem_p=draw(st.sampled_from([0.5, 0.8, 1.5, 3.0])))
    return tds, cfg


class TestClosedForms:
    @settings(max_examples=200, deadline=None)
    @given(wide_box_draws(max_n=8), st.data())
    def test_closed_forms_from_powers_match_direct_expressions(self, draw, data):
        # the reference CSVs depend on each closed form's order of operations
        tds, cfg = draw
        n = len(tds)
        sc = _Scenario(tds, cfg)
        a, k, p = DeviceTable.from_devices(tds).semantic_constants(cfg)

        def column(strategy):
            return np.array(data.draw(st.lists(strategy, min_size=n, max_size=n)))

        beta = sc.beta_min ** column(st.floats(0.0, 1.0))
        f_local, f_remote = column(log_uniform(1e5, 2e9)), column(log_uniform(1e6, 3e10))
        for powers, b in ((_powers(sc, beta), beta), ((1.0, 1.0), np.ones(n)),
                          ((None, None), np.ones(n))):
            closed = (_extraction_energy(sc, powers[0], f_local), _t_local(sc, powers[0], f_local),
                      _t_remote(_remote_cycles(sc, powers[1]), f_remote))
            direct = (a * sc.A * sc.kappa * f_local**2 / b**k,
                      a * sc.A / (b**k * f_local), sc.A * sc.I * b ** (1.0 - p) / f_remote)
            for ours, theirs in zip(closed, direct):
                assert ours.tobytes() == theirs.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(wide_box_draws(max_n=8), st.data())
    def test_products_match_direct_expressions(self, draw, data):
        # each device's products are computed once, in the order the closed
        # forms used to compute them; take gathers them, and the raw upload
        # reads a = 0 and p = 1
        tds, cfg = draw
        n = len(tds)
        table = DeviceTable.from_devices(tds)
        a, _, p = table.semantic_constants(cfg)
        idx = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        sc = _Scenario(tds, cfg)
        raw = _Scenario(tds, cfg, extraction=False)
        for ours, a, p, lanes in ((sc, a, p, slice(None)), (sc.take(idx), a, p, idx),
                                  (raw, np.zeros(n), np.ones(n), slice(None))):
            A = table.task_bits
            direct = {"extract_cycles": a * A, "extract_coeff": a * A * table.energy_coeff,
                      "raw_cycles": A * table.intensity, "q": 1.0 - p}
            for name, value in direct.items():
                assert getattr(ours, name).tobytes() == value[lanes].tobytes(), name


class TestSlopeProbes:
    """The end probes of the factor search compute only what it reads: no
    curvature, and at the ceiling no powers."""

    @staticmethod
    def _point(draw, data):
        tds, cfg = draw
        n = len(tds)
        sc = _Scenario(tds, cfg)

        def column(strategy):
            return np.array(data.draw(st.lists(strategy, min_size=n, max_size=n)))

        # local rates up to the box's cap mix peak-power, energy-limited and
        # unserved lanes
        f_local, f_remote = column(log_uniform(1e5, 2e9)), column(log_uniform(1e6, 3e10))
        b = sc.beta_min ** column(st.floats(0.0, 1.0))
        incumbent = sc.beta_min ** column(st.floats(0.0, 1.0))
        return sc, b, f_local, f_remote, incumbent

    @settings(max_examples=200, deadline=None)
    @given(wide_box_draws(max_n=8), st.data())
    def test_ceiling_probe_matches_general_probe_at_unit_powers(self, draw, data):
        sc, _, f_local, f_remote, incumbent = self._point(draw, data)
        general = _factor_slope(sc, 1.0, (1.0, 1.0), f_local, f_remote, incumbent)
        ceiling = _factor_slope(sc, 1.0, None, f_local, f_remote, incumbent)
        slope_only = _factor_slope(sc, 1.0, None, f_local, f_remote, incumbent, curvature=False)
        assert ceiling[0].tobytes() == general[0].tobytes()
        assert ceiling[1].tobytes() == general[1].tobytes()
        assert slope_only[0].tobytes() == general[0].tobytes() and slope_only[1] is None

    @settings(max_examples=200, deadline=None)
    @given(wide_box_draws(max_n=8), st.data())
    def test_slope_only_probe_matches_full_probe(self, draw, data):
        sc, b, f_local, f_remote, incumbent = self._point(draw, data)
        slope, curvature = _factor_slope(sc, b, _powers(sc, b), f_local, f_remote, incumbent,
                                         curvature=False)
        full = _factor_slope(sc, b, _powers(sc, b), f_local, f_remote, incumbent)
        assert curvature is None and full[1] is not None
        assert slope.tobytes() == full[0].tobytes()


class TestLaneIndependence:
    """A device's result does not depend on the devices beside it in a call:
    each inner loop freezes a lane once it stops, and its steps depend only
    on the step count. The factor search relies on this to run on the
    devices whose root is interior alone."""

    @settings(max_examples=100, deadline=None)
    @given(wide_box_draws(max_n=8))
    def test_refine_block_matches_each_device_alone(self, draw):
        tds, cfg = draw
        sc = _Scenario(tds, cfg)
        try:
            start = _start(sc)
        except FeasibilityError:
            assume(False)
        beta = _refine_block(sc, start.beta, start.f_local, start.f_remote)
        together = (beta, *_transmit_block(sc, beta, _powers(sc, beta)[0], start.f_local))
        for i, td in enumerate(tds):
            own = slice(i, i + 1)
            sc_own = _Scenario([td], cfg)
            beta_own = _refine_block(sc_own, start.beta[own], start.f_local[own],
                                     start.f_remote[own])
            alone = (beta_own, *_transmit_block(sc_own, beta_own, _powers(sc_own, beta_own)[0],
                                                start.f_local[own]))
            for joint, single in zip(together, alone):
                assert joint[own].tobytes() == single.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(wide_box_draws(max_n=8), st.data())
    def test_uplink_on_a_subset_matches_the_whole(self, draw, data):
        tds, cfg = draw
        n = len(tds)
        sc = _Scenario(tds, cfg)
        # budgets from ample to none mix lanes at peak power, energy-limited
        # lanes and lanes without an uplink
        share = data.draw(st.lists(st.sampled_from([1.0, 0.1, 1e-3, 0.0, -1.0]),
                                   min_size=n, max_size=n))
        bits, e_budget = sc.beta_min * sc.A, np.array(share) * sc.E
        idx = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        t, w = _uplink(sc, bits, e_budget)
        t_sub, w_sub = _uplink(sc.take(idx), bits[idx], e_budget[idx])
        assert t_sub.tobytes() == t[idx].tobytes()
        assert w_sub.tobytes() == w[idx].tobytes()


# the second step of this solve rises by one ulp at the optimum
_RISING_WITNESS = (
    [TerminalDevice(task_bits=2305349.228095592, intensity=392.7907790612355,
                    energy_coeff=9.04707399145109e-27, f_local_max=589992345.9707851,
                    p_tx_max=1.8602892359585852, beta_min=0.5671783043564745,
                    energy_budget=0.2943029366300199, channel_gain=2.3381723944363274e-11)],
    SystemConfig(f_mec_total=12452960744.491653, sem_a=1.7474070113763991e-06,
                 sem_k=2.881414547427416, sem_p=3.0))

# an energy-limited draw whose third objective equals its second
_EQUAL_STEP_DRAW = (
    [TerminalDevice(task_bits=6589621.451349257, intensity=566.1821450652096,
                    energy_coeff=5.402165418026135e-27, f_local_max=1057060021.0804992,
                    p_tx_max=1.9533862994450961, beta_min=0.14247386983679078,
                    energy_budget=0.03696656254330965, channel_gain=5.514526013499737e-09)],
    SystemConfig(sem_a=2.1898518269177743e-05, sem_k=3.921635694671529, sem_p=1.5))


# this device's best factor is the top of its feasible factors: no uplink
# carries the bits of a factor just above it
_UPPER_EDGE_FACTOR = (
    [TerminalDevice(task_bits=3544950895.1130342, intensity=57.75412653969084,
                    energy_coeff=1.71549770309067e-24, f_local_max=69307.48683613141,
                    p_tx_max=6.037748644645531, beta_min=2.8702948503229872e-06,
                    energy_budget=0.00016726138362381667, channel_gain=3.5045591764655527e-13,
                    sem_k=3.7157350294157974, sem_p=0.5)],
    SystemConfig(f_mec_total=3480281971455.1675, sem_a=0.023898141549949178))

# the mirror case on device 0: its best factor is the bottom of its feasible
# factors, below which extraction leaves the uplink no energy
_LOWER_EDGE_FACTOR = (
    [TerminalDevice(task_bits=181.7709215567738, intensity=15.7605475093375,
                    energy_coeff=1.4075454755807403e-24, f_local_max=186952533.027806,
                    p_tx_max=1.4037337957982367e-05, beta_min=4.4468149625186605e-06,
                    energy_budget=239.49010335317973, channel_gain=4.454791775177606e-10,
                    sem_k=4.021976115758833, sem_p=0.5),
     TerminalDevice(task_bits=12969.087845223628, intensity=4370930.1374834385,
                    energy_coeff=3.324063316622243e-29, f_local_max=4144895.2348116343,
                    p_tx_max=0.05237786869926116, beta_min=1.7733125174865754e-05,
                    energy_budget=0.003331530542506886, channel_gain=8.155717845088215e-07,
                    sem_k=2.180879525108985, sem_p=3.0),
     TerminalDevice(task_bits=52315063.34498014, intensity=44.17562640008569,
                    energy_coeff=9.791062792397462e-22, f_local_max=45458.723026997846,
                    p_tx_max=5.715974209879862e-05, beta_min=0.1361365403431146,
                    energy_budget=0.010099347235207569, channel_gain=1.9621738488911507e-10,
                    sem_k=1.6259695443989775, sem_p=1.5),
     TerminalDevice(task_bits=143724025.07392102, intensity=0.1596185522165602,
                    energy_coeff=6.181152201072208e-30, f_local_max=164446.00352297915,
                    p_tx_max=245.27223495161124, beta_min=8.121274809267996e-05,
                    energy_budget=0.08333708573643517, channel_gain=1.4751028824848191e-13,
                    sem_k=4.936081587193444, sem_p=1.5)],
    SystemConfig(f_mec_total=16350203.581902577, sem_a=3.777389576863439e-10))


# this device's uplink needs less than half an ulp of its budget, so the
# closed-form local rate spends the whole budget on extraction in float
_ULP_SIZED_UPLINK = (
    [TerminalDevice(task_bits=2.371465601506303, intensity=401160460.5456707,
                    energy_coeff=7.328241275816357e-18, f_local_max=52078911568852.836,
                    p_tx_max=7.596807519072778e-08, beta_min=0.00015253072469152758,
                    energy_budget=3260134.536621114, channel_gain=2.6176978012030726e-07,
                    sem_k=3.7786631313474266, sem_p=0.8)],
    SystemConfig(f_mec_total=402634.4635757185, sem_a=0.005601475882380389))


@st.composite
def scaled_box_draws(draw):
    """One to four devices whose ranges reach 4, 12 or 16 decades beyond the
    wide box's on both sides, with factor floors down to 1e-6, gains from
    1e-14 to 1e-6 and per-device semantic exponents."""
    f = 10.0 ** draw(st.sampled_from([4.0, 12.0, 16.0]))
    tds = [TerminalDevice(
        task_bits=draw(log_uniform(3e5 / f, 3e7 * f)),
        intensity=draw(log_uniform(20.0 / f, 700.0 * f)),
        energy_coeff=draw(log_uniform(1e-27 / f, 1e-25 * f)),
        f_local_max=draw(log_uniform(3e8 / f, 2e9 * f)),
        p_tx_max=draw(log_uniform(0.1 / f, 2.0 * f)),
        beta_min=draw(log_uniform(1e-6, 1.0)), energy_budget=draw(log_uniform(0.002 / f, f)),
        channel_gain=draw(log_uniform(1e-14, 1e-6)), sem_k=draw(st.floats(1.0, 5.0)),
        sem_p=draw(st.sampled_from([0.5, 0.8, 1.5, 3.0]))) for _ in range(draw(st.integers(1, 4)))]
    return tds, SystemConfig(f_mec_total=draw(log_uniform(1e9 / f, 3e10 * f)),
                             sem_a=draw(log_uniform(1e-6 / f, 1e-2 * f)))


# at 800 m: raw upload cannot carry the task on this budget, extraction can
_FAR_DEVICE = make_device(energy_budget=0.02, channel_gain=3.5841126307531745e-13)


_OFFLOADING_SOLVES = pytest.mark.parametrize(
    "call", [solve, solve_no_semantic, solve_retained],
    ids=["solve", "raw_upload", "retained_extraction"])


class TestSolve:
    def test_reference_scenario(self, reference):
        report = solve(reference.devices, reference.system)
        assert report.converged
        assert report.iterations <= solver_module._MAX_OUTER_ITERS
        trace = np.array(report.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)
        res = log_domain_residuals(report.allocation, reference.devices, reference.system)
        assert res.energy.min() >= -1e-12
        assert res.capacity >= 0.0
        assert res.rate.min() >= -1e-6 * 3e6
        assert np.all(report.allocation.beta >= 0.6 - 1e-12)
        assert np.all(report.allocation.beta <= 1.0 + 1e-12)
        assert res.delay_cap.max() <= 1e-7 + 1e-9

    def test_iteration_cap_reports_no_convergence(self, reference, monkeypatch):
        # three iterations converge on this budget; a cap of one stops short
        devices = reference.devices.replace(energy_budget=0.05)
        assert solve(devices, reference.system).iterations == 3
        monkeypatch.setattr(solver_module, "_MAX_OUTER_ITERS", 1)
        report = solve(devices, reference.system)
        assert report.converged is False and report.iterations == 1
        assert len(report.objective_trace) == 2
        assert report.objective_trace[1] <= report.objective_trace[0]

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
        retained = solve_retained(reference.devices, reference.system)
        assert pinned.objective_trace[-1] == pytest.approx(
            retained.objective_trace[-1], rel=1e-12)
        np.testing.assert_allclose(pinned.allocation.beta, 1.0, atol=1e-15)

    def test_zero_bit_tasks(self):
        cfg = SystemConfig()
        tds = [make_device(task_bits=0.0), make_device(task_bits=0.0)]
        report = solve(tds, cfg)
        assert report.objective_trace[-1] == 0.0
        assert report.converged

    def test_half_budget_start(self):
        # extraction at the hardware cap would spend this budget whole; the
        # start keeps the factor at 1 (the least uplink energy is 0.5% of the
        # budget) and extracts with half of what that uplink leaves. The answer
        # is feasible and the trace descends, but it is not optimal: no block
        # trades extraction energy for uplink energy, and a grid finds a 37%
        # lower delay. So no optimality is asserted here.
        td = make_device(energy_coeff=1e-25, energy_budget=2e-3, channel_gain=8.9e-10)
        cfg = SystemConfig(sem_a=1e-2)
        report = solve([td], cfg)
        alloc = report.allocation
        assert report.converged
        assert np.all(np.diff(report.objective_trace) <= 0)
        assert_relatively_feasible(alloc, [td], cfg)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 1: no block trades extraction "
                       "energy for uplink energy, so the loop stalls above the optimum")
    @pytest.mark.parametrize("td,cfg,resolution", [
        (make_device(task_bits=1.6716e6, intensity=553.86, energy_coeff=9.2991e-26,
                     f_local_max=1.4859e9, p_tx_max=0.68995, beta_min=0.27699,
                     energy_budget=0.03559, channel_gain=3.8784e-13),
         SystemConfig(f_mec_total=1.7665e10, sem_a=5.077e-3, sem_k=5, sem_p=0.8), 128),
        (make_device(energy_coeff=1e-25, energy_budget=2e-3, channel_gain=8.9e-10),
         SystemConfig(sem_a=1e-2), 256)],
        ids=["hardware_capped_rate", "energy_capped_rate"])
    def test_reaches_grid_optimum_on_energy_limited_uplink(self, td, cfg, resolution):
        """Extraction energy competes with an energy-limited uplink.

        ``solve`` stops at 0.4710 s on the first device, whose local rate is
        hardware-capped, and at 0.3306 s on the second, whose local rate is
        energy-capped; the grid finds 0.16997 s and 0.20704 s. Both answers
        pass ``perturbation_certify`` at 200 probes and step 1e-3, the
        ``--verify`` setting, so the certificate cannot catch them.
        """
        from semec import GridSpec, default_grid_bounds, grid_optimum
        grid_obj, _ = grid_optimum([td], cfg, GridSpec(resolution, default_grid_bounds([td], cfg)))
        assert solve([td], cfg).objective_trace[-1] <= grid_obj * (1 + 1e-3)

    @settings(max_examples=150, deadline=None)
    @given(wide_box_draws())
    @example(_EQUAL_STEP_DRAW)
    def test_feasible_answer_or_feasibility_error(self, draw):
        # no uplink carries beta*A bits on less than beta*A*sigma^2*ln2/(h*B)
        # joules (the wideband limit E_b/N_0 >= ln 2), so a device can be served
        # iff that energy at its floor factor is below its budget
        tds, cfg = draw
        need = np.array([td.beta_min * td.task_bits * cfg.noise_power_w * math.log(2.0)
                         / (td.channel_gain * cfg.bandwidth_hz * td.energy_budget)
                         for td in tds])
        assume(np.all(np.abs(need - 1.0) > 1e-9))
        if np.any(need >= 1.0):
            with pytest.raises(FeasibilityError) as exc:
                solve(tds, cfg)
            assert exc.value.device_index == int(np.argmax(need >= 1.0))
            assert exc.value.cause is FeasibilityCause.RATE_CAP_TOO_LOW
            return
        report = solve(tds, cfg)
        alloc = report.allocation
        assert all(np.all(np.isfinite(v)) for v in (alloc.f_local, alloc.f_remote,
                                                     alloc.t_transmit, alloc.e_transmit,
                                                     alloc.beta))
        assert np.isfinite(alloc.t_epigraph)
        assert np.all(np.diff(report.objective_trace) <= 0)
        assert_relatively_feasible(alloc, tds, cfg)

    @settings(max_examples=600, deadline=None)
    @given(scaled_box_draws())
    @example(_LOWER_EDGE_FACTOR)
    @example(_ULP_SIZED_UPLINK)
    def test_scaled_box_answers_or_names_an_infeasible_device(self, draw):
        # as in the wide box, a device can be served iff the wideband-limit
        # energy at its floor factor is below its budget
        tds, cfg = draw
        need = np.array([td.beta_min * td.task_bits * cfg.noise_power_w * math.log(2.0)
                         / (td.channel_gain * cfg.bandwidth_hz * td.energy_budget)
                         for td in tds])
        assume(np.all(np.abs(need - 1.0) > 1e-9))
        try:
            report = solve(tds, cfg)
        except FeasibilityError as exc:
            assert need[exc.device_index] >= 1.0
            return
        alloc = report.allocation
        assert all(np.all(np.isfinite(v)) for v in (alloc.f_local, alloc.f_remote,
                                                     alloc.t_transmit, alloc.e_transmit,
                                                     alloc.beta))
        assert np.all(np.diff(report.objective_trace) <= 0)
        assert_relatively_feasible(alloc, tds, cfg)

    def test_peak_power_rate_at_low_snr(self):
        # h*p_max/sigma^2 = 3.7e-8: B*log2(1 + snr) loses 2.2e-9 of the rate
        # to the rounding of 1 + snr, which left the rate 2.8 bits short
        td = TerminalDevice(task_bits=2723729279.4267488, intensity=1277983319.6976457,
                            energy_coeff=2.363558975177662e-22, f_local_max=20525774028185.312,
                            p_tx_max=1.0483887185801093e-09, beta_min=4.057103138910325e-06,
                            energy_budget=59.311937789830196, channel_gain=1.4151501346023682e-13,
                            sem_k=4.726208983398509, sem_p=0.8)
        cfg = SystemConfig(f_mec_total=253.0523789446917, sem_a=1.086357338034581)
        report = solve([td], cfg)
        assert report.converged
        assert_relatively_feasible(report.allocation, [td], cfg)

    def test_factor_on_the_edge_of_its_feasible_interval(self):
        # the factor search must end on the feasible side of the edge, not
        # across it, where the uplink has no time to offer
        report = solve(*_UPPER_EDGE_FACTOR)
        assert report.converged
        assert np.all(np.diff(report.objective_trace) <= 0)
        assert_relatively_feasible(report.allocation, *_UPPER_EDGE_FACTOR)

    def test_extraction_serves_a_device_raw_upload_cannot(self):
        # at 800 m even the wideband limit of the raw upload needs 1.155 times
        # the budget, so only a factor below 1 can be served
        td = _FAR_DEVICE
        report = solve([td], CFG)
        assert report.allocation.beta[0] == 0.6
        assert report.objective_trace[-1] == pytest.approx(1.8439190365746037, rel=1e-12)
        assert_relatively_feasible(report.allocation, [td], CFG)
        assert perturbation_certify(report.allocation, [td], CFG, n_probes=200, step=1e-3)
        from semec import GridSpec, default_grid_bounds, grid_optimum
        grid_obj, _ = grid_optimum([td], CFG, GridSpec(128, default_grid_bounds([td], CFG)))
        assert report.objective_trace[-1] <= grid_obj
        for call in (solve_no_semantic, solve_retained):
            with pytest.raises(FeasibilityError) as exc:
                call([td], CFG)
            assert (exc.value.device_index, exc.value.cause) == (
                0, FeasibilityCause.RATE_CAP_TOO_LOW)
        assert solve_local_only([td], CFG).objective_trace[-1] == pytest.approx(2.15186,
                                                                                rel=1e-5)

    def test_start_leaves_the_uplink_energy(self):
        # the local rate that spends the whole budget on extraction rounds one
        # ulp short of it here, leaving the uplink 2e-19 J, while the least
        # uplink energy at the floor factor is 0.8% of the budget
        td = make_device(task_bits=4749953.43154874, energy_coeff=1e-25,
                         energy_budget=0.0011502777333419153, channel_gain=8.9e-10)
        cfg = SystemConfig(sem_a=1e-2)
        report = solve([td], cfg)
        assert report.objective_trace[-1] == pytest.approx(0.6375308592374768, rel=1e-12)
        assert np.all(np.diff(report.objective_trace) <= 0)
        assert_relatively_feasible(report.allocation, [td], cfg)
        assert perturbation_certify(report.allocation, [td], cfg, n_probes=200, step=1e-3)

    def test_error_names_the_first_device_no_factor_serves(self):
        # raw upload fails on both devices, and the floor factor only on the
        # second, at 1000 m
        tds = [_FAR_DEVICE, replace(_FAR_DEVICE, channel_gain=1.5488166189124858e-13)]
        with pytest.raises(FeasibilityError) as exc:
            solve(tds, CFG)
        assert (exc.value.device_index, exc.value.cause) == (
            1, FeasibilityCause.RATE_CAP_TOO_LOW)

    def test_rise_at_optimum_keeps_incumbent(self):
        # the third objective would be one ulp above the second: the loop
        # stops with the second, which converged
        report = solve(*_RISING_WITNESS)
        assert report.objective_trace == [0.24628656870976467, 0.24399555810024542]
        assert report.iterations == 2
        assert report.allocation.t_epigraph == report.objective_trace[-1]
        assert report.converged

    @pytest.mark.parametrize("call", [
        lambda td, cfg: solve([td], cfg),
        lambda td, cfg: solve_retained([replace(td, beta_min=0.6)], cfg)],
        ids=["solve", "retained_extraction"])
    def test_extraction_energy_below_half_an_ulp(self, call):
        # the extraction energy (3e-18 J) is below half an ulp of the budget,
        # so the energy-limited uplink's share rounds to the whole budget
        td = make_device(beta_min=1.0, energy_budget=0.05, channel_gain=1e-12)
        cfg = SystemConfig(sem_a=1e-16)
        report = call(td, cfg)
        assert report.objective_trace[-1] == pytest.approx(0.7264539831541257, rel=1e-12)
        assert_relatively_feasible(report.allocation, [td], cfg)
        assert perturbation_certify(report.allocation, [td], cfg, n_probes=200, step=1e-3)

    def test_mixed_zero_and_active_tasks(self):
        cfg = SystemConfig()
        tds = [make_device(), make_device(task_bits=0.0), make_device(channel_gain=4e-11)]
        report = solve(tds, cfg)
        alloc = report.allocation
        assert (alloc.f_remote[1], alloc.t_transmit[1], alloc.e_transmit[1]) == (0.0, 0.0, 0.0)
        # the idle device keeps the unit factor and the hardware-capped local rate
        assert (alloc.beta[1], alloc.f_local[1]) == (1.0, tds[1].f_local_max)
        # idle device contributes nothing to the shared budget or the max
        active = solve([tds[0], tds[2]], cfg)
        assert report.objective_trace[-1] == pytest.approx(
            active.objective_trace[-1], rel=1e-9)

    @_OFFLOADING_SOLVES
    def test_device_without_work_at_zero_peak_rate(self, call):
        # h*p_max = 1e-300*1e-30 underflows to 0, so the peak-power rate is 0;
        # a device without work sends nothing and changes nothing
        silent = make_device(task_bits=0.0, channel_gain=1e-300, p_tx_max=1e-30)
        report = call([make_device(), silent], CFG)
        assert report.objective_trace == call([make_device()], CFG).objective_trace

    @_OFFLOADING_SOLVES
    def test_device_with_work_at_zero_peak_rate(self, call):
        with pytest.raises(FeasibilityError) as exc:
            call([make_device(), make_device(channel_gain=1e-300, p_tx_max=1e-30)], CFG)
        assert (exc.value.device_index, exc.value.cause) == (
            1, FeasibilityCause.RATE_CAP_TOO_LOW)

    @settings(max_examples=150, deadline=None)
    @given(wide_box_draws(max_n=8))
    def test_breakdown_reads_the_objective(self, draw):
        # the CSV's rows add the solver's own delay terms in its own order
        tds, cfg = draw
        try:
            report = solve(tds, cfg)
        except FeasibilityError:
            assume(False)
        rows = delay_breakdown(tds, report.allocation, cfg)
        assert rows[:, 3].max() == report.allocation.t_epigraph
        assert ((report.objective_trace[-1] - rows[:, 3]).tobytes()
                == log_domain_residuals(report.allocation, tds, cfg).delay_cap.tobytes())

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
        cfg = SystemConfig(f_mec_total=2e9, sem_a=2.682305565772427e-05,
                           sem_k=4.061595157141169, sem_p=1.0)
        trace = solve([td], cfg).objective_trace
        assert np.all(np.diff(trace) <= 1e-12)

    def test_infeasible_scenario_raises(self):
        # upload can never fit: microscopic gain and energy, huge task
        td = make_device(task_bits=1e12, energy_budget=1e-4, channel_gain=1e-13)
        with pytest.raises(FeasibilityError):
            solve([td], CFG)

    @pytest.mark.parametrize("call", [solve, solve_no_semantic, solve_local_only,
                                      partial(log_domain_residuals,
                                              Allocation([], [], [], [], [], 0.0))])
    def test_empty_device_sequence_rejected(self, call):
        with pytest.raises(ValueError, match="no devices"):
            call([], CFG)

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
        # each wrapper names the argument that is NaN or inf
        for bad in (math.nan, math.inf):
            calls = {
                "beta": [partial(optimal_local_rate, td, bad, 0.0, CFG),
                         partial(transmit_bisection, td, bad, 1e9, CFG)],
                "e_transmit": [partial(optimal_local_rate, td, 0.8, bad, CFG),
                               partial(optimal_beta, td, 1e9, 1e9, 0.1, bad, CFG)],
                "f_local": [partial(transmit_bisection, td, 0.8, bad, CFG),
                            partial(optimal_beta, td, bad, 1e9, 0.1, 0.1, CFG)],
                "f_remote": [partial(optimal_beta, td, 1e9, bad, 0.1, 0.1, CFG)],
                "t_transmit": [partial(optimal_beta, td, 1e9, 1e9, bad, 0.1, CFG)],
            }
            for name, fns in calls.items():
                for fn in fns:
                    with pytest.raises(ValueError, match=f"^{name} must"):
                        fn()


# every public reader of an allocation rejects the same allocations
_BOTH_READERS = pytest.mark.parametrize("check", [
    partial(log_domain_residuals, tds=[make_device()], cfg=CFG),
    lambda alloc: delay_breakdown([make_device()], alloc, CFG)],
    ids=["log_domain_residuals", "delay_breakdown"])


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
        alloc = Allocation([f_local], [f_remote], [t_transmit], [e_transmit], [beta], t_total)
        res = log_domain_residuals(alloc, [td], cfg)
        assert abs(res.delay_cap[0]) <= 1e-12 * t_total
        assert abs(res.energy[0]) <= 1e-12 * td.energy_budget
        assert abs(res.rate[0]) <= 1e-6 * bits
        assert abs(res.f_local_cap[0]) == 0.0
        assert abs(res.capacity) == 0.0
        assert abs(res.e_power_cap[0]) == 0.0
        assert abs(res.beta_floor[0]) <= 1e-15

    @_BOTH_READERS
    def test_bad_allocation_rejected(self, check):
        good = dict(f_local=[1e9], f_remote=[1e9], t_transmit=[0.1], e_transmit=[0.1],
                    beta=[0.8], t_epigraph=1.0)
        with pytest.raises(ValueError, match="allocation does not match the device list"):
            check(Allocation(**{k: v * 2 if isinstance(v, list) else v
                                for k, v in good.items()}))
        for name in ("f_local", "f_remote", "t_transmit", "e_transmit", "beta", "t_epigraph"):
            for bad in (math.nan, math.inf):
                if name == "t_epigraph" and math.isnan(bad):
                    continue  # the allocation itself rejects it
                value = bad if name == "t_epigraph" else [bad]
                with pytest.raises(ValueError, match="allocation entries must be finite"):
                    check(Allocation(**{**good, name: value}))

    @pytest.mark.parametrize("beta, f_local, t_transmit", [
        (1e-100, 1e9, 0.0), (0.8, 1e155, 0.0), (0.8, 1e9, 0.3)],
        ids=["tiny_factor", "huge_local_rate", "uplink_time"])
    def test_device_without_work_gets_exact_zeros(self, beta, f_local, t_transmit):
        # beta**4 underflows and f_local**2 overflows, so the closed forms
        # must not be evaluated at these entries; a device without work has
        # no delay, whatever uplink time the allocation gives it
        td = make_device(task_bits=0.0)
        alloc = Allocation([f_local], [0.0], [t_transmit], [0.0], [beta], 1.0)
        res = log_domain_residuals(alloc, [td], SystemConfig(sem_k=4.0))
        rows = delay_breakdown([td], alloc, SystemConfig(sem_k=4.0))
        assert (res.delay_cap[0], res.energy[0], res.rate[0]) == (1.0, td.energy_budget, 0.0)
        assert np.all(rows == 0.0)
        assert res.delay_cap.tobytes() == (alloc.t_epigraph - rows[:, 3]).tobytes()

    @_BOTH_READERS
    @pytest.mark.parametrize("name, value, message", [
        ("t_transmit", -0.1, "uplink time and energy must be nonnegative"),
        ("e_transmit", -0.1, "uplink time and energy must be nonnegative"),
        ("f_remote", 0.0, "f_remote must be positive for devices with work")])
    def test_uplink_sign_and_server_share_rejected(self, check, name, value, message):
        good = dict(f_local=[1e9], f_remote=[1e9], t_transmit=[0.1], e_transmit=[0.1],
                    beta=[0.8], t_epigraph=1.0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            check(Allocation(**{**good, name: [value]}))

    @_BOTH_READERS
    def test_domain_error_on_nonpositive(self, check):
        # beta = -0.5 gives finite rows at k = 4 and p = 3, unless rejected
        alloc = Allocation([1e9], [1e9], [0.1], [0.1], [-0.5], 1.0)
        with pytest.raises(ValueError, match="^beta and f_local must be strictly positive$"):
            check(alloc)

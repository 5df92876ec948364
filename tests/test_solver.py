import math
from dataclasses import asdict, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bisection_oracles import bits_carried, server_split_bisection, uplink_time_bisection
from conftest import log_uniform, multi_device_draw, single_device_draw
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
from semec.model import DeviceTable, semantic_constants
from semec.solver import (_extraction_energy, _refine_block, _remote_cycles, _Scenario,
                          _t_local, _uplink)


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
        beta, t, _ = _refine_block(sc, np.array([0.3]), f_local, f_remote)
        objective = float((_t_local(sc, beta, f_local) + t
                           + _remote_cycles(sc, beta) / f_remote)[0])
        assert beta[0] == pytest.approx(0.250593, rel=1e-6)
        assert objective == pytest.approx(0.54244451929, rel=1e-10)

        # the scan's uplink is the block's own, checked against bisection above
        grid = np.geomspace(td.beta_min, 1.0, 200_000)
        wide = _Scenario(DeviceTable(**{**asdict(td), "task_bits": np.full(grid.size, 3e6)}), cfg)
        f_local, f_remote = np.full(grid.size, 1e9), np.full(grid.size, 13e9)
        e_budget = td.energy_budget - _extraction_energy(wide, grid, f_local)
        t_scan, _ = _uplink(wide, grid * td.task_bits, e_budget)
        scan = _t_local(wide, grid, f_local) + t_scan + _remote_cycles(wide, grid) / f_remote
        assert np.isinf(scan[0]) and np.isinf(scan[-1])
        assert objective <= scan.min() * (1 + 1e-12)


@st.composite
def wide_box_draws(draw):
    """One to four devices from the wide box: about one in seven without task
    bits, and the rest mostly energy-limited or infeasible."""
    n = draw(st.integers(1, 4))
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


# the second step of this solve rises by one ulp at the optimum
_RISING_WITNESS = (
    [TerminalDevice(task_bits=24962086.18248292, intensity=75.35434082614373,
                    energy_coeff=1.955153050525635e-27, f_local_max=342551332.02212095,
                    p_tx_max=0.22255800604291096, beta_min=0.18309273660868705,
                    energy_budget=0.22993005759613583, channel_gain=2.6544072199072237e-11)],
    SystemConfig(sem_a=7.506993747986214e-05, sem_k=2.0770513471955354, sem_p=3.0))

# an energy-limited draw whose third objective equals its second
_EQUAL_STEP_DRAW = (
    [TerminalDevice(task_bits=6589621.451349257, intensity=566.1821450652096,
                    energy_coeff=5.402165418026135e-27, f_local_max=1057060021.0804992,
                    p_tx_max=1.9533862994450961, beta_min=0.14247386983679078,
                    energy_budget=0.03696656254330965, channel_gain=5.514526013499737e-09)],
    SystemConfig(sem_a=2.1898518269177743e-05, sem_k=3.921635694671529, sem_p=1.5))


# at 800 m: raw upload cannot carry the task on this budget, extraction can
_FAR_DEVICE = make_device(energy_budget=0.02, channel_gain=3.5841126307531745e-13)


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
        assert report.tightness_residuals.max() <= 1e-7 + 1e-9

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
        for retain in (False, True):
            with pytest.raises(FeasibilityError) as exc:
                solve_no_semantic([td], CFG, retain_extraction=retain)
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
        assert report.objective_trace == [2.8774459708373223, 1.7819543239890636]
        assert report.iterations == 2
        assert report.allocation.t_epigraph == report.objective_trace[-1]
        assert report.converged

    @pytest.mark.parametrize("call", [
        lambda td, cfg: solve([td], cfg),
        lambda td, cfg: solve_no_semantic([replace(td, beta_min=0.6)], cfg,
                                          retain_extraction=True)],
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

    @pytest.mark.parametrize("check", [
        partial(log_domain_residuals, tds=[make_device()], cfg=CFG),
        lambda alloc: delay_breakdown([make_device()], alloc, CFG)],
        ids=["log_domain_residuals", "delay_breakdown"])
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

    @pytest.mark.parametrize("beta, f_local", [(1e-100, 1e9), (0.8, 1e155)],
                             ids=["tiny_factor", "huge_local_rate"])
    def test_device_without_work_gets_exact_zeros(self, beta, f_local):
        # beta**4 underflows and f_local**2 overflows, so the closed forms
        # must not be evaluated at these entries
        td = make_device(task_bits=0.0)
        alloc = Allocation([f_local], [0.0], [0.0], [0.0], [beta], 1.0)
        res = log_domain_residuals(alloc, [td], SystemConfig(sem_k=4.0))
        assert (res.delay_cap[0], res.energy[0], res.rate[0]) == (1.0, td.energy_budget, 0.0)
        assert np.all(delay_breakdown([td], alloc, SystemConfig(sem_k=4.0)) == 0.0)

    def test_domain_error_on_nonpositive(self):
        td = make_device()
        alloc = Allocation([1e9], [1e9], [0.1], [0.1], [-0.5], 1.0)
        with pytest.raises(ValueError):
            log_domain_residuals(alloc, [td], CFG)

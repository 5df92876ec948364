import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from semec import (
    DeviceAllocation,
    SystemConfig,
    TerminalDevice,
    achievable_rate,
    delay_breakdown,
    energy_breakdown,
    extraction_workload,
    generate_channel_gains,
    intensity_ratio,
    uplink_bits_capacity,
)


def make_device(**overrides) -> TerminalDevice:
    params = dict(task_bits=3e6, intensity=70.0, energy_coeff=1e-26, f_local_max=1e9,
                  p_tx_max=1.0, beta_min=0.6, energy_budget=0.5, channel_gain=1e-10)
    params.update(overrides)
    return TerminalDevice(**params)


CFG = SystemConfig(n_devices=1)


class TestValidation:
    def test_beta_min_range(self):
        with pytest.raises(ValueError, match="beta_min"):
            make_device(beta_min=1.5)
        with pytest.raises(ValueError, match="beta_min"):
            make_device(beta_min=0.0)

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            make_device(energy_budget=0.0)
        with pytest.raises(ValueError):
            make_device(channel_gain=-1e-10)

    def test_config_tolerances(self):
        with pytest.raises(ValueError):
            SystemConfig(n_devices=1, eps_outer=0.0)
        with pytest.raises(ValueError):
            SystemConfig(n_devices=0)

    @pytest.mark.parametrize("name", ["task_bits", "intensity", "energy_coeff", "f_local_max",
                                      "p_tx_max", "beta_min", "energy_budget", "channel_gain",
                                      "distance", "sem_a", "sem_k", "sem_p"])
    def test_device_fields_must_be_finite(self, name):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=name):
                make_device(**{name: value})

    @pytest.mark.parametrize("name", ["n_devices", "bandwidth_hz", "noise_psd_dbm_hz",
                                      "f_mec_total", "sem_a", "sem_k", "sem_p",
                                      "eps_bisect_capacity", "eps_bisect_transmit",
                                      "eps_outer", "max_outer_iters"])
    def test_config_fields_must_be_finite(self, name):
        fields = {"n_devices": 1, name: None}
        for value in (math.inf, -math.inf, math.nan):
            fields[name] = value
            with pytest.raises(ValueError, match=name):
                SystemConfig(**fields)


class TestExtractionWorkload:
    def test_unit_factor_is_linear_coefficient(self):
        assert extraction_workload(make_device(), 1.0, CFG) == pytest.approx(30.0, rel=1e-14)

    def test_partial_factor(self):
        # 1e-5 * 3e6 / 0.6**4, evaluated independently
        expected = 231.48148148148147
        assert extraction_workload(make_device(), 0.6, CFG) == pytest.approx(expected, rel=1e-12)

    def test_zero_task(self):
        assert extraction_workload(make_device(task_bits=0.0), 0.7, CFG) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            extraction_workload(make_device(), 0.0, CFG)
        with pytest.raises(ValueError):
            extraction_workload(make_device(), -0.3, CFG)

    @given(st.floats(0.05, 0.999), st.floats(1.001, 1.5))
    def test_strictly_decreasing(self, lo, scale):
        hi = min(1.0, lo * scale)
        td = make_device()
        if hi > lo:
            assert extraction_workload(td, lo, CFG) > extraction_workload(td, hi, CFG)


class TestIntensityRatio:
    def test_raw_data_has_unit_ratio(self):
        assert intensity_ratio(1.0, CFG) == 1.0
        for p in (0.3, 1.0, 2.5, 7.0):
            assert intensity_ratio(1.0, CFG, p=p) == 1.0

    def test_values(self):
        assert intensity_ratio(0.5, CFG, p=3.0) == pytest.approx(8.0, rel=1e-14)
        assert intensity_ratio(0.5, CFG, p=1.0) == pytest.approx(2.0, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            intensity_ratio(0.0, CFG)


class TestAchievableRate:
    def test_zero_power(self):
        assert achievable_rate(make_device(), 0.0, CFG) == 0.0

    def test_pinned_snr(self):
        # h*p/noise == 1 -> one bandwidth of rate; == 3 -> two bandwidths
        noise = CFG.noise_power_w
        td = make_device(channel_gain=noise)
        assert achievable_rate(td, 1.0, CFG) == pytest.approx(1e6, rel=1e-12)
        assert achievable_rate(td, 3.0, CFG) == pytest.approx(2e6, rel=1e-12)

    def test_concave_in_power(self):
        rng = np.random.default_rng(3)
        td = make_device(channel_gain=5e-11)
        for _ in range(200):
            p1, p2 = rng.uniform(0.0, 2.0, 2)
            mid = achievable_rate(td, (p1 + p2) / 2, CFG)
            avg = (achievable_rate(td, p1, CFG) + achievable_rate(td, p2, CFG)) / 2
            assert mid >= avg - 1e-12 * max(mid, 1.0)


class TestPerspectiveCapacity:
    def test_concave_in_energy_and_time(self):
        rng = np.random.default_rng(11)
        td = make_device(channel_gain=8e-11)
        for _ in range(200):
            e1, e2 = rng.uniform(0.01, 0.6, 2)
            t1, t2 = rng.uniform(0.01, 0.8, 2)
            mid = uplink_bits_capacity(td, (e1 + e2) / 2, (t1 + t2) / 2, CFG)
            avg = (uplink_bits_capacity(td, e1, t1, CFG)
                   + uplink_bits_capacity(td, e2, t2, CFG)) / 2
            assert mid >= avg - 1e-12 * max(mid, 1.0)

    def test_zero_time(self):
        assert uplink_bits_capacity(make_device(), 0.3, 0.0, CFG) == 0.0


class TestBreakdowns:
    def test_remote_delay(self):
        td = make_device()
        row = DeviceAllocation(f_local=1e9, f_remote=1e9, t_transmit=0.1,
                               e_transmit=0.1, beta=1.0)
        bd = delay_breakdown(td, row, CFG)
        assert bd.t_remote == pytest.approx(0.21, rel=1e-12)

    def test_local_delay(self):
        td = make_device()
        row = DeviceAllocation(f_local=1e9, f_remote=1e9, t_transmit=0.0,
                               e_transmit=0.0, beta=1.0)
        bd = delay_breakdown(td, row, CFG)
        assert bd.t_local == pytest.approx(3e-8, rel=1e-12)

    def test_zero_task(self):
        td = make_device(task_bits=0.0)
        row = DeviceAllocation(f_local=1e9, f_remote=0.0, t_transmit=0.0,
                               e_transmit=0.0, beta=1.0)
        bd = delay_breakdown(td, row, CFG)
        assert (bd.t_local, bd.t_transmit, bd.t_remote, bd.total) == (0, 0, 0, 0)

    def test_total_is_exact_sum(self):
        rng = np.random.default_rng(5)
        td = make_device()
        for _ in range(50):
            row = DeviceAllocation(f_local=float(rng.uniform(1e8, 1e9)),
                                   f_remote=float(rng.uniform(1e8, 1e10)),
                                   t_transmit=float(rng.uniform(0, 1)),
                                   e_transmit=float(rng.uniform(0, 0.5)),
                                   beta=float(rng.uniform(0.6, 1.0)))
            bd = delay_breakdown(td, row, CFG)
            assert bd.total == bd.t_local + bd.t_transmit + bd.t_remote

    def test_zero_rate_errors(self):
        td = make_device()
        row = DeviceAllocation(f_local=0.0, f_remote=1e9, t_transmit=0.1,
                               e_transmit=0.1, beta=1.0)
        with pytest.raises(ValueError):
            delay_breakdown(td, row, CFG)

    def test_extraction_energy(self):
        # a*A*kappa*f^2 = 1e-5 * 3e6 * 1e-26 * 1e18, evaluated independently
        td = make_device()
        row = DeviceAllocation(f_local=1e9, f_remote=1e9, t_transmit=0.0,
                               e_transmit=0.0, beta=1.0)
        eb = energy_breakdown(td, row, CFG)
        assert eb.e_compute == pytest.approx(3e-7, rel=1e-12)

    def test_energy_passthrough_and_zero_task(self):
        td = make_device(task_bits=0.0)
        row = DeviceAllocation(f_local=1e9, f_remote=0.0, t_transmit=0.0,
                               e_transmit=0.1, beta=1.0)
        eb = energy_breakdown(td, row, CFG)
        assert eb.e_compute == 0.0
        assert eb.e_transmit == 0.1


class TestChannel:
    def test_reference_distances(self):
        assert generate_channel_gains([1000.0])[0] == pytest.approx(10 ** -12.81, rel=1e-12)
        assert generate_channel_gains([100.0])[0] == pytest.approx(10 ** -9.05, rel=1e-12)

    def test_monotone_in_distance(self):
        gains = generate_channel_gains(np.linspace(50, 500, 20))
        assert np.all(np.diff(gains) < 0)

    def test_fading_determinism(self):
        d = [120.0, 200.0, 255.0]
        g1 = generate_channel_gains(d, fading_seed=9)
        g2 = generate_channel_gains(d, fading_seed=9)
        np.testing.assert_array_equal(g1, g2)
        g3 = generate_channel_gains(d, fading_seed=10)
        assert not np.array_equal(g1, g3)

    def test_nonpositive_distance(self):
        with pytest.raises(ValueError):
            generate_channel_gains([100.0, -5.0])

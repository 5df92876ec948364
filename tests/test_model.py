import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import multi_device_draw, semantic_constants
from semec import (
    Allocation,
    DeviceTable,
    GridSpec,
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
    solve_no_semantic,
    transmit_bisection,
)
from semec.model import check_number
from semec.solver import _bits_carried, _Scenario


def make_device(**overrides) -> TerminalDevice:
    params = dict(task_bits=3e6, intensity=70.0, energy_coeff=1e-26, f_local_max=1e9,
                  p_tx_max=1.0, beta_min=0.6, energy_budget=0.5, channel_gain=1e-10)
    params.update(overrides)
    return TerminalDevice(**params)


CFG = SystemConfig()


def make_alloc(n: int = 1, **values) -> Allocation:
    """An allocation of ``n`` devices; each value is a scalar or an (n,) array."""
    base = dict(f_local=1e9, f_remote=1e9, t_transmit=0.0, e_transmit=0.0, beta=1.0)
    base.update(values)
    return Allocation(*(np.full(n, base[name], dtype=float) for name in
                        ("f_local", "f_remote", "t_transmit", "e_transmit", "beta")), 0.0)


def breakdown(td: TerminalDevice, cfg: SystemConfig = CFG, **values) -> np.ndarray:
    """The single device's (t_local, t_transmit, t_remote, total) row."""
    return delay_breakdown([td], make_alloc(**values), cfg)[0]


def uplink_bits(td: TerminalDevice, e, t) -> np.ndarray:
    """Bits the solver's perspective rate delivers with energies ``e`` in times ``t``."""
    e, t = np.asarray(e, dtype=float), np.asarray(t, dtype=float)
    return _bits_carried(_Scenario([td] * e.size, CFG), td.channel_gain, e, t)


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
        # the outer loop's tolerance and cap are the solver's constants
        for name in ("eps_outer", "max_outer_iters"):
            with pytest.raises(TypeError):
                SystemConfig(**{name: 1})

    def test_device_count_is_not_a_field(self):
        # the count is the length of the device sequence
        with pytest.raises(TypeError):
            SystemConfig(n_devices=1)

    @pytest.mark.parametrize("name", ["task_bits", "intensity", "energy_coeff", "f_local_max",
                                      "p_tx_max", "beta_min", "energy_budget", "channel_gain",
                                      "sem_a", "sem_k", "sem_p"])
    def test_device_fields_must_be_finite(self, name):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=name):
                make_device(**{name: value})

    @pytest.mark.parametrize("name", ["bandwidth_hz", "noise_psd_dbm_hz", "f_mec_total",
                                      "sem_a", "sem_k", "sem_p"])
    def test_config_fields_must_be_finite(self, name):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=name):
                SystemConfig(**{name: value})

    @pytest.mark.parametrize("name", ["task_bits", "intensity", "energy_coeff", "f_local_max",
                                      "p_tx_max", "beta_min", "energy_budget", "channel_gain",
                                      "sem_a", "sem_k", "sem_p"])
    def test_device_fields_must_be_numbers(self, name):
        for value in ("0.5", 0.5j, [0.5]):
            with pytest.raises(ValueError, match=name):
                make_device(**{name: value})

    @pytest.mark.parametrize("name", ["bandwidth_hz", "noise_psd_dbm_hz", "f_mec_total",
                                      "sem_a", "sem_k", "sem_p"])
    def test_config_fields_must_be_numbers(self, name):
        for value in ("0.5", 0.5j, [0.5]):
            with pytest.raises(ValueError, match=name):
                SystemConfig(**{name: value})

    def test_integer_beyond_every_float(self):
        with pytest.raises(ValueError, match=r"^task_bits must be finite and nonnegative$"):
            make_device(task_bits=10**400)

    def test_integers_and_numpy_floats_are_numbers(self):
        td = make_device(task_bits=3_000_000, intensity=np.float32(70.0), sem_k=4)
        cfg = SystemConfig(bandwidth_hz=np.float64(1e6), noise_psd_dbm_hz=-174)
        assert solve([td], cfg).converged


# each public entry that takes named numbers, called with valid ones but those given
def _optimal_beta(**given):
    numbers = dict(f_local=1e9, f_remote=1e9, t_transmit=0.1, e_transmit=0.1)
    return optimal_beta(make_device(), cfg=CFG, **{**numbers, **given})


def _transmit_bisection(**given):
    return transmit_bisection(make_device(), cfg=CFG, **{"beta": 0.8, "f_local": 1e9, **given})


def _optimal_local_rate(**given):
    return optimal_local_rate(make_device(), cfg=CFG, **{"beta": 0.8, "e_transmit": 0.1, **given})


def _remote_rate_bisection(**given):
    # a given number leads its column, and a valid entry follows it
    columns = {"beta": [0.8, 0.8], "f_local": [1e9, 1e9], "t_transmit": [0.1, 0.1]}
    columns.update({name: [value, columns[name][1]] for name, value in given.items()})
    return remote_rate_bisection([make_device()] * 2, cfg=CFG, **columns)


def _perturbation_certify(**given):
    counts = {"n_probes": 10, "step": 1e-3, "seed": 0, **given}
    return perturbation_certify(make_alloc(), [make_device()], CFG, **counts)


def _generate_channel_gains(distances_m=100.0, fading_seed=3):
    return generate_channel_gains([distances_m, 120.0], fading_seed)


def _grid_spec(resolution_per_axis=16, variable_bounds=1.0):
    # the number given for the bounds is the uplink-time axis's upper end
    return GridSpec(resolution_per_axis, {"beta": (0.6, 1.0), "f_local": (1e6, 1e9),
                                          "t_transmit": (0.0, variable_bounds),
                                          "e_transmit": (0.0, 0.5)})


_NAMED_NUMBERS = [
    *((make_device, f.name) for f in fields(TerminalDevice)),
    *((SystemConfig, f.name) for f in fields(SystemConfig)),
    *((_optimal_beta, name) for name in ("f_local", "f_remote", "t_transmit", "e_transmit")),
    *((_transmit_bisection, name) for name in ("beta", "f_local")),
    *((_optimal_local_rate, name) for name in ("beta", "e_transmit")),
    *((_remote_rate_bisection, name) for name in ("beta", "f_local", "t_transmit")),
    *((_perturbation_certify, name) for name in ("step", "n_probes", "seed")),
    *((_grid_spec, name) for name in ("resolution_per_axis", "variable_bounds")),
    *((_generate_channel_gains, name) for name in ("distances_m", "fading_seed")),
]
_COUNTS = ("n_probes", "seed", "resolution_per_axis", "fading_seed")


@pytest.mark.parametrize("entry,name", _NAMED_NUMBERS,
                         ids=[f"{entry.__name__.strip('_')}-{name}"
                              for entry, name in _NAMED_NUMBERS])
def test_every_named_number_obeys_its_rule(entry, name):
    # an integer no float holds is rejected like inf, and a count takes no
    # bool and no fraction; each error names the number
    for value in [10**400] + ([True, 8.5] if name in _COUNTS else []):
        with pytest.raises(ValueError, match=f"^{name} must "):
            entry(**{name: value})


def test_a_bool_is_no_number():
    # a column of bools reads as no numbers, so a device field takes none either
    with pytest.raises(ValueError, match=r"^task_bits must be finite and nonnegative$"):
        check_number("task_bits", True)
    with pytest.raises(ValueError, match=r"^devices\[0\]: channel_gain must "):
        DeviceTable.from_devices([make_device()] * 2).replace(channel_gain=[True, True])
    # numpy reads a bool among numbers as 0 or 1; the column reader does not
    columns = {f.name: getattr(make_device(), f.name) for f in fields(TerminalDevice)}
    for gains in ([True, 2e-10], [2e-10, np.True_], (2e-10, True)):
        with pytest.raises(ValueError, match=r"^devices\[\d\]: channel_gain must "):
            DeviceTable(**{**columns, "channel_gain": gains})


def test_remote_rate_columns_take_numbers_only():
    # the device rules reject a string entry, and so does every column
    with pytest.raises(ValueError, match=r"^beta must lie in \(0, 1\]$"):
        remote_rate_bisection([make_device()] * 2, ["0.8", "0.8"], [1e9] * 2, [0.1] * 2, CFG)


class TestExtractionWorkload:
    """The extraction workload a*A/beta^k, read as t_local at f_local = 1 Hz."""

    def test_unit_factor_is_linear_coefficient(self):
        assert breakdown(make_device(), f_local=1.0)[0] == pytest.approx(30.0, rel=1e-14)

    def test_partial_factor(self):
        # 1e-5 * 3e6 / 0.6**4, evaluated independently
        expected = 231.48148148148147
        assert breakdown(make_device(), f_local=1.0, beta=0.6)[0] == pytest.approx(
            expected, rel=1e-12)

    def test_zero_task(self):
        assert breakdown(make_device(task_bits=0.0), f_local=1.0, beta=0.7)[0] == 0.0

    @given(st.floats(0.05, 0.999), st.floats(1.001, 1.5))
    def test_strictly_decreasing(self, lo, scale):
        # t_local falls as the factor grows
        hi = min(1.0, lo * scale)
        td = make_device()
        if hi > lo:
            assert breakdown(td, beta=lo)[0] > breakdown(td, beta=hi)[0]


class TestIntensityRatio:
    """The server workload per kept bit, I/beta^p, read from t_remote."""

    def test_raw_data_has_unit_ratio(self):
        td = make_device()
        for p in (0.3, 1.0, 2.5, 7.0):
            t_remote = breakdown(td, replace(CFG, sem_p=p), f_remote=1e9)[2]
            assert t_remote == td.task_bits * td.intensity / 1e9

    def test_values(self):
        # beta*A bits kept, each costing I/beta^p cycles: ratio 8 at p=3, 2 at p=1
        td = make_device()
        kept = 0.5 * td.task_bits * td.intensity / 1e9
        t_p3 = breakdown(td, replace(CFG, sem_p=3.0), beta=0.5)[2]
        t_p1 = breakdown(td, replace(CFG, sem_p=1.0), beta=0.5)[2]
        assert t_p3 == pytest.approx(8.0 * kept, rel=1e-14)
        assert t_p1 == pytest.approx(2.0 * kept, rel=1e-14)


class TestAchievableRate:
    """The rate B*log2(1 + h*p/sigma^2), as the bits one second carries at power p."""

    def test_zero_power(self):
        assert uplink_bits(make_device(), [0.0], [1.0])[0] == 0.0

    def test_pinned_snr(self):
        # h*p/noise == 1 -> one bandwidth of rate; == 3 -> two bandwidths
        td = make_device(channel_gain=CFG.noise_power_w)
        rates = uplink_bits(td, [1.0, 3.0], [1.0, 1.0])
        assert rates == pytest.approx([1e6, 2e6], rel=1e-12)

    def test_concave_in_power(self):
        rng = np.random.default_rng(3)
        td = make_device(channel_gain=5e-11)
        p1, p2 = rng.uniform(0.0, 2.0, (2, 200))
        ones = np.ones(200)
        mid = uplink_bits(td, (p1 + p2) / 2, ones)
        avg = (uplink_bits(td, p1, ones) + uplink_bits(td, p2, ones)) / 2
        assert np.all(mid >= avg - 1e-12 * np.maximum(mid, 1.0))


class TestPerspectiveCapacity:
    def test_concave_in_energy_and_time(self):
        rng = np.random.default_rng(11)
        td = make_device(channel_gain=8e-11)
        e1, e2 = rng.uniform(0.01, 0.6, (2, 200))
        t1, t2 = rng.uniform(0.01, 0.8, (2, 200))
        mid = uplink_bits(td, (e1 + e2) / 2, (t1 + t2) / 2)
        avg = (uplink_bits(td, e1, t1) + uplink_bits(td, e2, t2)) / 2
        assert np.all(mid >= avg - 1e-12 * np.maximum(mid, 1.0))

    def test_zero_time(self):
        assert uplink_bits(make_device(), [0.3], [0.0])[0] == 0.0


class TestBreakdowns:
    def test_remote_delay(self):
        bd = breakdown(make_device(), t_transmit=0.1, e_transmit=0.1)
        assert bd[2] == pytest.approx(0.21, rel=1e-12)

    def test_local_delay(self):
        assert breakdown(make_device())[0] == pytest.approx(3e-8, rel=1e-12)

    def test_zero_task(self):
        bd = breakdown(make_device(task_bits=0.0), f_remote=0.0)
        assert bd.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_raw_upload_ignores_the_factor(self):
        # without an extraction pass the server runs the raw A*I cycles
        td = make_device(sem_p=3.0)
        rows = delay_breakdown([td], make_alloc(beta=0.5, t_transmit=0.1), CFG, extraction=False)
        assert rows[0].tolist() == [0.0, 0.1, 3e6 * 70.0 / 1e9, 0.1 + 3e6 * 70.0 / 1e9]

    def test_total_is_exact_sum(self):
        rng = np.random.default_rng(5)
        n = 50
        alloc = make_alloc(n, f_local=rng.uniform(1e8, 1e9, n),
                           f_remote=rng.uniform(1e8, 1e10, n),
                           t_transmit=rng.uniform(0, 1, n), e_transmit=rng.uniform(0, 0.5, n),
                           beta=rng.uniform(0.6, 1.0, n))
        rows = delay_breakdown([make_device()] * n, alloc, CFG)
        assert rows.shape == (n, 4)
        for t_local, t_transmit, t_remote, total in rows.tolist():
            assert total == t_local + t_transmit + t_remote

    def test_extraction_energy(self):
        # a*A*kappa*f^2 = 1e-5 * 3e6 * 1e-26 * 1e18, evaluated independently; read
        # from the energy slack E - e_extract - e_transmit at a small budget
        td = make_device(energy_budget=1e-6)
        slack = log_domain_residuals(make_alloc(), [td], CFG).energy[0]
        assert td.energy_budget - slack == pytest.approx(3e-7, rel=1e-12)

    def test_energy_passthrough_and_zero_task(self):
        td = make_device(task_bits=0.0)
        slack = log_domain_residuals(make_alloc(f_remote=0.0, e_transmit=0.1), [td], CFG).energy
        assert slack[0] == td.energy_budget - 0.1

    @pytest.mark.parametrize("extraction", [True, False])
    def test_matches_scalar_formulas(self, extraction):
        # a device-by-device reference with scalar arithmetic in the same order;
        # numpy's vectorised power may differ from libm's in the last bit
        rng = np.random.default_rng(8)
        devices, cfg = multi_device_draw(rng, 40)
        devices = [replace(td, task_bits=0.0) if i % 7 == 3 else
                   replace(td, sem_p=2.0, sem_k=3.5) if i % 5 == 1 else td
                   for i, td in enumerate(devices)]
        alloc = (solve if extraction else solve_no_semantic)(devices, cfg).allocation
        rows = delay_breakdown(devices, alloc, cfg, extraction=extraction)
        for i, td in enumerate(devices):
            if td.task_bits == 0:
                assert rows[i].tolist() == [0.0, 0.0, 0.0, 0.0]
                continue
            a, k, p = semantic_constants(td, cfg)
            beta, f_local = float(alloc.beta[i]), float(alloc.f_local[i])
            t_local = a * td.task_bits / (beta**k * f_local) if extraction else 0.0
            t_remote = (td.task_bits * td.intensity * (beta ** (1.0 - p) if extraction else 1.0)
                        / float(alloc.f_remote[i]))
            expected = [t_local, float(alloc.t_transmit[i]), t_remote,
                        t_local + float(alloc.t_transmit[i]) + t_remote]
            assert rows[i].tolist() == pytest.approx(expected, rel=4 * np.finfo(float).eps,
                                                     abs=0.0)


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

    # test_every_named_number_obeys_its_rule gives each 10**400, and the seed
    # True and a fraction
    @pytest.mark.parametrize("distances,seed,message", [
        pytest.param([100.0, "120"], None, "distances_m must be finite and positive",
                     id="distance-string"),
        *(pytest.param([100.0], seed, "fading_seed must be a nonnegative integer",
                       id=f"seed-{seed}") for seed in (2.5, -1)),
    ])
    def test_numbers_obey_their_rules(self, distances, seed, message):
        with pytest.raises(ValueError) as exc:
            generate_channel_gains(distances, fading_seed=seed)
        assert str(exc.value) == message

    @pytest.mark.parametrize("distance", [math.nan, math.inf, 1e-300])
    def test_distance_without_finite_gain(self, distance):
        # warnings are errors in this suite, so an overflow would fail as one
        with pytest.raises(ValueError, match="distances"):
            generate_channel_gains([distance, 100.0], fading_seed=3)

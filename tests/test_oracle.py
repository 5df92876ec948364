import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from certify_oracle import first_improving_probe, perturbation_certify_loop, probe_directions
from conftest import log_uniform, multi_device_draw, single_device_draw, solve_retained
from semec import (
    FeasibilityCause,
    FeasibilityError,
    GridSpec,
    SystemConfig,
    TerminalDevice,
    default_grid_bounds,
    grid_optimum,
    perturbation_certify,
    solve,
    transmit_bisection,
)
from semec import oracle
from semec.oracle import _directions, _sweep_directions


def make_device(**overrides) -> TerminalDevice:
    params = dict(task_bits=3e6, intensity=70.0, energy_coeff=1e-26, f_local_max=1e9,
                  p_tx_max=1.0, beta_min=0.6, energy_budget=0.5, channel_gain=8e-11)
    params.update(overrides)
    return TerminalDevice(**params)


CFG = SystemConfig()


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
        retained = solve_retained([td], CFG).objective_trace[-1]
        assert abs(obj - retained) / retained <= 0.02

    def test_infeasible_energy(self):
        td = make_device(energy_budget=1e-12)
        bounds = {"beta": (0.6, 1.0), "f_local": (1e6, 1e9),
                  "t_transmit": (1e-3, 0.5), "e_transmit": (0.0, 1e-12)}
        with pytest.raises(FeasibilityError):
            grid_optimum([td], CFG, GridSpec(16, bounds))

    def test_two_devices_without_a_feasible_point(self):
        tds = [make_device(energy_budget=1e-12)] * 2
        bounds = {"beta": (0.6, 1.0), "f_local": (1e6, 1e9),
                  "t_transmit": (1e-3, 0.5), "e_transmit": (0.0, 1e-12)}
        with pytest.raises(FeasibilityError) as exc:
            grid_optimum(tds, CFG, GridSpec(16, bounds))
        assert (exc.value.device_index, exc.value.cause) == (
            0, FeasibilityCause.INVALID_SCENARIO)
        assert str(exc.value) == "device 0: InvalidScenario (no feasible grid point)"

    def test_error_names_the_second_device_without_a_feasible_point(self):
        td = make_device()
        tds = [td, make_device(energy_budget=1e-12)]
        with pytest.raises(FeasibilityError) as exc:
            grid_optimum(tds, CFG, GridSpec(16, default_grid_bounds([td], CFG)))
        assert (exc.value.device_index, exc.value.cause) == (
            1, FeasibilityCause.INVALID_SCENARIO)
        assert str(exc.value) == "device 1: InvalidScenario (no feasible grid point)"

    def test_default_bounds_need_a_device_with_work(self):
        with pytest.raises(ValueError) as exc:
            default_grid_bounds([make_device(task_bits=0.0)], CFG)
        assert str(exc.value) == "default bounds need at least one device with work"

    def test_device_without_work_leaves_the_largest_share(self):
        # the idle device's grid point is the unit factor at the local-rate
        # cap with no uplink and no share, so the other device's largest
        # share on the split axis, 31/32, is the best split
        tds = [make_device(), make_device(task_bits=0.0)]
        bounds = default_grid_bounds(tds, CFG)
        obj, alloc = grid_optimum(tds, CFG, GridSpec(16, bounds))
        assert (alloc.beta[1], alloc.f_local[1], alloc.t_transmit[1], alloc.e_transmit[1],
                alloc.f_remote[1]) == (1.0, 1e9, 0.0, 0.0, 0.0)
        alone = SystemConfig(f_mec_total=CFG.f_mec_total * 31 / 32)
        assert obj == grid_optimum(tds[:1], alone, GridSpec(16, bounds))[0]

    def test_two_devices_symmetric_split(self):
        cfg = SystemConfig()
        tds = [make_device(), make_device()]
        solved = solve(tds, cfg).objective_trace[-1]
        bounds = default_grid_bounds(tds, cfg)
        obj, alloc = grid_optimum(tds, cfg, GridSpec(32, bounds))
        assert alloc.f_remote[0] == pytest.approx(alloc.f_remote[1], rel=1e-9)
        assert abs(obj - solved) / solved <= 0.08
        assert solved <= obj + 1e-12

    def test_two_heterogeneous_devices(self):
        cfg = SystemConfig(f_mec_total=8e9)
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
        bounds = default_grid_bounds(tds, SystemConfig())
        with pytest.raises(ValueError):
            grid_optimum(tds, SystemConfig(), GridSpec(16, bounds))

    @pytest.mark.xfail(strict=True, raises=FeasibilityError,
                       reason="ROADMAP item 3: the default t bound stops at 8x the raw "
                       "peak-power time, so the grid misses deeply energy-limited devices")
    def test_grid_covers_a_deeply_energy_limited_device(self):
        """``solve`` answers 13.539 s with a 13.25 s uplink, and the answer
        certifies at 200 probes; the default t bound stops at 3.09 s, so the
        grid has no feasible point at 64 or at 256 points per axis."""
        td = TerminalDevice(
            task_bits=3525980.751369161, intensity=606.8648674690751,
            energy_coeff=3.548079037509411e-26, f_local_max=919807683.3502135,
            p_tx_max=1.8710133523970576, beta_min=0.9415872857018002,
            energy_budget=0.008775537760127234, channel_gain=1.188019741585188e-12,
            sem_k=3.9084914531597064, sem_p=0.5)
        cfg = SystemConfig(f_mec_total=7195767500.110891, sem_a=0.002642184485463475)
        solved = solve([td], cfg).objective_trace[-1]
        for resolution in (64, 256):
            grid_obj, _ = grid_optimum([td], cfg,
                                       GridSpec(resolution, default_grid_bounds([td], cfg)))
            assert solved <= grid_obj * (1 + 1e-3)


def _pinned_grids():
    rng = np.random.default_rng(5)
    for i in range(3):
        td, cfg = single_device_draw(rng)
        yield f"power_limited_{i}", (td,), cfg, 64
    rng = np.random.default_rng(6)
    for i in range(2):
        tds, cfg = multi_device_draw(rng, n=2)
        yield f"pair_{i}", tds, cfg, 32
    # draws from ROADMAP item 1's fuzz box (default_rng(99)) whose
    # peak-power upload does not fit the energy budget
    for i, (td, f_mec_total, sem_a) in enumerate([
            (TerminalDevice(task_bits=4048596.7140523563, intensity=123.4420343617482,
                            energy_coeff=8.797772840904383e-26, f_local_max=963263996.6527044,
                            p_tx_max=0.5487239002980396, beta_min=0.1180560187228379,
                            energy_budget=0.0627537632665171, channel_gain=6.177651300247233e-11,
                            sem_k=2.87009410220361, sem_p=0.5),
             23679710558.274834, 9.628120888978649e-06),
            (TerminalDevice(task_bits=1816688.875512408, intensity=52.281488153564965,
                            energy_coeff=5.0122173888118374e-27, f_local_max=1772103489.4183967,
                            p_tx_max=0.3101977902343936, beta_min=0.5091102737441108,
                            energy_budget=0.002573473856217692, channel_gain=4.796157636493483e-10,
                            sem_k=2.194622383538243, sem_p=1.5),
             10909687635.32127, 6.441848152667706e-05),
            (TerminalDevice(task_bits=2224955.441141846, intensity=183.58988501200616,
                            energy_coeff=1.4816971004554764e-26, f_local_max=934869811.231338,
                            p_tx_max=0.7129625285506895, beta_min=0.23129337769175415,
                            energy_budget=0.006664473436390878, channel_gain=1.129923583491907e-12,
                            sem_k=1.2758695288445523, sem_p=0.5),
             1382328822.2184424, 2.834767639942102e-06)]):
        yield f"energy_limited_{i}", (td,), SystemConfig(f_mec_total=f_mec_total, sem_a=sem_a), 64
    tds, cfg = multi_device_draw(np.random.default_rng(7), n=2)
    yield "pair_with_idle_device", (tds[0], replace(tds[1], task_bits=0.0)), cfg, 32


_GRID_PINS = {
    "power_limited_0": "0x1.a26e5d2f4e8e8p-3",
    "power_limited_1": "0x1.f6f83efb35c41p-3",
    "power_limited_2": "0x1.59d58670f0c02p-3",
    "pair_0": "0x1.9c23b181b3798p-3",
    "pair_1": "0x1.46c66372f90cbp-3",
    "energy_limited_0": "0x1.4b425768747e1p-4",
    "energy_limited_1": "0x1.91b557e5bb55ap-4",
    "energy_limited_2": "0x1.1c33f904d92afp-2",
    "pair_with_idle_device": "0x1.24eac52c40061p-2",
}


@pytest.mark.parametrize("tds,cfg,resolution,pin", [
    pytest.param(tds, cfg, resolution, _GRID_PINS[name], id=name)
    for name, tds, cfg, resolution in _pinned_grids()])
def test_grid_objective_stays_bit_identical(tds, cfg, resolution, pin):
    obj, alloc = grid_optimum(tds, cfg, GridSpec(resolution, default_grid_bounds(tds, cfg)))
    assert float(obj).hex() == pin
    assert alloc.t_epigraph == obj


# solve's answers to these draws of ROADMAP item 1's fuzz at 4 and 8 decades
# carry a device at an SNR low enough that log2(1 + x) rounds away more of
# the rate than the certificate's 1e-9 base tolerance
_LOW_SNR_DRAWS = {
    "four_decades": (
        [TerminalDevice(task_bits=95228188545.06824, intensity=0.02383038709907602,
                        energy_coeff=6.556994067379776e-29, f_local_max=86546276817.82654,
                        p_tx_max=14232.508833925198, beta_min=1.7194179509462638e-05,
                        energy_budget=6.55194818395876e-06, channel_gain=1.144205382673495e-09,
                        sem_k=4.95920679793627, sem_p=1.5),
         TerminalDevice(task_bits=817847.6903406616, intensity=0.6193819357425147,
                        energy_coeff=6.673267756863654e-23, f_local_max=53376150425.06899,
                        p_tx_max=0.0002392442935577857, beta_min=0.009893522220486051,
                        energy_budget=10.690924683531327, channel_gain=5.8600050730440945e-12,
                        sem_k=2.243236540807442, sem_p=0.5),
         TerminalDevice(task_bits=13358281.607777072, intensity=25989.096499721098,
                        energy_coeff=2.826158487593762e-23, f_local_max=1642200176.1193876,
                        p_tx_max=242.44806087978807, beta_min=1.527080750912651e-05,
                        energy_budget=6248.79617449224, channel_gain=1.2478223162967276e-14,
                        sem_k=3.27362941937737, sem_p=0.8)],
        SystemConfig(f_mec_total=10395316266888.84, sem_a=0.007691261634534012)),
    "eight_decades": (
        [TerminalDevice(task_bits=0.07291522001740686, intensity=1915.4106174085302,
                        energy_coeff=3.351767556178277e-19, f_local_max=65941910157.05021,
                        p_tx_max=44902995.99993228, beta_min=0.763905810124253,
                        energy_budget=5351.6921332986485, channel_gain=3.5493066387407188e-09,
                        sem_k=2.4025965029559027, sem_p=0.8),
         TerminalDevice(task_bits=59.7174039823959, intensity=108.87824186754635,
                        energy_coeff=8.085090237597013e-27, f_local_max=110061356696022.48,
                        p_tx_max=0.005942166544602538, beta_min=2.0798300358948437e-05,
                        energy_budget=5.078652513956248e-08, channel_gain=1.1917154516076763e-12,
                        sem_k=4.930723029765002, sem_p=0.5),
         TerminalDevice(task_bits=2851318138.4724646, intensity=13381.008860666989,
                        energy_coeff=1.3455391899012733e-31, f_local_max=855287536.166305,
                        p_tx_max=506.51166867513064, beta_min=7.781925051645661e-05,
                        energy_budget=2.7186104076851923e-06, channel_gain=2.9553851006575143e-08,
                        sem_k=3.000739789656576, sem_p=3.0)],
        SystemConfig(f_mec_total=333382723.34331214, sem_a=276.2875944734765)),
}


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

    @pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf])
    def test_step_must_be_finite_and_positive(self, reference_single, step):
        report = solve(reference_single.devices, reference_single.system)
        with pytest.raises(ValueError, match="^step must be finite and positive$"):
            perturbation_certify(report.allocation, reference_single.devices,
                                 reference_single.system, n_probes=10, step=step)

    def test_zero_probes_vacuous(self, reference_single):
        report = solve(reference_single.devices, reference_single.system)
        assert perturbation_certify(report.allocation, reference_single.devices,
                                    reference_single.system, n_probes=0, step=1e-3)

    @pytest.mark.parametrize("argument", ["n_probes", "seed"])
    @pytest.mark.parametrize("value", [-5, True, 2.5, math.nan, None])
    def test_counts_must_be_nonnegative_integers(self, reference_single, argument, value):
        # a negative or boolean count used to certify any allocation, and a
        # fractional one failed inside range() with a TypeError
        report = solve(reference_single.devices, reference_single.system)
        counts = {"n_probes": 10, "seed": 0, argument: value}
        with pytest.raises(ValueError, match=f"^{argument} must be a nonnegative integer$"):
            perturbation_certify(report.allocation, reference_single.devices,
                                 reference_single.system, step=1e-3, **counts)

    def test_numpy_integer_counts_accepted(self, reference_single):
        report = solve(reference_single.devices, reference_single.system)
        assert perturbation_certify(report.allocation, reference_single.devices,
                                    reference_single.system, n_probes=np.int64(20),
                                    step=1e-3, seed=np.uint32(3))

    def test_infeasible_input_rejected(self, reference_single):
        from semec import Allocation
        cfg = reference_single.system
        bad = Allocation([1e9], [2 * cfg.f_mec_total], [0.1], [0.1], [0.8], 1.0)
        with pytest.raises(ValueError):
            perturbation_certify(bad, reference_single.devices, cfg, n_probes=10, step=1e-3)

    @pytest.mark.parametrize("draw", _LOW_SNR_DRAWS.values(), ids=_LOW_SNR_DRAWS.keys())
    def test_solve_answer_at_low_snr_is_feasible(self, draw):
        tds, cfg = draw
        alloc = solve(tds, cfg).allocation
        assert isinstance(perturbation_certify(alloc, tds, cfg, n_probes=20, step=1e-3), bool)

    def test_large_n_few_probes_memory(self):
        # the probes are built and checked in bounded blocks, so two probes at
        # n = 20000 stay far below one dense (5n) direction per device; the
        # 68 probes of the whole structured family build no dense row for
        # the 64 that move one device each
        n = 20_000
        devices, cfg = multi_device_draw(np.random.default_rng(11), n)
        report = solve(devices, cfg)
        for n_probes in (2, 68):
            tracemalloc.start()
            try:
                assert perturbation_certify(report.allocation, devices, cfg,
                                            n_probes=n_probes, step=1e-3)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20

    def test_one_device_probe_decides(self):
        # device 4's (beta, t_transmit, e_transmit) scaled up by 1 % together:
        # the first improving probe is the one that scales them back down,
        # and the structured family alone already fails the allocation
        devices, cfg = multi_device_draw(np.random.default_rng(0), 10)
        alloc = solve(devices, cfg).allocation
        scale = np.ones(10)
        scale[4] = 1.01
        moved = replace(alloc, beta=alloc.beta * scale, t_transmit=alloc.t_transmit * scale,
                        e_transmit=alloc.e_transmit * scale)
        assert first_improving_probe(moved, devices, cfg, 200, 1e-3) == 4 + 2 * 4 + 1
        for n_probes in (24, 200):
            assert not perturbation_certify(moved, devices, cfg, n_probes=n_probes, step=1e-3)

    def test_one_direction_set_per_sweep(self, reference, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[:3])
            return _directions(*args)

        _sweep_directions.cache_clear()
        monkeypatch.setattr(oracle, "_directions", counted)
        report = solve(reference.devices, reference.system)
        for _ in range(2):
            assert perturbation_certify(report.allocation, reference.devices,
                                        reference.system, n_probes=200, step=1e-3, seed=5)
        assert calls == [(0, 200, 10)]
        _sweep_directions.cache_clear()

    def test_cached_directions_read_only(self, reference):
        _sweep_directions.cache_clear()
        report = solve(reference.devices, reference.system)
        assert perturbation_certify(report.allocation, reference.devices, reference.system,
                                    n_probes=200, step=1e-3, seed=5)
        cached = _sweep_directions(10, 200, 5)
        assert cached.flags.writeable is False
        assert cached.nbytes <= 8 * 2**14
        assert np.array_equal(cached, _directions(0, 200, 10, np.random.default_rng(5)))
        with pytest.raises(ValueError):
            cached[0, 0, 0] = 1.0
        _sweep_directions.cache_clear()

    @pytest.mark.parametrize("malform", ["length", "nan", "no_server_share"])
    def test_malformed_allocation_rejected(self, reference_single, malform):
        devices, cfg = reference_single.devices, reference_single.system
        alloc = solve(devices, cfg).allocation
        if malform == "length":
            devices = tuple(devices) * 2
        elif malform == "nan":
            alloc = replace(alloc, f_local=np.array([np.nan]))
        else:
            alloc = replace(alloc, f_remote=np.array([0.0]))
        with pytest.raises(ValueError):
            perturbation_certify(alloc, devices, cfg, n_probes=10, step=1e-3)


_VARIANTS = {
    "solved": lambda alloc, scale: alloc,
    "f_remote": lambda alloc, scale: replace(alloc, f_remote=alloc.f_remote * 0.99),
    "beta": lambda alloc, scale: replace(alloc, beta=alloc.beta * 1.02),
    "t_transmit": lambda alloc, scale: replace(alloc, t_transmit=alloc.t_transmit * 1.02),
    "one_device": lambda alloc, scale: replace(alloc, beta=alloc.beta * scale,
                                               t_transmit=alloc.t_transmit * scale,
                                               e_transmit=alloc.e_transmit * scale),
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
    (``beta`` x 1.02) perturbation of it, or one device's (``beta``,
    ``t_transmit``, ``e_transmit``) scaled together by 1 +- 0.01, which the
    probes that move that device alone may decide. The probe counts end
    inside the all-device probes, inside the one-device probes and among
    the isotropic draws.
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
    scale = np.ones(n)
    scale[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0.99, 1.01]))
    variant = _VARIANTS[draw(st.sampled_from(sorted(_VARIANTS)))]
    alloc = variant(solve(drawn, cfg).allocation, scale)
    n_probes = draw(st.sampled_from([2, 5, 40, 69, 200]))
    return alloc, drawn, cfg, n_probes, draw(st.integers(0, 2**16))


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

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gemxpm import (EnsembleParams, GradientSchedule, Grid, NumericalError,
                    PiecewiseConstant, ProtocolError, PulseSpec,
                    coupling_loss_rate, double_storage_run, phi_free_signal,
                    phi_stored_pair, scattering_consistency,
                    single_photon_estimate, xpm)
from gemxpm.gem import (Member, exit_phase, light_shift, peak_k_trajectory,
                        spatial_spectrum)
from gemxpm.xpm import (EXPERIMENT_GEOMETRY, HOLD_SAMPLES, TransitionData,
                         _simpson)

from _reference import CrossDrive, reference_march

TWO_PI = 2.0 * math.pi

# medium with negligible coupling-field scattering over a long hold
DOUBLE_PARAMS = EnsembleParams(coupling_density=4000.0, Delta=160.0,
                               DeltaPrime=160.0, OmegaC=8.0, OmegaCPrime=8.0)
DOUBLE_PROBE = PulseSpec(1.0, 2.5, 1.0)
DOUBLE_SIGNAL = PulseSpec(1.0, 6.0, 1.0)


def double_schedule(tau2=21.0, t_tail=13.0):
    return GradientSchedule(((0.0, 11.0, TWO_PI), (11.0, tau2, 0.0),
                             (tau2, tau2 + t_tail, -TWO_PI)))


class TestPhiFreeSignal:
    def test_zero_amplitude(self):
        assert phi_free_signal(0.0, 2.0, 3.0, 1.0) == 0.0

    def test_unit_point(self):
        # one-line independent oracle of the same closed form
        oracle = lambda o, d, tau, g: o * o * d * tau / (2 * (g * g + d * d))
        assert phi_free_signal(1.0, 1.0, 1.0, 1.0) == 0.25
        assert phi_free_signal(1.0, 1.0, 1.0, 1.0) == oracle(1, 1, 1, 1)

    def test_far_detuned_monotone_decreasing(self):
        phis = [phi_free_signal(1.0, d, 1.0, 1.0) for d in (1, 2, 5, 20, 100)]
        assert all(a > b for a, b in zip(phis, phis[1:]))
        assert phis[-1] == pytest.approx(1.0 / (2 * 100.0), rel=1e-3)

    def test_singular_input(self):
        with pytest.raises(ValueError):
            phi_free_signal(1.0, 0.0, 1.0, 0.0)


class TestPhiStoredPair:
    def test_zero_envelope(self):
        res = phi_stored_pair(np.zeros(64), 5.0, 1.0, 0.0, 1.0)
        assert res.phase == 0.0
        assert res.loss_factor == 1.0

    def test_constant_matches_closed_form(self):
        omega, delta, gamma, tau1, tau2 = 0.8, 12.0, 1.0, 3.0, 10.0
        res = phi_stored_pair(np.full(201, omega), delta, gamma, tau1, tau2)
        closed = (tau2 - tau1) * omega ** 2 * delta / (gamma ** 2 + delta ** 2)
        assert res.phase == pytest.approx(closed, rel=1e-10)

    def test_on_resonance_pure_loss(self):
        omega, gamma = 0.5, 1.0
        res = phi_stored_pair(np.full(129, omega), 0.0, gamma, 0.0, 4.0)
        assert res.phase == 0.0
        assert res.loss_factor == pytest.approx(
            math.exp(-4.0 * omega ** 2 / gamma), rel=1e-10)

    def test_requires_64_samples(self):
        with pytest.raises(ValueError):
            phi_stored_pair(np.ones(63), 1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            phi_stored_pair(np.ones(64), 1.0, 1.0, 1.0, 1.0)

    def test_factor_two_against_free_signal(self):
        # same rectangular drive, delta3 = delta4: the stored-pair form
        # carries exactly twice the free-signal form
        omega, delta, gamma, tau = 0.6, 7.0, 1.0, 5.0
        stored = phi_stored_pair(np.full(101, omega), delta, gamma, 0.0, tau)
        free = phi_free_signal(omega, delta, tau, gamma)
        assert stored.phase / free == pytest.approx(2.0, rel=1e-12)

    def test_simpson_matches_scipy(self):
        # the numpy port is scipy's simpson(y, x=s) bit for bit on the
        # uniform grids phi_stored_pair integrates over: odd and even
        # sample counts (the last-interval correction), several durations
        from scipy.integrate import simpson
        rng = np.random.default_rng(7)
        for n in [*range(HOLD_SAMPLES, HOLD_SAMPLES + 9), 97, 200, 513,
                  1024, 1999, 2000]:
            for T in (1e-3, 0.37, 4.0, 10.0, 283.0):
                s = np.linspace(0.0, T, n)
                for y in (rng.random(n), np.exp(-((s - T / 3) / T) ** 2)):
                    assert (np.float64(_simpson(y, s)).tobytes()
                            == np.float64(simpson(y, x=s)).tobytes())

    @given(st.integers(min_value=-2560, max_value=2560))
    def test_translation_invariance(self, shift64):
        # dyadic shifts keep tau2 - tau1 exactly representable, so the
        # translated call sees the identical duration
        shift = shift64 / 64.0
        env = 0.3 + 0.2 * np.sin(np.linspace(0, 7, 97))
        a = phi_stored_pair(env, 9.0, 1.0, 2.0, 6.0)
        b = phi_stored_pair(env, 9.0, 1.0, 2.0 + shift, 6.0 + shift)
        assert a.phase == b.phase
        assert a.loss_factor == b.loss_factor

    @given(st.floats(min_value=1.0, max_value=8.0),
           st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=30)
    def test_loss_monotone_in_intensity(self, scale, seed):
        rng = np.random.default_rng(seed)
        env = rng.uniform(0.0, 1.0, size=96)
        weak = phi_stored_pair(env, 3.0, 1.0, 0.0, 5.0)
        strong = phi_stored_pair(scale * env, 3.0, 1.0, 0.0, 5.0)
        assert strong.loss_factor <= weak.loss_factor + 1e-15
        assert 0.0 <= strong.loss_factor <= 1.0


class TestCouplingLossRate:
    def test_zero_coupling(self):
        assert coupling_loss_rate(0.0, 10.0, 1.0) == 0.0

    def test_reference_point(self):
        # OmegaCPrime = 20 gamma, DeltaPrime = 30 * 20 gamma
        rate = coupling_loss_rate(20.0, 600.0, 1.0)
        assert rate == pytest.approx(1.0 / 900.0, rel=1e-12)

    def test_detuning_scaling(self):
        assert coupling_loss_rate(5.0, 40.0, 1.0) == pytest.approx(
            coupling_loss_rate(5.0, 20.0, 1.0) / 4.0)

    def test_singular(self):
        with pytest.raises(ValueError):
            coupling_loss_rate(5.0, 0.0, 1.0)


class TestScatteringConsistency:
    def test_reference_numbers(self):
        assert scattering_consistency(0.07, 0.53) == pytest.approx(
            math.log(53.0 / 7.0), rel=1e-12)
        assert scattering_consistency(0.07, 0.53) == pytest.approx(2.02, abs=0.01)

    def test_equal_efficiencies(self):
        assert scattering_consistency(0.4, 0.4) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            scattering_consistency(0.6, 0.5)
        with pytest.raises(ValueError):
            scattering_consistency(0.0, 0.5)
        with pytest.raises(ValueError):
            scattering_consistency(0.5, 1.2)


class TestSinglePhotonEstimate:
    def test_experiment_like_geometry(self):
        est = single_photon_estimate(**EXPERIMENT_GEOMETRY)
        assert 1e-13 <= est.phase <= 1e-11

    def test_detuning_scaling(self):
        est = single_photon_estimate(**EXPERIMENT_GEOMETRY)
        smaller = dict(EXPERIMENT_GEOMETRY)
        smaller["delta"] = EXPERIMENT_GEOMETRY["delta"] / 100.0
        est2 = single_photon_estimate(**smaller)
        ratio = est2.phase / est.phase
        assert 90.0 < ratio < 100.0

    def test_zero_photon(self):
        est = single_photon_estimate(
            **EXPERIMENT_GEOMETRY,
            transition_data=TransitionData(dipole_moment=0.0))
        assert est.phase == 0.0

    def test_inputs_echoed(self):
        est = single_photon_estimate(**EXPERIMENT_GEOMETRY)
        assert est.beam_waist == EXPERIMENT_GEOMETRY["beam_waist"]
        assert est.mode_volume > 0
        assert est.single_photon_rabi > 0

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            single_photon_estimate(-1.0, 1e-5, 1e9, 1e7)

    def test_constants_equal_scipy(self):
        from scipy import constants
        from gemxpm import xpm
        assert (xpm._C_LIGHT, xpm._EPS0, xpm._HBAR) == (
            constants.c, constants.epsilon_0, constants.hbar)


DOUBLE_GRID = Grid(nz=256, nt=8192, t_max=34.0)


@pytest.fixture(scope="module")
def double_run():
    return double_storage_run(DOUBLE_PARAMS, DOUBLE_PROBE, DOUBLE_SIGNAL,
                              double_schedule(), DOUBLE_GRID)


class TestDoubleStorage:
    def test_zero_signal_zero_phase(self):
        grid = Grid(nz=128, nt=4096, t_max=34.0)
        res = double_storage_run(DOUBLE_PARAMS, DOUBLE_PROBE,
                                 PulseSpec(0.0, 6.0, 1.0),
                                 double_schedule(), grid)
        assert res.xpm.phase == pytest.approx(0.0, abs=1e-12)
        assert res.xpm.loss_factor == pytest.approx(1.0, abs=1e-12)

    def test_dt_limit_bounds_the_marched_members(self, double_run):
        # one rule for every march: the signal member's decay, the ramp
        # and the larger exchange, summed in that order.  The signal's
        # drive on the probe is applied by its factor and adds no rate
        p, L = DOUBLE_PARAMS, DOUBLE_GRID.L
        rate = (p.gamma0
                + coupling_loss_rate(p.OmegaCPrime, p.DeltaPrime, p.gamma)
                + double_schedule().max_abs_eta * L / 2.0
                + p.coupling_density
                * max(p.raman_ratio ** 2, p.raman_ratio_signal ** 2)
                * L / TWO_PI)
        assert double_run.dt_limit == 1.0 / rate

    def test_factor_path_against_cross_driven_march(self, monkeypatch):
        # the oracle marches the probe beside the signal and the reference
        # with the signal's |E|^2 on it in the right-hand side over the
        # hold's stage times.  At nz 32, nt 2048 the factor path's XPM
        # phase (3.347e-3 rad) read 5.60e-6 rad below the oracle's and its
        # exit field after recall 5.67e-6 of the oracle's peak from it
        # (1.04e-5 and 1.05e-5 at nt 1024, 9.2e-7 and 9.1e-7 at nt 4096:
        # the hold's edges, 11 and 21, are not grid times); the bounds
        # are about twice that.  Before recall the exit fields, and
        # kpeak_probe throughout, are the oracle's bit for bit
        grid = Grid(nz=32, nt=2048, t_max=34.0)
        p, schedule, recall = DOUBLE_PARAMS, double_schedule(), 21.0
        exits, result = [], xpm.storage_result

        def recorded(exit_field, *rest):   # the probe's, then the reference's
            exits.append(exit_field)
            return result(exit_field, *rest)

        monkeypatch.setattr(xpm, "storage_result", recorded)
        run = double_storage_run(p, DOUBLE_PROBE, DOUBLE_SIGNAL, schedule,
                                 grid)
        held = Member(DOUBLE_PROBE.envelope, p.raman_ratio,
                      p.coupling_density, decay=p.gamma0,
                      coupling=PiecewiseConstant(((0.0, 11.0, 1.0),
                                                  (11.0, 21.0, 0.0),
                                                  (21.0, 34.0, 1.0))))
        signal = Member(DOUBLE_SIGNAL.envelope, p.raman_ratio_signal,
                        p.coupling_density, eta_sign=-1.0,
                        decay=p.gamma0 + coupling_loss_rate(
                            p.OmegaCPrime, p.DeltaPrime, p.gamma))
        want, sigma, _ = reference_march(
            schedule, grid, [held, signal, held],
            CrossDrive(1, 0, (11.0, 21.0), *light_shift(p.gamma, p.delta4)))
        phase = exit_phase(grid, want[2], recall) - exit_phase(grid, want[0],
                                                               recall)
        assert abs(run.xpm.phase - phase) < 1.2e-5
        probe_exit, reference_exit = exits
        after = grid.t >= recall
        assert (np.max(np.abs(probe_exit[after] - want[0, after]))
                < 1.2e-5 * np.max(np.abs(want[0, after])))
        assert np.array_equal(probe_exit[~after], want[0, ~after])
        assert np.array_equal(reference_exit, want[2])
        for b, kpeak in ((0, run.kpeak_probe), (1, run.kpeak_signal)):
            assert np.array_equal(kpeak, peak_k_trajectory(
                *spatial_spectrum(sigma[:, b], grid)))

    def test_strong_signal_runs_at_the_undriven_step(self):
        # peak |g*E_s|^2 = 3600: marched in the right-hand side, the drive's
        # rates (c_loss + |c_shift|)*3600 = 92 took the step limit below dt
        # and the run was refused.  By its factor it adds no rate, and the
        # probe keeps 0.704 of its coherence (the quadrature's 0.686)
        grid = Grid(nz=64, nt=2048, t_max=34.0)
        weak, strong = (double_storage_run(DOUBLE_PARAMS, DOUBLE_PROBE,
                                           PulseSpec(amplitude, 6.0, 1.0),
                                           double_schedule(), grid)
                        for amplitude in (1.0, 60.0))
        assert strong.dt_limit == weak.dt_limit > grid.dt
        assert strong.reference_efficiency == weak.reference_efficiency
        quad = phi_stored_pair(strong.effective_signal_envelope,
                               DOUBLE_PARAMS.delta4, DOUBLE_PARAMS.gamma,
                               strong.tau1, strong.tau2)
        assert strong.xpm.loss_factor == pytest.approx(quad.loss_factor,
                                                       rel=0.05)

    def test_fluence_beyond_float_range_refused(self):
        # |g*E_s|^2 overflows: refused by name, with no warning raised
        with pytest.raises(NumericalError, match="beyond float range"):
            double_storage_run(DOUBLE_PARAMS, DOUBLE_PROBE,
                               PulseSpec(1e160, 6.0, 1.0), double_schedule(),
                               Grid(nz=32, nt=1024, t_max=34.0))

    def test_phase_against_quadrature(self, double_run):
        chk = phi_stored_pair(double_run.effective_signal_envelope,
                              DOUBLE_PARAMS.delta4, DOUBLE_PARAMS.gamma,
                              double_run.tau1, double_run.tau2)
        assert double_run.xpm.phase == pytest.approx(chk.phase, rel=0.10)

    def test_hold_doubling_doubles_phase(self, double_run):
        grid2 = Grid(nz=256, nt=10240, t_max=44.0)
        res2 = double_storage_run(DOUBLE_PARAMS, DOUBLE_PROBE, DOUBLE_SIGNAL,
                                  double_schedule(tau2=31.0), grid2)
        ratio = res2.xpm.phase / double_run.xpm.phase
        assert ratio == pytest.approx(2.0, rel=0.05)

    def test_k_trajectories(self, double_run):
        kp, ks = double_run.kpeak_probe, double_run.kpeak_signal
        t = DOUBLE_GRID.t
        both_stored = (t >= 8.0) & (t <= 10.5)
        slope_p = np.polyfit(t[both_stored], kp[both_stored], 1)[0]
        slope_s = np.polyfit(t[both_stored], ks[both_stored], 1)[0]
        assert slope_p * slope_s < 0
        hold = (t >= 11.5) & (t <= 20.5)
        assert kp[hold].max() == kp[hold].min()
        assert ks[hold].max() == ks[hold].min()

    def test_protocol_violations_rejected(self):
        grid = Grid(nz=64, nt=2048, t_max=34.0)
        no_hold = GradientSchedule(((0.0, 21.0, TWO_PI), (21.0, 34.0, -TWO_PI)))
        with pytest.raises(ProtocolError, match="required pattern"):
            double_storage_run(DOUBLE_PARAMS, DOUBLE_PROBE, DOUBLE_SIGNAL,
                               no_hold, grid)
        with pytest.raises(ProtocolError):
            # probe after signal
            double_storage_run(DOUBLE_PARAMS, PulseSpec(1.0, 7.0, 1.0),
                               DOUBLE_SIGNAL, double_schedule(), grid)
        with pytest.raises(ProtocolError):
            # signal not stored before the hold
            double_storage_run(DOUBLE_PARAMS, DOUBLE_PROBE,
                               PulseSpec(1.0, 10.5, 1.0), double_schedule(),
                               grid)

    @pytest.mark.parametrize("t_max, hold", [(20.0, (11.0, 21.0)),
                                             (21.0, (11.0, 21.0)),
                                             (34.0, (0.0, 10.0))],
                             ids=["past_t_max", "at_t_max", "at_zero"])
    def test_hold_must_lie_inside_the_window(self, t_max, hold):
        # the probe's coupling is on over [0, tau1] and [tau2, t_max]: a
        # hold that starts at t = 0, or ends at or past t_max, leaves one
        # of them empty or reversed.  Both pulses enter at tau1 at latest
        tau1, tau2 = hold
        sched = GradientSchedule(((tau1 - 11.0, tau1, TWO_PI),
                                  (tau1, tau2, 0.0), (tau2, 80.0, -TWO_PI)))
        probe = PulseSpec(1.0, tau1 - 2.0, 1.0)
        signal = PulseSpec(1.0, tau1 - 1.0, 0.5)
        with pytest.raises(ProtocolError, match="must lie inside"):
            double_storage_run(DOUBLE_PARAMS, probe, signal, sched,
                               Grid(nz=32, nt=2048, t_max=t_max))

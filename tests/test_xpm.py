import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gemxpm import (EnsembleParams, GradientSchedule, Grid, ProtocolError,
                    PulseSpec, coupling_loss_rate, double_storage_run,
                    phi_free_signal, phi_stored_pair, scattering_consistency,
                    single_photon_estimate)
from gemxpm.gem import check_step, light_shift
from gemxpm.xpm import EXPERIMENT_GEOMETRY, TransitionData

TWO_PI = 2.0 * math.pi

# medium with negligible coupling-field scattering over a long hold
DOUBLE_PARAMS = EnsembleParams(calN=4000.0, Delta=160.0, DeltaPrime=160.0,
                               OmegaC=8.0, OmegaCPrime=8.0)
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


DOUBLE_GRID = Grid(nz=256, nt=8192, t_max=34.0, L=DOUBLE_PARAMS.L)


@pytest.fixture(scope="module")
def double_run():
    return double_storage_run(DOUBLE_PARAMS, DOUBLE_PROBE, DOUBLE_SIGNAL,
                              double_schedule(), DOUBLE_GRID)


class TestDoubleStorage:
    def test_zero_signal_zero_phase(self):
        grid = Grid(nz=128, nt=4096, t_max=34.0, L=DOUBLE_PARAMS.L)
        res = double_storage_run(DOUBLE_PARAMS, DOUBLE_PROBE,
                                 PulseSpec(0.0, 6.0, 1.0),
                                 double_schedule(), grid)
        assert res.xpm.phase == pytest.approx(0.0, abs=1e-12)
        assert res.xpm.loss_factor == pytest.approx(1.0, abs=1e-12)

    def test_dt_limit_bounds_the_cross_drive(self, double_run):
        # one rule for every drive: check_step adds the cross drive's
        # peak loss and peak |shift|, the signal's input peak intensity
        # times the light-shift pair at delta4
        p = DOUBLE_PARAMS
        c_shift, c_loss = light_shift(p.gamma, p.delta4)
        peak = DOUBLE_SIGNAL.peak_amplitude ** 2
        assert double_run.dt_limit == check_step(
            p, double_schedule(), DOUBLE_GRID,
            max(p.raman_ratio, p.raman_ratio_signal),
            coupling_loss_rate(p.OmegaCPrime, p.DeltaPrime, p.gamma),
            c_loss * peak, abs(c_shift) * peak)

    def test_phase_against_quadrature(self, double_run):
        chk = phi_stored_pair(double_run.effective_signal_envelope,
                              DOUBLE_PARAMS.delta4, DOUBLE_PARAMS.gamma,
                              double_run.tau1, double_run.tau2)
        assert double_run.xpm.phase == pytest.approx(chk.phase, rel=0.10)

    def test_hold_doubling_doubles_phase(self, double_run):
        grid2 = Grid(nz=256, nt=10240, t_max=44.0, L=DOUBLE_PARAMS.L)
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
        grid = Grid(nz=64, nt=2048, t_max=34.0, L=DOUBLE_PARAMS.L)
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

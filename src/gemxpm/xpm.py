"""Cross-phase-modulation calculators and protocol drivers.

Closed forms and quadratures for the ac-Stark phase and loss, the
single-photon order-of-magnitude estimate, and the double-storage protocol
in which probe and signal are held simultaneously in the memory.  Probe-
and signal-amplitude scans are sweep configs (``experiment: sweep``), run
by the command line like any other config.

Phase sign convention: reported XPM phases are positive for positive
detuning and equal the time integral of the light shift, i.e.
(reference echo phase) - (with-signal echo phase) for solver-based phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ProtocolError
from .gem import (CrossDrive, Member, check_step, check_window, light_shift,
                  march, peak_k_trajectory, spatial_spectrum, storage_result)
from .model import (EnsembleParams, GradientSchedule, Grid, PiecewiseConstant,
                    PulseSpec)

# CODATA 2022 values (SI), equal to scipy.constants; literal so that
# importing the package does not import scipy.
_C_LIGHT = 299792458.0
_EPS0 = 8.8541878188e-12
_HBAR = 1.0545718176461565e-34
#: Samples of g*|E_s| on the hold window phi_stored_pair needs.
HOLD_SAMPLES = 64


@dataclass(frozen=True)
class XpmResult:
    """Phase and surviving-amplitude fraction of a stored coherence."""

    phase: float              # radians
    loss_factor: float        # amplitude fraction in [0, 1]
    interaction_time: float   # units of 1/gamma


def phi_free_signal(Omega_s: float, delta3: float, tau: float,
                    gamma: float) -> float:
    """Phase imprinted by a free-propagating signal of Rabi frequency
    Omega_s and duration tau:  Omega_s^2 * delta3 * tau / (2*(gamma^2 + delta3^2))."""
    denom = gamma * gamma + delta3 * delta3
    if denom == 0.0:
        raise ValueError("gamma and delta3 cannot both vanish")
    return Omega_s ** 2 * delta3 * tau / (2.0 * denom)


def phi_stored_pair(signal_envelope: Sequence[float], delta4: float,
                    gamma: float, tau1: float, tau2: float) -> XpmResult:
    """Phase and loss of a stored coherence driven by a stored signal.

    ``signal_envelope`` samples g*|E_s| uniformly on [tau1, tau2] (at least
    HOLD_SAMPLES points).  The phase is the composite-Simpson quadrature of
    |g*E_s|^2 * delta4 / (gamma^2 + delta4^2); the loss factor is
    exp(-integral of |g*E_s|^2 * gamma / (gamma^2 + delta4^2)).
    """
    if not tau2 > tau1:
        raise ValueError(f"tau2 must exceed tau1, got ({tau1}, {tau2})")
    env = np.asarray(signal_envelope, dtype=float)
    if env.ndim != 1 or env.size < HOLD_SAMPLES:
        raise ValueError(
            f"envelope must be sampled at >= {HOLD_SAMPLES} points on "
            f"[tau1, tau2], got {env.size}")
    denom = gamma * gamma + delta4 * delta4
    if denom == 0.0:
        raise ValueError("gamma and delta4 cannot both vanish")
    from scipy.integrate import simpson
    # integrate over elapsed time so the result depends on tau1, tau2 only
    # through the duration (manifest translation invariance)
    s = np.linspace(0.0, tau2 - tau1, env.size)
    intensity = env * env
    integral = float(simpson(intensity, x=s))
    phase = integral * delta4 / denom
    loss_exp = integral * gamma / denom
    return XpmResult(phase=phase, loss_factor=math.exp(-loss_exp),
                     interaction_time=tau2 - tau1)


def coupling_loss_rate(OmegaCPrime: float, DeltaPrime: float,
                       gamma: float) -> float:
    """Scattering rate gamma*(OmegaCPrime/DeltaPrime)^2 of a coherence whose
    coupling field is left on."""
    if DeltaPrime == 0.0:
        raise ValueError("DeltaPrime must be nonzero")
    return gamma * (OmegaCPrime / DeltaPrime) ** 2


def scattering_consistency(eff_with: float, eff_without: float) -> float:
    """Implied integrated scattering exponent -ln(eff_with / eff_without).

    Both efficiencies are intensity-like, so the returned exponent is in
    the intensity convention (twice the amplitude exponent).
    """
    if not (0.0 < eff_with <= eff_without <= 1.0):
        raise ValueError(
            f"need 0 < eff_with <= eff_without <= 1, got "
            f"({eff_with}, {eff_without})")
    return -math.log(eff_with / eff_without)


@dataclass(frozen=True)
class TransitionData:
    """Dipole parameters of the signal transition (SI units).

    Defaults are alkali D2-line scale (Rb): effective dipole moment and
    wavelength; both are stated assumptions, not fitted values.
    """

    dipole_moment: float = 2.537e-29   # C m
    wavelength: float = 780.241e-9     # m


#: Documented experiment-like geometry for the single-photon estimate:
#: cm-scale beam, ~10 us pulse, ~2 GHz signal detuning, MHz-scale gamma.
EXPERIMENT_GEOMETRY = {
    "beam_waist": 5.0e-3,                 # m
    "pulse_duration": 1.0e-5,             # s
    "delta": 2.0 * math.pi * 2.0e9,       # rad/s
    "gamma": 2.0 * math.pi * 3.03e6,      # rad/s
}


@dataclass(frozen=True)
class SinglePhotonEstimate:
    """Single-photon XPM estimate with the inputs echoed."""

    phase: float                 # radians
    single_photon_rabi: float    # rad/s
    mode_volume: float           # m^3
    beam_waist: float
    pulse_duration: float
    delta: float
    gamma: float
    transition: TransitionData


def single_photon_estimate(beam_waist: float, pulse_duration: float,
                           delta: float, gamma: float,
                           transition_data: Optional[TransitionData] = None
                           ) -> SinglePhotonEstimate:
    """Order-of-magnitude phase for signal and probe at the photon level.

    The single-photon Rabi frequency follows from the field per photon in
    the travelling mode volume V = (pi*w0^2/2) * c * tau, and the phase is
    the free-signal closed form evaluated at that Rabi frequency.  All
    arguments are SI (meters, seconds, rad/s).
    """
    if beam_waist <= 0 or pulse_duration <= 0:
        raise ValueError("beam geometry must be positive")
    tr = transition_data if transition_data is not None else TransitionData()
    area = math.pi * beam_waist ** 2 / 2.0
    volume = area * _C_LIGHT * pulse_duration
    omega_opt = 2.0 * math.pi * _C_LIGHT / tr.wavelength
    field_per_photon = math.sqrt(_HBAR * omega_opt / (2.0 * _EPS0 * volume))
    rabi = tr.dipole_moment * field_per_photon / _HBAR
    phase = phi_free_signal(rabi, delta, pulse_duration, gamma)
    return SinglePhotonEstimate(phase=phase, single_photon_rabi=rabi,
                                mode_volume=volume, beam_waist=beam_waist,
                                pulse_duration=pulse_duration, delta=delta,
                                gamma=gamma, transition=tr)


@dataclass(frozen=True)
class DoubleStorageResult:
    """Outcome of the two-polariton hold protocol.

    ``xpm`` carries the recalled-probe phase (against the signal-free
    reference) and the coherence amplitude surviving the hold.  The k-t
    trajectories are the peak-|sigma(k)| k of each coherence per grid
    time.  dt_limit is the march's stability limit on dt from check_step.
    """

    xpm: XpmResult
    kpeak_probe: np.ndarray      # (nt,)
    kpeak_signal: np.ndarray     # (nt,)
    probe_efficiency: float
    reference_efficiency: float
    tau1: float
    tau2: float
    effective_signal_envelope: np.ndarray   # g|E_s| weighted over the probe
    dt_limit: float


def _require(cond: bool, why: str) -> None:
    if not cond:
        raise ProtocolError(
            f"{why}; required pattern: write gradient of one sign with both "
            "pulses mapped in, eta = 0 hold on [tau1, tau2] with the probe "
            "coupling off and the signal coupling on, then an opposite-sign "
            "recall gradient")


def check_protocol(probe: PulseSpec, signal: PulseSpec,
                   schedule: GradientSchedule, t_max: float
                   ) -> Tuple[float, Tuple[float, float]]:
    """(recall flip, hold (tau1, tau2)) of a double-storage run on
    [0, t_max]; ValueError from ``check_window``, or ProtocolError when
    the schedule and pulses do not follow the protocol."""
    flip = check_window(probe, schedule, t_max)
    hold = schedule.hold_window()
    _require(hold is not None, "schedule has no eta = 0 hold segment")
    tau1, tau2 = hold
    _require(flip is not None, "schedule has no recall sign flip")
    _require(flip >= tau2 - 1e-12, "recall must not precede the hold")
    _require(probe.center_time < signal.center_time,
             "probe must precede the signal")
    _require(signal.center_time + 2.0 * signal.duration <= tau1,
             "signal pulse must be stored before the hold starts")
    _require(probe.center_time + 2.0 * probe.duration <= tau1,
             "probe pulse must be stored before the hold starts")
    return flip, hold


def double_storage_run(params: EnsembleParams, probe: PulseSpec,
                       signal: PulseSpec, schedule: GradientSchedule,
                       grid: Grid) -> DoubleStorageResult:
    """Simulate probe and signal coherences held simultaneously in the cell.

    The probe coherence evolves under the storage equations with its
    coupling field off during the hold; the signal coherence evolves under
    the opposite-signed gradient with its coupling left on (and the
    corresponding coupling scattering rate).  During the hold the signal's
    photonic component, reconstructed by the same slaved-field march, acts
    on the probe coherence as a local ac-Stark drive with detuning delta4.

    Returns the recalled-probe phase relative to a signal-free reference
    run, the surviving coherence fraction, and the k-t trajectories of
    both coherences, reduced from the rows the march hands out.
    """
    flip, (tau1, tau2) = check_protocol(probe, signal, schedule, grid.t_max)

    sig_loss = coupling_loss_rate(params.OmegaCPrime, params.DeltaPrime,
                                  params.gamma)
    probe_coupling = PiecewiseConstant((
        (0.0, tau1, 1.0), (tau1, tau2, 0.0), (tau2, grid.t_max, 1.0)))
    # the signal's field drives the probe over the hold, its intensity
    # bounded by the signal input's peak
    cross = CrossDrive(1, 0, (tau1, tau2), signal.peak_amplitude ** 2,
                       *light_shift(params.gamma, params.delta4))

    # Both coherences see the gradient ramp; the probe also sees the drive.
    dt_limit = check_step(
        params, schedule, grid,
        max(params.raman_ratio, params.raman_ratio_signal), sig_loss,
        *cross.rates)

    # probe, signal (opposite gradient, coupling on) and the reference,
    # which is the probe without the signal's drive, reduced row by row
    i2 = max(int(np.searchsorted(grid.t, tau2, side="right")) - 1, 0)
    hold = (grid.t >= tau1) & (grid.t <= tau2)
    kpeak, intensity, norms = np.empty((2, grid.nt)), np.empty(grid.nt), {}

    def reduce(n0, sigma, field):
        rows = slice(n0, n0 + len(sigma))
        for b in (0, 1):   # probe and signal
            kpeak[b, rows] = peak_k_trajectory(
                *spatial_spectrum(sigma[:, b], grid))
        if n0 <= i2 < rows.stop:   # norms[0] probe, norms[1] reference
            norms.update(enumerate(map(np.linalg.norm, sigma[i2 - n0, ::2])))
        # |sigma_ref|^2-weighted |E_signal|^2 over the hold
        w = np.abs(sigma[hold[rows], 2]) ** 2
        intensity[rows][hold[rows]] = ((w * np.abs(field[hold[rows], 1]) ** 2)
                                       .sum(axis=1)
                                       / np.maximum(w.sum(axis=1), 1e-300))

    held = Member(probe.envelope, params.raman_ratio, coupling=probe_coupling)
    probe_exit, _, reference_exit = march(
        params, schedule, grid,
        [held, Member(signal.envelope, params.raman_ratio_signal,
                      eta_sign=-1.0, extra_decay=sig_loss), held], cross,
        on_block=reduce)
    probe_result = storage_result(probe_exit, grid, probe.envelope, flip)
    reference = storage_result(reference_exit, grid, probe.envelope, flip)
    loss_factor = (min(float(norms[0] / norms[1]), 1.0) if norms[1] > 0
                   else math.nan)

    return DoubleStorageResult(
        xpm=XpmResult(phase=reference.echo_phase - probe_result.echo_phase,
                      loss_factor=loss_factor, interaction_time=tau2 - tau1),
        kpeak_probe=kpeak[0], kpeak_signal=kpeak[1],
        probe_efficiency=probe_result.efficiency,
        reference_efficiency=reference.efficiency, tau1=tau1, tau2=tau2,
        effective_signal_envelope=np.sqrt(intensity[hold]), dt_limit=dt_limit)

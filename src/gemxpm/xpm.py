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

from .errors import NumericalError, ProtocolError
from .gem import (Member, check_step, check_window, light_shift, march,
                  peak_k_trajectory, spatial_spectrum, storage_result)
from .model import (EnsembleParams, GradientSchedule, Grid, PiecewiseConstant,
                    PulseSpec)

# CODATA 2022 values (SI), equal to scipy.constants; literal so that
# importing the package does not import scipy.
_C_LIGHT = 299792458.0
_EPS0 = 8.8541878188e-12
_HBAR = 1.0545718176461565e-34
#: Grid times a hold spans at least: its resolution in time for the
#: signal's fluence, and phi_stored_pair's samples of g*|E_s|.
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
    Omega_s and duration tau:  Omega_s^2 * tau * c_shift / 2, c_shift =
    delta3 / (gamma^2 + delta3^2) from ``light_shift``; NumericalError
    when it is beyond float range, as at the light shift c_shift = inf of
    subnormal gamma and delta3."""
    c_shift = light_shift(gamma, delta3)[0]
    phi = 0.5 * Omega_s ** 2 * tau * c_shift
    if not math.isfinite(phi):
        raise NumericalError(
            f"the phase of Omega_s {Omega_s:.6g} over tau {tau:.6g} at the "
            f"light shift c_shift {c_shift:.6g} (gamma {gamma:.6g}, delta3 "
            f"{delta3:.6g}) is beyond float range")
    return phi


def phi_stored_pair(signal_envelope: Sequence[float], delta4: float,
                    gamma: float, tau1: float, tau2: float) -> XpmResult:
    """Phase and loss of a stored coherence driven by a stored signal.

    ``signal_envelope`` samples g*|E_s| uniformly on [tau1, tau2] (at least
    HOLD_SAMPLES points).  The phase is the trapezoid quadrature of
    |g*E_s|^2 (the rule of double_storage_run's fluence) times c_shift, the
    loss factor exp(-integral * c_loss), with (c_shift, c_loss) =
    light_shift(gamma, delta4).
    """
    if not tau2 > tau1:
        raise ValueError(f"tau2 must exceed tau1, got ({tau1}, {tau2})")
    env = np.asarray(signal_envelope, dtype=float)
    if env.ndim != 1 or env.size < HOLD_SAMPLES:
        raise ValueError(
            f"envelope must be sampled at >= {HOLD_SAMPLES} points on "
            f"[tau1, tau2], got {env.size}")
    c_shift, c_loss = light_shift(gamma, delta4)
    # integrate over elapsed time so the result depends on tau1, tau2 only
    # through the duration (manifest translation invariance)
    integral = float(np.trapezoid(env * env,
                                  np.linspace(0.0, tau2 - tau1, env.size)))
    return XpmResult(phase=integral * c_shift,
                     loss_factor=math.exp(-integral * c_loss),
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
    reference) and the coherence amplitude surviving the hold.
    ``quadrature`` is the semi-classical estimate: phase c_shift*F and
    loss factor exp(-c_loss*F), F the hold's fluence of |g*E_s|^2 averaged
    over z with the held probe's |sigma|^2.  The k-t
    trajectories are the peak-|sigma(k)| k of each coherence per grid
    time.  dt_limit is the march's stability limit on dt from check_step.
    """

    xpm: XpmResult
    quadrature: XpmResult
    kpeak_probe: np.ndarray      # (nt,)
    kpeak_signal: np.ndarray     # (nt,)
    probe_efficiency: float
    reference_efficiency: float
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
    """(recall, hold (tau1, tau2)) of a double-storage run on [0, t_max],
    recall from ``check_window`` and the eta = 0 hold inside (0, t_max);
    ValueError from ``check_window``, or ProtocolError when the schedule
    and pulses do not follow the protocol."""
    recall = check_window(probe, schedule, t_max)
    hold = schedule.hold_window()
    _require(hold is not None, "schedule has no eta = 0 hold segment")
    tau1, tau2 = hold
    _require(0.0 < tau1 and tau2 < t_max,
             f"hold [{tau1}, {tau2}] must lie inside (0, t_max = {t_max})")
    _require(schedule.flip_time() is not None,
             "schedule has no recall sign flip")
    _require(recall >= tau2 - 1e-12, "recall must not precede the hold")
    _require(probe.center_time < signal.center_time,
             "probe must precede the signal")
    _require(signal.center_time + 2.0 * signal.duration <= tau1,
             "signal pulse must be stored before the hold starts")
    _require(probe.center_time + 2.0 * probe.duration <= tau1,
             "probe pulse must be stored before the hold starts")
    return recall, hold


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
    With the probe's coupling off, the held probe is the signal-free
    reference times exp(-(c_loss + i*c_shift)*F(z)), F(z) the trapezoid
    fluence of |E_signal(z, t)|^2 over the hold's grid rows (integrating
    factor).  So the reference and the signal march together, and the
    probe alone from i2, the last grid row at or before tau2.  check_step
    bounds dt for the members marched.

    Returns the recalled-probe phase relative to the reference, the
    surviving coherence fraction, the stored-pair quadrature and the k-t
    trajectories of both coherences, reduced from the rows the marches
    hand out; NumericalError when the factor is beyond float range.  The
    quadrature averages F(z) at i2 with row j1's |sigma_ref|^2: with the
    coupling off and eta = 0, every hold row has these weights.
    """
    recall, (tau1, tau2) = check_protocol(probe, signal, schedule, grid.t_max)
    # the reference (the probe undriven) and the signal (opposite
    # gradient, coupling on)
    held = Member(probe.envelope, params.raman_ratio, params.coupling_density,
                  coupling=PiecewiseConstant(((0.0, tau1, 1.0),
                                              (tau1, tau2, 0.0),
                                              (tau2, grid.t_max, 1.0))),
                  decay=params.gamma0)
    sig_loss = coupling_loss_rate(params.OmegaCPrime, params.DeltaPrime,
                                  params.gamma)
    members = [held, Member(signal.envelope, params.raman_ratio_signal,
                            params.coupling_density, eta_sign=-1.0,
                            decay=params.gamma0 + sig_loss)]
    dt_limit = check_step(schedule, grid, members)
    c_shift, c_loss = light_shift(params.gamma, params.delta4)

    j1 = int(np.searchsorted(grid.t, tau1))   # the hold's rows: j1..i2
    i2 = max(int(np.searchsorted(grid.t, tau2, side="right")) - 1, 0)
    kpeak = np.empty((2, grid.nt))
    # the sum of |E_signal|^2 over the hold's rows so far and its first
    # row (the trapezoid fluence); the probe's and reference's rows at i2;
    # the reference's |sigma|^2 on row j1 and the fluence at i2 averaged
    # over z with it
    drive_sum, first_drive, ends = 0.0, None, None
    weight, mean_fluence = None, 0.0

    def probe_rows(n0, sigma, field):
        # the probe's rows n0, ...: the reference's, times the factor over
        # the hold's rows
        nonlocal drive_sum, first_drive, weight, mean_fluence
        lo, hi = (min(max(row - n0, 0), len(sigma)) for row in (j1, i2 + 1))
        rows = sigma[:, 0]
        if lo >= hi:
            return rows
        with np.errstate(over="ignore", invalid="ignore"):
            drive = np.abs(field[lo:hi, 1]) ** 2
            if first_drive is None:
                first_drive, weight = drive[0], np.abs(sigma[lo, 0]) ** 2
            fluence = np.cumsum(drive, axis=0)
            fluence += drive_sum
            drive_sum = fluence[-1].copy()
            fluence -= 0.5 * (first_drive + drive)
            factor = complex(-c_loss, -c_shift) * grid.dt * fluence
            np.exp(factor, out=factor)
        if not np.all(np.isfinite(factor.view(float))):
            raise NumericalError("the signal's fluence over the hold, or "
                                 "its factor, is beyond float range")
        if n0 + hi == i2 + 1:
            mean_fluence = float((weight * (grid.dt * fluence[-1])).sum()
                                 / max(weight.sum(), 1e-300))
        rows = rows.copy()
        rows[lo:hi] *= factor
        return rows

    def peaks(b, n0, rows):
        kpeak[b, n0:n0 + len(rows)] = peak_k_trajectory(
            *spatial_spectrum(rows, grid))

    def reduce(n0, sigma, field):
        nonlocal ends
        peaks(1, n0, sigma[:, 1])
        rows = probe_rows(n0, sigma, field)
        peaks(0, n0, rows[:max(i2 - n0, 0)])   # the probe march has i2 on
        if n0 <= i2 < n0 + len(sigma):
            ends = rows[i2 - n0].copy(), sigma[i2 - n0, 0].copy()

    reference_exit, _ = march(schedule, grid, members, on_block=reduce)
    (probe_tail,) = march(schedule, grid, [held], (i2, ends[0][None]),
                          lambda n0, sigma, _: peaks(0, n0, sigma[:, 0]))
    probe_exit = np.concatenate((reference_exit[:i2], probe_tail))
    probe_result = storage_result(probe_exit, grid, probe.envelope, recall)
    reference = storage_result(reference_exit, grid, probe.envelope, recall)
    norm, reference_norm = map(np.linalg.norm, ends)
    loss_factor = (min(float(norm / reference_norm), 1.0)
                   if reference_norm > 0 else math.nan)

    return DoubleStorageResult(
        xpm=XpmResult(phase=reference.echo_phase - probe_result.echo_phase,
                      loss_factor=loss_factor, interaction_time=tau2 - tau1),
        quadrature=XpmResult(phase=c_shift * mean_fluence,
                             loss_factor=math.exp(-c_loss * mean_fluence),
                             interaction_time=tau2 - tau1),
        kpeak_probe=kpeak[0], kpeak_signal=kpeak[1],
        probe_efficiency=probe_result.efficiency,
        reference_efficiency=reference.efficiency, dt_limit=dt_limit)

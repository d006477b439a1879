"""Semiclassical 1-D Maxwell-Bloch solver for gradient-echo storage.

The model is the adiabatically eliminated two-field pair

    d(sigma)/dt = -[gamma0 + (c_loss + i*c_shift)*I(z,t) + i*eta(t)*(z - L/2)]*sigma
                  + i*(OmegaC/Delta)*E,
    dE/dz       = i*(g*calN)*(OmegaC/Delta)*sigma,

where E = g*script-E is the probe Rabi envelope and sigma the collective
spin coherence.  The field is slaved: at every Runge-Kutta stage it is
marched along z from the boundary value (instantaneous-field limit); one
stepper, ``march``, advances a stack of such coherences in t by classic
RK4 steps.  The gradient is centred on the cell (eta*(z - L/2)).  A drive
is an intensity I = |g*E_s|^2 (0 without one) and the ``light_shift`` pair
(c_shift, c_loss) of its detuning: I(t) of a signal filling the cell for a
``StarkDrive``, another member's |E|^2 for a ``CrossDrive``.  Both bound
dt by one rule, their ``rates`` (c_loss, |c_shift|) times peak intensity.

Sign conventions worth knowing when reading diagnostics:

* the spatial Fourier transform uses the exp(-i*k*z) kernel, which makes
  the quasi-steady Maxwell relation read  k*E(k) = +g*calN*(OmegaC/Delta)*sigma(k);
* with that kernel and the equations above, the stored polariton's k peak
  moves at rate -eta(t) (the drift magnitude is |eta|; the sign is fixed by
  the transform convention and cannot be chosen independently of the
  Maxwell-relation sign).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import NumericalError, StabilityError
from .model import (EnsembleParams, GradientSchedule, Grid, PiecewiseConstant,
                    PulseSpec)

_NAN_CHECK_STRIDE = 64


def light_shift(gamma: float, detuning: float) -> Tuple[float, float]:
    """(c_shift, c_loss) = (detuning, gamma) / (gamma^2 + detuning^2): an
    intensity I = |g*E_s|^2 at ``detuning`` shifts a stored coherence by
    c_shift*I and scatters its amplitude at c_loss*I."""
    denom = gamma * gamma + detuning * detuning
    if denom == 0.0:
        raise ValueError("gamma and detuning cannot both vanish")
    return detuning / denom, gamma / denom


class _LightShiftRates:
    @property
    def rates(self) -> Tuple[float, float]:
        """(loss, |shift|) at the peak intensity, for check_step."""
        return self.c_loss * self.peak, abs(self.c_shift) * self.peak


@dataclass(frozen=True)
class StarkDrive(_LightShiftRates):
    """Space-uniform ac-Stark drive produced by a far-detuned signal field:
    the vectorised intensity I(t) = |g*E_s(t)|^2, at most ``peak``, shifts
    the spin coherence by c_shift*I(t) and scatters it at c_loss*I(t)
    (the ``light_shift`` pair)."""

    intensity: Callable[[np.ndarray], np.ndarray]
    peak: float
    c_shift: float
    c_loss: float


def apply_stark_drive(signal: PulseSpec, params: EnsembleParams,
                      detuning: float) -> StarkDrive:
    """Reduce a counter-propagating signal pulse to its ac-Stark drive.

    The signal illuminates the whole cell, so the drive carries no z
    dependence.  ``detuning`` is the signal's: params.delta3 for the
    free-propagating signal transition, params.delta4 for the stored-pair
    geometry.
    """
    return StarkDrive(lambda t: np.abs(signal.envelope(t)) ** 2,
                      signal.peak_amplitude ** 2,
                      *light_shift(params.gamma, float(detuning)))


def constant_stark_drive(intensity: float, detuning: float, gamma: float,
                         window: Tuple[float, float]) -> StarkDrive:
    """Rectangular drive with |g*E_s|^2 = intensity inside ``window``."""
    lo, hi = window
    return StarkDrive(lambda t: intensity * ((t >= lo) & (t < hi)),
                      intensity, *light_shift(gamma, detuning))


def _slaved_field(sigma: np.ndarray, dz: float, source: np.ndarray,
                  boundary: np.ndarray, out: Optional[np.ndarray] = None,
                  cum: Optional[np.ndarray] = None) -> np.ndarray:
    """E(z) = E(0) + source * (trapezoid integral of sigma over [0, z]); the
    march and CoherenceRecord.field both call it, so they agree bit for bit.

    ``out`` and ``cum`` (column 0 zero) are C-ordered buffers shaped like
    sigma, allocated here unless the march passes its own.  The pairs
    sigma[j + 1] + sigma[j] come from one add over the flattened stack
    into ``out``; each row's last slot then holds a cross-row sum, never
    read.
    """
    if out is None:
        out = np.empty_like(sigma, order="C")
        cum = np.zeros_like(sigma, order="C")
    flat = sigma.reshape(-1)
    np.add(flat[1:], flat[:-1], out=out.reshape(-1)[:-1])
    np.add.accumulate(out[..., :-1], axis=-1, out=cum[..., 1:])
    cum *= 0.5 * dz
    np.multiply(cum, source, out=out)
    out += boundary
    return out


@dataclass(frozen=True)
class CoherenceRecord:
    """Collective spin coherence sigma(t, z) on the grid, with the boundary
    input g*E(0, t), the source coefficient i*g*calN*(OmegaC/Delta)*coupling
    and the coupling on/off profile (1.0 when None) at the grid times."""

    values: np.ndarray          # (nt, nz) complex
    grid: Grid
    boundary: np.ndarray        # (nt,) complex
    source: np.ndarray          # (nt,) complex
    coupling: Optional[np.ndarray] = None   # (nt,) multiplier on OmegaC

    def __post_init__(self):
        if self.values.shape != (self.grid.nt, self.grid.nz):
            raise ValueError("CoherenceRecord array does not match the grid")

    def field(self, rows=slice(None)) -> np.ndarray:
        """The slaved probe field g*E(t, z) at the grid times ``rows``."""
        return _slaved_field(self.values[rows], self.grid.dz,
                             self.source[rows, None], self.boundary[rows, None])


@dataclass(frozen=True)
class StorageResult:
    """One storage/recall run: sigma record (None when exit-only) and scalars.

    input_energy integrates |E|^2 of the boundary input over [0, flip);
    echo_energy integrates |E(L, t)|^2 over [flip, t_max].  echo_phase is
    the argument of the exit-face field at the energy-weighted centroid of
    the echo (NaN when the echo window is empty or dark).  xpm_phase is
    the echo phase of the same run without its Stark drive minus
    echo_phase (NaN for an undriven run).  dt_limit is the run's stability
    limit on dt from check_step (inf until the run is checked).
    """

    exit_field: np.ndarray      # (nt,) complex, E(L, t)
    coherence: Optional[CoherenceRecord]
    input_energy: float
    echo_energy: float
    efficiency: float
    echo_phase: float
    flip_time: Optional[float]
    xpm_phase: float = math.nan
    dt_limit: float = math.inf


@dataclass(frozen=True)
class Member:
    """One coherence of a batched march: its input g*E(0, t) (vectorised
    in t), Raman ratio, sign on the shared eta(t), coupling switch (1 when
    None), decay added to gamma0 and Stark drive.  Without ``full_records``
    only the exit-face field E(L, t) is kept."""

    envelope: Callable[[np.ndarray], np.ndarray]
    ratio: float
    eta_sign: float = 1.0
    coupling: Optional[PiecewiseConstant] = None
    extra_decay: float = 0.0
    stark: Optional[StarkDrive] = None
    full_records: bool = True


@dataclass(frozen=True)
class CrossDrive(_LightShiftRates):
    """Drive of member ``target`` by member ``source``'s field for t in
    [window): the intensity |E_source(z,t)|^2, at most ``peak``, shifts
    the target by c_shift times it and scatters it at c_loss times it."""

    source: int
    target: int
    window: Tuple[float, float]
    peak: float
    c_shift: float
    c_loss: float


class MemberRecords(NamedTuple):
    """What a march kept of one member: the sigma record (None unless
    full_records) and the exit-face field E(L, t)."""

    coherence: Optional[CoherenceRecord]
    exit_field: np.ndarray              # (nt,) complex


def march(params: EnsembleParams, schedule: GradientSchedule, grid: Grid,
          members: Sequence[Member],
          cross: Optional[CrossDrive] = None) -> List[MemberRecords]:
    """Advance a (B, nz) stack of coherences, one row per member, by RK4
    steps with the slaved field marched along z at every stage.  What
    depends on time alone is tabulated once on the stage times t_n,
    t_n + dt/2, t_n + dt.  Each row repeats the arithmetic of a one-member
    march in the same order, so its records do not depend on the batch.

    The state, stage state, field, slopes k1..k4, field scratch and a
    stage's per-member factors spread along z are (B, nz) buffers allocated
    once per march; every stage writes into them with ``out=``, so a step
    allocates nothing unless cross-driven.  The operations and their order
    are those of a march that allocates its stage arrays afresh, down to
    ((k1 + 2 k2) + 2 k3) + k4, so its records and every golden are
    byte-equal to that march's.
    Step-size checks are the caller's; NumericalError on non-finite state.
    """
    nz, nt, dz, dt = grid.nz, grid.nt, grid.dz, grid.dt
    stage_t = grid.t[:, None] + np.array([0.0, 0.5 * dt, dt])

    def table(values):   # (nt, 3, B, 1): one column per member
        return np.stack([values(m) for m in members], axis=-1)[..., None]

    stark = any(m.stark is not None for m in members)
    # the per-member factors of every stage: source, input, gain and,
    # with a Stark drive, -(loss + i*shift)
    factors = np.empty((nt, 3, 3 + stark, len(members), 1), dtype=complex)
    src, env, gain = factors[:, :, 0], factors[:, :, 1], factors[:, :, 2]
    mult = table(lambda m: m.coupling.values(stage_t) if m.coupling
                 else np.ones_like(stage_t))
    for b, m in enumerate(members):   # no stacked temporary table
        env[:, :, b, 0] = m.envelope(stage_t)
    ratio = np.array([m.ratio for m in members])[:, None]
    np.multiply(1j * params.coupling_density * ratio, mult, out=src)
    np.multiply(1j * ratio, mult, out=gain)
    decay0 = np.array([params.gamma0 + m.extra_decay for m in members])
    if stark:   # loss and shift are c_loss and c_shift times intensity
        intensity = table(lambda m: m.stark.intensity(stage_t) if m.stark
                          else 0.0 * stage_t)
        c_loss, c_shift = np.array([(m.stark.c_loss, m.stark.c_shift)
                                    if m.stark else (0.0, 0.0)
                                    for m in members]).T[..., None]
        np.negative(c_loss * intensity + 1j * (c_shift * intensity),
                    out=factors[:, :, 3])
    lo, hi = cross.window if cross is not None else (0.0, 0.0)
    driven = (stage_t >= lo) & (stage_t < hi)
    # eta(t) takes a few distinct values, so eta*zeta (and, without a
    # Stark drive, the whole sigma coefficient) is formed once per value.
    eta = table(lambda m: m.eta_sign * schedule.values(stage_t))[..., 0]
    rows, which = np.unique(eta.reshape(-1, len(members)), axis=0,
                            return_inverse=True)
    which = which.reshape(stage_t.shape)
    eta_zeta = rows[:, :, None] * (grid.z - params.L / 2.0)
    fixed = -(decay0[:, None] + 1j * eta_zeta)

    sigma_t = {b: np.empty((nt, nz), dtype=complex)
               for b, m in enumerate(members) if m.full_records}
    exit_t = np.empty((len(members), nt), dtype=complex)
    sig, s, e, ge, coef, cum = np.zeros((6, len(members), nz), dtype=complex)
    k = np.empty((4, len(members), nz), dtype=complex)
    # A stage's factors, spread along z once per stage time: a stage op
    # with a (B, 1) operand would cost NumPy a buffered copy of it.
    spread = np.empty(factors.shape[2:-1] + (nz,), dtype=complex)
    src_z, env_z, gain_z = spread[:3]
    stark_z = spread[3] if stark else None

    def coefficient(n, j):
        # -(decay + i*shift), the sigma-diagonal part of the RHS at stage
        # j of step n, for the field in ``e``
        if stark:
            np.add(fixed[which[n, j]], stark_z, out=coef)
        elif driven[n, j]:
            np.copyto(coef, fixed[which[n, j]])
        else:
            return fixed[which[n, j]]
        if driven[n, j]:
            b, drive = cross.target, np.abs(e[cross.source]) ** 2
            decay, shift = decay0[b], eta_zeta[which[n, j], b]
            if stark:
                decay = decay + c_loss[b, 0] * intensity[n, j, b, 0]
                shift = shift + c_shift[b, 0] * intensity[n, j, b, 0]
            coef[b] = -((decay + cross.c_loss * drive)
                        + 1j * (shift + cross.c_shift * drive))
        return coef

    def slope(i, n, j, state, a=None):
        # k_i = a*state + gain*E at stage j of step n, E already in e and
        # the stage's factors in spread; a is formed unless given
        a = coefficient(n, j) if a is None else a
        np.multiply(a, state, out=k[i])
        np.multiply(gain_z, e, out=ge)
        k[i] += ge
        return a

    def advance(i, h):
        # the stage state sig + h*k_i and its field
        np.multiply(k[i], h, out=s)
        np.add(s, sig, out=s)
        _slaved_field(s, dz, src_z, env_z, e, cum)

    for n in range(nt):
        np.copyto(spread, factors[n, 0])
        _slaved_field(sig, dz, src_z, env_z, e, cum)
        for b in sigma_t:
            sigma_t[b][n] = sig[b]
        exit_t[:, n] = e[:, -1]
        if n == nt - 1:
            break
        slope(0, n, 0, sig)
        np.copyto(spread, factors[n, 1])
        advance(0, 0.5 * dt)
        a2 = slope(1, n, 1, s)
        advance(1, 0.5 * dt)
        slope(2, n, 1, s, None if driven[n, 1] else a2)
        np.copyto(spread, factors[n, 2])
        advance(2, dt)
        slope(3, n, 2, s)
        # sig += (dt/6) * (((k1 + 2 k2) + 2 k3) + k4), summed in k1
        k[1:3] *= 2.0
        k[0] += k[1]
        k[0] += k[2]
        k[0] += k[3]
        k[0] *= dt / 6.0
        sig += k[0]
        if n % _NAN_CHECK_STRIDE == 0 and not np.all(np.isfinite(sig.view(float))):
            raise NumericalError(
                f"non-finite coherence at t={stage_t[n, 2]:.4f} (step {n + 1}); "
                "reduce dt or check the drive for singular values")
    if not all(np.all(np.isfinite(rec.view(float)))
               for rec in (exit_t, *sigma_t.values())):
        raise NumericalError("non-finite values in the stored trajectory")

    def record(b):   # inputs copied, so a record keeps no stage table alive
        return CoherenceRecord(sigma_t[b], grid, *(
            r[:, 0, b, 0].copy() for r in (env, src, mult)))

    return [MemberRecords(record(b) if b in sigma_t else None, exit_t[b])
            for b in range(len(members))]


def check_window(probe: PulseSpec, schedule: GradientSchedule,
                 t_max: float) -> Optional[float]:
    """Flip time of a storage run on [0, t_max]; ValueError when the
    schedule does not cover the window or the probe does not substantially
    enter (center + 2*duration) inside it before the flip."""
    if not schedule.covers(t_max):
        raise ValueError(
            f"gradient schedule [{schedule.t_start}, {schedule.t_end}] does "
            f"not cover the grid window [0, {t_max}]")
    flip = schedule.flip_time()
    end = t_max if flip is None else flip
    if not 0.0 <= probe.center_time + 2.0 * probe.duration <= end:
        raise ValueError(
            "probe pulse must substantially enter between t = 0 and the "
            "recall flip, or the window end without one (center "
            f"{probe.center_time} + 2*duration {probe.duration} outside "
            f"[0, {end}])")
    return flip


def check_step(params: EnsembleParams, schedule: GradientSchedule,
               grid: Grid, ratio: float, *rates: float) -> float:
    """The stability limit 1/rate on dt (inf when rate is 0), rate summing
    gamma0, ``rates``, the detuning ramp and the slowest-k polariton
    exchange at Raman ratio ``ratio``; StabilityError when dt exceeds it.
    (RK4 allows |lambda|*dt up to 2*sqrt(2); the margin covers the
    transient growth of the z-marched coupling.)"""
    rate = params.gamma0
    for r in rates:
        rate += r
    rate += schedule.max_abs_eta * params.L / 2.0
    rate += params.coupling_density * ratio ** 2 * params.L / (2.0 * math.pi)
    limit = 1.0 / rate if rate > 0.0 else math.inf
    if grid.dt > limit:
        raise StabilityError(grid.dt, limit)
    return limit


def storage_result(records: MemberRecords, grid: Grid,
                   envelope: Callable[[np.ndarray], np.ndarray],
                   flip: Optional[float]) -> StorageResult:
    """Energies, efficiency and echo phase of a marched member."""
    t_flip = flip if flip is not None else grid.t_max
    input_energy = _window_integral(grid.t, np.abs(envelope(grid.t)) ** 2,
                                    0.0, t_flip)
    echo_energy = _window_integral(grid.t, np.abs(records.exit_field) ** 2,
                                   t_flip, grid.t_max)
    return StorageResult(
        exit_field=records.exit_field, coherence=records.coherence,
        input_energy=input_energy, echo_energy=echo_energy,
        efficiency=echo_energy / input_energy if input_energy > 0.0 else 0.0,
        echo_phase=exit_phase(grid, records.exit_field, flip), flip_time=flip)


def propagate(params: EnsembleParams, probe: PulseSpec,
              schedule: GradientSchedule, grid: Grid,
              stark: Optional[StarkDrive] = None, *,
              coupling: Optional[PiecewiseConstant] = None) -> StorageResult:
    """Run one storage/recall simulation and return the full solution.

    ``coupling`` optionally switches the coupling field (a multiplier on
    OmegaC per time window).  With a Stark drive the signal-free reference
    run, keeping only its exit-face field, is marched in the same batch and
    gives ``xpm_phase``.  Raises as _storage_runs and march do.
    """
    run = Member(probe.envelope, params.raman_ratio, coupling=coupling,
                 stark=stark)
    return _storage_runs(params, schedule, grid, [(probe, run)])[0]


def storage_batch(params: EnsembleParams, schedule: GradientSchedule,
                  grid: Grid,
                  runs: Sequence[Tuple[PulseSpec, Optional[StarkDrive]]]
                  ) -> List[StorageResult]:
    """Exit-only (probe, stark) runs on one ensemble, schedule and grid,
    checked and marched as ``propagate`` does: each result's efficiency,
    echo and xpm phase (NaN when undriven) are propagate's, bit for bit,
    and it carries no sigma/E records."""
    probes = {}   # one envelope per distinct probe: equal runs march once
    return _storage_runs(params, schedule, grid, [
        (p, Member(probes.setdefault(p, p).envelope, params.raman_ratio,
                   stark=stark, full_records=False)) for p, stark in runs])


def _storage_runs(params: EnsembleParams, schedule: GradientSchedule,
                  grid: Grid, runs: Sequence[Tuple[PulseSpec, Member]]
                  ) -> List[StorageResult]:
    """Check each (probe, member) run as check_window and check_step do,
    march the members with the exit-only, signal-free reference of each
    driven one, and return each run's StorageResult with its xpm_phase and
    dt_limit.  Equal members march once, at most max(1, nz // 16) to a
    march: that keeps a march's stage tables at about one (nt, nz) record."""
    limits = []
    for probe, m in runs:
        flip = check_window(probe, schedule, grid.t_max)
        limits.append(check_step(params, schedule, grid, params.raman_ratio,
                                 *(m.stark.rates if m.stark else ())))
    ref = {m: replace(m, stark=None, full_records=False)
           for _, m in runs if m.stark is not None}
    members = list(dict.fromkeys([m for _, m in runs] + [*ref.values()]))
    size, done = max(1, grid.nz // 16), {}
    for i in range(0, len(members), size):
        chunk = members[i:i + size]
        for m, records in zip(chunk, march(params, schedule, grid, chunk)):
            done[m] = storage_result(records, grid, m.envelope, flip)
    return [replace(done[m], dt_limit=limit,
                    xpm_phase=(done[ref[m]].echo_phase - done[m].echo_phase
                               if m in ref else math.nan))
            for (_, m), limit in zip(runs, limits)]


def _window_integral(t: np.ndarray, p: np.ndarray, lo: float, hi: float) -> float:
    i0 = int(np.searchsorted(t, lo, side="left"))
    i1 = int(np.searchsorted(t, hi, side="right"))
    if i1 - i0 < 2:
        return 0.0
    return float(np.trapezoid(p[i0:i1], t[i0:i1]))


def exit_phase(grid: Grid, e: np.ndarray, flip: Optional[float]) -> float:
    """Echo phase of an exit-face field E(L, t): its phase at the
    |E|^2-weighted centroid time of [flip, t_max], NaN when that window is
    empty (always so without a flip) or dark.

    The complex field is interpolated linearly at the centroid so the phase
    is a continuous function of the data (a nearest-sample choice would hop
    by the local chirp under infinitesimal input changes).
    """
    t = grid.t
    i0 = int(np.searchsorted(t, grid.t_max if flip is None else flip))
    i1 = t.size
    if i1 - i0 < 2:
        return math.nan
    w = np.abs(e[i0:i1]) ** 2
    total = w.sum()
    if total <= 0.0 or not np.isfinite(total):
        return math.nan
    tc = float((t[i0:i1] * w).sum() / total)
    j = int(np.clip(np.searchsorted(t, tc) - 1, i0, i1 - 2))
    frac = (tc - t[j]) / (t[j + 1] - t[j])
    ec = e[j] * (1.0 - frac) + e[j + 1] * frac
    if ec == 0.0:
        return math.nan
    return float(np.angle(ec))


def spatial_spectrum(values: np.ndarray, grid: Grid) -> Tuple[np.ndarray, np.ndarray]:
    """Continuum-normalised spatial DFT with the exp(-i*k*z) kernel.

    Returns (k, F) with k the fftshifted axis and F[t, k] = dz * sum_z
    f(t,z) exp(-i k z); magnitudes are grid-resolution independent.
    """
    k = 2.0 * math.pi * np.fft.fftshift(np.fft.fftfreq(grid.nz, d=grid.dz))
    f = np.fft.fftshift(np.fft.fft(values, axis=-1), axes=-1) * grid.dz
    return k, f


def polariton_transform(coherence: CoherenceRecord, params: EnsembleParams,
                        rows=slice(None)) -> Tuple[np.ndarray, np.ndarray]:
    """(k, psi) with psi(t,k) = k*E(t,k) + g*calN*(OmegaC/Delta)*sigma(t,k)
    at the grid times ``rows`` only, E rebuilt from the coherence record;
    k and the row layout are those of ``spatial_spectrum``.

    The nominal (static) coupling ratio is used in the atomic term; when
    the coupling field is switched off the physical excitation is the bare
    coherence, whose spectrum is spatial_spectrum(coherence.values).
    """
    if coherence is None:
        raise ValueError("polariton_transform needs a coherence record")
    k, ek = spatial_spectrum(coherence.field(rows), coherence.grid)
    _, sk = spatial_spectrum(coherence.values[rows], coherence.grid)
    return k, k * ek + params.coupling_density * params.raman_ratio * sk


def verify_fourier_relation(coherence: CoherenceRecord,
                            params: EnsembleParams,
                            t: float) -> Optional[float]:
    """Residual of k*E(k) = g*calN*(OmegaC/Delta)*sigma(k) at time t, from
    the one grid row nearest t.

    Returns max over k != 0 of |k*E - C*sigma| / max|C*sigma| with
    C = g*calN*(OmegaC/Delta).  Returns None (the coupling-off signal) when
    the coupling field is switched off at t, where the relation degenerates;
    an all-zero record yields 0.0.
    """
    if coherence is None:
        raise ValueError("verify_fourier_relation needs a coherence record")
    grid = coherence.grid
    n = int(round(t / grid.dt))
    if not (0 <= n < grid.nt):
        raise ValueError(f"time {t} outside the grid window [0, {grid.t_max}]")
    if coherence.coupling is not None and coherence.coupling[n] < 1e-12:
        return None
    mult = 1.0 if coherence.coupling is None else float(coherence.coupling[n])
    weight = params.coupling_density * params.raman_ratio * mult
    row = slice(n, n + 1)
    k, ek = spatial_spectrum(coherence.field(row), grid)
    _, sk = spatial_spectrum(coherence.values[row], grid)
    mask = k != 0.0
    lhs = k[mask] * ek[0, mask]
    rhs = weight * sk[0, mask]
    scale = float(np.max(np.abs(rhs)))
    if scale == 0.0:
        return 0.0 if float(np.max(np.abs(lhs))) == 0.0 else math.inf
    return float(np.max(np.abs(lhs - rhs)) / scale)


def group_velocity(k: float, params: EnsembleParams) -> float:
    """Group velocity g*calN*(OmegaC/Delta)^2 / k^2 of a polariton stopped
    at spatial frequency k (eta = 0, coupling on)."""
    if k == 0.0:
        raise ValueError("group velocity is singular at k = 0")
    return params.coupling_density * params.raman_ratio ** 2 / (k * k)


def peak_k_trajectory(k: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """Peak-|spectrum| k value per time sample of a (nt, nk) spectrum on
    the k axis ``k``.

    Ties within a relative 1e-9 of the maximum resolve to the lowest |k|
    (and to the more negative k when +-k tie exactly); zero rows give 0.
    """
    order = np.lexsort((k, np.abs(k)))   # by |k|, then by k
    mag = np.abs(spectrum)[:, order]
    top = mag.max(axis=1)
    first = np.argmax(mag >= (top * (1.0 - 1e-9))[:, None], axis=1)
    return np.where(top == 0.0, 0.0, k[order][first])


def excitation_balance(result: StorageResult, params: EnsembleParams,
                       t_from: float, t_to: float) -> float:
    """Relative excitation-conservation residual over [t_from, t_to].

    Checks  Delta[ g*calN * integral |sigma|^2 dz ] =
            integral (|E(0,t)|^2 - |E(L,t)|^2) dt,
    normalised by the gross transported energy over the window (gamma0 = 0,
    no drive), so the residual measures the defect of the conservation law
    against the amount of excitation actually moved.
    """
    if result.coherence is None:
        raise ValueError("excitation_balance needs a coherence record")
    grid = result.coherence.grid
    t = grid.t
    i0 = int(np.searchsorted(t, t_from, side="left"))
    i1 = int(np.searchsorted(t, t_to, side="right")) - 1
    if i1 <= i0:
        raise ValueError("window too short for a balance check")
    sig2 = np.abs(result.coherence.values[[i0, i1]]) ** 2
    stored = params.coupling_density * np.trapezoid(sig2, dx=grid.dz, axis=1)
    lhs = stored[1] - stored[0]
    influx = np.abs(result.coherence.boundary[i0:i1 + 1]) ** 2
    outflux = np.abs(result.exit_field[i0:i1 + 1]) ** 2
    rhs = float(np.trapezoid(influx - outflux, t[i0:i1 + 1]))
    gross = float(np.trapezoid(influx + outflux, t[i0:i1 + 1]))
    scale = max(abs(lhs), abs(rhs), gross, 1e-300)
    return abs(lhs - rhs) / scale

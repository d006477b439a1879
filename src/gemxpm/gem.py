"""Semiclassical 1-D Maxwell-Bloch solver for gradient-echo storage.

The model is the adiabatically eliminated two-field pair

    d(sigma)/dt = -[gamma0 + (c_loss + i*c_shift)*I(z,t) + i*eta(t)*(z - L/2)]*sigma
                  + i*(OmegaC/Delta)*E,
    dE/dz       = i*(g*calN)*(OmegaC/Delta)*sigma,

where E = g*script-E is the probe Rabi envelope and sigma the collective
spin coherence.  The field is slaved: at every Runge-Kutta stage it is
marched along z from the boundary value (instantaneous-field limit); one
stepper, ``march``, advances a stack of such coherences, each a ``Member``
with its own physics, in t by classic RK4 steps.  The gradient is centred
on the grid's cell (eta*(z - L/2)).  A drive is an intensity I = |g*E_s|^2
(0 without one) and the ``light_shift`` pair (c_shift, c_loss) of its
detuning, applied by its integrating factor Phi = exp(-(c_loss +
i*c_shift)*F), F its fluence (Lawson, SIAM J. Numer. Anal. 4 (1967)
372-380): the march is never driven, and a drive adds no stiffness.  A
``StarkDrive``, a signal filling the cell, is uniform in z, and
(sigma, E)/Phi(t) obeys the undriven pair with input E(0, t)/Phi(t), so
a driven run marches undriven, its fields times Phi.  A stored signal
drives a held coherence whose coupling is off (``xpm``), so the held
coherence is the undriven one times Phi(z), F(z) the fluence of the
signal's marched field at z.

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
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import NumericalError, StabilityError
from .model import (EnsembleParams, GradientSchedule, Grid, PiecewiseConstant,
                    PulseSpec, math_erf)

_NAN_CHECK_STRIDE = 64
#: Bound on a Stark drive's 1/Phi and a driven run's march input: float
#: range less 2^64 of headroom for the march's gain over its input.
MAX_DRIVEN_INPUT = np.finfo(float).max / 2.0 ** 64
#: Grid rows of sigma and E a march hands to its consumer at once.
BLOCK_ROWS = 256


#: Bytes a run may hold in arrays that grow with it: config refuses a larger
#: storage march or gate trajectory (exit 2), and a storage sweep marches no
#: more members at once than fit (``member_bytes`` each).
RECORD_BUDGET_BYTES = 2 << 30


def member_bytes(grid: Grid) -> int:
    """About the bytes one member of an exit-only march holds in arrays that
    grow with the grid, from above: 24 values per grid time (exit field, a
    Stark drive's factor and their reductions, stage tables of 9 values a
    row up to BLOCK_ROWS rows) and 16 per z sample (stage buffers)."""
    return 16 * (24 * grid.nt + 16 * grid.nz)


def light_shift(gamma: float, detuning: float) -> Tuple[float, float]:
    """(c_shift, c_loss) = (detuning, gamma) / (gamma^2 + detuning^2): an
    intensity I = |g*E_s|^2 at ``detuning`` shifts a stored coherence by
    c_shift*I and scatters its amplitude at c_loss*I.  ValueError when both
    vanish; the limit, through hypot, when the sum underflows."""
    if gamma == 0.0 and detuning == 0.0:
        raise ValueError("gamma and detuning cannot both vanish")
    denom = gamma * gamma + detuning * detuning
    if denom < np.finfo(float).tiny:
        r = math.hypot(gamma, detuning)
        return detuning / r / r, gamma / r / r
    return detuning / denom, gamma / denom


@dataclass(frozen=True)
class StarkDrive:
    """Space-uniform ac-Stark drive produced by a far-detuned signal field:
    its intensity I(t) = |g*E_s(t)|^2 shifts the spin coherence by
    c_shift*I(t) and scatters it at c_loss*I(t) (the ``light_shift``
    pair).  It acts only through its vectorised fluence F(t), the
    integral of I up to t (nondecreasing), as the factor Phi(t)."""

    fluence: Callable[[np.ndarray], np.ndarray]
    c_shift: float
    c_loss: float

    def factor(self, t, sign: float = 1.0) -> np.ndarray:
        """Phi(t), or 1/Phi(t) with ``sign`` -1."""
        return np.exp(complex(-sign * self.c_loss, -sign * self.c_shift)
                      * self.fluence(t))

    def check_input(self, probe: PulseSpec, grid: Grid) -> None:
        """OverflowError when exp(|c_loss|*max|F|)*max(1, peak), bounding
        Phi, 1/Phi and the driven input E(0, t)/Phi(t) of a run with input
        ``probe`` at every stage time, exceeds MAX_DRIVEN_INPUT; monotone F
        is read at 0 and t_max + dt (NaN is left to the march)."""
        ends = np.array([0.0, grid.t[-1] + grid.dt])
        with np.errstate(over="ignore", invalid="ignore"):
            top = (np.exp(abs(self.c_loss) * np.abs(self.fluence(ends)).max())
                   * max(1.0, probe.peak_amplitude))
        if top > MAX_DRIVEN_INPUT:
            raise OverflowError(
                f"Stark drive (c_shift {self.c_shift:.6g}, c_loss "
                f"{self.c_loss:.6g}) and probe peak {probe.peak_amplitude:.6g}"
                ": 1/Phi or the input E(0, t)/Phi(t) is beyond float range "
                f"less the march's headroom ({MAX_DRIVEN_INPUT:.3g})")

    def driven_input(self, envelope: Callable[[np.ndarray], np.ndarray]
                     ) -> Callable[[np.ndarray], np.ndarray]:
        """E(0, t)/Phi(t), the march input of a run with input
        ``envelope`` E(0, t)."""
        return lambda t: envelope(t) * self.factor(t, -1.0)


def apply_stark_drive(signal: PulseSpec, params: EnsembleParams,
                      detuning: float) -> StarkDrive:
    """Reduce a counter-propagating signal pulse to its ac-Stark drive.

    The signal illuminates the whole cell, so the drive carries no z
    dependence.  ``detuning`` is the signal's: params.delta3 for the
    free-propagating signal transition, params.delta4 for the stored-pair
    geometry.  The fluence of I = A^2*exp(-2*((t - c)/d)^2), for peak
    amplitude A, center c and duration d, is A^2*d*sqrt(pi/8)*(1 +
    erf(sqrt(2)*(t - c)/d)).
    """
    peak, center = signal.peak_amplitude ** 2, signal.center_time
    width = signal.duration * math.sqrt(math.pi / 8.0)
    rate = math.sqrt(2.0) / signal.duration
    return StarkDrive(
        lambda t: peak * (width * (1.0 + math_erf(rate * (t - center)))),
        *light_shift(params.gamma, float(detuning)))


def constant_stark_drive(intensity: float, detuning: float, gamma: float,
                         window: Tuple[float, float]) -> StarkDrive:
    """Rectangular drive with |g*E_s|^2 = intensity inside ``window``: its
    fluence is piecewise linear."""
    lo, hi = window
    return StarkDrive(lambda t: intensity * (np.clip(t, lo, hi) - lo),
                      *light_shift(gamma, detuning))


@dataclass(frozen=True)
class StorageResult:
    """One storage/recall run: its exit-face field and scalars.

    input_energy integrates |E|^2 of the boundary input over [0, recall],
    echo_energy |E(L, t)|^2 over [recall, t_max], recall from check_window.
    echo_phase is the argument of the exit-face field at the energy-weighted
    centroid of the echo (NaN when it is empty, as at recall = t_max, or
    dark).  xpm_phase is the echo phase of the same run without its Stark
    drive minus echo_phase (NaN for an undriven run).  dt_limit is the
    run's stability limit on dt from check_step (inf until it is checked).
    """

    exit_field: np.ndarray      # (nt,) complex, E(L, t)
    input_energy: float
    echo_energy: float
    efficiency: float
    echo_phase: float
    xpm_phase: float = math.nan
    dt_limit: float = math.inf


@dataclass(frozen=True)
class Member:
    """One coherence of a batched march with all of its physics: its input
    g*E(0, t) (vectorised in t), Raman ratio, coupling density g*calN,
    sign on the shared eta(t), coupling switch (1 when None) and whole
    ground-state decay."""

    envelope: Callable[[np.ndarray], np.ndarray]
    ratio: float
    coupling_density: float
    eta_sign: float = 1.0
    coupling: Optional[PiecewiseConstant] = None
    decay: float = 0.0


def _stage_tables(schedule: GradientSchedule, members: Sequence[Member],
                  levels: np.ndarray, stage_t: Sequence[np.ndarray],
                  factors: np.ndarray) -> list:
    """Tabulate each member's factors at a block's stage times, ``stage_t``
    = (t_n, t_n + dt/2, t_n + dt) for its rows of steps n, into
    factors[:rows]: source, input and gain.  Return, per stage, a list over
    the rows of the index of eta(t) in ``levels``.  One member and stage at
    a time, so the temporaries are a few (rows,) arrays.
    """
    rows = len(stage_t[0])
    density, ratio = np.array([(m.coupling_density, m.ratio)
                               for m in members]).T
    src_coef, gain_coef = 1j * density * ratio, 1j * ratio
    which = []
    for j, t in enumerate(stage_t):
        src, env, gain = (factors[:rows, j, i, :, 0] for i in range(3))
        for b, m in enumerate(members):
            mult = m.coupling.values(t) if m.coupling else 1.0
            np.multiply(src_coef[b], mult, out=src[:, b])
            np.multiply(gain_coef[b], mult, out=gain[:, b])
            env[:, b] = m.envelope(t)
        which.append(np.searchsorted(levels, schedule.values(t)).tolist())
    return which


def march(schedule: GradientSchedule, grid: Grid, members: Sequence[Member],
          start: Tuple[int, Union[float, np.ndarray]] = (0, 0.0),
          on_block: Optional[Callable] = None) -> np.ndarray:
    """Advance a (B, nz) stack of coherences, one row per member, each with
    its own physics on the shared schedule and grid, by RK4 steps with the
    slaved field marched along z at every stage, from ``start`` = (n,
    state), the coherences at grid row n (zero at row 0 by default), and
    return the exit-face fields E(L, t) from row n on, (B, nt - n).  What
    depends on time alone is tabulated on the stage times t_n, t_n + dt/2,
    t_n + dt a block of BLOCK_ROWS steps at a time (``_stage_tables``), and
    the sigma coefficient once per value eta(t) takes.  Each row repeats
    the arithmetic of a one-member march in the same order, so its values
    do not depend on the batch.

    The slaved field is E(z) = E(0) + source * (trapezoid integral of
    sigma over [0, z]); the pair sums sigma[j + 1] + sigma[j] come from one
    add over the flattened stack, whose cross-row sum in each row's last
    slot is never read.

    With ``on_block``, on_block(n0, sigma, field) gets sigma and the E it
    was marched with at rows n0, n0 + 1, ... (BLOCK_ROWS, fewer in the last
    block) as (rows, B, nz) views of buffers reused for the next block,
    each checked finite first.  Without it a step copies nothing.

    The state, stage state, field, slopes k1..k4, field scratch and a
    stage's per-member factors spread along z are buffers allocated once
    per march, as are the views a step reads; every stage writes into them
    with ``out=``, so a step allocates no array (a block's tables cost a
    few (BLOCK_ROWS,) temporaries) and does little but its ufunc calls.
    Its operations and their order are those of a march that allocates its
    stage arrays afresh, down to ((k1 + 2 k2) + 2 k3) + k4, so its rows and
    every golden are byte-equal to that march's.  Step-size checks are the
    caller's; NumericalError on non-finite state.
    """
    nz, nt, dz, dt = grid.nz, grid.nt, grid.dz, grid.dt
    size = len(members)
    first, state = start
    # eta(t) takes the schedule's few values, so eta*zeta and the whole
    # sigma coefficient are formed once per value
    levels = np.unique([v for _, _, v in schedule.segments])
    eta = levels[:, None] * np.array([m.eta_sign for m in members])
    eta_zeta = eta[:, :, None] * (grid.z - grid.L / 2.0)
    decay = np.array([m.decay for m in members])
    fixed = list(-(decay[:, None] + 1j * eta_zeta))
    rows = min(nt - first, BLOCK_ROWS)
    factors = np.empty((rows, 3, 3, size, 1), dtype=complex)

    exit_t = np.empty((size, nt - first), dtype=complex)
    if on_block is not None:
        sig_rows, e_rows = np.empty((2, rows, size, nz), dtype=complex)
    sig, s, e, ge, cum = np.zeros((5, size, nz), dtype=complex)
    sig[...] = state
    k = np.empty((4, size, nz), dtype=complex)
    k0, k1, k2, k3 = k
    # A stage's factors, spread along z once per stage time: a stage op
    # with a (B, 1) operand would cost NumPy a buffered copy of it.
    spread = np.empty((3, size, nz), dtype=complex)
    src_z, env_z, gain_z = spread
    # views and scalars a step reads, made once: the flattened pair
    # slices of sig and s, the field's heads, the running sums' tails
    sig_hi, sig_lo = sig.reshape(-1)[1:], sig.reshape(-1)[:-1]
    s_hi, s_lo = s.reshape(-1)[1:], s.reshape(-1)[:-1]
    pairs, head, tail = e.reshape(-1)[:-1], e[:, :-1], cum[:, 1:]
    e_exit, k_mid = e[:, -1], k[1:3]
    # the step's real scalars as 0-d complex arrays: the (h + 0j) a
    # complex ufunc casts a Python float to, without the per-call cast
    half_dz, half_dt, full_dt, sixth_dt, two = (
        np.array(h, dtype=complex) for h in (0.5 * dz, 0.5 * dt, dt, dt / 6.0,
                                             2.0))
    add, multiply, copyto = np.add, np.multiply, np.copyto
    accumulate = np.add.accumulate

    def field(hi, lo):
        # E of the state whose flattened pair slices are hi, lo, into e
        add(hi, lo, pairs)
        accumulate(head, -1, None, tail)
        multiply(cum, half_dz, cum)
        multiply(cum, src_z, e)
        add(e, env_z, e)

    times, stage_dt = grid.t, (0.0, 0.5 * dt, dt)
    for n0 in range(first, nt, rows):
        stage_t = [times[n0:n0 + rows] + h for h in stage_dt]
        w0, w1, w2 = _stage_tables(schedule, members, levels, stage_t,
                                   factors)
        for r in range(len(stage_t[0])):
            n = n0 + r
            f0, f1, f2 = factors[r]
            copyto(spread, f0)
            field(sig_hi, sig_lo)
            exit_t[:, n - first] = e_exit
            if on_block is not None:
                sig_rows[r], e_rows[r] = sig, e
                if r == rows - 1 or n == nt - 1:
                    _check_finite(sig_rows[:r + 1], e_rows[:r + 1])
                    on_block(n0, sig_rows[:r + 1], e_rows[:r + 1])
            if n == nt - 1:
                break
            multiply(fixed[w0[r]], sig, k0)
            multiply(gain_z, e, ge)
            add(k0, ge, k0)
            copyto(spread, f1)
            multiply(k0, half_dt, s)
            add(s, sig, s)
            field(s_hi, s_lo)
            a = fixed[w1[r]]
            multiply(a, s, k1)
            multiply(gain_z, e, ge)
            add(k1, ge, k1)
            multiply(k1, half_dt, s)
            add(s, sig, s)
            field(s_hi, s_lo)
            multiply(a, s, k2)
            multiply(gain_z, e, ge)
            add(k2, ge, k2)
            copyto(spread, f2)
            multiply(k2, full_dt, s)
            add(s, sig, s)
            field(s_hi, s_lo)
            multiply(fixed[w2[r]], s, k3)
            multiply(gain_z, e, ge)
            add(k3, ge, k3)
            # sig += (dt/6) * (((k1 + 2 k2) + 2 k3) + k4), summed in s
            multiply(k_mid, two, k_mid)
            add.reduce(k, 0, None, s)
            multiply(s, sixth_dt, s)
            add(sig, s, sig)
            if (n % _NAN_CHECK_STRIDE == 0
                    and not np.all(np.isfinite(sig.view(float)))):
                raise NumericalError(
                    f"non-finite coherence at t={stage_t[2][r]:.4f} (step "
                    f"{n + 1}); reduce dt or check the drive for singular "
                    "values")
    _check_finite(exit_t)
    return exit_t


def _check_finite(*arrays: np.ndarray) -> None:
    if not all(np.all(np.isfinite(a.view(float))) for a in arrays):
        raise NumericalError("non-finite values in the stored trajectory")


def check_window(probe: PulseSpec, schedule: GradientSchedule,
                 t_max: float) -> float:
    """Recall time of a storage run on [0, t_max], its flip if before t_max
    else t_max (no echo); ValueError when the schedule does not cover the
    window or the probe does not substantially enter in [0, recall]."""
    if not schedule.covers(t_max):
        raise ValueError(
            f"gradient schedule [{schedule.t_start}, {schedule.t_end}] does "
            f"not cover the grid window [0, {t_max}]")
    flip = schedule.flip_time()
    recall = t_max if flip is None else min(flip, t_max)
    if not 0.0 <= probe.center_time + 2.0 * probe.duration <= recall:
        raise ValueError(
            "probe pulse must substantially enter between t = 0 and the "
            f"recall (center {probe.center_time} + 2*duration "
            f"{probe.duration} outside [0, {recall}])")
    return recall


def check_step(schedule: GradientSchedule, grid: Grid,
               members: Sequence[Member]) -> float:
    """The stability limit 1/rate on dt of a march of ``members`` (inf when
    rate is 0), rate summing the largest decay, the ramp max|eta|*L/2 and
    the largest slowest-k exchange coupling_density*ratio^2*L/2pi;
    StabilityError when dt exceeds it.  (RK4 allows |lambda|*dt up to
    2*sqrt(2); the margin covers the transient growth of the z-marched
    coupling.)  A drive adds no rate: the march is never driven."""
    rate = max(m.decay for m in members)
    rate += schedule.max_abs_eta * grid.L / 2.0
    rate += (max(m.coupling_density * m.ratio ** 2 for m in members)
             * grid.L / (2.0 * math.pi))
    limit = 1.0 / rate if rate > 0.0 else math.inf
    if grid.dt > limit:
        raise StabilityError(grid.dt, limit)
    return limit


def storage_result(exit_field: np.ndarray, grid: Grid,
                   envelope: Callable[[np.ndarray], np.ndarray],
                   recall: float) -> StorageResult:
    """StorageResult of a marched exit-face field recalled at ``recall``."""
    input_energy = _window_integral(grid.t, np.abs(envelope(grid.t)) ** 2,
                                    0.0, recall)
    echo_energy = _window_integral(grid.t, np.abs(exit_field) ** 2,
                                   recall, grid.t_max)
    return StorageResult(
        exit_field=exit_field, input_energy=input_energy,
        echo_energy=echo_energy,
        efficiency=echo_energy / input_energy if input_energy > 0.0 else 0.0,
        echo_phase=exit_phase(grid, exit_field, recall))


def propagate(params: EnsembleParams, probe: PulseSpec,
              schedule: GradientSchedule, grid: Grid,
              stark: Optional[StarkDrive] = None, *,
              coupling: Optional[PiecewiseConstant] = None,
              on_block: Optional[Callable] = None) -> StorageResult:
    """Run one storage/recall simulation.

    ``coupling`` optionally switches the coupling field (a multiplier on
    OmegaC per time window).  With a Stark drive the signal-free reference
    run is marched in the same batch and gives ``xpm_phase``.  ``on_block``
    receives the run's sigma and E rows as ``march`` hands them out, with
    the member axis dropped: (rows, nz) views, times Phi with a Stark
    drive and times the probe's peak amplitude.  Raises as storage_batch
    and march do.
    """
    return storage_batch(schedule, grid, [(params, probe, stark, coupling)],
                         on_block)[0]


def storage_batch(schedule: GradientSchedule, grid: Grid,
                  runs: Sequence[Tuple[EnsembleParams, PulseSpec,
                                       Optional[StarkDrive],
                                       Optional[PiecewiseConstant]]],
                  on_block: Optional[Callable] = None) -> List[StorageResult]:
    """Check each (ensemble, probe, stark, coupling) run as check_window
    does, its drive and probe as StarkDrive.check_input does (OverflowError
    before any march) and its own Member of the ensemble as check_step
    does, march each Member, a driven one with input E(0, t)/Phi(t) and
    beside its signal-free reference, and return each run's StorageResult
    (exit field times Phi) with its xpm_phase (NaN when undriven) and
    dt_limit; ``on_block`` gets the first run's rows, times Phi.  A run's
    result does not depend on the batch.

    The pair (sigma, E) is linear in the probe, so a Member carries the
    probe's shape at unit peak amplitude and a run's exit field, reference
    exit and rows are its march's times the peak (a zero probe marches as
    it is).  Runs equal up to probe amplitude march once: five points of a
    probe.* sweep with a signal are 2 members, the unit probe driven and
    its reference.  Equal members march once, at most max(1, 4096 // nz)
    to a march (B*nz <= 4096, past which a larger batch is slower), no
    more than fit RECORD_BUDGET_BYTES."""
    limits, plans, probes = [], [], {}   # one envelope per unit probe
    driven = {}   # (driven member, Phi) by (unit member, drive)
    for params, probe, stark, coupling in runs:
        recall = check_window(probe, schedule, grid.t_max)   # every run's
        scale = probe.peak_amplitude or 1.0
        unit = replace(probe, peak_amplitude=probe.peak_amplitude / scale)
        unit = probes.setdefault(unit, unit)
        member = Member(unit.envelope, params.raman_ratio,
                        params.coupling_density, coupling=coupling,
                        decay=params.gamma0)
        limits.append(check_step(schedule, grid, [member]))
        if stark is None:
            plans.append((probe, scale, member, None, None))
            continue
        stark.check_input(probe, grid)
        if (member, stark) not in driven:
            driven[member, stark] = (replace(member, envelope=(
                stark.driven_input(unit.envelope))), stark.factor(grid.t))
        plans.append((probe, scale, *driven[member, stark], member))
    members = list(dict.fromkeys([m for _, _, m, _, _ in plans]
                                 + [r for *_, r in plans if r]))
    size = max(1, min(4096 // grid.nz,
                      RECORD_BUDGET_BYTES // member_bytes(grid)))

    def scaled(field, scale):   # a unit march's field at peak ``scale``
        return field if scale == 1.0 else field * scale

    def first(n0, sigma, field):   # the first run's rows, times its Phi
        _, scale, _, phi, _ = plans[0]
        sigma, field = sigma[:, 0], field[:, 0]
        if phi is not None:
            rows = phi[n0:n0 + len(sigma), None]
            sigma, field = sigma * rows, field * rows
        on_block(n0, scaled(sigma, scale), scaled(field, scale))

    exits = {}
    for i in range(0, len(members), size):
        chunk = members[i:i + size]
        exits.update(zip(chunk, march(
            schedule, grid, chunk,
            on_block=first if on_block is not None and i == 0 else None)))
    results = []
    for (probe, scale, member, phi, ref), limit in zip(plans, limits):
        exit_field = scaled(exits[member] if phi is None
                            else exits[member] * phi, scale)
        run = storage_result(exit_field, grid, probe.envelope, recall)
        xpm_phase = (math.nan if phi is None else exit_phase(
            grid, scaled(exits[ref], scale), recall) - run.echo_phase)
        results.append(replace(run, dt_limit=limit, xpm_phase=xpm_phase))
    return results


def _window_integral(t: np.ndarray, p: np.ndarray, lo: float, hi: float) -> float:
    i0 = int(np.searchsorted(t, lo, side="left"))
    i1 = int(np.searchsorted(t, hi, side="right"))
    if i1 - i0 < 2:
        return 0.0
    return float(np.trapezoid(p[i0:i1], t[i0:i1]))


def exit_phase(grid: Grid, e: np.ndarray, recall: float) -> float:
    """Echo phase of an exit-face field E(L, t): its phase at the
    |E|^2-weighted centroid time of [recall, t_max], NaN when that window
    is empty (so at recall = t_max) or dark.

    The complex field is interpolated linearly at the centroid so the phase
    is a continuous function of the data (a nearest-sample choice would hop
    by the local chirp under infinitesimal input changes).
    """
    t = grid.t
    i0 = int(np.searchsorted(t, recall))
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
    return math.atan2(ec.imag, ec.real)


def spatial_spectrum(values: np.ndarray, grid: Grid) -> Tuple[np.ndarray, np.ndarray]:
    """Continuum-normalised spatial DFT with the exp(-i*k*z) kernel.

    Returns (k, F) with k the fftshifted axis and F[t, k] = dz * sum_z
    f(t,z) exp(-i k z); magnitudes are grid-resolution independent.
    """
    k = 2.0 * math.pi * np.fft.fftshift(np.fft.fftfreq(grid.nz, d=grid.dz))
    f = np.fft.fftshift(np.fft.fft(values, axis=-1), axes=-1) * grid.dz
    return k, f


def polariton_transform(sigma: np.ndarray, field: np.ndarray,
                        params: EnsembleParams,
                        grid: Grid) -> Tuple[np.ndarray, np.ndarray]:
    """(k, psi) with psi(t,k) = k*E(t,k) + g*calN*(OmegaC/Delta)*sigma(t,k)
    for (rows, nz) rows of sigma and of the field E marched with them; k
    and the row layout are those of ``spatial_spectrum``.

    The nominal (static) coupling ratio is used in the atomic term; when
    the coupling field is switched off the physical excitation is the bare
    coherence, whose spectrum is spatial_spectrum(sigma, grid).
    """
    k, ek = spatial_spectrum(field, grid)
    _, sk = spatial_spectrum(sigma, grid)
    return k, k * ek + params.coupling_density * params.raman_ratio * sk


def verify_fourier_relation(sigma: np.ndarray, field: np.ndarray,
                            params: EnsembleParams, grid: Grid,
                            coupling: float = 1.0) -> Optional[float]:
    """Residual of k*E(k) = C*sigma(k), C = g*calN*(OmegaC/Delta)*coupling,
    on one grid row: (1, nz) sigma and the field E marched with it, at a
    time where the coupling multiplier on OmegaC is ``coupling``.

    Returns max over k != 0 of |k*E - C*sigma| / max|C*sigma|, 0.0 for an
    all-zero row, or None (the coupling-off signal) when the coupling field
    is switched off, where the relation degenerates.
    """
    if coupling < 1e-12:
        return None
    weight = params.coupling_density * params.raman_ratio * float(coupling)
    k, ek = spatial_spectrum(field, grid)
    _, sk = spatial_spectrum(sigma, grid)
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


def excitation_balance(ends: np.ndarray, rows: Tuple[int, int],
                       boundary: np.ndarray, exit_field: np.ndarray,
                       params: EnsembleParams, grid: Grid) -> float:
    """Relative excitation-conservation residual between grid rows
    ``rows`` = (i0, i1), i0 < i1: ``ends`` is sigma at them, (2, nz), and
    ``boundary`` and ``exit_field`` are E(0, t) and E(L, t), (nt,).

    Checks  Delta[ g*calN * integral |sigma|^2 dz ] =
            integral (|E(0,t)|^2 - |E(L,t)|^2) dt,
    normalised by the gross transported energy over the window (gamma0 = 0,
    no drive), so the residual measures the defect of the conservation law
    against the amount of excitation actually moved.
    """
    if rows[1] <= rows[0]:
        raise ValueError("window too short for a balance check")
    window = slice(rows[0], rows[1] + 1)
    t = grid.t[window]
    stored = params.coupling_density * np.trapezoid(np.abs(ends) ** 2,
                                                    dx=grid.dz, axis=1)
    lhs = stored[1] - stored[0]
    influx, outflux = (np.abs(f[window]) ** 2 for f in (boundary, exit_field))
    rhs = float(np.trapezoid(influx - outflux, t))
    gross = float(np.trapezoid(influx + outflux, t))
    scale = max(abs(lhs), abs(rhs), gross, 1e-300)
    return abs(lhs - rhs) / scale

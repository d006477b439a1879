import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from gemxpm import (EnsembleParams, GradientSchedule, Grid,
                    PiecewiseConstant, PulseSpec, StabilityError,
                    NumericalError, StarkDrive, apply_stark_drive,
                    constant_stark_drive, excitation_balance, group_velocity,
                    peak_k_trajectory, polariton_transform, propagate,
                    verify_fourier_relation)
from gemxpm import gem
from gemxpm.gem import (BLOCK_ROWS, CrossDrive, Member, check_step,
                        light_shift, march, spatial_spectrum, storage_result)

from _reference import (FullRecords, peak_k_trajectory_loop, reference_march,
                        reference_storage_run)


TWO_PI = 2.0 * math.pi
HOLD_SCHEDULE = GradientSchedule(((0.0, 8.0, 8.0), (8.0, 12.0, 0.0),
                                  (12.0, 20.0, -8.0)))


def mixed_members(p, drive):
    """Four members that differ in every Member field; the second and
    third carry ``drive``."""
    return [
        Member(PulseSpec(1.0, 3.0, 1.0).envelope, p.raman_ratio),
        Member(PulseSpec(0.3, 2.5, 0.7).envelope, p.raman_ratio,
               stark=drive),
        Member(PulseSpec(0.6, 3.0, 0.8).envelope, p.raman_ratio,
               stark=drive),
        Member(PulseSpec(2.0, 3.5, 1.2).envelope, 0.5 * p.raman_ratio,
               eta_sign=-1.0, extra_decay=0.05,
               coupling=PiecewiseConstant(((0.0, 7.0, 1.0),
                                           (7.0, 12.0, 0.0),
                                           (12.0, 20.0, 1.0)))),
    ]


def held_pair(p, probe_drive=None):
    """Probe, signal and reference members shaped like double_storage_run's
    batch, with the cross drive of the signal on the probe over the hold
    [8, 12) of HOLD_SCHEDULE; ``probe_drive`` adds a Stark drive to the
    driven probe."""
    held = Member(PulseSpec(1.0, 3.0, 1.0).envelope, p.raman_ratio,
                  coupling=PiecewiseConstant(((0.0, 8.0, 1.0),
                                              (8.0, 12.0, 0.0),
                                              (12.0, 20.0, 1.0))))
    signal = Member(PulseSpec(0.5, 5.0, 0.8).envelope, p.raman_ratio_signal,
                    eta_sign=-1.0, extra_decay=0.3)
    return ([dataclasses.replace(held, stark=probe_drive), signal, held],
            CrossDrive(1, 0, (8.0, 12.0), 0.25,
                       *light_shift(p.gamma, p.delta4)))


class TestStarkDrive:
    @pytest.mark.parametrize("gamma, detuning", [
        (1.0, 20.0), (1.0, -3.0), (0.5, 0.0), (0.0, 2.0)])
    def test_light_shift_pair(self, gamma, detuning):
        denom = gamma * gamma + detuning * detuning
        assert light_shift(gamma, detuning) == (detuning / denom,
                                                gamma / denom)

    def test_light_shift_refuses_vanishing_denominator(self):
        with pytest.raises(ValueError, match="cannot both vanish"):
            light_shift(0.0, 0.0)
        with pytest.raises(ValueError, match="cannot both vanish"):
            constant_stark_drive(1.0, 0.0, 0.0, (5.0, 8.0))

    @pytest.mark.parametrize("amplitude, detuning", [
        (0.8, 25.0), (0.3, -7.5), (1.7, 0.0)])
    def test_rates_are_peak_loss_and_shift(self, baseline_params,
                                           amplitude, detuning):
        # the step check's terms: gamma/denom and |delta/denom| times the
        # signal's peak intensity, bit for bit
        gamma = baseline_params.gamma
        denom = gamma * gamma + detuning * detuning
        peak = amplitude ** 2
        drive = apply_stark_drive(PulseSpec(amplitude, 5.0, 1.0),
                                  baseline_params, detuning=detuning)
        assert drive.rates == (gamma / denom * peak,
                               abs(detuning / denom) * peak)

    def test_zero_signal(self, baseline_params):
        drive = apply_stark_drive(PulseSpec(0.0, 5.0, 1.0), baseline_params,
                                  detuning=baseline_params.delta3)
        t = np.linspace(0, 10, 11)
        assert np.all(drive.c_shift * drive.intensity(t) == 0)
        assert np.all(drive.c_loss * drive.intensity(t) == 0)

    def test_on_resonance_pure_loss(self, baseline_params):
        drive = apply_stark_drive(PulseSpec(0.5, 5.0, 1.0), baseline_params,
                                  detuning=0.0)
        assert np.all(drive.c_shift * drive.intensity(np.linspace(0, 10, 21))
                      == 0)
        # peak loss = |Omega|^2 / gamma at pulse center
        assert (drive.c_loss * drive.intensity(5.0)
                == pytest.approx(0.25 / baseline_params.gamma))

    def test_constant_drive_phase_advance(self, baseline_params,
                                          baseline_probe, baseline_schedule,
                                          baseline_grid, baseline_run):
        # rectangular drive over the stored interval: phase advance
        # Omega_s^2 * delta * tau / (gamma^2 + delta^2)
        omega_s, delta, lo, hi = 0.4, 25.0, 5.0, 8.0
        drive = constant_stark_drive(omega_s ** 2, delta,
                                     baseline_params.gamma, (lo, hi))
        run = propagate(baseline_params, baseline_probe, baseline_schedule,
                        baseline_grid, stark=drive)
        expected = omega_s ** 2 * delta * (hi - lo) / (
            baseline_params.gamma ** 2 + delta ** 2)
        measured = baseline_run.echo_phase - run.echo_phase
        assert measured == pytest.approx(expected, rel=1e-3)


class TestPropagate:
    def test_empty_medium_passes_pulse(self, baseline_probe,
                                       baseline_schedule):
        p = EnsembleParams(calN=1e-30)
        grid = Grid(nz=64, nt=2048, t_max=20.0, L=p.L)
        res = propagate(p, baseline_probe, baseline_schedule, grid)
        t = grid.t
        out = np.abs(res.exit_field)
        expect = np.abs(baseline_probe.envelope(t))
        assert np.max(np.abs(out - expect)) < 1e-12
        assert res.efficiency == pytest.approx(0.0, abs=1e-9)

    def test_high_depth_efficiency(self, baseline_run):
        assert baseline_run.efficiency > 0.8
        assert baseline_run.efficiency < 1.0 + 1e-6

    def test_echo_time_reversal_against_reference(self, baseline_params):
        """Asymmetric double-hump input: the echo profile must match the
        time-mirrored input, and the independent coarse-grid integrator
        must agree on the recall efficiency."""
        sched = GradientSchedule(((0.0, 9.0, 8.0), (9.0, 20.0, -8.0)))
        grid = Grid(nz=192, nt=3072, t_max=20.0, L=baseline_params.L)
        main = PulseSpec(1.0, 2.6, 0.7)
        side = PulseSpec(0.45, 4.4, 0.5)

        def envelope(t):
            return main.envelope(t) + side.envelope(t)

        (exit_field,) = march(baseline_params, sched, grid,
                              [Member(envelope, baseline_params.raman_ratio)])
        res = storage_result(exit_field, grid, envelope, 9.0)
        t = grid.t
        inp = np.abs(envelope(t))
        out = np.abs(res.exit_field)
        # mirror the input about the flip time and correlate with the echo
        mirrored = np.interp(2 * 9.0 - t, t, inp, left=0.0, right=0.0)
        w_echo = t >= 9.0
        a = out[w_echo] / np.linalg.norm(out[w_echo])
        b = mirrored[w_echo] / np.linalg.norm(mirrored[w_echo])
        assert float(a @ b) > 0.95

        ref = reference_storage_run(baseline_params, envelope, sched,
                                    nz=96, t_max=20.0)
        assert res.efficiency == pytest.approx(ref["efficiency"], abs=0.05)
        assert res.efficiency > 0.8

    def test_ground_state_decay_ratio(self, baseline_params, baseline_probe,
                                      baseline_schedule, baseline_grid,
                                      baseline_run):
        # storage time 2*(9-3) = 12; gamma0 = 1/12 gives e^-2 in intensity
        p = dataclasses.replace(baseline_params, gamma0=1.0 / 12.0)
        res = propagate(p, baseline_probe, baseline_schedule, baseline_grid)
        ratio = res.efficiency / baseline_run.efficiency
        assert ratio == pytest.approx(math.exp(-2.0), rel=0.05)

    def test_linearity_in_probe(self, baseline_params, baseline_schedule,
                                baseline_grid, baseline_records):
        for c in (0.1, 2.0, 10.0):
            records = FullRecords()
            propagate(baseline_params, PulseSpec(c, 3.0, 1.0),
                      baseline_schedule, baseline_grid, on_block=records)
            assert np.allclose(records.field, c * baseline_records.field,
                               rtol=1e-12, atol=1e-12)
            assert np.allclose(records.sigma, c * baseline_records.sigma,
                               rtol=1e-12, atol=1e-12)

    def test_recall_phase_reproducible(self, baseline_params, baseline_probe,
                                       baseline_schedule, baseline_grid,
                                       baseline_run):
        res = propagate(baseline_params, baseline_probe, baseline_schedule,
                        baseline_grid)
        assert res.echo_phase == baseline_run.echo_phase

    def test_pure_phase_drive_preserves_efficiency(
            self, baseline_params, baseline_probe, baseline_schedule,
            baseline_grid, baseline_run):
        drive = StarkDrive(
            intensity=lambda t: 0.05 * ((np.asarray(t) >= 5) & (np.asarray(t) < 8)),
            peak=0.05, c_shift=1.0, c_loss=0.0)
        res = propagate(baseline_params, baseline_probe, baseline_schedule,
                        baseline_grid, stark=drive)
        assert abs(res.efficiency - baseline_run.efficiency) < 1e-6
        assert abs(res.echo_phase - baseline_run.echo_phase) > 1e-3

    def test_excitation_conservation(self, baseline_params, baseline_probe,
                                     baseline_grid, baseline_run,
                                     baseline_records):
        # over [0, 20] and [0, 6]: sigma at the window's first and last rows
        t, sigma = baseline_grid.t, baseline_records.sigma
        for t_to in (20.0, 6.0):
            rows = (0, int(np.searchsorted(t, t_to, side="right")) - 1)
            resid = excitation_balance(
                sigma[list(rows)], rows, baseline_probe.envelope(t),
                baseline_run.exit_field, baseline_params, baseline_grid)
            assert resid < 1e-3
        with pytest.raises(ValueError, match="window too short"):
            excitation_balance(sigma[[5, 5]], (5, 5),
                               baseline_probe.envelope(t),
                               baseline_run.exit_field, baseline_params,
                               baseline_grid)

    def test_grid_convergence(self, baseline_params, baseline_probe,
                              baseline_schedule, baseline_run):
        coarse = Grid(nz=128, nt=2048, t_max=20.0, L=baseline_params.L)
        res = propagate(baseline_params, baseline_probe, baseline_schedule,
                        coarse)
        assert abs(res.efficiency - baseline_run.efficiency) < 0.01

    def test_stability_rejection_reports_required_dt(self, baseline_params,
                                                     baseline_probe):
        sched = GradientSchedule(((0.0, 9.0, 500.0), (9.0, 20.0, -500.0)))
        grid = Grid(nz=32, nt=64, t_max=20.0, L=baseline_params.L)
        with pytest.raises(StabilityError) as err:
            propagate(baseline_params, baseline_probe, sched, grid)
        assert err.value.dt_required < grid.dt
        assert "required dt" in str(err.value)

    def test_check_step_returns_stability_limit(self, baseline_params,
                                                baseline_schedule,
                                                baseline_grid, baseline_run):
        p = baseline_params
        rate = (p.gamma0 + baseline_schedule.max_abs_eta * p.L / 2.0
                + p.coupling_density * p.raman_ratio ** 2 * p.L / TWO_PI)
        limit = check_step(p, baseline_schedule, baseline_grid, p.raman_ratio)
        assert limit == 1.0 / rate
        assert 0.0 < baseline_grid.dt / limit < 1.0
        assert baseline_run.dt_limit == limit
        # no decay, gradient or exchange: nothing limits the step
        flat = GradientSchedule(((0.0, 20.0, 0.0),))
        assert check_step(p, flat, baseline_grid, 0.0) == math.inf

    def test_nan_detection_aborts(self, baseline_params, baseline_probe,
                                  baseline_schedule, baseline_grid):
        bad = StarkDrive(
            intensity=lambda t: np.where(np.asarray(t) < 5.0, 0.0, math.nan),
            peak=0.1, c_shift=1.0, c_loss=0.0)
        with pytest.raises(NumericalError):
            propagate(baseline_params, baseline_probe, baseline_schedule,
                      baseline_grid, stark=bad)

    def test_late_nan_refused_by_record_check(self, baseline_params,
                                              baseline_probe,
                                              baseline_schedule,
                                              baseline_grid):
        # NaN enters sigma after the last every-64-steps check (the last
        # step checked is 4032 of 4095): only the check of the finished
        # records refuses the run
        late = StarkDrive(
            intensity=lambda t: np.where(np.asarray(t) < 19.99, 0.0, math.nan),
            peak=0.1, c_shift=1.0, c_loss=0.0)
        with pytest.raises(NumericalError,
                           match="non-finite values in the stored trajectory"):
            propagate(baseline_params, baseline_probe, baseline_schedule,
                      baseline_grid, stark=late)

    def test_rows_checked_before_hand_out(self, baseline_params,
                                          baseline_probe, baseline_schedule,
                                          baseline_grid):
        # the same late NaN with rows handed out: the last block is refused
        # before its consumer sees it, and every earlier block was finite
        late = StarkDrive(
            intensity=lambda t: np.where(np.asarray(t) < 19.99, 0.0, math.nan),
            peak=0.1, c_shift=1.0, c_loss=0.0)
        records = FullRecords()
        with pytest.raises(NumericalError,
                           match="non-finite values in the stored trajectory"):
            propagate(baseline_params, baseline_probe, baseline_schedule,
                      baseline_grid, stark=late, on_block=records)
        handed = (baseline_grid.nt - 1) // BLOCK_ROWS * BLOCK_ROWS
        assert handed > 0 and len(records.sigma) == handed
        assert np.all(np.isfinite(records.sigma))
        assert np.all(np.isfinite(records.field))

    def test_run_without_flip_recalls_nothing(self, baseline_params,
                                              baseline_probe):
        # no gradient flip leaves the echo window [flip, t_max] empty:
        # nothing is recalled and both phases are NaN
        sched = GradientSchedule(((0.0, 20.0, 8.0),))
        grid = Grid(nz=64, nt=1024, t_max=20.0, L=baseline_params.L)
        res = propagate(baseline_params, baseline_probe, sched, grid)
        assert res.flip_time is None
        assert res.efficiency == 0.0 and res.echo_energy == 0.0
        assert math.isnan(res.echo_phase) and math.isnan(res.xpm_phase)

    def test_schedule_must_cover_grid(self, baseline_params, baseline_probe):
        sched = GradientSchedule(((0.0, 5.0, 8.0), (5.0, 10.0, -8.0)))
        grid = Grid(nz=32, nt=512, t_max=20.0, L=baseline_params.L)
        with pytest.raises(ValueError):
            propagate(baseline_params, baseline_probe, sched, grid)


class TestBatchedMarch:
    @pytest.mark.parametrize("with_stark", [False, True])
    def test_rows_equal_single_member_marches(self, baseline_params,
                                              baseline_schedule, with_stark):
        # a member's rows are bit-identical whatever else is in the batch;
        # an odd nz, a last block shorter than BLOCK_ROWS and the Stark
        # path of a mixed batch included.  The field handed out is the one
        # marched with: its exit face is the exit field, its entry face
        # the input.
        p = baseline_params
        grid = Grid(nz=63, nt=700, t_max=20.0, L=p.L)
        drive = (apply_stark_drive(PulseSpec(0.8, 6.0, 1.0), p,
                                   detuning=p.delta3) if with_stark else None)
        members = mixed_members(p, drive)
        batch = FullRecords()
        exits = march(p, baseline_schedule, grid, members, on_block=batch)
        assert [len(s) for s, _ in batch.blocks] == [
            min(BLOCK_ROWS, grid.nt - n0) for n0 in range(0, grid.nt,
                                                          BLOCK_ROWS)]
        for b, member in enumerate(members):
            alone = FullRecords()
            (exit_alone,) = march(p, baseline_schedule, grid, [member],
                                  on_block=alone)
            assert np.array_equal(exits[b], exit_alone)
            assert np.array_equal(batch.sigma[:, b], alone.sigma[:, 0])
            field = batch.field[:, b]
            assert np.array_equal(field, alone.field[:, 0])
            assert np.array_equal(field[:, -1], exits[b])
            assert np.array_equal(field[:, 0], member.envelope(grid.t))
        # an exit-only march returns the same exit fields
        assert np.array_equal(march(p, baseline_schedule, grid, members),
                              exits)

    @pytest.mark.parametrize("case, nz", [
        ("one_member", 64), ("mixed_stark", 63), ("cross", 48),
        ("cross_stark", 33), ("mixed_stark", 2)])
    def test_equals_reference_march(self, baseline_params, baseline_schedule,
                                    case, nz):
        # the buffered march keeps the arithmetic and order of the march
        # that allocates its stage arrays afresh: the rows it hands out
        # equal that march's whole records bit for bit, signed zeros
        # included, on even, odd and two-point grids
        p = baseline_params
        grid = Grid(nz=nz, nt=500, t_max=20.0, L=p.L)
        drive = apply_stark_drive(PulseSpec(0.8, 6.0, 1.0), p,
                                  detuning=p.delta3)
        schedule, cross = baseline_schedule, None
        if case == "one_member":
            members = mixed_members(p, None)[:1]
        elif case == "mixed_stark":
            members = mixed_members(p, drive)
        else:
            schedule = HOLD_SCHEDULE
            members, cross = held_pair(
                p, apply_stark_drive(PulseSpec(0.8, 9.0, 1.0), p,
                                     detuning=p.delta4)
                if case == "cross_stark" else None)
        got = FullRecords()
        exits = march(p, schedule, grid, members, cross, on_block=got)
        want = reference_march(p, schedule, grid, members, cross)
        for a, b in zip((exits, got.sigma, got.field), want):
            assert np.array_equal(a, b)
            assert a.tobytes() == b.tobytes()

    def test_steps_allocate_nothing(self, baseline_params, baseline_schedule,
                                    monkeypatch):
        # Every array a step writes exists before the first step: from the
        # first field march on, the traced peak grows by less than one
        # (B, nz) stage array (the NaN check and the final finiteness check
        # allocate less; the march that allocates per stage grows by 17).
        # Over the whole march the traced peak, less the exit fields it
        # returns, stays within its stage tables (a few (nt, 3, B) arrays)
        # and about 17 (B, nz) arrays: the stage buffers, a stage's
        # factors and the per-eta coefficients.
        p = baseline_params
        grid = Grid(nz=1024, nt=2001, t_max=20.0, L=p.L)
        drive = apply_stark_drive(PulseSpec(0.8, 6.0, 1.0), p,
                                  detuning=p.delta3)
        members = mixed_members(p, drive)[1:]
        field, before_steps = gem._slaved_field, []

        def marked_field(*args):
            if not before_steps:
                before_steps.extend(tracemalloc.get_traced_memory())
                tracemalloc.reset_peak()
            return field(*args)

        monkeypatch.setattr(gem, "_slaved_field", marked_field)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            exits = march(p, baseline_schedule, grid, members)
            peak_in_steps = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        at_first_step, peak_before = before_steps
        stage = len(members) * grid.nz * 16
        table = grid.nt * 3 * len(members) * 16
        kept = exits.nbytes
        assert peak_in_steps - at_first_step < stage
        assert (max(peak_before, peak_in_steps) - start - kept
                < 8 * table + 20 * stage)


class TestPolariton:
    def test_zero_records_zero_polariton(self, baseline_params):
        grid = Grid(nz=64, nt=16, t_max=1.0, L=baseline_params.L)
        z = np.zeros((16, 64), dtype=complex)
        _, psi = polariton_transform(z, z, baseline_params, grid)
        assert np.all(psi == 0)
        assert verify_fourier_relation(z[:1], z[:1], baseline_params,
                                       grid) == 0.0

    def test_plane_wave_peak(self, baseline_params):
        grid = Grid(nz=256, nt=4, t_max=1.0, L=baseline_params.L)
        k0 = 12 * TWO_PI / baseline_params.L
        window = np.exp(-((grid.z - 0.5) / 0.2) ** 2)
        coh = np.tile(window * np.exp(1j * k0 * grid.z), (4, 1))
        k, sk = spatial_spectrum(coh, grid)
        peak = k[np.argmax(np.abs(sk[0]))]
        assert abs(peak - k0) <= TWO_PI / baseline_params.L + 1e-9

    def test_k_axis_symmetric(self, baseline_records, baseline_params,
                              baseline_grid):
        k, _ = polariton_transform(baseline_records.sigma[:1],
                                   baseline_records.field[:1],
                                   baseline_params, baseline_grid)
        # every bin except the single Nyquist bin has its mirror
        nyquist = k.min()
        for kv in k:
            if kv != nyquist:
                assert np.any(np.isclose(k, -kv, atol=1e-12))

    def test_fourier_relation_during_storage(self, baseline_params,
                                             baseline_records, baseline_grid):
        sigma, field = baseline_records.sigma, baseline_records.field
        for t in (6.0, 6.5, 7.5):
            n = int(round(t / baseline_grid.dt))
            resid = verify_fourier_relation(sigma[n:n + 1], field[n:n + 1],
                                            baseline_params, baseline_grid)
            assert resid is not None and resid < 1e-2

    def test_row_subset_is_full_transform_rows(self, baseline_params,
                                               baseline_records,
                                               baseline_grid):
        # the diagnostics reduce the rows handed out a block at a time;
        # any run of rows transforms and peaks as the same rows of the
        # whole record, bit for bit
        sigma, field = baseline_records.sigma, baseline_records.field
        p, grid = baseline_params, baseline_grid
        k, psi = polariton_transform(sigma, field, p, grid)
        kk = peak_k_trajectory(k, psi)
        t = grid.t
        drift = np.flatnonzero((t >= 6.0) & (t <= 9.0))
        blocks = [slice(n0, n0 + BLOCK_ROWS)
                  for n0 in range(0, grid.nt, BLOCK_ROWS)]
        drift = slice(drift[0], drift[-1] + 1)
        for rows in [slice(1400, 1401), drift] + blocks:
            k_rows, psi_rows = polariton_transform(sigma[rows], field[rows],
                                                   p, grid)
            assert np.array_equal(k_rows, k)
            assert np.array_equal(psi_rows, psi[rows])
            assert np.array_equal(peak_k_trajectory(k, psi_rows), kk[rows])
        _, ek = spatial_spectrum(field, grid)
        _, sk = spatial_spectrum(sigma, grid)
        nonzero = k != 0.0
        for tv in (6.0, 6.5, 7.5):
            n = int(round(tv / grid.dt))
            weight = p.coupling_density * p.raman_ratio * 1.0
            lhs = k[nonzero] * ek[n, nonzero]
            rhs = weight * sk[n, nonzero]
            residual = float(np.max(np.abs(lhs - rhs))) / float(
                np.max(np.abs(rhs)))
            assert verify_fourier_relation(sigma[n:n + 1], field[n:n + 1],
                                           p, grid) == residual

    def test_peak_k_drift_rate(self, baseline_params, baseline_records,
                               baseline_grid):
        kk = peak_k_trajectory(*polariton_transform(
            baseline_records.sigma, baseline_records.field, baseline_params,
            baseline_grid))
        t = baseline_grid.t
        mask = (t >= 6.0) & (t <= 9.0)
        # with the exp(-ikz) transform the drift rate is -eta
        line = kk[mask][0] - 8.0 * (t[mask] - t[mask][0])
        dev = np.max(np.abs(kk[mask] - line))
        assert dev <= TWO_PI / baseline_params.L

    def test_peak_k_tie_rule_matches_loop(self):
        # exact +-k ties, near-ties inside and outside the 1e-9 band, and
        # all-zero rows on a spectrum of fig3b_double's size
        rng = np.random.default_rng(3)
        nt, nk = 8192, 256
        k = TWO_PI * np.fft.fftshift(np.fft.fftfreq(nk, d=1.0 / nk))
        spectrum = (rng.standard_normal((nt, nk))
                    + 1j * rng.standard_normal((nt, nk)))
        rows = np.arange(nt)
        low = rng.integers(1, nk // 2 - 1, nt)   # +k at nk/2 + low
        high = low + rng.integers(1, nk // 2 - low, nt)
        top = 10.0 + rng.random(nt)
        tie = rows % 4 == 0
        spectrum[tie, nk // 2 + low[tie]] = top[tie]
        spectrum[tie, nk // 2 - low[tie]] = -top[tie]
        near = rows % 4 == 1
        spectrum[near, nk // 2 + high[near]] = top[near]
        spectrum[near, nk // 2 - low[near]] = top[near] * (1.0 - 5e-10)
        far = rows % 4 == 2
        spectrum[far, nk // 2 + high[far]] = top[far]
        spectrum[far, nk // 2 - low[far]] = top[far] * (1.0 - 2e-9)
        spectrum[rows % 8 == 3] = 0.0
        kk = peak_k_trajectory(k, spectrum)
        assert np.array_equal(kk, peak_k_trajectory_loop(k, spectrum))
        assert np.array_equal(kk[tie], k[nk // 2 - low[tie]])
        assert np.array_equal(kk[near], k[nk // 2 - low[near]])
        assert np.array_equal(kk[far], k[nk // 2 + high[far]])
        assert np.all(kk[rows % 8 == 3] == 0.0)

    def test_coupling_off_signal(self, baseline_params, baseline_probe):
        # write, then switch the coupling off: the field must die and the
        # relation check must signal the off condition instead of a number
        sched = GradientSchedule(((0.0, 6.0, 8.0), (6.0, 14.0, 0.0)))
        coupling = PiecewiseConstant(((0.0, 6.0, 1.0), (6.0, 14.0, 0.0)))
        grid = Grid(nz=192, nt=3072, t_max=14.0, L=baseline_params.L)
        records = FullRecords()
        propagate(baseline_params, baseline_probe, sched, grid,
                  coupling=coupling, on_block=records)
        n = int(round(10.0 / grid.dt))
        assert verify_fourier_relation(
            records.sigma[n:n + 1], records.field[n:n + 1], baseline_params,
            grid, coupling.values(10.0)) is None
        t = grid.t
        hold = t >= 7.0
        peak_in = np.abs(baseline_probe.envelope(t)).max()
        assert np.abs(records.field[hold]).max() < 1e-6 * peak_in


class TestGroupVelocity:
    def test_scaling_law(self, baseline_params):
        v1 = group_velocity(10.0, baseline_params)
        v2 = group_velocity(20.0, baseline_params)
        assert v2 == pytest.approx(v1 / 4.0)

    def test_zero_coupling(self, baseline_params):
        p = dataclasses.replace(baseline_params, OmegaC=0.0)
        assert group_velocity(5.0, p) == 0.0

    def test_singular_at_zero(self, baseline_params):
        with pytest.raises(ValueError):
            group_velocity(0.0, baseline_params)

    def test_drift_matches_formula(self):
        # stop the polariton at large k so the bin quantisation and the
        # packet k-spread contribute little to the comparison
        p = EnsembleParams(calN=400.0)
        eta = TWO_PI * 255.0 / 256.0
        sched = GradientSchedule(((0.0, 20.0, eta), (20.0, 30.0, 0.0)))
        grid = Grid(nz=256, nt=8192, t_max=30.0, L=p.L)
        records = FullRecords()
        propagate(p, PulseSpec(1.0, 4.0, 2.0), sched, grid, on_block=records)
        t = grid.t
        mask = (t >= 21.0) & (t <= 29.5)
        kk = peak_k_trajectory(*polariton_transform(
            records.sigma[mask], records.field[mask], p, grid))
        assert kk.max() == kk.min()   # stopped in k-space
        w = np.abs(records.field) ** 2
        zc = (w * grid.z[None, :]).sum(axis=1) / np.maximum(
            w.sum(axis=1), 1e-300)
        slope = np.polyfit(t[mask], zc[mask], 1)[0]
        assert slope == pytest.approx(group_velocity(kk[0], p), rel=0.10)

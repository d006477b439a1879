"""Independent integrators for oracle checks, never part of the package.

* ``reference_storage_run`` solves the same storage equations as the
  production solver through a different path: scipy's adaptive RK45 on
  the stacked coherence vector, with its own field march.  Used to
  cross-check recall efficiencies.
* ``peak_k_trajectory_loop`` is the row-by-row form of
  ``gem.peak_k_trajectory``, with the same tie rule.
* ``evolve_rk4`` integrates the gate master equation with an explicit
  fourth-order step and a structured right-hand side (``lindblad_rhs``)
  that forms no superoperator, so it shares no arithmetic with the exact
  propagator exp(L t) that the gate engine uses.
* ``evolve_rk4_powered`` takes the same RK4 steps as ``evolve_rk4`` as
  powers of the one-step matrix, with L built column by column from
  ``lindblad_rhs`` (``dense_liouvillian``): the same discretisation for
  long runs at a fraction of the cost.
* ``dense_propagator`` is scipy's ``expm`` of that dense 784x784 L, the
  oracle for the gate engine's block-by-block propagator.
* ``kron_liouvillian`` builds the sparse L from ``scipy.sparse.kron``
  products of H and the jump operators, in the order of operations the
  gate engine's index-arithmetic build follows, so the two must agree
  entry for entry, bit for bit.
* ``reference_march`` is the storage engine's batched RK4 march as it
  stood before its stage buffers were preallocated (with its field march,
  ``_reference_field``): it allocates fresh arrays at every stage and
  keeps whole (nt, B, nz) records of sigma and of the field.
  ``gem.march`` keeps its arithmetic and order, so the rows it hands out
  and the records must agree bit for bit.
* ``FullRecords`` is a block consumer for ``gem.march`` and
  ``gem.propagate`` that keeps every row handed out, for the tests that
  read whole records.
* ``collapse_operators`` spells the decay channels out as dense jump
  operators, the textbook form ``lindblad_rhs`` is checked against.
* ``channel_from_map`` tabulates any two-qubit map on the matrix units,
  for channels with a known Choi state (dephasing, depolarising).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from gemxpm.errors import NumericalError
from gemxpm.gate import DECAY_CHANNELS, DIM, LEVELS, Trajectory, basis_index
from gemxpm.gem import _NAN_CHECK_STRIDE
from gemxpm.tomography import QUBIT_DIM, TwoQubitChannel


def reference_storage_run(params, envelope, schedule, nz=96, t_max=20.0,
                          n_eval=1200):
    z = np.linspace(0.0, params.L, nz)
    dz = z[1] - z[0]
    zeta = z - params.L / 2.0
    ratio = params.OmegaC / params.Delta
    kappa = params.g * params.calN

    def field_of(sigma, t):
        # trapezoid accumulation written independently of the package
        avg = 0.5 * (sigma[1:] + sigma[:-1]) * dz
        integral = np.concatenate(([0.0 + 0.0j], np.cumsum(avg)))
        return envelope(t) + 1j * kappa * ratio * integral

    def rhs(t, y):
        sigma = y[:nz] + 1j * y[nz:]
        e = field_of(sigma, t)
        dsig = (-(params.gamma0 + 1j * schedule.eta(t) * zeta) * sigma
                + 1j * ratio * e)
        return np.concatenate([dsig.real, dsig.imag])

    t_eval = np.linspace(0.0, t_max, n_eval)
    sol = solve_ivp(rhs, (0.0, t_max), np.zeros(2 * nz), t_eval=t_eval,
                    method="RK45", rtol=1e-7, atol=1e-9)
    assert sol.success, sol.message

    flip = schedule.flip_time()
    exit_intensity = np.empty(n_eval)
    for i, (t, y) in enumerate(zip(sol.t, sol.y.T)):
        sigma = y[:nz] + 1j * y[nz:]
        exit_intensity[i] = abs(field_of(sigma, t)[-1]) ** 2
    boundary = np.abs(envelope(sol.t)) ** 2
    w_in = sol.t < flip
    w_echo = ~w_in
    e_in = np.trapezoid(boundary[w_in], sol.t[w_in])
    e_echo = np.trapezoid(exit_intensity[w_echo], sol.t[w_echo])
    return {"efficiency": e_echo / e_in, "t": sol.t,
            "exit_intensity": exit_intensity}


def peak_k_trajectory_loop(k, spectrum):
    """Peak-|spectrum| k per row: ties within a relative 1e-9 of the row
    maximum go to the lowest |k|, then to the more negative k; an all-zero
    row gives 0."""
    mag = np.abs(spectrum)
    out = np.empty(mag.shape[0])
    order = np.lexsort((k, np.abs(k)))   # by |k|, then by k
    for n in range(mag.shape[0]):
        m = mag[n]
        top = m.max()
        if top == 0.0:
            out[n] = 0.0
            continue
        candidates = order[m[order] >= top * (1.0 - 1e-9)]
        out[n] = k[candidates[0]]
    return out


@lru_cache(maxsize=8)
def _decay_tables(gamma: float):
    """Precomputed tables for the structured dissipator.

    Returns (anti, jumps) with anti[i, j] = (r_i + r_j)/2 for the total
    decay rate r of each basis state, and jumps a list of
    (ground_slice, excited_slice, rate) block copies.
    """
    rate_of_level = {lev: 0.0 for lev in LEVELS}
    for _lo, hi, frac in DECAY_CHANNELS:
        rate_of_level[hi] += frac * gamma
    r = np.repeat([rate_of_level[lev] for lev in LEVELS], 4)
    anti = 0.5 * (r[:, None] + r[None, :])
    jumps = []
    for lo, hi, frac in DECAY_CHANNELS:
        a, b = LEVELS.index(lo), LEVELS.index(hi)
        jumps.append((slice(4 * a, 4 * a + 4), slice(4 * b, 4 * b + 4),
                      frac * gamma))
    return anti, tuple(jumps)


def collapse_operators(gamma: float):
    """Decay channels as (operator, rate) pairs on the full space."""
    ops = []
    for lo, hi, frac in DECAY_CHANNELS:
        c = np.zeros((DIM, DIM), dtype=complex)
        for n_p in (0, 1):
            for n_s in (0, 1):
                c[basis_index(lo, n_p, n_s), basis_index(hi, n_p, n_s)] = 1.0
        ops.append((c, frac * gamma))
    return ops


def lindblad_rhs(rho: np.ndarray, H: np.ndarray, gamma: float) -> np.ndarray:
    """d(rho)/dt = -i[H, rho] + sum_j gamma_j D[c_j] rho.

    The dissipator uses the fixed gate decay channels; the anticommutator
    part is diagonal in this basis and the jump part copies excited blocks
    into ground blocks, so no operator products are formed.
    """
    if rho.shape[-2:] != (DIM, DIM) or H.shape != (DIM, DIM):
        raise ValueError(
            f"dimension mismatch: rho {rho.shape}, H {H.shape}; expected "
            f"({DIM}, {DIM})")
    out = H @ rho
    out -= rho @ H
    out *= -1j
    if gamma != 0.0:
        anti, jumps = _decay_tables(gamma)
        out -= anti * rho
        for gsl, esl, rate in jumps:
            out[..., gsl, gsl] += rate * rho[..., esl, esl]
    return out


def channel_from_map(fn) -> TwoQubitChannel:
    """The channel whose image of each matrix unit |i><j| is fn(|i><j|)."""
    images = np.empty((QUBIT_DIM,) * 4, dtype=complex)
    for i in range(QUBIT_DIM):
        for j in range(QUBIT_DIM):
            unit = np.zeros((QUBIT_DIM, QUBIT_DIM), dtype=complex)
            unit[i, j] = 1.0
            images[i, j] = fn(unit)
    return TwoQubitChannel(images=images)


def dense_liouvillian(H: np.ndarray, gamma: float) -> np.ndarray:
    """Dense L with vec(d rho/dt) = L vec(rho) (row-major vec): column k is
    ``lindblad_rhs`` of the k-th matrix unit, so it shares no arithmetic
    with the gate engine's sparse L."""
    units = np.eye(DIM * DIM, dtype=complex).reshape(-1, DIM, DIM)
    return lindblad_rhs(units, H, gamma).reshape(DIM * DIM, DIM * DIM).T


def dense_propagator(H: np.ndarray, gamma: float, t: float) -> np.ndarray:
    """exp(L t) on vec(rho) as one dense 784x784 ``scipy.linalg.expm``."""
    return scipy.linalg.expm(dense_liouvillian(H, gamma) * t)


def kron_liouvillian(H: np.ndarray, gamma: float):
    """Sparse L with vec(d rho/dt) = L vec(rho) (row-major vec), as a CSR
    matrix, built from ``scipy.sparse.kron`` products."""
    eye = sp.eye_array(DIM)
    photons = np.arange(4)
    lv = -1j * (sp.kron(H, eye) - sp.kron(eye, H.T))
    for lo, hi, frac in DECAY_CHANNELS:
        # c = |lo><hi| on every photon state, at rate frac * gamma
        c = sp.csr_array((np.ones(4), (basis_index(lo, 0, 0) + photons,
                                       basis_index(hi, 0, 0) + photons)),
                         shape=(DIM, DIM))
        cdc = c.conj().T @ c
        lv += frac * gamma * (sp.kron(c, c.conj()) - 0.5 * (
            sp.kron(cdc, eye) + sp.kron(eye, cdc.T)))
    return sp.csr_array(lv)


def _step_scale(H: np.ndarray, gamma: float) -> float:
    diag = np.abs(np.diag(H)).max() if H.size else 0.0
    off = np.abs(H - np.diag(np.diag(H))).max()
    return max(diag, off, gamma)


def max_stable_dt(H: np.ndarray, gamma: float) -> float:
    """Largest admissible explicit step: 0.1 over the fastest Hamiltonian
    scale (max of |diagonal detunings|, |couplings|, gamma)."""
    scale = _step_scale(H, gamma)
    return math.inf if scale == 0.0 else 0.1 / scale


def _rhs_into(rho: np.ndarray, H: np.ndarray, tables, out: np.ndarray,
              tmp: np.ndarray) -> np.ndarray:
    """lindblad_rhs with preallocated buffers (hot path of the stepper)."""
    np.matmul(H, rho, out=out)
    np.matmul(rho, H, out=tmp)
    out -= tmp
    out *= -1j
    if tables is not None:
        anti, jumps = tables
        np.multiply(anti, rho, out=tmp)
        out -= tmp
        for gsl, esl, rate in jumps:
            out[gsl, gsl] += rate * rho[esl, esl]
    return out


def evolve_rk4(rho0: np.ndarray, H: np.ndarray, gamma: float,
               samples: np.ndarray, dt: float) -> Trajectory:
    """Classic RK4 from t = 0 to samples[-1] in equal steps of at most dt,
    re-symmetrising rho after every step and recording it at each of the
    sorted ``samples`` (which start at 0)."""
    t_end = samples[-1]
    n_steps = max(int(math.ceil(t_end / dt - 1e-12)), 1)
    h = t_end / n_steps
    states = np.empty((samples.size, DIM, DIM), dtype=complex)
    rho = rho0.astype(complex)
    tables = _decay_tables(gamma) if gamma != 0.0 else None
    k1, k2, k3, k4 = (np.empty((DIM, DIM), complex) for _ in range(4))
    work = np.empty((DIM, DIM), complex)
    tmp = np.empty((DIM, DIM), complex)
    next_sample = 0
    for n in range(n_steps + 1):
        t = n * h
        while (next_sample < samples.size
               and samples[next_sample] <= t + 0.5 * h):
            states[next_sample] = rho
            next_sample += 1
        if n == n_steps:
            break
        _rhs_into(rho, H, tables, k1, tmp)
        np.multiply(k1, 0.5 * h, out=work)
        work += rho
        _rhs_into(work, H, tables, k2, tmp)
        np.multiply(k2, 0.5 * h, out=work)
        work += rho
        _rhs_into(work, H, tables, k3, tmp)
        np.multiply(k3, h, out=work)
        work += rho
        _rhs_into(work, H, tables, k4, tmp)
        k2 += k3
        k2 *= 2.0
        k2 += k1
        k2 += k4
        k2 *= h / 6.0
        rho += k2
        np.conjugate(rho.T, out=tmp)
        rho += tmp
        rho *= 0.5
        if n % 64 == 0:
            tr = float(rho.trace().real)
            if abs(tr - 1.0) > 1e-6:
                raise NumericalError(
                    f"trace drifted to {tr:.9f} at t={t + h:.4f}; the step "
                    "size is too coarse for this generator")
    while next_sample < samples.size:
        states[next_sample] = rho
        next_sample += 1
    tr = float(rho.trace().real)
    if abs(tr - 1.0) > 1e-6:
        raise NumericalError(f"final trace {tr:.9f} outside tolerance")
    return Trajectory(times=samples, states=states)


def evolve_rk4_powered(rho0: np.ndarray, H: np.ndarray, gamma: float,
                       samples: np.ndarray, dt: float) -> Trajectory:
    """``evolve_rk4``'s steps and samples as powers of one step matrix.

    The generator L is constant, so an RK4 step of size h is the matrix
    R = I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24 on vec(rho), and the
    state n steps on is R^n vec(rho0).  Step count, step size and the
    step each sample is recorded at are ``evolve_rk4``'s; only its
    per-step re-symmetrisation of rho, a round-off correction, is left
    out.  L is built column by column from ``lindblad_rhs``, so it shares
    no arithmetic with the gate engine's Liouvillian.
    """
    t_end = samples[-1]
    n_steps = max(int(math.ceil(t_end / dt - 1e-12)), 1)
    h = t_end / n_steps
    # evolve_rk4 records each sample at the first step n with s <= (n + 1/2) h
    at = np.minimum(np.searchsorted(np.arange(n_steps + 1) * h + 0.5 * h,
                                    samples), n_steps)
    hl = h * dense_liouvillian(H, gamma)
    eye = np.eye(DIM * DIM)
    step = eye + hl @ (eye + hl / 2 @ (eye + hl / 3 @ (eye + hl / 4)))
    gaps = np.diff(at, prepend=0)
    least = int(min(gaps[gaps > 0], default=0))
    power = np.linalg.matrix_power(step, least)
    vec = rho0.astype(complex).reshape(-1)
    states = np.empty((samples.size, DIM, DIM), dtype=complex)
    for i, gap in enumerate(gaps):
        if gap:
            vec = power @ vec
            for _ in range(gap - least):   # gaps differ by a step or so
                vec = step @ vec
        states[i] = vec.reshape(DIM, DIM)
    return Trajectory(times=samples, states=states)


def _reference_field(sigma, dz, source, boundary):
    """E(z) = E(0) + source * (trapezoid integral of sigma over [0, z]),
    with fresh arrays on every call."""
    cum = np.zeros_like(sigma)
    np.cumsum(sigma[..., 1:] + sigma[..., :-1], axis=-1, out=cum[..., 1:])
    cum[..., 1:] *= 0.5 * dz
    e = cum * source
    e += boundary
    return e


class FullRecords:
    """Block consumer that copies every row a march hands out: after the
    run, ``sigma`` and ``field`` are the whole records, (nt, B, nz) from
    ``gem.march`` and (nt, nz) from ``gem.propagate``."""

    def __init__(self):
        self.blocks = []

    def __call__(self, n0, sigma, field):
        assert n0 == sum(len(s) for s, _ in self.blocks)
        self.blocks.append((sigma.copy(), field.copy()))

    @property
    def sigma(self):
        return np.concatenate([s for s, _ in self.blocks])

    @property
    def field(self):
        return np.concatenate([e for _, e in self.blocks])


def reference_march(params, schedule, grid, members, cross=None):
    """Advance a (B, nz) stack of coherences, one row per member, by RK4
    steps with the slaved field marched along z at every stage, and return
    (exit fields (B, nt), sigma (nt, B, nz), field (nt, B, nz)).  What
    depends on time alone is tabulated once on the stage times t_n,
    t_n + dt/2, t_n + dt.  Each row repeats the arithmetic of a one-member
    march in the same order, so its records do not depend on the batch.
    Step-size checks are the caller's; NumericalError on non-finite state.
    """
    nz, nt, dz, dt = grid.nz, grid.nt, grid.dz, grid.dt
    stage_t = grid.t[:, None] + np.array([0.0, 0.5 * dt, dt])

    def table(values):   # (nt, 3, B, 1): one column per member
        return np.stack([values(m) for m in members], axis=-1)[..., None]

    mult = table(lambda m: m.coupling.values(stage_t) if m.coupling
                 else np.ones_like(stage_t))
    env = table(lambda m: m.envelope(stage_t))
    ratio = np.array([m.ratio for m in members])[:, None]
    src = (1j * params.coupling_density * ratio) * mult
    gain = (1j * ratio) * mult
    decay0 = np.array([params.gamma0 + m.extra_decay for m in members])
    stark = any(m.stark is not None for m in members)
    if stark:
        loss = table(lambda m: m.stark.c_loss * m.stark.intensity(stage_t)
                     if m.stark else 0.0 * stage_t)[..., 0]
        ac = table(lambda m: m.stark.c_shift * m.stark.intensity(stage_t)
                   if m.stark else 0.0 * stage_t)
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

    def coefficient(n, s, e):
        # -(decay + i*shift), the sigma-diagonal part of the RHS
        if not (stark or driven[n, s]):
            return fixed[which[n, s]]
        decay, shift = decay0, eta_zeta[which[n, s]]
        if stark:
            decay, shift = decay + loss[n, s], shift + ac[n, s]
        rate = decay[:, None] + 1j * shift
        if driven[n, s]:
            b, drive = cross.target, np.abs(e[cross.source]) ** 2
            rate[b] = ((decay[b] + cross.c_loss * drive)
                       + 1j * (shift[b] + cross.c_shift * drive))
        return -rate

    sigma_t, field_t = np.empty((2, nt, len(members), nz), dtype=complex)
    exit_t = np.empty((len(members), nt), dtype=complex)
    sig = np.zeros((len(members), nz), dtype=complex)
    for n in range(nt):
        e1 = _reference_field(sig, dz, src[n, 0], env[n, 0])
        sigma_t[n], field_t[n] = sig, e1
        exit_t[:, n] = e1[:, -1]
        if n == nt - 1:
            break
        k1 = coefficient(n, 0, e1) * sig + gain[n, 0] * e1
        s2 = sig + (0.5 * dt) * k1
        e2 = _reference_field(s2, dz, src[n, 1], env[n, 1])
        a2 = coefficient(n, 1, e2)
        k2 = a2 * s2 + gain[n, 1] * e2
        s3 = sig + (0.5 * dt) * k2
        e3 = _reference_field(s3, dz, src[n, 1], env[n, 1])
        a3 = coefficient(n, 1, e3) if driven[n, 1] else a2
        k3 = a3 * s3 + gain[n, 1] * e3
        s4 = sig + dt * k3
        e4 = _reference_field(s4, dz, src[n, 2], env[n, 2])
        k4 = coefficient(n, 2, e4) * s4 + gain[n, 2] * e4
        sig = sig + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if n % _NAN_CHECK_STRIDE == 0 and not np.all(np.isfinite(sig.view(float))):
            raise NumericalError(
                f"non-finite coherence at t={stage_t[n, 2]:.4f} (step {n + 1}); "
                "reduce dt or check the drive for singular values")
    if not all(np.all(np.isfinite(rec.view(float)))
               for rec in (exit_t, sigma_t, field_t)):
        raise NumericalError("non-finite values in the stored trajectory")
    return exit_t, sigma_t, field_t

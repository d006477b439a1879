"""Master-equation engine for the two-photon gate on a truncated
atom (x) photon Hilbert space.

The ensemble is modelled as one effective emitter with seven levels
(|1>, |2>, |3>, |4> and the primed triple |1'>, |2'>, |3'>) and two
photon modes (p for the probe, s for the signal), each truncated to
occupation {0, 1}.  Total dimension 28.  Basis ordering is atomic-major
and stable:

    basis_index(level, n_p, n_s) = 4*level_index + 2*n_p + n_s,

with level order (|1>, |2>, |3>, |4>, |1'>, |2'>, |3'>).  ``QUBIT_BASIS``
holds the indices of the gate's two-qubit basis, read by the fidelity
projection here and by the channel tomography.

The Hamiltonian (rotating frame, detunings on the excited diagonals) is

    H = g13*a_p*|3><1| + OmegaC*|3><2| + g24*a_s*|4><2|
        + g1p3p*a_s*|3'><1'| + OmegaCPrime*|3'><2'| + h.c.
        + Delta*P3 + DeltaPrime*P3' + delta4*P4.

Spontaneous decay: each excited level decays at total rate gamma, split
equally among its listed ground channels (|3> -> |1>,|2>; |4> -> |2>;
|3'> -> |1'>,|2'>).

The master equation d(rho)/dt = L rho has a constant 784x784 Liouvillian
L, so every time evolution here is exact: rho(t) = exp(L t) rho(0).  L is
sparse and is built by index arithmetic on H's nonzeros and the decay
channels.  It splits into small weakly connected blocks, and ``propagator``
builds exp(L t) on the blocks that the state it acts on, or its adjoint,
reaches (12 of 149 for ``initial_state()``): each is pre-scaled, takes
one Pade-13 step and is squared back, one numpy stack per block width.
The engine needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import NumericalError, ProjectionError, UndefinedPhaseError

LEVELS: Tuple[str, ...] = ("1", "2", "3", "4", "1p", "2p", "3p")
N_LEVELS = 7
DIM = 28

#: (ground, excited, fraction of gamma) decay channels.
DECAY_CHANNELS: Tuple[Tuple[str, str, float], ...] = (
    ("1", "3", 0.5),
    ("2", "3", 0.5),
    ("2", "4", 1.0),
    ("1p", "3p", 0.5),
    ("2p", "3p", 0.5),
)


def basis_index(level: str, n_p: int, n_s: int) -> int:
    """Index of |level, n_p, n_s> in the atomic-major basis."""
    if n_p not in (0, 1) or n_s not in (0, 1):
        raise ValueError("photon occupations are truncated to {0, 1}")
    return 4 * LEVELS.index(level) + 2 * n_p + n_s


#: Indices of the two-qubit basis, s-major (|0s,1>, |0s,2>, |1s,1>,
#: |1s,2>), all with no p photon.
QUBIT_BASIS: Tuple[int, ...] = tuple(
    basis_index(level, 0, n_s) for n_s in (0, 1) for level in ("1", "2"))


@dataclass(frozen=True)
class GateParams:
    """Gate simulation parameters.

    Defaults are the reference working point: OmegaC = OmegaCPrime = 20,
    Delta = DeltaPrime = 30*OmegaC, delta4 = 20, g = 0.085, N = 1e7 (all
    rates in units of gamma).  The couplings g13, g1p3p and g24 derive
    from these.
    """

    gamma: float = 1.0
    OmegaC: float = 20.0
    OmegaCPrime: float = 20.0
    Delta: float = 600.0
    DeltaPrime: float = 600.0
    delta4: float = 20.0
    g: float = 0.085
    N: float = 1.0e7
    stored_signal_coupling: bool = False

    def __post_init__(self):
        for name in ("gamma", "OmegaC", "OmegaCPrime", "Delta", "DeltaPrime",
                     "delta4", "g", "N"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def g13(self) -> float:
        """Collective coupling g*sqrt(N), on |1'> -> |3'> too (g1p3p)."""
        return self.g * math.sqrt(self.N)

    g1p3p = g13

    @property
    def g24(self) -> float:
        """Coupling of mode s on |2> -> |4>: g, or with
        ``stored_signal_coupling`` the probe-facing Rabi frequency of the
        *stored* signal photon.

        A signal excitation held as a dark polariton of the primed system
        keeps only the photonic amplitude OmegaCPrime/sqrt(g1p3p^2 +
        OmegaCPrime^2) of a bare photon, so the coupling that drives the
        |2> -> |4> light shift is reduced by that factor.  This is how the
        bandwidth-gamma signal photon enters the gate window once it has
        been mapped into the memory.
        """
        if not self.stored_signal_coupling:
            return self.g
        w = math.hypot(self.g1p3p, self.OmegaCPrime)
        return self.g * (self.OmegaCPrime / w if w > 0 else 0.0)


def build_hamiltonian(params: GateParams) -> np.ndarray:
    """Assemble the 28x28 rotating-frame Hamiltonian."""
    h = np.zeros((DIM, DIM), dtype=complex)
    idx = basis_index

    def raman(coupling: float, lower: str, upper: str) -> None:
        # coupling * |upper><lower| summed over photon occupations + h.c.
        for n_p in (0, 1):
            for n_s in (0, 1):
                h[idx(upper, n_p, n_s), idx(lower, n_p, n_s)] += coupling

    def photon_p(coupling: float, lower: str, upper: str) -> None:
        # coupling * a_p * |upper><lower| + h.c.
        for n_s in (0, 1):
            h[idx(upper, 0, n_s), idx(lower, 1, n_s)] += coupling

    def photon_s(coupling: float, lower: str, upper: str) -> None:
        for n_p in (0, 1):
            h[idx(upper, n_p, 0), idx(lower, n_p, 1)] += coupling

    photon_p(params.g13, "1", "3")
    raman(params.OmegaC, "2", "3")
    photon_s(params.g24, "2", "4")
    photon_s(params.g1p3p, "1p", "3p")
    raman(params.OmegaCPrime, "2p", "3p")
    h += h.conj().T

    for n_p in (0, 1):
        for n_s in (0, 1):
            h[idx("3", n_p, n_s), idx("3", n_p, n_s)] += params.Delta
            h[idx("3p", n_p, n_s), idx("3p", n_p, n_s)] += params.DeltaPrime
            h[idx("4", n_p, n_s), idx("4", n_p, n_s)] += params.delta4
    return h


def initial_state() -> np.ndarray:
    """Joint initial state: the atomic mixture of a primed reservoir and a
    ground-state qubit coherence, with no p photon and an s-photon qubit.

    rho_at = (|1'><1'| + |psi0><psi0|)/2 with psi0 = (|1> + |2>)/sqrt(2);
    rho_ph = |0_p><0_p| (x) |psi_s><psi_s| with psi_s = (|0_s> + |1_s>)/sqrt(2).
    """
    rho_at = np.zeros((N_LEVELS, N_LEVELS), dtype=complex)
    i1, i2, i1p = (LEVELS.index(s) for s in ("1", "2", "1p"))
    rho_at[i1p, i1p] = 0.5
    for a in (i1, i2):
        for b in (i1, i2):
            rho_at[a, b] += 0.25
    rho_p = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    rho_s = 0.5 * np.ones((2, 2), dtype=complex)
    return np.kron(rho_at, np.kron(rho_p, rho_s))


@dataclass(frozen=True)
class Trajectory:
    """Sampled density-operator trajectory."""

    times: np.ndarray            # (n,)
    states: np.ndarray           # (n, DIM, DIM)
    blocks: Optional[Dict[str, int]] = None   # its propagator's structure

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def evolve(rho0: np.ndarray, H: np.ndarray, gamma: float, t_end: float,
           n_samples: int = 2) -> Trajectory:
    """Evolve rho0 under the master equation, sampled at
    np.linspace(0, t_end, n_samples).

    The solution is exact: one propagator exp(L*t_end/(n_samples - 1)) is
    built and applied between consecutive samples, each application
    followed by re-symmetrisation (rho <- (rho + rho^dagger)/2).  Raises
    NumericalError when |Tr(rho) - 1| > 1e-6 at any sample.
    """
    if rho0.shape != (DIM, DIM):
        raise ValueError(f"rho0 must be ({DIM}, {DIM}), got {rho0.shape}")
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    times = np.linspace(0.0, t_end, n_samples)
    states = np.empty((n_samples, DIM, DIM), dtype=complex)
    rho = rho0.astype(complex)
    for i, t in enumerate(times):
        if i == 1:   # after rho0's trace check, so a bad rho0 costs no expm
            prop = propagator(H, gamma, t_end / (n_samples - 1), rho0)
        if i:
            rho = apply_propagator(prop, rho)
        tr = float(rho.trace().real)
        if not abs(tr - 1.0) <= 1e-6:   # NaN fails too
            raise NumericalError(f"trace drifted to {tr:.9f} at t={t:.4f}")
        states[i] = rho
    return Trajectory(times=times, states=states, blocks=prop.structure)


#: Row and column indices of the coherences <1,n_p,n_s| rho |2,n_p,n_s>,
#: n_s along the first axis and n_p along the second.
_COHERENCES = tuple(np.array([[basis_index(level, n_p, n_s) for n_p in (0, 1)]
                              for n_s in (0, 1)]) for level in ("1", "2"))
#: Row and column indices of the block rho[QUBIT_BASIS, QUBIT_BASIS].
_QUBIT_BLOCK = np.ix_(QUBIT_BASIS, QUBIT_BASIS)


def _coherences(rho: np.ndarray) -> np.ndarray:
    """The p-traced coherences <1,n_s| rho~ |2,n_s>, n_s = 0, 1, on the
    last axis, of one rho or a stack of them."""
    return np.asarray(rho)[(..., *_COHERENCES)].sum(axis=-1)


def _phase_defined(c: np.ndarray) -> np.ndarray:
    """Whether both coherences of c are finite and at least 1e-14 (NaN
    fails)."""
    return ((1e-14 <= np.abs(c)) & (np.abs(c) < math.inf)).all(axis=-1)


def conditional_phase(rho: np.ndarray) -> float:
    """Phase of the |1><2| coherence conditioned on the s-photon number,
    referenced to the zero-photon branch, with the p mode traced out:

        phi = arg<1,1_s| rho~ |2,1_s> - arg<1,0_s| rho~ |2,0_s>,

    where <1,n_s| rho~ |2,n_s> = sum over n_p of <1,n_p,n_s| rho |2,n_p,n_s>.

    Raises UndefinedPhaseError when either conditional coherence magnitude
    falls below 1e-14 or is not finite.
    """
    c0, c1 = c = _coherences(rho)
    if not _phase_defined(c):
        raise UndefinedPhaseError(
            f"conditional coherences not finite or below 1e-14 "
            f"(|c0|={abs(c0):.3e}, |c1|={abs(c1):.3e})")
    return float(np.angle(c1 * np.conj(c0)))


def two_qubit_block(rho: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Project onto the two-qubit subspace: s occupation (x) atomic
    {|1>, |2>}, with no p photon.

    Returns the unnormalised 4x4 block on ``QUBIT_BASIS`` and its weight,
    for one rho or each of a stack.  Weight left in p = 1 states, excited
    levels, or the primed sector counts as leakage.
    """
    q = np.asarray(rho)[(..., *_QUBIT_BLOCK)]
    return q, np.trace(q, axis1=-2, axis2=-1).real


def ideal_image_state(phi: float) -> np.ndarray:
    """Two-qubit state a perfect controlled-phase gate of measured
    conditional phase ``phi`` produces from the initial product state (one
    per entry of an array ``phi``, on the last axis).

    The gate multiplies the |1_s, 2> amplitude by exp(-i*phi) so that
    conditional_phase applied to the image reproduces phi.
    """
    psi = np.full(np.shape(phi) + (4,), 0.5 + 0j)
    psi[..., 3] *= np.exp(-1j * np.asarray(phi))
    return psi


def _overlap(q: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Re <psi|q|psi> with psi = ideal_image_state(phi), for a 4x4 block q
    or a stack of them."""
    psi = ideal_image_state(phi)
    return np.real(psi.conj()[..., None, :] @ q @ psi[..., None])[..., 0, 0]


def gate_fidelity(rho: np.ndarray, phi: float) -> float:
    """Overlap of the projected two-qubit state with the ideal
    controlled-phase image at conditional phase ``phi``.

    Raises ProjectionError when less than 1e-6 of the weight survives the
    projection onto the qubit subspace.
    """
    q, weight = two_qubit_block(rho)
    if weight < 1e-6:
        raise ProjectionError(
            f"projection weight {weight:.3e}; state left the qubit subspace")
    return float(_overlap(q / weight, phi))


@dataclass(frozen=True)
class PhaseTrace:
    """Conditional phase and gate fidelity versus interaction time."""

    times: np.ndarray
    phi: np.ndarray
    fidelity: np.ndarray
    max_trace_drift: float      # max |Tr(rho) - 1| over the samples
    min_eigenvalue: float       # lambda_min of the final rho
    blocks: Dict[str, int]      # the propagator's ``structure``


def phase_trace(params: GateParams, t_end: float,
                n_samples: int) -> PhaseTrace:
    """Run the gate from the standard initial state and trace phi(t), F(t)
    on np.linspace(0, t_end, n_samples).

    phi and F are taken over the whole trajectory at once; a sample where
    either is undefined raises what ``conditional_phase`` or
    ``gate_fidelity`` raises on it, at the first such sample.
    """
    H = build_hamiltonian(params)
    traj = evolve(initial_state(), H, params.gamma, t_end, n_samples)
    c = _coherences(traj.states)
    q, weight = two_qubit_block(traj.states)
    defined = _phase_defined(c) & ~(weight < 1e-6)
    if not defined.all():
        rho = traj.states[np.argmin(defined)]
        gate_fidelity(rho, conditional_phase(rho))
    phis = np.angle(c[:, 1] * np.conj(c[:, 0]))
    fids = _overlap(q / weight[:, None, None], phis)
    drift = np.abs(np.trace(traj.states, axis1=1, axis2=2) - 1.0).max()
    return PhaseTrace(times=traj.times, phi=phis, fidelity=fids,
                      max_trace_drift=float(drift),
                      min_eigenvalue=float(np.linalg.eigvalsh(traj.final)[0]),
                      blocks=traj.blocks)


def liouvillian_matrix(H: np.ndarray, gamma: float
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Superoperator L with vec(d rho/dt) = L vec(rho) (row-major vec), as
    the (row, col, value) arrays of its nonzeros in row-major order.

    Each term's entries are placed by index arithmetic on H's nonzeros and
    the ``DECAY_CHANNELS``, then summed entry by entry in the order
    -i*(H (x) 1 - 1 (x) H^T), then each channel's
    frac*gamma*(c (x) c* - (c^dag c (x) 1 + 1 (x) (c^dag c)^T)/2).
    """
    n = DIM * DIM
    every = np.arange(DIM)[:, None]
    photons = np.arange(4)

    def at(a, b, x, y):
        # flat position of the entry at row a*DIM + b, column x*DIM + y
        return np.ravel((a * DIM + b) * n + x * DIM + y)

    r, c = np.nonzero(H)
    h = np.tile(H[r, c], DIM)
    terms = [at(r, every, c, every), at(every, c, every, r)]
    for lo, hi, _ in DECAY_CHANNELS:
        # c = |lo><hi| on every photon state
        lo, hi = (basis_index(level, 0, 0) + photons for level in (lo, hi))
        terms += [at(lo[:, None], lo, hi[:, None], hi),
                  at(hi[:, None], every.T, hi[:, None], every.T),
                  at(every, hi, every, hi)]
    keys, slot = np.unique(np.concatenate(terms), return_inverse=True)
    slots = np.split(slot, np.cumsum([term.size for term in terms])[:-1])

    def spread(i, values):
        # term i's values on every entry of L, zero where it has none
        out = np.zeros(keys.size, np.result_type(values))
        out[slots[i]] = values
        return out

    lv = (spread(0, h) - spread(1, h)) * -1j
    for i, (_, _, frac) in enumerate(DECAY_CHANNELS):
        cc, cdc, cdct = (spread(i * 3 + k, 1.0) for k in (2, 3, 4))
        lv = lv + frac * gamma * (cc - 0.5 * (cdc + cdct))
    nonzero = lv != 0
    return (*np.divmod(keys[nonzero], n), lv[nonzero])


def _block_labels(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Each of n nodes labelled by the least node of its weakly connected
    block in the graph with edges (rows, cols)."""
    label = np.arange(n)
    while True:
        low = np.minimum(label[rows], label[cols])
        new = label.copy()
        np.minimum.at(new, rows, low)
        np.minimum.at(new, cols, low)
        new = new[new]   # a label is a node of the same block, not above it
        if np.array_equal(new, label):
            return label
        label = new


#: Coefficients b_0 .. b_13 of the [13/13] Pade approximant of exp.
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)


def _pade13(a: np.ndarray) -> np.ndarray:
    """[13/13] Pade approximant r = (V - U)^-1 (V + U) of exp(a), for each
    matrix of the stack ``a``, taken as r = I + 2 (V - U)^-1 U.

    The identity split keeps the solve's rounding relative to r - I, small
    for a scaled block, rather than to r, so the squarings that follow do
    not amplify it (Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179).
    """
    b = _PADE13
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, 2.0 * u)
    diagonal = np.arange(a.shape[-1])
    r[..., diagonal, diagonal] += 1.0
    return r


def _expm(a: np.ndarray, t: float) -> Tuple[np.ndarray, np.ndarray]:
    """exp of each matrix of the stack ``a`` = L's blocks times t, and the
    number of squarings s of each.

    A block is scaled by 2^-s, the least s >= 0 that brings its 1-norm
    below 4.25, where the Pade-13 step is accurate to double precision
    (Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31 (2009) 970); the
    step is then squared s times.  Raises NumericalError when a block's
    norm or exponential is not finite, at the first square that is not.
    """
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    if not np.isfinite(norm).all():
        raise NumericalError(f"exp(L*t) is not finite at t={t:.6g}")
    s = np.maximum(0, np.frexp(norm / 4.25)[1])
    e = _pade13(a * np.ldexp(1.0, -s)[:, None, None])
    square = 0
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        while np.isfinite(e).all():
            if square == s.max():
                return e, s
            live = s > square
            e[live] = e[live] @ e[live]
            square += 1
    raise NumericalError(f"exp(L*t) is not finite at t={t:.6g} (square "
                         f"{square} of {s.max()})")


@dataclass(frozen=True)
class Propagator:
    """exp(L t) on vec(rho), exact on the blocks of L a state reaches and
    zero on the others.

    ``blocks[b]`` is the exponential of L's block on the vec indices
    ``members[b]``, in increasing order, zero-padded to the widest reached
    block; padding indexes the slot DIM*DIM, one past vec(rho).
    """

    members: np.ndarray      # (reached, width) int
    blocks: np.ndarray       # (reached, width, width) complex
    squarings: np.ndarray    # (reached,) the s of each block
    n_blocks: int            # weakly connected blocks of L

    def __matmul__(self, vec: np.ndarray) -> np.ndarray:
        """exp(L t) vec for vec of shape (DIM*DIM,) or (DIM*DIM, k): one
        gather and one batched matmul over the padded blocks."""
        padded = np.zeros((DIM * DIM + 1, vec.size // (DIM * DIM)), complex)
        padded[:-1] = vec.reshape(DIM * DIM, -1)
        out = np.zeros_like(padded)
        out[self.members] = self.blocks @ padded[self.members]
        return out[:-1].reshape(vec.shape)

    @property
    def structure(self) -> Dict[str, int]:
        """Blocks of L, blocks reached, the widest reached block's width
        and the most squarings a reached block took."""
        return {"liouvillian_blocks": self.n_blocks,
                "reached_blocks": len(self.members),
                "widest_reached_block": self.members.shape[1],
                "max_squarings": int(self.squarings.max(initial=0))}


def propagator(H: np.ndarray, gamma: float, t: float,
               rho: np.ndarray) -> Propagator:
    """exp(L t) on the blocks of L that ``rho`` or rho^dagger reaches.

    L couples vec(rho) only within its weakly connected blocks (149 at the
    reference parameters, the largest 42 wide), so exp(L t) is one
    exponential per block (``_expm``), taken in one stack per block width;
    no 784x784 array is formed.  rho^dagger's blocks are those
    ``apply_propagator``'s re-symmetrisation moves weight into, so the
    result serves every step of an evolution from ``rho``.  Raises
    NumericalError when t*L or a block's exponential is not finite.
    """
    n = DIM * DIM
    rows, cols, values = liouvillian_matrix(H, gamma)
    _, block = np.unique(_block_labels(rows, cols, n), return_inverse=True)
    sizes = np.bincount(block)
    reached = np.unique(block.reshape(DIM, DIM)[abs(rho) + abs(rho).T != 0])
    slot = np.full(sizes.size, -1)
    slot[reached] = np.arange(reached.size)
    # each index's place among its block's members, in increasing order
    order = np.argsort(block, kind="stable")
    place = np.empty(n, int)
    place[order] = np.arange(n) - (np.cumsum(sizes) - sizes)[block[order]]
    widths = sizes[reached]
    members = np.full((reached.size, widths.max(initial=0)), n)
    mine = np.flatnonzero(slot[block] >= 0)
    members[slot[block[mine]], place[mine]] = mine
    a = np.zeros(members.shape + members.shape[1:], complex)
    mine = slot[block[rows]] >= 0
    a[slot[block[rows[mine]]], place[rows[mine]], place[cols[mine]]] = \
        values[mine] * t
    blocks = np.zeros_like(a)
    squarings = np.zeros(reached.size, int)
    for width in np.unique(widths):
        pick = np.flatnonzero(widths == width)
        blocks[pick, :width, :width], squarings[pick] = _expm(
            a[pick, :width, :width], t)
    return Propagator(members, blocks, squarings, sizes.size)


def apply_propagator(prop: Propagator, rho: np.ndarray) -> np.ndarray:
    """``propagator``'s exp(L t) applied to rho, then re-symmetrised."""
    out = (prop @ rho.reshape(-1)).reshape(DIM, DIM)
    return 0.5 * (out + out.conj().T)

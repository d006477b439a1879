"""Process tomography of the two-qubit gate channel.

The channel maps 4x4 operators on (photonic s-qubit) (x) (polaritonic
qubit {|1>, |2>}) through the full 28-dimensional master equation: embed
with no p photon and empty primed levels, evolve for the gate time with
the exact block-diagonal propagator, trace out the p mode, and project the
atomic sector back onto {|1>, |2>}.  Weight lost from the qubit subspace
is reported as leakage; the map itself stays trace-decreasing.

The Choi matrix is normalised as a state (trace one) by the channel's mean
basis survival s:

    chi = (1/(4 s)) * sum_ij |i><j| (x) Lambda(|i><j|),

so the process fidelity against an ideal gate is the state overlap
Tr(chi_ideal . chi) in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .errors import LeakageError, NumericalError
from .gate import (DIM, QUBIT_BASIS, GateParams, apply_propagator,
                   build_hamiltonian, conditional_phase, initial_state,
                   propagator)

QUBIT_DIM = 4
#: Largest leakage of a pure input tomography accepts (else LeakageError).
LEAKAGE_LIMIT = 0.2


@dataclass(frozen=True)
class TwoQubitChannel:
    """Linear map on two-qubit operators, tabulated on the matrix-unit
    basis: images[i, j] = Lambda(|i><j|)."""

    images: np.ndarray                      # (4, 4, 4, 4) complex
    leakage: Optional[Dict[str, float]] = None   # per basis input e0..e3
    max_leakage: float = 0.0        # worst case over all pure inputs
    phase: Optional[float] = None   # conditional phase of initial_state()
    mean_survival: float = 1.0      # mean Tr Lambda(|i><i|) over e0..e3
    blocks: Optional[Dict[str, int]] = None   # its propagator's structure

    def apply(self, m: np.ndarray) -> np.ndarray:
        m = np.asarray(m, dtype=complex)
        if m.shape != (QUBIT_DIM, QUBIT_DIM):
            raise ValueError(f"input must be 4x4, got {m.shape}")
        return np.einsum("ij,ijkl->kl", m, self.images)

    @classmethod
    def from_unitary(cls, u: np.ndarray) -> "TwoQubitChannel":
        u = np.asarray(u, dtype=complex)
        images = np.einsum("ki,lj->ijkl", u, u.conj())
        return cls(images=images)

    @classmethod
    def identity(cls) -> "TwoQubitChannel":
        return cls.from_unitary(np.eye(QUBIT_DIM))


def channel_from_gate(params: GateParams, t_gate: float) -> TwoQubitChannel:
    """Tomograph the gate channel at interaction time ``t_gate``.

    One propagator P = exp(L*t_gate) maps each embedded operator X to
    (P vec(X) + (P vec(X^dagger))^dagger) / 2, the Hermiticity-preserving
    form of P vec(X), projected back onto the qubit subspace.  For the
    matrix units that projection is read straight off P: the 16x16 block of
    its rows and columns at the embedded qubit pairs, all inside the support
    of the reference initial state that P is built for; P also gives that
    state's conditional phase, carried as ``phase``.

    Leakage comes from the survival matrix S[j, i] = Tr Lambda(|i><j|),
    with Tr Lambda(rho) = Tr(S rho): ``leakage`` holds 1 - S[i, i] for the
    four basis inputs e0..e3, ``max_leakage`` the worst case over every
    pure input, 1 - lambda_min((S + S^dagger)/2), and ``mean_survival`` the
    mean of S[i, i].  The images are the honest trace-decreasing map.

    Raises LeakageError when some pure input leaves more than
    ``LEAKAGE_LIMIT`` of its weight outside the qubit subspace.
    """
    if t_gate <= 0:
        raise ValueError("t_gate must be positive")
    rho0 = initial_state()
    prop = propagator(build_hamiltonian(params), params.gamma, t_gate, rho0)
    # vec index of each embedded pair |a><b|; block[k, l, i, j] is entry
    # (k, l) of P vec(|i><j|), and |i><j|^dagger = |j><i|
    pairs = np.add.outer(np.multiply(QUBIT_BASIS, DIM), QUBIT_BASIS).ravel()
    units = np.zeros((DIM * DIM, pairs.size))
    units[pairs, np.arange(pairs.size)] = 1.0
    block = (prop @ units)[pairs].reshape((QUBIT_DIM,) * 4)
    images = 0.5 * (block + block.transpose(1, 0, 3, 2).conj())
    images = images.transpose(2, 3, 0, 1)
    survival = np.trace(images, axis1=2, axis2=3).T
    leakage = {f"e{i}": 1.0 - float(survival[i, i].real)
               for i in range(QUBIT_DIM)}
    worst = 1.0 - float(np.linalg.eigvalsh(
        0.5 * (survival + survival.conj().T)).min())
    if worst > LEAKAGE_LIMIT:
        report = ", ".join(f"{k}: {v:.3f}" for k, v in leakage.items())
        raise LeakageError(
            f"channel leaks up to {worst:.1%} of a pure input out of the "
            f"qubit subspace (limit {LEAKAGE_LIMIT:.0%}); basis-input "
            f"leakage: {report}", leakage_report=leakage)
    phase = conditional_phase(apply_propagator(prop, rho0))
    return TwoQubitChannel(images=images, leakage=leakage, max_leakage=worst,
                           phase=phase, mean_survival=float(np.mean(
                               survival.diagonal().real)),
                           blocks=prop.structure)


@dataclass(frozen=True)
class ChoiMatrix:
    """Unit-trace Choi state of a two-qubit channel; its CPTP diagnostics
    are read off ``chi``."""

    chi: np.ndarray               # (16, 16) complex

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.chi)))

    @property
    def hermiticity_residual(self) -> float:
        return float(np.abs(self.chi - self.chi.conj().T).max())

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues.min())

    @property
    def tp_residual(self) -> float:
        """Frobenius norm of Tr_out(chi) - I/4: chi[(i,k),(j,l)] -> sum_k."""
        tr_out = np.einsum("ikjk->ij", self.chi.reshape((QUBIT_DIM,) * 4))
        return float(np.linalg.norm(tr_out - np.eye(QUBIT_DIM) / QUBIT_DIM))

    @property
    def completely_positive(self) -> bool:
        return self.min_eigenvalue >= -1e-8

    @property
    def trace_preserving(self) -> bool:
        return self.tp_residual < 1e-3

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(0.5 * (self.chi + self.chi.conj().T))

    @property
    def purity(self) -> float:
        return float(np.real(np.trace(self.chi @ self.chi)))


def choi_matrix(channel: TwoQubitChannel) -> ChoiMatrix:
    """Assemble the unit-trace Choi state of ``channel``.

    The images are divided by the channel's mean basis survival: one
    uniform positive factor, so the state stays completely positive and
    has trace one.  CPTP violations are reported by its diagnostics, never
    raised, so lossy channels stay inspectable.
    """
    images = channel.images / channel.mean_survival
    return ChoiMatrix(0.25 * images.transpose(0, 2, 1, 3).reshape(16, 16))


def ideal_cphase_choi(phi: float) -> ChoiMatrix:
    """Choi state of the controlled-phase unitary diag(1, 1, 1, e^{i phi})."""
    u = np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)]).astype(complex)
    return choi_matrix(TwoQubitChannel.from_unitary(u))


def process_fidelity(chi: ChoiMatrix, chi_ideal: ChoiMatrix) -> float:
    """Trace overlap Tr(chi_ideal . chi) of two unit-trace Choi states."""
    for name, c in (("chi", chi), ("chi_ideal", chi_ideal)):
        if abs(c.trace - 1.0) > 1e-6:
            raise ValueError(f"{name} is not unit-trace (trace {c.trace})")
    overlap = complex(np.trace(chi_ideal.chi @ chi.chi))
    if abs(overlap.imag) > 1e-10:
        raise NumericalError(
            f"trace overlap has imaginary residue {overlap.imag:.3e}")
    return float(overlap.real)

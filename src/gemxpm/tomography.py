"""Process tomography of the two-qubit gate channel.

The channel maps 4x4 density matrices on (photonic s-qubit) (x)
(polaritonic qubit {|1>, |2>}) through the full 28-dimensional master
equation: embed with no p photon and empty primed levels, evolve for the
gate time, trace out the p mode, project the atomic sector back onto
{|1>, |2>}, and renormalise (leakage per input is logged; renormalisation
can be disabled to keep the honest trace-decreasing map).

The Choi matrix is normalised as a state (trace one):

    chi = (1/4) * sum_ij |i><j| (x) Lambda(|i><j|),

so the process fidelity against an ideal gate is the state overlap
Tr(chi_ideal . chi) in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .errors import LeakageError, NumericalError
from .gate import (DIM, HILBERT, GateParams, apply_propagator,
                   build_hamiltonian, conditional_phase, initial_state,
                   propagator, two_qubit_block)

QUBIT_DIM = 4
#: Full-space indices of the two-qubit basis (s-major ordering
#: |0s,1>, |0s,2>, |1s,1>, |1s,2>), all with zero p photons.
_EMBED = tuple(HILBERT.index(level, 0, n_s)
               for n_s in (0, 1) for level in ("1", "2"))


def _embed_vector(v: np.ndarray) -> np.ndarray:
    full = np.zeros(DIM, dtype=complex)
    full[list(_EMBED)] = v
    return full


@dataclass(frozen=True)
class TwoQubitChannel:
    """Linear map on two-qubit operators, tabulated on the matrix-unit
    basis: images[i, j] = Lambda(|i><j|)."""

    images: np.ndarray                      # (4, 4, 4, 4) complex
    t_gate: Optional[float] = None
    leakage: Optional[Dict[str, float]] = None   # per evolved pure state
    phase: Optional[float] = None   # conditional phase of initial_state()
    renormalized: bool = True

    def apply(self, m: np.ndarray) -> np.ndarray:
        m = np.asarray(m, dtype=complex)
        if m.shape != (QUBIT_DIM, QUBIT_DIM):
            raise ValueError(f"input must be 4x4, got {m.shape}")
        return np.einsum("ij,ijkl->kl", m, self.images)

    @property
    def max_leakage(self) -> float:
        if not self.leakage:
            return 0.0
        return max(self.leakage.values())

    @classmethod
    def from_map(cls, fn: Callable[[np.ndarray], np.ndarray],
                 **meta) -> "TwoQubitChannel":
        images = np.empty((QUBIT_DIM, QUBIT_DIM, QUBIT_DIM, QUBIT_DIM),
                          dtype=complex)
        for i in range(QUBIT_DIM):
            for j in range(QUBIT_DIM):
                unit = np.zeros((QUBIT_DIM, QUBIT_DIM), dtype=complex)
                unit[i, j] = 1.0
                images[i, j] = fn(unit)
        return cls(images=images, **meta)

    @classmethod
    def from_unitary(cls, u: np.ndarray) -> "TwoQubitChannel":
        u = np.asarray(u, dtype=complex)
        images = np.einsum("ki,lj->ijkl", u, u.conj())
        return cls(images=images)

    @classmethod
    def identity(cls) -> "TwoQubitChannel":
        return cls.from_unitary(np.eye(QUBIT_DIM))


def _pair_states(i: int, j: int) -> Tuple[np.ndarray, np.ndarray]:
    """The |+> and |+i> superpositions used to synthesise |i><j|."""
    plus = np.zeros(QUBIT_DIM, dtype=complex)
    plus[i] = 1.0 / math.sqrt(2.0)
    plus[j] = 1.0 / math.sqrt(2.0)
    plus_i = np.zeros(QUBIT_DIM, dtype=complex)
    plus_i[i] = 1.0 / math.sqrt(2.0)
    plus_i[j] = 1j / math.sqrt(2.0)
    return plus, plus_i


def channel_from_gate(params: GateParams, t_gate: float, *,
                      renormalize: str = "global",
                      leakage_limit: float = 0.2) -> TwoQubitChannel:
    """Tomograph the gate channel at interaction time ``t_gate``.

    The sixteen operator-basis images are reconstructed from pure-state
    evolutions (each diagonal |i><i| plus the |+> and |+i> states of every
    pair, recombined linearly).  All evolutions share one dense propagator
    exp(L*t_gate), so the cost is a single matrix exponential; the same
    propagator gives the conditional phase of the gate's reference initial
    state, carried as ``phase``.

    ``renormalize`` selects the leakage handling:

    * "global": divide every image by the mean survival weight of the four
      basis states.  A uniform positive factor keeps the map completely
      positive and the Choi trace exactly one; per-input weights are
      logged.  This is the default because per-input renormalisation makes
      the reconstructed Choi state indefinite at the scale of the leakage
      spread, which is orders of magnitude above the positivity budget.
    * "per-input": renormalise each evolved pure state by its own weight.
    * "none": keep the honest trace-decreasing compression.

    Raises LeakageError when any evolved input leaves more than
    ``leakage_limit`` of its weight outside the qubit subspace.
    """
    if t_gate <= 0:
        raise ValueError("t_gate must be positive")
    if renormalize not in ("global", "per-input", "none"):
        raise ValueError(f"unknown renormalize mode {renormalize!r}")
    h = build_hamiltonian(params)
    prop = propagator(h, params.gamma, t_gate)

    leakage: Dict[str, float] = {}

    def evolve_pure(key: str, v: np.ndarray) -> np.ndarray:
        rho0 = np.outer(_embed_vector(v), _embed_vector(v).conj())
        rho_t = apply_propagator(prop, rho0)
        q, weight = two_qubit_block(rho_t)
        leakage[key] = 1.0 - weight
        if renormalize == "per-input" and weight > 0.0:
            q = q / weight
        return q

    basis_out = [evolve_pure(f"e{i}", _unit_vec(i)) for i in range(QUBIT_DIM)]
    images = np.empty((QUBIT_DIM, QUBIT_DIM, QUBIT_DIM, QUBIT_DIM),
                      dtype=complex)
    for i in range(QUBIT_DIM):
        images[i, i] = basis_out[i]
    for i in range(QUBIT_DIM):
        for j in range(i + 1, QUBIT_DIM):
            plus, plus_i = _pair_states(i, j)
            out_p = evolve_pure(f"plus{i}{j}", plus)
            out_q = evolve_pure(f"plusi{i}{j}", plus_i)
            # |i><j| = |+><+| + i|+i><+i| - (1+i)/2 (|i><i| + |j><j|)
            img = (out_p + 1j * out_q
                   - 0.5 * (1.0 + 1j) * (basis_out[i] + basis_out[j]))
            images[i, j] = img
            images[j, i] = img.conj().T

    if renormalize == "global":
        survival = np.mean([1.0 - leakage[f"e{i}"] for i in range(QUBIT_DIM)])
        if survival > 0.0:
            images = images / survival

    worst = max(leakage.values())
    if worst > leakage_limit:
        report = ", ".join(f"{k}: {v:.3f}" for k, v in sorted(leakage.items()))
        raise LeakageError(
            f"channel leaked {worst:.1%} of one input out of the qubit "
            f"subspace (limit {leakage_limit:.0%}); per-input leakage: "
            f"{report}", leakage_report=dict(leakage))
    phase = conditional_phase(apply_propagator(prop, initial_state()))
    return TwoQubitChannel(images=images, t_gate=t_gate, leakage=leakage,
                           phase=phase, renormalized=renormalize != "none")


def _unit_vec(i: int) -> np.ndarray:
    v = np.zeros(QUBIT_DIM, dtype=complex)
    v[i] = 1.0
    return v


@dataclass(frozen=True)
class CptpReport:
    """Diagnostics attached to a reconstructed Choi matrix."""

    trace: float
    hermiticity_residual: float
    min_eigenvalue: float
    tp_residual: float            # Frobenius norm of Tr_out(chi) - I/4
    max_leakage: float

    @property
    def completely_positive(self) -> bool:
        return self.min_eigenvalue >= -1e-8

    @property
    def trace_preserving(self) -> bool:
        return self.tp_residual < 1e-3


@dataclass(frozen=True)
class ChoiMatrix:
    """Unit-trace Choi state of a two-qubit channel with its CPTP report."""

    chi: np.ndarray               # (16, 16) complex
    report: CptpReport

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(0.5 * (self.chi + self.chi.conj().T))

    @property
    def purity(self) -> float:
        return float(np.real(np.trace(self.chi @ self.chi)))


def _make_report(chi: np.ndarray, max_leakage: float) -> CptpReport:
    herm = float(np.abs(chi - chi.conj().T).max())
    chi_h = 0.5 * (chi + chi.conj().T)
    eig_min = float(np.linalg.eigvalsh(chi_h).min())
    # Tr over the output factor of each 4x4 block: chi[(i,k),(j,l)] -> sum_k
    blocks = chi.reshape(QUBIT_DIM, QUBIT_DIM, QUBIT_DIM, QUBIT_DIM)
    tr_out = np.einsum("ikjk->ij", blocks)
    tp = float(np.linalg.norm(tr_out - np.eye(QUBIT_DIM) / QUBIT_DIM))
    return CptpReport(trace=float(np.real(np.trace(chi))),
                      hermiticity_residual=herm, min_eigenvalue=eig_min,
                      tp_residual=tp, max_leakage=max_leakage)


def choi_matrix(channel: TwoQubitChannel) -> ChoiMatrix:
    """Assemble the unit-trace Choi state of ``channel``.

    CPTP violations are reported in the attached diagnostics, never
    raised, so lossy channels stay inspectable.
    """
    chi = 0.25 * channel.images.transpose(0, 2, 1, 3).reshape(16, 16)
    return ChoiMatrix(chi=chi, report=_make_report(chi, channel.max_leakage))


def ideal_cphase_choi(phi: float) -> ChoiMatrix:
    """Choi state of the controlled-phase unitary diag(1, 1, 1, e^{i phi})."""
    u = np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)]).astype(complex)
    return choi_matrix(TwoQubitChannel.from_unitary(u))


def process_fidelity(chi: ChoiMatrix, chi_ideal: ChoiMatrix) -> float:
    """Trace overlap Tr(chi_ideal . chi) of two unit-trace Choi states."""
    for name, c in (("chi", chi), ("chi_ideal", chi_ideal)):
        tr = np.real(np.trace(c.chi))
        if abs(tr - 1.0) > 1e-6:
            raise ValueError(f"{name} is not trace-normalised (trace {tr})")
    overlap = complex(np.trace(chi_ideal.chi @ chi.chi))
    if abs(overlap.imag) > 1e-10:
        raise NumericalError(
            f"trace overlap has imaginary residue {overlap.imag:.3e}")
    return float(overlap.real)

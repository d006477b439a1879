"""gemxpm: cross-phase modulation in a Raman gradient echo memory.

Semiclassical Maxwell-Bloch storage and recall with ac-Stark phase
imprinting, closed-form XPM calculators, a master-equation gate engine on
the truncated atom-photon space, and Choi-matrix process tomography.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, GemXpmError, LeakageError, NumericalError,
                     ProjectionError, ProtocolError, StabilityError,
                     UndefinedPhaseError)
from .model import (EnsembleParams, GradientSchedule, Grid, PiecewiseConstant,
                    PulseSpec)
from .gem import (CoherenceRecord, StarkDrive, StorageResult,
                  apply_stark_drive, constant_stark_drive, excitation_balance,
                  group_velocity, peak_k_trajectory, polariton_transform,
                  propagate, verify_fourier_relation)
from .xpm import (DoubleStorageResult, SinglePhotonEstimate, TransitionData,
                  XpmResult, coupling_loss_rate, double_storage_run,
                  phi_free_signal, phi_stored_pair, scattering_consistency,
                  single_photon_estimate)
from .gate import (DIM, GateParams, PhaseTrace, Trajectory, basis_index,
                   build_hamiltonian, conditional_phase, evolve,
                   gate_fidelity, initial_state, phase_trace, propagator)
from .tomography import (ChoiMatrix, TwoQubitChannel, channel_from_gate,
                         choi_matrix, ideal_cphase_choi, process_fidelity)

__all__ = [name for name in dir() if not name.startswith("_")]

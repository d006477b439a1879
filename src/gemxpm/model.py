"""Domain types shared by every solver: ensemble parameters, pulses, gradient
schedules, and space-time grids.

Unit conventions used throughout the package:

* time is measured in units of 1/gamma (gamma = excited-state decay rate),
  so rates and detunings are in units of gamma;
* the ensemble occupies z in [0, L] and all lengths are in units of the
  cell length scale that makes L order one;
* complex field envelopes are stored as g*E (Rabi-frequency units of gamma).

All types are immutable after construction and safe to share between
concurrently running solvers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


def _through_math(fn):
    """``fn`` of the ``math`` module applied elementwise, as floats."""
    ufunc = np.frompyfunc(fn, 1, 1)
    return lambda x: np.asarray(ufunc(x), dtype=float)


#: exp, erf and the complex argument through ``math``: NumPy's float exp
#: and angle take SIMD loops whose last bits differ between its AVX2 and
#: AVX-512 dispatch levels, and the golden values must not.
math_exp, math_erf, math_angle = map(_through_math,
                                     (math.exp, math.erf, cmath.phase))


@dataclass(frozen=True)
class EnsembleParams:
    """Physical parameters of the Raman storage medium (length: Grid.L).

    ``coupling_density`` is g*calN, single-atom coupling times effective
    linear atomic density: the field equation sees the two only as this
    product, normalised so that the spatial-Fourier Maxwell relation
    k*E(k) = coupling_density*(OmegaC/Delta)*sigma(k) holds identically.
    """

    gamma: float = 1.0          # excited-state decay rate (time unit)
    gamma0: float = 0.0         # ground-state decoherence rate
    coupling_density: float = 250.0   # g*calN
    Delta: float = 40.0         # probe Raman detuning
    DeltaPrime: float = 40.0    # signal Raman detuning
    delta3: float = 400.0       # signal detuning, free-propagating transition
    delta4: float = 40.0        # signal detuning on the stored-pair transition
    OmegaC: float = 8.0         # probe coupling-field Rabi frequency
    OmegaCPrime: float = 8.0    # signal coupling-field Rabi frequency

    def __post_init__(self):
        if not (self.gamma > 0):
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        for name in ("gamma0", "coupling_density"):   # g*calN < 0 amplifies
            v = getattr(self, name)
            if v < 0:
                raise ValueError(f"{name} must be non-negative, got {v}")
        for name in ("Delta", "DeltaPrime", "delta3", "delta4",
                     "OmegaC", "OmegaCPrime", "coupling_density"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        # the Raman ratios OmegaC/Delta and OmegaCPrime/DeltaPrime divide
        for name in ("Delta", "DeltaPrime"):
            if getattr(self, name) == 0.0:
                raise ValueError(f"{name} must be nonzero")

    @property
    def raman_ratio(self) -> float:
        """OmegaC/Delta for the probe transition."""
        return self.OmegaC / self.Delta

    @property
    def raman_ratio_signal(self) -> float:
        """OmegaCPrime/DeltaPrime for the signal transition."""
        return self.OmegaCPrime / self.DeltaPrime


@dataclass(frozen=True)
class PulseSpec:
    """Gaussian input pulse: peak * exp(-(t - center)^2 / duration^2).

    ``duration`` is the 1/e half-width of the amplitude envelope.
    """

    peak_amplitude: float
    center_time: float
    duration: float

    def __post_init__(self):
        if not (self.duration > 0):
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.peak_amplitude < 0:
            raise ValueError(
                f"peak_amplitude must be non-negative, got {self.peak_amplitude}")

    def envelope(self, t):
        """Complex amplitude at time(s) ``t`` (phase 0 by construction)."""
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):   # a subnormal duration: exp(-inf)
            scaled = ((t - self.center_time) / self.duration) ** 2
        return self.peak_amplitude * math_exp(-scaled) + 0.0j


@dataclass(frozen=True)
class PiecewiseConstant:
    """Right-continuous piecewise-constant function of time.

    ``segments`` is an ordered tuple of (start, end, value); segments must be
    contiguous and non-overlapping.  ``values(t)`` is, elementwise, the value
    of the segment with start <= t < end; t at or after the final end time
    gives the last value and t before the first start the first value.
    """

    segments: Tuple[Tuple[float, float, float], ...]

    def __post_init__(self):
        segs = tuple(tuple(float(x) for x in s) for s in self.segments)
        if not segs:
            raise ValueError("at least one segment is required")
        for s in segs:
            if len(s) != 3:
                raise ValueError(f"segment must be (start, end, value), got {s}")
            if not s[1] > s[0]:
                raise ValueError(f"segment end must exceed start, got {s}")
        for a, b in zip(segs[:-1], segs[1:]):
            if not math.isclose(a[1], b[0], rel_tol=0.0, abs_tol=1e-12):
                raise ValueError(
                    f"segments must be contiguous: {a} followed by {b}")
        object.__setattr__(self, "segments", segs)

    @property
    def t_start(self) -> float:
        return self.segments[0][0]

    @property
    def t_end(self) -> float:
        return self.segments[-1][1]

    def values(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        starts = np.array([s[0] for s in self.segments])
        vals = np.array([s[2] for s in self.segments])
        idx = np.clip(np.searchsorted(starts, t, side="right") - 1,
                      0, len(vals) - 1)
        return vals[idx]

    def covers(self, t_max: float) -> bool:
        return self.t_start <= 0.0 + 1e-12 and self.t_end >= t_max - 1e-12


@dataclass(frozen=True)
class GradientSchedule(PiecewiseConstant):
    """Piecewise-constant two-photon-detuning gradient eta(t).

    A storage protocol flips the sign of eta for recall; a double-storage
    protocol additionally holds eta = 0 between write and recall.
    """

    @property
    def max_abs_eta(self) -> float:
        return max(abs(s[2]) for s in self.segments)

    def flip_time(self) -> Optional[float]:
        """Start of the first segment whose sign opposes the initial write
        gradient, i.e. the recall switch.  None when no recall occurs."""
        first_sign = 0.0
        for start, _end, v in self.segments:
            if first_sign == 0.0 and v != 0.0:
                first_sign = math.copysign(1.0, v)
                continue
            if first_sign != 0.0 and v != 0.0 and math.copysign(1.0, v) != first_sign:
                return start
        return None

    def hold_window(self) -> Optional[Tuple[float, float]]:
        """(start, end) of the first eta = 0 segment strictly between
        nonzero segments, if the schedule contains one."""
        for i, (start, end, v) in enumerate(self.segments):
            if v == 0.0 and 0 < i < len(self.segments) - 1:
                return (start, end)
        return None


@dataclass(frozen=True)
class Grid:
    """Uniform space-time grid: nz samples on [0, L], nt samples on [0, t_max].

    Small grids (down to two points per axis) are accepted for smoke tests;
    converged physics runs should use nz >= 16 and nt >= 16.
    """

    nz: int
    nt: int
    t_max: float
    L: float = 1.0              # ensemble length

    def __post_init__(self):
        for name, n in (("nz", self.nz), ("nt", self.nt)):
            if int(n) != n or n < 2:
                raise ValueError(f"{name} must be an integer >= 2, got {n}")
            if n > 1 << 24:
                raise ValueError(f"{name}={n} is beyond any sane grid size")
        if not (self.t_max > 0):
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if not (self.L > 0):
            raise ValueError(f"L must be positive, got {self.L}")

    @property
    def dz(self) -> float:
        return self.L / (self.nz - 1)

    @property
    def dt(self) -> float:
        return self.t_max / (self.nt - 1)

    @property
    def z(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.nz)

    @property
    def t(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.nt)


import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gemxpm import (EnsembleParams, GradientSchedule, Grid, PiecewiseConstant,
                    PulseSpec)


class TestBuildGrid:
    def test_spacing(self):
        g = Grid(nz=11, nt=11, t_max=1.0, L=1.0)
        assert g.dz == pytest.approx(0.1)
        assert g.dt == pytest.approx(0.1)

    def test_two_point_axis(self):
        g = Grid(nz=2, nt=5, t_max=1.0, L=2.0)
        assert g.dz == pytest.approx(2.0)
        assert g.z.tolist() == [0.0, 2.0]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Grid(nz=0, nt=16, t_max=1.0)
        with pytest.raises(ValueError):
            Grid(nz=16, nt=1, t_max=1.0)
        with pytest.raises(ValueError):
            Grid(nz=16, nt=16, t_max=-1.0)
        with pytest.raises(ValueError):
            Grid(nz=16, nt=16, t_max=1.0, L=0.0)

    def test_rejects_overflow_scale(self):
        with pytest.raises(ValueError):
            Grid(nz=1 << 30, nt=16, t_max=1.0)

    def test_axes_uniform(self):
        g = Grid(nz=64, nt=48, t_max=7.0)
        assert np.allclose(np.diff(g.z), g.dz)
        assert np.allclose(np.diff(g.t), g.dt)


class TestGaussianEnvelope:
    def test_peak_value(self):
        spec = PulseSpec(1.0, 5.0, 1.0)
        assert spec.envelope(5.0) == 1.0

    def test_one_over_e(self):
        spec = PulseSpec(1.0, 5.0, 1.0)
        assert spec.envelope(6.0) == pytest.approx(math.exp(-1))

    def test_zero_pulse(self):
        spec = PulseSpec(0.0, 5.0, 1.0)
        t = np.linspace(-10, 10, 101)
        assert np.all(spec.envelope(t) == 0)

    @given(st.integers(min_value=-3200, max_value=3200),
           st.floats(min_value=0.01, max_value=20),
           st.integers(min_value=0, max_value=6400))
    def test_symmetric_about_center(self, center64, duration, offset64):
        # dyadic center/offset make center +- offset exactly representable,
        # so exact equality is a fair demand
        center, offset = center64 / 64.0, offset64 / 64.0
        spec = PulseSpec(1.0, center, duration)
        left = spec.envelope(center - offset)
        right = spec.envelope(center + offset)
        assert left == right

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            PulseSpec(1.0, 0.0, 0.0)

    def test_subnormal_duration_is_a_spike_without_warning(self):
        # (t - center)/duration overflows to inf off the center, where
        # exp(-inf) = 0 is the envelope's value; it printed two
        # RuntimeWarnings (overflow in divide and in square)
        spec = PulseSpec(2.0, 1.0, 4.45e-310)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = spec.envelope(np.array([0.0, 1.0, 2.0]))
        assert values.tolist() == [0.0, 2.0, 0.0]


class TestEnsembleParams:
    def test_defaults_valid(self):
        p = EnsembleParams()
        assert p.gamma == 1.0
        assert p.coupling_density == 250.0

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            EnsembleParams(gamma=0.0)
        with pytest.raises(ValueError):
            EnsembleParams(gamma0=-0.1)
        # a negative g*calN is a gain medium: its march grows without
        # bound (to overflow, from -5e16), where a config refusal belongs
        with pytest.raises(ValueError,
                           match="coupling_density must be non-negative"):
            EnsembleParams(coupling_density=-1.0)
        assert EnsembleParams(coupling_density=0.0).coupling_density == 0.0
        with pytest.raises(ValueError):
            EnsembleParams(Delta=math.inf)
        with pytest.raises(ValueError, match="Delta must be nonzero"):
            EnsembleParams(Delta=0.0)
        with pytest.raises(ValueError, match="DeltaPrime must be nonzero"):
            EnsembleParams(DeltaPrime=0.0)


class TestGradientSchedule:
    def test_lookup_right_continuous(self):
        s = GradientSchedule(((0.0, 5.0, 2.0), (5.0, 10.0, -2.0)))
        assert s.values(5.0) == -2.0
        assert s.values(4.999999) == 2.0
        assert s.values(10.0) == -2.0

    def test_flip_time(self):
        s = GradientSchedule(((0.0, 5.0, 2.0), (5.0, 10.0, -2.0)))
        assert s.flip_time() == 5.0
        hold = GradientSchedule(((0.0, 4.0, 2.0), (4.0, 8.0, 0.0),
                                 (8.0, 12.0, -2.0)))
        assert hold.flip_time() == 8.0
        assert hold.hold_window() == (4.0, 8.0)
        no_flip = GradientSchedule(((0.0, 5.0, 2.0), (5.0, 10.0, 0.0)))
        assert no_flip.flip_time() is None

    def test_rejects_gaps_and_overlaps(self):
        with pytest.raises(ValueError):
            GradientSchedule(((0.0, 5.0, 1.0), (6.0, 10.0, -1.0)))
        with pytest.raises(ValueError):
            GradientSchedule(((0.0, 5.0, 1.0), (4.0, 10.0, -1.0)))
        with pytest.raises(ValueError):
            GradientSchedule(((5.0, 5.0, 1.0),))

    @given(st.lists(st.floats(min_value=0.05, max_value=5.0),
                    min_size=1, max_size=6),
           st.lists(st.floats(min_value=-3, max_value=3),
                    min_size=6, max_size=6))
    def test_coverage_and_values(self, widths, etas):
        t0 = 0.0
        segs = []
        for w, e in zip(widths, etas):
            segs.append((t0, t0 + w, e))
            t0 += w
        s = GradientSchedule(tuple(segs))
        assert s.covers(t0)
        assert not s.covers(t0 + 1.0)
        # value at each segment start is that segment's value
        for (a, _b, v) in segs:
            assert s.values(a) == v
        ts = np.linspace(0.0, t0, 37)
        vv = s.values(ts)
        for ti, vi in zip(ts, vv):
            assert vi == s.values(min(ti, t0))


class TestPiecewiseConstant:
    def test_vectorised_matches_scalar(self):
        pc = PiecewiseConstant(((0.0, 1.0, 1.0), (1.0, 2.0, 0.0),
                                (2.0, 3.0, 0.5)))
        ts = np.array([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0])
        expected = [1.0, 1.0, 1.0, 0.0, 0.0, 0.5, 0.5, 0.5, 0.5]
        assert pc.values(ts).tolist() == expected
        assert [pc.values(t) for t in ts] == expected

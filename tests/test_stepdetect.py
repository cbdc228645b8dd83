import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitpipe import frame, orientation, stepdetect, synth
from gaitpipe.core import (
    FC,
    GaitEvent,
    IC,
    InsufficientDataError,
    NoCadenceError,
    PipelineConfig,
    SIDE_LEFT,
    SIDE_RIGHT,
    SIDE_UNKNOWN,
)
from gaitpipe.segmentation import stride_autocorr, verify_gait
from gaitpipe.stepdetect import MAX_STRIDE_FACTOR, MIN_EVENT_SPACING_S, WaveletParams


def walk_anatomical(stride_s=1.2, duration_s=30.0, seed=0, noise=0.0):
    cfg = synth.SynthConfig(duration_s=duration_s, stride_s=stride_s,
                            seed=seed, noise_sigma=noise)
    rec, events, _, _ = synth.generate(cfg)
    ga = orientation.align_recording(rec)
    fr = frame.estimate_frame(ga.accel, ga.sample_rate)
    aa = frame.to_anatomical(ga.accel, fr)
    gg = frame.to_anatomical(ga.gyro, fr)
    return aa, gg, ga.sample_rate, events


def stride_of(vertical_accel, fs):
    """estimate_stride_duration, in seconds, fed with verify_gait's
    stride peak of vertical_accel, as eligible_bouts finds it."""
    cfg = PipelineConfig()
    return stepdetect.estimate_stride_duration(
        verify_gait(stride_autocorr(vertical_accel, fs, cfg), fs, cfg))


def wavelet_params(aa, fs, stride):
    """estimate_wavelet_params fed with the vertical and AP stride
    autocorrelations of aa, as the pipeline feeds it."""
    cfg = PipelineConfig()
    return stepdetect.estimate_wavelet_params(
        aa, fs, stride, stride_autocorr(aa[:, 0], fs, cfg),
        stride_autocorr(aa[:, 1], fs, cfg))


class TestEstimateStride:
    def test_stride_1p2(self):
        aa, _, fs, _ = walk_anatomical(1.2)
        stride = stride_of(aa[:, 0], fs)
        assert type(stride) is float
        assert stride == pytest.approx(1.2, abs=0.05)

    def test_stride_0p9(self):
        aa, _, fs, _ = walk_anatomical(0.9, seed=1)
        assert stride_of(aa[:, 0], fs) == pytest.approx(0.9, abs=0.05)

    def test_constant_no_cadence(self):
        with pytest.raises(NoCadenceError):
            stride_of(np.full(1000, 9.81), 50.0)


class TestWaveletParams:
    def test_scale_matches_step_frequency(self):
        # gaus1 center frequency fs/(2*pi*scale) should equal 2/stride
        fs, stride = 50.0, 1.0
        scale = stepdetect.scale_for_step_frequency(stride, fs)
        center_hz = fs / (2 * np.pi * scale)
        assert center_hz == pytest.approx(2.0 / stride, rel=1e-9)
        assert center_hz == pytest.approx(2.0, rel=0.2)

    def test_axis_vertical_on_vertical_dominant_gait(self):
        aa, _, fs, _ = walk_anatomical(1.2, seed=2)
        aa = aa.copy()
        rng = np.random.default_rng(0)
        # replace the AP channel with noise; normalized autocorrelation is
        # amplitude invariant so mere downscaling would not steer the choice
        aa[:, 1] = rng.normal(0, 1.0, len(aa))
        stride = stride_of(aa[:, 0], fs)
        params = wavelet_params(aa, fs, stride)
        assert params.axis == stepdetect.AXIS_VERTICAL

    def test_negating_signal_flips_sign(self):
        aa, _, fs, _ = walk_anatomical(1.2, seed=3)
        stride = stride_of(aa[:, 0], fs)
        p1 = wavelet_params(aa, fs, stride)
        neg = aa.copy()
        col = 0 if p1.axis == stepdetect.AXIS_VERTICAL else 1
        neg[:, col] = -neg[:, col]
        p2 = wavelet_params(neg, fs, stride)
        assert p2.sign == -p1.sign


class TestDetectEvents:
    def test_clean_gait_ics_within_60ms(self):
        aa, _, fs, events = walk_anatomical(1.2, seed=4)
        stride = stride_of(aa[:, 0], fs)
        params = wavelet_params(aa, fs, stride)
        det = stepdetect.detect_events(aa, fs, params)
        det_ic = np.array([e.time_s for e in det if e.kind == IC])
        ref_ic = [e.time_s for e in events if e.kind == IC]
        for r in ref_ic:
            assert np.min(np.abs(det_ic - r)) <= 0.06

    def test_no_events_in_stationary_span(self):
        aa, _, fs, _ = walk_anatomical(1.2, seed=5, duration_s=20.0)
        pad = np.zeros((int(10 * fs), 3))
        pad[:, 0] = aa[:, 0].mean()
        padded = np.vstack([aa, pad])
        stride = stride_of(aa[:, 0], fs)
        params = wavelet_params(aa, fs, stride)
        det = stepdetect.detect_events(padded, fs, params)
        walk_end = len(aa) / fs
        late = [e for e in det if e.time_s > walk_end + 1.0]
        assert late == []

    def test_amplitude_scaling_exact_index_equality(self):
        aa, _, fs, _ = walk_anatomical(1.2, seed=6)
        stride = stride_of(aa[:, 0], fs)
        params = wavelet_params(aa, fs, stride)
        base = [(e.kind, round(e.time_s * fs)) for e in
                stepdetect.detect_events(aa, fs, params)]
        for k in (0.5, 2.0, 10.0):
            scaled_params = wavelet_params(aa * k, fs, stride)
            out = [(e.kind, round(e.time_s * fs)) for e in
                   stepdetect.detect_events(aa * k, fs, scaled_params)]
            assert out == base

    def test_short_bout_rejected(self):
        aa, _, fs, _ = walk_anatomical(1.2, seed=7)
        params = WaveletParams(scale=5.0, axis=stepdetect.AXIS_VERTICAL, sign=-1)
        with pytest.raises(InsufficientDataError):
            stepdetect.detect_events(aa[:40], fs, params)

    def test_close_ics_collapse_to_stronger(self):
        """Of two same-kind extrema closer than MIN_EVENT_SPACING_S the
        larger is the one detected. With a one-sample scale the IC
        signal is the negated, lightly smoothed acceleration, so each
        dip below is one IC candidate and the deeper dip the stronger."""
        fs = 50.0
        x = np.zeros((500, 3))
        x[[100, 105, 200], 0] = [-0.5, -0.9, -0.4]   # 105 is 0.1 s after 100
        params = WaveletParams(scale=1.0, axis=stepdetect.AXIS_VERTICAL, sign=-1)
        ics = [round(e.time_s * fs) for e in stepdetect.detect_events(x, fs, params)
               if e.kind == IC]
        assert ics == [105, 200]
        x[100, 0] = -1.2
        ics = [round(e.time_s * fs) for e in stepdetect.detect_events(x, fs, params)
               if e.kind == IC]
        assert ics == [100, 200]

    @pytest.mark.parametrize("fs", [25.0, 50.0, 100.0, 200.0])
    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(0.5, 4.0),
           sign=st.sampled_from([-1, 1]))
    def test_same_kind_events_whole_samples_apart(self, fs, seed, scale, sign):
        """Same-kind events are at least ceil(MIN_EVENT_SPACING_S * fs)
        samples apart; white noise puts extrema closer than that."""
        x = np.random.default_rng(seed).normal(size=(int(10 * fs), 3))
        params = WaveletParams(scale=scale, axis=stepdetect.AXIS_VERTICAL, sign=sign)
        events = stepdetect.detect_events(x, fs, params)
        for kind in (IC, FC):
            idx = np.array([round(e.time_s * fs) for e in events if e.kind == kind])
            assert len(idx) > 1
            assert np.all(np.diff(idx) >= math.ceil(MIN_EVENT_SPACING_S * fs))

    def test_determinism(self):
        aa, _, fs, _ = walk_anatomical(1.2, seed=8, noise=0.3)
        stride = stride_of(aa[:, 0], fs)
        params = wavelet_params(aa, fs, stride)
        a = stepdetect.detect_events(aa, fs, params)
        b = stepdetect.detect_events(aa, fs, params)
        assert [(e.time_s, e.kind) for e in a] == [(e.time_s, e.kind) for e in b]


class TestLaterality:
    def _detected_with_sides(self, seed=9):
        aa, gg, fs, events = walk_anatomical(1.2, seed=seed)
        stride = stride_of(aa[:, 0], fs)
        params = wavelet_params(aa, fs, stride)
        det = stepdetect.detect_events(aa, fs, params)
        return stepdetect.assign_laterality(det, gg, fs), gg, fs, det

    def test_alternating_sides(self):
        sided, _, _, _ = self._detected_with_sides()
        ics = [e for e in sided if e.kind == IC]
        interior = ics[1:-1]
        assert all(e.side in (SIDE_LEFT, SIDE_RIGHT) for e in interior)
        for a, b in zip(interior, interior[1:]):
            assert a.side != b.side

    def test_zero_gyro_all_unknown(self):
        _, gg, fs, det = self._detected_with_sides()
        sided = stepdetect.assign_laterality(det, np.zeros_like(gg), fs)
        assert all(e.side == SIDE_UNKNOWN for e in sided)

    def test_negated_gyro_swaps_sides(self):
        sided, gg, fs, det = self._detected_with_sides()
        flipped = stepdetect.assign_laterality(det, -gg, fs)
        swap = {SIDE_LEFT: SIDE_RIGHT, SIDE_RIGHT: SIDE_LEFT,
                SIDE_UNKNOWN: SIDE_UNKNOWN}
        assert [e.side for e in flipped] == [swap[e.side] for e in sided]

    def test_fc_inherits_opposite_side(self):
        sided, _, _, _ = self._detected_with_sides()
        last_ic = None
        for e in sided:
            if e.kind == IC:
                last_ic = e
            elif last_ic is not None and last_ic.side != SIDE_UNKNOWN:
                assert e.side != last_ic.side


class TestQualityCheck:
    STRIDE_S = 1.0  # max stride 1.5 s, FC window 0.375

    def test_fc_within_quarter_max_stride_kept(self):
        events = [GaitEvent(1.0, IC),
                  GaitEvent(1.3, FC),
                  GaitEvent(2.0, IC)]
        out = stepdetect.quality_check(events, self.STRIDE_S)
        assert any(e.kind == FC and e.time_s == 1.3 for e in out)

    def test_fc_beyond_gate_dropped(self):
        events = [GaitEvent(1.0, IC),
                  GaitEvent(1.5, FC),
                  GaitEvent(2.0, IC)]
        out = stepdetect.quality_check(events, self.STRIDE_S)
        assert not any(e.kind == FC for e in out)

    def test_orphan_ic_removed(self):
        events = [GaitEvent(1.0, IC),
                  GaitEvent(2.0, IC),
                  GaitEvent(10.0, IC)]
        out = stepdetect.quality_check(events, self.STRIDE_S)
        assert [e.time_s for e in out] == [1.0, 2.0]

    def test_fc_gate_matches_per_fc_filter(self):
        """The FCs kept are those of the per-FC filter: the last IC at or
        before the FC, within the FC window. Times are multiples of
        0.125 s, so FCs fall exactly on ICs and on the window's edge
        (0.375 s)."""
        window = 0.25 * MAX_STRIDE_FACTOR * self.STRIDE_S

        def kept_fcs(ic_t, fc_t):
            events = ([GaitEvent(t, IC) for t in ic_t]
                      + [GaitEvent(t, FC) for t in fc_t])
            out = stepdetect.quality_check(events, self.STRIDE_S)
            ics = np.array([e.time_s for e in out if e.kind == IC])
            want = []
            for t in fc_t:
                before = ics[ics <= t]
                if len(before) and t - before[-1] <= window:
                    want.append(t)
            got = [e.time_s for e in out if e.kind == FC]
            assert got == want
            return got

        # before the first IC, at an IC, at the edge, past the edge
        assert kept_fcs([1.0, 2.0, 3.0],
                        [0.25, 0.5, 1.0, 2.375, 2.75]) == [1.0, 2.375]
        rng = np.random.default_rng(12)
        for _ in range(30):
            ics = 1.0 + np.cumsum(rng.integers(2, 12, rng.integers(0, 8)) * 0.125)
            fcs = np.cumsum(rng.integers(2, 8, rng.integers(0, 12)) * 0.125)
            kept_fcs(ics.tolist(), fcs.tolist())

    def test_output_ordering_invariants(self):
        aa, gg, fs, _ = walk_anatomical(1.2, seed=10, noise=0.3)
        stride = stride_of(aa[:, 0], fs)
        params = wavelet_params(aa, fs, stride)
        det = stepdetect.assign_laterality(
            stepdetect.detect_events(aa, fs, params), gg, fs)
        out = stepdetect.quality_check(det, stride)
        ics = [e.time_s for e in out if e.kind == IC]
        fcs = [e.time_s for e in out if e.kind == FC]
        assert ics == sorted(ics) and len(set(ics)) == len(ics)
        assert fcs == sorted(fcs) and len(set(fcs)) == len(fcs)
        for f in fcs:
            prev = [i for i in ics if i <= f]
            assert prev and f - prev[-1] <= 0.25 * MAX_STRIDE_FACTOR * stride

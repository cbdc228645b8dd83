import numpy as np
import pytest

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
from gaitpipe.stepdetect import StrideEstimate, WaveletParams


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
    """estimate_stride_duration fed with verify_gait's stride peak of
    vertical_accel, as eligible_bouts finds it."""
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
        st = stride_of(aa[:, 0], fs)
        assert st.stride_s == pytest.approx(1.2, abs=0.05)
        assert st.max_stride_s == pytest.approx(1.8, abs=0.075)

    def test_stride_0p9(self):
        aa, _, fs, _ = walk_anatomical(0.9, seed=1)
        st = stride_of(aa[:, 0], fs)
        assert st.stride_s == pytest.approx(0.9, abs=0.05)

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
        st = stride_of(aa[:, 0], fs)
        params = wavelet_params(aa, fs, st)
        assert params.axis == stepdetect.AXIS_VERTICAL

    def test_negating_signal_flips_sign(self):
        aa, _, fs, _ = walk_anatomical(1.2, seed=3)
        st = stride_of(aa[:, 0], fs)
        p1 = wavelet_params(aa, fs, st)
        neg = aa.copy()
        col = 0 if p1.axis == stepdetect.AXIS_VERTICAL else 1
        neg[:, col] = -neg[:, col]
        p2 = wavelet_params(neg, fs, st)
        assert p2.sign == -p1.sign


class TestDetectEvents:
    def test_clean_gait_ics_within_60ms(self):
        aa, _, fs, events = walk_anatomical(1.2, seed=4)
        st = stride_of(aa[:, 0], fs)
        params = wavelet_params(aa, fs, st)
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
        st = stride_of(aa[:, 0], fs)
        params = wavelet_params(aa, fs, st)
        det = stepdetect.detect_events(padded, fs, params)
        walk_end = len(aa) / fs
        late = [e for e in det if e.time_s > walk_end + 1.0]
        assert late == []

    def test_amplitude_scaling_exact_index_equality(self):
        aa, _, fs, _ = walk_anatomical(1.2, seed=6)
        st = stride_of(aa[:, 0], fs)
        params = wavelet_params(aa, fs, st)
        base = [(e.kind, round(e.time_s * fs)) for e in
                stepdetect.detect_events(aa, fs, params)]
        for k in (0.5, 2.0, 10.0):
            scaled_params = wavelet_params(aa * k, fs, st)
            out = [(e.kind, round(e.time_s * fs)) for e in
                   stepdetect.detect_events(aa * k, fs, scaled_params)]
            assert out == base

    def test_short_bout_rejected(self):
        aa, _, fs, _ = walk_anatomical(1.2, seed=7)
        params = WaveletParams(scale=5.0, axis=stepdetect.AXIS_VERTICAL, sign=-1)
        with pytest.raises(InsufficientDataError):
            stepdetect.detect_events(aa[:40], fs, params)

    def test_determinism(self):
        aa, _, fs, _ = walk_anatomical(1.2, seed=8, noise=0.3)
        st = stride_of(aa[:, 0], fs)
        params = wavelet_params(aa, fs, st)
        a = stepdetect.detect_events(aa, fs, params)
        b = stepdetect.detect_events(aa, fs, params)
        assert [(e.time_s, e.kind) for e in a] == [(e.time_s, e.kind) for e in b]


class TestLaterality:
    def _detected_with_sides(self, seed=9):
        aa, gg, fs, events = walk_anatomical(1.2, seed=seed)
        st = stride_of(aa[:, 0], fs)
        params = wavelet_params(aa, fs, st)
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
    STRIDE = StrideEstimate(stride_s=1.0)  # max stride 1.5 s, FC window 0.375

    def test_close_ics_collapse_to_stronger(self):
        events = [GaitEvent(1.0, IC, strength=0.5),
                  GaitEvent(1.01, IC, strength=0.9),
                  GaitEvent(2.0, IC, strength=0.4)]
        out = stepdetect.quality_check(events, self.STRIDE)
        times = [e.time_s for e in out if e.kind == IC]
        assert times == [1.01, 2.0]

    def test_fc_within_quarter_max_stride_kept(self):
        events = [GaitEvent(1.0, IC, strength=1.0),
                  GaitEvent(1.3, FC, strength=1.0),
                  GaitEvent(2.0, IC, strength=1.0)]
        out = stepdetect.quality_check(events, self.STRIDE)
        assert any(e.kind == FC and e.time_s == 1.3 for e in out)

    def test_fc_beyond_gate_dropped(self):
        events = [GaitEvent(1.0, IC, strength=1.0),
                  GaitEvent(1.5, FC, strength=1.0),
                  GaitEvent(2.0, IC, strength=1.0)]
        out = stepdetect.quality_check(events, self.STRIDE)
        assert not any(e.kind == FC for e in out)

    def test_orphan_ic_removed(self):
        events = [GaitEvent(1.0, IC, strength=1.0),
                  GaitEvent(2.0, IC, strength=1.0),
                  GaitEvent(10.0, IC, strength=1.0)]
        out = stepdetect.quality_check(events, self.STRIDE)
        assert [e.time_s for e in out] == [1.0, 2.0]

    def test_fc_gate_matches_per_fc_filter(self):
        """The FCs kept are those of the per-FC filter: the last IC at or
        before the FC, within the FC window. Times are multiples of
        0.125 s, so FCs fall exactly on ICs and on the window's edge
        (0.375 s); events of one kind are at least MIN_EVENT_SPACING_S
        apart, so none collapse."""
        window = 0.25 * self.STRIDE.max_stride_s

        def kept_fcs(ic_t, fc_t):
            events = ([GaitEvent(t, IC, strength=1.0) for t in ic_t]
                      + [GaitEvent(t, FC, strength=1.0) for t in fc_t])
            out = stepdetect.quality_check(events, self.STRIDE)
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
        st = stride_of(aa[:, 0], fs)
        params = wavelet_params(aa, fs, st)
        det = stepdetect.assign_laterality(
            stepdetect.detect_events(aa, fs, params), gg, fs)
        out = stepdetect.quality_check(det, st)
        ics = [e.time_s for e in out if e.kind == IC]
        fcs = [e.time_s for e in out if e.kind == FC]
        assert ics == sorted(ics) and len(set(ics)) == len(ics)
        assert fcs == sorted(fcs) and len(set(fcs)) == len(fcs)
        for f in fcs:
            prev = [i for i in ics if i <= f]
            assert prev and f - prev[-1] <= 0.25 * st.max_stride_s

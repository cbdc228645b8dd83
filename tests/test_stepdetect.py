import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.signal import find_peaks

from gaitpipe import frame, orientation, pipeline, stepdetect, synth
from gaitpipe.core import (
    FC,
    GaitEvent,
    IC,
    InsufficientDataError,
    LOWPASS_MIN_SAMPLES,
    NoCadenceError,
    PipelineConfig,
    SIDE_LEFT,
    SIDE_RIGHT,
    SIDE_UNKNOWN,
    event_table,
    gait_events,
    lowpass,
)
from gaitpipe.segmentation import stride_autocorr, verify_gait
from gaitpipe.stepdetect import (
    FC_WINDOW_FRACTION,
    LATERALITY_LOWPASS_HZ,
    LATERALITY_MIN_RAD_S,
    MAX_STRIDE_FACTOR,
    MIN_EVENT_SPACING_S,
    PROMINENCE_FRACTION,
    WaveletParams,
)


# The per-event stages that the event table replaced, kept as references:
# each takes and returns a list of GaitEvents.

def reference_detect_events(accel_anatomical, fs, params, t0=0.0):
    x = accel_anatomical[:, stepdetect.AXIS_COLUMN[params.axis]]
    support = 2 * int(np.ceil(6.0 * params.scale)) + 1
    if len(x) < 2 * support:
        raise InsufficientDataError("bout shorter than two wavelet supports")
    s1 = stepdetect._smoothed_derivative(x, params.scale, fs)
    s2 = stepdetect.cwt_differentiate(s1, params.scale)
    dist = math.ceil(MIN_EVENT_SPACING_S * fs)
    ic_signal, fc_signal = (-s1, s2) if params.sign < 0 else (s1, -s2)
    events = []
    for kind, signal in ((IC, ic_signal), (FC, fc_signal)):
        prom = PROMINENCE_FRACTION * np.max(np.abs(signal))
        if prom > 0:
            idx, _ = find_peaks(signal, prominence=prom, height=prom, distance=dist)
            events += [GaitEvent(time_s=t0 + i / fs, kind=kind) for i in idx.tolist()]
    events.sort(key=lambda e: (e.time_s, e.kind))
    return events


def reference_assign_laterality(events, gyro_anatomical, fs, t0=0.0):
    opposite = {SIDE_LEFT: SIDE_RIGHT, SIDE_RIGHT: SIDE_LEFT, SIDE_UNKNOWN: SIDE_UNKNOWN}
    yaw = gyro_anatomical[:, 0]
    if len(yaw) >= LOWPASS_MIN_SAMPLES and LATERALITY_LOWPASS_HZ < fs / 2.0:
        yaw = lowpass(yaw, LATERALITY_LOWPASS_HZ, fs)
    out = []
    last_ic_side = SIDE_UNKNOWN
    for ev in events:
        if ev.kind == IC:
            i = int(round((ev.time_s - t0) * fs))
            i = min(max(i, 0), len(yaw) - 1)
            if abs(yaw[i]) < LATERALITY_MIN_RAD_S:
                side = SIDE_UNKNOWN
            elif yaw[i] > 0:
                side = SIDE_LEFT
            else:
                side = SIDE_RIGHT
            last_ic_side = side
        else:
            side = opposite[last_ic_side]
        out.append(GaitEvent(time_s=ev.time_s, kind=ev.kind, side=side))
    return out


def reference_quality_check(events, stride_s):
    max_stride = MAX_STRIDE_FACTOR * stride_s
    fc_window = 0.25 * max_stride
    ics = [e for e in events if e.kind == IC]
    fcs = [e for e in events if e.kind == FC]
    if len(ics) > 1:
        kept_ics = []
        for i, ev in enumerate(ics):
            prev_ok = i > 0 and ev.time_s - ics[i - 1].time_s <= max_stride
            next_ok = i < len(ics) - 1 and ics[i + 1].time_s - ev.time_s <= max_stride
            if prev_ok or next_ok:
                kept_ics.append(ev)
        ics = kept_ics
    ic_times = np.array([e.time_s for e in ics])
    last_ic = np.searchsorted(ic_times, [e.time_s for e in fcs], side="right")
    kept_fcs = [ev for ev, k in zip(fcs, last_ic)
                if k and ev.time_s - ic_times[k - 1] <= fc_window]
    return sorted(ics + kept_fcs, key=lambda e: (e.time_s, e.kind))


def ordered(events):
    """GaitEvents ordered by time and then kind, as detect_events orders them."""
    return sorted(events, key=lambda e: (e.time_s, e.kind))


def train(events):
    """The event table of GaitEvents, ordered by time and then kind."""
    events = ordered(events)
    return event_table([e.time_s for e in events], [e.kind for e in events],
                       [e.side for e in events])


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

    def test_twelve_sample_yaw_is_filtered(self):
        """A bout of 12 samples, at least LOWPASS_MIN_SAMPLES, has its
        vertical rate low-pass filtered before the sides are read: the
        alternation at the Nyquist rate goes and the slow turn decides."""
        fs, t0 = 8.0, 1.0
        i = np.arange(12)
        gyro = np.zeros((12, 3))
        gyro[:, 0] = 0.3 * (-1.0) ** i + 0.2 * np.sin(2 * np.pi * i / 12)
        events = [GaitEvent(t0 + k / fs, IC) for k in i.tolist()]
        sided = stepdetect.assign_laterality(train(events), gyro, fs, t0=t0)
        assert gait_events(sided) == reference_assign_laterality(events, gyro, fs, t0=t0)
        assert sided.side.tolist() == [SIDE_LEFT] * 6 + [SIDE_UNKNOWN] + [SIDE_RIGHT] * 5

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
        events = train([GaitEvent(1.0, IC), GaitEvent(1.3, FC), GaitEvent(2.0, IC)])
        out = stepdetect.quality_check(events, self.STRIDE_S)
        assert any(e.kind == FC and e.time_s == 1.3 for e in out)

    def test_fc_beyond_gate_dropped(self):
        events = train([GaitEvent(1.0, IC), GaitEvent(1.5, FC), GaitEvent(2.0, IC)])
        out = stepdetect.quality_check(events, self.STRIDE_S)
        assert not any(e.kind == FC for e in out)

    def test_orphan_ic_removed(self):
        events = train([GaitEvent(1.0, IC), GaitEvent(2.0, IC), GaitEvent(10.0, IC)])
        out = stepdetect.quality_check(events, self.STRIDE_S)
        assert out.time_s.tolist() == [1.0, 2.0]

    def test_ic_gap_of_max_stride_kept(self):
        """An IC exactly the maximum stride (1.5 s) from its neighbor is
        kept; one 1.625 s from it is not."""
        events = train([GaitEvent(1.0, IC), GaitEvent(2.5, IC), GaitEvent(4.125, IC)])
        out = stepdetect.quality_check(events, self.STRIDE_S)
        assert out.time_s.tolist() == [1.0, 2.5]

    def test_fc_gate_matches_per_fc_filter(self):
        """The FCs kept are those of the per-FC filter: the last IC at or
        before the FC, within the FC window. Times are multiples of
        0.125 s, so FCs fall exactly on ICs and on the window's edge
        (0.375 s)."""
        window = FC_WINDOW_FRACTION * MAX_STRIDE_FACTOR * self.STRIDE_S

        def kept_fcs(ic_t, fc_t):
            events = train([GaitEvent(t, IC) for t in ic_t] + [GaitEvent(t, FC) for t in fc_t])
            out = stepdetect.quality_check(events, self.STRIDE_S)
            ics = out.time_s[out.kind == IC]
            want = []
            for t in sorted(fc_t):
                before = ics[ics <= t]
                if len(before) and t - before[-1] <= window:
                    want.append(t)
            got = out.time_s[out.kind == FC].tolist()
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


FS_CHOICES = [25.0, 50.0, 100.0]


@st.composite
def trains(draw):
    """(events, gyro, fs, t0): a time-ordered GaitEvent train on the
    sample grid of a bout of n samples starting at t0, a few events past
    either end of it, and a gyroscope whose filtered vertical rate is
    often below LATERALITY_MIN_RAD_S. At 8 Hz from a t0 of 0 or 3.75 s
    the times are exact, so gaps fall on the edges of the QC rules."""
    fs = draw(st.sampled_from([8.0] + FS_CHOICES))
    n = draw(st.integers(1, 300))
    t0 = draw(st.sampled_from([0.0, 3.75]) | st.floats(0.0, 1e4))
    events = draw(st.lists(st.builds(
        GaitEvent, st.integers(-3, n + 2), st.sampled_from([IC, FC]),
        st.sampled_from([SIDE_LEFT, SIDE_RIGHT, SIDE_UNKNOWN])), max_size=40))
    events = ordered([GaitEvent(t0 + e.time_s / fs, e.kind, e.side) for e in events])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gyro = rng.normal(0.0, draw(st.sampled_from([0.02, 0.1, 1.0])), (n, 3))
    return events, gyro, fs, t0


class TestAgainstPerEventStages:
    """The table stages give the GaitEvents of the per-event loops they replaced."""

    @pytest.mark.parametrize("fs", FS_CHOICES)
    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(0.5, 4.0),
           sign=st.sampled_from([-1, 1]),
           axis=st.sampled_from([stepdetect.AXIS_VERTICAL, stepdetect.AXIS_AP]),
           t0=st.sampled_from([0.0, 12.34]) | st.floats(0.0, 1e4))
    def test_detect_events(self, fs, seed, scale, sign, axis, t0):
        x = np.random.default_rng(seed).normal(size=(int(8 * fs), 3))
        params = WaveletParams(scale=scale, axis=axis, sign=sign)
        got = stepdetect.detect_events(x, fs, params, t0=t0)
        assert gait_events(got) == reference_detect_events(x, fs, params, t0=t0)
        assert set(got.side) <= {SIDE_UNKNOWN}

    def test_detect_events_on_a_flat_signal_is_empty(self):
        params = WaveletParams(scale=2.0, axis=stepdetect.AXIS_VERTICAL, sign=-1)
        got = stepdetect.detect_events(np.zeros((200, 3)), 50.0, params)
        assert len(got) == 0 and got.dtype == event_table([], [], []).dtype
        assert reference_detect_events(np.zeros((200, 3)), 50.0, params) == []

    @settings(deadline=None, max_examples=300)
    @given(trains(), st.sampled_from([0.5, 1.0]) | st.floats(0.2, 3.0))
    def test_assign_laterality_and_quality_check(self, case, stride_s):
        events, gyro, fs, t0 = case
        sided = stepdetect.assign_laterality(train(events), gyro, fs, t0=t0)
        want = reference_assign_laterality(events, gyro, fs, t0=t0)
        assert gait_events(sided) == want
        assert (gait_events(stepdetect.quality_check(sided, stride_s))
                == reference_quality_check(want, stride_s))

    @pytest.mark.parametrize("samples, yaw", [
        ([], 0.3),
        ([(10, IC)], 0.3),
        ([(5, FC), (20, IC), (25, FC), (50, IC), (53, FC)], 0.3),
        ([(10, FC), (10, IC), (40, IC), (40, FC), (41, FC)], 0.3),
        ([(10, IC), (15, FC), (60, IC), (66, FC), (110, IC)], 0.04),
        ([(i, IC) for i in range(0, 200, 13)] + [(i, FC) for i in range(3, 200, 13)], 0.06),
    ], ids=["empty", "single-ic", "fc-before-first-ic", "ic-and-fc-at-one-sample",
            "yaw-below-threshold", "yaw-across-threshold"])
    @pytest.mark.parametrize("stride_s", [0.2, 1.0])
    def test_edge_trains(self, samples, yaw, stride_s):
        """A yaw amplitude of 0.04 rad/s stays below LATERALITY_MIN_RAD_S
        everywhere; one of 0.06 crosses it twice per cycle."""
        fs, t0 = 50.0, 2.5
        gyro = np.zeros((200, 3))
        gyro[:, 0] = yaw * np.sin(2 * np.pi * np.arange(200) / fs)
        events = ordered([GaitEvent(t0 + i / fs, kind) for i, kind in samples])
        sided = stepdetect.assign_laterality(train(events), gyro, fs, t0=t0)
        want = reference_assign_laterality(events, gyro, fs, t0=t0)
        assert gait_events(sided) == want
        assert (gait_events(stepdetect.quality_check(sided, stride_s))
                == reference_quality_check(want, stride_s))
        if yaw < LATERALITY_MIN_RAD_S:
            assert set(sided.side) <= {SIDE_UNKNOWN}


class TestTableInterface:
    def test_what_a_stage_result_reads_as(self):
        """Each stage's result supports len() and per-record .time_s, .kind
        and .side; the public results hold GaitEvents of Python floats and
        strs, and the detections JSON reads back to equal ones. These are
        what the benchmark's hooks and its events-JSON check read."""
        aa, gg, fs, _ = walk_anatomical(1.2, seed=11)
        stride = stride_of(aa[:, 0], fs)
        params = wavelet_params(aa, fs, stride)
        detected = stepdetect.detect_events(aa, fs, params)
        sided = stepdetect.assign_laterality(detected, gg, fs)
        kept = stepdetect.quality_check(sided, stride)
        for result in (detected, sided, kept):
            assert len(result) == len(list(result)) > 0
            for record in result:
                assert isinstance(record.time_s, float)
                assert record.kind in (IC, FC)
                assert record.side in (SIDE_LEFT, SIDE_RIGHT, SIDE_UNKNOWN)
        assert sum(e.side == SIDE_UNKNOWN for e in detected) == len(detected)

        rec, _, _, _ = synth.generate(synth.SynthConfig(duration_s=30.0, seed=11))
        result = pipeline.process_recording(rec)
        assert type(result.events) is list and len(result.events) > 0
        for events in [result.events] + [b.events for b in result.bouts]:
            assert all(type(e) is GaitEvent and type(e.time_s) is float
                       and type(e.kind) is str and type(e.side) is str for e in events)
            # the shared constants, not a new str per event
            assert all(any(e.kind is k for k in (IC, FC))
                       and any(e.side is s for s in (SIDE_LEFT, SIDE_RIGHT, SIDE_UNKNOWN))
                       for e in events)
        doc = pipeline.events_to_json(result.events)
        assert pipeline.events_from_json(doc) == result.events

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.fft import irfft, next_fast_len, rfft

from gaitpipe import orientation, segmentation, synth
from gaitpipe.core import (ConfigurationError, GravityAlignedRecording, PipelineConfig,
                           SegmentKind)
from gaitpipe.synth import Phase

G = 9.81


def aligned(accel, gyro=None, fs=50.0):
    n = len(accel)
    if gyro is None:
        gyro = np.zeros((n, 3))
    return GravityAlignedRecording(
        t=np.arange(n) / fs, accel=np.asarray(accel, dtype=float),
        gyro=np.asarray(gyro, dtype=float), sample_rate=fs)


def direct_autocorr(x):
    """The definition of unbiased_autocorr, by O(n^2) np.correlate."""
    x = np.asarray(x, dtype=float)
    x = x - x.mean()
    n = len(x)
    r = np.correlate(x, x, mode="full")[n - 1:]
    r = r / (n - np.arange(n))
    if r[0] <= 1e-12:
        return np.zeros(n)
    return r / r[0]


def fft_autocorr(x, max_lag=None):
    """unbiased_autocorr by FFT (Wiener-Khinchin) with zero padding to at
    least 2n - 1 (the reference at lengths where direct_autocorr is slow)."""
    x = np.asarray(x, dtype=float)
    x = x - x.mean()
    n = len(x)
    m = n if max_lag is None else min(max_lag + 1, n)
    nfft = next_fast_len(2 * n - 1, real=True)
    spec = rfft(x, nfft)
    r = irfft(spec.real ** 2 + spec.imag ** 2, nfft)[:m]
    r = r / (n - np.arange(m))
    if r[0] <= 1e-12:
        return np.zeros(m)
    return r / r[0]


def per_window_flags(rec, cfg):
    """Moving flags computed one window at a time (the reference for the
    reshaped reduction in classify_windows)."""
    bounds = segmentation.window_bounds(len(rec.t), rec.sample_rate, cfg)
    amag = np.linalg.norm(rec.accel, axis=1)
    gmag = np.linalg.norm(rec.gyro, axis=1)
    lo = cfg.accel_ref * (1.0 - cfg.accel_tol)
    hi = cfg.accel_ref * (1.0 + cfg.accel_tol)
    moving = []
    for a, b in bounds:
        mean_a = float(np.mean(amag[a:b]))
        mean_g = float(np.mean(gmag[a:b]))
        comb_std = float(np.linalg.norm(np.std(rec.accel[a:b], axis=0, ddof=0)))
        moving.append(not ((lo <= mean_a <= hi) and mean_g < cfg.gyro_thresh
                           and comb_std < cfg.std_thresh))
    return np.array(moving, dtype=bool)


def loop_window_bounds(n_samples, fs, cfg):
    """window_bounds one window at a time (the reference for its arithmetic)."""
    wlen = segmentation.window_length(fs, cfg)
    bounds = []
    start = 0
    while start + wlen <= n_samples:
        bounds.append((start, start + wlen))
        start += wlen
    if n_samples - start >= max(2, int(round(cfg.window_s * fs / 2))):
        bounds.append((start, n_samples))
    return bounds


def loop_segment(rec, cfg):
    """segment with its rests merged by a nested while loop (the
    reference for its one pass over the moving runs)."""
    moving, bounds = segmentation.classify_windows(rec, cfg)
    if not len(bounds):
        return []
    t0 = rec.t[0]
    fs = rec.sample_rate
    spans = []  # (start_s, end_s, moving)
    for a, b, val in segmentation.flag_runs(moving):
        spans.append([t0 + bounds[a][0] / fs, t0 + (bounds[b - 1][1]) / fs, val])

    merged = []
    i = 0
    while i < len(spans):
        cur = spans[i]
        if not cur[2]:
            while (i + 2 < len(spans) and spans[i + 1][2]
                   and not spans[i + 2][2]
                   and spans[i + 2][0] - cur[1] < cfg.merge_gap_s):
                cur = [cur[0], spans[i + 2][1], False]
                i += 2
        merged.append(cur)
        i += 1

    return segmentation.label_runs(merged, t0, t0 + bounds[-1][1] / fs, cfg)


def segment_with_flags(flags, t0, fs, cfg):
    """(segment, loop_segment) of a recording starting at t0 whose windows
    classify_windows flags as given."""
    n = len(flags) * segmentation.window_length(fs, cfg)
    rec = GravityAlignedRecording(t=t0 + np.arange(n) / fs, accel=np.zeros((n, 3)),
                                  gyro=np.zeros((n, 3)), sample_rate=fs)
    bounds = segmentation.window_bounds(n, fs, cfg)
    assert len(bounds) == len(flags)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segmentation, "classify_windows",
                   lambda rec, cfg: (np.array(flags, dtype=bool), bounds))
        return segmentation.segment(rec, cfg), loop_segment(rec, cfg)


def static_aligned(duration_s, fs=50.0):
    n = int(duration_s * fs)
    accel = np.zeros((n, 3))
    accel[:, 0] = G
    return aligned(accel, fs=fs)


class TestConfig:
    def test_defaults_valid(self):
        PipelineConfig().validate()

    def test_gyro_thresh_range(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(gyro_thresh=0.7).validate()
        with pytest.raises(ConfigurationError):
            PipelineConfig(gyro_thresh=0.1).validate()

    def test_std_thresh_range(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(std_thresh=0.5).validate()

    def test_positive_required(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(window_s=-1.0).validate()


class TestClassifyWindows:
    def test_pure_gravity_all_nonmoving(self):
        rec = static_aligned(6.0)
        moving, _ = segmentation.classify_windows(rec)
        assert not moving.any()

    def test_high_magnitude_all_moving(self):
        n = 300
        accel = np.zeros((n, 3))
        accel[:, 0] = 12.0
        moving, _ = segmentation.classify_windows(aligned(accel))
        assert moving.all()

    def test_synthetic_walk_mostly_moving(self):
        rec, _, _, _ = synth.generate(synth.SynthConfig(duration_s=30.0, seed=0))
        ga = aligned(np.column_stack([rec.accel[:, 2], rec.accel[:, 0],
                                      rec.accel[:, 1]]),
                     fs=rec.sample_rate)
        moving, _ = segmentation.classify_windows(ga)
        assert moving.mean() > 0.9

    def test_gyro_criterion(self):
        n = 300
        accel = np.zeros((n, 3))
        accel[:, 0] = G
        gyro = np.zeros((n, 3))
        gyro[:, 0] = 0.7  # above the 0.6 rad/s threshold
        moving, _ = segmentation.classify_windows(aligned(accel, gyro))
        assert moving.all()

    def test_matches_per_window_loop(self):
        """Scripted walks with rests and turns, cut to lengths that leave
        a tail window (and to one shorter than a window), give the same
        flags as the window-by-window reference."""
        cfg = PipelineConfig()
        script = [Phase("rest", 4.0), Phase("walk", 8.0), Phase("turn", 2.0, 120.0),
                  Phase("walk", 6.0), Phase("rest", 3.0), Phase("walk", 5.0)]
        rec, _, _, _ = synth.generate(synth.SynthConfig(
            duration_s=28.0, seed=11, script=script))
        ga = orientation.align_recording(rec)
        wlen = segmentation.window_length(ga.sample_rate, cfg)
        for n in (len(ga.t), len(ga.t) - 7, len(ga.t) - wlen // 2, wlen - 1, 16):
            cut = aligned(ga.accel[:n], ga.gyro[:n], fs=ga.sample_rate)
            moving, bounds = segmentation.classify_windows(cut, cfg)
            assert len(moving) == len(bounds)
            np.testing.assert_array_equal(moving, per_window_flags(cut, cfg))
        assert bounds[-1][1] - bounds[-1][0] < wlen  # the last cut has a tail
        # every window's verdict is exercised: both flags occur
        moving, _ = segmentation.classify_windows(ga, cfg)
        assert moving.any() and not moving.all()

    @given(st.integers(0, 5000), st.sampled_from([10.0, 25.0, 50.0, 100.0, 128.0, 200.0]),
           st.floats(0.05, 5.0))
    def test_window_bounds_match_window_loop(self, n, fs, window_s):
        cfg = PipelineConfig(window_s=window_s)
        bounds = segmentation.window_bounds(n, fs, cfg)
        assert bounds.shape == (len(bounds), 2)
        assert bounds.tolist() == [list(b) for b in loop_window_bounds(n, fs, cfg)]


class TestUnbiasedAutocorr:
    def test_matches_direct_definition(self):
        rng = np.random.default_rng(5)
        lengths = [1, 2, 3] + rng.integers(1, 601, 40).tolist()
        for n in lengths:
            x = rng.normal(0.0, 1.0, n) * rng.choice([1e-3, 1.0, 1e3]) + G
            want = direct_autocorr(x)
            for max_lag in (0, 1, n - 1, n, n + 5, None):
                got = segmentation.unbiased_autocorr(x, max_lag)
                m = n if max_lag is None else min(max_lag + 1, n)
                assert got.shape == (m,)
                np.testing.assert_allclose(got, want[:m], rtol=0, atol=1e-12)

    def test_matches_fft_on_an_hour(self):
        """At the length of a 1 h bout at 50 Hz and the stride band's lag
        count, the lag sums match the FFT expression."""
        rng = np.random.default_rng(6)
        t = np.arange(180_000) / 50.0
        x = G + 2.0 * np.sin(2 * np.pi * t / 0.55) + rng.normal(0.0, 1.0, len(t))
        got = segmentation.unbiased_autocorr(x, 114)
        assert got.shape == (115,)
        np.testing.assert_allclose(got, fft_autocorr(x, 114), rtol=0, atol=1e-12)

    def test_constant_input_gives_zeros(self):
        for n in (1, 7, 500):
            for max_lag in (None, 0, 3):
                r = segmentation.unbiased_autocorr(np.full(n, G), max_lag)
                assert not r.any()

    def test_stride_peak_band_edge_on_a_peak(self):
        """dominant_stride_peak reads a truncated autocorrelation. A band
        that ends exactly on a peak of the full autocorrelation, and holds
        no other, still finds that peak, down to a lag of one sample."""
        fs = 50.0
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(20):
            stride = rng.uniform(0.5, 2.4)
            t = np.arange(int(rng.uniform(3.0, 20.0) * fs)) / fs
            kmod = np.floor(t / (stride / 2)).astype(int) % 2
            x = (2.0 + 0.6 * (-1.0) ** kmod) * np.sin(4 * np.pi * t / stride) \
                + rng.normal(0.0, rng.uniform(0.1, 2.0), len(t))
            r = direct_autocorr(x)
            peaks, _ = segmentation.find_peaks(r)
            for p in peaks[peaks < 150]:
                cfg = PipelineConfig(stride_lag_min_s=(p - 0.5) / fs,
                                         stride_lag_max_s=p / fs)
                lag, coef = segmentation.dominant_stride_peak(
                    segmentation.stride_autocorr(x, fs, cfg), fs, cfg)
                assert lag == p / fs
                assert coef == pytest.approx(r[p], abs=1e-12)
                checked += 1
        assert checked > 50


class TestSegment:
    def test_rest_walk_rest_script(self):
        script = [Phase("rest", 3.0), Phase("walk", 10.0), Phase("rest", 3.0)]
        rec, _, _, _ = synth.generate(
            synth.SynthConfig(duration_s=16.0, seed=1, script=script))
        from gaitpipe import orientation
        ga = orientation.align_recording(rec)
        segs = segmentation.segment(ga)
        kinds = [s.kind for s in segs]
        assert kinds == [SegmentKind.BOUNDARY, SegmentKind.GAIT_BOUT,
                         SegmentKind.BOUNDARY]
        for seg, (a, b) in zip(segs, [(0, 3), (3, 13), (13, 16)]):
            assert abs(seg.start_s - a) <= 0.6
            assert abs(seg.end_s - b) <= 0.6

    def test_pure_rest_single_boundary(self):
        rec = static_aligned(10.0)
        segs = segmentation.segment(rec)
        assert len(segs) == 1
        assert segs[0].kind == SegmentKind.BOUNDARY

    def test_short_rest_between_walks(self):
        script = [Phase("walk", 5.0), Phase("rest", 1.5), Phase("walk", 5.0)]
        rec, _, _, _ = synth.generate(
            synth.SynthConfig(duration_s=11.5, seed=2, script=script))
        from gaitpipe import orientation
        ga = orientation.align_recording(rec)
        cfg = PipelineConfig(merge_gap_s=0.05)  # keep the rest distinct
        segs = segmentation.segment(ga, cfg)
        kinds = [s.kind for s in segs]
        assert SegmentKind.SHORT_REST in kinds

    @given(st.lists(st.booleans(), min_size=1, max_size=60), st.floats(25.0, 100.0),
           st.floats(0.2, 1.5), st.floats(0.05, 3.0), st.floats(-1e4, 1e4))
    def test_rest_merge_matches_loop(self, flags, fs, window_s, merge_gap_s, t0):
        cfg = PipelineConfig(window_s=window_s, merge_gap_s=merge_gap_s)
        got, want = segment_with_flags(flags, t0, fs, cfg)
        assert [(s.start_s, s.end_s, s.kind) for s in got] == \
            [(s.start_s, s.end_s, s.kind) for s in want]
        assert all(type(s.start_s) is float and type(s.end_s) is float for s in got)

    def test_chained_rest_merge(self):
        """Rest, short move, rest, short move, rest between two walks: both
        moves are under merge_gap_s, so the three rests become one; a move
        of merge_gap_s or more keeps the rests on either side apart."""
        cfg = PipelineConfig(window_s=0.5, merge_gap_s=1.5)
        runs = [(True, 6), (False, 6), (True, 2), (False, 3), (True, 1), (False, 6),
                (True, 3), (False, 3), (True, 6)]
        flags = [val for val, k in runs for _ in range(k)]
        got, want = segment_with_flags(flags, 3.0, 50.0, cfg)
        assert [(s.start_s, s.end_s, s.kind) for s in got] == \
            [(s.start_s, s.end_s, s.kind) for s in want]
        assert [(s.start_s, s.end_s, s.kind) for s in got] == [
            (3.0, 6.0, SegmentKind.GAIT_BOUT), (6.0, 15.0, SegmentKind.LONG_REST),
            (15.0, 16.5, SegmentKind.UNKNOWN), (16.5, 18.0, SegmentKind.SHORT_REST),
            (18.0, 21.0, SegmentKind.GAIT_BOUT)]

    def test_partition_no_overlap(self):
        script = [Phase("rest", 3.0), Phase("walk", 8.0), Phase("rest", 2.5),
                  Phase("walk", 6.0), Phase("rest", 3.0)]
        rec, _, _, _ = synth.generate(
            synth.SynthConfig(duration_s=22.5, seed=3, script=script))
        from gaitpipe import orientation
        ga = orientation.align_recording(rec)
        segs = segmentation.segment(ga)
        for a, b in zip(segs, segs[1:]):
            assert a.end_s == pytest.approx(b.start_s)
        assert segs[0].start_s == pytest.approx(ga.t[0])


class TestDetectTurns:
    def _rec_with_yaw(self, rate_rad_s, turn_s=2.0, pad_s=4.0, fs=50.0):
        n = int((turn_s + 2 * pad_s) * fs)
        accel = np.zeros((n, 3))
        accel[:, 0] = G
        gyro = np.zeros((n, 3))
        i0 = int(pad_s * fs)
        i1 = int((pad_s + turn_s) * fs)
        gyro[i0:i1, 0] = rate_rad_s
        return aligned(accel, gyro, fs=fs)

    def test_sharp_turn_114_degrees(self):
        rec = self._rec_with_yaw(1.0)
        turns = segmentation.detect_turns(rec)
        assert len(turns) == 1
        assert turns[0].angle_deg == pytest.approx(114.59, abs=6.0)
        assert turns[0].is_sharp()

    def test_non_sharp_57_degrees(self):
        rec = self._rec_with_yaw(0.5)
        turns = segmentation.detect_turns(rec)
        assert len(turns) == 1
        assert turns[0].angle_deg == pytest.approx(57.3, abs=4.0)
        assert not turns[0].is_sharp()

    def test_zero_gyro_no_turns(self):
        rec = static_aligned(8.0)
        assert segmentation.detect_turns(rec) == []


def gait_autocorr(x, fs):
    return segmentation.stride_autocorr(x, fs, PipelineConfig())


class TestVerifyGait:
    def test_periodic_signal_true_with_correct_lag(self):
        fs = 50.0
        t = np.arange(0, 20, 1 / fs)
        stride = 1.2
        # per-step amplitude alternation makes the stride lag dominant
        kmod = np.floor(t / (stride / 2)).astype(int) % 2
        x = G + (2.0 + 0.6 * (-1.0) ** kmod) * np.sin(2 * np.pi * t / (stride / 2))
        cfg = PipelineConfig()
        r = segmentation.stride_autocorr(x, fs, cfg)
        peak = segmentation.dominant_stride_peak(r, fs, cfg)
        assert peak is not None
        assert peak[0] == pytest.approx(1.2, abs=0.1)
        assert segmentation.verify_gait(r, fs, cfg)

    def test_white_noise_mostly_false(self):
        fs = 50.0
        n = int(10 * fs)
        false_count = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.normal(0, 2.0, n)
            if not segmentation.verify_gait(gait_autocorr(x, fs), fs):
                false_count += 1
        assert false_count >= 95

    def test_constant_false(self):
        assert not segmentation.verify_gait(gait_autocorr(np.full(500, G), 50.0), 50.0)


class TestEligibleBouts:
    def _run(self, script, duration, seed=4):
        rec, _, _, _ = synth.generate(
            synth.SynthConfig(duration_s=duration, seed=seed, script=script))
        from gaitpipe import orientation
        ga = orientation.align_recording(rec)
        cfg = PipelineConfig()
        segs = segmentation.segment(ga, cfg)
        turns = segmentation.detect_turns(ga, cfg)
        return ga, segs, turns, cfg

    def test_sharp_turn_splits_bout(self):
        script = [Phase("walk", 4.0), Phase("turn", 1.0, 120.0), Phase("walk", 5.0)]
        ga, segs, turns, cfg = self._run(script, 10.0)
        bouts = segmentation.eligible_bouts(
            ga, segmentation.refine_with_turns(segs, turns, cfg), cfg)
        assert len(bouts) == 2
        assert bouts[0].duration_s == pytest.approx(4.0, abs=0.7)
        assert bouts[1].duration_s == pytest.approx(5.0, abs=0.7)

    def test_non_sharp_turn_keeps_bout(self):
        script = [Phase("walk", 4.0), Phase("turn", 2.0, 57.3), Phase("walk", 4.0)]
        ga, segs, turns, cfg = self._run(script, 10.0)
        bouts = segmentation.eligible_bouts(
            ga, segmentation.refine_with_turns(segs, turns, cfg), cfg)
        assert len(bouts) == 1
        assert bouts[0].duration_s == pytest.approx(10.0, abs=0.7)

    def test_turn_below_configured_sharp_angle_keeps_bout(self):
        script = [Phase("walk", 4.0), Phase("turn", 1.0, 120.0), Phase("walk", 5.0)]
        ga, segs, turns, _ = self._run(script, 10.0)
        cfg = PipelineConfig(sharp_turn_deg=130.0)
        assert any(t.is_sharp() and not t.is_sharp(cfg) for t in turns)
        bouts = segmentation.eligible_bouts(
            ga, segmentation.refine_with_turns(segs, turns, cfg), cfg)
        assert len(bouts) == 1
        assert bouts[0].duration_s == pytest.approx(10.0, abs=0.7)

    def test_bout_inside_turn_removed(self):
        from gaitpipe.core import Segment
        from gaitpipe.segmentation import TurnInterval
        ga = static_aligned(10.0)
        segs = [Segment(2.0, 5.0, SegmentKind.GAIT_BOUT)]
        turns = [TurnInterval(1.0, 6.0, 150.0)]
        assert segmentation.eligible_bouts(
            ga, segmentation.refine_with_turns(segs, turns)) == []

    def test_every_bout_verified_and_long_enough(self):
        script = [Phase("rest", 3.0), Phase("walk", 12.0), Phase("turn", 1.5, 110.0),
                  Phase("walk", 12.0), Phase("rest", 3.0)]
        ga, segs, turns, cfg = self._run(script, 31.5)
        bouts = segmentation.eligible_bouts(
            ga, segmentation.refine_with_turns(segs, turns, cfg), cfg)
        assert bouts
        fs = ga.sample_rate
        for b in bouts:
            assert b.duration_s >= cfg.min_bout_s
            i0 = int(round((b.start_s - ga.t[0]) * fs))
            i1 = int(round((b.end_s - ga.t[0]) * fs))
            # each bout carries the vertical stride analysis it passed
            r = segmentation.stride_autocorr(ga.vertical_accel[i0:i1], fs, cfg)
            assert segmentation.verify_gait(r, fs, cfg)
            np.testing.assert_array_equal(b.vertical_autocorr, r)
            assert b.peak == segmentation.verify_gait(r, fs, cfg)
            assert b.samples == slice(i0, i1)
            for turn in turns:
                if abs(turn.angle_deg) >= cfg.sharp_turn_deg:
                    assert turn.end_s <= b.start_s or turn.start_s >= b.end_s


class TestRefineWithTurns:
    def test_sharp_turn_relabeled(self):
        from gaitpipe.core import Segment
        from gaitpipe.segmentation import TurnInterval
        segs = [Segment(0.0, 10.0, SegmentKind.GAIT_BOUT)]
        turns = [TurnInterval(4.0, 5.0, 120.0)]
        out = segmentation.refine_with_turns(segs, turns)
        assert [(s.kind, s.start_s, s.end_s) for s in out] == [
            (SegmentKind.GAIT_BOUT, 0.0, 4.0),
            (SegmentKind.SHARP_TURN, 4.0, 5.0),
            (SegmentKind.GAIT_BOUT, 5.0, 10.0)]

    def test_gentle_turn_ignored(self):
        from gaitpipe.core import Segment
        from gaitpipe.segmentation import TurnInterval
        segs = [Segment(0.0, 10.0, SegmentKind.GAIT_BOUT)]
        turns = [TurnInterval(4.0, 5.0, 57.3)]
        out = segmentation.refine_with_turns(segs, turns)
        assert len(out) == 1
        assert out[0].kind == SegmentKind.GAIT_BOUT

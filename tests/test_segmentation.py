import numpy as np
import pytest

from gaitpipe import segmentation, synth
from gaitpipe.core import ConfigurationError, GravityAlignedRecording, SegmentKind
from gaitpipe.segmentation import SegmentationConfig
from gaitpipe.synth import Phase

G = 9.81


def aligned(accel, gyro=None, fs=50.0):
    n = len(accel)
    if gyro is None:
        gyro = np.zeros((n, 3))
    return GravityAlignedRecording(
        t=np.arange(n) / fs, accel=np.asarray(accel, dtype=float),
        gyro=np.asarray(gyro, dtype=float), sample_rate=fs,
        orientation=np.tile([1.0, 0, 0, 0], (n, 1)))


def static_aligned(duration_s, fs=50.0):
    n = int(duration_s * fs)
    accel = np.zeros((n, 3))
    accel[:, 0] = G
    return aligned(accel, fs=fs)


class TestConfig:
    def test_defaults_valid(self):
        SegmentationConfig().validate()

    def test_gyro_thresh_range(self):
        with pytest.raises(ConfigurationError):
            SegmentationConfig(gyro_thresh=0.7).validate()
        with pytest.raises(ConfigurationError):
            SegmentationConfig(gyro_thresh=0.1).validate()

    def test_std_thresh_range(self):
        with pytest.raises(ConfigurationError):
            SegmentationConfig(std_thresh=0.5).validate()

    def test_positive_required(self):
        with pytest.raises(ConfigurationError):
            SegmentationConfig(window_s=-1.0).validate()


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
        cfg = SegmentationConfig(merge_gap_s=0.05)  # keep the rest distinct
        segs = segmentation.segment(ga, cfg)
        kinds = [s.kind for s in segs]
        assert SegmentKind.SHORT_REST in kinds

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


class TestVerifyGait:
    def test_periodic_signal_true_with_correct_lag(self):
        fs = 50.0
        t = np.arange(0, 20, 1 / fs)
        stride = 1.2
        # per-step amplitude alternation makes the stride lag dominant
        kmod = np.floor(t / (stride / 2)).astype(int) % 2
        x = G + (2.0 + 0.6 * (-1.0) ** kmod) * np.sin(2 * np.pi * t / (stride / 2))
        cfg = SegmentationConfig()
        peak = segmentation.dominant_stride_peak(x, fs, cfg)
        assert peak is not None
        assert peak[0] == pytest.approx(1.2, abs=0.1)
        assert segmentation.verify_gait(x, fs, cfg)

    def test_white_noise_mostly_false(self):
        fs = 50.0
        n = int(10 * fs)
        false_count = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.normal(0, 2.0, n)
            if not segmentation.verify_gait(x, fs):
                false_count += 1
        assert false_count >= 95

    def test_constant_false(self):
        assert not segmentation.verify_gait(np.full(500, G), 50.0)


class TestEligibleBouts:
    def _run(self, script, duration, seed=4):
        rec, _, _, _ = synth.generate(
            synth.SynthConfig(duration_s=duration, seed=seed, script=script))
        from gaitpipe import orientation
        ga = orientation.align_recording(rec)
        cfg = SegmentationConfig()
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
        cfg = SegmentationConfig(sharp_turn_deg=130.0)
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
            assert segmentation.verify_gait(ga.vertical_accel[i0:i1], fs, cfg)
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

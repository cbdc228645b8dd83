import tracemalloc
import warnings

import numpy as np
import pytest

from gaitpipe import evaluate, pipeline, segmentation, stepdetect, synth
from gaitpipe.core import (
    AXIS_VERTICAL,
    FC,
    IC,
    ConfigurationError,
    ContractError,
    ImuRecording,
    InsufficientDataError,
    ParseError,
    SegmentKind,
    random_unit_quat,
)
from gaitpipe.pipeline import PipelineConfig
from gaitpipe.synth import Phase


class TestPipelineConfig:
    def test_json_roundtrip(self):
        cfg = PipelineConfig(lowpass_cutoff_hz=15.0, sharp_turn_deg=100.0)
        doc = cfg.to_json()
        back = PipelineConfig.from_json(doc)
        assert back == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            PipelineConfig.from_json({"bogus": 1})

    @pytest.mark.parametrize("bad", [
        {"lowpass_cutoff_hz": -1.0},
        {"gyro_thresh": 0.05},
        {"wavelet_axis": "sideways"},
        {"wavelet_sign": 2},
        {"madgwick_beta": -1.0},
        {"min_bout_s": -1.0},
        {"wavelet_scale": -1.0},
        {"stride_lag_min_s": 3.0},
        {"stride_lag_max_s": 0.0},
        {"stride_lag_min_s": 0.0},
        {"window_s": float("nan")},
        {"stride_lag_max_s": float("inf")},
        {"wavelet_scale": float("nan")},
        {"resample_hz": float("nan")},
        {"resample_hz": float("inf")},
        {"resample_hz": 0.0},
        {"resample_hz": 0.01},
        {"resample_hz": 1e12},
        {"turn_lowpass_hz": -1.0},
        {"turn_lowpass_hz": 0.0},
        {"turn_stop_dps": -1.0},
        {"turn_stop_dps": 20.0},
        {"turn_start_dps": 4.0},
        {"turn_merge_s": -0.1},
    ], ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
    def test_invalid_values_rejected(self, bad):
        """JSON and a config built in code go through the same checks."""
        with pytest.raises(ConfigurationError):
            PipelineConfig.from_json(bad)
        rec, _, _, _ = synth.generate(synth.SynthConfig(duration_s=5.0))
        with pytest.raises(ConfigurationError):
            pipeline.process_recording(rec, PipelineConfig(**bad))

    @pytest.mark.parametrize("bad", [
        {"window_s": "abc"}, {"window_s": None}, {"window_s": True},
        {"window_s": 10 ** 400}, {"window_s": [0.6]}, {"turn_lowpass_hz": float("nan")},
        {"resample_hz": "50"}, {"resample_hz": False}, {"wavelet_sign": 1.0},
        {"wavelet_sign": True}, {"wavelet_axis": 1}, {"wavelet_axis": ["vertical"]},
    ], ids=lambda bad: ",".join(f"{k}={str(v)[:12]}" for k, v in bad.items()))
    def test_wrong_types_rejected_when_built(self, bad):
        key = next(iter(bad))
        with pytest.raises(ConfigurationError, match=f"^{key} must be"):
            PipelineConfig(**bad)
        with pytest.raises(ConfigurationError, match=f"^{key} must be"):
            PipelineConfig.from_json(bad)

    def test_numpy_scalars_and_ints_accepted(self):
        cfg = PipelineConfig(window_s=np.float64(0.5), sharp_turn_deg=np.int64(100),
                             turn_merge_s=0, wavelet_sign=np.int64(-1))
        assert cfg.to_json()["wavelet_sign"] == -1

    @pytest.mark.parametrize("doc", [[], "window_s", None, 1.0, [{"window_s": 0.6}]])
    def test_non_object_rejected(self, doc):
        with pytest.raises(ConfigurationError, match="must be an object"):
            PipelineConfig.from_json(doc)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            PipelineConfig().window_s = -1.0

    def test_direct_turn_detection_cannot_take_a_bad_config(self):
        with pytest.raises(ConfigurationError, match="turn_lowpass_hz"):
            segmentation.detect_turns(None, PipelineConfig(turn_lowpass_hz=float("nan")))

    @pytest.mark.parametrize("text", ['{"window_s": 0.6', "\xff", ""])
    def test_unreadable_json_rejected(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ConfigurationError, match="cfg.json"):
            PipelineConfig.load(path)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"turn_merge_s": 0.4}\n')
        assert PipelineConfig.load(path).turn_merge_s == 0.4

    def test_nan_from_json_text_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"window_s": NaN}\n')
        with pytest.raises(ConfigurationError):
            PipelineConfig.load(path)


class TestProcessRecording:
    def _f1(self, detected, truth, kind):
        det = sorted(e.time_s for e in detected if e.kind == kind)
        ref = sorted(e.time_s for e in truth if e.kind == kind)
        rep = evaluate.match_events(det, ref)
        return evaluate.compute_metrics(rep).f1

    def test_clean_walk_high_f1(self):
        rec, truth, _, _ = synth.generate(synth.SynthConfig(duration_s=30.0,
                                                            seed=0))
        result = pipeline.process_recording(rec)
        assert self._f1(result.events, truth, IC) >= 0.98
        assert self._f1(result.events, truth, FC) >= 0.98

    def test_rotated_noisy_walk_still_detects(self):
        q = np.array([0.8, 0.2, -0.4, 0.4])
        q = q / np.linalg.norm(q)
        rec, truth, _, _ = synth.generate(synth.SynthConfig(
            duration_s=30.0, seed=1, noise_sigma=0.3, sensor_rotation=q))
        result = pipeline.process_recording(rec)
        assert self._f1(result.events, truth, IC) >= 0.95

    def test_scripted_segments_recovered(self):
        script = [Phase("rest", 3.0), Phase("walk", 10.0),
                  Phase("turn", 1.5, 120.0), Phase("walk", 10.0),
                  Phase("rest", 3.0)]
        rec, _, truth_segs, _ = synth.generate(synth.SynthConfig(
            duration_s=27.5, seed=2, script=script))
        result = pipeline.process_recording(rec)
        kinds = [s.kind for s in result.segments]
        assert kinds == [s.kind for s in truth_segs]
        for got, want in zip(result.segments, truth_segs):
            assert abs(got.start_s - want.start_s) <= 0.6
            assert abs(got.end_s - want.end_s) <= 0.6

    def test_rest_only_no_events(self):
        rec, _, _, _ = synth.generate(synth.SynthConfig(
            duration_s=10.0, seed=3, script=[Phase("rest", 10.0)]))
        result = pipeline.process_recording(rec)
        assert result.events == []
        assert result.bouts == []
        assert [s.kind for s in result.segments] == [SegmentKind.BOUNDARY]

    def test_events_sorted_and_within_bouts(self):
        rec, _, _, _ = synth.generate(synth.SynthConfig(duration_s=30.0,
                                                        seed=4))
        result = pipeline.process_recording(rec)
        times = [e.time_s for e in result.events]
        assert times == sorted(times)
        spans = [(b.start_s, b.end_s) for b in result.bouts
                 if not b.skipped_reason]
        for e in result.events:
            assert any(a <= e.time_s <= b for a, b in spans)

    def test_wavelet_overrides_applied(self):
        rec, truth, _, _ = synth.generate(synth.SynthConfig(duration_s=30.0,
                                                            seed=5))
        # exactly one forced polarity matches truth; the other must not
        # silently agree, proving the override reaches the detector
        f1s = sorted(
            self._f1(pipeline.process_recording(
                rec, PipelineConfig(wavelet_sign=s)).events, truth, IC) or 0.0
            for s in (-1, 1))
        assert f1s[0] < 0.5
        assert f1s[1] >= 0.98

    @pytest.mark.parametrize("seed", [3, 4, 5, 6])
    def test_axis_override_gets_its_own_sign(self, seed):
        """On these rotated walks the estimator picks the AP axis with a
        sign that is wrong for the vertical one; a vertical override must
        have its sign estimated on the vertical axis."""
        rec, truth, _, _ = synth.generate(synth.SynthConfig(
            duration_s=60.0, seed=seed, noise_sigma=0.3,
            sensor_rotation=random_unit_quat(np.random.default_rng(seed))))
        events = pipeline.process_recording(
            rec, PipelineConfig(wavelet_axis=AXIS_VERTICAL)).events
        assert (self._f1(events, truth, IC) or 0.0) >= 0.98

    def test_two_autocorrelations_per_bout(self, monkeypatch):
        """One vertical and one AP autocorrelation per eligible bout."""
        calls = []
        original = segmentation.unbiased_autocorr

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return original(*args, **kwargs)

        for module in (segmentation, stepdetect):
            monkeypatch.setattr(module, "unbiased_autocorr", counted)
        q = np.array([0.8, 0.2, -0.4, 0.4])
        rec, _, _, _ = synth.generate(synth.SynthConfig(
            duration_s=120.0, seed=1, noise_sigma=0.3,
            sensor_rotation=q / np.linalg.norm(q)))
        result = pipeline.process_recording(rec)
        assert len(result.bouts) == 1 and result.bouts[0].skipped_reason is None
        assert len(calls) == 2

    def test_bout_without_events_has_a_reason(self, monkeypatch):
        """A verified bout whose events all fail quality control is
        recorded as skipped, with a reason, not as a bout of no events."""
        monkeypatch.setattr(stepdetect, "quality_check", lambda events, stride_s: events[:0])
        rec, _, _, _ = synth.generate(synth.SynthConfig(duration_s=30.0, seed=0))
        result = pipeline.process_recording(rec)
        assert result.events == [] and result.bouts
        for bout in result.bouts:
            assert bout.events == []
            assert bout.skipped_reason == "no event passed detection and quality control"

    def test_short_walk_processed(self):
        """A bout between min_bout_s and 3 s gets events, not a skip."""
        script = [Phase("rest", 5.0), Phase("walk", 2.2), Phase("rest", 5.0)]
        rec, _, _, _ = synth.generate(synth.SynthConfig(
            duration_s=12.2, seed=0, script=script))
        result = pipeline.process_recording(rec)
        assert len(result.bouts) == 1
        bout = result.bouts[0]
        assert bout.skipped_reason is None
        assert bout.end_s - bout.start_s < 3.0
        assert bout.events

    @pytest.mark.parametrize("stream", ["accel", "gyro"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_sample_rejected(self, stream, value):
        """A direct call validates the recording as load_recording does."""
        rec, _, _, _ = synth.generate(synth.SynthConfig(duration_s=10.0, seed=0))
        getattr(rec, stream)[200, 1] = value
        with pytest.raises(ContractError):
            pipeline.process_recording(rec)

    @pytest.mark.parametrize("fs", [20.0, 50.0, 100.0])
    @pytest.mark.parametrize("n", [0, 1, 2, 9])
    def test_fewer_than_10_samples_refused(self, fs, n):
        """Refused before any stage runs, at every rate and without a
        numpy warning; 20 Hz skips the low-pass, whose guard used to be
        the only one."""
        t = np.arange(n) / fs
        rec = ImuRecording(t=t, accel=np.tile([0.1, 0.2, 9.81], (n, 1)),
                           gyro=np.zeros((n, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientDataError, match="at least 10 samples"):
                pipeline.process_recording(rec)

    def test_events_carry_python_floats(self):
        rec, _, _, _ = synth.generate(synth.SynthConfig(duration_s=20.0, seed=7))
        events = pipeline.process_recording(rec).events
        assert events
        assert all(type(e.time_s) is float for e in events)

    def test_determinism(self):
        rec, _, _, _ = synth.generate(synth.SynthConfig(duration_s=20.0,
                                                        seed=6,
                                                        noise_sigma=0.3))
        a = pipeline.process_recording(rec)
        b = pipeline.process_recording(rec)
        assert [(e.time_s, e.kind, e.side) for e in a.events] \
            == [(e.time_s, e.kind, e.side) for e in b.events]


def traced_peak(fn, *args):
    """(result, bytes) of one call: the peak of the allocations that
    tracemalloc sees during the call, above those live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    """Each stage drops its large temporaries after their last use, so a
    10 min walk's traced peak stays within 2.2 times the recording's
    arrays (3.4 times for generate and 2.9 for process_recording when
    whole-recording waveforms, quaternions and spectra were held)."""

    CONFIG = synth.SynthConfig(duration_s=600.0, noise_sigma=0.3,
                               sensor_rotation=np.array([0.8, 0.2, -0.4, 0.4]))

    @staticmethod
    def size(rec) -> int:
        return rec.t.nbytes + rec.accel.nbytes + rec.gyro.nbytes

    def test_generate(self):
        (rec, _, _, _), peak = traced_peak(synth.generate, self.CONFIG)
        assert peak <= 2.2 * self.size(rec)

    def test_process_recording(self):
        rec = synth.generate(self.CONFIG)[0]
        pipeline.process_recording(rec)     # lazy imports and caches fill here
        _, peak = traced_peak(pipeline.process_recording, rec)
        assert peak <= 2.2 * self.size(rec)


class TestEventJson:
    def test_roundtrip(self):
        rec, _, _, _ = synth.generate(synth.SynthConfig(duration_s=20.0,
                                                        seed=7))
        result = pipeline.process_recording(rec)
        doc = pipeline.events_to_json(result.events)
        back = pipeline.events_from_json(doc)
        assert [(e.time_s, e.kind, e.side) for e in back] \
            == [(e.time_s, e.kind, e.side) for e in result.events]

    # Each case reads to the columns, or to the exact ParseError text,
    # that the per-entry reader gave before its rules moved into
    # core.event_columns; the multi-fault case pins that the first bad
    # event is named, whatever its fault. An integer too large for a
    # float raised a raw OverflowError there.
    @pytest.mark.parametrize("doc, expected", [
        ([{"time_s": 0.5, "kind": "IC", "side": "L"}, {"time_s": 0.6, "kind": "FC"}],
         ([0.5, 0.6], ["IC", "FC"], ["L", "U"])),
        ([], ([], [], [])),
        ([{"time_s": "0.5", "kind": "IC"}, {"time_s": 1, "kind": "FC", "side": "R"}],
         ([0.5, 1.0], ["IC", "FC"], ["U", "R"])),
        ([{"time_s": 0.5, "kind": "IC"}, {"time_s": True, "kind": "FC"}],
         "event 1: time_s must be a finite number, got True"),
        ([{"time_s": 0.5, "kind": "IC"}, {"kind": "FC"}],
         "event 1: time_s must be a finite number, got None"),
        ([{"time_s": 0.5, "kind": "IC"}, {"time_s": "x", "kind": "FC"}],
         "event 1: time_s must be a finite number, got 'x'"),
        ([{"time_s": 0.5, "kind": "IC"}, {"time_s": 1e400, "kind": "FC"}],
         "event 1: time_s must be a finite number, got inf"),
        ([{"time_s": 0.5, "kind": "IC"}, {"time_s": 0.6}],
         "event 1: kind must be IC or FC, got None"),
        ([{"time_s": 0.5, "kind": ["IC"]}], "event 0: kind must be IC or FC, got ['IC']"),
        ([{"time_s": 0.5, "kind": "FC", "side": "X"}],
         "event 0: side must be L, R, or U, got 'X'"),
        ([{"time_s": 0.5, "kind": "IC"}, [0.6, "FC"]], "event 1: must be an object, got list"),
        ({"time_s": 0.5, "kind": "IC"}, "detections must be a JSON list of events, got dict"),
        ([{"time_s": 0.5, "kind": "XX"}, 7], "event 0: kind must be IC or FC, got 'XX'"),
        ([{"time_s": 10 ** 400, "kind": "IC"}],
         "event 0: time_s must be a finite number, got 1" + "0" * 76 + "..."),
    ], ids=["valid", "empty", "number-like-times", "bool-time", "missing-time", "text-time",
            "inf-time", "missing-kind", "list-kind", "bad-side", "array-entry",
            "not-a-list", "bad-kind-before-non-object", "int-beyond-float"])
    def test_column_pass_equals_entry_loop(self, doc, expected):
        try:
            table = pipeline.event_columns_from_json(doc)
            got = (table.time_s.tolist(), table.kind.tolist(), table.side.tolist())
        except ParseError as exc:
            got = str(exc)
        assert got == expected

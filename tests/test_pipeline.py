import numpy as np
import pytest

from gaitpipe import evaluate, pipeline, segmentation, stepdetect, synth
from gaitpipe.core import ConfigurationError, ContractError, FC, IC, ParseError, SegmentKind
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

    def test_determinism(self):
        rec, _, _, _ = synth.generate(synth.SynthConfig(duration_s=20.0,
                                                        seed=6,
                                                        noise_sigma=0.3))
        a = pipeline.process_recording(rec)
        b = pipeline.process_recording(rec)
        assert [(e.time_s, e.kind, e.side) for e in a.events] \
            == [(e.time_s, e.kind, e.side) for e in b.events]


class TestEventJson:
    def test_roundtrip(self):
        rec, _, _, _ = synth.generate(synth.SynthConfig(duration_s=20.0,
                                                        seed=7))
        result = pipeline.process_recording(rec)
        doc = pipeline.events_to_json(result.events)
        back = pipeline.events_from_json(doc)
        assert [(e.time_s, e.kind, e.side) for e in back] \
            == [(e.time_s, e.kind, e.side) for e in result.events]

    @pytest.mark.parametrize("doc", [
        [{"time_s": 0.5, "kind": "IC", "side": "L"}, {"time_s": 0.6, "kind": "FC"}],
        [],
        [{"time_s": "0.5", "kind": "IC"}, {"time_s": True, "kind": "FC", "side": "R"}],
        [{"time_s": 0.5, "kind": "IC"}, {"kind": "FC"}],
        [{"time_s": 0.5, "kind": "IC"}, {"time_s": "x", "kind": "FC"}],
        [{"time_s": 0.5, "kind": "IC"}, {"time_s": 1e400, "kind": "FC"}],
        [{"time_s": 0.5, "kind": "IC"}, {"time_s": 0.6}],
        [{"time_s": 0.5, "kind": ["IC"]}],
        [{"time_s": 0.5, "kind": "FC", "side": "X"}],
        [{"time_s": 0.5, "kind": "IC"}, [0.6, "FC"]],
        {"time_s": 0.5, "kind": "IC"},
    ], ids=["valid", "empty", "number-like-times", "missing-time", "text-time",
            "inf-time", "missing-kind", "list-kind", "bad-side", "array-entry",
            "not-a-list"])
    def test_column_pass_equals_entry_loop(self, doc):
        # the per-entry loop is the reference: same columns, or the same
        # ParseError text naming the same event
        def outcome(read):
            try:
                return read(doc)
            except ParseError as exc:
                return f"ParseError: {exc}"

        expected = (outcome(pipeline._event_columns_by_entry)
                    if isinstance(doc, list) else
                    "ParseError: detections must be a JSON list of events, got dict")
        assert outcome(pipeline.event_columns_from_json) == expected

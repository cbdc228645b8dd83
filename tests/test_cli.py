import json
import random
from pathlib import Path

import pytest

from gaitpipe import cli, ingest, pipeline
from gaitpipe.pipeline import PipelineConfig


def run(argv):
    return cli.main([str(a) for a in argv])


class TestWorkflow:
    def test_synth_process_evaluate_aggregate(self, tmp_path, capsys):
        recording = tmp_path / "rec.csv"
        truth = tmp_path / "truth.csv"
        truth_segs = tmp_path / "truth_segs.json"
        assert run(["synth", "--seed", "3",
                    "--out-recording", recording,
                    "--out-events", truth,
                    "--out-segments", truth_segs]) == 0
        assert recording.exists() and truth.exists() and truth_segs.exists()

        events = tmp_path / "events.json"
        segments = tmp_path / "segments.json"
        assert run(["process", recording,
                    "--out-events", events,
                    "--out-segments", segments]) == 0
        doc = json.loads(events.read_text())
        assert doc and all({"time_s", "kind", "side"} <= set(e) for e in doc)

        metrics = tmp_path / "metrics.json"
        assert run(["evaluate", events, truth, "--participant", "p1",
                    "--out", metrics]) == 0
        mdoc = json.loads(metrics.read_text())
        assert mdoc["participant"] == "p1"
        assert mdoc["IC"]["f1"] >= 0.98
        assert mdoc["FC"]["f1"] >= 0.98
        assert mdoc["IC"]["errors"]["median_abs_s"] <= 0.08

        # second participant for the aggregation stage
        metrics2 = tmp_path / "metrics2.json"
        assert run(["evaluate", events, truth, "--participant", "p2",
                    "--out", metrics2]) == 0
        summary = tmp_path / "summary.json"
        assert run(["aggregate", metrics, metrics2, "--two-stage",
                    "--out", summary]) == 0
        sdoc = json.loads(summary.read_text())
        assert sdoc["two_stage"] is True
        assert sdoc["IC"]["median"] >= 0.98
        assert sdoc["IC"]["ws_iqr"] == 0.0

    def test_process_determinism(self, tmp_path):
        recording = tmp_path / "rec.csv"
        run(["synth", "--seed", "9", "--out-recording", recording,
             "--out-events", tmp_path / "t.csv",
             "--out-segments", tmp_path / "s.json"])
        outs = []
        for tag in ("a", "b"):
            ev = tmp_path / f"events_{tag}.json"
            run(["process", recording, "--out-events", ev,
                 "--out-segments", tmp_path / f"segs_{tag}.json"])
            outs.append(ev.read_text())
        assert outs[0] == outs[1]

    def test_process_with_config_file(self, tmp_path):
        recording = tmp_path / "rec.csv"
        run(["synth", "--seed", "4", "--out-recording", recording,
             "--out-events", tmp_path / "t.csv",
             "--out-segments", tmp_path / "s.json"])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"turn_merge_s": 0.4}))
        assert run(["process", recording, "--config", cfg,
                    "--out-events", tmp_path / "e.json",
                    "--out-segments", tmp_path / "g.json"]) == 0

    def test_bad_config_key_exit_1(self, tmp_path, capsys):
        recording = tmp_path / "rec.csv"
        run(["synth", "--seed", "4", "--out-recording", recording,
             "--out-events", tmp_path / "t.csv",
             "--out-segments", tmp_path / "s.json"])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_key": 1}))
        assert run(["process", recording, "--config", cfg,
                    "--out-events", tmp_path / "e.json",
                    "--out-segments", tmp_path / "g.json"]) == 1
        assert "not_a_key" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [{"time_s": float("nan")}, {"time_s": float("inf")},
                                     {"time_s": None}, {}])
    def test_non_finite_detection_time_exit_1(self, tmp_path, capsys, bad):
        truth = tmp_path / "truth.csv"
        truth.write_text("t,kind,side\n1.0,IC,L\n")
        events = tmp_path / "events.json"
        events.write_text(json.dumps([{"time_s": 1.0, "kind": "IC", "side": "L"},
                                      dict(bad, kind="IC", side="R")]))
        assert run(["evaluate", events, truth, "--out", tmp_path / "m.json"]) == 1
        assert "event 1: time_s must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("doc, message", [
        ([{"time_s": 1.0}], "event 0: kind must be IC or FC, got None"),
        ({"a": 1}, "detections must be a JSON list of events, got dict"),
        ([1.0], "event 0: must be an object, got float"),
        ([{"time_s": 1.0, "kind": "IC"}, {"time_s": 2.0, "kind": "XX"}],
         "event 1: kind must be IC or FC, got 'XX'"),
        ([{"time_s": 1.0, "kind": "IC", "side": "B"}],
         "event 0: side must be L, R, or U, got 'B'"),
    ], ids=["missing-kind", "not-a-list", "not-an-object", "bad-kind", "bad-side"])
    def test_bad_detections_exit_1(self, tmp_path, capsys, doc, message):
        truth = tmp_path / "truth.csv"
        truth.write_text("t,kind,side\n1.0,IC,L\n")
        events = tmp_path / "events.json"
        events.write_text(json.dumps(doc))
        assert run(["evaluate", events, truth, "--out", tmp_path / "m.json"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("window", ["nan", "inf"])
    def test_non_finite_window_exit_1(self, tmp_path, capsys, window):
        truth = tmp_path / "truth.csv"
        truth.write_text("t,kind,side\n1.0,IC,L\n")
        events = tmp_path / "events.json"
        events.write_text(json.dumps([{"time_s": 1.0, "kind": "IC", "side": "L"}]))
        assert run(["evaluate", events, truth, "--window", window,
                    "--out", tmp_path / "m.json"]) == 1
        assert capsys.readouterr().err == "error: window must be positive and finite\n"
        assert not (tmp_path / "m.json").exists()

    def test_missing_recording_exit_1(self, tmp_path, capsys):
        assert run(["process", tmp_path / "nope.csv"]) == 1
        assert "error" in capsys.readouterr().err

    def test_six_sample_recording_exit_1(self, tmp_path, capsys):
        # too short for the accelerometer low-pass, which needs 10 samples
        recording = tmp_path / "short.csv"
        rows = [f"{i / 50.0!r},0.1,0.2,9.81,0.01,0.02,0.03" for i in range(6)]
        recording.write_text("t,ax,ay,az,gx,gy,gz\n" + "\n".join(rows) + "\n")
        assert run(["process", recording,
                    "--out-events", tmp_path / "e.json",
                    "--out-segments", tmp_path / "s.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "10 samples" in err


BIG_INT = "1" + "0" * 400


class TestBadConfigFiles:
    """Every config document that is not a valid config ends in an error
    line and exit 1, and no output is written."""

    @pytest.mark.parametrize("doc", [
        '{"window_s": "abc"}', '{"window_s": null}', '{"window_s": true}',
        f'{{"window_s": {BIG_INT}}}', '{"wavelet_sign": 1.0}', '{"resample_hz": [50]}',
        '[]', '"window_s"', '{"window_s": 0.6', '{"window_s": NaN}',
    ], ids=lambda doc: doc[:24])
    def test_process_config(self, tmp_path, capsys, doc):
        recording = tmp_path / "rec.csv"
        run(["synth", "--config", self._write(tmp_path, '{"duration_s": 10.0}'),
             "--out-recording", recording, "--out-events", tmp_path / "t.csv",
             "--out-segments", tmp_path / "s.json"])
        capsys.readouterr()
        events = tmp_path / "e.json"
        assert run(["process", recording, "--config", self._write(tmp_path, doc),
                    "--out-events", events, "--out-segments", tmp_path / "g.json"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not events.exists()

    @pytest.mark.parametrize("doc, seed", [
        ('{"duration_s": "abc"}', None), ('{"stride_s": null}', None),
        ('{"seed": 1.5}', None), ('{"seed": -1}', None), ('{"seed": true}', None),
        (f'{{"duration_s": {BIG_INT}}}', None), ('{"noise_sigma": -0.3}', None),
        ('[]', None), ('{"sensor_rotation": [true, false, false, false]}', None),
        ('{"duration_s": 10.0, "script": [{"kind": "walk", "duration_s": 10.0, '
         '"speed": 1.2}]}', None),
        ('{"duration_s": 10.0, "script": [{"kind": "walk", "duration_s": true}]}', None),
        ('{"duration_s": 10.0}', -1),
    ], ids=lambda v: str(v)[:24])
    def test_synth_config(self, tmp_path, capsys, doc, seed):
        out = tmp_path / "r.csv"
        argv = ["synth", "--config", self._write(tmp_path, doc), "--out-recording", out,
                "--out-events", tmp_path / "e.csv", "--out-segments", tmp_path / "s.json"]
        assert run(argv + (["--seed", seed] if seed is not None else [])) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @staticmethod
    def _write(tmp_path, doc):
        path = tmp_path / f"cfg{len(list(tmp_path.iterdir()))}.json"
        path.write_text(doc)
        return path


class TestSynthCommand:
    def test_config_file_with_script(self, tmp_path):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({
            "duration_s": 12.0, "seed": 1,
            "script": [{"kind": "rest", "duration_s": 3.0},
                       {"kind": "walk", "duration_s": 9.0}]}))
        segs = tmp_path / "segs.json"
        assert run(["synth", "--config", cfg,
                    "--out-recording", tmp_path / "r.csv",
                    "--out-events", tmp_path / "e.csv",
                    "--out-segments", segs]) == 0
        doc = json.loads(segs.read_text())
        assert [s["kind"] for s in doc] == ["Boundary", "GaitBout"]

    def test_unknown_synth_key_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"cadence": 120}))
        assert run(["synth", "--config", cfg,
                    "--out-recording", tmp_path / "r.csv",
                    "--out-events", tmp_path / "e.csv",
                    "--out-segments", tmp_path / "s.json"]) == 1
        assert "cadence" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        '{"sensor_rotation": [0, 0, 0, 0]}',
        '{"duration_s": NaN}',
        '{"sensor_rotation": [1, 0, 0]}',
    ], ids=["zero-rotation", "nan-duration", "three-element-rotation"])
    def test_bad_synth_config_exit_1(self, tmp_path, capsys, doc):
        cfg = tmp_path / "synth.json"
        cfg.write_text(doc)
        out = tmp_path / "r.csv"
        assert run(["synth", "--config", cfg, "--out-recording", out,
                    "--out-events", tmp_path / "e.csv",
                    "--out-segments", tmp_path / "s.json"]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("script, message", [
        ([{"kind": "walk"}], "script phase 0: needs a kind and a duration_s"),
        ([{"kind": "rest", "duration_s": 4.0}, {"kind": "walk", "duration_s": "six"}],
         "script phase 1: duration_s must be a finite number, got 'six'"),
        ({"kind": "walk"}, "script must be a list of phases"),
    ], ids=["no-duration", "text-duration", "not-a-list"])
    def test_bad_script_phase_exit_1(self, tmp_path, capsys, script, message):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"duration_s": 10.0, "script": script}))
        out = tmp_path / "r.csv"
        assert run(["synth", "--config", cfg, "--out-recording", out,
                    "--out-events", tmp_path / "e.csv",
                    "--out-segments", tmp_path / "s.json"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        recs = []
        for seed in (1, 2):
            out = tmp_path / f"r{seed}.csv"
            run(["synth", "--seed", seed, "--out-recording", out,
                 "--out-events", tmp_path / f"e{seed}.csv",
                 "--out-segments", tmp_path / f"s{seed}.json"])
            recs.append(out.read_text())
        assert recs[0] == recs[1]  # seed changes only the noise; none here
        noisy = []
        cfg = tmp_path / "n.json"
        cfg.write_text(json.dumps({"noise_sigma": 0.3}))
        for seed in (1, 2):
            out = tmp_path / f"rn{seed}.csv"
            run(["synth", "--config", cfg, "--seed", seed,
                 "--out-recording", out,
                 "--out-events", tmp_path / f"en{seed}.csv",
                 "--out-segments", tmp_path / f"sn{seed}.json"])
            noisy.append(out.read_text())
        assert noisy[0] != noisy[1]


class TestFactorsCommand:
    def test_fit_and_report(self, tmp_path, capsys):
        from gaitpipe import factors
        obs, _ = factors.simulate_dataset(n_subjects=6, obs_per_subject=4,
                                          seed=0)
        table = tmp_path / "table.csv"
        lines = ["f1,age,sex,disease,subject,environment,aid"]
        dis_names = {0: "HC", 1: "mild", 2: "moderate", 3: "severe"}
        for o in obs:
            lines.append(f"{o.f1},{50 + 10 * o.age_z},{o.sex},"
                         f"{dis_names[o.disease_idx]},{o.subject_idx},"
                         f"{o.environment},{o.aid}")
        table.write_text("\n".join(lines) + "\n")
        out = tmp_path / "posterior.json"
        assert run(["factors", table, "--draws", 100, "--warmup", 100,
                    "--chains", 2, "--seed", 1, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["n_subjects"] == 6
        assert len(doc["contrasts"]) == 4
        assert doc["max_rhat"] > 0

    @pytest.mark.parametrize("args", [
        ["--draws", 0], ["--draws", 1], ["--draws", 2], ["--draws", 3],
        ["--warmup", -1], ["--chains", 0], ["--prior-scale", 0],
        ["--prior-scale", -1], ["--prior-scale", "nan"], ["--prior-scale", "inf"],
        ["--seed", -1],
    ], ids=lambda args: "".join(map(str, args)))
    def test_bad_sampler_arguments_exit_1(self, tmp_path, capsys, args):
        table = tmp_path / "table.csv"
        table.write_text("f1,age,sex,disease,subject,environment,aid\n"
                         "0.9,50,F,HC,0,Indoor,WithAid\n0.8,60,M,mild,1,Outdoor,WithAid\n")
        out = tmp_path / "posterior.json"
        assert run(["factors", table, "--draws", 10, "--warmup", 10, *args,
                    "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_malformed_table_exit_1(self, tmp_path, capsys):
        table = tmp_path / "bad.csv"
        table.write_text("wrong,header\n1,2\n")
        assert run(["factors", table, "--out", tmp_path / "o.json"]) == 1
        assert "error" in capsys.readouterr().err


TRUTH = b"t,kind,side\n1.0,IC,L\n"
RECORDING = b"t,ax,ay,az,gx,gy,gz\n0,0,0,9.81,0,0,0\n0.02,%s,0,9.81,0,0,0\n"
FACTORS = b"f1,age,sex,disease,subject,environment,aid\n0.9,%s,F,HC,0,Indoor,WithAid\n"
# finite f1 values whose mean and median overflow the float range
OVERFLOWING_METRICS = {"a.json": b'{"participant": "a", "IC": {"f1": 1e308}}',
                       "b.json": b'{"participant": "b", "IC": {"f1": 1.5e308}}'}
# the writer's refusal of a non-finite number
NOT_JSON = "out0: Out of range float values are not JSON compliant"
OUT_FLAGS = {"process": ["--out-events", "--out-segments"], "evaluate": ["--out"],
             "aggregate": ["--out"], "factors": ["--out"],
             "synth": ["--out-recording", "--out-events", "--out-segments"]}


class TestBadInputFiles:
    """Every input file fault ends in one error line and exit 1, and no
    output is written. A file given as None is a directory."""

    @pytest.mark.parametrize("argv, files, message", [
        (["evaluate", "d.json", "t.csv"], {"d.json": b'[{"time_s": 1', "t.csv": TRUTH},
         "d.json: Expecting ',' delimiter"),
        (["evaluate", "d.json", "t.csv"], {"d.json": b"[" * 100000, "t.csv": TRUTH},
         "d.json: maximum recursion depth"),
        (["evaluate", "d.json", "t.csv"],
         {"d.json": b'[{"time_s": true, "kind": "IC"}]', "t.csv": TRUTH},
         "event 0: time_s must be a finite number, got True"),
        (["evaluate", "d.json", "t.csv"], {"d.json": b"[]", "t.csv": b"t,kind,side\n1,I\xffC,L\n"},
         "line 2: kind must be IC or FC, got 'I\\udcffC'"),
        (["aggregate", "m.json"], {"m.json": b"[1, 2]"},
         "m.json: a metrics file must be an object with a participant"),
        (["aggregate", "m.json"], {"m.json": b'{"participant": "p", "IC": null}'},
         "no f1 values in 1 metrics files"),
        (["aggregate", "m.json"], {"m.json": b'{"participant": "p", "IC": [0.5]}'},
         "m.json: IC must be an object or null, got list"),
        (["aggregate", "m.json"], {"m.json": b'{"participant": "p", "IC": {"f1": "abc"}}'},
         "m.json: IC f1 must be a finite number, got 'abc'"),
        (["aggregate", "m.json"], {"m.json": b'{"participant": "p", "IC": {"f1": NaN}}'},
         "m.json: IC f1 must be a finite number, got nan"),
        (["aggregate", "m.json"], {"m.json": b'{"participant": "p", "FC": {"f1": true}}'},
         "m.json: FC f1 must be a finite number, got True"),
        (["aggregate", "m.json"], {"m.json": b'{"participant": "p", "IC": {"f1": 0.5}\xff}'},
         "m.json: 'utf-8' codec can't decode byte 0xff"),
        (["process", "r.csv"], {"r.csv": RECORDING % b"0\xff"},
         "line 3: ax must be a finite number, got '0\\udcff'"),
        (["process", "r.csv"], {"r.csv": RECORDING % b"nan"},
         "line 3: ax must be a finite number, got 'nan'"),
        (["process", "r.csv"], {"r.csv": b"t,ax,ay,az,gx,gy,gz\n" + b"1" * 200000},
         "line 2: field larger than field limit"),
        (["process", "r.csv"], {"r.csv": None}, "Is a directory"),
        (["factors", "f.csv"], {"f.csv": FACTORS % b"5\xff0"},
         "line 2: age must be a finite number, got '5\\udcff0'"),
        (["synth", "--config", "s.json"], {"s.json": b'{"duration_s": 1e30}'},
         "must round to 1 to 2**31 samples"),
        (["synth", "--config", "s.json"], {"s.json": b'{"duration_s": 0.001}'},
         "must round to 1 to 2**31 samples"),
        (["aggregate", "a.json", "b.json"], OVERFLOWING_METRICS, NOT_JSON),
        (["aggregate", "a.json", "b.json", "--two-stage"], OVERFLOWING_METRICS, NOT_JSON),
        (["aggregate", "a.json", "b.json", "--two-stage"],
         {"a.json": b'{"participant": "a", "IC": {"f1": 1e308}}',
          "b.json": b'{"participant": "a", "IC": {"f1": 1.5e308}}'}, NOT_JSON),
    ], ids=["truncated-detections", "nested-detections", "bool-time", "non-utf8-reference",
            "metrics-list", "metrics-null-entry", "metrics-list-entry", "text-metric",
            "nan-metric", "bool-metric", "non-utf8-metrics", "non-utf8-recording",
            "nan-recording", "huge-field-recording", "directory-recording",
            "non-utf8-factors", "huge-synth", "zero-sample-synth", "overflowing-metrics",
            "overflowing-metrics-two-stage", "overflowing-participant"])
    @pytest.mark.filterwarnings("error")    # a warning would print a second line
    def test_error_line(self, tmp_path, capsys, monkeypatch, argv, files, message):
        monkeypatch.chdir(tmp_path)
        for name, data in files.items():
            if data is None:
                Path(name).mkdir()
            else:
                Path(name).write_bytes(data)
        outputs = [f"out{i}" for i in range(len(OUT_FLAGS[argv[0]]))]
        flags = [arg for pair in zip(OUT_FLAGS[argv[0]], outputs) for arg in pair]
        assert run(argv + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not any(map(Path.exists, map(Path, outputs)))

    @pytest.mark.parametrize("data", [
        random.Random(0).randbytes(300_000).translate(None, b"\r\n"), b"x," * 50_000,
    ], ids=["binary", "long-line"])
    def test_bad_header_error_line_is_short(self, tmp_path, capsys, data):
        path = tmp_path / "r.csv"
        path.write_bytes(data)
        assert run(["process", path, "--out-events", tmp_path / "e.json",
                    "--out-segments", tmp_path / "s.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad header [") and len(err) < 200


class TestEvaluateCommand:
    def test_builds_no_gait_event(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a GaitEvent was built")

        monkeypatch.setattr(ingest, "GaitEvent", refuse)
        monkeypatch.setattr(pipeline, "GaitEvent", refuse)
        detections, truth = tmp_path / "d.json", tmp_path / "t.csv"
        detections.write_text('[{"time_s": 1.0, "kind": "IC", "side": "L"}, '
                              '{"time_s": 1.6, "kind": "FC"}]')
        truth.write_bytes(b"t,kind,side\n1.02,IC,L\n1.6,FC,R\n2.5,IC,R\n")
        with pytest.raises(AssertionError):     # the patch reaches the readers
            ingest.load_reference_events(truth)
        out = tmp_path / "m.json"
        assert run(["evaluate", detections, truth, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert [(doc[k]["tp"], doc[k]["fp"], doc[k]["fn"]) for k in ("IC", "FC")] == \
            [(1, 0, 1), (1, 0, 0)]


class TestConfigCommand:
    def test_print_defaults(self, capsys):
        assert run(["config", "--print-defaults"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == PipelineConfig().to_json()

    def test_no_action_exit_2(self, capsys):
        assert run(["config"]) == 2

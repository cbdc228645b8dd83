"""Checks of the benchmark harness at smoke size.

    python3 -m pytest gaitbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402

bench = run.import_bench()
import spans  # noqa: E402
from gaitpipe import (cli, frame, kernels, pipeline, segmentation,  # noqa: E402
                      stepdetect)
from gaitpipe.core import ParseError  # noqa: E402


def _bindings():
    return {
        "segmentation.unbiased_autocorr": segmentation.unbiased_autocorr,
        "stepdetect.unbiased_autocorr": stepdetect.unbiased_autocorr,
        "frame.dominant_stride_peak": frame.dominant_stride_peak,
        "pipeline.process_recording": pipeline.process_recording,
        "cli.match_events": cli.match_events,
    }


def _last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_hooks_cover_every_binding_and_restore_them():
    before = _bindings()
    tracer = spans.Tracer()
    with spans.installed(bench.pipeline_hooks(tracer), tracer) as missing:
        assert missing == []
        during = _bindings()
        assert all(during[k] is not before[k] for k in before)
        # one wrapper per function, whichever module the caller uses
        assert (during["segmentation.unbiased_autocorr"]
                is during["stepdetect.unbiased_autocorr"])
        with tracer.span("root", op="process:x"):
            stepdetect.unbiased_autocorr(np.sin(np.arange(200) / 5.0))
    assert _bindings() == before
    assert tracer.counted("segmentation.autocorr_calls", ["process"]) == 1
    assert tracer.counted("segmentation.autocorr_samples", ["process"]) == 200
    assert [s.name for s in tracer.spans] == ["root", "segmentation.autocorr"]


def test_missing_attribute_is_reported_not_fatal():
    hook = spans.Hook([(segmentation, "no_such_function")], "x")
    with spans.installed([hook], spans.Tracer()) as missing:
        assert missing == ["gaitpipe.segmentation.no_such_function"]
    assert not hasattr(segmentation, "no_such_function")


def test_self_time_subtracts_children():
    t = spans.Tracer()
    t.spans = [spans.Span("a", 0.0, 10.0, None, "process:r"),
               spans.Span("b", 1.0, 4.0, 0, "process:r"),
               spans.Span("c", 2.0, 3.0, 1, "process:r"),
               spans.Span("b", 5.0, 6.0, 0, "process:r"),
               spans.Span("a", 0.0, 2.0, None, "setup:0")]
    assert dict(t.self_times("process")) == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert dict(t.self_times("setup")) == {"a": 2.0}


def test_a_timed_run_ends_near_its_seconds():
    assert bench.another_pass(10.0, 5.0, 40.0)
    assert bench.another_pass(37.0, 5.0, 40.0)
    assert not bench.another_pass(38.0, 5.0, 40.0)
    assert not bench.another_pass(45.0, 45.0, 40.0)
    # a long pass that ends before --seconds is not run twice
    assert not bench.another_pass(35.0, 35.0, 40.0)
    assert not bench.another_pass(1.0, 1.0, 0.0)


def test_bulk_ess_tracks_autocorrelation():
    rng = np.random.default_rng(0)
    iid = rng.standard_normal((2, 1000))
    assert 1400 < bench.bulk_ess(iid) < 2600
    ar = np.zeros((2, 1000))
    for i in range(1, 1000):
        ar[:, i] = 0.95 * ar[:, i - 1] + rng.standard_normal(2)
    assert bench.bulk_ess(ar) < 200


@pytest.mark.parametrize("workload", ["long-walk", "daily-living"])
@pytest.mark.parametrize("trace", [0, 1])
def test_pipeline_smoke(workload, trace, tmp_path, capsys):
    before = _bindings()
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--smoke",
                     "--workdir", str(tmp_path)]) == 0
    line = _last_line(capsys)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    expected = bench.PIPELINE_LAYERS if trace else bench.PIPELINE_E2E
    assert set(line["metrics"]) == set(expected)
    assert _bindings() == before
    report = _report(tmp_path)
    assert report["environment"]["nproc"] >= 1
    assert bool(report["spans"]) == bool(trace)
    if trace and workload == "long-walk":
        # the warm-up recording processed during set-up is not counted
        assert line["metrics"]["ingest.load_rows"]["value"] == 60 * 50
    assert [p.name for p in tmp_path.iterdir()] == ["results"]


@pytest.mark.parametrize("trace", [0, 1])
def test_factors_smoke(trace, tmp_path, capsys):
    assert run.main(["--workload", "factors", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--smoke",
                     "--workdir", str(tmp_path)]) == 0
    line = _last_line(capsys)
    # a fixed fit count, whether or not the sampler crashes; a traced
    # run repeats its untraced fit
    assert line["attempted"] == 1 + trace
    if trace:
        assert "factors.failed_fits" in line["metrics"]
    else:
        assert line["metrics"]["failed_ratio"]["value"] == line["failed"]


def _report(tmp_path) -> dict:
    return json.loads(next((tmp_path / "results").glob("*.json")).read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("error, kind", [(TypeError, "TypeError"),
                                         (ParseError, "ExitCode1")])
def test_failing_process_is_counted_and_the_run_ends(
        trace, error, kind, tmp_path, capsys, monkeypatch):
    """A crash and a refusal both fail the operation; the timed loop
    still ends after --seconds and prints a result line."""
    def broken(*args, **kwargs):
        raise error("broken on purpose")

    monkeypatch.setattr(pipeline, "process_recording", broken)
    assert run.main(["--workload", "daily-living", "--seed", "3",
                     "--seconds", "1", "--trace", str(trace), "--smoke",
                     "--workdir", str(tmp_path)]) == 0
    line = _last_line(capsys)
    assert not line["correct"]
    assert line["failed"] == line["attempted"] >= 1
    failures = _report(tmp_path)["failures"]
    assert kind in {f["type"] for f in failures}
    # the lost recording is named, not silently left out of the metrics
    assert any(f["op"] == "run" for f in failures)
    if not trace:
        assert "process_s_p50" not in line["metrics"]


@pytest.mark.parametrize("trace", [0, 1])
def test_sampler_crash_is_a_counted_failure(trace, tmp_path, capsys,
                                            monkeypatch):
    def crash(*args, **kwargs):
        raise ValueError("math domain error")

    monkeypatch.setattr(kernels, "chain", crash)
    assert run.main(["--workload", "factors", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--smoke",
                     "--workdir", str(tmp_path)]) == 0
    line = _last_line(capsys)
    assert not line["correct"]
    assert line["failed"] == line["attempted"] >= 1
    if trace:
        assert line["metrics"]["factors.failed_fits"]["value"] >= 1
    else:
        assert line["metrics"]["failed_ratio"]["value"] == 1.0
        assert "fit_s_p50" not in line["metrics"]
    assert {f["type"] for f in _report(tmp_path)["failures"]} == {"ValueError"}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE.parent, tmp_path / HERE.parent.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.parent.name}/run.py", "--workload",
         "long-walk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

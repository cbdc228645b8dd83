"""Timings of the hot kernels: the CSV load, the Madgwick loop, the
anatomical rotation, the two stride autocorrelations and the three
event stages of a bout, the event readers, the event matcher, a whole
``gaitpipe evaluate`` and a factor-model fit, and the peak memory of
``synth.generate``, ``process_recording``, ``write_recording`` and
``events_json_text``.

Run with:  PYTHONPATH=src python3 benchmarks/bench_kernels.py

The load, Madgwick and rotation are timed at the size of a 1 h recording
at 50 Hz (180,000 samples). The rotation input is F-ordered, as the
bouts of a gravity-aligned recording are. Each memory figure is the peak
of the allocations ``tracemalloc`` sees (numpy arrays included) during
one call, above those live before it, i.e. MB per hour of recording:
``synth.generate`` making a 1 h walk, then ``process_recording`` on that
walk, ``write_recording`` writing it and ``events_json_text`` formatting
its detected events. Each is also given as a multiple of the walk's own
arrays (t, accel and gyro). ``stride_autocorr`` is timed (best of 15)
on that walk's longest bout, of its vertical and its antero-posterior
column as ``process_recording`` passes them. The event stages
``detect_events``, ``assign_laterality`` and ``quality_check`` are timed
on the same bout, each fed the previous stage's result, with the inputs
that ``process_recording`` gives them. The layers of ``gaitpipe evaluate``
that grow with the event count run on that walk too: the reference
reader reads its reference CSV, the detections reader takes the loaded
JSON document of its detected events, and the matcher pairs each kind's
reference times with the same times moved by 20 ms Gaussian noise, as
detections. ``gaitpipe evaluate`` then scores the detected events
against the reference in-process, ``EVALUATE_CALLS`` times while the
walk and its results stay alive, as in the benchmark; a ``gc.callbacks``
probe counts the full (generation-2) garbage collections those calls
pay.

The sampler baseline is one fit of the size of acceptance criterion 7:
``sample_posterior`` on 60 subjects x 10 observations (seed 100), 2,000
warm-up iterations and 2,500 draws of two chains advanced together. It
prints the seconds per fit, the ms per iteration and the minimum bulk
ESS per second over the four contrasts, with the benchmark's
``bulk_ess`` (gaitbench/bench.py).
"""
import contextlib
import gc
import io
import json
import math
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from gaitpipe import (cli, evaluate, factors, frame, ingest, kernels, orientation, pipeline,
                      segmentation, stepdetect, synth)
from gaitpipe.core import DEFAULT_CONFIG, FC, IC, ImuRecording

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "gaitbench"))
from bench import bulk_ess  # noqa: E402

EVALUATE_CALLS = 30
FIT_WARMUP, FIT_DRAWS, FIT_CHAINS = 2000, 2500, 2


def best_of(fn, *args, repeats=3):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    n = 180_000
    rng = np.random.default_rng(0)
    acc = rng.normal(0, 1, (n, 3)) + np.array([0.0, 0.0, 9.81])
    gyro = rng.normal(0, 0.1, (n, 3))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "recording.csv"
        ingest.write_recording(ImuRecording(t=np.arange(n) / 50.0, accel=acc,
                                            gyro=gyro), path)
        load = best_of(ingest.load_recording, path)
    print(f"load_recording ({n} rows):   {load * 1e3:9.1f} ms")

    mad_args = (acc, gyro, 0.02, 0.041, np.array([1.0, 0.0, 0.0, 0.0]))
    mad = best_of(kernels.madgwick_batch, *mad_args)
    print(f"madgwick_batch ({n} samples): {mad * 1e3:9.1f} ms")

    samples = np.asfortranarray(acc)
    anat = frame.AnatomicalFrame(vertical=np.array([1.0, 0.0, 0.0]),
                                 antero_posterior=np.array([0.0, 0.6, 0.8]),
                                 medio_lateral=np.array([0.0, -0.8, 0.6]))
    rot = best_of(frame.to_anatomical, samples, anat)
    print(f"to_anatomical ({n} samples):  {rot * 1e3:9.1f} ms")

    (walk, events, _, _), peak = traced_peak(synth.generate, synth.SynthConfig(
        duration_s=n / 50.0, noise_sigma=0.3,
        sensor_rotation=np.array([0.8, 0.2, -0.4, 0.4])))
    size = walk.t.nbytes + walk.accel.nbytes + walk.gyro.nbytes

    def print_peak(name, peak):
        print(f"{name}: {peak / 1e6:9.1f} MB peak traced, "
              f"{peak / size:.2f}x the recording's {size / 1e6:.1f} MB")

    print_peak(f"synth.generate ({n} samples)", peak)
    result, peak = traced_peak(pipeline.process_recording, walk)
    detected = result.events
    print_peak(f"process_recording ({n} samples)", peak)
    with tempfile.TemporaryDirectory() as tmp:
        _, peak = traced_peak(ingest.write_recording, walk, Path(tmp) / "walk.csv")
    print_peak(f"write_recording ({n} samples)", peak)
    _, peak = traced_peak(pipeline.events_json_text, detected)
    print_peak(f"events_json_text ({len(detected)} events)", peak)

    time_event_stages(walk)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "reference.csv"
        ingest.write_reference_events(events, path)
        load_ref = best_of(ingest.load_reference_events, path)
    print(f"load_reference_events ({len(events)} rows): {load_ref * 1e3:9.1f} ms")

    text = best_of(pipeline.events_json_text, detected)
    dumps = best_of(lambda: json.dumps(pipeline.events_to_json(detected), indent=2))
    print(f"events_json_text ({len(detected)} events): {text * 1e3:9.1f} ms "
          f"(json.dumps indent=2: {dumps * 1e3:.1f} ms)")

    doc = json.loads(json.dumps(pipeline.events_to_json(detected)))
    load_det = best_of(pipeline.event_columns_from_json, doc)
    print(f"event_columns_from_json ({len(doc)} events): {load_det * 1e3:9.1f} ms")

    pairs = []
    for kind in (IC, FC):
        ref = events.time_s[events.kind == kind].tolist()
        det = sorted(t + rng.normal(0, 0.02) for t in ref)
        pairs.append((det, ref))
    match = best_of(lambda: [evaluate.match_events(det, ref) for det, ref in pairs])
    print(f"match_events (IC and FC, {len(events)} references): {match * 1e3:9.1f} ms")

    seconds, full = time_evaluate(detected, events)
    print(f"gaitpipe evaluate ({len(detected)} detections, {EVALUATE_CALLS} calls): "
          f"median {statistics.median(seconds) * 1e3:.1f} ms, max {max(seconds) * 1e3:.1f} ms, "
          f"{full} full garbage collections")

    obs, _ = factors.simulate_dataset(n_subjects=60, obs_per_subject=10,
                                      seed=100)
    t0 = time.perf_counter()
    fit = factors.sample_posterior(obs, n_draws=FIT_DRAWS, n_warmup=FIT_WARMUP,
                                   seed=100, n_chains=FIT_CHAINS)
    fit_s = time.perf_counter() - t0
    per_chain = [factors.contrast_draws(SimpleNamespace(draws=d)) for d in fit.chain_draws]
    ess = min(bulk_ess(np.stack([c[name] for c in per_chain]))
              for name in factors.CONTRAST_NAMES)
    iters = FIT_WARMUP + FIT_DRAWS
    print(f"factor-model fit ({len(obs)} obs, dim {fit.chain_draws.shape[-1]}, "
          f"{FIT_CHAINS} chains, {iters} iterations): {fit_s:.2f} s, "
          f"{fit_s / iters * 1e3:.3f} ms per iteration, "
          f"min bulk ESS {ess:.0f} = {ess / fit_s:.0f} per s")


def traced_peak(fn, *args):
    """(result, bytes): the peak of the allocations ``tracemalloc`` sees
    during one call, above those live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def time_event_stages(walk) -> None:
    """Print the best-of-15 seconds of each stride autocorrelation and the
    best-of-3 seconds of each event stage on the longest bout of walk,
    with the inputs that process_recording gives them."""
    cfg = DEFAULT_CONFIG
    rec = ingest.lowpass_accel(ingest.ensure_uniform(walk), cfg.lowpass_cutoff_hz)
    aligned = orientation.align_recording(rec, beta=cfg.madgwick_beta)
    fs = aligned.sample_rate
    segments = segmentation.refine_with_turns(segmentation.segment(aligned, cfg),
                                              segmentation.detect_turns(aligned, cfg), cfg)
    bout = max(segmentation.eligible_bouts(aligned, segments, cfg), key=lambda b: b.duration_s)
    accel = aligned.accel[bout.samples]
    accel_an = frame.to_anatomical(accel, frame.estimate_frame(accel, fs, cfg))
    stride_s = stepdetect.estimate_stride_duration(bout.peak)
    params = stepdetect.estimate_wavelet_params(
        accel_an, fs, stride_s, bout.vertical_autocorr,
        segmentation.stride_autocorr(accel_an[:, 1], fs, cfg), cfg)
    gyro = aligned.gyro[bout.samples]

    for name, column in (("vertical", aligned.vertical_accel[bout.samples]),
                         ("AP", accel_an[:, 1])):
        seconds = best_of(segmentation.stride_autocorr, column, fs, cfg, repeats=15)
        print(f"stride_autocorr {name} ({len(column)} samples): {seconds * 1e3:9.1f} ms")

    detected = stepdetect.detect_events(accel_an, fs, params, t0=bout.start_s)
    sided = stepdetect.assign_laterality(detected, gyro, fs, t0=bout.start_s)
    stages = [
        ("detect_events", lambda: stepdetect.detect_events(accel_an, fs, params,
                                                           t0=bout.start_s)),
        ("assign_laterality", lambda: stepdetect.assign_laterality(detected, gyro, fs,
                                                                   t0=bout.start_s)),
        ("quality_check", lambda: stepdetect.quality_check(sided, stride_s)),
    ]
    for name, stage in stages:
        print(f"{name} ({len(detected)} events, {len(accel)} samples): "
              f"{best_of(stage) * 1e3:9.1f} ms")


def time_evaluate(detected, reference) -> tuple[list[float], int]:
    """The seconds of each of EVALUATE_CALLS in-process ``gaitpipe
    evaluate`` calls, and the count of full collections during them."""
    full = 0

    def count_full(phase, info):
        nonlocal full
        full += phase == "stop" and info["generation"] == 2

    seconds = []
    with tempfile.TemporaryDirectory() as tmp:
        det_path, ref_path, out = (str(Path(tmp) / name)
                                   for name in ("events.json", "reference.csv", "metrics.json"))
        cli.write_json_atomic(detected, det_path, pipeline.events_json_text)
        ingest.write_reference_events(reference, ref_path)
        gc.callbacks.append(count_full)
        try:
            for _ in range(EVALUATE_CALLS):
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["evaluate", det_path, ref_path, "--out", out])
                seconds.append(time.perf_counter() - t0)
                if code:
                    raise SystemExit(f"gaitpipe evaluate exited with {code}")
        finally:
            gc.callbacks.remove(count_full)
    return seconds, full


if __name__ == "__main__":
    main()

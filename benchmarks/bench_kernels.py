"""Timings of the hot kernels: the CSV load, the Madgwick loop, the
anatomical rotation, the event readers, the event matcher, a whole
``gaitpipe evaluate`` and the MCMC chain, and the peak memory of one
``process_recording`` call.

Run with:  python3 benchmarks/bench_kernels.py

The load, Madgwick and rotation are timed at the size of a 1 h recording
at 50 Hz (180,000 samples). The rotation input is F-ordered, as the
bouts of a gravity-aligned recording are. The chain is timed at the
shape of acceptance criterion 7: 60 subjects x 10 observations, two
chains advanced together. The memory figure is the peak of the
allocations ``tracemalloc`` sees (numpy arrays included) while
``process_recording`` runs on a 1 h ``synth`` walk, i.e. MB per hour of
recording. The layers of ``gaitpipe evaluate`` that grow with the
event count run on that walk: the reference readers (into columns, and
into GaitEvents) read its reference CSV, the detections reader takes
the loaded JSON document of its detected events, and the matcher pairs
each kind's reference times with the same times moved by 20 ms Gaussian
noise, as detections. ``gaitpipe evaluate`` then scores the detected
events against the reference in-process, ``EVALUATE_CALLS`` times while
the walk and its results stay alive, as in the benchmark; a
``gc.callbacks`` probe counts the full (generation-2) garbage
collections those calls pay.
"""
import contextlib
import gc
import io
import json
import math
import statistics
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from gaitpipe import cli, evaluate, factors, frame, ingest, kernels, pipeline, synth
from gaitpipe.core import FC, IC, ImuRecording

EVALUATE_CALLS = 30


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

    walk, events, _, _ = synth.generate(synth.SynthConfig(
        duration_s=n / 50.0, noise_sigma=0.3,
        sensor_rotation=np.array([0.8, 0.2, -0.4, 0.4])))

    tracemalloc.start()
    detected = pipeline.process_recording(walk).events
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(f"process_recording ({n} samples): {peak / 1e6:9.1f} MB peak traced")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "reference.csv"
        ingest.write_reference_events(events, path)
        load_cols = best_of(lambda: ingest.load_reference_events(path, columns=True))
        load_ev = best_of(ingest.load_reference_events, path)
    print(f"load_reference_events, columns ({len(events)} rows): {load_cols * 1e3:9.1f} ms")
    print(f"load_reference_events, GaitEvents ({len(events)} rows): {load_ev * 1e3:9.1f} ms")

    text = best_of(pipeline.events_json_text, detected)
    dumps = best_of(lambda: json.dumps(pipeline.events_to_json(detected), indent=2))
    print(f"events_json_text ({len(detected)} events): {text * 1e3:9.1f} ms "
          f"(json.dumps indent=2: {dumps * 1e3:.1f} ms)")

    doc = json.loads(json.dumps(pipeline.events_to_json(detected)))
    load_det = best_of(pipeline.event_columns_from_json, doc)
    print(f"event_columns_from_json ({len(doc)} events): {load_det * 1e3:9.1f} ms")

    pairs = []
    for kind in (IC, FC):
        ref = [e.time_s for e in events if e.kind == kind]
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
    columns, n_sub = factors._pack_data(obs)
    n_chains, iters = 2, 500
    dim = kernels.N_GLOBAL + n_sub
    theta0 = np.zeros((n_chains, dim))
    theta0[:, 0] = math.log(10.0)
    theta0[:, 1] = 1.0
    step0 = np.full((n_chains, dim), 0.1)
    ch = best_of(kernels.chain, theta0, step0, iters // 2, iters // 2, 0,
                 *columns, factors.DEFAULT_PRIOR_SCALE)
    print(f"mcmc chain ({len(obs)} obs, dim {dim}, {n_chains} chains, "
          f"{iters} iterations): {ch / iters * 1e3:.3f} ms per iteration")


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

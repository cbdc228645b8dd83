"""Acceptance criteria, one test per criterion.

Each test prints a single "ACCEPTANCE n: PASS|FAIL" line directly to the
terminal (bypassing capture) before asserting.
"""
import time

import numpy as np
import pytest

from gaitpipe import (
    evaluate,
    factors,
    frame,
    ingest,
    orientation,
    pipeline,
    segmentation,
    stepdetect,
    synth,
)
from gaitpipe.core import FC, IC, ImuRecording, random_unit_quat
from gaitpipe.synth import Phase


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def _f1_and_median_abs(detected, truth, kind):
    det = sorted(e.time_s for e in detected if e.kind == kind)
    ref = sorted(e.time_s for e in truth if e.kind == kind)
    rep = evaluate.match_events(det, ref)
    m = evaluate.compute_metrics(rep)
    med = evaluate.temporal_errors(rep).median_abs_s if rep.tp else np.inf
    return (m.f1 if m.f1 is not None else 0.0), med


@pytest.fixture(scope="module")
def detection_sweep():
    """Shared synthetic suite for criteria 1 and 2."""
    start = time.monotonic()
    rot_rng = np.random.default_rng(42)
    noises = [0.0, 0.15, 0.3]
    clean = []
    for i, cadence in enumerate(np.linspace(80, 130, 10)):
        stride = 120.0 / cadence
        cfg = synth.SynthConfig(duration_s=60.0, stride_s=stride,
                                noise_sigma=noises[i % 3], seed=200 + i,
                                sensor_rotation=random_unit_quat(rot_rng))
        rec, truth, _, _ = synth.generate(cfg)
        result = pipeline.process_recording(rec)
        row = {"cadence": cadence}
        for kind in (IC, FC):
            row[kind] = _f1_and_median_abs(result.events, truth, kind)
        clean.append(row)

    heavy = []
    for j, cadence in enumerate(np.linspace(80, 130, 6)):
        stride = 120.0 / cadence
        cfg = synth.SynthConfig(duration_s=60.0, stride_s=stride,
                                noise_sigma=0.8, seed=400 + j,
                                sensor_rotation=random_unit_quat(rot_rng))
        rec, truth, _, _ = synth.generate(cfg)
        result = pipeline.process_recording(rec)
        heavy.append({kind: _f1_and_median_abs(result.events, truth, kind)
                      for kind in (IC, FC)})
    elapsed = time.monotonic() - start
    return clean, heavy, elapsed


def test_acceptance_1_detection_floor(detection_sweep, capsys):
    clean, heavy, elapsed = detection_sweep
    med_ic = float(np.median([r[IC][0] for r in clean]))
    med_fc = float(np.median([r[FC][0] for r in clean]))
    min_heavy = min(min(r[IC][0], r[FC][0]) for r in heavy)
    ok = med_ic >= 0.98 and med_fc >= 0.98 and min_heavy >= 0.90 \
        and elapsed < 120.0
    report(capsys, 1,
           ok, f"median F1 IC={med_ic:.4f} FC={med_fc:.4f} (floor 0.98), "
               f"sigma=0.8 min F1={min_heavy:.4f} (floor 0.90), "
               f"runtime {elapsed:.1f}s (< 120s)")
    assert ok


def test_acceptance_2_temporal_precision(detection_sweep, capsys):
    clean, _, _ = detection_sweep
    worst_ic = max(r[IC][1] for r in clean)
    worst_fc = max(r[FC][1] for r in clean)
    ok = worst_ic <= 0.08 and worst_fc <= 0.08
    report(capsys, 2,
           ok, f"worst median |error| IC={worst_ic:.4f}s FC={worst_fc:.4f}s "
               "(limit 0.08s)")
    assert ok


def test_acceptance_3_orientation_invariance(capsys):
    base_cfg = synth.SynthConfig(duration_s=30.0, seed=5)
    rec, _, _, _ = synth.generate(base_cfg)
    fs = base_cfg.sample_rate_hz
    base = pipeline.process_recording(rec)
    base_ic = sorted(e.time_s for e in base.events if e.kind == IC)

    rng = np.random.default_rng(7)
    max_shift = 0.0
    for _ in range(5):
        cfg = synth.SynthConfig(duration_s=30.0, seed=5,
                                sensor_rotation=random_unit_quat(rng))
        rrec, _, _, _ = synth.generate(cfg)
        rot = pipeline.process_recording(rrec)
        rot_ic = sorted(e.time_s for e in rot.events if e.kind == IC)
        rep = evaluate.match_events(rot_ic, base_ic)
        if rep.fp or rep.fn:
            max_shift = np.inf
            break
        max_shift = max(max_shift, np.max(np.abs(rep.errors())) * fs)

    # amplitude scaling: exact event-index equality at the detector level
    ga = orientation.align_recording(rec)
    anat = frame.to_anatomical(ga.accel, frame.estimate_frame(ga.accel, fs))
    seg_cfg = segmentation.PipelineConfig()
    stride = stepdetect.estimate_stride_duration(segmentation.verify_gait(
        segmentation.stride_autocorr(anat[:, 0], fs, seg_cfg), fs, seg_cfg))
    amp_ok = True
    ref_idx = None
    for k in (1.0, 0.5, 2.0, 10.0):
        scaled = anat * k
        params = stepdetect.estimate_wavelet_params(
            scaled, fs, stride,
            *(segmentation.stride_autocorr(scaled[:, c], fs, seg_cfg) for c in (0, 1)))
        idx = [(e.kind, round(e.time_s * fs)) for e in
               stepdetect.detect_events(anat * k, fs, params)]
        if ref_idx is None:
            ref_idx = idx
        elif idx != ref_idx:
            amp_ok = False

    ok = max_shift <= 1.0 and amp_ok
    report(capsys, 3,
           ok, f"max rotation shift {max_shift:.2f} samples (<= 1), "
               f"amplitude-scaling indices identical: {amp_ok}")
    assert ok


def test_acceptance_4_matching_oracle(capsys):
    from test_evaluate import brute_force_match
    rng = np.random.default_rng(13)
    mismatches = 0
    for _ in range(1000):
        det = sorted(np.round(rng.uniform(0, 8, rng.integers(0, 11)), 3))
        ref = sorted(np.round(rng.uniform(0, 8, rng.integers(0, 11)), 3))
        rep = evaluate.match_events(det, ref, window_s=0.5)
        if (rep.tp, rep.fp, rep.fn) != brute_force_match(det, ref):
            mismatches += 1
    m = evaluate.compute_metrics(
        evaluate.match_events([1.1, 2.6, 4.0], [1.0, 2.0, 3.0]))
    hand_ok = (m.precision == m.recall == m.f1 == pytest.approx(1 / 3))
    ok = mismatches == 0 and hand_ok
    report(capsys, 4,
           ok, f"{mismatches}/1000 brute-force mismatches, "
               f"hand example P=R=F1=1/3: {hand_ok}")
    assert ok


def test_acceptance_5_filter_verification(capsys):
    fs, cutoff = 100.0, 17.0
    n = 4001   # odd so index reversal fixes the center sample
    t = np.arange(n) / fs

    def filtered(x):
        rec = ImuRecording(t=t, accel=np.column_stack([x, x, x]),
                           gyro=np.zeros((n, 3)), sample_rate=fs)
        return ingest.lowpass_accel(rec, cutoff).accel[:, 0]

    dc = filtered(np.ones(n))
    dc_err = float(np.max(np.abs(dc - 1.0)))

    tone = np.sin(2 * np.pi * 30.0 * t)
    out = filtered(tone)[n // 4: -n // 4]
    gain = float(np.sqrt(np.mean(out ** 2)) / np.sqrt(0.5))
    # analytic double-pass magnitude of the order-2 digital filter at 30 Hz
    r = np.tan(np.pi * 30.0 / fs) / np.tan(np.pi * cutoff / fs)
    oracle = 1.0 / (1.0 + r ** 4)
    gain_err = abs(gain - oracle) / oracle

    pulse = np.zeros(n)
    pulse[n // 2] = 1.0
    resp = filtered(pulse)
    sym_err = float(np.max(np.abs(resp - resp[::-1])))

    ok = dc_err <= 1e-6 and gain_err <= 0.10 and sym_err <= 1e-9
    report(capsys, 5,
           ok, f"DC error {dc_err:.2e} (<= 1e-6), 30 Hz gain {gain:.5f} vs "
               f"oracle {oracle:.5f} ({100 * gain_err:.2f}% <= 10%), "
               f"zero-phase asymmetry {sym_err:.2e}")
    assert ok


def test_acceptance_6_segmentation_recovery(capsys):
    worst = 0.0
    kinds_ok = True
    for angle in (114.6, 57.3):
        script = [Phase("rest", 3.0), Phase("walk", 10.0),
                  Phase("turn", 1.5, angle), Phase("walk", 10.0),
                  Phase("rest", 3.0)]
        rec, _, truth_segs, _ = synth.generate(synth.SynthConfig(
            duration_s=27.5, seed=6, script=script))
        result = pipeline.process_recording(rec)
        if [s.kind for s in result.segments] != [s.kind for s in truth_segs]:
            kinds_ok = False
            continue
        for got, want in zip(result.segments, truth_segs):
            worst = max(worst, abs(got.start_s - want.start_s),
                        abs(got.end_s - want.end_s))
    ok = kinds_ok and worst <= 0.6
    report(capsys, 6,
           ok, f"kinds recovered (114.6 deg splits, 57.3 deg does not): "
               f"{kinds_ok}, worst boundary error {worst:.2f}s (<= 0.6s)")
    assert ok


def test_acceptance_7_bayesian_calibration(capsys):
    start = time.monotonic()
    n_reps = 20
    covered = {name: 0 for name in factors.CONTRAST_NAMES}
    worst_rhat = 0.0
    for rep in range(n_reps):
        obs, truth = factors.simulate_dataset(n_subjects=60,
                                              obs_per_subject=10,
                                              seed=100 + rep)
        fit = factors.sample_posterior(obs, n_draws=2500, n_warmup=2000,
                                       seed=100 + rep, n_chains=2)
        worst_rhat = max(worst_rhat, fit.max_rhat)
        for name, vals in factors.contrast_draws(fit).items():
            lo, hi = np.quantile(vals, [0.05, 0.95])
            if lo <= truth[name] <= hi:
                covered[name] += 1

    prior = factors.sample_prior(n_draws=2500, n_warmup=2000, seed=100)
    a_mean = float(np.mean(prior.draws[:, 1]))
    elapsed = time.monotonic() - start

    min_cov = min(covered.values())
    ok = min_cov >= int(0.8 * n_reps) and worst_rhat < 1.05 \
        and abs(a_mean - 1.0) <= 0.1 and elapsed < 300.0
    report(capsys, 7,
           ok, f"coverage {dict(covered)} (floor {int(0.8 * n_reps)}/"
               f"{n_reps}), max R-hat {worst_rhat:.4f} (< 1.05), prior "
               f"intercept mean {a_mean:.3f} (1 +/- 0.1), "
               f"runtime {elapsed:.1f}s (< 300s)")
    assert ok


def test_acceptance_8_aggregation_arithmetic(capsys):
    within = evaluate.aggregate_within({"p1": [0.9, 0.95, 1.0, 1.0]})
    med, iqr = within["p1"]
    within_ok = med == 0.975 and iqr == 0.0625

    s = evaluate.aggregate_across([1, 2, 3, 4, 5],
                                  within_iqrs=[0.1, 0.3, 0.2])
    across_ok = (s.median == 3.0 and s.q1 == 2.0 and s.q3 == 4.0
                 and s.iqr == 2.0 and s.mean == 3.0 and s.ws_iqr == 0.2)

    two = evaluate.two_stage_aggregate(
        {"a": [0.9, 0.95, 1.0, 1.0], "b": [0.8, 0.8, 0.8], "c": [1.0, 1.0]})
    two_ok = two.median == 0.975 and two.ws_iqr == 0.0

    ok = within_ok and across_ok and two_ok
    report(capsys, 8,
           ok, f"within (0.975, 0.0625): {within_ok}, across toy set exact: "
               f"{across_ok}, two-stage exact: {two_ok}")
    assert ok

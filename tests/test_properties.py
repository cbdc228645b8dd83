"""Property tests of the sharp-turn splitter, the config round trip, the
config JSON reader, the event matcher, the run splitter, the turn
detector, the two event readers, the events JSON writer, gaitpipe
evaluate and every reader of an input file."""
import contextlib
import io
import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import butter, filtfilt

from gaitpipe import cli, evaluate, factors, ingest, pipeline, segmentation, stepdetect
from gaitpipe.core import (
    ConfigurationError,
    ContractError,
    EVENT_KINDS,
    EVENT_SIDES,
    GaitEvent,
    GaitPipeError,
    GravityAlignedRecording,
    ParseError,
    Segment,
    SegmentKind,
)
from gaitpipe.pipeline import PipelineConfig
from gaitpipe.segmentation import TurnInterval
from gaitpipe.synth import Phase, SynthConfig

FS = 50.0
DURATION_S = 60.0
KINDS = [SegmentKind.GAIT_BOUT, SegmentKind.SHORT_REST, SegmentKind.LONG_REST,
         SegmentKind.BOUNDARY, SegmentKind.UNKNOWN]


@st.composite
def timelines(draw):
    """Segments tiling part of [0, DURATION_S] and non-overlapping turns
    anywhere in it, all on a 0.1 s grid."""
    ticks = st.integers(0, int(DURATION_S * 10))
    cuts = sorted(draw(st.lists(ticks, min_size=2, max_size=12, unique=True)))
    segments = [Segment(a / 10, b / 10, draw(st.sampled_from(KINDS)))
                for a, b in zip(cuts, cuts[1:])]
    ends = sorted(draw(st.lists(ticks, max_size=12, unique=True)))
    angles = st.floats(-360.0, 360.0)
    turns = [TurnInterval(a / 10, b / 10, draw(angles))
             for a, b in zip(ends[::2], ends[1::2])]
    return segments, turns


def walking_recording() -> GravityAlignedRecording:
    """A recording whose vertical acceleration is periodic gait throughout,
    so only duration and turns decide which bouts are eligible."""
    t = np.arange(int(DURATION_S * FS)) / FS
    step = 0.55
    kmod = np.floor(t / step).astype(int) % 2
    accel = np.zeros((len(t), 3))
    accel[:, 0] = 9.81 + (2.0 + 0.6 * (-1.0) ** kmod) * np.sin(2 * np.pi * t / step)
    return GravityAlignedRecording(t=t, accel=accel, gyro=np.zeros_like(accel),
                                   sample_rate=FS,
                                   orientation=np.tile([1.0, 0, 0, 0], (len(t), 1)))


sharp_angles = st.floats(1.0, 180.0)


@given(timelines(), sharp_angles)
def test_refine_tiles_every_bout(timeline, sharp_deg):
    segments, turns = timeline
    cfg = PipelineConfig(sharp_turn_deg=sharp_deg)
    out = segmentation.refine_with_turns(segments, turns, cfg)
    for seg in segments:
        inside = [o for o in out if seg.start_s <= o.start_s and o.end_s <= seg.end_s]
        if seg.kind != SegmentKind.GAIT_BOUT:
            assert inside == [seg]
            continue
        assert inside[0].start_s == seg.start_s
        assert inside[-1].end_s == seg.end_s
        for a, b in zip(inside, inside[1:]):
            assert a.end_s == b.start_s
        for piece in inside:
            cut = [t for t in turns if t.is_sharp(cfg)
                   and t.start_s < piece.end_s and piece.start_s < t.end_s]
            if piece.kind == SegmentKind.GAIT_BOUT:
                assert not cut
            else:
                assert piece.kind == SegmentKind.SHARP_TURN and len(cut) == 1
    assert sum(o.duration_s for o in out) == \
        pytest.approx(sum(s.duration_s for s in segments), abs=1e-9)


RECORDING = walking_recording()


@settings(deadline=None, max_examples=50)
@given(timelines(), sharp_angles)
def test_no_eligible_bout_overlaps_a_sharp_turn(timeline, sharp_deg):
    segments, turns = timeline
    cfg = PipelineConfig(sharp_turn_deg=sharp_deg)
    refined = segmentation.refine_with_turns(segments, turns, cfg)
    bouts = segmentation.eligible_bouts(RECORDING, refined, cfg)
    for bout in bouts:
        assert bout.duration_s >= cfg.min_bout_s
        for turn in turns:
            if turn.is_sharp(cfg):
                assert turn.end_s <= bout.start_s or turn.start_s >= bout.end_s


def configs():
    positive = st.floats(1e-3, 1e3)
    special = {
        "resample_hz": st.none() | positive,
        "gyro_thresh": st.floats(0.2, 0.6),
        "std_thresh": st.floats(0.05, 0.4),
        "wavelet_scale": st.none() | positive,
        "wavelet_axis": st.sampled_from([None, stepdetect.AXIS_VERTICAL,
                                         stepdetect.AXIS_AP]),
        "wavelet_sign": st.sampled_from([None, -1, 1]),
    }
    return st.fixed_dictionaries({f.name: special.get(f.name, positive)
                                  for f in fields(PipelineConfig)}).filter(
        lambda kw: kw["stride_lag_min_s"] < kw["stride_lag_max_s"]
        and kw["turn_stop_dps"] <= kw["turn_start_dps"]).map(
            lambda kw: PipelineConfig(**kw))


@given(configs())
def test_config_json_roundtrip(cfg):
    doc = json.loads(json.dumps(cfg.to_json()))
    assert PipelineConfig.from_json(doc) == cfg


json_scalars = (st.none() | st.booleans() | st.integers() | st.just(10 ** 400)
                | st.floats() | st.floats(0.05, 2.0) | st.text(max_size=6)
                | st.sampled_from([stepdetect.AXIS_VERTICAL, "walk", "rest", "turn"]))
json_values = st.recursive(
    json_scalars, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4), max_leaves=8)


def config_docs(cls, **special):
    """JSON objects over the keys of cls, and one unknown key, with any
    JSON values (special ones for the keys named in special)."""
    keys = {f.name: special.get(f.name, json_values) for f in fields(cls)}
    return st.fixed_dictionaries({}, optional=dict(keys, bogus=json_values))


phase_docs = config_docs(Phase)
any_config_doc = st.one_of(
    st.tuples(st.just(PipelineConfig), json_values | config_docs(PipelineConfig)),
    st.tuples(st.just(SynthConfig), json_values | config_docs(
        SynthConfig, script=st.lists(phase_docs | json_values, max_size=3))))


@settings(max_examples=400)
@given(any_config_doc)
def test_any_json_builds_a_config_or_raises_configuration_error(case):
    cls, doc = case
    try:
        cfg = cls.from_json(doc)
    except ConfigurationError:
        return
    assert isinstance(cfg, cls)
    if cls is PipelineConfig:
        assert cls.from_json(json.loads(json.dumps(cfg.to_json()))) == cfg


def oracle_pairs(detected, reference, window_s):
    """Brute-force matcher: each reference in time order takes the
    closest remaining detection within +/- window_s/2, the earlier one on
    a tie. Returns the (detected, reference) pairs and the leftovers."""
    half = window_s / 2.0
    remaining = list(detected)
    pairs, missed = [], []
    for r in reference:
        cands = [d for d in remaining if abs(d - r) <= half]
        if not cands:
            missed.append(r)
            continue
        best = min(cands, key=lambda d: (abs(d - r), d))
        remaining.remove(best)
        pairs.append((best, r))
    return pairs, remaining, missed


@st.composite
def grid_matches(draw):
    """(detected, reference, window_s) on a grid of 2**-10 s (about 1 ms).

    The grid is exact in binary, so differences are exact. Detections are
    drawn around the references, within a step of the half window, plus
    a few anywhere, so equal distances and distances of exactly half a
    window occur often."""
    half = draw(st.integers(1, 20))
    reference = sorted(draw(st.lists(st.integers(0, 60), max_size=12)))
    near = [r + draw(st.integers(-half - 1, half + 1))
            for r in reference if draw(st.booleans())]
    detected = sorted(near + draw(st.lists(st.integers(0, 60), max_size=6)))
    return ([d / 1024 for d in detected], [r / 1024 for r in reference],
            half / 512)


@settings(max_examples=300)
@given(grid_matches())
def test_matcher_pairs_equal_brute_force(case):
    detected, reference, window_s = case
    rep = evaluate.match_events(detected, reference, window_s=window_s)
    pairs, false_pos, false_neg = oracle_pairs(detected, reference, window_s)
    assert rep.pairs == pairs
    assert rep.false_positives == false_pos
    assert rep.false_negatives == false_neg


def nudge(x: float, ulps: int) -> float:
    """x moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        x = np.nextafter(x, np.inf if ulps > 0 else -np.inf)
    return float(x)


@st.composite
def ulp_edge_matches(draw):
    """(detected, reference, window_s) with every detection within a few
    ulps of a window edge r - half or r + half. There the rounded bound
    r - half and the rounded difference d - r can disagree about d."""
    window_s = draw(st.floats(1e-3, 2.0))
    half = window_s / 2.0
    reference = sorted(draw(st.lists(st.floats(0.0, 5e3), min_size=1, max_size=8)))
    edges = st.tuples(st.sampled_from(reference), st.sampled_from([-half, half]),
                      st.integers(-3, 3))
    detected = sorted(nudge(r + offset, ulps)
                      for r, offset, ulps in draw(st.lists(edges, max_size=12)))
    return detected, reference, window_s


@settings(max_examples=300)
@given(ulp_edge_matches())
def test_matcher_window_edges_equal_brute_force(case):
    detected, reference, window_s = case
    rep = evaluate.match_events(detected, reference, window_s=window_s)
    pairs, false_pos, false_neg = oracle_pairs(detected, reference, window_s)
    assert rep.pairs == pairs
    assert rep.false_positives == false_pos
    assert rep.false_negatives == false_neg


times = st.lists(st.floats(-1e4, 1e4), max_size=40).map(sorted)


@given(times, times, st.floats(1e-3, 1e3))
def test_matcher_conserves_events(detected, reference, window_s):
    rep = evaluate.match_events(detected, reference, window_s=window_s)
    assert rep.tp + rep.fn == len(reference)
    assert rep.tp + rep.fp == len(detected)


@given(st.lists(st.booleans(), max_size=60))
def test_runs_tile_their_input(flags):
    flags = np.array(flags, dtype=bool)
    runs = segmentation._runs(flags)
    pos = 0
    for a, b, value in runs:
        assert a == pos < b and (flags[a:b] == value).all()
        pos = b
    assert pos == len(flags)
    for (_, _, v1), (_, _, v2) in zip(runs, runs[1:]):
        assert v1 != v2


def reference_turns(rec, cfg):
    """detect_turns written as sample-by-sample hysteresis: each run above
    turn_start_dps grows while the neighbouring samples stay above
    turn_stop_dps, and candidates closer than turn_merge_s are merged."""
    fs = rec.sample_rate
    yaw = rec.vertical_gyro
    if len(yaw) < 10:
        return []
    if cfg.turn_lowpass_hz < fs / 2.0:
        b, a = butter(2, cfg.turn_lowpass_hz, fs=fs)
        padlen = min(3 * max(len(a), len(b)), len(yaw) - 1)
        yaw = filtfilt(b, a, yaw, padlen=padlen)
    yaw_dps = np.degrees(yaw)
    above = np.abs(yaw_dps) > cfg.turn_start_dps
    candidates = []
    for a_i, b_i, val in segmentation._runs(above):
        if not val:
            continue
        lo = a_i
        while lo > 0 and abs(yaw_dps[lo - 1]) > cfg.turn_stop_dps:
            lo -= 1
        hi = b_i
        while hi < len(yaw_dps) and abs(yaw_dps[hi]) > cfg.turn_stop_dps:
            hi += 1
        candidates.append([lo, hi])
    merged = []
    for lo, hi in candidates:
        if merged and (lo - merged[-1][1]) / fs < cfg.turn_merge_s:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [TurnInterval(start_s=float(rec.t[0] + lo / fs),
                         end_s=float(rec.t[0] + hi / fs),
                         angle_deg=float(np.degrees(np.trapezoid(
                             rec.vertical_gyro[lo:hi], dx=1.0 / fs))))
            for lo, hi in merged]


@st.composite
def yaw_traces(draw):
    """A yaw-rate trace (rad/s) held piecewise constant over random runs,
    its sample rate, and turn thresholds with turn_stop_dps <=
    turn_start_dps. At 2 Hz the 1.5 Hz low-pass is skipped, so the raw
    steps reach the run finder, and thresholds drawn from the trace's
    own rates put samples exactly on them."""
    fs = draw(st.sampled_from([2.0, 10.0, 50.0]))
    levels = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.integers(1, 40)),
                           min_size=1, max_size=30))
    yaw = np.repeat([v for v, _ in levels], [k for _, k in levels])
    rates = sorted(float(abs(np.degrees(v))) for v, _ in levels)
    start = draw(st.sampled_from(rates) | st.floats(0.0, 40.0))
    stop = draw(st.sampled_from([r for r in rates if r <= start] or [0.0])
                | st.floats(0.0, start))
    cfg = PipelineConfig(turn_start_dps=start, turn_stop_dps=stop,
                             turn_merge_s=draw(st.sampled_from([0.0, 0.05, 0.5, 2.0])))
    return yaw, fs, cfg


@settings(max_examples=300)
@given(yaw_traces())
def test_turns_equal_hysteresis_reference(case):
    yaw, fs, cfg = case
    n = len(yaw)
    gyro = np.zeros((n, 3))
    gyro[:, 0] = yaw
    rec = GravityAlignedRecording(t=3.0 + np.arange(n) / fs, accel=np.zeros((n, 3)),
                                  gyro=gyro, sample_rate=fs,
                                  orientation=np.tile([1.0, 0, 0, 0], (n, 1)))
    assert segmentation.detect_turns(rec, cfg) == reference_turns(rec, cfg)



events = st.lists(st.builds(GaitEvent,
                            st.floats(allow_nan=False, allow_infinity=False),
                            st.sampled_from(EVENT_KINDS), st.sampled_from(EVENT_SIDES)),
                  max_size=20)
# a bad value for one column of a row, or (None, ...) for a wrong field
# count, which the CSV reader meets before it checks any value
csv_faults = st.sampled_from([(0, "nan"), (0, "-inf"), (0, "x"), (0, ""), (1, "XX"),
                              (1, ""), (2, "Q"), (2, "l"), (None, "1"), (None, None)])
# a bad value for one key of an entry, None for a deleted key, or a
# (None, ...) entry that is no object
json_faults = st.sampled_from([("time_s", None), ("time_s", "x"), ("time_s", float("inf")),
                               ("kind", None), ("kind", "XX"), ("kind", ["IC"]),
                               ("side", "B"), (None, [0.5, "IC"])])


@settings(max_examples=200)
@given(events, st.data())
def test_reference_csv_round_trip_and_first_bad_line(evs, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ref.csv"
        ingest.write_reference_events(evs, path)
        assert ingest.load_reference_events(path) == evs
        lines = path.read_bytes().decode().split("\r\n")
    if not evs:
        return
    # corrupt one field in each of a few rows: row k is line k + 2
    rows = data.draw(st.sets(st.integers(0, len(evs) - 1), min_size=1, max_size=4))
    for k in rows:
        col, bad = data.draw(csv_faults)
        fields = lines[k + 1].split(",")
        if col is None:
            fields = fields + [bad] if bad else fields[:-1]
        else:
            fields[col] = bad
        lines[k + 1] = ",".join(fields)
    with pytest.raises(ParseError, match=f"^line {min(rows) + 2}: "):
        ingest.load_reference_events("\r\n".join(lines).encode())


@settings(max_examples=200)
@given(events, st.data())
def test_detections_json_round_trip_and_first_bad_event(evs, data):
    doc = json.loads(json.dumps(pipeline.events_to_json(evs)))
    assert pipeline.events_from_json(doc) == evs
    if not evs:
        return
    rows = data.draw(st.sets(st.integers(0, len(evs) - 1), min_size=1, max_size=4))
    for k in rows:
        key, bad = data.draw(json_faults)
        if key is None:
            doc[k] = bad
        elif bad is None:
            del doc[k][key]
        else:
            doc[k][key] = bad
    with pytest.raises(ParseError, match=f"^event {min(rows)}: "):
        pipeline.events_from_json(doc)


@given(events)
def test_events_json_text_equals_json_dumps(evs):
    assert pipeline.events_json_text(evs) == json.dumps(pipeline.events_to_json(evs), indent=2)


@pytest.mark.parametrize("time_s", [math.nan, math.inf])
def test_events_json_text_refuses_a_non_finite_time(time_s, tmp_path):
    events = [GaitEvent(0.5, "IC", "L"), GaitEvent(time_s, "FC", "R")]
    with pytest.raises(ContractError, match="not JSON compliant"):
        cli.write_json_atomic(events, tmp_path / "e.json", pipeline.events_json_text)
    assert not any(tmp_path.iterdir())


# few distinct times, so that equal times and both zeros are common
scored_events = st.lists(st.builds(GaitEvent,
                                   st.sampled_from([-0.0, 0.0, 0.25, 1.0]) | st.floats(-3, 3),
                                   st.sampled_from(EVENT_KINDS), st.sampled_from(EVENT_SIDES)),
                         max_size=30)


@settings(max_examples=200, deadline=None)
@given(scored_events, scored_events, st.sampled_from([0.1, 0.5, 2.0]))
def test_evaluate_equals_matching_sorted_event_lists(detected, reference, window):
    """gaitpipe evaluate, which reads both files into columns, writes the
    metrics built from GaitEvents and list.sort."""
    with tempfile.TemporaryDirectory() as tmp:
        det_path, ref_path, out = (Path(tmp) / name for name in ("d.json", "r.csv", "m.json"))
        det_path.write_text(json.dumps(pipeline.events_to_json(detected)))
        ingest.write_reference_events(reference, ref_path)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["evaluate", str(det_path), str(ref_path), "--window", str(window),
                             "--out", str(out)]) == 0
        det = pipeline.events_from_json(json.loads(det_path.read_text()))
        ref = ingest.load_reference_events(ref_path)
        expected = {"window_s": window, "participant": None}
        for kind in EVENT_KINDS:
            report = evaluate.match_events(sorted(e.time_s for e in det if e.kind == kind),
                                           sorted(e.time_s for e in ref if e.kind == kind),
                                           window_s=window, kind=kind)
            errors = evaluate.temporal_errors(report) if report.tp else None
            expected[kind] = evaluate.metrics_to_json(kind, evaluate.compute_metrics(report),
                                                      errors)
        assert out.read_text() == json.dumps(expected, indent=2) + "\n"


# pieces of the files a phone or another tool may export: numbers, the
# non-finite and boolean words, 400 digits, level names, a quote and
# bytes that are no UTF-8
csv_fields = st.sampled_from([
    b"0.5", b"1", b"-2e3", b"nan", b"inf", b"-Infinity", b"1e400", b"9" * 400, b"true",
    b"null", b"", b" ", b"\xff", b"0.\xc3", b'"1', b"IC", b"FC", b"L", b"U", b"F", b"M",
    b"HC", b"mild", b"Indoor", b"WithAid"]) | st.binary(max_size=4)


def csv_files(header, *valid_rows):
    """The bytes of a CSV: the header after a few bytes or none, then
    rows that are valid or of about as many fields as the header names."""
    n = len(header)
    row = (st.sampled_from(valid_rows)
           | st.lists(csv_fields, min_size=n - 1, max_size=n + 1).map(b",".join))
    line = st.tuples(row, st.sampled_from([b"\n", b"\r\n", b"\r"])).map(b"".join)
    junk = st.just(b"") | st.binary(max_size=4)
    head = junk.map(lambda junk: junk + ",".join(header).encode() + b"\n")
    return st.tuples(head, st.lists(line, max_size=5).map(b"".join)).map(b"".join)


@settings(max_examples=300)
@given(csv_files(ingest.RECORDING_HEADER, b"0,0.1,0.2,9.8,0,0,0", b"0.02,0,0,9.8,0.1,0,0"),
       csv_files(ingest.EVENTS_HEADER, b"0.5,IC,L", b"1.1,FC,R"),
       csv_files(factors.FACTOR_HEADER, b"0.9,50,F,HC,0,Indoor,WithAid",
                 b"0.8,61,M,mild,1,Outdoor,WithoutAid"))
def test_any_csv_bytes_load_or_raise_gaitpipe_error(recording, reference, table):
    for load, source in [(ingest.load_recording, recording),
                         (ingest.load_reference_events, reference),
                         (factors.load_factor_table, table)]:
        with contextlib.suppress(GaitPipeError):
            load(source)


event_objects = st.fixed_dictionaries(
    {"time_s": st.floats(0, 1e3) | st.booleans() | json_values,
     "kind": st.sampled_from(EVENT_KINDS) | json_values},
    optional={"side": st.sampled_from(EVENT_SIDES) | json_values})
detections_docs = json_values | st.lists(event_objects | json_values, max_size=4)


@settings(max_examples=300)
@given(detections_docs)
def test_any_json_gives_event_columns_or_parse_error(doc):
    try:
        times, kinds, sides = pipeline.event_columns_from_json(doc)
    except GaitPipeError:
        return
    assert all(type(t) is float and math.isfinite(t) for t in times)
    assert not any(isinstance(d.get("time_s"), bool) for d in doc)


kind_entries = st.fixed_dictionaries({}, optional={"f1": st.floats(0, 1) | json_values})
metrics_objects = st.fixed_dictionaries(
    {"participant": st.sampled_from(["p1", "p2"]) | json_values},
    optional={"IC": kind_entries | json_values, "FC": kind_entries | json_values})
metrics_files = st.lists(metrics_objects | json_values, min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(st.lists(metrics_objects, min_size=1, max_size=3) | metrics_files, st.booleans())
def test_any_json_metrics_aggregate_or_end_in_an_error_line(docs, two_stage):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"m{i}.json" for i in range(len(docs))]
        for path, doc in zip(paths, docs):
            path.write_text(json.dumps(doc))
        out = Path(tmp) / "summary.json"
        argv = ["aggregate", *map(str, paths), "--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--two-stage"] * two_stage)
        assert code in (0, 1)
        assert out.exists() == (code == 0)
        assert err.getvalue().startswith("error: ") == (code == 1)
        if code == 0:                   # strict JSON: no NaN or Infinity
            json.loads(out.read_text(), parse_constant=pytest.fail)

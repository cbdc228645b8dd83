"""Property tests of the sharp-turn splitter and the config round trip."""
import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitpipe import segmentation, stepdetect
from gaitpipe.core import GravityAlignedRecording, Segment, SegmentKind
from gaitpipe.pipeline import PipelineConfig
from gaitpipe.segmentation import SegmentationConfig, TurnInterval

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
    cfg = SegmentationConfig(sharp_turn_deg=sharp_deg)
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
    cfg = SegmentationConfig(sharp_turn_deg=sharp_deg)
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
    return st.builds(PipelineConfig, **{f.name: special.get(f.name, positive)
                                        for f in fields(PipelineConfig)})


@given(configs())
def test_config_json_roundtrip(cfg):
    doc = json.loads(json.dumps(cfg.to_json()))
    assert PipelineConfig.from_json(doc) == cfg

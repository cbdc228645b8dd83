"""End-to-end processing of one recording into segments and gait events."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import frame as frame_mod
from . import ingest, orientation, segmentation, stepdetect
from .core import (
    DEFAULT_CONFIG,
    EVENT_KINDS,
    EVENT_SIDES,
    SIDE_UNKNOWN,
    GaitEvent,
    ImuRecording,
    InsufficientDataError,
    LOWPASS_MIN_SAMPLES,
    AmbiguousDirectionError,
    ParseError,
    PipelineConfig,
    Segment,
    event_columns,
    gait_events,
)

_EVENT_TEXT = '  {\n    "time_s": %r,\n    "kind": "%s",\n    "side": "%s"\n  }'


@dataclass
class BoutResult:
    start_s: float
    end_s: float
    events: list[GaitEvent]
    skipped_reason: str | None = None


@dataclass
class PipelineResult:
    segments: list[Segment]
    events: list[GaitEvent]
    bouts: list[BoutResult] = field(default_factory=list)


def _need_samples(rec: ImuRecording, where: str = "") -> None:
    if len(rec.t) < LOWPASS_MIN_SAMPLES:
        raise InsufficientDataError(
            f"processing needs at least {LOWPASS_MIN_SAMPLES} samples, got {len(rec.t)}{where}")


def process_recording(rec: ImuRecording,
                      config: PipelineConfig = DEFAULT_CONFIG) -> PipelineResult:
    """Run ingest regularization through step detection on one recording
    of at least LOWPASS_MIN_SAMPLES samples, and as many on its uniform grid."""
    rec.validate()
    _need_samples(rec)
    rec = ingest.ensure_uniform(rec, config.resample_hz)
    _need_samples(rec, f" on the {rec.sample_rate:g} Hz grid")
    if config.lowpass_cutoff_hz < rec.sample_rate / 2.0:
        rec = ingest.lowpass_accel(rec, config.lowpass_cutoff_hz)
    aligned = orientation.align_recording(rec, beta=config.madgwick_beta)
    del rec     # the low-passed recording is read no more

    segments = segmentation.segment(aligned, config)
    turns = segmentation.detect_turns(aligned, config)
    segments = segmentation.refine_with_turns(segments, turns, config)
    bouts = segmentation.eligible_bouts(aligned, segments, config)

    fs = aligned.sample_rate
    results = []
    all_events: list[GaitEvent] = []
    for bout in bouts:
        accel = aligned.accel[bout.samples]
        try:
            anat_frame = frame_mod.estimate_frame(accel, fs, config)
            accel_an = frame_mod.to_anatomical(accel, anat_frame)
            ap_autocorr = segmentation.stride_autocorr(accel_an[:, 1], fs, config)
            if not frame_mod.verify_frame(ap_autocorr, fs, config):
                results.append(BoutResult(bout.start_s, bout.end_s, [],
                                          "frame verification failed"))
                continue
            # the frame keeps the aligned vertical axis, so accel_an[:, 0]
            # is the signal of the bout's vertical stride analysis and the
            # aligned gyro's column 0 is the anatomical vertical rate
            stride_s = stepdetect.estimate_stride_duration(bout.peak)
            params = stepdetect.estimate_wavelet_params(
                accel_an, fs, stride_s, bout.vertical_autocorr, ap_autocorr, config)
            events = stepdetect.detect_events(accel_an, fs, params,
                                              t0=bout.start_s)
            events = stepdetect.assign_laterality(events, aligned.gyro[bout.samples],
                                                  fs, t0=bout.start_s)
            events = gait_events(stepdetect.quality_check(events, stride_s))
        except (InsufficientDataError, AmbiguousDirectionError) as exc:
            results.append(BoutResult(bout.start_s, bout.end_s, [], str(exc)))
            continue
        reason = None if events else "no event passed detection and quality control"
        results.append(BoutResult(bout.start_s, bout.end_s, events, reason))
        # bouts are in time order and each one's events lie in
        # [start_s, end_s), so the recording's events need no sort
        all_events.extend(events)

    return PipelineResult(segments=segments, events=all_events, bouts=results)


def events_to_json(events: list[GaitEvent]) -> list[dict]:
    return [e.to_json() for e in events]


def events_json_text(events: list[GaitEvent]) -> str:
    """The text of ``json.dumps(events_to_json(events), indent=2,
    allow_nan=False)``, so a non-finite time raises ValueError.

    Each event is formatted from _EVENT_TEXT, as json's slow indenting
    encoder writes a float (its ``repr``) and a name of EVENT_KINDS or
    EVENT_SIDES; any other value goes to json itself.
    """
    texts = [_EVENT_TEXT % (e.time_s, e.kind, e.side) for e in events
             if type(e.time_s) is float and math.isfinite(e.time_s)
             and e.kind in EVENT_KINDS and e.side in EVENT_SIDES]
    if len(texts) < len(events):
        return json.dumps(events_to_json(events), indent=2, allow_nan=False)
    return "[\n" + ",\n".join(texts) + "\n]" if texts else "[]"


def segments_to_json(segments: list[Segment]) -> list[dict]:
    return [s.to_json() for s in segments]


def events_from_json(doc) -> list[GaitEvent]:
    """GaitEvents from a detections JSON list; see event_columns_from_json."""
    return gait_events(event_columns_from_json(doc))


def event_columns_from_json(doc) -> np.recarray:
    """The event_table of a detections JSON list of objects, each with a
    finite number ``time_s``, a ``kind`` in EVENT_KINDS and an optional
    ``side`` in EVENT_SIDES (default U). Anything else raises
    ParseError, naming the index of the first bad event."""
    if not isinstance(doc, list):
        raise ParseError(f"detections must be a JSON list of events, "
                         f"got {type(doc).__name__}")
    times, kinds, sides = [], [], []
    try:
        for d in doc:
            times.append(d.get("time_s"))
            kinds.append(d.get("kind"))
            sides.append(d.get("side", SIDE_UNKNOWN))
    except AttributeError:              # an entry that is no object
        i = len(times)
        # a bad value in an earlier event comes first
        event_columns(times, kinds, sides, "event {}".format)
        raise ParseError(f"event {i}: must be an object, "
                         f"got {type(doc[i]).__name__}") from None
    return event_columns(times, kinds, sides, "event {}".format)

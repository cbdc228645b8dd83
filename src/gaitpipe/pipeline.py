"""End-to-end processing of one recording into segments and gait events."""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import frame as frame_mod
from . import ingest, orientation, segmentation, stepdetect
from .core import (
    DEFAULT_CONFIG,
    SIDE_UNKNOWN,
    GaitEvent,
    ImuRecording,
    InsufficientDataError,
    AmbiguousDirectionError,
    ParseError,
    PipelineConfig,
    Segment,
    event_columns,
)

# the accelerometer low-pass pads each edge with 9 samples
MIN_SAMPLES = 10


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


def process_recording(rec: ImuRecording,
                      config: PipelineConfig = DEFAULT_CONFIG) -> PipelineResult:
    """Run ingest regularization through step detection on one recording
    of at least MIN_SAMPLES samples."""
    rec.validate()
    if len(rec.t) < MIN_SAMPLES:
        raise InsufficientDataError(
            f"processing needs at least {MIN_SAMPLES} samples, got {len(rec.t)}")

    rec = ingest.ensure_uniform(rec, config.resample_hz)
    if config.lowpass_cutoff_hz < rec.sample_rate / 2.0:
        rec = ingest.lowpass_accel(rec, config.lowpass_cutoff_hz)
    aligned = orientation.align_recording(rec, beta=config.madgwick_beta)

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
            stride = stepdetect.estimate_stride_duration(bout.peak)
            params = stepdetect.estimate_wavelet_params(
                accel_an, fs, stride, bout.vertical_autocorr, ap_autocorr)
            if config.wavelet_scale is not None:
                params.scale = config.wavelet_scale
            if config.wavelet_axis is not None:
                params.axis = config.wavelet_axis
            if config.wavelet_sign is not None:
                params.sign = config.wavelet_sign
            events = stepdetect.detect_events(accel_an, fs, params,
                                              t0=bout.start_s)
            events = stepdetect.assign_laterality(events, aligned.gyro[bout.samples],
                                                  fs, t0=bout.start_s)
            events = stepdetect.quality_check(events, stride)
        except (InsufficientDataError, AmbiguousDirectionError) as exc:
            results.append(BoutResult(bout.start_s, bout.end_s, [], str(exc)))
            continue
        results.append(BoutResult(bout.start_s, bout.end_s, events))
        all_events.extend(events)

    all_events.sort(key=lambda e: (e.time_s, e.kind))
    return PipelineResult(segments=segments, events=all_events, bouts=results)


def events_to_json(events: list[GaitEvent]) -> list[dict]:
    return [e.to_json() for e in events]


def events_json_text(events: list[GaitEvent]) -> str:
    """The text of ``json.dumps(events_to_json(events), indent=2,
    allow_nan=False)``, so a non-finite time raises ValueError.

    ``indent`` selects json's pure-Python encoder, several times slower
    on a 1 h walk's events than the C one. The C encoder writes each
    object's inner indent as its item separator, and three replaces put
    in the list's; an event's values (a number and two names from
    EVENT_KINDS and EVENT_SIDES) hold no brace.
    """
    text = json.dumps(events_to_json(events), allow_nan=False,
                      separators=(",\n    ", ": "))
    return (text.replace("[{", "[\n  {\n    ", 1)
            .replace("},\n    {", "\n  },\n  {\n    ")
            .replace("}]", "\n  }\n]", 1))


def segments_to_json(segments: list[Segment]) -> list[dict]:
    return [s.to_json() for s in segments]


def events_from_json(doc) -> list[GaitEvent]:
    """GaitEvents from a detections JSON list; see event_columns_from_json."""
    return list(map(GaitEvent, *event_columns_from_json(doc)))


def event_columns_from_json(doc) -> tuple[list[float], list[str], list[str]]:
    """The time, kind and side columns of a detections JSON list of
    objects, each with a finite number ``time_s``, a ``kind`` in
    EVENT_KINDS and an optional ``side`` in EVENT_SIDES (default U).
    Anything else raises ParseError, naming the index of the first bad
    event."""
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

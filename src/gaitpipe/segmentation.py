"""Task recognition: rests, boundaries, turns, and verified gait bouts."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import find_peaks

from .core import (DEFAULT_CONFIG, GravityAlignedRecording, PipelineConfig, Segment,
                   SegmentKind, LOWPASS_MIN_SAMPLES, lowpass)


@dataclass
class TurnInterval:
    start_s: float
    end_s: float
    angle_deg: float

    def is_sharp(self, cfg: PipelineConfig = DEFAULT_CONFIG) -> bool:
        """Whether the turn reaches ``cfg.sharp_turn_deg`` either way."""
        return abs(self.angle_deg) >= cfg.sharp_turn_deg


def window_length(fs: float, cfg: PipelineConfig) -> int:
    """Samples per classification window."""
    return max(2, int(round(cfg.window_s * fs)))


def window_bounds(n_samples: int, fs: float, cfg: PipelineConfig) -> np.ndarray:
    """(k, 2) start and end indices of the non-overlapping windows: the
    n_samples // wlen full ones, then a tail of at least window_s/2."""
    wlen = window_length(fs, cfg)
    edges = np.arange(n_samples // wlen + 1) * wlen
    if n_samples - edges[-1] >= max(2, int(round(cfg.window_s * fs / 2))):
        edges = np.append(edges, n_samples)
    return np.column_stack([edges[:-1], edges[1:]])


def classify_windows(rec: GravityAlignedRecording, cfg: PipelineConfig = DEFAULT_CONFIG):
    """Per-window moving flags. Non-moving needs all three criteria:
    mean |accel| near the reference value, mean |gyro| below threshold,
    and combined accel standard deviation (norm of per-axis SDs) below
    threshold.
    """
    fs = rec.sample_rate
    n = len(rec.t)
    bounds = window_bounds(n, fs, cfg)
    amag = np.linalg.norm(rec.accel, axis=1)
    gmag = np.linalg.norm(rec.gyro, axis=1)
    # the full-length windows in one reshaped reduction, then the short
    # tail window, if any, as a single window of its own length
    wlen = window_length(fs, cfg)
    n_full = n // wlen
    parts = [(0, n_full * wlen, wlen)] + [(a, b, b - a) for a, b in bounds[n_full:]]
    stats = [_window_stats(amag[a:b], gmag[a:b], rec.accel[a:b], w)
             for a, b, w in parts]
    mean_a, mean_g, comb_std = (np.concatenate(c) for c in zip(*stats))
    lo = cfg.accel_ref * (1.0 - cfg.accel_tol)
    hi = cfg.accel_ref * (1.0 + cfg.accel_tol)
    nonmoving = ((lo <= mean_a) & (mean_a <= hi) & (mean_g < cfg.gyro_thresh)
                 & (comb_std < cfg.std_thresh))
    return ~nonmoving, bounds


def _window_stats(amag: np.ndarray, gmag: np.ndarray, accel: np.ndarray, wlen: int):
    """Mean |accel|, mean |gyro| and combined accel SD of consecutive
    windows of wlen samples (len(amag) is a multiple of wlen)."""
    k = len(amag) // wlen
    acc_std = accel.reshape(k, wlen, 3).std(axis=1)
    return (amag.reshape(k, wlen).mean(axis=1), gmag.reshape(k, wlen).mean(axis=1),
            np.linalg.norm(acc_std, axis=1))


def flag_runs(flags: np.ndarray):
    """(start_idx, end_idx_exclusive, value) runs of a boolean array."""
    flags = np.asarray(flags)
    if len(flags) == 0:
        return []
    edges = (np.flatnonzero(flags[1:] != flags[:-1]) + 1).tolist()
    starts = [0] + edges
    ends = edges + [len(flags)]
    return list(zip(starts, ends, flags[starts].tolist()))


def segment(rec: GravityAlignedRecording, cfg: PipelineConfig = DEFAULT_CONFIG) -> list[Segment]:
    """Classify the recording into boundaries, rests, unknowns, and bout
    candidates. The returned segments tile the windowed span."""
    moving, bounds = classify_windows(rec, cfg)
    if not len(bounds):
        return []
    t0 = rec.t[0]
    starts, ends = t0 + bounds.T / rec.sample_rate
    # a moving run between two rests that lasts under merge_gap_s joins them
    for a, b, val in flag_runs(moving)[1:-1]:
        if val and ends[b - 1] - starts[a] < cfg.merge_gap_s:
            moving[a:b] = False
    runs = [(starts[a], ends[b - 1], val) for a, b, val in flag_runs(moving)]
    return label_runs(runs, t0, ends[-1], cfg)


def label_runs(runs, start_s: float, end_s: float, cfg: PipelineConfig) -> list[Segment]:
    """The segments of the (start, end, moving) runs that tile the span
    from start_s to end_s. This is the one segment-kind rule, for detected
    and true segments alike: a moving run is a GaitBout, or Unknown below
    ``min_bout_s``; a rest within ``boundary_margin_s`` of either end of the
    span is a Boundary, any other a ShortRest or, from ``rest_split_s``, a
    LongRest."""
    segments = []
    for start, end, moving in runs:
        dur = end - start
        if moving:
            kind = SegmentKind.GAIT_BOUT if dur >= cfg.min_bout_s else SegmentKind.UNKNOWN
        elif (start - start_s < cfg.boundary_margin_s
              or end_s - end < cfg.boundary_margin_s):
            kind = SegmentKind.BOUNDARY
        elif dur < cfg.rest_split_s:
            kind = SegmentKind.SHORT_REST
        else:
            kind = SegmentKind.LONG_REST
        segments.append(Segment(start_s=float(start), end_s=float(end), kind=kind))
    return segments


def detect_turns(rec: GravityAlignedRecording, cfg: PipelineConfig = DEFAULT_CONFIG) -> list[TurnInterval]:
    """Turn intervals from the low-pass filtered vertical angular velocity."""
    fs = rec.sample_rate
    yaw = rec.vertical_gyro
    if len(yaw) < LOWPASS_MIN_SAMPLES:
        return []
    if cfg.turn_lowpass_hz < fs / 2.0:
        yaw = lowpass(yaw, cfg.turn_lowpass_hz, fs)
    # a turn is a run above the stop rate that reaches the start rate;
    # n_fast[i] counts the samples above the start rate before sample i
    speed = np.abs(np.degrees(yaw))
    n_fast = np.concatenate([[0], np.cumsum(speed > cfg.turn_start_dps)])
    candidates = [(lo, hi) for lo, hi, turning in flag_runs(speed > cfg.turn_stop_dps)
                  if turning and n_fast[hi] > n_fast[lo]]

    merged = []
    for lo, hi in candidates:
        if merged and (lo - merged[-1][1]) / fs < cfg.turn_merge_s:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi])

    t0 = rec.t[0]
    turns = []
    for lo, hi in merged:
        angle = float(np.degrees(np.trapezoid(rec.vertical_gyro[lo:hi], dx=1.0 / fs)))
        turns.append(TurnInterval(start_s=float(t0 + lo / fs),
                                  end_s=float(t0 + hi / fs),
                                  angle_deg=angle))
    return turns


def unbiased_autocorr(x: np.ndarray, max_lag: int | None = None) -> np.ndarray:
    """Mean-removed, unbiased, lag-0-normalized autocorrelation at lags
    0..max_lag (all n lags when max_lag is None or at least n).

    Computed by direct lag sums at O(n*m) for m lags, so None (all n
    lags) costs O(n^2).
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    m = n if max_lag is None else min(max_lag + 1, n)
    d = x - x.mean()
    r = np.correlate(np.append(d, np.zeros(m - 1)), d, "valid") / (n - np.arange(m))
    if r[0] <= 1e-12:
        return np.zeros(m)
    return r / r[0]


def stride_autocorr(x: np.ndarray, fs: float, cfg: PipelineConfig) -> np.ndarray:
    """unbiased_autocorr of x up to one lag past the stride band's upper
    edge, so find_peaks sees the edge's neighbour."""
    return unbiased_autocorr(x, math.ceil(cfg.stride_lag_max_s * fs) + 1)


def dominant_stride_peak(r: np.ndarray, fs: float, cfg: PipelineConfig):
    """(lag_s, coefficient) of the dominant peak of a stride_autocorr
    array in the stride band, or None if no local maximum exists there.

    A peak near half the dominant lag that is almost as strong marks the
    true period (the dominant lag being its double), so the estimate
    drops to it; weaker half-lag peaks are step-frequency artifacts and
    are ignored.
    """
    lags = np.arange(len(r)) / fs
    peaks, _ = find_peaks(r)
    peaks = peaks[(lags[peaks] >= cfg.stride_lag_min_s)
                  & (lags[peaks] <= cfg.stride_lag_max_s)]
    if len(peaks) == 0:
        return None
    best = peaks[np.argmax(r[peaks])]
    while True:
        half = best / 2.0
        tol = max(2.0, 0.1 * half)
        # below 5 samples the tolerance reaches best itself; never step to it
        near = peaks[(peaks < best) & (np.abs(peaks - half) <= tol)]
        if len(near) == 0:
            break
        cand = near[np.argmax(r[near])]
        if r[cand] < 0.92 * r[best]:
            break
        best = cand
    return float(lags[best]), float(r[best])


def verify_gait(r: np.ndarray, fs: float,
                cfg: PipelineConfig = DEFAULT_CONFIG) -> tuple[float, float] | None:
    """The dominant stride peak of a stride_autocorr array of vertical
    acceleration when it reaches ``autocorr_peak_min`` (the signal is
    gait), else None."""
    peak = dominant_stride_peak(r, fs, cfg)
    return peak if peak is not None and peak[1] >= cfg.autocorr_peak_min else None


def refine_with_turns(segments: list[Segment], turns: list[TurnInterval],
                      cfg: PipelineConfig = DEFAULT_CONFIG) -> list[Segment]:
    """Relabel the sharp-turn spans inside gait bouts as SharpTurn
    segments, splitting the bouts around them. This is the one place
    where bouts are split at turns."""
    sharp = sorted((t for t in turns if t.is_sharp(cfg)), key=lambda t: t.start_s)
    out = []
    for seg in segments:
        if seg.kind != SegmentKind.GAIT_BOUT:
            out.append(seg)
            continue
        cursor = seg.start_s
        for turn in sharp:
            a = max(turn.start_s, seg.start_s)
            b = min(turn.end_s, seg.end_s)
            if b <= a:
                continue
            if a > cursor:
                out.append(Segment(start_s=cursor, end_s=a,
                                   kind=SegmentKind.GAIT_BOUT))
            out.append(Segment(start_s=a, end_s=b, kind=SegmentKind.SHARP_TURN))
            cursor = b
        if seg.end_s > cursor:
            out.append(Segment(start_s=cursor, end_s=seg.end_s,
                               kind=SegmentKind.GAIT_BOUT))
    out.sort(key=lambda s: s.start_s)
    return out


@dataclass
class Bout(Segment):
    """A verified gait bout, its samples in the recording it came from,
    and its one vertical stride analysis: the (lag_s, coefficient) peak
    verify_gait found and the stride_autocorr array it was read from."""

    samples: slice
    peak: tuple[float, float]
    vertical_autocorr: np.ndarray = field(repr=False, compare=False)


def eligible_bouts(rec: GravityAlignedRecording, segments: list[Segment],
                   cfg: PipelineConfig = DEFAULT_CONFIG) -> list[Bout]:
    """The gait bouts of already refined segments (see refine_with_turns)
    that last at least ``min_bout_s`` and pass gait verification."""
    fs = rec.sample_rate
    t0 = rec.t[0]
    out = []
    for seg in segments:
        if seg.kind != SegmentKind.GAIT_BOUT or seg.duration_s < cfg.min_bout_s:
            continue
        i0 = int(round((seg.start_s - t0) * fs))
        i1 = int(round((seg.end_s - t0) * fs))
        r = stride_autocorr(rec.vertical_accel[i0:i1], fs, cfg)
        peak = verify_gait(r, fs, cfg)
        if peak is not None:
            out.append(Bout(seg.start_s, seg.end_s, seg.kind, slice(i0, i1), peak, r))
    return out

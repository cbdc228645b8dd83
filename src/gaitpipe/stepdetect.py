"""Adaptive wavelet-based detection of initial and final contacts."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import find_peaks

from .core import (
    AXIS_AP,
    AXIS_VERTICAL,
    DEFAULT_CONFIG,
    FC,
    IC,
    GaitEvent,
    InsufficientDataError,
    NoCadenceError,
    PipelineConfig,
    SIDE_LEFT,
    SIDE_RIGHT,
    SIDE_UNKNOWN,
    lowpass,
)
# importable from here because gaitbench wraps these bindings by name
from .segmentation import dominant_stride_peak, unbiased_autocorr  # noqa: F401

# relative prominence gate for extrema; scale-free so that amplitude
# scaling leaves detected indices unchanged
PROMINENCE_FRACTION = 0.1
# same-kind events are at least ceil(MIN_EVENT_SPACING_S * fs) samples apart
MIN_EVENT_SPACING_S = 0.25
# 50% tolerance on the estimated stride duration
MAX_STRIDE_FACTOR = 1.5
LATERALITY_LOWPASS_HZ = 2.0
LATERALITY_MIN_RAD_S = 0.05
OPPOSITE_SIDE = {SIDE_LEFT: SIDE_RIGHT, SIDE_RIGHT: SIDE_LEFT,
                 SIDE_UNKNOWN: SIDE_UNKNOWN}
AXIS_COLUMN = {AXIS_VERTICAL: 0, AXIS_AP: 1}


@dataclass(frozen=True)
class WaveletParams:
    scale: float            # CWT scale in samples
    axis: str               # AXIS_VERTICAL or AXIS_AP
    sign: int               # -1: ICs are minima of s1; +1: maxima


def estimate_stride_duration(peak: tuple[float, float] | None) -> float:
    """Stride duration in seconds from the (lag_s, coefficient) stride
    peak that segmentation.verify_gait found in the vertical
    acceleration; None, no verified peak, raises NoCadenceError."""
    if peak is None:
        raise NoCadenceError("no dominant stride peak in the lag band")
    return peak[0]


def gaus1_kernel(scale: float) -> np.ndarray:
    """First-derivative-of-Gaussian analyzing function at the given scale
    (in samples), oriented so that convolution differentiates."""
    half = int(np.ceil(6.0 * scale))
    x = np.arange(-half, half + 1) / scale
    return -x * np.exp(-0.5 * x * x) / (scale * np.sqrt(2.0 * np.pi))


def cwt_differentiate(signal: np.ndarray, scale: float) -> np.ndarray:
    """Smoothed derivative: convolution with the gaus1 kernel."""
    return np.convolve(signal, gaus1_kernel(scale), mode="same")


def scale_for_step_frequency(stride_s: float, fs: float) -> float:
    """CWT scale whose gaus1 center frequency matches the step frequency.

    The kernel's magnitude response peaks at f = fs / (2*pi*scale), so
    matching 2/stride_s gives scale = fs*stride_s / (4*pi).
    """
    return fs * stride_s / (4.0 * np.pi)


def _integrate_detrended(axis_signal: np.ndarray, fs: float) -> np.ndarray:
    detr = axis_signal - axis_signal.mean()
    return np.concatenate([[0.0], np.cumsum((detr[1:] + detr[:-1]) / 2.0)]) / fs


def _smoothed_derivative(axis_signal: np.ndarray, scale: float, fs: float) -> np.ndarray:
    return cwt_differentiate(_integrate_detrended(axis_signal, fs), scale)


def estimate_wavelet_params(accel_anatomical: np.ndarray, fs: float,
                            stride_s: float, vertical_autocorr: np.ndarray,
                            ap_autocorr: np.ndarray,
                            cfg: PipelineConfig = DEFAULT_CONFIG) -> WaveletParams:
    """Wavelet axis, scale and sign of a bout: each one that cfg sets
    (wavelet_axis, wavelet_scale, wavelet_sign) is used as it is, and
    the others are estimated from the bout's acceleration.

    The axis is the one more correlated at the step lag, read from the
    vertical and AP stride_autocorr arrays of the same samples. The sign
    is estimated on the axis and at the scale that are used.
    """
    axis = cfg.wavelet_axis
    if axis is None:
        step_lag = int(round(stride_s / 2.0 * fs))
        r_vert, r_ap = (float(r[step_lag]) if 0 < step_lag < len(r) else 0.0
                        for r in (vertical_autocorr, ap_autocorr))
        axis = AXIS_VERTICAL if r_vert >= r_ap else AXIS_AP
    scale = cfg.wavelet_scale
    if scale is None:
        scale = scale_for_step_frequency(stride_s, fs)
    sign = cfg.wavelet_sign
    if sign is None:
        sign = _estimate_sign(accel_anatomical[:, AXIS_COLUMN[axis]], scale, fs)
    return WaveletParams(scale=scale, axis=axis, sign=sign)


def _estimate_sign(axis_signal: np.ndarray, scale: float, fs: float) -> int:
    """Event polarity from the asymmetry of the smoothed derivative.

    Contact transients make the extrema on the contact side of the cycle
    systematically stronger, so compare the mean magnitude of the
    prominence-gated minima against that of the maxima.
    """
    s1 = _smoothed_derivative(axis_signal, scale, fs)
    prom = PROMINENCE_FRACTION * np.max(np.abs(s1))
    if prom <= 0:
        return -1
    maxima, _ = find_peaks(s1, prominence=prom)
    minima, _ = find_peaks(-s1, prominence=prom)
    if len(minima) == 0:
        return 1
    if len(maxima) == 0:
        return -1
    mean_min = float(np.mean(np.abs(s1[minima])))
    mean_max = float(np.mean(np.abs(s1[maxima])))
    return -1 if mean_min >= mean_max else 1


def detect_events(accel_anatomical: np.ndarray, fs: float,
                  params: WaveletParams, t0: float = 0.0) -> list[GaitEvent]:
    """ICs from the smoothed derivative of the integrated axis signal,
    FCs from a second wavelet differentiation of that signal. Events of
    one kind are at least ceil(MIN_EVENT_SPACING_S * fs) samples apart;
    of two closer extrema the larger is kept."""
    x = accel_anatomical[:, AXIS_COLUMN[params.axis]]
    support = 2 * int(np.ceil(6.0 * params.scale)) + 1
    if len(x) < 2 * support:
        raise InsufficientDataError("bout shorter than two wavelet supports")
    s1 = _smoothed_derivative(x, params.scale, fs)
    s2 = cwt_differentiate(s1, params.scale)

    dist = math.ceil(MIN_EVENT_SPACING_S * fs)
    ic_signal, fc_signal = (-s1, s2) if params.sign < 0 else (s1, -s2)
    events = []
    for kind, signal in ((IC, ic_signal), (FC, fc_signal)):
        # the height gate rejects near-zero bumps that borrow prominence
        # from convolution edge transients
        prom = PROMINENCE_FRACTION * np.max(np.abs(signal))
        if prom > 0:
            idx, _ = find_peaks(signal, prominence=prom, height=prom, distance=dist)
            # Python ints, so the events carry float times
            events += [GaitEvent(time_s=t0 + i / fs, kind=kind) for i in idx.tolist()]
    events.sort(key=lambda e: (e.time_s, e.kind))
    return events


def assign_laterality(events: list[GaitEvent], gyro_anatomical: np.ndarray,
                      fs: float, t0: float = 0.0) -> list[GaitEvent]:
    """IC side from the sign of the low-pass filtered vertical angular
    velocity; each FC inherits the opposite side of its preceding IC.
    The events are in time order, as detect_events and quality_check
    return them."""
    yaw = gyro_anatomical[:, 0]
    if len(yaw) > 15 and LATERALITY_LOWPASS_HZ < fs / 2.0:
        yaw = lowpass(yaw, LATERALITY_LOWPASS_HZ, fs)

    out = []
    last_ic_side = SIDE_UNKNOWN
    for ev in events:
        if ev.kind == IC:
            i = int(round((ev.time_s - t0) * fs))
            i = min(max(i, 0), len(yaw) - 1)
            if abs(yaw[i]) < LATERALITY_MIN_RAD_S:
                side = SIDE_UNKNOWN
            elif yaw[i] > 0:
                side = SIDE_LEFT
            else:
                side = SIDE_RIGHT
            last_ic_side = side
        else:
            side = OPPOSITE_SIDE[last_ic_side]
        out.append(GaitEvent(time_s=ev.time_s, kind=ev.kind, side=side))
    return out


def quality_check(events: list[GaitEvent], stride_s: float) -> list[GaitEvent]:
    """Remove implausible events from time-ordered ones.

    Isolated ICs with no neighbor within the maximum stride duration
    (MAX_STRIDE_FACTOR * stride_s) are dropped; FCs must fall within 25%
    of the maximum stride duration after the preceding IC.
    """
    max_stride = MAX_STRIDE_FACTOR * stride_s
    fc_window = 0.25 * max_stride
    ics = [e for e in events if e.kind == IC]
    fcs = [e for e in events if e.kind == FC]

    # drop orphan ICs: no neighboring IC within the maximum stride duration
    if len(ics) > 1:
        kept_ics = []
        for i, ev in enumerate(ics):
            prev_ok = i > 0 and ev.time_s - ics[i - 1].time_s <= max_stride
            next_ok = i < len(ics) - 1 and ics[i + 1].time_s - ev.time_s <= max_stride
            if prev_ok or next_ok:
                kept_ics.append(ev)
        ics = kept_ics

    # the last IC at or before each FC
    ic_times = np.array([e.time_s for e in ics])
    last_ic = np.searchsorted(ic_times, [e.time_s for e in fcs], side="right")
    kept_fcs = [ev for ev, k in zip(fcs, last_ic)
                if k and ev.time_s - ic_times[k - 1] <= fc_window]

    return sorted(ics + kept_fcs, key=lambda e: (e.time_s, e.kind))

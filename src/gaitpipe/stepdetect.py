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
    InsufficientDataError,
    LOWPASS_MIN_SAMPLES,
    NoCadenceError,
    PipelineConfig,
    SIDE_LEFT,
    SIDE_RIGHT,
    SIDE_UNKNOWN,
    event_table,
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
# an FC falls within this fraction of the maximum stride after its IC
FC_WINDOW_FRACTION = 0.25
LATERALITY_LOWPASS_HZ = 2.0
LATERALITY_MIN_RAD_S = 0.05
# the side of each sign of the vertical rate: -1 right, 0 unknown, +1 left
SIDE_OF_SIGN = np.array([SIDE_RIGHT, SIDE_UNKNOWN, SIDE_LEFT])
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


def _smoothed_derivative(axis_signal: np.ndarray, scale: float, fs: float) -> np.ndarray:
    """The gaus1 derivative of the detrended, trapezoid-integrated signal."""
    detr = axis_signal - axis_signal.mean()
    integral = np.concatenate([[0.0], np.cumsum((detr[1:] + detr[:-1]) / 2.0)]) / fs
    return cwt_differentiate(integral, scale)


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
                  params: WaveletParams, t0: float = 0.0) -> np.recarray:
    """The event_table of a bout, ordered by time and then kind: ICs
    from the smoothed derivative of the integrated axis signal, FCs from
    a second wavelet differentiation of that signal, sides U. Events of
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
    idx, kinds = np.empty(0, dtype=int), np.empty(0, dtype="U2")
    for kind, signal in ((IC, ic_signal), (FC, fc_signal)):
        # the height gate rejects near-zero bumps that borrow prominence
        # from convolution edge transients
        prom = PROMINENCE_FRACTION * np.max(np.abs(signal))
        if prom > 0:
            peaks, _ = find_peaks(signal, prominence=prom, height=prom, distance=dist)
            idx, kinds = np.append(idx, peaks), np.append(kinds, np.full(len(peaks), kind))
    times = t0 + idx / fs
    order = np.lexsort((kinds, times))
    return event_table(times[order], kinds[order], SIDE_UNKNOWN)


def assign_laterality(events: np.recarray, gyro_anatomical: np.ndarray,
                      fs: float, t0: float = 0.0) -> np.recarray:
    """The events, ordered by time and then kind as detect_events and
    quality_check return them, with their sides: an IC's from the sign
    of the low-pass filtered vertical angular velocity at its sample, an
    FC's the opposite of the last IC before it (U before the first)."""
    yaw = gyro_anatomical[:, 0]
    if len(yaw) >= LOWPASS_MIN_SAMPLES and LATERALITY_LOWPASS_HZ < fs / 2.0:
        yaw = lowpass(yaw, LATERALITY_LOWPASS_HZ, fs)
    rate = yaw[np.clip(np.rint((events.time_s - t0) * fs), 0, len(yaw) - 1).astype(int)]
    sign = np.where(np.abs(rate) < LATERALITY_MIN_RAD_S, 0, np.sign(rate)).astype(int)
    is_ic = events.kind == IC
    last_ic = np.maximum.accumulate(np.where(is_ic, np.arange(len(events)), -1))
    # index -1, no IC yet, reads the appended 0
    sign = np.where(is_ic, sign, -np.append(sign, 0)[last_ic])
    return event_table(events.time_s, events.kind, SIDE_OF_SIGN[sign + 1])


def quality_check(events: np.recarray, stride_s: float) -> np.recarray:
    """The plausible ones of events ordered by time and then kind: each IC
    with another IC within the maximum stride (MAX_STRIDE_FACTOR *
    stride_s), or the only IC, and each FC within FC_WINDOW_FRACTION of
    the maximum stride after the last kept IC at or before it."""
    max_stride = MAX_STRIDE_FACTOR * stride_s
    t = events.time_s
    is_ic = events.kind == IC
    near = np.diff(t[is_ic]) <= max_stride
    keep = is_ic.copy()
    if len(near):
        keep[is_ic] = np.append(False, near) | np.append(near, False)
    # each event's last kept IC at or before it, -inf before the first
    kept_ic_t = np.append(-np.inf, t[keep])
    last_ic_t = kept_ic_t[np.searchsorted(kept_ic_t, t, side="right") - 1]
    keep |= ~is_ic & (t - last_ic_t <= FC_WINDOW_FRACTION * max_stride)
    return events[keep]

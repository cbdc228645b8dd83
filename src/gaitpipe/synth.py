"""Synthetic IMU walking signals with exact ground-truth events.

The vertical waveform is a step-frequency sine with a second harmonic
and per-step amplitude alternation. The harmonic makes the smoothed
derivative's minima sharper than its maxima (fixing the wavelet sign at
-1) without moving the extrema off their nominal phases, and the
alternation gives the autocorrelation a dominant peak at the stride lag.
Heading rotation during scripted turns is applied to the gyroscope only.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .core import (
    GRAVITY,
    DEFAULT_CONFIG,
    Config,
    ConfigurationError,
    FC,
    IC,
    ImuRecording,
    SIDE_LEFT,
    SIDE_RIGHT,
    check_field_types,
    event_table,
    finite_real,
    json_keys,
    quat_to_matrix,
)
from .segmentation import TurnInterval, flag_runs, label_runs, refine_with_turns
from .stepdetect import FC_WINDOW_FRACTION, MAX_STRIDE_FACTOR

SECOND_HARMONIC = 0.2
STEP_MODULATION = 0.3


@dataclass
class Phase:
    kind: str                 # "walk" | "rest" | "turn"
    duration_s: float
    angle_deg: float = 0.0    # turns only


@contextmanager
def _phase_errors(i: int):
    """Prefix the ConfigurationError of script phase i with its index."""
    try:
        yield
    except ConfigurationError as exc:
        raise ConfigurationError(f"script phase {i}: {exc}") from None


@dataclass(frozen=True)
class SynthConfig(Config):
    duration_s: float = 60.0
    sample_rate_hz: float = 50.0
    stride_s: float = 1.2
    ic_phase: float = 0.375        # fraction of stride at which the first IC falls
    fc_phase: float = 0.12         # fraction of stride from IC to FC
    vertical_amp: float = 2.0      # m/s^2
    ap_amp: float = 1.0            # m/s^2
    yaw_amp: float = 0.2           # rad/s
    noise_sigma: float = 0.0       # m/s^2
    sensor_rotation: np.ndarray = field(
        default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0]))
    script: list[Phase] | None = None
    seed: int = 0

    def validate(self) -> None:
        q = self.sensor_rotation
        q = q.tolist() if isinstance(q, np.ndarray) else q
        # the squared norm as generate() takes it, which must not be 0 or overflow
        if not (isinstance(q, (list, tuple)) and len(q) == 4 and all(map(finite_real, q))
                and 0 < sum(float(v) * float(v) for v in q) < np.inf):
            raise ConfigurationError(
                "sensor_rotation must be 4 finite values with a finite, non-zero norm")
        low, high = DEFAULT_CONFIG.stride_lag_min_s, DEFAULT_CONFIG.stride_lag_max_s
        if not low <= self.stride_s <= high:
            raise ConfigurationError(f"stride_s outside [{low:g}, {high:g}] s")
        if not 0.0 < self.fc_phase < FC_WINDOW_FRACTION * MAX_STRIDE_FACTOR:
            raise ConfigurationError("fc_phase outside the FC window of quality_check")
        samples = self.duration_s * self.sample_rate_hz   # generate() makes round(samples)
        if self.sample_rate_hz <= 0 or not 0.5 < samples <= 2 ** 31 + 0.5:
            raise ConfigurationError("sample_rate_hz must be positive and duration_s * "
                                     "sample_rate_hz must round to 1 to 2**31 samples")
        if self.noise_sigma < 0 or self.seed < 0:
            raise ConfigurationError("noise_sigma and seed must not be negative, got "
                                     f"{self.noise_sigma} and {self.seed}")
        if self.script is not None:
            if not isinstance(self.script, list):
                raise ConfigurationError("script must be a list of phases")
            for i, p in enumerate(self.script):
                with _phase_errors(i):
                    if not isinstance(p, Phase):
                        raise ConfigurationError(f"must be a Phase, got {type(p).__name__}")
                    check_field_types(p)
                    if p.kind not in ("walk", "rest", "turn"):
                        raise ConfigurationError(f"unknown phase kind {p.kind!r}")
                    if p.duration_s <= 0:
                        raise ConfigurationError("phase durations must be positive")
            total = sum(p.duration_s for p in self.script)
            if abs(total - self.duration_s) > 1e-6:
                raise ConfigurationError(
                    f"script phases ({total} s) do not tile duration_s "
                    f"({self.duration_s} s)")

    @classmethod
    def from_json(cls, doc) -> "SynthConfig":
        """A SynthConfig from a JSON object; each script phase is an object
        of Phase's keys and needs a kind and a duration_s."""
        doc = json_keys(cls, doc)
        if isinstance(doc.get("script"), list):
            script = []
            for i, p in enumerate(doc["script"]):
                with _phase_errors(i):
                    if not {"kind", "duration_s"} <= json_keys(Phase, p).keys():
                        raise ConfigurationError("needs a kind and a duration_s")
                    script.append(Phase(**p))
            doc = dict(doc, script=script)
        return cls(**doc)


def generate(cfg: SynthConfig):
    """Build (recording, true_events, true_segments, true_turns); the
    true events are an event table (see core.event_table)."""
    fs = cfg.sample_rate_hz
    stride = cfg.stride_s
    step = stride / 2.0
    n = int(round(cfg.duration_s * fs))
    t = np.arange(n) / fs
    rng = np.random.default_rng(cfg.seed)

    phases = cfg.script or [Phase("walk", cfg.duration_s)]
    starts = np.concatenate([[0.0], np.cumsum([p.duration_s for p in phases])])

    # waveform phase chosen so ICs land exactly on the minima of the
    # step-frequency component
    phi0 = 1.5 * np.pi - 4.0 * np.pi * cfg.ic_phase
    theta = 2.0 * np.pi * t / step + phi0
    sine, harmonic = np.sin(theta), np.cos(2.0 * theta)
    # amplitude alternation switches at the mid-step maxima so that the
    # minima keep a clean per-step amplitude
    kmod = np.floor(t / step + 0.5 - 2.0 * cfg.ic_phase).astype(int)
    amp = cfg.vertical_amp * (1.0 + STEP_MODULATION * (-1.0) ** (kmod % 2))
    vert_walk = amp * sine + SECOND_HARMONIC * cfg.vertical_amp * harmonic
    # same asymmetric harmonic as the vertical channel so polarity stays
    # recoverable whichever axis the detector settles on
    ap_walk = cfg.ap_amp * (sine + SECOND_HARMONIC * harmonic)
    del theta, sine, harmonic, kmod, amp
    yaw_walk = cfg.yaw_amp * np.sin(2.0 * np.pi * t / stride
                                    + np.pi / 2.0 - 2.0 * np.pi * cfg.ic_phase)

    accel_frame = np.zeros((n, 3))      # device x=AP, y=ML, z=up
    accel_frame[:, 2] = GRAVITY
    gyro_frame = np.zeros((n, 3))

    turns: list[TurnInterval] = []
    for phase, a, b in zip(phases, starts[:-1], starts[1:]):
        if phase.kind == "rest":
            continue
        i0, i1 = int(round(a * fs)), min(int(round(b * fs)), n)
        accel_frame[i0:i1, 2] = GRAVITY + vert_walk[i0:i1]
        accel_frame[i0:i1, 0] = ap_walk[i0:i1]
        gyro_frame[i0:i1, 2] = yaw_walk[i0:i1]
        if phase.kind == "turn":
            rate = np.radians(phase.angle_deg) / phase.duration_s
            gyro_frame[i0:i1, 2] += rate
            turns.append(TurnInterval(start_s=a, end_s=b, angle_deg=phase.angle_deg))
    del vert_walk, ap_walk, yaw_walk

    if cfg.noise_sigma > 0:
        accel_frame += rng.normal(0.0, cfg.noise_sigma, accel_frame.shape)
    q = np.asarray(cfg.sensor_rotation, dtype=float)
    norm = np.linalg.norm(q)
    # a quaternion that is unit to within rounding keeps its exact bits
    rot = quat_to_matrix(q if abs(norm - 1.0) <= 4 * np.finfo(float).eps else q / norm)
    accel = accel_frame @ rot.T
    del accel_frame
    gyro = gyro_frame @ rot.T

    rec = ImuRecording(t=t, accel=accel, gyro=gyro, sample_rate=fs,
                       device_id="synth", session_id=f"seed{cfg.seed}")
    # one run per stretch of moving (walk or turn) or of rest phases,
    # labelled as segment() labels detected runs
    runs = [(starts[i], starts[j], moving)
            for i, j, moving in flag_runs([p.kind != "rest" for p in phases])]
    segments = label_runs(runs, 0.0, cfg.duration_s, DEFAULT_CONFIG)
    # walk runs split at sharp turns; non-sharp turns stay inside
    return rec, _true_events(cfg, phases, starts), refine_with_turns(segments, turns), turns


def _true_events(cfg: SynthConfig, phases: list[Phase], starts: np.ndarray) -> np.recarray:
    """The event table of the ICs and FCs in the plain walk phases,
    ordered by time and then kind. The ICs of the phase from a to b are
    the steps k at (ic_phase + k/2) * stride in [a, b), on the left for
    even k; each IC's FC, on the other side, follows fc_phase strides
    later if that is before b."""
    stride = cfg.stride_s
    steps, tic, end = [np.zeros(0, int)], [np.zeros(0)], [np.zeros(0)]
    for phase, a, b in zip(phases, starts[:-1], starts[1:]):
        if phase.kind == "walk":
            # from the first step at or after a to the first at or after b
            k = np.arange(int(np.ceil((a / stride - cfg.ic_phase) * 2.0)),
                          int(np.ceil((b / stride - cfg.ic_phase) * 2.0)) + 1)
            t = (cfg.ic_phase + k / 2.0) * stride
            inside = (a <= t) & (t < b)
            steps.append(k[inside])
            tic.append(t[inside])
            end.append(np.full(inside.sum(), b))
    steps, tic, end = map(np.concatenate, (steps, tic, end))
    tfc = tic + cfg.fc_phase * stride
    has_fc = tfc < end
    left = steps % 2 == 0
    times = np.concatenate([tic, tfc[has_fc]])
    kinds = np.repeat([IC, FC], [len(tic), has_fc.sum()])
    sides = np.concatenate([np.where(left, SIDE_LEFT, SIDE_RIGHT),
                            np.where(left[has_fc], SIDE_RIGHT, SIDE_LEFT)])
    order = np.lexsort((kinds, times))
    return event_table(times[order], kinds[order], sides[order])

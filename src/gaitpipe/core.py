"""Shared domain types, error classes, the config types, quaternion
helpers and the zero-phase low-pass filter."""
from __future__ import annotations

import json
import math
import numbers
import os
import secrets
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np
from scipy.signal import butter, filtfilt


class GaitPipeError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GaitPipeError):
    """Malformed input file (carries a line number where applicable)."""


class ContractError(GaitPipeError):
    """A documented precondition or invariant was violated."""


class InsufficientDataError(GaitPipeError):
    """Input too short for the requested operation."""


class ConfigurationError(GaitPipeError):
    """A configuration value is outside its valid range."""


class AmbiguousDirectionError(GaitPipeError):
    """Horizontal acceleration has no dominant direction (degenerate PCA)."""


class NoCadenceError(GaitPipeError):
    """No dominant autocorrelation peak in the physiological stride band."""


class EmptySetError(GaitPipeError):
    """A statistic was requested on an empty collection."""


class DiagnosticsError(GaitPipeError):
    """MCMC sampling failed its health checks."""


# ---------------------------------------------------------------------------
# Configuration

GRAVITY = 9.81
AXIS_VERTICAL = "vertical"
AXIS_AP = "antero_posterior"


def finite_real(v) -> bool:
    """Whether v is a real number, not a bool, that converts to a finite float."""
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:               # an int beyond the float range
        return False


# the most of a bad value or header that a ParseError echoes
ECHO_CHARS = 80


def echo(value) -> str:
    """repr(value) cut to ECHO_CHARS, so a huge field gives a short message."""
    shown = repr(value)
    return shown if len(shown) <= ECHO_CHARS else shown[:ECHO_CHARS - 3] + "..."


def finite_number(value, where, name) -> float:
    """The one rule for a number read from a file: CSV text must parse with ``float``
    to a finite value, and a JSON value pass finite_real; anything else raises
    ParseError ``<where>: <name> must be a finite number, got <echo(value)>``."""
    try:
        number = float(value) if isinstance(value, str) or finite_real(value) else math.nan
    except ValueError:                  # text that is no number
        number = math.nan
    if not math.isfinite(number):
        raise ParseError(f"{where}: {name} must be a finite number, got {echo(value)}")
    return number


def integer(text: str, where, name) -> int:
    """The one rule for an integer read from a CSV field: the text must parse
    with ``int``; anything else raises ParseError ``<where>: <name> must be an
    integer, got <echo(text)>``."""
    try:
        return int(text)
    except ValueError:                  # no integer, or past int's digit limit
        raise ParseError(f"{where}: {name} must be an integer, got {echo(text)}") from None


def read_json(path, error=ParseError):
    """The JSON document in the file at path; ``error`` names a file of no UTF-8 JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # no UTF-8, no JSON, or nested too deep
        raise error(f"{path}: {exc}") from None


@contextmanager
def open_atomic(path):
    """The one writer of output files: a UTF-8 text file, with no newline
    translation, in path's directory that is renamed over path when the
    with block ends. A block that raises leaves path as it was and no
    temp file behind. The file gets the mode that open() would give it
    (0o666 less the umask)."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# what each name in a field annotation admits, and how a message says it
FIELD_TYPES = {
    "float": ("a finite number", finite_real),
    "int": ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "None": ("null", lambda v: v is None),
}


def check_field_types(obj) -> None:
    """Raise ConfigurationError for the first field of the dataclass obj whose
    annotation (``float``, ``int | None``, ...) does not admit its value; a
    name not in FIELD_TYPES admits anything but None."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        rules = [FIELD_TYPES.get(name, ("non-null", lambda v: v is not None))
                 for name in f.type.split(" | ")]
        if not any(admits(value) for _, admits in rules):
            kinds = " or ".join(kind for kind, _ in rules)
            raise ConfigurationError(f"{f.name} must be {kinds}, got {value!r}")


def json_keys(cls, doc) -> dict:
    """doc, if it is a JSON object whose keys all name fields of the dataclass cls."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"a {cls.__name__} must be an object, got {type(doc).__name__}")
    if unknown := set(doc) - {f.name for f in fields(cls)}:
        raise ConfigurationError(f"unknown {cls.__name__} keys: {sorted(unknown, key=str)}")
    return doc


class Config:
    """Base of the config dataclasses, each checked when it is built: the
    type of every field (check_field_types), then the ranges of the
    subclass's validate()."""

    def __post_init__(self):
        check_field_types(self)
        self.validate()

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, doc):
        return cls(**json_keys(cls, doc))

    @classmethod
    def load(cls, path):
        return cls.from_json(read_json(path, ConfigurationError))


@dataclass(frozen=True)
class PipelineConfig(Config):
    """Every tunable constant of the pipeline, flat for easy serialization."""

    window_s: float = 0.6
    accel_ref: float = GRAVITY
    accel_tol: float = 0.10
    gyro_thresh: float = 0.6          # rad/s, valid 0.2-0.6
    std_thresh: float = 0.2           # m/s^2, valid 0.05-0.4
    merge_gap_s: float = 1.0
    rest_split_s: float = 2.0
    min_bout_s: float = 2.0
    boundary_margin_s: float = 2.0
    sharp_turn_deg: float = 90.0
    # turn detection (El-Gohary style)
    turn_lowpass_hz: float = 1.5
    turn_start_dps: float = 15.0
    turn_stop_dps: float = 5.0
    turn_merge_s: float = 0.05
    # gait verification
    stride_lag_min_s: float = 0.4
    stride_lag_max_s: float = 2.25
    autocorr_peak_min: float = 0.3
    resample_hz: float | None = None
    lowpass_cutoff_hz: float = 17.0
    madgwick_beta: float = 0.041
    # optional overrides for the adaptive wavelet parameter estimation
    wavelet_scale: float | None = None
    wavelet_axis: str | None = None
    wavelet_sign: int | None = None

    POSITIVE = ("window_s accel_ref accel_tol gyro_thresh std_thresh merge_gap_s "
                "rest_split_s min_bout_s boundary_margin_s sharp_turn_deg turn_lowpass_hz "
                "lowpass_cutoff_hz madgwick_beta wavelet_scale").split()
    # covers phone IMU rates; detection was checked at 25-200 Hz
    RESAMPLE_HZ_RANGE = (10.0, 1000.0)

    def validate(self) -> None:
        for name in self.POSITIVE:
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        low, high = self.RESAMPLE_HZ_RANGE
        if self.resample_hz is not None and not low <= self.resample_hz <= high:
            raise ConfigurationError(f"resample_hz must be null or in [{low:g}, {high:g}] Hz, "
                                     f"got {self.resample_hz}")
        if not 0 <= self.turn_stop_dps <= self.turn_start_dps:
            raise ConfigurationError(
                "turn rates need 0 <= turn_stop_dps <= turn_start_dps")
        if self.turn_merge_s < 0:
            raise ConfigurationError("turn_merge_s must not be negative")
        if not 0.2 <= self.gyro_thresh <= 0.6:
            raise ConfigurationError("gyro_thresh outside valid range [0.2, 0.6] rad/s")
        if not 0.05 <= self.std_thresh <= 0.4:
            raise ConfigurationError("std_thresh outside valid range [0.05, 0.4] m/s^2")
        if not 0 < self.stride_lag_min_s < self.stride_lag_max_s:
            raise ConfigurationError(
                "stride lag band needs 0 < stride_lag_min_s < stride_lag_max_s")
        if self.wavelet_axis not in (None, AXIS_VERTICAL, AXIS_AP):
            raise ConfigurationError("wavelet_axis must be vertical or antero_posterior")
        if self.wavelet_sign not in (None, -1, 1):
            raise ConfigurationError("wavelet_sign must be -1 or 1")


DEFAULT_CONFIG = PipelineConfig()


# ---------------------------------------------------------------------------
# Recordings

@dataclass
class ImuRecording:
    """Time-stamped triaxial accelerometer + gyroscope streams.

    ``t`` is in seconds and strictly increasing, ``accel`` in m/s^2,
    ``gyro`` in rad/s; both are (N, 3). ``sample_rate`` is set once the
    recording lives on a uniform grid.
    """

    t: np.ndarray
    accel: np.ndarray
    gyro: np.ndarray
    sample_rate: float | None = None
    device_id: str = ""
    session_id: str = ""

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.accel = np.asarray(self.accel, dtype=float)
        self.gyro = np.asarray(self.gyro, dtype=float)

    def validate(self) -> None:
        n = len(self.t)
        if self.accel.shape != (n, 3) or self.gyro.shape != (n, 3):
            raise ContractError("accel/gyro sample counts must match timestamps")
        if n >= 2 and not np.all(np.diff(self.t) > 0):
            raise ContractError("timestamps must be strictly increasing")
        if not (np.all(np.isfinite(self.accel)) and np.all(np.isfinite(self.gyro))
                and np.all(np.isfinite(self.t))):
            raise ContractError("non-finite sample values")
        if self.sample_rate is not None and n >= 2:
            dt = np.diff(self.t)
            if np.max(np.abs(dt - 1.0 / self.sample_rate)) > 1e-9:
                raise ContractError("timestamps do not match the declared sample rate")

    @property
    def duration_s(self) -> float:
        return float(self.t[-1] - self.t[0]) if len(self.t) else 0.0


@dataclass
class GravityAlignedRecording:
    """Recording rotated into the gravity frame.

    Axis order of ``accel``/``gyro`` columns is (vertical-up, horizontal-1,
    horizontal-2).
    """

    t: np.ndarray
    accel: np.ndarray
    gyro: np.ndarray
    sample_rate: float

    @property
    def vertical_accel(self) -> np.ndarray:
        return self.accel[:, 0]

    @property
    def vertical_gyro(self) -> np.ndarray:
        return self.gyro[:, 0]


# ---------------------------------------------------------------------------
# Segments and events

class SegmentKind:
    GAIT_BOUT = "GaitBout"
    SHORT_REST = "ShortRest"
    LONG_REST = "LongRest"
    BOUNDARY = "Boundary"
    UNKNOWN = "Unknown"
    SHARP_TURN = "SharpTurn"


@dataclass
class Segment:
    start_s: float
    end_s: float
    kind: str

    def __post_init__(self):
        if not self.start_s < self.end_s:
            raise ContractError("segment start must precede end")

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_json(self) -> dict:
        return {"start_s": self.start_s, "end_s": self.end_s, "kind": self.kind}


IC = "IC"
FC = "FC"
SIDE_LEFT = "L"
SIDE_RIGHT = "R"
SIDE_UNKNOWN = "U"


@dataclass
class GaitEvent:
    time_s: float
    kind: str
    side: str = SIDE_UNKNOWN

    def to_json(self) -> dict:
        return {"time_s": self.time_s, "kind": self.kind, "side": self.side}


EVENT_KINDS = (IC, FC)
EVENT_SIDES = (SIDE_LEFT, SIDE_RIGHT, SIDE_UNKNOWN)
EVENT_DTYPE = np.dtype([("time_s", float), ("kind", "U2"), ("side", "U1")])


def event_table(times, kinds, sides) -> np.recarray:
    """The one event list inside gaitpipe: a record array of EVENT_DTYPE,
    whose records read ``.time_s``, ``.kind`` and ``.side`` like a
    GaitEvent. Valid values only: the U2 and U1 fields cut a longer string."""
    table = np.recarray(len(times), dtype=EVENT_DTYPE)
    table.time_s, table.kind, table.side = times, kinds, sides
    return table


def gait_events(table: np.recarray) -> list[GaitEvent]:
    """The public results' GaitEvents: Python floats, interned kind and side strs."""
    return list(map(GaitEvent, table.time_s.tolist(), map(sys.intern, table.kind.tolist()),
                    map(sys.intern, table.side.tolist())))


def event_columns(times: list, kinds: list, sides: list, where) -> np.recarray:
    """The event_table of a list of events, with each time read by
    ``finite_number``.

    Every time must be a finite number, every kind in EVENT_KINDS and
    every side in EVENT_SIDES. Each check runs once over its whole
    column; only when one fails are the events walked in order, and the
    first bad one raises ParseError, named by ``where(i)`` (its index or
    its line).
    """
    try:
        floats = list(map(float, times))
        # float takes a bool, finite_number does not
        if (bool not in set(map(type, times)) and all(map(math.isfinite, floats))
                and set(kinds) <= set(EVENT_KINDS) and set(sides) <= set(EVENT_SIDES)):
            return event_table(floats, kinds, sides)
    except (TypeError, ValueError, OverflowError):  # no number; an unhashable kind
        pass
    for i, (t, kind, side) in enumerate(zip(times, kinds, sides)):
        finite_number(t, where(i), "time_s")
        if kind not in EVENT_KINDS:
            raise ParseError(f"{where(i)}: kind must be IC or FC, got {echo(kind)}")
        if side not in EVENT_SIDES:
            raise ParseError(f"{where(i)}: side must be L, R, or U, got {echo(side)}")
    raise ContractError("an event column failed its check but no event did")


# ---------------------------------------------------------------------------
# Quaternions (w, x, y, z), unit norm

def quat_normalize(q: np.ndarray) -> np.ndarray:
    return np.asarray(q, dtype=float) / np.linalg.norm(q)


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrices R such that R @ v rotates v by q: (..., 4)
    quaternions give (..., 3, 3) matrices."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    R = np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ]).reshape((3, 3) + np.shape(w))
    return np.moveaxis(R, (0, 1), (-2, -1))


def quat_from_two_vectors(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimal rotation taking direction a onto direction b."""
    a = np.asarray(a, dtype=float) / np.linalg.norm(a)
    b = np.asarray(b, dtype=float) / np.linalg.norm(b)
    c = float(np.dot(a, b))
    if c < -1.0 + 1e-12:
        # antiparallel: rotate 180 deg about any axis orthogonal to a
        axis = np.cross(a, [1.0, 0.0, 0.0])
        if np.linalg.norm(axis) < 1e-8:
            axis = np.cross(a, [0.0, 1.0, 0.0])
        axis /= np.linalg.norm(axis)
        return np.array([0.0, *axis])
    axis = np.cross(a, b)
    q = np.array([1.0 + c, *axis])
    return quat_normalize(q)


def random_unit_quat(rng: np.random.Generator) -> np.ndarray:
    q = rng.normal(size=4)
    return quat_normalize(q)


# ---------------------------------------------------------------------------
# Filtering

LOWPASS_MIN_SAMPLES = 10    # the order-2 filtfilt of lowpass pads each edge with 9 samples


def lowpass(x: np.ndarray, cutoff_hz: float, fs: float,
            padtype: str = "odd") -> np.ndarray:
    """Zero-phase second-order Butterworth low-pass along axis 0.

    filtfilt pads each edge with 9 samples (``padtype`` "odd" or "even"
    extension), so x needs at least LOWPASS_MIN_SAMPLES samples;
    cutoff_hz must be below the Nyquist frequency fs / 2.
    """
    b, a = butter(2, cutoff_hz, fs=fs)
    return filtfilt(b, a, x, axis=0, padtype=padtype)

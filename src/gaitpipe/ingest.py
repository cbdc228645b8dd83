"""Loading, resampling, and low-pass filtering of raw IMU recordings.

CSV contract: header ``t,ax,ay,az,gx,gy,gz``; t in seconds, accel in
m/s^2, gyro in rad/s. Reference events: header ``t,kind,side`` with kind
in {IC, FC} and side in {L, R, U}.
"""
from __future__ import annotations

import array
import csv
import dataclasses
import io
import warnings
from pathlib import Path

import numpy as np

from .core import (
    ConfigurationError,
    ContractError,
    DEFAULT_CONFIG,
    ImuRecording,
    InsufficientDataError,
    LOWPASS_MIN_SAMPLES,
    ParseError,
    PipelineConfig,
    echo,
    event_columns,
    finite_number,
    lowpass,
    open_atomic,
)

RECORDING_HEADER = ["t", "ax", "ay", "az", "gx", "gy", "gz"]
EVENTS_HEADER = ["t", "kind", "side"]
WRITE_BLOCK_ROWS = 8192
# grid samples per row read: a gap-free recording resampled from 10 to 1000 Hz
MAX_GRID_FACTOR = PipelineConfig.RESAMPLE_HZ_RANGE[1] / PipelineConfig.RESAMPLE_HZ_RANGE[0]


def _open_text(source):
    # surrogateescape: a byte of no UTF-8 fails every field rule, which names its line
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", errors="surrogateescape", newline="")
    if isinstance(source, bytes):
        # newline="" as for a path: csv.reader sees \r, \n and \r\n line ends
        return io.StringIO(source.decode("utf-8", "surrogateescape"), newline="")
    return source


def csv_rows(source, header: list[str]):
    """Yield ``(lineno, fields)`` for every non-empty data row of a CSV.

    ``source`` is a path, raw bytes or an open text stream (left open).
    The first line must equal ``header`` up to whitespace, and every row
    must have as many fields; violations raise ParseError with the line
    number.
    """
    fh = _open_text(source)
    reader = csv.reader(fh)
    try:
        try:
            first = next(reader)
        except StopIteration:
            raise ParseError("empty file: missing header") from None
        if [h.strip() for h in first] != header:
            raise ParseError(f"bad header {echo(first)}, expected {header}")
        n = len(header)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n:
                raise ParseError(f"line {lineno}: expected {n} fields, got {len(row)}")
            yield lineno, row
    except csv.Error as exc:            # a field past csv's size limit
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    finally:
        if fh is not source:
            fh.close()


def _loadtxt_values(source) -> np.ndarray | None:
    """The (n, 7) data rows of a path or bytes source, parsed in C by
    ``np.loadtxt``, or None where that parse refuses the rows.

    The header is read by ``csv.reader``, as in ``csv_rows``. Where
    numpy accepts a number, ``float`` accepts it too and gives the same
    double. numpy refuses the rest (quotes, ``1_0``, a bad number, a
    whitespace-only line, a ``\\r`` line end, a ragged row), and any
    field count but 7 or any non-finite value is refused here; the
    caller then parses the source again with ``csv_rows``, so that a
    ParseError keeps its wording and line number.
    """
    with _open_text(source) as fh:
        try:
            first = next(csv.reader(fh), None)
            if first is None or [h.strip() for h in first] != RECORDING_HEADER:
                return None
            with warnings.catch_warnings():
                # a header-only file is refused below, without the warning
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except (ValueError, csv.Error):
            return None
    # numpy gives a header-only file shape (0, 1)
    return data if data.shape[1] == len(RECORDING_HEADER) and np.isfinite(data).all() else None


def _csv_values(source) -> np.ndarray:
    """The (n, 7) data rows of any source, parsed row by row."""
    # one flat buffer of doubles instead of a list per row: a 1 h
    # recording's rows as Python lists take several times its array size
    values = array.array("d")
    for lineno, row in csv_rows(source, RECORDING_HEADER):
        where = f"line {lineno}"
        values.extend([finite_number(v, where, name) for name, v in zip(RECORDING_HEADER, row)])
    return np.frombuffer(values, dtype=float).reshape(-1, 7)


def load_recording(source, device_id: str = "", session_id: str = "") -> ImuRecording:
    """Parse a recording CSV into an ImuRecording, preserving sample order.

    A path or bytes source is parsed by numpy's C reader when it can be,
    and otherwise reread row by row; an open stream, which cannot be
    reread, is always parsed row by row. Both give the same array.
    """
    data = None
    if isinstance(source, (str, Path, bytes)):
        data = _loadtxt_values(source)
    if data is None:
        data = _csv_values(source)
    rec = ImuRecording(t=data[:, 0], accel=data[:, 1:4], gyro=data[:, 4:7],
                       device_id=device_id, session_id=session_id)
    rec.validate()
    return rec


def write_recording(rec: ImuRecording, path) -> None:
    """Write a recording CSV through open_atomic; the bytes equal those of
    a ``csv.writer`` writing the ``repr`` of each value, rows ended by CRLF."""
    with open_atomic(path) as fh:
        fh.write(",".join(RECORDING_HEADER) + "\r\n")
        # row blocks bound the Python floats and the stacked copy alive at once
        for start in range(0, len(rec.t), WRITE_BLOCK_ROWS):
            rows = slice(start, start + WRITE_BLOCK_ROWS)
            block = np.column_stack((rec.t[rows], rec.accel[rows], rec.gyro[rows]))
            fh.writelines(",".join(map(repr, row)) + "\r\n" for row in block.tolist())


def load_reference_events(source) -> np.recarray:
    """Parse a reference event CSV (``t,kind,side``) into an event_table.

    Kinds and sides may be padded with spaces. The columns are checked
    by ``event_columns``; a ParseError names the first bad line, whether
    its fault is a field count or a value.
    """
    linenos, times, kinds, sides = [], [], [], []

    def line(i):
        return f"line {linenos[i]}"

    try:
        for lineno, (t_raw, kind, side) in csv_rows(source, EVENTS_HEADER):
            linenos.append(lineno)
            times.append(t_raw)
            kinds.append(kind.strip())
            sides.append(side.strip())
    except ParseError:
        # a bad value on an earlier line comes first
        event_columns(times, kinds, sides, line)
        raise
    return event_columns(times, kinds, sides, line)


def write_reference_events(table: np.recarray, path) -> None:
    """Write an event table (see core.event_table) as a reference event CSV
    (``t,kind,side``, each time as its ``repr``) through open_atomic."""
    with open_atomic(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENTS_HEADER)
        writer.writerows(zip(map(repr, table.time_s.tolist()), table.kind.tolist(),
                             table.side.tolist()))


def resample(rec: ImuRecording, target_rate: float) -> ImuRecording:
    """Linearly interpolate onto a uniform grid from first to last timestamp; a
    grid of more than MAX_GRID_FACTOR samples per row of rec raises ContractError."""
    if target_rate <= 0:
        raise ConfigurationError("target_rate must be positive")
    if len(rec.t) < 2:
        raise InsufficientDataError("resampling needs at least 2 samples")
    t0, t1 = rec.t[0], rec.t[-1]
    if float(t1 - t0) * target_rate + 1.0 > MAX_GRID_FACTOR * len(rec.t):
        raise ContractError(f"a {target_rate:g} Hz grid over {float(t1 - t0):g} s would hold more "
                            f"than {MAX_GRID_FACTOR:g} samples per row read ({len(rec.t)} rows)")
    n = int(np.floor((t1 - t0) * target_rate + 1e-9)) + 1
    grid = t0 + np.arange(n) / target_rate
    accel = np.column_stack([np.interp(grid, rec.t, rec.accel[:, k]) for k in range(3)])
    gyro = np.column_stack([np.interp(grid, rec.t, rec.gyro[:, k]) for k in range(3)])
    return dataclasses.replace(rec, t=grid, accel=accel, gyro=gyro,
                               sample_rate=float(target_rate))


def ensure_uniform(rec: ImuRecording, target_rate: float | None = None) -> ImuRecording:
    """Return a uniformly sampled recording, resampling when necessary;
    ``rec`` itself is never modified."""
    if target_rate is not None:
        return resample(rec, target_rate)
    if rec.sample_rate is not None:
        return rec
    dt = np.diff(rec.t)
    if not len(dt):
        raise InsufficientDataError("a uniform grid needs at least 2 samples")
    if np.max(np.abs(dt - dt[0])) <= 1e-9:
        return dataclasses.replace(rec, sample_rate=float(1.0 / dt[0]))
    return resample(rec, 1.0 / float(np.median(dt)))


def lowpass_accel(rec: ImuRecording,
                  cutoff: float = DEFAULT_CONFIG.lowpass_cutoff_hz) -> ImuRecording:
    """Zero-phase second-order Butterworth low-pass on the accelerometer.

    The gyroscope passes through unchanged. Edges are reflect-padded by
    filtfilt before the forward-backward pass, so at least
    LOWPASS_MIN_SAMPLES samples are needed.
    """
    if rec.sample_rate is None:
        raise ContractError("recording must be uniformly sampled before filtering")
    if len(rec.t) < LOWPASS_MIN_SAMPLES:
        raise InsufficientDataError(
            f"low-pass filtering needs at least {LOWPASS_MIN_SAMPLES} samples")
    nyq = rec.sample_rate / 2.0
    if cutoff >= nyq:
        raise ConfigurationError(f"cutoff {cutoff} Hz >= Nyquist {nyq} Hz")
    accel = lowpass(rec.accel, cutoff, rec.sample_rate, padtype="even")
    return dataclasses.replace(rec, accel=accel)

import builtins
import csv
import errno
import io
import itertools
import math
import os
import stat
import warnings

import numpy as np
import pytest
from scipy.signal import butter, filtfilt

from gaitpipe import ingest
from gaitpipe.core import (
    ConfigurationError,
    ContractError,
    GaitEvent,
    ImuRecording,
    InsufficientDataError,
    ParseError,
    event_table,
    gait_events,
)

# analytic double-pass |H|^2 of the bilinear-transform 2nd-order
# Butterworth (cutoff 17 Hz, fs 100 Hz) at 30 Hz:
#   r = tan(pi*30/100) / tan(pi*17/100); gain = 1 / (1 + r^4)
GAIN_30HZ_DOUBLE_PASS = 0.032961602641463826


def make_rec(t, accel=None, gyro=None, rate=None):
    t = np.asarray(t, dtype=float)
    n = len(t)
    if accel is None:
        accel = np.zeros((n, 3))
    if gyro is None:
        gyro = np.zeros((n, 3))
    return ImuRecording(t=t, accel=accel, gyro=gyro, sample_rate=rate)


class TestLoadRecording:
    def test_three_row_csv(self):
        csv = b"t,ax,ay,az,gx,gy,gz\n0,1,2,3,4,5,6\n0.02,1,2,3,4,5,6\n0.04,1,2,3,4,5,6\n"
        rec = ingest.load_recording(csv)
        assert len(rec.t) == 3
        assert rec.accel[0].tolist() == [1.0, 2.0, 3.0]
        assert rec.gyro[2].tolist() == [4.0, 5.0, 6.0]

    def test_duplicate_timestamp_rejected(self):
        csv = b"t,ax,ay,az,gx,gy,gz\n0,0,0,9.81,0,0,0\n0,0,0,9.81,0,0,0\n"
        with pytest.raises(ContractError):
            ingest.load_recording(csv)

    def test_generated_file_roundtrip(self, tmp_path):
        fs = 50.0
        n = 6000
        t = np.arange(n) / fs
        rng = np.random.default_rng(0)
        rec = make_rec(t, accel=rng.normal(size=(n, 3)),
                       gyro=rng.normal(size=(n, 3)), rate=fs)
        path = tmp_path / "rec.csv"
        ingest.write_recording(rec, path)
        back = ingest.load_recording(path)
        assert len(back.t) == 6000
        np.testing.assert_allclose(back.accel, rec.accel, rtol=0, atol=0)

    def test_malformed_row_reports_line(self):
        csv = b"t,ax,ay,az,gx,gy,gz\n0,0,0,9.81,0,0,0\n0.02,bad,0,9.81,0,0,0\n"
        with pytest.raises(ParseError, match="line 3"):
            ingest.load_recording(csv)

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            ingest.load_recording(b"time,x\n0,1\n")

    def test_empty_file(self):
        with pytest.raises(ParseError):
            ingest.load_recording(b"")


HEADER = "t,ax,ay,az,gx,gy,gz"
ROW_A = "0,0.1,0.2,9.81,0.01,0.02,0.03"
ROW_B = "0.02,0.2,-0.1,9.79,0.0,-0.02,0.01"
ROW_C = "0.04,1e-3,2.5E1,-9.8,+.5,5.,-0"

# Edge cases of the recording CSV; load_recording must treat each one
# exactly as the row-by-row csv_rows parse does.
LOADER_CORPUS = {
    "plain": f"{HEADER}\n{ROW_A}\n{ROW_B}\n{ROW_C}\n",
    "crlf": f"{HEADER}\r\n{ROW_A}\r\n{ROW_B}\r\n",
    "mixed_line_ends": f"{HEADER}\r\n{ROW_A}\n{ROW_B}\r\n",
    "cr_only": f"{HEADER}\r{ROW_A}\r{ROW_B}\r",
    "no_final_newline": f"{HEADER}\n{ROW_A}\n{ROW_B}",
    "single_row": f"{HEADER}\n{ROW_A}\n",
    "header_only": f"{HEADER}\n",
    "header_only_blank_lines": f"{HEADER}\r\n\r\n\n",
    "empty": "",
    "bad_header": "time,ax,ay,az,gx,gy,gz\n0,0,0,9.81,0,0,0\n",
    "spaced_header": " t , ax,ay,az,gx,gy, gz \n" + ROW_A + "\n",
    "bom": "\ufeff" + f"{HEADER}\n{ROW_A}\n",
    "quoted_field": f'{HEADER}\n"0",0.1,0.2,9.81,0.01,0.02,0.03\n{ROW_B}\n',
    "spaces_in_fields": f"{HEADER}\n 0 , 0.1,0.2 ,9.81,0.01,0.02,0.03\n{ROW_B}\n",
    "unicode_space": f"{HEADER}\n0\u00a0,0.1,0.2,9.81,0.01,0.02,0.03\n",
    "underscore_digits": f"{HEADER}\n0,1_0,0.2,9.81,0.01,0.02,0.03\n",
    "hash_line": f"{HEADER}\n{ROW_A}\n# note\n{ROW_B}\n",
    "hash_in_field": f"{HEADER}\n{ROW_A}#x\n",
    "blank_lines": f"{HEADER}\n\n{ROW_A}\n\n\n{ROW_B}\n\n",
    "whitespace_line": f"{HEADER}\n{ROW_A}\n   \n{ROW_B}\n",
    "tab_line": f"{HEADER}\n{ROW_A}\n\t\n{ROW_B}\n",
    "trailing_comma": f"{HEADER}\n{ROW_A},\n{ROW_B},\n",
    "six_fields": f"{HEADER}\n0,0.1,0.2,9.81,0.01,0.02\n",
    "ragged": f"{HEADER}\n{ROW_A}\n0.02,0.1,0.2,9.81,0.01,0.02\n",
    "empty_field": f"{HEADER}\n0,,0.2,9.81,0.01,0.02,0.03\n",
    "nan": f"{HEADER}\n{ROW_A}\n0.02,nan,0.2,9.81,0.01,0.02,0.03\n",
    "infinity": f"{HEADER}\n{ROW_A}\n0.02,0.1,Infinity,9.81,0.01,0.02,0.03\n",
    "nul": f"{HEADER}\n{ROW_A}\x00\n{ROW_B}\n",
    "non_increasing_t": f"{HEADER}\n{ROW_B}\n{ROW_A}\n",
}


def row_by_row(text):
    """The csv_rows parse: an open stream cannot be reread, so
    load_recording always parses it row by row."""
    return ingest.load_recording(io.StringIO(text, newline=""))


def outcome(load, source):
    try:
        rec = load(source)
    except Exception as exc:   # noqa: BLE001 - the outcome under comparison
        return type(exc), str(exc)
    return np.column_stack((rec.t, rec.accel, rec.gyro))


def same_outcome(a, b):
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


class TestLoaderPaths:
    @pytest.mark.parametrize("name", sorted(LOADER_CORPUS))
    def test_equals_row_by_row_parse(self, name, tmp_path):
        text = LOADER_CORPUS[name]
        expected = outcome(row_by_row, text)
        path = tmp_path / "rec.csv"
        path.write_bytes(text.encode("utf-8"))
        for source in (text.encode("utf-8"), path, str(path)):
            assert same_outcome(outcome(ingest.load_recording, source), expected)

    def test_header_only_warns_nothing(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text(HEADER + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rec = ingest.load_recording(path)
        assert caught == []
        assert rec.accel.shape == (0, 3)

    @pytest.mark.parametrize("column", range(7))
    def test_non_finite_value_names_line_and_column(self, column, tmp_path):
        fields = ROW_B.split(",")
        fields[column] = "nan"
        text = f"{HEADER}\n{ROW_A}\n{','.join(fields)}\n"
        path = tmp_path / "rec.csv"
        path.write_text(text)
        message = f"line 3: {ingest.RECORDING_HEADER[column]} must be a finite number, got 'nan'"
        for source in (text.encode(), path, io.StringIO(text, newline="")):
            with pytest.raises(ParseError) as exc:
                ingest.load_recording(source)
            assert str(exc.value) == message

    def test_parse_error_keeps_line_number(self, tmp_path):
        path = tmp_path / "rec.csv"
        rows = [f"{i / 50.0!r},0,0,9.81,0,0,0" for i in range(2000)]
        rows[1500] = "30.0,0,0,oops,0,0,0"
        path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(ParseError, match="line 1502:"):
            ingest.load_recording(path)

    def test_written_recording_takes_numpy_path(self, tmp_path):
        n = 500
        rng = np.random.default_rng(2)
        rec = make_rec(np.arange(n) / 50.0, accel=rng.normal(size=(n, 3)),
                       gyro=rng.normal(size=(n, 3)))
        path = tmp_path / "rec.csv"
        ingest.write_recording(rec, path)
        data = ingest._loadtxt_values(path)
        assert data is not None
        with open(path, newline="") as fh:
            assert same_outcome(outcome(ingest.load_recording, fh),
                                outcome(ingest.load_recording, path))


def csv_writer_reference(rec, path):
    """write_recording as one csv.writer row per sample."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ingest.RECORDING_HEADER)
        for i in range(len(rec.t)):
            writer.writerow([repr(float(rec.t[i]))]
                            + [repr(float(v)) for v in rec.accel[i]]
                            + [repr(float(v)) for v in rec.gyro[i]])


class TestWriteRecording:
    @pytest.mark.parametrize("n", [0, 1, ingest.WRITE_BLOCK_ROWS + 3])
    def test_bytes_equal_csv_writer(self, n, tmp_path):
        rng = np.random.default_rng(n)
        values = rng.normal(0, 3.0, (n, 7)) * 10.0 ** rng.integers(-5, 6, (n, 7))
        specials = np.array([-0.0, 1e-300, 1e300, 3.0, -12.0, 5e-324, 0.1])
        mask = rng.random((n, 7)) < 0.3
        values[mask] = rng.choice(specials, mask.sum())
        rec = make_rec(np.arange(n) / 50.0, accel=values[:, 1:4], gyro=values[:, 4:7])
        got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
        ingest.write_recording(rec, got)
        csv_writer_reference(rec, expected)
        assert got.read_bytes() == expected.read_bytes()

    def test_integer_arrays_written_as_floats(self, tmp_path):
        rec = ImuRecording(t=np.arange(3), accel=np.ones((3, 3), dtype=int),
                           gyro=np.zeros((3, 3), dtype=int))
        got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
        ingest.write_recording(rec, got)
        csv_writer_reference(rec, expected)
        assert got.read_bytes() == expected.read_bytes()


@pytest.fixture
def disk_full_after(monkeypatch):
    """arm(n): the n+1-th value that an ingest writer formats raises the
    OSError of a full disk, part-way through the file."""
    def arm(n):
        calls = itertools.count()

        def repr_until_full(value):
            if next(calls) == n:
                raise OSError(errno.ENOSPC, "No space left on device")
            return builtins.repr(value)
        monkeypatch.setattr(ingest, "repr", repr_until_full, raising=False)
    return arm


class TestAtomicWriters:
    """A write that fails part-way leaves no file at its path, no temp
    file beside it, and an older file at the path as it was."""

    EVENTS = event_table(0.5 * np.arange(20), "IC", "L")

    def _write(self, writer, path):
        if writer == "recording":
            ingest.write_recording(make_rec(np.arange(200) / 50.0), path)
        else:
            ingest.write_reference_events(self.EVENTS, path)

    @pytest.mark.parametrize("writer", ["recording", "events"])
    def test_failed_write_leaves_no_file(self, tmp_path, disk_full_after, writer):
        disk_full_after(10)
        with pytest.raises(OSError, match="No space left"):
            self._write(writer, tmp_path / "out.csv")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("writer", ["recording", "events"])
    def test_failed_write_keeps_older_file(self, tmp_path, disk_full_after, writer):
        path = tmp_path / "out.csv"
        path.write_text("older\n")
        disk_full_after(10)
        with pytest.raises(OSError, match="No space left"):
            self._write(writer, path)
        assert list(tmp_path.iterdir()) == [path] and path.read_text() == "older\n"

    @pytest.mark.parametrize("writer", ["recording", "events"])
    def test_mode_follows_umask(self, tmp_path, writer):
        """The file gets open()'s mode, 0o666 less the umask, not the
        0o600 of a tempfile.mkstemp file."""
        old_umask = os.umask(0o027)
        try:
            self._write(writer, tmp_path / "out.csv")
        finally:
            os.umask(old_umask)
        assert stat.S_IMODE((tmp_path / "out.csv").stat().st_mode) == 0o640


# Each reference CSV case reads to the events, or to a ParseError naming
# the line, that the row-by-row reader gave before its rules moved into
# core.event_columns; the multi-fault case pins that the first bad line
# is named, whatever its fault.
REFERENCE_CASES = [
    ("t,kind,side\n0.5,IC,L\n0.62,FC,R\n1.1,IC,U\n",
     [(0.5, "IC", "L"), (0.62, "FC", "R"), (1.1, "IC", "U")]),
    ("", "empty file: missing header"),
    ("time,kind,side\n0.5,IC,L\n",
     "bad header ['time', 'kind', 'side'], expected ['t', 'kind', 'side']"),
    ("t,kind,side\n0.5,IC,L\n0.62,FC\n", "line 3: expected 3 fields, got 2"),
    ("t,kind,side\n0.5,IC,L\n0.62,FC,R,1\n", "line 3: expected 3 fields, got 4"),
    ("t,kind,side\n0.5,IC,L,0.62\nFC,R\n", "line 2: expected 3 fields, got 4"),
    ("t,kind,side\n0.5,IC,L\n0.62,XX,R\n", "line 3: kind must be IC or FC, got 'XX'"),
    ("t,kind,side\n0.5,IC,L\n0.62,FC,Q\n",
     "line 3: side must be L, R, or U, got 'Q'"),
    ("t,kind,side\n0.5,IC,L\nnan,FC,R\n",
     "line 3: time_s must be a finite number, got 'nan'"),
    ("t,kind,side\n0.5,IC,L\n-inf,FC,R\n",
     "line 3: time_s must be a finite number, got '-inf'"),
    ("t,kind,side\n0.5,IC,L\nabc,FC,R\n",
     "line 3: time_s must be a finite number, got 'abc'"),
    ("t,kind,side\n0.5,IC,L\n,FC,R\n", "line 3: time_s must be a finite number, got ''"),
    ("t,kind,side\n\n0.5,IC,L\n\n\n0.62,FC,R\n\n", [(0.5, "IC", "L"), (0.62, "FC", "R")]),
    ("t,kind,side\r\n0.5,IC,L\r\n0.62,FC,R\r\n", [(0.5, "IC", "L"), (0.62, "FC", "R")]),
    ("t,kind,side\r0.5,IC,L\r0.62,FC,R\r", [(0.5, "IC", "L"), (0.62, "FC", "R")]),
    (" t , kind , side \n 0.5 , IC , L \n0.62,FC ,R\n",
     [(0.5, "IC", "L"), (0.62, "FC", "R")]),
    ("t,kind,side\n0.5,IC,L\n0.62,FC,R\n0.7, XX,R\n",
     "line 4: kind must be IC or FC, got 'XX'"),
    ("t,kind,side\n\"0.5\",\"IC\",L\n", [(0.5, "IC", "L")]),
    ("t,kind,side\n0.5,XX,L\n0.62,FC\n", "line 2: kind must be IC or FC, got 'XX'"),
]
REFERENCE_CASE_IDS = ["valid", "empty", "bad-header", "two-fields", "four-fields",
                      "fields-shifted-across-rows", "bad-kind", "bad-side", "nan-time",
                      "inf-time", "non-number-time", "empty-time", "blank-lines", "crlf",
                      "cr", "padded-fields", "padded-bad-kind", "quoted-fields",
                      "bad-kind-before-two-fields"]


class TestReferenceEvents:
    def test_roundtrip(self, tmp_path):
        events = event_table([0.5, 0.62], ["IC", "FC"], ["L", "R"])
        path = tmp_path / "ref.csv"
        ingest.write_reference_events(events, path)
        back = ingest.load_reference_events(path)
        assert [(e.time_s, e.kind, e.side) for e in back] == \
            [(0.5, "IC", "L"), (0.62, "FC", "R")]

    def test_bad_kind(self):
        with pytest.raises(ParseError, match="kind"):
            ingest.load_reference_events(b"t,kind,side\n1.0,XX,L\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_time_reports_line(self, value):
        csv = f"t,kind,side\n1.0,IC,L\n{value},IC,R\n".encode()
        with pytest.raises(ParseError, match="line 3"):
            ingest.load_reference_events(csv)

    @pytest.mark.parametrize("text, expected", REFERENCE_CASES, ids=REFERENCE_CASE_IDS)
    def test_bulk_reader_equals_row_loop(self, text, expected):
        try:
            got = [(e.time_s, e.kind, e.side)
                   for e in ingest.load_reference_events(text.encode())]
        except ParseError as exc:
            got = str(exc)
        assert got == expected

    @pytest.mark.parametrize("text, expected", REFERENCE_CASES, ids=REFERENCE_CASE_IDS)
    def test_columns_and_events_read_alike(self, text, expected):
        """The event table, read as columns and record by record, and the
        GaitEvents built from it at the API edge hold the same values;
        the GaitEvents hold Python floats and strs."""
        try:
            table = ingest.load_reference_events(text.encode())
        except ParseError as exc:
            assert str(exc) == expected
            return
        assert list(zip(table.time_s.tolist(), table.kind.tolist(),
                        table.side.tolist())) == expected
        assert [(r.time_s, r.kind, r.side) for r in table] == expected
        events = gait_events(table)
        assert [(e.time_s, e.kind, e.side) for e in events] == expected
        assert all(type(e.time_s) is float and type(e.kind) is type(e.side) is str
                   for e in events)

    def test_path_bytes_and_stream_sources_agree(self, tmp_path):
        text = "t,kind,side\r\n0.5,IC,L\r\n\r\n0.62,FC,R\r\n"
        path = tmp_path / "ref.csv"
        path.write_bytes(text.encode())
        with open(path, encoding="utf-8", newline="") as stream:
            from_stream = ingest.load_reference_events(stream)
            assert not stream.closed
        assert (gait_events(ingest.load_reference_events(path))
                == gait_events(ingest.load_reference_events(text.encode()))
                == gait_events(from_stream)
                == [GaitEvent(0.5, "IC", "L"), GaitEvent(0.62, "FC", "R")])


class TestResample:
    def test_constant_on_irregular_grid(self):
        t = np.array([0.0, 0.011, 0.034, 0.05, 0.08, 0.1])
        accel = np.full((len(t), 3), 2.5)
        rec = make_rec(t, accel=accel)
        out = ingest.resample(rec, 50.0)
        np.testing.assert_allclose(out.accel, 2.5, atol=1e-12)
        np.testing.assert_allclose(np.diff(out.t), 0.02, atol=1e-12)

    def test_linear_ramp_exact(self):
        t = np.array([0.0, 0.03, 0.05])
        accel = np.zeros((3, 3))
        accel[:, 0] = t
        rec = make_rec(t, accel=accel)
        out = ingest.resample(rec, 50.0)
        i = int(round(0.02 * 50))
        assert out.t[i] == pytest.approx(0.02)
        assert out.accel[i, 0] == pytest.approx(0.02, abs=1e-12)

    def test_sine_against_oracle(self):
        # linear interpolation of a sine has worst-case error
        # (omega*h)^2 / 8 relative to amplitude, h = source spacing
        for f in (1.0, 5.0):
            t = np.arange(0, 10, 1 / 128.0)
            accel = np.zeros((len(t), 3))
            accel[:, 1] = np.sin(2 * np.pi * f * t)
            rec = make_rec(t, accel=accel, rate=128.0)
            out = ingest.resample(rec, 50.0)
            oracle = np.sin(2 * np.pi * f * out.t)
            bound = (2 * np.pi * f / 128.0) ** 2 / 8.0
            assert np.max(np.abs(out.accel[:, 1] - oracle)) < max(bound, 1e-4)

    def test_idempotent_on_uniform_grid(self):
        t = np.arange(100) / 50.0
        rng = np.random.default_rng(1)
        rec = make_rec(t, accel=rng.normal(size=(100, 3)), rate=50.0)
        out = ingest.resample(rec, 50.0)
        np.testing.assert_allclose(out.accel, rec.accel, atol=1e-12)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            ingest.resample(make_rec([0.0]), 50.0)


class TestLowpass:
    def test_dc_gain(self):
        t = np.arange(4000) / 100.0
        accel = np.full((len(t), 3), 3.7)
        out = ingest.lowpass_accel(make_rec(t, accel=accel, rate=100.0), 17.0)
        assert np.max(np.abs(out.accel - 3.7)) < 1e-6

    def test_2hz_tone_preserved_zero_phase(self):
        fs = 100.0
        t = np.arange(4000) / fs
        tone = np.sin(2 * np.pi * 2.0 * t)
        accel = np.zeros((len(t), 3))
        accel[:, 0] = tone
        out = ingest.lowpass_accel(make_rec(t, accel=accel, rate=fs), 17.0)
        mid = slice(500, 3500)
        gain = np.sqrt(np.mean(out.accel[mid, 0] ** 2) / np.mean(tone[mid] ** 2))
        assert gain == pytest.approx(1.0, abs=0.01)
        # zero phase: the filtered tone stays in phase with the input
        corr = np.dot(out.accel[mid, 0], tone[mid])
        corr /= np.linalg.norm(out.accel[mid, 0]) * np.linalg.norm(tone[mid])
        assert corr > 0.9999

    def test_30hz_tone_matches_analytic_gain(self):
        fs = 100.0
        t = np.arange(4000) / fs
        tone = np.sin(2 * np.pi * 30.0 * t)
        accel = np.zeros((len(t), 3))
        accel[:, 0] = tone
        out = ingest.lowpass_accel(make_rec(t, accel=accel, rate=fs), 17.0)
        mid = slice(1000, 3000)
        gain = np.sqrt(np.mean(out.accel[mid, 0] ** 2) / np.mean(tone[mid] ** 2))
        assert abs(gain - GAIN_30HZ_DOUBLE_PASS) < 0.1 * GAIN_30HZ_DOUBLE_PASS

    def test_symmetric_pulse_stays_symmetric(self):
        fs = 100.0
        n = 2001
        t = np.arange(n) / fs
        center = n // 2
        pulse = np.exp(-0.5 * ((np.arange(n) - center) / 20.0) ** 2)
        accel = np.zeros((n, 3))
        accel[:, 0] = pulse
        out = ingest.lowpass_accel(make_rec(t, accel=accel, rate=fs), 17.0)
        y = out.accel[:, 0]
        interior = 300
        left = y[center - interior:center]
        right = y[center + 1:center + interior + 1][::-1]
        assert np.max(np.abs(left - right)) < 1e-9 * np.max(np.abs(y))

    def test_linearity(self):
        fs = 100.0
        t = np.arange(1000) / fs
        rng = np.random.default_rng(3)
        a = rng.normal(size=(1000, 3))
        b = rng.normal(size=(1000, 3))
        fa = ingest.lowpass_accel(make_rec(t, accel=a, rate=fs), 17.0).accel
        fb = ingest.lowpass_accel(make_rec(t, accel=b, rate=fs), 17.0).accel
        fab = ingest.lowpass_accel(make_rec(t, accel=a + b, rate=fs), 17.0).accel
        np.testing.assert_allclose(fab, fa + fb, atol=1e-9 * np.max(np.abs(fab)))

    def test_gyro_untouched(self):
        fs = 100.0
        t = np.arange(1000) / fs
        rng = np.random.default_rng(4)
        gyro = rng.normal(size=(1000, 3))
        out = ingest.lowpass_accel(make_rec(t, gyro=gyro, rate=fs), 17.0)
        np.testing.assert_array_equal(out.gyro, gyro)

    def test_equals_per_column_filtfilt(self):
        fs = 50.0
        rng = np.random.default_rng(8)
        data = rng.normal(0, 2.0, (3000, 7))
        # a strided column view, as load_recording returns
        accel = data[:, 1:4]
        out = ingest.lowpass_accel(make_rec(np.arange(3000) / fs, accel=accel,
                                            rate=fs), 17.0)
        b, a = butter(2, 17.0, fs=fs)
        per_column = np.column_stack([filtfilt(b, a, accel[:, k], padtype="even")
                                      for k in range(3)])
        assert np.array_equal(out.accel, per_column)

    @pytest.mark.parametrize("n", [2, 6, 9])
    def test_fewer_than_10_samples_rejected(self, n):
        t = np.arange(n) / 50.0
        with pytest.raises(InsufficientDataError, match="10 samples"):
            ingest.lowpass_accel(make_rec(t, rate=50.0), 17.0)

    def test_cutoff_at_nyquist_rejected(self):
        # Nyquist 15 Hz, below the 17 Hz cutoff, and exactly 17 Hz
        for rate in (30.0, 34.0):
            t = np.arange(100) / rate
            with pytest.raises(ConfigurationError):
                ingest.lowpass_accel(make_rec(t, rate=rate), 17.0)


class TestEnsureUniform:
    def test_infers_rate_from_uniform_grid(self):
        t = np.arange(200) / 50.0
        rec = make_rec(t)
        out = ingest.ensure_uniform(rec)
        assert out.sample_rate == pytest.approx(50.0)
        # a new recording on the same arrays; the caller's is left as it was
        assert rec.sample_rate is None
        assert out.t is rec.t and out.accel is rec.accel and out.gyro is rec.gyro

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_2_samples_refused_without_warnings(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientDataError, match="at least 2 samples"):
                ingest.ensure_uniform(make_rec(np.arange(n) / 50.0))

    def test_resamples_irregular(self):
        rng = np.random.default_rng(5)
        t = np.sort(rng.uniform(0, 10, 400))
        t[0], t[-1] = 0.0, 10.0
        rec = make_rec(t)
        out = ingest.ensure_uniform(rec)
        assert out.sample_rate is not None
        assert np.max(np.abs(np.diff(out.t) - 1.0 / out.sample_rate)) < 1e-9

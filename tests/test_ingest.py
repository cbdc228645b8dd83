import math

import numpy as np
import pytest
from scipy.signal import butter, filtfilt

from gaitpipe import ingest
from gaitpipe.core import (
    ConfigurationError,
    ContractError,
    ImuRecording,
    InsufficientDataError,
    ParseError,
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


class TestReferenceEvents:
    def test_roundtrip(self, tmp_path):
        from gaitpipe.core import GaitEvent
        events = [GaitEvent(0.5, "IC", "L"), GaitEvent(0.62, "FC", "R")]
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

    def test_resamples_irregular(self):
        rng = np.random.default_rng(5)
        t = np.sort(rng.uniform(0, 10, 400))
        t[0], t[-1] = 0.0, 10.0
        rec = make_rec(t)
        out = ingest.ensure_uniform(rec)
        assert out.sample_rate is not None
        assert np.max(np.abs(np.diff(out.t) - 1.0 / out.sample_rate)) < 1e-9

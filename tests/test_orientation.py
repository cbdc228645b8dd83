import math

import numpy as np
import pytest

from gaitpipe import kernels, orientation, synth
from gaitpipe.core import (ContractError, ImuRecording, InsufficientDataError, quat_to_matrix,
                           random_unit_quat)
from rotations import (
    gravity_direction,
    quat_rotate,
    reference_gravity_rotate,
    rotate_recording,
)

G = 9.81


def static_rec(gravity_sensor, duration_s=10.0, fs=50.0):
    n = int(duration_s * fs)
    t = np.arange(n) / fs
    accel = np.tile(np.asarray(gravity_sensor, dtype=float), (n, 1))
    return ImuRecording(t=t, accel=accel, gyro=np.zeros((n, 3)), sample_rate=fs)


def reference_madgwick(accel, gyro, dt, beta, q0):
    """The Madgwick recursion on numpy scalars, sample by sample (the
    reference for kernels.madgwick_batch, which must match it exactly)."""
    n = accel.shape[0]
    out = np.empty((n, 4))
    w, x, y, z = q0[0], q0[1], q0[2], q0[3]
    for i in range(n):
        gx, gy, gz = gyro[i, 0], gyro[i, 1], gyro[i, 2]
        qdw = 0.5 * (-x * gx - y * gy - z * gz)
        qdx = 0.5 * (w * gx + y * gz - z * gy)
        qdy = 0.5 * (w * gy - x * gz + z * gx)
        qdz = 0.5 * (w * gz + x * gy - y * gx)
        ax, ay, az = accel[i, 0], accel[i, 1], accel[i, 2]
        anorm = math.sqrt(ax * ax + ay * ay + az * az)
        if anorm > 1e-12:
            ax /= anorm
            ay /= anorm
            az /= anorm
            f1 = 2.0 * (x * z - w * y) - ax
            f2 = 2.0 * (w * x + y * z) - ay
            f3 = 2.0 * (0.5 - x * x - y * y) - az
            sw = -2.0 * y * f1 + 2.0 * x * f2
            sx = 2.0 * z * f1 + 2.0 * w * f2 - 4.0 * x * f3
            sy = -2.0 * w * f1 + 2.0 * z * f2 - 4.0 * y * f3
            sz = 2.0 * x * f1 + 2.0 * y * f2
            snorm = math.sqrt(sw * sw + sx * sx + sy * sy + sz * sz)
            if snorm > 1e-12:
                qdw -= beta * sw / snorm
                qdx -= beta * sx / snorm
                qdy -= beta * sy / snorm
                qdz -= beta * sz / snorm
        w += qdw * dt
        x += qdx * dt
        y += qdy * dt
        z += qdz * dt
        qn = math.sqrt(w * w + x * x + y * y + z * z)
        w /= qn
        x /= qn
        y /= qn
        z /= qn
        out[i, 0] = w
        out[i, 1] = x
        out[i, 2] = y
        out[i, 3] = z
    return out


def angle_deg(u, v):
    c = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
    return np.degrees(np.arccos(np.clip(c, -1.0, 1.0)))


def madgwick(rec, beta=orientation.DEFAULT_BETA):
    """The quaternions of one Madgwick recursion over the whole recording,
    from the start that align_recording takes."""
    return kernels.madgwick_batch(rec.accel, rec.gyro, 1.0 / rec.sample_rate, beta,
                                  orientation.initial_tilt(rec.accel[0]))


def reference_align(rec, beta=orientation.DEFAULT_BETA):
    """align_recording's output by the whole-recording path: every
    quaternion from reference_madgwick, then every rotation entrywise."""
    quats = reference_madgwick(rec.accel, rec.gyro, 1.0 / rec.sample_rate, beta,
                               orientation.initial_tilt(rec.accel[0]))
    return (reference_gravity_rotate(quats, rec.accel),
            reference_gravity_rotate(quats, rec.gyro))


class TestEstimateOrientation:
    """The orientation estimate of kernels.madgwick_batch, which
    align_recording applies."""

    def test_static_z_converges_to_vertical(self):
        rec = static_rec([0.0, 0.0, G])
        gdir = gravity_direction(madgwick(rec))
        after = gdir[int(5 * rec.sample_rate):]
        for row in after[::25]:
            assert angle_deg(row, [0, 0, 1]) < 1.0

    def test_static_x_converges(self):
        rec = static_rec([G, 0.0, 0.0])
        gdir = gravity_direction(madgwick(rec))
        after = gdir[int(5 * rec.sample_rate):]
        for row in after[::25]:
            assert angle_deg(row, [1, 0, 0]) < 1.0

    def test_unit_norm_every_sample(self):
        rng = np.random.default_rng(0)
        n = 500
        t = np.arange(n) / 50.0
        rec = ImuRecording(t=t, accel=rng.normal(0, 1, (n, 3)) + [0, 0, G],
                           gyro=rng.normal(0, 0.5, (n, 3)), sample_rate=50.0)
        norms = np.linalg.norm(madgwick(rec), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_yaw_integration_90_degrees(self):
        # sensor spins about the vertical at pi/2 rad/s for 1 s; the
        # projection of a horizontal reference axis should turn 90 deg
        fs = 100.0
        n = int(1 * fs)
        t = np.arange(n) / fs
        accel = np.tile([0.0, 0.0, G], (n, 1))
        gyro = np.tile([0.0, 0.0, np.pi / 2], (n, 1))
        quats = madgwick(ImuRecording(t=t, accel=accel, gyro=gyro, sample_rate=fs))
        x0 = quat_rotate(quats[0], [1.0, 0.0, 0.0])
        x1 = quat_rotate(quats[-1], [1.0, 0.0, 0.0])
        assert angle_deg(x0, x1) == pytest.approx(90.0, abs=2.0)


class TestMadgwickBatch:
    def test_matches_scalar_reference_exactly(self):
        rng = np.random.default_rng(4)
        n = 3000
        accel = rng.normal(0, 2.0, (n, 3)) + [1.0, -3.0, G]
        rows = rng.permutation(n)
        accel[rows[:40]] = 0.0   # anorm below 1e-12
        accel[rows[40:80]] = rng.normal(0, 1e-13, (40, 3))   # and nonzero
        # squares underflow to 0, so anorm is 0 too
        accel[rows[80:120]] = rng.normal(0, 1e-310, (40, 3))
        # squares near 1e300, still finite
        accel[rows[120:160]] = rng.normal(0, 1e150, (40, 3))
        gyro = rng.normal(0, 0.8, (n, 3))
        q0 = orientation.initial_tilt(accel[1])
        for dt, beta in ((0.02, 0.041), (0.01, 0.5)):
            got = kernels.madgwick_batch(accel, gyro, dt, beta, q0)
            assert np.array_equal(got, reference_madgwick(accel, gyro, dt, beta, q0))
        # no gravity and subnormal rates from a start with two zero parts:
        # those parts become subnormal, where halving a rate or a product
        # is inexact
        accel = np.zeros((200, 3))
        gyro = rng.normal(0, 1e-310, (200, 3))
        q0 = np.array([0.6, 0.8, 0.0, 0.0])
        got = kernels.madgwick_batch(accel, gyro, 0.02, 0.041, q0)
        assert np.array_equal(got, reference_madgwick(accel, gyro, 0.02, 0.041, q0))


class TestQuatToMatrix:
    def test_batch_equals_per_quaternion(self):
        rng = np.random.default_rng(5)
        quats = np.array([random_unit_quat(rng) for _ in range(24)])
        one_by_one = np.array([quat_to_matrix(q) for q in quats])
        assert np.array_equal(quat_to_matrix(quats), one_by_one)
        assert np.array_equal(quat_to_matrix(quats.reshape(4, 6, 4)),
                              one_by_one.reshape(4, 6, 3, 3))


class TestAlignWithGravity:
    def test_equals_entrywise_reference(self):
        """The block-wise recursion and rotation give the doubles of the
        whole-recording path, at and around the block edges."""
        rng = np.random.default_rng(6)
        block = orientation.ALIGN_BLOCK
        for n in (1, block - 1, block, block + 1, 3 * block + 5):
            accel = rng.normal(0, 2.0, (n, 3)) + [1.0, -3.0, G]
            accel[rng.integers(0, n, n // 500)] = 0.0     # no gravity
            rec = ImuRecording(t=np.arange(n) / 50.0, accel=accel,
                               gyro=rng.normal(0, 0.8, (n, 3)), sample_rate=50.0)
            out = orientation.align_recording(rec, beta=0.1)
            want_accel, want_gyro = reference_align(rec, beta=0.1)
            assert np.array_equal(out.accel, want_accel)
            assert np.array_equal(out.gyro, want_gyro)
        rec, _, _, _ = synth.generate(synth.SynthConfig(
            duration_s=100.0, seed=2, noise_sigma=0.3,
            sensor_rotation=random_unit_quat(rng)))
        out = orientation.align_recording(rec)
        want_accel, want_gyro = reference_align(rec)
        assert np.array_equal(out.accel, want_accel)
        assert np.array_equal(out.gyro, want_gyro)

    def test_identity_orientation_reorders_axes_only(self):
        # upright and still, the orientation stays the identity quaternion
        rec = static_rec([0.0, 0.0, G], duration_s=1.0)
        out = orientation.align_recording(rec)
        # axis order is (vertical, h1, h2) = (z, x, y)
        np.testing.assert_allclose(out.vertical_accel, G, atol=1e-12)
        np.testing.assert_allclose(out.accel[:, 1:], 0.0, atol=1e-12)

    def test_refuses_a_non_uniform_or_empty_recording(self):
        rec = static_rec([0.0, 0.0, G], duration_s=1.0)
        rec.sample_rate = None
        with pytest.raises(ContractError, match="uniformly sampled"):
            orientation.align_recording(rec)
        empty = ImuRecording(t=np.zeros(0), accel=np.zeros((0, 3)), gyro=np.zeros((0, 3)),
                             sample_rate=50.0)
        with pytest.raises(InsufficientDataError):
            orientation.align_recording(empty)

    def test_tilted_static_recovers_gravity(self):
        ang = np.radians(30.0)
        g_sensor = [0.0, G * np.sin(ang), G * np.cos(ang)]
        rec = static_rec(g_sensor, duration_s=10.0)
        out = orientation.align_recording(rec)
        tail = slice(int(5 * rec.sample_rate), None)
        assert abs(np.mean(out.vertical_accel[tail]) - G) < 0.05
        horiz = np.linalg.norm(out.accel[tail, 1:], axis=1)
        assert np.mean(horiz) < 0.05 * G

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        n = 400
        t = np.arange(n) / 50.0
        rec = ImuRecording(t=t, accel=rng.normal(0, 2, (n, 3)) + [0, 0, G],
                           gyro=rng.normal(0, 1, (n, 3)), sample_rate=50.0)
        out = orientation.align_recording(rec)
        np.testing.assert_allclose(np.linalg.norm(out.accel, axis=1),
                                   np.linalg.norm(rec.accel, axis=1), rtol=1e-9)
        np.testing.assert_allclose(np.linalg.norm(out.gyro, axis=1),
                                   np.linalg.norm(rec.gyro, axis=1), rtol=1e-9)


class TestRotationInvariance:
    def test_vertical_channel_invariant_under_fixed_rotations(self):
        cfg = synth.SynthConfig(duration_s=20.0, seed=7)
        rec, _, _, _ = synth.generate(cfg)
        base = orientation.align_recording(rec)
        tail = slice(int(5 * base.sample_rate), None)
        ref = base.vertical_accel[tail]
        rng = np.random.default_rng(11)
        for _ in range(10):
            q = random_unit_quat(rng)
            rot = rotate_recording(rec, q)
            out = orientation.align_recording(rot)
            dv = out.vertical_accel[tail] - ref
            rel = np.sqrt(np.mean(dv ** 2)) / np.sqrt(np.mean((ref - ref.mean()) ** 2))
            assert rel < 0.01

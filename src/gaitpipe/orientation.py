"""Accelerometer/gyroscope fusion and rotation into the gravity frame."""
from __future__ import annotations

import numpy as np

from . import kernels
from .core import (
    ContractError,
    GravityAlignedRecording,
    ImuRecording,
    InsufficientDataError,
    quat_from_two_vectors,
)

DEFAULT_BETA = 0.041


def initial_tilt(accel_sample: np.ndarray) -> np.ndarray:
    """Zero-yaw quaternion aligning the first accelerometer vector with +z.

    Yaw is unobservable without a magnetometer and unused downstream, so
    the minimal rotation (which has zero yaw about gravity) is used.
    """
    norm = np.linalg.norm(accel_sample)
    if norm < 1e-9:
        return np.array([1.0, 0.0, 0.0, 0.0])
    return quat_from_two_vectors(accel_sample, np.array([0.0, 0.0, 1.0]))


def estimate_orientation(rec: ImuRecording, beta: float = DEFAULT_BETA) -> np.ndarray:
    """One unit quaternion (w, x, y, z) per sample, sensor-to-gravity frame."""
    if rec.sample_rate is None:
        raise ContractError("recording must be uniformly sampled")
    if len(rec.t) == 0:
        raise InsufficientDataError("empty recording")
    q0 = initial_tilt(rec.accel[0])
    dt = 1.0 / rec.sample_rate
    return kernels.madgwick_batch(rec.accel, rec.gyro, dt, beta, q0)


def align_with_gravity(rec: ImuRecording, quats: np.ndarray) -> GravityAlignedRecording:
    """Rotate samples into the gravity frame; axis order (vertical, h1, h2)."""
    if len(quats) != len(rec.t):
        raise ContractError("orientation sequence length mismatch")
    w, x, y, z = quats[:, 0], quats[:, 1], quats[:, 2], quats[:, 3]
    # rows of R(q) give earth-frame components of the sensor basis
    r00 = 1 - 2 * (y * y + z * z)
    r01 = 2 * (x * y - w * z)
    r02 = 2 * (x * z + w * y)
    r10 = 2 * (x * y + w * z)
    r11 = 1 - 2 * (x * x + z * z)
    r12 = 2 * (y * z - w * x)
    r20 = 2 * (x * z - w * y)
    r21 = 2 * (y * z + w * x)
    r22 = 1 - 2 * (x * x + y * y)

    def rot(v):
        ex = r00 * v[:, 0] + r01 * v[:, 1] + r02 * v[:, 2]
        ey = r10 * v[:, 0] + r11 * v[:, 1] + r12 * v[:, 2]
        ez = r20 * v[:, 0] + r21 * v[:, 1] + r22 * v[:, 2]
        # vertical-up first, then the two horizontal axes
        return np.column_stack([ez, ex, ey])

    return GravityAlignedRecording(
        t=rec.t.copy(),
        accel=rot(rec.accel),
        gyro=rot(rec.gyro),
        sample_rate=float(rec.sample_rate),
        orientation=quats,
    )


def align_recording(rec: ImuRecording, beta: float = DEFAULT_BETA) -> GravityAlignedRecording:
    return align_with_gravity(rec, estimate_orientation(rec, beta=beta))


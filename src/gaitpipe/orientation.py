"""Accelerometer/gyroscope fusion and rotation into the gravity frame."""
from __future__ import annotations

import numpy as np

from . import kernels
from .core import (
    DEFAULT_CONFIG,
    ContractError,
    GravityAlignedRecording,
    ImuRecording,
    InsufficientDataError,
    quat_from_two_vectors,
    quat_to_matrix,
)

DEFAULT_BETA = DEFAULT_CONFIG.madgwick_beta
# samples per block of rotation matrices in align_with_gravity
ALIGN_BLOCK = 8192


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
    # rows of R(q) give earth-frame components of the sensor basis; they
    # are reordered to vertical-up first, then the two horizontal axes.
    # R is built per block of samples, so no (n, 3, 3) array is held; the
    # outputs are F-ordered, as a whole-recording fancy index gave them.
    n = len(quats)
    accel, gyro = np.empty((3, n)).T, np.empty((3, n)).T
    for lo in range(0, n, ALIGN_BLOCK):
        r = slice(lo, lo + ALIGN_BLOCK)
        R = quat_to_matrix(quats[r])
        for v, out in ((rec.accel[r], accel), (rec.gyro[r], gyro)):
            out[r] = (R[..., 0] * v[:, None, 0] + R[..., 1] * v[:, None, 1]
                      + R[..., 2] * v[:, None, 2])[:, [2, 0, 1]]
    return GravityAlignedRecording(t=rec.t, accel=accel, gyro=gyro,
                                   sample_rate=float(rec.sample_rate))


def align_recording(rec: ImuRecording, beta: float = DEFAULT_BETA) -> GravityAlignedRecording:
    return align_with_gravity(rec, estimate_orientation(rec, beta=beta))


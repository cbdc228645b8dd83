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
# samples per block of quaternions and rotation matrices in align_recording
ALIGN_BLOCK = 4096


def initial_tilt(accel_sample: np.ndarray) -> np.ndarray:
    """Zero-yaw quaternion aligning the first accelerometer vector with +z.

    Yaw is unobservable without a magnetometer and unused downstream, so
    the minimal rotation (which has zero yaw about gravity) is used.
    """
    norm = np.linalg.norm(accel_sample)
    if norm < 1e-9:
        return np.array([1.0, 0.0, 0.0, 0.0])
    return quat_from_two_vectors(accel_sample, np.array([0.0, 0.0, 1.0]))


def align_recording(rec: ImuRecording, beta: float = DEFAULT_BETA) -> GravityAlignedRecording:
    """Rotate samples into the gravity frame; axis order (vertical, h1, h2).

    The Madgwick quaternions are computed and applied one ALIGN_BLOCK of
    samples at a time, each block's recursion going on from the last
    quaternion of the block before: no (n, 4) or (n, 3, 3) array is held,
    and every double is that of one recursion over the whole recording.
    """
    if rec.sample_rate is None:
        raise ContractError("recording must be uniformly sampled")
    n = len(rec.t)
    if n == 0:
        raise InsufficientDataError("empty recording")
    dt = 1.0 / rec.sample_rate
    q = initial_tilt(rec.accel[0])
    # rows of R(q) give earth-frame components of the sensor basis, reordered to
    # vertical-up first; the outputs are F-ordered, as the bout stages read them
    accel, gyro = np.empty((3, n)).T, np.empty((3, n)).T
    for lo in range(0, n, ALIGN_BLOCK):
        r = slice(lo, lo + ALIGN_BLOCK)
        quats = kernels.madgwick_batch(rec.accel[r], rec.gyro[r], dt, beta, q)
        q = quats[-1]
        R = quat_to_matrix(quats)
        for v, out in ((rec.accel[r], accel), (rec.gyro[r], gyro)):
            out[r] = (R[..., 0] * v[:, None, 0] + R[..., 1] * v[:, None, 1]
                      + R[..., 2] * v[:, None, 2])[:, [2, 0, 1]]
    return GravityAlignedRecording(t=rec.t, accel=accel, gyro=gyro,
                                   sample_rate=float(rec.sample_rate))

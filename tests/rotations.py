"""Rotation helpers the tests use to build and inspect recordings."""
import numpy as np

from gaitpipe.core import ImuRecording, quat_to_matrix


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    return quat_to_matrix(q) @ np.asarray(v, dtype=float)


def gravity_direction(quats: np.ndarray) -> np.ndarray:
    """Estimated gravity direction in the sensor frame, one row per sample."""
    return quat_to_matrix(quats)[:, 2]


def reference_gravity_rotate(quats: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate each row of v by its quaternion into (vertical, h1, h2),
    one matrix entry at a time (the reference for the rotation of
    orientation.align_recording, which must match it exactly)."""
    w, x, y, z = quats[:, 0], quats[:, 1], quats[:, 2], quats[:, 3]
    r00 = 1 - 2 * (y * y + z * z)
    r01 = 2 * (x * y - w * z)
    r02 = 2 * (x * z + w * y)
    r10 = 2 * (x * y + w * z)
    r11 = 1 - 2 * (x * x + z * z)
    r12 = 2 * (y * z - w * x)
    r20 = 2 * (x * z - w * y)
    r21 = 2 * (y * z + w * x)
    r22 = 1 - 2 * (x * x + y * y)
    ex = r00 * v[:, 0] + r01 * v[:, 1] + r02 * v[:, 2]
    ey = r10 * v[:, 0] + r11 * v[:, 1] + r12 * v[:, 2]
    ez = r20 * v[:, 0] + r21 * v[:, 1] + r22 * v[:, 2]
    return np.column_stack([ez, ex, ey])


def rotate_recording(rec: ImuRecording, quat: np.ndarray) -> ImuRecording:
    """Apply a fixed sensor rotation to a raw recording."""
    rot = quat_to_matrix(quat)
    return ImuRecording(t=rec.t.copy(), accel=rec.accel @ rot.T, gyro=rec.gyro @ rot.T,
                        sample_rate=rec.sample_rate,
                        device_id=rec.device_id, session_id=rec.session_id)

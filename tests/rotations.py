"""Rotation helpers the tests use to build and inspect recordings."""
import numpy as np

from gaitpipe.core import ImuRecording, quat_to_matrix


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    return quat_to_matrix(q) @ np.asarray(v, dtype=float)


def gravity_direction(quats: np.ndarray) -> np.ndarray:
    """Estimated gravity direction in the sensor frame, one row per sample."""
    w, x, y, z = quats[:, 0], quats[:, 1], quats[:, 2], quats[:, 3]
    return np.column_stack([
        2.0 * (x * z - w * y),
        2.0 * (w * x + y * z),
        1.0 - 2.0 * (x * x + y * y),
    ])


def rotate_recording(rec: ImuRecording, quat: np.ndarray) -> ImuRecording:
    """Apply a fixed sensor rotation to a raw recording."""
    rot = quat_to_matrix(quat)
    return ImuRecording(t=rec.t.copy(), accel=rec.accel @ rot.T, gyro=rec.gyro @ rot.T,
                        sample_rate=rec.sample_rate,
                        device_id=rec.device_id, session_id=rec.session_id)

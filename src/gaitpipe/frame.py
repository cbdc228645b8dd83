"""Anatomical reference frame: vertical / antero-posterior / medio-lateral."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_CONFIG, AmbiguousDirectionError, InsufficientDataError,
                   PipelineConfig)
from .segmentation import dominant_stride_peak

EIGENVALUE_RATIO_MIN = 1.2


@dataclass
class AnatomicalFrame:
    """Orthonormal right-handed triad expressed in gravity-frame coordinates
    (axis order: vertical, horizontal-1, horizontal-2)."""

    vertical: np.ndarray
    antero_posterior: np.ndarray
    medio_lateral: np.ndarray

    @property
    def rotation(self) -> np.ndarray:
        """Matrix whose rows map gravity-frame samples to (V, AP, ML)."""
        return np.vstack([self.vertical, self.antero_posterior, self.medio_lateral])


def estimate_frame(accel_aligned: np.ndarray, fs: float,
                   cfg: PipelineConfig = DEFAULT_CONFIG) -> AnatomicalFrame:
    """PCA of the horizontal acceleration defines the walking direction.

    The vertical axis is inherited from gravity alignment, the AP axis is
    the first principal component of the mean-removed horizontal samples
    (sign unresolved), and ML completes the right-handed triad. It needs
    at least ``min_bout_s`` of samples.
    """
    if len(accel_aligned) < cfg.min_bout_s * fs:
        raise InsufficientDataError(
            f"frame estimation needs at least {cfg.min_bout_s:g} s of samples")
    horiz = accel_aligned[:, 1:3]
    centered = horiz - horiz.mean(axis=0)
    cov = centered.T @ centered / max(len(centered) - 1, 1)
    evals, evecs = np.linalg.eigh(cov)
    if evals[1] <= 1e-12 or evals[1] / max(evals[0], 1e-300) < EIGENVALUE_RATIO_MIN:
        raise AmbiguousDirectionError(
            "horizontal acceleration has no dominant direction")
    principal = evecs[:, 1]
    ap = np.array([0.0, principal[0], principal[1]])
    vertical = np.array([1.0, 0.0, 0.0])
    ml = np.cross(vertical, ap)
    return AnatomicalFrame(vertical=vertical, antero_posterior=ap, medio_lateral=ml)


def to_anatomical(samples: np.ndarray, frame: AnatomicalFrame) -> np.ndarray:
    """Express (N, 3) gravity-frame samples in (V, AP, ML) coordinates.

    The frame's vertical row is (1, 0, 0), so column 0 of the result
    equals column 0 of ``samples``.
    """
    return np.asarray(samples, dtype=float) @ frame.rotation.T


def verify_frame(ap_autocorr: np.ndarray, fs: float,
                 cfg: PipelineConfig = DEFAULT_CONFIG) -> bool:
    """True iff the AP channel, given as its stride_autocorr array, shows
    dominant stride-band periodicity."""
    peak = dominant_stride_peak(ap_autocorr, fs, cfg)
    return peak is not None and peak[1] >= cfg.autocorr_peak_min

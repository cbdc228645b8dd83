"""Placement-agnostic smartphone IMU gait analysis.

Detects initial and final foot contacts from a phone worn anywhere on
the body: gravity alignment, activity segmentation, anatomical frame
estimation, adaptive wavelet step detection, plus evaluation tooling,
a synthetic signal generator, and a Bayesian factor model for
performance covariates.
"""
import types

from .core import (
    AmbiguousDirectionError,
    ConfigurationError,
    ContractError,
    DiagnosticsError,
    EmptySetError,
    FC,
    GaitEvent,
    GaitPipeError,
    GravityAlignedRecording,
    IC,
    ImuRecording,
    InsufficientDataError,
    NoCadenceError,
    ParseError,
    Segment,
    SegmentKind,
    SIDE_LEFT,
    SIDE_RIGHT,
    SIDE_UNKNOWN,
)
from .ingest import (
    ensure_uniform,
    load_recording,
    load_reference_events,
    lowpass_accel,
    resample,
    write_recording,
    write_reference_events,
)
from .orientation import align_recording
from .segmentation import detect_turns, eligible_bouts, segment
from .frame import AnatomicalFrame, estimate_frame, to_anatomical, verify_frame
from .stepdetect import (
    WaveletParams,
    assign_laterality,
    detect_events,
    estimate_stride_duration,
    estimate_wavelet_params,
    quality_check,
)
from .evaluate import (
    AggregateSummary,
    MatchReport,
    MetricSet,
    TemporalErrorSet,
    compute_metrics,
    match_events,
    temporal_errors,
    two_stage_aggregate,
)
from .synth import Phase, SynthConfig, generate
from .factors import (
    FactorObservation,
    FitResult,
    PosteriorSummary,
    contrasts,
    load_factor_table,
    sample_posterior,
    sample_prior,
    simulate_dataset,
)
from .pipeline import PipelineConfig, PipelineResult, process_recording

__version__ = "0.1.0"

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]

"""Event matching, performance metrics, temporal errors, and aggregation."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import stats

from .core import ContractError, EmptySetError

DEFAULT_WINDOW_S = 0.5


@dataclass
class MatchReport:
    pairs: list[tuple[float, float]] = field(default_factory=list)   # (detected, reference)
    false_positives: list[float] = field(default_factory=list)
    false_negatives: list[float] = field(default_factory=list)
    kind: str = "IC"

    @property
    def tp(self) -> int:
        return len(self.pairs)

    @property
    def fp(self) -> int:
        return len(self.false_positives)

    @property
    def fn(self) -> int:
        return len(self.false_negatives)

    def errors(self) -> np.ndarray:
        """Signed detection-time differences, positive when detection lags."""
        return np.array([d - r for d, r in self.pairs])


@dataclass
class MetricSet:
    tp: int
    fp: int
    fn: int
    precision: float | None
    recall: float | None
    f1: float | None


@dataclass
class TemporalErrorSet:
    n_steps: int
    constant_s: float
    absolute_s: float
    variable_s: float | None
    total_variability_s: float
    median_s: float
    median_abs_s: float
    iqr_s: float


@dataclass
class AggregateSummary:
    median: float
    iqr: float
    q1: float
    q3: float
    p05: float
    p95: float
    mean: float
    ci95_lo: float | None
    ci95_hi: float | None
    ws_iqr: float | None = None


def match_events(detected, reference, window_s: float = DEFAULT_WINDOW_S,
                 kind: str = "IC") -> MatchReport:
    """Per-reference closest-candidate matching inside a centered window.

    References are processed in time order; the closest unconsumed
    detection within +/- window_s/2 becomes the true positive, with ties
    going to the earlier detection. Times must be finite and sorted, and
    window_s positive and finite.
    """
    det = np.asarray(detected, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if not (np.isfinite(det).all() and np.isfinite(ref).all()):
        raise ContractError("event times must be finite")
    if np.any(det[1:] < det[:-1]) or np.any(ref[1:] < ref[:-1]):
        raise ContractError("event lists must be sorted")
    if not (math.isfinite(window_s) and window_s > 0):
        raise ContractError("window must be positive and finite")
    half = window_s / 2.0
    detected = det.tolist()
    n = len(detected)
    used = [False] * n
    report = MatchReport(kind=kind)
    # d - r is monotone in d and in r: the detections within half of r run
    # on from the first with d - r >= -half, which never moves back as r grows
    lo = 0
    for r in ref.tolist():
        while lo < n and detected[lo] - r < -half:
            lo += 1
        i = lo
        best, best_err = -1, math.inf
        while i < n and detected[i] - r <= half:
            if not used[i] and abs(detected[i] - r) < best_err:
                best, best_err = i, abs(detected[i] - r)
            i += 1
        if best < 0:
            report.false_negatives.append(r)
        else:
            used[best] = True
            report.pairs.append((detected[best], r))
    report.false_positives = [d for d, u in zip(detected, used) if not u]
    return report


def compute_metrics(report: MatchReport) -> MetricSet:
    tp, fp, fn = report.tp, report.fp, report.fn
    precision = tp / (tp + fp) if tp + fp > 0 else None
    recall = tp / (tp + fn) if tp + fn > 0 else None
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return MetricSet(tp=tp, fp=fp, fn=fn, precision=precision, recall=recall, f1=f1)


def temporal_errors(report: MatchReport) -> TemporalErrorSet:
    e = report.errors()
    n = len(e)
    if n == 0:
        raise EmptySetError("no matched pairs")
    constant = float(np.mean(e))
    absolute = float(np.mean(np.abs(e)))
    variable = float(np.std(e, ddof=1)) if n >= 2 else None
    rms = float(np.sqrt(np.mean(e ** 2)))
    q1, q3 = np.quantile(e, [0.25, 0.75])
    return TemporalErrorSet(
        n_steps=n,
        constant_s=constant,
        absolute_s=absolute,
        variable_s=variable,
        total_variability_s=rms,
        median_s=float(np.median(e)),
        median_abs_s=float(np.median(np.abs(e))),
        iqr_s=float(q3 - q1),
    )


def aggregate_within(values_per_participant: dict) -> dict:
    """Per-participant (median, iqr) across that participant's tests."""
    out = {}
    for pid, values in values_per_participant.items():
        v = np.asarray(list(values), dtype=float)
        if len(v) == 0:
            raise EmptySetError(f"participant {pid!r} has no values")
        q1, q3 = np.quantile(v, [0.25, 0.75])
        out[pid] = (float(np.median(v)), float(q3 - q1))
    return out


def aggregate_across(values, within_iqrs=None) -> AggregateSummary:
    """Across-participant order statistics plus a Student-t mean CI."""
    v = np.asarray(list(values), dtype=float)
    if len(v) == 0:
        raise EmptySetError("no values to aggregate")
    q1, q3 = np.quantile(v, [0.25, 0.75])
    p05, p95 = np.quantile(v, [0.05, 0.95])
    mean = float(np.mean(v))
    n = len(v)
    if n >= 2:
        sd = float(np.std(v, ddof=1))
        tcrit = float(stats.t.ppf(0.975, n - 1))
        half = tcrit * sd / np.sqrt(n)
        ci_lo, ci_hi = mean - half, mean + half
    else:
        ci_lo = ci_hi = None
    ws_iqr = None
    if within_iqrs is not None:
        w = np.asarray(list(within_iqrs), dtype=float)
        if len(w):
            ws_iqr = float(np.median(w))
    return AggregateSummary(
        median=float(np.median(v)), iqr=float(q3 - q1),
        q1=float(q1), q3=float(q3), p05=float(p05), p95=float(p95),
        mean=mean, ci95_lo=ci_lo, ci95_hi=ci_hi, ws_iqr=ws_iqr,
    )


def two_stage_aggregate(values_per_participant: dict) -> AggregateSummary:
    """Within-participant median/IQR, then across-participant summary of
    the medians with ws-IQR from the within-participant IQRs."""
    within = aggregate_within(values_per_participant)
    medians = [m for m, _ in within.values()]
    iqrs = [q for _, q in within.values()]
    return aggregate_across(medians, within_iqrs=iqrs)


def metrics_to_json(kind: str, metrics: MetricSet,
                    errors: TemporalErrorSet | None) -> dict:
    return {
        "kind": kind,
        "precision": metrics.precision,
        "recall": metrics.recall,
        "f1": metrics.f1,
        "tp": metrics.tp,
        "fp": metrics.fp,
        "fn": metrics.fn,
        "errors": asdict(errors) if errors is not None else None,
    }


def summary_to_json(summary: AggregateSummary) -> dict:
    return asdict(summary)

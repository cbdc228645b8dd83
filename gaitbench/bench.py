"""Workload drivers, output checks and metrics of the gaitpipe benchmark.

Load model: one client in a closed loop, one process, no extra threads.
Each operation is one call of ``gaitpipe.cli.main`` on files written
during set-up, exactly as a user would run ``gaitpipe process``,
``gaitpipe evaluate`` or ``gaitpipe factors``.
"""
from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy
from scipy import stats

from gaitpipe import (cli, factors, frame, ingest, kernels, orientation,
                      pipeline, segmentation, stepdetect)
from gaitpipe.core import FC, IC, AmbiguousDirectionError, SegmentKind
from gaitpipe.evaluate import MatchReport, compute_metrics, temporal_errors

import workloads
from spans import Hook, Tracer, installed

SETUP_REPEATS = 3
EVALUATE_REPEATS = 3
FIT_WARMUP = 250
FIT_DRAWS = 250
FIT_CHAINS = 2
# A fit takes 30-45 s here, so a run makes a fixed number of fits, not
# as many as --seconds allow: a crash then never changes the work done.
FITS_PER_RUN = 2
# global parameters of the beta-regression model, before one intercept
# per subject
N_GLOBAL_PARAMS = 14

# The last output line carries these; failed_ratio goes out as the
# line's own attempted/failed counts.
PIPELINE_E2E = ["setup_s", "process_samples_per_s", "process_s_p50",
                "evaluate_s_p50", "ic_f1", "fc_f1", "ic_abs_err_ms_p50",
                "side_acc", "bout_jaccard", "peak_rss_mb"]
FACTORS_E2E = ["setup_s", "fit_s_p50", "ess_per_s", "failed_ratio",
               "peak_rss_mb"]

# Per-layer metrics. Every *_s value is self time (span time minus the
# time of child spans); pipeline layers are per recording, factor layers
# per fit.
PIPELINE_LAYERS = {
    "ingest.load_s": "s", "ingest.load_rows": "count",
    "ingest.uniform_s": "s", "ingest.resampled": "count",
    "ingest.lowpass_s": "s", "ingest.write_s": "s",
    "ingest.load_events_s": "s",
    "orientation.madgwick_s": "s", "orientation.samples": "count",
    "orientation.madgwick_us_per_sample": "us", "orientation.align_s": "s",
    "segmentation.segment_s": "s", "segmentation.windows": "count",
    "segmentation.turns_s": "s", "segmentation.turns": "count",
    "segmentation.sharp_turns": "count", "segmentation.bouts_s": "s",
    "segmentation.verify_calls": "count",
    "segmentation.bouts_verified": "count",
    "segmentation.verify_ratio": "ratio", "segmentation.refine_s": "s",
    "segmentation.stride_peak_s": "s",
    "segmentation.stride_peak_calls": "count",
    "segmentation.autocorr_s": "s", "segmentation.autocorr_calls": "count",
    "segmentation.autocorr_samples": "count",
    "frame.estimate_s": "s", "frame.rotate_s": "s", "frame.verify_s": "s",
    "frame.rejected": "count",
    "stepdetect.stride_s": "s", "stepdetect.wavelet_params_s": "s",
    "stepdetect.detect_s": "s", "stepdetect.laterality_s": "s",
    "stepdetect.qc_s": "s", "stepdetect.raw_events": "count",
    "stepdetect.kept_events": "count", "stepdetect.qc_keep_ratio": "ratio",
    "stepdetect.unknown_side": "count",
    "pipeline.self_s": "s", "pipeline.bouts": "count",
    "pipeline.bouts_skipped": "count",
    "evaluate.match_s": "s", "evaluate.detections": "count",
    "evaluate.references": "count", "evaluate.pairs_scanned": "count",
    "cli.write_json_s": "s", "cli.process_self_s": "s",
    "cli.evaluate_self_s": "s",
    "trace.overhead_ratio": "ratio", "trace.process_accounted_ratio": "ratio",
}
FACTORS_LAYERS = {
    "kernels.chain_s": "s", "kernels.chain_iters": "count",
    "kernels.ms_per_iter": "ms", "kernels.loglik_calls": "count",
    "factors.accept_rate": "ratio", "factors.rhat_max": "ratio",
    "factors.failed_fits": "count", "trace.overhead_ratio": "ratio",
}
# span name -> metric, where the metric is not simply "<span>_s"
SELF_METRIC = {"pipeline.process": "pipeline.self_s",
               "cli.process": "cli.process_self_s",
               "cli.evaluate": "cli.evaluate_self_s"}


# ---------------------------------------------------------------------------
# Failures, environment, statistics

@dataclass
class Ledger:
    """Operations attempted and their failures, each with its type.

    An operation fails when it raises (a crash, or the SystemExit of a
    usage error), when the CLI refuses it, or when its output fails a
    check. A refusal is a GaitPipeError, which ``cli.main`` turns into
    exit code 1. It is a typed rejection, but every input here is
    generated to be valid, so a refusal also means a lost result: it
    counts as a failure, so that no input drops out of the metrics
    unseen.
    """

    attempted: int = 0
    failures: list[dict] = field(default_factory=list)

    def call(self, op: str, argv: list[str], tracer: Tracer | None = None,
             root: str | None = None) -> bool:
        """Run ``gaitpipe <argv>`` in-process; True when it succeeded."""
        self.attempted += 1
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    with tracer.span(root, op=op):
                        rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # recorded; the run goes on
            tb = traceback.extract_tb(exc.__traceback__)
            self.failures.append({
                "op": op, "attempt": self.attempted, "kind": "exception",
                "type": type(exc).__name__,
                "message": str(exc),
                "where": f"{Path(tb[-1].filename).name}:{tb[-1].lineno}"
                if tb else None})
            return False
        if rc != 0:
            self.failures.append({
                "op": op, "attempt": self.attempted, "kind": "refusal",
                "type": f"ExitCode{rc}",
                "message": out.getvalue().strip()[-300:]})
        return rc == 0

    def check(self, ok: bool, op: str, what: str,
              attempt: int | None = None) -> bool:
        """Record a failed output check against the operation it checks
        (by default the latest one)."""
        if not ok:
            self.failures.append({
                "op": op, "attempt": attempt or self.attempted,
                "kind": "check", "type": "CheckFailed", "message": what})
        return ok

    @property
    def failed(self) -> int:
        """Operations with at least one failure."""
        return len({f["attempt"] for f in self.failures})

    @property
    def refused(self) -> int:
        return sum(f["kind"] == "refusal" for f in self.failures)


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(root: Path) -> dict:
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "GAITPIPE_NO_NUMBA": os.environ.get("GAITPIPE_NO_NUMBA"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(values: list[float]):
    """(p, value) for the highest of p99/p95/p90/p75 with at least ten
    samples beyond it, or None when there are fewer than 40 samples."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100.0 >= 10:
            return p, float(np.percentile(values, p))
    return None


def bulk_ess(draws: np.ndarray) -> float:
    """Rank-normalized bulk effective sample size of (chains, draws)
    (Vehtari et al. 2021), on split chains, with Geyer's initial
    monotone sequence."""
    n = draws.shape[1] // 2
    x = np.concatenate([draws[:, :n], draws[:, n:2 * n]])
    ranks = stats.rankdata(x, method="average").reshape(x.shape)
    z = stats.norm.ppf((ranks - 0.375) / (x.size + 0.25))
    m = z.shape[0]
    centered = z - z.mean(axis=1, keepdims=True)
    spec = np.fft.rfft(centered, 2 * n, axis=1)
    acov = np.fft.irfft(spec * np.conj(spec), 2 * n, axis=1)[:, :n] / n
    mean_var = acov[:, 0].mean() * n / (n - 1)
    var_plus = mean_var * (n - 1) / n + z.mean(axis=1).var(ddof=1)
    if var_plus <= 0:
        return float(m * n)
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    # Geyer: sum consecutive pairs while positive, then force monotone
    pairs = rho[0:n - 1:2][: (n - 1) // 2] + rho[1:n:2][: (n - 1) // 2]
    k = 0
    while k < len(pairs) and pairs[k] > 0:
        k += 1
    pairs = np.minimum.accumulate(pairs[:k]) if k else pairs[:0]
    tau = -1.0 + 2.0 * float(np.sum(pairs))
    tau = max(tau, 1.0 / np.log10(m * n))
    return float(m * n / tau)


@dataclass
class Result:
    ledger: Ledger
    metrics: dict             # name -> {"value", "unit", "n"}
    tracer: Tracer | None     # the traced run's spans and counters
    missing: list             # hooked functions that do not exist
    samples: dict             # raw timings behind the medians


def metric(value, unit: str, n: int) -> dict:
    return {"value": None if value is None else float(value), "unit": unit,
            "n": n}


# ---------------------------------------------------------------------------
# Hooks: capture for the checks, spans and counters for the traced run

class Capture:
    """Program results captured from outside, for the output checks."""

    def __init__(self):
        self.process = None
        self.matches: list = []
        self.fit = None

    def hooks(self) -> list[Hook]:
        def process(a, k, result, s):
            self.process = result

        def match(a, k, report, s):
            self.matches.append(report)

        def fit(a, k, result, s):
            self.fit = (result, s)

        return [Hook([(pipeline, "process_recording")], after=process),
                Hook([(cli, "match_events")], after=match),
                Hook([(factors, "sample_posterior")], after=fit)]


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def pipeline_hooks(t: Tracer) -> list[Hook]:
    def counter(**keys):
        def after(a, k, r, s):
            for key, fn in keys.items():
                t.count(key, fn(a, k, r))
        return after

    def turns(a, k, r, s):
        cfg = _arg(a, k, 1, "cfg") or segmentation.SegmentationConfig()
        t.count("segmentation.turns", len(r))
        t.count("segmentation.sharp_turns",
                sum(abs(x.angle_deg) >= cfg.sharp_turn_deg for x in r))

    def match(a, k, r, s):
        det, ref = len(a[0]), len(a[1])
        t.count("evaluate.detections", det)
        t.count("evaluate.references", ref)
        t.count("evaluate.pairs_scanned", det * ref)

    return [
        Hook([(ingest, "write_recording"), (ingest, "write_reference_events")],
             "ingest.write"),
        Hook([(ingest, "load_recording")], "ingest.load",
             counter(**{"ingest.load_rows": lambda a, k, r: len(r.t)})),
        Hook([(ingest, "ensure_uniform")], "ingest.uniform",
             counter(**{"ingest.resampled": lambda a, k, r: r is not a[0]})),
        Hook([(ingest, "lowpass_accel")], "ingest.lowpass"),
        Hook([(ingest, "load_reference_events")], "ingest.load_events"),
        Hook([(orientation, "align_recording")], "orientation.align"),
        Hook([(kernels, "madgwick_batch")], "orientation.madgwick",
             counter(**{"orientation.samples": lambda a, k, r: len(a[0])})),
        Hook([(segmentation, "segment")], "segmentation.segment"),
        Hook([(segmentation, "classify_windows")], None,
             counter(**{"segmentation.windows": lambda a, k, r: len(r[1])})),
        Hook([(segmentation, "detect_turns")], "segmentation.turns", turns),
        Hook([(segmentation, "eligible_bouts")], "segmentation.bouts"),
        Hook([(segmentation, "verify_gait")], None,
             counter(**{"segmentation.verify_calls": lambda a, k, r: 1,
                        "segmentation.bouts_verified": lambda a, k, r: bool(r)})),
        Hook([(segmentation, "refine_with_turns")], "segmentation.refine"),
        Hook([(segmentation, "dominant_stride_peak"),
              (stepdetect, "dominant_stride_peak"),
              (frame, "dominant_stride_peak")], "segmentation.stride_peak",
             counter(**{"segmentation.stride_peak_calls": lambda a, k, r: 1})),
        Hook([(segmentation, "unbiased_autocorr"),
              (stepdetect, "unbiased_autocorr")], "segmentation.autocorr",
             counter(**{"segmentation.autocorr_calls": lambda a, k, r: 1,
                        "segmentation.autocorr_samples":
                            lambda a, k, r: len(a[0])})),
        Hook([(frame, "estimate_frame")], "frame.estimate"),
        Hook([(frame, "to_anatomical")], "frame.rotate"),
        Hook([(frame, "verify_frame")], "frame.verify",
             counter(**{"frame.rejected": lambda a, k, r: not r})),
        Hook([(stepdetect, "estimate_stride_duration")], "stepdetect.stride"),
        Hook([(stepdetect, "estimate_wavelet_params")],
             "stepdetect.wavelet_params"),
        Hook([(stepdetect, "detect_events")], "stepdetect.detect",
             counter(**{"stepdetect.raw_events": lambda a, k, r: len(r)})),
        Hook([(stepdetect, "assign_laterality")], "stepdetect.laterality",
             counter(**{"stepdetect.unknown_side":
                        lambda a, k, r: sum(e.side == "U" for e in r)})),
        Hook([(stepdetect, "quality_check")], "stepdetect.qc",
             counter(**{"stepdetect.kept_events": lambda a, k, r: len(r)})),
        Hook([(pipeline, "process_recording")], "pipeline.process",
             counter(**{"pipeline.bouts": lambda a, k, r: len(r.bouts),
                        "pipeline.bouts_skipped": lambda a, k, r: sum(
                            b.skipped_reason is not None for b in r.bouts)})),
        Hook([(cli, "match_events")], "evaluate.match", match),
        Hook([(cli, "write_json_atomic")], "cli.write_json"),
    ]


def factors_hooks(t: Tracer) -> list[Hook]:
    def chain(a, k, r, s):
        t.count("kernels.chain_iters", int(a[2]) + int(a[3]))
        t.count("kernels.chain_ok_s", s)

    return [
        Hook([(factors, "sample_posterior")], "factors.sample_posterior"),
        Hook([(kernels, "chain")], "kernels.chain", chain),
        Hook([(kernels, "loglik_range")], None,
             lambda a, k, r, s: t.count("kernels.loglik_calls")),
    ]


# ---------------------------------------------------------------------------
# Pipeline workloads: long-walk and daily-living

@dataclass
class Files:
    recording: str
    truth: str
    events: str
    segments: str
    metrics: str


@dataclass
class Processed:
    name: str
    attempt: int              # ledger number of the operation
    samples: int
    seconds: float
    outputs: tuple            # (events JSON, segments JSON) as parsed
    result: object            # in-process PipelineResult


@dataclass
class Evaluated:
    name: str
    attempt: int
    seconds: float
    outputs: dict             # metrics JSON as parsed
    reports: dict             # kind -> MatchReport


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def process_op(item, files: Files, ledger: Ledger, capture: Capture,
               tracer: Tracer | None) -> Processed | None:
    """`gaitpipe process` on one recording, checked against the
    in-process result."""
    capture.process = None
    op = f"process:{item.name}"
    t0 = time.perf_counter()
    ok = ledger.call(op, ["process", files.recording, "--out-events",
                          files.events, "--out-segments", files.segments],
                     tracer, "cli.process")
    seconds = time.perf_counter() - t0
    if not ok:
        return None
    result = capture.process
    if not ledger.check(result is not None, op,
                        "pipeline.process_recording was not called"):
        return None
    events_doc = _load_json(files.events)
    segments_doc = _load_json(files.segments)
    ok = ledger.check(pipeline.events_from_json(events_doc) == result.events,
                      op, "events JSON differs from the in-process result")
    ok &= ledger.check(
        segments_doc == pipeline.segments_to_json(result.segments), op,
        "segments JSON differs from the in-process result")
    if not ok:
        return None
    return Processed(item.name, ledger.attempted, len(item.rec.t), seconds,
                     (events_doc, segments_doc), result)


def evaluate_op(item, processed: Processed, files: Files, ledger: Ledger,
                capture: Capture, tracer: Tracer | None) -> Evaluated | None:
    """`gaitpipe evaluate` of the detected events against the truth."""
    capture.matches = []
    op = f"evaluate:{item.name}"
    t0 = time.perf_counter()
    ok = ledger.call(op, ["evaluate", files.events, files.truth,
                          "--participant", item.name, "--out", files.metrics],
                     tracer, "cli.evaluate")
    seconds = time.perf_counter() - t0
    if not ok:
        return None
    metrics_doc = _load_json(files.metrics)
    reports = {r.kind: r for r in capture.matches}
    ok = True
    for kind in (IC, FC):
        n_ref = sum(e.kind == kind for e in item.events)
        n_det = sum(e.kind == kind for e in processed.result.events)
        doc = metrics_doc.get(kind) or {}
        ok &= ledger.check(
            kind in reports and doc.get("tp") == reports[kind].tp
            and doc.get("tp", 0) + doc.get("fn", 0) == n_ref
            and doc.get("tp", 0) + doc.get("fp", 0) == n_det, op,
            f"{kind} metrics do not conserve the event counts")
    if not ok:
        return None
    return Evaluated(item.name, ledger.attempted, seconds, metrics_doc, reports)


class Repeats:
    """Timings of repeated operations, grouped by recording.

    The first result per recording is kept for the quality metrics; a
    later one must repeat its outputs, is checked and dropped, so the
    benchmark holds one result per recording.
    """

    def __init__(self, ledger: Ledger, what: str):
        self.ledger = ledger
        self.what = what
        self.first: dict = {}
        self.seconds: dict[str, list[float]] = {}

    def add(self, result) -> None:
        if result is None:
            return
        self.seconds.setdefault(result.name, []).append(result.seconds)
        if result.name not in self.first:
            self.first[result.name] = result
        else:
            check_same_outputs(self.ledger, [self.first[result.name]],
                               [result], self.what)

    def summary(self, name: str, report: dict) -> list[float]:
        """Put `<name>_p50` and its tail percentile into report. The p50
        is the median over recordings of each recording's median, which
        keeps a burst of load from other processes on the machine out of
        the figure while it spans fewer than half of a recording's
        repeats. Returns the per-recording medians."""
        values = [t for v in self.seconds.values() for t in v]
        medians = [statistics.median(v) for v in self.seconds.values()]
        report[f"{name}_p50"] = metric(
            statistics.median(medians) if medians else None, "s", len(values))
        tail = tail_percentile(values)
        if tail:
            report[f"{name}_p{tail[0]}"] = metric(tail[1], "s", len(values))
        return medians


def check_same_outputs(ledger: Ledger, reference: list, later: list,
                       what: str) -> None:
    first = {r.name: r.outputs for r in reference}
    for r in later:
        ledger.check(first.get(r.name) == r.outputs, r.name,
                     f"{what} gave other outputs", r.attempt)


def _overlap(a, b) -> float:
    """Total length of the intersection of two sorted interval lists."""
    i = j = 0
    total = 0.0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        total += max(0.0, hi - lo)
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def pooled(reports, kind: str) -> MatchReport:
    """One MatchReport over the reports of several recordings."""
    out = MatchReport(kind=kind)
    for r in reports:
        out.pairs += r.pairs
        out.false_positives += r.false_positives
        out.false_negatives += r.false_negatives
    return out


def quality(items, processed: list[Processed],
            evaluated: list[Evaluated]) -> dict:
    """F1 and the IC timing error from the program's own evaluate
    functions; side accuracy and bout overlap are the benchmark's."""
    by_name = {i.name: i for i in items}
    results = {p.name: p.result for p in processed}
    side_ok = 0
    inter = union = 0.0
    for o in evaluated:
        item = by_name[o.name]
        result = results[o.name]
        det_side = {e.time_s: e.side for e in result.events if e.kind == IC}
        ref_side = {e.time_s: e.side for e in item.events if e.kind == IC}
        side_ok += sum(det_side[d] == ref_side[r] for d, r in o.reports[IC].pairs)
        got = [(s.start_s, s.end_s) for s in result.segments
               if s.kind == SegmentKind.GAIT_BOUT]
        want = [(s.start_s, s.end_s) for s in item.segments
                if s.kind == SegmentKind.GAIT_BOUT]
        both = _overlap(got, want)
        inter += both
        union += sum(b - a for a, b in got) + sum(b - a for a, b in want) - both
    ic = pooled((o.reports[IC] for o in evaluated), IC)
    fc = pooled((o.reports[FC] for o in evaluated), FC)
    return {
        "ic_f1": metric(compute_metrics(ic).f1, "ratio", ic.tp + ic.fn),
        "fc_f1": metric(compute_metrics(fc).f1, "ratio", fc.tp + fc.fn),
        "ic_abs_err_ms_p50": metric(
            1000.0 * temporal_errors(ic).median_abs_s if ic.pairs else None,
            "ms", ic.tp),
        "side_acc": metric(side_ok / ic.tp if ic.tp else None, "ratio", ic.tp),
        "bout_jaccard": metric(inter / union if union else None, "ratio",
                               len(evaluated)),
    }


def setup_pipeline(make_items, seed, smoke, workdir: Path, tracer):
    """Generate, write and warm up; repeated so setup_s is a median."""
    times = []
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with (tracer.span("setup", op=f"setup:{rep}") if tracer
              else contextlib.nullcontext()):
            items = make_items(seed, smoke)
            files = {}
            for item in items + [workloads.warmup_walk(seed)]:
                stem = workdir / item.name
                files[item.name] = Files(*(f"{stem}.{ext}" for ext in (
                    "csv", "truth.csv", "events.json", "segments.json",
                    "metrics.json")))
                item.write(files[item.name].recording, files[item.name].truth)
            warm = Ledger()
            for argv in (["process", files["warmup"].recording,
                          "--out-events", files["warmup"].events,
                          "--out-segments", files["warmup"].segments],
                         ["evaluate", files["warmup"].events,
                          files["warmup"].truth, "--out",
                          files["warmup"].metrics]):
                warm.call("warmup", argv)
        times.append(time.perf_counter() - t0)
    return items, files, times


def pipeline_layers(tracer: Tracer, n_items: int, untraced: list,
                    traced: list) -> dict:
    """Per-recording layer metrics of the traced pass. untraced and
    traced hold a (Processed, Evaluated) pair per recording, in the
    same order."""
    self_s = tracer.self_times("process")
    for name, v in tracer.self_times("evaluate").items():
        self_s[name] += v
    out = {}
    for name, v in self_s.items():
        key = SELF_METRIC.get(name, f"{name}_s")
        if key in PIPELINE_LAYERS:
            out[key] = v / n_items
    setup_writes = tracer.self_times("setup").get("ingest.write", 0.0)
    out["ingest.write_s"] = setup_writes / (SETUP_REPEATS * n_items)
    for key, unit in PIPELINE_LAYERS.items():
        if unit == "count":
            out[key] = tracer.counted(key, ("process", "evaluate")) / n_items
    out["frame.rejected"] += sum(
        s.name == "frame.estimate"
        and s.error == AmbiguousDirectionError.__name__
        for s in tracer.spans if s.op.startswith("process:")) / n_items

    def ratio(a, b):
        return a / b if b else None

    out["orientation.madgwick_us_per_sample"] = ratio(
        1e6 * out.get("orientation.madgwick_s", 0.0),
        out.get("orientation.samples", 0.0))
    out["segmentation.verify_ratio"] = ratio(
        out.get("segmentation.bouts_verified", 0.0),
        out.get("segmentation.verify_calls", 0.0))
    out["stepdetect.qc_keep_ratio"] = ratio(
        out.get("stepdetect.kept_events", 0.0),
        out.get("stepdetect.raw_events", 0.0))
    # Medians over recordings, each traced call against the untraced
    # call of the same recording just before it.
    overhead, accounted = [], []
    for a, b in zip(untraced, traced):
        if None in a or None in b:
            continue
        wall_a = a[0].seconds + a[1].seconds
        overhead.append((b[0].seconds + b[1].seconds - wall_a) / wall_a)
        layers = sum(v for name, v in tracer.self_times(
            op=f"process:{b[0].name}").items() if name != "cli.process")
        accounted.append(layers / a[0].seconds)
    out["trace.overhead_ratio"] = (statistics.median(overhead)
                                   if overhead else None)
    out["trace.process_accounted_ratio"] = (statistics.median(accounted)
                                            if accounted else None)
    return {key: metric(out.get(key), unit, n_items)
            for key, unit in PIPELINE_LAYERS.items()}


def another_pass(elapsed: float, last_pass: float, seconds: float) -> bool:
    """Whether a timed run starts another pass. It stops at --seconds,
    or before a pass that would end more than half a pass after it, so a
    long pass (long-walk's take 40-60 s) is never doubled."""
    return elapsed + last_pass / 2 < seconds


def pipeline_workload(make_items, args, workdir: Path, import_s: float):
    ledger = Ledger()
    capture = Capture()
    tracer = Tracer() if args.trace else None
    hooks = pipeline_hooks(tracer) if tracer else []
    with installed(hooks, tracer):
        items, files, setup_times = setup_pipeline(
            make_items, args.seed, args.smoke, workdir, tracer)

    def process(item, tracer=None):
        return process_op(item, files[item.name], ledger, capture, tracer)

    def evaluate(item, done, tracer=None):
        return evaluate_op(item, done, files[item.name], ledger, capture,
                           tracer)

    def expect_every(complete) -> None:
        """Every generated recording must give all of its results."""
        lost = [i.name for i in items if i.name not in complete]
        ledger.check(not lost, "run",
                     f"no process or evaluate result for {', '.join(lost)}")

    report: dict = {}
    missing: list = []
    samples: dict = {}
    if not args.trace:
        # Whole passes, so every recording weighs the same. Evaluate is
        # short next to process, so each recording is evaluated
        # EVALUATE_REPEATS times per pass: its samples then spread over
        # the whole run, and long-walk's median rests on more than one.
        # A pass ends whether or not its operations succeeded, so a
        # failing program still gives a result line.
        proc = Repeats(ledger, "a repeated process")
        ev = Repeats(ledger, "a repeated evaluate")
        t0 = time.perf_counter()
        with installed(capture.hooks()):
            while True:
                t_pass = time.perf_counter()
                for item in items:
                    done = process(item)
                    proc.add(done)
                    for _ in range(EVALUATE_REPEATS if done else 0):
                        ev.add(evaluate(item, done))
                now = time.perf_counter()
                if not another_pass(now - t0, now - t_pass, args.seconds):
                    break
        expect_every(proc.first.keys() & ev.first.keys())
        samples = {"setup_s": setup_times, "process_s": proc.seconds,
                   "evaluate_s": ev.seconds}
        report["setup_s"] = metric(import_s + statistics.median(setup_times),
                                   "s", SETUP_REPEATS)
        medians = proc.summary("process_s", report)
        report["process_samples_per_s"] = metric(
            sum(r.samples for r in proc.first.values()) / sum(medians)
            if medians else None, "samples/s",
            sum(map(len, proc.seconds.values())))
        ev.summary("evaluate_s", report)
        processed, evaluated = list(proc.first.values()), list(ev.first.values())
        report.update(quality(items, processed, evaluated))
    else:
        # Each recording runs untraced and then traced, back to back, so
        # that the pair sees the same machine speed.
        untraced, traced = [], []
        for item in items:
            with installed(capture.hooks()):
                done = process(item)
                untraced.append((done, evaluate(item, done) if done else None))
            with installed(capture.hooks()), installed(hooks, tracer) as missing:
                done = process(item, tracer)
                traced.append((done, evaluate(item, done, tracer)
                               if done else None))
        for kind in (0, 1):
            check_same_outputs(ledger, [p[kind] for p in untraced if p[kind]],
                               [p[kind] for p in traced if p[kind]],
                               "the traced run")
        expect_every({a[0].name for a, b in zip(untraced, traced)
                      if None not in a + b})
        report.update(pipeline_layers(tracer, len(items), untraced, traced))
    return Result(ledger, report, tracer, missing, samples)


# ---------------------------------------------------------------------------
# Factors workload

def fit_op(name, table, fit_seed, n_sub, draws, warmup, out, ledger, capture,
           tracer):
    capture.fit = None
    op = f"fit:{name}:seed{fit_seed}"
    if not ledger.call(op, ["factors", table, "--draws", str(draws),
                            "--warmup", str(warmup), "--chains",
                            str(FIT_CHAINS), "--seed", str(fit_seed),
                            "--out", out], tracer, "cli.factors"):
        return None
    if not ledger.check(capture.fit is not None, op,
                        "factors.sample_posterior was not called"):
        return None
    fit, seconds = capture.fit
    chain_draws = fit.chain_draws
    ok = ledger.check(
        chain_draws.shape == (FIT_CHAINS, draws, N_GLOBAL_PARAMS + n_sub)
        and bool(np.all(np.isfinite(chain_draws))), op,
        f"draws of shape {chain_draws.shape} not finite or not "
        f"({FIT_CHAINS}, {draws}, {N_GLOBAL_PARAMS} + {n_sub})")
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    ok &= ledger.check(len(doc.get("contrasts", [])) == 4, op,
                       "posterior JSON lacks the four contrasts")
    if not ok:
        return None
    per_chain = [factors.contrast_draws(SimpleNamespace(draws=chain_draws[c]))
                 for c in range(FIT_CHAINS)]
    ess = min(bulk_ess(np.stack([d[name_] for d in per_chain]))
              for name_ in factors.CONTRAST_NAMES)
    return SimpleNamespace(seconds=seconds, ess=ess, fit=fit)


def factors_workload(args, workdir: Path, import_s: float):
    ledger = Ledger()
    capture = Capture()
    draws = 20 if args.smoke else FIT_DRAWS
    warmup = 20 if args.smoke else FIT_WARMUP
    n_fits = 1 if args.smoke else FITS_PER_RUN
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        tables = workloads.factor_tables(args.seed, n_fits, args.smoke)
        paths = {}
        for name, obs, _n in tables:
            paths[name] = str(workdir / f"{name}.csv")
            workloads.write_factor_table(obs, paths[name])
        small = workloads.factor_tables(args.seed, 1, smoke=True)[0]
        warm_path = str(workdir / "warmup.csv")
        workloads.write_factor_table(small[1], warm_path)
        Ledger().call("warmup", ["factors", warm_path, "--draws", "4",
                                 "--warmup", "4", "--out",
                                 str(workdir / "warmup.json")])
        times.append(time.perf_counter() - t0)

    def run_fits(tracer=None):
        """n_fits fits on the tables in turn, failed or not."""
        outcomes = []
        t0 = time.perf_counter()
        for i in range(n_fits):
            name, _obs, n_sub = tables[i % len(tables)]
            outcomes.append(fit_op(name, paths[name], args.seed * 100 + i,
                                   n_sub, draws, warmup,
                                   str(workdir / f"fit{i}.json"), ledger,
                                   capture, tracer))
        return outcomes, time.perf_counter() - t0

    report: dict = {}
    tracer = None
    missing = []
    if not args.trace:
        with installed(capture.hooks()):
            outcomes, _wall = run_fits()
        done = [o for o in outcomes if o is not None]
        report["setup_s"] = metric(import_s + statistics.median(times), "s",
                                   SETUP_REPEATS)
        fit_s = [o.seconds for o in done]
        report["fit_s_p50"] = metric(
            statistics.median(fit_s) if fit_s else None, "s", len(fit_s))
        tail = tail_percentile(fit_s)
        if tail:
            report[f"fit_s_p{tail[0]}"] = metric(tail[1], "s", len(fit_s))
        report["ess_per_s"] = metric(
            statistics.median(o.ess / o.seconds for o in done) if done
            else None, "1/s", len(done))
    else:
        with installed(capture.hooks()):
            untraced, wall_a = run_fits()
        tracer = Tracer()
        with installed(capture.hooks()), \
                installed(factors_hooks(tracer), tracer) as missing:
            traced, wall_b = run_fits(tracer=tracer)
        for a, b in zip(untraced, traced):
            if a is not None and b is not None:
                ledger.check(np.array_equal(a.fit.chain_draws,
                                            b.fit.chain_draws),
                             "fit", "the traced run gave other draws")
        done = [o for o in traced if o is not None]
        n = len(traced)
        self_s = tracer.self_times("fit")
        iters = tracer.counted("kernels.chain_iters", ["fit"])
        values = {
            "kernels.chain_s": self_s.get("kernels.chain", 0.0) / n,
            "kernels.chain_iters": iters / n,
            "kernels.ms_per_iter": (
                1000.0 * tracer.counted("kernels.chain_ok_s", ["fit"]) / iters
                if iters else None),
            "kernels.loglik_calls": tracer.counted("kernels.loglik_calls",
                                                   ["fit"]) / n,
            "factors.accept_rate": (float(np.mean([np.mean(o.fit.accept_rates)
                                                   for o in done]))
                                    if done else None),
            "factors.rhat_max": (max(o.fit.max_rhat for o in done)
                                 if done else None),
            "factors.failed_fits": float(sum(o is None for o in traced)),
            "trace.overhead_ratio": (wall_b - wall_a) / wall_a,
        }
        report.update({k: metric(v, FACTORS_LAYERS[k], n)
                       for k, v in values.items()})
    return Result(ledger, report, tracer, missing,
                  {"setup_s": times, "fit_s": fit_s} if not args.trace else {})


WORKLOADS = {
    "long-walk": lambda args, wd, imp: pipeline_workload(
        workloads.long_walk, args, wd, imp),
    "daily-living": lambda args, wd, imp: pipeline_workload(
        workloads.daily_living, args, wd, imp),
    "factors": factors_workload,
}

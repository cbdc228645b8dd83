"""Batch command-line front end.

Subcommands: process, evaluate, aggregate, synth, factors, config.
All output files are written atomically (temp file + rename).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from . import factors as factors_mod
from . import ingest, pipeline, synth
from .core import (FC, IC, ContractError, EmptySetError, GaitPipeError, ParseError,
                   PipelineConfig, finite_number, read_json)
from .evaluate import (
    DEFAULT_WINDOW_S,
    aggregate_across,
    compute_metrics,
    match_events,
    metrics_to_json,
    summary_to_json,
    temporal_errors,
    two_stage_aggregate,
)


def write_json_atomic(doc, path, dumps=None) -> None:
    """Write doc as JSON indented by two spaces, and a final newline,
    through a temp file and a rename. ``dumps`` may give that text faster
    for a document of known shape (pipeline.events_json_text). A
    non-finite number, which JSON cannot hold, raises ContractError and
    writes nothing."""
    try:
        text = dumps(doc) if dumps else json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ContractError(f"{path}: {exc}") from None
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_process(args) -> int:
    config = PipelineConfig.load(args.config) if args.config else PipelineConfig()
    rec = ingest.load_recording(args.recording)
    result = pipeline.process_recording(rec, config)
    write_json_atomic(result.events, args.out_events, pipeline.events_json_text)
    write_json_atomic(pipeline.segments_to_json(result.segments), args.out_segments)
    skipped = [b for b in result.bouts if b.skipped_reason]
    for b in skipped:
        print(f"bout {b.start_s:.2f}-{b.end_s:.2f} s skipped: {b.skipped_reason}",
              file=sys.stderr)
    print(f"{len(result.events)} events in "
          f"{sum(1 for b in result.bouts if not b.skipped_reason)} bouts")
    return 0


def _times_by_kind(times: list[float], kinds: list[str]) -> dict[str, np.ndarray]:
    """The sorted times of each kind. The sort is stable, so equal times
    (-0.0 and 0.0) keep their order in the file."""
    times, kinds = np.array(times, dtype=float), np.array(kinds, dtype=str)
    return {kind: np.sort(times[kinds == kind], kind="stable") for kind in (IC, FC)}


def cmd_evaluate(args) -> int:
    # columns all the way: a GaitEvent per event would keep ~13k objects
    # that the garbage collector tracks alive through a 1 h walk's call
    det_times, det_kinds, _ = pipeline.event_columns_from_json(read_json(args.events))
    ref_times, ref_kinds, _ = ingest.load_reference_events(args.reference, columns=True)
    det_times = _times_by_kind(det_times, det_kinds)
    ref_times = _times_by_kind(ref_times, ref_kinds)
    out = {"window_s": args.window, "participant": args.participant}
    for kind in (IC, FC):
        report = match_events(det_times[kind], ref_times[kind],
                              window_s=args.window, kind=kind)
        metrics = compute_metrics(report)
        errors = temporal_errors(report) if report.tp else None
        out[kind] = metrics_to_json(kind, metrics, errors)
    write_json_atomic(out, args.out)
    for kind in (IC, FC):
        print(f"{kind}: f1={out[kind]['f1']}")
    return 0


def cmd_aggregate(args) -> int:
    per_kind: dict[str, dict[str, list[float]]] = {IC: {}, FC: {}}
    for path in args.metrics:
        doc = read_json(path)
        if not (isinstance(doc, dict) and doc.get("participant") is not None):
            raise ParseError(f"{path}: a metrics file must be an object with a participant")
        for kind in (IC, FC):
            entry = {} if doc.get(kind) is None else doc[kind]
            if not isinstance(entry, dict):
                raise ParseError(f"{path}: {kind} must be an object or null, "
                                 f"got {type(entry).__name__}")
            if entry.get(args.metric) is not None:
                per_kind[kind].setdefault(str(doc["participant"]), []).append(
                    finite_number(entry[args.metric], path, f"{kind} {args.metric}"))
    if not (per_kind[IC] or per_kind[FC]):
        raise EmptySetError(f"no {args.metric} values in {len(args.metrics)} metrics files")
    out = {"metric": args.metric, "two_stage": args.two_stage}
    for kind in (IC, FC):
        groups = per_kind[kind]
        if not groups:
            out[kind] = None
            continue
        # finite values near the float maximum can overflow; the writer
        # refuses the result, so numpy need not warn of it
        with np.errstate(over="ignore", invalid="ignore"):
            summary = (two_stage_aggregate(groups) if args.two_stage
                       else aggregate_across([v for vals in groups.values() for v in vals]))
        out[kind] = summary_to_json(summary)
    write_json_atomic(out, args.out)
    print(f"aggregated {sum(len(v) for k in per_kind.values() for v in k.values())} "
          f"values from {len(args.metrics)} files")
    return 0


def cmd_synth(args) -> int:
    cfg = synth.SynthConfig.load(args.config) if args.config else synth.SynthConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    rec, events, segments, _turns = synth.generate(cfg)
    ingest.write_recording(rec, args.out_recording)
    ingest.write_reference_events(events, args.out_events)
    write_json_atomic(pipeline.segments_to_json(segments), args.out_segments)
    print(f"wrote {len(rec.t)} samples, {len(events)} events")
    return 0


def cmd_factors(args) -> int:
    data = factors_mod.load_factor_table(args.table)
    result = factors_mod.sample_posterior(
        data, n_draws=args.draws, n_warmup=args.warmup, seed=args.seed,
        n_chains=args.chains, prior_scale=args.prior_scale)
    summaries = factors_mod.contrasts(result)
    doc = {
        "n_observations": len(data),
        "n_subjects": result.n_sub,
        "accept_rates": result.accept_rates,
        "max_rhat": result.max_rhat,
        "contrasts": [s.to_json() for s in summaries],
    }
    write_json_atomic(doc, args.out)
    for s in summaries:
        print(f"{s.name}: mean={s.mean:.3f} median={s.median:.3f} "
              f"std={s.std:.3f}")
    return 0


def cmd_config(args) -> int:
    if args.print_defaults:
        json.dump(PipelineConfig().to_json(), sys.stdout, indent=2)
        print()
        return 0
    print("nothing to do; use --print-defaults", file=sys.stderr)
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaitpipe",
        description="Placement-agnostic smartphone gait event detection")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("process", help="detect gait events in a recording CSV")
    p.add_argument("recording")
    p.add_argument("--config")
    p.add_argument("--out-events", default="events.json")
    p.add_argument("--out-segments", default="segments.json")
    p.set_defaults(func=cmd_process)

    p = sub.add_parser("evaluate", help="score detected events against a reference")
    p.add_argument("events")
    p.add_argument("reference")
    p.add_argument("--window", type=float, default=DEFAULT_WINDOW_S)
    p.add_argument("--participant")
    p.add_argument("--out", default="metrics.json")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("aggregate", help="aggregate metrics files across participants")
    p.add_argument("metrics", nargs="+")
    p.add_argument("--metric", default="f1")
    p.add_argument("--two-stage", action="store_true")
    p.add_argument("--out", default="summary.json")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("synth", help="generate a synthetic recording with ground truth")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out-recording", default="recording.csv")
    p.add_argument("--out-events", default="events_truth.csv")
    p.add_argument("--out-segments", default="segments_truth.json")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("factors", help="fit the beta-regression factor model")
    p.add_argument("table")
    p.add_argument("--draws", type=int, default=1000)
    p.add_argument("--warmup", type=int, default=1000)
    p.add_argument("--chains", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prior-scale", type=float,
                   default=factors_mod.DEFAULT_PRIOR_SCALE)
    p.add_argument("--out", default="posterior.json")
    p.set_defaults(func=cmd_factors)

    p = sub.add_parser("config", help="configuration helpers")
    p.add_argument("--print-defaults", action="store_true")
    p.set_defaults(func=cmd_config)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, GaitPipeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs for the benchmark workloads.

Everything here is input generation: the program under test only ever
sees the CSV and table files written from these objects.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from gaitpipe import factors, ingest, synth
from gaitpipe.core import GaitEvent, ImuRecording, Segment, random_unit_quat
from gaitpipe.synth import Phase

FS = 50.0
NOISE_SIGMA = 0.3
# The matcher's cost grows with the square of the event count, so the
# long walk varies cadence only by +/-2 %: a wider band would make the
# per-recording evaluate time differ between seeds by more than the
# benchmark's bound (see NOTES.md).
LONG_WALK_STRIDE_S = (1.08, 1.12)
DAILY_STRIDE_S = (0.95, 1.25)
# Timestamp jitter, as a share of the sample period, in both directions.
# It keeps timestamps increasing and sends ensure_uniform down its
# resample path.
JITTER_SAMPLES = 0.1


@dataclass
class Recording:
    name: str
    rec: ImuRecording
    events: list[GaitEvent]
    segments: list[Segment]

    def write(self, recording_path, events_path) -> None:
        ingest.write_recording(self.rec, recording_path)
        ingest.write_reference_events(self.events, events_path)


def _synth(name, rng, duration_s, stride_s, script=None) -> Recording:
    cfg = synth.SynthConfig(
        duration_s=duration_s, sample_rate_hz=FS,
        stride_s=float(stride_s), noise_sigma=NOISE_SIGMA,
        sensor_rotation=random_unit_quat(rng), script=script,
        seed=int(rng.integers(2**31)))
    rec, events, segments, _turns = synth.generate(cfg)
    return Recording(name, rec, events, segments)


def long_walk(seed: int, smoke: bool = False) -> list[Recording]:
    """One continuous straight walk of 1 h (smoke: 60 s)."""
    rng = np.random.default_rng([seed, 1])
    duration = 60.0 if smoke else 3600.0
    return [_synth("walk00", rng, duration, rng.uniform(*LONG_WALK_STRIDE_S))]


def _scaled(rng, n: int, low: float, high: float, total: float) -> np.ndarray:
    """n durations drawn from U(low, high), their excess over low scaled
    so that they sum to total."""
    excess = rng.uniform(low, high, n) - low
    return low + excess * (total - n * low) / excess.sum()


def daily_script(rng: np.random.Generator, smoke: bool = False) -> list[Phase]:
    """An initial rest, then blocks of walk [turn walk] rest.

    Every recording has the same number of blocks and turns and the same
    walking time; only durations, order, angles and directions vary. A
    recording's cost grows with its walking time (and the matcher's with
    its square), so free totals would make the run's cost differ between
    seeds by more than the bound allows.
    """
    blocks, turns, walk_s, rest_s = (2, 1, 45.0, 16.0) if smoke else \
        (8, 5, 200.0, 64.0)
    with_turn = set(rng.choice(blocks, turns, replace=False).tolist())
    walks = iter(_scaled(rng, blocks + turns, 6.0, 25.0, walk_s))
    rests = _scaled(rng, blocks, 1.0, 15.0, rest_s)
    rests[-1] = max(rests[-1], 3.0)       # end on a rest, not at a bout
    phases = [Phase("rest", float(rng.uniform(3.0, 6.0)))]
    for i in range(blocks):
        phases.append(Phase("walk", float(next(walks))))
        if i in with_turn:
            angle = float(rng.uniform(30.0, 180.0)) * rng.choice([-1.0, 1.0])
            phases.append(Phase("turn", float(rng.uniform(1.0, 3.0)), angle))
            phases.append(Phase("walk", float(next(walks))))
        phases.append(Phase("rest", float(rests[i])))
    return phases


def jitter_timestamps(rec: ImuRecording, rng: np.random.Generator) -> ImuRecording:
    period = 1.0 / rec.sample_rate
    t = rec.t + rng.uniform(-JITTER_SAMPLES, JITTER_SAMPLES, len(rec.t)) * period
    return ImuRecording(t=t, accel=rec.accel, gyro=rec.gyro,
                        device_id=rec.device_id, session_id=rec.session_id)


def daily_living(seed: int, smoke: bool = False) -> list[Recording]:
    """Scripted ~5 min recordings (smoke: one of ~1 min) with jitter.

    The strides are spread evenly over DAILY_STRIDE_S and dealt out in a
    seeded order. The matcher's cost grows with the square of a
    recording's event count, so drawing each stride independently would
    make the run's cost differ between seeds more than the bound allows.
    """
    rng = np.random.default_rng([seed, 2])
    count = 1 if smoke else 12
    strides = rng.permutation(np.linspace(*DAILY_STRIDE_S, count))
    out = []
    for i, stride in enumerate(strides):
        script = daily_script(rng, smoke)
        duration = sum(p.duration_s for p in script)
        r = _synth(f"daily{i:02d}", rng, duration, stride, script)
        r.rec = jitter_timestamps(r.rec, rng)
        out.append(r)
    return out


def warmup_walk(seed: int) -> Recording:
    """A 30 s walk processed once before timing, never measured."""
    rng = np.random.default_rng([seed, 3])
    return _synth("warmup", rng, 30.0, rng.uniform(*DAILY_STRIDE_S))


FACTOR_HEADER = ["f1", "age", "sex", "disease", "subject", "environment", "aid"]
DISEASE_NAMES = {v: k for k, v in factors.DISEASE_LEVELS.items()}


def factor_tables(seed: int, count: int, smoke: bool = False):
    """(name, observations, n_subjects) from factors.simulate_dataset."""
    n_sub, per_sub = (6, 4) if smoke else (60, 10)
    out = []
    for i in range(count):
        obs, _truth = factors.simulate_dataset(
            n_subjects=n_sub, obs_per_subject=per_sub, seed=seed * 100 + i)
        out.append((f"table{i:02d}", obs, n_sub))
    return out


def write_factor_table(observations, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FACTOR_HEADER)
        for o in observations:
            writer.writerow([repr(o.f1), repr(o.age_z), o.sex,
                             DISEASE_NAMES[o.disease_idx], o.subject_idx,
                             o.environment, o.aid])

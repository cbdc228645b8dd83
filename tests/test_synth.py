import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitpipe import stepdetect, synth
from gaitpipe.core import (
    DEFAULT_CONFIG,
    ConfigurationError,
    FC,
    GaitEvent,
    IC,
    Segment,
    SegmentKind,
    SIDE_LEFT,
    SIDE_RIGHT,
    quat_to_matrix,
    random_unit_quat,
)
from gaitpipe.segmentation import TurnInterval, refine_with_turns
from gaitpipe.synth import Phase

G = 9.81


def reference_truth(cfg):
    """(events, segments) of cfg as generate built them before its truth
    became an event table labelled by segmentation.label_runs: one
    GaitEvent at a time, and one segment per walk run and per rest phase
    with synth's own copy of the segment-kind rule, its 2 s thresholds
    written as literals and every walk run a GaitBout."""
    stride = cfg.stride_s
    phases = cfg.script or [Phase("walk", cfg.duration_s)]
    starts = np.concatenate([[0.0], np.cumsum([p.duration_s for p in phases])])
    events, segments, turns = [], [], []
    walk_run_start = None

    def close_walk_run(end_s):
        nonlocal walk_run_start
        if walk_run_start is not None and end_s > walk_run_start:
            segments.append(Segment(start_s=walk_run_start, end_s=end_s,
                                    kind=SegmentKind.GAIT_BOUT))
            walk_run_start = None

    for phase, a, b in zip(phases, starts[:-1], starts[1:]):
        if phase.kind == "rest":
            close_walk_run(a)
            near_edge = a < 2.0 or cfg.duration_s - b < 2.0
            if near_edge:
                kind = SegmentKind.BOUNDARY
            elif b - a < 2.0:
                kind = SegmentKind.SHORT_REST
            else:
                kind = SegmentKind.LONG_REST
            segments.append(Segment(start_s=a, end_s=b, kind=kind))
            continue
        if walk_run_start is None:
            walk_run_start = a
        if phase.kind == "turn":
            turns.append(TurnInterval(start_s=a, end_s=b, angle_deg=phase.angle_deg))
            continue
        k = int(np.ceil((a / stride - cfg.ic_phase) * 2.0))
        while True:
            tic = (cfg.ic_phase + k / 2.0) * stride
            if tic >= b:
                break
            if tic >= a:
                side = SIDE_LEFT if k % 2 == 0 else SIDE_RIGHT
                events.append(GaitEvent(time_s=float(tic), kind=IC, side=side))
                tfc = tic + cfg.fc_phase * stride
                if tfc < b:
                    fc_side = SIDE_RIGHT if side == SIDE_LEFT else SIDE_LEFT
                    events.append(GaitEvent(time_s=float(tfc), kind=FC, side=fc_side))
            k += 1
    close_walk_run(float(starts[-1]))
    events.sort(key=lambda e: (e.time_s, e.kind))
    return events, refine_with_turns(segments, turns)


def rows(table):
    """(time_s, kind, side) of each event of an event table, as Python values."""
    return list(zip(table.time_s.tolist(), table.kind.tolist(), table.side.tolist()))


# binary fractions as well as any floats, so that an event falls exactly on
# a phase end in some examples
durations = st.sampled_from([0.25 * i for i in range(1, 49)]) | st.floats(0.1, 12.0)
walk_runs = st.lists(st.builds(Phase, st.just("walk"), durations)
                     | st.builds(Phase, st.just("turn"), durations, st.floats(-360.0, 360.0)),
                     min_size=1, max_size=3).filter(
    # a margin over min_bout_s for the rounding of the phase starts' sums
    lambda run: sum(p.duration_s for p in run) >= DEFAULT_CONFIG.min_bout_s + 1e-6)


@st.composite
def scripts(draw):
    """Walk runs of at least min_bout_s, each between single rest phases
    that may or may not open and close the script."""
    script = [Phase("rest", draw(durations))] if draw(st.booleans()) else []
    for i, run in enumerate(draw(st.lists(walk_runs, min_size=1, max_size=4))):
        if i:
            script.append(Phase("rest", draw(durations)))
        script += run
    if draw(st.booleans()):
        script.append(Phase("rest", draw(durations)))
    return script


class TestConfig:
    def test_defaults_valid(self):
        synth.SynthConfig().validate()

    def test_stride_range(self):
        """stride_s stays inside the pipeline's default stride lag band."""
        low, high = DEFAULT_CONFIG.stride_lag_min_s, DEFAULT_CONFIG.stride_lag_max_s
        synth.SynthConfig(stride_s=low)
        synth.SynthConfig(stride_s=high)
        for stride in (0.2, math.nextafter(low, 0.0), math.nextafter(high, 3.0), 3.0):
            with pytest.raises(ConfigurationError, match="stride_s"):
                synth.SynthConfig(stride_s=stride)

    def test_script_must_tile_duration(self):
        with pytest.raises(ConfigurationError):
            synth.SynthConfig(duration_s=10.0,
                              script=[Phase("walk", 6.0)]).validate()

    def test_unknown_phase_kind(self):
        with pytest.raises(ConfigurationError):
            synth.SynthConfig(duration_s=5.0,
                              script=[Phase("jump", 5.0)]).validate()

    def test_fc_phase_gate(self):
        """fc_phase stays inside the FC window of stepdetect.quality_check."""
        bound = stepdetect.FC_WINDOW_FRACTION * stepdetect.MAX_STRIDE_FACTOR
        synth.SynthConfig(fc_phase=math.nextafter(bound, 0.0))
        with pytest.raises(ConfigurationError, match="fc_phase"):
            synth.SynthConfig(fc_phase=bound)

    @pytest.mark.parametrize("key, value", [
        ("duration_s", math.nan), ("sample_rate_hz", math.inf),
        ("stride_s", math.nan), ("noise_sigma", -math.inf)])
    def test_non_finite_refused(self, key, value):
        with pytest.raises(ConfigurationError, match="finite"):
            synth.SynthConfig(**{key: value}).validate()

    def test_non_finite_phase_refused(self):
        for phase in (Phase("walk", math.nan), Phase("turn", 5.0, math.inf)):
            with pytest.raises(ConfigurationError, match="finite"):
                synth.SynthConfig(duration_s=5.0, script=[phase]).validate()

    @pytest.mark.parametrize("q", [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                   [1.0, math.nan, 0.0, 0.0], [1.0, 0.0, math.inf, 0.0],
                                   [[1.0, 0.0], [0.0, 0.0]], "abcd"])
    def test_bad_sensor_rotation_refused(self, q):
        with pytest.raises(ConfigurationError, match="sensor_rotation"):
            synth.SynthConfig(sensor_rotation=q).validate()

    @pytest.mark.parametrize("duration_s", [1e30, 0.001])
    def test_sample_count_outside_1_to_2_31_refused(self, duration_s):
        # 1e30 s overflowed numpy in generate(); 0.001 s made 0 samples
        with pytest.raises(ConfigurationError, match=r"round to 1 to 2\*\*31 samples"):
            synth.SynthConfig(duration_s=duration_s)

    @pytest.mark.parametrize("kwargs", [
        {"noise_sigma": -0.1}, {"seed": -1}, {"seed": 1.5}, {"seed": True},
        {"seed": "1"}, {"duration_s": True}, {"duration_s": "60"},
        {"duration_s": None}, {"duration_s": 10 ** 400}, {"sensor_rotation": None},
        {"sensor_rotation": [True, False, False, False]},
        {"sensor_rotation": ["1", "0", "0", "0"]}, {"sensor_rotation": np.array(1.0)},
        {"script": {"kind": "walk"}}, {"script": [{"kind": "walk", "duration_s": 60.0}]},
        {"script": [Phase("walk", "60")]}, {"script": [Phase(None, 60.0)]},
        {"script": [Phase("walk", 60.0, None)]}])
    def test_bad_values_refused_when_built(self, kwargs):
        with pytest.raises(ConfigurationError):
            synth.SynthConfig(**kwargs)

    def test_numpy_scalars_accepted(self):
        cfg = synth.SynthConfig(duration_s=np.float64(30.0), seed=np.int64(7),
                                script=[Phase("walk", np.float32(30.0))])
        assert synth.generate(cfg)[0].session_id == "seed7"

    def test_phase_errors_name_the_phase(self):
        with pytest.raises(ConfigurationError, match="^script phase 1: unknown phase kind"):
            synth.SynthConfig(duration_s=10.0, script=[Phase("walk", 5.0),
                                                       Phase("jump", 5.0)])

    @pytest.mark.parametrize("doc, message", [
        ([], "a SynthConfig must be an object, got list"),
        ({"seed": -1}, "noise_sigma and seed must not be negative"),
        ({"script": [{"kind": "walk", "duration_s": 60.0, "speed": 1.0}]},
         r"script phase 0: unknown Phase keys: \['speed'\]"),
        ({"script": ["walk"]}, "script phase 0: a Phase must be an object, got str"),
        ({"script": [{"kind": 1, "duration_s": 60.0}]},
         "script phase 0: kind must be a string, got 1"),
    ])
    def test_from_json_refusals(self, doc, message):
        with pytest.raises(ConfigurationError, match=message):
            synth.SynthConfig.from_json(doc)

    def test_from_json_builds_phases(self):
        cfg = synth.SynthConfig.from_json({"duration_s": 10.0, "script": [
            {"kind": "rest", "duration_s": 4.0},
            {"kind": "turn", "duration_s": 6.0, "angle_deg": 90}]})
        assert cfg.script == [Phase("rest", 4.0), Phase("turn", 6.0, 90)]

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            synth.SynthConfig().seed = -1


class TestGenerate:
    def test_default_walk_event_count_and_spacing(self):
        # 60 s at stride 1.2 s with first IC at 0.45 s: 100 ICs, 100 FCs
        cfg = synth.SynthConfig()
        _, events, _, _ = synth.generate(cfg)
        ics = [e for e in events if e.kind == IC]
        fcs = [e for e in events if e.kind == FC]
        assert len(ics) == 100 and len(fcs) == 100
        ic_t = np.array([e.time_s for e in ics])
        assert ic_t[0] == pytest.approx(cfg.ic_phase * cfg.stride_s)
        np.testing.assert_allclose(np.diff(ic_t), cfg.stride_s / 2.0,
                                   atol=1e-12)

    def test_fc_lags_ic_by_fc_phase(self):
        cfg = synth.SynthConfig(duration_s=12.0)
        _, events, _, _ = synth.generate(cfg)
        ics = [e.time_s for e in events if e.kind == IC]
        fcs = [e.time_s for e in events if e.kind == FC]
        for ic, fc in zip(ics, fcs):
            assert fc - ic == pytest.approx(cfg.fc_phase * cfg.stride_s)

    def test_sides_alternate_and_fc_opposes_ic(self):
        _, events, _, _ = synth.generate(synth.SynthConfig(duration_s=12.0))
        ics = [e for e in events if e.kind == IC]
        for a, b in zip(ics, ics[1:]):
            assert {a.side, b.side} == {SIDE_LEFT, SIDE_RIGHT}
        by_time = {e.time_s: e for e in events if e.kind == FC}
        cfg = synth.SynthConfig(duration_s=12.0)
        for e in ics:
            fc = by_time.get(e.time_s + cfg.fc_phase * cfg.stride_s)
            if fc is not None:
                assert fc.side != e.side

    def test_determinism(self):
        a = synth.generate(synth.SynthConfig(seed=4, noise_sigma=0.5))
        b = synth.generate(synth.SynthConfig(seed=4, noise_sigma=0.5))
        np.testing.assert_array_equal(a[0].accel, b[0].accel)
        np.testing.assert_array_equal(a[0].gyro, b[0].gyro)
        assert [e.time_s for e in a[1]] == [e.time_s for e in b[1]]

    def test_rest_only_gravity_and_no_events(self):
        cfg = synth.SynthConfig(duration_s=8.0, script=[Phase("rest", 8.0)])
        rec, events, segments, turns = synth.generate(cfg)
        np.testing.assert_allclose(np.linalg.norm(rec.accel, axis=1), G,
                                   atol=1e-12)
        assert len(events) == 0 and turns == []
        assert [s.kind for s in segments] == [SegmentKind.BOUNDARY]

    def test_no_events_in_turn_phase(self):
        script = [Phase("walk", 5.0), Phase("turn", 2.0, 120.0),
                  Phase("walk", 5.0)]
        _, events, _, _ = synth.generate(
            synth.SynthConfig(duration_s=12.0, script=script))
        for e in events:
            assert not 5.0 <= e.time_s < 7.0

    def test_sharp_turn_reflected_in_truth_segments(self):
        script = [Phase("walk", 5.0), Phase("turn", 2.0, 120.0),
                  Phase("walk", 5.0)]
        _, _, segments, turns = synth.generate(
            synth.SynthConfig(duration_s=12.0, script=script))
        kinds = [s.kind for s in segments]
        assert kinds == [SegmentKind.GAIT_BOUT, SegmentKind.SHARP_TURN,
                         SegmentKind.GAIT_BOUT]
        assert len(turns) == 1 and turns[0].angle_deg == 120.0

    def test_gentle_turn_stays_inside_bout(self):
        script = [Phase("walk", 5.0), Phase("turn", 2.0, 45.0),
                  Phase("walk", 5.0)]
        _, _, segments, _ = synth.generate(
            synth.SynthConfig(duration_s=12.0, script=script))
        assert [s.kind for s in segments] == [SegmentKind.GAIT_BOUT]

    def test_turn_rate_on_gyro_only(self):
        script = [Phase("turn", 2.0, 114.59)]
        rec, _, _, _ = synth.generate(
            synth.SynthConfig(duration_s=2.0, script=script))
        # heading rate 1 rad/s rides on the vertical gyro axis (device z)
        assert np.mean(rec.gyro[:, 2]) == pytest.approx(1.0, abs=0.05)

    def test_sensor_rotation_preserves_norms(self):
        q = np.array([0.5, 0.5, 0.5, 0.5])
        plain = synth.generate(synth.SynthConfig(duration_s=10.0))[0]
        rotated = synth.generate(
            synth.SynthConfig(duration_s=10.0, sensor_rotation=q))[0]
        np.testing.assert_allclose(
            np.linalg.norm(rotated.accel, axis=1),
            np.linalg.norm(plain.accel, axis=1), rtol=1e-9)

    def test_sensor_rotation_normalised(self):
        q = np.array([0.5, 0.5, 0.5, 0.5])
        unit = synth.generate(synth.SynthConfig(duration_s=10.0, sensor_rotation=q))[0]
        scaled = synth.generate(
            synth.SynthConfig(duration_s=10.0, sensor_rotation=[1, 1, 1, 1]))[0]
        np.testing.assert_allclose(scaled.accel, unit.accel, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(scaled.gyro, unit.gyro, rtol=1e-12, atol=1e-12)

    def test_unit_sensor_rotation_keeps_its_bits(self):
        """A quaternion of norm 1 to within rounding is not divided again,
        which would change the bits of about a third of them."""
        rng = np.random.default_rng(3)
        cfg = synth.SynthConfig(duration_s=2.0)
        base = synth.generate(cfg)[0]
        changed = 0
        for _ in range(30):
            q = random_unit_quat(rng)
            changed += not np.array_equal(q, q / np.linalg.norm(q))
            rec = synth.generate(dataclasses.replace(cfg, sensor_rotation=q))[0]
            assert np.array_equal(rec.accel, base.accel @ quat_to_matrix(q).T)
        assert changed

    def test_noise_changes_signal_not_truth(self):
        clean = synth.generate(synth.SynthConfig(seed=5))
        noisy = synth.generate(synth.SynthConfig(seed=5, noise_sigma=0.3))
        assert not np.array_equal(clean[0].accel, noisy[0].accel)
        assert [e.time_s for e in clean[1]] == [e.time_s for e in noisy[1]]


class TestTruthMatchesReference:
    """generate's truth equals reference_truth's exactly, except in the
    two cases that the one segment-kind rule labels otherwise."""

    @settings(max_examples=150, deadline=None)
    @given(scripts(),
           st.sampled_from([0.5, 1.0, 1.25, 2.0])
           | st.floats(DEFAULT_CONFIG.stride_lag_min_s, DEFAULT_CONFIG.stride_lag_max_s),
           st.sampled_from([0.0, 0.125, 0.25, 0.375, 0.5]) | st.floats(0.0, 1.0),
           st.sampled_from([0.125, 0.25])
           | st.floats(0.0, stepdetect.FC_WINDOW_FRACTION * stepdetect.MAX_STRIDE_FACTOR,
                       exclude_min=True, exclude_max=True),
           st.sampled_from([10.0, 25.0, 50.0, 100.0, 128.0, 200.0]))
    def test_random_scripts(self, script, stride_s, ic_phase, fc_phase, fs):
        cfg = synth.SynthConfig(duration_s=sum(p.duration_s for p in script), sample_rate_hz=fs, stride_s=stride_s,
                                ic_phase=ic_phase, fc_phase=fc_phase, script=script)
        _, events, segments, _ = synth.generate(cfg)
        want_events, want_segments = reference_truth(cfg)
        assert rows(events) == [(e.time_s, e.kind, e.side) for e in want_events]
        assert segments == want_segments

    def test_hour_long_walk(self):
        cfg = synth.SynthConfig(duration_s=3600.0, stride_s=1.1)
        _, events, segments, _ = synth.generate(cfg)
        want_events, want_segments = reference_truth(cfg)
        assert rows(events) == [(e.time_s, e.kind, e.side) for e in want_events]
        assert segments == want_segments

    def test_short_walk_run_is_unknown(self):
        """A walk run shorter than min_bout_s is Unknown, as segment()
        labels a short moving run; the reference called it a GaitBout."""
        cfg = synth.SynthConfig(duration_s=9.5, script=[
            Phase("rest", 4.0), Phase("walk", 1.5), Phase("rest", 4.0)])
        _, events, segments, _ = synth.generate(cfg)
        want_events, want_segments = reference_truth(cfg)
        assert [s.kind for s in segments] == [
            SegmentKind.BOUNDARY, SegmentKind.UNKNOWN, SegmentKind.BOUNDARY]
        assert [s.kind for s in want_segments] == [
            SegmentKind.BOUNDARY, SegmentKind.GAIT_BOUT, SegmentKind.BOUNDARY]
        assert [(s.start_s, s.end_s) for s in segments] == \
            [(s.start_s, s.end_s) for s in want_segments]
        assert rows(events) == [(e.time_s, e.kind, e.side) for e in want_events]

    def test_consecutive_rest_phases_form_one_rest(self):
        """Two 1.5 s rest phases in a row are one 3 s LongRest, as
        segment() sees one run of rest windows; the reference made two
        ShortRests."""
        cfg = synth.SynthConfig(duration_s=13.0, script=[
            Phase("walk", 5.0), Phase("rest", 1.5), Phase("rest", 1.5), Phase("walk", 5.0)])
        _, _, segments, _ = synth.generate(cfg)
        _, want_segments = reference_truth(cfg)
        assert [(s.start_s, s.end_s, s.kind) for s in segments] == [
            (0.0, 5.0, SegmentKind.GAIT_BOUT), (5.0, 8.0, SegmentKind.LONG_REST),
            (8.0, 13.0, SegmentKind.GAIT_BOUT)]
        assert [(s.start_s, s.end_s, s.kind) for s in want_segments] == [
            (0.0, 5.0, SegmentKind.GAIT_BOUT), (5.0, 6.5, SegmentKind.SHORT_REST),
            (6.5, 8.0, SegmentKind.SHORT_REST), (8.0, 13.0, SegmentKind.GAIT_BOUT)]

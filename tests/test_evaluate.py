import numpy as np
import pytest

from gaitpipe import evaluate
from gaitpipe.core import ContractError, EmptySetError


def brute_force_match(detected, reference, window_s=0.5):
    """Independent re-statement of the per-reference closest-candidate rule:
    walk references in time order, pick the closest unconsumed detection
    within +/- window_s/2, earlier detection wins ties."""
    half = window_s / 2.0
    remaining = list(detected)
    tp = 0
    fn = 0
    for r in reference:
        cands = [d for d in remaining if abs(d - r) <= half]
        if not cands:
            fn += 1
            continue
        best = min(cands, key=lambda d: (abs(d - r), d))
        remaining.remove(best)
        tp += 1
    return tp, len(remaining), fn


class TestMatchEvents:
    def test_hand_example_one_third(self):
        rep = evaluate.match_events([1.1, 2.6, 4.0], [1.0, 2.0, 3.0])
        m = evaluate.compute_metrics(rep)
        assert (m.tp, m.fp, m.fn) == (1, 2, 2)
        assert m.precision == pytest.approx(1 / 3)
        assert m.recall == pytest.approx(1 / 3)
        assert m.f1 == pytest.approx(1 / 3)

    def test_closest_candidate_wins(self):
        rep = evaluate.match_events([0.95, 1.1], [1.0])
        assert rep.pairs == [(0.95, 1.0)]
        assert rep.false_positives == [1.1]

    def test_tie_goes_to_earlier_detection(self):
        # exactly representable: both detections lie 0.25 s from 1.0
        rep = evaluate.match_events([0.75, 1.25], [1.0])
        assert rep.pairs == [(0.75, 1.0)]

    def test_each_detection_consumed_once(self):
        rep = evaluate.match_events([1.0], [0.95, 1.05])
        assert rep.tp == 1
        assert rep.fn == 1

    def test_outside_window_is_miss(self):
        rep = evaluate.match_events([1.4], [1.0], window_s=0.5)
        assert rep.tp == 0
        assert rep.fp == 1 and rep.fn == 1

    def test_unsorted_rejected(self):
        with pytest.raises(ContractError):
            evaluate.match_events([2.0, 1.0], [1.0])
        with pytest.raises(ContractError):
            evaluate.match_events([1.0], [2.0, 1.0])

    def test_non_finite_times_rejected(self):
        for det, ref in (([1.0, 2.0], [1.0, np.nan, np.inf]),
                         ([1.0, np.nan], [1.0]),
                         ([-np.inf, 1.0], [1.0])):
            with pytest.raises(ContractError, match="finite"):
                evaluate.match_events(det, ref)

    def test_nonpositive_window_rejected(self):
        for window_s in (0.0, -0.5, np.nan, np.inf):
            with pytest.raises(ContractError, match="window"):
                evaluate.match_events([1.0, 2.0], [1.0, 2.0], window_s=window_s)

    def test_window_edge_decided_by_exact_difference(self):
        # the window holds d when d - r >= -half, which can differ in the
        # last bit from d >= r - half; the exact difference decides both ways
        d, r = 0.02800000000000002, 0.278
        assert d < r - 0.25 and d - r >= -0.25
        rep = evaluate.match_events([d], [r], window_s=0.5)
        assert rep.pairs == [(d, r)]
        d, r = 4222.00925762524, 4222.10925762524
        assert d >= r - 0.1 and d - r < -0.1
        rep = evaluate.match_events([d], [r], window_s=0.2)
        assert rep.pairs == [] and rep.false_positives == [d]

    def test_conservation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            det = sorted(rng.uniform(0, 10, rng.integers(0, 10)))
            ref = sorted(rng.uniform(0, 10, rng.integers(0, 10)))
            rep = evaluate.match_events(det, ref)
            assert rep.tp + rep.fp == len(det)
            assert rep.tp + rep.fn == len(ref)

    def test_brute_force_equality_1000_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            det = sorted(np.round(rng.uniform(0, 8, rng.integers(0, 11)), 3))
            ref = sorted(np.round(rng.uniform(0, 8, rng.integers(0, 11)), 3))
            rep = evaluate.match_events(det, ref, window_s=0.5)
            assert (rep.tp, rep.fp, rep.fn) == brute_force_match(det, ref)

    def test_offset_invariance(self):
        rng = np.random.default_rng(2)
        det = sorted(rng.uniform(0, 10, 8))
        ref = sorted(rng.uniform(0, 10, 6))
        a = evaluate.match_events(det, ref)
        b = evaluate.match_events([d + 100.0 for d in det],
                                  [r + 100.0 for r in ref])
        assert (a.tp, a.fp, a.fn) == (b.tp, b.fp, b.fn)
        np.testing.assert_allclose(a.errors(), b.errors(), atol=1e-9)


class TestComputeMetrics:
    def test_perfect(self):
        rep = evaluate.match_events([1.0, 2.0], [1.0, 2.0])
        m = evaluate.compute_metrics(rep)
        assert m.precision == 1.0 and m.recall == 1.0 and m.f1 == 1.0

    def test_empty_detected_precision_none(self):
        rep = evaluate.match_events([], [1.0])
        m = evaluate.compute_metrics(rep)
        assert m.precision is None
        assert m.recall == 0.0
        assert m.f1 is None

    def test_empty_reference_recall_none(self):
        rep = evaluate.match_events([1.0], [])
        m = evaluate.compute_metrics(rep)
        assert m.recall is None
        assert m.precision == 0.0
        assert m.f1 is None

    def test_zero_precision_and_recall_f1_none(self):
        rep = evaluate.match_events([5.0], [1.0])
        m = evaluate.compute_metrics(rep)
        assert m.precision == 0.0 and m.recall == 0.0
        assert m.f1 is None

    def test_f1_symmetry_only_when_precision_equals_recall(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            tp = int(rng.integers(1, 20))
            fp = int(rng.integers(0, 20))
            fn = int(rng.integers(0, 20))
            rep = evaluate.MatchReport(
                pairs=[(0.0, 0.0)] * tp,
                false_positives=[0.0] * fp,
                false_negatives=[0.0] * fn)
            swapped = evaluate.MatchReport(
                pairs=[(0.0, 0.0)] * tp,
                false_positives=[0.0] * fn,
                false_negatives=[0.0] * fp)
            m = evaluate.compute_metrics(rep)
            s = evaluate.compute_metrics(swapped)
            assert m.f1 == pytest.approx(s.f1)
            if fp != fn:
                assert m.precision != m.recall


class TestTemporalErrors:
    ERRORS = [0.03, 0.05, 0.07]

    def _report(self, errors):
        return evaluate.MatchReport(pairs=[(r + e, r) for r, e in
                                           zip(range(len(errors)), errors)])

    def test_hand_example(self):
        te = evaluate.temporal_errors(self._report(self.ERRORS))
        assert te.n_steps == 3
        assert te.constant_s == pytest.approx(0.05)
        assert te.absolute_s == pytest.approx(0.05)
        assert te.variable_s == pytest.approx(0.02)
        assert te.total_variability_s == pytest.approx(
            np.sqrt(np.mean(np.square(self.ERRORS))))
        assert te.median_s == pytest.approx(0.05)
        assert te.median_abs_s == pytest.approx(0.05)
        assert te.iqr_s == pytest.approx(0.02)

    def test_sign_convention_detection_lag_positive(self):
        rep = evaluate.match_events([1.1], [1.0])
        assert evaluate.temporal_errors(rep).constant_s == pytest.approx(0.1)

    def test_single_pair_variable_none(self):
        te = evaluate.temporal_errors(self._report([0.04]))
        assert te.variable_s is None
        assert te.n_steps == 1

    def test_empty_raises(self):
        with pytest.raises(EmptySetError):
            evaluate.temporal_errors(evaluate.MatchReport())


class TestAggregation:
    def test_within_toy_set(self):
        out = evaluate.aggregate_within({"p1": [0.9, 0.95, 1.0, 1.0]})
        med, iqr = out["p1"]
        assert med == pytest.approx(0.975)
        assert iqr == pytest.approx(0.0625)

    def test_within_empty_raises(self):
        with pytest.raises(EmptySetError):
            evaluate.aggregate_within({"p1": []})

    def test_across_toy_set(self):
        s = evaluate.aggregate_across([1, 2, 3, 4, 5])
        assert s.median == pytest.approx(3.0)
        assert s.q1 == pytest.approx(2.0)
        assert s.q3 == pytest.approx(4.0)
        assert s.iqr == pytest.approx(2.0)
        assert s.mean == pytest.approx(3.0)
        assert s.ci95_lo < s.mean < s.ci95_hi

    def test_across_single_value_no_ci(self):
        s = evaluate.aggregate_across([2.0])
        assert s.ci95_lo is None and s.ci95_hi is None
        assert s.median == 2.0

    def test_across_empty_raises(self):
        with pytest.raises(EmptySetError):
            evaluate.aggregate_across([])

    def test_ws_iqr_toy_set(self):
        s = evaluate.aggregate_across([1, 2, 3], within_iqrs=[0.1, 0.3, 0.2])
        assert s.ws_iqr == pytest.approx(0.2)

    def test_two_stage(self):
        data = {"a": [0.9, 0.95, 1.0, 1.0],
                "b": [0.8, 0.8, 0.8],
                "c": [1.0, 1.0]}
        s = evaluate.two_stage_aggregate(data)
        # medians: 0.975, 0.8, 1.0 -> median 0.975
        assert s.median == pytest.approx(0.975)
        assert s.ws_iqr == pytest.approx(0.0)  # median of [0.0625, 0, 0]

    def test_summary_json_round_fields(self):
        s = evaluate.aggregate_across([1.0, 2.0])
        doc = evaluate.summary_to_json(s)
        assert set(doc) == {"median", "iqr", "q1", "q3", "p05", "p95",
                            "mean", "ci95_lo", "ci95_hi", "ws_iqr"}

    def test_metrics_json(self):
        rep = evaluate.match_events([1.0], [1.0])
        doc = evaluate.metrics_to_json(
            "IC", evaluate.compute_metrics(rep), evaluate.temporal_errors(rep))
        assert doc["f1"] == 1.0
        assert doc["errors"]["n_steps"] == 1
        doc2 = evaluate.metrics_to_json("FC", evaluate.compute_metrics(rep), None)
        assert doc2["errors"] is None

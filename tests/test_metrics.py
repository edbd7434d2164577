import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fraudsig.metrics import (
    OutcomeWidths,
    _midranks,
    cross_entropy,
    expected_cost_at_k,
    head_size,
    interval_width_by_outcome,
    macro_f1,
    majority_class_scores,
    partial_pr_auc,
    pr_auc,
    precision_at_k,
    recall_at_k,
    threshold_predictions,
    uncertainty_auroc,
)
from oracles import (
    brute_auroc,
    brute_cost,
    brute_macro_f1,
    brute_partial_ap,
    brute_rank,
    midranks_loop,
    partial_pr_auc_loop,
)


def _random_instance(rng, n=None, ties=True):
    n = n or int(rng.integers(3, 40))
    labels = rng.integers(0, 2, size=n)
    if labels.sum() == 0:
        labels[int(rng.integers(n))] = 1
    if labels.sum() == n:
        labels[int(rng.integers(n))] = 0
    scores = rng.random(n)
    if ties:
        scores = np.round(scores, 1)  # force duplicate scores
    return labels, scores


def test_macro_f1_matches_brute(rng):
    for _ in range(200):
        labels, scores = _random_instance(rng)
        tau = float(rng.random())
        preds = threshold_predictions(scores, tau)
        assert macro_f1(labels, scores, tau) == pytest.approx(
            brute_macro_f1(labels.tolist(), preds.tolist()), abs=1e-12
        )


def test_pr_auc_matches_brute(rng):
    for _ in range(200):
        labels, scores = _random_instance(rng)
        assert pr_auc(labels, scores) == pytest.approx(
            brute_partial_ap(labels.tolist(), scores.tolist(), 1.0), abs=1e-12
        )


def test_partial_pr_auc_matches_brute(rng):
    for _ in range(200):
        labels, scores = _random_instance(rng)
        r = float(rng.choice([0.1, 0.2, 0.5, 0.8, 1.0]))
        assert partial_pr_auc(labels, scores, r) == pytest.approx(
            brute_partial_ap(labels.tolist(), scores.tolist(), r), abs=1e-12
        )


def test_partial_pr_auc_equals_loop(rng):
    """Bit for bit the per-sample walk, with tied scores, a zero cap, a cap
    at a positive's exact recall (where the walk stops on equality), a
    random cap and the full area."""
    for _ in range(250):
        labels, scores = _random_instance(rng)
        n_pos = int(labels.sum())
        exact = int(rng.integers(1, n_pos + 1)) / n_pos
        for r in (0.0, exact, float(rng.random()), 1.0):
            assert partial_pr_auc(labels, scores, r) == partial_pr_auc_loop(labels, scores, r)


def test_midranks_equal_loop(rng):
    for _ in range(250):
        n = int(rng.integers(1, 40))
        values = np.round(rng.random(n), int(rng.integers(0, 3)))  # many ties
        np.testing.assert_array_equal(_midranks(values), midranks_loop(values))


def test_partial_pr_auc_monotone_in_cap(rng):
    for _ in range(50):
        labels, scores = _random_instance(rng)
        vals = [partial_pr_auc(labels, scores, r) for r in (0.1, 0.25, 0.5, 0.75, 1.0)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(pr_auc(labels, scores), abs=1e-15)


def test_perfect_ranking_partial_area_is_cap():
    labels = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
    scores = np.linspace(1.0, 0.1, 10)
    for r in (1.0, 2.0 / 3.0, 0.5):
        assert partial_pr_auc(labels, scores, r) == pytest.approx(r, abs=1e-12)


def test_ranking_breaks_ties_by_original_index(rng):
    scores = np.array([0.5, 0.9, 0.5, 0.9, 0.1])
    labels = np.array([1, 0, 0, 1, 1])
    # ranked order must be 1,3,0,2,4; fraud hits at ranks 2,3,5
    expected = (1 / 3) * (1 / 2) + (1 / 3) * (2 / 3) + (1 / 3) * (3 / 5)
    assert pr_auc(labels, scores) == pytest.approx(expected, abs=1e-12)
    assert brute_rank(scores.tolist()) == [1, 3, 0, 2, 4]


def test_head_size_rounding():
    assert head_size(1000, 0.5) == 5
    assert head_size(1001, 0.5) == 6  # ceil(5.005)
    assert head_size(10, 0.01) == 1  # floor would give 0
    assert head_size(7, 100.0) == 7
    with pytest.raises(ValueError):
        head_size(0, 1.0)
    with pytest.raises(ValueError):
        head_size(10, -1.0)


def test_head_counting_identity(rng):
    """precision@K * |head| == recall@K * n_pos == fraud count in the head."""
    for _ in range(200):
        labels, scores = _random_instance(rng)
        k = float(rng.choice([0.5, 1.0, 5.0, 10.0, 50.0]))
        h = head_size(labels.size, k)
        tp_from_p = precision_at_k(labels, scores, k) * h
        tp_from_r = recall_at_k(labels, scores, k) * labels.sum()
        assert tp_from_p == pytest.approx(tp_from_r, abs=1e-9)
        assert round(tp_from_p) == pytest.approx(tp_from_p, abs=1e-9)


def test_expected_cost_hand_example():
    # one missed fraud of 100, one flagged legit of 50 -> 100 + 0.02*50
    labels = np.array([0, 1, 0, 0])
    scores = np.array([0.9, 0.1, 0.8, 0.2])
    amounts = np.array([50.0, 100.0, 10.0, 1.0])
    # head at 50% of 4 = top 2 = indices 0, 2
    assert expected_cost_at_k(labels, scores, amounts, 50.0) == pytest.approx(
        100.0 + 0.02 * (50.0 + 10.0), abs=1e-12
    )
    assert expected_cost_at_k(labels, scores, amounts, 100.0) == pytest.approx(
        0.02 * 61.0, abs=1e-12
    )


def test_expected_cost_matches_brute(rng):
    for _ in range(200):
        labels, scores = _random_instance(rng)
        amounts = rng.uniform(1.0, 500.0, size=labels.size)
        k = float(rng.choice([0.5, 1.0, 5.0, 20.0]))
        alpha = float(rng.choice([0.02, 0.1]))
        assert expected_cost_at_k(labels, scores, amounts, k, alpha) == pytest.approx(
            brute_cost(labels.tolist(), scores.tolist(), amounts.tolist(), k, alpha),
            rel=1e-12,
        )


def test_cross_entropy_values():
    labels = np.array([1, 0])
    assert cross_entropy(labels, np.array([0.5, 0.5])) == pytest.approx(math.log(2.0))
    # clipping keeps confident mistakes finite
    v = cross_entropy(np.array([1, 1]), np.array([0.0, 0.0]), clip=1e-7)
    assert math.isfinite(v)
    assert v == pytest.approx(-math.log(1e-7), rel=1e-9)
    assert cross_entropy(labels, np.array([1.0, 0.0])) == pytest.approx(
        -math.log1p(-1e-7), rel=1e-6
    )


def test_uncertainty_auroc_matches_brute(rng):
    for _ in range(200):
        labels, scores = _random_instance(rng)
        widths = np.round(rng.random(labels.size), 1)
        wrong = threshold_predictions(scores, 0.5) != labels
        if wrong.all() or not wrong.any():
            continue
        assert uncertainty_auroc(labels, scores, widths) == pytest.approx(
            brute_auroc(widths[wrong].tolist(), widths[~wrong].tolist()), abs=1e-12
        )


def test_uncertainty_auroc_degenerate_raises():
    labels = np.array([1, 1, 0])
    scores = np.array([0.9, 0.8, 0.1])  # all correct at 0.5
    with pytest.raises(ValueError):
        uncertainty_auroc(labels, scores, np.ones(3))
    with pytest.raises(ValueError):
        uncertainty_auroc(1 - labels, scores, np.ones(3))  # all wrong


def test_uncertainty_auroc_separable():
    labels = np.array([1, 1, 0, 0])
    scores = np.array([0.9, 0.1, 0.8, 0.2])  # wrong on 1 and 2
    widths = np.array([0.0, 5.0, 4.0, 0.1])  # wrong samples widest
    assert uncertainty_auroc(labels, scores, widths) == 1.0


def test_interval_width_by_outcome():
    labels = np.array([1, 1, 0, 0, 1])
    scores = np.array([0.9, 0.2, 0.7, 0.1, 0.8])
    widths = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    out = interval_width_by_outcome(labels, scores, widths)
    assert out == OutcomeWidths(tp=3.0, fp=3.0, tn=4.0, fn=2.0)


def test_interval_width_empty_cell_is_nan():
    labels = np.array([1, 1])
    scores = np.array([0.9, 0.8])
    out = interval_width_by_outcome(labels, scores, np.array([1.0, 3.0]))
    assert out.tp == 2.0
    assert math.isnan(out.fp) and math.isnan(out.tn) and math.isnan(out.fn)


def test_majority_scores_are_all_legitimate():
    s = majority_class_scores(5)
    np.testing.assert_array_equal(s, np.zeros(5))
    assert threshold_predictions(s, 0.5).sum() == 0


def test_input_validation():
    with pytest.raises(ValueError):
        macro_f1(np.array([0, 1]), np.array([0.1]))
    with pytest.raises(ValueError):
        pr_auc(np.array([], dtype=np.int64), np.array([]))
    with pytest.raises(ValueError):
        pr_auc(np.array([0, 2]), np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        pr_auc(np.array([0, 0]), np.array([0.1, 0.2]))  # no positives
    with pytest.raises(ValueError):
        partial_pr_auc(np.array([0, 1]), np.array([0.1, 0.2]), 1.5)
    with pytest.raises(ValueError):
        expected_cost_at_k(np.array([0, 1]), np.array([0.1, 0.2]), np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        uncertainty_auroc(np.array([0, 1]), np.array([0.1, 0.9]), np.array([1.0]))


@given(st.data())
def test_bounds_properties(data):
    n = data.draw(st.integers(2, 25))
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    if labels.sum() in (0, n):
        labels[0] = 1 - labels[0]
    scores = np.array(
        data.draw(
            st.lists(
                st.floats(0.0, 1.0, allow_nan=False, width=32), min_size=n, max_size=n
            )
        )
    )
    ap = pr_auc(labels, scores)
    assert 0.0 <= ap <= 1.0 + 1e-12
    assert 0.0 <= macro_f1(labels, scores) <= 1.0
    k = data.draw(st.floats(0.1, 100.0))
    assert 0.0 <= precision_at_k(labels, scores, k) <= 1.0
    assert 0.0 <= recall_at_k(labels, scores, k) <= 1.0
    # flagging everything captures all fraud
    assert recall_at_k(labels, scores, 100.0) == 1.0

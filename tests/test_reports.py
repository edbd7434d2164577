import math

import numpy as np
import pytest

from fraudsig import metrics
from fraudsig.config import HeadConfig
from fraudsig.reports import (
    _TABLES,
    AGGREGATE_CSV,
    COST_CURVE_CSV,
    GLOBAL_CSV,
    HEAD_CSV,
    PARTIAL_CSV,
    UNCERTAINTY_CSV,
    aggregate_reports,
    read_csv,
    score_cell,
    write_cell_reports,
    write_csv,
)


def _cell(rng, model="ours", n_labeled=100, rep=0, heads=None):
    heads = heads or HeadConfig()
    n = 60
    labels = (rng.random(n) < 0.25).astype(np.int64)
    labels[0] = 1
    labels[1] = 0
    scores = rng.random(n)
    widths = rng.random(n) * 0.2
    amounts = rng.uniform(1, 300, n)
    cell = score_cell(model, n_labeled, rep, labels, scores, widths, amounts, heads)
    return cell, (labels, scores, widths, amounts)


def test_score_cell_values_match_metrics(rng):
    heads = HeadConfig()
    cell, (labels, scores, widths, amounts) = _cell(rng, heads=heads)
    [g] = cell[GLOBAL_CSV]
    assert g["macro_f1"] == metrics.macro_f1(labels, scores, heads.tau)
    assert g["pr_auc"] == metrics.pr_auc(labels, scores)
    assert g["cross_entropy"] == metrics.cross_entropy(labels, scores)
    assert [r["k_percent"] for r in cell[HEAD_CSV]] == list(heads.k_percents)
    for row in cell[HEAD_CSV]:
        k = row["k_percent"]
        assert row["expected_cost_at_k"] == metrics.expected_cost_at_k(
            labels, scores, amounts, k, heads.alpha
        )
        assert row["precision_at_k"] == metrics.precision_at_k(labels, scores, k)
    assert [r["recall_cap"] for r in cell[PARTIAL_CSV]] == list(heads.recall_levels)
    [u] = cell[UNCERTAINTY_CSV]
    assert u["uncertainty_auroc"] == metrics.uncertainty_auroc(
        labels, scores, widths, heads.tau
    )
    w = metrics.interval_width_by_outcome(labels, scores, widths, heads.tau)
    assert (u["width_tp"], u["width_fn"]) == (w.tp, w.fn)


def test_score_cell_degenerate_auroc_is_nan():
    heads = HeadConfig()
    labels = np.array([1, 1, 0, 0])
    scores = np.array([0.9, 0.8, 0.1, 0.2])  # everything correct
    cell = score_cell("m", 10, 0, labels, scores, np.ones(4), np.ones(4), heads)
    assert math.isnan(cell[UNCERTAINTY_CSV][0]["uncertainty_auroc"])


def test_csv_round_trip_preserves_floats(tmp_path):
    rows = [{"a": 0.1 + 0.2, "b": 1e-17, "c": "name"}, {"a": float("nan"), "b": 3.0, "c": "x"}]
    p = tmp_path / "t.csv"
    write_csv(p, ["a", "b", "c"], rows)
    back = read_csv(p)
    assert float(back[0]["a"]) == 0.1 + 0.2  # repr round-trips exactly
    assert float(back[0]["b"]) == 1e-17
    assert math.isnan(float(back[1]["a"]))
    assert back[1]["c"] == "x"


def test_write_csv_is_deterministic_bytes(tmp_path):
    rows = [{"x": 1.5, "y": "m"}]
    write_csv(tmp_path / "a.csv", ["x", "y"], rows)
    write_csv(tmp_path / "b.csv", ["x", "y"], rows)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.csv").read_text() == "x,y\n1.5,m\n"


def test_cell_reports_and_aggregate_round_trip(tmp_path, rng):
    heads = HeadConfig()
    cells = []
    raw = {}
    for rep in range(3):
        cell, arrays = _cell(rng, rep=rep, heads=heads)
        cells.append(cell)
        raw[rep] = arrays
    write_cell_reports(tmp_path, cells)
    aggregate_reports(tmp_path, expected_reps=3)
    assert (tmp_path / COST_CURVE_CSV).exists()
    agg = {
        (r["model"], int(r["n_labeled"]), r["metric"]): r
        for r in read_csv(tmp_path / AGGREGATE_CSV)
    }
    f1s = [metrics.macro_f1(l, s, heads.tau) for (l, s, _, _) in raw.values()]
    row = agg[("ours", 100, "macro_f1")]
    assert float(row["mean"]) == pytest.approx(np.mean(f1s), abs=1e-15)
    assert float(row["std"]) == pytest.approx(np.std(f1s, ddof=1), abs=1e-15)
    assert row["n_reps"] == "3" and row["complete"] == "1"
    costs = [
        metrics.expected_cost_at_k(l, s, a, 0.5, heads.alpha)
        for (l, s, _, a) in raw.values()
    ]
    crow = agg[("ours", 100, "expected_cost_at_k[0.5]")]
    assert float(crow["mean"]) == pytest.approx(np.mean(costs), rel=1e-15)


def test_cost_curve_is_raw_mean_over_thousand(tmp_path, rng):
    cells = [_cell(rng, rep=r)[0] for r in range(2)]
    write_cell_reports(tmp_path, cells)
    aggregate_reports(tmp_path, expected_reps=2)
    agg = read_csv(tmp_path / AGGREGATE_CSV)
    curve = read_csv(tmp_path / COST_CURVE_CSV)
    raw = {
        r["metric"]: float(r["mean"])
        for r in agg
        if r["metric"].startswith("expected_cost_at_k")
    }
    assert curve, "cost curve must not be empty"
    for r in curve:
        key = f"expected_cost_at_k[{r['k_percent']}]"
        assert float(r["mean_cost_thousands"]) == pytest.approx(
            raw[key] / 1000.0, rel=1e-15
        )


def test_incomplete_cells_are_flagged(tmp_path, rng):
    cells = [_cell(rng, rep=r)[0] for r in range(2)]
    write_cell_reports(tmp_path, cells)
    aggregate_reports(tmp_path, expected_reps=5)
    agg = read_csv(tmp_path / AGGREGATE_CSV)
    assert all(r["complete"] == "0" for r in agg)
    assert all(r["n_reps"] == "2" for r in agg)


def test_single_repetition_std_is_zero(tmp_path, rng):
    cells = [_cell(rng)[0]]
    write_cell_reports(tmp_path, cells)
    aggregate_reports(tmp_path, expected_reps=1)
    agg = read_csv(tmp_path / AGGREGATE_CSV)
    assert all(float(r["std"]) == 0.0 for r in agg)
    assert all(r["complete"] == "1" for r in agg)


def test_aggregate_skips_nan_auroc(tmp_path):
    heads = HeadConfig()
    labels = np.array([1, 1, 0, 0])
    good = np.array([0.9, 0.2, 0.7, 0.1])  # one of each outcome
    perfect = np.array([0.9, 0.8, 0.1, 0.2])
    cells = [
        score_cell("m", 10, 0, labels, perfect, np.ones(4), np.ones(4), heads),
        score_cell("m", 10, 1, labels, good, np.arange(4.0), np.ones(4), heads),
    ]
    write_cell_reports(tmp_path, cells)
    aggregate_reports(tmp_path, expected_reps=2)
    rows = [
        r for r in read_csv(tmp_path / AGGREGATE_CSV) if r["metric"] == "uncertainty_auroc"
    ]
    assert len(rows) == 1
    # mean over the finite repetition only, but n_reps still counts both
    expected = metrics.uncertainty_auroc(labels, good, np.arange(4.0), heads.tau)
    assert float(rows[0]["mean"]) == pytest.approx(expected, abs=1e-15)
    assert rows[0]["n_reps"] == "2"


def test_global_csv_columns(tmp_path, rng):
    write_cell_reports(tmp_path, [_cell(rng)[0]])
    text = (tmp_path / GLOBAL_CSV).read_text().splitlines()
    assert text[0] == "model,n_labeled,repetition,macro_f1,pr_auc,cross_entropy"
    assert text[1].startswith("ours,100,0,")


def test_tables_list_is_the_one_layout_of_rows_and_files(tmp_path, rng):
    """For every table, the rows `score_cell` returns hold exactly the
    table's key, grid and metric columns, in order, and `write_cell_reports`
    writes that header to the table's file."""
    heads = HeadConfig()
    cells = [_cell(rng, rep=r, heads=heads)[0] for r in range(2)]
    write_cell_reports(tmp_path, cells)
    assert sorted(cells[0]) == sorted(name for name, _, _ in _TABLES)
    for name, grid, columns in _TABLES:
        header = ["model", "n_labeled", "repetition", *grid, *columns]
        assert all(list(row) == header for cell in cells for row in cell[name])
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == ",".join(header)
        assert len(lines) == 1 + sum(len(cell[name]) for cell in cells)

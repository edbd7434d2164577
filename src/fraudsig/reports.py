"""Metric tables: per-cell scoring and mean/std aggregation.

Evaluation produces four long-format CSVs (global, alert-head, partial
ranking area, uncertainty), one row per (model, labeled size, repetition[,
grid point]).  Reporting aggregates them into mean +- std tables, keeping
monetary cost both raw (head table) and in thousands (cost curve), and marks
aggregates computed from fewer repetitions than configured instead of
silently renormalising.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .config import HeadConfig, committing, parsing
from . import metrics

__all__ = [
    "score_cell",
    "write_csv",
    "read_csv",
    "write_cell_reports",
    "aggregate_reports",
    "GLOBAL_CSV",
    "HEAD_CSV",
    "PARTIAL_CSV",
    "UNCERTAINTY_CSV",
    "AGGREGATE_CSV",
    "COST_CURVE_CSV",
]

GLOBAL_CSV = "global_metrics.csv"
HEAD_CSV = "head_metrics.csv"
PARTIAL_CSV = "partial_pr_auc.csv"
UNCERTAINTY_CSV = "uncertainty_metrics.csv"
AGGREGATE_CSV = "aggregate.csv"
COST_CURVE_CSV = "cost_curve.csv"
# The four long tables: file, grid column if any (its value joins the metric
# name when aggregated) and metric columns, after model, n_labeled, repetition.
_TABLES = (
    (GLOBAL_CSV, (), ("macro_f1", "pr_auc", "cross_entropy")),
    (HEAD_CSV, ("k_percent",), ("precision_at_k", "recall_at_k", "expected_cost_at_k")),
    (PARTIAL_CSV, ("recall_cap",), ("partial_pr_auc",)),
    (UNCERTAINTY_CSV, (),
     ("uncertainty_auroc", "width_tp", "width_fp", "width_tn", "width_fn")),
)


def score_cell(
    model: str,
    n_labeled: int,
    repetition: int,
    labels: np.ndarray,
    scores: np.ndarray,
    widths: np.ndarray,
    amounts: np.ndarray,
    heads: HeadConfig,
) -> dict[str, list[dict]]:
    """The rows one (model, labeled size, repetition) cell adds to each long
    table, by the table's file name."""
    base = {"model": model, "n_labeled": n_labeled, "repetition": repetition}
    widths_cells = metrics.interval_width_by_outcome(labels, scores, widths, heads.tau)
    try:
        u_auroc = metrics.uncertainty_auroc(labels, scores, widths, heads.tau)
    except ValueError:
        u_auroc = math.nan
    return {
        GLOBAL_CSV: [dict(
            base,
            macro_f1=metrics.macro_f1(labels, scores, heads.tau),
            pr_auc=metrics.pr_auc(labels, scores),
            cross_entropy=metrics.cross_entropy(labels, scores),
        )],
        HEAD_CSV: [
            dict(
                base,
                k_percent=k,
                precision_at_k=metrics.precision_at_k(labels, scores, k),
                recall_at_k=metrics.recall_at_k(labels, scores, k),
                expected_cost_at_k=metrics.expected_cost_at_k(
                    labels, scores, amounts, k, heads.alpha
                ),
            )
            for k in heads.k_percents
        ],
        PARTIAL_CSV: [
            dict(base, recall_cap=r, partial_pr_auc=metrics.partial_pr_auc(labels, scores, r))
            for r in heads.recall_levels
        ],
        UNCERTAINTY_CSV: [dict(
            base,
            uncertainty_auroc=u_auroc,
            width_tp=widths_cells.tp,
            width_fp=widths_cells.fp,
            width_tn=widths_cells.tn,
            width_fn=widths_cells.fn,
        )],
    }


def _fmt(value) -> str:
    if isinstance(value, float) or isinstance(value, np.floating):
        return repr(float(value))
    return str(value)


def write_csv(path: str | Path, header: list[str], rows: list[dict]) -> None:
    with committing(path) as tmp, tmp.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[h]) for h in header])


def read_csv(path: str | Path) -> list[dict]:
    with Path(path).open(newline="") as fh:
        return list(csv.DictReader(fh))


def write_cell_reports(report_dir: str | Path, cells: list[dict[str, list[dict]]]) -> None:
    """Write the four long-format CSVs from the `score_cell` rows of `cells`."""
    for name, grid, columns in _TABLES:
        header = ["model", "n_labeled", "repetition", *grid, *columns]
        write_csv(Path(report_dir) / name, header, [row for c in cells for row in c[name]])


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std


def aggregate_reports(report_dir: str | Path, expected_reps: int) -> list[dict]:
    """Aggregate the per-cell CSVs into mean/std tables; returns the rows of
    `aggregate.csv`.

    `aggregate.csv` holds one row per (model, n_labeled, metric); metrics
    from gridded tables carry the grid point in their name.  Expected cost
    additionally lands in `cost_curve.csv` in thousands of currency units.
    A table with a missing column or value is a DataError naming it.
    """
    report_dir = Path(report_dir)
    groups: dict[tuple, list[float]] = {}
    for name, grid, columns in _TABLES:
        path = report_dir / name
        with parsing(path):
            for row in read_csv(path):
                point = tuple(row[g] for g in grid)
                label = "".join(f"[{v}]" for v in point)
                for m in columns:
                    # Keys sort by the label, which fixes the column and the
                    # grid point: rows stay in the order of their metric names.
                    key = (row["model"], int(row["n_labeled"]), m + label, m, point)
                    groups.setdefault(key, []).append(float(row[m]))

    agg_rows = []
    cost_rows = []
    for (model, n_labeled, metric, column, point), values in sorted(groups.items()):
        finite = [v for v in values if not math.isnan(v)]
        mean, std = _mean_std(finite) if finite else (math.nan, 0.0)
        agg_rows.append(
            {
                "model": model,
                "n_labeled": n_labeled,
                "metric": metric,
                "mean": mean,
                "std": std,
                "n_reps": len(values),
                "complete": int(len(values) == expected_reps),
            }
        )
        if column == "expected_cost_at_k":
            cost_rows.append(
                {
                    "model": model,
                    "n_labeled": n_labeled,
                    "k_percent": point[0],
                    "mean_cost_thousands": mean / 1000.0,
                    "std_cost_thousands": std / 1000.0,
                    "n_reps": len(values),
                }
            )
    write_csv(
        report_dir / AGGREGATE_CSV,
        ["model", "n_labeled", "metric", "mean", "std", "n_reps", "complete"],
        agg_rows,
    )
    write_csv(
        report_dir / COST_CURVE_CSV,
        ["model", "n_labeled", "k_percent", "mean_cost_thousands",
         "std_cost_thousands", "n_reps"],
        cost_rows,
    )
    return agg_rows

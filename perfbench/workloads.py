"""Workloads of the stage benchmark: inputs, set-up, timed stage calls and
output checks.

Every workload drives ``fraudsig.cli.main`` in-process, one stage at a time,
as a closed loop with one caller: the next call starts when the previous one
returned.  Inputs come from ``synthdata`` and fixtures from the CLI itself,
so the benchmark never writes the cache, checkpoint or splits formats.

A seed selects one of ``INPUT_SETS`` input sets (``seed % INPUT_SETS``);
``reference.json`` holds the expected outputs of each set, computed once by
``make_reference.py``.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from fraudsig import cli, features, synthdata, training
from fraudsig.config import TrainConfig
from fraudsig.features import scale_matrix

from tracer import Tracer, replace_everywhere

INPUT_SETS = 16

# The corpus has the reference shape scaled to a twentieth (29,732 rows, 206
# customers); `prepare --subsample 0.07` keeps 14 of the 205 kept customers,
# ~2,000 prefix samples.  The encoder then does most of `prepare`, as at the
# reference shape with a 3% subsample, and one run of a workload, set-up
# included, stays within about half a minute.
CORPUS_FRACTION = 0.05
SUBSAMPLE = "0.07"
LABELED_SIZE = 2595  # the smallest configured size; prepare scales it to 182

# `train` keeps the paper's sampler shape (4+4 chains, n_critic 5) at batch
# 256 and collects and checkpoints every epoch.  `evaluate` gets its
# 204-member checkpoint (4 chains x 51 epochs) from a cheap run.
TRAIN_SHAPES = {
    "prepare": {},
    "train": {"epochs": 2, "batch": 256, "burn_in": 0, "thinning": 1, "checkpoint_every": 1},
    "evaluate": {
        "epochs": 51, "batch": 8, "burn_in": 0, "thinning": 1, "chains_g": 1, "n_critic": 1,
    },
}

# Relative tolerance on the loss trace: a reordered gradient sum moves the
# trace by ~1e-14 over the two epochs, a wrong gradient by far more.
TRACE_RTOL = 1e-6
METRIC_ATOL = 1e-6
ENCODER_ATOL = 1e-9  # times max(1, max |coordinate|), as in tests/test_features.py


def corpus_spec() -> synthdata.SynthSpec:
    full = synthdata.SynthSpec()
    scaled = {
        name: max(1, round(getattr(full, name) * CORPUS_FRACTION))
        for name in (
            "n_customers", "n_missing_gender", "n_rows", "excluded_rows",
            "n_fraud_customers", "sample_frauds", "early_frauds", "excluded_frauds",
        )
    }
    return synthdata.SynthSpec(**scaled)


def run_cli(argv: list[str]) -> int:
    """One in-process stage call; its console output goes to stderr."""
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main(argv)


def config_path(workdir: Path) -> Path:
    return workdir / "experiment.yaml"


def stage_argv(workload: str, workdir: Path) -> list[str]:
    config = ["--config", str(config_path(workdir))]
    return {
        "prepare": ["prepare", *config, "--subsample", SUBSAMPLE],
        "train": ["train", *config, "--nl", str(LABELED_SIZE), "--rep", "0"],
        "evaluate": ["evaluate", *config],
    }[workload]


def set_up(workload: str, input_set: int, workdir: Path) -> float:
    """Make the workload's inputs in an empty `workdir`; returns seconds."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    t0 = time.perf_counter()
    synthdata.generate(workdir / "corpus.csv", corpus_spec(), seed=input_set)
    config = {
        "dataset_path": str(workdir / "corpus.csv"),
        "output_dir": str(workdir / "out"),
        "cache": str(workdir / "cache"),
        "seed": input_set,
        "split": {"labeled_sizes": [LABELED_SIZE], "repetitions": 1},
        "train": TRAIN_SHAPES[workload],
    }
    config_path(workdir).write_text(json.dumps(config, indent=1))  # JSON is YAML
    fixtures = {"prepare": [], "train": ["prepare"], "evaluate": ["prepare", "train"]}
    for stage in fixtures[workload]:
        rc = run_cli(stage_argv(stage, workdir))
        if rc != 0:
            raise RuntimeError(f"set-up stage {stage} exited with {rc}")
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Outputs the checks read.
# ---------------------------------------------------------------------------


def read_trace(workdir: Path) -> dict[str, float]:
    """The train loss trace, keyed by epoch|kind|chain|term."""
    (path,) = (workdir / "out" / "runs").glob("*/trace.csv")
    with path.open(newline="") as fh:
        return {
            f"{r['epoch']}|{r['kind']}|{r['chain']}|{r['term']}": float(r["value"])
            for r in csv.DictReader(fh)
        }


def read_ours(workdir: Path) -> dict[str, dict]:
    """PR-AUC and macro F1 of every `ours` row, keyed by n_labeled|repetition."""
    with (workdir / "out" / "reports" / "global_metrics.csv").open(newline="") as fh:
        return {
            f"{r['n_labeled']}|{r['repetition']}": {
                "pr_auc": float(r["pr_auc"]), "macro_f1": float(r["macro_f1"])
            }
            for r in csv.DictReader(fh)
            if r["model"] == "ours"
        }


def split_sizes(workdir: Path) -> dict[str, int]:
    splits = json.loads((workdir / "out" / "prepared" / "splits.json").read_text())
    return {"train_rows": len(splits["train_idx"]), "test_rows": len(splits["test_idx"])}


def _file_bytes(root: Path, pattern: str) -> int:
    return sum(p.stat().st_size for p in root.glob(pattern) if p.is_file())


class Probe:
    """Hooks at public boundaries, seen from outside the program: epoch
    times through train's `epoch_callback`, and the objects the checks
    need."""

    def __init__(self):
        self.reset()
        self.inputs: dict[str, int] = {}

    def reset(self) -> None:
        self.epoch_s: list[float] = []
        self.members: int | None = None
        self.samples = None
        self.store = None

    def install(self) -> None:
        # Looked up now, not at import, so a tracer installed first stays inside.
        train, build, predict = training.train, features.build_feature_store, training.predict

        def timed_train(*args, **kwargs):
            inner = kwargs.get("epoch_callback")
            last = time.perf_counter()

            def on_epoch(*cb_args):
                nonlocal last
                now = time.perf_counter()
                self.epoch_s.append(now - last)
                last = now
                if inner is not None:
                    inner(*cb_args)

            kwargs["epoch_callback"] = on_epoch
            result = train(*args, **kwargs)
            self.members = len(result.members)
            self.inputs["ensemble_members"] = self.members
            return result

        def counted_predict(disc, members, feats, *args, **kwargs):
            self.inputs["ensemble_members"] = len(members)
            return predict(disc, members, feats, *args, **kwargs)

        def captured_build(*args, **kwargs):
            result = build(*args, **kwargs)
            self.samples, self.store = args[0], result[0]
            self.inputs["prefix_samples"] = len(self.samples)
            return result

        replace_everywhere(train, timed_train)
        replace_everywhere(build, captured_build)
        replace_everywhere(predict, counted_predict)


def _check_encoder(probe: Probe, ref: dict) -> list[str]:
    if probe.store is None:
        return ["encoder: no feature store was built"]
    s = probe.samples
    row_of = {
        (s.customers[int(c)].customer, int(p)): i
        for i, (c, p) in enumerate(zip(s.customer_idx, s.prefix_len))
    }
    failures = []
    for r in ref["rows"]:
        key = (r["customer"], r["prefix_len"])
        if key not in row_of:
            failures.append(f"encoder: no sample {key}")
            continue
        i = row_of[key]
        got = scale_matrix(
            np.asarray(probe.store.matrix[i : i + 1]), probe.store.basis,
            ref["max_sd"], ref["max_amt"],
        )[0]
        want = np.asarray(r["coords"])
        if got.shape != want.shape or not np.allclose(
            got, want, rtol=0.0, atol=ENCODER_ATOL * max(1.0, np.abs(want).max())
        ):
            failures.append(f"encoder: row {key} differs from the reference")
    return failures


def _check_train(workdir: Path, probe: Probe, ref: dict) -> list[str]:
    cfg = TrainConfig(**TRAIN_SHAPES["train"])
    failures = []
    got = read_trace(workdir)
    if set(got) != set(ref):
        failures.append("train: loss trace rows differ from the reference")
    bad = sorted(
        key for key in set(got) & set(ref)
        if not (math.isfinite(got[key])
                and math.isclose(got[key], ref[key], rel_tol=TRACE_RTOL, abs_tol=1e-12))
    )
    if bad:
        failures.append(
            f"train: {len(bad)} of {len(ref)} loss entries differ from the reference, "
            f"e.g. {bad[0]} = {got[bad[0]]!r}, reference {ref[bad[0]]!r}"
        )
    if probe.members != cfg.chains_d * cfg.epochs:
        failures.append(f"train: {probe.members} members, want {cfg.chains_d * cfg.epochs}")
    if len(probe.epoch_s) != cfg.epochs:
        failures.append(f"train: {len(probe.epoch_s)} epochs, want {cfg.epochs}")
    return failures


def _check_evaluate(workdir: Path, ref: dict) -> list[str]:
    got = read_ours(workdir)
    if set(got) != set(ref):
        return [f"evaluate: report cells {sorted(got)}, want {sorted(ref)}"]
    return [
        f"evaluate: {cell} {name} = {got[cell][name]!r}, reference {want!r}"
        for cell, values in ref.items()
        for name, want in values.items()
        if not abs(got[cell][name] - want) <= METRIC_ATOL
    ]


def check_outputs(workload: str, workdir: Path, probe: Probe, ref: dict) -> list[str]:
    failures = _check_encoder(probe, ref["encoder"])
    if workload == "train":
        failures += _check_train(workdir, probe, ref["train"])
    elif workload == "evaluate":
        failures += _check_evaluate(workdir, ref["evaluate"])
    return failures


def measure(workload: str, workdir: str, seconds: float, traced: bool,
            min_calls: int, ref: dict, spans_path: str | None = None) -> dict:
    """Repeat the timed stage call until `seconds` have passed (at least
    `min_calls` times) in this process and check every call's outputs.  Runs in a fresh
    worker process, so the peak RSS is that of the workload alone."""
    workdir = Path(workdir)
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    probe = Probe()
    probe.install()
    argv = stage_argv(workload, workdir)
    calls = []
    start = time.perf_counter()
    while len(calls) < min_calls or time.perf_counter() - start < seconds:
        if workload == "prepare":
            shutil.rmtree(workdir / "cache", ignore_errors=True)
        probe.reset()
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                rc = tracer.run(f"cli.{workload}", run_cli, argv)
            else:
                rc = run_cli(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        except Exception as exc:  # a failed operation is counted, not fatal
            rc = repr(exc)
        call = {"wall_s": time.perf_counter() - t0, "epoch_s": probe.epoch_s}
        try:
            call["failures"] = (
                check_outputs(workload, workdir, probe, ref) if rc == 0
                else [f"{workload}: exit {rc}"]
            )
        except (OSError, ValueError, KeyError) as exc:
            call["failures"] = [f"{workload}: unreadable output: {exc!r}"]
        if tracer is not None:
            call["layers"] = tracer.summary()
            for name, pattern in (
                ("features.cache.bytes", "cache/**/features.bin"),
                ("training.checkpoint.bytes", "out/runs/*/checkpoint/**/*"),
            ):
                n = _file_bytes(workdir, pattern)
                if n:
                    call["layers"][name] = n
        calls.append(call)
    if tracer is not None and spans_path is not None:
        tracer.write(spans_path)
    return {
        "calls": calls,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "inputs": probe.inputs,
        "missing": tracer.missing if tracer is not None else [],
    }


if __name__ == "__main__":
    # Worker entry: python3 workloads.py FILE, where FILE holds the keyword
    # arguments of measure as JSON and receives its result.
    path = Path(sys.argv[1])
    path.write_text(json.dumps(measure(**json.loads(path.read_text()))))

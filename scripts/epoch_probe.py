#!/usr/bin/env python3
"""Seconds per training epoch at the full default shape, on random rows.

    PYTHONPATH=src python3 scripts/epoch_probe.py [--rows 60000] [--epochs 3]
        [--batch N] [--from-file [--evict] | --alternate] [--profile]
        [--workdir DIR]

Trains one cell through `fraudsig.training.train` with every `TrainConfig`
default (4+4 chains, batch 2048, n_critic 5, width 128) but `epochs`, with
`checkpoint_every` 0 and a member collected every epoch, on `--rows` random
rows of 728 features (degree 4) and E = 15 embedding columns (condition
cards 8, 4 and 3), 2,595 of them labeled.  The rows are standard normal
draws scaled by the `features.scale_vector` of fixed value-channel maxima.

By default the scaled rows are held in memory.  `--from-file` writes the
unscaled rows to `features.bin` in the work directory and trains through a
`features.FeatureRows` of it, which reads each minibatch from the file and
scales it, as `fraudsig train` does; both modes train on rows of the same
bits, so they print the same sha256s.  `--evict` (with `--from-file`) drops
the file's pages from the page cache with posix_fadvise before every epoch,
so each epoch reads its rows from the disk; it touches no other file.

`--alternate` pairs the two modes inside one run: the rows are held in
memory and written to the file, and epochs 2, 3, 4, 5, ... read them from
memory, the file, the file, memory, and so on (ABBA order, so each pair of
epochs 2k, 2k+1 has one of each and a steady drift cancels); epoch 1, which
also builds the chains, reads from memory.  It prints the same sha256s too.

`--profile` steps the chains serially, on this thread with OpenBLAS at one
thread (the chain pool becomes a plain `map`), under cProfile, and prints
the top entries by cumulative time and by own time to standard error:
where a serial epoch goes.  Results do not depend on the thread counts, so
it prints the same sha256s too.  `--rows`, `--epochs` and `--batch` take
positive integers only.

The last line of standard output is one JSON object: {"mode", "rows",
"batch", "profile", "epoch_s", "epoch_cpu_s", "epoch_modes",
"vm_hwm_bytes", "trace_sha256", "members_sha256"}.  `epoch_s` holds the
wall seconds of each epoch, timed through train's `epoch_callback` (the
first includes building the chains), and `epoch_cpu_s` the CPU seconds of
this process's threads over the same spans, which other processes on a
shared host move less; `epoch_modes` names each epoch's rows ("memory" or
"file");
`vm_hwm_bytes` is this process's peak resident set (see stage_memory.py).
The work directory (a temporary one unless --workdir is given) holds the
checkpoint.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import json
import os
import pstats
import sys
import tempfile
import time
import types
from pathlib import Path
from unittest import mock

import numpy as np

from fraudsig import training
from fraudsig.config import TrainConfig
from fraudsig.features import FeatureRows, scale_vector
from fraudsig.lyndon import LyndonBasis
from fraudsig.signatures import augmented_dim
from fraudsig.training import PreparedData, train
from stage_memory import vm_hwm_bytes

DEGREE = 4  # 728 log-signature coordinates over the 7 augmented channels
EMB_CARDS = (8, 4, 3)  # age bands, genders, risk levels: E = 15
LABELED = 2595  # the smallest configured labeled size
FRAUD_RATE = 0.012
MAX_SD, MAX_AMT = 3.0, 70.0  # value-channel maxima of the scaling
CHUNK_ROWS = 4096  # rows drawn at once
SEED = 0  # seeds the rows and the cell
PROFILE_TOP = 25  # entries of each --profile table


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _evict(path: Path) -> None:
    """Drop `path`'s pages from the page cache (clean pages only, so it is
    synced first)."""
    with open(path, "rb") as fh:
        os.fsync(fh.fileno())
        os.posix_fadvise(fh.fileno(), 0, 0, os.POSIX_FADV_DONTNEED)


@contextlib.contextmanager
def _serial_pool(n_tasks: int):
    """Stands in for `training._chain_pool`: the chains step one after
    another on this thread, with OpenBLAS at one thread."""
    blas = training._openblas_threads()
    saved = blas[0]() if blas else None
    try:
        if blas:
            blas[1](1)
        yield types.SimpleNamespace(map=map)
    finally:
        if blas:
            blas[1](saved)


def _profiled(fn, *args, **kwargs):
    """`fn(*args, **kwargs)` with the chains stepped serially, under
    cProfile; prints the top entries to standard error."""
    profile = cProfile.Profile()
    with mock.patch.object(training, "_chain_pool", _serial_pool):
        profile.runcall(fn, *args, **kwargs)
    stats = pstats.Stats(profile, stream=sys.stderr).strip_dirs()
    for key in ("cumulative", "tottime"):
        stats.sort_stats(key).print_stats(PROFILE_TOP)


def _alternate_file(epoch: int) -> bool:
    """Whether `--alternate` reads epoch `epoch`'s rows from the file: epoch 1
    and then 2, 3, 4, 5, ... read memory, file, file, memory, ... ."""
    j = epoch - 2
    return epoch > 1 and (j % 2 == 1) != (j // 2 % 2 == 1)


class _Alternating:
    """Rows read from `held` or from `source` (the same bits), whichever
    `use_file` picks; the probe flips it between epochs."""

    def __init__(self, held: np.ndarray, source: FeatureRows):
        self.held, self.source, self.use_file = held, source, False
        self.shape = held.shape

    def __getitem__(self, rows) -> np.ndarray:
        return self.source[rows] if self.use_file else self.held[rows]


def _rows(args, scale: np.ndarray, bin_path: Path):
    """The probe's rows, drawn in chunks: held in memory scaled, written
    unscaled to `bin_path` and read through a FeatureRows `source` (None
    unless --from-file or --alternate), or both; then the labels, condition
    codes and labeled rows, all from one RNG."""
    rng = np.random.default_rng(SEED)
    n_cols = scale.size
    hold, write = not args.from_file, args.from_file or args.alternate
    held = np.empty((args.rows, n_cols)) if hold else None
    with open(bin_path, "wb") if write else contextlib.nullcontext() as fh:
        for lo in range(0, args.rows, CHUNK_ROWS):
            chunk = rng.standard_normal((min(CHUNK_ROWS, args.rows - lo), n_cols))
            if write:
                chunk.astype("<f8").tofile(fh)
            if hold:
                held[lo : lo + len(chunk)] = chunk * scale
    source = None
    if write:
        source = FeatureRows(bin_path, {"n_rows": args.rows, "n_cols": n_cols},
                             np.arange(args.rows), scale)
    feats = _Alternating(held, source) if args.alternate else source if args.from_file else held
    labels = (rng.random(args.rows) < FRAUD_RATE).astype(np.int64)
    codes = np.column_stack([rng.integers(0, c, args.rows) for c in EMB_CARDS])
    labeled = np.sort(rng.choice(args.rows, size=min(LABELED, args.rows), replace=False))
    return feats, source, labels, codes, labeled


def probe(args, workdir: Path) -> dict:
    cfg = TrainConfig(
        epochs=args.epochs, burn_in=0, thinning=1, checkpoint_every=0,
        **({"batch": args.batch} if args.batch is not None else {}),
    )
    scale = scale_vector(LyndonBasis.build(augmented_dim(2), DEGREE), MAX_SD, MAX_AMT)
    bin_path = workdir / "features.bin"
    feats, source, labels, codes, labeled = _rows(args, scale, bin_path)
    data = PreparedData(feats=feats, codes=codes, labels=labels, labeled_idx=labeled,
                        emb_cards=EMB_CARDS)
    epoch_s, epoch_cpu_s, epoch_modes = [], [], []

    def on_epoch(epoch, *_):
        nonlocal last, last_cpu
        epoch_s.append(time.perf_counter() - last)
        epoch_cpu_s.append(time.process_time() - last_cpu)
        if args.alternate:
            epoch_modes.append("file" if feats.use_file else "memory")
            feats.use_file = _alternate_file(epoch + 1)
        else:
            epoch_modes.append("file" if args.from_file else "memory")
        if args.evict:
            _evict(bin_path)
        last, last_cpu = time.perf_counter(), time.process_time()

    ckpt = workdir / "checkpoint"
    try:
        if args.evict:
            _evict(bin_path)
        last, last_cpu = time.perf_counter(), time.process_time()
        if args.profile:
            _profiled(train, data, cfg, SEED, ckpt, epoch_callback=on_epoch)
        else:
            train(data, cfg, SEED, ckpt, epoch_callback=on_epoch)
    finally:
        if source is not None:
            source.close()
    return {
        "mode": "alternate" if args.alternate else "file" if args.from_file else "memory",
        "rows": args.rows,
        "batch": cfg.batch,
        "profile": args.profile,
        "epoch_s": epoch_s,
        "epoch_cpu_s": epoch_cpu_s,
        "epoch_modes": epoch_modes,
        "vm_hwm_bytes": vm_hwm_bytes(),
        "trace_sha256": _sha256(ckpt / "trace.csv"),
        "members_sha256": _sha256(ckpt / "members.bin"),
    }


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--rows", type=_positive, default=60_000, help="random rows (default 60000)")
    ap.add_argument("--epochs", type=_positive, default=3)
    ap.add_argument("--batch", type=_positive, default=None, help="default: TrainConfig's")
    ap.add_argument("--from-file", action="store_true",
                    help="train through a FeatureRows of a features.bin")
    ap.add_argument("--evict", action="store_true",
                    help="with --from-file: evict the file's pages before every epoch")
    ap.add_argument("--alternate", action="store_true",
                    help="read epochs 2, 3, 4, 5, ... from memory, file, file, memory, ...")
    ap.add_argument("--profile", action="store_true",
                    help="step the chains serially under cProfile; top entries to stderr")
    ap.add_argument("--workdir", type=Path, default=None,
                    help="where features.bin and the checkpoint go (default: a temporary dir)")
    args = ap.parse_args(argv)
    if args.evict and not args.from_file:
        ap.error("--evict needs --from-file")
    if args.alternate and args.from_file:
        ap.error("--alternate reads from both; leave out --from-file")
    if args.workdir is not None:
        args.workdir.mkdir(parents=True, exist_ok=True)
        result = probe(args, args.workdir)
    else:
        with tempfile.TemporaryDirectory(prefix="epoch-probe-") as tmp:
            result = probe(args, Path(tmp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

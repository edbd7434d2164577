"""Pipeline driver: prepare / train / evaluate / report.

Each stage reads one YAML config and an output directory, and commits a
record of its run beside its own outputs (`_record`): `prepared/prepare.json`,
`runs/<cell>/train.json`, `reports/evaluate.json` and `reports/report.json`.
No stage reads another's record, so cells can train side by side on one
output directory.  `Prepared` is the one path from prepared data to a cell's
arrays, for `train`, `evaluate` and the acceptance checks alike.
Exit codes: 0 success, 2 configuration problems, 3 data problems (a file
that fails to read or write, the disk full say, among them), 4 diverged
training.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
import shutil
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import banksim, reports
from .config import (
    STAGE_PREPARE,
    STAGE_TRAIN,
    ConfigError,
    DataError,
    ExperimentConfig,
    Kind,
    admit,
    cache_dir,
    committing,
    derive_rng,
    derive_seed_sequence,
    parsing,
    read_json,
)
from .features import (
    SCHEME_VERSION, FeatureRows, build_feature_store, dataset_fingerprint, scale_vector, store_key,
)
from .metrics import majority_class_scores
from .training import (
    DivergedChainError,
    PreparedData,
    build_nets,
    load_members,
    predict,
    run_fingerprint,
    train,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

SPLITS_REL = "prepared/splits.json"
# The Kind of each splits.json entry that `Prepared` admits on its own.
_SPLITS = {
    "subsample": Kind(float, "(0, 1]"),
    "customers": Kind(str, many=True),
    "labeled_sizes": Kind(int, "[1, inf)", many=True),
    "configured_sizes": Kind(int, "[1, inf)", many=True),
    "repetitions": Kind(int, "[1, inf)"),
}


# ---------------------------------------------------------------------------
# Stage records.
# ---------------------------------------------------------------------------


def _record(path: Path, cfg: ExperimentConfig, t0: float, **facts) -> None:
    """Commit the record of one stage run to `path`, in the directory of the
    outputs it wrote: the package version, the config, the seconds since
    `t0` and the stage's own `facts`.  Only this stage run writes it."""
    seconds = time.perf_counter() - t0
    record = dict(facts, package_version=__version__, config=cfg.to_dict(), seconds=seconds)
    with committing(path) as tmp, open(tmp, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Shared loading.
# ---------------------------------------------------------------------------


def _load_customers(cfg: ExperimentConfig):
    log = banksim.load_transactions(cfg.dataset_path)
    customers, excluded = banksim.group_customers(log)
    stats = {
        "n_rows": len(log),
        "n_fraud_rows": int(log.frauds.sum()),
        "n_customers": len(customers) + excluded,
        "n_customers_kept": len(customers),
        "n_customers_excluded": excluded,
        "n_fraud_customers": int(sum(int(cs.frauds.any()) for cs in customers)),
    }
    return customers, stats


def _cache_path(cfg: ExperimentConfig, subsample: float) -> Path:
    tag = "full" if subsample >= 1.0 else f"sub{subsample:g}"
    return cache_dir(cfg) / f"deg{cfg.sig_degree}_v{SCHEME_VERSION}_{tag}"


@dataclass
class Cell:
    """One (labeled size, repetition) cell of the prepared grid: its labeled
    sample indices, its training seed and its run directory `nl<size>_rep<rep>`."""

    size: int
    rep: int
    labeled: np.ndarray
    spawn_key: list
    seed: int
    run_dir: Path


@dataclass
class Split:
    """The prepared test split: its scaled feature rows, labels, amounts and
    embedding cardinalities; `codes(cell)` is its rows' condition codes
    under that cell's labeled set."""

    feats: np.ndarray
    labels: np.ndarray
    amounts: np.ndarray
    emb_cards: tuple[int, ...]
    codes: Callable[[Cell], np.ndarray]


class Prepared:
    """The data `prepare` left in `cfg.output_dir`.  `splits.json` is read and
    checked at once, so a cell is checked before the corpus is read; the
    corpus is ingested, checked against the recorded feature key (a DataError
    if it no longer gives it) and its store opened on first use, once."""

    def __init__(self, cfg: ExperimentConfig):
        """Admits each entry the stages read by its Kind, then the rules that
        span entries; a bad one is a DataError naming the file.  The recorded
        scaling maxima are not read: `_maxima` derives them from the train split."""
        self.cfg = cfg
        self.path = path = Path(cfg.output_dir) / SPLITS_REL
        if not path.exists():
            raise DataError(f"{path} not found; run `fraudsig prepare` first")
        self.splits = splits = read_json(path)
        with parsing(path):
            for name, kind in _SPLITS.items():
                admit(name, splits[name], kind)
            n = admit("stats.n_samples", splits["stats"]["n_samples"], Kind(int, "[1, inf)"))
            if n != splits["features"]["n_rows"]:
                raise ValueError(f"stats.n_samples {n} is not features.n_rows")
            sizes, configured = splits["labeled_sizes"], splits["configured_sizes"]
            if len(set(sizes)) < len(sizes):
                raise ValueError(f"labeled_sizes {sizes} repeat a size")
            if len(configured) != len(sizes):
                raise ValueError("configured_sizes do not hold one size per labeled size")
            sets = {name: splits[name] for name in ("train_idx", "test_idx")}
            sets.update(
                (f"labeled[{si}:{rep}]", splits["labeled"][f"{si}:{rep}"])
                for si in range(len(sizes)) for rep in range(splits["repetitions"])
            )
            for name, value in sets.items():
                admit(name, value, Kind(int, f"[0, {n})", many=True))
                if any(a >= b for a, b in zip(value, value[1:])):
                    raise ValueError(f"{name} is not strictly increasing")
            train = set(sets.pop("train_idx"))
            if not train.isdisjoint(sets.pop("test_idx")):
                raise ValueError("test_idx shares samples with train_idx")
            outside = [name for name, value in sets.items() if not train.issuperset(value)]
            if outside:
                raise ValueError(f"{', '.join(outside)} outside train_idx")

    def cell(self, nl: int, rep: int) -> Cell:
        """The cell of `train --nl nl --rep rep`: the one whose effective
        (prepared) or configured labeled size is `nl`; no such cell, or two,
        or a repetition out of range is a ConfigError naming them."""
        effective, configured = self.splits["labeled_sizes"], self.splits["configured_sizes"]
        cells = sorted({sizes.index(nl) for sizes in (effective, configured) if nl in sizes})
        if len(cells) != 1:
            named = " and ".join(f"the cell configured as {configured[i]}" for i in cells)
            raise ConfigError(
                f"--nl {nl} names {named or 'no cell'}; the prepared sizes are {effective} "
                f"(configured: {configured})"
            )
        if not 0 <= rep < self.splits["repetitions"]:
            raise ConfigError(f"--rep must be in [0, {self.splits['repetitions']})")
        return self._cell(cells[0], rep)

    def cells(self) -> list[Cell]:
        """Every cell, size by size, repetitions in order."""
        sizes, reps = range(len(self.splits["labeled_sizes"])), range(self.splits["repetitions"])
        return [self._cell(si, rep) for si in sizes for rep in reps]

    def _cell(self, si: int, rep: int) -> Cell:
        size, spawn_key = self.splits["labeled_sizes"][si], [STAGE_TRAIN, si, rep]
        labeled = np.asarray(self.splits["labeled"][f"{si}:{rep}"], dtype=np.intp)
        seed = int(derive_seed_sequence(self.cfg.seed, *spawn_key).generate_state(1)[0])
        run_dir = Path(self.cfg.output_dir) / "runs" / f"nl{size}_rep{rep}"
        return Cell(size, rep, labeled, spawn_key, seed, run_dir)

    @functools.cached_property
    def _source(self):
        """(samples, feature store) of the prepared customers."""
        cfg, key = self.cfg, self.splits["features"]
        dataset_hash = dataset_fingerprint(cfg.dataset_path)
        wanted = set(self.splits["customers"])
        kept = [cs for cs in _load_customers(cfg)[0] if cs.customer in wanted]
        samples = banksim.make_samples(kept, cfg.min_prefix)
        now = store_key(samples, cfg.sig_degree, dataset_hash, cfg.min_prefix)
        diff = [f"{k}: {key.get(k)!r} -> {v!r}" for k, v in now.items() if key.get(k) != v]
        if diff:
            raise DataError(
                f"{self.path} was prepared from another corpus or other settings; differing "
                f"keys (prepared -> now): {'; '.join(diff)}; run `fraudsig prepare` again"
            )
        cache = _cache_path(cfg, self.splits["subsample"])
        store, _ = build_feature_store(samples, cfg.sig_degree, cache, dataset_hash, cfg.min_prefix)
        return samples, store

    @functools.cached_property
    def _train_idx(self) -> np.ndarray:
        return np.asarray(self.splits["train_idx"], dtype=np.intp)

    @functools.cached_property
    def _maxima(self) -> tuple[float, float]:
        """The value-channel maxima over the train split, which scale every row."""
        samples, _ = self._source
        return banksim.training_maxima(samples, self._train_idx)

    def _labeled_positions(self, cell: Cell) -> np.ndarray:
        """`cell`'s labeled samples as positions in the train split."""
        return np.searchsorted(self._train_idx, cell.labeled)

    def fingerprint(self, cell: Cell, n_cols: int, emb_cards) -> dict:
        """The fingerprint `train` writes into `cell`'s checkpoint, from
        splits.json and the feature shape `n_cols` and `emb_cards`, with no
        train-split row read."""
        return run_fingerprint(
            self.cfg.train, len(self._train_idx), n_cols, emb_cards,
            self._labeled_positions(cell), self.splits["features"],
        )

    def _rows(self, idx: np.ndarray) -> FeatureRows:
        """A reader of the store's rows at the positions `idx`, scaled by
        the maxima over the train split."""
        _, store = self._source
        scale = scale_vector(store.basis, *self._maxima)
        return FeatureRows(store.path, store.manifest, idx, scale)

    def test_split(self) -> Split:
        """The test split; only its rows are read, at once, scaled by the
        maxima over the train split."""
        samples, _ = self._source
        idx = np.asarray(self.splits["test_idx"], dtype=np.intp)
        with self._rows(idx) as rows:
            feats = rows[:]
        return Split(
            feats=feats,
            labels=samples.labels[idx].astype(np.int64),
            amounts=samples.amounts[idx],
            emb_cards=banksim.condition_cards(samples),
            codes=lambda cell: banksim.condition_codes(samples, idx, cell.labeled),
        )

    @contextmanager
    def train_data(self, cell: Cell):
        """The training data of `cell`, from the train split, for the `with`
        block: its rows are a `FeatureRows` of the store's features.bin, read
        per minibatch through one descriptor that the block's end closes."""
        samples, _ = self._source
        idx = self._train_idx
        with self._rows(idx) as feats:
            yield PreparedData(
                feats=feats, codes=banksim.condition_codes(samples, idx, cell.labeled),
                labels=samples.labels[idx].astype(np.int64),
                labeled_idx=self._labeled_positions(cell),
                emb_cards=banksim.condition_cards(samples), feature_key=self.splits["features"],
            )


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------


def _cmd_prepare(args) -> int:
    cfg = ExperimentConfig.from_yaml(args.config)
    if not 0 < args.subsample <= 1:
        raise ConfigError(f"--subsample must be in (0, 1], got {args.subsample}")
    if args.dump_encoding:
        cust, _, plen = args.dump_encoding.rpartition(":")
        try:
            dump_prefix = int(plen)
        except ValueError:
            raise ConfigError(
                f"--dump-encoding must be CUSTOMER:PREFIX, got {args.dump_encoding!r}"
            ) from None
    t0 = time.perf_counter()
    customers, stats = _load_customers(cfg)
    if args.subsample < 1.0 and customers:
        rng = derive_rng(cfg.seed, STAGE_PREPARE, 0)
        n_keep = max(1, round(args.subsample * len(customers)))
        keep = np.sort(rng.choice(len(customers), size=n_keep, replace=False))
        customers = [customers[i] for i in keep]
    samples = banksim.make_samples(customers, cfg.min_prefix)
    if not len(samples):
        subsampled = ""
        if args.subsample < 1:
            subsampled = f" ({len(customers)} at --subsample {args.subsample:g})"
        raise DataError(
            f"dataset {cfg.dataset_path} has {stats['n_rows']} rows and "
            f"{stats['n_customers_kept']} kept customers{subsampled} but 0 samples: "
            f"no kept customer has {cfg.min_prefix} transactions (min_prefix)"
        )
    stats["n_samples"] = len(samples)
    stats["n_fraud_samples"] = int(samples.labels.sum())

    sizes = cfg.split.scaled_sizes(args.subsample)
    if len(set(sizes)) < len(sizes):
        raise ConfigError(
            f"labeled_sizes {list(cfg.split.labeled_sizes)} scale to {list(sizes)} at "
            f"--subsample {args.subsample}; each cell needs a distinct size"
        )
    split = banksim.split_and_unlabel(
        samples.labels, sizes, cfg.split.repetitions, cfg.split.test_fraction, cfg.seed
    )
    max_sd, max_amt = banksim.training_maxima(samples, split.train_idx)

    cache = _cache_path(cfg, args.subsample)
    dataset_hash = dataset_fingerprint(cfg.dataset_path)
    store, cache_hit = build_feature_store(
        samples, cfg.sig_degree, cache, dataset_hash, cfg.min_prefix
    )

    splits = {
        "stats": stats,
        "subsample": args.subsample,
        "customers": [cs.customer for cs in samples.customers],
        "features": store.manifest,
        "max_sd": max_sd,
        "max_amt": max_amt,
        "configured_sizes": list(cfg.split.labeled_sizes),
        "labeled_sizes": list(sizes),
        "repetitions": cfg.split.repetitions,
        "train_idx": split.train_idx.tolist(),
        "test_idx": split.test_idx.tolist(),
        "labeled": {
            f"{si}:{rep}": split.labeled[(sizes[si], rep)].tolist()
            for si in range(len(sizes))
            for rep in range(cfg.split.repetitions)
        },
    }
    with committing(Path(cfg.output_dir) / SPLITS_REL) as tmp, open(tmp, "w") as fh:
        json.dump(splits, fh, indent=2, sort_keys=True)

    _record(
        Path(cfg.output_dir) / "prepared/prepare.json", cfg, t0, cache=str(cache),
        cache_hit=cache_hit, dataset_sha256=dataset_hash, subsample=args.subsample, stats=stats,
    )
    print(
        f"prepared {stats['n_samples']} samples from {stats['n_rows']} rows "
        f"({stats['n_customers_kept']} customers kept, "
        f"{stats['n_customers_excluded']} excluded); cache_hit={cache_hit}"
    )
    for size in sizes:
        fr = int(samples.labels[split.labeled[(size, 0)]].sum())
        print(f"  labeled size {size}: {fr} fraud per repetition")

    if args.dump_encoding:
        index = {cs.customer: ci for ci, cs in enumerate(samples.customers)}
        hit_rows = np.flatnonzero(
            (samples.customer_idx == index.get(cust, -1)) & (samples.prefix_len == dump_prefix)
        )
        if not hit_rows.size:
            raise DataError(f"no sample for customer {cust!r} with prefix {dump_prefix}")
        scale = scale_vector(store.basis, max_sd, max_amt)
        with FeatureRows(store.path, store.manifest, hit_rows[:1], scale) as rows:
            print(" ".join(repr(float(v)) for v in rows[:][0]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _cmd_train(args) -> int:
    cfg = ExperimentConfig.from_yaml(args.config)
    t0 = time.perf_counter()
    prepared = Prepared(cfg)
    cell = prepared.cell(args.nl, args.rep)
    with prepared.train_data(cell) as data:
        ckpt = cell.run_dir / "checkpoint"
        resume = args.resume and (ckpt / "state.json").exists()
        if args.resume and not resume:
            logger.warning(
                "--resume: no committed checkpoint in %s; training starts at epoch 1", ckpt
            )
        if not resume and cell.run_dir.exists():
            shutil.rmtree(cell.run_dir)  # the old checkpoint, trace and record
        result = train(data, cfg.train, cell.seed, checkpoint_dir=ckpt, resume=resume)
    with committing(cell.run_dir / "trace.csv") as tmp:
        shutil.copyfile(ckpt / "trace.csv", tmp)
    _record(
        cell.run_dir / "train.json", cfg, t0, global_seed=cfg.seed, spawn_key=cell.spawn_key,
        cell_seed=cell.seed, resumed=resume, epochs=cfg.train.epochs,
        ensemble_size=len(result.members),
    )
    print(
        f"trained {cell.run_dir.name}: {cfg.train.epochs} epochs, "
        f"{len(result.members)} posterior members -> {cell.run_dir}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _cmd_evaluate(args) -> int:
    cfg = ExperimentConfig.from_yaml(args.config)
    t0 = time.perf_counter()
    prepared = Prepared(cfg)
    test = prepared.test_split()
    if not test.labels.any():
        raise DataError(
            f"the test split holds no fraud sample ({len(test.labels)} samples), so the "
            "ranking metrics are undefined; use a corpus with more fraud samples "
            "or a larger test_fraction"
        )
    _, disc = build_nets(test.feats.shape[1], test.emb_cards, cfg.train)
    shapes = [spec.shape for spec in disc.param_specs]
    want = cfg.train.member_keys(cfg.train.epochs)

    scores = []
    cells = prepared.cells()
    n_missing = 0
    for cell in cells:
        ckpt = cell.run_dir / "checkpoint"
        if not (ckpt / "state.json").exists():
            n_missing += 1
            logger.info("no checkpoint for nl%d rep%d; skipping", cell.size, cell.rep)
            continue
        fingerprint = prepared.fingerprint(cell, test.feats.shape[1], test.emb_cards)
        members = load_members(ckpt, shapes, fingerprint)
        if members.keys != want:  # a cell still training, or one that stopped
            n_missing += 1
            logger.info(
                "nl%d rep%d holds %d of %d members; skipping it as unfinished",
                cell.size, cell.rep, len(members), len(want),
            )
            continue
        pred = predict(disc, members, test.feats, test.codes(cell))
        n = len(test.labels)
        for model, mean, width in (
            ("ours", pred.mean, pred.width),
            ("majority", majority_class_scores(n), np.zeros(n)),
        ):
            scores.append(reports.score_cell(
                model, cell.size, cell.rep, test.labels, mean, width, test.amounts, cfg.heads
            ))
    if not scores:
        raise DataError("no finished cells; run `fraudsig train`, or --resume an unfinished one")

    report_dir = Path(cfg.output_dir) / "reports"
    reports.write_cell_reports(report_dir, scores)
    n_cells = len(cells) - n_missing
    _record(report_dir / "evaluate.json", cfg, t0, cells=n_cells, missing=n_missing)
    print(f"evaluated {n_cells} cells ({n_missing} missing) -> {report_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _cmd_report(args) -> int:
    cfg = ExperimentConfig.from_yaml(args.config)
    t0 = time.perf_counter()
    report_dir = Path(cfg.output_dir) / "reports"
    if not (report_dir / reports.GLOBAL_CSV).exists():
        raise DataError("no evaluation tables found; run `fraudsig evaluate` first")
    rows = reports.aggregate_reports(report_dir, Prepared(cfg).splits["repetitions"])
    _record(report_dir / "report.json", cfg, t0)
    for row in rows:
        if row["metric"] in ("macro_f1", "pr_auc", "cross_entropy"):
            flag = "" if row["complete"] else "  [incomplete]"
            print(
                f"{row['model']:>9} N_l={row['n_labeled']:>6} {row['metric']:<14} "
                f"{row['mean']:.4f} +- {row['std']:.4f}{flag}"
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraudsig",
        description="Signature-feature fraud pipeline: prepare, train, evaluate, report.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="parse, split and encode the dataset")
    p.add_argument("--config", required=True, help="YAML experiment config")
    p.add_argument(
        "--subsample", type=float, default=1.0,
        help="keep this fraction of customers (labeled sizes scale along)",
    )
    p.add_argument(
        "--dump-encoding", metavar="CUSTOMER:PREFIX", default=None,
        help="after preparing, also print this sample's encoded row (debugging aid)",
    )
    p.set_defaults(fn=_cmd_prepare)

    p = sub.add_parser("train", help="train one (labeled size, repetition) cell")
    p.add_argument("--config", required=True)
    p.add_argument("--nl", type=int, required=True, help="labeled-set size")
    p.add_argument("--rep", type=int, required=True, help="repetition index")
    p.add_argument("--resume", action="store_true", help="continue from the cell checkpoint")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("evaluate", help="score all trained cells on the test split")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("report", help="aggregate evaluation tables (mean +- std)")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergedChainError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (banksim.TransactionParseError, DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

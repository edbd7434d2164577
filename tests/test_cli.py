import contextlib
import errno
import json
import logging
import os
import shutil
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import yaml

from fraudsig import banksim, cli, features, reports, training
from fraudsig.banksim import COLUMNS, group_customers, load_transactions, make_samples
from fraudsig.features import build_feature_store, dataset_fingerprint, scale_matrix
from fraudsig.cli import EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGED, EXIT_OK, main
from fraudsig.config import ExperimentConfig, committing
from fraudsig.synthdata import SynthSpec, generate

FAST_TRAIN = dict(
    epochs=4, burn_in=2, thinning=2, chains_g=2, chains_d=2, batch=64,
    n_critic=2, latent_dim=8, width=16, n_residual=1, head_widths=[8],
    lr_g=1e-4, lr_d=1e-3, checkpoint_every=2,
)


def _write_config(root: Path, **over) -> Path:
    cfg = {
        "dataset_path": str(root / "corpus.csv"),
        "output_dir": str(root / "out"),
        "seed": 5,
        "sig_degree": 2,
        "min_prefix": 5,
        "split": {"test_fraction": 0.2, "labeled_sizes": [40], "repetitions": 2},
        "train": dict(FAST_TRAIN),
        "heads": {"k_percents": [1.0, 5.0], "recall_levels": [0.5, 0.8]},
    }
    for key, val in over.items():
        if isinstance(val, dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    path = root / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full prepare/train x2/evaluate/report run on a small corpus."""
    root = tmp_path_factory.mktemp("cli")
    generate(root / "corpus.csv", SynthSpec.small(), seed=1)
    cfg = _write_config(root)
    assert main(["prepare", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--nl", "40", "--rep", "0"]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--nl", "40", "--rep", "1"]) == EXIT_OK
    assert main(["evaluate", "--config", str(cfg)]) == EXIT_OK
    assert main(["report", "--config", str(cfg)]) == EXIT_OK
    # Every artifact, the feature cache's too, is committed by a rename.
    assert not list((root / "out").rglob("*.tmp"))
    return root, cfg


def test_prepare_writes_splits(pipeline):
    root, _ = pipeline
    splits = json.loads((root / "out/prepared/splits.json").read_text())
    spec = SynthSpec.small()
    assert splits["stats"]["n_customers_kept"] == spec.n_kept
    assert splits["labeled_sizes"] == [40]
    assert splits["repetitions"] == 2
    n = splits["stats"]["n_samples"]
    assert len(splits["train_idx"]) + len(splits["test_idx"]) == n
    assert len(splits["labeled"]["0:0"]) == 40
    assert splits["labeled"]["0:0"] != splits["labeled"]["0:1"]
    assert set(splits["labeled"]["0:0"]) <= set(splits["train_idx"])


def test_train_writes_run_dir(pipeline):
    root, _ = pipeline
    run = root / "out/runs/nl40_rep0"
    names = sorted(p.name for p in (run / "checkpoint").iterdir())
    assert names == ["chains-4.bin", "members.bin", "state.json", "trace.csv"]
    trace = (run / "trace.csv").read_text().splitlines()
    assert trace[0] == "epoch,kind,chain,term,value"
    assert len(trace) == 1 + FAST_TRAIN["epochs"] * (2 + 4 * 2)
    # The run's trace.csv is a copy of the checkpoint's stream, which
    # state.json records by its length alone.
    assert (run / "trace.csv").read_bytes() == (run / "checkpoint/trace.csv").read_bytes()
    state = json.loads((run / "checkpoint/state.json").read_text())
    assert "trace" not in state
    assert state["trace_bytes"] == (run / "trace.csv").stat().st_size


def test_evaluate_writes_reports(pipeline):
    root, _ = pipeline
    rep = root / "out/reports"
    rows = (rep / "global_metrics.csv").read_text().splitlines()
    # 2 cells x 2 models + header
    assert len(rows) == 5
    models = {r.split(",")[0] for r in rows[1:]}
    assert models == {"ours", "majority"}


def test_evaluate_rerun_is_byte_identical(pipeline):
    root, cfg = pipeline
    rep = root / "out/reports"
    names = [
        "global_metrics.csv", "head_metrics.csv",
        "partial_pr_auc.csv", "uncertainty_metrics.csv",
    ]
    before = {n: (rep / n).read_bytes() for n in names}
    assert main(["evaluate", "--config", str(cfg)]) == EXIT_OK
    after = {n: (rep / n).read_bytes() for n in names}
    assert before == after


def test_report_aggregates_and_prints(pipeline, capsys):
    root, cfg = pipeline
    assert main(["report", "--config", str(cfg)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "macro_f1" in out and "pr_auc" in out
    assert "[incomplete]" not in out
    agg = (root / "out/reports/aggregate.csv").read_text().splitlines()
    assert agg[0] == "model,n_labeled,metric,mean,std,n_reps,complete"
    assert (root / "out/reports/cost_curve.csv").exists()


RECORDS = (
    "prepared/prepare.json", "runs/nl40_rep0/train.json", "runs/nl40_rep1/train.json",
    "reports/evaluate.json", "reports/report.json",
)


def test_stage_records_cover_all_artifacts(pipeline):
    """Every stage run wrote its own record, and every file under the output
    directory lies in a directory that holds a record, or in the cache
    directory that `prepare` recorded."""
    root, cfg = pipeline
    out = root / "out"
    records = {rel: json.loads((out / rel).read_text()) for rel in RECORDS}
    config = ExperimentConfig.from_yaml(cfg)
    for record in records.values():
        assert ExperimentConfig.from_dict(record["config"]) == config
        assert record["seconds"] > 0
    cache = Path(records["prepared/prepare.json"]["cache"])
    assert records["prepared/prepare.json"]["stats"]["n_samples"] > 0
    rep0, rep1 = (records[f"runs/nl40_rep{rep}/train.json"] for rep in (0, 1))
    assert rep0["spawn_key"] != rep1["spawn_key"]
    assert rep0["cell_seed"] != rep1["cell_seed"]
    assert records["reports/evaluate.json"]["cells"] == 2
    recorded = {(out / rel).parent for rel in RECORDS} | {cache}
    for f in out.rglob("*"):
        if f.is_file():
            assert recorded & set(f.parents), f.relative_to(out)


def test_dump_encoding_prints_feature_row(pipeline, capsys):
    """The printed numbers read back, through repr, to the sample's cached
    row scaled by the maxima splits.json records, bit for bit."""
    root, cfg = pipeline
    splits = json.loads((root / "out/prepared/splits.json").read_text())
    cust = splits["customers"][0]
    assert main(["prepare", "--config", str(cfg), "--dump-encoding", f"{cust}:5"]) == EXIT_OK
    last = capsys.readouterr().out.strip().splitlines()[-1]
    vals = np.array([float(tok) for tok in last.split()])
    assert len(vals) == 28  # 7-channel degree-2 log-signature
    customers, _ = group_customers(load_transactions(root / "corpus.csv"))
    kept = [cs for cs in customers if cs.customer in set(splits["customers"])]
    samples = make_samples(kept, 5)
    cache = json.loads((root / "out/prepared/prepare.json").read_text())["cache"]
    store, hit = build_feature_store(
        samples, 2, cache, dataset_fingerprint(root / "corpus.csv"), 5
    )
    assert hit
    (row,) = np.flatnonzero((samples.customer_idx == 0) & (samples.prefix_len == 5))
    want = scale_matrix(store.matrix[row], store.basis, splits["max_sd"], splits["max_amt"])
    assert vals.tobytes() == want.tobytes()


def test_prepare_cache_hit_on_rerun(pipeline, capsys):
    _, cfg = pipeline
    assert main(["prepare", "--config", str(cfg)]) == EXIT_OK
    assert "cache_hit=True" in capsys.readouterr().out


def test_unknown_nl_rejected(pipeline, monkeypatch):
    """A cell that was not prepared exits 2 before the corpus or a feature
    row is read."""
    _, cfg = pipeline

    def unexpected(*args, **kwargs):
        raise AssertionError("read data before the cell was checked")

    monkeypatch.setattr(cli, "FeatureRows", unexpected)
    monkeypatch.setattr(banksim, "load_transactions", unexpected)
    assert main(["train", "--config", str(cfg), "--nl", "99", "--rep", "0"]) == EXIT_CONFIG
    assert main(["train", "--config", str(cfg), "--nl", "40", "--rep", "99"]) == EXIT_CONFIG


def test_ambiguous_nl_is_config_error(tmp_path, capsys):
    """At --subsample 0.1 the sizes [40, 400] become [4, 40]: `--nl 40` is one
    cell's effective size and the other's configured size, so it exits 2
    naming both, while `--nl 4` and `--nl 400` each train their cell."""
    generate(tmp_path / "corpus.csv", SynthSpec.small(), seed=1)
    cfg = _write_config(tmp_path, split={"labeled_sizes": [40, 400], "repetitions": 1})
    assert main(["prepare", "--config", str(cfg), "--subsample", "0.1"]) == EXIT_OK
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--nl", "40", "--rep", "0"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configured as 40 and the cell configured as 400" in err
    for nl, cell in (("4", "nl4_rep0"), ("400", "nl40_rep0")):
        assert main(["train", "--config", str(cfg), "--nl", nl, "--rep", "0"]) == EXIT_OK
        assert (tmp_path / "out/runs" / cell / "trace.csv").exists()


def test_missing_dataset_is_data_error(tmp_path):
    cfg = _write_config(tmp_path)  # corpus.csv never generated
    assert main(["prepare", "--config", str(cfg)]) == EXIT_DATA


def test_malformed_dataset_is_data_error(tmp_path):
    (tmp_path / "corpus.csv").write_text("step,bogus\n1,2\n")
    cfg = _write_config(tmp_path)
    assert main(["prepare", "--config", str(cfg)]) == EXIT_DATA


_HEADER = ",".join(COLUMNS)


def _rows(customer, n, gender="F"):
    return [f"{i},'{customer}','2','{gender}','28007','M1','28007','es_food',9.5,0" for i in range(n)]


# (corpus rows, prepare options, counts the message gives) of corpora that
# yield no prefix sample at min_prefix 5.
_NO_SAMPLES = {
    "header-only": ([], [], "has 0 rows and 0 kept customers"),
    "header-only-subsampled": ([], ["--subsample", "0.5"], "has 0 rows and 0 kept customers"),
    "all-excluded-for-gender": (
        _rows("C1", 6, gender="E") + _rows("C2", 7, gender="U"), [],
        "has 13 rows and 0 kept customers",
    ),
    "all-shorter-than-min-prefix": (
        _rows("C1", 4) + _rows("C2", 3), [], "has 7 rows and 2 kept customers",
    ),
}


@pytest.mark.parametrize("case", list(_NO_SAMPLES))
def test_corpus_without_samples_is_data_error(tmp_path, capsys, case):
    rows, options, counts = _NO_SAMPLES[case]
    (tmp_path / "corpus.csv").write_text("\n".join([_HEADER, *rows]) + "\n")
    cfg = _write_config(tmp_path)
    assert main(["prepare", "--config", str(cfg), *options]) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(tmp_path / "corpus.csv") in err and counts in err and "0 samples" in err


def test_undecodable_dataset_is_data_error(tmp_path, capsys):
    rows = _rows("C1", 6)
    rows[2] = rows[2].replace("es_food", "caf\xe9")
    (tmp_path / "corpus.csv").write_bytes(("\n".join([_HEADER, *rows]) + "\n").encode("latin-1"))
    cfg = _write_config(tmp_path)
    assert main(["prepare", "--config", str(cfg)]) == EXIT_DATA
    assert "line 4: byte 0xe9 is not UTF-8" in capsys.readouterr().err


def test_step_beyond_int64_is_data_error(tmp_path, capsys):
    rows = _rows("C1", 6)
    rows[3] = "99999999999999999999" + rows[3][1:]
    (tmp_path / "corpus.csv").write_text("\n".join([_HEADER, *rows]) + "\n")
    cfg = _write_config(tmp_path)
    assert main(["prepare", "--config", str(cfg)]) == EXIT_DATA
    assert "line 5: 'step' value '99999999999999999999' is outside int64" in capsys.readouterr().err


def test_invalid_config_is_config_error(tmp_path):
    generate(tmp_path / "corpus.csv", SynthSpec.small(), seed=1)
    cfg = _write_config(tmp_path, sig_degree=0)
    assert main(["prepare", "--config", str(cfg)]) == EXIT_CONFIG
    cfg = _write_config(tmp_path, train={"optimizer": "adam"})  # removed setting
    assert main(["train", "--config", str(cfg), "--nl", "40", "--rep", "0"]) == EXIT_CONFIG
    cfg = _write_config(tmp_path, split={"seed": 0})  # removed setting
    assert main(["prepare", "--config", str(cfg)]) == EXIT_CONFIG
    cfg = _write_config(tmp_path, train={"noise_scale": 0.0})  # removed setting
    assert main(["train", "--config", str(cfg), "--nl", "40", "--rep", "0"]) == EXIT_CONFIG


def _no_train_idx(splits):
    del splits["train_idx"]


def _no_n_samples(splits):
    del splits["stats"]["n_samples"]


def _no_features(splits):
    del splits["features"]


def _train_idx_out_of_range(splits):
    splits["train_idx"][-1] = splits["stats"]["n_samples"]


def _string_in_test_idx(splits):
    splits["test_idx"][0] = str(splits["test_idx"][0])


def _labeled_out_of_range(splits):
    splits["labeled"]["0:0"][-1] = splits["stats"]["n_samples"] + 5


def _labeled_from_test_idx(splits):
    labeled = splits["labeled"]["0:0"]
    labeled[0] = splits["test_idx"][0]
    labeled.sort()


def _subsample_not_a_fraction(splits):
    splits["subsample"] = 1.5


def _customers_not_a_list(splits):
    splits["customers"] = 5


def _configured_sizes_not_a_list(splits):
    splits["configured_sizes"] = 5


def _labeled_size_not_an_int(splits):
    splits["labeled_sizes"] = [40.5]


def _repetitions_zero(splits):
    splits["repetitions"] = 0


def _repetitions_not_an_int(splits):
    splits["repetitions"] = True


@pytest.mark.parametrize(
    "content",
    ['{"customers": ["C1", "C', "[1, 2]", _no_train_idx, _no_n_samples, _train_idx_out_of_range,
     _string_in_test_idx, _labeled_out_of_range, _labeled_from_test_idx, _no_features,
     _subsample_not_a_fraction, _customers_not_a_list, _configured_sizes_not_a_list,
     _labeled_size_not_an_int, _repetitions_zero, _repetitions_not_an_int],
    ids=["truncated", "not-an-object", "no-train-idx", "no-n-samples", "train-idx-out-of-range",
         "string-in-test-idx", "labeled-out-of-range", "labeled-from-test-idx", "no-features",
         "subsample-not-a-fraction", "customers-not-a-list", "configured-sizes-not-a-list",
         "labeled-size-not-an-int", "repetitions-zero", "repetitions-not-an-int"],
)
def test_unreadable_splits_is_data_error(tmp_path, capsys, content):
    """A splits file that does not parse, is not an object, lacks an entry,
    top-level (the feature key among them) or nested, or holds an index set that is not a strictly
    increasing list of sample indices, a test set that shares a sample with
    the train set, a labeled set not inside it, a subsample outside (0, 1],
    customers that are not a list of ids, labeled sizes that are not distinct
    ints >= 1, configured sizes that are not one int >= 1 per labeled size
    or a repetition count that is not an int >= 1 exits 3 and names the
    file, in train and in evaluate."""
    generate(tmp_path / "corpus.csv", SynthSpec.small(), seed=1)
    cfg = _write_config(tmp_path)
    splits = tmp_path / "out" / "prepared" / "splits.json"
    if callable(content):
        assert main(["prepare", "--config", str(cfg)]) == EXIT_OK
        prepared = json.loads(splits.read_text())
        content(prepared)
        content = json.dumps(prepared)
    splits.parent.mkdir(parents=True, exist_ok=True)
    splits.write_text(content)
    assert main(["train", "--config", str(cfg), "--nl", "40", "--rep", "0"]) == EXIT_DATA
    assert main(["evaluate", "--config", str(cfg)]) == EXIT_DATA
    assert capsys.readouterr().err.count(str(splits)) == 2


def test_recorded_maxima_are_not_read(pipeline, tmp_path):
    """The scaling maxima come from the train split, not from splits.json:
    with both recorded maxima edited to null and NaN, the test rows are
    bit-identical."""
    cfg = ExperimentConfig.from_yaml(_copy_run(pipeline, tmp_path))
    before = cli.Prepared(cfg).test_split().feats
    path = tmp_path / "out" / cli.SPLITS_REL
    splits = json.loads(path.read_text())
    splits.update(max_sd=None, max_amt=float("nan"))
    path.write_text(json.dumps(splits))
    after = cli.Prepared(cfg).test_split().feats
    assert after.tobytes() == before.tobytes()


def test_subsample_of_other_customers_misses_the_cache(tmp_path, capsys):
    """On a corpus of equal-length customers, `prepare --subsample 0.5` at
    seeds 0 and 3 keeps as many samples of other customers.  The second run
    misses the cache, and its features.bin is the encoding of its customers."""
    rows = [
        f"{i},'C{c}','2','F','28007','M1','28007','es_food',{c + 0.5 * i},"
        f"{int(i == 9 and c % 3 == 0)}"
        for c in range(20)
        for i in range(10)
    ]
    (tmp_path / "corpus.csv").write_text("\n".join([_HEADER, *rows]) + "\n")
    splits = tmp_path / "out/prepared/splits.json"
    kept = []
    for seed in (0, 3):
        capsys.readouterr()
        cfg = _write_config(tmp_path, seed=seed)
        assert main(["prepare", "--config", str(cfg), "--subsample", "0.5"]) == EXIT_OK
        kept.append(json.loads(splits.read_text())["customers"])
    assert kept[0] != kept[1] and len(kept[0]) == len(kept[1])
    assert "cache_hit=False" in capsys.readouterr().out
    customers, _ = group_customers(load_transactions(tmp_path / "corpus.csv"))
    samples = make_samples([cs for cs in customers if cs.customer in set(kept[1])], 5)
    fresh, _ = build_feature_store(samples, 2, tmp_path / "fresh", "h", 5)
    (cached,) = (tmp_path / "out/cache").rglob("features.bin")
    assert cached.read_bytes() == fresh.path.read_bytes()


def _edit_one_kept_amount(base: dict, splits: dict, root: Path) -> None:
    lines = Path(base["dataset_path"]).read_text().splitlines()
    i = next(
        i for i, line in enumerate(lines[1:], 1)
        if line.split(",")[1].strip("'") in set(splits["customers"])
    )
    fields = lines[i].split(",")
    fields[COLUMNS.index("amount")] = repr(float(fields[COLUMNS.index("amount")]) + 1.0)
    lines[i] = ",".join(fields)
    base["dataset_path"] = str(root / "edited.csv")
    Path(base["dataset_path"]).write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "change, key",
    [(_edit_one_kept_amount, "dataset_sha256"), ({"sig_degree": 3}, "degree"),
     ({"min_prefix": 6}, "min_prefix")],
    ids=["edited-amount", "sig-degree", "min-prefix"],
)
def test_change_since_prepare_is_data_error(pipeline, tmp_path, capsys, change, key):
    """A corpus, `sig_degree` or `min_prefix` changed since `prepare` exits 3
    in train and in evaluate, naming splits.json and the differing key,
    before any feature is encoded: the cache stays as it was."""
    cfg = _copy_run(pipeline, tmp_path)
    splits = tmp_path / "out/prepared/splits.json"
    base = yaml.safe_load(cfg.read_text())
    if callable(change):
        change(base, json.loads(splits.read_text()), tmp_path)
    else:
        base.update(change)
    cfg.write_text(yaml.safe_dump(base))

    def cache_files():
        return {p: p.is_file() and p.read_bytes() for p in (tmp_path / "out/cache").rglob("*")}

    before = cache_files()
    for stage, *argv in (["train", "--nl", "40", "--rep", "0"], ["evaluate"]):
        assert main([stage, "--config", str(cfg), *argv]) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(splits) in err and f"{key}: " in err and "run `fraudsig prepare` again" in err
    assert cache_files() == before


def test_evaluate_without_training_is_data_error(tmp_path):
    generate(tmp_path / "corpus.csv", SynthSpec.small(), seed=2)
    cfg = _write_config(tmp_path)
    assert main(["prepare", "--config", str(cfg)]) == EXIT_OK
    assert main(["evaluate", "--config", str(cfg)]) == EXIT_DATA
    assert main(["report", "--config", str(cfg)]) == EXIT_DATA


def test_evaluate_scores_only_finished_cells(pipeline, tmp_path, capsys, caplog):
    """Of three cells, one finished, one stopped before burn-in (its
    checkpoint lists no member) and one stopped after it (two of its four
    members committed, beside an uncommitted tail), `evaluate` scores only
    the finished one and counts the other two missing, naming them.  The
    two unfinished cells alone exit 3, with no traceback."""
    shutil.copy(pipeline[0] / "corpus.csv", tmp_path / "corpus.csv")
    cfg = _write_config(tmp_path, split={"repetitions": 3}, train={"checkpoint_every": 1})
    assert main(["prepare", "--config", str(cfg)]) == EXIT_OK
    train = ["train", "--config", str(cfg), "--nl", "40", "--rep"]
    assert main([*train, "0"]) == EXIT_OK

    class Stop(Exception):
        pass

    def train_stopping_in(epoch):
        """`train` stopped in `epoch`, after it appended the epoch's members
        and before it committed the epoch's checkpoint."""

        def stop(e, *_):
            if e == epoch:
                raise Stop

        return lambda *args, **kwargs: training.train(*args, epoch_callback=stop, **kwargs)

    for rep, epoch in (("1", 2), ("2", 4)):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(cli, "train", train_stopping_in(epoch))
            with pytest.raises(Stop):
                main([*train, rep])

    capsys.readouterr()
    with caplog.at_level(logging.INFO):
        assert main(["evaluate", "--config", str(cfg)]) == EXIT_OK
    record = json.loads((tmp_path / "out/reports/evaluate.json").read_text())
    assert (record["cells"], record["missing"]) == (1, 2)
    rows = reports.read_csv(tmp_path / "out/reports" / reports.GLOBAL_CSV)
    assert {row["repetition"] for row in rows} == {"0"}
    logged = [r.getMessage() for r in caplog.records]
    for rep, held in ((1, 0), (2, 2)):
        assert f"nl40 rep{rep} holds {held} of 4 members; skipping it as unfinished" in logged

    shutil.rmtree(tmp_path / "out/runs/nl40_rep0")
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "no finished cells" in err and "Traceback" not in err


def test_diverged_training_exit_code(tmp_path, nan_weights):
    generate(tmp_path / "corpus.csv", SynthSpec.small(), seed=3)
    cfg = _write_config(tmp_path, train=dict(epochs=30, friction=0.0))
    assert main(["prepare", "--config", str(cfg)]) == EXIT_OK
    nan_weights(0)
    assert main(["train", "--config", str(cfg), "--nl", "40", "--rep", "0"]) == EXIT_DIVERGED


def test_report_judges_completeness_by_the_prepared_grid(pipeline, tmp_path, capsys):
    """With `repetitions` raised in the config after `prepare` (2 -> 5),
    evaluate scores the prepared grid's two cells, and report finds each
    size complete: both read the repetition count splits.json records."""
    cfg = _copy_run(pipeline, tmp_path)
    raw = yaml.safe_load(cfg.read_text())
    raw["split"]["repetitions"] = 5
    cfg.write_text(yaml.safe_dump(raw))
    assert main(["evaluate", "--config", str(cfg)]) == EXIT_OK
    assert main(["report", "--config", str(cfg)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "evaluated 2 cells (0 missing)" in out
    assert "N_l=" in out and "[incomplete]" not in out


def test_incomplete_report_is_flagged(tmp_path, capsys):
    generate(tmp_path / "corpus.csv", SynthSpec.small(), seed=4)
    cfg = _write_config(tmp_path)
    assert main(["prepare", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--nl", "40", "--rep", "0"]) == EXIT_OK
    assert main(["evaluate", "--config", str(cfg)]) == EXIT_OK
    assert main(["report", "--config", str(cfg)]) == EXIT_OK
    assert "[incomplete]" in capsys.readouterr().out


def test_train_resume_matches_full_run(pipeline, tmp_path):
    """Interrupt-and-resume yields the same checkpoint as the pipeline run."""
    root, _ = pipeline
    out2 = tmp_path / "out2"
    cfg2 = tmp_path / "config.yaml"
    base = yaml.safe_load((root / "config.yaml").read_text())
    base["output_dir"] = str(out2)
    short = dict(base)
    short["train"] = dict(base["train"], epochs=2)
    cfg2.write_text(yaml.safe_dump(short))
    assert main(["prepare", "--config", str(cfg2)]) == EXIT_OK
    assert main(["train", "--config", str(cfg2), "--nl", "40", "--rep", "0"]) == EXIT_OK
    cfg2.write_text(yaml.safe_dump(base))
    assert main(
        ["train", "--config", str(cfg2), "--nl", "40", "--rep", "0", "--resume"]
    ) == EXIT_OK
    ref = root / "out/runs/nl40_rep0"
    got = out2 / "runs/nl40_rep0"
    assert (got / "trace.csv").read_bytes() == (ref / "trace.csv").read_bytes()
    state_ref = json.loads((ref / "checkpoint/state.json").read_text())
    state_got = json.loads((got / "checkpoint/state.json").read_text())
    assert state_got["epoch"] == state_ref["epoch"]
    assert state_got["members"] == state_ref["members"]
    ref_members = sorted(p.name for p in (ref / "checkpoint").glob("member*"))
    for name in ref_members:
        a = ref / "checkpoint" / name
        b = got / "checkpoint" / name
        if a.is_file():
            assert a.read_bytes() == b.read_bytes(), name


def test_train_is_byte_identical_on_one_or_two_threads(pipeline, tmp_path, monkeypatch):
    """The 2+2 chains of a cell step on a pool of as many threads as there
    are usable CPUs, up to the chain count; one thread and two write the
    same trace and checkpoint files, byte for byte."""
    pools = []

    def pool(n):
        pools.append(n)
        return ThreadPoolExecutor(n)

    monkeypatch.setattr(training, "ThreadPoolExecutor", pool)
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(training, "_usable_cpus", lambda: cpus)
        cfg = _copy_run(pipeline, tmp_path / f"cpus{cpus}")
        assert main(["train", "--config", str(cfg), "--nl", "40", "--rep", "0"]) == EXIT_OK
        run = tmp_path / f"cpus{cpus}/out/runs/nl40_rep0"
        runs[cpus] = {  # all but the record, which holds the seconds
            p.relative_to(run): p.read_bytes()
            for p in sorted(run.rglob("*")) if p.is_file() and p.name != "train.json"
        }
    assert pools == [1, 2]
    assert sorted(map(str, runs[1])) == [
        "checkpoint/chains-4.bin", "checkpoint/members.bin", "checkpoint/state.json",
        "checkpoint/trace.csv", "trace.csv",
    ]
    assert runs[1] == runs[2]


@pytest.mark.parametrize("crash_at", ["replace", "unlink"], ids=["before-commit", "after-commit"])
def test_resume_after_crash_during_checkpoint(pipeline, tmp_path, monkeypatch, crash_at):
    """A crash in the epoch-4 checkpoint loses nothing.  At the replace of
    state.json the epoch-2 checkpoint stays committed, beside members.bin
    and trace.csv tails and a chains file that no state refers to; after
    that replace the epoch-2 chains file is left over.  Either way --resume
    ends with the files of an uninterrupted run, byte for byte, with no
    epoch of the trace missing or twice."""
    root, _ = pipeline
    base = yaml.safe_load((root / "config.yaml").read_text())
    base["output_dir"] = str(tmp_path / "out2")
    cfg2 = tmp_path / "config.yaml"
    cfg2.write_text(yaml.safe_dump(base))
    assert main(["prepare", "--config", str(cfg2)]) == EXIT_OK

    class Crash(Exception):
        pass

    real = getattr(Path, crash_at)
    target = "state.json.*.tmp" if crash_at == "replace" else "chains-2.bin"

    def crashing(self, *args, **kwargs):
        if self.match(target) and (self.parent / "chains-4.bin").exists():
            raise Crash
        return real(self, *args, **kwargs)

    train_args = ["train", "--config", str(cfg2), "--nl", "40", "--rep", "0"]
    with monkeypatch.context() as m:
        m.setattr(Path, crash_at, crashing)
        with pytest.raises(Crash):
            main(train_args)
    ref = root / "out/runs/nl40_rep0"
    got = tmp_path / "out2/runs/nl40_rep0"
    state = json.loads((got / "checkpoint/state.json").read_text())
    assert state["epoch"] == (2 if crash_at == "replace" else 4)
    assert {"chains-2.bin", "chains-4.bin"} <= {p.name for p in (got / "checkpoint").iterdir()}
    members = (got / "checkpoint/members.bin").stat().st_size
    assert members == (ref / "checkpoint/members.bin").stat().st_size
    trace = (got / "checkpoint/trace.csv").stat().st_size
    assert trace == (ref / "checkpoint/trace.csv").stat().st_size
    assert (state["trace_bytes"] < trace) == (crash_at == "replace")

    assert main(train_args + ["--resume"]) == EXIT_OK
    assert json.loads((got / "train.json").read_text())["resumed"] is True
    assert (got / "trace.csv").read_bytes() == (ref / "trace.csv").read_bytes()
    assert sorted(p.name for p in got.iterdir()) == ["checkpoint", "trace.csv", "train.json"]
    names = sorted(p.name for p in (ref / "checkpoint").iterdir())
    assert "trace.csv" in names
    assert sorted(p.name for p in (got / "checkpoint").iterdir()) == names
    for name in names:
        assert (ref / "checkpoint" / name).read_bytes() == (got / "checkpoint" / name).read_bytes()


@pytest.mark.parametrize("stage", ["train", "evaluate"])
def test_feature_cache_cut_short_while_open_is_data_error(
    pipeline, tmp_path, capsys, monkeypatch, stage
):
    """features.bin cut short in place after the stage opened the cache and
    before it read its rows: exit 3 naming the file, with no traceback."""
    cfg = _copy_run(pipeline, tmp_path)
    bin_path = next((tmp_path / "out/cache").rglob("features.bin"))
    build = cli.build_feature_store

    def build_then_cut(*args, **kwargs):
        store, hit = build(*args, **kwargs)
        assert hit
        data = bin_path.read_bytes()
        bin_path.write_bytes(data[: len(data) // 2])
        return store, hit

    monkeypatch.setattr(cli, "build_feature_store", build_then_cut)
    argv = {"train": ["--nl", "40", "--rep", "0"], "evaluate": []}[stage]
    assert main([stage, "--config", str(cfg), *argv]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{bin_path} is cut short" in err and "Traceback" not in err


def _open_paths(name: str) -> list[str]:
    """The files this process holds open whose path contains `name`."""
    targets = []
    for fd in Path("/proc/self/fd").iterdir():
        with contextlib.suppress(OSError):  # the directory's own descriptor
            targets.append(os.readlink(fd))
    return [t for t in targets if name in t]


needs_proc_fd = pytest.mark.skipif(
    not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd"
)


def _holding_sources(monkeypatch) -> list:
    """Every FeatureRows the CLI makes, kept alive here, so that only its
    close() can release its descriptor."""
    held = []

    def make(*args):
        held.append(features.FeatureRows(*args))
        return held[-1]

    monkeypatch.setattr(cli, "FeatureRows", make)
    return held


def _after_first_epoch(monkeypatch, action) -> None:
    """Make every `train` the CLI calls run `action` once its first epoch ends."""
    run = cli.train

    def train_then_act(*args, **kwargs):
        def on_epoch(epoch, *_):
            if epoch == 1:
                action()

        return run(*args, epoch_callback=on_epoch, **kwargs)

    monkeypatch.setattr(cli, "train", train_then_act)


@needs_proc_fd
def test_feature_cache_cut_short_between_epochs_is_data_error(
    pipeline, tmp_path, capsys, monkeypatch
):
    """features.bin cut short in place after train's first epoch: the next
    minibatch read exits 3 naming the file, with no traceback, and the
    file's descriptor is closed."""
    cfg = _copy_run(pipeline, tmp_path)
    bin_path = next((tmp_path / "out/cache").rglob("features.bin"))
    held = _holding_sources(monkeypatch)
    _after_first_epoch(monkeypatch, lambda: os.truncate(bin_path, 8))
    assert main(["train", "--config", str(cfg), "--nl", "40", "--rep", "0"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{bin_path} is cut short" in err and "Traceback" not in err
    trace = (tmp_path / "out/runs/nl40_rep0/checkpoint/trace.csv").read_text()
    assert trace.splitlines()[-1].startswith("1,")  # the first epoch ran
    assert len(held) == 1 and _open_paths("features.bin") == []


@needs_proc_fd
def test_feature_cache_replaced_between_epochs_keeps_the_run(pipeline, tmp_path, monkeypatch):
    """features.bin replaced by a rename after train's first epoch, as
    `prepare` commits it, here by a file of zeros: the running cell reads
    the rows it opened, so it writes the pipeline run's bytes, and the
    descriptor of the replaced file is closed when train returns."""
    cfg = _copy_run(pipeline, tmp_path)
    bin_path = next((tmp_path / "out/cache").rglob("features.bin"))

    def replace():
        size = bin_path.stat().st_size
        with committing(bin_path) as tmp:
            tmp.write_bytes(bytes(size))

    held = _holding_sources(monkeypatch)
    _after_first_epoch(monkeypatch, replace)
    assert main(["train", "--config", str(cfg), "--nl", "40", "--rep", "0"]) == EXIT_OK
    assert not any(bin_path.read_bytes())
    ref, got = pipeline[0] / "out/runs/nl40_rep0", tmp_path / "out/runs/nl40_rep0"
    for name in ("trace.csv", "checkpoint/members.bin", "checkpoint/chains-4.bin"):
        assert (got / name).read_bytes() == (ref / name).read_bytes(), name
    assert len(held) == 1 and _open_paths("features.bin") == []


@needs_proc_fd
def test_evaluate_and_dump_encoding_release_the_feature_file(pipeline, tmp_path, monkeypatch):
    """`evaluate` and `prepare --dump-encoding` each read their rows through
    one FeatureRows and close its descriptor before they return."""
    cfg = _copy_run(pipeline, tmp_path)
    cust = json.loads((tmp_path / "out" / cli.SPLITS_REL).read_text())["customers"][0]
    for argv in (["evaluate"], ["prepare", "--dump-encoding", f"{cust}:5"]):
        held = _holding_sources(monkeypatch)
        assert main([*argv, "--config", str(cfg)]) == EXIT_OK
        assert len(held) == 1 and _open_paths("features.bin") == [], argv


def test_full_disk_at_a_member_append_is_data_error(pipeline, tmp_path, capsys, monkeypatch):
    """A disk that fills while `train` appends epoch 2's members, after 100
    bytes of them: exit 3 with one line naming members.bin, no traceback.
    `--resume` then runs on from the epoch-1 checkpoint and leaves the
    pipeline run's bytes."""
    cfg = _copy_run(pipeline, tmp_path, checkpoint_every=1)
    run = tmp_path / "out/runs/nl40_rep0"
    members = run / "checkpoint/members.bin"
    write, calls = training._write, []

    def write_then_fill(f, tensors):
        if f.name == str(members):
            calls.append(f)
            if len(calls) == 1:  # epoch 2 collects the first members
                f.write(bytes(100))
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        write(f, tensors)

    monkeypatch.setattr(training, "_write", write_then_fill)
    argv = ["train", "--config", str(cfg), "--nl", "40", "--rep", "0"]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1] == (
        f"data error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{members}'"
    )
    assert members.stat().st_size == 100
    assert json.loads((run / "checkpoint/state.json").read_text())["epoch"] == 1
    monkeypatch.setattr(training, "_write", write)
    assert main([*argv, "--resume"]) == EXIT_OK
    ref = pipeline[0] / "out/runs/nl40_rep0"
    names = sorted(f.relative_to(ref) for f in (ref / "checkpoint").iterdir())
    assert names == sorted(f.relative_to(run) for f in (run / "checkpoint").iterdir())
    for name in (*names, "trace.csv"):
        assert (run / name).read_bytes() == (ref / name).read_bytes(), name


def test_full_disk_at_a_report_table_is_data_error(pipeline, tmp_path, capsys, monkeypatch):
    """A disk that fills while `evaluate` writes its first report table:
    exit 3 with one line naming the table, no traceback, and no table or
    temporary file left behind."""
    cfg = _copy_run(pipeline, tmp_path)
    shutil.rmtree(tmp_path / "out/reports")

    def fill(value):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(reports, "_fmt", fill)
    assert main(["evaluate", "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    table = tmp_path / "out/reports" / reports._TABLES[0][0]
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].endswith(f"{os.strerror(errno.ENOSPC)}: '{table}'")
    assert not list((tmp_path / "out/reports").iterdir())


@pytest.mark.parametrize("cpus", [1, 2])
def test_members_cut_short_while_open_is_data_error(
    pipeline, tmp_path, capsys, monkeypatch, cpus
):
    """members.bin cut short in place after `evaluate` checked it against
    state.json and before it read the last members, on one prediction
    thread or two: exit 3 naming the file, with no traceback and no report
    table."""
    cfg = _copy_run(pipeline, tmp_path)
    shutil.rmtree(tmp_path / "out/reports")
    ckpt = tmp_path / "out/runs/nl40_rep0/checkpoint"
    load = cli.load_members
    monkeypatch.setattr(training, "_usable_cpus", lambda: cpus)

    def load_then_cut(checkpoint_dir, shapes):
        members = load(checkpoint_dir, shapes)
        if checkpoint_dir == ckpt:
            data = (ckpt / "members.bin").read_bytes()
            (ckpt / "members.bin").write_bytes(data[: len(data) // 2])
        return members

    monkeypatch.setattr(cli, "load_members", load_then_cut)
    assert main(["evaluate", "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{ckpt}: members.bin holds" in err and "Traceback" not in err
    assert not list((tmp_path / "out").glob("reports/*.csv"))


def test_evaluate_reports_do_not_depend_on_the_thread_count(pipeline, tmp_path, monkeypatch):
    """`evaluate` on one usable CPU and on two writes the four report tables
    byte for byte."""
    tables = {}
    for cpus in (1, 2):
        cfg = _copy_run(pipeline, tmp_path / f"cpus{cpus}")
        monkeypatch.setattr(training, "_usable_cpus", lambda: cpus)
        assert main(["evaluate", "--config", str(cfg)]) == EXIT_OK
        tables[cpus] = {
            name: (tmp_path / f"cpus{cpus}/out/reports" / name).read_bytes()
            for name, _, _ in reports._TABLES
        }
    assert len(tables[1]) == 4 and tables[1] == tables[2]


def _copy_run(pipeline, tmp_path, **train_over) -> Path:
    """A config whose output directory is a copy of the pipeline run."""
    root, _ = pipeline
    shutil.copytree(root / "out", tmp_path / "out")
    base = yaml.safe_load((root / "config.yaml").read_text())
    base["output_dir"] = str(tmp_path / "out")
    base["train"].update(train_over)
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump(base))
    return cfg


def _chain_state_elsewhere(state, ckpt):
    """chain_state names a byte copy of the real chains file outside ckpt."""
    shutil.copy(ckpt / state["chain_state"], ckpt.parent / state["chain_state"])
    state["chain_state"] = f"../{state['chain_state']}"


def _trace_bytes_as_text(state, ckpt):
    state["trace_bytes"] = str(state["trace_bytes"])


def _foreign_perm(state, ckpt):
    perm = state["cycle"]["perm"]
    perm[0] = max(perm) + 1


_STATE_EDITS = {
    "no-cycle": lambda state, ckpt: state.pop("cycle"),
    "chains-entry-dropped": lambda state, ckpt: state["gen_chains"].pop(),
    "chains-entry-moved":
        lambda state, ckpt: state["disc_chains"].append(state["gen_chains"].pop()),
    "chain-state-elsewhere": _chain_state_elsewhere,
    "trace-bytes-not-an-int": _trace_bytes_as_text,
    "cycle-pos-past-end":
        lambda state, ckpt: state["cycle"].update(pos=len(state["cycle"]["perm"]) + 5),
    "cycle-perm-foreign": _foreign_perm,
    "adam-t-negative": lambda state, ckpt: state["disc_chains"][0].update(adam_t=-7),
    "adam-t-not-an-int": lambda state, ckpt: state["gen_chains"][0].update(adam_t=True),
    "epoch-not-an-int": lambda state, ckpt: state.update(epoch=float(state["epoch"])),
    "member-chain-not-an-int": lambda state, ckpt: state["members"][0].update(chain="0"),
}


@pytest.mark.parametrize(
    "name", ["state.json", "members.bin", "chains-*.bin", "trace.csv", *_STATE_EDITS]
)
def test_unreadable_checkpoint_is_data_error(pipeline, tmp_path, capsys, name):
    """A cut-short checkpoint file (trace.csv shorter than the length
    state.json commits among them), or a state.json without its `cycle`
    entry, with a generator chain entry fewer than its fingerprint's chain
    count or moved to the critic side, with a chain state other than its
    epoch's chains file, a committed trace length that is not an int, or a
    labeled cycle whose position is past its permutation or whose
    permutation holds a sample outside the labeled set, or a counter (the
    epoch, a chain's adam_t, a member's chain) that is not an int in its
    range, exits 3 in train --resume and names the checkpoint (state.json,
    for an edit of it), instead of raising a traceback, blaming the config,
    reporting a divergence or resuming.  evaluate exits 3 too where it reads
    the broken entry."""
    cfg = _copy_run(pipeline, tmp_path)
    ckpt = tmp_path / "out/runs/nl40_rep0/checkpoint"
    named = ckpt
    if name in _STATE_EDITS:
        named = ckpt / "state.json"
        state = json.loads(named.read_text())
        _STATE_EDITS[name](state, ckpt)
        named.write_text(json.dumps(state))
    else:
        path = next(ckpt.glob(name))
        path.write_bytes(path.read_bytes()[:50])
    train_args = ["train", "--config", str(cfg), "--nl", "40", "--rep", "0", "--resume"]
    assert main(train_args) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(named) in err
    if name == "trace.csv":
        assert f"{ckpt}: trace.csv holds 50 of" in err
    # evaluate reads the ensemble only: the member list and members.bin.
    broken = ("state.json", "members.bin", "no-cycle", "member-chain-not-an-int")
    expected = EXIT_DATA if name in broken else EXIT_OK
    assert main(["evaluate", "--config", str(cfg)]) == expected


@pytest.mark.parametrize(
    "name",
    ["global_metrics.csv", "head_metrics.csv", "partial_pr_auc.csv", "uncertainty_metrics.csv"],
)
def test_cut_short_report_table_is_data_error(pipeline, tmp_path, capsys, name):
    """`report` over an evaluation table cut short inside its first row
    exits 3 and names the table, instead of raising a traceback."""
    cfg = _copy_run(pipeline, tmp_path)
    table = tmp_path / "out/reports" / name
    text = table.read_text()
    table.write_text(text[: text.index("\n") + 8])
    assert main(["report", "--config", str(cfg)]) == EXIT_DATA
    assert str(table) in capsys.readouterr().err


@pytest.mark.parametrize("value", ["C1:five", "C1"], ids=["not-an-int", "no-prefix"])
def test_malformed_dump_encoding_is_config_error(pipeline, tmp_path, capsys, value):
    cfg = _copy_run(pipeline, tmp_path)
    assert main(["prepare", "--config", str(cfg), "--dump-encoding", value]) == EXIT_CONFIG
    assert "--dump-encoding" in capsys.readouterr().err


@pytest.mark.parametrize("unknown", ["customer", "prefix"])
def test_dump_encoding_of_no_sample_is_data_error(pipeline, tmp_path, capsys, unknown):
    """A CUSTOMER:PREFIX that names no sample, by an unknown customer or by a
    prefix past the customer's series, exits 3 naming the customer."""
    cfg = _copy_run(pipeline, tmp_path)
    cust = json.loads((tmp_path / "out/prepared/splits.json").read_text())["customers"][0]
    if unknown == "customer":
        cust, prefix = "nobody", 5
    else:
        prefix = 100_000
    value = f"{cust}:{prefix}"
    assert main(["prepare", "--config", str(cfg), "--dump-encoding", value]) == EXIT_DATA
    assert f"no sample for customer {cust!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "schedule",
    [{"epochs": 1, "burn_in": None, "thinning": 10}, {"epochs": 4, "burn_in": 5},
     {"burn_in": -1}, {"epochs": 0}],
    ids=["thinning-past-end", "burn-in-past-end", "negative-burn-in", "zero-epochs"],
)
def test_schedule_without_posterior_member_is_config_error(pipeline, tmp_path, schedule):
    """A schedule that keeps no ensemble member is refused before training,
    instead of leaving a run that `evaluate` cannot score."""
    cfg = _copy_run(pipeline, tmp_path, **schedule)
    assert main(["train", "--config", str(cfg), "--nl", "40", "--rep", "0"]) == EXIT_CONFIG


def test_evaluate_without_fraud_in_test_split_is_data_error(tmp_path, capsys):
    """3 fraud samples at test_fraction 0.1 put round(0.3) = 0 in the test
    split, where the ranking metrics are undefined: exit 3, naming the cause."""
    spec = SynthSpec(
        n_customers=40, n_missing_gender=0, n_rows=800, excluded_rows=0,
        n_fraud_customers=2, sample_frauds=3, early_frauds=0, excluded_frauds=0,
        min_rows=5, max_rows=40,
    )
    generate(tmp_path / "corpus.csv", spec, seed=1)
    cfg = _write_config(
        tmp_path, split={"test_fraction": 0.1, "labeled_sizes": [20], "repetitions": 1}
    )
    assert main(["prepare", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--nl", "20", "--rep", "0"]) == EXIT_OK
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == EXIT_DATA
    assert "no fraud sample" in capsys.readouterr().err


def test_resume_without_checkpoint_says_so(pipeline, tmp_path, caplog):
    """`train --resume` on a run directory without a committed checkpoint
    trains from epoch 1, and logs that it does, naming the directory."""
    cfg = _copy_run(pipeline, tmp_path)
    shutil.rmtree(tmp_path / "out/runs/nl40_rep0")
    with caplog.at_level(logging.WARNING):
        rc = main(["train", "--config", str(cfg), "--nl", "40", "--rep", "0", "--resume"])
    assert rc == EXIT_OK
    run = tmp_path / "out/runs/nl40_rep0"
    ckpt = str(run / "checkpoint")
    assert any(ckpt in r.message and "epoch 1" in r.message for r in caplog.records)
    assert json.loads((run / "train.json").read_text())["resumed"] is False


def test_fresh_train_clears_the_run_directory(pipeline, tmp_path, nan_weights):
    """Training a trained cell again without --resume removes its whole run
    directory first, so a run that diverges leaves no trace, checkpoint or
    record of the old one behind."""
    cfg = _copy_run(pipeline, tmp_path)
    nan_weights(0)
    assert main(["train", "--config", str(cfg), "--nl", "40", "--rep", "0"]) == EXIT_DIVERGED
    run = tmp_path / "out/runs/nl40_rep0"
    for name in ("trace.csv", "train.json", "checkpoint/state.json"):
        assert not (run / name).exists(), name


def test_two_cells_train_side_by_side(pipeline, tmp_path, monkeypatch):
    """Cell rep 1 trains from start to end while cell rep 0 commits its
    record, as two `train` processes on one output directory may: both exit
    0 and each keeps its own record."""
    cfg = _copy_run(pipeline, tmp_path)
    shutil.rmtree(tmp_path / "out/runs")
    train = ["train", "--config", str(cfg), "--nl", "40", "--rep"]
    real, waiting, inner = cli.committing, ["1"], []

    @contextlib.contextmanager
    def committing(path):
        with real(path) as tmp:
            yield tmp
            if waiting:
                inner.append(main([*train, waiting.pop()]))

    monkeypatch.setattr(cli, "committing", committing)
    assert main([*train, "0"]) == EXIT_OK
    assert inner == [EXIT_OK]
    rep0, rep1 = (
        json.loads((tmp_path / f"out/runs/nl40_rep{rep}/train.json").read_text()) for rep in (0, 1)
    )
    assert (rep0["spawn_key"], rep1["spawn_key"]) == ([2, 0, 0], [2, 0, 1])
    assert rep0["cell_seed"] != rep1["cell_seed"]


def test_resume_past_configured_epochs_is_config_error(pipeline, tmp_path, capsys):
    """A 4-epoch checkpoint resumed with `epochs: 2` exits 2 and names the
    setting, instead of returning the longer run as the configured one."""
    cfg = _copy_run(pipeline, tmp_path, epochs=2)
    train_args = ["train", "--config", str(cfg), "--nl", "40", "--rep", "0", "--resume"]
    assert main(train_args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(tmp_path / "out/runs/nl40_rep0/checkpoint") in err and "epochs 2" in err


def test_resume_into_another_member_schedule_is_config_error(pipeline, tmp_path, capsys):
    """With `burn_in: null` the burn-in is `epochs // 2`, so a 4-epoch
    checkpoint (members from epoch 2) resumed with `epochs: 8` (members from
    epoch 4) would mix two schedules: exit 2, naming the setting."""
    cfg = _copy_run(pipeline, tmp_path, burn_in=None)
    train_args = ["train", "--config", str(cfg), "--nl", "40", "--rep", "0"]
    assert main(train_args) == EXIT_OK
    base = yaml.safe_load(cfg.read_text())
    base["train"]["epochs"] = 8
    cfg.write_text(yaml.safe_dump(base))
    capsys.readouterr()
    assert main(train_args + ["--resume"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(tmp_path / "out/runs/nl40_rep0/checkpoint") in err and "epochs 8" in err


def test_resume_with_changed_chain_counts_is_config_error(pipeline, tmp_path):
    cfg = _copy_run(pipeline, tmp_path, chains_d=3)
    train_args = ["train", "--config", str(cfg), "--nl", "40", "--rep", "0", "--resume"]
    assert main(train_args) == EXIT_CONFIG


@pytest.mark.parametrize("changed", [{"width": 8}, {"n_residual": 2}], ids=["width", "depth"])
def test_resume_with_changed_network_or_optimizer_is_config_error(
    pipeline, tmp_path, capsys, changed
):
    """A checkpoint of another network shape is refused (exit 2, naming the
    checkpoint) by `train --resume`, instead of being resumed with the old
    shapes, and by `evaluate`, instead of scoring another network than the
    configured one or raising a traceback."""
    cfg = _copy_run(pipeline, tmp_path, **changed)
    ckpt = str(tmp_path / "out/runs/nl40_rep0/checkpoint")
    train_args = ["train", "--config", str(cfg), "--nl", "40", "--rep", "0", "--resume"]
    assert main(train_args) == EXIT_CONFIG
    assert ckpt in capsys.readouterr().err
    assert main(["evaluate", "--config", str(cfg)]) == EXIT_CONFIG
    assert ckpt in capsys.readouterr().err


def test_checkpoint_of_older_layout_is_config_error(pipeline, tmp_path, capsys):
    """A state.json without the chain-state entry (a checkpoint written by
    an older version) exits 2 and names the checkpoint, in train --resume
    and in evaluate, and says to train the cell again."""
    cfg = _copy_run(pipeline, tmp_path)
    ckpt = tmp_path / "out/runs/nl40_rep0/checkpoint"
    state = json.loads((ckpt / "state.json").read_text())
    del state["chain_state"]
    (ckpt / "state.json").write_text(json.dumps(state))
    train_args = ["train", "--config", str(cfg), "--nl", "40", "--rep", "0", "--resume"]
    assert main(train_args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(ckpt) in err and "without --resume" in err
    assert main(["evaluate", "--config", str(cfg)]) == EXIT_CONFIG
    assert str(ckpt) in capsys.readouterr().err


@pytest.mark.parametrize("case", ["edited-corpus", "older-checkpoint"])
def test_resume_into_other_prepared_features_is_config_error(pipeline, tmp_path, capsys, case):
    """A checkpoint resumes only into the prepared features it was trained
    on: after `prepare` on an edited corpus of the same shape, or from a
    checkpoint whose fingerprint lacks the feature key, train --resume exits
    2 naming the checkpoint and the key."""
    cfg = _copy_run(pipeline, tmp_path)
    ckpt = tmp_path / "out/runs/nl40_rep0/checkpoint"
    if case == "edited-corpus":
        base = yaml.safe_load(cfg.read_text())
        splits = json.loads((tmp_path / "out/prepared/splits.json").read_text())
        _edit_one_kept_amount(base, splits, tmp_path)
        cfg.write_text(yaml.safe_dump(base))
        assert main(["prepare", "--config", str(cfg)]) == EXIT_OK
    else:
        state = json.loads((ckpt / "state.json").read_text())
        del state["fingerprint"]["feature_key"]
        (ckpt / "state.json").write_text(json.dumps(state))
    capsys.readouterr()
    train_args = ["train", "--config", str(cfg), "--nl", "40", "--rep", "0", "--resume"]
    assert main(train_args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(ckpt) in err and "feature_key: " in err


def test_resume_with_changed_learning_rate_is_config_error(pipeline, tmp_path, capsys):
    """A resume under another sampler setting exits 2 and names the
    checkpoint and the key, instead of continuing silently."""
    cfg = _copy_run(pipeline, tmp_path, lr_d=2e-3)
    train_args = ["train", "--config", str(cfg), "--nl", "40", "--rep", "0", "--resume"]
    assert main(train_args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(tmp_path / "out/runs/nl40_rep0/checkpoint") in err
    assert "lr_d" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_workers_option_is_refused(tmp_path):
    """The encoder runs in one process; `--workers` is an unknown option."""
    cfg = _write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["prepare", "--config", str(cfg), "--workers", "2"])
    assert exc.value.code == EXIT_CONFIG


def test_seed_option_is_refused(tmp_path):
    """A cell's seed always derives from the config seed; `train --seed` is
    an unknown option."""
    cfg = _write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(cfg), "--nl", "40", "--rep", "0", "--seed", "3"])
    assert exc.value.code == EXIT_CONFIG


@pytest.mark.parametrize(
    "field, over",
    [
        ("friction", {"train": {"friction": -1.0}}),
        ("lr_d", {"train": {"lr_d": float("nan")}}),
        ("friction", {"train": {"friction": float("nan")}}),
        ("friction", {"train": {"friction": float("inf")}}),
        ("checkpoint_every", {"train": {"checkpoint_every": -2}}),
        ("width", {"train": {"width": 0}}),
        ("latent_dim", {"train": {"latent_dim": 0}}),
        ("n_residual", {"train": {"n_residual": -1}}),
        ("head_widths", {"train": {"head_widths": [0]}}),
        ("seed", {"seed": -1}),
        ("seed", {"seed": "x"}),
        ("sig_degree", {"sig_degree": "4"}),
        ("labeled_sizes", {"split": {"labeled_sizes": [100000]}}),
        ("labeled_sizes", {"split": {"labeled_sizes": [0]}}),
        ("labeled_sizes", {"split": {"labeled_sizes": []}}),
        ("labeled_sizes", {"split": {"labeled_sizes": [40, 40]}}),
        ("k_percents", {"heads": {"k_percents": [-1.0]}}),
        ("k_percents", {"heads": {"k_percents": [150.0]}}),
        ("recall_levels", {"heads": {"recall_levels": [1.5]}}),
        ("recall_levels", {"heads": {"recall_levels": [0.0]}}),
        ("alpha", {"heads": {"alpha": -1.0}}),
        ("tau", {"heads": {"tau": 7.0}}),
        ("split", {"split": None}),
        ("train", {"train": 5}),
        ("heads", {"heads": []}),
        ("cache", {"cache": 5}),
        ("output_dir", {"output_dir": 5}),
        ("dataset_path", {"dataset_path": ""}),
    ],
    ids=["negative-friction", "nan-lr-d", "nan-friction", "inf-friction",
         "negative-checkpoint-every", "zero-width",
         "zero-latent-dim", "negative-n-residual", "zero-head-width", "negative-seed",
         "string-seed", "string-degree", "size-above-pool", "size-zero", "no-size",
         "repeated-size", "negative-k-percent", "k-percent-above-100",
         "recall-above-1", "recall-zero", "negative-alpha", "tau-above-1", "null-split",
         "int-train", "list-heads", "int-cache", "int-output-dir", "empty-dataset-path"],
)
def test_invalid_setting_is_config_error(tmp_path, capsys, field, over):
    """A value of the wrong kind or range, or a section that is not a
    mapping, exits 2 and names the field, instead of a traceback, a
    degenerate network, a sampler without injected noise, checkpoints at a
    negative interval or a silently changed size."""
    generate(tmp_path / "corpus.csv", SynthSpec.small(), seed=1)
    cfg = _write_config(tmp_path, **over)
    assert main(["prepare", "--config", str(cfg)]) == EXIT_CONFIG
    assert field in capsys.readouterr().err


def test_sizes_scaled_to_one_value_are_config_error(tmp_path, capsys):
    """Two labeled sizes that --subsample scales to one value would give two
    cells one labeled set and one run directory: exit 2, naming the field."""
    generate(tmp_path / "corpus.csv", SynthSpec.small(), seed=1)
    cfg = _write_config(tmp_path, split={"labeled_sizes": [40, 41]})
    assert main(["prepare", "--config", str(cfg), "--subsample", "0.5"]) == EXIT_CONFIG
    assert "labeled_sizes" in capsys.readouterr().err


def test_empty_head_widths_is_valid(tmp_path):
    generate(tmp_path / "corpus.csv", SynthSpec.small(), seed=1)
    cfg = _write_config(tmp_path, train={"head_widths": []})
    assert main(["prepare", "--config", str(cfg)]) == EXIT_OK


def test_checkpoint_with_the_trace_in_state_json_scores_but_does_not_resume(
    pipeline, tmp_path, capsys
):
    """A checkpoint of the layout that kept the trace rows in state.json
    (a `trace` entry and no `trace_bytes`) is still scored by evaluate, but
    train --resume exits 2, names it and says to train the cell again."""
    cfg = _copy_run(pipeline, tmp_path)
    ckpt = tmp_path / "out/runs/nl40_rep0/checkpoint"
    state = json.loads((ckpt / "state.json").read_text())
    del state["trace_bytes"]
    state["trace"] = [[1, "gen", 0, "loss", 0.5]]
    (ckpt / "state.json").write_text(json.dumps(state))
    (ckpt / "trace.csv").unlink()
    train_args = ["train", "--config", str(cfg), "--nl", "40", "--rep", "0", "--resume"]
    assert main(train_args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(ckpt) in err and "without --resume" in err
    assert main(["evaluate", "--config", str(cfg)]) == EXIT_OK

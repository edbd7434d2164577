import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from fraudsig import training
from fraudsig.config import ConfigError, TrainConfig
from fraudsig.nnet import DiscriminatorNet, restricted_softmax
from fraudsig.training import (
    DivergedChainError,
    EnsembleMember,
    PreparedData,
    build_nets,
    load_checkpoint,
    load_members,
    predict,
    train,
)


def _tiny_cfg(**over):
    base = dict(
        lr_g=1e-4, lr_d=1e-3, batch=16, n_critic=2, epochs=6, chains_g=2,
        chains_d=2, burn_in=2, thinning=2, latent_dim=4, width=8,
        n_residual=1, head_widths=(6,), checkpoint_every=0,
    )
    base.update(over)
    return TrainConfig(**base)


def _tiny_data(rng, n=48, feat_dim=5):
    labels = (rng.random(n) < 0.3).astype(np.int64)
    feats = rng.standard_normal((n, feat_dim)) + 2.0 * labels[:, None]
    codes = np.column_stack(
        [rng.integers(0, 3, n), rng.integers(0, 2, n), rng.integers(0, 5, n)]
    ).astype(np.int64)
    labeled = np.sort(rng.choice(n, size=12, replace=False))
    return PreparedData(
        feats=feats, codes=codes, labels=labels, labeled_idx=labeled,
        emb_cards=(3, 2, 5),
    )


def _flat(params):
    return np.concatenate([p.ravel() for p in params])


def _trace(checkpoint_dir) -> bytes:
    return (Path(checkpoint_dir) / "trace.csv").read_bytes()


def _trace_rows(checkpoint_dir) -> list:
    """The rows (epoch, kind, chain, term, value) of a checkpoint's trace.csv."""
    header, *lines = _trace(checkpoint_dir).decode().splitlines()
    assert header == "epoch,kind,chain,term,value"
    return [(int(e), k, int(c), t, float(v)) for e, k, c, t, v in (x.split(",") for x in lines)]


def _train_with_chains(*args, **kwargs):
    """`train`'s result and its final discriminator and generator chains,
    as the epoch callback sees them after the last epoch."""
    final = {}

    def keep(epoch, disc, gen):
        final.update(disc=disc, gen=gen)

    result = train(*args, epoch_callback=keep, **kwargs)
    return result, final["disc"], final["gen"]


def test_rerun_is_bit_identical(tmp_path, rng):
    data = _tiny_data(rng)
    cfg = _tiny_cfg()
    a = train(data, cfg, seed=7, checkpoint_dir=tmp_path / "a")
    b = train(data, cfg, seed=7, checkpoint_dir=tmp_path / "b")
    assert len(a.members) == len(b.members)
    for ma, mb in zip(a.members, b.members):
        assert (ma.chain, ma.epoch) == (mb.chain, mb.epoch)
        np.testing.assert_array_equal(_flat(ma.params), _flat(mb.params))
    assert _trace(tmp_path / "a") == _trace(tmp_path / "b")


def test_seed_changes_output(tmp_path, rng):
    data = _tiny_data(rng)
    cfg = _tiny_cfg()
    a = train(data, cfg, seed=7, checkpoint_dir=tmp_path / "a")
    b = train(data, cfg, seed=8, checkpoint_dir=tmp_path / "b")
    assert not np.array_equal(_flat(a.members[-1].params), _flat(b.members[-1].params))


def test_member_collection_schedule(tmp_path, rng):
    """Members appear at epochs burn_in, burn_in+thinning, ... for each chain."""
    data = _tiny_data(rng)
    cfg = _tiny_cfg(epochs=9, burn_in=3, thinning=2, chains_d=2, chains_g=1)
    res = train(data, cfg, seed=1, checkpoint_dir=tmp_path / "ck")
    epochs = sorted({m.epoch for m in res.members})
    assert epochs == [3, 5, 7, 9]
    assert len(res.members) == 4 * cfg.chains_d
    chains = sorted({m.chain for m in res.members})
    assert chains == [0, 1]


def test_zero_epochs_is_config_error(tmp_path, rng):
    """A run of no epochs samples no posterior: train() refuses it, as the
    CLI does, instead of returning the prior draws as an ensemble."""
    with pytest.raises(ConfigError, match="epochs"):
        train(_tiny_data(rng), _tiny_cfg(epochs=0, burn_in=0), seed=3, checkpoint_dir=tmp_path)


def test_trace_rows_structure(tmp_path, rng):
    data = _tiny_data(rng)
    cfg = _tiny_cfg(epochs=2)
    train(data, cfg, seed=5, checkpoint_dir=tmp_path / "ck")
    trace = _trace_rows(tmp_path / "ck")
    per_epoch = cfg.chains_g + 4 * cfg.chains_d
    assert len(trace) == cfg.epochs * per_epoch
    e1 = [r for r in trace if r[0] == 1]
    assert [(r[1], r[2], r[3]) for r in e1] == [
        ("gen", 0, "loss"), ("gen", 1, "loss"),
        ("disc", 0, "unlabeled"), ("disc", 0, "labeled"), ("disc", 0, "penalty"), ("disc", 0, "total"),
        ("disc", 1, "unlabeled"), ("disc", 1, "labeled"), ("disc", 1, "penalty"), ("disc", 1, "total"),
    ]
    assert all(np.isfinite(r[4]) for r in trace)


def test_resume_matches_uninterrupted(tmp_path, rng):
    data = _tiny_data(rng)
    full, full_disc, _ = _train_with_chains(
        data, _tiny_cfg(epochs=6), seed=11, checkpoint_dir=tmp_path / "full"
    )
    ck = tmp_path / "ck"
    train(data, _tiny_cfg(epochs=3, checkpoint_every=3), seed=11, checkpoint_dir=ck)
    resumed, resumed_disc, _ = _train_with_chains(
        data, _tiny_cfg(epochs=6), seed=11, checkpoint_dir=ck, resume=True
    )
    assert len(full.members) == len(resumed.members)
    for ma, mb in zip(full.members, resumed.members):
        np.testing.assert_array_equal(_flat(ma.params), _flat(mb.params))
    for pa, pb in zip(full_disc, resumed_disc):
        np.testing.assert_array_equal(_flat(pa), _flat(pb))
    assert _trace(tmp_path / "full") == _trace(ck)


def test_fresh_run_drops_the_checkpoint_it_replaces(tmp_path, rng, monkeypatch):
    """A run without resume into a directory holding another run's
    checkpoint removes its state.json before cutting members.bin, so a crash
    before the new run's first commit leaves no state.json that lists
    members the file no longer holds."""
    data = _tiny_data(rng)
    ck = tmp_path / "ck"
    train(data, _tiny_cfg(epochs=3, burn_in=1, thinning=1), seed=11, checkpoint_dir=ck)

    def crash(*args):
        raise RuntimeError("crash")

    monkeypatch.setattr(training, "save_checkpoint", crash)
    with pytest.raises(RuntimeError, match="crash"):
        train(data, _tiny_cfg(epochs=3, checkpoint_every=3), seed=12, checkpoint_dir=ck)
    assert not (ck / "state.json").exists()


def test_resume_ignores_generator_members_of_older_checkpoints(tmp_path, rng):
    """Checkpoints hold no generator ensemble.  Older ones carry a
    `gen_members` list; resuming from one still matches the full run."""
    data = _tiny_data(rng)
    full = train(data, _tiny_cfg(epochs=6), seed=11, checkpoint_dir=tmp_path / "full")
    ck = tmp_path / "ck"
    part = train(data, _tiny_cfg(epochs=3, checkpoint_every=3), seed=11, checkpoint_dir=ck)
    assert not list(ck.glob("gen*member*"))
    assert len(load_members(ck, [p.shape for p in part.members[0].params])) == len(part.members)
    state = json.loads((ck / "state.json").read_text())
    state["gen_members"] = [{"chain": 0, "epoch": 2}]
    (ck / "state.json").write_text(json.dumps(state))
    resumed = train(data, _tiny_cfg(epochs=6), seed=11, checkpoint_dir=ck, resume=True)
    for ma, mb in zip(full.members, resumed.members):
        np.testing.assert_array_equal(_flat(ma.params), _flat(mb.params))
    assert _trace(tmp_path / "full") == _trace(ck)


def test_resume_ignores_fingerprint_keys_this_version_drops(tmp_path, rng):
    """A checkpoint whose fingerprint also holds `optimizer: "adam"`, as
    older versions wrote it, resumes to the same checkpoint files, byte
    for byte, as an uninterrupted run."""
    data = _tiny_data(rng)
    full_ck, ck = tmp_path / "full", tmp_path / "ck"
    train(data, _tiny_cfg(epochs=6), seed=11, checkpoint_dir=full_ck)
    train(data, _tiny_cfg(epochs=3, checkpoint_every=3), seed=11, checkpoint_dir=ck)
    state = json.loads((ck / "state.json").read_text())
    state["fingerprint"]["optimizer"] = "adam"
    (ck / "state.json").write_text(json.dumps(state))
    train(data, _tiny_cfg(epochs=6), seed=11, checkpoint_dir=ck, resume=True)
    files = sorted(p.name for p in full_ck.iterdir())
    assert sorted(p.name for p in ck.iterdir()) == files
    for name in files:
        assert (ck / name).read_bytes() == (full_ck / name).read_bytes(), name


def test_default_interval_resumes_after_a_crash(tmp_path, rng):
    """With no interval set, a crash in epoch 101 leaves epoch 100's
    checkpoint, and the resume from it continues at epoch 101 and writes the
    same checkpoint files, byte for byte, as an uninterrupted run."""
    settings = dataclasses.asdict(_tiny_cfg(epochs=104, burn_in=100))
    del settings["checkpoint_every"]
    cfg = TrainConfig(**settings)
    data = _tiny_data(rng)
    full_ck, ck = tmp_path / "full", tmp_path / "ck"
    train(data, cfg, seed=11, checkpoint_dir=full_ck)

    def crash(epoch, disc, gen):
        if epoch == 101:
            raise RuntimeError("crash in epoch 101")

    with pytest.raises(RuntimeError, match="crash"):
        train(data, cfg, seed=11, checkpoint_dir=ck, epoch_callback=crash)
    state = json.loads((ck / "state.json").read_text())
    assert state["epoch"] == 100
    assert len(_trace(ck)) > state["trace_bytes"]  # epoch 101's rows, past the commit
    epochs = []
    train(
        data, cfg, seed=11, checkpoint_dir=ck, resume=True,
        epoch_callback=lambda epoch, disc, gen: epochs.append(epoch),
    )
    assert epochs == [101, 102, 103, 104]
    assert _trace(ck) == _trace(full_ck)
    files = sorted(p.name for p in full_ck.iterdir())
    assert sorted(p.name for p in ck.iterdir()) == files
    for name in files:
        assert (ck / name).read_bytes() == (full_ck / name).read_bytes(), name


def test_resume_with_changed_labeled_set_is_config_error(tmp_path, rng):
    """A checkpoint trained on another labeled set is refused, naming the
    checkpoint and the differing key."""
    data = _tiny_data(rng)
    ck = tmp_path / "ck"
    train(data, _tiny_cfg(epochs=3, checkpoint_every=3), seed=11, checkpoint_dir=ck)
    labeled = np.setdiff1d(np.arange(data.feats.shape[0]), data.labeled_idx)[:12]
    changed = PreparedData(
        feats=data.feats, codes=data.codes, labels=data.labels,
        labeled_idx=labeled, emb_cards=data.emb_cards,
    )
    with pytest.raises(ConfigError, match="labeled_sha256") as exc:
        train(changed, _tiny_cfg(epochs=6), seed=11, checkpoint_dir=ck, resume=True)
    assert str(ck) in str(exc.value)


def _zeros(params):
    return [np.zeros_like(p) for p in params]


def test_checkpoint_restores_counters(tmp_path, rng):
    data = _tiny_data(rng)
    cfg = _tiny_cfg(epochs=4, checkpoint_every=2)
    res, disc_chains, gen_chains = _train_with_chains(
        data, cfg, seed=2, checkpoint_dir=tmp_path / "ck"
    )
    members = []
    from fraudsig.training import _Chain  # shape-compatible holders

    gch = [_Chain(_zeros(ps), cfg.lr_g, np.random.default_rng(0)) for ps in gen_chains]
    dch = [_Chain(_zeros(ps), cfg.lr_d, np.random.default_rng(0)) for ps in disc_chains]
    from fraudsig.training import _LabeledCycle

    cyc = _LabeledCycle(data.labeled_idx, np.random.default_rng(0))
    fingerprint = json.loads((tmp_path / "ck/state.json").read_text())["fingerprint"]
    epoch, trace_bytes = load_checkpoint(tmp_path / "ck", gch, dch, cyc, members, fingerprint)
    assert epoch == 4
    assert len(members) == len(res.members)
    assert trace_bytes == len(_trace(tmp_path / "ck"))
    np.testing.assert_array_equal(_flat(dch[0].params), _flat(disc_chains[0]))


def test_divergence_raises_with_epoch(tmp_path, rng, nan_weights):
    data = _tiny_data(rng)
    cfg = _tiny_cfg(epochs=50)
    nan_weights(0)
    with pytest.raises(DivergedChainError) as exc:
        train(data, cfg, seed=0, checkpoint_dir=tmp_path)
    assert exc.value.epoch >= 1
    assert exc.value.chain.startswith(("gen", "disc"))


def test_more_threads_than_cores_match_one_thread(tmp_path, rng, monkeypatch):
    """4+4 chains on a pool of 4 threads, on any host, with the interpreter
    switching threads every microsecond, give the members, final chains and
    trace of a pool of one, bit for bit."""
    data, cfg = _tiny_data(rng), _tiny_cfg(epochs=3, chains_g=4, chains_d=4)
    runs = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for cpus in (1, 4):
            monkeypatch.setattr(training, "_usable_cpus", lambda: cpus)
            runs.append(_train_with_chains(data, cfg, seed=13, checkpoint_dir=tmp_path / f"{cpus}"))
    finally:
        sys.setswitchinterval(interval)
    (one, *one_chains), (four, *four_chains) = runs
    assert len(one.members) == len(four.members)
    for ma, mb in zip(one.members, four.members):
        assert (ma.chain, ma.epoch) == (mb.chain, mb.epoch)
        np.testing.assert_array_equal(_flat(ma.params), _flat(mb.params))
    for pa, pb in zip(sum(one_chains, []), sum(four_chains, [])):
        np.testing.assert_array_equal(_flat(pa), _flat(pb))
    assert _trace(tmp_path / "1") == _trace(tmp_path / "4")


def test_openblas_runs_one_thread_inside_train_and_is_restored(tmp_path, rng):
    """Set to two threads before `train`, OpenBLAS runs one in every epoch
    and two again after it."""
    blas = training._openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS is no OpenBLAS found in the process maps")
    get, put = blas
    before, seen = get(), []
    try:
        put(2)
        train(_tiny_data(rng), _tiny_cfg(epochs=2), seed=1, checkpoint_dir=tmp_path,
              epoch_callback=lambda *args: seen.append(get()))
        after = get()
    finally:
        put(before)
    assert (seen, after) == ([1, 1], 2)


def test_divergence_in_one_critic_chain_names_it_with_the_serial_trace(
    tmp_path, rng, monkeypatch, nan_weights
):
    """NaN interpolation weights in discriminator chain 1 alone, stepping on
    two threads beside chain 0, raise for `disc1` at epoch 1, with the trace
    the serial loop holds there: the generator rows and chain 0's rows."""
    data, cfg = _tiny_data(rng), _tiny_cfg(epochs=1, burn_in=1, thinning=1)
    train(data, cfg, seed=3, checkpoint_dir=tmp_path / "clean")
    nan_weights(1)
    monkeypatch.setattr(training, "_usable_cpus", lambda: 2)
    with pytest.raises(DivergedChainError) as exc:
        train(data, cfg, seed=3, checkpoint_dir=tmp_path / "nan")
    assert (exc.value.epoch, exc.value.chain) == (1, "disc1")
    assert exc.value.trace_tail == _trace_rows(tmp_path / "clean")[: cfg.chains_g + 4]


def test_predict_quantiles_match_numpy(tmp_path, rng):
    data = _tiny_data(rng)
    cfg = _tiny_cfg(epochs=4, burn_in=2, thinning=1)
    res = train(data, cfg, seed=9, checkpoint_dir=tmp_path)
    _, disc = build_nets(data.feats.shape[1], data.emb_cards, cfg)
    pred = predict(disc, res.members, data.feats, data.codes)
    assert pred.mean.shape == (data.feats.shape[0],)
    assert np.all((pred.mean >= 0) & (pred.mean <= 1))
    probs = np.stack(
        [
            restricted_softmax(disc.forward(m.params, data.feats, data.codes)[0])[:, 1]
            for m in res.members
        ]
    )
    np.testing.assert_allclose(pred.mean, probs.mean(axis=0), atol=1e-14)
    width = np.quantile(probs, 0.95, axis=0) - np.quantile(probs, 0.05, axis=0)
    np.testing.assert_allclose(pred.width, width, atol=1e-14)
    assert np.all(pred.width >= 0)


def test_predict_batched_equals_unbatched(tmp_path, rng, monkeypatch):
    data = _tiny_data(rng)
    res = train(data, _tiny_cfg(epochs=2, burn_in=1, thinning=1), seed=4, checkpoint_dir=tmp_path)
    _, disc = build_nets(data.feats.shape[1], data.emb_cards, _tiny_cfg())
    monkeypatch.setattr(training, "PREDICT_BATCH", 7)
    a = predict(disc, res.members, data.feats, data.codes)
    monkeypatch.setattr(training, "PREDICT_BATCH", 10_000)
    b = predict(disc, res.members, data.feats, data.codes)
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.width, b.width)


def _member_loop(disc, members, feats, codes):
    """`predict`'s mean and width from one `forward` per member over every
    row, on the calling thread."""
    probs = np.stack(
        [restricted_softmax(disc.forward(m.params, feats, codes)[0])[:, 1] for m in members]
    )
    q05, q95 = np.quantile(probs, [0.05, 0.95], axis=0)
    return probs.mean(axis=0), q95 - q05


def test_thread_count_changes_no_bit_of_predict(tmp_path, rng, monkeypatch):
    """On a pool of one thread or of four usable CPUs, with the interpreter
    switching threads every microsecond, and at a batch of 7 rows or of all
    of them, `predict` gives the member loop's mean and width bit for bit."""
    data = _tiny_data(rng)
    res = train(data, _tiny_cfg(epochs=4, burn_in=1, thinning=1), seed=6, checkpoint_dir=tmp_path)
    _, disc = build_nets(data.feats.shape[1], data.emb_cards, _tiny_cfg())
    mean, width = _member_loop(disc, res.members, data.feats, data.codes)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for cpus in (1, 4):
            for batch in (7, 10_000):
                monkeypatch.setattr(training, "_usable_cpus", lambda: cpus)
                monkeypatch.setattr(training, "PREDICT_BATCH", batch)
                pred = predict(disc, res.members, data.feats, data.codes)
                assert pred.mean.tobytes() == mean.tobytes(), (cpus, batch)
                assert pred.width.tobytes() == width.tobytes(), (cpus, batch)
    finally:
        sys.setswitchinterval(interval)


def test_thread_count_changes_no_bit_of_predict_at_the_default_width(rng, monkeypatch):
    """At the default network OpenBLAS rounds a row differently in GEMMs of
    a few rows than of many, so rows are chunked alike on one usable CPU
    and on four, and the results agree bit for bit."""
    cfg = TrainConfig()
    disc = DiscriminatorNet(
        40, (4, 3), width=cfg.width, n_residual=cfg.n_residual, head_widths=cfg.head_widths
    )
    members = [EnsembleMember(0, e, disc.init_params(rng)) for e in range(3)]
    feats = rng.standard_normal((60, 40))
    codes = np.column_stack([rng.integers(0, 4, 60), rng.integers(0, 3, 60)])
    monkeypatch.setattr(training, "PREDICT_BATCH", 7)
    preds = []
    for cpus in (1, 4):
        monkeypatch.setattr(training, "_usable_cpus", lambda: cpus)
        pred = predict(disc, members, feats, codes)
        preds.append((pred.mean.tobytes(), pred.width.tobytes()))
    assert preds[0] == preds[1]


def test_openblas_runs_one_thread_inside_predict_and_is_restored(tmp_path, rng):
    """Set to two threads before `predict`, OpenBLAS runs one while members
    are scored and two again after it, and the result is the bytes of a run
    started at one thread."""
    blas = training._openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS is no OpenBLAS found in the process maps")
    get, put = blas
    data = _tiny_data(rng)
    res = train(data, _tiny_cfg(epochs=2, burn_in=1, thinning=1), seed=2, checkpoint_dir=tmp_path)
    _, disc = build_nets(data.feats.shape[1], data.emb_cards, _tiny_cfg())
    output, seen = disc.output, []

    def counting_output(*args):
        seen.append(get())
        return output(*args)

    disc.output = counting_output
    before = get()
    try:
        put(1)
        one = predict(disc, res.members, data.feats, data.codes)
        put(2)
        seen.clear()
        two = predict(disc, res.members, data.feats, data.codes)
        after = get()
    finally:
        put(before)
    assert (set(seen), after) == ({1}, 2)
    assert (two.mean.tobytes(), two.width.tobytes()) == (one.mean.tobytes(), one.width.tobytes())


def test_predict_empty_ensemble_raises(rng):
    data = _tiny_data(rng)
    _, disc = build_nets(data.feats.shape[1], data.emb_cards, _tiny_cfg())
    with pytest.raises(ValueError):
        predict(disc, [], data.feats, data.codes)


def test_prepared_data_validation(rng):
    data = _tiny_data(rng)
    with pytest.raises(ValueError):
        PreparedData(
            feats=data.feats, codes=data.codes[:-1], labels=data.labels,
            labeled_idx=data.labeled_idx, emb_cards=data.emb_cards,
        )
    with pytest.raises(ValueError):
        PreparedData(
            feats=data.feats, codes=data.codes, labels=data.labels,
            labeled_idx=np.array([], dtype=np.int64), emb_cards=data.emb_cards,
        )

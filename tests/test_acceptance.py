"""Release checklist: every shipping criterion as one test with one printed
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 1-7 validate the math against independent oracles at fixed
tolerances and time budgets; criterion 8 pins the dataset protocol shape;
criterion 9 prepares the desk recipe of ``scripts/run_desk_experiment.py``
through the CLI, trains its cell and checks qualitative learning properties;
criterion 10 is an optional full-scale run of the four CLI stages, skipped
unless ``FRAUDSIG_FULL_SCALE=1``.  Criteria 8-10 read a real transaction CSV
from ``FRAUDSIG_DATASET`` when set and otherwise use the bundled synthetic
generator, whose shape statistics match the reference corpus exactly.
``FRAUDSIG_CACHE`` points the feature cache of criteria 9-10 at a persistent
directory so repeated runs skip the encoding pass.
"""

import contextlib
import importlib.util
import itertools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from fraudsig import cli, metrics, reports
from fraudsig.banksim import group_customers, load_transactions, make_samples, split_and_unlabel
from fraudsig.config import ExperimentConfig
from fraudsig.losses import discriminator_loss, generator_loss_from_scores
from fraudsig.lyndon import LyndonBasis, witt_count
from fraudsig.nnet import (
    Dense,
    DiscriminatorNet,
    GeneratorNet,
    ResidualTanh,
    TanhAct,
    restricted_softmax,
)
from fraudsig.sghmc import AdamState, GlorotPrior, adam_sghmc_step
from fraudsig.signatures import (
    chen_product,
    encode,
    path_signature,
    tensor_log,
)
from fraudsig.synthdata import SynthSpec, generate
from fraudsig.training import build_nets, predict, train

from oracles import (
    brute_auroc,
    brute_cost,
    brute_head,
    brute_macro_f1,
    brute_partial_ap,
    fd_grad,
    glorot_neg_log_density,
    iterated_integral,
    reference_adam_step,
    sghmc_step,
    tensor_exp,
)

_DESK = Path(__file__).resolve().parents[1] / "scripts" / "run_desk_experiment.py"
_spec = importlib.util.spec_from_file_location("run_desk_experiment", _DESK)
desk = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(desk)

LABELED_SIZES = (2595, 3893, 5190, 12973, 25946)
EXPECTED_LABELED_FRAUDS = (29, 44, 58, 144, 288)


@contextlib.contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {text}", flush=True)
        raise
    print(f"[criterion {num:02d}] PASS  {text}", flush=True)


def _word_value(sig, word):
    """Signature coefficient of `word` from the flat level layout."""
    idx = 0
    for letter in word:
        idx = idx * sig.alphabet_size + letter
    return float(sig.levels[len(word)][idx])


# ---------------------------------------------------------------------------
# 1. signature vs nested-quadrature oracle
# ---------------------------------------------------------------------------


def test_c01_signature_matches_quadrature_oracle():
    with criterion(1, "path_signature vs iterated-integral oracle, 200 paths, 1e-8 rel, <1 min"):
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        for _ in range(200):
            d = int(rng.integers(1, 4))
            n_seg = int(rng.integers(1, 6))
            degree = int(rng.integers(1, 4))
            pts = rng.uniform(-1.5, 1.5, size=(n_seg + 1, d))
            sig = path_signature(pts, degree)
            for m in range(1, degree + 1):
                for word in itertools.product(range(d), repeat=m):
                    want = iterated_integral(pts, word)
                    got = _word_value(sig, word)
                    assert abs(got - want) <= 1e-8 * max(abs(want), 1.0), (word, got, want)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. algebraic identities
# ---------------------------------------------------------------------------


def test_c02_algebraic_identities():
    with criterion(2, "Chen, shuffle diagonal, exp(log) round trip, 100 cases each, 1e-10, <30 s"):
        rng = np.random.default_rng(202)
        t0 = time.perf_counter()
        for _ in range(100):
            d = int(rng.integers(1, 4))
            degree = int(rng.integers(2, 5))
            n = int(rng.integers(3, 8))
            pts = rng.uniform(-1.0, 1.0, size=(n, d))
            cut = int(rng.integers(1, n - 1))

            full = path_signature(pts, degree)
            left = path_signature(pts[: cut + 1], degree)
            right = path_signature(pts[cut:], degree)
            prod = chen_product(left, right)
            for lv_got, lv_want in zip(prod.levels, full.levels):
                np.testing.assert_allclose(lv_got, lv_want, atol=1e-10)

            lvl1, lvl2 = full.levels[1], full.levels[2].reshape(d, d)
            np.testing.assert_allclose(np.diag(lvl2), 0.5 * lvl1**2, atol=1e-10)

            back = tensor_exp(tensor_log(full))
            for lv_got, lv_want in zip(back.levels, full.levels):
                np.testing.assert_allclose(lv_got, lv_want, atol=1e-10)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3. dimension law
# ---------------------------------------------------------------------------


def test_c03_encode_dimension_law():
    with criterion(3, "encode length 205/728/1905 for d=1/2/3 at degree 4 (Witt counts), exact"):
        rng = np.random.default_rng(303)
        expected = {1: 205, 2: 728, 3: 1905}
        for d, dim in expected.items():
            alphabet = 2 * d + 3
            assert sum(witt_count(alphabet, m) for m in range(1, 5)) == dim
            assert LyndonBasis.build(alphabet, 4).dim == dim
            vec = encode(rng.uniform(0, 1, size=(6, d)), 4)
            assert vec.shape == (dim,)


# ---------------------------------------------------------------------------
# 4. gradient suite vs finite differences
# ---------------------------------------------------------------------------


def _check_close(got, want, cfg_label):
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-6, err_msg=cfg_label)


def _random_layer_case(rng, kind):
    dim = int(rng.integers(2, 6))
    if kind == 0:
        layer = Dense(dim, int(rng.integers(2, 6)), "d")
    elif kind == 1:
        layer = TanhAct()
    else:
        layer = ResidualTanh(dim, "r")
    ps = [rng.normal(size=s.shape) * 0.6 for s in layer.specs]
    x = rng.normal(size=(int(rng.integers(2, 5)), dim))
    c = None

    y, cache = layer.forward(ps, x)
    c = rng.normal(size=y.shape)
    grads, dx = layer.backward(ps, cache, c)

    def loss_x(xv):
        return float((layer.forward(ps, xv)[0] * c).sum())

    _check_close(dx, fd_grad(loss_x, x.copy()), f"layer{kind} input")
    for k, p in enumerate(ps):
        def loss_p(pv, k=k):
            trial = list(ps)
            trial[k] = pv
            return float((layer.forward(trial, x)[0] * c).sum())

        _check_close(grads[k], fd_grad(loss_p, p.copy()), f"layer{kind} param{k}")


def _random_disc_case(rng):
    feat_dim = int(rng.integers(2, 5))
    batch = int(rng.integers(2, 5))
    disc = DiscriminatorNet(
        feat_dim=feat_dim, emb_cards=(2, 3), n_classes=2,
        width=int(rng.integers(3, 6)), n_residual=1, head_widths=(3,),
    )
    ps = disc.init_params(rng)
    real = rng.normal(size=(batch, feat_dim))
    fake = rng.normal(size=(batch, feat_dim))
    lab = rng.normal(size=(batch, feat_dim))
    codes = np.column_stack([rng.integers(0, 2, batch), rng.integers(0, 3, batch)])
    labels = rng.integers(1, 3, batch)
    eps = rng.uniform(size=batch)
    lam, gp_w = 10.0, 10.0

    _, _, grads = discriminator_loss(
        disc, ps, real, codes, fake, codes, lab, codes, labels, eps, lam, gp_w,
        want_grads=True,
    )

    def loss(trial):
        _, total = discriminator_loss(
            disc, trial, real, codes, fake, codes, lab, codes, labels, eps,
            lam, gp_w,
        )
        return total

    for k, p in enumerate(ps):
        def fk(pv, k=k):
            trial = list(ps)
            trial[k] = pv
            return loss(trial)

        _check_close(grads[k], fd_grad(fk, p.copy()), f"disc param{k}")


def _random_gen_case(rng):
    feat_dim = int(rng.integers(2, 5))
    batch = int(rng.integers(2, 5))
    gen = GeneratorNet(
        latent_dim=2, emb_cards=(2,), out_dim=feat_dim,
        width=int(rng.integers(3, 6)), n_residual=1,
    )
    disc = DiscriminatorNet(
        feat_dim=feat_dim, emb_cards=(2,), n_classes=2, width=4,
        n_residual=1, head_widths=(3,),
    )
    gp, dp = gen.init_params(rng), disc.init_params(rng)
    z = rng.normal(size=(batch, 2))
    codes = rng.integers(0, 2, (batch, 1))

    fake, gcache = gen.forward(gp, z, codes)
    scores, dcache = disc.forward(dp, fake, codes)
    _, dscores = generator_loss_from_scores(scores)
    _, dfeat = disc.backward(dp, dcache, dscores, need_param_grads=False)
    grads, _ = gen.backward(gp, gcache, dfeat)

    def loss(trial):
        f, _ = gen.forward(trial, z, codes)
        s, _ = disc.forward(dp, f, codes)
        return generator_loss_from_scores(s)[0]

    for k, p in enumerate(gp):
        def fk(pv, k=k):
            trial = list(gp)
            trial[k] = pv
            return loss(trial)

        _check_close(grads[k], fd_grad(fk, p.copy()), f"gen param{k}")


def _random_prior_case(rng):
    net = DiscriminatorNet(
        feat_dim=3, emb_cards=(2,), n_classes=2, width=3, n_residual=1,
        head_widths=(3,),
    )
    prior = GlorotPrior.for_specs(net.param_specs, gain=float(rng.uniform(0.5, 2.0)))
    ps = net.init_params(rng)
    grads = prior.neg_log_grad(ps)
    for k, p in enumerate(ps):
        def fk(pv, k=k):
            trial = list(ps)
            trial[k] = pv
            return glorot_neg_log_density(prior, trial)

        _check_close(grads[k], fd_grad(fk, p.copy()), f"prior param{k}")


def test_c04_gradient_suite_vs_finite_differences():
    with criterion(4, "layer/discriminator-GP/generator/prior grads vs central FD, 100 configs, rel<1e-4, <2 min"):
        rng = np.random.default_rng(404)
        t0 = time.perf_counter()
        for i in range(45):
            _random_layer_case(rng, kind=i % 3)
        for _ in range(25):
            _random_disc_case(rng)
        for _ in range(15):
            _random_gen_case(rng)
        for _ in range(15):
            _random_prior_case(rng)
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 5. optimizer degeneracy
# ---------------------------------------------------------------------------


def test_c05_optimizer_degeneracy_bit_identity():
    with criterion(5, "friction-1 zero-noise step == SGD (1000 steps); zero-noise adaptive == reference (100 steps), bitwise"):
        rng = np.random.default_rng(505)
        shapes = [(7, 3), (5,), (2, 2)]
        target = [rng.normal(size=s) for s in shapes]

        def grad(params):
            # direction of motion: negative quadratic-potential gradient
            return [-(p - t) for p, t in zip(params, target)]

        p_s = [rng.normal(size=s) for s in shapes]
        p_ref = [p.copy() for p in p_s]
        vel = [np.zeros(s) for s in shapes]
        noise_rng = np.random.default_rng(0)
        lr = 0.01
        for _ in range(1000):
            p_s, vel = sghmc_step(p_s, grad(p_s), vel, 1.0, lr, noise_rng, noise_scale=0.0)
            p_ref = [p + lr * g for p, g in zip(p_ref, grad(p_ref))]
        for a, b in zip(p_s, p_ref):
            assert np.array_equal(a, b)

        p_a = [rng.normal(size=s) for s in shapes]
        p_ref = [p.copy() for p in p_a]
        state = AdamState.for_params(p_a)
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        for t in range(1, 101):
            g = grad(p_a)
            g_ref = grad(p_ref)
            p_a, state = adam_sghmc_step(p_a, g, state, lr, 0.0, noise_rng)
            for i in range(len(shapes)):
                p_ref[i], m[i], v[i] = reference_adam_step(
                    p_ref[i], g_ref[i], m[i], v[i], t, lr
                )
        for a, b in zip(p_a, p_ref):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# 6. noise calibration
# ---------------------------------------------------------------------------


def test_c06_noise_variance_calibration():
    with criterion(6, "injected noise variance == 2*friction*lr within 3 SE over 1e5 draws"):
        n = 100_000
        for friction, lr, seed in ((0.25, 0.01, 1), (0.1, 0.003, 2)):
            target = 2.0 * friction * lr
            se = target * math.sqrt(2.0 / (n - 1))

            zeros = [np.zeros(n)]
            _, vel = sghmc_step(
                zeros, [np.zeros(n)], [np.zeros(n)], friction, lr,
                np.random.default_rng(seed),
            )
            assert abs(vel[0].var() - target) < 3 * se

            state = AdamState.for_params(zeros)
            new_p, _ = adam_sghmc_step(
                zeros, [np.zeros(n)], state, lr, friction,
                np.random.default_rng(seed + 10),
            )
            assert abs(new_p[0].var() - target) < 3 * se


# ---------------------------------------------------------------------------
# 7. metric oracles
# ---------------------------------------------------------------------------


def _brute_cross_entropy(labels, scores, clip=1e-7):
    tot = 0.0
    for l, p in zip(labels, scores):
        p = min(max(p, clip), 1.0 - clip)
        tot += -(l * math.log(p) + (1 - l) * math.log1p(-p))
    return tot / len(labels)


def test_c07_metric_brute_force_equivalence():
    with criterion(7, "all metrics vs brute force on 200 instances (counting exact, 1e-12 otherwise) + TP@K identity"):
        rng = np.random.default_rng(707)
        for _ in range(200):
            n = int(rng.integers(3, 50))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[int(rng.integers(n))] = 1
            if labels.sum() == n:
                labels[int(rng.integers(n))] = 0
            scores = np.round(rng.random(n), 1)  # ties are common
            amounts = rng.uniform(1.0, 500.0, size=n)
            widths = np.round(rng.random(n), 1)
            k = float(rng.choice([0.5, 1.0, 5.0, 20.0, 60.0]))
            r = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
            tau = 0.5
            L, S = labels.tolist(), scores.tolist()

            preds = metrics.threshold_predictions(scores, tau)
            assert preds.tolist() == [1 if s >= tau else 0 for s in S]

            assert metrics.macro_f1(labels, scores, tau) == pytest.approx(
                brute_macro_f1(L, preds.tolist()), abs=1e-12
            )
            assert metrics.pr_auc(labels, scores) == pytest.approx(
                brute_partial_ap(L, S, 1.0), abs=1e-12
            )
            assert metrics.partial_pr_auc(labels, scores, r) == pytest.approx(
                brute_partial_ap(L, S, r), abs=1e-12
            )
            assert metrics.cross_entropy(labels, scores) == pytest.approx(
                _brute_cross_entropy(L, S), abs=1e-12
            )

            head = brute_head(L, S, k)
            h = metrics.head_size(n, k)
            assert h == max(1, math.ceil(k / 100.0 * n)) == len(head)
            hits = sum(labels[i] for i in head)
            # counting metrics: exact equality
            assert metrics.precision_at_k(labels, scores, k) == hits / h
            assert metrics.recall_at_k(labels, scores, k) == hits / int(labels.sum())
            # TP@K = P@K * flagged = R@K * positives
            tp_p = metrics.precision_at_k(labels, scores, k) * h
            tp_r = metrics.recall_at_k(labels, scores, k) * int(labels.sum())
            assert tp_p == pytest.approx(hits, abs=1e-9)
            assert tp_r == pytest.approx(hits, abs=1e-9)

            assert metrics.expected_cost_at_k(labels, scores, amounts, k) == pytest.approx(
                brute_cost(L, S, amounts.tolist(), k, 0.02), rel=1e-12
            )

            wrong = preds != labels
            if wrong.any() and not wrong.all():
                assert metrics.uncertainty_auroc(labels, scores, widths, tau) == pytest.approx(
                    brute_auroc(widths[wrong].tolist(), widths[~wrong].tolist()),
                    abs=1e-12,
                )
            cells = metrics.interval_width_by_outcome(labels, scores, widths, tau)
            for name, mask in (
                ("tp", (preds == 1) & (labels == 1)),
                ("fp", (preds == 1) & (labels == 0)),
                ("tn", (preds == 0) & (labels == 0)),
                ("fn", (preds == 0) & (labels == 1)),
            ):
                got = getattr(cells, name)
                if mask.any():
                    want = sum(widths[mask]) / int(mask.sum())
                    assert got == pytest.approx(want, abs=1e-12)
                else:
                    assert math.isnan(got)

        assert metrics.majority_class_scores(4).tolist() == [0.0] * 4


# ---------------------------------------------------------------------------
# 8-9. corpus shape and desk-scale dynamics
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    env = os.environ.get("FRAUDSIG_DATASET")
    if env:
        return env
    path = tmp_path_factory.mktemp("corpus") / "corpus.csv"
    generate(path, SynthSpec(), seed=0)
    return path


@pytest.fixture(scope="module")
def kept_customers(corpus_path):
    log = load_transactions(corpus_path)
    kept, excluded = group_customers(log)
    stats = {
        "rows": len(log),
        "frauds": int(log.frauds.sum()),
        "excluded": excluded,
    }
    return kept, stats


def test_c08_data_shape_reproduction(kept_customers):
    with criterion(8, "594643 rows / 7200 frauds / 4100 customers / 1479 fraud customers; labeled frauds {29,44,58,144,288}"):
        kept, stats = kept_customers
        assert stats["rows"] == 594643
        assert stats["frauds"] == 7200
        assert len(kept) == 4100
        assert sum(1 for c in kept if c.frauds.any()) == 1479

        samples = make_samples(kept, 5)
        split = split_and_unlabel(samples.labels, LABELED_SIZES, 2, 0.1, 0)
        for size, want in zip(LABELED_SIZES, EXPECTED_LABELED_FRAUDS):
            for rep in range(2):
                got = int(samples.labels[split.labeled[(size, rep)]].sum())
                assert got == want, (size, rep, got, want)


def test_c09_desk_scale_training_dynamics(corpus_path, tmp_path):
    with criterion(9, "10% subsample, 100 epochs, 2 chains: held-out CE drops, macro F1 beats majority, widths separate; <30 min"):
        t_start = time.perf_counter()
        cfg_path = desk.write_config(corpus_path, tmp_path, cache=os.environ.get("FRAUDSIG_CACHE"))
        prepare = ["prepare", "--config", str(cfg_path), "--subsample", str(desk.DESK_SUBSAMPLE)]
        assert cli.main(prepare) == cli.EXIT_OK
        prepared = cli.Prepared(ExperimentConfig.from_yaml(cfg_path))
        cell = prepared.cell(desk.DESK_CONFIG["split"]["labeled_sizes"][0], 0)
        test = prepared.test_split()
        codes_te, labels_te = test.codes(cell), test.labels

        # fixed held-out evaluation subset for the per-epoch cross-entropy
        cap = min(2048, len(labels_te))
        ev = np.sort(np.random.default_rng(0).choice(len(labels_te), cap, replace=False))
        ef, ec, el = test.feats[ev], codes_te[ev], labels_te[ev]

        cfg = prepared.cfg.train  # the desk recipe's sampler
        _, disc = build_nets(test.feats.shape[1], test.emb_cards, cfg)
        snaps = {}

        def cb(epoch, disc_params, gen_params):
            if epoch in (1, cfg.epochs):
                probs = np.stack(
                    [restricted_softmax(disc.forward(ps, ef, ec)[0])[:, 1] for ps in disc_params]
                ).mean(axis=0)
                snaps[epoch] = metrics.cross_entropy(el, probs)

        with prepared.train_data(cell) as data:
            result = train(data, cfg, cell.seed, cell.run_dir / "checkpoint", epoch_callback=cb)
        pred = predict(disc, result.members, test.feats, codes_te)

        assert snaps[cfg.epochs] < snaps[1], (
            f"held-out CE did not decrease: {snaps[1]:.4f} -> {snaps[cfg.epochs]:.4f}"
        )
        f1 = metrics.macro_f1(labels_te, pred.mean, 0.5)
        f1_majority = metrics.macro_f1(
            labels_te, metrics.majority_class_scores(len(labels_te)), 0.5
        )
        assert f1 > f1_majority, f"macro F1 {f1:.4f} <= majority {f1_majority:.4f}"
        wrong = metrics.threshold_predictions(pred.mean, 0.5) != labels_te
        assert wrong.any() and not wrong.all()
        assert pred.width[wrong].mean() > pred.width[~wrong].mean(), (
            f"width wrong {pred.width[wrong].mean():.5f} <= "
            f"correct {pred.width[~wrong].mean():.5f}"
        )
        elapsed = time.perf_counter() - t_start
        assert elapsed < 1800.0, f"took {elapsed / 60:.1f} min"


# ---------------------------------------------------------------------------
# 10. full-scale stretch (optional, not gating)
# ---------------------------------------------------------------------------


def test_c10_full_scale_stretch(corpus_path, tmp_path):
    if os.environ.get("FRAUDSIG_FULL_SCALE") != "1":
        print(
            "[criterion 10] SKIP  optional full-scale run "
            "(set FRAUDSIG_FULL_SCALE=1; several hours per repetition on CPU)",
            flush=True,
        )
        pytest.skip("full-scale stretch disabled")
    with criterion(10, "full corpus, 5 unlabelings at N_l=2595: macro F1 ~ 0.810 +-0.05, uncertainty AUROC ~ 0.8730 +-0.05"):
        reps, cfg_path = 5, tmp_path / "full.yaml"
        cfg_path.write_text(yaml.safe_dump({  # reference hyperparameters
            "dataset_path": str(corpus_path), "output_dir": str(tmp_path / "out"),
            "cache": os.environ.get("FRAUDSIG_CACHE"),
            "split": {"test_fraction": 0.1, "labeled_sizes": [2595], "repetitions": reps},
        }))
        config = ["--config", str(cfg_path)]
        assert cli.main(["prepare", *config]) == cli.EXIT_OK
        for rep in range(reps):
            assert cli.main(["train", *config, "--nl", "2595", "--rep", str(rep)]) == cli.EXIT_OK
        assert cli.main(["evaluate", *config]) == cli.EXIT_OK

        def ours(table, metric):
            rows = reports.read_csv(tmp_path / "out/reports" / table)
            return [float(row[metric]) for row in rows if row["model"] == "ours"]

        f1s = ours(reports.GLOBAL_CSV, "macro_f1")
        aurocs = ours(reports.UNCERTAINTY_CSV, "uncertainty_auroc")
        assert len(f1s) == len(aurocs) == reps
        assert abs(float(np.mean(f1s)) - 0.810) <= 0.05, f1s
        assert abs(float(np.mean(aurocs)) - 0.8730) <= 0.05, aurocs

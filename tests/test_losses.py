import numpy as np
import pytest

from fraudsig.losses import (
    DiscriminatorLossParts,
    FakeBatch,
    critic_factored,
    discriminator_loss,
    generator_factored,
    generator_loss,
    generator_loss_from_scores,
    grad_norm_penalty,
    labeled_loss_grad,
    unlabeled_loss,
)
from fraudsig.metrics import cross_entropy
from fraudsig.nnet import DiscriminatorNet, GeneratorNet, restricted_softmax

from oracles import discriminator_loss_reference, fd_grad, gradient_penalty_reference


def _setup(rng, feat_dim=3, n_classes=2):
    disc = DiscriminatorNet(
        feat_dim=feat_dim, emb_cards=(2,), n_classes=n_classes,
        width=5, n_residual=1, head_widths=(4,),
    )
    return disc, disc.init_params(rng)


def test_uniform_scores_give_log2():
    scores = np.zeros((6, 3))
    labels = np.array([1, 2, 1, 1, 2, 2])
    assert labeled_loss_grad(scores, labels)[0] == pytest.approx(np.log(2.0), abs=1e-12)


def test_labeled_loss_equals_binary_cross_entropy():
    """For K=2 the class-2 restricted-softmax mass must reproduce the binary
    cross-entropy metric on the same probabilities."""
    rng = np.random.default_rng(0)
    scores = rng.normal(size=(50, 3))
    labels = rng.integers(1, 3, size=50)
    probs = restricted_softmax(scores)[:, 1]  # fraud = class 2
    want = cross_entropy((labels == 2).astype(int), probs, clip=0.0)
    assert labeled_loss_grad(scores, labels)[0] == pytest.approx(want, abs=1e-12)


def test_labeled_loss_stays_finite_past_softmax_underflow():
    """A score gap of 760 puts e^-760, which underflows to 0, on the true
    class: the loss is the gap itself, not inf."""
    scores = np.array([[0.0, 0.0, 760.0], [0.0, 745.0, 0.0]])
    loss = labeled_loss_grad(scores, np.array([1, 2]))[0]
    assert np.isfinite(loss) and loss == pytest.approx(760.0 / 2 + 745.0 / 2, rel=1e-12)


def test_labeled_loss_grad_matches_fd(rng):
    scores = rng.normal(size=(7, 3))
    labels = rng.integers(1, 3, size=7)
    _, grad = labeled_loss_grad(scores, labels)
    fd = fd_grad(lambda s: labeled_loss_grad(s, labels)[0], scores.copy())
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)
    assert np.all(grad[:, 0] == 0.0)


def test_labeled_loss_rejects_empty_and_bad_labels():
    with pytest.raises(ValueError):
        labeled_loss_grad(np.zeros((0, 3)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        labeled_loss_grad(np.zeros((2, 3)), np.array([0, 1]))  # 0 is the fake class
    with pytest.raises(ValueError):
        labeled_loss_grad(np.zeros((2, 3)), np.array([1, 3]))


def test_unlabeled_loss_direction():
    real = np.array([[1.0, 0.0, 0.0]])
    fake = np.array([[0.0, 1.0, 1.0]])
    # critic(real)=1/sqrt3, critic(fake)=-2/sqrt3 -> difference 3/sqrt3
    assert unlabeled_loss(real, fake) == pytest.approx(3.0 / np.sqrt(3.0))


def test_grad_norm_penalty_trivials():
    assert grad_norm_penalty(np.ones(8)) == 0.0
    assert grad_norm_penalty(np.zeros(5)) == 1.0
    assert grad_norm_penalty(np.array([0.0, 2.0])) == pytest.approx(1.0)


def test_zero_discriminator_has_unit_penalty(rng):
    """All-zero parameters give a constant critic, zero input gradient, and
    so penalty mean (0-1)^2 = 1."""
    disc, params = _setup(rng)
    zero = [np.zeros_like(p) for p in params]
    real = rng.normal(size=(4, 3))
    fake = rng.normal(size=(4, 3))
    codes = rng.integers(0, 2, (4, 1))
    parts, _ = discriminator_loss(
        disc, zero, real, codes, fake, codes, real, codes, np.ones(4, dtype=int),
        rng.uniform(size=4), lam=10.0, gp_weight=10.0,
    )
    assert parts.penalty == pytest.approx(1.0, abs=1e-15)


def test_gradient_penalty_grads_match_fd(rng):
    """The penalty's gradient is the critic-loss gradient at gp_weight 1
    minus that at gp_weight 0."""
    disc, params = _setup(rng)
    real = rng.normal(size=(3, 3))
    fake = rng.normal(size=(3, 3))
    codes = rng.integers(0, 2, (3, 1))
    eps = rng.uniform(size=3)
    lab = rng.normal(size=(3, 3))
    labels = rng.integers(1, 3, 3)

    def loss(trial, gp_weight, want_grads=False):
        return discriminator_loss(
            disc, trial, real, codes, fake, codes, lab, codes, labels, eps,
            lam=10.0, gp_weight=gp_weight, want_grads=want_grads,
        )

    with_pen, without = loss(params, 1.0, True)[2], loss(params, 0.0, True)[2]
    grads = [a - b for a, b in zip(with_pen, without)]
    for k, p in enumerate(params):
        def f(pv):
            trial = list(params)
            trial[k] = pv
            return loss(trial, 1.0)[0].penalty

        np.testing.assert_allclose(grads[k], fd_grad(f, p.copy()), rtol=2e-4, atol=1e-7)


def test_parts_total_is_weighted_sum():
    parts = DiscriminatorLossParts(unlabeled=0.3, labeled=0.7, penalty=0.11)
    assert parts.total(10.0, 10.0) == pytest.approx(0.3 + 7.0 + 1.1, abs=1e-12)


def test_discriminator_loss_decomposition_and_fd(rng):
    disc, params = _setup(rng)
    B = 4
    real = rng.normal(size=(B, 3))
    fake = rng.normal(size=(B, 3))
    codes = rng.integers(0, 2, (B, 1))
    lab = rng.normal(size=(B, 3))
    labels = rng.integers(1, 3, B)
    eps = rng.uniform(size=B)

    parts, total, grads = discriminator_loss(
        disc, params, real, codes, fake, codes, lab, codes, labels, eps,
        lam=10.0, gp_weight=10.0, want_grads=True,
    )
    assert total == pytest.approx(
        parts.unlabeled + 10.0 * parts.labeled + 10.0 * parts.penalty, abs=1e-12
    )

    def f(trial):
        _, t = discriminator_loss(
            disc, trial, real, codes, fake, codes, lab, codes, labels, eps,
            lam=10.0, gp_weight=10.0,
        )
        return t

    for k, p in enumerate(params):
        def fk(pv):
            trial = list(params)
            trial[k] = pv
            return f(trial)

        np.testing.assert_allclose(grads[k], fd_grad(fk, p.copy()), rtol=2e-4, atol=1e-7)


def test_discriminator_loss_stacked_fakes_sum_single_calls(rng):
    """One call over k stacked generator-chain fakes equals the sum of k
    single-chain calls: parts, total and every gradient tensor."""
    disc, params = _setup(rng)
    k, B = 3, 5
    real = rng.normal(size=(B, 3))
    codes = rng.integers(0, 2, (B, 1))
    lab = rng.normal(size=(B, 3))
    lab_codes = rng.integers(0, 2, (B, 1))
    labels = rng.integers(1, 3, B)
    fakes = rng.normal(size=(k, B, 3))
    fake_codes = rng.integers(0, 2, (k, B, 1))
    eps = rng.uniform(size=(k, B))

    parts, total, grads = discriminator_loss(
        disc, params, real, codes, fakes, fake_codes, lab, lab_codes, labels, eps,
        lam=10.0, gp_weight=10.0, want_grads=True,
    )
    singles = [
        discriminator_loss(
            disc, params, real, codes, fakes[j], fake_codes[j], lab, lab_codes,
            labels, eps[j], lam=10.0, gp_weight=10.0, want_grads=True,
        )
        for j in range(k)
    ]
    for name in ("unlabeled", "labeled", "penalty"):
        want = sum(getattr(s[0], name) for s in singles)
        assert getattr(parts, name) == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert total == pytest.approx(sum(s[1] for s in singles), rel=1e-12, abs=1e-12)
    for i, g in enumerate(grads):
        want = sum(s[2][i] for s in singles)
        np.testing.assert_allclose(g, want, rtol=1e-12, atol=1e-12)
    _, total_only = discriminator_loss(
        disc, params, real, codes, fakes, fake_codes, lab, lab_codes, labels, eps,
        lam=10.0, gp_weight=10.0,
    )
    assert total_only == total
    # The fakes as a sequence of FakeBatches of an identity output layer,
    # which are formed at this shape: the same result, bit for bit.
    assert not critic_factored(B, 3, 3, 5)
    batches = [FakeBatch(f, np.eye(3), np.zeros(3), c, e)
               for f, c, e in zip(fakes, fake_codes, eps)]
    assert all(np.array_equal(b.formed(), f) for b, f in zip(batches, fakes))
    parts_it, total_it, grads_it = discriminator_loss(
        disc, params, real, codes, batches, None, lab, lab_codes, labels, None,
        lam=10.0, gp_weight=10.0, want_grads=True,
    )
    assert (parts_it, total_it) == (parts, total)
    for g, want in zip(grads_it, grads):
        np.testing.assert_array_equal(g, want)


def _loss_case(rng, k, B, feat_dim=3, cards=(2,), width=5, zero=False):
    disc = DiscriminatorNet(
        feat_dim=feat_dim, emb_cards=cards, n_classes=2,
        width=width, n_residual=2, head_widths=(4, 3),
    )
    params = disc.init_params(rng)
    if zero:
        params = [np.zeros_like(p) for p in params]

    def codes(*shape):
        return np.stack([rng.integers(0, c, shape) for c in cards], axis=-1)

    args = (
        rng.normal(size=(B, feat_dim)), codes(B),
        rng.normal(size=(k, B, feat_dim)), codes(k, B),
        rng.normal(size=(B + 2, feat_dim)), codes(B + 2), rng.integers(1, 3, B + 2),
        rng.uniform(size=(k, B)),
    )
    return disc, params, args


@pytest.mark.parametrize(
    "k, B, case",
    [
        (1, 1, {}), (1, 7, {}), (3, 1, {}), (3, 7, {}),
        (3, 7, {"zero": True}),
        (3, 7, {"feat_dim": 728, "cards": (2, 3, 5), "width": 16}),
    ],
    ids=["k1-B1", "k1-B7", "k3-B1", "k3-B7", "zero-params", "wide"],
)
def test_discriminator_loss_matches_feature_level_reference(rng, k, B, case):
    """The projection-level loss equals the full-width reference path:
    parts and total to 1e-12 relative, every gradient to 1e-10 of its
    largest entry."""
    disc, params, args = _loss_case(rng, k, B, **case)
    parts, total, grads = discriminator_loss(
        disc, params, *args, lam=10.0, gp_weight=10.0, want_grads=True
    )
    *want_parts, want_total, want_grads = discriminator_loss_reference(
        disc, params, *args, 10.0, 10.0
    )
    got = (parts.unlabeled, parts.labeled, parts.penalty, total)
    for value, want in zip(got, (*want_parts, want_total)):
        assert value == pytest.approx(want, rel=1e-12, abs=1e-300)
    assert len(grads) == len(want_grads)
    for g, want in zip(grads, want_grads):
        assert g.shape == want.shape
        np.testing.assert_allclose(g, want, rtol=0, atol=1e-10 * np.abs(want).max())


def test_tiny_weights_give_finite_unit_penalty(rng):
    """Weights scaled by 1e-9 make every input-gradient norm ~0, where the
    quadratic form for its square can round below zero: the penalty must
    still be 1 and every gradient finite."""
    disc, params, args = _loss_case(rng, 3, 7, feat_dim=40, cards=(2, 3), width=16)
    params = [1e-9 * p for p in params]
    parts, total, grads = discriminator_loss(
        disc, params, *args, lam=10.0, gp_weight=10.0, want_grads=True
    )
    assert np.isfinite(total)
    assert abs(parts.penalty / 3 - 1.0) <= 1e-12
    assert all(np.all(np.isfinite(g)) for g in grads)
    real, codes, fakes, _, _, _, _, eps = args
    pen, _ = gradient_penalty_reference(disc, params, real, fakes[0], codes, eps[0])
    assert abs(pen - 1.0) <= 1e-12


def test_penalty_norm_rounding_below_zero_is_clamped():
    """Two projection units with equal critic gradients and feature weights
    a and -b, a ~ b: the input gradient is ~1e-8 and its square, formed from
    the weights' Gram matrix, rounds below zero for these values.  The
    penalty and its gradient must stay finite."""
    disc = DiscriminatorNet(
        feat_dim=1, emb_cards=(2,), n_classes=2, width=2, n_residual=0, head_widths=()
    )
    a, b = 1.0434619257268536, 1.0434619084989032
    params = [
        np.zeros((2, 2)),
        np.array([[a, 0.0, 0.0], [-b, 0.0, 0.0]]), np.array([0.3, 0.3]),
        np.array([[1.0, 1.0], [0.5, 0.5], [-1.0, -1.0]]), np.zeros(3),
    ]
    zero, codes = np.zeros((1, 1)), np.zeros((1, 1), dtype=int)
    parts, _, grads = discriminator_loss(
        disc, params, zero, codes, zero, codes, zero, codes, np.array([1]),
        np.array([0.5]), lam=10.0, gp_weight=10.0, want_grads=True,
    )
    assert parts.penalty == pytest.approx(1.0, abs=1e-6)
    assert all(np.all(np.isfinite(g)) for g in grads)


def test_discriminator_loss_batch_mismatch(rng):
    disc, params = _setup(rng)
    for fake in (np.zeros((2, 3)), np.zeros((2, 2, 3))):
        with pytest.raises(ValueError):
            discriminator_loss(
                disc, params, np.zeros((3, 3)), np.zeros((3, 1), dtype=int),
                fake, np.zeros(fake.shape[:-1] + (1,), dtype=int),
                np.zeros((2, 3)), np.zeros((2, 1), dtype=int),
                np.array([1, 2]), np.zeros(fake.shape[:-1]), 10.0, 10.0,
            )


def test_generator_loss_and_grad(rng):
    disc, dparams = _setup(rng)
    gen = GeneratorNet(latent_dim=2, emb_cards=(2,), out_dim=3, width=4, n_residual=1)
    gparams = gen.init_params(rng)
    z = rng.normal(size=(4, 2))
    codes = rng.integers(0, 2, (4, 1))

    def gen_loss(trial):
        fake, _ = gen.forward(trial, z, codes)
        scores, _ = disc.forward(dparams, fake, codes)
        value, _ = generator_loss_from_scores(scores)
        return value

    fake, gcache = gen.forward(gparams, z, codes)
    scores, dcache = disc.forward(dparams, fake, codes)
    value, dscores = generator_loss_from_scores(scores)
    _, dfeat = disc.backward(dparams, dcache, dscores, need_param_grads=False)
    grads, _ = gen.backward(gparams, gcache, dfeat)

    from fraudsig.nnet import critic_head
    assert value == pytest.approx(float(critic_head(scores).mean()))
    for k, p in enumerate(gparams):
        def fk(pv):
            trial = list(gparams)
            trial[k] = pv
            return gen_loss(trial)

        np.testing.assert_allclose(grads[k], fd_grad(fk, p.copy()), rtol=1e-5, atol=1e-7)


def test_factored_order_break_even_at_the_default_widths():
    """Hidden and critic width 128, 728 features: the factored order pays
    from 97 rows in the critic loss and, against 4 critic chains, from 116
    in the generator step."""
    assert [critic_factored(b, 128, 728, 128) for b in (96, 97)] == [False, True]
    assert [generator_factored(b, 128, 728, 128, 4) for b in (115, 116)] == [False, True]


def _fake_batches(rng, k, B, hidden, feat_dim, codes, eps):
    return [
        FakeBatch(rng.normal(size=(B, hidden)), rng.normal(size=(feat_dim, hidden)) / 3,
                  rng.normal(size=feat_dim), codes[j], eps[j])
        for j in range(k)
    ]


def _assert_same(got, want, exact):
    """Bit for bit, or to 1e-12 of the largest entry of each array."""
    for g, w in zip(got, want):
        if exact:
            np.testing.assert_array_equal(g, w)
        else:
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12 * np.abs(w).max())


@pytest.mark.parametrize("B, factored", [(2, False), (7, True)], ids=["formed", "factored"])
def test_fake_batches_match_the_array_form(rng, B, factored):
    """FakeBatches score as their formed features do in the (k, B, l) array
    form: bit for bit below the break-even, where they are formed, and to
    1e-12 above it, where gen.out composes with the critic's projection."""
    k, hidden, feat_dim = 2, 4, 40
    disc, params, args = _loss_case(rng, k, B, feat_dim=feat_dim, cards=(2, 3), width=5)
    real, codes, _, fake_codes, lab, lab_codes, labels, eps = args
    assert critic_factored(B, hidden, feat_dim, 5) == factored
    batches = _fake_batches(rng, k, B, hidden, feat_dim, fake_codes, eps)
    fakes = np.stack([b.formed() for b in batches])
    parts, total, grads = discriminator_loss(
        disc, params, real, codes, batches, None, lab, lab_codes, labels, None,
        lam=10.0, gp_weight=10.0, want_grads=True,
    )
    want_parts, want_total, want_grads = discriminator_loss(
        disc, params, real, codes, fakes, fake_codes, lab, lab_codes, labels, eps,
        lam=10.0, gp_weight=10.0, want_grads=True,
    )
    values = [parts.unlabeled, parts.labeled, parts.penalty, total]
    want_values = [want_parts.unlabeled, want_parts.labeled, want_parts.penalty, want_total]
    if factored:
        assert values == pytest.approx(want_values, rel=1e-12, abs=0)
    else:
        assert values == want_values
    assert len(grads) == len(want_grads)
    _assert_same(grads, want_grads, exact=not factored)


def test_fake_batch_row_mismatch(rng):
    """A FakeBatch with fewer or more rows than the real batch is the
    ValueError of the array form."""
    disc, params = _setup(rng)
    codes = np.zeros((3, 1), dtype=int)
    for rows in (2, 200):
        batch = FakeBatch(np.zeros((rows, 4)), np.zeros((3, 4)), np.zeros(3),
                          np.zeros((rows, 1), dtype=int), np.zeros(rows))
        with pytest.raises(ValueError, match="real/fake batches must align"):
            discriminator_loss(
                disc, params, np.zeros((3, 3)), codes, [batch], None,
                np.zeros((2, 3)), np.zeros((2, 1), dtype=int), np.array([1, 2]), None,
                10.0, 10.0,
            )


@pytest.mark.parametrize("B, factored", [(2, False), (7, True)], ids=["formed", "factored"])
def test_generator_loss_matches_the_dense_chain(rng, B, factored):
    """`generator_loss` over two critic chains, through the generator's
    passes below gen.out, against the dense chain of
    `test_generator_loss_and_grad` (the fake formed, scored by each critic
    and its gradient sent back through gen.out): bit for bit below the
    break-even, to 1e-12 above it."""
    feat_dim, hidden = 40, 4
    disc = DiscriminatorNet(feat_dim=feat_dim, emb_cards=(2,), n_classes=2,
                            width=5, n_residual=1, head_widths=(4,))
    critics = [disc.init_params(rng) for _ in range(2)]
    gen = GeneratorNet(latent_dim=2, emb_cards=(2,), out_dim=feat_dim, width=hidden,
                       n_residual=1)
    gparams = gen.init_params(rng)
    z = rng.normal(size=(B, 2))
    codes = rng.integers(0, 2, (B, 1))
    assert generator_factored(B, hidden, feat_dim, 5, len(critics)) == factored

    fake, gcache = gen.forward(gparams, z, codes)
    want_value, dfeat_total = 0.0, np.zeros_like(fake)
    for dparams in critics:
        scores, dcache = disc.forward(dparams, fake, codes)
        value, dscores = generator_loss_from_scores(scores)
        want_value += value
        dfeat_total += disc.backward(dparams, dcache, dscores, need_param_grads=False)[1]
    want_grads, _ = gen.backward(gparams, gcache, dfeat_total)

    hidden_rows, cache = gen.hidden_forward(gparams, z, codes)
    value, d_hidden, out_grads = generator_loss(
        disc, critics, FakeBatch(hidden_rows, *gen.out_params(gparams), codes)
    )
    grads = gen.hidden_backward(gparams, cache, d_hidden, out_grads)
    if factored:
        assert value == pytest.approx(want_value, rel=1e-12, abs=0)
    else:
        assert value == want_value
    assert len(grads) == len(want_grads)
    _assert_same(grads, want_grads, exact=not factored)

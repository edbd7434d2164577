"""Loss terms of the semi-supervised Wasserstein critic and generator.

The discriminator emits K+1 raw scores per sample (class 0 = generated,
classes 1..K = real classes) and is trained to minimise

    unlabeled + lambda * labeled + gp_weight * gradient_penalty

where
    labeled    = -(1/N) sum_i log softmax_{1..K}(scores_i)[y_i],
    unlabeled  = mean critic(real scores) - mean critic(fake scores),
    penalty    = mean (||d critic(D(x)) / d x at x-hat|| - 1)^2,

with x-hat an elementwise random interpolate between real and generated
feature vectors.  The generator minimises mean critic(fake scores).  All
gradients are exact; the penalty's parameter gradient uses the second-order
reverse pass of :mod:`fraudsig.nnet`.

The critic loss never passes a feature batch through the whole network.
The first layer is affine in the features x, with pre-activation
x W_f^T + e W_e^T + b, so each distinct input batch (real, labeled, each
fake) is projected once; an interpolate's pre-activation is
eps P_real + (1 - eps) P_fake plus the real rows' condition part; the input
gradient g = d W_f (d the gradient at the pre-activation) enters only through
||g||^2 = rowsum((d G) * d) and the tangent d G, with G = W_f W_f^T; and the
W_f gradient is collected once per input batch from the gradients at its
pre-activation, plus the penalty's second-order part (mu^T d) W_f.  This is
the only implementation of the penalty: its gradient is that of
`discriminator_loss` at `gp_weight` 1 minus that at 0.  The feature-level
form, through the whole trunk, is the test reference in ``tests/oracles.py``.

A fake batch comes in one of two forms.  As an array of features x, it is
projected as above.  As a `FakeBatch`, it is the generator's hidden layer H
(B, h) and its affine output layer `gen.out` (W_o, b_o), x = H W_o^T + b_o,
and that layer composes with the critic's:
    x W_f^T = H (W_f W_o)^T + 1 (W_f b_o)^T,
    D^T x   = (D^T H) W_o^T + (D^T 1) b_o^T,
and in the generator step, with D_d the gradient at critic chain d's
pre-activation, the gradients at H, W_o and b_o are
    sum_d D_d (W_f,d W_o),  sum_d W_f,d^T (D_d^T H),  sum_d W_f,d^T (D_d^T 1).
Both orders compute the same product chain H W_o^T W_f^T.  A `FakeBatch`
takes whichever needs fewer multiply-adds at its shapes (the matrix-chain
choice, `critic_factored` and `generator_factored`): the factored order
adds a fixed W_f W_o product per fake, which pays above about 97 rows in
the critic loss and 115 in the generator step at the default widths.
Below that, the fake is formed as `gen.out` would form it and every product
is the array form's, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nnet import DiscriminatorNet, critic_head, critic_head_vector, restricted_softmax

__all__ = [
    "labeled_loss_grad",
    "unlabeled_loss",
    "grad_norm_penalty",
    "DiscriminatorLossParts",
    "FakeBatch",
    "critic_factored",
    "generator_factored",
    "discriminator_loss",
    "generator_loss",
    "generator_loss_from_scores",
]


def _check_labels(labels, n_classes, batch):
    labels = np.asarray(labels)
    if labels.shape != (batch,):
        raise ValueError(f"labels must be ({batch},), got {labels.shape}")
    if labels.size and (labels.min() < 1 or labels.max() > n_classes):
        raise ValueError(
            f"labels must lie in 1..{n_classes}, got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return labels


def labeled_loss_grad(scores: np.ndarray, labels: np.ndarray):
    """Mean negative log-likelihood of the true class (labels 1..K) under the
    softmax restricted to classes 1..K, and its gradient w.r.t. the raw scores.

    Column 0 receives no gradient because the restricted softmax never sees
    the generated-class score.
    """
    probs = restricted_softmax(scores)
    n, k = probs.shape
    labels = _check_labels(labels, k, n)
    if n == 0:
        raise ValueError("labeled loss undefined for an empty batch")
    rows = np.arange(n)
    # The log-softmax of the true class, finite where its probability underflows.
    shifted = scores[:, 1:] - scores[:, 1:].max(axis=1, keepdims=True)
    log_picked = shifted[rows, labels - 1] - np.log(np.exp(shifted).sum(axis=1))
    dscores = np.zeros((n, k + 1))
    dscores[:, 1:] = probs
    dscores[rows, labels] -= 1.0
    dscores /= n
    return float(-np.mean(log_picked)), dscores


def unlabeled_loss(real_scores: np.ndarray, fake_scores: np.ndarray) -> float:
    """mean critic(real) - mean critic(fake)."""
    return float(np.mean(critic_head(real_scores)) - np.mean(critic_head(fake_scores)))


def grad_norm_penalty(grad_norms: np.ndarray) -> float:
    """mean (n - 1)^2 over input-gradient norms; zero iff every norm is 1."""
    grad_norms = np.asarray(grad_norms, dtype=np.float64)
    return float(np.mean((grad_norms - 1.0) ** 2))


def _penalty_at(disc: DiscriminatorNet, params, pre, gram, want_grads: bool):
    """Gradient penalty at `disc.proj` pre-activations `pre` (B, width).

    With d the critic gradient at the pre-activation, the input gradient is
    g = d W_f, so ||g||^2 is the row sum of (d G) * d with G = W_f W_f^T, and
    the pre-activation's tangent along g is d G; g itself is never formed.
    Returns (penalty, None), or with `want_grads` (penalty, (upper-layer
    grads, lam, M)): lam (B, width) is the gradient at the pre-activation and
    M W_f the second-order part of the W_f gradient.
    """
    scores, caches = disc.upper_forward(params, pre)
    d_pre = disc.critic_pre_gradient(params, scores, caches)
    d_gram = d_pre @ gram
    # (d G) . d can round below zero where the exact value is ~0.
    norms = np.sqrt(np.maximum(np.einsum("ij,ij->i", d_gram, d_pre), 0.0))
    penalty = grad_norm_penalty(norms)
    if not want_grads:
        return penalty, None
    n = norms.shape[0]
    # d penalty / d ||g||^2 per sample, chained through ||g|| = sqrt(||g||^2):
    # (2/n)(||g|| - 1) * (1 / ||g||) * (1/2) * 2 <g, dg> = coeff * <g, dg>.
    coeffs = (2.0 / n) * (norms - 1.0) / np.maximum(norms, 1e-12)
    upper, lam, mu = disc.upper_penalty_grads(params, caches, d_gram, coeffs)
    return penalty, (upper, lam, mu.T @ d_pre)


@dataclass(frozen=True)
class DiscriminatorLossParts:
    """The three critic-loss terms before weighting."""

    unlabeled: float
    labeled: float
    penalty: float

    def total(self, lam: float, gp_weight: float) -> float:
        return self.unlabeled + lam * self.labeled + gp_weight * self.penalty


@dataclass(frozen=True)
class FakeBatch:
    """One generator chain's fake batch, H W_o^T + b_o, kept as its factors:
    `hidden` H (B, h) is the input of `gen.out` and (`w_out`, `b_out`) that
    layer's parameters; `codes` (B, F) are its condition codes and `eps`
    (B,), in the critic loss, its penalty's interpolation weights."""

    hidden: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray
    codes: np.ndarray
    eps: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        """The shape of the fake features, (B, l)."""
        return self.hidden.shape[0], self.w_out.shape[0]

    def formed(self) -> np.ndarray:
        """The fake features, formed as `gen.out`'s forward forms them."""
        return self.hidden @ self.w_out.T + self.b_out


def critic_factored(rows: int, hidden: int, feat: int, width: int) -> bool:
    """Whether a fake of `rows` x `feat` = (rows x `hidden`)(`hidden` x
    `feat`) costs the critic loss fewer multiply-adds factored than formed,
    at critic width `width`.  Formed: the fake, its projection and its W_f
    gradient, rows*feat*(hidden + 2 width).  Factored: W_f W_o, the
    projection, D^T H and (D^T H) W_o^T, 2 width*hidden*(feat + rows)."""
    return 2 * width * hidden * (feat + rows) < rows * feat * (hidden + 2 * width)


def generator_factored(rows: int, hidden: int, feat: int, width: int, critics: int) -> bool:
    """Whether the generator step against `critics` critic chains costs
    fewer multiply-adds with its fake factored than formed.  Formed: the
    fake and `gen.out`'s two backward products, 3 rows*hidden*feat, and per
    critic the projection and the input gradient, 2 rows*width*feat.
    Factored, per critic: W_f W_o and W_f^T (D^T H), 2 width*feat*hidden,
    and the projection, D (W_f W_o) and D^T H, 3 rows*width*hidden."""
    formed = rows * feat * (3 * hidden + 2 * critics * width)
    return critics * width * hidden * (2 * feat + 3 * rows) < formed


def discriminator_loss(
    disc: DiscriminatorNet,
    params,
    real_feat: np.ndarray,
    real_codes: np.ndarray,
    fake_feat,
    fake_codes,
    labeled_feat: np.ndarray,
    labeled_codes: np.ndarray,
    labels: np.ndarray,
    eps,
    lam: float,
    gp_weight: float,
    want_grads: bool = False,
):
    """Critic loss unlabeled + lam*labeled + gp_weight*penalty, summed over
    one fake batch per generator chain.

    The fakes of k generator chains come as arrays, `fake_feat` (k, B, l),
    `fake_codes` (k, B, F) and `eps` (k, B), where a 2-D `fake_feat` is the
    single-chain case k = 1; or, with `fake_codes` and `eps` None, as a
    sized iterable `fake_feat` of k `FakeBatch`es, read once in order, so
    that each can be made when it is scored and freed after.  Each
    `FakeBatch` is scored in the order `critic_factored` picks for its
    shapes.
    Each fake batch is scored against the same real and labeled batches, and
    its penalty interpolates `real_feat` against it under the real batch's
    condition codes.  The real and labeled terms do not depend on the chain,
    so they are evaluated once and weighted by k.  Returns (parts, total) or
    (parts, total, grads) when `want_grads`.
    """
    if fake_codes is None:
        k = len(fake_feat)
        fakes = ((f, f.codes, f.eps) for f in fake_feat)
    else:
        fake_feat = np.asarray(fake_feat, dtype=np.float64)
        if fake_feat.ndim == 2:
            fake_feat = fake_feat[None]
            fake_codes = np.asarray(fake_codes)[None]
            eps = np.asarray(eps)[None]
        k = len(fake_feat)
        fakes = zip(fake_feat, fake_codes, eps)
    real_feat = np.asarray(real_feat, dtype=np.float64)
    labeled_feat = np.asarray(labeled_feat, dtype=np.float64)
    n = real_feat.shape[0]
    tvec = critic_head_vector(disc.n_classes)
    w_f = disc.free_weights(params)
    gram = w_f @ w_f.T

    # Every pass starts from `disc.proj` pre-activations: one feature
    # product per distinct input batch, combined linearly for the penalty.
    real_proj, real_cond, real_emb = disc.project(params, real_feat, real_codes)
    real_scores, caches = disc.upper_forward(params, real_proj + real_cond)
    if want_grads:
        d_real = np.broadcast_to(k * tvec / n, real_scores.shape)
        grads, d_real = disc.upper_backward(params, caches, d_real)
    lab_proj, lab_cond, lab_emb = disc.project(params, labeled_feat, labeled_codes)
    lab_scores, caches = disc.upper_forward(params, lab_proj + lab_cond)
    lab, dlab_scores = labeled_loss_grad(lab_scores, labels)
    if want_grads:
        upper, d_lab = disc.upper_backward(params, caches, (k * lam) * dlab_scores)
        _accumulate(grads, upper)
        # Gradients at the pre-activation, split by what they multiply: the
        # real rows' features (d_real_feat) and their condition part (d_real).
        # The W_f gradient sums D^T x over the batches as they are scored:
        # labeled, each fake, real, then the penalty's M W_f.
        d_real_feat = d_real.copy()
        w_grad = np.zeros_like(w_f)
        w_grad += d_lab.T @ labeled_feat
        cond_terms = [(d_lab, lab_emb)]
        m_sum = np.zeros_like(gram)
    del caches

    unlab = pen = 0.0
    for feat, codes, e in fakes:
        if feat.shape != real_feat.shape:
            raise ValueError(
                f"real/fake batches must align, got {real_feat.shape} vs {feat.shape}"
            )
        # From here `feat` is a FakeBatch scored factored, or an array.
        if isinstance(feat, FakeBatch) and not critic_factored(
            n, feat.hidden.shape[1], feat.shape[1], w_f.shape[0]
        ):
            feat = feat.formed()
        factored = isinstance(feat, FakeBatch)
        if factored:
            cond, emb = disc.condition(params, codes)
            proj = feat.hidden @ (w_f @ feat.w_out).T + w_f @ feat.b_out
        else:
            proj, cond, emb = disc.project(params, feat, codes)
        fake_scores, caches = disc.upper_forward(params, proj + cond)
        unlab += unlabeled_loss(real_scores, fake_scores)
        if want_grads:
            d_fake = np.broadcast_to(-tvec / n, fake_scores.shape)
            upper, d_fake = disc.upper_backward(params, caches, d_fake)
            _accumulate(grads, upper)
        del caches
        e = np.asarray(e)[:, None]
        res, pen_grads = _penalty_at(
            disc, params, e * real_proj + (1.0 - e) * proj + real_cond, gram, want_grads
        )
        pen += res
        if want_grads:
            upper, lam_pen, m = pen_grads
            _accumulate(grads, upper, gp_weight)
            lam_pen *= gp_weight
            d_real_feat += e * lam_pen
            d_real += lam_pen
            d_feat = d_fake + (1.0 - e) * lam_pen
            if factored:
                w_grad += (d_feat.T @ feat.hidden) @ feat.w_out.T
                w_grad += np.outer(d_feat.sum(axis=0), feat.b_out)
            else:
                w_grad += d_feat.T @ feat
            cond_terms.append((d_fake, emb))
            m_sum += gp_weight * m
        del feat, proj  # before the next fake batch is made

    parts = DiscriminatorLossParts(unlab, k * lab, pen)
    total = parts.total(lam, gp_weight)
    if not want_grads:
        return parts, total
    w_grad += d_real_feat.T @ real_feat
    w_grad += m_sum @ w_f
    cond_terms.append((d_real, real_emb))
    return parts, total, disc.projection_grads(params, w_grad, cond_terms) + grads


def _accumulate(acc, grads, weight: float = 1.0) -> None:
    for a, g in zip(acc, grads):
        a += weight * g


def generator_loss(disc: DiscriminatorNet, disc_params, fake: FakeBatch):
    """Generator objective summed over critic chains: the sum over
    `disc_params`, one parameter list per chain, of mean critic(fake
    scores), with its gradients at `fake.hidden` and at `gen.out`'s W_o and
    b_o, in the order `generator_factored` picks.  Returns (value, d hidden,
    [dW_o, db_o])."""
    (rows, hidden), feat_dim = fake.hidden.shape, fake.shape[1]
    loss = 0.0
    if not generator_factored(rows, hidden, feat_dim, disc.proj.out_dim, len(disc_params)):
        feat = fake.formed()
        d_feat = np.zeros_like(feat)
        for params in disc_params:
            scores, cache = disc.forward(params, feat, fake.codes)
            value, d_scores = generator_loss_from_scores(scores)
            loss += value
            d_feat += disc.backward(params, cache, d_scores, need_param_grads=False)[1]
        return loss, d_feat @ fake.w_out, [d_feat.T @ fake.hidden, d_feat.sum(axis=0)]
    d_hidden = np.zeros_like(fake.hidden)
    d_w, d_b = np.zeros_like(fake.w_out), np.zeros_like(fake.b_out)
    for params in disc_params:
        w_f = disc.free_weights(params)
        composed = w_f @ fake.w_out
        pre = fake.hidden @ composed.T + w_f @ fake.b_out
        pre += disc.condition(params, fake.codes)[0]
        scores, caches = disc.upper_forward(params, pre)
        value, d_scores = generator_loss_from_scores(scores)
        loss += value
        d_pre = disc.upper_backward(params, caches, d_scores, need_param_grads=False)[1]
        d_hidden += d_pre @ composed
        d_w += w_f.T @ (d_pre.T @ fake.hidden)
        d_b += w_f.T @ d_pre.sum(axis=0)
    return loss, d_hidden, [d_w, d_b]


def generator_loss_from_scores(fake_scores: np.ndarray):
    """Generator objective mean critic(fake scores) and its score gradient."""
    value = float(np.mean(critic_head(fake_scores)))
    tvec = critic_head_vector(fake_scores.shape[1] - 1)
    dscores = np.broadcast_to(tvec / fake_scores.shape[0], fake_scores.shape)
    return value, dscores

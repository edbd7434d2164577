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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nnet import DiscriminatorNet, critic_head, critic_head_vector, restricted_softmax

__all__ = [
    "labeled_loss",
    "labeled_loss_grad",
    "unlabeled_loss",
    "grad_norm_penalty",
    "interpolate",
    "gradient_penalty",
    "DiscriminatorLossParts",
    "discriminator_loss",
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


def labeled_loss(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of the true class under the softmax
    restricted to classes 1..K.  Labels take values in 1..K."""
    return labeled_loss_grad(scores, labels)[0]


def labeled_loss_grad(scores: np.ndarray, labels: np.ndarray):
    """Value and gradient of `labeled_loss` w.r.t. the raw scores.

    Column 0 receives no gradient because the restricted softmax never sees
    the generated-class score.
    """
    probs = restricted_softmax(scores)
    n, k = probs.shape
    labels = _check_labels(labels, k, n)
    if n == 0:
        raise ValueError("labeled loss undefined for an empty batch")
    rows = np.arange(n)
    picked = probs[rows, labels - 1]
    dscores = np.zeros((n, k + 1))
    dscores[:, 1:] = probs
    dscores[rows, labels] -= 1.0
    dscores /= n
    return float(-np.mean(np.log(picked))), dscores


def unlabeled_loss(real_scores: np.ndarray, fake_scores: np.ndarray) -> float:
    """mean critic(real) - mean critic(fake)."""
    return float(np.mean(critic_head(real_scores)) - np.mean(critic_head(fake_scores)))


def grad_norm_penalty(grad_norms: np.ndarray) -> float:
    """mean (n - 1)^2 over input-gradient norms; zero iff every norm is 1."""
    grad_norms = np.asarray(grad_norms, dtype=np.float64)
    return float(np.mean((grad_norms - 1.0) ** 2))


def interpolate(real_feat: np.ndarray, fake_feat: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Per-sample convex combination eps*real + (1-eps)*fake in feature space."""
    real_feat = np.asarray(real_feat, dtype=np.float64)
    fake_feat = np.asarray(fake_feat, dtype=np.float64)
    if real_feat.shape != fake_feat.shape:
        raise ValueError(
            f"real/fake feature shapes differ: {real_feat.shape} vs {fake_feat.shape}"
        )
    eps = np.asarray(eps, dtype=np.float64).reshape(-1, 1)
    if eps.shape[0] != real_feat.shape[0]:
        raise ValueError(f"need one epsilon per sample, got {eps.shape[0]}")
    return eps * real_feat + (1.0 - eps) * fake_feat


def gradient_penalty(
    disc: DiscriminatorNet,
    params,
    real_feat: np.ndarray,
    fake_feat: np.ndarray,
    codes: np.ndarray,
    eps: np.ndarray,
    want_grads: bool = False,
):
    """Gradient penalty at random interpolates, optionally with its exact
    parameter gradient.

    Args:
        disc: discriminator architecture.
        params: discriminator parameter list.
        real_feat, fake_feat: (B, l) feature batches to interpolate between.
        codes: (B, F) condition codes attached to the interpolates.
        eps: (B,) uniform draws defining the interpolates.
        want_grads: also return d(penalty)/d(params).

    Returns:
        penalty, or (penalty, grads) when `want_grads`.
    """
    mixed = interpolate(real_feat, fake_feat, eps)
    g, cache = disc.critic_input_gradient(params, mixed, codes)
    norms = np.sqrt(np.sum(g * g, axis=1))
    penalty = grad_norm_penalty(norms)
    if not want_grads:
        return penalty
    n = norms.shape[0]
    # d penalty / d ||g||^2 per sample, chained through ||g|| = sqrt(||g||^2):
    # (2/n)(||g|| - 1) * (1 / ||g||) * (1/2) * 2 <g, dg> = coeff * <g, dg>.
    coeffs = (2.0 / n) * (norms - 1.0) / np.maximum(norms, 1e-12)
    grads = disc.penalty_param_grads(params, cache, g, coeffs)
    return penalty, grads


@dataclass(frozen=True)
class DiscriminatorLossParts:
    """The three critic-loss terms before weighting."""

    unlabeled: float
    labeled: float
    penalty: float

    def total(self, lam: float, gp_weight: float) -> float:
        return self.unlabeled + lam * self.labeled + gp_weight * self.penalty


def discriminator_loss(
    disc: DiscriminatorNet,
    params,
    real_feat: np.ndarray,
    real_codes: np.ndarray,
    fake_feat: np.ndarray,
    fake_codes: np.ndarray,
    labeled_feat: np.ndarray,
    labeled_codes: np.ndarray,
    labels: np.ndarray,
    eps: np.ndarray,
    lam: float,
    gp_weight: float,
    want_grads: bool = False,
):
    """Critic loss unlabeled + lam*labeled + gp_weight*penalty, summed over
    one fake batch per generator chain.

    `fake_feat` (k, B, l), `fake_codes` (k, B, F) and `eps` (k, B) hold the
    fakes of k generator chains; a 2-D `fake_feat` is the single-chain case
    k = 1.  Each fake batch is scored against the same real and labeled
    batches, and its penalty interpolates `real_feat` against it under the
    real batch's condition codes.  The real and labeled terms do not depend
    on the chain, so they are evaluated once and weighted by k.  Returns
    (parts, total) or (parts, total, grads) when `want_grads`.
    """
    fake_feat = np.asarray(fake_feat)
    if fake_feat.ndim == 2:
        fake_feat = fake_feat[None]
        fake_codes = np.asarray(fake_codes)[None]
        eps = np.asarray(eps)[None]
    if fake_feat.shape[1:] != real_feat.shape:
        raise ValueError(
            f"real/fake batches must align, got {real_feat.shape} vs {fake_feat.shape[1:]}"
        )
    k, n = fake_feat.shape[:2]
    tvec = critic_head_vector(disc.n_classes)

    real_scores, cache = disc.forward(params, real_feat, real_codes)
    if want_grads:
        grads, _ = disc.backward(params, cache, np.broadcast_to(k * tvec / n, real_scores.shape))
    lab_scores, cache = disc.forward(params, labeled_feat, labeled_codes)
    lab, dlab_scores = labeled_loss_grad(lab_scores, labels)
    if want_grads:
        _accumulate(grads, disc.backward(params, cache, (k * lam) * dlab_scores)[0])
    del cache

    unlab = pen = 0.0
    for j in range(k):
        fake_scores, cache = disc.forward(params, fake_feat[j], fake_codes[j])
        unlab += unlabeled_loss(real_scores, fake_scores)
        if want_grads:
            d_fake = np.broadcast_to(-tvec / n, fake_scores.shape)
            _accumulate(grads, disc.backward(params, cache, d_fake)[0])
        del cache
        res = gradient_penalty(
            disc, params, real_feat, fake_feat[j], real_codes, eps[j], want_grads=want_grads
        )
        if want_grads:
            res, pen_grads = res
            _accumulate(grads, pen_grads, gp_weight)
        pen += res

    parts = DiscriminatorLossParts(unlab, k * lab, pen)
    total = parts.total(lam, gp_weight)
    if not want_grads:
        return parts, total
    return parts, total, grads


def _accumulate(acc, grads, weight: float = 1.0) -> None:
    for a, g in zip(acc, grads):
        a += weight * g


def generator_loss_from_scores(fake_scores: np.ndarray):
    """Generator objective mean critic(fake scores) and its score gradient."""
    value = float(np.mean(critic_head(fake_scores)))
    tvec = critic_head_vector(fake_scores.shape[1] - 1)
    dscores = np.broadcast_to(tvec / fake_scores.shape[0], fake_scores.shape)
    return value, dscores

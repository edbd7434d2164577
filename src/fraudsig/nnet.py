"""Dense networks with hand-written forward, backward, and tangent passes.

Everything is batched numpy in float64 and purely functional in the
parameters: a network object holds only the architecture, while parameters
travel as a plain list of arrays aligned with ``net.param_specs``.  Besides
ordinary reverse-mode gradients, every trunk layer implements a
forward-tangent rule and a second-order reverse rule, which together give the
exact parameter gradient of penalties defined on input gradients (the
gradient-penalty term of the critic loss) without any numerical
differentiation.

Both networks open with an affine projection `proj` of the trunk input
[free input, condition embeddings], and every pass runs from its
pre-activation without forming that input: `project` gives the pre-activation
as a free-input part and a condition part, the `upper_*` methods run the
layers above `proj` from it, and `projection_grads` collects the
projection's and the embedding tables' gradients from gradients at it.
`forward` and `backward` are built on these, and so is the critic loss,
which combines projected batches linearly.  `output` is `forward` without
the layer caches that only a backward pass reads, for batches that are
never differentiated: the ensemble's predictions.  The generator's passes
can stop below its affine output layer `gen.out`: `hidden` and
`hidden_forward` give that layer's input H, and `hidden_backward` starts
from the gradient at H, so the losses can compose `gen.out` with the
critic's projection and never form a fake batch (see ``losses``).  The
whole-trunk form, with the concatenated input through `proj` as an
ordinary dense layer, is the test reference in ``tests/oracles.py``.

Conventions:
    * class index 0 is reserved for generated samples; indices 1..K are the
      real classes,
    * the critic readout is the fixed unit-Lipschitz linear map
      (x_0 - x_1 - ... - x_K) / sqrt(K+1),
    * class probabilities for real classes come from a softmax restricted to
      indices 1..K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParamSpec",
    "Dense",
    "TanhAct",
    "ResidualTanh",
    "GeneratorNet",
    "DiscriminatorNet",
    "critic_head",
    "critic_head_vector",
    "restricted_softmax",
    "zeros_like_params",
]


@dataclass(frozen=True)
class ParamSpec:
    """Shape and fan metadata for one parameter tensor."""

    name: str
    shape: tuple[int, ...]
    fan_in: int
    fan_out: int


# ---------------------------------------------------------------------------
# Trunk layers.  Each layer exposes:
#   forward(ps, x) -> (y, cache)
#   backward(ps, cache, dy, need_param_grads) -> (grads, dx)
#   tangent(ps, cache, xdot) -> (ydot, tcache)
#   second_backward(ps, cache, tcache, lam, mu) -> (grads, lam_x)
# where lam and mu are the gradients of the second-order pass's scalar w.r.t.
# the layer's primal and tangent outputs; mu is given at each layer, not returned.
# ---------------------------------------------------------------------------


class Dense:
    """Affine layer y = x W^T + b."""

    def __init__(self, in_dim: int, out_dim: int, name: str):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.specs = [
            ParamSpec(f"{name}.W", (out_dim, in_dim), in_dim, out_dim),
            ParamSpec(f"{name}.b", (out_dim,), in_dim, out_dim),
        ]

    def forward(self, ps, x):
        W, b = ps
        return x @ W.T + b, (x,)

    def backward(self, ps, cache, dy, need_param_grads=True):
        W, _ = ps
        (x,) = cache
        grads = [dy.T @ x, dy.sum(axis=0)] if need_param_grads else None
        return grads, dy @ W

    def tangent(self, ps, cache, xdot):
        W, _ = ps
        return xdot @ W.T, (xdot,)

    def second_backward(self, ps, cache, tcache, lam, mu):
        W, _ = ps
        (x,) = cache
        (xdot,) = tcache
        grads = [lam.T @ x + mu.T @ xdot, lam.sum(axis=0)]
        return grads, lam @ W


class TanhAct:
    """Elementwise tanh."""

    specs: list[ParamSpec] = []

    def forward(self, ps, x):
        y = np.tanh(x)
        return y, (y,)

    def backward(self, ps, cache, dy, need_param_grads=True):
        (y,) = cache
        return ([] if need_param_grads else None), dy * (1.0 - y * y)

    def tangent(self, ps, cache, xdot):
        (y,) = cache
        return (1.0 - y * y) * xdot, (xdot,)

    def second_backward(self, ps, cache, tcache, lam, mu):
        (y,) = cache
        (xdot,) = tcache
        sech2 = 1.0 - y * y
        lam_x = lam * sech2 + mu * (-2.0 * y * sech2) * xdot
        return [], lam_x


class ResidualTanh:
    """Residual block y = x + tanh(x W^T + b) with a square weight matrix."""

    def __init__(self, dim: int, name: str):
        self.dim = dim
        self.specs = [
            ParamSpec(f"{name}.W", (dim, dim), dim, dim),
            ParamSpec(f"{name}.b", (dim,), dim, dim),
        ]

    def forward(self, ps, x):
        W, b = ps
        t = np.tanh(x @ W.T + b)
        return x + t, (x, t)

    def backward(self, ps, cache, dy, need_param_grads=True):
        W, _ = ps
        x, t = cache
        da = dy * (1.0 - t * t)
        grads = [da.T @ x, da.sum(axis=0)] if need_param_grads else None
        return grads, dy + da @ W

    def tangent(self, ps, cache, xdot):
        W, _ = ps
        _, t = cache
        adot = xdot @ W.T
        return xdot + (1.0 - t * t) * adot, (xdot, adot)

    def second_backward(self, ps, cache, tcache, lam, mu):
        W, _ = ps
        x, t = cache
        xdot, adot = tcache
        sech2 = 1.0 - t * t
        lam_a = lam * sech2 + mu * (-2.0 * t * sech2) * adot
        mu_a = mu * sech2
        grads = [lam_a.T @ x + mu_a.T @ xdot, lam_a.sum(axis=0)]
        return grads, lam + lam_a @ W


def _check_codes(codes, cards):
    codes = np.asarray(codes)
    if codes.ndim != 2 or codes.shape[1] != len(cards):
        raise ValueError(
            f"codes must have shape (batch, {len(cards)}), got {codes.shape}"
        )
    for f, card in enumerate(cards):
        col = codes[:, f]
        if col.size and (col.min() < 0 or col.max() >= card):
            raise ValueError(
                f"condition feature {f}: code out of range [0, {card}) "
                f"(got min {col.min()}, max {col.max()})"
            )
    return codes


class _EmbeddingBank:
    """One tanh-squashed lookup table per categorical feature; output
    dimension equals the cardinality."""

    def __init__(self, cards: tuple[int, ...], name: str):
        self.cards = tuple(cards)
        self.out_dim = sum(self.cards)
        self.specs = [
            ParamSpec(f"{name}.emb{f}", (c, c), c, c) for f, c in enumerate(self.cards)
        ]

    def forward(self, ps, codes):
        outs = []
        for f in range(len(self.cards)):
            outs.append(np.tanh(ps[f][codes[:, f]]))
        return outs, (codes, outs)

    def backward(self, ps, cache, douts):
        codes, outs = cache
        grads = []
        for f, c in enumerate(self.cards):
            h = outs[f]
            de = douts[f] * (1.0 - h * h)
            dtable = np.zeros_like(ps[f])
            np.add.at(dtable, codes[:, f], de)
            grads.append(dtable)
        return grads


class _Net:
    """Condition embeddings and one free input vector feeding a dense trunk.

    The trunk is an affine projection `proj` of [free, embeddings] (when
    `free_first`, else [embeddings, free]) followed by `layers`; parameters
    are the embedding tables, `proj`'s W and b, then the tensors of `layers`
    in order.  `forward(params, x, codes)` takes the free input x
    (n, free_dim); `backward` returns the gradient w.r.t. it.

    Every pass starts from the pre-activation of `proj`, x W_x^T + e W_e^T + b
    with W = [W_x | W_e] in trunk-input column order and e the embedding
    outputs; the layers above `proj` are the "upper" layers.
    """

    def __init__(self, emb: _EmbeddingBank, free_dim: int, free_first: bool, proj: Dense,
                 layers: list):
        self.emb = emb
        self.free_dim = free_dim
        self.free_first = free_first
        self.proj = proj
        self.layers = layers
        self.n_emb = len(emb.specs)
        self.param_specs: list[ParamSpec] = list(emb.specs) + proj.specs
        # Each upper layer's range in the upper-layer tensors, and the columns
        # of W that multiply the free input and each embedding.
        self._offsets: list[tuple[int, int]] = []
        n = 0
        for layer in layers:
            self._offsets.append((n, n + len(layer.specs)))
            self.param_specs.extend(layer.specs)
            n += len(layer.specs)
        off = free_dim if free_first else 0
        self._free = slice(0, free_dim) if free_first else slice(emb.out_dim, None)
        self._emb_cols = []
        for c in emb.cards:
            self._emb_cols.append(slice(off, off + c))
            off += c

    def _split(self, params):
        """(embedding tables, `proj` (W, b), upper-layer tensors)."""
        if len(params) != len(self.param_specs):
            raise ValueError(
                f"expected {len(self.param_specs)} parameter tensors, got {len(params)}"
            )
        k = self.n_emb
        return params[:k], params[k : k + 2], params[k + 2 :]

    def init_params(self, rng: np.random.Generator):
        """Draw every tensor from its zero-mean Gaussian prior with
        fan-balanced variance 2 / (fan_in + fan_out)."""
        out = []
        for spec in self.param_specs:
            sigma = np.sqrt(2.0 / (spec.fan_in + spec.fan_out))
            out.append(rng.normal(0.0, sigma, size=spec.shape))
        return out

    def free_weights(self, params):
        """W_x, the free-input columns of the `proj` weight (a view)."""
        return self._split(params)[1][0][:, self._free]

    def condition(self, params, codes):
        """The condition part of `proj`'s pre-activation, e W_e^T + b, and
        the embedding cache."""
        codes = _check_codes(codes, self.emb.cards)
        emb_ps, (W, b), _ = self._split(params)
        outs, emb_cache = self.emb.forward(emb_ps, codes)
        return b + sum(o @ W[:, s].T for o, s in zip(outs, self._emb_cols)), emb_cache

    def project(self, params, x, codes):
        """Pre-activation of `proj` in two parts: (x W_x^T, e W_e^T + b,
        embedding cache)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.free_dim:
            raise ValueError(f"input batch must be (n, {self.free_dim}), got {x.shape}")
        cond, emb_cache = self.condition(params, codes)
        return x @ self.free_weights(params).T, cond, emb_cache

    def upper_forward(self, params, pre, stop=None):
        """Output of the upper layers from `proj` pre-activations, with the
        layers' caches; with `stop`, of the layers `layers[:stop]` only."""
        upper_ps = self._split(params)[2]
        caches = []
        for layer, (lo, hi) in zip(self.layers[:stop], self._offsets):
            pre, cache = layer.forward(upper_ps[lo:hi], pre)
            caches.append(cache)
        return pre, caches

    def output(self, params, x, codes, stop=None):
        """The output of `forward`, with no caches: each layer's input is
        released as soon as the layer has run.  With `stop`, the output of
        the layers `layers[:stop]`."""
        y, cond, _ = self.project(params, x, codes)
        y += cond
        del cond
        upper_ps = self._split(params)[2]
        for layer, (lo, hi) in zip(self.layers[:stop], self._offsets):
            y = layer.forward(upper_ps[lo:hi], y)[0]
        return y

    def upper_backward(self, params, caches, dy, need_param_grads=True):
        """Reverse pass over the lowest len(`caches`) upper layers, whose
        caches they are; returns (the upper-layer grads, None in the slots
        of any layer above those, d pre)."""
        upper_ps = self._split(params)[2]
        grads = [None] * len(upper_ps) if need_param_grads else None
        n = len(caches)
        for layer, (lo, hi), c in zip(
            reversed(self.layers[:n]), reversed(self._offsets[:n]), reversed(caches)
        ):
            layer_grads, dy = layer.backward(upper_ps[lo:hi], c, dy, need_param_grads)
            if need_param_grads:
                grads[lo:hi] = layer_grads
        return grads, dy

    def projection_grads(self, params, free_grad, cond_terms):
        """Gradients of the embedding tables and of `proj` (W, b).

        `free_grad` is the W_x block, the sum of D^T x over the free-input
        batches x and the gradients D at their pre-activations; `cond_terms`
        lists (D, embedding cache) pairs, D (n, width) the gradient at the
        pre-activation of the rows that cache embedded, which feed W_e, b and
        the tables.
        """
        emb_ps, (W, _), _ = self._split(params)
        dW = np.zeros_like(W)
        dW[:, self._free] += free_grad
        db = np.zeros(W.shape[0])
        emb_grads = zeros_like_params(emb_ps)
        for d, emb_cache in cond_terms:
            db += d.sum(axis=0)
            for s, out in zip(self._emb_cols, emb_cache[1]):
                dW[:, s] += d.T @ out
            douts = [d @ W[:, s] for s in self._emb_cols]
            for acc, g in zip(emb_grads, self.emb.backward(emb_ps, emb_cache, douts)):
                acc += g
        return emb_grads + [dW, db]

    def forward(self, params, x, codes, stop=None):
        x = np.asarray(x, dtype=np.float64)
        proj, cond, emb_cache = self.project(params, x, codes)
        y, caches = self.upper_forward(params, proj + cond, stop)
        return y, (x, emb_cache, caches)

    def backward(self, params, cache, dy, need_param_grads=True):
        """Reverse pass; returns (grads, d free input)."""
        x, emb_cache, caches = cache
        grads, d_pre = self.upper_backward(params, caches, dy, need_param_grads)
        dx = d_pre @ self.free_weights(params)
        if not need_param_grads:
            return None, dx
        return self.projection_grads(params, d_pre.T @ x, [(d_pre, emb_cache)]) + grads, dx


class GeneratorNet(_Net):
    """Maps (latent vector, condition codes) to a synthetic feature vector.

    Trunk input [embeddings, z]: affine projection to `width`, `n_residual`
    residual tanh blocks, a tanh, and a final affine map to the feature
    dimension.
    """

    def __init__(
        self,
        latent_dim: int,
        emb_cards: tuple[int, ...],
        out_dim: int,
        width: int = 128,
        n_residual: int = 2,
    ):
        emb = _EmbeddingBank(emb_cards, "gen")
        proj = Dense(emb.out_dim + latent_dim, width, "gen.proj")
        layers = [ResidualTanh(width, f"gen.res{r}") for r in range(n_residual)]
        layers.append(TanhAct())
        layers.append(Dense(width, out_dim, "gen.out"))
        super().__init__(emb, latent_dim, False, proj, layers)

    def out_params(self, params):
        """`gen.out`'s (W_o, b_o): a fake batch is H W_o^T + b_o."""
        return params[-2], params[-1]

    def hidden(self, params, z, codes):
        """H (n, width), the input of `gen.out`, with no caches (`output`
        stopped below `gen.out`)."""
        return self.output(params, z, codes, stop=-1)

    def hidden_forward(self, params, z, codes):
        """H with the cache `hidden_backward` reads."""
        return self.forward(params, z, codes, stop=-1)

    def hidden_backward(self, params, cache, d_hidden, out_grads):
        """Parameter gradients from `d_hidden`, the gradient at H, and
        `out_grads`, `gen.out`'s (dW_o, db_o)."""
        grads, _ = self.backward(params, cache, d_hidden)
        grads[-2:] = out_grads
        return grads


class DiscriminatorNet(_Net):
    """Scores (feature vector, condition codes) into K+1 raw class scores.

    Trunk input [features, embeddings]: affine projection to `width`,
    `n_residual` residual tanh blocks, a tanh, a tanh-separated stack of
    narrowing affine layers (`head_widths`), and a final affine map to K+1
    scores.  Beyond the shared passes it runs the critic readout's backward
    and forward-over-reverse passes over the upper layers, which the
    gradient penalty of the critic loss is built on.
    """

    def __init__(
        self,
        feat_dim: int,
        emb_cards: tuple[int, ...],
        n_classes: int = 2,
        width: int = 128,
        n_residual: int = 2,
        head_widths: tuple[int, ...] = (64, 32),
    ):
        self.n_classes = n_classes
        emb = _EmbeddingBank(emb_cards, "disc")
        proj = Dense(feat_dim + emb.out_dim, width, "disc.proj")
        layers = [ResidualTanh(width, f"disc.res{r}") for r in range(n_residual)]
        layers.append(TanhAct())
        prev = width
        for h, w in enumerate(head_widths):
            layers.append(Dense(prev, w, f"disc.head{h}"))
            layers.append(TanhAct())
            prev = w
        layers.append(Dense(prev, n_classes + 1, "disc.out"))
        super().__init__(emb, feat_dim, True, proj, layers)

    def critic_pre_gradient(self, params, scores, caches):
        """Per-sample gradients of the critic readout of `scores` at each upper
        layer's output, top first, and last at the pre-activation."""
        upper_ps = self._split(params)[2]
        d_outs = [np.broadcast_to(critic_head_vector(self.n_classes), scores.shape)]
        for layer, (lo, hi), c in zip(self.layers[::-1], self._offsets[::-1], caches[::-1]):
            d_outs.append(layer.backward(upper_ps[lo:hi], c, d_outs[-1], need_param_grads=False)[1])
        return d_outs

    def upper_penalty_grads(self, params, caches, pre_dot, coeffs, d_outs):
        """Forward-over-reverse pass over the upper layers.

        `pre_dot` (n, width) is the tangent of the pre-activation and `d_outs`
        `critic_pre_gradient`'s result; returns (upper-layer grads of sum_i
        coeffs[i] * <critic tangent>_i, lam), lam that scalar's gradient w.r.t.
        the pre-activation.  Its gradient at each layer's tangent output obeys
        the backward rule from the readout: it is coeffs[:, None] times `d_outs`.
        """
        upper_ps = self._split(params)[2]
        tcaches = []
        for layer, (lo, hi), c in zip(self.layers, self._offsets, caches):
            pre_dot, tcache = layer.tangent(upper_ps[lo:hi], c, pre_dot)
            tcaches.append(tcache)
        coeffs = coeffs[:, None]
        lam = np.zeros(d_outs[0].shape)
        grads = [None] * len(upper_ps)
        for layer, (lo, hi), c, tc, d in zip(
            self.layers[::-1], self._offsets[::-1], caches[::-1], tcaches[::-1], d_outs
        ):
            layer_grads, lam = layer.second_backward(upper_ps[lo:hi], c, tc, lam, coeffs * d)
            grads[lo:hi] = layer_grads
        return grads, lam


def critic_head_vector(n_classes: int) -> np.ndarray:
    """Weights of the fixed critic readout; Euclidean norm exactly 1."""
    v = -np.ones(n_classes + 1)
    v[0] = 1.0
    return v / np.sqrt(n_classes + 1.0)


def critic_head(scores: np.ndarray) -> np.ndarray:
    """(x_0 - x_1 - ... - x_K) / sqrt(K+1) per row."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] < 2:
        raise ValueError(f"scores must be (batch, K+1) with K >= 1, got {scores.shape}")
    return scores @ critic_head_vector(scores.shape[1] - 1)


def restricted_softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the real classes 1..K only, max-stabilised per row.

    Returns a (batch, K) array of probabilities summing to 1 per row; the
    generated-class score (column 0) never enters.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] < 2:
        raise ValueError(f"scores must be (batch, K+1) with K >= 1, got {scores.shape}")
    real = scores[:, 1:]
    shifted = real - real.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def zeros_like_params(params):
    return [np.zeros_like(p) for p in params]

"""Independent reference implementations the tests compare against.

Nothing here imports the package's algebra or metric code paths beyond plain
data types, the rate-to-bucket lookup and the prefix encoder's layout
constants: customer series come from one typed record per CSV row grouped
in per-customer lists, iterated integrals from spectral integration of the
piecewise-linear path, signatures from a dict-of-words tensor algebra, the
prefix encoder's rows from a full-level outer-product algebra, risk levels
and condition codes from a per-prefix loop, and metrics from direct counting
or per-sample loops.  Slow and obvious on purpose.  There are two
exceptions.  The tensor exponential, which the
exp-log round-trip tests apply to `fraudsig.signatures.tensor_log`, is a
power series of the package's `chen_product`.  The whole-trunk form of the
networks and of the feature-level critic loss with its gradient penalty (the
critic's input gradient and the penalty's second-order parameter gradient)
runs the concatenated trunk input through the package's layers with their
generic forward, backward, tangent and second-backward rules, plus the
loss's score-level terms, and is the reference for the networks'
projection-level passes and for `fraudsig.losses.discriminator_loss`.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fraudsig.banksim import (
    COLUMNS,
    VALID_GENDERS,
    TransactionParseError,
    rate_to_bucket,
)
from fraudsig.features import _BLOCK, _D_AUG, _TIME_CHANNELS, _VIS_CHANNEL
from fraudsig.losses import labeled_loss_grad, unlabeled_loss
from fraudsig.nnet import critic_head_vector
from fraudsig.signatures import TensorSeries, chen_product

# ---------------------------------------------------------------------------
# Iterated integrals by repeated integration.
#
# The path is piecewise linear on a uniform grid over [0, 1].  Each letter of
# a word adds one integration f_{k}(t) = int_0^t f_{k-1}(s) x'_{w_k}(s) ds.
# Per segment the integrand is a polynomial, so a Gauss-Legendre integration
# matrix (values at q nodes -> antiderivative values at the same nodes, exact
# for degree < q) integrates it without error.
# ---------------------------------------------------------------------------


def _integration_matrix(q: int):
    x, w = np.polynomial.legendre.leggauss(q)
    t = (x + 1.0) / 2.0  # nodes on [0, 1]
    powers = np.arange(q)
    V = t[:, None] ** powers[None, :]
    A = t[:, None] ** (powers[None, :] + 1) / (powers[None, :] + 1)
    Vinv = np.linalg.inv(V)
    W = A @ Vinv                       # antiderivative values at the nodes
    full = (1.0 / (powers + 1)) @ Vinv  # definite integral over [0, 1]
    return t, W, full


def iterated_integral(points: np.ndarray, word: tuple[int, ...], q: int | None = None) -> float:
    """int ... int dx_{w_1} ... dx_{w_m} over the order simplex."""
    points = np.asarray(points, dtype=np.float64)
    nseg = points.shape[0] - 1
    m = len(word)
    if m == 0:
        return 1.0
    q = q or (m + 2)
    _, W, full = _integration_matrix(q)
    h = 1.0 / nseg
    slopes = (points[1:] - points[:-1]) / h
    vals = np.ones((nseg, q))
    total = 1.0
    for letter in word:
        g = vals * slopes[:, letter][:, None]
        seg_full = h * (g @ full)
        knots = np.concatenate([[0.0], np.cumsum(seg_full)])
        vals = knots[:-1, None] + h * (g @ W.T)
        total = knots[-1]
    return float(total)


# ---------------------------------------------------------------------------
# Dict-of-words tensor algebra.  A series is {word tuple: coefficient} with
# the empty word () as the scalar slot.
# ---------------------------------------------------------------------------


def word_unit(dim: int, degree: int) -> dict:
    out = {(): 1.0}
    for m in range(1, degree + 1):
        for w in itertools.product(range(dim), repeat=m):
            out[w] = 0.0
    return out


def word_concat(a: dict, b: dict, dim: int, degree: int) -> dict:
    out = {w: 0.0 for w in word_unit(dim, degree)}
    for u, cu in a.items():
        if cu == 0.0:
            continue
        for v, cv in b.items():
            if len(u) + len(v) <= degree and cv != 0.0:
                out[u + v] += cu * cv
    return out


def word_segment_sig(increment: np.ndarray, degree: int) -> dict:
    dim = len(increment)
    out = word_unit(dim, degree)
    for m in range(1, degree + 1):
        for w in itertools.product(range(dim), repeat=m):
            c = 1.0 / math.factorial(m)
            for letter in w:
                c *= increment[letter]
            out[w] = c
    return out


def word_path_sig(points: np.ndarray, degree: int) -> dict:
    points = np.asarray(points, dtype=np.float64)
    dim = points.shape[1]
    sig = word_unit(dim, degree)
    for k in range(points.shape[0] - 1):
        sig = word_concat(sig, word_segment_sig(points[k + 1] - points[k], degree), dim, degree)
    return sig


def word_log(sig: dict, dim: int, degree: int) -> dict:
    x = dict(sig)
    x[()] = x[()] - 1.0
    out = {w: 0.0 for w in word_unit(dim, degree)}
    out[()] = 0.0
    power = word_unit(dim, degree)  # x^0
    for n in range(1, degree + 1):
        power = word_concat(power, x, dim, degree)
        c = ((-1.0) ** (n - 1)) / n
        for w, v in power.items():
            out[w] += c * v
    return out


def word_logsig_coords(points: np.ndarray, degree: int, words: list[tuple[int, ...]]) -> np.ndarray:
    dim = np.asarray(points).shape[1]
    lg = word_log(word_path_sig(points, degree), dim, degree)
    return np.array([lg[w] for w in words])


def brute_lyndon_words(dim: int, max_len: int) -> list[tuple[int, ...]]:
    """A word is Lyndon iff it is strictly smaller than all proper rotations."""
    out = []
    for m in range(1, max_len + 1):
        for w in itertools.product(range(dim), repeat=m):
            if all(w < w[i:] + w[:i] for i in range(1, m)):
                out.append(w)
    return sorted(out, key=lambda w: (len(w), w))


def tensor_exp(a: TensorSeries) -> TensorSeries:
    """Tensor exponential of a series with scalar part 0 (inverse of tensor_log)."""
    if np.any(np.abs(a.levels[0]) > 1e-9):
        raise ValueError(f"tensor_exp needs scalar part 0, got {a.levels[0]!r}")
    out = TensorSeries.unit(a.alphabet_size, a.degree, a.batch_shape, a.top)
    power = TensorSeries.unit(a.alphabet_size, a.degree, a.batch_shape, a.top)
    for n in range(1, a.degree + 1):
        power = chen_product(power, a)
        inv_fact = 1.0 / math.factorial(n)
        for m in range(n, a.degree + 1):
            out.levels[m] += inv_fact * power.levels[m]
    return out


# ---------------------------------------------------------------------------
# Brute-force metrics.
# ---------------------------------------------------------------------------


def brute_rank(scores) -> list[int]:
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def brute_macro_f1(labels, preds) -> float:
    f1s = []
    for cls in (0, 1):
        tp = sum(1 for l, p in zip(labels, preds) if l == cls and p == cls)
        fp = sum(1 for l, p in zip(labels, preds) if l != cls and p == cls)
        fn = sum(1 for l, p in zip(labels, preds) if l == cls and p != cls)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return sum(f1s) / 2.0


def brute_partial_ap(labels, scores, cap: float) -> float:
    n_pos = sum(labels)
    area = 0.0
    hits = 0
    for rank, i in enumerate(brute_rank(scores), start=1):
        if not labels[i]:
            continue
        hits += 1
        prec = hits / rank
        lo, hi = (hits - 1) / n_pos, hits / n_pos
        area += (min(hi, cap) - lo) * prec
        if hi >= cap:
            break
    return area


def partial_pr_auc_loop(labels: np.ndarray, scores: np.ndarray, r: float) -> float:
    """Per-sample walk of `fraudsig.metrics.partial_pr_auc`'s ranking (the
    stable descending order), adding each positive's step in rank order and
    stopping at the recall cap; the vectorised form must equal it exactly."""
    n_pos = int(labels.sum())
    order = np.argsort(-scores, kind="stable")
    hits = 0
    area = 0.0
    for rank, idx in enumerate(order, start=1):
        if labels[idx] != 1:
            continue
        hits += 1
        recall_prev = (hits - 1) / n_pos
        recall_now = hits / n_pos
        precision = hits / rank
        if recall_now <= r:
            area += (recall_now - recall_prev) * precision
            if recall_now == r:
                break
        else:
            area += (r - recall_prev) * precision
            break
    return float(area)


def midranks_loop(values: np.ndarray) -> np.ndarray:
    """Ascending 1-based ranks with each run of ties sharing its mean rank,
    found by scanning the sorted values; `fraudsig.metrics._midranks` must
    equal it exactly."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def brute_head(labels, scores, k_percent: float) -> list[int]:
    k = max(1, math.ceil(k_percent / 100.0 * len(labels)))
    return brute_rank(scores)[:k]


def brute_cost(labels, scores, amounts, k_percent: float, alpha: float) -> float:
    head = set(brute_head(labels, scores, k_percent))
    cost = 0.0
    for i, (l, a) in enumerate(zip(labels, amounts)):
        if l == 1 and i not in head:
            cost += a
        if l == 0 and i in head:
            cost += alpha * a
    return cost


def brute_auroc(pos_vals, neg_vals) -> float:
    wins = 0.0
    for p in pos_vals:
        for n in neg_vals:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos_vals) * len(neg_vals))


# ---------------------------------------------------------------------------
# Transaction ingest one record at a time.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Transaction:
    step: int
    customer: str
    age: str
    gender: str
    category: str
    amount: float
    fraud: int


def _clean(value: str) -> str:
    return value.strip().strip("'\"")


def load_transactions_reference(path) -> list[Transaction]:
    """One typed record per CSV row, every field cleaned, with the package's
    checks in the same order (header, field count, step, amount, fraud,
    customer)."""
    out: list[Transaction] = []
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [_clean(h) for h in next(reader)]
        if tuple(header) != COLUMNS:
            raise TransactionParseError(1, f"unexpected header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(COLUMNS):
                raise TransactionParseError(lineno, f"expected {len(COLUMNS)} fields")
            fields = [_clean(v) for v in row]
            try:
                step = int(fields[0])
            except ValueError:
                raise TransactionParseError(lineno, "step") from None
            try:
                amount = float(fields[8])
            except ValueError:
                raise TransactionParseError(lineno, "amount") from None
            try:
                fraud = int(fields[9])
            except ValueError:
                raise TransactionParseError(lineno, "fraud") from None
            if fraud not in (0, 1):
                raise TransactionParseError(lineno, "fraud")
            if not fields[1]:
                raise TransactionParseError(lineno, "customer")
            out.append(
                Transaction(
                    step=step, customer=fields[1], age=fields[2], gender=fields[3],
                    category=fields[7], amount=amount, fraud=fraud,
                )
            )
    return out


@dataclass
class SeriesReference:
    """One customer's transactions as plain per-row values: arrays for the
    numbers, one string per row for the categorical columns."""

    customer: str
    steps: np.ndarray
    amounts: np.ndarray
    frauds: np.ndarray
    step_diffs: np.ndarray
    ages: list[str]
    genders: list[str]
    categories: list[str]


def group_customers_reference(txns: list[Transaction]) -> tuple[list[SeriesReference], int]:
    """Per-customer lists in order of first appearance, each sorted by step
    with Python's stable sort; a customer whose latest row has no valid
    gender is counted as excluded."""
    by_customer: dict[str, list[Transaction]] = {}
    for t in txns:
        by_customer.setdefault(t.customer, []).append(t)
    kept: list[SeriesReference] = []
    excluded = 0
    for cid, rows in by_customer.items():
        rows = sorted(rows, key=lambda r: r.step)
        if rows[-1].gender not in VALID_GENDERS:
            excluded += 1
            continue
        steps = [float(r.step) for r in rows]
        kept.append(
            SeriesReference(
                customer=cid,
                steps=np.asarray([r.step for r in rows], dtype=np.int64),
                amounts=np.asarray([r.amount for r in rows], dtype=np.float64),
                frauds=np.asarray([r.fraud for r in rows], dtype=np.int8),
                step_diffs=np.asarray([0.0] + [b - a for a, b in zip(steps, steps[1:])]),
                ages=[r.age for r in rows],
                genders=[r.gender for r in rows],
                categories=[r.category for r in rows],
            )
        )
    return kept, excluded


# ---------------------------------------------------------------------------
# Scalar risk level, condition codes and the prior's density.
# ---------------------------------------------------------------------------


def risk_level(categories: list[str], prefix_len: int, rate_table: dict[str, float]) -> int:
    """Position-weighted average transaction risk of the prefix of
    `categories` (one string per transaction), rounded half up: transaction
    i (1-based) carries weight i, and a category absent from the rate table
    counts as bucket 1."""
    total, weight_sum = 0.0, 0.0
    for i in range(1, prefix_len + 1):
        cat = categories[i - 1]
        bucket = rate_to_bucket(rate_table[cat]) if cat in rate_table else 1
        total += i * bucket
        weight_sum += i
    return int(math.floor(total / weight_sum + 0.5))


def condition_codes_reference(
    series, customer_idx, prefix_len, age_vocab, gender_vocab, rate_table, rows
) -> np.ndarray:
    """(len(rows), 3) condition codes one row at a time, sample i being the
    prefix of length `prefix_len[i]` of `series[customer_idx[i]]` (a
    `SeriesReference`): the index of its label transaction's age band and
    gender in the given vocabularies and its risk level minus 1."""
    age_map = {a: i for i, a in enumerate(age_vocab)}
    gender_map = {g: i for i, g in enumerate(gender_vocab)}
    codes = np.zeros((len(rows), 3), dtype=np.int64)
    for k, i in enumerate(rows):
        cs, j = series[int(customer_idx[i])], int(prefix_len[i])
        codes[k, 0] = age_map[cs.ages[j - 1]]
        codes[k, 1] = gender_map[cs.genders[j - 1]]
        codes[k, 2] = risk_level(cs.categories, j, rate_table) - 1
    return codes


def glorot_neg_log_density(prior, params) -> float:
    """-log p(params) up to the normalising constant, for a GlorotPrior."""
    return float(sum(0.5 * np.sum(p * p) / s2 for p, s2 in zip(params, prior.sigma2)))


# ---------------------------------------------------------------------------
# Reference optimizer and finite differences.
# ---------------------------------------------------------------------------


def sghmc_step(params, grads, velocity, friction, lr, rng, noise_scale=1.0):
    """One friction-damped SGHMC step with a velocity (Chen, Fox & Guestrin,
    ICML 2014): v <- (1 - friction) v + lr g + N(0, 2 friction lr),
    theta <- theta + v.  `grads` is the direction of motion; returns
    (new_params, new_velocity)."""
    std = noise_scale * np.sqrt(2.0 * friction * lr)
    new_v, new_p = [], []
    for p, g, v in zip(params, grads, velocity):
        nv = (1.0 - friction) * v + lr * g
        if std > 0.0:
            nv = nv + rng.normal(0.0, std, size=p.shape)
        new_v.append(nv)
        new_p.append(p + nv)
    return new_p, new_v


def reference_adam_step(p, g, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One textbook adaptive-moment ascent step (gradients point uphill)."""
    m = beta1 * m + (1 - beta1) * g
    v = beta2 * v + (1 - beta2) * (g * g)
    mhat = m / (1 - beta1**t)
    vhat = v / (1 - beta2**t)
    p = p + lr * mhat / (np.sqrt(vhat) + eps)
    return p, m, v


def fd_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, entry by entry."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    flat_x = x.ravel()
    flat_o = out.ravel()
    for k in range(flat_x.size):
        orig = flat_x[k]
        flat_x[k] = orig + h
        up = f(x)
        flat_x[k] = orig - h
        dn = f(x)
        flat_x[k] = orig
        flat_o[k] = (up - dn) / (2 * h)
    return out


# ---------------------------------------------------------------------------
# Whole-trunk networks and the feature-level critic loss.  Every pass
# concatenates the (B, free_dim + E) trunk input and runs it through
# [net.proj] + net.layers with the layers' generic rules; the penalty's
# second-order pass pushes the input gradient through `proj` as a tangent
# with zero embedding columns.  Only the embedding bank and the layers'
# forward, backward, tangent and second-backward rules of the package are
# used.
# ---------------------------------------------------------------------------


def _trunk_layout(net):
    """(trunk layers, their parameter ranges, free-input columns, embedding
    columns) of a generator or discriminator."""
    layers = [net.proj] + net.layers
    offsets, n = [], 0
    for layer in layers:
        offsets.append((n, n + len(layer.specs)))
        n += len(layer.specs)
    e_dim = sum(net.emb.cards)
    free = slice(0, net.free_dim) if net.free_first else slice(e_dim, e_dim + net.free_dim)
    emb_cols, off = [], net.free_dim if net.free_first else 0
    for c in net.emb.cards:
        emb_cols.append(slice(off, off + c))
        off += c
    return layers, offsets, free, emb_cols


def trunk_forward(net, params, x, codes):
    """Network output from the concatenated trunk input, with the cache for
    `trunk_backward` and `penalty_param_grads_reference`."""
    layers, offsets, _, _ = _trunk_layout(net)
    n_emb = len(net.emb.specs)
    emb_ps, trunk_ps = params[:n_emb], params[n_emb:]
    outs, emb_cache = net.emb.forward(emb_ps, np.asarray(codes))
    x = np.asarray(x, dtype=np.float64)
    h = np.concatenate([x] + outs if net.free_first else outs + [x], axis=1)
    caches = []
    for layer, (lo, hi) in zip(layers, offsets):
        h, cache = layer.forward(trunk_ps[lo:hi], h)
        caches.append(cache)
    return h, (emb_cache, caches)


def trunk_backward(net, params, cache, dy, need_param_grads=True):
    """Reverse pass of `trunk_forward`; returns (grads or None, d free input)."""
    layers, offsets, free, emb_cols = _trunk_layout(net)
    n_emb = len(net.emb.specs)
    emb_ps, trunk_ps = params[:n_emb], params[n_emb:]
    emb_cache, caches = cache
    grads = [None] * len(trunk_ps)
    for layer, (lo, hi), c in zip(reversed(layers), reversed(offsets), reversed(caches)):
        layer_grads, dy = layer.backward(trunk_ps[lo:hi], c, dy, need_param_grads)
        if need_param_grads:
            grads[lo:hi] = layer_grads
    if not need_param_grads:
        return None, dy[:, free]
    emb_grads = net.emb.backward(emb_ps, emb_cache, [dy[:, s] for s in emb_cols])
    return emb_grads + grads, dy[:, free]


def critic_input_gradient_reference(disc, params, feat, codes):
    """Per-sample gradient of the critic readout w.r.t. `feat`, with the
    forward cache for `penalty_param_grads_reference`."""
    scores, cache = trunk_forward(disc, params, feat, codes)
    tvec = critic_head_vector(disc.n_classes)
    _, dfeat = trunk_backward(
        disc, params, cache, np.broadcast_to(tvec, scores.shape), need_param_grads=False
    )
    return dfeat, cache


def penalty_param_grads_reference(disc, params, cache, input_grads, coeffs):
    """Parameter gradient of sum_i coeffs[i] * <g_i, v_i> at v = `input_grads`
    held fixed, g_i the critic's input gradient at sample i: the reverse pass
    over the forward-tangent program with tangent direction v."""
    layers, offsets, free, emb_cols = _trunk_layout(disc)
    n_emb = len(disc.emb.specs)
    emb_ps, trunk_ps = params[:n_emb], params[n_emb:]
    emb_cache, caches = cache
    xdot = np.zeros((input_grads.shape[0], disc.free_dim + sum(disc.emb.cards)))
    xdot[:, free] = input_grads
    tcaches = []
    for layer, (lo, hi), c in zip(layers, offsets, caches):
        xdot, tcache = layer.tangent(trunk_ps[lo:hi], c, xdot)
        tcaches.append(tcache)
    tvec = critic_head_vector(disc.n_classes)
    mu = coeffs[:, None] * tvec[None, :]
    lam = np.zeros_like(mu)
    grads = [None] * len(trunk_ps)
    for layer, (lo, hi), c, tc in zip(
        reversed(layers), reversed(offsets), reversed(caches), reversed(tcaches)
    ):
        layer_grads, lam = layer.second_backward(trunk_ps[lo:hi], c, tc, lam, mu)
        mu = layer.backward(trunk_ps[lo:hi], c, mu, need_param_grads=False)[1]
        grads[lo:hi] = layer_grads
    # The lookup tangent is zero for a fixed table, so only the primal (lam)
    # path reaches the embedding tables.
    lams = [lam[:, s] for s in emb_cols]
    return disc.emb.backward(emb_ps, emb_cache, lams) + grads


def gradient_penalty_reference(disc, params, real_feat, fake_feat, codes, eps):
    """(penalty, parameter gradient) at the interpolates
    eps * real_feat + (1 - eps) * fake_feat under condition `codes`."""
    eps = np.asarray(eps, dtype=np.float64)[:, None]
    mixed = eps * real_feat + (1.0 - eps) * fake_feat
    g, cache = critic_input_gradient_reference(disc, params, mixed, codes)
    norms = np.sqrt(np.sum(g * g, axis=1))
    penalty = float(np.mean((norms - 1.0) ** 2))
    n = norms.shape[0]
    coeffs = (2.0 / n) * (norms - 1.0) / np.maximum(norms, 1e-12)
    return penalty, penalty_param_grads_reference(disc, params, cache, g, coeffs)


def discriminator_loss_reference(
    disc, params, real_feat, real_codes, fake_feat, fake_codes,
    labeled_feat, labeled_codes, labels, eps, lam, gp_weight,
):
    """Critic loss and its gradient over the full trunk input, as
    (unlabeled, labeled, penalty, total, grads); same arguments and
    conventions as `losses.discriminator_loss` with stacked fakes."""
    fake_feat = np.asarray(fake_feat)
    if fake_feat.ndim == 2:
        fake_feat = fake_feat[None]
        fake_codes = np.asarray(fake_codes)[None]
        eps = np.asarray(eps)[None]
    k, n = fake_feat.shape[:2]
    tvec = critic_head_vector(disc.n_classes)

    real_scores, cache = trunk_forward(disc, params, real_feat, real_codes)
    d_real = np.broadcast_to(k * tvec / n, real_scores.shape)
    grads, _ = trunk_backward(disc, params, cache, d_real)
    lab_scores, cache = trunk_forward(disc, params, labeled_feat, labeled_codes)
    lab, dlab_scores = labeled_loss_grad(lab_scores, labels)
    for a, g in zip(grads, trunk_backward(disc, params, cache, (k * lam) * dlab_scores)[0]):
        a += g
    unlab = pen = 0.0
    for j in range(k):
        fake_scores, cache = trunk_forward(disc, params, fake_feat[j], fake_codes[j])
        unlab += unlabeled_loss(real_scores, fake_scores)
        d_fake = np.broadcast_to(-tvec / n, fake_scores.shape)
        for a, g in zip(grads, trunk_backward(disc, params, cache, d_fake)[0]):
            a += g
        res, pen_grads = gradient_penalty_reference(
            disc, params, real_feat, fake_feat[j], real_codes, eps[j]
        )
        for a, g in zip(grads, pen_grads):
            a += gp_weight * g
        pen += res
    total = unlab + lam * k * lab + gp_weight * pen
    return unlab, k * lab, pen, total, grads


# ---------------------------------------------------------------------------
# Full-level prefix encoder: `fraudsig.features.encode_prefixes` as it was
# before its series held the top level at the Lyndon positions only, with
# its own copy of the full-level tensor algebra of that version (a series is
# a list of levels, level m of shape (D**m, *batch); every level-m product
# is an outer product).  Same products in the same order as the restricted
# encoder, so the rows must be bit-identical.
# ---------------------------------------------------------------------------


def _outer(left, right):
    return (left[:, None] * right[None, :]).reshape(
        left.shape[0] * right.shape[0], *left.shape[1:]
    )


def _segment_levels(increment, degree):
    levels = [np.ones((1, *increment.shape[1:]))]
    for m in range(1, degree + 1):
        levels.append(_outer(levels[-1], increment) / m)
    return levels


def _chen_levels(a, b):
    out = [np.zeros_like(lvl) for lvl in a]
    for m, acc in enumerate(out):
        for i in range(m + 1):
            left, right = a[i], b[m - i]
            if i == 0:
                acc += left[0] * right
            elif i == m:
                acc += left * right[0]
            else:
                acc += _outer(left, right)
    return out


def _log_levels(t):
    degree = len(t) - 1
    out = [np.zeros_like(t[0])] + [lvl.copy() for lvl in t[1:]]
    power = t
    for n in range(2, degree + 1):
        coeff = (-1.0) ** (n - 1) / n
        nxt = [None] * (degree + 1)
        for m in range(n, degree + 1):
            acc = _outer(power[n - 1], t[m - n + 1])
            for i in range(n, m):
                acc += _outer(power[i], t[m - i])
            nxt[m] = acc
            out[m] += coeff * acc
        power = nxt
    return out


def encode_prefixes_reference(step_diffs, amounts, degree, basis, min_prefix=5):
    """Rows of `encode_prefixes`, with every series holding its whole top level."""
    sd = np.asarray(step_diffs, dtype=np.float64)
    amt = np.asarray(amounts, dtype=np.float64)
    T = sd.size
    out = np.empty((max(0, T - min_prefix + 1), basis.dim))
    time_counts = basis.letter_counts[:, _TIME_CHANNELS].sum(axis=1)
    vis_on = np.zeros(_D_AUG)
    vis_on[_VIS_CHANNEL] = 1.0
    # Running signature over [prepended start point, lead-lag body] with
    # unnormalised time; the first increment only switches visibility on.
    running = _segment_levels(vis_on, degree)
    row = 0
    for start in range(1, T, _BLOCK):
        ks = np.arange(start, min(start + _BLOCK, T))
        # Step k appends the lead move, then the lag catching up.
        lead = np.zeros((_D_AUG, ks.size))
        lead[0] = 1.0
        lead[1] = sd[ks] - sd[ks - 1]
        lead[2] = amt[ks] - amt[ks - 1]
        lag = np.zeros_like(lead)
        lag[3:6] = lead[0:3]
        steps = _chen_levels(_segment_levels(lead, degree), _segment_levels(lag, degree))
        states = [np.empty((lvl.shape[0], ks.size)) for lvl in running]
        for j in range(ks.size):
            running = _chen_levels(running, [lvl[:, j] for lvl in steps])
            for state, lvl in zip(states, running):
                state[:, j] = lvl
        # Prefixes ending in this block (lengths n = k + 1 >= min_prefix),
        # finalised as one batch.  Terminal decorations: visibility off at the
        # last point, then the jump to the all-zero point.
        first = max(0, min_prefix - 1 - start)
        if first >= ks.size:
            continue
        kend = ks[first:]
        n = kend + 1.0
        off = np.zeros((_D_AUG, kend.size))
        off[_VIS_CHANNEL] = -1.0
        drop = np.zeros_like(off)
        drop[0] = drop[3] = -(n - 1.0)
        drop[1] = drop[4] = -sd[kend]
        drop[2] = drop[5] = -amt[kend]
        tail = _chen_levels(
            [state[:, first:] for state in states],
            _chen_levels(_segment_levels(off, degree), _segment_levels(drop, degree)),
        )
        coords = np.concatenate(_log_levels(tail)[1:])[basis.index]
        coords *= (1.0 / (n - 1.0))[None, :] ** time_counts[:, None]
        out[row : row + kend.size] = coords.T
        row += kend.size
    return out

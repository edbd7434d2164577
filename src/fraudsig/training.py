"""Adversarial posterior sampling over generator and discriminator chains.

Several generator chains and several discriminator chains evolve jointly:
each generator step follows the critic response summed over all
discriminator chains, and each discriminator step sums its loss over fakes
from every generator chain (appearing once per opposing chain).
Discriminator parameters visited after burn-in are collected at a fixed
thinning stride into a posterior ensemble; prediction averages the
restricted-softmax fraud probability over ensemble members and reports the
spread of its empirical 5%/95% quantiles as the per-sample uncertainty.
The chains of an epoch and the members of a prediction are each mapped
over a pool of threads, and neither result depends on the pool's size.
A fake batch travels as a `losses.FakeBatch`, the generator's hidden layer
and its `gen.out` parameters, and the losses pick the order its products
run in.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (
    ConfigError, DataError, Kind, TrainConfig, admit, committing, derive_rng, naming, parsing,
    read_at, read_json,
)
from .features import FeatureRows
from .losses import FakeBatch, discriminator_loss, generator_loss
from .nnet import DiscriminatorNet, GeneratorNet, restricted_softmax
from .sghmc import AdamState, GlorotPrior, adam_sghmc_step

__all__ = [
    "PreparedData",
    "EnsembleMember",
    "TrainResult",
    "Prediction",
    "DivergedChainError",
    "build_nets",
    "run_fingerprint",
    "train",
    "predict",
    "save_checkpoint",
    "load_checkpoint",
    "load_members",
]


# Trace terms of a critic chain, in the order of its rows per epoch.
_CRITIC_TERMS = ("unlabeled", "labeled", "penalty", "total")
_TRACE_HEADER = b"epoch,kind,chain,term,value\n"
PREDICT_BATCH = 8192  # rows `predict` scores at once, over all its threads
# Members `predict` scores at once.  Each scores its rows in chunks of
# ceil(min(rows, PREDICT_BATCH) / _PREDICT_THREADS): OpenBLAS may round a row
# differently in a GEMM of another height, so the chunk cannot follow the
# thread count, and the thread count is capped by it to keep the batch bound.
_PREDICT_THREADS = 2


class DivergedChainError(RuntimeError):
    """A chain produced a non-finite loss or gradient."""

    def __init__(self, epoch: int, chain: str, trace_tail: list):
        self.epoch = epoch
        self.chain = chain
        self.trace_tail = trace_tail
        super().__init__(
            f"chain {chain} diverged at epoch {epoch}; last trace rows: {trace_tail[-5:]}"
        )


@dataclass
class PreparedData:
    """Training-ready data for one experiment cell.

    `feats` is an (n, d) matrix or a row source such as
    `features.FeatureRows`: anything with a `shape` whose `feats[rows]`, for
    an index array `rows`, is the matrix of those rows.  `train` reads the
    labeled rows from it once and holds them, and every other row only in
    the minibatch it is drawn for.  labels hold the true class for every row
    (0 legit, 1 fraud); rows outside `labeled_idx` are treated as unlabeled
    during training and their labels are only ever used by evaluation code.
    `feature_key` is the key of the prepared features the rows were read
    from (the `features` entry of `splits.json`), recorded in the checkpoint
    fingerprint.
    """

    feats: np.ndarray | FeatureRows
    codes: np.ndarray
    labels: np.ndarray
    labeled_idx: np.ndarray
    emb_cards: tuple[int, ...]
    feature_key: dict | None = None

    def __post_init__(self):
        n = self.feats.shape[0]
        if self.codes.shape[0] != n or self.labels.shape[0] != n:
            raise ValueError("feats, codes and labels must have equal row counts")
        if self.labeled_idx.size == 0:
            raise ValueError("at least one labeled sample is required")


@dataclass
class EnsembleMember:
    chain: int
    epoch: int
    params: list


@dataclass
class TrainResult:
    members: Sequence[EnsembleMember]  # discriminator posterior ensemble


@dataclass
class Prediction:
    """Posterior-averaged fraud probabilities with the widths of their
    uncertainty intervals."""

    mean: np.ndarray
    width: np.ndarray


def build_nets(feat_dim: int, emb_cards: tuple[int, ...], cfg: TrainConfig):
    gen = GeneratorNet(
        cfg.latent_dim, emb_cards, feat_dim, width=cfg.width, n_residual=cfg.n_residual
    )
    disc = DiscriminatorNet(
        feat_dim,
        emb_cards,
        n_classes=2,
        width=cfg.width,
        n_residual=cfg.n_residual,
        head_widths=cfg.head_widths,
    )
    return gen, disc


class _LabeledCycle:
    """Without-replacement cycling sampler over the labeled indices."""

    def __init__(self, idx: np.ndarray, rng: np.random.Generator):
        self.idx = np.asarray(idx)
        self.rng = rng
        self.perm = self.rng.permutation(self.idx)
        self.pos = 0

    def take(self, k: int) -> np.ndarray:
        k = min(k, self.idx.size)
        out = []
        while k > 0:
            avail = self.perm.size - self.pos
            if avail == 0:
                self.perm = self.rng.permutation(self.idx)
                self.pos = 0
                continue
            step = min(k, avail)
            out.append(self.perm[self.pos : self.pos + step])
            self.pos += step
            k -= step
        return np.concatenate(out)

    def state(self) -> dict:
        return {"perm": self.perm.tolist(), "pos": self.pos}

    def restore(self, state: dict) -> None:
        """A `perm` that is not a permutation of the indices, or a `pos`
        outside it, is a ValueError."""
        perm = np.asarray(state["perm"], dtype=self.idx.dtype)
        if not np.array_equal(np.sort(perm), np.sort(self.idx)):
            raise ValueError("cycle.perm is not a permutation of the labeled indices")
        self.pos = admit("cycle.pos", state["pos"], Kind(int, f"[0, {perm.size}]"))
        self.perm = perm


class _Chain:
    """One sampler chain: parameters plus adaptive-moment state and RNG."""

    def __init__(self, params, lr: float, rng: np.random.Generator):
        self.params = params
        self.lr = lr
        self.rng = rng
        self.adam = AdamState.for_params(params)

    def step(self, direction, cfg: TrainConfig) -> None:
        self.params, self.adam = adam_sghmc_step(
            self.params, direction, self.adam, self.lr, cfg.friction, self.rng
        )


def run_fingerprint(
    cfg: TrainConfig, rows: int, n_cols: int, emb_cards, labeled_idx, feature_key
) -> dict:
    """What a checkpoint must have been written with to be resumed or
    scored: every sampler setting except the run length and the checkpoint
    interval, the train split's shape `rows` x `n_cols` and embedding
    cardinalities, a digest of the labeled positions `labeled_idx` in that
    split and the prepared feature key (the `features` entry of
    splits.json), in JSON form."""
    fp = dataclasses.asdict(cfg)
    del fp["epochs"], fp["checkpoint_every"]
    labeled = np.asarray(labeled_idx, dtype="<i8").tobytes()
    fp.update(
        rows=rows,
        feat_dim=n_cols,
        emb_cards=list(emb_cards),
        labeled_sha256=hashlib.sha256(labeled).hexdigest(),
        feature_key=feature_key,
    )
    return json.loads(json.dumps(fp))


def _check_schedule(checkpoint_dir, cfg: TrainConfig, epoch: int, keys: list) -> None:
    """A checkpoint resumes only into its own member schedule, which follows
    `epochs` (left out of the fingerprint) when `burn_in` is null; `keys` are
    the (chain, epoch) of its members."""
    if epoch > cfg.epochs or keys != cfg.member_keys(epoch):
        raise ConfigError(
            f"checkpoint {checkpoint_dir}, at epoch {epoch} with members of epochs "
            f"{sorted({e for _, e in keys})}, was written under another member "
            f"schedule than epochs {cfg.epochs}, burn_in {cfg.burn_in_epochs()}, thinning "
            f"{cfg.thinning}; resume with the epochs it was written with"
        )


def _finite(value, grads) -> bool:
    return bool(np.isfinite(value)) and all(np.all(np.isfinite(g)) for g in grads)


def _direction(grads, params, prior: GlorotPrior, prior_w: float):
    """The sampler's direction -(grads + prior_w * prior gradient), formed in
    the `grads` arrays."""
    for a, b in zip(grads, prior.neg_log_grad(params)):
        a += prior_w * b
        np.negative(a, out=a)
    return grads


class _Lazy:
    """`fn` of each of `items`, in order, each made when it is read; sized."""

    def __init__(self, fn, items):
        self.fn, self.items = fn, items

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return map(self.fn, self.items)


# ---------------------------------------------------------------------------
# Chain threads.  Within an epoch the generator chains read only critic
# parameters and the critic chains only generator parameters, so each phase
# maps its chains over a thread pool (numpy releases the GIL in GEMMs and
# ufuncs).  Each chain draws only from its own RNG, the labeled batches are
# drawn up front in chain order, and the main thread writes trace rows in
# chain order, so results do not depend on the number of threads.  `predict`
# maps the ensemble members over the same pool, each into its own row.
# ---------------------------------------------------------------------------

_M_ARENA_MAX = -8  # mallopt parameter of glibc's <malloc.h>


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy has loaded, or
    None when there is none to find (another BLAS, or no /proc/self/maps).
    numpy's wheels bundle it as scipy_openblas, older ones as openblas, with
    or without the 64_ suffix of its 64-bit-integer build."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("64_", "")):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                return get, put
    return None


def _one_malloc_arena() -> None:
    """Keep glibc's allocator to one arena for the rest of the process.  By
    default every thread that allocates gets an arena of its own, which keeps
    the freed temporaries of its chains resident beside the others'."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_ARENA_MAX, 1)


@contextmanager
def _one_blas_thread():
    """OpenBLAS pinned to one thread for the `with` block, and its thread
    count restored after."""
    blas = _openblas_threads()
    saved = blas[0]() if blas else None
    try:
        if blas:
            blas[1](1)
        yield
    finally:
        if blas:
            blas[1](saved)


@contextmanager
def _chain_pool(n_tasks: int):
    """A pool of min(usable CPUs, `n_tasks`) threads, with OpenBLAS pinned to
    one thread while it is open: pool threads times BLAS threads would
    oversubscribe the cores, and one BLAS thread makes every GEMM of a run,
    of its resume and of a prediction the same whatever the environment asks
    for."""
    _one_malloc_arena()
    with _one_blas_thread(), ThreadPoolExecutor(min(_usable_cpus(), n_tasks)) as pool:
        yield pool


def train(
    data: PreparedData,
    cfg: TrainConfig,
    seed: int,
    checkpoint_dir: str | Path,
    resume: bool = False,
    epoch_callback=None,
) -> TrainResult:
    """Run the full adversarial sampling loop for one experiment cell.

    Within an epoch the generator chains, then the discriminator chains,
    step in parallel on min(usable CPUs, chains) threads, with OpenBLAS at
    one thread; results do not depend on either count.

    Args:
        data: features, condition codes, labels and the labeled-index set.
        cfg: hyperparameters, validated here.
        seed: cell seed; all chain and sampling randomness derives from it.
        checkpoint_dir: members are appended to its members.bin when they
            are collected, and loss-trace rows to its trace.csv each epoch;
            the rest of the state is saved there every
            `cfg.checkpoint_every` epochs (and at the end).
        resume: continue from the checkpoint in `checkpoint_dir`.
        epoch_callback: optional fn(epoch, disc_param_lists, gen_param_lists)
            invoked after every epoch; the last call sees the final chains.

    Returns:
        TrainResult with the posterior ensemble, read from members.bin one
        member per access.
    """
    cfg.validate()
    gen, disc = build_nets(data.feats.shape[1], data.emb_cards, cfg)
    gen_prior = GlorotPrior.for_specs(gen.param_specs)
    disc_prior = GlorotPrior.for_specs(disc.param_specs)

    gen_chains = [
        _Chain(gen.init_params(derive_rng(seed, 1, j)), cfg.lr_g, derive_rng(seed, 3, j))
        for j in range(cfg.chains_g)
    ]
    disc_chains = [
        _Chain(disc.init_params(derive_rng(seed, 2, j)), cfg.lr_d, derive_rng(seed, 4, j))
        for j in range(cfg.chains_d)
    ]
    cycle = _LabeledCycle(data.labeled_idx, derive_rng(seed, 0))
    keys: list[tuple[int, int]] = []  # (chain, epoch) of every member
    start_epoch = 0
    fingerprint = run_fingerprint(
        cfg, *data.feats.shape, data.emb_cards, data.labeled_idx, data.feature_key
    )

    out = Path(checkpoint_dir)
    if resume:
        start_epoch, streams = load_checkpoint(
            out, gen_chains, disc_chains, cycle, keys, fingerprint
        )
        _check_schedule(out, cfg, start_epoch, keys)
        for name, size in streams.items():
            with open(out / name, "ab") as f:
                f.truncate(size)
    else:  # a checkpoint left here is another run's
        out.mkdir(parents=True, exist_ok=True)
        (out / "state.json").unlink(missing_ok=True)
        for name, start in _STREAMS.items():
            (out / name).write_bytes(start)
    members = _MemberFile(out, [p.shape for p in disc_chains[0].params], keys)

    n_rows = data.feats.shape[0]
    batch = min(cfg.batch, n_rows)
    all_idx = np.arange(n_rows)
    # The labeled rows are held; a real batch is read from `data.feats`.
    labeled = np.unique(data.labeled_idx)
    labeled_feats = data.feats[labeled]
    # Losses are minibatch means (1/N of the log-likelihood sum), so the
    # prior must enter at the same per-sample weight or it swamps the data.
    prior_w = 1.0 / n_rows

    def generator_step(chain):
        """Step a generator chain along the critic response summed over all
        discriminator chains; returns its loss, or None if it diverged."""
        z = chain.rng.standard_normal((batch, cfg.latent_dim))
        codes = data.codes[chain.rng.choice(all_idx, size=batch, replace=True)]
        hidden, gcache = gen.hidden_forward(chain.params, z, codes)
        loss, d_hidden, out_grads = generator_loss(
            disc, [c.params for c in disc_chains],
            FakeBatch(hidden, *gen.out_params(chain.params), codes),
        )
        grads = gen.hidden_backward(chain.params, gcache, d_hidden, out_grads)
        direction = _direction(grads, chain.params, gen_prior, prior_w)
        if not _finite(loss, direction):
            return None
        chain.step(direction, cfg)
        return loss

    def critic_step(chain, lab_batches):
        """`n_critic` steps of a discriminator chain, one per labeled batch,
        with a fake batch from every generator chain; returns the mean of
        each of `_CRITIC_TERMS`, or None if it diverged."""

        def fake(gchain):
            z = chain.rng.standard_normal((batch, cfg.latent_dim))
            codes = data.codes[chain.rng.choice(all_idx, size=batch, replace=True)]
            hidden = gen.hidden(gchain.params, z, codes)
            return FakeBatch(hidden, *gen.out_params(gchain.params), codes,
                             chain.rng.uniform(size=batch))

        sums = [0.0] * len(_CRITIC_TERMS)
        for lab_rows in lab_batches:
            real_rows = chain.rng.choice(all_idx, size=batch, replace=False)
            parts, total, grads = discriminator_loss(
                disc, chain.params, data.feats[real_rows], data.codes[real_rows],
                _Lazy(fake, gen_chains), None,
                labeled_feats[np.searchsorted(labeled, lab_rows)], data.codes[lab_rows],
                data.labels[lab_rows] + 1, None, cfg.lam, cfg.gp_weight,
            )
            direction = _direction(grads, chain.params, disc_prior, prior_w)
            if not _finite(total, direction):
                return None
            chain.step(direction, cfg)
            terms = (parts.unlabeled, parts.labeled, parts.penalty, total)
            sums = [a + b for a, b in zip(sums, terms)]
        return [a / cfg.n_critic for a in sums]

    with _chain_pool(max(cfg.chains_g, cfg.chains_d)) as pool:
        for epoch in range(start_epoch + 1, cfg.epochs + 1):
            rows = []  # this epoch's trace rows (epoch, kind, chain, term, value)
            for j, loss in enumerate(pool.map(generator_step, gen_chains)):
                if loss is None:
                    raise DivergedChainError(epoch, f"gen{j}", rows)
                rows.append((epoch, "gen", j, "loss", loss))

            lab_batches = [[cycle.take(batch) for _ in range(cfg.n_critic)] for _ in disc_chains]
            for j, means in enumerate(pool.map(critic_step, disc_chains, lab_batches)):
                if means is None:
                    raise DivergedChainError(epoch, f"disc{j}", rows)
                for term, value in zip(_CRITIC_TERMS, means):
                    rows.append((epoch, "disc", j, term, value))
            text = "".join(f"{e},{k},{c},{t},{float(v)!r}\n" for e, k, c, t, v in rows)
            with naming(out / "trace.csv"), open(out / "trace.csv", "ab") as f:
                f.write(text.encode())

            if cfg.collects(epoch):
                keys += [(j, epoch) for j in range(cfg.chains_d)]
                with naming(out / "members.bin"), open(out / "members.bin", "ab") as f:
                    for chain in disc_chains:
                        _write(f, chain.params)

            if epoch_callback is not None:
                epoch_callback(
                    epoch, [c.params for c in disc_chains], [c.params for c in gen_chains]
                )
            if (cfg.checkpoint_every and epoch % cfg.checkpoint_every == 0) or epoch == cfg.epochs:
                save_checkpoint(out, epoch, gen_chains, disc_chains, cycle, keys, fingerprint)

    return TrainResult(members=members)


def predict(
    disc: DiscriminatorNet,
    members: Sequence[EnsembleMember],
    feats: np.ndarray,
    codes: np.ndarray,
) -> Prediction:
    """Posterior-mean fraud probability and the width of its 5%-95% interval
    per sample.

    The fraud probability of one member is the restricted-softmax mass on the
    fraud class; quantiles over members use linear interpolation.  The
    members are mapped over min(usable CPUs, members, `_PREDICT_THREADS`)
    threads, with OpenBLAS at one thread.  Each thread reads its own member
    and scores it through the cache-free `output` pass, in chunks of
    ceil(min(rows, `PREDICT_BATCH`) / `_PREDICT_THREADS`) rows, so all threads
    together hold no more rows than `PREDICT_BATCH`.  The chunks are the same
    whatever the thread count, and so are the results.
    """
    if not members:
        raise ValueError("posterior ensemble is empty")
    n = feats.shape[0]
    probs = np.empty((len(members), n))
    step = max(1, -(-min(n, PREDICT_BATCH) // _PREDICT_THREADS))

    def score(i):
        params = members[i].params
        for lo in range(0, n, step):
            scores = disc.output(params, feats[lo : lo + step], codes[lo : lo + step])
            probs[i, lo : lo + step] = restricted_softmax(scores)[:, 1]

    with _chain_pool(min(len(members), _PREDICT_THREADS)) as pool:
        list(pool.map(score, range(len(members))))
    q05, q95 = np.quantile(probs, [0.05, 0.95], axis=0)
    return Prediction(mean=probs.mean(axis=0), width=q95 - q05)


# ---------------------------------------------------------------------------
# Checkpointing.  A checkpoint directory holds four files:
#   members.bin         every ensemble member's tensors in collection order,
#                       one fixed-size little-endian float64 record each;
#   trace.csv           the loss trace, a header and then each epoch's rows;
#   chains-<epoch>.bin  every chain's params, adam m and adam v, generator
#                       chains first, in the same format as members.bin;
#   state.json          counters, RNG states, the member list, the committed
#                       length of each stream, the fingerprint of the settings
#                       and data, the chains file and both networks' shapes.
# The streams (`_STREAMS`) are append-only: `train` starts each with its
# start bytes, or on a resume cuts each to the length state.json commits (a
# tail past it is of epochs not yet committed), and appends each member when
# it is collected and each epoch's trace rows.  A save writes a fresh chains
# file and commits state.json (config.committing).  That rename is the commit
# point: before it every file the old state.json names is intact, and only
# after it is the old chains file deleted.  A state.json that
# config.read_json or `_read_state` refuses, or a stream shorter than its
# committed length, is a DataError naming it, in `train --resume` and
# `evaluate` alike; a checkpoint of another network shape or member
# schedule, or of an older version (no chain_state or no streams entry), a
# ConfigError.
# ---------------------------------------------------------------------------

# Each stream with the bytes a fresh one starts with.
_STREAMS = {"members.bin": b"", "trace.csv": _TRACE_HEADER}
# Entries of every state.json, of this layout and of older ones.
_STATE_KEYS = ("epoch", "fingerprint", "data_rng", "cycle", "gen_chains", "disc_chains", "members")
# The Kind of each counter in state.json and its chain and member entries.
_COUNTERS = {
    "epoch": Kind(int, "[1, inf)"),
    "chain": Kind(int, "[0, inf)"),
    "adam_t": Kind(int, "[0, inf)"),
}


def _counter(entry: dict, name: str) -> int:
    return admit(name, entry[name], _COUNTERS[name])


def _write(f, tensors) -> None:
    for t in tensors:
        f.write(np.ascontiguousarray(t, dtype="<f8"))


def _chain_entry(chain: _Chain) -> dict:
    return {"rng": chain.rng.bit_generator.state, "adam_t": chain.adam.t}


def save_checkpoint(checkpoint_dir, epoch, gen_chains, disc_chains, cycle, keys, fingerprint):
    """Commit a checkpoint of the state after `epoch`: its members, of the
    (chain, epoch) `keys`, are in members.bin, and its trace fills trace.csv."""
    out = Path(checkpoint_dir)
    chains = f"chains-{epoch}.bin"
    with naming(out / chains), open(out / chains, "wb") as f:
        for c in (*gen_chains, *disc_chains):
            for tensors in (c.params, c.adam.m, c.adam.v):
                _write(f, tensors)
    state = {
        "epoch": epoch,
        "fingerprint": fingerprint,
        "data_rng": cycle.rng.bit_generator.state,
        "cycle": cycle.state(),
        "chain_state": chains,
        "gen_shapes": [list(p.shape) for p in gen_chains[0].params],
        "disc_shapes": [list(p.shape) for p in disc_chains[0].params],
        "gen_chains": [_chain_entry(c) for c in gen_chains],
        "disc_chains": [_chain_entry(c) for c in disc_chains],
        "members": [{"chain": chain, "epoch": e} for chain, e in keys],
        "streams": {name: (out / name).stat().st_size for name in _STREAMS},
    }
    with committing(out / "state.json") as tmp:
        tmp.write_text(json.dumps(state))
    _drop_chains_but(out, chains)


def _drop_chains_but(in_dir: Path, keep: str) -> None:
    for path in in_dir.glob("chains-*.bin"):
        if path.name != keep:
            path.unlink()


def _read_state(in_dir: Path) -> dict:
    """state.json, whose `streams` commit a length, at least its start bytes,
    of each stream, which the stream holds; one without chain_state or
    streams is an older version's."""
    state = read_json(in_dir / "state.json", _STATE_KEYS)
    if not all(k in state for k in ("chain_state", "streams")):
        raise ConfigError(
            f"checkpoint {in_dir} was written by an older version of fraudsig; "
            f"train the cell again without --resume"
        )
    with parsing(in_dir / "state.json"):
        state["streams"] = {
            name: admit(f"streams[{name!r}]", state["streams"][name],
                        Kind(int, f"[{len(start)}, inf)"))
            for name, start in _STREAMS.items()
        }
    for name, size in state["streams"].items():
        held = (in_dir / name).stat().st_size
        if held < size:
            raise DataError(f"checkpoint {in_dir}: {name} holds {held} of {size} bytes")
    return state


def _check_shapes(in_dir: Path, state: dict, key: str, shapes: list) -> None:
    with parsing(in_dir / "state.json"):
        got = [tuple(s) for s in state[key]]
    if got != [tuple(s) for s in shapes]:
        raise ConfigError(
            f"checkpoint {in_dir}: {key} records parameter shapes {got}; "
            f"the configured network has {shapes}"
        )


def _views(in_dir: Path, name: str, shapes: list, offset: int = 0) -> list[np.ndarray]:
    """Consecutive tensors of `shapes`, as views of the checkpoint file `name`
    from byte `offset` on; a file that ends before they do is a DataError."""
    sizes = [math.prod(s) for s in shapes]
    flat = np.empty(sum(sizes), dtype="<f8")
    with open(in_dir / name, "rb", buffering=0) as fh:
        read_at(
            fh, flat, offset,
            lambda got: f"checkpoint {in_dir}: {name} holds {got // 8} values from byte "
            f"{offset}; state.json needs {flat.size}",
        )
    ends = np.cumsum(sizes)
    return [flat[e - n : e].reshape(s) for e, n, s in zip(ends, sizes, shapes)]


class _MemberFile:
    """The members of the (chain, epoch) `keys`, in order, read from the
    checkpoint's members.bin one record per access; sized and indexable."""

    def __init__(self, in_dir: Path, shapes: list, keys: list):
        self.in_dir, self.shapes, self.keys = in_dir, shapes, keys
        self.record = sum(math.prod(s) for s in shapes) * 8

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i: int) -> EnsembleMember:
        chain, epoch = self.keys[i]
        offset = range(len(self.keys))[i] * self.record
        params = _views(self.in_dir, "members.bin", self.shapes, offset)
        return EnsembleMember(chain, epoch, params)

    def __iter__(self):
        return map(self.__getitem__, range(len(self.keys)))


def _members(in_dir: Path, state: dict, shapes: list) -> _MemberFile:
    """The ensemble state.json lists, whose records fill members.bin's
    committed length."""
    _check_shapes(in_dir, state, "disc_shapes", shapes)
    with parsing(in_dir / "state.json"):
        keys = [(_counter(m, "chain"), _counter(m, "epoch")) for m in state["members"]]
        members = _MemberFile(in_dir, list(shapes), keys)
        if state["streams"]["members.bin"] != len(keys) * members.record:
            raise ValueError(f"streams do not commit {len(keys)} members of {members.record} bytes")
    return members


def _check_fingerprint(in_dir: Path, state: dict, fingerprint: dict) -> None:
    """A stored fingerprint that differs from `fingerprint` on one of its
    keys is a ConfigError naming the checkpoint and those keys (keys only
    the checkpoint holds, such as older versions' `optimizer`, are not
    compared)."""
    with parsing(in_dir / "state.json"):
        saved_fp = state["fingerprint"]
        diff = [
            f"{k}: {saved_fp.get(k)!r} -> {v!r}"
            for k, v in sorted(fingerprint.items())
            if saved_fp.get(k) != v
        ]
    if diff:
        raise ConfigError(
            f"checkpoint {in_dir} was written with other sampler settings or data; "
            f"differing keys (checkpoint -> now): {'; '.join(diff)}"
        )


def load_members(checkpoint_dir, shapes: list, fingerprint: dict) -> _MemberFile:
    """The discriminator posterior ensemble stored in a checkpoint, read one
    member per access, with the (chain, epoch) `keys` state.json lists.  A
    checkpoint of another `fingerprint` (see `_check_fingerprint`) or of
    other parameter shapes than `shapes`, the configured network's, is a
    ConfigError naming it, and a members.bin too short to hold every member
    state.json lists, checked here (see `_read_state`) and at each read, a
    DataError."""
    in_dir = Path(checkpoint_dir)
    state = _read_state(in_dir)
    _check_fingerprint(in_dir, state, fingerprint)
    return _members(in_dir, state, shapes)


def load_checkpoint(checkpoint_dir, gen_chains, disc_chains, cycle, keys, fingerprint):
    """Restore training state in place, and the (chain, epoch) of each member
    into `keys`; returns the checkpointed epoch and each stream's committed
    length.

    A checkpoint of another `fingerprint` is a ConfigError (see
    `_check_fingerprint`).  An entry refused by `_COUNTERS` or the checks
    below is a DataError naming state.json, and a stream shorter than its
    committed length one naming it.  A chains file that the state does not
    name, left by a crash after the commit, is deleted."""
    in_dir = Path(checkpoint_dir)
    state = _read_state(in_dir)
    _check_fingerprint(in_dir, state, fingerprint)
    chains = [*gen_chains, *disc_chains]
    shapes = [[p.shape for p in c.params] for c in chains]
    _check_shapes(in_dir, state, "gen_shapes", shapes[0])
    keys[:] = _members(in_dir, state, shapes[-1]).keys
    with parsing(in_dir / "state.json"):
        epoch = _counter(state, "epoch")
        if state["chain_state"] != f"chains-{epoch}.bin":
            raise ValueError(f"chain_state {state['chain_state']!r} is not chains-{epoch}.bin")
        tensors = iter(_views(in_dir, state["chain_state"], [s for c in shapes for s in c * 3]))
        entries = state["gen_chains"] + state["disc_chains"]
        want = [len(gen_chains), len(disc_chains)]
        if [len(state["gen_chains"]), len(state["disc_chains"])] != want:
            raise ValueError(f"gen_chains and disc_chains do not hold {want} chain entries")
        for chain, entry, s in zip(chains, entries, shapes):
            chain.params, chain.adam.m, chain.adam.v = (
                [next(tensors) for _ in s] for _ in range(3)
            )
            chain.rng.bit_generator.state = entry["rng"]
            chain.adam.t = _counter(entry, "adam_t")
        cycle.rng.bit_generator.state = state["data_rng"]
        cycle.restore(state["cycle"])
    _drop_chains_but(in_dir, state["chain_state"])
    return epoch, state["streams"]

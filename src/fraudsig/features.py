"""Log-signature feature store with an incremental prefix encoder.

Encoding every prefix of a customer independently costs quadratic work in
the series length, so the store exploits two exact algebraic facts instead:

* the augmented path of a prefix differs from the next prefix's only in its
  normalised time channel and three terminal decoration points, so a running
  signature over the shared lead-lag body (with *unnormalised* time) can be
  finalised per prefix with two extra segment products;
* scaling a path channel by a constant multiplies every log-signature
  coordinate by that constant raised to the number of letters of the word
  lying in that channel, so time normalisation (per prefix) and the
  train-split amount/step scaling (per experiment) are exact diagonal
  rescalings of the cached coordinates.

The encoder walks a customer's steps in blocks of ``_BLOCK``: the segment
products of a block are formed as one batch of series (trailing batch axis,
see :class:`~fraudsig.signatures.TensorSeries`) and folded into the running
signature level by level, one running sum per signature level over the
block's steps (:func:`~fraudsig.signatures.chen_prefix_products`, bitwise
the step-by-step Chen fold); the prefixes ending in the block are then
finalised together (terminal decorations, tensor log, Lyndon projection,
time rescale).
The block bounds the temporaries whatever the customer's length.  Every series
the encoder forms holds its top level only at the length-M Lyndon positions
(``LyndonBasis.top``), the only ones the projection reads: at degree 4 the
running state is 988 floats instead of 2,801, and the rows are bit-identical
to those of the full-level computation.

Cached vectors are therefore time-normalised but unscaled in the two value
channels, making the on-disk cache a pure function of its key (dataset, kept
customers, degree, augmentation scheme, minimum prefix; see
:func:`store_key`); the split-dependent scaling happens at load time.  A cache
entry is one flat little-endian float64 matrix, ``features.bin``, plus a JSON
manifest holding the key.

No stage holds the whole matrix.  A cache miss encodes one customer at a time
and appends its rows to the file.  One reader serves every stage: a
:class:`FeatureRows` over a split's file positions reads each requested row
with one positioned read and scales it.  `train` holds none of its split's
rows but the labeled ones and reads each minibatch through it; `evaluate`
and `prepare --dump-encoding` read their rows through it at once.
:func:`~fraudsig.config.read_at` finishes a short read or refuses the file.
``FeatureStore.matrix`` is a read-only memory map of the file, for the
benchmark's encoder check and the tests only: a file cut short under a live
mapping faults the reading process, whereas the reader raises a DataError
naming the file.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .banksim import SampleSet
from .config import DataError, committing, read_at, read_json
from .lyndon import LyndonBasis, lyndon_dim
from .signatures import (
    TensorSeries,
    augmented_dim,
    chen_prefix_products,
    chen_product,
    lyndon_project,
    segment_signature,
    tensor_log,
)

__all__ = [
    "SCHEME_VERSION",
    "FeatureStore",
    "FeatureRows",
    "dataset_fingerprint",
    "encode_prefixes",
    "build_feature_store",
    "store_key",
    "scale_matrix",
    "scale_vector",
]

SCHEME_VERSION = 1

# Augmented channel layout for d=2 raw channels (step difference, amount):
# [lead t, lead sd, lead amt, lag t, lag sd, lag amt, visibility].
_D_AUG = augmented_dim(2)
_TIME_CHANNELS = (0, 3)
_SD_CHANNELS = (1, 4)
_AMT_CHANNELS = (2, 5)
_VIS_CHANNEL = 6
# Steps per batch of segment products, level folds and prefix finalisations;
# bounds the temporaries to a few MiB whatever the customer's length.
_BLOCK = 32


def dataset_fingerprint(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def encode_prefixes(
    step_diffs: np.ndarray,
    amounts: np.ndarray,
    degree: int,
    basis: LyndonBasis,
    min_prefix: int = 5,
) -> np.ndarray:
    """Log-signature coordinates of every prefix of one customer.

    Args:
        step_diffs, amounts: unscaled per-transaction feature values; the
            first step difference must already be 0 by convention.
        degree: truncation degree.
        basis: Lyndon basis over the 7 augmented channels.
        min_prefix: shortest encoded prefix (>= 2).

    Returns:
        (n_prefixes, basis.dim) matrix, one row per prefix length
        min_prefix..T in order; rows are time-normalised but keep the raw
        value scales.
    """
    if basis.alphabet_size != _D_AUG or basis.degree != degree:
        raise ValueError(
            f"basis (D={basis.alphabet_size}, M={basis.degree}) does not match "
            f"(D={_D_AUG}, M={degree})"
        )
    if min_prefix < 2:
        raise ValueError(f"min_prefix must be >= 2, got {min_prefix}")
    sd = np.asarray(step_diffs, dtype=np.float64)
    amt = np.asarray(amounts, dtype=np.float64)
    T = sd.size
    if amt.size != T:
        raise ValueError("step_diffs and amounts must have equal length")
    n_out = max(0, T - min_prefix + 1)
    out = np.empty((n_out, basis.dim))
    if n_out == 0:
        return out

    time_counts = basis.letter_counts[:, _TIME_CHANNELS].sum(axis=1)
    vis_on = np.zeros(_D_AUG)
    vis_on[_VIS_CHANNEL] = 1.0
    top = basis.top
    # Running signature over [prepended start point, lead-lag body] with
    # unnormalised time; the first increment only switches visibility on.
    running = segment_signature(vis_on, degree, top)
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
        steps = chen_product(
            segment_signature(lead, degree, top), segment_signature(lag, degree, top)
        )
        # The running signature after every step of the block, folded in
        # level by level; the last one carries over to the next block.
        states = chen_prefix_products(running, steps)
        running = TensorSeries(_D_AUG, degree, [lvl[:, -1] for lvl in states.levels], top)
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
        ending = TensorSeries(_D_AUG, degree, [lvl[:, first:] for lvl in states.levels], top)
        tail = chen_product(
            ending,
            chen_product(
                segment_signature(off, degree, top), segment_signature(drop, degree, top)
            ),
        )
        coords = lyndon_project(tensor_log(tail), basis)
        coords *= (1.0 / (n - 1.0))[None, :] ** time_counts[:, None]
        out[row : row + kend.size] = coords.T
        row += kend.size
    return out


def scale_vector(basis: LyndonBasis, max_sd: float, max_amt: float) -> np.ndarray:
    """Per-coordinate factors turning unscaled cached vectors into the
    vectors of the path with both value channels divided by their maxima."""
    sd_counts = basis.letter_counts[:, _SD_CHANNELS].sum(axis=1)
    amt_counts = basis.letter_counts[:, _AMT_CHANNELS].sum(axis=1)
    s_sd = 1.0 / max_sd if max_sd > 0 else 1.0
    s_amt = 1.0 / max_amt if max_amt > 0 else 1.0
    return s_sd**sd_counts * s_amt**amt_counts


def scale_matrix(
    matrix: np.ndarray, basis: LyndonBasis, max_sd: float, max_amt: float
) -> np.ndarray:
    return matrix * scale_vector(basis, max_sd, max_amt)[None, :]


@dataclass
class FeatureStore:
    """Cached unscaled feature matrix, row-aligned with a SampleSet; its
    shape is the manifest's `n_rows` by `n_cols`.

    `matrix` is a read-only memory map of `path`, for the benchmark's
    encoder check and the tests; no stage reads it.  Stages read rows
    through a `FeatureRows`, which never maps the file.
    """

    path: Path
    matrix: np.ndarray
    basis: LyndonBasis
    manifest: dict


class FeatureRows:
    """The rows of a feature file at the file positions `positions`, scaled
    by `scale` and read from the file at each request: `source[rows]`, for an
    index array `rows` into `positions` or a slice (`source[:]` is every
    row), is an in-memory matrix of those rows.  It sorts their positions,
    reads each row into its place with one positioned read, and multiplies
    by `scale`, one product per element.

    The shape is (len(positions), the manifest's `n_cols`), and positions lie
    in [0, the manifest's `n_rows`).  The file stays open from construction
    to `close`, or to the end of a `with` block: a file replaced by a rename
    meanwhile does not change the rows.  It is never memory-mapped, and a
    file cut short is a DataError naming it.  Threads may read at once.
    """

    def __init__(self, path: str | Path, manifest: dict, positions, scale: np.ndarray):
        self.path = Path(path)
        at = np.asarray(positions, dtype=np.int64)
        self._n_rows = n_rows = manifest["n_rows"]
        if at.size and not 0 <= at.min() <= at.max() < n_rows:
            raise ValueError(f"row positions must lie in [0, {n_rows})")
        self.shape = (at.size, manifest["n_cols"])
        self._row_bytes = 8 * manifest["n_cols"]
        self._offsets = at * self._row_bytes  # each row's byte offset in the file
        self._scale = scale
        self._file = open(self.path, "rb", buffering=0)

    def __getitem__(self, rows) -> np.ndarray:
        offsets, row_bytes = self._offsets[rows], self._row_bytes
        out = np.empty((offsets.size, self.shape[1]), dtype="<f8")
        view = memoryview(out.reshape(-1).view(np.uint8))
        order = np.argsort(offsets, kind="stable")
        fd = self._file.fileno()
        for i, p in zip((order * row_bytes).tolist(), offsets[order].tolist()):
            row = view[i : i + row_bytes]
            got = os.preadv(fd, [row], p)
            if got < row_bytes:  # read_at finishes the row or refuses the file
                read_at(
                    self._file, row[got:], p + got,
                    lambda _: f"{self.path} is cut short: row {p // row_bytes} of "
                    f"{self._n_rows} cannot be read",
                )
        out *= self._scale
        return out

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "FeatureRows":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def store_key(samples: SampleSet, degree: int, dataset_hash: str, min_prefix: int = 5) -> dict:
    """What a feature cache of `samples` is made from: the dataset hash, the
    degree, augmentation scheme and minimum prefix, the kept customers (a
    digest of their ids, as the JSON list, in sample order) and the matrix
    shape.  Equal keys mean equal rows."""
    ids = json.dumps([cs.customer for cs in samples.customers]).encode()
    return {
        "dataset_sha256": dataset_hash,
        "degree": degree,
        "scheme_version": SCHEME_VERSION,
        "min_prefix": min_prefix,
        "customers_sha256": hashlib.sha256(ids).hexdigest(),
        "n_rows": len(samples),
        "n_cols": lyndon_dim(_D_AUG, degree),
    }


def build_feature_store(
    samples: SampleSet,
    degree: int,
    cache_path: str | Path,
    dataset_hash: str,
    min_prefix: int = 5,
) -> tuple[FeatureStore, bool]:
    """Encode every sample once, or reuse the on-disk cache.

    The cache is valid when its manifest is the `store_key` of these
    arguments and its matrix file is whole; a valid entry is opened without
    touching the encoder.  A miss encodes one customer at a time and appends
    its rows to the file, so only that customer's rows are held.

    Returns:
        (store, cache_hit); the store's manifest is the key.
    """
    cache_path = Path(cache_path)
    basis = LyndonBasis.build(_D_AUG, degree)
    bin_path = cache_path / "features.bin"
    manifest_path = cache_path / "manifest.json"
    key = store_key(samples, degree, dataset_hash, min_prefix)
    shape = (key["n_rows"], key["n_cols"])
    hit = False
    if manifest_path.exists() and bin_path.exists():
        # A cut-short manifest or matrix file is a cache miss, not a crash.
        try:
            manifest = read_json(manifest_path)
        except DataError:
            manifest = {}
        hit = manifest == key and bin_path.stat().st_size == 8 * shape[0] * shape[1]
    if not hit:
        with committing(bin_path) as tmp, open(tmp, "wb") as fh:
            for cs in samples.customers:
                if len(cs) >= min_prefix:
                    coords = encode_prefixes(cs.step_diffs, cs.amounts, degree, basis, min_prefix)
                    coords.astype("<f8", copy=False).tofile(fh)
        with committing(manifest_path) as tmp:
            tmp.write_text(json.dumps(key, indent=1))
    matrix = np.memmap(bin_path, dtype="<f8", mode="r", shape=shape)
    return FeatureStore(bin_path, matrix, basis, key), hit

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fraudsig import features
from fraudsig.banksim import (
    CustomerSeries,
    continuous_path,
    group_customers,
    load_transactions,
    make_samples,
)
from fraudsig.config import DataError
from fraudsig.features import (
    _BLOCK,
    SCHEME_VERSION,
    FeatureRows,
    build_feature_store,
    dataset_fingerprint,
    encode_prefixes,
    scale_matrix,
    scale_vector,
)
from fraudsig.lyndon import LyndonBasis
from fraudsig.signatures import encode
from fraudsig.synthdata import SynthSpec, generate

from oracles import encode_prefixes_reference


def _customer(rng, n, name="C"):
    steps = np.cumsum(rng.integers(0, 4, size=n)).astype(np.int64)
    return CustomerSeries(
        customer=name,
        steps=steps,
        amounts=rng.uniform(0.5, 80.0, size=n),
        frauds=np.zeros(n, dtype=np.int8),
        ages=["2"] * n,
        genders=["M"] * n,
        categories=["es_food"] * n,
    )


# Customer lengths around the encoder's block edges, at degrees 2-4.
_BLOCK_EDGE_CASES = [
    (d, n) for d in (2, 3, 4) for n in (5, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5, 150)
]
# Every supported degree on a short customer, then the block edges.
_DEGREES_AND_LENGTHS = pytest.mark.parametrize(
    "degree,length",
    [(1, 9), (2, 9), (3, 9), (4, 9), *_BLOCK_EDGE_CASES],
    ids=["1", "2", "3", "4", *(f"{d}-T{n}" for d, n in _BLOCK_EDGE_CASES)],
)


@_DEGREES_AND_LENGTHS
def test_incremental_matches_direct_per_prefix(degree, length, rng):
    basis = LyndonBasis.build(7, degree)
    cs = _customer(rng, length)
    max_sd, max_amt = 3.0, 85.0
    rows = encode_prefixes(cs.step_diffs, cs.amounts, degree, basis, min_prefix=5)
    rows = rows * scale_vector(basis, max_sd, max_amt)[None, :]
    assert rows.shape == (length - 4, basis.dim)
    for k, j in enumerate(range(5, length + 1)):
        direct = encode(continuous_path(cs, j, max_sd, max_amt), degree, basis)
        scale = max(1.0, np.abs(direct).max())
        np.testing.assert_allclose(rows[k], direct, atol=1e-9 * scale)


@_DEGREES_AND_LENGTHS
def test_rows_equal_full_level_reference(degree, length, rng):
    """Restricting the top level to the Lyndon positions changes no bit."""
    basis = LyndonBasis.build(7, degree)
    cs = _customer(rng, length)
    rows = encode_prefixes(cs.step_diffs, cs.amounts, degree, basis)
    want = encode_prefixes_reference(cs.step_diffs, cs.amounts, degree, basis)
    assert np.array_equal(rows, want)


@pytest.mark.parametrize("block", [1, 5, 32, 64])
def test_rows_do_not_depend_on_block_length(block, monkeypatch, rng):
    """The running signature carries from block to block exactly: any block
    length gives the bytes of the default one."""
    customers = [_customer(rng, n) for n in (5, 6, 33, 70)]
    bases = [LyndonBasis.build(7, degree) for degree in (1, 2, 3, 4)]

    def encoded():
        return [
            encode_prefixes(cs.step_diffs, cs.amounts, b.degree, b).tobytes()
            for b in bases
            for cs in customers
        ]

    want = encoded()
    monkeypatch.setattr(features, "_BLOCK", block)
    assert encoded() == want


def test_feature_cache_is_byte_identical_to_reference(tmp_path):
    """features.bin of the small synthetic corpus at degree 4 holds the bytes
    of the full-level reference rows."""
    csv = tmp_path / "corpus.csv"
    generate(csv, SynthSpec.small(), seed=1)
    customers, _ = group_customers(load_transactions(csv))
    samples = make_samples(customers, min_prefix=5)
    store, _ = build_feature_store(samples, 4, tmp_path / "cache", "h", 5)
    basis = store.basis
    want = np.concatenate(
        [
            encode_prefixes_reference(cs.step_diffs, cs.amounts, 4, basis, 5)
            for cs in customers
        ]
    )
    assert want.shape == (len(samples), basis.dim)
    assert (tmp_path / "cache" / "features.bin").read_bytes() == want.astype("<f8").tobytes()


def _encoder_peak_beyond_output(length, basis, rng):
    cs = _customer(rng, length)
    tracemalloc.start()
    try:
        rows = encode_prefixes(cs.step_diffs, cs.amounts, basis.degree, basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - rows.nbytes


def test_encoder_temporaries_do_not_grow_with_length(rng):
    """The encoder works in blocks of prefixes, so what it allocates besides
    its output stays bounded as the customer gets longer."""
    basis = LyndonBasis.build(7, 4)
    short = _encoder_peak_beyond_output(150, basis, rng)
    long = _encoder_peak_beyond_output(600, basis, rng)
    assert long <= 1.5 * short, (short, long)


def test_min_prefix_one_covers_single_transaction(rng):
    basis = LyndonBasis.build(7, 2)
    cs = _customer(rng, 3)
    rows = encode_prefixes(cs.step_diffs, cs.amounts, 2, basis, min_prefix=2)
    assert rows.shape == (2, basis.dim)
    direct = encode(continuous_path(cs, 2, 0.0, 0.0), 2, basis)
    np.testing.assert_allclose(rows[0], direct, atol=1e-10)


def test_scale_vector_is_exact_channel_rescaling(rng):
    """Dividing the value channels of the path by (s_sd, s_amt) multiplies
    each Lyndon coordinate by a per-word monomial; scale_vector is that
    monomial, checked against re-encoding the scaled path."""
    basis = LyndonBasis.build(7, 3)
    cs = _customer(rng, 7)
    unscaled = encode(continuous_path(cs, 7, 0.0, 0.0), 3, basis)
    max_sd, max_amt = 2.5, 60.0
    scaled = encode(continuous_path(cs, 7, max_sd, max_amt), 3, basis)
    np.testing.assert_allclose(
        unscaled * scale_vector(basis, max_sd, max_amt), scaled, atol=1e-10
    )


def test_scale_matrix_handles_degenerate_maxima():
    basis = LyndonBasis.build(7, 2)
    m = np.ones((2, basis.dim))
    np.testing.assert_array_equal(scale_matrix(m, basis, 0.0, 0.0), m)


def _sample_set(rng, n_customers=3):
    customers = [_customer(rng, int(rng.integers(5, 9)), f"C{i}") for i in range(n_customers)]
    return make_samples(customers, min_prefix=5)


def test_store_build_and_cache_hit(tmp_path, rng):
    samples = _sample_set(rng)
    csv = tmp_path / "d.csv"
    csv.write_text("fake,contents\n")
    h = dataset_fingerprint(csv)
    store1, hit1 = build_feature_store(samples, 3, tmp_path / "cache", h, 5)
    assert not hit1
    store2, hit2 = build_feature_store(samples, 3, tmp_path / "cache", h, 5)
    assert hit2
    np.testing.assert_array_equal(store1.matrix, store2.matrix)
    manifest = json.loads((tmp_path / "cache" / "manifest.json").read_text())
    assert manifest["dataset_sha256"] == h
    assert manifest["scheme_version"] == SCHEME_VERSION


def test_cache_invalidated_by_key_change(tmp_path, rng):
    samples = _sample_set(rng)
    csv = tmp_path / "d.csv"
    csv.write_text("v1\n")
    h1 = dataset_fingerprint(csv)
    build_feature_store(samples, 2, tmp_path / "cache", h1, 5)
    # different degree -> rebuild
    _, hit = build_feature_store(samples, 3, tmp_path / "cache", h1, 5)
    assert not hit
    # different dataset hash -> rebuild
    csv.write_text("v2\n")
    h2 = dataset_fingerprint(csv)
    _, hit = build_feature_store(samples, 3, tmp_path / "cache", h2, 5)
    assert not hit
    # other customers with as many rows -> rebuild
    renamed = make_samples([replace(cs, customer=cs.customer + "x") for cs in samples.customers])
    _, hit = build_feature_store(renamed, 3, tmp_path / "cache", h2, 5)
    assert not hit


def test_truncated_cache_is_rebuilt(tmp_path, rng):
    samples = _sample_set(rng)
    store1, _ = build_feature_store(samples, 3, tmp_path / "cache", "h", 5)
    # A copy: the file is rewritten in place under the store's mapping.
    matrix1 = np.array(store1.matrix)
    bin_path = tmp_path / "cache" / "features.bin"
    data = bin_path.read_bytes()
    bin_path.write_bytes(data[: len(data) - 100])
    store2, hit = build_feature_store(samples, 3, tmp_path / "cache", "h", 5)
    assert not hit
    np.testing.assert_array_equal(matrix1, store2.matrix)
    assert bin_path.read_bytes() == data


def test_feature_rows_read_the_bits_of_rows(tmp_path, rng):
    """A FeatureRows batch, in any order and with repeats, and `source[:]`
    hold the mapped rows scaled by `scale_matrix`, bit for bit; the shape is
    the manifest's, for an empty set of positions too."""
    samples = _sample_set(rng, n_customers=4)
    store, _ = build_feature_store(samples, 2, tmp_path / "c", "h", 5)
    positions = np.arange(1, len(samples), 2)
    want = scale_matrix(store.matrix[positions], store.basis, 3.0, 70.0)
    scale = scale_vector(store.basis, 3.0, 70.0)
    n_cols = store.manifest["n_cols"]
    with FeatureRows(store.path, store.manifest, positions, scale) as source:
        assert source.shape == (positions.size, n_cols)
        for rows in (
            rng.permutation(positions.size), np.array([2, 2, 0]), np.array([], int), slice(None)
        ):
            assert source[rows].tobytes() == want[rows].tobytes()
    with FeatureRows(store.path, store.manifest, [], scale) as source:
        assert source.shape == source[:].shape == (0, n_cols)
    with pytest.raises(ValueError, match="row positions"):
        FeatureRows(store.path, store.manifest, [len(samples)], scale)


def test_feature_rows_cut_short_is_data_error(tmp_path, rng):
    """features.bin cut short in place while a FeatureRows holds it open:
    reading a row past its end is a DataError naming the file; rows before
    it still read."""
    samples = _sample_set(rng)
    store, _ = build_feature_store(samples, 3, tmp_path / "cache", "h", 5)
    n = len(samples)
    with FeatureRows(store.path, store.manifest, np.arange(n), np.ones(store.basis.dim)) as src:
        store.path.write_bytes(store.path.read_bytes()[:-100])
        assert src[np.array([0])].shape == (1, store.basis.dim)
        with pytest.raises(DataError, match="features.bin is cut short: row"):
            src[np.array([0, n - 1])]


@pytest.mark.parametrize(
    "manifest", ['{"dataset_sha256": "h", "deg', "[1, 2]"], ids=["truncated", "not-an-object"]
)
def test_unreadable_manifest_is_rebuilt(tmp_path, rng, manifest):
    samples = _sample_set(rng)
    store1, _ = build_feature_store(samples, 3, tmp_path / "cache", "h", 5)
    manifest_path = tmp_path / "cache" / "manifest.json"
    written = manifest_path.read_text()
    manifest_path.write_text(manifest)
    store2, hit = build_feature_store(samples, 3, tmp_path / "cache", "h", 5)
    assert not hit
    np.testing.assert_array_equal(store1.matrix, store2.matrix)
    assert manifest_path.read_text() == written


def test_rows_align_with_samples(tmp_path, rng):
    samples = _sample_set(rng, n_customers=4)
    store, _ = build_feature_store(samples, 2, tmp_path / "c", "h", 5)
    basis = store.basis
    for i in (0, len(samples) - 1):
        ci = int(samples.customer_idx[i])
        j = int(samples.prefix_len[i])
        cs = samples.customers[ci]
        direct = encode(continuous_path(cs, j, 0.0, 0.0), 2, basis)
        np.testing.assert_allclose(store.matrix[i], direct, atol=1e-9)


def test_fingerprint_tracks_content(tmp_path):
    f = tmp_path / "x.csv"
    f.write_text("alpha")
    h1 = dataset_fingerprint(f)
    f.write_text("beta")
    assert dataset_fingerprint(f) != h1
    assert len(h1) == 64

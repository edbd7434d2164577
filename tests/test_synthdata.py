import numpy as np
import pytest

from fraudsig.banksim import COLUMNS, group_customers, load_transactions, make_samples
from fraudsig.synthdata import SynthSpec, generate


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("synth") / "corpus.csv"
    generate(path, SynthSpec.small(), seed=3)
    return path


def test_header_and_quoting(small_corpus):
    lines = small_corpus.read_text().splitlines()
    assert lines[0] == ",".join(COLUMNS)
    # string fields single-quoted; step, amount and fraud plain numbers
    first = lines[1].split(",")
    assert len(first) == 10
    for i in (1, 2, 3, 4, 5, 6, 7):
        assert first[i].startswith("'") and first[i].endswith("'")
    assert first[0].isdigit()
    assert first[9] in ("0", "1")
    float(first[8])


def test_shape_matches_spec(small_corpus):
    spec = SynthSpec.small()
    log = load_transactions(small_corpus)
    assert len(log) == spec.n_rows
    assert len(set(log.customers)) == spec.n_customers
    total_frauds = spec.sample_frauds + spec.early_frauds + spec.excluded_frauds
    assert int(log.frauds.sum()) == total_frauds

    kept, excluded = group_customers(log)
    assert excluded == spec.n_missing_gender
    assert len(kept) == spec.n_kept
    assert sum(c.steps.size for c in kept) == spec.kept_rows
    kept_frauds = sum(int(c.frauds.sum()) for c in kept)
    assert total_frauds - kept_frauds == spec.excluded_frauds
    assert sum(1 for c in kept if c.frauds.any()) == spec.n_fraud_customers


def test_sample_fraud_count_is_pinned(small_corpus):
    spec = SynthSpec.small()
    kept, _ = group_customers(load_transactions(small_corpus))
    samples = make_samples(kept, min_prefix=5)
    assert int(samples.labels.sum()) == spec.sample_frauds
    assert samples.labels.size == spec.kept_rows - 4 * spec.n_kept


def test_generation_is_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    generate(a, SynthSpec.small(), seed=9)
    generate(b, SynthSpec.small(), seed=9)
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    generate(c, SynthSpec.small(), seed=10)
    assert a.read_bytes() != c.read_bytes()


def test_rows_are_valid(small_corpus):
    spec = SynthSpec.small()
    kept, _ = group_customers(load_transactions(small_corpus))
    for cs in kept:
        assert np.all(np.diff(cs.steps) >= 0)
        assert cs.steps[0] >= 0 and cs.steps[-1] <= spec.max_step
        assert np.all(np.asarray(cs.amounts) > 0)
        assert spec.min_rows <= cs.steps.size <= spec.max_rows
        assert set(np.unique(cs.frauds)) <= {0, 1}


def test_fraud_amounts_are_inflated(small_corpus):
    kept, _ = group_customers(load_transactions(small_corpus))
    fraud_amts, legit_amts = [], []
    for c in kept:
        fraud_amts.extend(c.amounts[c.frauds == 1])
        legit_amts.extend(c.amounts[c.frauds == 0])
    assert np.mean(fraud_amts) > 3 * np.mean(legit_amts)


def test_default_spec_reproduces_reference_shape():
    spec = SynthSpec()
    spec.validate()
    assert spec.n_rows == 594643
    assert spec.sample_frauds + spec.early_frauds + spec.excluded_frauds == 7200
    assert spec.n_customers == 4112
    assert spec.n_kept == 4100
    assert spec.n_fraud_customers == 1479


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        SynthSpec(n_customers=2, n_missing_gender=2).validate()
    with pytest.raises(ValueError):
        SynthSpec(
            n_customers=10, n_missing_gender=0, n_rows=20, excluded_rows=0,
            n_fraud_customers=2, sample_frauds=1, early_frauds=0, excluded_frauds=0,
        ).validate()

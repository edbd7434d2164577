import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fraudsig import banksim
from fraudsig.banksim import (
    CustomerSeries,
    TransactionParseError,
    Vocabularies,
    category_rate_table,
    condition_cards,
    condition_codes,
    continuous_path,
    group_customers,
    load_transactions,
    make_samples,
    rate_to_bucket,
    risk_levels,
    split_and_unlabel,
    stratified_split,
    stratified_subset,
    training_maxima,
)
from fraudsig.synthdata import SynthSpec, generate

from oracles import (
    condition_codes_reference,
    group_customers_reference,
    load_transactions_reference,
    risk_level,
)
from test_memory import _spec as memory_corpus_spec

HEADER = "step,customer,age,gender,zipcodeOri,merchant,zipMerchant,category,amount,fraud"


def _write(tmp_path, rows, name="t.csv"):
    path = tmp_path / name
    path.write_text("\n".join([HEADER] + rows) + "\n")
    return path


def _row(step, cust, gender="F", cat="es_food", amount="10.00", fraud=0, age="3"):
    return (
        f"{step},'{cust}','{age}','{gender}','28007','M1','28007','{cat}',{amount},{fraud}"
    )


def _decoded(table, name):
    """The strings of the categorical column `name` of a TransactionLog or
    CustomerSeries `table`, one per row, decoded through its vocabulary."""
    vocab = getattr(table.vocab, name)
    return [vocab[c] for c in getattr(table, name)]


def test_parse_round_trip(tmp_path):
    path = _write(tmp_path, [_row(0, "C1"), _row(5, "C1", amount="3.50", fraud=1)])
    log = load_transactions(path)
    assert len(log) == 2
    assert _decoded(log, "customers") == ["C1", "C1"] and log.steps[0] == 0
    assert log.amounts[1] == 3.5 and log.frauds[1] == 1
    assert _decoded(log, "categories")[0] == "es_food" and _decoded(log, "genders")[0] == "F"


def test_parse_errors_carry_line_numbers(tmp_path):
    path = _write(tmp_path, [_row(0, "C1"), "1,'C1','3','F','z','M1','z','c',abc,0"])
    with pytest.raises(TransactionParseError) as ei:
        load_transactions(path)
    assert ei.value.line == 3 and "amount" in str(ei.value)

    path = _write(tmp_path, ["1,'C1','3','F'"], name="short.csv")
    with pytest.raises(TransactionParseError) as ei:
        load_transactions(path)
    assert "expected 10 fields" in str(ei.value)

    path = _write(tmp_path, [_row(0, "C1", fraud=7)], name="badfraud.csv")
    with pytest.raises(TransactionParseError):
        load_transactions(path)

    bad_header = tmp_path / "h.csv"
    bad_header.write_text("a,b,c\n")
    with pytest.raises(TransactionParseError) as ei:
        load_transactions(bad_header)
    assert ei.value.line == 1


def test_empty_customer_names_its_line(tmp_path):
    """A row without a customer id is refused at ingest: the prepared
    splits.json admits only non-empty customer ids."""
    path = _write(tmp_path, [_row(0, "C1"), _row(1, "")])
    with pytest.raises(TransactionParseError) as ei:
        load_transactions(path)
    assert ei.value.line == 3 and "empty 'customer' value" in str(ei.value)


def test_first_bad_line_wins(tmp_path):
    rows = [_row(0, "C1"), _row(1, "C1", amount="x"), _row(2, "C1"), "y" + _row(3, "C1")]
    with pytest.raises(TransactionParseError) as ei:
        load_transactions(_write(tmp_path, rows))
    assert ei.value.line == 3 and "'amount' value 'x'" in str(ei.value)


@pytest.mark.parametrize("amount", ["nan", "inf", "-inf"])
def test_non_finite_amount_names_its_line(tmp_path, amount):
    path = _write(tmp_path, [_row(0, "C1"), _row(1, "C1", amount=amount), _row(2, "C1")])
    with pytest.raises(TransactionParseError) as ei:
        load_transactions(path)
    assert ei.value.line == 3 and f"non-finite 'amount' value '{amount}'" in str(ei.value)


def test_step_beyond_int64_names_its_line(tmp_path):
    path = _write(tmp_path, [_row(0, "C1"), _row(99999999999999999999, "C1")])
    with pytest.raises(TransactionParseError) as ei:
        load_transactions(path)
    assert ei.value.line == 3 and "outside int64" in str(ei.value)


def test_line_numbers_are_physical_lines(tmp_path):
    """A quoted category spanning lines 2-3 parses; the bad amount on line 5
    is reported as line 5, not as the fourth record."""
    split = '0,C1,3,F,28007,M1,28007,"es\nfood",10.00,0'
    rows = [split, _row(1, "C1"), _row(2, "C1", amount="x")]
    with pytest.raises(TransactionParseError) as ei:
        load_transactions(_write(tmp_path, rows))
    assert ei.value.line == 5 and "amount" in str(ei.value)
    log = load_transactions(_write(tmp_path, rows[:2], name="ok.csv"))
    assert _decoded(log, "categories") == ["es\nfood", "es_food"]


def test_undecodable_byte_names_its_line(tmp_path):
    """A byte that is not UTF-8 (latin-1 e-acute) is a parse error on its
    line; a bad row above it is still reported first; the same character
    encoded as UTF-8 parses."""
    path = tmp_path / "latin1.csv"
    rows = [_row(0, "C1"), _row(1, "C1"), _row(2, "C1", cat="caf\xe9")]
    path.write_bytes(("\n".join([HEADER] + rows) + "\n").encode("latin-1"))
    with pytest.raises(TransactionParseError) as ei:
        load_transactions(path)
    assert ei.value.line == 4 and "0xe9 is not UTF-8" in str(ei.value)

    rows[0] = _row(0, "C1", amount="x")
    path.write_bytes(("\n".join([HEADER] + rows) + "\n").encode("latin-1"))
    with pytest.raises(TransactionParseError) as ei:
        load_transactions(path)
    assert ei.value.line == 2 and "amount" in str(ei.value)

    rows[0] = _row(0, "C1")
    path.write_bytes(("\n".join([HEADER] + rows) + "\n").encode("utf-8"))
    assert _decoded(load_transactions(path), "categories")[2] == "caf\xe9"


def _assert_same_grouping(got, want):
    """Same customers in the same order, equal arrays of equal dtype, codes
    that decode to the reference's strings and the same excluded count."""
    (kept, excluded), (ref_kept, ref_excluded) = got, want
    assert excluded == ref_excluded
    assert [cs.customer for cs in kept] == [cs.customer for cs in ref_kept]
    for cs, ref in zip(kept, ref_kept):
        for name in ("steps", "amounts", "frauds", "step_diffs"):
            a, b = getattr(cs, name), getattr(ref, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (cs.customer, name)
        for name in ("ages", "genders", "categories"):
            assert _decoded(cs, name) == getattr(ref, name), (cs.customer, name)


_TEXT = st.text(alphabet="abXY09_- \xe9", min_size=1, max_size=4)
# How a field is written: bare, single- or double-quoted, padded with blanks or a tab.
_STYLES = ("{}", "'{}'", '"{}"', " '{}' ", " {} ", "\t{}")


@st.composite
def _csv_logs(draw):
    """A CSV text of interleaved customers with repeated steps, every field
    written in a random style, blank lines and LF or CRLF endings."""
    pool = draw(st.lists(_TEXT.filter(str.strip), min_size=1, max_size=4))  # no blank id
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [HEADER]
    for _ in range(draw(st.integers(0, 25))):
        fields = [
            draw(st.integers(0, 6)),
            draw(st.sampled_from(pool)),
            draw(st.sampled_from(["1", "2", "U"])),
            draw(st.sampled_from(["M", "F", "E", "U"])),
            "28007", draw(_TEXT), "28007", draw(_TEXT),
            draw(st.floats(0, 1e4, allow_nan=False)),
            draw(st.integers(0, 1)),
        ]
        lines.append(",".join(draw(st.sampled_from(_STYLES)).format(f) for f in fields))
        if draw(st.booleans()) and draw(st.booleans()):
            lines.append("")
    return end.join(lines) + end


@given(_csv_logs())
def test_columnar_ingest_matches_per_row_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "random_log.csv"
    path.write_bytes(text.encode("utf-8"))
    _assert_same_grouping(
        group_customers(load_transactions(path)),
        group_customers_reference(load_transactions_reference(path)),
    )


def test_small_corpus_matches_per_row_reference(tmp_path):
    path = tmp_path / "corpus.csv"
    generate(path, SynthSpec.small(), seed=2)
    want = group_customers_reference(load_transactions_reference(path))
    _assert_same_grouping(group_customers(load_transactions(path)), want)
    assert want[1] > 0


def test_group_drops_missing_final_gender(tmp_path):
    rows = [
        _row(0, "C1", gender="F"),
        _row(1, "C1", gender="F"),
        _row(0, "C2", gender="M"),
        _row(9, "C2", gender="E"),  # most recent row decides: C2 excluded
        _row(0, "C3", gender="U"),
        _row(9, "C3", gender="M"),  # recovered by the final row
    ]
    customers, excluded = group_customers(load_transactions(_write(tmp_path, rows)))
    assert excluded == 1
    assert sorted(cs.customer for cs in customers) == ["C1", "C3"]


def test_group_sort_is_stable_within_step(tmp_path):
    rows = [
        _row(3, "C1", amount="1.00"),
        _row(3, "C1", amount="2.00"),
        _row(1, "C1", amount="0.50"),
        _row(3, "C1", amount="3.00"),
    ]
    (cs,), _ = group_customers(load_transactions(_write(tmp_path, rows)))
    np.testing.assert_allclose(cs.amounts, [0.5, 1.0, 2.0, 3.0])
    np.testing.assert_allclose(cs.step_diffs, [0.0, 2.0, 0.0, 0.0])


def _series(n, fraud_at=(), steps=None, categories=None, names=None):
    """A series of `n` transactions in age band "3", gender "F" and the
    given `categories` (default all "es_food"), coded in the vocabulary
    `names` (default their distinct values)."""
    steps = np.asarray(steps if steps is not None else np.arange(n), dtype=np.int64)
    frauds = np.zeros(n, dtype=np.int8)
    for i in fraud_at:
        frauds[i] = 1
    categories = categories or ["es_food"] * n
    names = names or tuple(dict.fromkeys(categories))
    return CustomerSeries(
        customer=f"C{n}",
        steps=steps,
        amounts=np.linspace(1, n, n),
        frauds=frauds,
        ages=np.zeros(n, dtype=np.int32),
        genders=np.zeros(n, dtype=np.int32),
        categories=np.array([names.index(c) for c in categories], dtype=np.int32),
        vocab=Vocabularies(customers=(), ages=("3",), genders=("F",), categories=names),
    )


def _levels(categories, table):
    """`risk_levels` of one series of `categories`: the level of each of its
    prefixes."""
    return risk_levels(make_samples([_series(len(categories), categories=categories)], 1), table)


def test_samples_are_prefixes_with_last_transaction_label():
    cs = _series(7, fraud_at=(5,))
    samples = make_samples([cs], min_prefix=5)
    assert list(samples.prefix_len) == [5, 6, 7]
    assert list(samples.labels) == [0, 1, 0]
    np.testing.assert_allclose(samples.amounts, [5.0, 6.0, 7.0])
    # too-short customers contribute nothing
    assert len(make_samples([_series(4)], min_prefix=5)) == 0


def test_training_maxima_respect_prefix_reach():
    # the large 6th amount is outside every training prefix
    cs = _series(6)
    cs.amounts[5] = 1000.0
    cs.amounts[:5] = [1, 2, 3, 9, 4]
    samples = make_samples([cs], min_prefix=5)
    # train on the first sample only (prefix 5)
    max_sd, max_amt = training_maxima(samples, np.array([0]))
    assert max_amt == 9.0
    max_sd, max_amt = training_maxima(samples, np.array([0, 1]))
    assert max_amt == 1000.0


def test_continuous_path_scaling():
    cs = _series(5, steps=[0, 2, 2, 6, 7])
    path = continuous_path(cs, 5, max_sd=4.0, max_amt=5.0)
    assert path.shape == (5, 2)
    np.testing.assert_allclose(path[:, 0], [0.0, 0.5, 0.0, 1.0, 0.25])
    np.testing.assert_allclose(path[:, 1], np.linspace(1, 5, 5) / 5.0)
    assert path.min() >= 0.0 and path.max() <= 1.0


def test_rate_table_uses_only_labeled_label_transactions():
    a = _series(6, fraud_at=(4,), categories=["x"] * 4 + ["y", "y"])
    samples = make_samples([a], min_prefix=5)  # two samples: prefixes 5, 6
    table = category_rate_table(samples, np.array([0]))
    assert table == {"y": 100.0}  # only the labeled sample's label transaction counts
    table = category_rate_table(samples, np.array([0, 1]))
    assert table == {"y": 50.0}


def test_rate_to_bucket_edges():
    assert [rate_to_bucket(r) for r in (0.0, 2.0, 2.0001, 10.0, 10.5, 30.0, 31.0, 50.0, 51.0, 100.0)] == [
        1, 1, 2, 2, 3, 3, 4, 4, 5, 5
    ]
    with pytest.raises(ValueError):
        rate_to_bucket(-1.0)
    with pytest.raises(ValueError):
        rate_to_bucket(101.0)


def test_risk_level_weighted_rounding():
    cats = ["lo", "hi"]
    table = {"lo": 0.0, "hi": 100.0}  # buckets 1 and 5
    # weights 1,2 -> (1*1 + 2*5)/3 = 11/3 = 3.67 -> rounds half-up to 4
    assert risk_level(cats, 2, table) == 4
    assert _levels(cats, table)[1] == 4
    # an exact integer: (1*1 + 2*4)/3 = 3.0
    table["hi"] = 40.0  # bucket 4
    assert risk_level(cats, 2, table) == 3
    assert _levels(cats, table)[1] == 3
    # an exact half rounds up: buckets 1, 1, 2 under weights 1, 2, 3 -> 9/6 = 1.5 -> 2
    cats = ["lo", "lo", "mid"]
    table = {"lo": 0.0, "mid": 5.0}  # buckets 1 and 2
    assert risk_level(cats, 3, table) == 2
    assert list(_levels(cats, table)) == [1, 1, 2]


def test_risk_levels_vector_matches_scalar():
    """Every prefix of several series sharing one vocabulary, a few hundred
    transactions of random categories in all, one of them missing from the
    rate table."""
    rng = np.random.default_rng(5)
    names = tuple(f"cat{k}" for k in range(12))
    rates = rng.choice([0.0, 1.5, 2.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0, 75.0, 100.0], 11)
    table = dict(zip(names[:-1], rates.tolist()))
    lengths = (1, 2, 3, 5, 8, 40, 60, 90, 120)  # 329 transactions
    cats = [[names[k] for k in rng.integers(0, len(names), n)] for n in lengths]
    samples = make_samples([_series(len(c), categories=c, names=names) for c in cats], 1)
    want = [risk_level(c, j, table) for c in cats for j in range(1, len(c) + 1)]
    assert risk_levels(samples, table).tolist() == want


def test_condition_encoding_matches_reference(tmp_path):
    """The condition codes of the small corpus's train and test rows equal
    the per-row reference over the reference's string series, under the
    rate table of a labeled set too small to see every category; each code
    has the number of values `condition_cards` gives."""
    path = tmp_path / "corpus.csv"
    generate(path, SynthSpec.small(), seed=1)
    kept, _ = group_customers(load_transactions(path))
    samples = make_samples(kept, 5)
    series, _ = group_customers_reference(load_transactions_reference(path))
    split = split_and_unlabel(samples.labels, (8,), 1, 0.2, 0)
    labeled = split.labeled[(8, 0)]
    table = category_rate_table(samples, labeled)
    assert {cat for cs in series for cat in cs.categories} - set(table)
    label_tx = [(series[c], p - 1) for c, p in zip(samples.customer_idx, samples.prefix_len)]
    ages = sorted({cs.ages[i] for cs, i in label_tx})
    genders = sorted({cs.genders[i] for cs, i in label_tx})
    assert condition_cards(samples) == (len(ages), len(genders), 5)
    for rows in (split.train_idx, split.test_idx):
        want = condition_codes_reference(
            series, samples.customer_idx, samples.prefix_len, ages, genders, table, rows
        )
        assert np.array_equal(condition_codes(samples, rows, labeled), want)


def test_unknown_category_warns_once(caplog):
    """A category of the samples missing from the rate table warns once; one
    only the vocabulary holds does not warn."""
    banksim._warned_categories.clear()
    cs = _series(5, categories=["mystery"] * 5, names=("mystery", "unseen"))
    samples = make_samples([cs], 1)
    with caplog.at_level(logging.WARNING):
        assert list(risk_levels(samples, {"other": 50.0})) == [1] * 5
        risk_levels(samples, {"other": 50.0})
    assert sum("mystery" in r.message for r in caplog.records) == 1
    assert not any("unseen" in r.message for r in caplog.records)


# Traced bytes a CSV row may take at the peak of parsing, grouping and
# sampling the corpus below: 122-123 bytes measured (steps, amounts, frauds
# and four int32 code columns, their sorted copies, the series' step
# differences and the samples' arrays), plus a 25% margin.  One string per
# row and categorical column took 322 bytes.
_INGEST_BYTES_PER_ROW = 150


def test_ingest_holds_no_string_per_row(tmp_path):
    """Parsing, grouping and sampling test_memory's corpus (the reference
    shape scaled to 2.6%, 15,461 rows) peaks within `_INGEST_BYTES_PER_ROW`
    traced bytes a row, and each vocabulary holds its column's distinct
    strings in order of first appearance, which the codes index."""
    spec = memory_corpus_spec()
    path = tmp_path / "corpus.csv"
    generate(path, spec, seed=0)
    tracemalloc.start()
    try:
        log = load_transactions(path)
        make_samples(group_customers(log)[0], 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(log) == spec.n_rows
    assert peak / len(log) < _INGEST_BYTES_PER_ROW, f"{peak / len(log):.1f} bytes a row"

    txns = load_transactions_reference(path)
    for name, column in (
        ("customers", "customer"), ("ages", "age"), ("genders", "gender"),
        ("categories", "category"),
    ):
        strings = [getattr(t, column) for t in txns]
        assert getattr(log.vocab, name) == tuple(dict.fromkeys(strings)), name
        assert _decoded(log, name) == strings, name


def test_stratified_split_counts():
    labels = np.array([0] * 90 + [1] * 10)
    rng = np.random.default_rng(0)
    train, test = stratified_split(labels, 0.1, rng)
    assert len(train) == 90 and len(test) == 10
    assert labels[test].sum() == 1  # round(0.1 * 10)
    assert set(train) | set(test) == set(range(100))
    assert not set(train) & set(test)


def test_stratified_subset_fraud_count_is_ceiling():
    labels = np.zeros(1000, dtype=int)
    labels[:11] = 1  # 1.1% fraud
    pool = np.arange(1000)
    rng = np.random.default_rng(0)
    sub = stratified_subset(labels, pool, 100, rng)
    assert len(sub) == 100
    assert labels[sub].sum() == math.ceil(100 * 11 / 1000)  # = 2
    with pytest.raises(ValueError):
        stratified_subset(labels, pool, 2000, rng)


@given(st.integers(0, 2**32 - 1), st.integers(20, 60))
def test_split_and_unlabel_invariants(seed, size):
    rng = np.random.default_rng(seed)
    labels = (rng.uniform(size=400) < 0.1).astype(int)
    if labels.sum() == 0:
        labels[0] = 1
    res = split_and_unlabel(labels, (size, 2 * size), 2, 0.1, seed)
    train_set = set(res.train_idx)
    assert not train_set & set(res.test_idx)
    assert len(res.train_idx) + len(res.test_idx) == 400
    for (sz, rep), idx in res.labeled.items():
        assert len(idx) == sz
        assert set(idx) <= train_set
        assert list(idx) == sorted(idx)


def test_split_and_unlabel_deterministic():
    labels = np.array([0] * 95 + [1] * 5)

    def run():
        return split_and_unlabel(labels, (20,), 3, 0.1, 7)

    a, b = run(), run()
    np.testing.assert_array_equal(a.train_idx, b.train_idx)
    for key in a.labeled:
        np.testing.assert_array_equal(a.labeled[key], b.labeled[key])
    # repetitions differ from each other
    assert not np.array_equal(a.labeled[(20, 0)], a.labeled[(20, 1)])

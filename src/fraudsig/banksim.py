"""Transaction-log ingestion and the prefix-sample evaluation protocol.

The corpus is a simulated card-payment log: one CSV row per transaction with
a day counter (`step`), customer and merchant identifiers, coarse customer
age band and gender, merchant category, amount, and a fraud flag.

The CSV is read column-wise: one pass over the rows, in file order, checks
each row and appends the seven fields later stages read to typed columns,
which become a `TransactionLog` of numpy arrays.  Step, amount and fraud are
numbers; customer, age, gender and category are integer codes, each indexing
its column's vocabulary, the distinct strings in order of first appearance
(`Vocabularies`).  No stage holds a string per transaction: series, samples,
rate tables and condition codes work on the codes, and only a vocabulary
turns a code back into its string.  Customers are numbered by their code,
and one stable sort by (customer, step) orders all rows, so every customer's
series is a slice of that order with file order breaking ties of step.
Every prefix of length >= `min_prefix` of a series becomes one sample: the
continuous path carries scaled step differences and amounts, the condition
carries the age band, gender, and a risk level derived from
merchant-category fraud rates, and the label is the fraud flag of the
prefix's last transaction.

Splitting is class-stratified: one fixed 90/10 train/test split, then for
each repetition and each labeled-set size a stratified subset of the
training samples keeps its labels while the rest are hidden (never deleted;
evaluation still needs them).
"""

from __future__ import annotations

import csv
import logging
import math
import re
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import STAGE_SPLIT, ConfigError, derive_rng

__all__ = [
    "Vocabularies",
    "TransactionLog",
    "CustomerSeries",
    "SampleSet",
    "SplitResult",
    "TransactionParseError",
    "load_transactions",
    "group_customers",
    "make_samples",
    "training_maxima",
    "continuous_path",
    "category_rate_table",
    "rate_to_bucket",
    "risk_levels",
    "condition_cards",
    "condition_codes",
    "stratified_split",
    "stratified_subset",
    "split_and_unlabel",
]

logger = logging.getLogger(__name__)

COLUMNS = (
    "step", "customer", "age", "gender", "zipcodeOri", "merchant",
    "zipMerchant", "category", "amount", "fraud",
)
VALID_GENDERS = frozenset({"M", "F"})

# Risk buckets over category fraud rates in percent: [0,2], (2,10], (10,30],
# (30,50], (50,100].
_BUCKET_EDGES = (2.0, 10.0, 30.0, 50.0)
RISK_LEVELS = len(_BUCKET_EDGES) + 1


class TransactionParseError(ValueError):
    """Malformed transaction row; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True)
class Vocabularies:
    """The distinct strings of each categorical column of a transaction log,
    in order of first appearance: a code of the column indexes its tuple."""

    customers: tuple[str, ...]
    ages: tuple[str, ...]
    genders: tuple[str, ...]
    categories: tuple[str, ...]


@dataclass(frozen=True)
class TransactionLog:
    """The columns of a transaction CSV that later stages read, one entry per
    row in file order; the categorical ones are int32 codes into `vocab`."""

    steps: np.ndarray        # int64
    amounts: np.ndarray      # float64
    frauds: np.ndarray       # int8, 0 or 1
    customers: np.ndarray    # int32 codes, likewise the next three
    ages: np.ndarray
    genders: np.ndarray
    categories: np.ndarray
    vocab: Vocabularies

    def __len__(self) -> int:
        return len(self.steps)


_QUOTES = "'\""
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
# surrogateescape decodes a byte that is not UTF-8 to one of these.
_UNDECODED = re.compile("[\udc80-\udcff]")


def _utf8_lines(fh):
    """The lines of `fh`, opened with errors="surrogateescape"; the first line
    holding a byte that is not UTF-8 raises when it is reached, so a bad row
    above it is reported first."""
    for lineno, line in enumerate(fh, start=1):
        if not line.isascii():
            bad = _UNDECODED.search(line)
            if bad:
                byte = ord(bad.group()) - 0xDC00
                raise TransactionParseError(lineno, f"byte 0x{byte:02x} is not UTF-8")
        yield line


def _fraud(text: str) -> int:
    try:
        flag = int(text)
    except ValueError:
        raise ValueError(f"non-integer 'fraud' value {text!r}") from None
    if flag not in (0, 1):
        raise ValueError(f"'fraud' must be 0/1, got {flag}")
    return flag


def _coder(codes: dict[str, int], required: str | None = None):
    """Parser of a categorical column: the code of a value, the next one
    when first seen, in `codes`; an empty value of the column named
    `required` is an error."""

    def code(value: str) -> int:
        if required and not value:
            raise ValueError(f"empty {required!r} value")
        return codes.setdefault(value, len(codes))

    return code


class _Column(dict):
    """One column as it is read: maps the raw text of a field to its value,
    parsed from the text cleaned of blanks and quotes, and collects the
    values of the rows in `values`.  Each distinct raw text is parsed once,
    so a column of few distinct texts costs a row one lookup."""

    def __init__(self, typecode: str, parse):
        super().__init__()
        self.values = array(typecode)
        self.parse = parse

    def __missing__(self, raw: str):
        value = self[raw] = self.parse(raw.strip().strip(_QUOTES))
        return value


def load_transactions(path: str | Path) -> TransactionLog:
    """Parse the UTF-8 transaction CSV into the columns of a TransactionLog.

    Accepts single- or double-quoted fields and surrounding whitespace, and
    skips blank lines; raises TransactionParseError with the offending
    physical line number and column at the first malformed row.  A `step`
    must fit int64, an `amount` must be finite and a `customer` not empty.
    The fraud flag and the categorical columns parse each distinct raw text
    once.
    """
    path = Path(path)
    vocab = {name: {} for name in ("customers", "ages", "genders", "categories")}
    frauds = _Column("b", _fraud)
    customers = _Column("i", _coder(vocab["customers"], required="customer"))
    ages, genders, categories = (
        _Column("i", _coder(vocab[name])) for name in ("ages", "genders", "categories")
    )
    steps, amounts = array("q"), array("d")
    add_step, add_amount, add_fraud = steps.append, amounts.append, frauds.values.append
    add_customer, add_age, add_gender, add_category = (
        c.values.append for c in (customers, ages, genders, categories)
    )
    with path.open(newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(_utf8_lines(fh))
        try:
            header = next(reader)
        except StopIteration:
            raise TransactionParseError(1, "empty file") from None
        header = [h.strip().strip(_QUOTES) for h in header]
        if tuple(header) != COLUMNS:
            raise TransactionParseError(
                1, f"unexpected header {header!r}, want {list(COLUMNS)}"
            )
        for row in reader:
            if not row:
                continue
            # The physical line the record ends on: a quoted field may span lines.
            lineno = reader.line_num
            if len(row) != len(COLUMNS):
                raise TransactionParseError(
                    lineno, f"expected {len(COLUMNS)} fields, got {len(row)}"
                )
            step, customer, age, gender, _, _, _, category, amount, fraud = row
            step = step.strip().strip(_QUOTES)
            try:
                value = int(step)
            except ValueError:
                raise TransactionParseError(
                    lineno, f"non-integer 'step' value {step!r}"
                ) from None
            if not _INT64_MIN <= value <= _INT64_MAX:
                raise TransactionParseError(lineno, f"'step' value {step!r} is outside int64")
            add_step(value)
            amount = amount.strip().strip(_QUOTES)
            try:
                value = float(amount)
            except ValueError:
                raise TransactionParseError(
                    lineno, f"non-numeric 'amount' value {amount!r}"
                ) from None
            if not math.isfinite(value):
                raise TransactionParseError(lineno, f"non-finite 'amount' value {amount!r}")
            add_amount(value)
            try:
                add_fraud(frauds[fraud])
                add_customer(customers[customer])
            except ValueError as exc:
                raise TransactionParseError(lineno, str(exc)) from None
            add_age(ages[age])
            add_gender(genders[gender])
            add_category(categories[category])
    return TransactionLog(
        steps=np.frombuffer(steps, dtype=np.int64),
        amounts=np.frombuffer(amounts, dtype=np.float64),
        frauds=np.frombuffer(frauds.values, dtype=np.int8),
        customers=np.frombuffer(customers.values, dtype=np.int32),
        ages=np.frombuffer(ages.values, dtype=np.int32),
        genders=np.frombuffer(genders.values, dtype=np.int32),
        categories=np.frombuffer(categories.values, dtype=np.int32),
        vocab=Vocabularies(**{name: tuple(codes) for name, codes in vocab.items()}),
    )


@dataclass
class CustomerSeries:
    """All transactions of one customer, ordered by step (stable).  The
    categorical fields are int32 codes into `vocab`."""

    customer: str
    steps: np.ndarray
    amounts: np.ndarray
    frauds: np.ndarray
    ages: np.ndarray
    genders: np.ndarray
    categories: np.ndarray
    vocab: Vocabularies
    step_diffs: np.ndarray = field(init=False)

    def __post_init__(self):
        diffs = np.zeros(len(self.steps), dtype=np.float64)
        if len(self.steps) > 1:
            diffs[1:] = np.diff(self.steps.astype(np.float64))
        self.step_diffs = diffs

    def __len__(self) -> int:
        return len(self.steps)


def group_customers(log: TransactionLog) -> tuple[list[CustomerSeries], int]:
    """Group transactions per customer and drop customers without a valid
    most-recent gender.

    Returns (kept series, number of customers excluded for missing gender),
    customers in order of first appearance.  Within a customer, rows keep
    file order for equal steps: one stable sort by (customer, step) orders
    all rows, and each series is a view of a slice of the sorted columns.
    """
    vocab = log.vocab
    counts = np.bincount(log.customers, minlength=len(vocab.customers))
    ends = np.cumsum(counts)
    order = np.lexsort((log.steps, log.customers))
    steps, amounts, frauds = log.steps[order], log.amounts[order], log.frauds[order]
    ages, genders, categories = log.ages[order], log.genders[order], log.categories[order]
    valid = np.array([g in VALID_GENDERS for g in vocab.genders], dtype=bool)
    kept_ids = np.flatnonzero(valid[genders[ends - 1]]).tolist()
    starts, ends = (ends - counts).tolist(), ends.tolist()
    kept: list[CustomerSeries] = []
    for cid in kept_ids:
        own = slice(starts[cid], ends[cid])
        kept.append(
            CustomerSeries(
                customer=vocab.customers[cid], steps=steps[own], amounts=amounts[own],
                frauds=frauds[own], ages=ages[own], genders=genders[own],
                categories=categories[own], vocab=vocab,
            )
        )
    return kept, len(vocab.customers) - len(kept)


@dataclass
class SampleSet:
    """Flat arrays describing every prefix sample.

    Column `prefix_len` is the 1-based index of the label transaction within
    its customer's series; the sample's path covers transactions 1..prefix_len.
    `categories` holds the category code of every transaction of `customers`,
    series after series, customer `c`'s from `starts[c]` to `starts[c + 1]`:
    the risk level of a prefix reads all of its transactions.
    """

    customers: list[CustomerSeries]
    customer_idx: np.ndarray
    prefix_len: np.ndarray
    labels: np.ndarray
    amounts: np.ndarray          # raw amount of the label transaction
    ages: np.ndarray             # age band code at the label transaction
    genders: np.ndarray          # gender code at the label transaction
    categories: np.ndarray
    starts: np.ndarray
    vocab: Vocabularies

    def __len__(self) -> int:
        return len(self.customer_idx)

    def label_rows(self, idx) -> np.ndarray:
        """The position in `categories` of the label transaction of each
        sample `idx`."""
        idx = np.asarray(idx, dtype=np.intp)
        return self.starts[self.customer_idx[idx]] + self.prefix_len[idx] - 1


_EMPTY_VOCAB = Vocabularies((), (), (), ())


def _joined(customers: list[CustomerSeries], name: str, dtype) -> np.ndarray:
    """The column `name` of every series of `customers`, one after another."""
    return np.concatenate([getattr(cs, name) for cs in customers] or [np.zeros(0, dtype)])


def make_samples(customers: list[CustomerSeries], min_prefix: int = 5) -> SampleSet:
    """One sample per prefix of length >= min_prefix per customer.  The
    series must share the first one's vocabulary, as those of one
    `group_customers` call do."""
    lengths = np.fromiter(map(len, customers), dtype=np.intp, count=len(customers))
    starts = np.zeros(len(customers) + 1, dtype=np.intp)
    np.cumsum(lengths, out=starts[1:])
    counts = np.maximum(lengths - (min_prefix - 1), 0)
    customer_idx = np.repeat(np.arange(len(customers), dtype=np.intp), counts)
    first = np.cumsum(counts) - counts  # each customer's first sample
    prefix_len = np.arange(customer_idx.size, dtype=np.intp) - first[customer_idx] + min_prefix
    rows = starts[customer_idx] + prefix_len - 1
    return SampleSet(
        customers=customers,
        customer_idx=customer_idx,
        prefix_len=prefix_len,
        labels=_joined(customers, "frauds", np.int8)[rows],
        amounts=_joined(customers, "amounts", np.float64)[rows],
        ages=_joined(customers, "ages", np.int32)[rows],
        genders=_joined(customers, "genders", np.int32)[rows],
        categories=_joined(customers, "categories", np.int32),
        starts=starts,
        vocab=customers[0].vocab if customers else _EMPTY_VOCAB,
    )


def training_maxima(samples: SampleSet, train_idx: np.ndarray) -> tuple[float, float]:
    """Largest step difference and amount over all transactions covered by
    training-split samples; frozen before any unlabeling repetition."""
    # Each customer's reach: its longest training prefix, 0 if it has none.
    reach = np.zeros(len(samples.customers), dtype=np.intp)
    np.maximum.at(reach, samples.customer_idx[train_idx], samples.prefix_len[train_idx])
    max_sd, max_amt = 0.0, 0.0
    for ci in np.flatnonzero(reach):
        cs, j = samples.customers[ci], reach[ci]
        max_sd = max(max_sd, float(cs.step_diffs[:j].max()))
        max_amt = max(max_amt, float(cs.amounts[:j].max()))
    return max_sd, max_amt


def continuous_path(
    cs: CustomerSeries, prefix_len: int, max_sd: float, max_amt: float
) -> np.ndarray:
    """(prefix_len, 2) path of scaled step differences and amounts.

    The first transaction of a prefix has step difference 0 by convention;
    maxima of 0 leave the channel unscaled.
    """
    sd = cs.step_diffs[:prefix_len]
    amt = cs.amounts[:prefix_len]
    if max_sd > 0:
        sd = sd / max_sd
    if max_amt > 0:
        amt = amt / max_amt
    return np.column_stack([sd, amt])


# ---------------------------------------------------------------------------
# Risk levels and the condition codes built on them.  Category fraud rates
# come from the labeled training portion only: each labeled sample reveals
# the fraud flag of its label transaction, so the rate of a category is the
# fraud fraction of labeled label-transactions in that category, in percent.
# ---------------------------------------------------------------------------


def category_rate_table(samples: SampleSet, labeled_idx: np.ndarray) -> dict[str, float]:
    """Fraud rate in percent of each category among the label transactions
    of the samples `labeled_idx`; a category none of them has is absent."""
    cats = samples.categories[samples.label_rows(labeled_idx)]
    n_cats = len(samples.vocab.categories)
    seen = np.bincount(cats, minlength=n_cats).tolist()
    frauds = np.bincount(cats[samples.labels[labeled_idx] == 1], minlength=n_cats).tolist()
    return {
        samples.vocab.categories[c]: 100.0 * frauds[c] / n for c, n in enumerate(seen) if n
    }


def rate_to_bucket(rate_percent: float) -> int:
    """Map a fraud rate in percent to risk bucket 1..RISK_LEVELS."""
    if not 0.0 <= rate_percent <= 100.0:
        raise ValueError(f"rate must be a percentage in [0, 100], got {rate_percent}")
    for bucket, edge in enumerate(_BUCKET_EDGES, start=1):
        if rate_percent <= edge:
            return bucket
    return RISK_LEVELS


_warned_categories: set[str] = set()


def risk_levels(samples: SampleSet, rate_table: dict[str, float]) -> np.ndarray:
    """Risk level of the prefix ending at each transaction of `samples`: entry
    r is that of the transaction at `samples.categories[r]`.

    The level of a prefix is the position-weighted average of its
    transactions' risk buckets (transaction i, 1-based, carries weight i),
    rounded half up; a category absent from the rate table falls back to
    bucket 1 with a one-time warning.  Each category code is bucketed once,
    and the weighted sums are integers, so the rounding is exact: with
    S = sum of i * bucket_i and W = sum of i, the level is
    floor(S / W + 1/2) = (2S + W) // 2W.
    """
    names = samples.vocab.categories
    present = np.bincount(samples.categories, minlength=len(names))
    buckets = np.ones(len(names), dtype=np.int64)
    for c, cat in enumerate(names):
        if cat in rate_table:
            buckets[c] = rate_to_bucket(rate_table[cat])
        elif present[c] and cat not in _warned_categories:
            _warned_categories.add(cat)
            logger.warning("category %r missing from rate table; assuming bucket 1", cat)
    starts, lengths = samples.starts[:-1], np.diff(samples.starts)
    position = np.arange(1, samples.starts[-1] + 1, dtype=np.int64) - np.repeat(starts, lengths)
    total = np.cumsum(position * buckets[samples.categories])
    # Each customer's running sum starts afresh at its first transaction.
    total -= np.repeat(np.concatenate(([0], total))[starts], lengths)
    weight = position * (position + 1) // 2
    return (2 * total + weight) // (2 * weight)


def condition_cards(samples: SampleSet) -> tuple[int, int, int]:
    """Number of values of each condition code of `samples`: age bands,
    genders and risk levels (all RISK_LEVELS, whichever occur)."""
    return np.unique(samples.ages).size, np.unique(samples.genders).size, RISK_LEVELS


def _sorted_ranks(codes: np.ndarray, names: tuple[str, ...]) -> np.ndarray:
    """For each code of `names`, the index of its string among the sorted
    strings of the codes that occur in `codes` (0 for one that does not)."""
    occurring = sorted(np.unique(codes).tolist(), key=names.__getitem__)
    ranks = np.zeros(len(names), dtype=np.int64)
    ranks[occurring] = np.arange(len(occurring))
    return ranks


def condition_codes(samples: SampleSet, rows, labeled) -> np.ndarray:
    """(len(rows), 3) condition codes of the samples `rows`: the index of the
    age band and of the gender of the label transaction among the sorted
    values of all `samples`, and the risk level minus 1 under the rate table
    of the samples `labeled`."""
    levels = risk_levels(samples, category_rate_table(samples, labeled))
    rows = np.asarray(rows, dtype=np.intp)
    codes = np.empty((rows.size, 3), dtype=np.int64)
    codes[:, 0] = _sorted_ranks(samples.ages, samples.vocab.ages)[samples.ages[rows]]
    codes[:, 1] = _sorted_ranks(samples.genders, samples.vocab.genders)[samples.genders[rows]]
    codes[:, 2] = levels[samples.label_rows(rows)] - 1
    return codes


# ---------------------------------------------------------------------------
# Splits.
# ---------------------------------------------------------------------------


@dataclass
class SplitResult:
    """Index sets of the fixed train/test split and every labeled draw."""

    train_idx: np.ndarray
    test_idx: np.ndarray
    labeled: dict  # (labeled_size, repetition) -> sorted index array (into samples)


def stratified_split(
    labels: np.ndarray, test_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Class-stratified split; per class, round(test_fraction * count) rows
    go to the test side."""
    labels = np.asarray(labels)
    test_parts = []
    for cls in np.unique(labels):
        rows = np.flatnonzero(labels == cls)
        n_test = int(round(test_fraction * rows.size))
        test_parts.append(rng.permutation(rows)[:n_test])
    test_idx = np.sort(np.concatenate(test_parts))
    mask = np.ones(labels.size, dtype=bool)
    mask[test_idx] = False
    return np.flatnonzero(mask), test_idx


def stratified_subset(
    labels: np.ndarray, pool: np.ndarray, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Stratified without-replacement draw of `size` rows from `pool`.

    The fraud share of the subset tracks the pool's share to within one
    sample; the fraud count is the ceiling of size * pool fraud proportion,
    which keeps at least one fraud in every non-degenerate draw.
    """
    pool = np.asarray(pool)
    if size > pool.size:
        raise ValueError(f"labeled size {size} exceeds pool size {pool.size}")
    pool_labels = labels[pool]
    frauds = pool[pool_labels == 1]
    legits = pool[pool_labels == 0]
    n_fraud = min(math.ceil(size * frauds.size / pool.size), frauds.size, size)
    n_legit = size - n_fraud
    picked = np.concatenate(
        [
            rng.permutation(frauds)[:n_fraud],
            rng.permutation(legits)[:n_legit],
        ]
    )
    return np.sort(picked)


def split_and_unlabel(
    labels: np.ndarray,
    labeled_sizes: tuple[int, ...],
    repetitions: int,
    test_fraction: float,
    seed: int,
) -> SplitResult:
    """Fixed stratified train/test split plus per-(size, repetition) labeled
    subsets.

    The split draws from the `seed` stream (STAGE_SPLIT) and each subset from
    (STAGE_SPLIT, size index, repetition), so every draw is reproducible alone.
    """
    rng = derive_rng(seed, STAGE_SPLIT)
    train_idx, test_idx = stratified_split(labels, test_fraction, rng)
    too_large = [n for n in labeled_sizes if n > train_idx.size]
    if too_large:
        raise ConfigError(
            f"labeled_sizes {too_large} exceed the {train_idx.size} samples of the "
            "training split"
        )
    labeled: dict = {}
    for si, size in enumerate(labeled_sizes):
        for rep in range(repetitions):
            sub_rng = derive_rng(seed, STAGE_SPLIT, si, rep)
            labeled[(size, rep)] = stratified_subset(labels, train_idx, size, sub_rng)
    return SplitResult(train_idx=train_idx, test_idx=test_idx, labeled=labeled)

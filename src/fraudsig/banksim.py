"""Transaction-log ingestion and the prefix-sample evaluation protocol.

The corpus is a simulated card-payment log: one CSV row per transaction with
a day counter (`step`), customer and merchant identifiers, coarse customer
age band and gender, merchant category, amount, and a fraud flag.

The CSV is read column-wise: one pass over the rows, in file order, checks
each row and appends the seven fields later stages read to per-column lists,
which become a `TransactionLog` of numpy arrays (step, amount, fraud) and
string lists (customer, age, gender, category); no per-row record is built.
Customers are numbered in order of first appearance, and one stable sort by
(customer, step) orders all rows, so every customer's series is a slice of
that order with file order breaking ties of step.  Every prefix of length
>= `min_prefix` of a series becomes one sample: the continuous path
carries scaled step differences and amounts, the condition carries the age
band, gender, and a risk level derived from merchant-category fraud rates,
and the label is the fraud flag of the prefix's last transaction.

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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import STAGE_SPLIT, ConfigError, derive_rng

__all__ = [
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
class TransactionLog:
    """The columns of a transaction CSV that later stages read, one entry per
    row in file order."""

    steps: np.ndarray        # int64
    amounts: np.ndarray      # float64
    frauds: np.ndarray       # int8, 0 or 1
    customers: list[str]
    ages: list[str]
    genders: list[str]
    categories: list[str]

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


def load_transactions(path: str | Path) -> TransactionLog:
    """Parse the UTF-8 transaction CSV into the columns of a TransactionLog.

    Accepts single- or double-quoted fields and surrounding whitespace, and
    skips blank lines; raises TransactionParseError with the offending
    physical line number and column at the first malformed row.  A `step`
    must fit int64, an `amount` must be finite and a `customer` not empty.
    """
    path = Path(path)
    steps, amounts, frauds = [], [], []
    customers, ages, genders, categories = [], [], [], []
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
            steps.append(value)
            amount = amount.strip().strip(_QUOTES)
            try:
                value = float(amount)
            except ValueError:
                raise TransactionParseError(
                    lineno, f"non-numeric 'amount' value {amount!r}"
                ) from None
            if not math.isfinite(value):
                raise TransactionParseError(lineno, f"non-finite 'amount' value {amount!r}")
            amounts.append(value)
            fraud = fraud.strip().strip(_QUOTES)
            try:
                flag = int(fraud)
            except ValueError:
                raise TransactionParseError(
                    lineno, f"non-integer 'fraud' value {fraud!r}"
                ) from None
            if flag not in (0, 1):
                raise TransactionParseError(lineno, f"'fraud' must be 0/1, got {flag}")
            frauds.append(flag)
            customers.append(customer.strip().strip(_QUOTES))
            if not customers[-1]:
                raise TransactionParseError(lineno, "empty 'customer' value")
            ages.append(age.strip().strip(_QUOTES))
            genders.append(gender.strip().strip(_QUOTES))
            categories.append(category.strip().strip(_QUOTES))
    return TransactionLog(
        steps=np.asarray(steps, dtype=np.int64),
        amounts=np.asarray(amounts, dtype=np.float64),
        frauds=np.asarray(frauds, dtype=np.int8),
        customers=customers, ages=ages, genders=genders, categories=categories,
    )


@dataclass
class CustomerSeries:
    """All transactions of one customer, ordered by step (stable)."""

    customer: str
    steps: np.ndarray
    amounts: np.ndarray
    frauds: np.ndarray
    ages: list[str]
    genders: list[str]
    categories: list[str]
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
    all rows, and each series is a slice of that order.
    """
    number = {c: i for i, c in enumerate(dict.fromkeys(log.customers))}
    ids = np.fromiter(map(number.__getitem__, log.customers), dtype=np.intp, count=len(log))
    order = np.lexsort((log.steps, ids))
    ends = np.cumsum(np.bincount(ids, minlength=len(number))).tolist()
    steps, amounts, frauds = log.steps[order], log.amounts[order], log.frauds[order]
    rows = order.tolist()
    ages = [log.ages[i] for i in rows]
    genders = [log.genders[i] for i in rows]
    categories = [log.categories[i] for i in rows]
    kept: list[CustomerSeries] = []
    excluded = start = 0
    for cid, end in zip(number, ends):
        own, start = slice(start, end), end
        if genders[end - 1] not in VALID_GENDERS:
            excluded += 1
            continue
        kept.append(
            CustomerSeries(
                customer=cid, steps=steps[own], amounts=amounts[own], frauds=frauds[own],
                ages=ages[own], genders=genders[own], categories=categories[own],
            )
        )
    return kept, excluded


@dataclass
class SampleSet:
    """Flat arrays describing every prefix sample.

    Column `prefix_len` is the 1-based index of the label transaction within
    its customer's series; the sample's path covers transactions 1..prefix_len.
    """

    customers: list[CustomerSeries]
    customer_idx: np.ndarray
    prefix_len: np.ndarray
    labels: np.ndarray
    amounts: np.ndarray          # raw amount of the label transaction
    ages: list[str]              # age band at the label transaction
    genders: list[str]

    def __len__(self) -> int:
        return len(self.customer_idx)


def make_samples(customers: list[CustomerSeries], min_prefix: int = 5) -> SampleSet:
    """One sample per prefix of length >= min_prefix per customer."""
    cidx, plen, labels, amounts, ages, genders = [], [], [], [], [], []
    for ci, cs in enumerate(customers):
        for j in range(min_prefix, len(cs) + 1):
            cidx.append(ci)
            plen.append(j)
            labels.append(int(cs.frauds[j - 1]))
            amounts.append(float(cs.amounts[j - 1]))
            ages.append(cs.ages[j - 1])
            genders.append(cs.genders[j - 1])
    return SampleSet(
        customers=customers,
        customer_idx=np.asarray(cidx, dtype=np.intp),
        prefix_len=np.asarray(plen, dtype=np.intp),
        labels=np.asarray(labels, dtype=np.int8),
        amounts=np.asarray(amounts, dtype=np.float64),
        ages=ages,
        genders=genders,
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
    counts: dict[str, list[int]] = {}
    for i in labeled_idx:
        ci = int(samples.customer_idx[i])
        j = int(samples.prefix_len[i])
        cat = samples.customers[ci].categories[j - 1]
        entry = counts.setdefault(cat, [0, 0])
        entry[0] += int(samples.labels[i])
        entry[1] += 1
    return {cat: 100.0 * f / n for cat, (f, n) in counts.items()}


def rate_to_bucket(rate_percent: float) -> int:
    """Map a fraud rate in percent to risk bucket 1..RISK_LEVELS."""
    if not 0.0 <= rate_percent <= 100.0:
        raise ValueError(f"rate must be a percentage in [0, 100], got {rate_percent}")
    for bucket, edge in enumerate(_BUCKET_EDGES, start=1):
        if rate_percent <= edge:
            return bucket
    return RISK_LEVELS


_warned_categories: set[str] = set()


def risk_levels(cs: CustomerSeries, rate_table: dict[str, float]) -> np.ndarray:
    """Risk level of every prefix of a customer at once.

    The level of a prefix is the position-weighted average of its
    transactions' risk buckets (transaction i, 1-based, carries weight i),
    rounded half up; a category absent from the rate table falls back to
    bucket 1 with a one-time warning.  Cumulative sums share the
    per-transaction bucket lookups across prefixes.
    """
    n = len(cs)
    buckets = np.empty(n, dtype=np.float64)
    for i, cat in enumerate(cs.categories):
        if cat in rate_table:
            buckets[i] = rate_to_bucket(rate_table[cat])
        else:
            buckets[i] = 1
            if cat not in _warned_categories:
                _warned_categories.add(cat)
                logger.warning("category %r missing from rate table; assuming bucket 1", cat)
    weights = np.arange(1, n + 1, dtype=np.float64)
    avg = np.cumsum(weights * buckets) / np.cumsum(weights)
    return np.floor(avg + 0.5).astype(np.int64)


def condition_cards(samples: SampleSet) -> tuple[int, int, int]:
    """Number of values of each condition code of `samples`: age bands,
    genders and risk levels (all RISK_LEVELS, whichever occur)."""
    return len(set(samples.ages)), len(set(samples.genders)), RISK_LEVELS


def condition_codes(samples: SampleSet, rows, labeled) -> np.ndarray:
    """(len(rows), 3) condition codes of the samples `rows`: the index of the
    age band and of the gender of the label transaction among the sorted
    values of all `samples`, and the risk level minus 1 under the rate table
    of the samples `labeled`."""
    table = category_rate_table(samples, labeled)
    levels = np.concatenate([risk_levels(cs, table) for cs in samples.customers])
    starts = np.cumsum([0] + [len(cs) for cs in samples.customers])
    rows = np.asarray(rows, dtype=np.intp)
    codes = np.empty((rows.size, 3), dtype=np.int64)
    for col, values in enumerate((samples.ages, samples.genders)):
        index = {v: k for k, v in enumerate(sorted(set(values)))}
        codes[:, col] = [index[values[i]] for i in rows]
    codes[:, 2] = levels[starts[samples.customer_idx[rows]] + samples.prefix_len[rows] - 1] - 1
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

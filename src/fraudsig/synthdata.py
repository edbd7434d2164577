"""Synthetic transaction-log generator.

Produces CSV files with the exact schema, quoting style, and shape
statistics of the simulated card-payment corpus the pipeline targets
(customer/row/fraud counts are parameters, so tests can pin them), while the
content is sampled: customers have home spending categories and lognormal
amounts, and fraudulent transactions concentrate in high-risk categories
with strongly inflated amounts, giving models a learnable signal.

The default spec reproduces the reference corpus shape: 594,643 rows over
4,112 customers (12 without a valid gender), 7,200 fraudulent transactions,
and 1,479 fraud-containing customers among the 4,100 kept, with fraud
placement tuned so the derived prefix-sample set has the documented labeled
fraud counts under the stratified protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["SynthSpec", "generate"]

_CATEGORIES = (
    # (name, popularity weight for normal spending, fraud weight)
    ("es_transportation", 60.0, 0.0),
    ("es_food", 10.0, 0.2),
    ("es_health", 8.0, 2.0),
    ("es_wellnessandbeauty", 5.0, 1.5),
    ("es_fashion", 4.0, 1.0),
    ("es_barsandrestaurants", 4.0, 1.0),
    ("es_hyper", 3.0, 1.5),
    ("es_contents", 2.0, 0.5),
    ("es_home", 1.5, 3.0),
    ("es_otherservices", 1.0, 3.0),
    ("es_hotelservices", 0.8, 5.0),
    ("es_sportsandtoys", 0.8, 6.0),
    ("es_tech", 0.6, 4.0),
    ("es_leisure", 0.2, 8.0),
    ("es_travel", 0.1, 7.0),
)


@dataclass(frozen=True)
class SynthSpec:
    """Exact shape parameters of a generated corpus."""

    n_customers: int = 4112
    n_missing_gender: int = 12
    n_rows: int = 594643
    excluded_rows: int = 1665
    n_fraud_customers: int = 1479
    sample_frauds: int = 6395      # frauds at 1-based position >= 5 of kept customers
    early_frauds: int = 505        # frauds at positions 1..4 of fraud customers
    excluded_frauds: int = 300     # frauds inside dropped customers
    min_rows: int = 5
    max_rows: int = 265
    max_step: int = 179

    @property
    def n_kept(self) -> int:
        return self.n_customers - self.n_missing_gender

    @property
    def kept_rows(self) -> int:
        return self.n_rows - self.excluded_rows

    @classmethod
    def small(cls) -> "SynthSpec":
        """A quick variant for smoke tests and demos (~2k rows)."""
        return cls(
            n_customers=64, n_missing_gender=2, n_rows=2200, excluded_rows=40,
            n_fraud_customers=24, sample_frauds=70, early_frauds=8,
            excluded_frauds=4, min_rows=5, max_rows=90, max_step=179,
        )

    def validate(self) -> None:
        if self.n_missing_gender >= self.n_customers:
            raise ValueError("all customers would be excluded")
        if not self.min_rows * self.n_kept <= self.kept_rows <= self.max_rows * self.n_kept:
            raise ValueError("kept_rows incompatible with per-customer row bounds")
        if self.n_missing_gender and not (
            self.min_rows * self.n_missing_gender
            <= self.excluded_rows
            <= self.max_rows * self.n_missing_gender
        ):
            raise ValueError("excluded_rows incompatible with per-customer row bounds")
        if self.n_fraud_customers > self.n_kept:
            raise ValueError("more fraud customers than kept customers")
        if self.sample_frauds < self.n_fraud_customers:
            raise ValueError("need at least one late fraud per fraud customer")
        if self.early_frauds > 4 * self.n_fraud_customers:
            raise ValueError("early frauds exceed available positions")


def _counts_with_bounds(rng, n, total, low, high):
    """Random integer vector of length n summing to `total` within [low, high]."""
    if n == 0:
        if total:
            raise ValueError("cannot place rows without customers")
        return np.zeros(0, dtype=np.int64)
    counts = np.full(n, low, dtype=np.int64)
    remaining = total - low * n
    while remaining > 0:
        extra = rng.multinomial(remaining, np.full(n, 1.0 / n))
        counts += extra
        overflow = np.maximum(counts - high, 0)
        counts -= overflow
        remaining = int(overflow.sum())
    return counts


def _spread_with_caps(rng, total, caps):
    """Random allocation of `total` units under per-slot capacities."""
    alloc = np.zeros(caps.size, dtype=np.int64)
    remaining = total
    while remaining > 0:
        room = np.flatnonzero(alloc < caps)
        if room.size == 0:
            raise ValueError("insufficient capacity for fraud placement")
        take = rng.multinomial(remaining, np.full(room.size, 1.0 / room.size))
        alloc[room] += take
        overflow = np.maximum(alloc - caps, 0)
        alloc -= overflow
        remaining = int(overflow.sum())
    return alloc


def generate(path: str | Path, spec: SynthSpec | None = None, seed: int = 0) -> None:
    """Write a synthetic corpus CSV to `path`."""
    spec = spec or SynthSpec()
    spec.validate()
    rng = np.random.default_rng(seed)

    names = [c[0] for c in _CATEGORIES]
    pop = np.asarray([c[1] for c in _CATEGORIES])
    pop = pop / pop.sum()
    fraud_w = np.asarray([c[2] for c in _CATEGORIES])
    fraud_w = fraud_w / fraud_w.sum()
    merchants = {
        name: [f"M{ci:02d}{m}" for m in range(3)] for ci, name in enumerate(names)
    }

    kept_counts = _counts_with_bounds(
        rng, spec.n_kept, spec.kept_rows, spec.min_rows, spec.max_rows
    )
    excl_counts = _counts_with_bounds(
        rng, spec.n_missing_gender, spec.excluded_rows, spec.min_rows, spec.max_rows
    )

    fraud_customers = rng.choice(spec.n_kept, size=spec.n_fraud_customers, replace=False)
    late_caps = kept_counts[fraud_customers] - 4
    late_alloc = np.ones(spec.n_fraud_customers, dtype=np.int64)
    late_alloc += _spread_with_caps(
        rng, spec.sample_frauds - spec.n_fraud_customers, late_caps - 1
    )
    early_alloc = _spread_with_caps(
        rng, spec.early_frauds, np.full(spec.n_fraud_customers, 4, dtype=np.int64)
    )
    excl_fraud_alloc = (
        _spread_with_caps(rng, spec.excluded_frauds, excl_counts)
        if spec.n_missing_gender
        else np.zeros(0, dtype=np.int64)
    )

    fraud_pos: dict[int, np.ndarray] = {}
    for ci, late, early in zip(fraud_customers, late_alloc, early_alloc):
        t = kept_counts[ci]
        pos_late = rng.choice(t - 4, size=late, replace=False) + 4
        pos_early = rng.choice(4, size=early, replace=False)
        fraud_pos[int(ci)] = np.concatenate([pos_late, pos_early])

    rows: list[str] = []

    def emit_customer(cid, t, gender, fraud_positions):
        age = str(rng.integers(1, 7))
        start = int(rng.integers(0, 25))
        gaps = rng.geometric(0.55, size=t) - 1
        steps = np.minimum(start + np.cumsum(gaps) - gaps[0], spec.max_step)
        is_fraud = np.zeros(t, dtype=bool)
        if fraud_positions is not None and fraud_positions.size:
            is_fraud[fraud_positions] = True
        home = rng.choice(len(names), p=pop)
        cats = np.where(
            rng.random(t) < 0.6, home, rng.choice(len(names), size=t, p=pop)
        )
        fraud_cats = rng.choice(len(names), size=t, p=fraud_w)
        cats = np.where(is_fraud, fraud_cats, cats)
        amounts = np.where(
            is_fraud,
            np.minimum(rng.lognormal(5.6, 0.7, size=t), 8000.0),
            np.minimum(rng.lognormal(3.2, 0.55, size=t), 2000.0),
        )
        midx = rng.integers(3, size=t)
        for i in range(t):
            cat = names[cats[i]]
            rows.append(
                f"{steps[i]},'{cid}','{age}','{gender}','28007',"
                f"'{merchants[cat][midx[i]]}','28007','{cat}',"
                f"{amounts[i]:.2f},{int(is_fraud[i])}"
            )

    genders = np.where(rng.random(spec.n_kept) < 0.52, "F", "M")
    for ci in range(spec.n_kept):
        emit_customer(
            f"C{ci:07d}", int(kept_counts[ci]), genders[ci], fraud_pos.get(ci)
        )
    for xi in range(spec.n_missing_gender):
        t = int(excl_counts[xi])
        k = int(excl_fraud_alloc[xi])
        pos = rng.choice(t, size=k, replace=False) if k else np.zeros(0, dtype=np.int64)
        emit_customer(f"X{xi:07d}", t, "E" if xi % 2 else "U", pos)

    header = (
        "step,customer,age,gender,zipcodeOri,merchant,zipMerchant,category,"
        "amount,fraud"
    )
    Path(path).write_text(header + "\n" + "\n".join(rows) + "\n")

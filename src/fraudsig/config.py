"""Experiment configuration, deterministic seed derivation and the error
kinds the CLI maps to exit codes.

A single YAML file drives every pipeline stage.  All randomness flows from
one global seed through numpy's SeedSequence spawn-key mechanism, so each
(stage, cell, repetition, chain) gets an independent, reproducible stream.
"""

from __future__ import annotations

import dataclasses
import numbers
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

__all__ = [
    "SplitPlan",
    "TrainConfig",
    "HeadConfig",
    "ExperimentConfig",
    "ConfigError",
    "DataError",
    "derive_rng",
    "derive_seed_sequence",
    "cache_dir",
    "CACHE_ENV_VAR",
]

CACHE_ENV_VAR = "FRAUDSIG_CACHE"

# Stage identifiers for seed spawn keys.
STAGE_SPLIT = 1
STAGE_TRAIN = 2
STAGE_PREPARE = 4


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


class DataError(RuntimeError):
    """Missing, unreadable or inconsistent pipeline inputs."""


def derive_seed_sequence(global_seed: int, *key: int) -> np.random.SeedSequence:
    """Child seed sequence for a fixed integer key path."""
    return np.random.SeedSequence(global_seed, spawn_key=tuple(int(k) for k in key))

def derive_rng(global_seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(derive_seed_sequence(global_seed, *key)))


def _is_kind(value, allowed) -> bool:
    return isinstance(value, allowed) and not isinstance(value, bool)


def _check_kinds(section) -> None:
    """Every field whose default is an integer or a float, or a tuple of
    them, holds values of that kind (bools are neither)."""
    for f in dataclasses.fields(section):
        value, default = getattr(section, f.name), f.default
        items = (value,)
        if isinstance(default, tuple):
            if not isinstance(value, tuple):
                raise ConfigError(f"{f.name} must be a list, got {value!r}")
            items, default = value, default[0]
        if isinstance(default, int):
            kind, allowed = "an integer", numbers.Integral
        elif isinstance(default, float):
            kind, allowed = "a number", numbers.Real
        else:
            continue
        for item in items:
            if not _is_kind(item, allowed):
                raise ConfigError(f"{f.name} must hold {kind}, got {item!r}")


@dataclass(frozen=True)
class SplitPlan:
    """Protocol for the train/test split and the labeled-subset draws."""

    test_fraction: float = 0.1
    labeled_sizes: tuple[int, ...] = (2595, 3893, 5190, 12973, 25946)
    repetitions: int = 5

    def scaled_sizes(self, fraction: float) -> tuple[int, ...]:
        """Labeled sizes scaled proportionally for subsampled runs."""
        if not 0 < fraction <= 1:
            raise ConfigError(f"subsample fraction must be in (0, 1], got {fraction}")
        return tuple(max(1, round(n * fraction)) for n in self.labeled_sizes)


@dataclass(frozen=True)
class TrainConfig:
    """Adversarial training hyperparameters."""

    lr_g: float = 1e-4
    lr_d: float = 5e-3
    batch: int = 2048
    lam: float = 10.0
    gp_weight: float = 10.0
    n_critic: int = 5
    epochs: int = 1000
    chains_g: int = 4
    chains_d: int = 4
    friction: float = 0.1
    noise_scale: float = 1.0
    burn_in: int | None = None       # default: epochs // 2
    thinning: int = 10
    latent_dim: int = 64
    width: int = 128
    n_residual: int = 2
    head_widths: tuple[int, ...] = (64, 32)
    checkpoint_every: int = 0        # epochs between checkpoints; 0 = end only

    def burn_in_epochs(self) -> int:
        return self.epochs // 2 if self.burn_in is None else self.burn_in

    def validate(self) -> None:
        for name in ("lr_g", "lr_d", "lam", "gp_weight", "friction", "noise_scale"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        for name in (
            "batch", "n_critic", "chains_g", "chains_d", "thinning", "latent_dim", "width"
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("epochs", "n_residual", "checkpoint_every"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if any(w < 1 for w in self.head_widths):
            raise ConfigError(f"head_widths entries must be >= 1, got {list(self.head_widths)}")
        burn_in = self.burn_in_epochs()
        if burn_in < 0:
            raise ConfigError("burn_in must be >= 0")
        # Members are kept at epochs e >= burn_in with (e - burn_in) % thinning
        # == 0, from epoch 1 on; evaluate needs at least one.
        first = burn_in if burn_in >= 1 else self.thinning
        if 1 <= self.epochs < first:
            raise ConfigError(
                f"no posterior member is collected: the first is kept at epoch "
                f"{first} (burn_in {burn_in}, thinning {self.thinning}), after the "
                f"last epoch {self.epochs}"
            )


@dataclass(frozen=True)
class HeadConfig:
    """Alert-head and cost evaluation grid."""

    k_percents: tuple[float, ...] = (0.1, 0.2, 0.5, 1.0)
    recall_levels: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8)
    alpha: float = 0.02
    tau: float = 0.5

    def validate(self) -> None:
        if not all(0 < k <= 100 for k in self.k_percents):
            raise ConfigError(
                f"k_percents entries must be in (0, 100], got {list(self.k_percents)}"
            )
        if not all(0 < r <= 1 for r in self.recall_levels):
            raise ConfigError(
                f"recall_levels entries must be in (0, 1], got {list(self.recall_levels)}"
            )
        if not self.alpha >= 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if not 0 <= self.tau <= 1:
            raise ConfigError(f"tau must be in [0, 1], got {self.tau}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Top-level configuration for the four pipeline stages."""

    dataset_path: str
    output_dir: str
    seed: int = 0
    sig_degree: int = 4
    min_prefix: int = 5
    split: SplitPlan = field(default_factory=SplitPlan)
    train: TrainConfig = field(default_factory=TrainConfig)
    heads: HeadConfig = field(default_factory=HeadConfig)
    cache: str | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        try:
            raw = dict(raw)
            for key, sub in (("split", SplitPlan), ("train", TrainConfig), ("heads", HeadConfig)):
                if key in raw and isinstance(raw[key], dict):
                    section = dict(raw[key])
                    for f in dataclasses.fields(sub):
                        if f.name in section and isinstance(section[f.name], list):
                            section[f.name] = tuple(section[f.name])
                    unknown = set(section) - {f.name for f in dataclasses.fields(sub)}
                    if unknown:
                        raise ConfigError(f"unknown keys in '{key}': {sorted(unknown)}")
                    raw[key] = sub(**section)
            unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            cfg = cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
        cfg.validate()
        return cfg

    @classmethod
    def from_yaml(cls, path: str | Path) -> "ExperimentConfig":
        try:
            raw = yaml.safe_load(Path(path).read_text())
        except (OSError, yaml.YAMLError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must be a mapping")
        return cls.from_dict(raw)

    def validate(self) -> None:
        if not self.dataset_path:
            raise ConfigError("dataset_path is required")
        for section in (self, self.split, self.train, self.heads):
            _check_kinds(section)
        burn_in = self.train.burn_in
        if burn_in is not None and not _is_kind(burn_in, numbers.Integral):
            raise ConfigError(f"burn_in must be an integer or null, got {burn_in!r}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.sig_degree < 1:
            raise ConfigError("sig_degree must be >= 1")
        if self.min_prefix < 2:
            raise ConfigError("min_prefix must be >= 2")
        if not 0 < self.split.test_fraction < 1:
            raise ConfigError("test_fraction must be in (0, 1)")
        if self.split.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if not self.split.labeled_sizes:
            raise ConfigError("labeled_sizes must name at least one size")
        if any(n < 1 for n in self.split.labeled_sizes):
            raise ConfigError(
                f"labeled_sizes entries must be >= 1, got {list(self.split.labeled_sizes)}"
            )
        if len(set(self.split.labeled_sizes)) < len(self.split.labeled_sizes):
            raise ConfigError(
                f"labeled_sizes must not repeat a size, got {list(self.split.labeled_sizes)}"
            )
        self.train.validate()
        self.heads.validate()

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def cache_dir(cfg: ExperimentConfig) -> Path:
    """Feature-cache directory: environment override, then config, then a
    `cache/` directory under the output directory."""
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    if cfg.cache:
        return Path(cfg.cache)
    return Path(cfg.output_dir) / "cache"
